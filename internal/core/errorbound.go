package core

// This file implements the error estimation of paper §IV-B
// (Proposition 1): given the current allocation ρ′, the Manhattan
// distance to the optimal allocation ρ is bounded by
//
//	‖ρ − ρ′‖₁ ≤ (4m + 1) · ΔR · Σ_i s_i,
//
// where ΔR = Σ_j max_k ((1/s_j + 1/s_k) Δr_jk) and Δr_jk is the request
// volume Algorithm 1 would currently move from server j toward server k.
// The bound lets an operator decide whether continuing the distributed
// algorithm is worthwhile: small pending transfers ⇒ near-optimal state.
//
// Computing all Δr_jk requires simulating Algorithm 1 for every ordered
// pair — O(m³ log m) — so this estimation is intended for occasional
// checks, as the paper notes (§IX: "the distributed algorithm still
// outperforms standard optimization techniques" even with it).

// TransferMatrix returns Δr[i][j]: the volume Algorithm 1 would move onto
// server j when balancing the pair (i, j) from the current state.
func TransferMatrix(st *State) [][]float64 {
	m := st.In.M()
	buf := newPairBuffer(m)
	dr := make([][]float64, m)
	for i := 0; i < m; i++ {
		dr[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			buf.loadFull(st, i, j)
			buf.balance(st.In, i, j)
			dr[i][j] = buf.movedToward()
		}
	}
	return dr
}

// DeltaR computes ΔR = Σ_j max_k ((1/s_j + 1/s_k) Δr_jk) from a transfer
// matrix (Proposition 1, condition (ii)).
func DeltaR(st *State, dr [][]float64) float64 {
	m := st.In.M()
	var total float64
	for j := 0; j < m; j++ {
		var maxTerm float64
		for k := 0; k < m; k++ {
			if k == j {
				continue
			}
			term := (1/st.In.Speed[j] + 1/st.In.Speed[k]) * dr[j][k]
			if term > maxTerm {
				maxTerm = term
			}
		}
		total += maxTerm
	}
	return total
}

// DistanceBound returns the Proposition 1 upper bound on the Manhattan
// distance between the current allocation and the optimum:
// (4m+1) · ΔR · Σ_i s_i. The caller should run RemoveCycles first, since
// the proposition assumes an allocation without negative cycles.
func DistanceBound(st *State) float64 {
	dr := TransferMatrix(st)
	m := float64(st.In.M())
	return (4*m + 1) * DeltaR(st, dr) * st.In.TotalSpeed()
}
