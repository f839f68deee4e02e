// Package core implements the paper's primary contribution: the MinE
// distributed load-balancing algorithm (paper Algorithms 1 and 2), built
// on the optimal pairwise transfer of Lemma 1, together with the
// Proposition 1 distance-to-optimum estimation and the negative-cycle
// removal of Appendix A (via a min-cost-flow reduction).
//
// The algorithm iteratively improves an allocation: in every iteration
// each server, in random order, picks the partner server offering the
// largest improvement of ΣC_i and rebalances *all* organizations'
// requests between the two servers. Pairwise stability implies global
// optimality for this convex objective, which is why the procedure
// converges to the optimum (§IV-A).
package core

import (
	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// State couples an instance with a mutable allocation and maintains the
// server load vector incrementally.
//
// The request matrix is stored by column, the layout Algorithm 1 reads
// and writes: for every server j, owners[j] lists in ascending order
// the organizations k with r_kj != 0 and vals[j] holds those r_kj.
// Memory is O(nnz + m), the m² matrix is never allocated, and a pairwise
// step costs O((w_i + w_j) log(w_i + w_j)) where w_j is the number of
// organizations with requests on server j. Real allocations keep
// w_j ≪ m (each server hosts a handful of organizations' requests), so
// partner evaluation never pays for the m − w empty column slots.
// Algorithm 1 only changes the requests of organizations with mass on
// one of the two servers it balances, so this compacted step is the
// paper's step. Rows builds the row form for callers that need it.
//
// Invariant: no zero is stored, so stored and nonzero entries coincide.
// NewState establishes it and ApplyPair/RemoveCycles preserve it.
type State struct {
	In     *model.Instance
	Loads  []float64
	owners [][]int32
	vals   [][]float64
}

// NewState builds a State from an instance and a sparse request matrix,
// which it only reads: the nonzero entries are copied into the column
// store, and the caller keeps rows unchanged. O(nnz + m).
func NewState(in *model.Instance, rows *sparse.Matrix) *State {
	st := &State{In: in, Loads: make([]float64, in.M())}
	st.setColumns(rows)
	return st
}

// NewIdentityState starts from the identity allocation (everyone local).
func NewIdentityState(in *model.Instance) *State {
	return NewState(in, sparse.Diagonal(in.Load))
}

// setColumns replaces the column store with the nonzero entries of rows
// and recomputes Loads. Each load folds its column in ascending k, the
// order of Allocation.LoadsInto, whose zeros add exactly +0.0, so the
// two folds agree bit for bit. O(nnz + m).
func (st *State) setColumns(rows *sparse.Matrix) {
	st.owners, st.vals = transpose(rows.Idx, rows.Val, len(st.Loads))
	for j, vals := range st.vals {
		var l float64
		for _, v := range vals {
			l += v
		}
		st.Loads[j] = l
	}
}

// Rows builds the request matrix in row form: row k holds organization
// k's nonzero r_kj in ascending j, the entries the column store holds.
// The matrix is the caller's; the state does not keep it. O(nnz + m).
func (st *State) Rows() *sparse.Matrix {
	m := len(st.owners)
	idx, val := transpose(st.owners, st.vals, m)
	return &sparse.Matrix{Cols: m, Idx: idx, Val: val}
}

// transpose returns the nonzero entries of the sparse lines (idx, val)
// regrouped by index: entry t of line a, with index b = idx[a][t],
// becomes an entry of output line b with index a, and each output line
// lists its indices in ascending order. The n output lines share one
// backing per array, each capped at its own count, so appending to one
// line never writes into the next and a line that grows reallocates
// only itself. O(nnz + n).
func transpose(idx [][]int32, val [][]float64, n int) ([][]int32, [][]float64) {
	counts := make([]int, n)
	nnz := 0
	for a := range idx {
		for t, b := range idx[a] {
			if val[a][t] != 0 {
				counts[b]++
				nnz++
			}
		}
	}
	ibuf := make([]int32, nnz)
	vbuf := make([]float64, nnz)
	outIdx := make([][]int32, n)
	outVal := make([][]float64, n)
	off := 0
	for b, c := range counts {
		outIdx[b] = ibuf[off : off : off+c]
		outVal[b] = vbuf[off : off : off+c]
		off += c
	}
	for a := range idx {
		for t, b := range idx[a] {
			if v := val[a][t]; v != 0 {
				outIdx[b] = append(outIdx[b], int32(a))
				outVal[b] = append(outVal[b], v)
			}
		}
	}
	return outIdx, outVal
}

// NNZ returns the number of stored entries, which are the nonzero r_kj.
func (st *State) NNZ() int {
	n := 0
	for _, owners := range st.owners {
		n += len(owners)
	}
	return n
}

// Cost returns the current ΣC_i, with the communication term summed
// over the columns in O(nnz).
func (st *State) Cost() float64 {
	var cost float64
	for j, l := range st.Loads {
		cost += l * l / (2 * st.In.Speed[j])
	}
	for j, owners := range st.owners {
		vals := st.vals[j]
		for t, k := range owners {
			if int(k) != j {
				cost += vals[t] * st.In.LatAt(int(k), j)
			}
		}
	}
	return cost
}

// localCost returns the part of ΣC_i that depends only on columns i and j:
// l_i²/2s_i + l_j²/2s_j + Σ_k (r_ki·c_ki + r_kj·c_kj). Pairwise steps
// change only this quantity, so improvements are computed from it.
func (st *State) localCost(i, j int) float64 {
	in := st.In
	li, lj := st.Loads[i], st.Loads[j]
	cost := li*li/(2*in.Speed[i]) + lj*lj/(2*in.Speed[j])
	for t, k := range st.owners[i] {
		cost += st.vals[i][t] * in.LatAt(int(k), i)
	}
	for t, k := range st.owners[j] {
		cost += st.vals[j][t] * in.LatAt(int(k), j)
	}
	return cost
}
