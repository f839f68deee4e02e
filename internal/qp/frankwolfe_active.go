package qp

import "math"

// This file holds the away-step and pairwise step rules of the
// Frank–Wolfe engine (frankwolfe_sparse.go). Where classic blends every
// row toward its LMO vertex by one global ratio, these rules sweep the
// rows in turn against live loads (Gauss–Seidel), each loaded row taking
// its own exact line-search steps along the best of
//
//	FW:       e_s − ρ_i          (toward the LMO vertex s, cap γ ≤ 1)
//	away:     ρ_i − e_a          (off the worst active vertex a,
//	                              cap γ ≤ ρ_a/(1−ρ_a))
//	pairwise: e_s − e_a          (mass straight from a to s, cap γ ≤ ρ_a)
//
// Classic's single ratio is throttled by the most fragile row, so its
// gap stalls sublinearly; per-row steps that bind at the cap *drop* the
// away vertex from the support, so the iterate sheds stale vertices
// instead of shrinking them geometrically forever.

// maxRowSteps bounds the chained line-search steps one row may take per
// sweep: a heavy row spreading over several servers needs several, and
// giving them within the sweep keeps the sweep count flat as m grows.
// The certificate pass keeps the stopping rule exact at any value.
const maxRowSteps = 4

// maxRowDrift bounds how far an away step may leave a row's sum from 1
// before the row is renormalized, a decade inside the 1e-12 the
// active-set invariants allow.
const maxRowDrift = 1e-13

// shift moves delta requests onto server j, updating the congestion
// score and the metro oracle.
func (st *fwState) shift(j int, delta float64) {
	st.loads[j] += delta
	old := st.base[j]
	st.base[j] = st.loads[j] / st.in.Speed[j]
	if st.lmo != nil {
		st.lmo.touch(j, old, st.base[j], st.base)
	}
}

// sweep is the away/pairwise step: every loaded row takes up to
// maxRowSteps exact steps against the loads the previous rows left.
//
// On the metro oracle a row step first brackets the oracle's score
// sScore between the O(k) bound LB and the incumbent's base[i]. IEEE
// subtraction is monotone, so fl(cur − LB) ≥ gFW ≥ fl(cur − base[i]),
// and the step is settled without the oracle when the bracket decides
// it: an away step that beats every possible gFW, a stay that no gFW
// can beat, or (pairwise) an away vertex no worse than LB. Only a FW or
// pairwise step needs the vertex itself. The choices, and so the
// iterates, are the always-oracle sweep's bit for bit.
func (st *fwState) sweep(pairwise bool) {
	for i, ni := range st.in.Load {
		if ni == 0 {
			continue
		}
		lat := st.latRow(i)
	steps:
		for k := 0; k < maxRowSteps; k++ {
			cur, aScore, aPos := st.rowScores(i, lat)
			if aPos < 0 {
				break // infeasible empty row; nothing to move
			}
			gAway := aScore - cur
			if st.lmo != nil {
				lb := st.lmo.lowerBound(i, st.base)
				hi := cur - lb // ≥ gFW
				switch {
				case pairwise:
					if aScore <= lb {
						st.oracleSkips++
						break steps
					}
				case gAway > hi:
					st.oracleSkips++
					st.awayRowStep(i, aPos, gAway, lat)
					continue
				case hi <= 0 && gAway <= cur-st.base[i]:
					st.oracleSkips++
					break steps
				}
			}
			s, sScore := st.oracle(i, lat)
			if pairwise {
				if aScore <= sScore {
					break
				}
				st.pairRowStep(i, s, aPos, sScore, aScore)
				continue
			}
			if gFW := cur - sScore; gAway > gFW {
				st.awayRowStep(i, aPos, gAway, lat)
			} else if gFW > 0 {
				st.fwRowStep(i, s, gFW)
			} else {
				break
			}
		}
	}
}

// fwRowStep takes row i's exact line-search step toward vertex s:
// ρ_i ← (1−γ)ρ_i + γ e_s with γ = min(1, n_i·gFW/φ″). A γ = 1 step
// lands on the vertex and drops the entire previous support.
func (st *fwState) fwRowStep(i, s int, gFW float64) {
	ni := st.in.Load[i]
	idx, val := st.rho.Idx[i], st.rho.Val[i]
	var q float64 // Σ_j d_j²/s_j for d = e_s − ρ_i
	sIn := false
	for t, j := range idx {
		d := -val[t]
		if int(j) == s {
			d++
			sIn = true
		}
		q += d * d / st.in.Speed[j]
	}
	if !sIn {
		q += 1 / st.in.Speed[s]
	}
	gamma := 1.0
	if curv := ni * ni * q; curv > 0 {
		gamma = math.Min(1, ni*gFW/curv)
	}
	if gamma <= 0 {
		return
	}
	if gamma == 1 {
		for t, j := range idx {
			st.shift(int(j), -ni*val[t])
		}
		st.rho.Idx[i] = append(idx[:0], int32(s))
		st.rho.Val[i] = append(val[:0], 1)
		st.shift(s, ni)
		return
	}
	for t, j := range idx {
		st.shift(int(j), -ni*gamma*val[t])
		val[t] *= 1 - gamma
	}
	st.rho.Add(i, s, gamma)
	st.shift(s, ni*gamma)
}

// awayRowStep takes row i's exact line-search step off its away vertex:
// ρ_i ← (1+γ)ρ_i − γ e_a with γ capped at ρ_a/(1−ρ_a), the step that
// empties the away vertex. A cap-binding step is a drop step: the vertex
// leaves the support and the survivors renormalize to an exact unit sum.
func (st *fwState) awayRowStep(i, aPos int, gAway float64, lat []float64) {
	ni := st.in.Load[i]
	idx, val := st.rho.Idx[i], st.rho.Val[i]
	wa := val[aPos]
	if len(idx) < 2 || wa >= 1 {
		return // single-vertex row: no away direction
	}
	maxStep := wa / (1 - wa)
	var q float64 // Σ_j d_j²/s_j for d = ρ_i − e_a
	for t, j := range idx {
		d := val[t]
		if t == aPos {
			d--
		}
		q += d * d / st.in.Speed[j]
	}
	gamma := maxStep
	if curv := ni * ni * q; curv > 0 {
		gamma = math.Min(maxStep, ni*gAway/curv)
	}
	if gamma <= 0 {
		return
	}
	if gamma > 1 {
		// Only an away vertex holding over half the row allows γ > 1.
		st.longAwayStep(i, aPos, lat)
		return
	}
	if gamma == maxStep {
		st.dropRow(i, aPos)
		return
	}
	scale := 1 + gamma
	var sum float64
	for t, j := range idx {
		old := val[t]
		val[t] = old * scale
		delta := gamma * old
		if t == aPos {
			val[t] -= gamma
			delta -= gamma
		}
		sum += val[t]
		st.shift(int(j), ni*delta)
	}
	switch {
	case val[aPos] <= 0:
		// Rounding carried the away weight to (or past) zero: treat it
		// as the drop it mathematically is.
		st.dropRow(i, aPos)
	case math.Abs(sum-1) > maxRowDrift:
		// The update scales the row's deviation from a unit sum by 1+γ,
		// so repeated away steps off one vertex compound it.
		st.dropRow(i, -1)
	}
}

// longAwayStep is awayRowStep off a vertex a holding most of row i. The
// other mass r = Σ_{t≠a} ρ_t may then be tiny, and both aScore − cur and
// (1+γ)ρ_a − γ subtract near-equal numbers: slope noise over a tiny
// curvature can move O(1) mass, and the update can throw the row sum
// far off 1. So the step is rebuilt from r: slope Σ_{t≠a} ρ_t(aScore −
// score_t), cap ρ_a/r, and a move of exactly γ·r off a.
func (st *fwState) longAwayStep(i, aPos int, lat []float64) {
	ni := st.in.Load[i]
	idx, val := st.rho.Idx[i], st.rho.Val[i]
	a, wa := int(idx[aPos]), val[aPos]
	aScore := st.score(i, a, lat)
	var r, g, q float64 // other mass, slope, Σ_j d_j²/s_j
	for t, j := range idx {
		if t != aPos {
			v := val[t]
			r += v
			g += v * (aScore - st.score(i, int(j), lat))
			q += v * v / st.in.Speed[j]
		}
	}
	if r <= 0 || g <= 0 {
		return
	}
	q += r * r / st.in.Speed[a]
	maxStep := wa / r
	gamma := math.Min(maxStep, ni*g/(ni*ni*q)) // q > 0 unless r² underflows
	if gamma == maxStep {
		st.dropRow(i, aPos)
		return
	}
	for t, j := range idx {
		d := gamma * val[t]
		if t == aPos {
			d = -gamma * r
		}
		val[t] += d
		st.shift(int(j), ni*d)
	}
	if val[aPos] <= 0 {
		st.dropRow(i, aPos)
	}
}

// score is row i's congestion score at server j, l_j/s_j + c_ij.
func (st *fwState) score(i, j int, lat []float64) float64 {
	if st.lmo == nil {
		return st.base[j] + lat[j]
	}
	if j == i {
		return st.base[j]
	}
	return st.base[j] + st.lmo.delay[st.lmo.labels[i]][st.lmo.labels[j]]
}

// pairRowStep moves mass straight from row i's away vertex a to vertex
// s: ρ_i ← ρ_i + γ(e_s − e_a) with γ capped at ρ_a. Cap-binding steps
// drop a from the support exactly.
func (st *fwState) pairRowStep(i, s, aPos int, sScore, aScore float64) {
	ni := st.in.Load[i]
	idx, val := st.rho.Idx[i], st.rho.Val[i]
	a := int(idx[aPos])
	if a == s {
		return
	}
	wa := val[aPos]
	gamma := wa
	if curv := ni * ni * (1/st.in.Speed[s] + 1/st.in.Speed[a]); curv > 0 {
		gamma = math.Min(wa, ni*(aScore-sScore)/curv)
	}
	if gamma <= 0 {
		return
	}
	if left := wa - gamma; gamma < wa && left > 0 {
		val[aPos] = left
	} else {
		gamma = wa
		st.drops++
		st.rho.RemoveAt(i, aPos)
	}
	st.rho.Add(i, s, gamma)
	st.shift(a, -ni*gamma)
	st.shift(s, ni*gamma)
}

// dropRow removes row i's vertex at support position aPos (a drop step;
// aPos < 0 removes none), renormalizes the row to an exact unit sum, and
// reconciles the load vector with the row's actual before/after values.
func (st *fwState) dropRow(i, aPos int) {
	ni := st.in.Load[i]
	idx, val := st.rho.Idx[i], st.rho.Val[i]
	for t, j := range idx {
		st.shift(int(j), -ni*val[t])
	}
	if aPos >= 0 {
		st.drops++
		st.rho.RemoveAt(i, aPos)
	}
	if sum := st.rho.RowSum(i); sum > 0 {
		// Renormalize by division: a single survivor lands on exactly 1
		// (x/x == 1 in IEEE arithmetic), so the "one active vertex"
		// fast paths keep firing on later sweeps.
		vals := st.rho.Val[i]
		for t := range vals {
			vals[t] /= sum
		}
	}
	for t, j := range st.rho.Idx[i] {
		st.shift(int(j), ni*st.rho.Val[i][t])
	}
}
