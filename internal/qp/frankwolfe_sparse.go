package qp

import (
	"cmp"
	"math"
	"slices"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
	"delaylb/obs"
)

// This file is the Frank–Wolfe engine. Simplex vertices are coordinate
// vectors e_j, so the iterate lives in sparse rows whose stored columns
// are each row's active vertex set and whose values are the weights;
// everything but the linear minimization oracle (LMO) costs O(nnz_i)
// per row. Every iteration starts with one certificate pass — loads
// from scratch, every loaded row's LMO vertex, the exact duality gap —
// and then one of three step rules moves the iterate: classic's global
// step toward the LMO vertices (below), or the away/pairwise
// Gauss–Seidel sweep (frankwolfe_active.go).

// SparseResult reports a sparse Frank–Wolfe run. Rho stays in sparse
// form so callers working at scale never pay the O(m²) densification;
// Dense bridges into the classic Result when they do want it.
type SparseResult struct {
	// Rho is the final relay-fraction iterate.
	Rho *sparse.Matrix
	// Cost is ΣC_i(Rho).
	Cost float64
	// Iters is the number of iterations performed.
	Iters int
	// Converged reports whether the duality-gap tolerance was met.
	Converged bool
	// Gap is the final duality gap; Cost − Gap lower-bounds the optimum.
	Gap float64
	// Gaps is the per-iteration duality-gap trace (Options.TraceGaps).
	Gaps []float64
	// ClusteredLMO reports whether the block-structured oracle was in
	// effect (the instance carried a verified cluster hint).
	ClusteredLMO bool
}

// Dense converts the result into the dense Result form that the dense
// solvers share. O(m²) memory — intended for m where that is fine.
func (r *SparseResult) Dense() *Result {
	return &Result{
		Rho:       r.Rho.Dense(),
		Cost:      r.Cost,
		Iters:     r.Iters,
		Converged: r.Converged,
		Gap:       r.Gap,
		Gaps:      r.Gaps,
	}
}

// metroLMO answers the LMO argmin_j l_j/s_j + c_ij in O(k) per row on
// block (metro) networks, where c_ij depends only on the cluster pair:
// per cluster it keeps the two servers with the smallest congestion
// score base_j = l_j/s_j (two, so that excluding the querying server
// still leaves the cluster's best candidate) and a lower bound on every
// member's base. The structure is verified against the latency matrix
// first (model.ClusterDelays).
//
// Under the sweep's incremental load updates, a change that can affect a
// cluster's two smallest scores marks it dirty, and a query that still
// needs it rescans its members in ascending order — the lowest-index-wins
// tie-breaking of the dense ascending scan, which generic, clustered and
// dense runs share bit for bit, short of the collapsed ties best
// describes. A clean cluster's bound is its exact smallest base; a dirty
// one's is the smallest it held when it went dirty, lowered by every
// later decrease. The bounds serve twice without a rescan: lowerBound
// brackets a row's oracle score, which lets the sweep settle a row step
// that does not need the vertex, and best meets the clusters
// nearest-first and passes over any whose bound already loses to the
// score in hand.
type metroLMO struct {
	labels  []int
	delay   [][]float64
	order   [][]int32 // per source cluster, clusters by ascending delay
	members [][]int32 // per-cluster server indices, ascending
	min1    []int32   // per-cluster argmin of base (−1: empty)
	min2    []int32   // per-cluster second argmin (−1: singleton)
	lb      []float64 // per-cluster bound: ≤ every member's base (+Inf: empty)
	dirty   []bool
}

func newMetroLMO(in *model.Instance) *metroLMO {
	delay, ok := model.ClusterDelays(in)
	if !ok {
		return nil
	}
	k := len(delay)
	lmo := &metroLMO{
		labels:  in.Cluster,
		delay:   delay,
		order:   make([][]int32, k),
		members: make([][]int32, k),
		min1:    make([]int32, k),
		min2:    make([]int32, k),
		lb:      make([]float64, k),
		dirty:   make([]bool, k),
	}
	for j, g := range in.Cluster {
		lmo.members[g] = append(lmo.members[g], int32(j))
	}
	for g, drow := range delay {
		ord := make([]int32, k)
		for h := range ord {
			ord[h] = int32(h)
		}
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(drow[a], drow[b]) })
		lmo.order[g] = ord
	}
	return lmo
}

// prepareAll rebuilds every cluster's minima from the given base scores.
func (c *metroLMO) prepareAll(base []float64) {
	for g := range c.min1 {
		c.rescan(g, base)
	}
}

// rescan rebuilds cluster g's minima and bound. Scanning members in
// ascending order with strict comparisons makes min1/min2 the
// lowest-index servers among ties — the same preference the dense
// ascending scan encodes.
func (c *metroLMO) rescan(g int, base []float64) {
	m1, m2 := int32(-1), int32(-1)
	b1, b2 := math.Inf(1), math.Inf(1)
	for _, j := range c.members[g] {
		switch b := base[j]; {
		case m1 < 0 || b < b1:
			m2, b2 = m1, b1
			m1, b1 = j, b
		case m2 < 0 || b < b2:
			m2, b2 = j, b
		}
	}
	c.min1[g], c.min2[g], c.lb[g], c.dirty[g] = m1, m2, b1, false
}

// touch records that base[j] changed from old to now: the cluster is
// marked dirty whenever the change could perturb its two smallest
// scores, and its bound follows every decrease.
func (c *metroLMO) touch(j int, old, now float64, base []float64) {
	g := c.labels[j]
	if !c.dirty[g] {
		jj := int32(j)
		if jj == c.min1[g] || jj == c.min2[g] {
			switch {
			case now > old:
				// A tracked minimum got worse. The bound keeps the old
				// minimum, below every member.
				c.dirty[g] = true
			case jj == c.min2[g] && (c.min1[g] < 0 || now <= base[c.min1[g]]):
				// min2 improved past (or onto) min1: the pair's order — which
				// best() relies on to pick the cluster's candidate — is stale.
				c.dirty[g] = true
			}
		} else if now < old && (c.min2[g] < 0 || now <= base[c.min2[g]]) {
			c.dirty[g] = true // an untracked member may now beat the minima
		}
	}
	if now < c.lb[g] {
		c.lb[g] = now
	}
}

// lowerBound returns a lower bound on the score best(i) returns, in
// O(k) and without a rescan: the incumbent's base or, per cluster, the
// bound plus the block delay. IEEE addition is monotone, so a bound
// below every member's base scores below every member.
func (c *metroLMO) lowerBound(i int, base []float64) float64 {
	lb := base[i]
	for h, d := range c.delay[c.labels[i]] {
		if s := c.lb[h] + d; s < lb {
			lb = s
		}
	}
	return lb
}

// best returns row i's LMO vertex and score under the current base. The
// dense scan's winner is always among {i} ∪ {per-cluster best candidate
// ≠ i}: within a cluster all servers share the same c_ij, so the
// first-index global minimizer has the cluster-minimal base (up to the
// rounding collapse noted below). Ties keep the incumbent i (the dense
// scan requires a strict improvement) and otherwise prefer the smaller
// index (the dense scan meets it first). Neither rule depends on the
// order the clusters are met in, so best meets them nearest-first, and
// a cluster whose bound scores above the best score so far is passed
// over, dirty or not: none of its members can win or tie.
func (c *metroLMO) best(i int, base []float64) (int, float64) {
	bestJ, bestScore := i, base[i]
	g := c.labels[i]
	drow := c.delay[g]
	for _, h := range c.order[g] {
		d := drow[h]
		if c.lb[h]+d > bestScore {
			continue
		}
		if c.dirty[h] {
			c.rescan(int(h), base)
		}
		j := c.min1[h]
		if int(j) == i {
			j = c.min2[h]
		}
		if j < 0 {
			continue
		}
		score := base[j] + d
		// Adding the same block delay can collapse two distinct bases onto
		// one score; the dense ascending scan then keeps the lower index,
		// so check the cluster's second candidate for an index-improving
		// exact tie. A third server collapsing onto the score goes
		// unseen, and the dense scan may then pick another of them.
		if j2 := c.min2[h]; j2 >= 0 && int(j2) != i && j2 < j && base[j2]+d == score {
			j = j2
		}
		if score < bestScore || (score == bestScore && bestJ != i && int(j) < bestJ) {
			bestJ, bestScore = int(j), score
		}
	}
	return bestJ, bestScore
}

// fwState is the mutable solve state the certificate pass and the step
// rules share.
type fwState struct {
	in    *model.Instance
	rho   *sparse.Matrix
	loads []float64 // l_j: exact after certify, incremental during a sweep
	base  []float64 // l_j / s_j, kept in lockstep with loads
	lmo   *metroLMO
	buf   []float64 // latency-row scratch for the generic oracle

	// Classic only: each loaded row's LMO vertex from the last
	// certificate pass, and the load Σ n_i those vertices would receive.
	best     []int
	incoming []float64

	// Telemetry tallies, folded into the solve's instruments once per
	// iteration; nothing reads them back.
	oracleCalls int64
	oracleSkips int64 // sweep row steps the score bracket settled
	drops       int64
}

// newFWState wraps the iterate rho in the solve state; classic adds the
// global step's scratch.
func newFWState(in *model.Instance, rho *sparse.Matrix, classic bool) *fwState {
	m := in.M()
	st := &fwState{
		in:    in,
		rho:   rho,
		loads: make([]float64, m),
		base:  make([]float64, m),
		lmo:   newMetroLMO(in),
	}
	if st.lmo == nil {
		st.buf = latRowBuf(in)
	}
	if classic {
		st.best, st.incoming = make([]int, m), make([]float64, m)
	}
	return st
}

// rowScores scans row i's active set under the current base: the
// current score cur = ⟨ρ_i, ∇_i⟩/n_i and the away vertex (position in
// the support, score) — the argmax over active vertices, first-wins on
// ties like every ascending scan in this package.
func (st *fwState) rowScores(i int, lat []float64) (cur, aScore float64, aPos int) {
	idx, val := st.rho.Idx[i], st.rho.Val[i]
	aPos = -1
	if st.lmo != nil {
		drow := st.lmo.delay[st.lmo.labels[i]]
		for t, j := range idx {
			score := st.base[j]
			if int(j) != i {
				score += drow[st.lmo.labels[j]]
			}
			cur += val[t] * score
			if aPos < 0 || score > aScore {
				aPos, aScore = t, score
			}
		}
		return cur, aScore, aPos
	}
	for t, j := range idx {
		score := st.base[j] + lat[j]
		cur += val[t] * score
		if aPos < 0 || score > aScore {
			aPos, aScore = t, score
		}
	}
	return cur, aScore, aPos
}

// oracle returns row i's LMO vertex under the current base.
func (st *fwState) oracle(i int, lat []float64) (int, float64) {
	st.oracleCalls++
	if st.lmo != nil {
		return st.lmo.best(i, st.base)
	}
	bestJ, bestScore := i, st.base[i] // c_ii = 0
	for j := range st.base {
		if score := st.base[j] + lat[j]; score < bestScore {
			bestScore, bestJ = score, j
		}
	}
	return bestJ, bestScore
}

// latRow materializes row i's latency row for the generic path (nil on
// clustered instances, where the block table is used directly).
func (st *fwState) latRow(i int) []float64 {
	if st.lmo != nil {
		return nil
	}
	return model.RowView(st.in.Latency, i, st.buf)
}

// certify is the certificate pass: exact loads, a fresh oracle and the
// exact duality gap Σ_i n_i (⟨ρ_i, ∇_i⟩ − min_j ∇_ij), untouched by
// whatever the previous step did. For classic it also records each
// loaded row's LMO vertex in best.
func (st *fwState) certify() (gap float64) {
	in := st.in
	LoadsSparse(in, st.rho, st.loads)
	for j := range st.base {
		st.base[j] = st.loads[j] / in.Speed[j]
	}
	if st.lmo != nil {
		st.lmo.prepareAll(st.base)
	}
	for i, ni := range in.Load {
		if ni == 0 {
			continue
		}
		lat := st.latRow(i)
		cur, _, _ := st.rowScores(i, lat)
		s, sScore := st.oracle(i, lat)
		if st.best != nil {
			st.best[i] = s
		}
		gap += ni * (cur - sScore)
	}
	return gap
}

// globalStep is classic Frank–Wolfe's step: every loaded row blends
// toward its LMO vertex by one shared ratio t, ρ_i ← (1−t)ρ_i + t·e_best.
// Exact line search along d = v − ρ: with u_j = Σ_i n_i d_ij,
// φ′(0) = −gap and φ″ = Σ_j u_j²/s_j, so t = min(1, gap/φ″). It reports
// false when no step descends (t ≤ 0).
func (st *fwState) globalStep(gap float64) bool {
	in := st.in
	for j := range st.incoming {
		st.incoming[j] = 0
	}
	for i, ni := range in.Load {
		if ni != 0 {
			st.incoming[st.best[i]] += ni
		}
	}
	var curvature float64
	for j, l := range st.loads {
		u := st.incoming[j] - l
		curvature += u * u / in.Speed[j]
	}
	t := 1.0
	if curvature > 0 {
		t = math.Min(1, gap/curvature)
	}
	if t <= 0 {
		return false
	}
	for i, ni := range in.Load {
		if ni != 0 {
			st.rho.ScaleRowAdd(i, 1-t, st.best[i], t)
		}
	}
	return true
}

// SolveFrankWolfeSparse minimizes ΣC_i over the product of
// per-organization simplices with the Frank–Wolfe (conditional gradient)
// method and exact line search. Each iteration produces a duality gap
//
//	gap = ⟨∇F(ρ), ρ − v⟩ ≥ F(ρ) − F*,
//
// so the returned Gap certifies how far the final cost can be from the
// optimum. The run stops when gap ≤ Tol·max(1, cost).
// Options.Variant selects the step rule: VariantClassic takes one
// global step per iteration, VariantAway and VariantPairwise sweep the
// rows over their active vertex sets (see frankwolfe_active.go).
//
// The iterate is sparse rows: O(nnz + m) memory and, per iteration,
// O(nnz + m·k) work on verified clustered networks or O(nnz + m²) with
// the generic oracle. Classic iterates match the dense reference in
// frankwolfe_sparse_test.go bit for bit, short of one rounding corner
// on the metro oracle: when adding the block delay collapses more
// servers of one cluster onto the minimal score than the two it
// tracks, it can return another of them than the dense scan's lowest
// index (see metroLMO.best), and the runs part there.
func SolveFrankWolfeSparse(in *model.Instance, opt Options) *SparseResult {
	return solveSparse(in, opt, (*fwState).sweep)
}

// solveSparse is SolveFrankWolfeSparse with the away/pairwise sweep
// passed in, so tests can run the same loop on a reference sweep.
func solveSparse(in *model.Instance, opt Options, sweep func(st *fwState, pairwise bool)) *SparseResult {
	opt = opt.withDefaults()
	var rho *sparse.Matrix
	switch {
	case opt.InitialSparse != nil:
		rho = opt.InitialSparse.Clone()
	case opt.Initial != nil:
		rho = sparse.FromDense(opt.Initial, 0)
	default:
		rho = sparse.Identity(in.M())
	}
	// The invariant "stored entries are exactly the active set" starts
	// here: warm starts may carry explicit zeros from earlier dense
	// round-trips; they are not active vertices.
	rho.Prune(0)

	classic := opt.Variant == VariantClassic
	st := newFWState(in, rho, classic)
	sobs := newSolveObs(opt.Obs, opt.Variant)
	span := opt.Obs.Start("qp.solve")

	res := &SparseResult{ClusteredLMO: st.lmo != nil}
	for it := 1; it <= opt.MaxIters; it++ {
		if model.Canceled(opt.Ctx) {
			break
		}
		gap := st.certify()
		cost := objectiveAt(in, rho, st.loads, st.buf)
		res.Iters, res.Gap = it, gap
		sobs.sweep(gap, cost, rho)
		st.fold(sobs)
		if opt.TraceGaps {
			res.Gaps = append(res.Gaps, gap)
		}
		if gap <= opt.Tol*math.Max(1, cost) || (opt.OnIteration != nil && !opt.OnIteration(it, cost)) {
			res.Converged = true
			break
		}
		if !classic {
			sweep(st, opt.Variant == VariantPairwise)
		} else if !st.globalStep(gap) {
			res.Converged = true
			break
		}
	}
	// A classic t=1 step zeroes previous vertices in place; drop them so
	// NNZ counts true nonzeros (exact zeros leave every sum unchanged).
	rho.Prune(0)
	res.Rho = rho
	LoadsSparse(in, rho, st.loads)
	res.Cost = objectiveAt(in, rho, st.loads, st.buf)
	// Fold the tail sweep's tallies (a MaxIters exit breaks before the
	// next certificate pass would have folded them).
	st.fold(sobs)
	span.With(obs.Int("iters", int64(res.Iters))).
		With(obs.Float("gap", res.Gap)).
		With(obs.Float("cost", res.Cost)).
		With(obs.Int("nnz", int64(rho.NNZ()))).
		End()
	return res
}

// fold adds the tallies since the last fold to the solve's counters and
// clears them.
func (st *fwState) fold(o solveObs) {
	o.lmoCalls.Add(st.oracleCalls)
	o.lmoSkips.Add(st.oracleSkips)
	o.dropSteps.Add(st.drops)
	st.oracleCalls, st.oracleSkips, st.drops = 0, 0, 0
}
