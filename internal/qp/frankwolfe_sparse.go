package qp

import (
	"math"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
	"delaylb/obs"
)

// This file is the large-m scale tier of the Frank–Wolfe solver. The
// dense solver keeps an m×m ρ and touches all of it every iteration;
// but a Frank–Wolfe iterate has at most iters+1 nonzeros per row (each
// iteration blends the previous iterate with one simplex vertex), so
// the sparse variant stores ρ in O(nnz) and does O(nnz_i) work per row
// for everything except the linear minimization oracle (LMO).
//
// The LMO — argmin_j l_j/s_j + c_ij per row — is the one step that
// inspects the whole latency row. On block-structured (metro/clustered)
// networks, where c_ij depends only on (cluster(i), cluster(j)), the
// argmin over m servers collapses to an argmin over k clusters: keep
// the best and second-best congestion score per cluster and each row's
// oracle is O(k). The structure is verified against the latency matrix
// before it is trusted (model.ClusterDelays), and the tie-breaking
// mirrors the dense ascending-j scan exactly, so generic, clustered and
// dense runs all produce bit-identical iterates.

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

// clusterLMO answers per-row linear minimization queries in O(k) by
// maintaining, per cluster, the two servers with the smallest
// congestion score base_j = l_j/s_j (two, so that excluding the querying
// server itself still leaves the cluster's best candidate).
type clusterLMO struct {
	labels []int
	delay  [][]float64
	base   []float64 // base[j] = loads[j]/s_j, refreshed each iteration
	min1   []int32   // per-cluster argmin of base (−1: empty cluster)
	min2   []int32   // per-cluster second argmin (−1: singleton)
}

func newClusterLMO(in *model.Instance) *clusterLMO {
	delay, ok := model.ClusterDelays(in)
	if !ok {
		return nil
	}
	return &clusterLMO{
		labels: in.Cluster,
		delay:  delay,
		base:   make([]float64, in.M()),
		min1:   make([]int32, len(delay)),
		min2:   make([]int32, len(delay)),
	}
}

// prepare refreshes the per-cluster minima for the current loads.
// Scanning j in ascending order with strict comparisons makes min1/min2
// the lowest-index servers among ties — the same preference the dense
// ascending scan encodes.
func (c *clusterLMO) prepare(in *model.Instance, loads []float64) {
	for j := range c.base {
		c.base[j] = loads[j] / in.Speed[j]
	}
	for g := range c.min1 {
		c.min1[g], c.min2[g] = -1, -1
	}
	for j, g := range c.labels {
		switch {
		case c.min1[g] < 0 || c.base[j] < c.base[c.min1[g]]:
			c.min2[g] = c.min1[g]
			c.min1[g] = int32(j)
		case c.min2[g] < 0 || c.base[j] < c.base[c.min2[g]]:
			c.min2[g] = int32(j)
		}
	}
}

// best returns row i's oracle vertex and its score. The dense scan's
// winner is always among {i} ∪ {per-cluster best candidate ≠ i}: within
// a cluster all servers share the same c_ij, so the first-index global
// minimizer has the cluster-minimal base. Ties keep the incumbent i
// (the dense scan requires a strict improvement) and otherwise prefer
// the smaller index (the dense scan meets it first).
func (c *clusterLMO) best(i int) (int, float64) {
	gi := c.labels[i]
	bestJ, bestScore := i, c.base[i]
	drow := c.delay[gi]
	for h := range drow {
		j := c.min1[h]
		if int(j) == i {
			j = c.min2[h]
		}
		if j < 0 {
			continue
		}
		score := c.base[j] + drow[h]
		// Rounding can collapse two distinct bases onto one score when the
		// block delay dominates; the dense ascending scan keeps the lower
		// index among such ties, so check the second candidate too.
		if j2 := c.min2[h]; j2 >= 0 && int(j2) != i && j2 < j && c.base[j2]+drow[h] == score {
			j = j2
		}
		if score < bestScore || (score == bestScore && bestJ != i && int(j) < bestJ) {
			bestJ, bestScore = int(j), score
		}
	}
	return bestJ, bestScore
}

// SolveFrankWolfeSparse minimizes ΣC_i over the product of
// per-organization simplices with the Frank–Wolfe (conditional gradient)
// method and exact line search. Each iteration produces a duality gap
//
//	gap = ⟨∇F(ρ), ρ − v⟩ ≥ F(ρ) − F*,
//
// so the returned Gap certifies how far the final cost can be from the
// optimum. The run stops when gap ≤ Tol·max(1, cost).
// Options.Variant selects the step rule; VariantAway and VariantPairwise
// use the active-vertex-set engine (see frankwolfe_active.go).
//
// The iterate is sparse rows: O(nnz + m) memory and, per iteration,
// O(nnz + m·k) work on verified clustered networks or O(nnz + m²) with
// the generic oracle. Classic iterates match the dense reference in
// frankwolfe_sparse_test.go bit for bit.
func SolveFrankWolfeSparse(in *model.Instance, opt Options) *SparseResult {
	if opt.Variant != VariantClassic {
		return solveFrankWolfeActive(in, opt)
	}
	opt = opt.withDefaults()
	m := in.M()
	var rho *sparse.Matrix
	switch {
	case opt.InitialSparse != nil:
		rho = opt.InitialSparse.Clone()
	case opt.Initial != nil:
		rho = sparse.FromDense(opt.Initial, 0)
	default:
		rho = sparse.Identity(m)
	}
	loads := make([]float64, m)
	incoming := make([]float64, m)
	best := make([]int, m)
	lmo := newClusterLMO(in)
	var rowBuf []float64
	if lmo == nil {
		rowBuf = latRowBuf(in) // the generic oracle scans whole rows
	}
	sobs := newSolveObs(opt.Obs, VariantClassic)
	span := opt.Obs.Start("qp.solve")

	res := &SparseResult{ClusteredLMO: lmo != nil}
	for it := 1; it <= opt.MaxIters; it++ {
		if model.Canceled(opt.Ctx) {
			break
		}
		LoadsSparse(in, rho, loads)
		if lmo != nil {
			lmo.prepare(in, loads)
		}

		var gap float64
		var oracleCalls int64
		for j := range incoming {
			incoming[j] = 0
		}
		for i := 0; i < m; i++ {
			ni := in.Load[i]
			bestJ, bestScore := i, loads[i]/in.Speed[i]
			if ni == 0 {
				best[i] = bestJ
				continue
			}
			var cur float64
			idx, val := rho.Idx[i], rho.Val[i]
			if lmo != nil {
				// O(nnz_i) current-score sum straight off the verified
				// block table (c_ij = D[g_i][g_j], 0 on the diagonal),
				// then the O(k) clustered oracle — no row
				// materialization, no per-entry interface call.
				drow := lmo.delay[lmo.labels[i]]
				for t, j := range idx {
					if f := val[t]; f > 0 {
						var cij float64
						if int(j) != i {
							cij = drow[lmo.labels[j]]
						}
						cur += f * (loads[j]/in.Speed[j] + cij)
					}
				}
				bestJ, bestScore = lmo.best(i)
				oracleCalls++
			} else {
				lat := model.RowView(in.Latency, i, rowBuf)
				for t, j := range idx {
					if f := val[t]; f > 0 {
						cur += f * (loads[j]/in.Speed[j] + lat[j])
					}
				}
				for j := 0; j < m; j++ {
					score := loads[j]/in.Speed[j] + lat[j]
					if score < bestScore {
						bestScore, bestJ = score, j
					}
				}
				oracleCalls++
			}
			best[i] = bestJ
			incoming[bestJ] += ni
			gap += ni * (cur - bestScore)
		}

		cost := ObjectiveSparse(in, rho)
		res.Iters = it
		res.Gap = gap
		sobs.sweep(gap, cost, oracleCalls, rho)
		if opt.TraceGaps {
			res.Gaps = append(res.Gaps, gap)
		}
		if gap <= opt.Tol*math.Max(1, cost) {
			res.Converged = true
			break
		}
		if opt.OnIteration != nil && !opt.OnIteration(it, cost) {
			res.Converged = true
			break
		}

		var curvature float64
		for j := 0; j < m; j++ {
			u := incoming[j] - loads[j]
			curvature += u * u / in.Speed[j]
		}
		t := 1.0
		if curvature > 0 {
			t = math.Min(1, gap/curvature)
		}
		if t <= 0 {
			res.Converged = true
			break
		}
		for i := 0; i < m; i++ {
			if in.Load[i] == 0 {
				continue
			}
			rho.ScaleRowAdd(i, 1-t, best[i], t)
		}
	}
	// A t=1 line-search step zeroes previous vertices in place; drop
	// those stored zeros so NNZ reports true nonzeros. Exact zeros
	// contribute nothing to any sum, so the cost is unaffected.
	rho.Prune(0)
	res.Rho = rho
	res.Cost = ObjectiveSparse(in, rho)
	span.With(obs.Int("iters", int64(res.Iters))).
		With(obs.Float("gap", res.Gap)).
		With(obs.Float("cost", res.Cost)).
		With(obs.Int("nnz", int64(rho.NNZ()))).
		End()
	return res
}
