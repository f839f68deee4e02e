package qp

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/workload"
)

// randomInstance builds a heterogeneous test instance.
func randomInstance(t *testing.T, m int, seed int64) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lat := netmodel.PlanetLab(m, netmodel.DefaultPlanetLabConfig(), rng)
	speeds := workload.UniformSpeeds(m, 1, 5, rng)
	loads := workload.ExponentialLoads(m, 100, rng)
	in, err := model.NewInstance(speeds, loads, lat)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// clusteredInstance builds a block-structured instance with the cluster
// hint attached.
func clusteredInstance(t *testing.T, m, k int, seed int64) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lat, labels := netmodel.Clustered(m, k, 2, 80, rng)
	speeds := workload.UniformSpeeds(m, 1, 5, rng)
	loads := workload.ZipfLoads(m, 100, 1.2, rng)
	in, err := model.NewInstance(speeds, loads, lat)
	if err != nil {
		t.Fatal(err)
	}
	in.Cluster = labels
	return in
}

// solveFrankWolfeDense is the test-only dense reference for classic
// Frank–Wolfe: the m×m iterate, a full-row oracle scan and a dense
// update every iteration. SolveFrankWolfeSparse must reproduce it bit
// for bit.
func solveFrankWolfeDense(in *model.Instance, opt Options) *Result {
	opt = opt.withDefaults()
	m := in.M()
	var rho [][]float64
	if opt.Initial != nil {
		rho = cloneMatrix(opt.Initial)
	} else {
		rho = identityRho(m)
	}
	loads := make([]float64, m)
	incoming := make([]float64, m) // Σ of n_k whose FW vertex is column j
	best := make([]int, m)         // FW vertex column per row
	rowBuf := latRowBuf(in)

	res := &Result{}
	for it := 1; it <= opt.MaxIters; it++ {
		if model.Canceled(opt.Ctx) {
			break
		}
		Loads(in, rho, loads)

		// Linear minimization oracle per row: j* = argmin_j l_j/s_j + c_ij.
		// The duality gap accumulates Σ_i n_i (⟨ρ_i, score_i⟩ − score_ij*).
		var gap float64
		for j := range incoming {
			incoming[j] = 0
		}
		for i := 0; i < m; i++ {
			ni := in.Load[i]
			lat := model.RowView(in.Latency, i, rowBuf)
			bestJ, bestScore := i, loads[i]/in.Speed[i] // c_ii = 0
			if ni == 0 {
				best[i] = bestJ
				continue
			}
			var cur float64
			for j := 0; j < m; j++ {
				score := loads[j]/in.Speed[j] + lat[j]
				if f := rho[i][j]; f > 0 {
					cur += f * score
				}
				if score < bestScore {
					bestScore, bestJ = score, j
				}
			}
			best[i] = bestJ
			incoming[bestJ] += ni
			gap += ni * (cur - bestScore)
		}

		cost := objectiveBuf(in, rho, rowBuf)
		res.Iters = it
		res.Gap = gap
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

		// Exact line search along d = v − ρ: with u_j = Σ_k n_k d_kj,
		// φ'(0) = −gap and φ''  = Σ_j u_j²/s_j, so t* = gap/φ''.
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
			row := rho[i]
			for j := range row {
				row[j] *= 1 - t
			}
			row[best[i]] += t
		}
	}
	res.Rho = rho
	res.Cost = objectiveBuf(in, rho, rowBuf)
	return res
}

// assertSameRun pins the headline guarantee of the scale tier: the
// sparse solver reproduces the dense reference bit for bit.
func assertSameRun(t *testing.T, label string, dense *Result, sp *SparseResult) {
	t.Helper()
	if dense.Cost != sp.Cost {
		t.Fatalf("%s: cost %v (dense) != %v (sparse)", label, dense.Cost, sp.Cost)
	}
	if dense.Gap != sp.Gap {
		t.Fatalf("%s: gap %v != %v", label, dense.Gap, sp.Gap)
	}
	if dense.Iters != sp.Iters || dense.Converged != sp.Converged {
		t.Fatalf("%s: iters/converged (%d,%v) != (%d,%v)",
			label, dense.Iters, dense.Converged, sp.Iters, sp.Converged)
	}
	back := sp.Rho.Dense()
	for i := range dense.Rho {
		for j := range dense.Rho[i] {
			if dense.Rho[i][j] != back[i][j] {
				t.Fatalf("%s: rho[%d][%d] %v != %v", label, i, j, dense.Rho[i][j], back[i][j])
			}
		}
	}
}

func TestSparseMatchesDense(t *testing.T) {
	for _, m := range []int{5, 12, 30} {
		in := randomInstance(t, m, int64(m))
		opt := Options{Tol: 1e-7, MaxIters: 400}
		dense := solveFrankWolfeDense(in, opt)
		sp := SolveFrankWolfeSparse(in, opt)
		if sp.ClusteredLMO {
			t.Fatalf("m=%d: clustered LMO engaged without a hint", m)
		}
		assertSameRun(t, "planetlab", dense, sp)
		if f := SolveFrankWolfe(in, opt); f.Cost != dense.Cost || f.Gap != dense.Gap || f.Iters != dense.Iters {
			t.Fatalf("m=%d: dense façade (%v, %v, %d) != reference (%v, %v, %d)",
				m, f.Cost, f.Gap, f.Iters, dense.Cost, dense.Gap, dense.Iters)
		}
	}
}

func TestSparseClusteredLMOMatchesDense(t *testing.T) {
	in := clusteredInstance(t, 60, 5, 7)
	opt := Options{Tol: 1e-8, MaxIters: 600}

	dense := solveFrankWolfeDense(in, opt)
	hinted := SolveFrankWolfeSparse(in, opt)
	if !hinted.ClusteredLMO {
		t.Fatal("clustered LMO not engaged on a verified block instance")
	}
	assertSameRun(t, "clustered-hinted", dense, hinted)

	// Stripping the hint must fall back to the generic oracle and still
	// agree exactly.
	stripped := in.Clone()
	stripped.Cluster = nil
	generic := SolveFrankWolfeSparse(stripped, opt)
	if generic.ClusteredLMO {
		t.Fatal("clustered LMO engaged without labels")
	}
	assertSameRun(t, "clustered-generic", dense, generic)
}

func TestSparseRejectsCorruptedHint(t *testing.T) {
	in := clusteredInstance(t, 24, 4, 3)
	in.Latency.(model.DenseLatency)[1][2] += 7 // contradict the block structure
	opt := Options{Tol: 1e-7, MaxIters: 300}
	sp := SolveFrankWolfeSparse(in, opt)
	if sp.ClusteredLMO {
		t.Fatal("clustered LMO trusted a corrupted hint")
	}
	dense := solveFrankWolfeDense(in, opt)
	assertSameRun(t, "corrupted-hint", dense, sp)
}

func TestSparseWarmStart(t *testing.T) {
	in := randomInstance(t, 15, 42)
	warm := solveFrankWolfeDense(in, Options{Tol: 1e-3, MaxIters: 50})
	opt := Options{Tol: 1e-8, MaxIters: 300, Initial: warm.Rho}
	dense := solveFrankWolfeDense(in, opt)
	sp := SolveFrankWolfeSparse(in, opt)
	assertSameRun(t, "warm", dense, sp)
}

// TestSparseNNZBound checks the structural property the tier relies on:
// each row gains at most one nonzero per iteration.
func TestSparseNNZBound(t *testing.T) {
	in := clusteredInstance(t, 80, 6, 5)
	opt := Options{Tol: 1e-12, MaxIters: 40}
	sp := SolveFrankWolfeSparse(in, opt)
	for i, idx := range sp.Rho.Idx {
		if len(idx) > sp.Iters+1 {
			t.Fatalf("row %d has %d nonzeros after %d iterations", i, len(idx), sp.Iters)
		}
	}
	if err := sp.Rho.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Rho.NNZ() >= 80*80/2 {
		t.Fatalf("iterate is half dense (%d nonzeros) — sparsity lost", sp.Rho.NNZ())
	}
	// Feasibility: rows of the iterate are simplex points.
	for i := 0; i < 80; i++ {
		if in.Load[i] == 0 {
			continue
		}
		s := sp.Rho.RowSum(i)
		if s < 1-1e-9 || s > 1+1e-9 {
			t.Fatalf("row %d sums to %v, want 1", i, s)
		}
		for _, v := range sp.Rho.Val[i] {
			if v < 0 {
				t.Fatalf("row %d has negative entry %v", i, v)
			}
		}
	}
}

func TestSparseResultDense(t *testing.T) {
	in := randomInstance(t, 10, 9)
	sp := SolveFrankWolfeSparse(in, Options{Tol: 1e-6, MaxIters: 200})
	res := sp.Dense()
	if res.Cost != sp.Cost || res.Gap != sp.Gap || res.Iters != sp.Iters || res.Converged != sp.Converged {
		t.Fatal("Dense() dropped scalar fields")
	}
	if got := Objective(in, res.Rho); got != sp.Cost {
		t.Fatalf("densified rho evaluates to %v, sparse cost %v", got, sp.Cost)
	}
}
