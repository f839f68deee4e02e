package qp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/workload"
)

// randomInstance builds a heterogeneous test instance.
func randomInstance(t *testing.T, m int, seed int64) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lat := netmodel.PlanetLab(m, rng)
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
		if f := sp.Dense(); f.Cost != dense.Cost || f.Gap != dense.Gap || f.Iters != dense.Iters {
			t.Fatalf("m=%d: densified (%v, %v, %d) != reference (%v, %v, %d)",
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

// clone copies the metro oracle's mutable state, so a probe can query
// it without rescanning the original's dirty clusters.
func (c *metroLMO) clone() *metroLMO {
	d := *c
	d.min1, d.min2 = slices.Clone(c.min1), slices.Clone(c.min2)
	d.lb, d.dirty = slices.Clone(c.lb), slices.Clone(c.dirty)
	return &d
}

// TestMetroLowerBound applies random load shifts to the metro oracle of
// random block instances and checks, after every shift, that every
// clean cluster holds its exact (base, index) top two and its smallest
// base as its bound, that every dirty cluster's bound is at most each
// member's base, and that for every row lowerBound is at most the score
// best returns, whose pick equals bestReference's.
func TestMetroLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var dirtySeen int
	for n := 0; n < 80; n++ {
		in := randomBlockInstance(t, rng)
		m := in.M()
		st := newFWState(in, randomStart(in, rng), false)
		st.certify()
		c := st.lmo
		for s := 0; s < 60; s++ {
			j := rng.Intn(m)
			// Shifts on the load grid keep ties between servers of one speed.
			delta := float64(rng.Intn(31)-15) * 1.7
			if rng.Intn(4) == 0 || st.loads[j]+delta < 0 {
				delta = -st.loads[j] // empty the server
			}
			st.shift(j, delta)
			label := fmt.Sprintf("instance %d (m=%d, k=%d) shift %d", n, m, len(c.delay), s)
			for g, members := range c.members {
				for _, x := range members {
					if c.lb[g] > st.base[x] {
						t.Fatalf("%s: cluster %d bound %v above member %d's base %v", label, g, c.lb[g], x, st.base[x])
					}
				}
				if c.dirty[g] {
					dirtySeen++
					continue
				}
				m1, m2 := int32(-1), int32(-1)
				for _, x := range members {
					switch {
					case m1 < 0 || st.base[x] < st.base[m1]:
						m2, m1 = m1, x
					case m2 < 0 || st.base[x] < st.base[m2]:
						m2 = x
					}
				}
				if c.min1[g] != m1 || c.min2[g] != m2 {
					t.Fatalf("%s: clean cluster %d tracks (%d, %d), exact top two (%d, %d)", label, g, c.min1[g], c.min2[g], m1, m2)
				}
				want := math.Inf(1) // an empty cluster's bound
				if m1 >= 0 {
					want = st.base[m1]
				}
				if c.lb[g] != want {
					t.Fatalf("%s: clean cluster %d bound %v, smallest base %v", label, g, c.lb[g], want)
				}
			}
			probe, ref := c.clone(), c.clone()
			for i := 0; i < m; i++ {
				lb := c.lowerBound(i, st.base)
				j1, s1 := probe.best(i, st.base)
				j2, s2 := ref.bestReference(i, st.base)
				if j1 != j2 || math.Float64bits(s1) != math.Float64bits(s2) {
					t.Fatalf("%s: row %d best (%d, %v), reference (%d, %v)", label, i, j1, s1, j2, s2)
				}
				if lb > s1 {
					t.Fatalf("%s: row %d lower bound %v above the oracle's score %v", label, i, lb, s1)
				}
			}
		}
	}
	if dirtySeen == 0 {
		t.Fatal("no cluster was ever dirty")
	}
}

// TestFrankWolfeIterationAllocationBound pins the per-iteration work
// outside the step rules at zero allocations: on a warm block instance,
// one certificate pass plus the iteration's objective, read from the
// loads that pass computed, allocate nothing.
func TestFrankWolfeIterationAllocationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	delay, labels := netmodel.ClusteredBlock(400, 6, 2, 80, rng)
	in, err := model.NewBlockInstance(workload.UniformSpeeds(400, 1, 5, rng), workload.ZipfLoads(400, 100, 1.2, rng), delay, labels)
	if err != nil {
		t.Fatal(err)
	}
	warm := SolveFrankWolfeSparse(in, Options{Variant: VariantAway, Tol: 1e-12, MaxIters: 20})
	for _, classic := range []bool{false, true} {
		st := newFWState(in, warm.Rho.Clone(), classic)
		var cost float64
		allocs := testing.AllocsPerRun(20, func() {
			st.certify()
			cost = objectiveAt(in, st.rho, st.loads, st.buf)
		})
		if allocs != 0 {
			t.Errorf("classic=%v: certificate pass and objective allocated %.1f times, want 0", classic, allocs)
		}
		if want := objectiveSparse(in, st.rho); cost != want {
			t.Errorf("classic=%v: objective from the pass's loads %v, objectiveSparse %v", classic, cost, want)
		}
	}
}
