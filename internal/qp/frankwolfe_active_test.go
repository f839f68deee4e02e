package qp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// activeVariants enumerates the active-set step rules under test.
var activeVariants = []Variant{VariantAway, VariantPairwise}

// assertActiveInvariants checks the structural contract of the active-set
// representation after a (possibly truncated) run of `iters` sweeps:
// every loaded row is a convex combination over its active set — weights
// strictly positive (a stored zero is a vertex a drop step failed to
// remove), summing to 1 within 1e-12 — and the support obeys the growth
// bound of at most maxRowSteps new vertices per sweep.
func assertActiveInvariants(t *testing.T, label string, sp *SparseResult, loads []float64, iters int) {
	t.Helper()
	if err := sp.Rho.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	m := sp.Rho.Rows()
	for i := 0; i < m; i++ {
		idx, val := sp.Rho.Idx[i], sp.Rho.Val[i]
		if bound := 1 + iters*maxRowSteps; len(idx) > bound && len(idx) > m {
			t.Fatalf("%s: row %d has %d active vertices after %d sweeps (bound %d)",
				label, i, len(idx), iters, bound)
		}
		var sum float64
		for _, v := range val {
			if v <= 0 {
				t.Fatalf("%s: row %d stores weight %v — zero/negative vertices must be dropped", label, i, v)
			}
			sum += v
		}
		if loads[i] == 0 {
			continue // unloaded rows are never stepped
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%s: row %d weights sum to %v, want 1 ± 1e-12", label, i, sum)
		}
	}
}

// TestActiveSetInvariants re-runs each variant truncated at every sweep
// count and asserts the invariants hold after every step of the run —
// the runs are deterministic, so the k-sweep prefix of a long run IS the
// k-sweep run.
func TestActiveSetInvariants(t *testing.T) {
	instances := map[string]func(t *testing.T) *model.Instance{
		"planetlab": func(t *testing.T) *model.Instance { return randomInstance(t, 25, 11) },
		"clustered": func(t *testing.T) *model.Instance { return clusteredInstance(t, 60, 5, 7) },
	}
	for name, mk := range instances {
		for _, v := range activeVariants {
			t.Run(name+"/"+v.String(), func(t *testing.T) {
				in := mk(t)
				for k := 1; k <= 15; k++ {
					sp := SolveFrankWolfeSparse(in, Options{Variant: v, Tol: 1e-12, MaxIters: k})
					assertActiveInvariants(t, v.String(), sp, in.Load, k)
				}
			})
		}
	}
}

// TestActiveDropStepsShrinkSupport pins the drop-step behavior: on a
// clustered instance, some row's active set must shrink between
// consecutive sweep counts (a cap-binding away step removed a vertex),
// and the converged away iterate must be far leaner than classic FW's.
func TestActiveDropStepsShrinkSupport(t *testing.T) {
	in := clusteredInstance(t, 60, 5, 7)
	prev := SolveFrankWolfeSparse(in, Options{Variant: VariantAway, Tol: 1e-12, MaxIters: 1})
	dropped := false
	for k := 2; k <= 40 && !dropped; k++ {
		cur := SolveFrankWolfeSparse(in, Options{Variant: VariantAway, Tol: 1e-12, MaxIters: k})
		for i := range cur.Rho.Idx {
			if len(cur.Rho.Idx[i]) < len(prev.Rho.Idx[i]) {
				dropped = true
				break
			}
		}
		prev = cur
	}
	if !dropped {
		t.Fatal("no row's active set ever shrank — drop steps are not firing")
	}

	classic := SolveFrankWolfeSparse(in, Options{Variant: VariantClassic, Tol: 1e-10, MaxIters: 400})
	away := SolveFrankWolfeSparse(in, Options{Variant: VariantAway, Tol: 1e-10, MaxIters: 400})
	if away.Cost > classic.Cost {
		t.Fatalf("away cost %v worse than classic %v", away.Cost, classic.Cost)
	}
	if away.Rho.NNZ() >= classic.Rho.NNZ() {
		t.Fatalf("away iterate nnz %d not leaner than classic %d", away.Rho.NNZ(), classic.Rho.NNZ())
	}
}

// TestActiveDenseFacadeMatchesSparse pins that densifying a non-classic
// variant's sparse result keeps its scalars and iterate bit for bit.
func TestActiveDenseFacadeMatchesSparse(t *testing.T) {
	for _, v := range activeVariants {
		in := randomInstance(t, 20, 3)
		opt := Options{Variant: v, Tol: 1e-9, MaxIters: 200}
		dense := SolveFrankWolfeSparse(in, opt).Dense()
		sp := SolveFrankWolfeSparse(in, opt)
		assertSameRun(t, "densified/"+v.String(), dense, sp)
	}
}

// TestActiveClusteredMatchesGeneric pins that the incremental cluster
// oracle (dirty-cluster rescans under Gauss–Seidel load updates) makes
// exactly the choices of the generic full-scan path.
func TestActiveClusteredMatchesGeneric(t *testing.T) {
	for _, v := range activeVariants {
		in := clusteredInstance(t, 60, 5, 9)
		opt := Options{Variant: v, Tol: 1e-9, MaxIters: 300}
		hinted := SolveFrankWolfeSparse(in, opt)
		if !hinted.ClusteredLMO {
			t.Fatalf("%s: clustered LMO not engaged", v)
		}
		stripped := in.Clone()
		stripped.Cluster = nil
		generic := SolveFrankWolfeSparse(stripped, opt)
		if generic.ClusteredLMO {
			t.Fatalf("%s: clustered LMO engaged without labels", v)
		}
		if hinted.Cost != generic.Cost || hinted.Gap != generic.Gap || hinted.Iters != generic.Iters {
			t.Fatalf("%s: clustered (cost=%v gap=%v iters=%d) != generic (cost=%v gap=%v iters=%d)",
				v, hinted.Cost, hinted.Gap, hinted.Iters, generic.Cost, generic.Gap, generic.Iters)
		}
		hd, gd := hinted.Rho.Dense(), generic.Rho.Dense()
		for i := range hd {
			for j := range hd[i] {
				if hd[i][j] != gd[i][j] {
					t.Fatalf("%s: rho[%d][%d] %v (clustered) != %v (generic)", v, i, j, hd[i][j], gd[i][j])
				}
			}
		}
	}
}

// TestActiveWarmStartResumesConverged pins the warm-start contract: the
// converged iterate handed back as InitialSparse re-certifies in a
// single sweep, and explicit zeros in a warm start are pruned rather
// than treated as active vertices.
func TestActiveWarmStartResumesConverged(t *testing.T) {
	for _, v := range activeVariants {
		in := clusteredInstance(t, 40, 4, 5)
		opt := Options{Variant: v, Tol: 1e-8, MaxIters: 2000}
		first := SolveFrankWolfeSparse(in, opt)
		if !first.Converged {
			t.Fatalf("%s: first run did not converge (gap %v)", v, first.Gap)
		}
		warm := first.Rho.Clone()
		// Plant explicit zeros: a dense round-trip artifact, not an atom.
		// Only on columns outside the support — the point is a stored
		// zero, not a corrupted weight.
		for i := range warm.Idx {
			j := (int(warm.Idx[i][0]) + 1) % warm.Cols
			if warm.Get(i, j) == 0 {
				warm.Set(i, j, 0)
			}
		}
		opt.InitialSparse = warm
		second := SolveFrankWolfeSparse(in, opt)
		if !second.Converged || second.Iters != 1 {
			t.Fatalf("%s: warm resume took %d iters (converged=%v), want 1", v, second.Iters, second.Converged)
		}
		for i := range second.Rho.Val {
			for _, val := range second.Rho.Val[i] {
				if val == 0 {
					t.Fatalf("%s: explicit zero survived as an active vertex in row %d", v, i)
				}
			}
		}
	}
}

// TestActiveGapTrace pins the TraceGaps contract for the variant engine:
// one gap per sweep, final entry equal to the reported Gap, and the
// sequence certifying monotone progress toward the tolerance.
func TestActiveGapTrace(t *testing.T) {
	for _, v := range activeVariants {
		in := randomInstance(t, 15, 2)
		sp := SolveFrankWolfeSparse(in, Options{Variant: v, Tol: 1e-9, MaxIters: 500, TraceGaps: true})
		if len(sp.Gaps) != sp.Iters {
			t.Fatalf("%s: %d gap samples for %d sweeps", v, len(sp.Gaps), sp.Iters)
		}
		if sp.Gaps[len(sp.Gaps)-1] != sp.Gap {
			t.Fatalf("%s: trace tail %v != reported gap %v", v, sp.Gaps[len(sp.Gaps)-1], sp.Gap)
		}
	}
}

// sweepReference is the always-oracle sweep that sweep's score bracket
// must reproduce: every row step calls the oracle, and the metro oracle
// is bestReference.
func (st *fwState) sweepReference(pairwise bool) {
	for i, ni := range st.in.Load {
		if ni == 0 {
			continue
		}
		lat := st.latRow(i)
		for k := 0; k < maxRowSteps; k++ {
			cur, aScore, aPos := st.rowScores(i, lat)
			if aPos < 0 {
				break
			}
			var s int
			var sScore float64
			if st.lmo != nil {
				s, sScore = st.lmo.bestReference(i, st.base)
			} else {
				s, sScore = st.oracle(i, lat)
			}
			if pairwise {
				if aScore <= sScore {
					break
				}
				st.pairRowStep(i, s, aPos, sScore, aScore)
				continue
			}
			gFW, gAway := cur-sScore, aScore-cur
			if gAway > gFW {
				st.awayRowStep(i, aPos, gAway, lat)
			} else if gFW > 0 {
				st.fwRowStep(i, s, gFW)
			} else {
				break
			}
		}
	}
}

// bestReference is best without the nearest-first order and the bound
// skip: it meets the clusters in ascending order and rescans every dirty
// one.
func (c *metroLMO) bestReference(i int, base []float64) (int, float64) {
	bestJ, bestScore := i, base[i]
	drow := c.delay[c.labels[i]]
	for h := range drow {
		if c.dirty[h] {
			c.rescan(h, base)
		}
		j := c.min1[h]
		if int(j) == i {
			j = c.min2[h]
		}
		if j < 0 {
			continue
		}
		score := base[j] + drow[h]
		if j2 := c.min2[h]; j2 >= 0 && int(j2) != i && j2 < j && base[j2]+drow[h] == score {
			j = j2
		}
		if score < bestScore || (score == bestScore && bestJ != i && int(j) < bestJ) {
			bestJ, bestScore = int(j), score
		}
	}
	return bestJ, bestScore
}

// randomBlockInstance draws a metro instance for the bracket tests: up
// to 48 servers on k = 1, k = m or k drawn in between metros (so
// one-server and empty metros occur), speeds and loads on coarse grids
// so that scores tie, some zero-load rows, +Inf delays between some
// metro pairs on a third of the draws, and either a BlockLatency view or
// dense rows with a verified hint.
func randomBlockInstance(t *testing.T, rng *rand.Rand) *model.Instance {
	t.Helper()
	m := 1 + rng.Intn(48)
	var k int
	switch rng.Intn(4) {
	case 0:
		k = 1
	case 1:
		k = m
	default:
		k = 1 + rng.Intn(m)
	}
	labels := make([]int, m)
	speed := make([]float64, m)
	load := make([]float64, m)
	for i := range labels {
		labels[i] = rng.Intn(k)
		if k == m {
			labels[i] = i
		}
		speed[i] = 0.5 + float64(rng.Intn(8))
		if rng.Intn(5) > 0 {
			load[i] = float64(rng.Intn(60)) * 1.7
		}
	}
	infLinks := rng.Intn(3) == 0
	delay := make([][]float64, k)
	for g := range delay {
		delay[g] = make([]float64, k)
		for h := range delay[g] {
			delay[g][h] = float64(rng.Intn(40)) * 0.9
			if g != h && infLinks && rng.Intn(3) == 0 {
				delay[g][h] = math.Inf(1)
			}
		}
	}
	in, err := model.NewBlockInstance(speed, load, delay, labels)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		in = genericTwin(t, in)
		in.Cluster = labels
	}
	return in
}

// randomStart is the identity or, on half the draws, a decoded warm
// start with explicit zeros stored on arbitrary columns, pruned as the
// solver prunes it.
func randomStart(in *model.Instance, rng *rand.Rand) *sparse.Matrix {
	if rng.Intn(2) == 0 {
		return sparse.Identity(in.M())
	}
	raw := make([]byte, in.M()*in.M())
	rng.Read(raw)
	b := fuzzBytes(raw)
	start := decodeWarmStart(in, &b)
	start.Prune(0)
	return start
}

// assertSameState requires two solve states to hold the same iterate,
// loads and base scores, bit for bit.
func assertSameState(t *testing.T, label string, got, want *fwState) {
	t.Helper()
	for i := range want.rho.Idx {
		gi, wi := got.rho.Idx[i], want.rho.Idx[i]
		if !slices.Equal(gi, wi) {
			t.Fatalf("%s: row %d support %v, reference %v", label, i, gi, wi)
		}
		for t2, v := range want.rho.Val[i] {
			if g := got.rho.Val[i][t2]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s: rho[%d][%d] %v, reference %v", label, i, wi[t2], g, v)
			}
		}
	}
	for j := range want.loads {
		if math.Float64bits(got.loads[j]) != math.Float64bits(want.loads[j]) ||
			math.Float64bits(got.base[j]) != math.Float64bits(want.base[j]) {
			t.Fatalf("%s: server %d load/base %v/%v, reference %v/%v",
				label, j, got.loads[j], got.base[j], want.loads[j], want.base[j])
		}
	}
}

// TestSweepMatchesReference holds the bracketed sweep to the
// always-oracle reference: on random block instances and starts, after
// every away and pairwise sweep, the iterate's bits, the loads and the
// base scores equal the reference's, and the run settles some row steps
// without the oracle.
func TestSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var skips int64
	for n := 0; n < 240; n++ {
		in := randomBlockInstance(t, rng)
		start := randomStart(in, rng)
		for _, pairwise := range []bool{false, true} {
			got := newFWState(in, start.Clone(), false)
			want := newFWState(in, start.Clone(), false)
			if got.lmo == nil {
				t.Fatalf("instance %d: metro oracle not engaged", n)
			}
			for s := 1; s <= 12; s++ {
				label := fmt.Sprintf("instance %d (m=%d, k=%d) pairwise=%v sweep %d", n, in.M(), len(got.lmo.delay), pairwise, s)
				if g, w := got.certify(), want.certify(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: gap %v, reference %v", label, g, w)
				}
				got.sweep(pairwise)
				want.sweepReference(pairwise)
				assertSameState(t, label, got, want)
			}
			skips += got.oracleSkips
		}
	}
	if skips == 0 {
		t.Fatal("the bracket settled no row step")
	}
}
