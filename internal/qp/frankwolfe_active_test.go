package qp

import (
	"math"
	"testing"

	"delaylb/internal/model"
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
