package core

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/workload"
)

func sparseTestInstance(t testing.TB, m int, seed int64) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lat := netmodel.PlanetLab(m, netmodel.DefaultPlanetLabConfig(), rng)
	in, err := model.NewInstance(
		workload.UniformSpeeds(m, 1, 5, rng),
		workload.ExponentialLoads(m, 100, rng),
		lat,
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// checkColumnIndex verifies the incremental owner lists against the
// row store.
func checkColumnIndex(t *testing.T, st *State) {
	t.Helper()
	m := st.In.M()
	for j := 0; j < m; j++ {
		var want []int32
		for k := 0; k < m; k++ {
			if st.Rows.Get(k, j) != 0 {
				want = append(want, int32(k))
			}
		}
		got := st.colOwners[j]
		if len(got) != len(want) {
			t.Fatalf("column %d: %d owners, want %d", j, len(got), len(want))
		}
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("column %d: owners[%d]=%d, want %d", j, x, got[x], want[x])
			}
		}
	}
}

// TestOwnerListsMatchDense runs MinE under every strategy and checks
// the result against its densified form: the O(nnz) cost matches the
// dense objective, the allocation is valid, and the owner lists match
// the nonzero pattern.
func TestOwnerListsMatchDense(t *testing.T) {
	for _, m := range []int{6, 12, 25} {
		for _, strategy := range []Strategy{StrategyExact, StrategyHybrid, StrategyProxy} {
			in := sparseTestInstance(t, m, int64(m))
			st := NewIdentityState(in)
			RunState(st, Config{Strategy: strategy, Rng: rand.New(rand.NewSource(5))})

			dense := denseOf(st)
			if dc, sc := model.TotalCost(in, dense), st.Cost(); !closeRel(sc, dc, 1e-12) {
				t.Fatalf("m=%d strategy=%d: Cost %v vs dense objective %v", m, strategy, sc, dc)
			}
			if err := dense.Validate(in, 1e-6); err != nil {
				t.Fatalf("m=%d strategy=%d: allocation invalid: %v", m, strategy, err)
			}
			checkColumnIndex(t, st)
		}
	}
}

// TestOwnerListsDeterministic pins run-to-run reproducibility for a
// fixed seed.
func TestOwnerListsDeterministic(t *testing.T) {
	in := sparseTestInstance(t, 20, 77)
	run := func() float64 {
		st := NewIdentityState(in)
		RunState(st, Config{Rng: rand.New(rand.NewSource(9))})
		return st.Cost()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("MinE not deterministic: %v vs %v", a, b)
	}
}

// TestOwnerListsSurviveCycleRemoval checks that the Appendix A
// re-routing (which rewrites arbitrary off-diagonal entries) leaves the
// owner lists consistent.
func TestOwnerListsSurviveCycleRemoval(t *testing.T) {
	in := sparseTestInstance(t, 15, 3)
	st := NewIdentityState(in)
	RunState(st, Config{RemoveCyclesEvery: 2, MaxIters: 6, Rng: rand.New(rand.NewSource(2))})
	checkColumnIndex(t, st)
	if err := denseOf(st).Validate(in, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestSparseStateCostMatchesDenseCost checks the O(nnz) Cost against
// the dense TotalCost on the same state.
func TestSparseStateCostMatchesDenseCost(t *testing.T) {
	in := sparseTestInstance(t, 18, 8)
	st := NewIdentityState(in)
	RunState(st, Config{MaxIters: 4, Rng: rand.New(rand.NewSource(4))})
	sparseCost := st.Cost()
	denseCost := model.TotalCost(in, denseOf(st))
	if rel := math.Abs(sparseCost-denseCost) / math.Max(1, denseCost); rel > 1e-9 {
		t.Fatalf("sparse Cost %v vs dense TotalCost %v", sparseCost, denseCost)
	}
}

// TestCloneCopiesColumnIndex ensures cloned states do not share owner
// lists.
func TestCloneCopiesColumnIndex(t *testing.T) {
	in := sparseTestInstance(t, 10, 6)
	st := NewIdentityState(in)
	cp := st.Clone()
	ApplyPair(cp, 0, 1, nil)
	checkColumnIndex(t, st)
	checkColumnIndex(t, cp)
}
