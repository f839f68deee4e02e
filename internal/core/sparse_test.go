package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/sparse"
	"delaylb/internal/workload"
)

func sparseTestInstance(t testing.TB, m int, seed int64) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lat := netmodel.PlanetLab(m, rng)
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

// checkColumnIndex verifies the column store against its densified row
// form: column j lists, in ascending order, exactly the organizations k
// with a nonzero Rows().Dense()[k][j], each with that value, so the
// columns hold no zero, no duplicate and no out-of-order owner.
func checkColumnIndex(t *testing.T, st *State) {
	t.Helper()
	m := st.In.M()
	dense := st.Rows().Dense()
	for j := 0; j < m; j++ {
		var want []int32
		for k := 0; k < m; k++ {
			if dense[k][j] != 0 {
				want = append(want, int32(k))
			}
		}
		got, vals := st.owners[j], st.vals[j]
		if len(got) != len(want) || len(vals) != len(want) {
			t.Fatalf("column %d: %d owners and %d values, want %d", j, len(got), len(vals), len(want))
		}
		for x, k := range want {
			if got[x] != k {
				t.Fatalf("column %d: owners[%d]=%d, want %d", j, x, got[x], k)
			}
			if vals[x] != dense[k][j] {
				t.Fatalf("column %d: vals[%d]=%v, want r[%d][%d]=%v", j, x, vals[x], k, j, dense[k][j])
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

// TestCloneCopiesColumnIndex ensures cloned states share no column or
// load storage: pair steps on the clone leave the source's matrix and
// loads bit for bit as they were, and do change the clone. The source
// is dense, so the steps rewrite owner lists in place as well as grow
// and shrink them.
func TestCloneCopiesColumnIndex(t *testing.T) {
	in := sparseTestInstance(t, 10, 6)
	rng := rand.New(rand.NewSource(6))
	st := randState(rng, in)
	snapR, snapL := st.Rows().Dense(), slices.Clone(st.Loads)
	same := func(s *State) bool {
		r := s.Rows().Dense()
		for k := range r {
			for j, v := range r[k] {
				if math.Float64bits(v) != math.Float64bits(snapR[k][j]) {
					return false
				}
			}
		}
		for j, v := range s.Loads {
			if math.Float64bits(v) != math.Float64bits(snapL[j]) {
				return false
			}
		}
		return true
	}
	cp := st.clone()
	for step := 0; step < 20; step++ {
		if i, j := rng.Intn(in.M()), rng.Intn(in.M()); i != j {
			ApplyPair(cp, i, j, nil)
		}
	}
	if !same(st) {
		t.Fatal("pair steps on the clone changed the source")
	}
	if same(cp) {
		t.Fatal("the pair steps did not change the clone")
	}
	checkColumnIndex(t, st)
	checkColumnIndex(t, cp)
}

// TestNewStateLeavesRowsUnchanged pins that NewState only reads its
// argument: every index and value of the matrix keeps its bits, a
// stored zero included, and later writes to the matrix do not reach
// the state.
func TestNewStateLeavesRowsUnchanged(t *testing.T) {
	in := sparseTestInstance(t, 12, 21)
	rows := randState(rand.New(rand.NewSource(21)), in).Rows()
	rows.Val[3][1] = 0 // a stored zero
	snap := rows.Clone()
	st := NewState(in, rows)
	sameBits := func(a, b *sparse.Matrix) bool {
		if len(a.Idx) != len(b.Idx) || a.Cols != b.Cols {
			return false
		}
		for k := range a.Idx {
			if !slices.Equal(a.Idx[k], b.Idx[k]) || len(a.Val[k]) != len(b.Val[k]) {
				return false
			}
			for t, v := range a.Val[k] {
				if math.Float64bits(v) != math.Float64bits(b.Val[k][t]) {
					return false
				}
			}
		}
		return true
	}
	if !sameBits(rows, snap) {
		t.Fatal("NewState modified its argument")
	}
	for k := range rows.Val {
		for t := range rows.Val[k] {
			rows.Val[k][t] = -1
		}
	}
	snap.Prune(0)
	if !sameBits(st.Rows(), snap) {
		t.Fatal("the state does not hold the argument's nonzero entries, or kept the argument")
	}
}

// TestRowsRoundTripColumns checks that the row form holds exactly the
// columns: after random pair steps and cycle removals, a state built
// from Rows() has the same columns, bit for bit.
func TestRowsRoundTripColumns(t *testing.T) {
	for _, mk := range []func(testing.TB, int, int64) *model.Instance{sparseTestInstance, blockTestInstance} {
		in := mk(t, 30, 5)
		m := in.M()
		st := NewIdentityState(in)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 200; step++ {
			if step%37 == 36 {
				RemoveCycles(st)
			} else if i, j := rng.Intn(m), rng.Intn(m); i != j {
				ApplyPair(st, i, j, nil)
			}
			if step%10 != 0 {
				continue
			}
			rt := NewState(in, st.Rows())
			for c := 0; c < m; c++ {
				if !slices.Equal(rt.owners[c], st.owners[c]) || !slices.Equal(rt.vals[c], st.vals[c]) {
					t.Fatalf("step %d column %d: round trip %v %v, state %v %v",
						step, c, rt.owners[c], rt.vals[c], st.owners[c], st.vals[c])
				}
			}
		}
	}
}

// TestRowsWellFormed checks the row form's structure: valid, no stored
// zero, as many entries as the columns, and rows capped at their own
// length, so appending to one row leaves every other row unchanged.
func TestRowsWellFormed(t *testing.T) {
	in := blockTestInstance(t, 30, 8)
	m := in.M()
	st := NewIdentityState(in)
	RunState(st, Config{Strategy: StrategyProxy, MaxIters: 4, Rng: rand.New(rand.NewSource(3))})
	rows := st.Rows()
	if err := rows.Validate(); err != nil {
		t.Fatal(err)
	}
	if rows.Rows() != m || rows.Cols != m || rows.NNZ() != st.NNZ() {
		t.Fatalf("Rows is %d×%d with %d entries, want %d×%d with %d", rows.Rows(), rows.Cols, rows.NNZ(), m, m, st.NNZ())
	}
	if st.NNZ() <= m {
		t.Fatalf("only %d entries for m=%d: nothing relayed, the checks below see only diagonals", st.NNZ(), m)
	}
	for k := range rows.Val {
		for t2, v := range rows.Val[k] {
			if v == 0 {
				t.Fatalf("row %d stores a zero at column %d", k, rows.Idx[k][t2])
			}
		}
	}
	for k := 0; k < m; k++ {
		got := st.Rows()
		got.Idx[k] = append(got.Idx[k], int32(m))
		got.Val[k] = append(got.Val[k], -1)
		for x := range got.Idx {
			if x != k && (!slices.Equal(got.Idx[x], rows.Idx[x]) || !slices.Equal(got.Val[x], rows.Val[x])) {
				t.Fatalf("appending to row %d changed row %d", k, x)
			}
		}
	}
}
