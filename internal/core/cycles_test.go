package core

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
)

// A hand-crafted routing inefficiency: 0 relays to 1 (expensive) and
// 2 relays to 3 (expensive) while the cross routes are cheap. Removal
// must reroute 0→3 and 2→1 with identical loads.
func TestRemoveCyclesReroutes(t *testing.T) {
	lat := [][]float64{
		{0, 10, 10, 1},
		{10, 0, 1, 10},
		{10, 1, 0, 10},
		{1, 10, 10, 0},
	}
	in, err := model.NewInstance(
		[]float64{1, 1, 1, 1},
		[]float64{10, 0, 10, 0},
		lat,
	)
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewAllocation(4)
	a.R[0][0], a.R[0][1] = 5, 5
	a.R[2][2], a.R[2][3] = 5, 5
	st := NewState(in, rowsOf(a.R))
	loadsBefore := append([]float64(nil), st.Loads...)
	costBefore := st.Cost()

	saved := RemoveCycles(st)
	// Savings: 5·(10−1) + 5·(10−1) = 90.
	if math.Abs(saved-90) > 1e-6 {
		t.Errorf("saved = %v, want 90", saved)
	}
	if math.Abs(st.Cost()-(costBefore-saved)) > 1e-6 {
		t.Errorf("cost after = %v, want %v", st.Cost(), costBefore-saved)
	}
	for j := range loadsBefore {
		if math.Abs(st.Loads[j]-loadsBefore[j]) > 1e-9 {
			t.Errorf("load[%d] changed: %v → %v", j, loadsBefore[j], st.Loads[j])
		}
	}
	a = denseOf(st)
	if a.R[0][3] != 5 || a.R[2][1] != 5 {
		t.Errorf("expected rerouted assignment, got %v", a.R)
	}
	if err := a.Validate(in, 1e-9); err != nil {
		t.Errorf("invalid allocation after removal: %v", err)
	}
}

func TestRemoveCyclesNoOpOnIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 6)
	st := NewIdentityState(in)
	if saved := RemoveCycles(st); saved != 0 {
		t.Errorf("identity allocation saved %v, want 0", saved)
	}
}

// Property: on random states, removal preserves loads and row sums and
// never increases the cost.
func TestRemoveCyclesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		in := randInstance(rng, 2+rng.Intn(8))
		st := randState(rng, in)
		m := in.M()
		loadsBefore := append([]float64(nil), st.Loads...)
		rows := make([]float64, m)
		for i := 0; i < m; i++ {
			rows[i] = st.Rows.RowSum(i)
		}
		costBefore := st.Cost()
		saved := RemoveCycles(st)
		if saved < -1e-9 {
			t.Fatalf("negative savings %v", saved)
		}
		if c := st.Cost(); c > costBefore+1e-6*math.Max(1, costBefore) {
			t.Fatalf("cost increased %v → %v", costBefore, c)
		}
		for j := 0; j < m; j++ {
			if math.Abs(st.Loads[j]-loadsBefore[j]) > 1e-6*math.Max(1, loadsBefore[j]) {
				t.Fatalf("load[%d] changed: %v → %v", j, loadsBefore[j], st.Loads[j])
			}
			if sum := st.Rows.RowSum(j); math.Abs(sum-rows[j]) > 1e-6*math.Max(1, rows[j]) {
				t.Fatalf("row %d sum changed: %v → %v", j, rows[j], sum)
			}
		}
	}
}

// After removal, a second removal must find nothing (idempotence).
func TestRemoveCyclesIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		in := randInstance(rng, 3+rng.Intn(6))
		st := randState(rng, in)
		RemoveCycles(st)
		if again := RemoveCycles(st); again > 1e-6 {
			t.Fatalf("second removal still saved %v", again)
		}
	}
}

// cycleGain reports how much communication cost negative-cycle removal
// would save on the current state, without mutating it. A positive value
// means the current allocation contains negative cycles in the sense of
// §IV-B.
func cycleGain(st *State) float64 {
	cp := st.clone()
	return RemoveCycles(cp)
}

// clone deep-copies the state (the instance is shared, it is read-only).
func (st *State) clone() *State {
	cp := &State{
		In:        st.In,
		Rows:      st.Rows.Clone(),
		Loads:     append([]float64(nil), st.Loads...),
		colOwners: make([][]int32, len(st.colOwners)),
	}
	for j, owners := range st.colOwners {
		cp.colOwners[j] = append([]int32(nil), owners...)
	}
	return cp
}

func TestCycleGainDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randInstance(rng, 6)
	st := randState(rng, in)
	snap := denseOf(st)
	_ = cycleGain(st)
	if denseOf(st).L1Distance(snap) != 0 {
		t.Error("cycleGain mutated the state")
	}
}

// §VI-B finding: after MinE converges, negative cycles are essentially
// absent — pure Algorithm 2 removes them on its own.
func TestMinEConvergedStateHasNoCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		in := randInstance(rng, 4+rng.Intn(12))
		alloc, _ := Run(in, Config{Rng: rand.New(rand.NewSource(int64(trial)))})
		st := NewState(in, rowsOf(alloc.R))
		if gain := cycleGain(st); gain > 1e-4*math.Max(1, st.Cost()) {
			t.Errorf("converged state still had cycle gain %v", gain)
		}
	}
}

func TestRemoveCyclesRespectsForbiddenLinks(t *testing.T) {
	in := model.Uniform(4, 1, 10, 5)
	in.Latency.(model.DenseLatency)[0][3] = math.Inf(1)
	a := model.NewAllocation(4)
	a.R[0][0], a.R[0][1] = 5, 5
	a.R[1][1] = 10
	a.R[2][2], a.R[2][3] = 5, 5
	a.R[3][3] = 10
	st := NewState(in, rowsOf(a.R))
	RemoveCycles(st)
	a = denseOf(st)
	if a.R[0][3] != 0 {
		t.Errorf("mass %v routed over forbidden link", a.R[0][3])
	}
	if err := a.Validate(in, 1e-9); err != nil {
		t.Errorf("invalid allocation: %v", err)
	}
}
