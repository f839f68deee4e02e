package core

import (
	"math/rand"
	"testing"

	"delaylb/internal/model"
)

// TestPairStepAllocationBound pins Algorithm 1's pair step at zero
// allocations once the pair buffer exists: EvaluatePair on any pair,
// and ApplyPair rewriting columns that already have the capacity.
func TestPairStepAllocationBound(t *testing.T) {
	in := sparseTestInstance(t, 40, 3)
	st := NewIdentityState(in)
	RunState(st, Config{Strategy: StrategyProxy, MaxIters: 3, Rng: rand.New(rand.NewSource(1))})
	buf := newPairBuffer(in.M())
	m := in.M()
	i, j := 0, 1
	if a := testing.AllocsPerRun(100, func() {
		i, j = (i+7)%m, (j+11)%m
		if i != j {
			EvaluatePair(st, i, j, buf)
		}
	}); a != 0 {
		t.Errorf("EvaluatePair: %v allocations per call, want 0", a)
	}
	// The warm-up call balances the pair and grows its columns; every
	// later call rebalances the same entries.
	if a := testing.AllocsPerRun(100, func() {
		ApplyPair(st, 2, 5, buf)
	}); a != 0 {
		t.Errorf("ApplyPair: %v allocations per call, want 0", a)
	}
}

// TestHybridPickAllocationBound pins a hybrid partner pick at zero
// allocations once the selector's scratch has grown, on a block view
// (metro-index shortlists) and on a dense view (appendTopK scans).
func TestHybridPickAllocationBound(t *testing.T) {
	cases := []struct {
		name string
		in   func(t testing.TB, m int, seed int64) *model.Instance
	}{
		{"block", blockTestInstance},
		{"dense", sparseTestInstance},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in(t, 40, 9)
			st := NewIdentityState(in)
			cfg := Config{Strategy: StrategyHybrid, MaxIters: 2, Rng: rand.New(rand.NewSource(4))}
			RunState(st, cfg)
			s := newSelector(st, cfg)
			if (s.metro != nil) != (tc.name == "block") {
				t.Fatalf("metro index present = %v on the %s view", s.metro != nil, tc.name)
			}
			m := in.M()
			for id := 0; id < m; id++ { // warm-up: grow the scratch
				s.pick(id, 0)
			}
			id := 0
			if a := testing.AllocsPerRun(100, func() {
				id = (id + 7) % m
				s.pick(id, 0)
			}); a != 0 {
				t.Errorf("hybrid pick: %v allocations per call, want 0", a)
			}
		})
	}
}
