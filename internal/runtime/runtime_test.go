package runtime

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/core"
	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/workload"
)

func testInstance(seed int64, m int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &model.Instance{
		Speed:   workload.UniformSpeeds(m, 1, 5, rng),
		Load:    workload.ExponentialLoads(m, 80, rng),
		Latency: model.NewDense(netmodel.PlanetLab(m, rng)),
	}
	return in
}

// newIdentityBus starts a bus at the identity allocation.
func newIdentityBus(in *model.Instance, minGain float64, seed int64) *SimBus {
	return NewSimBusFromAllocation(in, model.Identity(in), minGain, seed)
}

// tickUntilStable ticks bus until a round improves ΣC_i by at most
// relTol relative, or maxRounds rounds have run — the improvement rule
// of delaylb's SimulateDistributed.
func tickUntilStable(bus *SimBus, in *model.Instance, maxRounds int, relTol float64) {
	prev := bus.Cost(in)
	for r := 1; r <= maxRounds; r++ {
		bus.Tick()
		cur := bus.Cost(in)
		if prev-cur <= relTol*prev {
			return
		}
		prev = cur
	}
}

func TestSimBusConvergesNearOptimum(t *testing.T) {
	in := testInstance(1, 20)
	ref := core.ReferenceOptimum(in, rand.New(rand.NewSource(2)))
	bus := newIdentityBus(in, 1e-6*ref, 3)
	tickUntilStable(bus, in, 60, 1e-9)
	got := bus.Cost(in)
	if rel := (got - ref) / ref; rel > 0.05 {
		t.Errorf("distributed runtime stalled %.2f%% above optimum", 100*rel)
	}
	if err := bus.Allocation().Validate(in, 1e-6); err != nil {
		t.Errorf("invalid allocation: %v", err)
	}
}

func TestSimBusCostMonotoneOverRounds(t *testing.T) {
	in := testInstance(4, 15)
	bus := newIdentityBus(in, 1e-3, 5)
	prev := bus.Cost(in)
	for r := 0; r < 20; r++ {
		bus.Tick()
		cur := bus.Cost(in)
		if cur > prev+1e-6*prev {
			t.Fatalf("cost rose at round %d: %v → %v", r, prev, cur)
		}
		prev = cur
	}
}

func TestSimBusDeterministic(t *testing.T) {
	in := testInstance(6, 12)
	a := newIdentityBus(in, 1e-3, 7)
	b := newIdentityBus(in, 1e-3, 7)
	for r := 0; r < 10; r++ {
		a.Tick()
		b.Tick()
	}
	if a.Allocation().L1Distance(b.Allocation()) != 0 {
		t.Error("SimBus runs diverged under the same seed")
	}
	if a.Delivered != b.Delivered {
		t.Error("message counts diverged under the same seed")
	}
}

func TestSimBusMassConservation(t *testing.T) {
	in := testInstance(8, 15)
	bus := newIdentityBus(in, 1e-6, 9)
	tickUntilStable(bus, in, 30, 1e-9)
	a := bus.Allocation()
	for i := 0; i < in.M(); i++ {
		var sum float64
		for j := 0; j < in.M(); j++ {
			sum += a.R[i][j]
		}
		if math.Abs(sum-in.Load[i]) > 1e-6*math.Max(1, in.Load[i]) {
			t.Fatalf("org %d mass %v, want %v", i, sum, in.Load[i])
		}
	}
}

func TestSimBusMessageBudget(t *testing.T) {
	// §IX: the algorithm converges within "a dozen of messages sent by
	// each server" (excluding gossip). Per tick a server emits at most:
	// 1 tick + 1 gossip + 1 gossip reply + 1 proposal + 1 answer ≈ 5–6
	// messages. Check both the per-round budget and that 2% is reached
	// in few rounds.
	in := testInstance(10, 30)
	ref := core.ReferenceOptimum(in, rand.New(rand.NewSource(11)))
	bus := newIdentityBus(in, 1e-6*ref, 12)
	rounds := 0
	for r := 0; r < 40; r++ {
		bus.Tick()
		rounds = r + 1
		if (bus.Cost(in)-ref)/ref < 0.02 {
			break
		}
	}
	if rounds >= 40 {
		t.Fatalf("did not reach 2%% within 40 rounds")
	}
	perServerPerRound := float64(bus.Delivered) / float64(in.M()) / float64(rounds)
	if perServerPerRound > 8 {
		t.Errorf("used %.1f messages/server/round, want ≤ 8", perServerPerRound)
	}
}

func TestGossipSpreadsThroughTicks(t *testing.T) {
	in := testInstance(13, 10)
	bus := newIdentityBus(in, math.Inf(1), 14) // gain threshold Inf: gossip only
	for r := 0; r < 30; r++ {
		bus.Tick()
	}
	for i, s := range bus.Servers {
		for o, e := range s.table {
			if !e.Known {
				t.Fatalf("server %d never learned about %d", i, o)
			}
		}
	}
}
