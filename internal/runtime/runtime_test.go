package runtime

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

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

func TestSimBusConvergesNearOptimum(t *testing.T) {
	in := testInstance(1, 20)
	ref := core.ReferenceOptimum(in, rand.New(rand.NewSource(2)))
	bus := NewSimBus(in, 1e-6*ref, 3)
	bus.Run(in, 60, 1e-9)
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
	bus := NewSimBus(in, 1e-3, 5)
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
	a := NewSimBus(in, 1e-3, 7)
	b := NewSimBus(in, 1e-3, 7)
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
	bus := NewSimBus(in, 1e-6, 9)
	bus.Run(in, 30, 1e-9)
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
	bus := NewSimBus(in, 1e-6*ref, 12)
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
	bus := NewSimBus(in, math.Inf(1), 14) // gain threshold Inf: gossip only
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

func TestClusterConverges(t *testing.T) {
	in := testInstance(15, 12)
	ref := core.ReferenceOptimum(in, rand.New(rand.NewSource(16)))
	c := NewClusterFromAllocation(in, model.Identity(in), 1e-6*ref, 17)
	defer c.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.TickAll()
		c.Quiesce()
		if (c.Cost()-ref)/ref < 0.05 {
			break
		}
	}
	if rel := (c.Cost() - ref) / ref; rel > 0.05 {
		t.Errorf("goroutine cluster stalled %.2f%% above optimum", 100*rel)
	}
	if err := c.Allocation().Validate(in, 1e-6); err != nil {
		t.Errorf("invalid allocation: %v", err)
	}
}

func TestServerRejectsWhenBusy(t *testing.T) {
	in := testInstance(21, 4)
	bus := NewSimBus(in, 1e-9, 22)
	s := bus.Servers[0]
	s.busy = true
	out := s.Handle(Message{Kind: MsgPropose, From: 1, To: 0, Col: SparseCol{},
		Lat: in.Latency.(model.DenseLatency)[1], Speed: in.Speed[1]})
	if len(out) != 1 || out[0].Kind != MsgReject {
		t.Fatalf("busy server answered %v, want reject", out)
	}
}

func TestServerIgnoresStaleAccept(t *testing.T) {
	in := testInstance(23, 4)
	bus := NewSimBus(in, 1e-9, 24)
	s := bus.Servers[0]
	col := s.col.Clone()
	s.busy = true
	s.pending = 2
	// Accept from the wrong partner must not overwrite the column.
	s.Handle(Message{Kind: MsgAccept, From: 1, To: 0, NewCol: PackCol(make([]float64, 4))})
	if !reflect.DeepEqual(s.col, col) {
		t.Fatal("stale accept overwrote the column")
	}
}
