package descent

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"delaylb/internal/model"
)

// TestJoinIntoEmptyMetro grows a plane into a metro that existed in the
// delay table but had no servers — the joining actor's shard was idle
// until the join.
func TestJoinIntoEmptyMetro(t *testing.T) {
	in, err := model.NewBlockInstance(
		[]float64{1, 1, 2},
		[]float64{120, 80, 40},
		[][]float64{{1, 10}, {10, 1}},
		[]int{0, 0, 0}, // metro 1 exists but is empty
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(in, Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(30); err != nil {
		t.Fatal(err)
	}
	before := p.Cost()
	// A fast empty server in the empty metro: mass should flow to it.
	if err := p.Join(4, 0, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if p.M() != 4 {
		t.Fatalf("fleet is %d after join, want 4", p.M())
	}
	rep, err := p.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost >= before {
		t.Fatalf("cost %g did not improve on %g after a fast server joined", rep.Cost, before)
	}
	checkFeasible(t, p)
	newCol := int32(3)
	used := false
	alloc := p.Allocation()
	for i := range alloc.Idx {
		for _, j := range alloc.Idx[i] {
			if j == newCol {
				used = true
			}
		}
	}
	if !used {
		t.Fatal("no organization routed to the newly joined server")
	}
}

// TestLeaveOnlyLoadedActor removes the one organization carrying load;
// the remaining fleet must stay feasible (all-zero rows).
func TestLeaveOnlyLoadedActor(t *testing.T) {
	in, err := model.NewBlockInstance(
		[]float64{1, 1, 1, 1},
		[]float64{100, 0, 0, 0},
		[][]float64{{1, 5}, {5, 1}},
		[]int{0, 0, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(in, Config{Shards: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	if p.Cost() <= 0 {
		t.Fatal("loaded plane reports zero cost")
	}
	if err := p.Leave(0); err != nil {
		t.Fatal(err)
	}
	if p.M() != 3 {
		t.Fatalf("fleet is %d after leave, want 3", p.M())
	}
	if _, err := p.Run(3); err != nil {
		t.Fatal(err)
	}
	if p.Cost() != 0 {
		t.Fatalf("empty fleet cost %g, want 0", p.Cost())
	}
	checkFeasible(t, p)
}

// TestMidRoundLeaveDropsInFlightDelta drives the three phases by hand,
// removes a server while its delta messages are still sitting in
// inboxes, and checks the plane recovers: the payloads addressed to the
// dead server are dropped with the rebuild, every surviving row stays
// row-stochastic, and the next full round runs clean.
func TestMidRoundLeaveDropsInFlightDelta(t *testing.T) {
	in := clusteredInstance(t, 40, 4, 7)
	p, err := NewPlane(in, Config{Shards: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(2); err != nil {
		t.Fatal(err)
	}

	// Run publish and step of the next round, then stop before apply:
	// the step phase's delta messages are now in flight.
	p.round++
	r := p.round
	p.par(func(a *actor) { a.publish(r) })
	p.tr.Flush()
	p.par(func(a *actor) { a.step(r) })
	p.tr.Flush()
	inflight := 0
	for _, a := range p.actors {
		a.inMu.Lock()
		inflight += len(a.inbox)
		a.inMu.Unlock()
	}
	if inflight == 0 {
		t.Fatal("no in-flight payloads mid-round; the scenario is too quiet to exercise the drop path")
	}

	// Remove a server that other organizations route to, so some of the
	// in-flight deltas reference it.
	leave := -1
	for i := 0; i < p.M() && leave < 0; i++ {
		row := p.rows[i]
		for _, j := range row.idx {
			if int(j) != i {
				leave = int(j)
				break
			}
		}
	}
	if leave < 0 {
		t.Fatal("no cross-routing to disturb")
	}
	loadBefore := p.in.Load[leave]
	if err := p.Leave(leave); err != nil {
		t.Fatal(err)
	}
	_ = loadBefore

	// The rebuild must have dropped every in-flight payload.
	for _, a := range p.actors {
		a.inMu.Lock()
		n := len(a.inbox) + len(a.deferred)
		a.inMu.Unlock()
		if n != 0 {
			t.Fatalf("actor %d still holds %d stale payloads after the mid-round leave", a.id, n)
		}
	}
	checkFeasible(t, p)
	if _, err := p.Round(); err != nil {
		t.Fatalf("first round after mid-round leave: %v", err)
	}
	checkFeasible(t, p)
}

// TestUpdateLoadsRescalesRows doubles every load and checks rows scale
// with their relay fractions preserved.
func TestUpdateLoadsRescalesRows(t *testing.T) {
	in := clusteredInstance(t, 30, 3, 13)
	p, err := NewPlane(in, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(25); err != nil {
		t.Fatal(err)
	}
	before := p.Allocation()
	loads := append([]float64(nil), p.in.Load...)
	for i := range loads {
		loads[i] *= 2
	}
	if err := p.UpdateLoads(loads); err != nil {
		t.Fatal(err)
	}
	after := p.Allocation()
	for i := range before.Idx {
		if len(before.Idx[i]) != len(after.Idx[i]) {
			t.Fatalf("row %d support changed on rescale", i)
		}
		for tt := range before.Idx[i] {
			if got, want := after.Val[i][tt], 2*before.Val[i][tt]; math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("row %d entry %d: %g, want %g", i, tt, got, want)
			}
		}
	}
	checkFeasible(t, p)
	if _, err := p.Run(10); err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, p)
}

// TestChurnedPlaneStillDeterministic reruns an identical churn script
// at two shard counts and compares the final allocation bits.
func TestChurnedPlaneStillDeterministic(t *testing.T) {
	script := func(shards int) []byte {
		in := clusteredInstance(t, 40, 4, 19)
		p, err := NewPlane(in, Config{Shards: shards, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(10); err != nil {
			t.Fatal(err)
		}
		if err := p.Join(2.5, 60, nil, nil, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(10); err != nil {
			t.Fatal(err)
		}
		if err := p.Leave(5); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(10); err != nil {
			t.Fatal(err)
		}
		return renderState(p, nil)
	}
	base := script(1)
	for _, shards := range []int{2, 4} {
		if got := script(shards); string(got) != string(base) {
			t.Fatalf("churn script diverged at shards=%d", shards)
		}
	}
}

// TestCrashMatchesLeaves pins Crash's one-batch failover against the
// one-at-a-time path: a crashed plane and a twin that removes the same
// servers through Leave, highest index first, hold bit-identical
// allocations and run identical rounds afterwards — on the lossless Bus
// and on a lossy SimTransport. Only the first round after the crash
// differs, by the crash accounting it reports.
func TestCrashMatchesLeaves(t *testing.T) {
	withoutCrash := func(f *FaultTotals) *FaultTotals {
		if f == nil {
			return nil
		}
		g := *f
		g.Crashes, g.LostMass, g.RecoveredMass = 0, 0, 0
		if g == (FaultTotals{}) {
			return nil
		}
		return &g
	}
	for _, tc := range []struct {
		name string
		plan *FaultPlan
	}{
		{"bus", nil},
		{"lossy", &FaultPlan{Seed: 5, Drop: 0.05, Duplicate: 0.05, Reorder: 0.1, Delay: 0.2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var planes [2]*Plane
			for k := range planes {
				cfg := Config{Shards: 6, Seed: 17}
				if tc.plan != nil {
					plan := *tc.plan
					cfg.Faults = &plan
				}
				p, err := NewPlane(clusteredInstance(t, 80, 6, 17), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Run(30); err != nil {
					t.Fatal(err)
				}
				planes[k] = p
			}
			crashed, twin := planes[0], planes[1]
			ev, err := crashed.Crash(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(ev.Removed) < 2 || ev.RecoveredMass == 0 {
				t.Fatalf("crash of actor 1 shows nothing: %+v", ev)
			}
			for k := len(ev.Removed) - 1; k >= 0; k-- {
				if err := twin.Leave(int(ev.Removed[k])); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(renderState(crashed, nil), renderState(twin, nil)) {
				t.Fatal("crash and one-at-a-time leaves left different allocations")
			}
			if crashed.M() != twin.M() || crashed.Shards() != twin.Shards() || crashed.Cost() != twin.Cost() {
				t.Fatalf("crash left m=%d shards=%d cost %v, leaves m=%d shards=%d cost %v",
					crashed.M(), crashed.Shards(), crashed.Cost(), twin.M(), twin.Shards(), twin.Cost())
			}
			for r := 0; r < 8; r++ {
				a, err := crashed.Round()
				if err != nil {
					t.Fatal(err)
				}
				b, err := twin.Round()
				if err != nil {
					t.Fatal(err)
				}
				if r == 0 {
					if a.Faults == nil || a.Faults.Crashes != 1 {
						t.Fatalf("first round after the crash reports %+v, want one crash", a.Faults)
					}
					a.Faults = withoutCrash(a.Faults)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("round %d after the crash: %+v vs %+v", r, a, b)
				}
			}
		})
	}
}
