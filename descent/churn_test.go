package descent

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"delaylb/internal/dynamic"
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

// updateLoadsByReshard is the load update UpdateLoads replaced, kept as
// its oracle: rescale the assembled allocation and reshard the plane
// over the result.
func updateLoadsByReshard(p *Plane, loads []float64) {
	in := p.in.Clone()
	copy(in.Load, loads)
	p.rebuild(in, dynamic.Rescale(p.Allocation(), p.in.Load, loads))
}

// derivedState renders the bits of the state derive recomputes from the
// rows: every column and every server load.
func derivedState(p *Plane) []byte {
	var buf bytes.Buffer
	for j, col := range p.cols {
		binary.Write(&buf, binary.LittleEndian, int32(len(col.idx)))
		binary.Write(&buf, binary.LittleEndian, col.idx)
		for _, v := range col.val {
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
		}
		binary.Write(&buf, binary.LittleEndian, math.Float64bits(p.load[j]))
	}
	return buf.Bytes()
}

// TestUpdateLoadsMatchesReshard drives twin planes through one script of
// load updates mixed with joins, leaves and rounds: one twin updates its
// loads in place, the other through the rescale-and-reshard oracle.
// After every edit the twins must hold the same allocation and derived
// state bit for bit, and then run 20 identical rounds. The script drops
// loads to 0, brings a zero-load row back, zeroes every load, and
// updates loads between the step and apply phases of a round, with the
// step's payloads in flight. It runs on the block-latency Bus, on the
// dense fallback and on a lossy SimTransport, each at one shard and at
// several.
func TestUpdateLoadsMatchesReshard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dense bool
		plan  *FaultPlan
	}{
		{"block", false, nil},
		{"dense", true, nil},
		{"lossy", false, &FaultPlan{Seed: 3, Drop: 0.2, Duplicate: 0.1, Reorder: 0.2, Delay: 0.1}},
	} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				var planes [2]*Plane
				for k := range planes {
					in := clusteredInstance(t, 40, 4, 23)
					if tc.dense {
						in = denseInstance(t, 24, 23)
					}
					cfg := Config{Shards: shards, Seed: 23, Participation: 0.7}
					if tc.plan != nil {
						plan := *tc.plan
						cfg.Faults = &plan
					}
					p, err := NewPlane(in, cfg)
					if err != nil {
						t.Fatal(err)
					}
					planes[k] = p
				}
				inPlace, oracle := planes[0], planes[1]
				step := 0
				compare := func(what string) {
					t.Helper()
					step++
					if !bytes.Equal(renderState(inPlace, nil), renderState(oracle, nil)) {
						t.Fatalf("step %d (%s): allocations differ", step, what)
					}
					if !bytes.Equal(derivedState(inPlace), derivedState(oracle)) {
						t.Fatalf("step %d (%s): columns or loads differ", step, what)
					}
					if inPlace.Cost() != oracle.Cost() || inPlace.Shards() != oracle.Shards() {
						t.Fatalf("step %d (%s): cost %v on %d shards, oracle %v on %d", step, what,
							inPlace.Cost(), inPlace.Shards(), oracle.Cost(), oracle.Shards())
					}
					for r := 0; r < 20; r++ {
						a, err := inPlace.Round()
						if err != nil {
							t.Fatal(err)
						}
						b, err := oracle.Round()
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("step %d (%s), round %d: %+v, oracle %+v", step, what, r, a, b)
						}
					}
				}
				update := func(what string, loads []float64) {
					t.Helper()
					if err := inPlace.UpdateLoads(loads); err != nil {
						t.Fatal(err)
					}
					updateLoadsByReshard(oracle, loads)
					compare(what)
				}
				scaled := func(f float64, zero ...int) []float64 {
					loads := append([]float64(nil), inPlace.Instance().Load...)
					for i := range loads {
						loads[i] *= f
					}
					for _, i := range zero {
						loads[i] = 0
					}
					return loads
				}
				join := func() {
					t.Helper()
					for _, p := range planes {
						var lat []float64
						if tc.dense {
							lat = make([]float64, p.M())
							for j := range lat {
								lat[j] = 5 + float64(j%7)
							}
						}
						if err := p.Join(2.5, 60, lat, lat, 1); err != nil {
							t.Fatal(err)
						}
					}
					compare("join")
				}

				compare("start")
				update("grow, two loads drop to 0", scaled(1.3, 2, 5))
				join()
				loads := scaled(0.9)
				loads[2] = 40
				update("a zero-load row comes back", loads)
				for _, p := range planes {
					if err := p.Leave(3); err != nil {
						t.Fatal(err)
					}
				}
				compare("leave")
				update("every load 0", scaled(0))
				loads = scaled(0)
				for i := range loads {
					loads[i] = float64(10 + 7*(i%5))
				}
				update("every row restarts", loads)

				// Between phases: the step's deltas are in flight when the
				// loads move, and both twins must drop them.
				held := func(p *Plane) int {
					n := 0
					for _, a := range p.actors {
						a.inMu.Lock()
						n += len(a.inbox) + len(a.deferred) + len(a.pendingLocal) + len(a.deltaPend)
						a.inMu.Unlock()
					}
					return n
				}
				for _, p := range planes {
					p.round++
					r := p.round
					p.par(func(a *actor) { a.publish(r) })
					p.tr.Flush()
					p.par(func(a *actor) { a.step(r) })
					p.tr.Flush()
				}
				if held(inPlace) == 0 {
					t.Fatal("no payloads or deltas in flight between phases; the scenario is too quiet to exercise the drop")
				}
				loads = scaled(0.7, 1)
				if err := inPlace.UpdateLoads(loads); err != nil {
					t.Fatal(err)
				}
				updateLoadsByReshard(oracle, loads)
				for k, p := range planes {
					if n := held(p); n != 0 {
						t.Fatalf("twin %d still holds %d payloads or deltas from before the update", k, n)
					}
				}
				compare("between phases")
			})
		}
	}
}

// TestUpdateLoadsAllocationBound pins the allocations of one load update
// on a warm plane of the descent-flash shape: m=1500, 16 metros, after
// 100 rounds at participation 0.2. Rows are scaled in place and every
// column, load and price cache keeps its backing, so what remains is
// the instance clone that carries the new loads: five allocations. A
// reshard of this plane allocates over 30,000 times.
func TestUpdateLoadsAllocationBound(t *testing.T) {
	in := clusteredInstance(t, 1500, 16, 1)
	p, err := NewPlane(in, Config{Seed: 1, Participation: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	loads := append([]float64(nil), p.Instance().Load...)
	n := testing.AllocsPerRun(20, func() {
		for i := range loads {
			loads[i] *= 1.001
		}
		if err := p.UpdateLoads(loads); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("UpdateLoads at m=1500: %.1f allocs/op", n)
	if n > 5 {
		t.Errorf("UpdateLoads allocates %.1f times per call at m=1500 (bound 5) — something is resharded again", n)
	}
}
