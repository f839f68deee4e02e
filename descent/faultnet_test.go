package descent

import (
	"bytes"
	"math"
	"testing"
)

// runFaultState runs the clustered 80×6 instance over a SimTransport
// with the given plan and returns the pinned (allocation, cost stream)
// bytes plus the run report.
func runFaultState(t *testing.T, shards int, plan *FaultPlan, roundMs float64, rounds int) ([]byte, *Report) {
	t.Helper()
	in := clusteredInstance(t, 80, 6, 17)
	var costs []float64
	cfg := Config{
		Shards:  shards,
		Seed:    17,
		Faults:  plan,
		RoundMs: roundMs,
		OnRound: func(m RoundMetrics) bool {
			costs = append(costs, m.Cost)
			return true
		},
	}
	p, err := NewPlane(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, p)
	return renderState(p, costs), rep
}

// TestSimTransportNoFaultsMatchesBus pins the recovery protocol's
// zero-overhead guarantee: a SimTransport with no fault plan and a
// round long enough that every payload lands within its phase produces
// the exact Bus trajectory — envelopes, round tags and gap scans change
// bytes on the wire, never the numbers.
func TestSimTransportNoFaultsMatchesBus(t *testing.T) {
	for _, shards := range []int{1, 3, 6} {
		base := runForState(t, shards, 1)
		sim, _ := runFaultState(t, shards, nil, 1e12, 60)
		if !bytes.Equal(base, sim) {
			t.Fatalf("shards=%d: SimTransport without faults diverged from the Bus trajectory", shards)
		}
	}
}

// TestFaultMatrixConverges runs one fault class per cell at a
// meaningful rate and asserts the plane still reaches the oracle band,
// that the transport actually injected the class, and that the
// receivers' counters show the protocol at work.
func TestFaultMatrixConverges(t *testing.T) {
	in := clusteredInstance(t, 80, 6, 17)
	target := oracleCost(t, in)
	for _, tc := range []struct {
		name string
		plan FaultPlan
		hit  func(f *FaultTotals) int64
	}{
		{"drop", FaultPlan{Seed: 5, Drop: 0.05}, func(f *FaultTotals) int64 { return f.Dropped }},
		{"duplicate", FaultPlan{Seed: 5, Duplicate: 0.05}, func(f *FaultTotals) int64 { return f.Duplicated }},
		{"reorder", FaultPlan{Seed: 5, Reorder: 0.1}, func(f *FaultTotals) int64 { return f.Reordered }},
		{"delay", FaultPlan{Seed: 5, Delay: 0.25, DelayPhases: 2}, func(f *FaultTotals) int64 { return f.Delayed }},
		{"corrupt", FaultPlan{Seed: 5, Corrupt: 0.02}, func(f *FaultTotals) int64 { return f.Corrupted }},
		{"lie", FaultPlan{Seed: 5, FalsePrice: 0.05}, func(f *FaultTotals) int64 { return f.FalsePriced }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan
			var costs []float64
			p, err := NewPlane(clusteredInstance(t, 80, 6, 17), Config{
				Shards: 6, Seed: 17, Faults: &plan, Target: target,
				OnRound: func(m RoundMetrics) bool {
					costs = append(costs, m.Cost)
					return true
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.Run(200)
			if err != nil {
				t.Fatal(err)
			}
			checkFeasible(t, p)
			if rep.Faults == nil {
				t.Fatal("fault run reported no fault totals")
			}
			if tc.hit(rep.Faults) == 0 {
				t.Fatalf("%s rate > 0 but the transport injected none: %+v", tc.name, rep.Faults)
			}
			if rep.RoundsToBand < 0 {
				t.Fatalf("never reached the 2%% oracle band under %s faults: final rel gap %g (faults %+v)",
					tc.name, rep.RelGap, rep.Faults)
			}
		})
	}
}

// TestFaultReplayDeterministicPerShardCount pins the replayability
// contract: for each shard count, two runs of the same (seed,
// FaultPlan) are byte-identical. (Across shard counts the fault
// schedule differs — faults are keyed per edge — so equality is only
// claimed per count.)
func TestFaultReplayDeterministicPerShardCount(t *testing.T) {
	plan := FaultPlan{Seed: 11, Drop: 0.05, Duplicate: 0.05, Reorder: 0.1, Delay: 0.2, DelayPhases: 2, Corrupt: 0.01, FalsePrice: 0.02}
	for _, shards := range []int{1, 3, 6} {
		pa := plan
		a, repA := runFaultState(t, shards, &pa, 0, 80)
		pb := plan
		b, repB := runFaultState(t, shards, &pb, 0, 80)
		if !bytes.Equal(a, b) {
			t.Fatalf("shards=%d: two runs of the same (seed, FaultPlan) diverged", shards)
		}
		switch {
		case shards == 1:
			// A single actor sends nothing across the transport, so
			// there is no traffic to fault.
			if repA.Faults != nil || repB.Faults != nil {
				t.Fatalf("single-shard run reported transport faults: %+v / %+v", repA.Faults, repB.Faults)
			}
		case repA.Faults == nil || repB.Faults == nil || *repA.Faults != *repB.Faults:
			t.Fatalf("shards=%d: fault totals not replayed: %+v vs %+v", shards, repA.Faults, repB.Faults)
		}
	}
}

// TestRetransmitHealsColumns drops a third of all traffic for 40
// rounds, then lets the NACK/retransmit path drain with faults off and
// asserts every owner column is bit-identical to its row again — the
// invariant the recovery protocol exists to restore.
func TestRetransmitHealsColumns(t *testing.T) {
	plan := &FaultPlan{Seed: 3, Drop: 0.3}
	in := clusteredInstance(t, 80, 6, 17)
	// RoundMs huge: no modeled delay, so after the drain nothing is
	// legitimately in flight and cols must mirror rows exactly.
	p, err := NewPlane(in, Config{Shards: 6, Seed: 17, Faults: plan, RoundMs: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(40); err != nil {
		t.Fatal(err)
	}
	plan.Drop = 0
	// Drive rounds directly: Run would stop at the fixed point, and the
	// drain must cover at least one anti-entropy refresh (round % 16 ==
	// 0) plus its apply, regardless of convergence.
	var served int64
	for t2 := 0; t2 < refreshRounds+giveUpRounds+4; t2++ {
		met, err := p.Round()
		if err != nil {
			t.Fatal(err)
		}
		if met.Faults != nil {
			served += met.Faults.ResendsServed
		}
	}
	if served == 0 {
		t.Fatal("drain rounds served no retransmits")
	}
	// Columns must mirror rows exactly after the drain.
	for _, a := range p.actors {
		for _, j := range a.own {
			col := a.cols[j]
			load := 0.0
			for tt, i := range col.idx {
				if got := p.rows[i].get(j); got != col.val[tt] {
					t.Fatalf("col %d row %d holds %g, row holds %g", j, i, col.val[tt], got)
				}
				load += col.val[tt]
			}
			if math.Abs(load-a.load[j]) > 1e-9*(1+load) {
				t.Fatalf("server %d incremental load %g != column sum %g", j, a.load[j], load)
			}
		}
	}
}

// TestCrashFailoverAccounting crashes one actor mid-run and checks the
// failover bookkeeping: the victim's servers leave, its orgs' load
// exits as LostMass, surviving mass routed there is recovered, and the
// run stays feasible.
func TestCrashFailoverAccounting(t *testing.T) {
	plan := &FaultPlan{Seed: 9, CrashEvery: 10, MaxCrashes: 1}
	in := clusteredInstance(t, 80, 6, 17)
	total := 0.0
	for _, l := range in.Load {
		total += l
	}
	var crash *CrashEvent
	p, err := NewPlane(in, Config{
		Shards: 6, Seed: 17, Faults: plan, RoundMs: 1e12,
		OnCrash: func(ev CrashEvent) { crash = &ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if crash == nil {
		t.Fatal("CrashEvery=10 over 40 rounds executed no crash")
	}
	if rep.Faults == nil || rep.Faults.Crashes != 1 {
		t.Fatalf("report counted %+v, want exactly 1 crash", rep.Faults)
	}
	if crash.Servers == 0 || crash.LostMass <= 0 {
		t.Fatalf("crash removed nothing: %+v", crash)
	}
	if p.M() != 80-crash.Servers {
		t.Fatalf("fleet is %d servers after losing %d of 80", p.M(), crash.Servers)
	}
	left := 0.0
	for _, l := range p.Instance().Load {
		left += l
	}
	if math.Abs(left-(total-crash.LostMass)) > 1e-6*(1+total) {
		t.Fatalf("remaining load %g != %g - lost %g", left, total, crash.LostMass)
	}
	if rep.Faults.LostMass != crash.LostMass || rep.Faults.RecoveredMass != crash.RecoveredMass {
		t.Fatalf("report mass %+v disagrees with the event %+v", rep.Faults, crash)
	}
	checkFeasible(t, p)
}

// TestSendBeforeAttachPanics pins the hardened nil-deliver seams on
// both transports.
func TestSendBeforeAttachPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
	}{
		{"bus", NewBus()},
		{"sim", NewSimTransport(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Send before Attach did not panic")
				}
			}()
			tc.tr.Send(0, encodePrices(0, 1, nil))
		})
	}
}

// TestHardenedPlaneDropsGarbage feeds Byzantine payloads straight into
// an actor inbox: the hardened path must count and drop them without an
// error or a panic, while the Bus path treats the same payload as
// fatal.
func TestHardenedPlaneDropsGarbage(t *testing.T) {
	garbage := func() [][]byte {
		return [][]byte{
			encodePrices(1, 1, []priceEntry{{j: 9999, load: 1, speed: 1}}),
			encodePrices(99, 1, []priceEntry{{j: 1, load: 1, speed: 1}}),
			encodeDeltas(1, 1, []deltaEntry{{row: -3, col: 0, val: 1}}),
			encodePrices(1, 1, []priceEntry{{j: 10, load: math.NaN(), speed: 1}}),
			{7, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
		}
	}

	hard, err := NewPlane(clusteredInstance(t, 30, 3, 9), Config{Shards: 3, Seed: 9, Faults: &FaultPlan{}, RoundMs: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range garbage() {
		hard.actors[0].enqueue(g)
	}
	met, err := hard.Round()
	if err != nil {
		t.Fatalf("hardened plane failed on garbage: %v", err)
	}
	if met.Faults == nil || met.Faults.InvalidDropped != int64(len(garbage())) {
		t.Fatalf("hardened plane counted %+v, want %d invalid drops", met.Faults, len(garbage()))
	}

	bus, err := NewPlane(clusteredInstance(t, 30, 3, 9), Config{Shards: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	bus.actors[0].enqueue(garbage()[0])
	if _, err := bus.Round(); err == nil {
		t.Fatal("Bus plane accepted an out-of-range price index")
	}
}

// FuzzDecodeMessage asserts decode never panics on arbitrary bytes and
// that accepted payloads survive a validate pass without indexing
// anything out of range.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(encodePrices(1, 7, []priceEntry{{j: 3, load: 12.5, speed: 2}}))
	f.Add(encodeSummaries(2, 7, []summaryEntry{{metro: 1, best: 4, bestLoad: 7, bestSpeed: 2, second: -1, load: 7}}))
	f.Add(encodeDeltas(0, 7, []deltaEntry{{row: 2, col: 5, val: 1.25}}))
	f.Add(encodeEnvelope(1, 7, 3, encodeDeltas(0, 7, nil)))
	f.Add(encodeResend(1, 7, []uint32{1, 2, 9}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	in := clusteredInstance(f, 12, 3, 4)
	p, err := NewPlane(in, Config{Shards: 3, Seed: 4})
	if err != nil {
		f.Fatal(err)
	}
	p.round = 1 << 20 // accept any plausible round
	a := p.actors[0]
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeMessage(append([]byte(nil), payload...))
		if err != nil {
			return
		}
		_ = a.validateMessage(&m)
		if m.kind == kindEnvelope {
			if inner, err := decodeMessage(m.inner); err == nil {
				_ = a.validateMessage(&inner)
			}
		}
	})
}

// FuzzParseFaultPlan asserts the CLI spec parser never panics and that
// every plan it accepts also passes its own Validate — the contract the
// flag wiring in cmd/lbsim relies on.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add("drop=0.05,dup=0.05,reorder=0.1")
	f.Add("delay=0.25,delayphases=2,corrupt=0.01,lie=0.01")
	f.Add("crashevery=40,maxcrashes=1,seed=7")
	f.Add(" drop = 0.5 ,, ")
	f.Add("=,=0,x=")
	f.Fuzz(func(t *testing.T, spec string) {
		fp, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		if verr := fp.Validate(); verr != nil {
			t.Fatalf("ParseFaultPlan(%q) returned a plan its own Validate rejects: %v", spec, verr)
		}
	})
}
