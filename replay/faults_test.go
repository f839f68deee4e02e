package replay

import (
	"bytes"
	"context"
	"testing"

	"delaylb"
	"delaylb/descent"
	"delaylb/obs"
)

// TestDescentReplayZeroRateFaultsMatchesBus pins the zero-overhead seam
// at the replay layer: a SimTransport with an all-zero fault plan and
// a round long enough that no payload is ever late reproduces the Bus
// timeline number-for-number. Only Bytes may differ — envelopes cost
// wire space, never accuracy.
func TestDescentReplayZeroRateFaultsMatchesBus(t *testing.T) {
	sc := delaylb.NewScenario(60).WithClusters(6).WithLoads(delaylb.LoadZipf, 100).WithSeed(7)
	tr, err := FlashCrowd(sc, 4, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := DescentConfig{
		Plane:       descent.Config{Seed: 7, Shards: 6},
		RoundBudget: 200,
		Verify:      true,
	}
	hard := base
	hard.Plane.Faults = &descent.FaultPlan{Seed: 7}
	hard.Plane.RoundMs = 1e12

	btl, err := RunDescent(context.Background(), tr, base)
	if err != nil {
		t.Fatal(err)
	}
	htl, err := RunDescent(context.Background(), tr, hard)
	if err != nil {
		t.Fatal(err)
	}
	if len(btl.Epochs) != len(htl.Epochs) {
		t.Fatalf("timelines differ in length: %d vs %d", len(btl.Epochs), len(htl.Epochs))
	}
	for k := range btl.Epochs {
		b, h := btl.Epochs[k], htl.Epochs[k]
		if h.Faults != nil || h.SkippedEvents != 0 {
			t.Errorf("epoch %d: zero-rate plan reported faults %+v skipped=%d", k, h.Faults, h.SkippedEvents)
		}
		if h.Cost != b.Cost || h.StartCost != b.StartCost || h.NNZ != b.NNZ ||
			h.Servers != b.Servers || h.Rounds != b.Rounds || h.RoundsToBand != b.RoundsToBand {
			t.Errorf("epoch %d diverged from the Bus timeline:\n bus %+v\n sim %+v", k, b, h)
		}
		// Envelopes and the periodic anti-entropy refresh cost traffic,
		// never accuracy — volume can only grow.
		if h.Bytes < b.Bytes || h.Messages < b.Messages {
			t.Errorf("epoch %d: hardened traffic (%d msgs, %d B) below the Bus (%d msgs, %d B)",
				k, h.Messages, h.Bytes, b.Messages, b.Bytes)
		}
	}
}

// TestDescentReplayFaultedDeterminism replays a churned trace under a
// combined fault plan plus the per-epoch crash drill, twice, and pins
// byte-identical JSON — the (seed, FaultPlan) replayability contract at
// the driver level.
func TestDescentReplayFaultedDeterminism(t *testing.T) {
	sc := delaylb.NewScenario(80).WithClusters(6).WithLoads(delaylb.LoadZipf, 100).WithSeed(2)
	tr, err := FlashCrowd(sc, 6, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DescentConfig{
		Plane: descent.Config{
			Seed:   2,
			Shards: 6,
			Faults: &descent.FaultPlan{Seed: 2, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05, Delay: 0.05, DelayPhases: 1},
		},
		CrashPerEpoch: 1,
		RoundBudget:   200,
		SkipOracle:    true, // fault mechanics are under test, not the gap
		Verify:        true,
	}
	tl, err := RunDescent(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for _, row := range tl.Epochs {
		if row.Faults == nil {
			t.Fatalf("epoch %d under a lossy plan reported no fault totals", row.Epoch)
		}
		crashes += row.Faults.Crashes
		if row.Faults.Dropped == 0 {
			t.Errorf("epoch %d: Drop=0.05 injected nothing: %+v", row.Epoch, row.Faults)
		}
	}
	// Six metros, six shards: each drill kills one whole metro, and the
	// last metro standing cannot fail over — exactly five crashes land
	// across the seven epochs.
	if crashes != 5 {
		t.Errorf("drill crashed %d actors over %d epochs, want 5 (metros minus the last survivor)", crashes, len(tl.Epochs))
	}
	if last := tl.Epochs[len(tl.Epochs)-1]; last.Servers >= 80 {
		t.Errorf("final fleet has %d servers; crashes never removed any", last.Servers)
	}

	tl2, err := RunDescent(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := tl.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tl2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("faulted descent replay is not byte-deterministic across runs")
	}
}

// TestDescentReplayCrashSkipsDeadEvents drives a hand-built trace whose
// every epoch touches every initial server: once the drill has crashed
// an actor, later events necessarily name dead ids, and with a crash
// schedule active the driver must skip-and-count them rather than fail.
func TestDescentReplayCrashSkipsDeadEvents(t *testing.T) {
	const m = 12
	sc := delaylb.NewScenario(m).WithClusters(3).WithLoads(delaylb.LoadUniform, 50).WithSeed(5)
	tr := &Trace{Scenario: sc}
	for e := 1; e <= 3; e++ {
		ep := Epoch{Time: float64(e)}
		for id := int64(0); id < m; id++ {
			ep.Events = append(ep.Events, Event{Kind: LoadDelta, ID: id, Value: 1.5})
		}
		tr.Epochs = append(tr.Epochs, ep)
	}
	reg := obs.NewRegistry()
	cfg := DescentConfig{
		Plane:         descent.Config{Seed: 5, Shards: 3},
		CrashPerEpoch: 1,
		RoundBudget:   60,
		SkipOracle:    true,
		Verify:        true,
		Obs:           obs.NewScope(reg, nil),
	}
	var seen []descent.CrashEvent
	cfg.Plane.OnCrash = func(ev descent.CrashEvent) { seen = append(seen, ev) }
	tl, err := RunDescent(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("crash drill never fired")
	}
	events, skipped := 0, 0
	for _, row := range tl.Epochs {
		events += row.Events
		skipped += row.SkippedEvents
	}
	if skipped == 0 {
		t.Fatal("every epoch touches every initial id, yet no post-crash event was skipped")
	}
	// replay_events_total counts applied events only.
	if got := reg.Counter("replay_events_total", "tier", "descent").Value(); got != int64(events-skipped) {
		t.Errorf("replay_events_total = %d, want %d (%d events − %d skipped)", got, events-skipped, events, skipped)
	}
	// The survivors' loads still took the deltas the skips left alone.
	if last := tl.Epochs[len(tl.Epochs)-1]; last.Servers >= m {
		t.Errorf("final fleet has %d servers, want fewer than %d after crashes", last.Servers, m)
	}

	// Without a crash schedule the same dead-id event must stay fatal.
	strict := cfg
	strict.CrashPerEpoch = 0
	strict.Plane.OnCrash = nil
	dead := &Trace{Scenario: sc, Epochs: []Epoch{{Time: 1, Events: []Event{{Kind: ServerLeave, ID: 3}}}, {Time: 2, Events: []Event{{Kind: LoadDelta, ID: 3, Value: 1}}}}}
	if _, err := RunDescent(context.Background(), dead, strict); err == nil {
		t.Fatal("dead-id event without a crash schedule did not fail the replay")
	}
}

// TestDescentReplayFaultedFlashCrowdM5000 is the WAN acceptance bar: an
// m=5000 clustered flash crowd replayed under ≤5% loss, duplication,
// reordering and delay plus one actor crash per epoch still re-enters
// the 2% oracle band every epoch, within a bounded round overhead of
// the lossless baseline, and the whole faulted timeline replays
// byte-for-byte from (seed, FaultPlan).
func TestDescentReplayFaultedFlashCrowdM5000(t *testing.T) {
	if testing.Short() {
		t.Skip("m=5000 faulted descent replay: skipped in -short mode")
	}
	const epochs = 4
	sc := delaylb.NewScenario(5000).WithClusters(12).WithLoads(delaylb.LoadZipf, 100).WithSeed(3)
	tr, err := FlashCrowd(sc, epochs, 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := DescentConfig{
		// Partial participation, as at m=50k: full simultaneous play at
		// this scale herds onto each metro's top servers (see DESIGN.md).
		Plane:       descent.Config{Seed: 3, Shards: 8, Participation: 0.2},
		RoundBudget: 300,
		StopInBand:  true,
		Verify:      true,
	}
	faulted := base
	faulted.Plane.Faults = &descent.FaultPlan{
		Seed: 3, Drop: 0.05, Duplicate: 0.05, Reorder: 0.05, Delay: 0.05, DelayPhases: 1,
	}
	faulted.CrashPerEpoch = 1

	btl, err := RunDescent(context.Background(), tr, base)
	if err != nil {
		t.Fatal(err)
	}
	ftl, err := RunDescent(context.Background(), tr, faulted)
	if err != nil {
		t.Fatal(err)
	}
	baseRounds, faultRounds := 0, 0
	for k, row := range ftl.Epochs {
		baseRounds += btl.Epochs[k].Rounds
		faultRounds += row.Rounds
		if row.RelGap > 0.02 {
			t.Errorf("epoch %d: gap %+.4f above the 2%% band under faults (cost=%g oracle=%g)",
				row.Epoch, row.RelGap, row.Cost, row.OracleCost)
		}
		if row.RoundsToBand < 0 {
			t.Errorf("epoch %d never entered the band in %d rounds under faults", row.Epoch, row.Rounds)
		}
		if row.Faults == nil || row.Faults.Crashes != 1 {
			t.Errorf("epoch %d: drill expected exactly 1 crash, got %+v", row.Epoch, row.Faults)
		}
		t.Logf("epoch %d: m=%d gap=%+.4f rounds=%d (bus %d) faults=%+v skipped=%d",
			row.Epoch, row.Servers, row.RelGap, row.Rounds, btl.Epochs[k].Rounds, row.Faults, row.SkippedEvents)
	}
	// Bounded overhead: the recovery protocol may spend extra rounds
	// re-winning lost state, but not unboundedly many.
	if faultRounds > 4*baseRounds+25*(epochs+1) {
		t.Errorf("faulted replay took %d rounds vs %d lossless — recovery overhead unbounded", faultRounds, baseRounds)
	}

	ftl2, err := RunDescent(context.Background(), tr, faulted)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := ftl.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := ftl2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("m=5000 faulted replay is not byte-deterministic for a fixed (seed, FaultPlan)")
	}
}
