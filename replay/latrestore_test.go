package replay

import (
	"context"
	"strings"
	"testing"

	"delaylb"
)

// latEngine builds a bare session backend around a fresh dense-latency session,
// the way Run does, for latency-event unit tests.
func latEngine(t *testing.T, m int) (*sessionBackend, [][]float64) {
	t.Helper()
	sys, err := delaylb.NewScenario(m).WithSeed(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	en := newSessionBackend(sys.NewSession(DefaultOptions()...), Config{})
	return en, en.sess.Latency()
}

func latEqual(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestLatencyRestoreBitExact pins the reason the event exists: stacked
// shifts undone in LIFO order put the exact pre-shift bytes back, where
// the old inverse-multiply recovery provably cannot.
func TestLatencyRestoreBitExact(t *testing.T) {
	en, orig := latEngine(t, 10)

	// First, the premise: ×f then ×(1/f) is NOT the identity in IEEE
	// arithmetic for the factors the generators use.
	if err := en.apply(Event{Kind: LatencyShift, ID: Wildcard, To: Wildcard, Value: 1.25}); err != nil {
		t.Fatal(err)
	}
	if err := en.apply(Event{Kind: LatencyShift, ID: Wildcard, To: Wildcard, Value: 1 / 1.25}); err != nil {
		t.Fatal(err)
	}
	if err := en.flush(); err != nil {
		t.Fatal(err)
	}
	if latEqual(orig, en.sess.Latency()) {
		t.Fatal("inverse multiply restored the matrix bit-exactly — the restore event would be pointless")
	}

	// Now the fix, over a stack of overlapping shifts: a global degrade,
	// a targeted row degrade on top, undone innermost-first.
	en, orig = latEngine(t, 10)
	shifts := []Event{
		{Kind: LatencyShift, ID: Wildcard, To: Wildcard, Value: 1.25},
		{Kind: LatencyShift, ID: 2, To: Wildcard, Value: 1.7},
		{Kind: LatencyShift, ID: 2, To: 5, Value: 3.1},
	}
	for _, ev := range shifts {
		if err := en.apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := en.flush(); err != nil {
		t.Fatal(err)
	}
	if latEqual(orig, en.sess.Latency()) {
		t.Fatal("shifts changed nothing")
	}
	for _, ev := range []Event{
		{Kind: LatencyRestore, ID: 2, To: 5},
		{Kind: LatencyRestore, ID: 2, To: Wildcard},
		{Kind: LatencyRestore, ID: Wildcard, To: Wildcard},
	} {
		if err := en.apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := en.flush(); err != nil {
		t.Fatal(err)
	}
	if !latEqual(orig, en.sess.Latency()) {
		t.Fatal("LIFO restores did not reproduce the original matrix bit-for-bit")
	}
	if len(en.latSnaps) != 0 {
		t.Fatalf("%d snapshots left after restoring everything", len(en.latSnaps))
	}
}

// TestLatencyRestoreErrors pins the two refusal paths: no matching
// shift, and a fleet resized since the shift landed.
func TestLatencyRestoreErrors(t *testing.T) {
	en, _ := latEngine(t, 6)
	if err := en.apply(Event{Kind: LatencyRestore, ID: Wildcard, To: Wildcard}); err == nil {
		t.Fatal("restore with no matching shift did not fail")
	}
	if err := en.apply(Event{Kind: LatencyShift, ID: Wildcard, To: Wildcard, Value: 2}); err != nil {
		t.Fatal(err)
	}
	// Mismatched endpoints never match a (*,*) snapshot.
	if err := en.apply(Event{Kind: LatencyRestore, ID: 1, To: Wildcard}); err == nil {
		t.Fatal("restore with different endpoints matched the wildcard shift")
	}
	if err := en.apply(Event{Kind: ServerLeave, ID: 3}); err != nil {
		t.Fatal(err)
	}
	if err := en.apply(Event{Kind: LatencyRestore, ID: Wildcard, To: Wildcard}); err == nil {
		t.Fatal("restore across a fleet resize did not fail")
	}
}

// TestRunTraceWithRestoreRecoversExactCost runs shift→restore through
// the public entry point: with loads untouched, the restored epoch's
// instance is identical to the initial one, so the deterministic cold
// reference lands on the exact same cost.
func TestRunTraceWithRestoreRecoversExactCost(t *testing.T) {
	text := `scenario m=8 net=c20 latency=10 dist=exp avg=80 seed=3
epoch 1
latshift * * 1.5
epoch 2
latrestore * *
`
	tr, err := ParseTraceString(text)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Run(context.Background(), tr, Config{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	first, last := tl.Epochs[0], tl.Epochs[2]
	if last.OptCost != first.OptCost {
		t.Fatalf("restored epoch cold reference %v != initial %v — the matrix did not come back exactly",
			last.OptCost, first.OptCost)
	}
	if mid := tl.Epochs[1]; mid.OptCost == first.OptCost {
		t.Fatal("the shift epoch shows no cost change; the trace exercised nothing")
	}
}

// TestMetroOutageEmitsRestore pins the generator fix: recovery is a
// LatencyRestore event, and the trace still round-trips the codec.
func TestMetroOutageEmitsRestore(t *testing.T) {
	sc := delaylb.NewScenario(12).WithClusters(3).WithLoads(delaylb.LoadUniform, 50).WithSeed(6)
	tr, err := MetroOutage(sc, 0, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	restores, inverse := 0, 0
	for _, ep := range tr.Epochs {
		for _, ev := range ep.Events {
			if ev.Kind == LatencyRestore {
				restores++
			}
			if ev.Kind == LatencyShift && ev.Value < 1 {
				inverse++
			}
		}
	}
	if restores != 1 || inverse != 0 {
		t.Fatalf("outage trace has %d restores and %d inverse shifts, want 1 and 0", restores, inverse)
	}
	var buf strings.Builder
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTraceString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 strings.Builder
	if err := back.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("outage trace does not round-trip the codec")
	}
}
