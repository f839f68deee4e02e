package replay

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"delaylb"
)

func run(t *testing.T, tr *Trace, opts ...delaylb.Option) *Timeline {
	t.Helper()
	tl, err := Run(context.Background(), tr, Config{Options: opts, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestRunHandmadeTraceEndToEnd(t *testing.T) {
	text := `scenario m=8 net=c20 latency=10 dist=exp avg=80 seed=3
epoch 1
spike 0 5
load 1 40
epoch 2
latshift * * 1.5
epoch 3
join 8 speed=2 load=0 uniform=10
epoch 4
leave 2
spike 3 0.5
`
	tr, err := ParseTraceString(text)
	if err != nil {
		t.Fatal(err)
	}
	tl := run(t, tr)
	if len(tl.Epochs) != 5 {
		t.Fatalf("timeline has %d rows, want 5 (initial + 4 epochs)", len(tl.Epochs))
	}
	wantM := []int{8, 8, 8, 9, 8}
	for k, row := range tl.Epochs {
		if row.Servers != wantM[k] {
			t.Errorf("epoch %d: m=%d, want %d", k, row.Servers, wantM[k])
		}
		if row.OptCost <= 0 || row.Cost < row.OptCost*(1-1e-9) {
			t.Errorf("epoch %d: cost %v below reference %v", k, row.Cost, row.OptCost)
		}
		if row.WarmStartCost < row.Cost*(1-1e-9) {
			t.Errorf("epoch %d: re-solve made the plan worse: %v -> %v", k, row.WarmStartCost, row.Cost)
		}
		if row.Moved < 0 {
			t.Errorf("epoch %d: negative churn %v", k, row.Moved)
		}
	}
	if tl.Epochs[0].ColdIters != tl.Epochs[0].WarmIters {
		t.Error("epoch 0 cold stats must mirror the initial (cold) solve")
	}
	// Epoch 2's latency shift leaves loads alone.
	if tl.Epochs[2].TotalLoad != tl.Epochs[1].TotalLoad {
		t.Errorf("latshift changed total load: %v -> %v", tl.Epochs[1].TotalLoad, tl.Epochs[2].TotalLoad)
	}
	// Epoch 1's spike/delta did change it.
	if tl.Epochs[1].TotalLoad == tl.Epochs[0].TotalLoad {
		t.Error("spike+delta epoch left total load unchanged")
	}
}

// The tentpole property at small scale: across a diurnal trace, warm
// starts re-enter the band in no more iterations than cold solves, and
// strictly fewer in aggregate.
func TestRunWarmBeatsColdAcrossTrace(t *testing.T) {
	tr, err := Diurnal(delaylb.NewScenario(16).WithSeed(5), 6, 0.4, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tl := run(t, tr)
	warmSum, coldSum := 0, 0
	for _, row := range tl.Epochs[1:] {
		if row.WarmItersToBand > row.ColdItersToBand {
			t.Errorf("epoch %d: warm %d iters to band > cold %d", row.Epoch, row.WarmItersToBand, row.ColdItersToBand)
		}
		warmSum += row.WarmItersToBand
		coldSum += row.ColdItersToBand
	}
	if warmSum >= coldSum {
		t.Errorf("warm iters-to-band total %d, cold %d — warm must win in aggregate", warmSum, coldSum)
	}
}

// Byte-identical timelines per (trace, seed): the determinism the golden
// and acceptance tiers rely on. Elapsed is logged, never persisted.
func TestRunTimelineDeterministic(t *testing.T) {
	tr, err := FlashCrowd(delaylb.NewScenario(18).WithClusters(3).WithLoads(delaylb.LoadZipf, 60).WithSeed(2), 5, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := []delaylb.Option{delaylb.WithSolver("frankwolfe"), delaylb.WithTolerance(1e-8), delaylb.WithMaxIterations(300)}
	var bufs [2]bytes.Buffer
	for r := 0; r < 2; r++ {
		tl := run(t, tr, opts...)
		if err := tl.WriteJSON(&bufs[r]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("two runs of the same trace produced different timelines")
	}
	if strings.Contains(bufs[0].String(), "elapsed") {
		t.Error("wall-clock leaked into the JSON timeline")
	}
}

func TestRunRollingRestartReturnsToFullStrength(t *testing.T) {
	sc := delaylb.NewScenario(9).WithClusters(3).WithSeed(6)
	tr, err := RollingRestart(sc, 3, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	tl := run(t, tr)
	last := tl.Epochs[len(tl.Epochs)-1]
	if last.Servers != 9 {
		t.Errorf("after the rolling restart m=%d, want 9", last.Servers)
	}
	sawDip := false
	for _, row := range tl.Epochs {
		if row.Servers < 9 {
			sawDip = true
		}
	}
	if !sawDip {
		t.Error("rolling restart never took a server down")
	}
}

func TestRunMetroOutageDipsAndRecovers(t *testing.T) {
	sc := delaylb.NewScenario(12).WithClusters(3).WithLoads(delaylb.LoadExponential, 70).WithSeed(8)
	tr, err := MetroOutage(sc, 1, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	tl := run(t, tr, delaylb.WithSolver("frankwolfe"), delaylb.WithTolerance(1e-8))
	first, last := tl.Epochs[1], tl.Epochs[len(tl.Epochs)-1]
	if first.Servers >= 12 {
		t.Errorf("outage epoch kept m=%d", first.Servers)
	}
	if last.Servers != 12 {
		t.Errorf("metro did not fully rejoin: m=%d", last.Servers)
	}
	if last.TotalLoad <= first.TotalLoad {
		t.Errorf("returning metro did not bring its load back: %v -> %v", first.TotalLoad, last.TotalLoad)
	}
}

func TestRunReportsDynamicErrors(t *testing.T) {
	base := "scenario m=4 net=c20 latency=5 dist=exp avg=50 seed=1\n"
	for name, text := range map[string]string{
		"unknown id":         base + "epoch 1\nspike 9 2\n",
		"leave twice":        base + "epoch 1\nleave 2\nepoch 2\nleave 2\n",
		"duplicate join":     base + "epoch 1\njoin 2 speed=1 load=0 uniform=5\n",
		"cluster join on pl": "scenario m=4 net=pl dist=exp avg=50 seed=1\nepoch 1\njoin 4 speed=1 load=0 cluster=0\n",
		// A uniform join breaks a metro scheme's block structure; a later
		// cluster join must detect that, not fabricate delays from the
		// stale block table.
		"cluster join after uniform join": "scenario m=6 net=clustered latency=20 dist=exp avg=50 clusters=2 seed=1\n" +
			"epoch 1\njoin 6 speed=1 load=0 uniform=3\nepoch 2\njoin 7 speed=1 load=0 cluster=0\n",
	} {
		tr, err := ParseTraceString(text)
		if err != nil {
			t.Fatalf("%s: trace rejected statically: %v", name, err)
		}
		if _, err := Run(context.Background(), tr, Config{}); err == nil {
			t.Errorf("%s: engine accepted it", name)
		}
	}
}

// Latency shifts batch per epoch like load events: two ×2 global shifts
// in one epoch must land exactly like a single ×4.
func TestRunLatencyShiftsCompose(t *testing.T) {
	base := "scenario m=6 net=c20 latency=10 dist=exp avg=60 seed=4\nepoch 1\n"
	twice, err := ParseTraceString(base + "latshift * * 2\nlatshift * * 2\n")
	if err != nil {
		t.Fatal(err)
	}
	once, err := ParseTraceString(base + "latshift * * 4\n")
	if err != nil {
		t.Fatal(err)
	}
	a := run(t, twice)
	b := run(t, once)
	if a.Epochs[1].WarmStartCost != b.Epochs[1].WarmStartCost {
		t.Errorf("two ×2 shifts (%v) differ from one ×4 (%v)",
			a.Epochs[1].WarmStartCost, b.Epochs[1].WarmStartCost)
	}
}

func TestRunCancellationReturnsPartialTimeline(t *testing.T) {
	tr, err := Diurnal(delaylb.NewScenario(10), 5, 0.3, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	tl, err := Run(ctx, tr, Config{Progress: func(done, total int) {
		calls++
		if done == 2 {
			cancel()
		}
	}})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if tl == nil || len(tl.Epochs) < 2 || len(tl.Epochs) == 6 {
		t.Fatalf("partial timeline has %d rows", len(tl.Epochs))
	}
}

func TestRunSkipColdLeavesColdColumnsEmpty(t *testing.T) {
	tr, err := Diurnal(delaylb.NewScenario(8), 3, 0.2, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Run(context.Background(), tr, Config{SkipCold: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tl.Epochs[1:] {
		if row.ColdCost != 0 || row.ColdIters != 0 {
			t.Errorf("epoch %d: cold baseline ran despite SkipCold", row.Epoch)
		}
		if math.Abs(row.OptCost-row.Cost) > 1e-12*row.Cost {
			t.Errorf("epoch %d: OptCost %v should fall back to warm cost %v", row.Epoch, row.OptCost, row.Cost)
		}
	}
}

func TestTimelineWriteTableMentionsElapsed(t *testing.T) {
	tr, err := Diurnal(delaylb.NewScenario(6), 2, 0.2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	tl := run(t, tr)
	var sb strings.Builder
	tl.WriteTable(&sb)
	out := sb.String()
	if !strings.Contains(out, "elapsed") {
		t.Errorf("table lacks the elapsed column:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != len(tl.Epochs)+1 {
		t.Errorf("table has %d lines, want %d", got, len(tl.Epochs)+1)
	}
}
