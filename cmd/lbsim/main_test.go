package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"delaylb"
)

// TestScenarioMappingAllNetDistCombos drives the flag→scenario mapping
// through every -net/-dist pair and checks the resulting Scenario fields.
func TestScenarioMappingAllNetDistCombos(t *testing.T) {
	nets := map[string]delaylb.NetworkKind{
		"pl":        delaylb.NetPlanetLab,
		"planetlab": delaylb.NetPlanetLab,
		"c20":       delaylb.NetHomogeneous,
		"euclidean": delaylb.NetEuclidean,
	}
	dists := map[string]delaylb.LoadKind{
		"uniform": delaylb.LoadUniform,
		"exp":     delaylb.LoadExponential,
		"peak":    delaylb.LoadPeak,
		"zipf":    delaylb.LoadZipf,
	}
	for netFlag, wantNet := range nets {
		for distFlag, wantDist := range dists {
			sc, err := delaylb.ParseScenario(8, netFlag, distFlag, "uniform", 40, 3)
			if err != nil {
				t.Fatalf("ParseScenario(%q, %q): %v", netFlag, distFlag, err)
			}
			if sc.Network != wantNet || sc.LoadDist != wantDist {
				t.Errorf("ParseScenario(%q, %q) = (%s, %s), want (%s, %s)",
					netFlag, distFlag, sc.Network, sc.LoadDist, wantNet, wantDist)
			}
			if sc.AvgLoad != 40 || sc.Seed != 3 || sc.Servers != 8 {
				t.Errorf("ParseScenario(%q, %q) dropped numeric params: %+v", netFlag, distFlag, sc)
			}
			if _, err := sc.Build(); err != nil {
				t.Errorf("scenario %s does not build: %v", sc, err)
			}
		}
	}
}

func TestScenarioMappingSpeeds(t *testing.T) {
	for flag, want := range map[string]delaylb.SpeedKind{
		"uniform": delaylb.SpeedUniform,
		"const":   delaylb.SpeedConst,
	} {
		sc, err := delaylb.ParseScenario(5, "pl", "exp", flag, 10, 1)
		if err != nil {
			t.Fatalf("speeds %q: %v", flag, err)
		}
		if sc.Speeds != want {
			t.Errorf("speeds %q mapped to %s, want %s", flag, sc.Speeds, want)
		}
	}
}

func TestScenarioMappingRejectsUnknownNames(t *testing.T) {
	if _, err := delaylb.ParseScenario(5, "tokenring", "exp", "uniform", 10, 1); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := delaylb.ParseScenario(5, "pl", "gamma", "uniform", 10, 1); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := delaylb.ParseScenario(5, "pl", "exp", "turbo", 10, 1); err == nil {
		t.Error("unknown speed kind accepted")
	}
	if _, err := delaylb.ParseScenario(0, "pl", "exp", "uniform", 10, 1); err == nil {
		t.Error("zero servers accepted")
	}
}

// TestRunEveryAlgo exercises the full command path for every -algo value
// on every network, on a small instance so the whole matrix stays fast.
func TestRunEveryAlgo(t *testing.T) {
	algos := []string{"mine", "hybrid", "proxy", "frankwolfe", "projgrad", "nash", "runtime"}
	for _, net := range []string{"pl", "c20", "euclidean"} {
		for _, algo := range algos {
			var sb strings.Builder
			cfg := config{M: 8, Net: net, Dist: "exp", Speeds: "uniform",
				Algo: algo, Avg: 50, Rounds: 5, Seed: 2}
			if err := run(context.Background(), cfg, &sb); err != nil {
				t.Fatalf("run(net=%s, algo=%s): %v", net, algo, err)
			}
			out := sb.String()
			if !strings.Contains(out, "final") && !strings.Contains(out, "Nash") {
				t.Errorf("run(net=%s, algo=%s) produced no result line:\n%s", net, algo, out)
			}
		}
	}
}

// avg and seed must pass through verbatim: 0 is a meaningful value for
// both, not a sentinel for "use the default".
func TestScenarioMappingKeepsZeroAvgAndSeed(t *testing.T) {
	sc, err := delaylb.ParseScenario(4, "pl", "uniform", "uniform", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.AvgLoad != 0 || sc.Seed != 0 {
		t.Errorf("avg/seed 0 rewritten to %g/%d", sc.AvgLoad, sc.Seed)
	}
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.AverageLoad() != 0 {
		t.Errorf("avg 0 scenario built loads averaging %g", sys.AverageLoad())
	}
}

func TestRunRejectsUnknownAlgo(t *testing.T) {
	var sb strings.Builder
	cfg := config{M: 5, Net: "pl", Dist: "exp", Speeds: "uniform", Algo: "simplex", Avg: 10, Seed: 1}
	if err := run(context.Background(), cfg, &sb); err == nil {
		t.Fatal("unknown algo accepted")
	}
}

// TestRunVariantFlag drives -variant through the one-shot path: every
// accepted spelling solves, and misuse — an unknown step rule, or
// pairing the flag with a solver that would silently ignore it — fails
// before any solving.
func TestRunVariantFlag(t *testing.T) {
	base := config{M: 10, Net: "metro", Dist: "zipf", Speeds: "uniform", Algo: "frankwolfe", Avg: 50, Seed: 3}
	for _, variant := range []string{"classic", "away", "away-step", "pairwise", "pair"} {
		var sb strings.Builder
		cfg := base
		cfg.Variant = variant
		if err := run(context.Background(), cfg, &sb); err != nil {
			t.Fatalf("-variant %s: %v", variant, err)
		}
		if out := sb.String(); !strings.Contains(out, "final") {
			t.Errorf("-variant %s produced no result line:\n%s", variant, out)
		}
	}
	for name, cfg := range map[string]config{
		"unknown-rule":   {M: 10, Net: "pl", Dist: "exp", Speeds: "uniform", Algo: "frankwolfe", Variant: "sideways", Avg: 50, Seed: 3},
		"wrong-solver":   {M: 10, Net: "pl", Dist: "exp", Speeds: "uniform", Algo: "mine", Variant: "away", Avg: 50, Seed: 3},
		"nash-ignores":   {M: 10, Net: "pl", Dist: "exp", Speeds: "uniform", Algo: "nash", Variant: "away", Avg: 50, Seed: 3},
		"replay-nonsolv": {Algo: "proxy", Variant: "pairwise", Replay: filepath.Join("testdata", "tiny.trace"), Seed: 1},
	} {
		var sb strings.Builder
		if err := run(context.Background(), cfg, &sb); err == nil {
			t.Errorf("%s: bad -variant combination accepted", name)
		}
	}
}

// TestRunReplayVariant replays the committed trace with the away-step
// rule — the -replay path must thread -variant into the engine options.
func TestRunReplayVariant(t *testing.T) {
	var sb strings.Builder
	cfg := config{Algo: "frankwolfe", Variant: "away", Seed: 1,
		Replay: filepath.Join("testdata", "tiny.trace")}
	if err := run(context.Background(), cfg, &sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "replayed 4 epochs") {
		t.Errorf("away-step replay did not complete:\n%s", out)
	}
}

// TestRunReplaySmoke drives -replay over the committed tiny trace: the
// full command path (parse file → engine → summary table), plus the
// optional JSON timeline.
func TestRunReplaySmoke(t *testing.T) {
	timeline := filepath.Join(t.TempDir(), "timeline.json")
	var sb strings.Builder
	cfg := config{Algo: "mine", Seed: 1, Replay: filepath.Join("testdata", "tiny.trace"), Timeline: timeline}
	if err := run(context.Background(), cfg, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"replaying", "epoch", "w2band", "replayed 4 epochs"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Epochs []struct {
			Servers int `json:"servers"`
		} `json:"epochs"`
	}
	if err := json.Unmarshal(data, &tl); err != nil {
		t.Fatalf("timeline is not JSON: %v", err)
	}
	// m: 8 → 8 → 9 (join) → 7 (two leaves).
	want := []int{8, 8, 9, 7}
	if len(tl.Epochs) != len(want) {
		t.Fatalf("timeline has %d epochs, want %d", len(tl.Epochs), len(want))
	}
	for k, row := range tl.Epochs {
		if row.Servers != want[k] {
			t.Errorf("epoch %d: m=%d, want %d", k, row.Servers, want[k])
		}
	}
}

// TestRunReplayAssertNoDense replays the committed metro-outage trace —
// metro leaves, backbone ×1.25, bit-exact restore, metro rejoins — with
// -assert-nodense: the whole cycle must ride the structured O(m + k²)
// update path, so the flag's zero-materialization check passes. A trace
// with a *targeted* latshift legitimately densifies (a single degraded
// link need not be block-structured); it must trip the same flag,
// proving the assertion bites.
func TestRunReplayAssertNoDense(t *testing.T) {
	var sb strings.Builder
	cfg := config{Algo: "proxy", Seed: 1, NoDense: true,
		Replay: filepath.Join("testdata", "outage.trace")}
	if err := run(context.Background(), cfg, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "assert-nodense: ok") || !strings.Contains(out, "replayed 5 epochs") {
		t.Errorf("outage replay did not pass the no-dense assertion:\n%s", out)
	}

	targeted := filepath.Join(t.TempDir(), "targeted.trace")
	if err := os.WriteFile(targeted, []byte(
		"scenario m=8 net=clustered latency=20 dist=exp avg=60 speeds=uniform smin=1 smax=5 clusters=2 seed=3\n"+
			"epoch 1\nlatshift 0 1 1.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	cfg.Replay = targeted
	err := run(context.Background(), cfg, &sb)
	if err == nil || !strings.Contains(err.Error(), "materialized") {
		t.Errorf("targeted-latshift trace error = %v, want a materialization failure", err)
	}

	if err := run(context.Background(), config{Algo: "mine", NoDense: true}, &sb); err == nil ||
		!strings.Contains(err.Error(), "-replay") {
		t.Errorf("-assert-nodense without -replay error = %v, want a flag error", err)
	}
}

// TestRunDescendSmoke drives -descend over the committed descent trace:
// the full command path (parse file → distributed plane → summary
// table), plus the optional JSON timeline.
func TestRunDescendSmoke(t *testing.T) {
	timeline := filepath.Join(t.TempDir(), "timeline.json")
	var sb strings.Builder
	cfg := config{Seed: 1, Descend: filepath.Join("testdata", "descend.trace"), Timeline: timeline}
	if err := run(context.Background(), cfg, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"descending", "epoch", "r2band", "oracle", "descended 4 epochs"} {
		if !strings.Contains(out, want) {
			t.Errorf("descend output lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Epochs []struct {
			Servers int     `json:"servers"`
			RelGap  float64 `json:"rel_gap"`
		} `json:"epochs"`
	}
	if err := json.Unmarshal(data, &tl); err != nil {
		t.Fatalf("timeline is not JSON: %v", err)
	}
	// m: 8 → 8 → 9 (join) → 7 (two leaves).
	want := []int{8, 8, 9, 7}
	if len(tl.Epochs) != len(want) {
		t.Fatalf("timeline has %d epochs, want %d", len(tl.Epochs), len(want))
	}
	for k, row := range tl.Epochs {
		if row.Servers != want[k] {
			t.Errorf("epoch %d: m=%d, want %d", k, row.Servers, want[k])
		}
		if row.RelGap > 0.02 {
			t.Errorf("epoch %d: plane ended %.4f above the oracle band", k, row.RelGap)
		}
	}
}

// TestRunDescendFaultedSmoke drives -descend with a fault plan and a
// per-epoch crash drill: the run must finish, report fault counters in
// the per-epoch table, and stay byte-deterministic across reruns.
func TestRunDescendFaultedSmoke(t *testing.T) {
	trace := filepath.Join("testdata", "faulted.trace")
	runOnce := func() string {
		var sb strings.Builder
		cfg := config{Seed: 1, Descend: trace,
			Faults: "drop=0.2,dup=0.1,reorder=0.2", Crashes: 1}
		if err := run(context.Background(), cfg, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	out := runOnce()
	for _, want := range []string{"descending", "faults:", "crashes=", "descended 3 epochs"} {
		if !strings.Contains(out, want) {
			t.Errorf("faulted descend output lacks %q:\n%s", want, out)
		}
	}
	// The table's elapsed column and the summary line carry wall-clock —
	// the one thing allowed to differ between reruns (obs.RuntimeStats
	// pattern). Strip duration tokens, then demand byte-identity.
	if again := runOnce(); stripDurations(again) != stripDurations(out) {
		t.Error("faulted descend run is not deterministic across reruns")
	}
}

// stripDurations blanks wall-clock tokens (e.g. "12ms", "1.2s", "104µs")
// so determinism checks compare only the seed-derived output.
var durationToken = regexp.MustCompile(`[0-9][0-9.]*(ns|µs|us|ms|s|m)\b`)

func stripDurations(s string) string {
	return durationToken.ReplaceAllString(s, "ELAPSED")
}

// The descent driver refuses traces with latency shifts (tiny.trace has
// one) and the two replay modes are mutually exclusive.
func TestRunDescendRejectsBadConfig(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), config{Descend: filepath.Join("testdata", "tiny.trace")}, &sb); err == nil {
		t.Error("-descend accepted a trace with latency shifts")
	}
	if err := run(context.Background(), config{Algo: "mine",
		Replay:  filepath.Join("testdata", "tiny.trace"),
		Descend: filepath.Join("testdata", "descend.trace")}, &sb); err == nil {
		t.Error("-replay and -descend accepted together")
	}
	if err := run(context.Background(), config{Descend: filepath.Join("testdata", "no-such.trace")}, &sb); err == nil {
		t.Error("missing trace file accepted")
	}
	if err := run(context.Background(), config{Algo: "mine", Faults: "drop=0.1"}, &sb); err == nil {
		t.Error("-faults without -descend accepted")
	}
	if err := run(context.Background(), config{Algo: "mine", Crashes: 1}, &sb); err == nil {
		t.Error("-crashes without -descend accepted")
	}
	if err := run(context.Background(), config{Descend: filepath.Join("testdata", "descend.trace"),
		Faults: "drop=2"}, &sb); err == nil {
		t.Error("out-of-range fault probability accepted")
	}
	if err := run(context.Background(), config{Descend: filepath.Join("testdata", "descend.trace"),
		Faults: "warp=0.1"}, &sb); err == nil {
		t.Error("unknown fault key accepted")
	}
	if err := run(context.Background(), config{Descend: filepath.Join("testdata", "descend.trace"),
		Part: math.NaN()}, &sb); err == nil {
		t.Error("-part NaN accepted")
	}
}

func TestRunReplayRejectsBadConfig(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), config{Algo: "nash", Replay: filepath.Join("testdata", "tiny.trace")}, &sb); err == nil {
		t.Error("-replay with -algo nash accepted")
	}
	if err := run(context.Background(), config{Algo: "mine", Replay: filepath.Join("testdata", "no-such.trace")}, &sb); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestRunSparseScaleTier drives the scale-tier solvers through the
// one-shot path on a clustered metro network: each reports the stored
// entry count of its sparse result.
func TestRunSparseScaleTier(t *testing.T) {
	for _, algo := range []string{"frankwolfe", "mine", "proxy"} {
		var sb strings.Builder
		cfg := config{M: 30, Net: "metro", Dist: "zipf", Speeds: "uniform",
			Algo: algo, Avg: 60, Seed: 4, Iters: 40}
		if err := run(context.Background(), cfg, &sb); err != nil {
			t.Fatalf("run(algo=%s): %v", algo, err)
		}
		out := sb.String()
		if !strings.Contains(out, "final") {
			t.Errorf("run(algo=%s) produced no result line:\n%s", algo, out)
		}
		if !strings.Contains(out, "nnz=") {
			t.Errorf("%s did not report nnz:\n%s", algo, out)
		}
	}
}
