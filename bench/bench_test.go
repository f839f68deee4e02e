package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delaylb/replay"
)

type specFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) specFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// assertMetrics checks that got holds exactly the listed metrics, each
// with its listed unit.
func assertMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
}

// TestSmokeWorkloads runs every workload at smoke size, untraced and
// traced: every step must pass its checks, the traced lap must reproduce
// the untraced fingerprint (per-step iterations, ΣC_i bits, descent
// bytes), and every metric in BENCHMARK.json must appear with its unit.
func TestSmokeWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	// The layer each workload exists to exercise, as calls per lap.
	layerCalls := map[string]string{
		"flash-fw":      "qp.solve.calls",
		"outage-mine":   "core.warm.calls",
		"descent-flash": "descent.round.calls",
		"cold-mine":     "core.cold.calls",
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			ctx := context.Background()
			plain, _, err := measure(ctx, w, w.smoke, 7, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, tr, err := measure(ctx, w, w.smoke, 7, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []*record{plain, traced} {
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d problems=%q",
						rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
				}
			}
			if plain.Fingerprint != traced.Fingerprint {
				t.Errorf("fingerprints differ: untraced %s, traced %s", plain.Fingerprint, traced.Fingerprint)
			}
			assertMetrics(t, plain.Metrics, spec.EndToEnd)
			assertMetrics(t, traced.Metrics, spec.PerLayer)
			wantCalls := float64(w.smoke.Steps)
			if w.name == "descent-flash" {
				wantCalls *= roundsPerStp
			}
			if got := traced.Metrics[layerCalls[w.name]].Value; got != wantCalls {
				t.Errorf("%s = %v, want %v", layerCalls[w.name], got, wantCalls)
			}
			if tr.Len() == 0 {
				t.Error("traced lap recorded no spans")
			}
		})
	}
}

// TestTranslatorCountsFailedCalls feeds the plane a latency shift, which
// it does not take: the call fails and is counted.
func TestTranslatorCountsFailedCalls(t *testing.T) {
	r := newRecorder(nil)
	tl := newTranslator(planeBackend{}, descentOps, nil, r)
	err := tl.apply([]replay.Event{{Kind: replay.LatencyShift, ID: replay.Wildcard, To: replay.Wildcard, Value: 2}})
	if err == nil || r.attempted != 1 || r.failed != 1 {
		t.Fatalf("err=%v attempted=%d failed=%d", err, r.attempted, r.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func writeRecords(t *testing.T, path string, recs ...record) {
	t.Helper()
	for _, r := range recs {
		if err := appendJSONLine(path, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	rec := func(seed int64, p50, tput float64) record {
		return record{Workload: "flash-fw", Seed: seed, Steps: 120, GOMAXPROCS: 2, Attempted: 10,
			Metrics: map[string]metric{"step_ms_p50": {Value: p50}, "steps_per_s": {Value: tput}}}
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parent := filepath.Join(dir, "parent.jsonl")
	writeRecords(t, parent, rec(1, 10, 5), rec(2, 10.1, 5), rec(3, 9.9, 5))

	same := filepath.Join(dir, "same.jsonl")
	writeRecords(t, same, rec(1, 10.2, 5), rec(2, 9.9, 5), rec(3, 10, 5))
	var out strings.Builder
	if err := compareFiles(spec, parent, same, &out); err != nil {
		t.Fatalf("same-commit sets: %v\n%s", err, out.String())
	}

	slower := filepath.Join(dir, "slower.jsonl")
	writeRecords(t, slower, rec(1, 12, 4), rec(2, 12.1, 4), rec(3, 12.2, 4))
	out.Reset()
	if err := compareFiles(spec, parent, slower, &out); !errors.Is(err, errWorse) || !strings.Contains(out.String(), "worse") {
		t.Fatalf("slower set: err=%v\n%s", err, out.String())
	}

	otherSeeds := filepath.Join(dir, "seeds.jsonl")
	writeRecords(t, otherSeeds, rec(1, 10, 5), rec(2, 10, 5), rec(4, 10, 5))
	if err := compareFiles(spec, parent, otherSeeds, &out); err == nil || errors.Is(err, errWorse) {
		t.Fatalf("sets with different seeds were compared: %v", err)
	}
}
