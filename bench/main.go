// Command bench is the repository's benchmark: one closed-loop
// controller (one client, one step in flight) that drives delaylb's
// public API through a fixed sequence of rebalancing steps and reports
// end-to-end step metrics, or, with -trace 1, per-layer call metrics.
//
//	bash bench/run.sh --workload flash-fw --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -workload cold-mine -seed 3 -out runs.jsonl -trace 1 -trace-out t.json
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md for the
// workloads, the metric definitions and their bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"delaylb/obs"
)

// procs is the benchmark's GOMAXPROCS: two, or fewer on a smaller machine.
func procs() int { return min(2, runtime.NumCPU()) }

func main() {
	runtime.GOMAXPROCS(procs())
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(exitCode(err))
	}
}

// errWorse makes -compare exit 1; every other error exits 2.
var errWorse = errors.New("a metric got worse")

func exitCode(err error) int {
	if errors.Is(err, errWorse) {
		return 1
	}
	return 2
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: flash-fw, outage-mine, descent-flash or cold-mine")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "timed seconds; after three laps, another starts only if it fits")
	trace := fs.Int("trace", 0, "1: after the untraced laps, run one traced lap and report per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the lap's Chrome trace JSON here")
	out := fs.String("out", "", "append the full result, with its environment, as one JSON line")
	compare := fs.Bool("compare", false, "compare two result files, with the bounds in BENCHMARK.json: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	rec, tr, err := measure(context.Background(), w, w.full, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, tr.WriteChrome); err != nil {
			return err
		}
	}
	if *out != "" {
		rec.Env = environment()
		if err := appendJSONLine(*out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's full result, as written by -out.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Params      map[string]any    `json:"params"`
	Steps       int               `json:"steps"` // per lap
	Laps        int               `json:"laps"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Fingerprint string            `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Problems    []string          `json:"problems,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Env         *env              `json:"env,omitempty"`
}

// measure runs laps of workload w and reports its end-to-end metrics.
// Traced, it then runs one more lap with a scope attached and reports
// the per-layer metrics instead; that lap must reproduce the untraced
// fingerprint. The returned tracer holds the traced lap's spans.
func measure(ctx context.Context, w *workload, sz size, seed int64, seconds float64, traced bool) (*record, *obs.Tracer, error) {
	params := map[string]any{"size": sz}
	for k, v := range w.fixed {
		params[k] = v
	}
	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Params: params, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var base pass
	if err := base.run(ctx, w, sz, seed, nil, seconds, minLaps); err != nil {
		return nil, nil, err
	}
	if !traced {
		if err := base.moreSetups(ctx, w, sz, seed); err != nil {
			return nil, nil, err
		}
	}
	rec.Steps, rec.Laps = len(base.stepMs), base.laps
	rec.Fingerprint = fmt.Sprintf("%016x", base.fingerprint)
	rec.Attempted, rec.Failed, rec.Problems = base.attempted, base.failed, base.problems
	values := base.endToEnd()
	var tr *obs.Tracer
	if traced {
		reg := obs.NewRegistry()
		tr = obs.NewTracer()
		scope := obs.NewScope(reg, tr)
		var before map[string]float64
		tp := pass{lapStart: func() { before = counterTotals(reg) }}
		if err := tp.run(ctx, w, sz, seed, scope, 0, 1); err != nil {
			return nil, nil, err
		}
		if tp.fingerprint != base.fingerprint {
			rec.Problems = append(rec.Problems, fmt.Sprintf("traced fingerprint %016x differs from untraced %016x", tp.fingerprint, base.fingerprint))
		}
		rec.Attempted += tp.attempted
		rec.Failed += tp.failed
		rec.Problems = append(rec.Problems, tp.problems...)
		var untracedS float64
		for _, ms := range base.perStepMs() {
			untracedS += ms / 1e3
		}
		overhead := 100 * (tp.timedS()/untracedS - 1)
		values = layerMetrics(tr.Events(), before, counterTotals(reg), overhead)
	}
	rec.Correct = rec.Failed == 0 && len(rec.Problems) == 0
	rec.Metrics = make(map[string]metric, len(values))
	for k, v := range values {
		rec.Metrics[k] = metric{Value: v, Unit: unitOf(k)}
	}
	return rec, tr, nil
}

// unitOf names a metric's unit from its name.
func unitOf(name string) string {
	suffix := func(s ...string) bool {
		for _, x := range s {
			if strings.HasSuffix(name, x) {
				return true
			}
		}
		return false
	}
	switch {
	case name == "setup_s":
		return "s"
	case name == "steps_per_s":
		return "1/s"
	case name == "cost_ratio":
		return "ratio"
	case name == "heap_peak_mb" || suffix("alloc_mb_per_solve"):
		return "MiB"
	case suffix("alloc_kb_per_call", "alloc_kb_per_round"):
		return "KiB"
	case suffix("_pct"):
		return "%"
	case suffix("_ratio"):
		return "ratio"
	case suffix("us_p50", "us_per_iter"):
		return "us"
	case suffix("_ms", "ms_p50", "ms_p75", "ms_p99", "ms_per_iter"):
		return "ms"
	case suffix("bytes_per_round"):
		return "B"
	case suffix("messages_per_round"):
		return "messages"
	case suffix("stepped_per_round"):
		return "rows"
	case suffix("iters_per_solve"):
		return "iters"
	case suffix("nnz_mean"):
		return "entries"
	case suffix("lmo_calls_per_sweep"):
		return "calls"
	default: // .calls, qp.sweeps, qp.drop_steps
		return "count"
	}
}

// env is the machine and build a result was measured on.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu,omitempty"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit,omitempty"`
}

func environment() *env {
	e := &env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only the working directory's own repository counts; the ceiling
	// stops git from searching the directories above it.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if b, err := cmd.Output(); err == nil {
			e.Commit = strings.TrimSpace(string(b))
		}
	}
	return e
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
