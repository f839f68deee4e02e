// Command lbsim runs a single load-balancing experiment and prints the
// cost trajectory — a workbench for exploring the model, built entirely
// on the public Scenario / solver-registry / Session API.
//
// Examples:
//
//	lbsim -m 50 -net pl -dist exp -avg 100 -algo mine
//	lbsim -m 20 -net c20 -dist peak -avg 100000 -algo nash
//	lbsim -m 30 -net pl -dist uniform -avg 50 -algo frankwolfe
//	lbsim -m 25 -net pl -dist exp -avg 80 -algo runtime -rounds 30
//	lbsim -m 2000 -net metro -dist zipf -avg 100 -algo frankwolfe -iters 600
//	lbsim -m 2000 -net metro -dist zipf -avg 100 -algo frankwolfe -variant away
//	lbsim -replay trace.txt -algo proxy -timeline timeline.json
//	lbsim -replay outage.txt -algo proxy -assert-nodense
//	lbsim -descend trace.txt -part 0.5 -timeline timeline.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"delaylb"
	"delaylb/descent"
	"delaylb/obs"
	"delaylb/replay"
)

// config is the parsed flag set — kept as a plain struct so tests can
// exercise every flag combination without a process boundary.
type config struct {
	M        int
	Net      string
	Dist     string
	Speeds   string
	Algo     string
	Variant  string
	Avg      float64
	Rounds   int
	Seed     int64
	Iters    int
	Replay   string
	Descend  string
	Part     float64
	Faults   string
	Crashes  int
	Timeline string
	NoDense  bool

	// Observability outputs. All are one-way side channels: enabling any
	// of them leaves every deterministic output (stdout tables, -timeline
	// JSON) byte-identical.
	MetricsOut    string // Prometheus text snapshot written at exit
	TraceOut      string // Chrome trace-event JSON (Perfetto-loadable)
	CPUProfile    string // pprof CPU profile of the whole run
	MemProfile    string // pprof heap profile written at exit
	MetricsListen string // addr for a live /metrics + /debug/pprof server
}

// wantObs reports whether any flag asks for a metrics/trace scope.
func (c config) wantObs() bool {
	return c.MetricsOut != "" || c.TraceOut != "" || c.MetricsListen != ""
}

func main() {
	var cfg config
	flag.IntVar(&cfg.M, "m", 50, "number of servers")
	flag.StringVar(&cfg.Net, "net", "pl", "network: pl | c20 | euclidean | clustered (alias metro)")
	flag.StringVar(&cfg.Dist, "dist", "exp", "load distribution: uniform | exp | peak | zipf")
	flag.Float64Var(&cfg.Avg, "avg", 100, "average load (peak: total)")
	flag.StringVar(&cfg.Speeds, "speeds", "uniform", "speeds: uniform | const")
	flag.StringVar(&cfg.Algo, "algo", "mine", "algorithm: mine | hybrid | proxy | frankwolfe | projgrad | nash | runtime")
	flag.StringVar(&cfg.Variant, "variant", "", "Frank–Wolfe step rule with -algo frankwolfe: classic | away | pairwise")
	flag.IntVar(&cfg.Rounds, "rounds", 30, "rounds for -algo runtime")
	flag.Int64Var(&cfg.Seed, "seed", 1, "RNG seed")
	flag.IntVar(&cfg.Iters, "iters", 0, "iteration cap (0 = solver default)")
	flag.StringVar(&cfg.Replay, "replay", "", "replay a workload trace file instead of a one-shot solve (-algo picks the solver)")
	flag.StringVar(&cfg.Descend, "descend", "", "replay a workload trace file on the distributed descent plane (no central solve)")
	flag.Float64Var(&cfg.Part, "part", 0, "with -descend: per-row participation probability (0 = plane default)")
	flag.StringVar(&cfg.Faults, "faults", "", "with -descend: fault-plan spec, e.g. drop=0.05,dup=0.05,reorder=0.1,delay=0.25,crashevery=40,maxcrashes=1")
	flag.IntVar(&cfg.Crashes, "crashes", 0, "with -descend: driver-side crash drills per epoch (kills one actor's servers before the epoch runs)")
	flag.StringVar(&cfg.Timeline, "timeline", "", "with -replay/-descend: also write the JSON metrics timeline to this file")
	flag.BoolVar(&cfg.NoDense, "assert-nodense", false, "with -replay: fail if the dense m×m latency matrix is materialized at any point during the replay")
	flag.StringVar(&cfg.MetricsOut, "metrics-out", "", "write a Prometheus text metrics snapshot to this file at exit")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "write a Chrome trace-event JSON (load in Perfetto) to this file at exit")
	flag.StringVar(&cfg.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&cfg.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	flag.StringVar(&cfg.MetricsListen, "metrics-listen", "", "serve live /metrics (Prometheus text) and /debug/pprof on this address while the run executes")
	flag.Parse()

	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// variantOptions maps -variant onto the option list: empty means "leave
// the solver's default alone", anything else must parse and is only
// meaningful for the Frank–Wolfe solver — failing loudly here beats the
// registry's later error, which would not mention the flag.
func variantOptions(cfg config) ([]delaylb.Option, error) {
	if cfg.Variant == "" {
		return nil, nil
	}
	v, err := delaylb.ParseFWVariant(cfg.Variant)
	if err != nil {
		return nil, fmt.Errorf("-variant: %w", err)
	}
	if cfg.Algo != "frankwolfe" {
		return nil, fmt.Errorf("-variant %q needs -algo frankwolfe, got %q", cfg.Variant, cfg.Algo)
	}
	return []delaylb.Option{delaylb.WithFWVariant(v)}, nil
}

// runReplay drives the trace-driven online engine: parse the trace file,
// replay it with the selected solver, print the per-epoch summary table
// and optionally persist the JSON timeline.
func runReplay(ctx context.Context, cfg config, scope *obs.Scope, w io.Writer) error {
	switch cfg.Algo {
	case "mine", "hybrid", "proxy", "frankwolfe", "projgrad":
	default:
		return fmt.Errorf("-replay needs an optimizing solver, got -algo %q (want one of mine|hybrid|proxy|frankwolfe|projgrad)", cfg.Algo)
	}
	f, err := os.Open(cfg.Replay)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := replay.ParseTrace(f)
	if err != nil {
		return err
	}
	opts := []delaylb.Option{delaylb.WithSolver(cfg.Algo), delaylb.WithSeed(cfg.Seed)}
	vopts, err := variantOptions(cfg)
	if err != nil {
		return err
	}
	opts = append(opts, vopts...)
	if cfg.Iters > 0 {
		opts = append(opts, delaylb.WithMaxIterations(cfg.Iters))
	}
	fmt.Fprintf(w, "replaying %s: %s, %d epochs, %d events, algo=%s\n",
		cfg.Replay, tr.Scenario, len(tr.Epochs), tr.Events(), cfg.Algo)
	densifiedBefore := delaylb.DenseMaterializations()
	start := time.Now()
	tl, err := replay.Run(ctx, tr, replay.Config{Options: opts, Obs: scope})
	if err != nil {
		return err
	}
	if cfg.NoDense {
		if got := delaylb.DenseMaterializations() - densifiedBefore; got != 0 {
			return fmt.Errorf("-assert-nodense: the dense m×m latency matrix was materialized %d times during the replay", got)
		}
		fmt.Fprintln(w, "assert-nodense: ok — no dense latency materialization during the replay")
	}
	tl.WriteTable(w)
	fmt.Fprintf(w, "replayed %d epochs in %s\n", len(tl.Epochs), time.Since(start).Round(time.Millisecond))
	if cfg.Timeline != "" {
		out, err := os.Create(cfg.Timeline)
		if err != nil {
			return err
		}
		if err := tl.WriteJSON(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline written to %s\n", cfg.Timeline)
	}
	return nil
}

// runDescend drives the trace through the distributed control plane:
// every epoch's rebalancing happens via sharded actors and sparse delta
// messages instead of a centralized solve, with a per-epoch Frank–Wolfe
// oracle refereeing the gap.
func runDescend(ctx context.Context, cfg config, scope *obs.Scope, w io.Writer) error {
	f, err := os.Open(cfg.Descend)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := replay.ParseTrace(f)
	if err != nil {
		return err
	}
	dcfg := replay.DescentConfig{
		Plane:         descent.Config{Seed: cfg.Seed, Participation: cfg.Part},
		StopInBand:    true,
		CrashPerEpoch: cfg.Crashes,
		Obs:           scope,
	}
	if cfg.Faults != "" {
		fp, err := descent.ParseFaultPlan(cfg.Faults)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		if fp.Seed == 0 {
			fp.Seed = cfg.Seed // one -seed steers the whole run unless the spec pins its own
		}
		dcfg.Plane.Faults = fp
	}
	if cfg.Iters > 0 {
		dcfg.RoundBudget = cfg.Iters
	}
	fmt.Fprintf(w, "descending %s: %s, %d epochs, %d events\n",
		cfg.Descend, tr.Scenario, len(tr.Epochs), tr.Events())
	start := time.Now()
	tl, err := replay.RunDescent(ctx, tr, dcfg)
	if err != nil {
		return err
	}
	tl.WriteTable(w)
	fmt.Fprintf(w, "descended %d epochs in %s\n", len(tl.Epochs), time.Since(start).Round(time.Millisecond))
	if cfg.Timeline != "" {
		out, err := os.Create(cfg.Timeline)
		if err != nil {
			return err
		}
		if err := tl.WriteJSON(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline written to %s\n", cfg.Timeline)
	}
	return nil
}

// run maps the flags onto a Scenario, builds the system and dispatches on
// the algorithm name. Observability flags wrap the dispatch: the scope
// (nil unless asked for) threads into every mode, and the snapshot files
// are written after the mode's own output.
func run(ctx context.Context, cfg config, w io.Writer) error {
	if cfg.Replay != "" && cfg.Descend != "" {
		return fmt.Errorf("-replay and -descend are mutually exclusive")
	}
	if (cfg.Faults != "" || cfg.Crashes != 0) && cfg.Descend == "" {
		return fmt.Errorf("-faults and -crashes need -descend")
	}
	if cfg.NoDense && cfg.Replay == "" {
		return fmt.Errorf("-assert-nodense needs -replay")
	}
	// Validate -variant up front so a typo (or pairing it with a solver
	// that ignores it, like nash or runtime) fails before any solving.
	if _, err := variantOptions(cfg); err != nil {
		return err
	}
	ob, err := startObs(cfg)
	if err != nil {
		return err
	}
	err = runMode(ctx, cfg, ob.scope, w)
	if ferr := ob.finish(w); err == nil {
		err = ferr
	}
	return err
}

// runMode dispatches to the selected mode with the (possibly nil)
// observability scope.
func runMode(ctx context.Context, cfg config, scope *obs.Scope, w io.Writer) error {
	if cfg.Replay != "" {
		return runReplay(ctx, cfg, scope, w)
	}
	if cfg.Descend != "" {
		return runDescend(ctx, cfg, scope, w)
	}
	sc, err := delaylb.ParseScenario(cfg.M, cfg.Net, cfg.Dist, cfg.Speeds, cfg.Avg, cfg.Seed)
	if err != nil {
		return err
	}
	sys, err := sc.Build()
	if err != nil {
		return err
	}

	idCost := sys.Identity().Cost
	fmt.Fprintf(w, "%s\n", sc)
	fmt.Fprintf(w, "initial (identity) ΣC_i = %.4g\n", idCost)

	start := time.Now()
	switch cfg.Algo {
	case "mine", "hybrid", "proxy", "frankwolfe", "projgrad":
		progress := func(iter int, cost float64) bool {
			fmt.Fprintf(w, "  iter %2d  ΣC_i = %.6g\n", iter, cost)
			return true
		}
		opts := []delaylb.Option{
			delaylb.WithSolver(cfg.Algo),
			delaylb.WithSeed(cfg.Seed),
			delaylb.WithProgress(progress),
			delaylb.WithObs(scope),
		}
		vopts, err := variantOptions(cfg)
		if err != nil {
			return err
		}
		opts = append(opts, vopts...)
		if cfg.Algo == "frankwolfe" {
			opts = append(opts, delaylb.WithTolerance(1e-8))
		} else if cfg.Algo == "projgrad" {
			opts = append(opts, delaylb.WithTolerance(1e-10))
		}
		if cfg.Iters > 0 {
			opts = append(opts, delaylb.WithMaxIterations(cfg.Iters))
		}
		res, err := sys.OptimizeContext(ctx, opts...)
		if err != nil {
			return err
		}
		gap := ""
		if res.Gap > 0 {
			gap = fmt.Sprintf(", gap=%.3g", res.Gap)
		}
		fmt.Fprintf(w, "final ΣC_i = %.6g after %d iterations (%s, reason: %s%s, nnz=%d)\n",
			res.Cost, res.Iterations, time.Since(start).Round(time.Millisecond), res.Reason, gap, res.NNZ)
	case "nash":
		nash, err := sys.NashEquilibriumContext(ctx, delaylb.WithProgress(func(sweep int, cost float64) bool {
			fmt.Fprintf(w, "  sweep %2d  ΣC_i = %.6g\n", sweep, cost)
			return true
		}))
		if err != nil {
			return err
		}
		opt, err := sys.OptimizeContext(ctx, delaylb.WithSeed(cfg.Seed+1))
		if err != nil {
			return err
		}
		eps, err := sys.EpsilonNash(nash)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Nash ΣC_i = %.6g in %d sweeps; optimum = %.6g; cost of selfishness = %.4f (ε=%.3g)\n",
			nash.Cost, nash.Iterations, opt.Cost, nash.Cost/opt.Cost, eps)
	case "runtime":
		sess := sys.NewSession(delaylb.WithSeed(cfg.Seed))
		res, err := sess.RunCluster(ctx, cfg.Rounds, func(round int, cost float64) bool {
			fmt.Fprintf(w, "  round %2d  ΣC_i = %.6g\n", round, cost)
			return true
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "final ΣC_i = %.6g after %d rounds (%s)\n",
			res.Cost, res.Iterations, time.Since(start).Round(time.Millisecond))
	default:
		return fmt.Errorf("unknown -algo %q (solvers: %v, plus \"runtime\")", cfg.Algo, delaylb.SolverNames())
	}
	return nil
}
