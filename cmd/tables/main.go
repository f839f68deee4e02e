// Command tables regenerates the tables and figures of the paper's
// evaluation on the simulated substrate, fanning experiment cells out
// over a bounded worker pool (results are identical for every worker
// count — each cell derives a private RNG from the base seed and its
// cell index).
//
// Usage:
//
//	tables -table 1          # Table I  (iterations to 2% error)
//	tables -table 2          # Table II (iterations to 0.1% error)
//	tables -table 3          # Table III (cost of selfishness)
//	tables -table 4          # Table IV (RTT vs background throughput)
//	tables -fig 1            # Figure 1 (structure of matrix Q)
//	tables -fig 2            # Figure 2 (convergence on large networks)
//	tables -ablation cycles  # §VI-B negative-cycle-removal ablation
//	tables -ablation poa     # Theorem 1 analytic band vs measurement
//	tables -descent          # distributed plane vs frankwolfe/MinE oracles
//	tables -faults           # descent plane under injected WAN faults
//	tables -all              # everything above
//	tables -bench            # large-m scale grid → BENCH_scale.json
//
// Add -full for the paper-scale parameters (slower); the default
// configuration is laptop-scale and preserves every qualitative shape.
// -workers N bounds the pool (default: all CPUs), -seed picks the base
// seed, and -out results.json (or .csv) persists the aggregate rows.
//
// -bench runs the scale-tier benchmark grid (the sparse solver tiers,
// session churn and descent on zipf/clustered scenarios; -full adds
// m=5000) sequentially — cells are timed, so no worker pool — and
// persists the report to -benchout (default BENCH_scale.json). It is not part of -all: the
// paper tables are about fidelity, the bench grid about the perf
// trajectory of this repository. -benchappend instead loads the
// existing -benchout report and runs only the grid cells it is missing
// (e.g. a newly landed solver tier), leaving every historical entry —
// including its timings — byte-for-byte intact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"delaylb/obs"
	"delaylb/sweep"
)

func main() {
	table := flag.Int("table", 0, "regenerate Table 1–4")
	fig := flag.Int("fig", 0, "regenerate Figure 1 or 2")
	ablation := flag.String("ablation", "", "run an ablation: cycles | poa | dynamic | coords")
	descentTable := flag.Bool("descent", false, "run the distributed-plane table (descent vs centralized oracles)")
	faultsTable := flag.Bool("faults", false, "run the WAN fault-tolerance table (descent plane under drop/dup/reorder/delay/byzantine/crash)")
	full := flag.Bool("full", false, "paper-scale parameters (slow)")
	all := flag.Bool("all", false, "regenerate everything")
	bench := flag.Bool("bench", false, "run the large-m scale benchmark grid")
	benchAppend := flag.Bool("benchappend", false, "append missing grid cells to the existing -benchout report (no re-run of present cells)")
	benchOut := flag.String("benchout", "BENCH_scale.json", "path for the scale benchmark report (with -bench/-benchappend)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "worker pool size (0 = all CPUs); does not affect results")
	out := flag.String("out", "", "persist aggregate rows to this .json or .csv file")
	statsOut := flag.String("statsout", "", "write per-cell wall-clock/alloc CSV to this file (machine-dependent; never part of -out)")
	flag.Parse()

	// Reject a bad -out up front: discovering a typo'd extension only
	// after a -full sweep would throw hours of computation away.
	if *out != "" {
		if err := (&sweep.Report{}).WriteNamed(io.Discard, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	w := io.Writer(os.Stdout)
	report := &sweep.Report{Seed: *seed, Workers: *workers}
	// Per-cell runtime rows go to -statsout only — wall-clock never
	// enters the report (see sweep.Report).
	var stats *obs.RuntimeStats
	if *statsOut != "" {
		stats = &obs.RuntimeStats{}
	}
	start := time.Now()
	ran := false
	if *all || *table == 1 {
		report.Table1 = runConvergence(w, 1, *full, *seed, *workers, stats)
		ran = true
	}
	if *all || *table == 2 {
		report.Table2 = runConvergence(w, 2, *full, *seed, *workers, stats)
		ran = true
	}
	if *all || *table == 3 {
		report.Table3 = runTable3(w, *full, *seed, *workers, stats)
		ran = true
	}
	if *all || *table == 4 {
		report.Table4 = runTable4(w, *seed)
		ran = true
	}
	if *all || *fig == 1 {
		if err := runFigure1(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ran = true
	}
	if *all || *fig == 2 {
		report.Figure2 = runFigure2(w, *full, *seed, *workers, stats)
		ran = true
	}
	if *all || *ablation == "cycles" {
		runCycleAblation(w, *seed)
		ran = true
	}
	if *all || *ablation == "poa" {
		runPoAAblation(w, defaultPoALavs)
		ran = true
	}
	if *all || *ablation == "dynamic" {
		runDynamicAblation(w, *seed)
		ran = true
	}
	if *all || *ablation == "coords" {
		runCoordsAblation(w, *seed)
		ran = true
	}
	if *all || *descentTable {
		report.Descent = runDescentTable(w, *full, *seed, *workers, stats)
		ran = true
	}
	if *all || *faultsTable {
		report.Faults = runFaultsTable(w, *full, *seed, *workers, stats)
		ran = true
	}
	if *bench {
		if err := runBench(w, *full, *seed, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ran = true
	}
	if *benchAppend {
		if err := runBenchAppend(w, *full, *seed, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "wall-clock: %.2fs (workers=%s)\n", elapsed.Seconds(), workersLabel(*workers))
	if *out != "" {
		if err := writeReport(report, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "aggregates written to %s\n", *out)
	}
	if *statsOut != "" {
		if err := writeStats(stats, *statsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "per-cell runtime stats written to %s\n", *statsOut)
	}
}

// writeStats persists the per-cell runtime rows — the one output that is
// allowed to carry wall-clock, kept in its own file so it can never leak
// into a golden-compared report.
func writeStats(stats *obs.RuntimeStats, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := stats.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(report *sweep.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteNamed(f, path); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workersLabel(n int) string {
	if n <= 0 {
		return "all CPUs"
	}
	return fmt.Sprintf("%d", n)
}
