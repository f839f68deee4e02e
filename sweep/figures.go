package sweep

import (
	"context"
	"math/rand"

	"delaylb"
	"delaylb/internal/core"
	"delaylb/internal/netmodel"
	"delaylb/internal/netsim"
	"delaylb/internal/stats"
	"delaylb/obs"
)

// Figure2Config drives the large-network convergence experiment: peak
// initial load on a heterogeneous network, total processing time per
// iteration of the distributed algorithm.
type Figure2Config struct {
	// Sizes are the network sizes; the paper plots 500…5000.
	Sizes []int
	// PeakTotal is the load of the single loaded server (paper: 100 000).
	PeakTotal float64
	// Iterations is how many iterations to record (paper plots 20).
	Iterations int
	// Seed is the base RNG seed (one cell per size).
	Seed int64
	// Strategy defaults to the O(m log m)-per-step proxy, which is what
	// makes the 5000-server runs tractable.
	Strategy core.Strategy
	// Workers bounds the worker pool (<= 0: all CPUs).
	Workers int
	// Progress, if non-nil, receives (completed cells, total cells).
	Progress func(done, total int)
	// Stats, if non-nil, collects one wall-clock/alloc row per completed
	// cell (see Runner.Stats). Side channel only: never part of the
	// table's rows or any golden-compared output.
	Stats *obs.RuntimeStats
}

// DefaultFigure2Config returns a laptop-scale configuration (full 5000-
// server runs via cmd/tables -full).
func DefaultFigure2Config() Figure2Config {
	return Figure2Config{
		Sizes:      []int{500, 1000},
		PeakTotal:  100000,
		Iterations: 20,
		Seed:       1,
		Strategy:   core.StrategyProxy,
	}
}

// Figure2Series is one curve of Figure 2: ΣC_i after each iteration
// (index 0 = initial state).
type Figure2Series struct {
	M     int
	Costs []float64
}

// Figure2 reproduces the convergence curves: the total processing time
// decreases exponentially over the first dozen iterations even on
// networks of thousands of servers. One cell per size, run concurrently.
func Figure2(cfg Figure2Config) []Figure2Series {
	out, _ := Figure2Context(context.Background(), cfg)
	return out
}

// Figure2Context is Figure2 with cancellation; on ctx cancellation it
// returns the completed curves (in size order) and ctx.Err().
func Figure2Context(ctx context.Context, cfg Figure2Config) ([]Figure2Series, error) {
	run := Runner{Workers: cfg.Workers, Seed: cfg.Seed, Progress: cfg.Progress, Stats: cfg.Stats, StatsLabel: "figure2"}
	results, done, err := RunCells(ctx, run, cfg.Sizes,
		func(ctx context.Context, i int, m int, rng *rand.Rand) (Figure2Series, error) {
			in, berr := buildCell(m, delaylb.NetPlanetLab, delaylb.SpeedUniform, delaylb.LoadPeak, cfg.PeakTotal, rng.Int63())
			if berr != nil {
				return Figure2Series{}, berr
			}
			_, tr := core.Run(in, core.Config{
				Strategy: cfg.Strategy,
				MaxIters: cfg.Iterations,
				Rng:      rand.New(rand.NewSource(rng.Int63())),
				Ctx:      ctx,
			})
			if cerr := ctx.Err(); cerr != nil {
				return Figure2Series{}, cerr
			}
			return Figure2Series{M: m, Costs: tr.Costs}, nil
		})
	out := make([]Figure2Series, 0, len(results))
	for i, s := range results {
		if done[i] {
			out = append(out, s)
		}
	}
	return out, err
}

// Table4Config drives the RTT-vs-background-load experiment of the
// paper's Appendix.
type Table4Config struct {
	// ThroughputsKBps are the per-flow background levels; the paper uses
	// 10, 20, 50, 100, 200, 500, 1000, 2000, 5000 KB/s (Table IV labels
	// them 10 KB/s … 5 MB/s).
	ThroughputsKBps []float64
	// Probes per pair and level (paper: 300).
	Probes int
	// TrimFrac of the largest deviations is dropped (paper: 5%).
	TrimFrac float64
	// Seed is the RNG seed.
	Seed int64
	// ANOVALevels are the light-load levels over which the per-pair
	// ANOVA is run (the paper tests dependence below each threshold).
	ANOVALevels []float64
}

// DefaultTable4Config mirrors the paper's Appendix setup.
func DefaultTable4Config() Table4Config {
	return Table4Config{
		ThroughputsKBps: []float64{10, 20, 50, 100, 200, 500, 1000, 2000, 5000},
		Probes:          300,
		TrimFrac:        0.05,
		Seed:            1,
		ANOVALevels:     []float64{10, 20, 50},
	}
}

// Table4Row is one row of Table IV: the mean and standard deviation of
// the relative RTT deviation at one background-throughput level.
type Table4Row struct {
	ThroughputKBps float64
	Mu             float64
	Sigma          float64
}

// Table4Result bundles the rows with the ANOVA acceptance fraction.
type Table4Result struct {
	Rows []Table4Row
	// ANOVAAcceptFrac is the fraction of pairs for which the one-way
	// ANOVA over the light-load levels does not reject "RTT independent
	// of background throughput" at the 5% level (paper: >90% for
	// tb ≤ 50 KB/s).
	ANOVAAcceptFrac float64
}

// Table4 reproduces the Appendix experiment on the flow-level simulator:
// 60 servers, 5 background flows each, 300 RTT samples per pair, relative
// deviation against the 10 KB/s baseline with 5% trimming. The simulator
// is a single stateful sequential machine (each probe sees the queues the
// previous one left behind), so this experiment runs serially by design.
func Table4(cfg Table4Config) Table4Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	simCfg := netsim.DefaultConfig()
	lat := netmodel.PlanetLab(simCfg.Servers, rng)
	// One-way delays with a 10 ms floor (distinct sites; RTT ≥ 20 ms).
	for i := range lat {
		for j := range lat {
			if i == j {
				continue
			}
			lat[i][j] /= 2
			if lat[i][j] < 10 {
				lat[i][j] = 10
			}
		}
	}
	sim := netsim.New(simCfg, lat, rng)
	pairs := sim.Pairs()

	baselineTb := cfg.ThroughputsKBps[0]
	sim.SetBackgroundThroughput(baselineTb)
	baseline := make([]float64, len(pairs))
	for k, p := range pairs {
		baseline[k] = sim.AverageRTT(p[0], p[1], cfg.Probes)
	}

	res := Table4Result{}
	for _, tb := range cfg.ThroughputsKBps {
		sim.SetBackgroundThroughput(tb)
		devs := make([]float64, len(pairs))
		for k, p := range pairs {
			devs[k] = (sim.AverageRTT(p[0], p[1], cfg.Probes) - baseline[k]) / baseline[k]
		}
		trimmed := stats.TrimLargest(devs, cfg.TrimFrac)
		res.Rows = append(res.Rows, Table4Row{
			ThroughputKBps: tb,
			Mu:             stats.Mean(trimmed),
			Sigma:          stats.StdDev(trimmed),
		})
	}

	// Per-pair ANOVA over the light-load levels.
	accepted := 0
	for _, p := range pairs {
		groups := make([][]float64, len(cfg.ANOVALevels))
		for li, tb := range cfg.ANOVALevels {
			sim.SetBackgroundThroughput(tb)
			groups[li] = sim.MeasureRTT(p[0], p[1], cfg.Probes/5)
		}
		if r, err := stats.OneWayANOVA(groups); err == nil && r.P > 0.05 {
			accepted++
		}
	}
	res.ANOVAAcceptFrac = float64(accepted) / float64(len(pairs))
	return res
}

// CycleAblationResult compares convergence with and without the
// negative-cycle removal of Appendix A (§VI-B: "The number of iterations
// for two versions of the algorithm were exactly the same in all 6000
// experiments").
type CycleAblationResult struct {
	ItersWithout []int
	ItersWith    []int
	Identical    bool
}

// CycleAblation repeats a Table I-style measurement with cycle removal
// disabled and enabled (every 2 iterations) on identical instances.
// The (size × repetition) cells run concurrently on all CPUs.
func CycleAblation(sizes []int, repeats int, seed int64) CycleAblationResult {
	type cell struct{ m, rep int }
	type pair struct{ without, with int }
	var cells []cell
	for _, m := range sizes {
		for rep := 0; rep < repeats; rep++ {
			cells = append(cells, cell{m, rep})
		}
	}
	results, done, err := RunCells(context.Background(), Runner{Seed: seed}, cells,
		func(ctx context.Context, i int, c cell, rng *rand.Rand) (pair, error) {
			in, err := buildCell(c.m, delaylb.NetPlanetLab, delaylb.SpeedUniform, delaylb.LoadExponential, 50, rng.Int63())
			if err != nil {
				return pair{}, err
			}
			algSeed := rng.Int63()
			cfgBase := ConvergenceConfig{Tol: 0.02, MaxIters: 100}
			without, err := itersToTarget(ctx, in, cfgBase, algSeed)
			if err != nil {
				return pair{}, err
			}
			cfgCycles := cfgBase
			cfgCycles.RemoveCyclesEvery = 2
			with, err := itersToTarget(ctx, in, cfgCycles, algSeed)
			if err != nil {
				return pair{}, err
			}
			return pair{without, with}, nil
		})
	if err != nil {
		panic(err) // the fixed §VI-A families always validate
	}
	res := CycleAblationResult{Identical: true}
	for i, p := range results {
		if !done[i] {
			continue
		}
		res.ItersWithout = append(res.ItersWithout, p.without)
		res.ItersWith = append(res.ItersWith, p.with)
		if p.without != p.with {
			res.Identical = false
		}
	}
	return res
}
