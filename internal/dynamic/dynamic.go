// Package dynamic evaluates the claim the paper makes for its
// distributed algorithm in §I and §IX: because convergence takes only a
// handful of iterations, "it can be used in networks with dynamically
// changing loads". The package simulates an evolving workload — per-epoch
// multiplicative churn plus occasional demand spikes — and measures how
// many MinE iterations are needed to re-reach a 2% optimality band when
// the balancer starts warm (from the previous epoch's allocation,
// rescaled to the new loads) versus cold (from the identity allocation).
//
// A small warm-start count is exactly the property that lets the
// algorithm track load changes online, re-balancing incrementally while
// requests keep flowing.
package dynamic

import (
	"math"
	"math/rand"

	"delaylb/internal/core"
	"delaylb/internal/model"
)

// Config tunes the workload evolution.
type Config struct {
	// Epochs is the number of workload changes to simulate.
	Epochs int
	// Churn is the σ of the per-epoch lognormal factor applied to every
	// organization's load (0.2 ≈ ±20% typical change).
	Churn float64
	// SpikeProb is the per-organization probability of a demand spike
	// in an epoch.
	SpikeProb float64
	// SpikeFactor multiplies a spiking organization's load.
	SpikeFactor float64
	// Tol is the relative optimality band to re-reach (default 0.02,
	// the paper's Table I target).
	Tol float64
	// MaxIters caps the per-epoch re-balancing (default 200).
	MaxIters int
	// Seed drives the workload evolution and the algorithm's
	// tie-breaking.
	Seed int64
	// Strategy is the MinE partner-selection strategy (default exact).
	Strategy core.Strategy
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.Churn <= 0 {
		c.Churn = 0.2
	}
	if c.SpikeFactor <= 0 {
		c.SpikeFactor = 5
	}
	if c.Tol <= 0 {
		c.Tol = 0.02
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 200
	}
	return c
}

// EpochStats reports one epoch of the tracking experiment.
type EpochStats struct {
	Epoch int
	// WarmIters / ColdIters are the iterations needed to re-enter the
	// tolerance band starting from the carried-over allocation vs from
	// scratch.
	WarmIters int
	ColdIters int
	// OptCost is the epoch's (approximate) optimal ΣC_i.
	OptCost float64
	// WarmStartCost is ΣC_i of the carried-over allocation before any
	// re-balancing — how stale one epoch of churn makes the solution.
	WarmStartCost float64
	// ColdStartCost is ΣC_i of the identity allocation.
	ColdStartCost float64
}

// Track runs the experiment on a copy of the instance and returns
// per-epoch statistics.
func Track(in *model.Instance, cfg Config) []EpochStats {
	cfg = cfg.withDefaults()
	cur := in.Clone()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Balance the initial instance; carry its allocation forward.
	initial := core.NewIdentityState(cur)
	core.RunState(initial, core.Config{
		Strategy: cfg.Strategy, MaxIters: cfg.MaxIters * 5,
		Rng: rand.New(rand.NewSource(cfg.Seed)),
	})
	prev := initial.Rows()

	var out []EpochStats
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		next := cur.Clone()
		Evolve(next, cfg.Churn, cfg.SpikeProb, cfg.SpikeFactor, rng)

		ref := core.ReferenceOptimum(next, rand.New(rand.NewSource(cfg.Seed+int64(epoch))))

		warm := core.NewState(next, Rescale(prev, cur.Load, next.Load))
		warmCost := warm.Cost()
		warmTr := core.RunState(warm, core.Config{
			Strategy: cfg.Strategy, MaxIters: cfg.MaxIters,
			Reference: ref, TargetRel: cfg.Tol,
			Rng: rand.New(rand.NewSource(cfg.Seed + 1000 + int64(epoch))),
		})

		coldState := core.NewIdentityState(next)
		coldCost := coldState.Cost()
		coldTr := core.RunState(coldState, core.Config{
			Strategy: cfg.Strategy, MaxIters: cfg.MaxIters,
			Reference: ref, TargetRel: cfg.Tol,
			Rng: rand.New(rand.NewSource(cfg.Seed + 2000 + int64(epoch))),
		})

		out = append(out, EpochStats{
			Epoch:         epoch,
			WarmIters:     warmTr.Iters,
			ColdIters:     coldTr.Iters,
			OptCost:       ref,
			WarmStartCost: warmCost,
			ColdStartCost: coldCost,
		})

		prev = warm.Rows()
		cur = next
	}
	return out
}

// Evolve mutates the instance's loads in place: lognormal churn plus
// occasional spikes, keeping loads integral and non-negative.
func Evolve(in *model.Instance, churn, spikeProb, spikeFactor float64, rng *rand.Rand) {
	for i := range in.Load {
		f := math.Exp(churn * rng.NormFloat64())
		if rng.Float64() < spikeProb {
			f *= spikeFactor
		}
		in.Load[i] = math.Round(in.Load[i] * f)
		if in.Load[i] < 0 {
			in.Load[i] = 0
		}
	}
}

// Summary aggregates the tracking run.
type Summary struct {
	AvgWarmIters float64
	AvgColdIters float64
	// StalenessAvg is the mean relative excess cost of the carried-over
	// allocation before re-balancing: (warmStart − opt)/opt.
	StalenessAvg float64
}

// Summarize reduces per-epoch stats.
func Summarize(stats []EpochStats) Summary {
	var s Summary
	if len(stats) == 0 {
		return s
	}
	for _, e := range stats {
		s.AvgWarmIters += float64(e.WarmIters)
		s.AvgColdIters += float64(e.ColdIters)
		if e.OptCost > 0 {
			s.StalenessAvg += (e.WarmStartCost - e.OptCost) / e.OptCost
		}
	}
	n := float64(len(stats))
	s.AvgWarmIters /= n
	s.AvgColdIters /= n
	s.StalenessAvg /= n
	return s
}
