package sweep

// The distributed-plane evaluation table: the descent control plane
// racing the repository's centralized oracles on small clustered
// instances. Each cell solves one instance three ways — sparse
// Frank–Wolfe and the MinE proxy strategy centrally, then the
// cooperative plane with the better of the two as its target — and
// once more with selfish actors for a measured price of anarchy.
// The golden test pins the aggregate rows for a fixed seed; like every
// table in this package the rows are independent of the worker count.

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"delaylb"
	"delaylb/descent"
	"delaylb/internal/core"
	"delaylb/internal/qp"
	"delaylb/internal/stats"
	"delaylb/obs"
)

// DescentTableConfig drives the descent-vs-oracles table.
type DescentTableConfig struct {
	// Sizes are the network sizes; the table exists for small m, where
	// the centralized oracles are exact enough to referee.
	Sizes []int
	// Dists are the load distributions per size.
	Dists []delaylb.LoadKind
	// AvgLoad is the mean load of each distribution.
	AvgLoad float64
	// Clusters is the metro count of the clustered scenarios (also the
	// plane's default shard count).
	Clusters int
	// Rounds bounds the gradient rounds of each plane run. Cells that
	// never enter the 2% band report the full budget as their
	// rounds-to-band (a censored sample, not a sentinel).
	Rounds int
	// Participation is the per-row step probability (0: the plane's
	// default of full participation — fine at table scale).
	Participation float64
	// FWIters/FWTol bound the Frank–Wolfe oracle, MineIters the MinE
	// proxy oracle.
	FWIters   int
	FWTol     float64
	MineIters int
	// Repeats is the number of seeds per (size, dist) cell.
	Repeats int
	// Seed is the base seed; cell i derives its stream from
	// CellSeed(Seed, i).
	Seed int64
	// Workers bounds the worker pool (<= 0: all CPUs); results are
	// identical for every worker count.
	Workers int
	// Progress, if non-nil, receives (completed cells, total cells).
	Progress func(done, total int)
	// Stats, if non-nil, collects one wall-clock/alloc row per completed
	// cell (see Runner.Stats). Side channel only: never part of the
	// table's rows or any golden-compared output.
	Stats *obs.RuntimeStats
}

// DefaultDescentTableConfig returns the standing small-m grid.
func DefaultDescentTableConfig() DescentTableConfig {
	return DescentTableConfig{
		Sizes:    []int{30, 60, 120},
		Dists:    []delaylb.LoadKind{delaylb.LoadUniform, delaylb.LoadZipf},
		AvgLoad:  100,
		Clusters: 4,
		Rounds:   400,
		// Even at table scale, full participation lets concurrent rows
		// herd onto a metro's best-priced servers (one m=48 cell ends 13%
		// above the oracle); half participation converges faster and
		// inside the band on every cell.
		Participation: 0.5,
		FWIters:       600,
		FWTol:         1e-6,
		MineIters:     12,
		Repeats:       3,
		Seed:          1,
	}
}

// DescentRow is one aggregated row of the descent table.
type DescentRow struct {
	M    int              `json:"m"`
	Dist delaylb.LoadKind `json:"dist"`
	// Gap summarizes the cooperative plane's signed final relative gap
	// against the better centralized oracle (negative: the plane ended
	// below a budgeted oracle's cost).
	Gap stats.Summary `json:"gap"`
	// Rounds summarizes gradient rounds to the 2% band.
	Rounds stats.Summary `json:"rounds"`
	// PoA summarizes the selfish plane's fixed-point cost over the
	// oracle cost — the measured price of anarchy under gradient play.
	PoA stats.Summary `json:"poa"`
}

// descentCell is one point of the grid.
type descentCell struct {
	m    int
	dist delaylb.LoadKind
	rep  int
}

func (cfg DescentTableConfig) cells() []descentCell {
	var out []descentCell
	for _, m := range cfg.Sizes {
		for _, dist := range cfg.Dists {
			for rep := 0; rep < cfg.Repeats; rep++ {
				out = append(out, descentCell{m, dist, rep})
			}
		}
	}
	return out
}

// DescentTable runs the grid and aggregates per (size, dist).
func DescentTable(cfg DescentTableConfig) []DescentRow {
	rows, _ := DescentTableContext(context.Background(), cfg)
	return rows
}

// DescentTableContext is DescentTable with cancellation: on ctx
// cancellation it aggregates the completed cells and returns ctx.Err().
func DescentTableContext(ctx context.Context, cfg DescentTableConfig) ([]DescentRow, error) {
	type key struct {
		m    int
		dist delaylb.LoadKind
	}
	type sample struct {
		key    key
		gap    float64
		rounds float64
		poa    float64
	}
	cells := cfg.cells()
	run := Runner{Workers: cfg.Workers, Seed: cfg.Seed, Progress: cfg.Progress, Stats: cfg.Stats, StatsLabel: "descent"}
	results, done, err := RunCells(ctx, run, cells,
		func(ctx context.Context, i int, c descentCell, rng *rand.Rand) (sample, error) {
			s, cerr := cfg.runCell(ctx, c, rng)
			if cerr != nil {
				return sample{}, cerr
			}
			return sample{key: key{c.m, c.dist}, gap: s[0], rounds: s[1], poa: s[2]}, nil
		})
	samples := map[key][]sample{}
	for i, s := range results {
		if done[i] {
			samples[s.key] = append(samples[s.key], s)
		}
	}
	keys := make([]key, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].m != keys[b].m {
			return keys[a].m < keys[b].m
		}
		return keys[a].dist < keys[b].dist
	})
	rows := make([]DescentRow, 0, len(keys))
	for _, k := range keys {
		var gaps, rounds, poas []float64
		for _, s := range samples[k] {
			gaps = append(gaps, s.gap)
			rounds = append(rounds, s.rounds)
			poas = append(poas, s.poa)
		}
		rows = append(rows, DescentRow{
			M:      k.m,
			Dist:   k.dist,
			Gap:    stats.Summarize(gaps),
			Rounds: stats.Summarize(rounds),
			PoA:    stats.Summarize(poas),
		})
	}
	return rows, err
}

// runCell measures one instance: [gap, rounds-to-band, PoA]. The RNG
// draw order is part of the determinism contract — scenario seed, MinE
// seed, cooperative seed, selfish seed, in that order.
func (cfg DescentTableConfig) runCell(ctx context.Context, c descentCell, rng *rand.Rand) ([3]float64, error) {
	var out [3]float64
	scSeed, mineSeed, coopSeed, selfSeed := rng.Int63(), rng.Int63(), rng.Int63(), rng.Int63()
	sc := delaylb.NewScenario(c.m).
		WithClusters(cfg.Clusters).
		WithLoads(c.dist, cfg.AvgLoad).
		WithSeed(scSeed)
	in, err := sc.Instance()
	if err != nil {
		return out, err
	}

	// The referee: the better of the two centralized tiers.
	fw := qp.SolveFrankWolfeSparse(in, qp.Options{MaxIters: cfg.FWIters, Tol: cfg.FWTol, Ctx: ctx})
	st := core.NewIdentityState(in)
	core.RunState(st, core.Config{
		Strategy: core.StrategyProxy,
		MaxIters: cfg.MineIters,
		Rng:      rand.New(rand.NewSource(mineSeed)),
		Ctx:      ctx,
	})
	oracle := math.Min(fw.Cost, st.Cost())
	if err := ctx.Err(); err != nil {
		return out, err
	}

	coop, err := descent.NewPlane(in, descent.Config{
		Seed:          coopSeed,
		Target:        oracle,
		Participation: cfg.Participation,
	})
	if err != nil {
		return out, err
	}
	crep, err := coop.Run(cfg.Rounds)
	if err != nil {
		return out, err
	}
	out[0] = crep.RelGap
	out[1] = float64(crep.RoundsToBand)
	if crep.RoundsToBand < 0 {
		out[1] = float64(cfg.Rounds) // censored at the budget
	}

	selfish, err := descent.NewPlane(in, descent.Config{
		Mode:          descent.Selfish,
		Seed:          selfSeed,
		Participation: cfg.Participation,
	})
	if err != nil {
		return out, err
	}
	srep, err := selfish.Run(cfg.Rounds)
	if err != nil {
		return out, err
	}
	out[2] = srep.Cost / oracle
	return out, ctx.Err()
}
