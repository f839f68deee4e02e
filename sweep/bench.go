package sweep

// The scale-tier benchmark harness. Tables I–IV pin the paper's
// numbers; this file pins the repository's own performance trajectory:
// it runs the large-m grid (zipf loads on a clustered metro network —
// the workload the sparse solver paths exist for), records
// cost/iterations/nonzeros/time-per-iteration/allocations per cell, and
// persists everything as one JSON document (BENCH_scale.json at the
// repository root) so regressions show up as diffs rather than
// anecdotes.
//
// Costs, iteration counts and nonzero counts are deterministic for a
// fixed seed — two reports from the same configuration agree on them
// byte for byte. Timings and allocation counts are environment facts,
// recorded for the trajectory but excluded from any determinism
// comparison (bench_test.go pins exactly this split).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"delaylb"
	"delaylb/descent"
	"delaylb/internal/convtest"
	"delaylb/internal/core"
	"delaylb/internal/model"
	"delaylb/internal/qp"
)

// BenchConfig parameterizes the scale grid. The zero value is not
// useful; start from DefaultBenchConfig.
type BenchConfig struct {
	// Sizes is the list of network sizes m to sweep.
	Sizes []int
	// MineMax bounds the sizes for the proxy-sparse MinE cells; their
	// per-iteration cost is O(m²).
	MineMax int
	// ChurnDenseMax bounds the sizes at which the dense-representation
	// session-churn cells run (each dense churn event copies the m×m
	// matrix — the cost the block cells exist to avoid measuring twice
	// at m=5000).
	ChurnDenseMax int
	// ChurnEvents is the number of churn events per session-churn cell
	// (default 30: joins, leaves and load updates in equal parts).
	ChurnEvents int
	// Clusters, AvgLoad and Side shape the scenario: a zipf load of the
	// given average on a clustered metro network of that backbone scale.
	Clusters int
	AvgLoad  float64
	Side     float64
	// FWIters and FWTol bound the Frank–Wolfe runs; MineIters the MinE
	// runs.
	FWIters   int
	FWTol     float64
	MineIters int
	// DescentSizes is the grid for the distributed control-plane cells;
	// they run after every centralized cell so the persisted report's
	// existing rows keep their positions. DescentRounds bounds the
	// gradient rounds per cell and DescentParticipation the per-row step
	// probability (simultaneous play herds at scale — see descent).
	DescentSizes         []int
	DescentRounds        int
	DescentParticipation float64
	// FWVariantSizes is the grid for the away-step and pairwise
	// Frank–Wolfe cells. Like the descent tier they run after every
	// pre-existing cell — the persisted report grows by appending, never
	// by renumbering. Same FWIters/FWTol budget as the classic cells, so
	// the gap and iters-to-band columns are directly comparable.
	FWVariantSizes []int
	// MineSparseSizes is the grid for the mine-sparse-state cells, the
	// tier that took MinE past MineMax once the sparse row store removed
	// the O(m²) identity-allocation wall. Same solver configuration as
	// proxy-sparse, so at overlapping sizes the costs agree bit for bit.
	MineSparseSizes []int
	// LatencyUpdateSizes is the grid for the structured latency-update
	// cells: ScaleBackbone / RestoreBlockLatency cycles applied natively
	// on a block session via Session.ApplyLatencyUpdate — O(m + k²) per
	// event where the dense UpdateLatency feed pays O(m²) (the other
	// wall this tier exists to measure closed).
	LatencyUpdateSizes []int
	// Seed is the base seed; cell i uses CellSeed(Seed, i).
	Seed int64
}

// DefaultBenchConfig returns the standing scale grid: m ∈ {100, 500,
// 2000}, MinE proxy cells up to 500, everything derived from seed 1.
func DefaultBenchConfig() BenchConfig {
	return BenchConfig{
		Sizes:                []int{100, 500, 2000},
		MineMax:              500,
		ChurnDenseMax:        2000,
		ChurnEvents:          30,
		Clusters:             8,
		AvgLoad:              100,
		Side:                 100,
		FWIters:              600,
		FWTol:                1e-6,
		MineIters:            12,
		DescentSizes:         []int{500, 2000, 5000},
		DescentRounds:        1000,
		DescentParticipation: 0.2,
		FWVariantSizes:       []int{100, 500, 2000, 5000},
		MineSparseSizes:      []int{500, 2000, 5000},
		LatencyUpdateSizes:   []int{500, 2000, 5000},
		Seed:                 1,
	}
}

// BenchEntry is one cell of the scale grid. Cost, Iters, NNZ and Gap
// are deterministic; ElapsedMS, NsPerIter and AllocMB describe the
// machine that produced the report.
type BenchEntry struct {
	M        int    `json:"m"`
	Solver   string `json:"solver"`
	Scenario string `json:"scenario"`

	Cost      float64 `json:"cost"`
	Gap       float64 `json:"gap,omitempty"`
	Iters     int     `json:"iters"`
	NNZ       int     `json:"nnz,omitempty"`
	Converged bool    `json:"converged"`

	ElapsedMS float64 `json:"elapsed_ms"`
	NsPerIter float64 `json:"ns_per_iter"`
	AllocMB   float64 `json:"alloc_mb"`

	// Session-churn cells only: per-event cost of a join/leave/update
	// stream against a live Session. The block representation's
	// ChurnEventAllocKB is O(m + k²); the dense representation's is the
	// O(m²) matrix copy — the drop this column exists to demonstrate.
	ChurnEvents       int     `json:"churn_events,omitempty"`
	ChurnEventNS      float64 `json:"churn_event_ns,omitempty"`
	ChurnEventAllocKB float64 `json:"churn_event_alloc_kb,omitempty"`

	// Descent cells only. RoundsToBand is the first gradient round at or
	// under (1+2%)·oracle (-1: never); BytesPerRound the mean cross-actor
	// message volume per round (deterministic — the O(nnz) wire claim);
	// RoundNS the wall-clock per round with the oracle solve excluded
	// (machine fact). For these cells Gap is the signed relative gap to
	// the oracle (descent can finish below a budgeted Frank–Wolfe cost)
	// and Iters counts gradient rounds.
	RoundsToBand  int     `json:"rounds_to_band,omitempty"`
	BytesPerRound float64 `json:"bytes_per_round,omitempty"`
	RoundNS       float64 `json:"descent_round_ns,omitempty"`

	// Frank–Wolfe variant cells only: the first sweep whose cost is
	// within 2% of the run's own certified lower bound (Cost − Gap);
	// -1 if the budget never reached the band. Deterministic.
	ItersToBand int `json:"iters_to_band,omitempty"`
}

// BenchReport is the persisted form of one harness run.
type BenchReport struct {
	Seed       int64        `json:"seed"`
	GoMaxProcs int          `json:"gomaxprocs"`
	FWIters    int          `json:"fw_iters"`
	FWTol      float64      `json:"fw_tol"`
	MineIters  int          `json:"mine_iters"`
	Entries    []BenchEntry `json:"entries"`
}

// WriteJSON writes the report as one indented JSON document.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// benchCell describes one measurement before it runs.
type benchCell struct {
	m      int
	solver string
}

// cells enumerates the grid in a stable order: per size, the sparse
// Frank–Wolfe path always and the MinE proxy cell only below MineMax.
// The persisted report still holds the frankwolfe-dense and proxy-dense
// cells earlier grids ran; their dense engines are gone, so the grid no
// longer lists them and AppendBench leaves those entries as they are.
func (cfg BenchConfig) cells() []benchCell {
	var out []benchCell
	for _, m := range cfg.Sizes {
		out = append(out, benchCell{m, "frankwolfe-sparse"})
		if m <= cfg.MineMax {
			out = append(out, benchCell{m, "proxy-sparse"})
		}
		out = append(out, benchCell{m, "session-churn-block"})
		if m <= cfg.ChurnDenseMax {
			out = append(out, benchCell{m, "session-churn-dense"})
		}
	}
	// The distributed tier runs last: the centralized rows above keep
	// the positions the persisted report already has.
	for _, m := range cfg.DescentSizes {
		out = append(out, benchCell{m, "descent"})
	}
	// The active-set Frank–Wolfe tier appends after descent for the same
	// reason: reports regenerated with these cells leave every earlier
	// entry untouched (bench_test.go and cmd/tables pin the pure append).
	for _, m := range cfg.FWVariantSizes {
		out = append(out, benchCell{m, "frankwolfe-away"})
		out = append(out, benchCell{m, "frankwolfe-pairwise"})
	}
	// The sparse-state MinE and structured latency-update tiers append
	// last, same discipline: historical entries keep their bytes.
	for _, m := range cfg.MineSparseSizes {
		out = append(out, benchCell{m, "mine-sparse-state"})
	}
	for _, m := range cfg.LatencyUpdateSizes {
		out = append(out, benchCell{m, "latency-structured-update"})
	}
	return out
}

// scenario builds the scale scenario for one size. The seed is derived
// per size (not per cell) so every cell of the same m solves the
// identical instance.
func (cfg BenchConfig) scenario(m int) delaylb.Scenario {
	return delaylb.NewScenario(m).
		WithClusters(cfg.Clusters).
		WithLatency(cfg.Side).
		WithLoads(delaylb.LoadZipf, cfg.AvgLoad).
		WithSeed(CellSeed(cfg.Seed, m))
}

// RunBench runs the grid sequentially — timing cells is the point, so
// no worker pool — and returns the report. Cells run in declaration
// order; ctx cancels between cells, returning the entries finished so
// far along with ctx.Err(). progress, if non-nil, is called after each
// cell.
func RunBench(ctx context.Context, cfg BenchConfig, progress func(done, total int)) (*BenchReport, error) {
	cells := cfg.cells()
	report := &BenchReport{
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		FWIters:    cfg.FWIters,
		FWTol:      cfg.FWTol,
		MineIters:  cfg.MineIters,
	}
	for i, cell := range cells {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		entry, err := cfg.runCell(ctx, cell)
		if err != nil {
			return report, fmt.Errorf("sweep: bench cell m=%d solver=%s: %w", cell.m, cell.solver, err)
		}
		report.Entries = append(report.Entries, entry)
		if progress != nil {
			progress(i+1, len(cells))
		}
	}
	return report, nil
}

// AppendBench extends an existing report in place with every cell of
// cfg's grid the report does not already contain, appending the new
// entries in grid order. Entries already present are left byte-for-byte
// untouched — this is how BENCH_scale.json grows when a new solver tier
// lands without re-running (or re-timing) the historical cells. Returns
// the number of entries appended. progress, if non-nil, is called after
// each new cell.
func AppendBench(ctx context.Context, cfg BenchConfig, report *BenchReport, progress func(done, total int)) (int, error) {
	have := make(map[benchCell]bool, len(report.Entries))
	for _, e := range report.Entries {
		have[benchCell{e.M, e.Solver}] = true
	}
	var missing []benchCell
	for _, cell := range cfg.cells() {
		if !have[cell] {
			missing = append(missing, cell)
		}
	}
	for i, cell := range missing {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		entry, err := cfg.runCell(ctx, cell)
		if err != nil {
			return i, fmt.Errorf("sweep: bench cell m=%d solver=%s: %w", cell.m, cell.solver, err)
		}
		report.Entries = append(report.Entries, entry)
		if progress != nil {
			progress(i+1, len(missing))
		}
	}
	return len(missing), nil
}

func (cfg BenchConfig) runCell(ctx context.Context, cell benchCell) (BenchEntry, error) {
	sc := cfg.scenario(cell.m)
	in, err := sc.Instance()
	if err != nil {
		return BenchEntry{}, err
	}
	entry := BenchEntry{M: cell.m, Solver: cell.solver, Scenario: sc.String()}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	switch cell.solver {
	case "frankwolfe-sparse":
		res := qp.SolveFrankWolfeSparse(in, qp.Options{MaxIters: cfg.FWIters, Tol: cfg.FWTol, Ctx: ctx})
		entry.Cost, entry.Gap, entry.Iters, entry.Converged = res.Cost, res.Gap, res.Iters, res.Converged
		entry.NNZ = res.Rho.NNZ()
	case "frankwolfe-away", "frankwolfe-pairwise":
		variant := qp.VariantAway
		if cell.solver == "frankwolfe-pairwise" {
			variant = qp.VariantPairwise
		}
		c := convtest.Run(in, variant, qp.Options{MaxIters: cfg.FWIters, Tol: cfg.FWTol, Ctx: ctx})
		entry.Cost, entry.Gap, entry.Iters, entry.Converged = c.Cost, c.Gap, c.Iters, c.Converged
		entry.NNZ = c.NNZ
		entry.ItersToBand = convtest.ItersToBand(c.Costs, c.Cost-c.Gap, 0.02)
	case "proxy-sparse", "mine-sparse-state":
		// Two names for one solve: proxy-sparse is the tier capped at
		// MineMax, mine-sparse-state the one that runs past it.
		st := core.NewIdentityState(in)
		tr := core.RunState(st, core.Config{
			Strategy: core.StrategyProxy,
			MaxIters: cfg.MineIters,
			Rng:      rand.New(rand.NewSource(CellSeed(cfg.Seed, cell.m))),
			Ctx:      ctx,
		})
		entry.Cost, entry.Iters, entry.Converged = st.Cost(), tr.Iters, tr.Converged
		entry.NNZ = st.NNZ()
	case "latency-structured-update":
		if err := cfg.runLatencyUpdateCell(&entry, sc); err != nil {
			return BenchEntry{}, err
		}
	case "session-churn-block", "session-churn-dense":
		if err := cfg.runChurnCell(&entry, sc, cell.solver == "session-churn-dense"); err != nil {
			return BenchEntry{}, err
		}
	case "descent":
		if err := cfg.runDescentCell(ctx, &entry, in, cell.m); err != nil {
			return BenchEntry{}, err
		}
	default:
		return BenchEntry{}, fmt.Errorf("unknown bench solver %q", cell.solver)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	entry.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	if entry.Iters > 0 {
		entry.NsPerIter = float64(elapsed.Nanoseconds()) / float64(entry.Iters)
	}
	entry.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return entry, ctx.Err()
}

// runChurnCell replays a deterministic churn stream — metro joins,
// leaves and load updates in equal parts — against a live Session and
// records the per-event wall-clock and allocation cost. No solving: the
// cell isolates the session's state-maintenance cost. A join and a
// leave only record their edits, and the load update that follows
// settles both into the instance and the allocation, so the per-event
// figure is a third of that settle (O(m + k²) on the block cell, O(m²)
// on the dense one) plus the rescale. The dense cell differs from the
// block cell only in the latency representation; both sessions hold a
// sparse allocation. (BENCH_scale.json's session-churn-dense timings
// predate that: they were taken with a dense m×m allocation.) Cost is
// the final session ΣC_i, which is identical between the block and
// dense cells (pinned at test scale by TestSessionChurnDeterministic).
func (cfg BenchConfig) runChurnCell(entry *BenchEntry, sc delaylb.Scenario, dense bool) error {
	events := cfg.ChurnEvents
	if events <= 0 {
		events = 30
	}
	if dense {
		sc = sc.WithDenseLatency()
	}
	sys, err := sc.Build()
	if err != nil {
		return err
	}
	sess := sys.NewSession()
	// The dense representation needs explicit join rows; derive them
	// from the block twin of the same seed (identical network).
	var delay [][]float64
	labels := sess.Clusters()
	if d, l, ok := sess.BlockLatency(); ok {
		delay, labels = d, l
	} else {
		blockSc := sc
		blockSc.DenseLatency = false
		bsys, err := blockSc.Build()
		if err != nil {
			return err
		}
		delay, labels, _ = bsys.NewSession().BlockLatency()
	}
	k := len(delay)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	loads := sess.Loads()
	for ev := 0; ev < events; ev++ {
		switch ev % 3 {
		case 0: // metro join
			spec := delaylb.ServerSpec{Speed: 2, Load: float64(10 + ev), Cluster: ev % k}
			if dense {
				spec.LatencyTo = make([]float64, len(labels))
				spec.LatencyFrom = make([]float64, len(labels))
				for j, h := range labels {
					spec.LatencyTo[j] = delay[spec.Cluster][h]
					spec.LatencyFrom[j] = delay[h][spec.Cluster]
				}
			}
			if err := sess.AddServer(spec); err != nil {
				return err
			}
			labels = append(labels, spec.Cluster)
		case 1: // the newcomer leaves again
			if err := sess.RemoveServer(sess.M() - 1); err != nil {
				return err
			}
			labels = labels[:len(labels)-1]
		default: // load update
			loads[ev%len(loads)] *= 1.25
			if err := sess.UpdateLoads(loads); err != nil {
				return err
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	entry.Cost = sess.Cost()
	entry.Iters = events
	entry.Converged = true
	entry.ChurnEvents = events
	entry.ChurnEventNS = float64(elapsed.Nanoseconds()) / float64(events)
	entry.ChurnEventAllocKB = float64(after.TotalAlloc-before.TotalAlloc) / float64(events) / 1024
	return nil
}

// runLatencyUpdateCell measures the structured network-change path: a
// deterministic stream of whole-backbone degradations and bit-exact
// restores applied natively on a block session via
// Session.ApplyLatencyUpdate. Per-event cost is O(m + k²) — the dense
// UpdateLatency feed for the same change is an O(m²) matrix copy, which
// is why the churn benchmark's latency-shift cell was capped at small m
// before this tier existed. No solving; the allocation (and hence Cost)
// is untouched by construction.
func (cfg BenchConfig) runLatencyUpdateCell(entry *BenchEntry, sc delaylb.Scenario) error {
	events := cfg.ChurnEvents
	if events <= 0 {
		events = 30
	}
	sys, err := sc.Build()
	if err != nil {
		return err
	}
	sess := sys.NewSession()
	delay, _, ok := sess.BlockLatency()
	if !ok {
		return fmt.Errorf("latency-structured-update cell needs a block-latency scenario, got %s", sc)
	}
	const degrade = 1.25
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for ev := 0; ev < events; ev++ {
		var u delaylb.LatencyUpdate
		if ev%2 == 0 {
			u = delaylb.ScaleBackbone(degrade)
		} else {
			u = delaylb.RestoreBlockLatency(delay)
		}
		if err := sess.ApplyLatencyUpdate(u); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	entry.Cost = sess.Cost()
	entry.Iters = events
	entry.Converged = true
	entry.ChurnEvents = events
	entry.ChurnEventNS = float64(elapsed.Nanoseconds()) / float64(events)
	entry.ChurnEventAllocKB = float64(after.TotalAlloc-before.TotalAlloc) / float64(events) / 1024
	return nil
}

// runDescentCell measures the distributed control plane on the same
// instance the centralized cells of this size solve: a sparse
// Frank–Wolfe oracle sets the target, then the plane runs gradient
// rounds until quiet or the budget. RoundNS times the rounds only —
// the oracle is the observer's reference, not part of the tier.
func (cfg BenchConfig) runDescentCell(ctx context.Context, entry *BenchEntry, in *model.Instance, m int) error {
	oracle := qp.SolveFrankWolfeSparse(in, qp.Options{MaxIters: cfg.FWIters, Tol: cfg.FWTol, Ctx: ctx})
	rounds := cfg.DescentRounds
	if rounds <= 0 {
		rounds = 1000
	}
	part := cfg.DescentParticipation
	if part <= 0 {
		part = 0.2
	}
	p, err := descent.NewPlane(in, descent.Config{
		Seed:          CellSeed(cfg.Seed, m),
		Target:        oracle.Cost,
		Participation: part,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := p.Run(rounds)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	entry.Cost = rep.Cost
	entry.Gap = rep.RelGap
	entry.Iters = rep.Rounds
	entry.NNZ = rep.NNZ
	entry.Converged = rep.RoundsToBand >= 0
	entry.RoundsToBand = rep.RoundsToBand
	entry.BytesPerRound = float64(rep.Bytes) / float64(rep.Rounds)
	entry.RoundNS = float64(elapsed.Nanoseconds()) / float64(rep.Rounds)
	return nil
}

// FprintBenchReport renders the report as the human-readable table the
// command prints alongside the JSON artifact.
func FprintBenchReport(w io.Writer, r *BenchReport) {
	fmt.Fprintf(w, "== Scale tier: zipf loads on a clustered metro network (seed %d) ==\n", r.Seed)
	fmt.Fprintf(w, "%6s %-19s %12s %10s %6s %9s %12s %10s %12s %14s %7s %11s\n",
		"m", "solver", "cost", "gap", "iters", "nnz", "ns/iter", "alloc MB", "ns/event", "KB/event", "r2band", "B/round")
	for _, e := range r.Entries {
		nnz := "-"
		if e.NNZ > 0 {
			nnz = fmt.Sprintf("%d", e.NNZ)
		}
		gap := "-"
		if e.Gap != 0 {
			gap = fmt.Sprintf("%.3g", e.Gap)
		}
		evNS, evKB := "-", "-"
		if e.ChurnEvents > 0 {
			evNS = fmt.Sprintf("%.0f", e.ChurnEventNS)
			evKB = fmt.Sprintf("%.1f", e.ChurnEventAllocKB)
		}
		band, bpr := "-", "-"
		if e.Solver == "descent" {
			band = fmt.Sprintf("%d", e.RoundsToBand)
			bpr = fmt.Sprintf("%.4g", e.BytesPerRound)
		} else if e.ItersToBand != 0 {
			band = fmt.Sprintf("%d", e.ItersToBand)
		}
		fmt.Fprintf(w, "%6d %-19s %12.6g %10s %6d %9s %12.0f %10.1f %12s %14s %7s %11s\n",
			e.M, e.Solver, e.Cost, gap, e.Iters, nnz, e.NsPerIter, e.AllocMB, evNS, evKB, band, bpr)
	}
}
