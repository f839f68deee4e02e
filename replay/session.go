package replay

import (
	"context"
	"fmt"

	"delaylb"
	"delaylb/obs"
)

// Config tunes a replay run.
type Config struct {
	// Options are the session defaults for every warm re-solve and for
	// the per-epoch cold baseline: solver selection, iteration caps,
	// tolerances, seed. Do not pass WithProgress or WithWarmStart here —
	// the engine owns both (warm starts come from the session, progress
	// callbacks record the cost trajectories). Nil means
	// DefaultOptions(); pass a non-nil empty slice to run the registry
	// default (exact MinE) instead.
	Options []delaylb.Option
	// Band is the relative optimality band used for iterations-to-band
	// (default 0.02, the paper's Table I target).
	Band float64
	// SkipCold disables the per-epoch cold-solve baseline. Roughly
	// halves the work; ColdCost/ColdIters columns stay zero and
	// OptCost degrades to the warm solve's final cost.
	SkipCold bool
	// Verify re-checks allocation feasibility (every row summing to its
	// organization's load, entries non-negative) after each epoch and
	// fails the run on violation. It walks the allocation's stored
	// entries, O(nnz) per epoch — cheap next to a solve; tests and the
	// acceptance harness keep it on.
	Verify bool
	// Progress, if non-nil, is called after each completed epoch with
	// the number of completed timeline rows and the total.
	Progress func(done, total int)
	// Obs, if non-nil, receives side-channel telemetry: per-epoch spans,
	// warm/cold iteration counters, churn mass and event-application
	// latency. It is also threaded into the underlying qp solver. Never
	// read back — instrumented replays produce byte-identical timelines.
	Obs *obs.Scope
}

// DefaultOptions is the engine's default solver configuration, used when
// Config.Options is nil: away-step Frank–Wolfe. Away steps make
// the warm re-solves linearly convergent AND keep the warm iterate's
// support bounded across epochs — classic FW warm starts accumulate
// stale vertices every epoch (hundreds of thousands of nnz at m=5000)
// because nothing ever removes them, while drop steps shed exactly that
// support. The previous default (MinE) remains available by passing the
// options explicitly.
func DefaultOptions() []delaylb.Option {
	return []delaylb.Option{
		delaylb.WithSolver("frankwolfe"),
		delaylb.WithFWVariant(delaylb.FWAway),
		delaylb.WithTolerance(1e-6),
		delaylb.WithMaxIterations(600),
	}
}

// Run replays the trace and returns the metrics timeline. The run is
// deterministic for a fixed (trace, Config.Options) pair — byte-identical
// timelines per seed, with wall-clock kept out of the JSON form. On
// context cancellation the timeline built so far is returned alongside
// ctx.Err().
func Run(ctx context.Context, tr *Trace, cfg Config) (*Timeline, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	sys, err := tr.Scenario.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Options == nil {
		cfg.Options = DefaultOptions()
	}
	if cfg.Obs.Enabled() {
		// Thread the scope into every session solve (and the per-epoch
		// cold baselines, which reuse cfg.Options).
		cfg.Options = append(append([]delaylb.Option(nil), cfg.Options...), delaylb.WithObs(cfg.Obs))
	}
	en := newSessionBackend(sys.NewSession(cfg.Options...), cfg)
	err = en.run(ctx, tr)
	return &Timeline{Scenario: tr.Scenario, Band: bandOr(cfg.Band), ColdBaseline: !cfg.SkipCold,
		Epochs: en.rows, Runtime: &en.runtime}, err
}

// sessionBackend runs the replay loop on a delaylb.Session: latency
// events through a snapshot stack, cluster joins from the metro block
// table, and each epoch measured as a warm re-solve against a cold
// baseline.
type sessionBackend struct {
	*loop[EpochMetrics]
	cfg  Config
	sess *delaylb.Session
	// block is the cluster block-delay table for JoinCluster events,
	// derived from the live matrix and re-derived lazily after anything
	// that can perturb the structure (latency shifts, uniform joins);
	// emptied metros keep their last known delays so they can rejoin.
	// nil on unclustered scenarios.
	block      [][]float64
	blockStale bool
	// labeled and blockBacked track whether the session's instance
	// carries cluster labels and whether it is block-backed, so a join
	// need not read them back: a read settles the session's pending
	// churn, and a rejoin burst would then settle once per join.
	labeled, blockBacked bool
	// pendingLat batches latency shifts so one epoch costs one
	// UpdateLatency, not one per event.
	pendingLat [][]float64
	// latSnaps is the stack of pre-shift latency values: every
	// LatencyShift pushes one, LatencyRestore pops the most recent with
	// matching endpoints and writes the exact bytes back.
	latSnaps []latSnap
}

func newSessionBackend(sess *delaylb.Session, cfg Config) *sessionBackend {
	en := &sessionBackend{cfg: cfg, sess: sess}
	en.loop = newLoop[EpochMetrics](en, sess.M(), "epoch", cfg.Verify, cfg.Progress, newReplayObs(cfg.Obs, "session"))
	if delay, _, ok := sess.BlockLatency(); ok {
		// Block-backed session: the metro table is the representation —
		// no O(m²) matrix materialization, no derivation pass.
		en.block = delay
		en.labeled, en.blockBacked = true, true
	} else if labels := sess.Clusters(); labels != nil {
		en.block = deriveBlock(labels, sess.Latency(), nil)
		en.labeled = true
	}
	return en
}

// latSnap records the entries a LatencyShift scaled, in the shift's own
// iteration order, so a LatencyRestore can undo it bit-exactly —
// multiplying by the inverse factor cannot (IEEE round-off).
//
// A wildcard shift on a block-backed session takes the structured form
// instead: the pre-shift k×k delay table plus the metro labels, O(m+k²)
// against the dense snapshot's O(m²). A block-structured matrix is fully
// determined by (table, labels), so the structured restore writes back
// the exact same values the dense snapshot would have recorded.
type latSnap struct {
	id, to    int64 // the shift's trace-level endpoints (Wildcard allowed)
	from, dst int   // resolved instance indices at shift time (-1: all)
	m         int   // fleet size at shift time
	vals      []float64
	// table/labels, when non-nil, mark a structured snapshot: the
	// pre-shift block-delay table and per-server metro labels.
	table  [][]float64
	labels []int
}

func (en *sessionBackend) loads() []float64                  { return en.sess.Loads() }
func (en *sessionBackend) updateLoads(loads []float64) error { return en.sess.UpdateLoads(loads) }
func (en *sessionBackend) leave(i int) error                 { return en.sess.RemoveServer(i) }
func (en *sessionBackend) toleratesDeadIDs() bool            { return false }

func (en *sessionBackend) allocation() (int, func(func(i, j int, v float64))) {
	res := en.sess.Result()
	return res.M(), res.Each
}

func (en *sessionBackend) flushLatency() error {
	if en.pendingLat == nil {
		return nil
	}
	lat := en.pendingLat
	en.pendingLat = nil
	if err := en.sess.UpdateLatency(lat); err != nil {
		return err
	}
	en.blockBacked = false
	return nil
}

func (en *sessionBackend) shiftLatency(ev Event, from, to int) error {
	// Structured fast path: a wildcard shift scales every off-diagonal
	// delay — exactly ScaleBackbone on a block-backed session. Applied
	// natively at O(m + k²) with a k×k snapshot, so a MetroOutage replay
	// never materializes the dense matrix. A targeted shift, or a shift
	// after a dense edit is already pending this epoch, falls through to
	// the dense batch (the oracle and the escape hatch — a targeted
	// per-server shift need not be block-structured).
	if ev.ID == Wildcard && ev.To == Wildcard && en.pendingLat == nil && en.blockBacked {
		delay, labels, _ := en.sess.BlockLatency()
		if err := en.sess.ApplyLatencyUpdate(delaylb.ScaleBackbone(ev.Value)); err != nil {
			return err
		}
		en.latSnaps = append(en.latSnaps, latSnap{
			id: ev.ID, to: ev.To, from: -1, dst: -1,
			m: len(labels), table: delay, labels: labels,
		})
		en.blockStale = true
		return nil
	}
	if en.pendingLat == nil {
		en.pendingLat = en.sess.Latency()
	}
	lat := en.pendingLat
	snap := latSnap{id: ev.ID, to: ev.To, from: from, dst: to, m: len(lat)}
	shiftedLinks(snap, func(i, j int) {
		snap.vals = append(snap.vals, lat[i][j])
		lat[i][j] *= ev.Value
	})
	en.latSnaps = append(en.latSnaps, snap)
	en.blockStale = true
	return nil
}

// shiftedLinks calls f for every off-diagonal link a dense snapshot
// covers, in the fixed order its vals are recorded in.
func shiftedLinks(snap latSnap, f func(i, j int)) {
	for i := 0; i < snap.m; i++ {
		if snap.from >= 0 && i != snap.from {
			continue
		}
		for j := 0; j < snap.m; j++ {
			if i != j && (snap.dst < 0 || j == snap.dst) {
				f(i, j)
			}
		}
	}
}

func (en *sessionBackend) restoreLatency(ev Event) error {
	k := -1
	for t := len(en.latSnaps) - 1; t >= 0; t-- {
		if en.latSnaps[t].id == ev.ID && en.latSnaps[t].to == ev.To {
			k = t
			break
		}
	}
	if k < 0 {
		return fmt.Errorf("latrestore %s→%s has no un-restored latshift to undo", idStr(ev.ID), idStr(ev.To))
	}
	snap := en.latSnaps[k]
	en.latSnaps = append(en.latSnaps[:k], en.latSnaps[k+1:]...)
	// Server churn between shift and restore renumbers the matrix; the
	// snapshot's coordinates would land on the wrong links.
	if m := en.sess.M(); m != snap.m {
		return fmt.Errorf("latrestore %s→%s: fleet has %d servers, had %d when the shift landed",
			idStr(ev.ID), idStr(ev.To), m, snap.m)
	}
	if snap.table != nil {
		return en.restoreStructured(snap)
	}
	if en.pendingLat == nil {
		en.pendingLat = en.sess.Latency()
	}
	lat, t := en.pendingLat, 0
	shiftedLinks(snap, func(i, j int) {
		lat[i][j] = snap.vals[t]
		t++
	})
	en.blockStale = true
	return nil
}

// restoreStructured undoes a structured (block) snapshot. On a session
// that is still block-backed with no dense edit pending, the saved k×k
// table is swapped back in natively — O(m + k²), no dense matrix.
// Otherwise the table-derived entries are written into the pending
// dense matrix: the pre-shift matrix was block-structured, so these are
// the exact values a dense snapshot would have recorded, and the two
// restore paths stay bit-identical.
func (en *sessionBackend) restoreStructured(snap latSnap) error {
	if en.pendingLat == nil {
		if en.blockBacked {
			if err := en.sess.ApplyLatencyUpdate(delaylb.RestoreBlockLatency(snap.table)); err != nil {
				return err
			}
			en.blockStale = true
			return nil
		}
		en.pendingLat = en.sess.Latency()
	}
	lat := en.pendingLat
	for i := 0; i < snap.m; i++ {
		gi := snap.labels[i]
		for j := 0; j < snap.m; j++ {
			if i != j {
				lat[i][j] = snap.table[gi][snap.labels[j]]
			}
		}
	}
	en.blockStale = true
	return nil
}

func (en *sessionBackend) join(ev Event) error {
	m := en.sess.M()
	spec := delaylb.ServerSpec{Speed: ev.Speed, Load: ev.Load}
	switch ev.Join {
	case JoinUniform:
		spec.LatencyTo = uniformRow(m, ev.Latency)
		spec.LatencyFrom = uniformRow(m, ev.Latency)
		// On a clustered instance a uniform join almost never matches the
		// block structure; the hint then fails verification and solvers
		// degrade to the generic (correct, slower) path. Label 0 is as
		// good as any for a server outside the metro scheme — and the
		// cached block table can no longer be trusted for later cluster
		// joins, so mark it stale and let re-derivation decide.
		spec.Cluster = 0
		if en.labeled {
			en.blockStale = true
		}
	case JoinCluster:
		if !en.labeled {
			return fmt.Errorf("join cluster=%d on a scenario without cluster labels", ev.Cluster)
		}
		if en.blockBacked {
			// Block fast path: nil rows tell the session to derive the
			// newcomer's delays from its metro label — recorded in O(1),
			// no row materialization, no table re-derivation.
			spec.Cluster = ev.Cluster
			break
		}
		labels := en.sess.Clusters()
		if en.blockStale {
			nb := deriveBlock(labels, en.sess.Latency(), en.block)
			if nb == nil {
				return fmt.Errorf("join cluster=%d: earlier events (latency shifts or uniform joins) broke the block structure", ev.Cluster)
			}
			en.block, en.blockStale = nb, false
		}
		if en.block == nil || ev.Cluster >= len(en.block) {
			return fmt.Errorf("join cluster=%d: unknown cluster (table has %d)", ev.Cluster, len(en.block))
		}
		g := ev.Cluster
		latTo := make([]float64, m)
		latFrom := make([]float64, m)
		for j, h := range labels {
			latTo[j] = en.block[g][h]
			latFrom[j] = en.block[h][g]
		}
		spec.LatencyTo, spec.LatencyFrom = latTo, latFrom
		spec.Cluster = g
	default:
		return fmt.Errorf("unknown join latency mode %q", ev.Join)
	}
	if err := en.sess.AddServer(spec); err != nil {
		return err
	}
	if ev.Join == JoinUniform && en.blockBacked {
		// Uniform rows that happen to match the metro table keep the
		// session block-backed.
		_, _, en.blockBacked = en.sess.BlockLatency()
	}
	return nil
}

// uniformRow is a JoinUniform newcomer's latency row: delay c to or from
// each of the m existing servers.
func uniformRow(m int, c float64) []float64 {
	row := make([]float64, m)
	for j := range row {
		row[j] = c
	}
	return row
}

// measure runs the epoch's warm re-solve and, unless skipped, the cold
// baseline.
func (en *sessionBackend) measure(ctx context.Context, ep epochInfo) (EpochMetrics, error) {
	pre := en.sess.Result()
	preCost := en.sess.Cost()

	warmTrace := []float64{preCost}
	warm, err := en.sess.Reoptimize(ctx, delaylb.WithProgress(func(_ int, c float64) bool {
		warmTrace = append(warmTrace, c)
		return true
	}))
	if err != nil {
		return EpochMetrics{}, err
	}
	if warmTrace[len(warmTrace)-1] != warm.Cost {
		warmTrace = append(warmTrace, warm.Cost)
	}

	row := EpochMetrics{
		Epoch:         ep.epoch,
		Time:          ep.time,
		Events:        ep.events,
		Servers:       en.sess.M(),
		WarmStartCost: preCost,
		Cost:          warm.Cost,
		WarmIters:     warm.Iterations,
		NNZ:           warm.NNZ,
	}
	for _, n := range en.sess.Loads() {
		row.TotalLoad += n
	}

	opt := warm.Cost
	var coldTrace []float64
	if ep.epoch == 0 {
		// The initial solve starts from the identity allocation: it IS
		// the cold solve. Copy rather than recompute.
		row.ColdCost, row.ColdIters = warm.Cost, warm.Iterations
		coldTrace = warmTrace
	} else if !en.cfg.SkipCold {
		sys := en.sess.System()
		coldTrace = []float64{sys.Identity().Cost}
		opts := append(append([]delaylb.Option(nil), en.cfg.Options...),
			delaylb.WithProgress(func(_ int, c float64) bool {
				coldTrace = append(coldTrace, c)
				return true
			}))
		cold, err := sys.OptimizeContext(ctx, opts...)
		if err != nil {
			return EpochMetrics{}, err
		}
		if coldTrace[len(coldTrace)-1] != cold.Cost {
			coldTrace = append(coldTrace, cold.Cost)
		}
		row.ColdCost, row.ColdIters = cold.Cost, cold.Iterations
		if cold.Cost < opt {
			opt = cold.Cost
		}
	}
	row.OptCost = opt
	band := (1 + bandOr(en.cfg.Band)) * opt
	row.WarmItersToBand = itersToBand(warmTrace, band)
	if coldTrace != nil {
		row.ColdItersToBand = itersToBand(coldTrace, band)
	}

	// Reallocation churn: how many requests this epoch's re-solve moved.
	// AllocationDistance merges the two results' sparse rows in O(nnz).
	row.Moved = delaylb.AllocationDistance(pre, warm) / 2
	return row, nil
}

// deriveBlock recovers the k×k cluster block-delay table from the live
// latency matrix. A cluster pair with no live representative (an
// emptied metro) keeps base's entry so the metro can rejoin later with
// its last known delays. Returns nil when the matrix contradicts the
// labels — the structure is broken and cluster joins must not trust it.
func deriveBlock(labels []int, lat [][]float64, base [][]float64) [][]float64 {
	k := len(base)
	for _, g := range labels {
		if g+1 > k {
			k = g + 1
		}
	}
	delay := make([][]float64, k)
	seen := make([][]bool, k)
	for a := range delay {
		delay[a] = make([]float64, k)
		seen[a] = make([]bool, k)
		if a < len(base) {
			copy(delay[a], base[a])
		}
	}
	for i, gi := range labels {
		for j, gj := range labels {
			if i == j {
				continue
			}
			if !seen[gi][gj] {
				delay[gi][gj] = lat[i][j]
				seen[gi][gj] = true
			} else if delay[gi][gj] != lat[i][j] {
				return nil
			}
		}
	}
	return delay
}
