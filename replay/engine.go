// Package replay is the trace-driven online balancing engine: it feeds a
// timestamped trace of workload events — load deltas, demand spikes,
// latency shifts, server joins and leaves — through one event loop into
// a delaylb.Session (Run: warm re-solves against a cold baseline) or a
// distributed descent.Plane (RunDescent: gradient rounds against an
// oracle), and records a metrics timeline.
//
// This is the paper's closing claim (§I, §IX) — fast convergence makes
// the algorithm usable "in networks with dynamically changing loads" —
// run as an actual online system rather than a statistical probe: the
// balancer tracks an evolving workload, servers come and go mid-flight,
// and the timeline shows warm starts re-entering the 2% band in a
// fraction of a cold solve's iterations at every step.
//
// Traces are self-contained (scenario + events), deterministic, and
// file round-trippable through a plain-text codec; the generators in
// this package synthesize canonical workloads (diurnal sinusoid, flash
// crowd, rolling restarts, metro outage) with the same splitmix64
// seeding discipline as the sweep engine.
//
//	tr, _ := replay.FlashCrowd(delaylb.NewScenario(2000).WithClusters(12).WithLoads(delaylb.LoadZipf, 100), 8, 6, 10, 1)
//	tl, _ := replay.Run(ctx, tr, replay.Config{}) // DefaultOptions: away-step Frank–Wolfe
//	tl.WriteTable(os.Stdout)
package replay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"delaylb/obs"
)

// backend is the balancer a loop drives, holding the fleet in
// instance-index order: the loop owns everything the tiers share, a
// backend how its balancer absorbs a change and measures an epoch.
type backend[R timelineRow] interface {
	loads() []float64 // live loads, read-only
	updateLoads(loads []float64) error
	join(ev Event) error // appends the server at index M
	leave(i int) error
	measure(ctx context.Context, ep epochInfo) (R, error)
	// allocation returns the row count and an entry iterator.
	allocation() (rows int, each func(func(i, j int, v float64)))
	// toleratesDeadIDs: events naming removed servers are skipped and
	// counted instead of failing the replay.
	toleratesDeadIDs() bool
}

// latencyBackend is the optional capability to apply latency events;
// without it a trace carrying them is refused before epoch 0.
type latencyBackend interface {
	shiftLatency(ev Event, from, to int) error // endpoints resolved, -1 = all
	restoreLatency(ev Event) error
	flushLatency() error
}

// timelineRow is a timeline row; observe reports its telemetry onto span.
type timelineRow interface {
	observe(ro replayObs, span obs.Span) obs.Span
}

type epochInfo struct {
	epoch, events, skipped int // skipped: events naming crashed servers
	time                   float64
}

// errNoLiveServer marks an event addressed to a server not in the fleet.
var errNoLiveServer = errors.New("no live server")

// loop is the replay driver: one event loop over a backend.
type loop[R timelineRow] struct {
	b        backend[R]
	lat      latencyBackend // nil when b cannot apply latency events
	label    string         // names an epoch in errors
	verify   bool
	progress func(done, total int)
	obs      replayObs
	// ids[i] is the stable id of the server at instance index i; idx is
	// the inverse. Initial servers get ids 0..m−1, joins carry fresh ids.
	ids []int64
	idx map[int64]int
	// pending batches LoadDelta/Spike edits so one epoch costs one
	// updateLoads, not one per event.
	pending []float64
	rows    []R
	runtime obs.RuntimeStats
}

func newLoop[R timelineRow](b backend[R], m int, label string, verify bool, progress func(done, total int), ro replayObs) *loop[R] {
	l := &loop[R]{b: b, label: label, verify: verify, progress: progress, obs: ro,
		ids: make([]int64, m), idx: make(map[int64]int, m)}
	l.lat, _ = b.(latencyBackend)
	for i := range l.ids {
		l.ids[i] = int64(i)
		l.idx[int64(i)] = i
	}
	return l
}

// run replays tr: the initial measurement, then per epoch its events,
// one flush and one measurement. The rows measured so far stay in
// l.rows whatever the error.
func (l *loop[R]) run(ctx context.Context, tr *Trace) error {
	if l.lat == nil {
		for k, ep := range tr.Epochs {
			for _, ev := range ep.Events {
				if ev.Kind == LatencyShift || ev.Kind == LatencyRestore {
					return l.epochErr(k, ep, errors.New("latency shifts are not supported on this backend"))
				}
			}
		}
	}
	total := len(tr.Epochs) + 1
	if err := l.finishEpoch(ctx, epochInfo{}, total); err != nil {
		return err
	}
	for k, ep := range tr.Epochs {
		var evStart time.Time
		if l.obs.applyHist != nil {
			evStart = time.Now()
		}
		info := epochInfo{epoch: k + 1, time: ep.Time, events: len(ep.Events)}
		for _, ev := range ep.Events {
			if err := l.apply(ev); err != nil {
				if l.b.toleratesDeadIDs() && errors.Is(err, errNoLiveServer) {
					// The event addresses a server a crash removed —
					// real traces keep naming dead hosts for a while.
					info.skipped++
					continue
				}
				return l.epochErr(k, ep, err)
			}
		}
		if err := l.flush(); err != nil {
			return l.epochErr(k, ep, err)
		}
		if l.obs.applyHist != nil {
			l.obs.applyEvents(info.events-info.skipped, time.Since(evStart))
		}
		if err := l.finishEpoch(ctx, info, total); err != nil {
			return err
		}
	}
	return nil
}

func (l *loop[R]) epochErr(k int, ep Epoch, err error) error {
	return fmt.Errorf("replay: %s %d (t=%v): %w", l.label, k+1, ep.Time, err)
}

func (l *loop[R]) liveIndex(id int64) (int, error) {
	i, ok := l.idx[id]
	if !ok {
		return 0, fmt.Errorf("%w with id %d", errNoLiveServer, id)
	}
	return i, nil
}

// remove drops instance index i from the id map, shifting every later
// index down by one as the backend does.
func (l *loop[R]) remove(i int) {
	delete(l.idx, l.ids[i])
	l.ids = append(l.ids[:i], l.ids[i+1:]...)
	for _, id := range l.ids[i:] {
		l.idx[id]--
	}
}

// flush pushes every batched mutation into the backend — required
// before any event that resizes the fleet and before measuring.
func (l *loop[R]) flush() error {
	if l.pending != nil {
		loads := l.pending
		l.pending = nil
		if err := l.b.updateLoads(loads); err != nil {
			return err
		}
	}
	if l.lat != nil {
		return l.lat.flushLatency()
	}
	return nil
}

// apply routes one event. Latency events only reach it on a backend
// with the capability: run refuses them up front otherwise.
func (l *loop[R]) apply(ev Event) error {
	switch ev.Kind {
	case LoadDelta, Spike:
		i, err := l.liveIndex(ev.ID)
		if err != nil {
			return err
		}
		if l.pending == nil {
			l.pending = append([]float64(nil), l.b.loads()...)
		}
		if ev.Kind == LoadDelta {
			l.pending[i] = math.Max(0, l.pending[i]+ev.Value)
		} else {
			l.pending[i] *= ev.Value
		}
	case LatencyShift:
		from, to := -1, -1
		var err error
		if ev.ID != Wildcard {
			if from, err = l.liveIndex(ev.ID); err != nil {
				return err
			}
		}
		if ev.To != Wildcard {
			if to, err = l.liveIndex(ev.To); err != nil {
				return err
			}
		}
		return l.lat.shiftLatency(ev, from, to)
	case LatencyRestore:
		return l.lat.restoreLatency(ev)
	case ServerJoin:
		if err := l.flush(); err != nil {
			return err
		}
		if _, dup := l.idx[ev.ID]; dup {
			return fmt.Errorf("join id %d already live", ev.ID)
		}
		if err := l.b.join(ev); err != nil {
			return err
		}
		l.idx[ev.ID] = len(l.ids)
		l.ids = append(l.ids, ev.ID)
	case ServerLeave:
		if err := l.flush(); err != nil {
			return err
		}
		i, err := l.liveIndex(ev.ID)
		if err != nil {
			return err
		}
		if err := l.b.leave(i); err != nil {
			return err
		}
		l.remove(i)
	default:
		return fmt.Errorf("unknown event kind %q", ev.Kind)
	}
	return nil
}

// finishEpoch measures one epoch and records it: the replay.epoch span,
// the wall-clock row, the telemetry, the feasibility check and the
// progress callback.
func (l *loop[R]) finishEpoch(ctx context.Context, ep epochInfo, total int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	span := l.obs.scope.Start("replay.epoch")
	row, err := l.b.measure(ctx, ep)
	if err != nil {
		return err
	}
	l.runtime.Set(len(l.rows), obs.RuntimeRow{
		Label:   fmt.Sprintf("epoch %d", ep.epoch),
		Elapsed: time.Since(start),
	})
	l.rows = append(l.rows, row)
	l.obs.epochs.Inc()
	row.observe(l.obs, span.With(obs.Int("epoch", int64(ep.epoch)))).End()

	if l.verify {
		if err := l.verifyFeasible(); err != nil {
			return fmt.Errorf("replay: %s %d: %w", l.label, ep.epoch, err)
		}
	}
	if l.progress != nil {
		l.progress(len(l.rows), total)
	}
	return nil
}

// verifyFeasible asserts the adopted allocation is row-stochastic for
// the live loads: entries non-negative up to 1e-9 of round-off, every
// row summing to its organization's load.
func (l *loop[R]) verifyFeasible() error {
	loads := l.b.loads()
	rows, each := l.b.allocation()
	if rows != len(loads) {
		return fmt.Errorf("allocation has %d rows, loads %d", rows, len(loads))
	}
	sums := make([]float64, len(loads))
	var bad error
	each(func(i, j int, v float64) {
		if bad == nil && (v < -1e-9 || math.IsNaN(v)) {
			bad = fmt.Errorf("r[%d][%d]=%v", i, j, v)
		}
		sums[i] += v
	})
	if bad != nil {
		return bad
	}
	for i, sum := range sums {
		if math.Abs(sum-loads[i]) > 1e-6*math.Max(1, loads[i]) {
			return fmt.Errorf("row %d sums to %v, want %v", i, sum, loads[i])
		}
	}
	return nil
}
