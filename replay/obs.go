package replay

import (
	"time"

	"delaylb/obs"
)

// replayObs is the replay tier's resolved instrument bundle (one per
// Run/RunDescent call). Nil scope → all-nil fields → every call below
// is a nil-check no-op; telemetry never feeds back into the timeline,
// so instrumented replays stay byte-identical.
type replayObs struct {
	scope     *obs.Scope
	epochs    *obs.Counter   // replay_epochs_total
	events    *obs.Counter   // replay_events_total: trace events applied
	warmIters *obs.Counter   // replay_solve_iters_total{start="warm"}
	coldIters *obs.Counter   // replay_solve_iters_total{start="cold"}
	movedHist *obs.Histogram // replay_epoch_moved: churn mass per epoch
	applyHist *obs.Histogram // replay_event_apply_seconds: per-epoch event batch
	cost      *obs.Gauge     // replay_cost: last epoch's adopted cost
}

func newReplayObs(sc *obs.Scope, tier string) replayObs {
	if !sc.Enabled() {
		return replayObs{}
	}
	return replayObs{
		scope:     sc,
		epochs:    sc.Counter("replay_epochs_total", "tier", tier),
		events:    sc.Counter("replay_events_total", "tier", tier),
		warmIters: sc.Counter("replay_solve_iters_total", "tier", tier, "start", "warm"),
		coldIters: sc.Counter("replay_solve_iters_total", "tier", tier, "start", "cold"),
		movedHist: sc.Histogram("replay_epoch_moved", obs.ExpBuckets(1, 4, 12), "tier", tier),
		applyHist: sc.Histogram("replay_event_apply_seconds", obs.ExpBuckets(1e-6, 10, 8), "tier", tier),
		cost:      sc.Gauge("replay_cost", "tier", tier),
	}
}

// applyEvents times one epoch's event-application batch of n applied
// events (skipped ones excluded).
func (ro replayObs) applyEvents(n int, elapsed time.Duration) {
	ro.events.Add(int64(n))
	if ro.applyHist != nil && n > 0 {
		ro.applyHist.Observe(elapsed.Seconds())
	}
}

func (e EpochMetrics) observe(ro replayObs, span obs.Span) obs.Span {
	ro.warmIters.Add(int64(e.WarmIters))
	ro.coldIters.Add(int64(e.ColdIters))
	ro.movedHist.Observe(e.Moved)
	ro.cost.Set(e.Cost)
	return span.With(obs.Float("cost", e.Cost)).
		With(obs.Int("warm_iters", int64(e.WarmIters))).
		With(obs.Float("moved", e.Moved))
}

func (e DescentEpoch) observe(ro replayObs, span obs.Span) obs.Span {
	ro.cost.Set(e.Cost)
	return span.With(obs.Float("cost", e.Cost)).
		With(obs.Int("rounds", int64(e.Rounds))).
		With(obs.Int("bytes", e.Bytes))
}
