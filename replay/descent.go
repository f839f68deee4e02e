package replay

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"delaylb"
	"delaylb/descent"
	"delaylb/internal/qp"
	"delaylb/obs"
)

// DescentConfig tunes a descent-backed replay: the trace's events are
// applied to a live descent.Plane (loads rescaled, actors joining and
// leaving mid-flight) and each epoch runs gradient rounds until the
// plane goes quiet or the budget runs out — the distributed third tier
// of the engine, where Config drives the centralized second tier.
type DescentConfig struct {
	// Plane configures the control plane. Target and Band are managed by
	// the driver: the per-epoch oracle refreshes Target, Band mirrors the
	// config's Band.
	Plane descent.Config
	// RoundBudget caps gradient rounds per epoch (default 300).
	RoundBudget int
	// Band is the relative optimality band for rounds-to-band (default
	// 0.02, the paper's Table I target).
	Band float64
	// OracleIters / OracleTol budget the per-epoch centralized sparse
	// Frank–Wolfe oracle (defaults 400 and 1e-7). The oracle is the
	// observer's reference only — no actor ever sees it.
	OracleIters int
	OracleTol   float64
	// SkipOracle drops the per-epoch oracle; OracleCost/RelGap stay zero
	// and RoundsToBand is reported as -1.
	SkipOracle bool
	// StopInBand ends an epoch's rounds as soon as the cost enters the
	// oracle band instead of spending the whole budget — the online
	// operating mode: rebalance until good enough, then wait for the
	// next epoch. No effect when the oracle is skipped.
	StopInBand bool
	// Verify re-checks row-stochastic feasibility after every epoch.
	Verify bool
	// Progress, if non-nil, is called after each completed epoch.
	Progress func(done, total int)
	// Obs, if non-nil, receives replay telemetry (per-epoch metrics,
	// "replay.epoch" spans) and is propagated to the plane and the
	// per-epoch oracle solves. One-way side channel: the timeline bytes
	// are identical with or without it.
	Obs *obs.Scope
	// CrashPerEpoch crashes that many plan-chosen actors at the start
	// of every epoch (after the epoch's events, before its rounds) —
	// the "one actor crash per epoch" resilience drill. The victim is
	// drawn from Plane.Faults (an epoch-salted CrashVictim draw; a zero
	// plan seeded from Plane.Seed is used when Faults is nil), probing
	// forward when the draw lands on an actor that owns nothing or
	// cannot fail over, and the failover runs the plane's Leave churn
	// path. With any crash schedule active — this field or
	// Plane.Faults.CrashEvery — trace events addressed to servers a
	// crash already removed are skipped and counted instead of failing
	// the replay.
	CrashPerEpoch int
}

func (c DescentConfig) budget() int {
	if c.RoundBudget > 0 {
		return c.RoundBudget
	}
	return 300
}

func (c DescentConfig) oracleOptions() qp.Options {
	opt := qp.Options{MaxIters: 400, Tol: 1e-7, Obs: c.Obs}
	if c.OracleIters > 0 {
		opt.MaxIters = c.OracleIters
	}
	if c.OracleTol > 0 {
		opt.Tol = c.OracleTol
	}
	return opt
}

// DescentEpoch is one row of the descent replay timeline. Wall-clock
// stays out of the JSON form (see EpochMetrics).
type DescentEpoch struct {
	Epoch   int     `json:"epoch"`
	Time    float64 `json:"time"`
	Events  int     `json:"events"`
	Servers int     `json:"servers"`
	// TotalLoad is Σ n_i after the epoch's events.
	TotalLoad float64 `json:"total_load"`
	// StartCost is ΣC_i of the carried-over rows after the events landed
	// but before any gradient round — how stale churn left the plane.
	StartCost float64 `json:"start_cost"`
	// Cost is ΣC_i when the epoch's rounds stopped.
	Cost float64 `json:"cost"`
	// OracleCost is the centralized sparse Frank–Wolfe reference on the
	// post-event instance; RelGap is Cost/OracleCost − 1. Zero when the
	// oracle is skipped.
	OracleCost float64 `json:"oracle_cost,omitempty"`
	RelGap     float64 `json:"rel_gap,omitempty"`
	// Rounds actually run; RoundsToBand is the first round at or under
	// (1+Band)·OracleCost, -1 when never reached (or no oracle).
	Rounds       int  `json:"rounds"`
	RoundsToBand int  `json:"rounds_to_band"`
	Converged    bool `json:"converged"`
	// Messages/Bytes are the epoch's total cross-actor traffic; NNZ the
	// allocation's support size after the rounds.
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	NNZ      int   `json:"nnz"`
	// SkippedEvents counts trace events addressed to servers a crash
	// had already removed; Faults aggregates the epoch's injected
	// faults, recovery counters and crash mass. Both stay zero-valued
	// (and out of the JSON) on fault-free runs, so existing timelines
	// serialize byte-identically.
	SkippedEvents int                  `json:"skipped_events,omitempty"`
	Faults        *descent.FaultTotals `json:"faults,omitempty"`
}

// BytesPerRound is the epoch's mean message volume per gradient round.
func (e DescentEpoch) BytesPerRound() float64 {
	if e.Rounds == 0 {
		return 0
	}
	return float64(e.Bytes) / float64(e.Rounds)
}

// DescentTimeline is RunDescent's output.
type DescentTimeline struct {
	Scenario delaylb.Scenario `json:"scenario"`
	Band     float64          `json:"band"`
	Shards   int              `json:"shards"`
	Epochs   []DescentEpoch   `json:"epochs"`

	// Runtime is the wall-clock side channel: Runtime.At(k) measures
	// Epochs[k]. Never serialized (see obs.RuntimeStats).
	Runtime *obs.RuntimeStats `json:"-"`
}

// WriteJSON writes the timeline as indented JSON; deterministic for a
// fixed (trace, DescentConfig) pair — wall-clock never appears in it.
func (tl *DescentTimeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}

// WriteTable renders the human summary, wall-clock last.
func (tl *DescentTimeline) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-8s %-6s %-6s %-10s %-12s %-12s %-12s %-7s %-7s %-10s %-8s %s\n",
		"epoch", "time", "events", "m", "load", "start", "cost", "oracle", "rounds", "r2band", "bytes/rnd", "nnz", "elapsed")
	for k, e := range tl.Epochs {
		fmt.Fprintf(w, "%-5d %-8.4g %-6d %-6d %-10.6g %-12.6g %-12.6g %-12.6g %-7d %-7d %-10.4g %-8d %s\n",
			e.Epoch, e.Time, e.Events, e.Servers, e.TotalLoad, e.StartCost, e.Cost, e.OracleCost,
			e.Rounds, e.RoundsToBand, e.BytesPerRound(), e.NNZ, tl.Runtime.At(k).Elapsed.Round(time.Millisecond))
		if f := e.Faults; f != nil || e.SkippedEvents > 0 {
			if f == nil {
				f = &descent.FaultTotals{}
			}
			fmt.Fprintf(w, "      faults: drop=%d dup=%d reorder=%d delay=%d corrupt=%d lie=%d | nack=%d resend=%d stale=%d invalid=%d unrecovered=%d | crashes=%d lost=%.6g recovered=%.6g skipped=%d\n",
				f.Dropped, f.Duplicated, f.Reordered, f.Delayed, f.Corrupted, f.FalsePriced,
				f.NacksSent, f.ResendsServed, f.StaleDropped, f.InvalidDropped, f.Unrecovered,
				f.Crashes, f.LostMass, f.RecoveredMass, e.SkippedEvents)
		}
	}
}

// RunDescent replays the trace on a distributed descent plane. Like Run
// it is deterministic for a fixed (trace, config) pair — including any
// Plane.Faults schedule, which replays byte-for-byte — and on context
// cancellation the timeline built so far is returned with ctx.Err().
// A trace carrying LatencyShift/LatencyRestore events is refused before
// epoch 0, naming the first epoch that has one: the plane's actors
// gossip loads, not delays, so a delay change would desynchronize them
// silently. The WAN transport (descent.SimTransport) now carries the
// static delay geometry; the ROADMAP records delay *gossip* — actors
// exchanging latency updates so shift events can replay — as the
// unblocked follow-on.
func RunDescent(ctx context.Context, tr *Trace, cfg DescentConfig) (*DescentTimeline, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	in, err := tr.Scenario.Instance()
	if err != nil {
		return nil, err
	}
	en := &planeBackend{cfg: cfg}
	pcfg := cfg.Plane
	pcfg.Band = bandOr(cfg.Band)
	pcfg.Target = 0
	if pcfg.Obs == nil {
		pcfg.Obs = cfg.Obs
	}
	userRound := pcfg.OnRound
	pcfg.OnRound = func(met descent.RoundMetrics) bool {
		if userRound != nil && !userRound(met) {
			return false
		}
		// A crash mid-run stales the oracle and the id map's picture of
		// the fleet: stop this Run segment so measure can re-anchor.
		// RelGap is only meaningful once the epoch's oracle has set a
		// positive target.
		return !en.crashed && !(cfg.StopInBand && en.target > 0 && met.RelGap <= bandOr(cfg.Band))
	}
	userCrash := pcfg.OnCrash
	pcfg.OnCrash = func(ev descent.CrashEvent) {
		en.noteCrash(ev)
		if userCrash != nil {
			userCrash(ev)
		}
	}
	if en.p, err = descent.NewPlane(in, pcfg); err != nil {
		return nil, err
	}
	en.loop = newLoop[DescentEpoch](en, en.p.M(), "descent epoch", cfg.Verify, cfg.Progress, newReplayObs(cfg.Obs, "descent"))
	shards := en.p.Shards()
	err = en.run(ctx, tr)
	return &DescentTimeline{Scenario: tr.Scenario, Band: bandOr(cfg.Band), Shards: shards,
		Epochs: en.rows, Runtime: &en.runtime}, err
}

// planeBackend runs the replay loop on a descent.Plane: joins and leaves
// go through actor churn, and each epoch is a crash drill plus gradient
// rounds refereed by a centralized oracle. It cannot apply latency
// events; with a crash schedule active it tolerates events naming
// crashed servers.
type planeBackend struct {
	*loop[DescentEpoch]
	cfg DescentConfig
	p   *descent.Plane
	// target is the current epoch's oracle cost (0: none yet) — read by
	// the StopInBand round hook.
	target float64
	// crashed flips when the plane reports a crash mid-run; the OnRound
	// hook reads it to end the Run segment so measure can re-anchor the
	// oracle and keep going. crashEvs collects the epoch's crash events
	// (mass accounting comes from here, not the fault counters, so a
	// driver-invoked crash and a plane-scheduled one report the same
	// way).
	crashed  bool
	crashEvs []descent.CrashEvent
}

func (en *planeBackend) loads() []float64                  { return en.p.Instance().Load }
func (en *planeBackend) updateLoads(loads []float64) error { return en.p.UpdateLoads(loads) }
func (en *planeBackend) leave(i int) error                 { return en.p.Leave(i) }

func (en *planeBackend) toleratesDeadIDs() bool {
	return en.cfg.CrashPerEpoch > 0 || (en.cfg.Plane.Faults != nil && en.cfg.Plane.Faults.CrashEvery > 0)
}

func (en *planeBackend) allocation() (int, func(func(i, j int, v float64))) {
	a := en.p.Allocation()
	return len(a.Idx), func(f func(i, j int, v float64)) {
		for i, idx := range a.Idx {
			for t, j := range idx {
				f(i, int(j), a.Val[i][t])
			}
		}
	}
}

func (en *planeBackend) join(ev Event) error {
	switch ev.Join {
	case JoinCluster:
		// Block fast path only: nil rows tell the instance to derive the
		// newcomer's delays from its metro label.
		return en.p.Join(ev.Speed, ev.Load, nil, nil, ev.Cluster)
	case JoinUniform:
		m := en.p.M()
		return en.p.Join(ev.Speed, ev.Load, uniformRow(m, ev.Latency), uniformRow(m, ev.Latency), 0)
	}
	return fmt.Errorf("unknown join latency mode %q", ev.Join)
}

// noteCrash mirrors a plane crash into the loop's stable-id map: the
// event's Removed indices (crash-time numbering, ascending) come out
// highest-first so earlier removals don't shift later ones.
func (en *planeBackend) noteCrash(ev descent.CrashEvent) {
	en.crashed = true
	en.crashEvs = append(en.crashEvs, ev)
	for t := len(ev.Removed) - 1; t >= 0; t-- {
		if i := int(ev.Removed[t]); i >= 0 && i < len(en.ids) {
			en.remove(i)
		}
	}
	// Any staged-but-unflushed load edits index the pre-crash fleet;
	// drop them rather than apply them to shifted rows. (Crashes land
	// between epochs or mid-Run, when pending is already flushed, so
	// this is belt and braces.)
	en.pending = nil
}

// measure runs the epoch's crash drill, then its gradient rounds in
// segments re-anchored on the oracle after every mid-run crash.
func (en *planeBackend) measure(_ context.Context, ep epochInfo) (DescentEpoch, error) {
	p := en.p
	en.crashEvs = en.crashEvs[:0]

	// The per-epoch crash drill fires before any measurement, so
	// StartCost already shows what the failover left behind. The victim
	// draw is epoch-salted from the fault plan (a zero plan carrying the
	// plane's seed when none is configured) — deterministic, and
	// independent of how many rounds earlier epochs ran.
	if en.cfg.CrashPerEpoch > 0 {
		plan := descent.FaultPlan{Seed: en.cfg.Plane.Seed}
		if en.cfg.Plane.Faults != nil {
			plan = *en.cfg.Plane.Faults
		}
		for c := 0; c < en.cfg.CrashPerEpoch && p.Shards() >= 2; c++ {
			// On block instances actors own whole metros, so the drawn
			// victim may own nothing (a crash no-op) or — late in a
			// shrinking fleet — everything (no survivor to fail over to).
			// Probe forward from the draw until someone actually dies;
			// when nobody can (one metro left), the drill skips. Both
			// outcomes are functions of (plan, epoch, fleet), so the
			// replay stays deterministic.
			victim := plan.CrashVictim(int64(ep.epoch)<<8|int64(c), p.Shards())
			for k, n := 0, p.Shards(); k < n; k++ {
				ev, err := p.Crash((victim + k) % n)
				if err == nil && ev.Servers > 0 {
					break
				}
			}
		}
	}

	row := DescentEpoch{
		Epoch:         ep.epoch,
		Time:          ep.time,
		Events:        ep.events,
		Servers:       p.M(),
		StartCost:     p.Cost(),
		RoundsToBand:  -1,
		SkippedEvents: ep.skipped,
	}
	for _, n := range p.Instance().Load {
		row.TotalLoad += n
	}
	// A plane-scheduled crash (Faults.CrashEvery) lands mid-Run and
	// stales both the oracle and the id map, so the budget is spent in
	// segments: each crash ends its segment, the oracle re-solves the
	// shrunken instance, and the remaining budget continues.
	var faults descent.FaultTotals
	budget := en.cfg.budget()
	for {
		en.crashed = false
		if !en.cfg.SkipOracle {
			res := qp.SolveFrankWolfeSparse(p.Instance(), en.cfg.oracleOptions())
			row.OracleCost = res.Cost
			en.target = res.Cost
		} else {
			en.target = 0
		}
		p.SetTarget(en.target)
		rep, err := p.Run(budget - row.Rounds)
		if err != nil {
			return DescentEpoch{}, err
		}
		if row.RoundsToBand < 0 && rep.RoundsToBand >= 0 {
			row.RoundsToBand = row.Rounds + rep.RoundsToBand
		}
		row.Rounds += rep.Rounds
		row.Messages += rep.Messages
		row.Bytes += rep.Bytes
		row.Cost = rep.Cost
		row.RelGap = rep.RelGap
		row.Converged = rep.Converged
		row.NNZ = rep.NNZ
		if rep.Faults != nil {
			// Crash mass is taken from the crash events below — one
			// source for both driver-drill and plane-scheduled crashes —
			// so the report's copy is zeroed before folding.
			f := *rep.Faults
			f.Crashes, f.LostMass, f.RecoveredMass = 0, 0, 0
			faults.Add(f)
		}
		if !en.crashed || row.Rounds >= budget {
			break
		}
	}
	faults.Crashes = len(en.crashEvs)
	for _, ev := range en.crashEvs {
		faults.LostMass += ev.LostMass
		faults.RecoveredMass += ev.RecoveredMass
	}
	if faults != (descent.FaultTotals{}) {
		row.Faults = &faults
	}
	return row, nil
}
