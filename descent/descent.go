// Package descent is the distributed control plane of the repo: the
// paper's delay-aware balancing objective descended by sharded actors
// with no central solve.
//
// The centralized tiers (qp solvers, the replay engine) hold the whole
// allocation in one place. This package splits it: each actor owns a
// slice of servers — one metro's worth under the clustered scenarios —
// together with the allocation rows of the organizations homed there,
// and improves them with damped projected gradient steps. Everything an
// actor learns about the rest of the fleet arrives as messages over a
// pluggable Transport:
//
//   - per-server congestion prices, sent only to current users of the
//     server (volume bounded by the allocation's nonzeros). Each actor
//     keeps a subscription index — per owned server, the peer actors
//     whose rows use it, with row counts — current wherever a column
//     entry appears or disappears, so publishing walks the
//     subscriptions, not the column entries;
//   - per-metro summaries (best/second-best priced server, metro load),
//     O(k) per actor pair, which keep every row's working set at
//     O(support + k). A candidate holds no requests from the row, so
//     its key in the prox step is the same for every row of a home
//     metro: each actor keys its home metros' candidates once per round
//     in scan order, and a row step merges that shared list with a heap
//     over its own support. Gradients are read through the
//     model.Latency view and never materialize a dense row or column.
//
// Rounds are bulk-synchronous (publish → step → apply, then the serial
// observe). On the Bus, payloads decode into per-actor scratch — prices
// into the price cache, summaries onto one flat slice, deltas onto the
// apply batch — and inboxes keep their capacity, so a warm round
// allocates little beyond its encoded payloads, which the transport
// owns after Send. On a warm plane of the descent-flash benchmark's
// shape (m=1500, 16 metros, participation 0.2; 2-vCPU Xeon, GOMAXPROCS
// 2) the phases take about 0.06 ms (publish), 0.5 (step), 0.35
// (apply) and 0.2–0.25 (observe): 1.1–1.2 ms a round.
//
// The phases run concurrently across actors, but each row step is a
// pure function of state published at the start of the round and each
// server's column folds its deltas in ascending row order, so a run's
// numeric trajectory — costs and allocations, bit for bit — depends
// only on (instance, Config.Seed, mode, step schedule) and not on the
// shard count or the goroutine schedule. The Messages/Bytes counters
// measure traffic that crosses an actor boundary, so they additionally
// depend on the shard count (more shards, less locality) —
// deterministically: for a fixed configuration two runs agree on them
// exactly. See DESIGN.md "Distributed control plane" for the contract.
//
// Cooperative mode descends the social objective ΣC_i; its fixed points
// are blockwise-optimal and, the objective being convex over a product
// of simplices, global optima — the plane converges toward the same
// cost the centralized Frank–Wolfe tier computes. Selfish mode has each
// organization descend its own cost; fixed points are Nash equilibria,
// and the reported cost ratio against a cooperative oracle is a
// measured price of anarchy.
package descent

import (
	"fmt"
	"sync"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
	"delaylb/obs"
)

// Config tunes a Plane. The zero value is usable: metro-count shards,
// cooperative mode, η=0.5, full participation, seed 0.
type Config struct {
	// Shards is the actor count. 0 means one actor per metro on
	// clustered instances and min(m, 4) otherwise.
	Shards int
	// Mode selects the gradient (Cooperative or Selfish).
	Mode Mode
	// Step is the initial damping η ∈ (0, 1]. η=1 is the exact local
	// best response; concurrent rows stepping at η=1 can overshoot
	// jointly, so the default is 0.5. The plane halves η whenever a
	// round increases the observed cost (deterministically — every
	// shard count sees the same cost stream).
	Step float64
	// Participation is the per-row probability of stepping each round,
	// drawn from a splitmix64 stream keyed by (Seed, row, round) — not
	// by actor, so schedules survive resharding. Default 1.
	Participation float64
	// Seed drives the participation streams.
	Seed int64
	// Target is the centralized oracle cost, when known. It feeds the
	// RelGap/RoundsToBand metrics; 0 disables them.
	Target float64
	// Band is the relative band around Target that counts as converged
	// for RoundsToBand. Default 0.02.
	Band float64
	// Transport carries payloads between actors. Default: NewBus(),
	// unless Faults is set, in which case a SimTransport over the plan.
	Transport Transport
	// Faults, when set, is the deterministic fault schedule: message
	// faults are injected by the transport (a SimTransport is built
	// when Transport is nil), and the plan's CrashEvery/MaxCrashes
	// fields schedule actor crashes executed by the plane between the
	// step and apply barriers.
	Faults *FaultPlan
	// RoundMs is the modeled round duration for delay-aware transports,
	// in the latency view's milliseconds. Each phase barrier is half a
	// round, so a payload crossing a d-ms actor pair arrives
	// floor(d / (RoundMs/2)) flushes late. 0 means the largest
	// actor-pair delay of the instance — cross-metro payloads between
	// the farthest actors then land about two phases late, nearer pairs
	// proportionally sooner.
	RoundMs float64
	// OnRound, when set, observes every round's metrics; returning
	// false stops the current Run.
	OnRound func(RoundMetrics) bool
	// OnCrash, when set, observes every crash the plane executes.
	OnCrash func(CrashEvent)
	// Obs, if non-nil, receives side-channel telemetry: per-round cost,
	// step-size and movement, messages/bytes by wire kind, and the full
	// fault/recovery counter set. It never feeds back into the round
	// computation — instrumented runs stay byte-identical — and the nil
	// default adds zero allocations per round (see obs_alloc_test.go).
	Obs *obs.Scope
}

// RoundMetrics is one round of the plane's metrics stream.
type RoundMetrics struct {
	Round    int     `json:"round"`
	Cost     float64 `json:"cost"`
	RelGap   float64 `json:"rel_gap"`  // cost/Target − 1; 0 when no target
	Moved    float64 `json:"moved"`    // total |Δr| in request units
	Stepped  int     `json:"stepped"`  // rows that ran a prox step
	Messages int64   `json:"messages"` // cross-actor payloads
	Bytes    int64   `json:"bytes"`    // cross-actor payload bytes
	NNZ      int     `json:"nnz"`      // allocation entries after the round
	Step     float64 `json:"step"`     // η in effect

	// Faults is set only on rounds where faults were injected, detected
	// or recovered — nil on a clean transport, so zero-fault metric
	// streams serialize exactly as before.
	Faults *FaultTotals `json:"faults,omitempty"`
}

// FaultTotals aggregates injected faults (transport counters) and the
// recovery protocol's responses (receiver counters) over one round or
// one Run.
type FaultTotals struct {
	// Injected by the transport.
	Dropped     int64 `json:"dropped,omitempty"`
	Duplicated  int64 `json:"duplicated,omitempty"`
	Reordered   int64 `json:"reordered,omitempty"`
	Delayed     int64 `json:"delayed,omitempty"`
	Corrupted   int64 `json:"corrupted,omitempty"`
	FalsePriced int64 `json:"false_priced,omitempty"`
	// Detected and handled by the receivers.
	DupsDropped    int64 `json:"dups_dropped,omitempty"`
	StaleDropped   int64 `json:"stale_dropped,omitempty"`
	InvalidDropped int64 `json:"invalid_dropped,omitempty"`
	NacksSent      int64 `json:"nacks_sent,omitempty"`
	ResendsServed  int64 `json:"resends_served,omitempty"`
	Unrecovered    int64 `json:"unrecovered,omitempty"`
	// Crash failovers executed by the plane.
	Crashes       int     `json:"crashes,omitempty"`
	LostMass      float64 `json:"lost_mass,omitempty"`
	RecoveredMass float64 `json:"recovered_mass,omitempty"`
}

// Add folds g's counters into f — callers aggregating several Run
// reports (the replay driver's segmented epochs) sum with it.
func (f *FaultTotals) Add(g FaultTotals) {
	f.Dropped += g.Dropped
	f.Duplicated += g.Duplicated
	f.Reordered += g.Reordered
	f.Delayed += g.Delayed
	f.Corrupted += g.Corrupted
	f.FalsePriced += g.FalsePriced
	f.DupsDropped += g.DupsDropped
	f.StaleDropped += g.StaleDropped
	f.InvalidDropped += g.InvalidDropped
	f.NacksSent += g.NacksSent
	f.ResendsServed += g.ResendsServed
	f.Unrecovered += g.Unrecovered
	f.Crashes += g.Crashes
	f.LostMass += g.LostMass
	f.RecoveredMass += g.RecoveredMass
}

// Report aggregates one Run call.
type Report struct {
	Cost         float64 `json:"cost"`
	Target       float64 `json:"target,omitempty"`
	RelGap       float64 `json:"rel_gap,omitempty"`
	Rounds       int     `json:"rounds"`
	RoundsToBand int     `json:"rounds_to_band"` // -1: never entered the band
	Converged    bool    `json:"converged"`      // hit a fixed point before the round budget
	Messages     int64   `json:"messages"`
	Bytes        int64   `json:"bytes"`
	NNZ          int     `json:"nnz"`

	// Faults aggregates the run's fault and recovery counters; nil when
	// nothing was injected, detected or crashed.
	Faults *FaultTotals `json:"faults,omitempty"`
}

// Plane is a running control plane: the sharded actors, their
// transport, and the observer state. Methods are not safe for
// concurrent use — the concurrency lives inside a round, not across
// calls.
type Plane struct {
	cfg Config
	in  *model.Instance
	lat model.Latency

	shards int
	block  bool
	k      int       // metro count (block mode)
	labels []int     // metro per server (block mode)
	owner  []int32   // owning actor per server/org
	slot   []int32   // position of each server in its owner's own list
	rows   []*vec    // allocation row per org, shared with every actor
	cols   []*vec    // per-row contributions per server, shared likewise
	load   []float64 // total load per server, shared likewise
	actors []*actor
	tr     Transport
	// deliver is the receive hook attached to the transport: it
	// enqueues a payload for the current actor dst.
	deliver func(dst int, payload []byte)

	round      int
	eta        float64
	minEta     float64
	lastCost   float64
	quietFor   int
	goodStreak int

	// Fault-tolerance state.
	harden      bool        // transport is lossy: actors run the recovery protocol
	metroDelays [][]float64 // metro-pair delay table (block mode)
	crashes     int         // crashes executed so far
	roundCrash  *CrashEvent // crash executed this round, consumed by observe
	lastStats   TransportStats
	carry       carryState // pre-crash round counters, consumed by observe

	loads []float64 // observer scratch

	obs planeObs // resolved instruments (all nil when Config.Obs is nil)

	errMu  sync.Mutex
	errSet error
}

// NewPlane builds a plane over a private clone of the instance, with
// every organization initially serving its own load at home (the same
// cold start the centralized tiers use).
func NewPlane(in *model.Instance, cfg Config) (*Plane, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if cfg.Step == 0 {
		cfg.Step = 0.5
	}
	if !(cfg.Step > 0 && cfg.Step <= 1) {
		return nil, fmt.Errorf("descent: Step=%v, must be in (0, 1]", cfg.Step)
	}
	if cfg.Participation == 0 {
		cfg.Participation = 1
	}
	if !(cfg.Participation > 0 && cfg.Participation <= 1) {
		return nil, fmt.Errorf("descent: Participation=%v, must be in (0, 1]", cfg.Participation)
	}
	if cfg.Band == 0 {
		cfg.Band = 0.02
	}
	if !finiteF(cfg.Band) {
		return nil, fmt.Errorf("descent: Band=%v, must be finite", cfg.Band)
	}
	if !finiteF(cfg.Target) {
		return nil, fmt.Errorf("descent: Target=%v, must be finite", cfg.Target)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.RoundMs < 0 || !finiteF(cfg.RoundMs) {
		return nil, fmt.Errorf("descent: RoundMs=%v, must be finite and >= 0", cfg.RoundMs)
	}
	if cfg.Transport == nil {
		if cfg.Faults != nil {
			cfg.Transport = NewSimTransport(cfg.Faults)
		} else {
			cfg.Transport = NewBus()
		}
	}
	p := &Plane{cfg: cfg, eta: cfg.Step, minEta: cfg.Step / 1024}
	p.deliver = func(dst int, payload []byte) { p.actors[dst].enqueue(payload) }
	p.obs = newPlaneObs(cfg.Obs, cfg.Mode)
	alloc := sparse.New(in.M(), in.M())
	for i, l := range in.Load {
		if l > 0 {
			alloc.Idx[i] = []int32{int32(i)}
			alloc.Val[i] = []float64{l}
		}
	}
	p.rebuild(in.Clone(), alloc)
	return p, nil
}

// rebuild (re)shards the plane over instance in with allocation rows
// from alloc: reshard, then derive. Construction and membership churn
// go through it; a load update keeps the shards and calls derive alone.
func (p *Plane) rebuild(in *model.Instance, alloc *sparse.Matrix) {
	p.reshard(in, alloc)
	p.derive()
}

// reshard lays the plane out over instance in: the latency view, the
// ownership of every server, fresh actors, and fresh row and column
// storage with the rows copied from alloc. Everything else is derived
// from the rows by derive, which must follow.
func (p *Plane) reshard(in *model.Instance, alloc *sparse.Matrix) {
	m := in.M()
	p.in = in
	p.lat = in.Latency

	p.labels = nil
	p.k = 0
	p.block = false
	p.metroDelays = nil
	if b, ok := in.Latency.(*model.BlockLatency); ok {
		p.labels = b.Label
		p.k = b.K()
		p.block = true
		p.metroDelays = b.Delay
	} else if in.Cluster != nil {
		if d, ok := model.ClusterDelays(in); ok {
			p.metroDelays = d
			p.labels = in.Cluster
			for _, g := range p.labels {
				if g+1 > p.k {
					p.k = g + 1
				}
			}
			p.block = true
		}
	}

	shards := p.cfg.Shards
	if shards <= 0 {
		if p.block {
			shards = p.k
		} else {
			shards = min(m, 4)
		}
	}
	if shards > m && m > 0 {
		shards = m
	}
	p.shards = shards

	p.owner = make([]int32, m)
	for j := 0; j < m; j++ {
		if p.block {
			p.owner[j] = int32(p.labels[j] % shards)
		} else {
			p.owner[j] = int32(j % shards)
		}
	}

	if lt, ok := p.cfg.Transport.(LossyTransport); ok && lt.Lossy() {
		p.harden = true
	}

	p.rows = make([]*vec, m)
	p.cols = make([]*vec, m)
	p.load = make([]float64, m)
	p.slot = make([]int32, m)
	p.actors = make([]*actor, shards)
	for id := range p.actors {
		a := &actor{
			pl:    p,
			id:    id,
			rows:  p.rows,
			cols:  p.cols,
			load:  p.load,
			price: make(map[int32]loadSpeed),
		}
		if p.block {
			a.byMetro = make([][]int32, p.k)
		}
		p.actors[id] = a
	}
	for j := 0; j < m; j++ {
		a := p.actors[p.owner[j]]
		p.slot[j] = int32(len(a.own))
		a.own = append(a.own, int32(j))
		p.cols[j] = &vec{}
		if p.block {
			g := p.labels[j]
			a.byMetro[g] = append(a.byMetro[g], int32(j))
		}
	}
	for i := 0; i < m; i++ {
		row := &vec{}
		for t, j := range alloc.Idx[i] {
			// The dynamic projections may leave explicit zeros (e.g. a
			// zero-load row restarted on its diagonal); the plane's rows
			// never carry them.
			if v := alloc.Val[i][t]; v != 0 {
				row.idx = append(row.idx, j)
				row.val = append(row.val, v)
			}
		}
		p.rows[i] = row
	}
}

// derive recomputes all state that follows from the rows — columns and
// loads, price caches, the transport's wiring and delays, the
// hardened-transport streams and the cost — and drops every payload in
// flight and every delta not yet applied, as fresh actors would start:
// messages computed against the old rows must vanish, not fault. It
// reuses the storage reshard laid out.
func (p *Plane) derive() {
	m := p.in.M()
	// Columns and loads, in global index order — each column in
	// ascending row order, the fold the incremental delta application
	// continues.
	for j := 0; j < m; j++ {
		col := p.cols[j]
		col.idx, col.val = col.idx[:0], col.val[:0]
	}
	clear(p.load)
	for i := 0; i < m; i++ {
		row := p.rows[i]
		for t, j := range row.idx {
			col := p.cols[j]
			col.idx = append(col.idx, int32(i))
			col.val = append(col.val, row.val[t])
			p.load[j] += row.val[t]
		}
	}
	for _, a := range p.actors {
		a.recycle(a.drain())
		clear(a.deferred)
		a.deferred = a.deferred[:0]
		a.pendingLocal = a.pendingLocal[:0]
		a.deltaPend = a.deltaPend[:0]
		if p.harden {
			a.hardInit(p.shards)
		}
		a.indexSubscriptions()
		clear(a.price)
	}
	// Seed the price caches from the global loads so the first round
	// steps against consistent state even before the first publish
	// lands: every remote server an actor's rows use is one subscription
	// of that actor in the server owner's index, so each cache entry is
	// written once, not once per row using the server.
	for _, b := range p.actors {
		for _, sb := range b.subs {
			j := b.own[sb.slot]
			p.actors[sb.dst].price[j] = loadSpeed{load: p.load[j], speed: p.in.Speed[j]}
		}
	}

	p.tr = p.cfg.Transport
	p.tr.Attach(p.shards, p.deliver)
	if da, ok := p.tr.(DelayAware); ok {
		ms := p.pairDelays()
		rd := p.cfg.RoundMs
		if rd <= 0 {
			for _, row := range ms {
				for _, d := range row {
					if d > rd {
						rd = d
					}
				}
			}
		}
		da.SetDelays(ms, rd)
	}
	if len(p.loads) != m {
		p.loads = make([]float64, m)
	}
	p.lastCost = p.observeCost()
	p.quietFor = 0
}

func (p *Plane) noteErr(err error) {
	p.errMu.Lock()
	if p.errSet == nil {
		p.errSet = err
	}
	p.errMu.Unlock()
}

// par runs f once per actor, concurrently when there is more than one.
func (p *Plane) par(f func(a *actor)) {
	if len(p.actors) == 1 {
		f(p.actors[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(p.actors))
	for _, a := range p.actors {
		go func(a *actor) {
			defer wg.Done()
			f(a)
		}(a)
	}
	wg.Wait()
}

// Round runs one bulk-synchronous round and returns its metrics.
func (p *Plane) Round() (RoundMetrics, error) {
	span := p.cfg.Obs.Start("descent.round")
	p.round++
	r := p.round
	p.par(func(a *actor) { a.publish(r) })
	p.tr.Flush()
	p.par(func(a *actor) { a.step(r) })
	p.tr.Flush()
	if victim, ok := p.scheduledCrash(r); ok {
		// The victim dies between its step and the apply barrier: its
		// round state and every payload in flight to or from it are
		// lost, and the failover reshards the survivors through the
		// Leave churn path.
		p.captureRound()
		if _, err := p.Crash(victim); err != nil {
			return RoundMetrics{}, err
		}
	} else {
		p.par(func(a *actor) { a.apply(r) })
	}
	if p.errSet != nil {
		return RoundMetrics{}, p.errSet
	}
	met := p.observe()
	span.With(obs.Int("round", int64(met.Round))).
		With(obs.Float("cost", met.Cost)).
		With(obs.Float("moved", met.Moved)).
		With(obs.Int("bytes", met.Bytes)).
		End()
	return met, nil
}

// scheduledCrash consults the fault plan's crash schedule for round r.
// Crashes need a survivor: a single-actor plane, an empty victim, or a
// victim owning the whole fleet skips the draw.
func (p *Plane) scheduledCrash(r int) (int, bool) {
	fp := p.cfg.Faults
	if fp == nil || fp.CrashEvery <= 0 || r%fp.CrashEvery != 0 {
		return 0, false
	}
	if fp.MaxCrashes > 0 && p.crashes >= fp.MaxCrashes {
		return 0, false
	}
	if p.shards < 2 {
		return 0, false
	}
	victim := int(fp.draw(int32(r), 0, 0, 0, saltCrash) % uint64(p.shards))
	if n := len(p.actors[victim].own); n == 0 || n == p.in.M() {
		return 0, false
	}
	return victim, true
}

// carryState preserves a crashed round's counters across the failover
// rebuild (which replaces every actor) so observe still reports them.
type carryState struct {
	moved     float64
	stepped   int
	msgs      int64
	bytes     int64
	kindMsgs  [8]int64
	kindBytes [8]int64
	faults    FaultTotals
}

// captureRound folds the current actors' round-local counters into the
// carry before a crash rebuild discards them.
func (p *Plane) captureRound() {
	for _, a := range p.actors {
		p.carry.moved += a.moved
		p.carry.stepped += a.stepped
		p.carry.msgs += a.sentMsgs
		p.carry.bytes += a.sentBytes
		for k := range a.kindMsgs {
			p.carry.kindMsgs[k] += a.kindMsgs[k]
			p.carry.kindBytes[k] += a.kindBytes[k]
		}
		p.carry.faults.DupsDropped += a.dupsDropped
		p.carry.faults.StaleDropped += a.staleDropped
		p.carry.faults.InvalidDropped += a.invalidDropped
		p.carry.faults.NacksSent += a.nacksSent
		p.carry.faults.ResendsServed += a.resendsServed
		p.carry.faults.Unrecovered += a.unrecovered
	}
}

// pairDelays derives the actor-pair delay matrix from the latency view:
// a pair's payloads pay the largest delay between servers the two
// actors own. Block mode folds the O(k²) metro table (actor a owns the
// metros ≡ a mod shards); the dense fallback scans owned server pairs.
func (p *Plane) pairDelays() [][]float64 {
	d := make([][]float64, p.shards)
	for i := range d {
		d[i] = make([]float64, p.shards)
	}
	if p.block && p.metroDelays != nil {
		for g := 0; g < p.k; g++ {
			for h := 0; h < p.k; h++ {
				a, b := g%p.shards, h%p.shards
				if a == b || g == h {
					continue
				}
				if v := p.metroDelays[g][h]; v > d[a][b] {
					d[a][b] = v
				}
			}
		}
		return d
	}
	m := p.in.M()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			a, b := int(p.owner[i]), int(p.owner[j])
			if a == b || i == j {
				continue
			}
			if v := p.lat.At(i, j); v > d[a][b] {
				d[a][b] = v
			}
		}
	}
	return d
}

// observe computes the round's metrics and advances the deterministic
// step schedule.
func (p *Plane) observe() RoundMetrics {
	met := RoundMetrics{Round: p.round, Step: p.eta}
	var kindMsgs, kindBytes [8]int64 // stack tallies for the obs fold
	tallies := p.obs.enabled()
	for _, a := range p.actors {
		met.Moved += a.moved
		met.Stepped += a.stepped
		met.Messages += a.sentMsgs
		met.Bytes += a.sentBytes
		met.NNZ += a.nnz()
		if tallies {
			for k := range a.kindMsgs {
				kindMsgs[k] += a.kindMsgs[k]
				kindBytes[k] += a.kindBytes[k]
			}
		}
	}
	met.Moved += p.carry.moved
	met.Stepped += p.carry.stepped
	met.Messages += p.carry.msgs
	met.Bytes += p.carry.bytes
	if tallies {
		for k := range p.carry.kindMsgs {
			kindMsgs[k] += p.carry.kindMsgs[k]
			kindBytes[k] += p.carry.kindBytes[k]
		}
	}
	ft := p.carry.faults
	p.carry = carryState{}
	if p.harden {
		for _, a := range p.actors {
			ft.DupsDropped += a.dupsDropped
			ft.StaleDropped += a.staleDropped
			ft.InvalidDropped += a.invalidDropped
			ft.NacksSent += a.nacksSent
			ft.ResendsServed += a.resendsServed
			ft.Unrecovered += a.unrecovered
		}
	}
	if sr, ok := p.tr.(FaultStatsReader); ok {
		s := sr.FaultStats()
		ft.Dropped += s.Dropped - p.lastStats.Dropped
		ft.Duplicated += s.Duplicated - p.lastStats.Duplicated
		ft.Reordered += s.Reordered - p.lastStats.Reordered
		ft.Delayed += s.Delayed - p.lastStats.Delayed
		ft.Corrupted += s.Corrupted - p.lastStats.Corrupted
		ft.FalsePriced += s.FalsePriced - p.lastStats.FalsePriced
		p.lastStats = s
	}
	if p.roundCrash != nil {
		ft.Crashes++
		ft.LostMass += p.roundCrash.LostMass
		ft.RecoveredMass += p.roundCrash.RecoveredMass
		p.roundCrash = nil
	}
	if ft != (FaultTotals{}) {
		met.Faults = &ft
	}
	met.Cost = p.observeCost()
	if p.cfg.Target > 0 {
		met.RelGap = met.Cost/p.cfg.Target - 1
	}
	// Deterministic step schedule: a cost increase means concurrent
	// rows overshot jointly — halve the damping; three improving rounds
	// in a row earn a doubling back toward the configured step, so one
	// early thrash does not condemn the run to a crawl. Every shard
	// count observes the same cost stream, so the η schedule is part of
	// the determinism contract.
	switch {
	case met.Cost > p.lastCost:
		if p.eta > p.minEta {
			p.eta /= 2
		}
		p.goodStreak = 0
	case met.Cost < p.lastCost:
		p.goodStreak++
		if p.goodStreak >= 3 && p.eta < p.cfg.Step {
			p.eta *= 2
			if p.eta > p.cfg.Step {
				p.eta = p.cfg.Step
			}
			p.goodStreak = 0
		}
	}
	if met.Moved == 0 {
		p.quietFor++
	} else {
		p.quietFor = 0
	}
	p.lastCost = met.Cost
	p.obs.observeRound(met, &kindMsgs, &kindBytes)
	return met
}

// observeCost recomputes the social cost from the rows in global index
// order — the same O(nnz + m) accumulation the centralized sparse tiers
// use, and independent of sharding.
func (p *Plane) observeCost() float64 {
	m := p.in.M()
	loads := p.loads
	for j := range loads {
		loads[j] = 0
	}
	for i := 0; i < m; i++ {
		row := p.rows[i]
		for t, j := range row.idx {
			loads[j] += row.val[t]
		}
	}
	var cost float64
	for j, l := range loads {
		cost += l * l / (2 * p.in.Speed[j])
	}
	// Delays: on block views straight from the metro table, which holds
	// exactly the bits the latency view returns (model.ClusterDelays
	// verifies every off-diagonal pair of a metro pair); j = i pays none.
	for i := 0; i < m; i++ {
		row := p.rows[i]
		drow := p.delayRow(int32(i))
		for t, j := range row.idx {
			v := row.val[t]
			if v == 0 || int(j) == i {
				continue
			}
			if drow != nil {
				cost += v * drow[p.labels[j]]
			} else {
				cost += v * p.lat.At(i, int(j))
			}
		}
	}
	return cost
}

// Run executes up to rounds rounds, stopping early at a fixed point
// (two consecutive rounds moving no mass with full participation —
// under partial participation, four) or when OnRound says stop.
func (p *Plane) Run(rounds int) (*Report, error) {
	rep := &Report{Target: p.cfg.Target, RoundsToBand: -1, Cost: p.lastCost}
	quietNeed := 2
	if p.cfg.Participation < 1 {
		quietNeed = 4
	}
	for t := 0; t < rounds; t++ {
		met, err := p.Round()
		if err != nil {
			return nil, err
		}
		rep.Rounds++
		rep.Cost = met.Cost
		rep.Messages += met.Messages
		rep.Bytes += met.Bytes
		rep.NNZ = met.NNZ
		if met.Faults != nil {
			if rep.Faults == nil {
				rep.Faults = &FaultTotals{}
			}
			rep.Faults.Add(*met.Faults)
		}
		if p.cfg.Target > 0 && rep.RoundsToBand < 0 &&
			met.Cost <= p.cfg.Target*(1+p.cfg.Band) {
			rep.RoundsToBand = rep.Rounds
		}
		if p.cfg.OnRound != nil && !p.cfg.OnRound(met) {
			break
		}
		if p.quietFor >= quietNeed {
			rep.Converged = true
			break
		}
	}
	if p.cfg.Target > 0 {
		rep.RelGap = rep.Cost/p.cfg.Target - 1
	}
	return rep, nil
}

// Cost reports the current social cost ΣC_i.
func (p *Plane) Cost() float64 { return p.lastCost }

// Rounds reports how many rounds the plane has run.
func (p *Plane) Rounds() int { return p.round }

// Shards reports the actor count.
func (p *Plane) Shards() int { return p.shards }

// M reports the current fleet size.
func (p *Plane) M() int { return p.in.M() }

// Instance exposes the plane's private instance clone (read-only).
func (p *Plane) Instance() *model.Instance { return p.in }

// Allocation assembles the global allocation matrix (request units)
// from the actors' rows, in global index order. The rows share one
// backing array per Idx and Val, each row capped at its length, so a
// caller's append to one row reallocates that row alone; an empty row
// is nil. The copy is five allocations at any size.
func (p *Plane) Allocation() *sparse.Matrix {
	m := p.in.M()
	nnz := 0
	for _, row := range p.rows {
		nnz += len(row.idx)
	}
	ibuf := make([]int32, nnz)
	vbuf := make([]float64, nnz)
	out := sparse.New(m, m)
	off := 0
	for i, row := range p.rows {
		n := len(row.idx)
		if n == 0 {
			continue
		}
		end := off + n
		out.Idx[i] = ibuf[off:end:end]
		out.Val[i] = vbuf[off:end:end]
		copy(out.Idx[i], row.idx)
		copy(out.Val[i], row.val)
		off = end
	}
	return out
}

// SetTarget replaces the oracle cost the metrics stream compares
// against (the replay driver refreshes it every epoch).
func (p *Plane) SetTarget(target float64) { p.cfg.Target = target }
