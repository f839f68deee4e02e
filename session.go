package delaylb

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"delaylb/internal/dynamic"
	"delaylb/internal/model"
	"delaylb/internal/sparse"
	"delaylb/obs"
)

// Session is the online serving surface of the package: a long-lived,
// mutable counterpart to the immutable System. It holds the current
// allocation and re-optimizes incrementally as the workload evolves —
// the §IX claim that fast MinE convergence enables balancing "in
// networks with dynamically changing loads", turned into an API.
//
// The intended loop is
//
//	sess := sys.NewSession()
//	res, _ := sess.Reoptimize(ctx)          // initial solve
//	for { // serving loop
//		sess.UpdateLoads(observedLoads)      // demand changed
//		res, _ = sess.Reoptimize(ctx)        // warm re-solve, few iters
//	}
//
// UpdateLoads carries the previous allocation over by preserving each
// organization's relay fractions (what a running system does naturally
// when demand changes under a persisted routing table), so Reoptimize
// starts warm and typically re-enters the paper's 2% optimality band in
// a fraction of the iterations a cold solve needs.
//
// Session state is generation-tagged copy-on-write: every update swaps
// in a fresh epoch-numbered instance that shares everything the update
// did not touch. UpdateLoads copies only the load vector, and
// ApplyLatencyUpdate on a block-latency (NetClustered) instance only
// the k×k metro table.
//
// The allocation itself is carried as sparse rows in request units, so
// UpdateLoads is O(nnz + m) and results stay sparse until a caller
// materializes them. AddServer and RemoveServer check their own inputs
// and record the edit without copying any state. Every other
// call except M and Epoch reads the state, and the first read after a
// burst of churn — a metro outage, a rolling restart — settles every
// edit recorded since in one pass: the instance in O(m + k²) on a block
// instance (the metro table is shared, never copied) or O(m²) on a dense
// one, and the allocation in O(nnz + m). The burst pays that pass once
// rather than once per server. For sessions over thousands of servers,
// pass WithSolver("frankwolfe") or the "proxy" MinE variant as a session
// default at NewSession.
//
// A Session is safe for concurrent use. The lock is released while a
// solve or cluster run is in flight, so observers — including the
// Progress/onRound callbacks themselves — may call Session methods at
// any time; a result computed against a state that was updated mid-run
// is returned but not adopted.
type Session struct {
	mu      sync.Mutex
	in      *model.Instance // settled instance; read it after settleLocked
	alloc   *sparse.Matrix  // settled allocation, request units; likewise
	pending *dynamic.Resize // joins and leaves recorded since in and alloc were settled
	base    []Option        // defaults captured at NewSession, prepended per call
	epoch   int             // counts load/latency updates
}

// NewSession starts a session from the system's instance and the identity
// allocation (every organization serving itself), held as sparse rows.
// The given options become the session's defaults for every
// Reoptimize/RunCluster call; per-call options override them.
func (s *System) NewSession(opts ...Option) *Session {
	in := s.in.Clone()
	return &Session{in: in, alloc: sparse.Diagonal(in.Load), pending: dynamic.NewResize(in.M()), base: opts}
}

// settleLocked applies the pending joins and leaves to the instance and
// the allocation. Settled instances and matrices are never mutated, so
// callers may hand them to readers outside the lock. Callers hold s.mu.
func (s *Session) settleLocked() {
	if s.pending.Len() > 0 {
		s.in, s.alloc = s.pending.Apply(s.in, s.alloc)
	}
}

// System returns an immutable snapshot of the session's current instance,
// usable with every one-shot entry point (Optimize, NashEquilibrium, …).
func (s *Session) System() *System {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	return &System{in: s.in.Clone()}
}

// Epoch returns how many state updates (UpdateLoads, UpdateLatency,
// AddServer, RemoveServer) the session has absorbed — the generation tag
// of its copy-on-write instance.
func (s *Session) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// M returns the current number of organizations (= servers). Unlike
// System.M it can change over the session's lifetime as servers join and
// leave. It counts pending joins and leaves without settling them.
func (s *Session) M() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending.M()
}

// Loads returns a copy of the current per-organization loads.
func (s *Session) Loads() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	return append([]float64(nil), s.in.Load...)
}

// Latency returns a deep copy of the current pairwise latency matrix —
// the natural input to a "degrade these links and UpdateLatency" step in
// an online feed. On a block-latency session this materializes the dense
// m×m form (O(m²), and it counts against
// model.BlockDenseMaterializations, the scale-tier tests' no-densify
// instrument); prefer BlockLatency at scale.
func (s *Session) Latency() [][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	if b, ok := s.in.Latency.(*model.BlockLatency); ok {
		return b.Dense() // freshly built — safe to hand out
	}
	m := s.in.M()
	out := make([][]float64, m)
	buf := make([]float64, m*m)
	for i := range out {
		out[i], buf = buf[:m:m], buf[m:]
		s.in.Latency.RowInto(i, out[i])
	}
	return out
}

// BlockLatency returns a copy of the k×k metro block-delay table and the
// per-server metro labels when the session's instance is backed by the
// block latency representation (NetClustered scenarios), or ok == false
// otherwise. The copy costs O(m + k²) — the scale-friendly way to
// inspect a clustered session's network.
func (s *Session) BlockLatency() (delay [][]float64, labels []int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	b, isBlock := s.in.Latency.(*model.BlockLatency)
	if !isBlock {
		return nil, nil, false
	}
	delay = make([][]float64, len(b.Delay))
	for g, row := range b.Delay {
		delay[g] = append([]float64(nil), row...)
	}
	return delay, append([]int(nil), b.Label...), true
}

// Clusters returns a copy of the current cluster (metro) labels, or nil
// when the session's instance carries no cluster hint.
func (s *Session) Clusters() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	if s.in.Cluster == nil {
		return nil
	}
	return append([]int(nil), s.in.Cluster...)
}

// Result snapshots the current allocation as a Result (no solving). The
// snapshot is a copy: mutating it cannot corrupt the session. It stays
// sparse (O(nnz)); its dense Requests/Fractions views materialize lazily
// if asked for.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	return resultFromSparseRequests(s.in, s.alloc.Clone())
}

// Cost returns ΣC_i of the current allocation under the current loads
// and latencies.
func (s *Session) Cost() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	return model.TotalCostSparse(s.in, s.alloc)
}

// UpdateLoads replaces the per-organization loads. The current allocation
// is carried over by rescaling each organization's row to its new load
// (preserving relay fractions), so it stays feasible and close to optimal
// under moderate churn — the warm start the next Reoptimize exploits.
//
// Only the load vector is copied: the latency view, speeds and cluster
// labels are shared with the previous epoch's instance (which is
// immutable), so the update is O(m + nnz).
func (s *Session) UpdateLoads(loads []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.pending.M(); len(loads) != m {
		return fmt.Errorf("delaylb: UpdateLoads got %d loads, want %d", len(loads), m)
	}
	for i, n := range loads {
		if n < 0 || math.IsNaN(n) || math.IsInf(n, 0) {
			return fmt.Errorf("delaylb: UpdateLoads load[%d]=%v, must be non-negative and finite", i, n)
		}
	}
	s.settleLocked()
	next := &model.Instance{
		Speed:   s.in.Speed,
		Load:    append([]float64(nil), loads...),
		Latency: s.in.Latency,
		Cluster: s.in.Cluster,
	}
	s.alloc = dynamic.Rescale(s.alloc, s.in.Load, next.Load)
	s.in = next
	s.epoch++
	return nil
}

// UpdateLatency replaces the pairwise latency matrix (the network
// changed: a link degraded, a route moved). The allocation is unchanged —
// it remains feasible because loads did not move — but its cost, and the
// optimum, shift; call Reoptimize to adapt.
//
// The replacement is inherently dense: a block-latency session becomes
// dense-backed from this point on (the new matrix need not be
// block-structured). Solvers re-verify the preserved cluster hint
// against the new matrix, so a structure-breaking change degrades them
// to the generic path, never corrupts. When the change IS structured —
// a metro pair scaled, the whole backbone degraded, a saved table
// restored — use ApplyLatencyUpdate instead: it stays on the block
// representation at O(m + k²) per event and never materializes the
// matrix.
func (s *Session) UpdateLatency(latency [][]float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Validate dimensions — including ragged rows — before cloning
	// anything: rejecting a malformed m×m feed must not cost an m×m copy.
	m := s.pending.M()
	if len(latency) != m {
		return fmt.Errorf("delaylb: UpdateLatency got %d rows, want %d", len(latency), m)
	}
	for i, row := range latency {
		if len(row) != m {
			return fmt.Errorf("delaylb: UpdateLatency row %d has %d entries, want %d", i, len(row), m)
		}
	}
	s.settleLocked()
	rows := make([][]float64, m)
	for i, row := range latency {
		rows[i] = append([]float64(nil), row...)
	}
	next := &model.Instance{
		Speed:   s.in.Speed,
		Load:    s.in.Load,
		Latency: model.NewDense(rows),
		// The cluster hint survives the swap: ClusterDelays re-verifies it
		// against the new matrix, so a change that breaks the block
		// structure degrades solvers to the generic path, never corrupts.
		Cluster: append([]int(nil), s.in.Cluster...),
	}
	if err := next.Validate(); err != nil {
		return err
	}
	s.in = next
	s.epoch++
	return nil
}

// ServerSpec describes a server joining a live session via AddServer.
type ServerSpec struct {
	// Speed is the new server's processing speed (> 0, requests/ms).
	Speed float64
	// Load is the joining organization's initial request count (≥ 0; a
	// freshly provisioned server typically joins with 0).
	Load float64
	// LatencyTo[j] is the one-way delay from the new server to existing
	// server j; LatencyFrom[j] the delay from j to the new server. Both
	// must have length Session.M(); +Inf marks a forbidden link.
	//
	// On a block-latency session both may be nil: the rows are implied
	// by the Cluster label (the newcomer inherits its metro's block
	// delays), and AddServer records the join in O(1). Explicit rows
	// that match the block structure keep it; rows that contradict it
	// densify the session's instance at the next read (the newcomer
	// genuinely breaks the metro scheme).
	LatencyTo, LatencyFrom []float64
	// Cluster is the metro label of the new server, used when the
	// session's instance carries cluster labels (NetClustered scenarios).
	Cluster int
}

// AddServer grows the session by one organization, appended at index M().
// The current allocation is carried over: existing organizations keep
// their routing (nobody relays to a server it has not seen), and the
// newcomer starts by serving its own load locally — feasible by
// construction, and the warm start the next Reoptimize improves.
// AddServer checks the spec and records the join; the instance and the
// allocation change at the next read, in one pass shared with every
// join and leave recorded until then.
func (s *Session) AddServer(spec ServerSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boundLocked()
	err := s.pending.Join(s.in, dynamic.Join{Speed: spec.Speed, Load: spec.Load, Cluster: spec.Cluster,
		To: spec.LatencyTo, From: spec.LatencyFrom})
	if err != nil {
		return err
	}
	s.epoch++
	return nil
}

// RemoveServer removes organization i from the session (a rolling
// restart, a failure, an outage). The departing organization's requests
// leave with it; every remaining organization pulls the requests it was
// relaying to the removed server back to its own server, so each
// surviving row still sums to its load — the failover projection of
// internal/dynamic.Resize. Indices above i shift down by one. As with
// AddServer, the edit is checked and recorded, and the instance and the
// allocation change at the next read.
func (s *Session) RemoveServer(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boundLocked()
	if err := s.pending.Leave(s.in, i); err != nil {
		return err
	}
	s.epoch++
	return nil
}

// boundLocked settles a batch that holds M() edits, which keeps it O(m)
// for callers that never read. Callers hold s.mu.
func (s *Session) boundLocked() {
	if s.pending.Len() >= s.pending.M() {
		s.settleLocked()
	}
}

// Reoptimize re-solves from the current allocation (warm start) with the
// session's default options plus any per-call overrides, adopts the
// resulting allocation, and returns it. On context cancellation the
// best-so-far partial result is adopted and returned alongside ctx.Err()
// — an online balancer prefers a partially improved plan over none.
//
// The session lock is NOT held while the solver runs, so observers (and
// the Progress callback itself) may use the Session concurrently. If an
// UpdateLoads/UpdateLatency lands mid-solve the stale result is returned
// but not adopted — call Reoptimize again for the new epoch.
//
// The built-in solvers take the warm start in its sparse form. A
// third-party solver registered via RegisterSolver receives it as the
// dense SolveOptions.WarmStart, an O(m²) copy per call.
//
// For the away/pairwise Frank–Wolfe variants (WithFWVariant) the sparse
// warm start carries the active vertex set itself: a simplex vertex is a
// coordinate vector, so a row's stored support IS its active set and the
// stored values ARE the vertex weights. Reoptimize therefore resumes the
// variant exactly where the previous epoch left off, and the drop steps
// that pruned stale vertices last epoch keep this epoch's iterate lean —
// warm nnz stays bounded across epochs instead of growing by ~m·iters
// the way classic FW warm starts do.
func (s *Session) Reoptimize(ctx context.Context, opts ...Option) (*Result, error) {
	s.mu.Lock()
	o := buildOptions(append(append([]Option(nil), s.base...), opts...))
	if err := o.checkTolerance(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.settleLocked()
	in, alloc, epoch := s.in, s.alloc, s.epoch
	s.mu.Unlock()
	solver, err := resolveSolver(o.solver)
	if err != nil {
		return nil, err
	}
	switch solver.(type) {
	case mineSolver, qpSolver, nashSolver:
		o.WarmStart, o.warmSparse = nil, alloc
	default:
		o.WarmStart = alloc.Dense()
	}
	// Telemetry only: the churn baseline snapshot is taken only when a
	// scope is attached, so un-instrumented sessions skip the O(nnz) copy.
	sobs := newSessionObs(o.Obs)
	var pre *Result
	if sobs.enabled() {
		pre = s.Result()
	}
	span := o.Obs.Start("session.reoptimize")
	start := time.Now()
	// Safe outside the lock: instances and allocation matrices are
	// replaced wholesale on update, never mutated in place.
	res, err := solver.Solve(ctx, &System{in: in}, o.SolveOptions)
	if res != nil && res.hasAllocation() {
		s.mu.Lock()
		if s.epoch == epoch {
			s.adoptLocked(in, res)
		}
		s.mu.Unlock()
	}
	sobs.reoptimized(time.Since(start), pre, res)
	if res != nil {
		span = span.With(obs.Float("cost", res.Cost)).With(obs.Int("iters", int64(res.Iterations)))
	}
	span.With(obs.Int("epoch", int64(epoch))).End()
	return res, err
}

// adoptLocked installs a result's allocation as the session state,
// rescaled defensively to the instance's loads (mirroring
// warmSparseRequests). Callers hold s.mu.
func (s *Session) adoptLocked(in *model.Instance, res *Result) {
	req := res.req
	if req.Rows() != in.M() || req.Cols != in.M() {
		return
	}
	s.alloc = sparse.ScaleRows(req, func(i int) (float64, float64, bool) {
		if sum := req.RowSum(i); sum > 0 {
			return in.Load[i] / sum, 0, true
		}
		return 0, in.Load[i], false
	})
}

// RunCluster runs the message-passing runtime (gossip + pairwise balance
// proposals, the protocol of SimulateDistributed) for the given number of
// tick rounds on a deterministic bus, starting from the session's
// current allocation. After each round onRound, if non-nil, is invoked
// with the round number and current ΣC_i; returning false stops early
// (Reason "callback"). The reached allocation is adopted into the
// session unless an update landed mid-run. Per-round costs are
// reproducible for a fixed seed. SimulateDistributed runs the same tick
// loop with its improvement rule as the round callback, so from a fresh
// session k rounds reach the allocation SimulateDistributed(k) reaches
// with the same seed, unless that rule stops it before round k.
//
// The session lock is not held while the runtime runs; see Reoptimize.
// Every runtime server keeps an m-length latency row and gossip table,
// and the session materializes its allocation for the run, so RunCluster
// needs O(m²) memory and targets the m≲hundreds regime.
func (s *Session) RunCluster(ctx context.Context, rounds int, onRound func(round int, cost float64) bool, opts ...Option) (*Result, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("delaylb: RunCluster needs rounds >= 1, got %d", rounds)
	}
	s.mu.Lock()
	o := buildOptions(append(append([]Option(nil), s.base...), opts...))
	s.settleLocked()
	in, start, epoch := s.in, &model.Allocation{R: s.alloc.Dense()}, s.epoch
	s.mu.Unlock()
	alloc, done, stopped, _ := runRuntime(ctx, in, start, o.Seed, rounds, onRound)
	// The session adopts the result's sparse rows, which nothing mutates;
	// the dense matrix the bus reached is only the result's Requests view.
	res := resultFromAllocation(in, alloc)
	s.mu.Lock()
	if s.epoch == epoch {
		s.alloc = res.req
	}
	s.mu.Unlock()
	res.Iterations = done
	switch {
	case ctx.Err() != nil:
		res.Reason = "canceled"
	case stopped:
		res.Reason = "callback"
	default:
		// The tick budget ran out: the runtime has no stopping rule of
		// its own, so nothing says it converged.
		res.Reason = "rounds"
	}
	return res, ctx.Err()
}
