package delaylb

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"delaylb/internal/dynamic"
	"delaylb/internal/model"
	"delaylb/internal/runtime"
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
// did not touch. UpdateLoads copies only the load vector; AddServer /
// RemoveServer on a block-latency (NetClustered) instance copy only the
// O(m) per-server vectors and share the k×k metro table, so a churn
// event costs O(m + k²) instead of the O(m²) full-matrix clone of the
// dense path — the property session_alloc_test.go pins.
//
// The allocation itself is carried as sparse rows in request units, so
// UpdateLoads is O(nnz + m) and results stay sparse until a caller
// materializes them. AddServer and RemoveServer only record the edit;
// the next call that reads the allocation (Result, Cost, UpdateLoads,
// Reoptimize, RunCluster) projects every edit recorded since in one
// O(nnz + m) pass, so a burst of churn — a metro outage, a rolling
// restart — pays that pass once rather than once per server. For
// sessions over thousands of servers, pass WithSolver("frankwolfe") or
// the "proxy" MinE variant as a session default at NewSession.
//
// A Session is safe for concurrent use. The lock is released while a
// solve or cluster run is in flight, so observers — including the
// Progress/onRound callbacks themselves — may call Session methods at
// any time; a result computed against a state that was updated mid-run
// is returned but not adopted.
type Session struct {
	mu      sync.Mutex
	in      *model.Instance
	alloc   *sparse.Matrix  // settled allocation, request units; read it through allocLocked
	pending *dynamic.Resize // joins and leaves recorded since alloc was settled
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

// allocLocked settles the pending joins and leaves onto the allocation
// and returns it. A settled matrix is never mutated, so callers may hand
// it to readers outside the lock. Callers hold s.mu.
func (s *Session) allocLocked() *sparse.Matrix {
	if s.pending.Len() > 0 {
		s.alloc = s.pending.Apply(s.alloc)
	}
	return s.alloc
}

// System returns an immutable snapshot of the session's current instance,
// usable with every one-shot entry point (Optimize, NashEquilibrium, …).
func (s *Session) System() *System {
	s.mu.Lock()
	defer s.mu.Unlock()
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
// leave.
func (s *Session) M() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in.M()
}

// Loads returns a copy of the current per-organization loads.
func (s *Session) Loads() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	return resultFromSparseRequests(s.in, s.allocLocked().Clone())
}

// Cost returns ΣC_i of the current allocation under the current loads
// and latencies.
func (s *Session) Cost() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return model.TotalCostSparse(s.in, s.allocLocked())
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
	if len(loads) != s.in.M() {
		return fmt.Errorf("delaylb: UpdateLoads got %d loads, want %d", len(loads), s.in.M())
	}
	for i, n := range loads {
		if n < 0 || math.IsNaN(n) || math.IsInf(n, 0) {
			return fmt.Errorf("delaylb: UpdateLoads load[%d]=%v, must be non-negative and finite", i, n)
		}
	}
	next := &model.Instance{
		Speed:   s.in.Speed,
		Load:    append([]float64(nil), loads...),
		Latency: s.in.Latency,
		Cluster: s.in.Cluster,
	}
	s.alloc = dynamic.Rescale(s.allocLocked(), s.in.Load, next.Load)
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
	m := s.in.M()
	if len(latency) != m {
		return fmt.Errorf("delaylb: UpdateLatency got %d rows, want %d", len(latency), m)
	}
	for i, row := range latency {
		if len(row) != m {
			return fmt.Errorf("delaylb: UpdateLatency row %d has %d entries, want %d", i, len(row), m)
		}
	}
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
	// delays), which is the O(m + k²) fast path. Explicit rows that
	// match the block structure keep it; rows that contradict it densify
	// the session's instance (the newcomer genuinely breaks the metro
	// scheme).
	LatencyTo, LatencyFrom []float64
	// Cluster is the metro label of the new server, used when the
	// session's instance carries cluster labels (NetClustered scenarios).
	Cluster int
}

// AddServer grows the session by one organization, appended at index M().
// The current allocation is carried over: existing organizations keep
// their routing (nobody relays to a server it has not seen), and the
// newcomer starts by serving its own load locally — feasible by
// construction, and the warm start the next Reoptimize improves. The
// instance is updated at once; the allocation projection waits for the
// next read, shared with every join and leave recorded until then.
func (s *Session) AddServer(spec ServerSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.in.WithServer(spec.Speed, spec.Load, spec.LatencyTo, spec.LatencyFrom, spec.Cluster)
	if err != nil {
		return err
	}
	if s.pending.Len() >= s.in.M() {
		s.allocLocked() // keeps the batch O(m) for callers that never read
	}
	s.pending.Join(spec.Load)
	s.in = next
	s.epoch++
	return nil
}

// RemoveServer removes organization i from the session (a rolling
// restart, a failure, an outage). The departing organization's requests
// leave with it; every remaining organization pulls the requests it was
// relaying to the removed server back to its own server, so each
// surviving row still sums to its load — the failover projection of
// internal/dynamic.Resize. Indices above i shift down by one. As with
// AddServer, the instance is updated at once and the allocation
// projection waits for the next read.
func (s *Session) RemoveServer(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.in.WithoutServer(i)
	if err != nil {
		return err
	}
	if s.pending.Len() >= s.in.M() {
		s.allocLocked() // keeps the batch O(m) for callers that never read
	}
	s.pending.Leave(i)
	s.in = next
	s.epoch++
	return nil
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
	in, alloc, epoch := s.in, s.allocLocked(), s.epoch
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
// tick rounds on the same deterministic bus, starting from the session's
// current allocation. After each round onRound, if non-nil, is invoked
// with the round number and current ΣC_i; returning false stops early
// (Reason "callback"). The reached allocation is adopted into the
// session unless an update landed mid-run. Per-round costs are
// reproducible for a fixed seed. From a fresh session, k rounds reach
// the allocation SimulateDistributed(k) reaches with the same seed,
// unless its improvement rule stops it before round k.
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
	in, start, epoch := s.in, &model.Allocation{R: s.allocLocked().Dense()}, s.epoch
	s.mu.Unlock()
	bus := runtime.NewSimBusFromAllocation(in, start, runtimeMinGain(in), o.Seed)
	done := 0
	stopped := false
	for r := 1; r <= rounds; r++ {
		if ctx.Err() != nil {
			break
		}
		bus.Tick()
		done = r
		if onRound != nil && !onRound(r, bus.Cost(in)) {
			stopped = true
			break
		}
	}
	// The session adopts the result's sparse rows, which nothing mutates;
	// the dense matrix the bus reached is only the result's Requests view.
	res := resultFromAllocation(in, bus.Allocation())
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
		res.Converged = true
		res.Reason = "rounds"
	}
	return res, ctx.Err()
}
