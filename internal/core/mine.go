package core

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"delaylb/internal/model"
)

// Strategy selects how a server picks its partner in Algorithm 2.
type Strategy int

const (
	// StrategyExact evaluates impr(id, j) for every candidate partner by
	// simulating Algorithm 1, exactly as written in the paper. Cost:
	// O(m² log m) per server step.
	StrategyExact Strategy = iota
	// StrategyProxy scores partners with a closed-form O(1) estimate
	// (the Lemma 1 improvement for an aggregate transfer at latency
	// c_ij) and runs Algorithm 1 only on the winner. Cost: O(m log m)
	// per server step. Used for the very large networks of Figure 2. On
	// block-backed instances the partner search runs on the metro index
	// (metroindex.go) instead of the O(m) scan, with the same picks.
	StrategyProxy
	// StrategyHybrid short-lists the top-K partners by the proxy score
	// and evaluates those exactly; its shortlists use the metro index
	// the same way.
	StrategyHybrid
)

// hybridK is the StrategyHybrid short-list size: K partners by proxy
// score, K nearest and K random.
const hybridK = 8

// Config tunes a MinE run. The zero value runs the exact strategy until
// pairwise stability with a 1000-iteration safety bound. A pairwise
// exchange whose estimated gain is at most 1e-9·max(1, initial cost) is
// noise and is skipped.
type Config struct {
	// Strategy picks the partner-selection rule (default StrategyExact).
	Strategy Strategy
	// MaxIters bounds the number of iterations (default 1000). One
	// iteration gives every server one Algorithm 2 step, in random
	// order (§VI-B).
	MaxIters int
	// Reference, if positive, is a known (approximate) optimal cost;
	// the run stops once cost ≤ Reference·(1+TargetRel).
	Reference float64
	// TargetRel is the relative error target against Reference
	// (default 0, meaning stop only at stability).
	TargetRel float64
	// RemoveCyclesEvery, if positive, runs the Appendix A negative-cycle
	// removal after every that many iterations (§VI-B compares 0 vs 2).
	RemoveCyclesEvery int
	// Rng drives the per-iteration random server ordering. Defaults to
	// a fixed-seed source for reproducibility.
	Rng *rand.Rand
	// OnIteration, if non-nil, is called after each iteration with the
	// 1-based iteration number and current cost; returning false stops
	// the run early.
	OnIteration func(iter int, cost float64) bool
	// Ctx, if non-nil, is polled between server steps; once it is
	// canceled the run stops with StopCanceled and Converged == false,
	// leaving the allocation at its best-so-far state.
	Ctx context.Context
}

// StopReason says why a MinE run ended.
type StopReason string

const (
	// StopStable: a full iteration made no accepted transfer; the
	// allocation is pairwise stable and hence optimal (§IV-A).
	StopStable StopReason = "stable"
	// StopTarget: the cost reached Reference·(1+TargetRel).
	StopTarget StopReason = "target"
	// StopMaxIters: the iteration bound was hit.
	StopMaxIters StopReason = "max-iters"
	// StopCallback: the OnIteration callback requested a stop.
	StopCallback StopReason = "callback"
	// StopCanceled: the Config.Ctx context was canceled mid-run.
	StopCanceled StopReason = "canceled"
)

// Trace records the trajectory of a MinE run: Costs[0] is the initial
// ΣC_i and Costs[k] the cost after iteration k, so Iters == len(Costs)−1.
type Trace struct {
	Costs     []float64
	Moved     []float64 // request volume exchanged per iteration
	Iters     int
	Reason    StopReason
	Converged bool // false when stopped by MaxIters or by cancellation
	// Searches counts the metro-index partner searches the run made and
	// SearchNodes the tree nodes they visited; both stay 0 when the
	// index is off (exact strategy, or a view that is not block-backed).
	Searches, SearchNodes int64
}

// Run creates an identity allocation for the instance and optimizes it
// with MinE under cfg, returning the final allocation, densified, and
// the trace. Meant for the small-m paper tables and figures, which want
// the m×m matrix; at scale, use RunState on a State and keep its rows.
func Run(in *model.Instance, cfg Config) (*model.Allocation, *Trace) {
	st := NewIdentityState(in)
	tr := RunState(st, cfg)
	return &model.Allocation{R: st.Rows().Dense()}, tr
}

// RunState optimizes an existing state in place.
func RunState(st *State, cfg Config) *Trace {
	in := st.In
	m := in.M()
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 1000
	}
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(1))
	}
	cost := st.Cost()
	minGain := 1e-9 * math.Max(1, cost)
	tr := &Trace{Costs: []float64{cost}, Reason: StopMaxIters}

	sel := newSelector(st, cfg)
	defer sel.tally(tr)
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		var movedTotal float64
		accepted := 0
		for _, id := range cfg.Rng.Perm(m) {
			if model.Canceled(cfg.Ctx) {
				tr.Reason = StopCanceled
				return tr
			}
			partner, gain := sel.pick(id, minGain)
			if partner < 0 || gain <= minGain {
				continue
			}
			out := ApplyPair(st, id, partner, sel.buf)
			// A pair that moves nothing is not an exchange, whatever
			// gain the float folds report: the local cost before and
			// after are summed in different orders, so a no-op step can
			// show a gain of a few ulps and would stall the stable stop.
			if out.Moved > 0 && out.Gain > 0 {
				cost -= out.Gain
				movedTotal += out.Moved
				accepted++
			}
			sel.noteLoads(id, partner)
		}
		if cfg.RemoveCyclesEvery > 0 && iter%cfg.RemoveCyclesEvery == 0 {
			cost -= RemoveCycles(st)
			if sel.metro != nil {
				// Cycle removal preserves per-server loads, but re-sync
				// defensively: the rebuild is O(m), once per removal pass.
				sel.metro.Rebuild(st.Loads)
			}
		}
		// Recompute the cost exactly every iteration to avoid float
		// drift in long runs.
		cost = st.Cost()
		tr.Costs = append(tr.Costs, cost)
		tr.Moved = append(tr.Moved, movedTotal)
		tr.Iters = iter

		if cfg.OnIteration != nil && !cfg.OnIteration(iter, cost) {
			tr.Reason, tr.Converged = StopCallback, true
			return tr
		}
		if cfg.Reference > 0 && cost <= cfg.Reference*(1+cfg.TargetRel) {
			tr.Reason, tr.Converged = StopTarget, true
			return tr
		}
		if accepted == 0 {
			tr.Reason, tr.Converged = StopStable, true
			return tr
		}
	}
	return tr
}

// ReferenceOptimum computes the reference optimal cost the experiments
// measure against, by running the exact strategy until pairwise
// stability — the paper approximates the optimum the same way (§VI-A),
// since pairwise stability implies global optimality for this convex
// program.
func ReferenceOptimum(in *model.Instance, rng *rand.Rand) float64 {
	st := NewIdentityState(in)
	RunState(st, Config{Strategy: StrategyExact, MaxIters: 10000, Rng: rng})
	return st.Cost()
}

// selector implements the three partner-selection strategies with shared
// scratch buffers.
type selector struct {
	st     *State
	cfg    Config
	buf    *pairBuffer
	cand   []int       // scratch for hybrid short-lists
	rowBuf []float64   // scratch for block-view latency rows
	metro  *MetroIndex // nil: the plain O(m) scans
}

func newSelector(st *State, cfg Config) *selector {
	s := &selector{st: st, cfg: cfg, buf: newPairBuffer(st.In.M()), rowBuf: make([]float64, st.In.M())}
	if cfg.Strategy == StrategyProxy || cfg.Strategy == StrategyHybrid {
		if s.metro = NewMetroIndex(st.In); s.metro != nil { // nil: view not block-backed
			s.metro.Rebuild(st.Loads)
		}
	}
	return s
}

// pick returns the chosen partner for server id and the (estimated or
// exact) gain, or (-1, 0) when no partner improves. floor is the gain
// at or below which the caller discards a pick; the metro-index search
// may answer (-1, 0) for such picks instead.
func (s *selector) pick(id int, floor float64) (int, float64) {
	switch s.cfg.Strategy {
	case StrategyProxy:
		if s.metro != nil {
			return s.metro.Best(id, floor)
		}
		j, gain := s.bestProxy(id)
		return j, gain
	case StrategyHybrid:
		return s.bestHybrid(id)
	default:
		return s.bestExact(id)
	}
}

// tally copies the metro index's search counts onto the trace.
func (s *selector) tally(tr *Trace) {
	if s.metro != nil {
		tr.Searches, tr.SearchNodes = s.metro.searches, s.metro.nodes
	}
}

// noteLoads re-syncs the metro index after the loads of servers i and j
// changed (an accepted pairwise transfer).
func (s *selector) noteLoads(i, j int) {
	if s.metro == nil {
		return
	}
	s.metro.UpdateLoad(i, s.st.Loads[i])
	s.metro.UpdateLoad(j, s.st.Loads[j])
}

// bestExact is Algorithm 2 verbatim: argmax_j impr(id, j).
func (s *selector) bestExact(id int) (int, float64) {
	bestJ, bestGain := -1, 0.0
	for j := 0; j < s.st.In.M(); j++ {
		if j == id {
			continue
		}
		out := EvaluatePair(s.st, id, j, s.buf)
		if out.Gain > bestGain {
			bestGain, bestJ = out.Gain, j
		}
	}
	return bestJ, bestGain
}

// proxyGain is ProxyGain for servers i and j of the state.
func (s *selector) proxyGain(i, j int) float64 {
	in := s.st.In
	return ProxyGain(in.Speed[i], in.Speed[j], s.st.Loads[i], s.st.Loads[j], in.LatAt(i, j), in.LatAt(j, i))
}

// ProxyGain estimates impr(i, j) in O(1) from the speeds and loads of
// servers i and j: the improvement from moving the Lemma 1 aggregate
// amount between them in the better direction, pricing every moved
// request at the direct latency cij from i to j, or cji from j to i. An
// infinite latency closes its direction. The estimate ignores
// third-party latency structure, which the exact evaluation accounts
// for.
func ProxyGain(si, sj, li, lj, cij, cji float64) float64 {
	gain := 0.0
	if !math.IsInf(cij, 1) {
		if d := ((sj*li - si*lj) - si*sj*cij) / (si + sj); d > 0 {
			dd := math.Min(d, li)
			gain = quadGain(si, sj, li, lj, cij, dd)
		}
	}
	if !math.IsInf(cji, 1) {
		if d := ((si*lj - sj*li) - si*sj*cji) / (si + sj); d > 0 {
			dd := math.Min(d, lj)
			if g := quadGain(sj, si, lj, li, cji, dd); g > gain {
				gain = g
			}
		}
	}
	return gain
}

// quadGain is the decrease of l_i²/2s_i + l_j²/2s_j + c·Δ when Δ moves
// from i to j.
func quadGain(si, sj, li, lj, c, d float64) float64 {
	before := li*li/(2*si) + lj*lj/(2*sj)
	after := (li-d)*(li-d)/(2*si) + (lj+d)*(lj+d)/(2*sj) + c*d
	return before - after
}

func (s *selector) bestProxy(id int) (int, float64) {
	bestJ, bestGain := -1, 0.0
	for j := 0; j < s.st.In.M(); j++ {
		if j == id {
			continue
		}
		if g := s.proxyGain(id, j); g > bestGain {
			bestGain, bestJ = g, j
		}
	}
	return bestJ, bestGain
}

// bestHybrid evaluates exactly a short-list of candidates: the top-K
// partners by proxy score, the K lowest-latency neighbors (third-party
// rerouting gains concentrate on nearby servers, which the load-only
// proxy cannot see) and K random partners for coverage.
func (s *selector) bestHybrid(id int) (int, float64) {
	k := hybridK
	m := s.st.In.M()
	s.cand = s.cand[:0]
	if s.metro != nil {
		s.cand = s.metro.AppendTopProxy(s.cand, id, k)
		s.cand = s.metro.AppendNearest(s.cand, id, k)
	} else {
		s.cand = appendTopK(s.cand, k, m, id, func(j int) float64 {
			return s.proxyGain(id, j)
		})
		lat := model.RowView(s.st.In.Latency, id, s.rowBuf)
		s.cand = appendTopK(s.cand, k, m, id, func(j int) float64 {
			if math.IsInf(lat[j], 1) {
				return math.Inf(-1)
			}
			return -lat[j]
		})
	}
	for i := 0; i < k; i++ {
		if j := s.cfg.Rng.Intn(m); j != id {
			s.cand = append(s.cand, j)
		}
	}
	// The short-list holds at most 3·hybridK entries, so a prefix scan
	// skips repeats without a set.
	bestJ, bestGain := -1, 0.0
	for x, j := range s.cand {
		if slices.Contains(s.cand[:x], j) {
			continue
		}
		out := EvaluatePair(s.st, id, j, s.buf)
		if out.Gain > bestGain {
			bestGain, bestJ = out.Gain, j
		}
	}
	return bestJ, bestGain
}

// appendTopK appends to dst the (up to) k indices j ≠ id with the largest
// score(j), skipping −Inf scores. For k ≤ hybridK the ranking lives on
// the stack.
func appendTopK(dst []int, k, m, id int, score func(int) float64) []int {
	type scored struct {
		j    int
		gain float64
	}
	var buf [hybridK + 1]scored
	top := buf[:0]
	for j := 0; j < m; j++ {
		if j == id {
			continue
		}
		g := score(j)
		if math.IsInf(g, -1) {
			continue
		}
		pos := len(top)
		for pos > 0 && top[pos-1].gain < g {
			pos--
		}
		if pos < k {
			top = append(top, scored{})
			copy(top[pos+1:], top[pos:])
			top[pos] = scored{j: j, gain: g}
			if len(top) > k {
				top = top[:k]
			}
		}
	}
	for _, c := range top {
		dst = append(dst, c.j)
	}
	return dst
}
