package core

import (
	"math"
	"sort"

	"delaylb/internal/model"
)

// This file implements the metro-bucketed candidate index for the proxy
// and hybrid partner searches. Without it, every Algorithm 2 server step
// scans all m−1 candidate partners even though the proxy score of a
// candidate j depends on j only through its metro (the latency term) and
// its (speed, load) pair. On a BlockLatency-backed instance the index
// answers the same argmax exactly — bit-identical partners and gains,
// pinned by metroindex_test.go — by branch-and-bound instead of
// enumeration.
//
// The key identity: for a transfer from server i to a candidate j at
// latency c, the unclamped Lemma 1 improvement is
//
//	gain = ½ · H(s_j) · (A − β_j)²   with A = β_i − c, β = load/speed,
//	H(s) = s_i·s_j/(s_i + s_j),
//
// which is increasing in s_j and decreasing in β_j (for A > β_j), and the
// load-clamped gain inherits both monotonicities. A segment-tree node
// storing (max s, min β, max β) over its members therefore yields a valid
// upper bound for both transfer directions, and a depth-first
// branch-and-bound over those nodes finds the exact argmax.
//
// Each metro's leaves are ordered by descending speed, so a subtree spans
// a narrow speed band and its bound pairs a speed close to every member's
// own with the subtree's β extremes. In server-index order a high node
// paired the metro's fastest speed with its lowest β, loose enough that
// a proxy solve on the zipf scale scenarios (k = 8, 12, 8, 8) popped
// 15 / 37 / 72 / 184 nodes per query at m = 500 / 1100 / 2000 / 5000,
// linear in m. In speed order the same solves pop 14 / 27 / 33 / 52,
// evaluating 1.2 / 1.8 / 2.4 / 3.4 leaves. Worst case (adversarially
// tied instances) is still the full scan, exact either way.

// MetroIndex accelerates proxy/hybrid partner searches on block-backed
// instances. It must be kept in sync with the state's load vector via
// UpdateLoad; queries are exact with respect to the loads last pushed.
type MetroIndex struct {
	labels []int
	delay  [][]float64
	speed  []float64
	beta   []float64 // load/speed per server
	trees  []*metroTree
	pos    []int32 // server -> leaf slot in its metro's tree

	stack []boundEntry      // scratch for the depth-first search
	top   []scoredCandidate // the best candidates found by a search
	heads []metroHead       // scratch for nearest-neighbour merges
}

// metroTree is an array-backed segment tree over one metro's members.
type metroTree struct {
	members []int32 // ascending server indices
	leaves  []int32 // members by descending speed, ties by index: leaf order
	n       int
	nodes   []metroNode // 1-based heap layout, leaves at [n, 2n)
}

// metroNode summarizes one subtree.
type metroNode struct {
	maxS       float64 // max speed (static)
	minB, maxB float64 // β extremes
}

// NewMetroIndex builds the index from the instance's block view and an
// all-zero load vector; call Rebuild with the real loads before use. It
// returns nil when the instance is not block-backed — callers fall back
// to the plain scan.
func NewMetroIndex(in *model.Instance) *MetroIndex {
	b, ok := in.Latency.(*model.BlockLatency)
	if !ok {
		return nil
	}
	m := in.M()
	k := b.K()
	mi := &MetroIndex{
		labels: b.Label,
		delay:  b.Delay,
		speed:  in.Speed,
		beta:   make([]float64, m),
		trees:  make([]*metroTree, k),
		pos:    make([]int32, m),
	}
	counts := make([]int, k)
	for _, g := range b.Label {
		counts[g]++
	}
	for g := 0; g < k; g++ {
		if counts[g] == 0 {
			continue
		}
		mi.trees[g] = &metroTree{members: make([]int32, 0, counts[g])}
	}
	for j, g := range b.Label { // ascending j: members stay sorted
		t := mi.trees[g]
		t.members = append(t.members, int32(j))
	}
	for _, t := range mi.trees {
		if t == nil {
			continue
		}
		t.n = len(t.members)
		t.leaves = append([]int32(nil), t.members...)
		sort.SliceStable(t.leaves, func(x, y int) bool { return in.Speed[t.leaves[x]] > in.Speed[t.leaves[y]] })
		for s, j := range t.leaves {
			mi.pos[j] = int32(s)
		}
		t.nodes = make([]metroNode, 2*t.n)
	}
	return mi
}

// Rebuild refreshes every β from the given loads (O(m)).
func (mi *MetroIndex) Rebuild(loads []float64) {
	for j := range mi.beta {
		mi.beta[j] = loads[j] / mi.speed[j]
	}
	for _, t := range mi.trees {
		if t == nil {
			continue
		}
		for s, j := range t.leaves {
			t.nodes[t.n+s] = metroNode{maxS: mi.speed[j], minB: mi.beta[j], maxB: mi.beta[j]}
		}
		for v := t.n - 1; v >= 1; v-- {
			t.pull(v)
		}
	}
}

// UpdateLoad refreshes server j's β after its load changed (O(log w)).
func (mi *MetroIndex) UpdateLoad(j int, load float64) {
	mi.beta[j] = load / mi.speed[j]
	t := mi.trees[mi.labels[j]]
	v := t.n + int(mi.pos[j])
	t.nodes[v].minB, t.nodes[v].maxB = mi.beta[j], mi.beta[j]
	for v >>= 1; v >= 1; v >>= 1 {
		t.pull(v)
	}
}

// pull recomputes internal node v from its two children; in the
// bottom-up layout every internal node v < n has both.
func (t *metroTree) pull(v int) {
	l, r := &t.nodes[2*v], &t.nodes[2*v+1]
	t.nodes[v] = metroNode{maxS: max(l.maxS, r.maxS), minB: min(l.minB, r.minB), maxB: max(l.maxB, r.maxB)}
}

// boundEntry is one segment-tree node (or root) on the search stack.
type boundEntry struct {
	ub   float64
	tree *metroTree
	node int     // segment-tree node id
	a, b float64 // direction thresholds A (outgoing) and B (incoming)
}

// ubSlack inflates upper bounds by one part in 10⁹ so that a bound
// computed in a different floating-point order can never prune the exact
// gain it is supposed to dominate.
const ubSlack = 1 + 1e-9

// nodeUB bounds the proxy gain of every member of a subtree for a query
// with outgoing threshold A (= β_id − c_out, moving load to the
// candidate) and incoming threshold B (= β_id + c_in, pulling load from
// the candidate). si is the querying server's speed and ei = s_i·β_i².
func nodeUB(t *metroTree, v int, si, ei, a, b float64) float64 {
	nd := &t.nodes[v]
	h := si * nd.maxS / (si + nd.maxS)
	var ub float64
	// The absolute slack keeps thresholds computed here (β-space) from
	// disagreeing, by float rounding, with the request-space sign test
	// inside proxyGain near d = 0.
	if d := a - nd.minB + 1e-9*(math.Abs(a)+math.Abs(nd.minB)+1); d > 0 {
		ub = 0.5 * h * d * d
	}
	if d := nd.maxB - b + 1e-9*(math.Abs(b)+math.Abs(nd.maxB)+1); d > 0 {
		ub = max(ub, 0.5*h*d*d)
	}
	if ub == 0 {
		return 0
	}
	// proxyGain takes a difference of costs of size (s_i·β_i² +
	// s_j·β_j²)/2, rounded to a few ulps; on a pair just balanced that
	// noise is the whole gain, and the bound must dominate it too.
	return ub*ubSlack + 1e-14*(ei+nd.maxS*(nd.minB*nd.minB+nd.maxB*nd.maxB))
}

// scoredCandidate records one exactly-evaluated candidate.
type scoredCandidate struct {
	j    int32
	gain float64
}

// search runs the depth-first branch-and-bound for server id, invoking
// gainFn (the selector's exact proxyGain) at the leaves, and returns the
// best `want` candidates by (gain desc, index asc) — the order the plain
// ascending-j scans encode. A node is dropped only when its bound is
// below the want-th best gain collected so far, so every candidate that
// ties the final cutoff is still visited and the smallest indices win.
// Candidates with gain 0 are not collected; the callers treat "nothing
// positive" separately, exactly like the plain scans.
func (mi *MetroIndex) search(id, want int, gainFn func(id, j int) float64) []scoredCandidate {
	si := mi.speed[id]
	bi := mi.beta[id]
	ei := si * bi * bi
	gi := mi.labels[id]
	drow := mi.delay[gi]
	mi.stack = mi.stack[:0]
	mi.top = mi.top[:0]
	for h, t := range mi.trees {
		if t == nil {
			continue
		}
		cOut, cIn := drow[h], mi.delay[h][gi]
		a, b := math.Inf(-1), math.Inf(1)
		if !math.IsInf(cOut, 1) {
			a = bi - cOut
		}
		if !math.IsInf(cIn, 1) {
			b = bi + cIn
		}
		if ub := nodeUB(t, 1, si, ei, a, b); ub > 0 {
			// Ascending bound order: the strongest metro is popped first.
			p := len(mi.stack)
			mi.stack = append(mi.stack, boundEntry{})
			for ; p > 0 && mi.stack[p-1].ub > ub; p-- {
				mi.stack[p] = mi.stack[p-1]
			}
			mi.stack[p] = boundEntry{ub: ub, tree: t, node: 1, a: a, b: b}
		}
	}
	var cut float64 // the want-th best gain so far; 0 until there are want
	for len(mi.stack) > 0 {
		e := mi.stack[len(mi.stack)-1]
		mi.stack = mi.stack[:len(mi.stack)-1]
		if e.ub < cut {
			continue
		}
		t := e.tree
		if e.node >= t.n { // leaf
			j := t.leaves[e.node-t.n]
			if int(j) == id {
				continue
			}
			if g := gainFn(id, int(j)); g > 0 && g >= cut {
				cut = mi.offer(scoredCandidate{j: j, gain: g}, want)
			}
			continue
		}
		// Push the weaker child first so the stronger one is explored
		// first and raises the cutoff sooner.
		l, r := 2*e.node, 2*e.node+1
		ul, ur := nodeUB(t, l, si, ei, e.a, e.b), nodeUB(t, r, si, ei, e.a, e.b)
		if ul > ur {
			l, r, ul, ur = r, l, ur, ul
		}
		if ul > 0 && ul >= cut {
			mi.stack = append(mi.stack, boundEntry{ub: ul, tree: t, node: l, a: e.a, b: e.b})
		}
		if ur > 0 && ur >= cut {
			mi.stack = append(mi.stack, boundEntry{ub: ur, tree: t, node: r, a: e.a, b: e.b})
		}
	}
	return mi.top
}

// offer inserts c into the top list, kept in (gain desc, index asc) order
// and at most want long, and returns the want-th best gain, or 0 while
// the list holds fewer.
func (mi *MetroIndex) offer(c scoredCandidate, want int) float64 {
	top := mi.top
	p := len(top)
	for p > 0 && (top[p-1].gain < c.gain || top[p-1].gain == c.gain && top[p-1].j > c.j) {
		p--
	}
	if p < want {
		if len(top) < want {
			top = append(top, c)
		}
		copy(top[p+1:], top[p:len(top)-1])
		top[p] = c
	}
	mi.top = top
	if len(top) < want {
		return 0
	}
	return top[want-1].gain
}

// Best returns the exact argmax candidate for server id — the partner
// the unbucketed bestProxy scan would pick — or (-1, 0) when no partner
// has positive proxy gain.
func (mi *MetroIndex) Best(id int, gainFn func(id, j int) float64) (int, float64) {
	cand := mi.search(id, 1, gainFn)
	if len(cand) == 0 {
		return -1, 0
	}
	return int(cand[0].j), cand[0].gain
}

// AppendTopProxy appends the indices of the (up to) k best candidates by
// exact proxy gain — the same list the unbucketed appendTopK produces,
// including its padding with zero and negative scores.
func (mi *MetroIndex) AppendTopProxy(dst []int, id, k int, gainFn func(id, j int) float64) []int {
	start := len(dst)
	for _, c := range mi.search(id, k, gainFn) {
		dst = append(dst, int(c.j))
	}
	// The unbucketed appendTopK ranks every finite score (proxyGain
	// never returns −Inf, forbidden metros included). With fewer than k
	// positive gains the tail takes zero gains in ascending index order,
	// because its insertion sort keeps equal keys in scan order, then
	// negative ones: proxyGain rounds to a tiny negative on a pair the
	// Lemma 1 step has just balanced. Positives are already in dst.
	mi.top = mi.top[:0]
	for j := 0; len(dst)-start < k && j < len(mi.labels); j++ {
		if j == id {
			continue
		}
		if g := gainFn(id, j); g == 0 {
			dst = append(dst, j)
		} else if g < 0 {
			mi.offer(scoredCandidate{j: int32(j), gain: g}, k)
		}
	}
	for _, c := range mi.top {
		if len(dst)-start == k {
			break
		}
		dst = append(dst, int(c.j))
	}
	return dst
}

// metroHead is one metro's cursor in the nearest-neighbour merge.
type metroHead struct {
	delay float64
	tree  *metroTree
	next  int // next member slot to emit
	skip  int32
}

// AppendNearest appends the (up to) k servers with the smallest latency
// from id — ties by ascending index — reproducing the dense
// appendTopK(-c_ij) shortlist in O(k·K) for K metros instead of O(m).
func (mi *MetroIndex) AppendNearest(dst []int, id, k int) []int {
	gi := mi.labels[id]
	drow := mi.delay[gi]
	mi.heads = mi.heads[:0]
	for h, t := range mi.trees {
		if t == nil || math.IsInf(drow[h], 1) {
			continue
		}
		mi.heads = append(mi.heads, metroHead{delay: drow[h], tree: t, skip: int32(id)})
	}
	// k-way merge by (delay, index): repeatedly take the head with the
	// lexicographically smallest (delay, next member index). Indices are
	// unique across metros, so the heads' order does not matter.
	taken := 0
	for taken < k {
		best := -1
		var bestDelay float64
		var bestIdx int32
		for hi := range mi.heads {
			h := &mi.heads[hi]
			for h.next < h.tree.n && h.tree.members[h.next] == h.skip {
				h.next++
			}
			if h.next >= h.tree.n {
				continue
			}
			idx := h.tree.members[h.next]
			if best < 0 || h.delay < bestDelay || (h.delay == bestDelay && idx < bestIdx) {
				best, bestDelay, bestIdx = hi, h.delay, idx
			}
		}
		if best < 0 {
			break
		}
		mi.heads[best].next++
		dst = append(dst, int(bestIdx))
		taken++
	}
	return dst
}
