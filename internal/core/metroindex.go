package core

import (
	"cmp"
	"math"
	"slices"

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
// own with the subtree's β extremes; in server-index order a high node
// paired the metro's fastest speed with its lowest β, and the node count
// per query grew linearly in m.
//
// A query computes each metro's thresholds once, slack included, and
// pushes the metro roots whose bound passes, strongest on top. From a
// popped node it walks down in place: at each internal node it bounds
// both children (nodeUB, inlined), pushes the weaker if it passes and
// steps into the stronger, and at the leaf scores ProxyGain from the
// metro table and the state's loads. Best passes RunState's noise floor
// minGain, so subtrees that can only yield picks RunState discards are
// never entered. On the zipf scale scenarios (k = 8, 12, 8, 8; seeds
// 1–5, whole cold proxy solves of 4 iterations) a query at
// m = 500 / 1100 / 2000 / 5000 visits 6.0 / 18.8 / 11.6 / 16.6 nodes,
// computes 18.4 / 46.6 / 28.9 / 38.3 bounds and scores 0.8 / 1.5 / 1.2 /
// 1.4 leaves. The work sits in the first iteration from the identity,
// where every server is far from balance: 17 / 54 / 34 / 49 nodes and
// 38 / 112 / 70 / 99 bounds per query, 71–75% of a solve's nodes. Worst
// case (adversarially tied instances) is still the full scan, exact
// either way.

// MetroIndex accelerates proxy/hybrid partner searches on block-backed
// instances. It must be kept in sync with the state's load vector: Rebuild
// keeps the slice it is given, and UpdateLoad reports each changed
// entry; queries are exact with respect to those loads.
type MetroIndex struct {
	labels []int
	delay  [][]float64
	speed  []float64
	loads  []float64 // the load vector last passed to Rebuild, read at the leaves
	beta   []float64 // load/speed per server
	trees  []*metroTree
	pos    []int32 // server -> leaf slot in its metro's tree

	metros []metroQuery      // one query's per-metro thresholds and delays
	stack  []boundEntry      // scratch for the depth-first search
	top    []scoredCandidate // the best candidates found by a search
	heads  []metroHead       // scratch for nearest-neighbour merges

	// searches counts the partner searches run and nodes the tree nodes
	// they visited: telemetry only, never read by a search.
	searches, nodes int64
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
	noise      float64 // maxS·(minB² + maxB²), nodeUB's rounding-noise term
}

// newNode summarizes a subtree from its extremes, noise term included.
func newNode(maxS, minB, maxB float64) metroNode {
	return metroNode{maxS: maxS, minB: minB, maxB: maxB, noise: maxS * (minB*minB + maxB*maxB)}
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
		metros: make([]metroQuery, k),
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
		t.leaves = slices.Clone(t.members)
		slices.SortStableFunc(t.leaves, func(x, y int32) int { return cmp.Compare(in.Speed[y], in.Speed[x]) })
		for s, j := range t.leaves {
			mi.pos[j] = int32(s)
		}
		t.nodes = make([]metroNode, 2*t.n)
	}
	return mi
}

// Rebuild refreshes every β from the given loads (O(m)) and keeps the
// slice: the leaves read the loads from it, so the caller updates it in
// place and reports every changed entry through UpdateLoad.
func (mi *MetroIndex) Rebuild(loads []float64) {
	mi.loads = loads
	for j := range mi.beta {
		mi.beta[j] = loads[j] / mi.speed[j]
	}
	for _, t := range mi.trees {
		if t == nil {
			continue
		}
		for s, j := range t.leaves {
			t.nodes[t.n+s] = newNode(mi.speed[j], mi.beta[j], mi.beta[j])
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
	t.nodes[v] = newNode(mi.speed[j], mi.beta[j], mi.beta[j])
	for v >>= 1; v >= 1; v >>= 1 {
		t.pull(v)
	}
}

// pull recomputes internal node v from its two children; in the
// bottom-up layout every internal node v < n has both.
func (t *metroTree) pull(v int) {
	l, r := &t.nodes[2*v], &t.nodes[2*v+1]
	t.nodes[v] = newNode(max(l.maxS, r.maxS), min(l.minB, r.minB), max(l.maxB, r.maxB))
}

// metroQuery holds what one search needs of metro h: the query
// server's delays to and from it and its two direction thresholds,
// slack applied (see thresholds).
type metroQuery struct {
	cOut, cIn float64
	a, b      float64
}

// boundEntry is a segment-tree node waiting on the search stack.
type boundEntry struct {
	ub   float64
	h    int32 // metro
	node int32 // segment-tree node id
}

// ubSlack inflates upper bounds by one part in 10⁹ so that a bound
// computed in a different floating-point order can never prune the exact
// gain it is supposed to dominate.
const ubSlack = 1 + 1e-9

// thresholds returns the direction thresholds of a query from a server
// of load/speed bi to a metro whose β values all lie in [−bmax, bmax]:
// A = bi − cOut for moving load to a candidate and B = bi + cIn for
// pulling load from one. Each carries an absolute slack of
// 1e-9·(|bi| + c + bmax + 1), at least the 1e-9·(|A or B| + |β| + 1)
// that keeps the β-space bound from disagreeing, by float rounding,
// with the request-space sign test inside ProxyGain near zero. A
// forbidden direction (+Inf delay) gets A = −Inf or B = +Inf, with a
// finite slack, so its gap in nodeUB is −Inf, never NaN.
func thresholds(bi, cOut, cIn, bmax float64) (a, b float64) {
	s := 1e-9 * (math.Abs(bi) + bmax + 1)
	return bi - cOut + (s + 1e-9*min(cOut, math.MaxFloat64)), bi + cIn - (s + 1e-9*min(cIn, math.MaxFloat64))
}

// nodeUB bounds the proxy gain of every member of a subtree for a query
// with thresholds a and b from thresholds. si is the querying server's
// speed and ei = s_i·β_i². The larger of the two direction gaps gives
// the larger bound, since both share one harmonic speed.
func nodeUB(nd *metroNode, si, ei, a, b float64) float64 {
	d := a - nd.minB
	if db := nd.maxB - b; db > d {
		d = db
	}
	if d <= 0 {
		return 0
	}
	h := si * nd.maxS / (si + nd.maxS)
	// ProxyGain takes a difference of costs of size (s_i·β_i² +
	// s_j·β_j²)/2, rounded to a few ulps; on a pair just balanced that
	// noise is the whole gain, and the bound must dominate it too.
	return 0.5*h*d*d*ubSlack + 1e-14*(ei+nd.noise)
}

// scoredCandidate records one exactly-evaluated candidate.
type scoredCandidate struct {
	j    int32
	gain float64
}

// search runs the depth-first branch-and-bound for server id, scoring
// the leaves with ProxyGain on the metro table and the loads, and
// returns the best `want` candidates by (gain desc, index asc) — the
// order the plain ascending-j scans encode. Only gains above floor
// (taken as 0 when negative) are collected, and a node is dropped when
// its bound is at most floor or below the want-th best gain collected so
// far, so every candidate that ties the final cutoff is still visited
// and the smallest indices win. Callers treat "nothing above the floor"
// separately, exactly like the plain scans treat "nothing positive".
//
// At an internal node the search pushes the weaker child, if it passes,
// and walks on into the stronger one: the visit order of pushing both
// and popping the stronger at once, without its stack traffic.
func (mi *MetroIndex) search(id, want int, floor float64) []scoredCandidate {
	floor = max(floor, 0)
	si, li := mi.speed[id], mi.loads[id]
	bi := mi.beta[id]
	ei := si * bi * bi
	gi := mi.labels[id]
	drow := mi.delay[gi]
	mi.stack = mi.stack[:0]
	mi.top = mi.top[:0]
	visited := int64(0)
	for h, t := range mi.trees {
		if t == nil {
			continue
		}
		q := &mi.metros[h]
		root := &t.nodes[1]
		q.cOut, q.cIn = drow[h], mi.delay[h][gi]
		q.a, q.b = thresholds(bi, q.cOut, q.cIn, max(root.maxB, -root.minB))
		if ub := nodeUB(root, si, ei, q.a, q.b); ub > floor {
			// Ascending bound order: the strongest metro is popped first.
			p := len(mi.stack)
			mi.stack = append(mi.stack, boundEntry{})
			for ; p > 0 && mi.stack[p-1].ub > ub; p-- {
				mi.stack[p] = mi.stack[p-1]
			}
			mi.stack[p] = boundEntry{ub: ub, h: int32(h), node: 1}
		}
	}
	var cut float64 // the want-th best gain so far; 0 until there are want
pop:
	for len(mi.stack) > 0 {
		e := mi.stack[len(mi.stack)-1]
		mi.stack = mi.stack[:len(mi.stack)-1]
		if e.ub < cut {
			continue
		}
		t, q := mi.trees[e.h], &mi.metros[e.h]
		v := int(e.node)
		for v < t.n {
			visited++
			l, r := 2*v, 2*v+1
			ul, ur := nodeUB(&t.nodes[l], si, ei, q.a, q.b), nodeUB(&t.nodes[r], si, ei, q.a, q.b)
			if ul > ur {
				l, r, ul, ur = r, l, ur, ul
			}
			if !(ur > floor && ur >= cut) {
				continue pop // the weaker child fails too
			}
			if ul > floor && ul >= cut {
				mi.stack = append(mi.stack, boundEntry{ub: ul, h: e.h, node: int32(l)})
			}
			v = r
		}
		visited++
		j := t.leaves[v-t.n]
		if int(j) == id {
			continue
		}
		if g := ProxyGain(si, mi.speed[j], li, mi.loads[j], q.cOut, q.cIn); g > floor && g >= cut {
			cut = mi.offer(scoredCandidate{j: j, gain: g}, want)
		}
	}
	mi.searches++
	mi.nodes += visited
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
// the unbucketed bestProxy scan would pick — when its proxy gain exceeds
// floor, and (-1, 0) otherwise. RunState passes its noise threshold
// minGain, below which it discards a pick anyway, so the search skips
// every subtree that can only yield such picks; a floor of 0 asks for
// any positive gain.
func (mi *MetroIndex) Best(id int, floor float64) (int, float64) {
	cand := mi.search(id, 1, floor)
	if len(cand) == 0 {
		return -1, 0
	}
	return int(cand[0].j), cand[0].gain
}

// AppendTopProxy appends the indices of the (up to) k best candidates by
// exact proxy gain — the same list the unbucketed appendTopK produces,
// including its padding with zero and negative scores.
func (mi *MetroIndex) AppendTopProxy(dst []int, id, k int) []int {
	start := len(dst)
	for _, c := range mi.search(id, k, 0) {
		dst = append(dst, int(c.j))
	}
	// The unbucketed appendTopK ranks every finite score (ProxyGain
	// never returns −Inf, forbidden metros included). With fewer than k
	// positive gains the tail takes zero gains in ascending index order,
	// because its insertion sort keeps equal keys in scan order, then
	// negative ones: ProxyGain rounds to a tiny negative on a pair the
	// Lemma 1 step has just balanced. Positives are already in dst.
	mi.top = mi.top[:0]
	si, li, gi := mi.speed[id], mi.loads[id], mi.labels[id]
	for j := 0; len(dst)-start < k && j < len(mi.labels); j++ {
		if j == id {
			continue
		}
		h := mi.labels[j]
		if g := ProxyGain(si, mi.speed[j], li, mi.loads[j], mi.delay[gi][h], mi.delay[h][gi]); g == 0 {
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
