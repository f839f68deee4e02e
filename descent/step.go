package descent

// The per-row update rule. Restricted to one organization's row, the
// system objective F(R) = Σ_j l_j²/(2s_j) + Σ_ij c_ij·r_ij is exactly
// quadratic with a diagonal Hessian diag(1/s_j): loads are sums over
// rows, so no cross-terms appear within a row. The natural step is
// therefore a *weighted* prox step — minimize
//
//	Σ_j g_j·δ_j + (1/(2η))·Σ_j δ_j²/s_j
//
// over δ with x = r + δ ≥ 0, Σ x = n_i. At η=1 this is the exact local
// best response (the quadratic model is the true restricted objective),
// and damping η<1 is plain damped Jacobi across concurrently stepping
// rows. The KKT solution has the closed form
//
//	x_j = max(0, η·s_j·(c_j − λ)),   c_j = r_j/(η·s_j) − g_j,
//
// with λ chosen so the row sums to its load — found by the standard
// descending breakpoint scan over the working set W (current support
// plus O(k) metro candidates, never m). The scan only ever reads the
// active prefix plus one coordinate, and W comes in two parts. The
// row's own part — its priced support and its home — is heapified in
// O(|own|). The metro candidates hold no requests from the row (r = 0),
// so their c = −g_j depends only on the home metro: the actor keys them
// once per round and sorts them in scan order (keyCandidates), and
// every row of that metro merges the shared list with its heap,
// skipping the servers the row already holds — its support, frozen
// coordinates included, and its home.
// A step costs O(|own| + a·log |own| + s) for an active prefix of a
// coordinates reached after s shared candidates, where heapifying the
// whole set would pay O(|W|) per row and a full sort O(|W| log |W|).
//
// The gradient g_j encodes the regime split of the paper:
//
//	cooperative:  ∂F/∂r_ij   = l_j/s_j + c_ij
//	selfish:      ∂C_i/∂r_ij = (l_j + r_ij)/(2s_j) + c_ij
//
// Cooperative fixed points are blockwise-optimal and hence global optima
// of the (convex) system objective; selfish fixed points are Nash
// equilibria, which is what makes the plane's PoA stream meaningful.

// Mode selects which gradient the actors descend.
type Mode int

const (
	// Cooperative descends the system objective ΣC_i; fixed points are
	// social optima (the paper's cooperative regime).
	Cooperative Mode = iota
	// Selfish has every organization descend its own cost C_i; fixed
	// points are Nash equilibria (the paper's selfish regime).
	Selfish
)

func (m Mode) String() string {
	if m == Selfish {
		return "selfish"
	}
	return "cooperative"
}

// wsEntry is one working-set coordinate of a row step: the server, the
// row's current requests on it, the server's start-of-round load and
// speed, and the communication delay c_ij.
type wsEntry struct {
	j           int32
	r           float64
	load, speed float64
	cij         float64
}

// stepScratch holds the reusable buffers of proxStep so steady-state
// rounds allocate nothing.
type stepScratch struct {
	c      []float64
	heap   []proxKey
	x      []float64
	popped []int32 // shared candidates the last step reached, in working-set order
}

// proxKey is one working-set coordinate's key for the breakpoint scan:
// its value c, its server j, and its position t in the set.
type proxKey struct {
	c float64
	j int32
	t int32
}

// before is the scan order: c descending, ties by server ascending.
// Servers are unique in a working set, so the order is total.
func (a proxKey) before(b proxKey) bool {
	return a.c > b.c || (a.c == b.c && a.j < b.j)
}

// sharedCand is one metro candidate keyed for every row of a home
// metro: its scan key, whose t is the candidate's position in
// working-set order (metro, then best before second), and its speed.
type sharedCand struct {
	key   proxKey
	speed float64
}

// siftDown restores the heap property below position i of h, a heap
// whose root comes first in scan order.
func siftDown(h []proxKey, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (s *stepScratch) grow(n, shared int) {
	if cap(s.c) < n {
		s.c = make([]float64, n)
		s.heap = make([]proxKey, n)
	}
	if cap(s.x) < n+shared {
		s.x = make([]float64, n+shared)
	}
	s.c = s.c[:n]
	s.heap = s.heap[:n]
	s.x = s.x[:n+shared]
}

// gradient evaluates the mode's partial derivative at a working-set
// entry. The row's own contribution r is already part of load.
func gradient(mode Mode, e wsEntry) float64 {
	if mode == Selfish {
		return (e.load+e.r)/(2*e.speed) + e.cij
	}
	return e.load/e.speed + e.cij
}

// proxStep computes the damped projected step for one row: the
// minimizer of the prox objective above subject to x ≥ 0 and
// Σx = budget, over the working set ws plus every shared candidate
// whose server is not held (held[j] != stamp). shared must be in scan
// order; ws's servers must all be held, and so must every server a
// shared candidate may not add (frozen coordinates, the home). A
// shared candidate stands for the entry {r: 0, speed}, keyed as ws's
// entries are. The result lands in scratch.x: ws's values, then those
// of the shared candidates the scan reached (scratch.popped, indices
// into shared) in working-set order. Every other candidate's value is
// exactly 0. budget must be > 0 and ws non-empty.
//
// Determinism: the only data-dependent branch is the breakpoint scan
// over coordinates in (c desc, j asc) order — a total order on the
// working set — so identical inputs give bit-identical outputs
// regardless of which shard runs the row, and bit-identical to a scan
// over ws with the unheld candidates appended in working-set order.
func proxStep(mode Mode, eta, budget float64, ws []wsEntry, shared []sharedCand, held []int32, stamp int32, scratch *stepScratch) []float64 {
	n := len(ws)
	scratch.grow(n, len(shared))
	c, heap, x := scratch.c, scratch.heap, scratch.x
	for t, e := range ws {
		c[t] = e.r/(eta*e.speed) - gradient(mode, e)
		heap[t] = proxKey{c: c[t], j: e.j, t: int32(t)}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	popped := scratch.popped[:0]
	sh := 0 // next shared candidate not held
	for sh < len(shared) && held[shared[sh].key.j] == stamp {
		sh++
	}
	// Breakpoint scan: λ_t = (Σ_{u≤t} w_u·c_u − budget)/Σ_{u≤t} w_u with
	// w = η·s, over coordinates taken in scan order from the heap and the
	// shared list. The active prefix is the largest t whose λ_t stays
	// below the next coordinate's c, the larger of the heap root's and
	// the next shared candidate's once coordinate t is taken.
	var wSum, wcSum, lam float64
scan:
	for {
		var k proxKey
		var w float64
		if sh < len(shared) && (len(heap) == 0 || shared[sh].key.before(heap[0])) {
			k, w = shared[sh].key, eta*shared[sh].speed
			popped = append(popped, int32(sh))
			for sh++; sh < len(shared) && held[shared[sh].key.j] == stamp; sh++ {
			}
		} else {
			k = heap[0]
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			siftDown(heap, 0)
			w = eta * ws[k.t].speed
		}
		wSum += w
		wcSum += w * k.c
		lam = (wcSum - budget) / wSum
		var next float64
		switch {
		case len(heap) > 0 && sh < len(shared):
			next = max(heap[0].c, shared[sh].key.c)
		case len(heap) > 0:
			next = heap[0].c
		case sh < len(shared):
			next = shared[sh].key.c
		default:
			break scan
		}
		if lam >= next {
			break
		}
	}
	// The reached candidates follow ws in working-set order; the scan
	// took them in scan order.
	for u := 1; u < len(popped); u++ {
		for v := u; v > 0 && shared[popped[v]].key.t < shared[popped[v-1]].key.t; v-- {
			popped[v], popped[v-1] = popped[v-1], popped[v]
		}
	}
	scratch.popped = popped
	// Evaluate the closed form and repair the float residual so the row
	// keeps its exact load: dump the difference on the largest
	// coordinate (always ≥ budget/n > 0, so it stays nonnegative). A
	// candidate the scan never reached has c ≤ λ, so its value is 0: it
	// adds nothing to the sum and can never be the largest.
	var sum float64
	big := 0
	for t, e := range ws {
		v := eta * e.speed * (c[t] - lam)
		if v < 0 {
			v = 0
		}
		x[t] = v
		sum += v
		if v > x[big] {
			big = t
		}
	}
	for u, sc := range popped {
		s := &shared[sc]
		v := eta * s.speed * (s.key.c - lam)
		if v < 0 {
			v = 0
		}
		x[n+u] = v
		sum += v
		if v > x[big] {
			big = n + u
		}
	}
	x[big] += budget - sum
	return x[:n+len(popped)]
}

// splitmix64 is the same generator the sweep uses for cell seeds: a
// single multiply-xorshift pass with strong avalanche, so derived
// streams are independent for any (seed, row, round) triple.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// rowDraw returns a uniform [0,1) draw for (seed, row, round). The
// stream is keyed by the *row*, not by the actor that happens to own
// it, which is exactly why participation schedules survive resharding:
// any shard count draws the same coin for the same row and round.
func rowDraw(seed int64, row int32, round int) float64 {
	z := uint64(seed) +
		(uint64(uint32(row))+1)*0x9E3779B97F4A7C15 +
		(uint64(uint32(round))+1)*0xD1B54A32D192ED03
	return float64(splitmix64(z)>>11) / (1 << 53)
}
