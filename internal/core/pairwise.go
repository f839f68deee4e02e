package core

import (
	"math"
	"slices"

	"delaylb/internal/model"
)

// pairBuffer holds the scratch state for balancing one server pair. It is
// reused across calls to avoid allocation in the hot loop.
type pairBuffer struct {
	ri, rj []float64 // working copies of allocation columns i and j
	oi, oj []float64 // original columns, for move accounting
	cI, cJ []float64 // latency columns c_ki and c_kj
	order  []int     // organizations sorted by c_kj − c_ki
	keys   []float64
	ks     []int32 // merged owner list of the two columns
}

func newPairBuffer(m int) *pairBuffer {
	return &pairBuffer{
		ri:    make([]float64, m),
		rj:    make([]float64, m),
		oi:    make([]float64, m),
		oj:    make([]float64, m),
		cI:    make([]float64, m),
		cJ:    make([]float64, m),
		order: make([]int, m),
		keys:  make([]float64, m),
		ks:    make([]int32, 0, m),
	}
}

// loadOwners merges the owner lists of columns i and j into b.ks (the
// ascending union of two sorted lists), copies their values into the
// leading len(b.ks) slots of b.ri and b.rj in the same pass, and gathers
// the matching latency entries. Only organizations with mass on one of
// the two columns can gain or lose requests in Algorithm 1, so the
// compacted problem makes the transfers of the full-column one, up to
// which of two organizations sharing a key c_kj − c_ki takes one.
func (b *pairBuffer) loadOwners(st *State, i, j int) int {
	b.ks = b.ks[:0]
	oi, oj := st.owners[i], st.owners[j]
	vi, vj := st.vals[i], st.vals[j]
	x, y := 0, 0
	for x < len(oi) || y < len(oj) {
		n := len(b.ks)
		switch {
		case y == len(oj) || (x < len(oi) && oi[x] < oj[y]):
			b.ks = append(b.ks, oi[x])
			b.ri[n], b.rj[n] = vi[x], 0
			x++
		case x == len(oi) || oj[y] < oi[x]:
			b.ks = append(b.ks, oj[y])
			b.ri[n], b.rj[n] = 0, vj[y]
			y++
		default: // equal
			b.ks = append(b.ks, oi[x])
			b.ri[n], b.rj[n] = vi[x], vj[y]
			x++
			y++
		}
	}
	n := len(b.ks)
	copy(b.oi[:n], b.ri[:n])
	copy(b.oj[:n], b.rj[:n])
	st.In.Latency.GatherCol(i, b.ks, b.cI[:n])
	st.In.Latency.GatherCol(j, b.ks, b.cJ[:n])
	return n
}

// loadFull extracts full m-length columns i and j — the entry point of
// the Proposition 1 estimation, which simulates Algorithm 1 over all m
// organizations.
func (b *pairBuffer) loadFull(st *State, i, j int) {
	m := st.In.M()
	for k := 0; k < m; k++ {
		b.ri[k] = 0
		b.rj[k] = 0
	}
	for t, k := range st.owners[i] {
		b.ri[k] = st.vals[i][t]
	}
	for t, k := range st.owners[j] {
		b.rj[k] = st.vals[j][t]
	}
	copy(b.oi[:m], b.ri[:m])
	copy(b.oj[:m], b.rj[:m])
}

// balance runs Algorithm 1 (CalcBestTransfer) on the buffered columns and
// returns the resulting loads of servers i and j.
func (b *pairBuffer) balance(in *model.Instance, i, j int) (li, lj float64) {
	in.Latency.ColInto(i, b.cI)
	in.Latency.ColInto(j, b.cJ)
	return BalanceColumns(in.Speed[i], in.Speed[j], b.ri, b.rj, b.cI, b.cJ, b.order, b.keys)
}

// BalanceColumns is the paper's Algorithm 1 (CalcBestTransfer) as a
// standalone primitive, used both by the in-process optimizer and by the
// distributed runtime, where the two participating servers exchange
// exactly this data: their speeds si/sj, the columns ri/rj (ri[k] =
// requests of organization k currently executing on server i) and the
// latency vectors cI/cJ (cI[k] = c_ki). It first consolidates every
// organization's requests from j onto i, then walks organizations in
// ascending order of c_kj − c_ki, moving the Lemma 1 optimal amount back
// to j. The columns are modified in place; the final loads are returned.
//
// Requests of an organization k with cI[k] = +Inf (k is not allowed to
// use server i) stay on j and only contribute to j's load; organizations
// with cJ[k] = +Inf are never moved to j. order and keys are optional
// scratch slices of length m.
func BalanceColumns(si, sj float64, ri, rj, cI, cJ []float64, order []int, keys []float64) (li, lj float64) {
	m := len(ri)
	if len(order) != m {
		order = make([]int, m)
	}
	if len(keys) != m {
		keys = make([]float64, m)
	}
	for k := 0; k < m; k++ {
		if math.IsInf(cI[k], 1) {
			lj += rj[k]
		} else {
			ri[k] += rj[k]
			rj[k] = 0
		}
		li += ri[k]
	}

	for k := 0; k < m; k++ {
		order[k] = k
		switch {
		case math.IsInf(cJ[k], 1):
			// k cannot use j at all: sorted last and never moved.
			keys[k] = math.Inf(1)
		case math.IsInf(cI[k], 1):
			// k cannot use i; its requests stayed on j and ri[k] = 0, so
			// the transfer below is a no-op. Sort first to keep keys
			// finite and the early-exit monotonicity intact.
			keys[k] = math.Inf(-1)
		default:
			keys[k] = cJ[k] - cI[k]
		}
	}
	// The comparator is negative exactly when keys[x] < keys[y], the
	// less of sort.Slice, so the shared pdqsort makes the same moves.
	slices.SortFunc(order, func(x, y int) int {
		switch {
		case keys[x] < keys[y]:
			return -1
		case keys[x] > keys[y]:
			return 1
		}
		return 0
	})

	for _, k := range order {
		key := keys[k]
		if math.IsInf(key, 1) || math.IsNaN(key) {
			break // c_kj = +Inf: k and everyone after cannot move to j
		}
		raw := ((sj*li - si*lj) - si*sj*key) / (si + sj)
		if raw <= 0 {
			// Keys are non-decreasing and li only shrinks, so no later
			// organization can have a positive transfer either.
			break
		}
		dr := math.Min(raw, ri[k])
		if dr > 0 {
			ri[k] -= dr
			rj[k] += dr
			li -= dr
			lj += dr
		}
	}
	return li, lj
}

// movedToward returns Σ_k max(0, new_kj − old_kj): the volume of requests
// that Algorithm 1 effectively moved onto server j. Used by the
// Proposition 1 error estimation (Δr_ij).
func (b *pairBuffer) movedToward() float64 {
	var mv float64
	for k := range b.rj {
		if d := b.rj[k] - b.oj[k]; d > 0 {
			mv += d
		}
	}
	return mv
}

// PairOutcome reports the effect of balancing one pair of servers.
type PairOutcome struct {
	// Gain is the decrease of ΣC_i (≥ 0 up to float error).
	Gain float64
	// Moved is the volume of requests that changed server.
	Moved float64
}

// EvaluatePair simulates Algorithm 1 on servers (i, j) without mutating
// the state and returns the achievable improvement — the paper's
// impr(i, j) from Algorithm 2. It touches only the organizations owning
// requests on the two columns.
func EvaluatePair(st *State, i, j int, buf *pairBuffer) PairOutcome {
	if buf == nil {
		buf = newPairBuffer(st.In.M())
	}
	out, _, _ := balancePair(st, i, j, buf)
	return out
}

// ApplyPair runs Algorithm 1 on servers (i, j) and commits the result to
// the state, updating loads incrementally. It returns the realized
// outcome.
func ApplyPair(st *State, i, j int, buf *pairBuffer) PairOutcome {
	if buf == nil {
		buf = newPairBuffer(st.In.M())
	}
	out, li, lj := balancePair(st, i, j, buf)
	commitPair(st, i, j, buf, li, lj)
	return out
}

// balancePair runs Algorithm 1 on the compacted owner union of columns
// (i, j) and returns the outcome plus the resulting loads, leaving the
// state untouched (commitPair writes the buffer back).
func balancePair(st *State, i, j int, buf *pairBuffer) (PairOutcome, float64, float64) {
	in := st.In
	before := st.localCost(i, j)
	n := buf.loadOwners(st, i, j)
	li, lj := BalanceColumns(in.Speed[i], in.Speed[j],
		buf.ri[:n], buf.rj[:n], buf.cI[:n], buf.cJ[:n], buf.order[:n], buf.keys[:n])
	after := li*li/(2*in.Speed[i]) + lj*lj/(2*in.Speed[j])
	var moved float64
	for t := 0; t < n; t++ {
		if v := buf.ri[t]; v != 0 {
			after += v * buf.cI[t]
		}
		if v := buf.rj[t]; v != 0 {
			after += v * buf.cJ[t]
		}
		moved += math.Abs(buf.ri[t]-buf.oi[t]) + math.Abs(buf.rj[t]-buf.oj[t])
	}
	return PairOutcome{Gain: before - after, Moved: moved / 2}, li, lj
}

// commitPair writes the balanced buffer back into columns i and j, in
// place: each column keeps, in the ascending order of the gathered
// union, the organizations whose result is nonzero, so stored and
// nonzero stay synonymous. A column outgrowing its capacity reallocates
// only itself.
func commitPair(st *State, i, j int, buf *pairBuffer, li, lj float64) {
	n := len(buf.ks)
	st.owners[i], st.vals[i] = rewriteColumn(st.owners[i][:0], st.vals[i][:0], buf.ks, buf.ri[:n])
	st.owners[j], st.vals[j] = rewriteColumn(st.owners[j][:0], st.vals[j][:0], buf.ks, buf.rj[:n])
	st.Loads[i] = li
	st.Loads[j] = lj
}

// rewriteColumn appends to owners and vals the entries (ks[t], r[t])
// with r[t] != 0.
func rewriteColumn(owners []int32, vals []float64, ks []int32, r []float64) ([]int32, []float64) {
	for t, v := range r {
		if v != 0 {
			owners = append(owners, ks[t])
			vals = append(vals, v)
		}
	}
	return owners, vals
}
