package dynamic

import (
	"cmp"
	"fmt"
	"slices"

	"delaylb/internal/sparse"
)

// Allocation projections for load and server churn. When demand changes
// or servers join or leave mid-session, the carried-over allocation
// must stay feasible (every row summing to its organization's load,
// entries non-negative) so the next warm re-solve starts from a valid —
// and usually still near-optimal — point. Allocations are sparse
// requests matrices (request units); every projection costs O(nnz + m)
// and builds its result on contiguous backing arrays, so a whole
// projection is a handful of allocations regardless of m — the property
// the session's allocation-regression smoke tests pin. Dense oracles in
// oracle_test.go pin them entry for entry.

// newContiguous allocates a rows×cols sparse matrix with capacity for
// nnz entries backed by two contiguous arrays.
func newContiguous(rows, cols, nnz int) (*sparse.Matrix, []int32, []float64) {
	return &sparse.Matrix{
		Cols: cols,
		Idx:  make([][]int32, rows),
		Val:  make([][]float64, rows),
	}, make([]int32, 0, nnz), make([]float64, 0, nnz)
}

// Rescale adapts an allocation from the old loads to the new ones by
// preserving each organization's relay fractions — what a running system
// does naturally when its demand changes but its routing table persists.
// Each row follows RowScale.
func Rescale(a *sparse.Matrix, oldLoads, newLoads []float64) *sparse.Matrix {
	return sparse.ScaleRows(a, func(i int) (float64, float64, bool) {
		f, keep := RowScale(oldLoads[i], newLoads[i])
		return f, newLoads[i], keep
	})
}

// RowScale is the rule Rescale applies to one organization's row when
// its load moves from oldLoad to newLoad. A row that carried load keeps
// its relay fractions: every entry is multiplied by factor =
// newLoad/oldLoad (keep is true). A row that carried none has nothing
// to scale and restarts as the identity placement of its new load: one
// entry, newLoad, on the organization's own server (keep is false).
func RowScale(oldLoad, newLoad float64) (factor float64, keep bool) {
	if oldLoad > 0 {
		return newLoad / oldLoad, true
	}
	return 0, false
}

// Resize is a batch of server joins and leaves, recorded one edit at a
// time against an m×m allocation and projected onto it in one
// O(nnz + m + edits) pass by Apply. The projection is the failover a
// running system applies to churn:
//
//   - a leaving organization's row vanishes (its requests leave with
//     it), and every index above it shifts down by one;
//   - every surviving organization pulls the requests it was relaying
//     to a departed server back to its own server, so each surviving
//     row still sums to its unchanged load; the next warm re-solve
//     redistributes that returned mass;
//   - a joining organization is appended at the end and serves its own
//     load, like the identity start of a fresh server; nobody relays to
//     a server it has not seen yet.
//
// Apply gives, bit for bit, what applying the edits one at a time
// gives: a row's mass on departed servers folds onto its diagonal in
// departure order (float addition is not associative), a zero orphan
// creates no diagonal entry, and a join stores its load on its diagonal
// even when the load is 0.
//
// Recording an edit never touches the allocation: it costs O(1)
// amortized plus at most one O(m) int32 copy.
type Resize struct {
	m     int       // size of the allocation the batch applies to
	edits int       // edits recorded since the last Apply
	live  []int32   // current index → row id; ids m and up are joins
	rank  []int32   // departure rank per original row, -1 while it lives
	gone  int32     // original rows departed so far
	joins []float64 // load per join, by id − m

	pos  []int32  // reused by Apply: new index per surviving original row
	orph []orphan // reused by Apply: one row's mass on departed servers
}

// orphan is a row's mass on a departed server, tagged with the
// server's departure rank.
type orphan struct {
	rank int32
	v    float64
}

// NewResize starts an empty batch against an m×m allocation.
func NewResize(m int) *Resize { return &Resize{m: m} }

// Len returns the number of edits recorded since the last Apply.
func (r *Resize) Len() int { return r.edits }

// begin lays out the identity index map at a batch's first edit.
func (r *Resize) begin() {
	if r.edits > 0 {
		return
	}
	r.live = slices.Grow(r.live[:0], r.m)[:r.m]
	r.rank = slices.Grow(r.rank[:0], r.m)[:r.m]
	for i := range r.live {
		r.live[i] = int32(i)
		r.rank[i] = -1
	}
	r.gone = 0
	r.joins = r.joins[:0]
}

// Leave records that the server now at index i leaves. i is the
// server's index after every edit recorded before this one, as in the
// instance the batch mirrors.
func (r *Resize) Leave(i int) {
	r.begin()
	id := r.live[i]
	r.live = append(r.live[:i], r.live[i+1:]...)
	if int(id) < r.m {
		r.rank[id] = r.gone
		r.gone++
	}
	r.edits++
}

// Join records that a server with the given load joins at the end.
func (r *Resize) Join(load float64) {
	r.begin()
	r.live = append(r.live, int32(r.m+len(r.joins)))
	r.joins = append(r.joins, load)
	r.edits++
}

// Apply projects the batch onto a, which must have the size the batch
// was started against, and empties the batch: later edits are recorded
// against the result. a is read and never written, so a caller may
// keep handing it to readers outside its lock. Rows come out sorted by
// column on two contiguous backings, each row capped at its length.
func (r *Resize) Apply(a *sparse.Matrix) *sparse.Matrix {
	if len(a.Idx) != r.m || a.Cols != r.m {
		panic(fmt.Sprintf("dynamic: Resize.Apply on a %d×%d allocation, batch started against %d×%d", len(a.Idx), a.Cols, r.m, r.m))
	}
	r.begin()
	n := len(r.live)
	// Surviving rows keep their relative order, so pos is increasing
	// in the old column index and remapped rows stay sorted.
	r.pos = slices.Grow(r.pos[:0], r.m)[:r.m]
	for p, id := range r.live {
		if int(id) < r.m {
			r.pos[id] = int32(p)
		}
	}
	// Every folded diagonal and every join adds at most one entry per
	// new row to the surviving ones.
	out, ibuf, vbuf := newContiguous(n, n, a.NNZ()+n)
	for p, id := range r.live {
		start := len(ibuf)
		d := int32(p)
		if int(id) >= r.m {
			ibuf = append(ibuf, d)
			vbuf = append(vbuf, r.joins[int(id)-r.m])
		} else {
			ibuf, vbuf = r.project(ibuf, vbuf, a.Idx[id], a.Val[id], id, d)
		}
		out.Idx[p] = ibuf[start:len(ibuf):len(ibuf)]
		out.Val[p] = vbuf[start:len(vbuf):len(vbuf)]
	}
	r.m, r.edits = n, 0
	return out
}

// project appends surviving row id, renumbered to index d, with its
// mass on departed servers folded onto the diagonal in departure order.
func (r *Resize) project(ibuf []int32, vbuf []float64, idx []int32, val []float64, id, d int32) ([]int32, []float64) {
	r.orph = r.orph[:0]
	var diag float64
	hasDiag := false
	for t, j := range idx {
		if k := r.rank[j]; k >= 0 {
			r.orph = append(r.orph, orphan{k, val[t]})
		} else if j == id {
			diag, hasDiag = val[t], true
		}
	}
	slices.SortFunc(r.orph, func(x, y orphan) int { return cmp.Compare(x.rank, y.rank) })
	for _, o := range r.orph {
		if o.v != 0 { // a zero orphan creates no diagonal; 0+v is v
			diag, hasDiag = diag+o.v, true
		}
	}
	placed := false
	for t, j := range idx {
		if r.rank[j] >= 0 {
			continue
		}
		nj := r.pos[j]
		if hasDiag && !placed && nj >= d {
			ibuf = append(ibuf, d)
			vbuf = append(vbuf, diag)
			placed = true
			if nj == d {
				continue
			}
		}
		ibuf = append(ibuf, nj)
		vbuf = append(vbuf, val[t])
	}
	if hasDiag && !placed {
		ibuf = append(ibuf, d)
		vbuf = append(vbuf, diag)
	}
	return ibuf, vbuf
}
