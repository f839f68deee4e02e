package model

import "sync/atomic"

// BlockDenseMaterializations counts every time the O(m + k²) metro
// representation turns back into an O(m²) matrix: each
// BlockLatency.Dense() call, and each churn batch (dynamic.Resize) whose
// join rows break a block instance's metro table. The scale-tier
// acceptance tests read it to prove a full replay ran without the dense
// matrix ever existing.
var BlockDenseMaterializations atomic.Int64

// This file defines the latency *view* abstraction of the sparse
// end-to-end tier. An Instance no longer owns a dense m×m matrix; it
// holds a Latency view, and every consumer — cost functions, solvers,
// the session, the replay engine — reads delays through it. Two
// representations implement the view:
//
//   - DenseLatency: the explicit m×m matrix, byte-compatible with
//     everything the repository did before. It remains the verification
//     oracle: every block fast path is pinned against it.
//   - BlockLatency: the k×k metro block-delay table plus per-server
//     metro labels — the exact structure of the NetClustered family,
//     where c_ij depends only on (metro(i), metro(j)). It stores O(m +
//     k²) instead of O(m²), and server churn (dynamic.Resize) shares
//     the delay table structurally (copy-on-write), so settling a burst
//     of joins and leaves costs O(m + k²) instead of a full matrix copy.
//
// Views are immutable by contract: no code mutates a view in place.
// Updates replace the view wholesale (the same replace-don't-mutate
// discipline Session relies on for lock-free solver runs), which is what
// makes structural sharing safe.

// Latency is a read-only view of the m×m one-way delay matrix c, in
// milliseconds. At(i, i) is always 0; off-diagonal entries are ≥ 0 and
// may be +Inf to forbid a link.
//
// The interface is sealed to this package (the unexported marker
// method): fast paths key off the concrete type, and an open set of
// implementations would silently lose them.
type Latency interface {
	// M returns the number of servers covered by the view.
	M() int
	// At returns c_ij.
	At(i, j int) float64
	// RowInto fills dst (length ≥ M()) with row i: dst[j] = c_ij.
	RowInto(i int, dst []float64)
	// ColInto fills dst (length ≥ M()) with column j: dst[k] = c_kj.
	ColInto(j int, dst []float64)
	// GatherCol fills dst[t] = c_{rows[t], j} for each t — the sparse
	// column gather of the MinE owner-list path.
	GatherCol(j int, rows []int32, dst []float64)
	// Dense materializes the full matrix. O(m²) for BlockLatency —
	// verification and bridging only, never on the large-m hot path.
	// For DenseLatency the underlying rows are returned without copying;
	// treat the result as read-only.
	Dense() [][]float64
	// latencyView seals the interface to this package.
	latencyView()
}

// DenseLatency is the explicit m×m matrix view.
type DenseLatency [][]float64

// NewDense wraps an m×m matrix (not copied) as a Latency view. The rows
// must not be mutated afterwards.
func NewDense(rows [][]float64) DenseLatency { return DenseLatency(rows) }

func (d DenseLatency) M() int              { return len(d) }
func (d DenseLatency) At(i, j int) float64 { return d[i][j] }
func (d DenseLatency) Dense() [][]float64  { return d }
func (d DenseLatency) latencyView()        {}

func (d DenseLatency) RowInto(i int, dst []float64) {
	copy(dst, d[i])
}

func (d DenseLatency) ColInto(j int, dst []float64) {
	for k, row := range d {
		dst[k] = row[j]
	}
}

func (d DenseLatency) GatherCol(j int, rows []int32, dst []float64) {
	for t, k := range rows {
		dst[t] = d[k][j]
	}
}

// BlockLatency is the metro view: Delay is the k×k block table and
// Label[i] the metro of server i, so c_ij = Delay[Label[i]][Label[j]]
// for i ≠ j (and 0 on the diagonal). Delay[g][g] is the intra-metro
// delay between two distinct servers of metro g.
//
// The table may cover metros with no current member (a drained metro
// keeps its row/column), which is what lets an emptied metro rejoin a
// live session with its last known delays.
type BlockLatency struct {
	// Delay is the k×k metro block-delay table.
	Delay [][]float64
	// Label[i] is the metro id of server i, in [0, k).
	Label []int
}

// NewBlock wraps a block table and label vector (neither copied) as a
// Latency view. Shape and value constraints are checked by
// Instance.Validate.
func NewBlock(delay [][]float64, labels []int) *BlockLatency {
	return &BlockLatency{Delay: delay, Label: labels}
}

// K returns the number of metros covered by the block table.
func (b *BlockLatency) K() int { return len(b.Delay) }

func (b *BlockLatency) M() int { return len(b.Label) }

func (b *BlockLatency) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return b.Delay[b.Label[i]][b.Label[j]]
}

func (b *BlockLatency) latencyView() {}

func (b *BlockLatency) RowInto(i int, dst []float64) {
	drow := b.Delay[b.Label[i]]
	for j, g := range b.Label {
		dst[j] = drow[g]
	}
	dst[i] = 0
}

func (b *BlockLatency) ColInto(j int, dst []float64) {
	gj := b.Label[j]
	for k, g := range b.Label {
		dst[k] = b.Delay[g][gj]
	}
	dst[j] = 0
}

func (b *BlockLatency) GatherCol(j int, rows []int32, dst []float64) {
	gj := b.Label[j]
	for t, k := range rows {
		if int(k) == j {
			dst[t] = 0
		} else {
			dst[t] = b.Delay[b.Label[k]][gj]
		}
	}
}

func (b *BlockLatency) Dense() [][]float64 {
	BlockDenseMaterializations.Add(1)
	m := len(b.Label)
	out := make([][]float64, m)
	buf := make([]float64, m*m)
	for i := range out {
		out[i], buf = buf[:m:m], buf[m:]
		b.RowInto(i, out[i])
	}
	return out
}

// RowView returns row i of the view without copying when possible: the
// underlying slice for DenseLatency, otherwise the row materialized into
// buf (which must have length ≥ M()). Hot dense loops keep their direct
// row access; block instances pay one O(m) fill per row.
func RowView(l Latency, i int, buf []float64) []float64 {
	if d, ok := l.(DenseLatency); ok {
		return d[i]
	}
	l.RowInto(i, buf)
	return buf
}
