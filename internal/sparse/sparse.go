// Package sparse provides the row-major sparse matrix behind the
// large-m scale tier. A relay-fraction matrix ρ produced by Frank–Wolfe
// holds at most iters+1 nonzeros per row (every iteration blends the
// previous iterate with a single simplex vertex), and realistic large
// deployments route each organization to a handful of nearby servers —
// so storing the dense m×m matrix is pure waste once m reaches the
// thousands. Matrix stores each row as parallel (column, value) slices
// sorted by column index, giving O(nnz) memory, O(nnz_i) row iteration
// and O(log nnz_i) point lookups, with exact dense↔sparse round-trips.
//
// The package is deliberately model-agnostic: it knows nothing about
// instances, loads or costs, so both the QP solvers and the experiment
// harness can use it without import cycles.
package sparse

import "fmt"

// Matrix is a rows×Cols sparse matrix in row-major form. Row i's
// nonzeros are Val[i][t] at column Idx[i][t], with Idx[i] strictly
// increasing. The slices are exported so hot loops can iterate rows
// without per-entry function calls; mutating them directly is allowed
// as long as the sorted-unique invariant is preserved (Validate checks
// it).
type Matrix struct {
	// Cols is the column dimension.
	Cols int
	// Idx[i] holds the sorted column indices of row i's stored entries.
	Idx [][]int32
	// Val[i][t] is the value at (i, Idx[i][t]).
	Val [][]float64
}

// New returns an all-zero rows×cols matrix with no stored entries.
func New(rows, cols int) *Matrix {
	return &Matrix{
		Cols: cols,
		Idx:  make([][]int32, rows),
		Val:  make([][]float64, rows),
	}
}

// Identity returns the m×m identity matrix — the canonical feasible
// starting point ρ_ii = 1 of every solver in this module.
func Identity(m int) *Matrix {
	mx := New(m, m)
	for i := 0; i < m; i++ {
		mx.Idx[i] = []int32{int32(i)}
		mx.Val[i] = []float64{1}
	}
	return mx
}

// Diagonal returns the len(d)×len(d) matrix with d on its diagonal,
// zeros included — the identity allocation r_ii = n_i when d holds the
// loads. All rows share two contiguous backing arrays, each row capped
// at its one entry, so a whole-matrix build is four allocations.
func Diagonal(d []float64) *Matrix {
	m := len(d)
	mx := New(m, m)
	ibuf := make([]int32, m)
	vbuf := append([]float64(nil), d...)
	for i := range ibuf {
		ibuf[i] = int32(i)
		mx.Idx[i] = ibuf[i : i+1 : i+1]
		mx.Val[i] = vbuf[i : i+1 : i+1]
	}
	return mx
}

// FromDense converts a dense matrix, storing every entry with |v| > eps
// (eps = 0 keeps all nonzeros). Rows may be ragged only in the sense of
// the usual [][]float64 contract: every row must have the same length.
func FromDense(d [][]float64, eps float64) *Matrix {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	mx := New(rows, cols)
	for i, row := range d {
		for j, v := range row {
			if v > eps || v < -eps {
				mx.Idx[i] = append(mx.Idx[i], int32(j))
				mx.Val[i] = append(mx.Val[i], v)
			}
		}
	}
	return mx
}

// Dense materializes the matrix as [][]float64 (rows backed by one
// contiguous slice). Meant for verification and for bridging into the
// dense public API; avoid it on truly large instances.
func (mx *Matrix) Dense() [][]float64 {
	rows := len(mx.Idx)
	out := make([][]float64, rows)
	buf := make([]float64, rows*mx.Cols)
	for i := range out {
		out[i], buf = buf[:mx.Cols:mx.Cols], buf[mx.Cols:]
		for t, j := range mx.Idx[i] {
			out[i][j] = mx.Val[i][t]
		}
	}
	return out
}

// Rows returns the number of rows.
func (mx *Matrix) Rows() int { return len(mx.Idx) }

// NNZ returns the total number of stored entries.
func (mx *Matrix) NNZ() int {
	n := 0
	for _, idx := range mx.Idx {
		n += len(idx)
	}
	return n
}

// Clone deep-copies the matrix.
func (mx *Matrix) Clone() *Matrix {
	out := New(len(mx.Idx), mx.Cols)
	for i := range mx.Idx {
		out.Idx[i] = append([]int32(nil), mx.Idx[i]...)
		out.Val[i] = append([]float64(nil), mx.Val[i]...)
	}
	return out
}

// find returns the position of column j in row i's index slice and
// whether it is present; when absent, the position is the insertion
// point that keeps the slice sorted.
func (mx *Matrix) find(i int, j int32) (int, bool) {
	idx := mx.Idx[i]
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if idx[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(idx) && idx[lo] == j
}

// Get returns the entry at (i, j), zero when not stored.
func (mx *Matrix) Get(i, j int) float64 {
	if t, ok := mx.find(i, int32(j)); ok {
		return mx.Val[i][t]
	}
	return 0
}

// Set stores v at (i, j), inserting the entry if absent. Explicit zeros
// are stored; use Prune to drop them.
func (mx *Matrix) Set(i, j int, v float64) {
	t, ok := mx.find(i, int32(j))
	if ok {
		mx.Val[i][t] = v
		return
	}
	mx.insert(i, t, int32(j), v)
}

// SetOrRemove stores v at (i, j) when v != 0 and removes any stored
// entry when v == 0 — the write primitive of the MinE sparse state,
// whose owner-list discipline keeps "stored" and "nonzero" synonymous.
// O(nnz_i) worst case (one memmove on insert or removal).
func (mx *Matrix) SetOrRemove(i, j int, v float64) {
	t, ok := mx.find(i, int32(j))
	if v != 0 {
		if ok {
			mx.Val[i][t] = v
			return
		}
		mx.insert(i, t, int32(j), v)
		return
	}
	if ok {
		mx.RemoveAt(i, t)
	}
}

// Add adds v to the entry at (i, j), inserting it if absent.
func (mx *Matrix) Add(i, j int, v float64) {
	t, ok := mx.find(i, int32(j))
	if ok {
		mx.Val[i][t] += v
		return
	}
	mx.insert(i, t, int32(j), v)
}

func (mx *Matrix) insert(i, t int, j int32, v float64) {
	mx.Idx[i] = append(mx.Idx[i], 0)
	copy(mx.Idx[i][t+1:], mx.Idx[i][t:])
	mx.Idx[i][t] = j
	mx.Val[i] = append(mx.Val[i], 0)
	copy(mx.Val[i][t+1:], mx.Val[i][t:])
	mx.Val[i][t] = v
}

// ScaleRowAdd multiplies every stored entry of row i by scale and then
// adds `add` at column j — the Frank–Wolfe update ρ_i ← (1−t)ρ_i + t·e_j
// as one O(nnz_i) primitive that inserts at most one new entry.
func (mx *Matrix) ScaleRowAdd(i int, scale float64, j int, add float64) {
	vals := mx.Val[i]
	for t := range vals {
		vals[t] *= scale
	}
	mx.Add(i, j, add)
}

// RemoveAt deletes row i's stored entry at position t (not column t),
// shifting later entries left — the away-step "drop" primitive that
// removes a vertex whose weight hit zero. O(nnz_i).
func (mx *Matrix) RemoveAt(i, t int) {
	mx.Idx[i] = append(mx.Idx[i][:t], mx.Idx[i][t+1:]...)
	mx.Val[i] = append(mx.Val[i][:t], mx.Val[i][t+1:]...)
}

// RowSum returns the sum of row i's stored entries, in ascending column
// order.
func (mx *Matrix) RowSum(i int) float64 {
	var s float64
	for _, v := range mx.Val[i] {
		s += v
	}
	return s
}

// Prune removes stored entries with |v| <= eps from every row, in place.
// It returns the number of entries removed. Frank–Wolfe iterates decay
// old vertices geometrically, so pruning bounds nnz growth on very long
// runs at the price of a (tiny, documented) feasibility drift; callers
// that need exact row sums should renormalize afterwards.
func (mx *Matrix) Prune(eps float64) int {
	removed := 0
	for i := range mx.Idx {
		idx, val := mx.Idx[i], mx.Val[i]
		w := 0
		for t := range idx {
			if val[t] > eps || val[t] < -eps {
				idx[w], val[w] = idx[t], val[t]
				w++
			}
		}
		removed += len(idx) - w
		mx.Idx[i], mx.Val[i] = idx[:w], val[:w]
	}
	return removed
}

// Validate checks the structural invariants: strictly increasing column
// indices within bounds and matching Idx/Val lengths per row.
func (mx *Matrix) Validate() error {
	for i := range mx.Idx {
		if len(mx.Idx[i]) != len(mx.Val[i]) {
			return fmt.Errorf("sparse: row %d has %d indices but %d values", i, len(mx.Idx[i]), len(mx.Val[i]))
		}
		prev := int32(-1)
		for _, j := range mx.Idx[i] {
			if j <= prev {
				return fmt.Errorf("sparse: row %d indices not strictly increasing at column %d", i, j)
			}
			if int(j) >= mx.Cols {
				return fmt.Errorf("sparse: row %d column %d out of range [0, %d)", i, j, mx.Cols)
			}
			prev = j
		}
	}
	return nil
}
