package dynamic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// Dense reference implementations of the allocation projections. They
// are the oracle TestSparseProjectionsMatchDense and FuzzResize pin
// Rescale and Resize against, entry for entry; a Resize batch is
// compared with its edits applied one at a time.

// denseRescale scales row i by newLoads[i]/oldLoads[i]; rows whose old
// load was 0 restart as the identity placement of their new load.
func denseRescale(a *model.Allocation, oldLoads, newLoads []float64) *model.Allocation {
	m := a.M()
	out := model.NewAllocation(m)
	for i := 0; i < m; i++ {
		if oldLoads[i] > 0 {
			scale := newLoads[i] / oldLoads[i]
			for j := 0; j < m; j++ {
				out.R[i][j] = a.R[i][j] * scale
			}
		} else {
			out.R[i][i] = newLoads[i]
		}
	}
	return out
}

// denseExpand appends a zero column to every row and a newcomer row that
// serves its own load.
func denseExpand(a *model.Allocation, newLoad float64) *model.Allocation {
	m := a.M()
	out := model.NewAllocation(m + 1)
	for i, row := range a.R {
		copy(out.R[i], row)
	}
	out.R[m][m] = newLoad
	return out
}

// denseCollapse drops row and column `leaving` and folds each surviving
// row's mass on the leaving server back onto its own server.
func denseCollapse(a *model.Allocation, leaving int) *model.Allocation {
	m := a.M()
	out := model.NewAllocation(m - 1)
	for i, row := range a.R {
		if i == leaving {
			continue
		}
		ni := i
		if i > leaving {
			ni--
		}
		orphaned := row[leaving]
		for j, v := range row {
			if j == leaving {
				continue
			}
			nj := j
			if j > leaving {
				nj--
			}
			out.R[ni][nj] = v
		}
		out.R[ni][ni] += orphaned
	}
	return out
}

// randomAllocation builds a random feasible-ish allocation with ~3
// nonzeros per row (the realistic sparsity of balanced plans).
func randomAllocation(rng *rand.Rand, m int) *model.Allocation {
	a := model.NewAllocation(m)
	for i := 0; i < m; i++ {
		a.R[i][i] = float64(rng.Intn(50))
		for t := 0; t < 2; t++ {
			a.R[i][rng.Intn(m)] = float64(rng.Intn(30))
		}
	}
	return a
}

func assertSparseEqualsDense(t *testing.T, sp *sparse.Matrix, d *model.Allocation) {
	t.Helper()
	if len(sp.Idx) != d.M() {
		t.Fatalf("rows: sparse %d, dense %d", len(sp.Idx), d.M())
	}
	dd := sp.Dense()
	for i, row := range d.R {
		for j, v := range row {
			if dd[i][j] != v {
				t.Fatalf("entry (%d,%d): sparse %v, dense %v", i, j, dd[i][j], v)
			}
		}
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

// churnRef replays a Resize batch's edits one at a time on the dense
// oracle. Next to the values it keeps the mask of entries the sparse
// form must store, explicit zeros included: a join stores its load on
// its diagonal even when it is 0, and an orphan creates a missing
// diagonal only when it is nonzero. It also tracks which row id sits at
// each index (ids m0 and up are joins) and what each surviving row
// folds, to count the cases a batch must get right.
type churnRef struct {
	a       *model.Allocation
	stored  [][]bool
	m0      int
	id      []int
	joins   []float64
	orphans map[int][]float64 // nonzero orphans per original row, in departure order
	cov     *churnCoverage
}

// churnCoverage counts the cases the batch trials exercised.
type churnCoverage struct {
	multiFold   int // a surviving row folded two or more nonzero orphans
	orderSens   int // … and folding them in reverse order changes the bits
	diagCreated int // an orphan created a missing diagonal
	joinLeft    int // a server joined and left in the same batch
	zeroJoin    int // a zero-load join survived its batch
}

func newChurnRef(a *sparse.Matrix, cov *churnCoverage) *churnRef {
	m := a.Rows()
	c := &churnRef{a: &model.Allocation{R: a.Dense()}, m0: m, orphans: map[int][]float64{}, cov: cov}
	for i := 0; i < m; i++ {
		c.id = append(c.id, i)
		c.stored = append(c.stored, make([]bool, m))
		for _, j := range a.Idx[i] {
			c.stored[i][j] = true
		}
	}
	return c
}

func (c *churnRef) join(load float64) {
	m := len(c.id)
	c.a = denseExpand(c.a, load)
	for i := range c.stored {
		c.stored[i] = append(c.stored[i], false)
	}
	c.stored = append(c.stored, make([]bool, m+1))
	c.stored[m][m] = true
	c.id = append(c.id, c.m0+len(c.joins))
	c.joins = append(c.joins, load)
}

func (c *churnRef) leave(i int) {
	var stored [][]bool
	for r, row := range c.stored {
		if r == i {
			continue
		}
		row = slices.Delete(row, i, i+1)
		if o := c.a.R[r][i]; o != 0 {
			nr := len(stored)
			if !row[nr] {
				c.cov.diagCreated++
			}
			row[nr] = true
			c.orphans[c.id[r]] = append(c.orphans[c.id[r]], o)
		}
		stored = append(stored, row)
	}
	if c.id[i] >= c.m0 {
		c.cov.joinLeft++
	}
	c.a = denseCollapse(c.a, i)
	c.stored = stored
	c.id = slices.Delete(c.id, i, i+1)
}

// check pins got, the batch's projection, against the edit-by-edit
// reference: the same stored entries, the same value bits, rows sorted
// and capped at their length. orig is the batch's input.
func (c *churnRef) check(t *testing.T, got, orig *sparse.Matrix) {
	t.Helper()
	m := len(c.id)
	if got.Rows() != m || got.Cols != m {
		t.Fatalf("batch gave %d×%d, edit by edit %d×%d", got.Rows(), got.Cols, m, m)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	dd := got.Dense()
	for i := 0; i < m; i++ {
		if cap(got.Idx[i]) != len(got.Idx[i]) || cap(got.Val[i]) != len(got.Val[i]) {
			t.Fatalf("row %d not capped at its length", i)
		}
		stored := make([]bool, m)
		for _, j := range got.Idx[i] {
			stored[j] = true
		}
		for j := 0; j < m; j++ {
			if stored[j] != c.stored[i][j] {
				t.Fatalf("entry (%d,%d): stored %v in the batch, %v edit by edit", i, j, stored[j], c.stored[i][j])
			}
			if math.Float64bits(dd[i][j]) != math.Float64bits(c.a.R[i][j]) {
				t.Fatalf("entry (%d,%d): batch %v, edit by edit %v", i, j, dd[i][j], c.a.R[i][j])
			}
		}
	}
	for id, os := range c.orphans {
		if len(os) < 2 {
			continue
		}
		c.cov.multiFold++
		fwd, rev := orig.Get(id, id), orig.Get(id, id)
		for k := range os {
			fwd += os[k]
			rev += os[len(os)-1-k]
		}
		if fwd != rev {
			c.cov.orderSens++
		}
	}
	for _, id := range c.id {
		if id >= c.m0 && c.joins[id-c.m0] == 0 {
			c.cov.zeroJoin++
		}
	}
}

// assertUnchanged fails unless a is bit-identical to its earlier clone.
func assertUnchanged(t *testing.T, a, clone *sparse.Matrix) {
	t.Helper()
	if a.Rows() != clone.Rows() || a.Cols != clone.Cols {
		t.Fatalf("Apply resized its argument to %d×%d", a.Rows(), a.Cols)
	}
	for i := range a.Idx {
		if !slices.Equal(a.Idx[i], clone.Idx[i]) {
			t.Fatalf("Apply rewrote row %d's columns", i)
		}
		for t2, v := range a.Val[i] {
			if math.Float64bits(v) != math.Float64bits(clone.Val[i][t2]) {
				t.Fatalf("Apply rewrote entry (%d,%d)", i, a.Idx[i][t2])
			}
		}
	}
}

// TestSparseProjectionsMatchDense pins the session's allocation
// projections against their dense oracles: a rescale to new loads, then
// a random batch of 1–12 joins and leaves projected by one Resize and
// compared, bit for bit and entry for entry, with the same edits applied
// one at a time. The rescale makes the values fractional, so the order
// in which a row folds its orphans shows in the bits; every trial also
// strips one row's diagonal.
func TestSparseProjectionsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cov churnCoverage
	for trial := 0; trial < 400; trial++ {
		m := 3 + rng.Intn(20)
		dense := randomAllocation(rng, m)
		z := rng.Intn(m)
		dense.R[z][z] = 0
		dense.R[z][(z+1)%m] += 7
		sp := sparse.FromDense(dense.R, 0)

		oldLoads := make([]float64, m)
		newLoads := make([]float64, m)
		for i := range oldLoads {
			var sum float64
			for _, v := range dense.R[i] {
				sum += v
			}
			oldLoads[i] = sum
			newLoads[i] = float64(rng.Intn(80)) // zeros included
		}
		denseR := denseRescale(dense, oldLoads, newLoads)
		spR := Rescale(sp, oldLoads, newLoads)
		assertSparseEqualsDense(t, spR, denseR)

		ref := newChurnRef(spR, &cov)
		r := NewResize(m)
		for e, edits := 0, 1+rng.Intn(12); e < edits; e++ {
			cur := len(ref.id)
			if cur > 1 && rng.Intn(3) > 0 {
				i := rng.Intn(cur)
				ref.leave(i)
				r.Leave(i)
				continue
			}
			load := 0.0
			if rng.Intn(4) > 0 {
				load = rng.Float64() * 40
			}
			ref.join(load)
			r.Join(load)
		}
		if r.Len() == 0 {
			t.Fatal("batch recorded no edits")
		}
		clone := spR.Clone()
		got := r.Apply(spR)
		assertUnchanged(t, spR, clone)
		ref.check(t, got, spR)
		if r.Len() != 0 {
			t.Fatalf("Apply left %d edits pending", r.Len())
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.multiFold == 0 || cov.orderSens == 0 || cov.diagCreated == 0 || cov.joinLeft == 0 || cov.zeroJoin == 0 {
		t.Fatalf("the trials missed a case: %+v", cov)
	}
}

// FuzzResize decodes bytes into a small allocation (m ≤ 12, fractional
// values, some rows without a diagonal) and a batch of up to 64 joins
// and leaves, and pins the batch against the edits applied one at a
// time.
func FuzzResize(f *testing.F) {
	f.Add([]byte{4, 0, 9, 1, 5, 3, 7, 2, 3, 0x81, 0x03, 0x05})
	f.Add([]byte{2, 3, 1, 0, 0x02, 0x01, 0x01})
	f.Add([]byte{7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 0x80, 0x0b, 0x09, 0x07, 0x05, 0x03})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0])%12
		data = data[1:]
		// Each row takes one byte per column while bytes last: the value
		// is byte·0.1 (fractional, not exact in binary), 0 stored as no
		// entry.
		a := sparse.New(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m && len(data) > 0; j++ {
				if v := float64(data[0]%16) * 0.1; v != 0 {
					a.Idx[i] = append(a.Idx[i], int32(j))
					a.Val[i] = append(a.Val[i], v)
				}
				data = data[1:]
			}
		}
		ref := newChurnRef(a, &churnCoverage{})
		r := NewResize(m)
		// Each remaining byte, up to 64, is an edit: an odd byte leaves
		// index (b>>1) mod M, an even one joins with load (b>>1)·0.3.
		for _, b := range data[:min(len(data), 64)] {
			if cur := len(ref.id); b%2 == 1 && cur > 1 {
				i := int(b>>1) % cur
				ref.leave(i)
				r.Leave(i)
			} else {
				load := float64(b>>1) * 0.3
				ref.join(load)
				r.Join(load)
			}
		}
		clone := a.Clone()
		got := r.Apply(a)
		assertUnchanged(t, a, clone)
		ref.check(t, got, a)
	})
}
