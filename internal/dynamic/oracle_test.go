package dynamic

import (
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// Dense reference implementations of the allocation projections. They
// are the oracle TestSparseProjectionsMatchDense pins Rescale, Expand and
// Collapse against, entry for entry.

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

// TestSparseProjectionsMatchDense pins the session's allocation
// projections entry-for-entry against their dense oracles across random
// rescale → expand → collapse sequences.
func TestSparseProjectionsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		m := 3 + rng.Intn(20)
		dense := randomAllocation(rng, m)
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

		join := float64(rng.Intn(40))
		denseE := denseExpand(denseR, join)
		spE := Expand(spR, join)
		assertSparseEqualsDense(t, spE, denseE)

		leave := rng.Intn(m + 1)
		denseC := denseCollapse(denseE, leave)
		spC := Collapse(spE, leave)
		assertSparseEqualsDense(t, spC, denseC)
	}
}
