package dynamic

import (
	"delaylb/internal/sparse"
)

// Allocation projections for load and server churn. When demand changes
// or a server joins or leaves mid-session, the carried-over allocation
// must stay feasible (every row summing to its organization's load,
// entries non-negative) so the next warm re-solve starts from a valid —
// and usually still near-optimal — point. Allocations are sparse
// requests matrices (request units); every projection costs O(nnz + m)
// and builds its result on contiguous backing arrays, so a whole
// projection is a handful of allocations regardless of m — the property
// the session's allocation-regression smoke test pins. Dense oracles in
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
// does naturally when its demand changes but its routing table persists:
// row i is scaled by newLoads[i]/oldLoads[i]. Organizations that
// previously had zero load restart as the identity placement of their
// new load.
func Rescale(a *sparse.Matrix, oldLoads, newLoads []float64) *sparse.Matrix {
	return sparse.ScaleRows(a, func(i int) (float64, float64, bool) {
		if oldLoads[i] > 0 {
			return newLoads[i] / oldLoads[i], 0, true
		}
		return 0, newLoads[i], false
	})
}

// Expand grows an m×m allocation to (m+1)×(m+1) for a newly joined
// organization with the given load. Existing rows are shared
// structurally and gain no entry in the new column — nobody relays to
// an unknown server yet — and the newcomer starts by serving its own
// load at index m, exactly like the identity start of a fresh server.
// Row sums are preserved, so feasibility carries over verbatim.
func Expand(a *sparse.Matrix, newLoad float64) *sparse.Matrix {
	m := len(a.Idx)
	out := &sparse.Matrix{
		Cols: a.Cols + 1,
		Idx:  make([][]int32, m+1),
		Val:  make([][]float64, m+1),
	}
	copy(out.Idx, a.Idx)
	copy(out.Val, a.Val)
	out.Idx[m] = []int32{int32(m)}
	out.Val[m] = []float64{newLoad}
	return out
}

// Collapse removes server `leaving` from an allocation: the departing
// organization's row vanishes (its requests leave with it) and every
// column index above `leaving` shifts down by one. Failover pulls
// orphaned mass home: every remaining organization moves the requests
// it was relaying to the leaving server back to its own server — what a
// running system does naturally, and the projection that keeps each
// surviving row summing to its unchanged load. The next warm re-solve
// redistributes that returned mass optimally.
func Collapse(a *sparse.Matrix, leaving int) *sparse.Matrix {
	m := len(a.Idx)
	nnz := a.NNZ() + m // folding back may create a missing diagonal
	out, ibuf, vbuf := newContiguous(m-1, a.Cols-1, nnz)
	lv := int32(leaving)
	for i := 0; i < m; i++ {
		if i == leaving {
			continue
		}
		ni := i
		if i > leaving {
			ni--
		}
		diag := int32(ni)
		var orphaned float64
		start := len(ibuf)
		diagSlot := -1
		for t, j := range a.Idx[i] {
			v := a.Val[i][t]
			switch {
			case j == lv:
				orphaned = v
				continue
			case j > lv:
				j--
			}
			if j == diag {
				diagSlot = len(ibuf)
			}
			ibuf = append(ibuf, j)
			vbuf = append(vbuf, v)
		}
		if orphaned != 0 {
			if diagSlot >= 0 {
				vbuf[diagSlot] += orphaned
			} else {
				// Insert the diagonal at its sorted slot.
				pos := start
				for pos < len(ibuf) && ibuf[pos] < diag {
					pos++
				}
				ibuf = append(ibuf, 0)
				vbuf = append(vbuf, 0)
				copy(ibuf[pos+1:], ibuf[pos:])
				copy(vbuf[pos+1:], vbuf[pos:])
				ibuf[pos] = diag
				vbuf[pos] = orphaned
			}
		}
		out.Idx[ni] = ibuf[start:len(ibuf):len(ibuf)]
		out.Val[ni] = vbuf[start:len(vbuf):len(vbuf)]
	}
	return out
}
