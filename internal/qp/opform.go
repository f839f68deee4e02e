package qp

import (
	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// This file evaluates the §III objective on a sparse iterate straight
// from the instance, in O(nnz + m), without materializing the m²×m²
// matrix that BuildQ builds for verification on small instances.

// LoadsSparse computes l_j = Σ_k n_k ρ_kj into dst (length m) from a
// sparse iterate in O(nnz). It mirrors Loads term for term — rows in
// ascending order, columns ascending within each row — so the two are
// bit-identical on matching inputs (dense zero entries contribute exact
// +0 terms, which do not alter an accumulating non-negative sum).
func LoadsSparse(in *model.Instance, rho *sparse.Matrix, dst []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for k, idx := range rho.Idx {
		nk := in.Load[k]
		if nk == 0 {
			continue
		}
		val := rho.Val[k]
		for t, j := range idx {
			dst[j] += nk * val[t]
		}
	}
}

// ObjectiveSparse evaluates ΣC_i at a sparse iterate in O(nnz + m),
// with the same accumulation order as Objective so dense and sparse
// solver runs agree bit for bit.
func ObjectiveSparse(in *model.Instance, rho *sparse.Matrix) float64 {
	m := in.M()
	var cost float64
	loads := make([]float64, m)
	LoadsSparse(in, rho, loads)
	for j, l := range loads {
		cost += l * l / (2 * in.Speed[j])
	}
	// The communication term reads one latency entry per stored nonzero
	// every iteration — hot enough to specialize per representation:
	// block views index the k×k table directly, dense views keep their
	// raw row slices. Values are identical either way (the block table
	// is the matrix), so runs stay bit-identical across representations.
	if b, ok := in.Latency.(*model.BlockLatency); ok {
		for i, idx := range rho.Idx {
			ni := in.Load[i]
			if ni == 0 {
				continue
			}
			drow := b.Delay[b.Label[i]]
			val := rho.Val[i]
			for t, j := range idx {
				if f := val[t]; f > 0 && int(j) != i {
					cost += ni * f * drow[b.Label[j]]
				}
			}
		}
		return cost
	}
	rowBuf := latRowBuf(in)
	for i, idx := range rho.Idx {
		ni := in.Load[i]
		if ni == 0 {
			continue
		}
		lat := model.RowView(in.Latency, i, rowBuf)
		val := rho.Val[i]
		for t, j := range idx {
			if f := val[t]; f > 0 && int(j) != i {
				cost += ni * f * lat[j]
			}
		}
	}
	return cost
}
