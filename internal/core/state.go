// Package core implements the paper's primary contribution: the MinE
// distributed load-balancing algorithm (paper Algorithms 1 and 2), built
// on the optimal pairwise transfer of Lemma 1, together with the
// Proposition 1 distance-to-optimum estimation and the negative-cycle
// removal of Appendix A (via a min-cost-flow reduction).
//
// The algorithm iteratively improves an allocation: in every iteration
// each server, in random order, picks the partner server offering the
// largest improvement of ΣC_i and rebalances *all* organizations'
// requests between the two servers. Pairwise stability implies global
// optimality for this convex objective, which is why the procedure
// converges to the optimum (§IV-A).
package core

import (
	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// State couples an instance with a mutable allocation and maintains the
// server load vector incrementally.
//
// The request matrix lives in Rows, a sparse row store (internal/sparse)
// holding only the nonzero r_kj — O(nnz) memory, the m² matrix is never
// allocated. Its column view, the per-server owner lists, is kept in
// step with it, so a pairwise step costs O((w_i + w_j) log(w_i + w_j))
// where w_j is the number of organizations with requests on server j.
// Real allocations keep w_j ≪ m (each server hosts a handful of
// organizations' requests), so partner evaluation never pays for the
// m − w empty column slots. Algorithm 1 only changes the requests of
// organizations with mass on one of the two servers it balances, so
// this compacted step is the paper's step.
type State struct {
	In *model.Instance
	// Rows is the request matrix. Invariant: no explicit zeros are
	// stored, so stored entries and nonzero entries coincide — NewState
	// establishes it and ApplyPair/RemoveCycles preserve it. Mutate it
	// only through those two, or the owner lists go stale.
	Rows  *sparse.Matrix
	Loads []float64
	// colOwners[j] lists in ascending order the organizations k with
	// r_kj != 0: the column view of Rows.
	colOwners [][]int32
}

// NewState wraps an instance and a sparse request matrix (not copied)
// into a State. Explicit zeros are pruned (a stored zero contributes
// exactly +0.0 to every fold) and the owner lists are built. O(nnz + m).
func NewState(in *model.Instance, rows *sparse.Matrix) *State {
	rows.Prune(0)
	m := in.M()
	st := &State{In: in, Rows: rows, Loads: make([]float64, m), colOwners: make([][]int32, m)}
	st.loadsFromRows()
	st.rebuildColumnIndex()
	return st
}

// NewIdentityState starts from the identity allocation (everyone local).
func NewIdentityState(in *model.Instance) *State {
	return NewState(in, sparse.Diagonal(in.Load))
}

// loadsFromRows recomputes Loads from the row store, row by row in
// ascending column order (the order of Allocation.LoadsInto, whose
// zeros add exactly +0.0, so the two folds agree bit for bit).
func (st *State) loadsFromRows() {
	for j := range st.Loads {
		st.Loads[j] = 0
	}
	for k := range st.Rows.Idx {
		for t, j := range st.Rows.Idx[k] {
			st.Loads[j] += st.Rows.Val[k][t]
		}
	}
}

// Cost returns the current ΣC_i, with the communication term summed
// over the owner lists in O(nnz).
func (st *State) Cost() float64 {
	var cost float64
	for j, l := range st.Loads {
		cost += l * l / (2 * st.In.Speed[j])
	}
	for j, owners := range st.colOwners {
		for _, k := range owners {
			if int(k) != j {
				cost += st.Rows.Get(int(k), j) * st.In.LatAt(int(k), j)
			}
		}
	}
	return cost
}

// Clone deep-copies the state (the instance is shared, it is read-only).
func (st *State) Clone() *State {
	cp := &State{
		In:        st.In,
		Rows:      st.Rows.Clone(),
		Loads:     append([]float64(nil), st.Loads...),
		colOwners: make([][]int32, len(st.colOwners)),
	}
	for j, owners := range st.colOwners {
		cp.colOwners[j] = append([]int32(nil), owners...)
	}
	return cp
}

// rebuildColumnIndex recomputes the owner lists from Rows. O(nnz + m).
func (st *State) rebuildColumnIndex() {
	for j := range st.colOwners {
		st.colOwners[j] = st.colOwners[j][:0]
	}
	for k := range st.Rows.Idx {
		for _, j := range st.Rows.Idx[k] {
			st.colOwners[j] = append(st.colOwners[j], int32(k))
		}
	}
}

// localCost returns the part of ΣC_i that depends only on columns i and j:
// l_i²/2s_i + l_j²/2s_j + Σ_k (r_ki·c_ki + r_kj·c_kj). Pairwise steps
// change only this quantity, so improvements are computed from it.
func (st *State) localCost(i, j int) float64 {
	in := st.In
	li, lj := st.Loads[i], st.Loads[j]
	cost := li*li/(2*in.Speed[i]) + lj*lj/(2*in.Speed[j])
	for _, k := range st.colOwners[i] {
		cost += st.Rows.Get(int(k), i) * in.LatAt(int(k), i)
	}
	for _, k := range st.colOwners[j] {
		cost += st.Rows.Get(int(k), j) * in.LatAt(int(k), j)
	}
	return cost
}
