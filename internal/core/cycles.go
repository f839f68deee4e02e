package core

import (
	"math"

	"delaylb/internal/mcmf"
)

// RemoveCycles implements the paper's Appendix A: it re-routes all
// currently relayed requests so that total communication cost is minimal
// while every organization's outgoing volume and every server's incoming
// volume stay fixed. Any "negative cycle" — a set of organizations
// effectively swapping requests at unnecessary communication cost —
// disappears in the re-routed solution.
//
// The reduction builds a bipartite transportation network: source →
// front node i_f with capacity out(ρ,i); back node j_b → sink with
// capacity in(ρ,j); arcs i_f → j_b (i ≠ j, c_ij finite) with cost c_ij
// and infinite capacity. The min-cost max-flow re-assigns the off-
// diagonal entries of the allocation; diagonal entries are untouched.
//
// The supply/demand vectors and the cost of the current routing are
// folded over the stored entries of the state's row form (built once,
// O(nnz + m)), and the re-routed rows are rebuilt from the flow arcs in
// O(flow support); the columns and loads are then rebuilt from the
// rewritten rows. The transportation graph itself involves only
// servers that currently relay or receive, so its size tracks the
// allocation's support, not m².
//
// It returns the reduction of ΣC_i (≥ 0; loads are preserved so only the
// communication term changes).
func RemoveCycles(st *State) float64 {
	in := st.In
	m := in.M()

	rows := st.Rows()
	out := make([]float64, m)
	inc := make([]float64, m)
	var totalRelayed float64
	var before float64
	for i := 0; i < m; i++ {
		for t, j := range rows.Idx[i] {
			if int(j) == i {
				continue
			}
			v := rows.Val[i][t]
			out[i] += v
			inc[j] += v
		}
		totalRelayed += out[i]
	}
	if totalRelayed == 0 {
		return 0
	}
	for i := 0; i < m; i++ {
		for t, j := range rows.Idx[i] {
			if int(j) != i && rows.Val[i][t] != 0 {
				before += rows.Val[i][t] * in.LatAt(i, int(j))
			}
		}
	}

	// Nodes: 0..m-1 fronts, m..2m-1 backs, 2m source, 2m+1 sink.
	g := mcmf.NewGraph(2*m + 2)
	src, snk := 2*m, 2*m+1
	for i := 0; i < m; i++ {
		if out[i] > 0 {
			g.AddEdge(src, i, out[i], 0)
		}
		if inc[i] > 0 {
			g.AddEdge(m+i, snk, inc[i], 0)
		}
	}
	type arc struct{ i, j, id int }
	arcs := make([]arc, 0, m)
	for i := 0; i < m; i++ {
		if out[i] == 0 {
			continue
		}
		for j := 0; j < m; j++ {
			if i == j || inc[j] == 0 || math.IsInf(in.LatAt(i, j), 1) {
				continue
			}
			id := g.AddEdge(i, m+j, math.Inf(1), in.LatAt(i, j))
			arcs = append(arcs, arc{i, j, id})
		}
	}
	flow, after := g.MinCostMaxFlow(src, snk)
	// The original allocation is itself a feasible routing, so the max
	// flow saturates all supplies; guard against numeric shortfalls.
	if flow < totalRelayed*(1-1e-6) {
		return 0
	}
	if after >= before {
		return 0
	}
	// Rebuild every relaying row from its flow arcs (generated with j
	// ascending), splicing the untouched diagonal entry back in at its
	// sorted position. Non-relaying rows hold only their diagonal and
	// stay as they are.
	ai := 0
	for i := 0; i < m; i++ {
		start := ai
		for ai < len(arcs) && arcs[ai].i == i {
			ai++
		}
		if out[i] == 0 {
			continue
		}
		diag := rows.Get(i, i)
		idxNew := make([]int32, 0, ai-start+1)
		valNew := make([]float64, 0, ai-start+1)
		placed := diag == 0
		for t := start; t < ai; t++ {
			e := arcs[t]
			f := g.Flow(e.id)
			if f <= 0 {
				continue
			}
			if !placed && e.j > i {
				idxNew = append(idxNew, int32(i))
				valNew = append(valNew, diag)
				placed = true
			}
			idxNew = append(idxNew, int32(e.j))
			valNew = append(valNew, f)
		}
		if !placed {
			idxNew = append(idxNew, int32(i))
			valNew = append(valNew, diag)
		}
		rows.Idx[i], rows.Val[i] = idxNew, valNew
	}
	// The re-routing rewrote arbitrary off-diagonal entries. Loads are
	// preserved by construction; the rebuild refreshes them to clear
	// float drift.
	st.setColumns(rows)
	return before - after
}
