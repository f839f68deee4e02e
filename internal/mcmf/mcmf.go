// Package mcmf implements a minimum-cost maximum-flow solver on graphs
// with float64 capacities and costs. The paper's Appendix A reduces
// negative-cycle removal — re-routing the already-relayed requests so that
// total communication cost is minimal while every server's outgoing and
// incoming totals stay fixed — to exactly this problem; package core
// performs that reduction.
//
// The solver uses successive shortest paths with Johnson potentials
// (Dijkstra on reduced costs), which requires the initial edge costs to be
// non-negative — true for latency costs.
package mcmf

import (
	"container/heap"
	"math"
)

// eps is the tolerance below which residual capacities are treated as zero.
const eps = 1e-9

// edge is one directed arc of the residual network. Arcs are stored in
// pairs: edge 2k is the forward arc, edge 2k+1 its reverse.
type edge struct {
	to   int
	cap  float64 // remaining residual capacity
	cost float64
}

// Graph is a flow network under construction. The zero value is unusable;
// create with NewGraph.
type Graph struct {
	n     int
	edges []edge
	adj   [][]int32 // adjacency lists of edge indices
}

// NewGraph returns an empty flow network with n nodes (0 … n−1).
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int32, n)}
}

// AddEdge inserts a directed edge from→to with the given capacity and
// per-unit cost and returns its id for later Flow queries. Cost must be
// non-negative for MinCostMaxFlow.
func (g *Graph) AddEdge(from, to int, capacity, cost float64) int {
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: to, cap: capacity, cost: cost})
	g.edges = append(g.edges, edge{to: from, cap: 0, cost: -cost})
	g.adj[from] = append(g.adj[from], int32(id))
	g.adj[to] = append(g.adj[to], int32(id+1))
	return id
}

// Flow returns the amount of flow currently routed through edge id.
func (g *Graph) Flow(id int) float64 { return g.edges[id^1].cap }

// priority queue for Dijkstra.
type pqItem struct {
	node int
	dist float64
}
type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// MinCostMaxFlow pushes as much flow as possible from s to t at minimum
// total cost and returns (flow, cost). It panics if any edge was added
// with negative cost (potentials would be invalid).
func (g *Graph) MinCostMaxFlow(s, t int) (flow, cost float64) {
	for id := 0; id < len(g.edges); id += 2 {
		if g.edges[id].cost < 0 {
			panic("mcmf: negative edge cost; MinCostMaxFlow requires non-negative costs")
		}
	}
	pot := make([]float64, g.n) // Johnson potentials; all zero initially is valid.
	dist := make([]float64, g.n)
	prevEdge := make([]int32, g.n)
	visited := make([]bool, g.n)

	for {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			visited[i] = false
			prevEdge[i] = -1
		}
		dist[s] = 0
		q := pq{{node: s, dist: 0}}
		for len(q) > 0 {
			it := heap.Pop(&q).(pqItem)
			u := it.node
			if visited[u] {
				continue
			}
			visited[u] = true
			for _, id := range g.adj[u] {
				e := &g.edges[id]
				if e.cap <= eps || visited[e.to] {
					continue
				}
				rc := e.cost + pot[u] - pot[e.to]
				if rc < 0 {
					// Numerical slack: clamp tiny negatives.
					if rc < -1e-6 {
						panic("mcmf: negative reduced cost; potentials corrupted")
					}
					rc = 0
				}
				if nd := dist[u] + rc; nd < dist[e.to] {
					dist[e.to] = nd
					prevEdge[e.to] = id
					heap.Push(&q, pqItem{node: e.to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			return flow, cost
		}
		for i := 0; i < g.n; i++ {
			if !math.IsInf(dist[i], 1) {
				pot[i] += dist[i]
			}
		}
		// Find bottleneck along the s→t path.
		bottleneck := math.Inf(1)
		for v := t; v != s; {
			id := prevEdge[v]
			e := g.edges[id]
			if e.cap < bottleneck {
				bottleneck = e.cap
			}
			v = g.edges[id^1].to
		}
		if bottleneck <= eps {
			return flow, cost
		}
		// Augment.
		for v := t; v != s; {
			id := prevEdge[v]
			g.edges[id].cap -= bottleneck
			g.edges[id^1].cap += bottleneck
			cost += bottleneck * g.edges[id].cost
			v = g.edges[id^1].to
		}
		flow += bottleneck
	}
}
