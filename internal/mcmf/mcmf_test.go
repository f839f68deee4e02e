package mcmf

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimplePath(t *testing.T) {
	// s --(cap 5, cost 1)--> t
	g := NewGraph(2)
	e := g.AddEdge(0, 1, 5, 1)
	flow, cost := g.MinCostMaxFlow(0, 1)
	if flow != 5 || cost != 5 {
		t.Errorf("flow=%v cost=%v, want 5/5", flow, cost)
	}
	if g.Flow(e) != 5 {
		t.Errorf("edge flow = %v, want 5", g.Flow(e))
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 2-hop routes: cost 2 (via 1) and cost 10 (via 2), each
	// capacity 3; demand is unlimited at the source edge with capacity 4,
	// so 3 must go the cheap way and 1 the expensive way.
	g := NewGraph(4)
	g.AddEdge(0, 1, 3, 1)
	g.AddEdge(1, 3, 3, 1)
	g.AddEdge(0, 2, 3, 5)
	g.AddEdge(2, 3, 3, 5)
	flow, cost := g.MinCostMaxFlow(0, 3)
	if flow != 6 {
		t.Fatalf("flow = %v, want 6", flow)
	}
	if cost != 3*2+3*10 {
		t.Errorf("cost = %v, want 36", cost)
	}
}

func TestRespectsBottleneck(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 10, 0)
	g.AddEdge(1, 2, 4, 2)
	flow, cost := g.MinCostMaxFlow(0, 2)
	if flow != 4 || cost != 8 {
		t.Errorf("flow=%v cost=%v, want 4/8", flow, cost)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5, 1)
	flow, cost := g.MinCostMaxFlow(0, 2)
	if flow != 0 || cost != 0 {
		t.Errorf("flow=%v cost=%v, want 0/0", flow, cost)
	}
}

func TestRoutesAroundSaturation(t *testing.T) {
	// Classic case where successive shortest paths must use a residual
	// (backward) arc to reach optimality.
	//     s→a (2, 1)   a→t (2, 1)
	//     s→b (2, 2)   b→t (2, 2)
	//     a→b (2, 0)
	g := NewGraph(4)
	s, a, b, tt := 0, 1, 2, 3
	g.AddEdge(s, a, 2, 1)
	g.AddEdge(a, tt, 2, 1)
	g.AddEdge(s, b, 2, 2)
	g.AddEdge(b, tt, 2, 2)
	g.AddEdge(a, b, 2, 0)
	flow, cost := g.MinCostMaxFlow(s, tt)
	if flow != 4 {
		t.Fatalf("flow = %v, want 4", flow)
	}
	// Optimal: 2 via s→a→t (cost 4), 2 via s→b→t (cost 8) = 12.
	if cost != 12 {
		t.Errorf("cost = %v, want 12", cost)
	}
	if cyc := g.negativeCycle(); cyc != nil {
		t.Errorf("optimal flow has residual negative cycle %v", cyc)
	}
}

func TestPanicsOnNegativeCost(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative edge cost")
		}
	}()
	g := NewGraph(2)
	g.AddEdge(0, 1, 1, -1)
	g.MinCostMaxFlow(0, 1)
}

// bruteForceTransport solves a tiny transportation problem exactly by
// enumerating integer flows, as a reference for the solver.
func bruteForceTransport(supply, demand []float64, cost [][]float64) float64 {
	best := math.Inf(1)
	var rec func(i int, s, d []float64, acc float64)
	rec = func(i int, s, d []float64, acc float64) {
		if acc >= best {
			return
		}
		if i == len(supply)*len(demand) {
			for _, v := range s {
				if v > 1e-9 {
					return
				}
			}
			best = acc
			return
		}
		si, dj := i/len(demand), i%len(demand)
		maxf := int(math.Min(s[si], d[dj]) + 1e-9)
		for f := 0; f <= maxf; f++ {
			s[si] -= float64(f)
			d[dj] -= float64(f)
			rec(i+1, s, d, acc+float64(f)*cost[si][dj])
			s[si] += float64(f)
			d[dj] += float64(f)
		}
	}
	rec(0, append([]float64(nil), supply...), append([]float64(nil), demand...), 0)
	return best
}

func TestTransportationAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ns, nd := 2+rng.Intn(2), 2+rng.Intn(2)
		supply := make([]float64, ns)
		demand := make([]float64, nd)
		var total float64
		for i := range supply {
			supply[i] = float64(rng.Intn(4))
			total += supply[i]
		}
		rem := total
		for j := range demand {
			if j == nd-1 {
				demand[j] = rem
			} else {
				d := float64(rng.Intn(int(rem) + 1))
				demand[j] = d
				rem -= d
			}
		}
		cost := make([][]float64, ns)
		for i := range cost {
			cost[i] = make([]float64, nd)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(9))
			}
		}
		// Build s → suppliers → consumers → t.
		g := NewGraph(ns + nd + 2)
		s, tt := ns+nd, ns+nd+1
		for i := range supply {
			g.AddEdge(s, i, supply[i], 0)
		}
		for j := range demand {
			g.AddEdge(ns+j, tt, demand[j], 0)
		}
		for i := range supply {
			for j := range demand {
				g.AddEdge(i, ns+j, math.Inf(1), cost[i][j])
			}
		}
		flow, got := g.MinCostMaxFlow(s, tt)
		if math.Abs(flow-total) > 1e-9 {
			t.Fatalf("flow = %v, want %v", flow, total)
		}
		want := bruteForceTransport(supply, demand, cost)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("cost = %v, brute force = %v (supply %v, demand %v, cost %v)",
				got, want, supply, demand, cost)
		}
	}
}

// negativeCycle searches the residual graph (arcs with residual capacity
// > eps) for a cycle of negative total cost using Bellman–Ford and returns
// the edge ids along one such cycle, or nil if none exists. A min-cost
// flow is optimal iff the residual graph has no negative cycle, so this
// is the optimality check of the flow tests.
func (g *Graph) negativeCycle() []int {
	dist := make([]float64, g.n)
	prevEdge := make([]int32, g.n)
	for i := range prevEdge {
		prevEdge[i] = -1
	}
	var witness int32 = -1
	for iter := 0; iter < g.n; iter++ {
		witness = -1
		for u := 0; u < g.n; u++ {
			for _, id := range g.adj[u] {
				e := &g.edges[id]
				if e.cap <= eps {
					continue
				}
				if nd := dist[u] + e.cost; nd < dist[e.to]-1e-12 {
					dist[e.to] = nd
					prevEdge[e.to] = id
					witness = id
				}
			}
		}
		if witness == -1 {
			return nil
		}
	}
	// A relaxation happened on the n-th pass: walk back n steps to land
	// inside the cycle, then collect it.
	v := g.edges[witness].to
	for i := 0; i < g.n; i++ {
		v = g.edges[prevEdge[v]^1].to
	}
	var cyc []int
	u := v
	for {
		id := prevEdge[u]
		cyc = append(cyc, int(id))
		u = g.edges[id^1].to
		if u == v {
			break
		}
	}
	// Reverse so edges follow the cycle direction.
	for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
		cyc[i], cyc[j] = cyc[j], cyc[i]
	}
	return cyc
}

func TestNegativeCycleDetection(t *testing.T) {
	// Build a residual graph containing a negative cycle directly:
	// a→b cost 1, b→c cost 1, c→a cost −5, all with capacity.
	g := NewGraph(3)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 1)
	// Simulate a residual arc with negative cost by adding a forward
	// edge and shifting flow onto it via its pair: here we cheat and add
	// the negative arc directly since negativeCycle reads raw arcs.
	g.edges = append(g.edges, edge{to: 0, cap: 1, cost: -5})
	g.edges = append(g.edges, edge{to: 2, cap: 0, cost: 5})
	g.adj[2] = append(g.adj[2], int32(len(g.edges)-2))
	g.adj[0] = append(g.adj[0], int32(len(g.edges)-1))

	cyc := g.negativeCycle()
	if cyc == nil {
		t.Fatal("negative cycle not detected")
	}
	var total float64
	for _, id := range cyc {
		total += g.edges[id].cost
	}
	if total >= 0 {
		t.Errorf("returned cycle has cost %v, want negative", total)
	}
}

func TestNoFalseNegativeCycle(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 3, 2)
	g.AddEdge(1, 2, 3, 2)
	g.AddEdge(2, 3, 3, 2)
	if cyc := g.negativeCycle(); cyc != nil {
		t.Errorf("found negative cycle %v in a DAG", cyc)
	}
}

func TestFlowConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 6
		g := NewGraph(n)
		type rec struct{ id, from, to int }
		var recs []rec
		for i := 0; i < 12; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			id := g.AddEdge(from, to, float64(1+rng.Intn(5)), float64(rng.Intn(10)))
			recs = append(recs, rec{id, from, to})
		}
		flow, _ := g.MinCostMaxFlow(0, n-1)
		// Net flow at internal nodes must be zero.
		net := make([]float64, n)
		for _, r := range recs {
			f := g.Flow(r.id)
			if f < -1e-9 {
				t.Fatalf("negative flow %v", f)
			}
			net[r.from] -= f
			net[r.to] += f
		}
		for v := 1; v < n-1; v++ {
			if math.Abs(net[v]) > 1e-9 {
				t.Fatalf("conservation violated at node %d: %v", v, net[v])
			}
		}
		if math.Abs(net[n-1]-flow) > 1e-9 || math.Abs(net[0]+flow) > 1e-9 {
			t.Fatalf("source/sink imbalance: %v / %v vs flow %v", net[0], net[n-1], flow)
		}
	}
}

func BenchmarkTransportation50x50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := 50
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		g := NewGraph(2*m + 2)
		s, t := 2*m, 2*m+1
		for i := 0; i < m; i++ {
			g.AddEdge(s, i, 10, 0)
			g.AddEdge(m+i, t, 10, 0)
			for j := 0; j < m; j++ {
				g.AddEdge(i, m+j, math.Inf(1), rng.Float64()*100)
			}
		}
		g.MinCostMaxFlow(s, t)
	}
}
