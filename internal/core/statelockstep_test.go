package core

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/mcmf"
	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/sparse"
	"delaylb/internal/workload"
)

// This file is the per-step contract of the row store against a dense
// test-only reference. Before every step the state is densified, the
// reference runs the same step on the m×m matrix — Algorithm 1 through
// BalanceColumns on full m-length columns, Appendix A through the dense
// transportation network below — and that one step is compared:
//
//   - the loads of i and j agree within 1e-12 relative, and the gain
//     within 1e-12 of the cost (the two local-cost folds sum the same
//     terms in different orders);
//   - every entry and Moved agree bit for bit on steps where no two
//     organizations with mass share a key c_kj − c_ki (with ties, the
//     unstable sort may hand the same transfer to a different tied
//     organization);
//   - RemoveCycles agrees bit for bit in gain, entries and loads.

// blockTestInstance builds a BlockLatency-backed instance, so the
// checks cover the metro GatherCol path and its many tied keys.
func blockTestInstance(t testing.TB, m int, seed int64) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	delay, labels := netmodel.ClusteredBlock(m, 4, 0.5, 100, rng)
	in, err := model.NewBlockInstance(
		workload.UniformSpeeds(m, 1, 5, rng),
		workload.ExponentialLoads(m, 80, rng),
		delay, labels,
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// rowsOf copies a dense request matrix into a fresh row store.
func rowsOf(r [][]float64) *sparse.Matrix { return sparse.FromDense(r, 0) }

// denseOf densifies the state's request matrix.
func denseOf(st *State) *model.Allocation { return &model.Allocation{R: st.Rows.Dense()} }

// refStep is the dense reference's result for one pair step.
type refStep struct {
	li, lj float64
	gain   float64
	moved  float64
	tied   bool // two organizations with mass share a key c_kj − c_ki
}

// densePairStep runs Algorithm 1 on servers (i, j) of the dense matrix r
// (mutated in place), taking l_i and l_j before the step from loads.
func densePairStep(in *model.Instance, r [][]float64, loads []float64, i, j int) refStep {
	m := in.M()
	ri, rj := make([]float64, m), make([]float64, m)
	oi, oj := make([]float64, m), make([]float64, m)
	cI, cJ := make([]float64, m), make([]float64, m)
	in.Latency.ColInto(i, cI)
	in.Latency.ColInto(j, cJ)
	for k := 0; k < m; k++ {
		ri[k], rj[k] = r[k][i], r[k][j]
	}
	copy(oi, ri)
	copy(oj, rj)

	si, sj := in.Speed[i], in.Speed[j]
	cost := func(li, lj float64) float64 {
		c := li*li/(2*si) + lj*lj/(2*sj)
		for k := 0; k < m; k++ {
			if v := ri[k]; v != 0 {
				c += v * cI[k]
			}
			if v := rj[k]; v != 0 {
				c += v * cJ[k]
			}
		}
		return c
	}
	var out refStep
	before := cost(loads[i], loads[j])
	seen := map[float64]bool{}
	for k := 0; k < m; k++ {
		if ri[k] == 0 && rj[k] == 0 {
			continue
		}
		key := cJ[k] - cI[k]
		if seen[key] {
			out.tied = true
		}
		seen[key] = true
	}
	out.li, out.lj = BalanceColumns(si, sj, ri, rj, cI, cJ, nil, nil)
	out.gain = before - cost(out.li, out.lj)
	for k := 0; k < m; k++ {
		out.moved += math.Abs(ri[k]-oi[k]) + math.Abs(rj[k]-oj[k])
		r[k][i], r[k][j] = ri[k], rj[k]
	}
	out.moved /= 2
	return out
}

// removeCyclesDense is the Appendix A reroute on a dense matrix (mutated
// in place): the transportation network over the m×m off-diagonal
// entries, solved by min-cost max-flow. It returns the saved cost.
func removeCyclesDense(in *model.Instance, r [][]float64) float64 {
	m := in.M()
	out := make([]float64, m)
	inc := make([]float64, m)
	var totalRelayed, before float64
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				out[i] += r[i][j]
				inc[j] += r[i][j]
			}
		}
		totalRelayed += out[i]
	}
	if totalRelayed == 0 {
		return 0
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && r[i][j] != 0 {
				before += r[i][j] * in.LatAt(i, j)
			}
		}
	}
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
	var arcs []arc
	for i := 0; i < m; i++ {
		if out[i] == 0 {
			continue
		}
		for j := 0; j < m; j++ {
			if i == j || inc[j] == 0 || math.IsInf(in.LatAt(i, j), 1) {
				continue
			}
			arcs = append(arcs, arc{i, j, g.AddEdge(i, m+j, math.Inf(1), in.LatAt(i, j))})
		}
	}
	flow, after := g.MinCostMaxFlow(src, snk)
	if flow < totalRelayed*(1-1e-6) || after >= before {
		return 0
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				r[i][j] = 0
			}
		}
	}
	for _, e := range arcs {
		if f := g.Flow(e.id); f > 0 {
			r[e.i][e.j] = f
		}
	}
	return before - after
}

// closeRel reports |a − b| ≤ tol·max(1, |b|).
func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}

// sameEntries fails unless the state's rows hold exactly the dense
// matrix r, with owner lists and the no-explicit-zeros invariant intact.
func sameEntries(t *testing.T, step string, st *State, r [][]float64) {
	t.Helper()
	m := st.In.M()
	nnz := 0
	for k := 0; k < m; k++ {
		for j := 0; j < m; j++ {
			if got := st.Rows.Get(k, j); got != r[k][j] {
				t.Fatalf("%s: r[%d][%d] = %v, reference %v", step, k, j, got, r[k][j])
			}
			if r[k][j] != 0 {
				nnz++
			}
		}
	}
	if got := st.Rows.NNZ(); got != nnz {
		t.Fatalf("%s: %d stored entries, reference has %d nonzeros", step, got, nnz)
	}
	if err := st.Rows.Validate(); err != nil {
		t.Fatalf("%s: row store invalid: %v", step, err)
	}
	checkColumnIndex(t, st)
}

// stepChecker drives one state through pair steps and cycle removals,
// comparing each against the dense reference.
type stepChecker struct {
	t                  *testing.T
	st                 *State
	steps, tiedSteps   int
	worstLoad, worstGn float64
}

func (c *stepChecker) pair(i, j int) {
	t, st := c.t, c.st
	r := st.Rows.Dense()
	ref := densePairStep(st.In, r, st.Loads, i, j)
	costBefore := st.Cost()
	ev := EvaluatePair(st, i, j, nil)
	out := ApplyPair(st, i, j, nil)
	if ev != out {
		t.Fatalf("step %d (%d,%d): EvaluatePair %+v != ApplyPair %+v", c.steps, i, j, ev, out)
	}
	for _, p := range [][2]float64{{st.Loads[i], ref.li}, {st.Loads[j], ref.lj}} {
		if !closeRel(p[0], p[1], 1e-12) {
			t.Fatalf("step %d (%d,%d): load %v, reference %v", c.steps, i, j, p[0], p[1])
		}
		c.worstLoad = math.Max(c.worstLoad, math.Abs(p[0]-p[1])/math.Max(1, math.Abs(p[1])))
	}
	if math.Abs(out.Gain-ref.gain) > 1e-12*math.Max(1, costBefore) {
		t.Fatalf("step %d (%d,%d): gain %v, reference %v (cost %v)", c.steps, i, j, out.Gain, ref.gain, costBefore)
	}
	c.worstGn = math.Max(c.worstGn, math.Abs(out.Gain-ref.gain)/math.Max(1, costBefore))
	c.steps++
	if ref.tied {
		c.tiedSteps++
		return
	}
	if out.Moved != ref.moved || st.Loads[i] != ref.li || st.Loads[j] != ref.lj {
		t.Fatalf("step %d (%d,%d), tie-free: moved %v loads (%v, %v), reference %v (%v, %v)",
			c.steps, i, j, out.Moved, st.Loads[i], st.Loads[j], ref.moved, ref.li, ref.lj)
	}
	sameEntries(t, "tie-free pair step", st, r)
}

func (c *stepChecker) removeCycles() {
	t, st := c.t, c.st
	r := st.Rows.Dense()
	loads := append([]float64(nil), st.Loads...)
	want := removeCyclesDense(st.In, r)
	if got := RemoveCycles(st); got != want {
		t.Fatalf("step %d: RemoveCycles saved %v, reference %v", c.steps, got, want)
	}
	if want > 0 {
		// A reroute refreshes the loads from the new entries.
		(&model.Allocation{R: r}).LoadsInto(loads)
	}
	for j := range loads {
		if st.Loads[j] != loads[j] {
			t.Fatalf("step %d: RemoveCycles load[%d] = %v, reference %v", c.steps, j, st.Loads[j], loads[j])
		}
	}
	sameEntries(t, "RemoveCycles", st, r)
}

// TestSparseStateLockstepDense drives the state through randomized pair
// steps, checking every one against the dense reference, and checks
// RemoveCycles on a copy of every step's state (applying it for real
// every 29 steps), on dense (PlanetLab) and block (metro) latency views.
func TestSparseStateLockstepDense(t *testing.T) {
	cases := []struct {
		name string
		in   func(t testing.TB, m int, seed int64) *model.Instance
	}{
		{"planetlab", sparseTestInstance},
		{"block", blockTestInstance},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []int{7, 23, 64} {
				in := tc.in(t, m, int64(m)*3+1)
				c := &stepChecker{t: t, st: NewIdentityState(in)}
				rng := rand.New(rand.NewSource(int64(m)))
				for step := 0; step < 250; step++ {
					i, j := rng.Intn(m), rng.Intn(m)
					if i == j {
						continue
					}
					c.pair(i, j)
					(&stepChecker{t: t, st: c.st.clone()}).removeCycles()
					if step%29 == 0 {
						c.removeCycles()
					}
				}
				t.Logf("m=%d: %d steps (%d with tied keys), worst load error %.1e, worst gain error %.1e of the cost",
					m, c.steps, c.tiedSteps, c.worstLoad, c.worstGn)
				if c.steps == c.tiedSteps {
					t.Fatalf("m=%d: every step had tied keys, nothing was compared bit for bit", m)
				}
			}
		})
	}
}

// FuzzStateStep decodes bytes into an instance (m ≤ 16) and a sequence
// of pair and cycle-removal ops, and checks every op against the dense
// reference as TestSparseStateLockstepDense does.
func FuzzStateStep(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 2, 3, 4, 0xff, 2, 1})
	f.Add([]byte{14, 1, 1, 0, 13, 7, 2, 0xff, 9, 4, 4, 9, 0xff})
	f.Add([]byte{15, 3, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0xff, 0xff, 5, 6})
	f.Add([]byte{0, 2, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m := 2 + int(data[0])%15
		seed := int64(data[1])
		var in *model.Instance
		if data[1]%2 == 0 {
			in = sparseTestInstance(t, m, seed)
		} else {
			in = blockTestInstance(t, m, seed)
		}
		st := NewIdentityState(in)
		if data[2]%2 == 1 {
			st = randState(rand.New(rand.NewSource(seed)), in)
		}
		c := &stepChecker{t: t, st: st}
		ops := data[3:]
		for p := 0; p < len(ops) && p < 128; p++ {
			if ops[p] == 0xff {
				c.removeCycles()
				continue
			}
			if p+1 == len(ops) {
				break
			}
			i, j := int(ops[p])%m, int(ops[p+1])%m
			p++
			if i != j {
				c.pair(i, j)
			}
		}
	})
}

// TestSparseStateRunStateLockstep runs the full MinE loop (all three
// strategies, cycle removal on) from the two ways a solve enters the
// state — the sparse identity, and a dense allocation converted with
// sparse.FromDense as a dense warm start is — and pins bit-identical
// trajectories and final rows, with the O(nnz) cost matching the dense
// objective of the densified result.
func TestSparseStateRunStateLockstep(t *testing.T) {
	for _, strategy := range []Strategy{StrategyExact, StrategyProxy, StrategyHybrid} {
		for _, m := range []int{9, 31} {
			in := sparseTestInstance(t, m, int64(m)+100)
			cfg := func() Config {
				return Config{Strategy: strategy, RemoveCyclesEvery: 3, MaxIters: 40, Rng: rand.New(rand.NewSource(7))}
			}
			a := NewIdentityState(in)
			trA := RunState(a, cfg())
			b := NewState(in, rowsOf(model.Identity(in).R))
			trB := RunState(b, cfg())

			if len(trA.Costs) != len(trB.Costs) || trA.Reason != trB.Reason {
				t.Fatalf("strategy=%d m=%d: trajectories diverged: %d iters (%s) vs %d (%s)",
					strategy, m, trA.Iters, trA.Reason, trB.Iters, trB.Reason)
			}
			for k := range trA.Costs {
				if trA.Costs[k] != trB.Costs[k] {
					t.Fatalf("strategy=%d m=%d iter %d: cost %v vs %v", strategy, m, k, trA.Costs[k], trB.Costs[k])
				}
			}
			sameEntries(t, "final", b, a.Rows.Dense())
			if want := model.TotalCost(in, denseOf(a)); !closeRel(a.Cost(), want, 1e-12) {
				t.Fatalf("strategy=%d m=%d: Cost %v, dense objective %v", strategy, m, a.Cost(), want)
			}
		}
	}
}

// transferMatrixDense is the Proposition 1 transfer matrix on a dense
// matrix: Algorithm 1 on full columns for every ordered pair.
func transferMatrixDense(in *model.Instance, r [][]float64) [][]float64 {
	m := in.M()
	loads := make([]float64, m)
	dr := make([][]float64, m)
	for i := range dr {
		dr[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			cp := (&model.Allocation{R: r}).Clone().R
			densePairStep(in, cp, loads, i, j)
			for k := 0; k < m; k++ {
				if d := cp[k][j] - r[k][j]; d > 0 {
					dr[i][j] += d
				}
			}
		}
	}
	return dr
}

// TestSparseStateErrorBound pins the Proposition 1 estimation and the
// cycle gain against the dense reference, bit for bit.
func TestSparseStateErrorBound(t *testing.T) {
	in := sparseTestInstance(t, 14, 5)
	st := NewIdentityState(in)
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 30; step++ {
		i, j := rng.Intn(14), rng.Intn(14)
		if i == j {
			continue
		}
		ApplyPair(st, i, j, nil)
	}
	got, want := TransferMatrix(st), transferMatrixDense(in, st.Rows.Dense())
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("Δr[%d][%d] = %v, reference %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	m := float64(in.M())
	if b, ref := DistanceBound(st), (4*m+1)*DeltaR(st, want)*in.TotalSpeed(); b != ref {
		t.Fatalf("DistanceBound %v, reference %v", b, ref)
	}
	if g, ref := cycleGain(st), removeCyclesDense(in, st.Rows.Dense()); g != ref {
		t.Fatalf("cycleGain %v, reference %v", g, ref)
	}
}
