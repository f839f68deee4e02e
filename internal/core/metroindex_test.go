package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/workload"
)

// metroKind picks the speeds and loads of a random block instance.
type metroKind int

const (
	// mixedSpeeds: speeds uniform in [1, 5], integer loads in [0, 300].
	mixedSpeeds metroKind = iota
	// constSpeeds: every speed 2, so the speed-ordered leaves fall back
	// to index order.
	constSpeeds
	// paletteSpeeds: speeds from {1, 2, 4} and loads from a coarse
	// grid, so bounds and gains tie exactly across servers.
	paletteSpeeds
	// zipfSkew: mixed speeds and zipf-skewed loads.
	zipfSkew
)

// randomMetroInstance builds a random block-backed instance with idle
// servers mixed in — the regime where the bucketed search's
// branch-and-bound has to be exact, not just the const-speed special
// case.
func randomMetroInstance(rng *rand.Rand, m, k int, infPair bool, kind metroKind) *model.Instance {
	delay := make([][]float64, k)
	for g := range delay {
		delay[g] = make([]float64, k)
		for h := range delay[g] {
			if g == h {
				delay[g][h] = 1 + rng.Float64()*4
			} else {
				delay[g][h] = 5 + rng.Float64()*95
			}
		}
	}
	if infPair && k > 1 {
		delay[0][k-1] = math.Inf(1)
		delay[k-1][0] = math.Inf(1)
	}
	labels := make([]int, m)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	speed := make([]float64, m)
	load := make([]float64, m)
	if kind == zipfSkew {
		load = workload.ZipfLoads(m, 100, 1.2, rng)
	}
	for i := range speed {
		switch kind {
		case constSpeeds:
			speed[i], load[i] = 2, math.Round(rng.Float64()*300)
		case paletteSpeeds:
			speed[i], load[i] = []float64{1, 2, 4}[rng.Intn(3)], 40*float64(rng.Intn(6))
		case zipfSkew:
			speed[i] = 1 + 4*rng.Float64()
		default:
			speed[i], load[i] = 1+4*rng.Float64(), math.Round(rng.Float64()*300)
		}
		if rng.Intn(7) == 0 {
			load[i] = 0 // idle servers exercise the clamp edge cases
		}
	}
	in, err := model.NewBlockInstance(speed, load, delay, labels)
	if err != nil {
		panic(err)
	}
	return in
}

// agreementInstances draws the inputs every agreement test covers:
// `small` instances of each speed kind with m in [10, 10+spread), then
// three with m in [300, 600] and zipf loads. Their metro sizes are not
// all powers of two, so some bottom-up tree nodes hold leaves from both
// ends of a metro's speed order.
func agreementInstances(t *testing.T, seed int64, small, spread int) []*model.Instance {
	rng := rand.New(rand.NewSource(seed))
	var out []*model.Instance
	for trial := 0; trial < small; trial++ {
		for _, kind := range []metroKind{mixedSpeeds, constSpeeds, paletteSpeeds} {
			out = append(out, randomMetroInstance(rng, 10+rng.Intn(spread), 1+rng.Intn(8), trial%3 == 0, kind))
		}
	}
	for trial := 0; trial < 3; trial++ {
		in := randomMetroInstance(rng, 300+rng.Intn(301), 3+rng.Intn(6), trial == 0, zipfSkew)
		pow2 := true
		for _, tr := range NewMetroIndex(in).trees {
			pow2 = pow2 && (tr == nil || bits.OnesCount(uint(tr.n)) == 1)
		}
		if pow2 {
			t.Fatalf("m=%d: every metro size is a power of two", in.M())
		}
		out = append(out, in)
	}
	return out
}

// checkPick fails unless the index and the plain scan pick the same
// partner with the same gain, bit for bit, under floors 0, g/2, the
// float just below g, g itself and the extra ones given, where g is the
// scan's best gain: a floor below g must leave the pick unchanged, and
// one at or above it must answer (-1, 0).
func checkPick(t *testing.T, s *selector, id int, extra ...float64) {
	t.Helper()
	wantJ, wantG := s.bestProxy(id)
	for _, f := range append([]float64{0, wantG / 2, math.Nextafter(wantG, math.Inf(-1)), wantG}, extra...) {
		j, g := wantJ, wantG
		if !(wantG > f) {
			j, g = -1, 0
		}
		if gotJ, gotG := s.metro.Best(id, f); gotJ != j || gotG != g {
			t.Fatalf("m=%d id %d floor %v: scan (%d, %v) vs index (%d, %v)", s.st.In.M(), id, f, j, g, gotJ, gotG)
		}
	}
}

// checkShortlists fails unless the index's hybrid shortlists (exact
// proxy top-k and nearest-k) equal their dense counterparts, element
// for element including tie order.
func checkShortlists(t *testing.T, s *selector, id, k int) {
	t.Helper()
	in := s.st.In
	m := in.M()
	wantTop := appendTopK(nil, k, m, id, func(j int) float64 { return s.proxyGain(id, j) })
	gotTop := s.metro.AppendTopProxy(nil, id, k)
	if fmt.Sprint(wantTop) != fmt.Sprint(gotTop) {
		t.Fatalf("m=%d id %d: proxy top-%d %v vs %v", m, id, k, wantTop, gotTop)
	}
	lat := model.RowView(in.Latency, id, make([]float64, m))
	wantNear := appendTopK(nil, k, m, id, func(j int) float64 {
		if math.IsInf(lat[j], 1) {
			return math.Inf(-1)
		}
		return -lat[j]
	})
	gotNear := s.metro.AppendNearest(nil, id, k)
	if fmt.Sprint(wantNear) != fmt.Sprint(gotNear) {
		t.Fatalf("m=%d id %d: nearest-%d %v vs %v", m, id, k, wantNear, gotNear)
	}
}

// proxyStep applies the scan's pick for a random server, so β values
// move between rounds, and re-syncs the index.
func proxyStep(s *selector, rng *rand.Rand) {
	id := rng.Intn(s.st.In.M())
	if j, g := s.bestProxy(id); j >= 0 && g > 0 {
		ApplyPair(s.st, id, j, s.buf)
		s.noteLoads(id, j)
	}
}

// TestMetroIndexPickAgreement pins the bucketed proxy search against the
// unbucketed O(m) scan: same partner, same gain, for every server, under
// evolving loads (accepted transfers mutate loads between rounds).
func TestMetroIndexPickAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, in := range agreementInstances(t, 17, 4, 60) {
		s := newSelector(NewIdentityState(in), Config{Strategy: StrategyProxy})
		if s.metro == nil {
			t.Fatal("metro index should engage on a block-backed instance")
		}
		for round := 0; round < 6; round++ {
			for id := 0; id < in.M(); id++ {
				checkPick(t, s, id)
			}
			proxyStep(s, rng)
		}
	}
}

// TestMetroNodeBoundDominates pins the branch-and-bound's premise: for
// every query server and every tree node, the node's bound is at least
// the proxy gain of every member under it, the query server aside. The
// instances cover every speed kind, idle servers, +Inf metro pairs and
// loads moved by pair steps.
func TestMetroNodeBoundDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pairs := 0
	for trial := 0; trial < 10; trial++ {
		for _, kind := range []metroKind{mixedSpeeds, constSpeeds, paletteSpeeds, zipfSkew} {
			in := randomMetroInstance(rng, 10+rng.Intn(120), 2+rng.Intn(5), trial%2 == 0, kind)
			s := newSelector(NewIdentityState(in), Config{Strategy: StrategyProxy})
			for step := 0; step < 4; step++ {
				for id := 0; id < in.M(); id++ {
					pairs += checkNodeBounds(t, s, id)
				}
				proxyStep(s, rng)
			}
		}
	}
	t.Logf("%d node/member pairs", pairs)
}

// checkNodeBounds walks every metro's tree for a query from id, fails
// unless each node's bound dominates the proxy gain of each member under
// it, and returns the number of node/member pairs checked. A metro whose
// size is not a power of two keeps leaves at two depths, so the walk
// follows the children rather than a leaf range.
func checkNodeBounds(t *testing.T, s *selector, id int) int {
	t.Helper()
	mi := s.metro
	si, bi := mi.speed[id], mi.beta[id]
	gi := mi.labels[id]
	pairs := 0
	for h, tr := range mi.trees {
		if tr == nil {
			continue
		}
		root := &tr.nodes[1]
		a, b := thresholds(bi, mi.delay[gi][h], mi.delay[h][gi], max(root.maxB, -root.minB))
		var walk func(v int) []int32
		walk = func(v int) []int32 {
			var members []int32
			if v >= tr.n {
				members = []int32{tr.leaves[v-tr.n]}
			} else {
				members = append(walk(2*v), walk(2*v+1)...)
			}
			ub := nodeUB(&tr.nodes[v], si, si*bi*bi, a, b)
			for _, j := range members {
				if int(j) == id {
					continue
				}
				if g := s.proxyGain(id, int(j)); !(ub >= g) {
					t.Fatalf("m=%d id %d metro %d node %d: bound %v below member %d's gain %v", s.st.In.M(), id, h, v, ub, j, g)
				}
				pairs++
			}
			return members
		}
		walk(1)
	}
	return pairs
}

// TestMetroIndexHybridShortlistAgreement pins the bucketed hybrid
// shortlists against their dense counterparts under evolving loads.
func TestMetroIndexHybridShortlistAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, in := range agreementInstances(t, 23, 4, 50) {
		m := in.M()
		s := newSelector(NewIdentityState(in), Config{Strategy: StrategyHybrid})
		for round := 0; round < 3; round++ {
			for id := 0; id < m; id += 1 + m/11 {
				checkShortlists(t, s, id, 8)
			}
			proxyStep(s, rng)
		}
	}
}

// TestMetroIndexRunAgreement pins whole optimization runs: proxy and
// hybrid MinE on a block instance, where the metro index runs, produce
// byte-identical cost traces and final allocations to the same runs on
// its dense twin, where the plain scan is the only path.
func TestMetroIndexRunAgreement(t *testing.T) {
	for _, in := range agreementInstances(t, 41, 2, 40) {
		twin, err := model.NewInstance(in.Speed, in.Load, in.Latency.Dense())
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{StrategyProxy, StrategyHybrid} {
			run := func(inst *model.Instance) (*model.Allocation, *Trace) {
				st := NewIdentityState(inst)
				tr := RunState(st, Config{Strategy: strat, MaxIters: 15, Rng: rand.New(rand.NewSource(99))})
				return denseOf(st), tr
			}
			aPlain, trPlain := run(twin)
			aMetro, trMetro := run(in)
			if len(trPlain.Costs) != len(trMetro.Costs) {
				t.Fatalf("%v m=%d: trace lengths %d vs %d", strat, in.M(), len(trPlain.Costs), len(trMetro.Costs))
			}
			for x := range trPlain.Costs {
				if trPlain.Costs[x] != trMetro.Costs[x] {
					t.Fatalf("%v m=%d: cost[%d] %v vs %v", strat, in.M(), x, trPlain.Costs[x], trMetro.Costs[x])
				}
			}
			if d := aPlain.L1Distance(aMetro); d != 0 {
				t.Fatalf("%v m=%d: allocations differ, L1=%v", strat, in.M(), d)
			}
		}
	}
}

// TestMetroIndexDisabledOffBlock pins the fallback: on a dense-backed
// instance the index stays nil and the plain scan runs.
func TestMetroIndexDisabledOffBlock(t *testing.T) {
	in := model.Uniform(6, 1, 10, 20)
	s := newSelector(NewIdentityState(in), Config{Strategy: StrategyProxy})
	if s.metro != nil {
		t.Fatal("metro index must not engage without a block latency view")
	}
}

// TestMetroIndexSearchAllocationBound pins the partner search at zero
// allocations per query once its scratch has grown: Best, and
// AppendTopProxy into a pre-sized dst.
func TestMetroIndexSearchAllocationBound(t *testing.T) {
	in := randomMetroInstance(rand.New(rand.NewSource(5)), 400, 8, true, zipfSkew)
	s := newSelector(NewIdentityState(in), Config{Strategy: StrategyHybrid})
	dst := make([]int, 0, 8)
	for id := 0; id < in.M(); id++ { // warm-up: grow the scratch
		s.metro.Best(id, 0)
		s.metro.AppendTopProxy(dst, id, 8)
	}
	id := 0
	if a := testing.AllocsPerRun(100, func() {
		id = (id + 7) % in.M()
		s.metro.Best(id, 0)
	}); a != 0 {
		t.Errorf("Best: %v allocations per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		id = (id + 7) % in.M()
		s.metro.AppendTopProxy(dst, id, 8)
	}); a != 0 {
		t.Errorf("AppendTopProxy: %v allocations per call, want 0", a)
	}
}

// FuzzMetroIndexPick decodes bytes into a block instance (m ≤ 48, k ≤ 6,
// palette speeds, loads with zeros, optionally one +Inf metro pair), a
// floor for Best and a few pair steps, and after each step checks every
// server's index queries against the plain scans: Best, AppendTopProxy
// and AppendNearest.
func FuzzMetroIndexPick(f *testing.F) {
	f.Add([]byte{20, 3, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0, 5, 3, 3})
	f.Add([]byte{46, 0x85, 2, 0xaa, 0x13, 0x77, 9, 200, 31, 64, 1, 1, 2, 2})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{47, 0x83, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m := 2 + int(data[0])%47
		k := 1 + int(data[1]&0x7f)%6
		shortK := 1 + int(data[2])%8
		rng := rand.New(rand.NewSource(int64(data[1])))
		delay := make([][]float64, k)
		for g := range delay {
			delay[g] = make([]float64, k)
			for h := range delay[g] {
				delay[g][h] = float64(5 + rng.Intn(20)) // coarse: metros tie
				if g == h {
					delay[g][h] = float64(1 + rng.Intn(4))
				}
			}
		}
		if data[1]&0x80 != 0 && k > 1 {
			delay[0][k-1], delay[k-1][0] = math.Inf(1), math.Inf(1)
		}
		speed, load, labels := make([]float64, m), make([]float64, m), make([]int, m)
		body := data[3:]
		for i := 0; i < m; i++ {
			b := rng.Intn(256)
			if i < len(body) {
				b = int(body[i])
			}
			speed[i] = []float64{1, 2, 4}[b%3]
			load[i] = []float64{0, 0, 5, 10, 40, 100, 250, 300}[(b/3)%8]
			labels[i] = (b / 24) % k
		}
		in, err := model.NewBlockInstance(speed, load, delay, labels)
		if err != nil {
			t.Fatal(err)
		}
		floor := 0.0 // one floor from the input: 0, or 2^e for e in [-7, 23]
		if e := int(data[2] >> 3); e > 0 {
			floor = math.Ldexp(1, e-8)
		}
		s := newSelector(NewIdentityState(in), Config{Strategy: StrategyHybrid})
		check := func() {
			for id := 0; id < m; id++ {
				checkPick(t, s, id, floor)
				checkShortlists(t, s, id, shortK)
			}
		}
		check()
		var ops []byte
		if len(body) > m {
			ops = body[m:]
		}
		for p := 0; p+1 < len(ops) && p < 32; p += 2 {
			i, j := int(ops[p])%m, int(ops[p+1])%m
			if i == j { // the proxy pick, which walks toward balance
				if j, _ = s.bestProxy(i); j < 0 {
					continue
				}
			}
			ApplyPair(s.st, i, j, s.buf)
			s.noteLoads(i, j)
			check()
		}
	})
}

// BenchmarkMinEIterationProxyMetro times one proxy MinE iteration from
// the identity on the scale tier's block instance (8 metros, speeds in
// [1, 5], zipf loads): every server's partner search on the metro index
// plus its pair step.
func BenchmarkMinEIterationProxyMetro(b *testing.B) {
	for _, m := range []int{500, 2000, 5000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(m)))
			delay, labels := netmodel.ClusteredBlock(m, 8, 5, 100, rng)
			in, err := model.NewBlockInstance(workload.UniformSpeeds(m, 1, 5, rng),
				workload.ZipfLoads(m, 100, 1.2, rng), delay, labels)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := NewIdentityState(in)
				b.StartTimer()
				RunState(st, Config{Strategy: StrategyProxy, MaxIters: 1, Rng: rand.New(rand.NewSource(1))})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/iter")
		})
	}
}

// BenchmarkProxySolveMetro times a cold proxy MinE solve from the
// identity, capped at 60 iterations, on the shape of the repository
// benchmark's cold-mine workload: m=1100, 12 metros
// (ClusteredBlock(m, 12, 1, 20)), speeds in [1, 5] and zipf loads of
// mean 100. It cycles through eight instances; nearly all of a solve's
// time is its first iterations' partner searches.
func BenchmarkProxySolveMetro(b *testing.B) {
	const m, metros = 1100, 12
	var ins []*model.Instance
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		delay, labels := netmodel.ClusteredBlock(m, metros, 1, 20, rng)
		speed := workload.UniformSpeeds(m, 1, 5, rng)
		in, err := model.NewBlockInstance(speed, workload.Loads(workload.KindZipf, m, 100, rng), delay, labels)
		if err != nil {
			b.Fatal(err)
		}
		ins = append(ins, in)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewIdentityState(ins[i%len(ins)])
		b.StartTimer()
		RunState(st, Config{Strategy: StrategyProxy, MaxIters: 60, Rng: rand.New(rand.NewSource(1))})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/solve")
}
