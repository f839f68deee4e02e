package descent

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"delaylb"

	"delaylb/internal/model"
	"delaylb/internal/qp"
)

func clusteredInstance(t testing.TB, m, k int, seed int64) *model.Instance {
	t.Helper()
	sc := delaylb.NewScenario(m).
		WithClusters(k).
		WithLoads(delaylb.LoadExponential, 100).
		WithSpeeds(delaylb.SpeedUniform, 1, 4).
		WithSeed(seed)
	in, err := sc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func denseInstance(t testing.TB, m int, seed int64) *model.Instance {
	t.Helper()
	sc := delaylb.NewScenario(m).
		WithNetwork(delaylb.NetPlanetLab).
		WithLoads(delaylb.LoadExponential, 100).
		WithSpeeds(delaylb.SpeedUniform, 1, 4).
		WithSeed(seed)
	in, err := sc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func oracleCost(t testing.TB, in *model.Instance) float64 {
	t.Helper()
	res := qp.SolveFrankWolfeSparse(in, qp.Options{MaxIters: 800, Tol: 1e-8})
	return res.Cost
}

// checkFeasible asserts every row is nonnegative and sums to its load.
func checkFeasible(t *testing.T, p *Plane) {
	t.Helper()
	alloc := p.Allocation()
	for i := range alloc.Idx {
		sum := 0.0
		for tt, v := range alloc.Val[i] {
			if v < 0 {
				t.Fatalf("row %d has negative entry %g at col %d", i, v, alloc.Idx[i][tt])
			}
			sum += v
		}
		want := p.Instance().Load[i]
		if math.Abs(sum-want) > 1e-6*(1+want) {
			t.Fatalf("row %d sums to %g, want load %g", i, sum, want)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	prices := []priceEntry{{j: 3, load: 12.5, speed: 2}, {j: 9, load: 0, speed: 1}}
	sums := []summaryEntry{{metro: 1, best: 4, bestLoad: 7, bestSpeed: 2, second: -1, load: 7}}
	deltas := []deltaEntry{{row: 2, col: 5, val: 1.25}, {row: 2, col: 2, val: 0}}

	for _, tc := range []struct {
		payload []byte
		kind    msgKind
	}{
		{encodePrices(1, 7, prices), kindPrices},
		{encodeSummaries(2, 7, sums), kindSummary},
		{encodeDeltas(0, 7, deltas), kindDelta},
	} {
		m, err := decodeMessage(tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.kind != tc.kind || m.round != 7 {
			t.Fatalf("decoded kind=%d round=%d, want kind=%d round=7", m.kind, m.round, tc.kind)
		}
	}
	m, _ := decodeMessage(encodePrices(1, 7, prices))
	if len(m.prices) != 2 || m.prices[0] != prices[0] || m.prices[1] != prices[1] {
		t.Fatalf("prices did not round-trip: %+v", m.prices)
	}
	m, _ = decodeMessage(encodeSummaries(2, 7, sums))
	if len(m.summaries) != 1 || m.summaries[0] != sums[0] {
		t.Fatalf("summaries did not round-trip: %+v", m.summaries)
	}
	m, _ = decodeMessage(encodeDeltas(0, 7, deltas))
	if len(m.deltas) != 2 || m.deltas[0] != deltas[0] || m.deltas[1] != deltas[1] {
		t.Fatalf("deltas did not round-trip: %+v", m.deltas)
	}

	if _, err := decodeMessage([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
	bad := encodePrices(1, 7, prices)
	binary.LittleEndian.PutUint32(bad[9:], 99)
	if _, err := decodeMessage(bad); err == nil {
		t.Fatal("corrupt count decoded without error")
	}
}

func TestProxStepFeasibleAndImproving(t *testing.T) {
	ws := []wsEntry{
		{j: 0, r: 6, load: 10, speed: 1, cij: 0},
		{j: 1, r: 0, load: 2, speed: 2, cij: 0.5},
		{j: 2, r: 0, load: 30, speed: 1, cij: 0.1},
	}
	var scratch stepScratch
	x := proxStep(Cooperative, 1, 6, ws, nil, nil, 0, &scratch)
	sum := 0.0
	for t2, v := range x {
		if v < 0 {
			t.Fatalf("x[%d]=%g negative", t2, v)
		}
		sum += v
	}
	if math.Abs(sum-6) > 1e-12 {
		t.Fatalf("prox step sum=%g, want budget 6", sum)
	}
	// The overloaded far server (j=2) must not receive mass; the cheap
	// fast server (j=1) should.
	if x[2] != 0 {
		t.Fatalf("x[2]=%g, want 0 (price 30 vs alternatives ~6)", x[2])
	}
	if x[1] <= 0 {
		t.Fatalf("x[1]=%g, want positive share on the fast cheap server", x[1])
	}
}

// TestNewPlaneRejectsBadConfig pins that every numeric Config field is
// range- and finiteness-checked, with an error naming the field. NaN
// fails every ordered comparison, so a plain range check lets it
// through.
func TestNewPlaneRejectsBadConfig(t *testing.T) {
	in := clusteredInstance(t, 12, 3, 1)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"NaN step", Config{Step: nan}, "Step"},
		{"infinite step", Config{Step: inf}, "Step"},
		{"negative step", Config{Step: -0.5}, "Step"},
		{"step above 1", Config{Step: 1.5}, "Step"},
		{"NaN participation", Config{Participation: nan}, "Participation"},
		{"negative participation", Config{Participation: -0.1}, "Participation"},
		{"participation above 1", Config{Participation: 2}, "Participation"},
		{"NaN band", Config{Band: nan}, "Band"},
		{"infinite band", Config{Band: inf}, "Band"},
		{"NaN round duration", Config{RoundMs: nan}, "RoundMs"},
		{"infinite round duration", Config{RoundMs: inf}, "RoundMs"},
		{"negative round duration", Config{RoundMs: -1}, "RoundMs"},
		{"NaN target", Config{Target: nan}, "Target"},
		{"infinite target", Config{Target: -inf}, "Target"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPlane(in, tc.cfg)
			if err == nil {
				t.Fatalf("NewPlane accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.field+"=") {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
	for _, cfg := range []Config{{}, {Step: 1, Participation: 1, Band: 0.1, RoundMs: 5, Target: 1}} {
		if _, err := NewPlane(in, cfg); err != nil {
			t.Fatalf("NewPlane(%+v): %v", cfg, err)
		}
	}
}

func TestCooperativeConvergesToOracle(t *testing.T) {
	in := clusteredInstance(t, 60, 4, 11)
	target := oracleCost(t, in)
	p, err := NewPlane(in, Config{Target: target, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsToBand < 0 {
		t.Fatalf("never entered the 2%% band: cost=%g oracle=%g after %d rounds", rep.Cost, target, rep.Rounds)
	}
	if rep.RelGap > 0.02 {
		t.Fatalf("final rel gap %g > 2%%", rep.RelGap)
	}
	checkFeasible(t, p)
	if model.BlockDenseMaterializations.Load() != 0 {
		t.Fatalf("descent materialized %d dense matrices, want 0", model.BlockDenseMaterializations.Load())
	}
}

func TestDenseFallbackConvergesToOracle(t *testing.T) {
	in := denseInstance(t, 24, 5)
	target := oracleCost(t, in)
	p, err := NewPlane(in, Config{Target: target, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsToBand < 0 || rep.RelGap > 0.02 {
		t.Fatalf("dense fallback: gap %g after %d rounds (band at %d)", rep.RelGap, rep.Rounds, rep.RoundsToBand)
	}
	checkFeasible(t, p)
}

func TestSelfishModeReportsAnarchy(t *testing.T) {
	in := clusteredInstance(t, 40, 4, 3)
	target := oracleCost(t, in)
	p, err := NewPlane(in, Config{Mode: Selfish, Target: target, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	poa := rep.Cost / target
	if poa < 1-1e-6 {
		t.Fatalf("selfish equilibrium cost %g beat the social optimum %g", rep.Cost, target)
	}
	if poa > 3 {
		t.Fatalf("selfish PoA %g implausibly large (paper's regime is small constants)", poa)
	}
	checkFeasible(t, p)
}

// renderState pins the full bit pattern of the allocation plus the cost
// stream — the byte-identical determinism contract.
func renderState(p *Plane, costs []float64) []byte {
	var buf bytes.Buffer
	alloc := p.Allocation()
	for i := range alloc.Idx {
		for t, j := range alloc.Idx[i] {
			binary.Write(&buf, binary.LittleEndian, int32(i))
			binary.Write(&buf, binary.LittleEndian, j)
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(alloc.Val[i][t]))
		}
	}
	for _, c := range costs {
		binary.Write(&buf, binary.LittleEndian, math.Float64bits(c))
	}
	return buf.Bytes()
}

func runForState(t *testing.T, shards int, participation float64) []byte {
	t.Helper()
	in := clusteredInstance(t, 80, 6, 17)
	var costs []float64
	var bytesPerRound []int64
	cfg := Config{
		Shards:        shards,
		Seed:          17,
		Participation: participation,
		OnRound: func(m RoundMetrics) bool {
			costs = append(costs, m.Cost)
			bytesPerRound = append(bytesPerRound, m.Bytes)
			return true
		},
	}
	p, err := NewPlane(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(60); err != nil {
		t.Fatal(err)
	}
	state := renderState(p, costs)
	return state
}

func TestDeterministicAcrossRunsAndShards(t *testing.T) {
	base := runForState(t, 1, 1)
	if !bytes.Equal(base, runForState(t, 1, 1)) {
		t.Fatal("two identical single-shard runs diverged")
	}
	for _, shards := range []int{2, 3, 6} {
		if !bytes.Equal(base, runForState(t, shards, 1)) {
			t.Fatalf("shards=%d diverged from the single-shard trajectory", shards)
		}
	}
	// Partial participation reshuffles which rows step each round; the
	// schedule is keyed by (seed, row, round), so it must also be
	// shard-independent.
	part := runForState(t, 1, 0.7)
	if !bytes.Equal(part, runForState(t, 4, 0.7)) {
		t.Fatal("participation schedule is shard-dependent")
	}
	if bytes.Equal(base, part) {
		t.Fatal("participation=0.7 produced the same trajectory as 1.0 (draws ignored?)")
	}
}

func TestAllocationMatchesSessionCost(t *testing.T) {
	in := clusteredInstance(t, 30, 3, 9)
	p, err := NewPlane(in, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(40); err != nil {
		t.Fatal(err)
	}
	alloc := p.Allocation()
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	// The observer's cost must agree with the model's sparse total cost
	// on the assembled allocation.
	want := model.TotalCostSparse(p.Instance(), alloc)
	if got := p.Cost(); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("observer cost %g != model.TotalCostSparse %g", got, want)
	}
}

func TestConvergedFixedPointStops(t *testing.T) {
	// A single org with load on a 2-server fleet reaches its best
	// response immediately; Run must stop well before the budget.
	in, err := model.NewBlockInstance(
		[]float64{1, 1},
		[]float64{10, 0},
		[][]float64{{0}},
		[]int{0, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlane(in, Config{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("trivial instance did not report convergence")
	}
	if rep.Rounds > 10 {
		t.Fatalf("trivial instance took %d rounds to go quiet", rep.Rounds)
	}
}

// BenchmarkDescentRound times one steady-state round. The first two
// cases run full participation after a short warm-up; the last has the
// shape of the descent-flash benchmark workload (m=1500, 16 metros,
// participation 0.2, 100 warm-up rounds).
func BenchmarkDescentRound(b *testing.B) {
	for _, c := range []struct {
		m, k, warm int
		part       float64
	}{
		{m: 500, k: 8, warm: 5, part: 1},
		{m: 2000, k: 8, warm: 5, part: 1},
		{m: 1500, k: 16, warm: 100, part: 0.2},
	} {
		name := delaylb.NewScenario(c.m).WithClusters(c.k).String()
		if c.part < 1 {
			name += fmt.Sprintf(" part=%g", c.part)
		}
		b.Run(name, func(b *testing.B) {
			in := clusteredInstance(b, c.m, c.k, 1)
			p, err := NewPlane(in, Config{Seed: 1, Participation: c.part})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the support structure before timing rounds.
			if _, err := p.Run(c.warm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Round(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
