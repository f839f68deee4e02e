package core

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
)

// randomMetroInstance builds a random block-backed instance with
// heterogeneous speeds and skewed loads — the regime where the bucketed
// search's branch-and-bound has to be exact, not just the const-speed
// special case.
func randomMetroInstance(rng *rand.Rand, m, k int, infPair bool) *model.Instance {
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
	for i := range speed {
		speed[i] = 1 + 4*rng.Float64()
		load[i] = math.Round(rng.Float64() * 300)
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

// TestMetroIndexPickAgreement pins the bucketed proxy search against the
// unbucketed O(m) scan: same partner, same gain, for every server, under
// evolving loads (accepted transfers mutate loads between rounds).
func TestMetroIndexPickAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		m := 10 + rng.Intn(60)
		k := 1 + rng.Intn(8)
		in := randomMetroInstance(rng, m, k, trial%3 == 0)
		st := NewIdentityState(in)
		scan := newSelector(st, Config{Strategy: StrategyProxy})
		bucketed := newSelector(st, Config{Strategy: StrategyProxy, MetroIndex: true})
		if bucketed.metro == nil {
			t.Fatal("metro index should engage on a block-backed instance")
		}
		for round := 0; round < 6; round++ {
			for id := 0; id < m; id++ {
				wantJ, wantG := scan.pick(id)
				gotJ, gotG := bucketed.pick(id)
				if wantJ != gotJ || wantG != gotG {
					t.Fatalf("trial %d round %d id %d: scan (%d, %v) vs bucketed (%d, %v)",
						trial, round, id, wantJ, wantG, gotJ, gotG)
				}
			}
			// Mutate: apply one accepted transfer so β values move.
			id := rng.Intn(m)
			if j, g := scan.pick(id); j >= 0 && g > 0 {
				ApplyPair(st, id, j, scan.buf)
				bucketed.noteLoads(id, j)
			}
		}
	}
}

// TestMetroIndexHybridShortlistAgreement pins the bucketed hybrid
// shortlists (exact proxy top-K and nearest-K) against their dense
// counterparts, element for element including tie order.
func TestMetroIndexHybridShortlistAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		m := 10 + rng.Intn(50)
		k := 1 + rng.Intn(6)
		in := randomMetroInstance(rng, m, k, trial%4 == 0)
		st := NewIdentityState(in)
		plain := newSelector(st, Config{Strategy: StrategyHybrid, HybridK: 8})
		bucketed := newSelector(st, Config{Strategy: StrategyHybrid, HybridK: 8, MetroIndex: true})
		for id := 0; id < m; id += 1 + m/11 {
			wantTop := appendTopK(nil, 8, m, id, func(j int) float64 {
				return plain.proxyGain(id, j)
			})
			gotTop := bucketed.metro.AppendTopProxy(nil, id, 8, bucketed.proxyGain)
			if len(wantTop) != len(gotTop) {
				t.Fatalf("trial %d id %d: proxy top-K lengths %d vs %d (%v vs %v)",
					trial, id, len(wantTop), len(gotTop), wantTop, gotTop)
			}
			for x := range wantTop {
				if wantTop[x] != gotTop[x] {
					t.Fatalf("trial %d id %d: proxy top-K %v vs %v", trial, id, wantTop, gotTop)
				}
			}
			lat := model.RowView(in.Latency, id, make([]float64, m))
			wantNear := appendTopK(nil, 8, m, id, func(j int) float64 {
				if math.IsInf(lat[j], 1) {
					return math.Inf(-1)
				}
				return -lat[j]
			})
			gotNear := bucketed.metro.AppendNearest(nil, id, 8)
			if len(wantNear) != len(gotNear) {
				t.Fatalf("trial %d id %d: nearest-K lengths %v vs %v", trial, id, wantNear, gotNear)
			}
			for x := range wantNear {
				if wantNear[x] != gotNear[x] {
					t.Fatalf("trial %d id %d: nearest-K %v vs %v", trial, id, wantNear, gotNear)
				}
			}
		}
	}
}

// TestMetroIndexRunAgreement pins whole optimization runs: proxy and
// hybrid MinE with the metro index produce byte-identical cost traces
// and final allocations to the unbucketed runs.
func TestMetroIndexRunAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, strat := range []Strategy{StrategyProxy, StrategyHybrid} {
		for trial := 0; trial < 4; trial++ {
			m := 30 + rng.Intn(40)
			k := 2 + rng.Intn(6)
			in := randomMetroInstance(rng, m, k, false)
			run := func(metro bool) (*model.Allocation, *Trace) {
				st := NewIdentityState(in)
				tr := RunState(st, Config{
					Strategy:   strat,
					MaxIters:   15,
					MetroIndex: metro,
					Rng:        rand.New(rand.NewSource(99)),
				})
				return denseOf(st), tr
			}
			aPlain, trPlain := run(false)
			aMetro, trMetro := run(true)
			if len(trPlain.Costs) != len(trMetro.Costs) {
				t.Fatalf("%v trial %d: trace lengths %d vs %d", strat, trial, len(trPlain.Costs), len(trMetro.Costs))
			}
			for x := range trPlain.Costs {
				if trPlain.Costs[x] != trMetro.Costs[x] {
					t.Fatalf("%v trial %d: cost[%d] %v vs %v", strat, trial, x, trPlain.Costs[x], trMetro.Costs[x])
				}
			}
			if d := aPlain.L1Distance(aMetro); d != 0 {
				t.Fatalf("%v trial %d: allocations differ, L1=%v", strat, trial, d)
			}
		}
	}
}

// TestMetroIndexDisabledOffBlock pins the fallback: on a dense-backed
// instance the index stays nil and the plain scan runs.
func TestMetroIndexDisabledOffBlock(t *testing.T) {
	in := model.Uniform(6, 1, 10, 20)
	s := newSelector(NewIdentityState(in), Config{Strategy: StrategyProxy, MetroIndex: true})
	if s.metro != nil {
		t.Fatal("metro index must not engage without a block latency view")
	}
}
