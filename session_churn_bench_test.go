package delaylb_test

import (
	"testing"
	"time"

	"delaylb"
)

// BenchmarkSessionChurn measures the per-event cost of the session's
// copy-on-write state under server churn: metro joins, leaves, load
// updates and a (densifying) latency shift, on the block latency
// representation and on the dense latency oracle. Both sessions hold
// the same sparse allocation; the twins differ only in latency. Run
// with -benchmem. A join or leave only records its edit, and with no
// read in the loop the batch settles once M() edits are pending, so
// join-leave reports that settle spread over M() events: O(1 + k²/m)
// bytes per event on the block path, the O(m²) matrix build over m
// events on the dense one. cmd/tables -bench persists the per-event
// costs into BENCH_scale.json (whose session-churn-dense rows were
// taken when the dense twin also held a dense allocation).
//
// Costs and allocation counts are deterministic; wall-clock is logged
// for the trajectory only (1-CPU containers make speedups machine-
// dependent, so nothing here asserts timings).
func BenchmarkSessionChurn(b *testing.B) {
	const m = 2000
	for _, repr := range []struct {
		name  string
		dense bool
	}{
		{"block", false},
		{"dense", true},
	} {
		sc := delaylb.NewScenario(m).WithClusters(12).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
		if repr.dense {
			sc = sc.WithDenseLatency()
		}
		build := func(b *testing.B) *delaylb.Session {
			b.Helper()
			sys, err := sc.Build()
			if err != nil {
				b.Fatal(err)
			}
			return sys.NewSession()
		}
		b.Run(repr.name+"/join-leave", func(b *testing.B) {
			sess := build(b)
			spec := delaylb.ServerSpec{Speed: 2, Load: 10, Cluster: 3}
			if repr.dense {
				delay, labels, _ := blockOf(b, sc)
				spec.LatencyTo, spec.LatencyFrom = deriveRows(delay, labels, 3)
			}
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.AddServer(spec); err != nil {
					b.Fatal(err)
				}
				if err := sess.RemoveServer(sess.M() - 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.Logf("elapsed %s for %d join+leave events at m=%d", time.Since(start).Round(time.Millisecond), b.N, m)
		})
		b.Run(repr.name+"/update-loads", func(b *testing.B) {
			sess := build(b)
			loads := sess.Loads()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loads[i%m] += 1
				if err := sess.UpdateLoads(loads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Structured latency updates close the one remaining O(m²) churn
	// event: a whole-network degradation plus its bit-exact restore, the
	// MetroOutage replay pattern. The block path absorbs each update on
	// the k×k table (O(m + k²)); the dense twin applies the identical
	// per-entry arithmetic through the m×m oracle. Measured at m=2000,
	// k=12 on the reference container: structured ≈ 30 µs and 3.3 KB per
	// shift+restore cycle versus dense ≈ 40 ms and 64 MB — a ~1300× time
	// and ~19000× allocation drop, growing with m² / (m + k²).
	b.Run("latency-update-structured", func(b *testing.B) {
		sc := delaylb.NewScenario(m).WithClusters(12).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
		sys, err := sc.Build()
		if err != nil {
			b.Fatal(err)
		}
		sess := sys.NewSession()
		delay, _, ok := sess.BlockLatency()
		if !ok {
			b.Fatal("clustered scenario is not block-backed")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sess.ApplyLatencyUpdate(delaylb.ScaleBackbone(1.25)); err != nil {
				b.Fatal(err)
			}
			if err := sess.ApplyLatencyUpdate(delaylb.RestoreBlockLatency(delay)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("latency-update-dense", func(b *testing.B) {
		sc := delaylb.NewScenario(m).WithClusters(12).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
		snapshot, _, _ := blockOf(b, sc)
		sys, err := sc.WithDenseLatency().Build()
		if err != nil {
			b.Fatal(err)
		}
		sess := sys.NewSession()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sess.ApplyLatencyUpdate(delaylb.ScaleBackbone(1.25)); err != nil {
				b.Fatal(err)
			}
			if err := sess.ApplyLatencyUpdate(delaylb.RestoreBlockLatency(snapshot)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The latency-shift event is dense by nature (the new matrix need
	// not be block-structured); it is benchmarked once at a smaller m so
	// -benchtime=1x smoke runs stay fast.
	b.Run("latency-shift-dense", func(b *testing.B) {
		sys, err := delaylb.NewScenario(500).WithClusters(8).WithLoads(delaylb.LoadZipf, 100).WithSeed(1).Build()
		if err != nil {
			b.Fatal(err)
		}
		sess := sys.NewSession()
		lat := sess.Latency()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lat[1][2] *= 1.0000001
			if err := sess.UpdateLatency(lat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// blockOf rebuilds the scenario's block table for explicit dense rows.
func blockOf(tb testing.TB, sc delaylb.Scenario) ([][]float64, []int, bool) {
	tb.Helper()
	sys, err := sc.Build()
	if err != nil {
		tb.Fatal(err)
	}
	delay, labels, ok := sys.NewSession().BlockLatency()
	if !ok {
		// Dense scenario: derive through a block twin (same seed).
		blockSc := sc
		blockSc.DenseLatency = false
		bsys, err := blockSc.Build()
		if err != nil {
			tb.Fatal(err)
		}
		delay, labels, ok = bsys.NewSession().BlockLatency()
	}
	return delay, labels, ok
}

// deriveRows materializes the join rows of a metro-g newcomer.
func deriveRows(delay [][]float64, labels []int, g int) (latTo, latFrom []float64) {
	latTo = make([]float64, len(labels))
	latFrom = make([]float64, len(labels))
	for j, h := range labels {
		latTo[j] = delay[g][h]
		latFrom[j] = delay[h][g]
	}
	return latTo, latFrom
}

// TestSessionChurnDeterministic pins what the churn benchmarks rely on:
// an identical event sequence drives two sessions to byte-identical
// state (cost, size, nonzeros), on both representations.
func TestSessionChurnDeterministic(t *testing.T) {
	run := func(dense bool) (float64, int, int) {
		sc := delaylb.NewScenario(300).WithClusters(6).WithLoads(delaylb.LoadZipf, 100).WithSeed(1)
		if dense {
			sc = sc.WithDenseLatency()
		}
		sys, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		sess := sys.NewSession()
		loads := sess.Loads()
		for i := range loads {
			loads[i] = loads[i]*1.25 + float64(i%7)
		}
		if err := sess.UpdateLoads(loads); err != nil {
			t.Fatal(err)
		}
		delay, labels, _ := blockOf(t, sc)
		for ev := 0; ev < 10; ev++ {
			spec := delaylb.ServerSpec{Speed: 1.5, Load: float64(5 * ev), Cluster: ev % 6}
			if dense {
				// The dense oracle receives the rows the block form derives.
				spec.LatencyTo, spec.LatencyFrom = deriveRows(delay, labels, spec.Cluster)
			}
			if err := sess.AddServer(spec); err != nil {
				t.Fatal(err)
			}
			labels = append(labels, spec.Cluster)
		}
		for ev := 0; ev < 10; ev++ {
			if err := sess.RemoveServer(sess.M() - 1); err != nil {
				t.Fatal(err)
			}
		}
		return sess.Cost(), sess.M(), sess.Result().NNZ
	}
	cb1, mb1, nb1 := run(false)
	cb2, mb2, nb2 := run(false)
	if cb1 != cb2 || mb1 != mb2 || nb1 != nb2 {
		t.Fatalf("block churn not deterministic: cost %v vs %v (nnz %d vs %d)", cb1, cb2, nb1, nb2)
	}
	cd, md, nd := run(true)
	if cd != cb1 || md != mb1 || nd != nb1 {
		t.Fatalf("block and dense churn disagree: cost %v vs %v (m %d vs %d, nnz %d vs %d)", cb1, cd, mb1, md, nb1, nd)
	}
}
