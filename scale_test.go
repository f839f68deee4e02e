package delaylb

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestScaleTierM2000 is the acceptance check of the large-m scale tier:
// an m = 2000 zipf/clustered scenario must solve through the sparse
// Frank–Wolfe path, deterministically (byte-identical cost across runs
// with the same seed), while the iterate stays sparse. Wall-clock and
// memory are logged, not asserted — CI and dev containers may have a
// single slow CPU, so timing assertions would only flake; the
// complexity guarantees live in the bit-identity tests of internal/qp
// and the persisted BENCH_scale.json trajectory.
func TestScaleTierM2000(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier test skipped in -short mode")
	}
	const m = 2000
	sc := NewScenario(m).WithClusters(8).WithLatency(100).WithLoads(LoadZipf, 100).WithSeed(7)

	run := func() (*Result, time.Duration) {
		sys, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		// 600 iterations land within ~1.5% of the converged cost (zipf
		// heavy hitters need many FW vertices, so the sublinear tail is
		// long) in about 2 s on a single CPU.
		res, err := sys.Optimize(
			WithSolver("frankwolfe"),
			WithMaxIterations(600),
			WithTolerance(1e-6),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(start)
	}

	var ms runtime.MemStats
	res1, el1 := run()
	runtime.ReadMemStats(&ms)
	res2, el2 := run()

	if res1.Cost != res2.Cost || res1.Iterations != res2.Iterations || res1.Gap != res2.Gap {
		t.Fatalf("scale run not deterministic: cost %v/%v iters %d/%d gap %v/%v",
			res1.Cost, res2.Cost, res1.Iterations, res2.Iterations, res1.Gap, res2.Gap)
	}
	if math.IsNaN(res1.Cost) || math.IsInf(res1.Cost, 0) || res1.Cost <= 0 {
		t.Fatalf("cost %v not finite positive", res1.Cost)
	}
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if id := sys.Identity().Cost; res1.Cost >= id {
		t.Fatalf("optimized cost %v not below identity cost %v", res1.Cost, id)
	}
	if res1.NNZ == 0 || res1.NNZ > m*(res1.Iterations+1) {
		t.Fatalf("NNZ %d outside (0, m·(iters+1)=%d]", res1.NNZ, m*(res1.Iterations+1))
	}
	if res1.NNZ >= m*m/4 {
		t.Fatalf("iterate lost sparsity: %d nonzeros of %d", res1.NNZ, m*m)
	}
	t.Logf("m=%d sparse frankwolfe: cost=%.6g gap=%.3g iters=%d nnz=%d (%.4f%% dense)",
		m, res1.Cost, res1.Gap, res1.Iterations, res1.NNZ, 100*float64(res1.NNZ)/float64(m*m))
	t.Logf("elapsed: run1 %v, run2 %v; heap after run1: %.1f MiB (timings logged, not asserted: 1-CPU containers)",
		el1.Round(time.Millisecond), el2.Round(time.Millisecond), float64(ms.HeapAlloc)/(1<<20))
}
