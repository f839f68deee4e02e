package delaylb

import (
	"context"
	"runtime"
	"testing"

	"delaylb/internal/model"
)

// The allocation-regression smoke of the sparse end-to-end tier: the
// whole point of the copy-on-write session state is that UpdateLoads
// touches only the load vector and a churn event touches only the O(m)
// per-server vectors. A dense m×m latency clone allocates one slice per
// row — ~m allocations — so an allocation *count* bound at m=500 fails
// the build the moment such a clone sneaks back into any of these
// paths, machine-independently (allocation counts, unlike bytes or
// nanoseconds, are deterministic for a fixed code path).
//
// The bounds are intentionally loose (≳4× the measured counts, far
// below m): they guard the complexity class, not the constant.
// TestIdentityAllocationBound bounds bytes instead: the identity's
// allocation count is constant either way, its size is what grows.

const allocSmokeM = 500

func newAllocSmokeSession(t testing.TB) *Session {
	t.Helper()
	sc := NewScenario(allocSmokeM).WithClusters(12).WithLoads(LoadZipf, 100).WithSeed(1)
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys.NewSession()
}

func TestUpdateLoadsAllocationBound(t *testing.T) {
	// The rescale rebuilds the sparse allocation's nnz backing (≈6
	// allocations).
	t.Run("sparse-alloc", func(t *testing.T) {
		sess := newAllocSmokeSession(t)
		loads := sess.Loads()
		n := testing.AllocsPerRun(20, func() {
			loads[3] += 1
			if err := sess.UpdateLoads(loads); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("UpdateLoads at m=%d: %.1f allocs/op", allocSmokeM, n)
		if n > 30 {
			t.Errorf("UpdateLoads allocates %.1f times per call (bound 30) — an O(m) clone is back on the hot path", n)
		}
	})
}

// TestFWVariantReoptimizeAllocationBound bounds the active-set
// bookkeeping of the away/pairwise Frank–Wolfe engine on the warm
// session path. The engine's per-solve allocations are O(m) — the warm
// iterate clone (two slices per row) plus a constant number of state
// vectors (loads, base, per-cluster minima) — and per-row steps reuse
// the row slices in place, so the count must not scale with
// iterations×rows. Measured ≈1450 at m=500 with a 10-iteration budget;
// the 4× bound fails the build if drop-step bookkeeping ever starts
// allocating per step (≥50 000 at this shape) or anything O(m²) sneaks
// in (≥250 000).
func TestFWVariantReoptimizeAllocationBound(t *testing.T) {
	for _, variant := range []FWVariant{FWClassic, FWAway, FWPairwise} {
		t.Run(string(variant), func(t *testing.T) {
			sess := newAllocSmokeSession(t)
			opts := []Option{WithSolver("frankwolfe"), WithFWVariant(variant), WithMaxIterations(10)}
			ctx := context.Background()
			// Prime once so the measured runs start from a realistic warm
			// (non-identity) active set.
			if _, err := sess.Reoptimize(ctx, opts...); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(10, func() {
				if _, err := sess.Reoptimize(ctx, opts...); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("warm Reoptimize fw/%s at m=%d: %.1f allocs/op", variant, allocSmokeM, n)
			if n > 6000 {
				t.Errorf("fw/%s warm Reoptimize allocates %.1f times per solve (bound 6000) — active-set bookkeeping is allocating per step", variant, n)
			}
		})
	}
}

// TestLatencyUpdateAllocationBound pins the structured-update fast path
// at replay scale: a whole-network degradation plus its bit-exact
// restore — the MetroOutage cycle — on a block session at m=2000. The
// block apply allocates a fresh k×k table, the instance shell and the
// session's epoch bookkeeping: a constant count plus k rows,
// independent of m. The bound fails the build if the m×m oracle (≈m
// row allocations) ever sneaks back onto this path, and the
// materialization counter proves no caller densified the view.
func TestLatencyUpdateAllocationBound(t *testing.T) {
	const m = 2000
	sc := NewScenario(m).WithClusters(12).WithLoads(LoadZipf, 100).WithSeed(1)
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	delay, _, ok := sess.BlockLatency()
	if !ok {
		t.Fatal("clustered scenario is not block-backed")
	}
	densifiedBefore := model.BlockDenseMaterializations.Load()
	n := testing.AllocsPerRun(20, func() {
		if err := sess.ApplyLatencyUpdate(ScaleBackbone(1.25)); err != nil {
			t.Fatal(err)
		}
		if err := sess.ApplyLatencyUpdate(RestoreBlockLatency(delay)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("shift+restore at m=%d: %.1f allocs/op", m, n)
	if n > 100 {
		t.Errorf("structured latency update allocates %.1f times per shift+restore (bound 100) — the O(m²) oracle is back on the fast path", n)
	}
	if got := model.BlockDenseMaterializations.Load() - densifiedBefore; got != 0 {
		t.Errorf("structured updates materialized %d dense matrices, want 0", got)
	}
	// The cycle ended on a restore: the table is bit-identical again.
	after, _, _ := sess.BlockLatency()
	for g := range delay {
		for h := range delay[g] {
			if after[g][h] != delay[g][h] {
				t.Fatalf("delay[%d][%d] = %v after restore cycles, want %v", g, h, after[g][h], delay[g][h])
			}
		}
	}
}

func TestChurnEventAllocationBound(t *testing.T) {
	t.Run("sparse-alloc", func(t *testing.T) {
		sess := newAllocSmokeSession(t)
		// One churn event = a metro join (block fast path: nil rows,
		// label only) followed by the newcomer leaving again, so the
		// session size is restored every iteration. Both only record
		// their edit; the record's slices grow by doubling, which
		// AllocsPerRun's per-run average rounds down to 0.
		n := testing.AllocsPerRun(20, func() {
			if err := sess.AddServer(ServerSpec{Speed: 2, Load: 10, Cluster: 3}); err != nil {
				t.Fatal(err)
			}
			if err := sess.RemoveServer(sess.M() - 1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("join+leave at m=%d: %.1f allocs/op", allocSmokeM, n)
		if n > 0 {
			t.Errorf("churn event allocates %.1f times per join+leave (bound 0) — a join or leave copies session state again", n)
		}
	})
}

// TestIdentityAllocationBound pins System.Identity at O(m) bytes. Every
// replay cold baseline and every one-shot lbsim run starts from the
// identity cost, and a dense m×m identity allocates 200 MB at m=5000;
// the sparse diagonal needs well under 1 MiB. At the smoke size the
// cost must also match the dense identity's fold bit for bit.
func TestIdentityAllocationBound(t *testing.T) {
	const m = 5000
	sys, err := NewScenario(m).WithClusters(8).WithLoads(LoadZipf, 100).WithSeed(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := sys.Identity()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("Identity at m=%d: %d bytes, cost %v", m, bytes, res.Cost)
	if bytes >= 1<<20 {
		t.Errorf("Identity allocates %d bytes at m=%d (bound 1 MiB) — a dense m×m identity is back", bytes, m)
	}

	small, err := NewScenario(allocSmokeM).WithClusters(12).WithLoads(LoadZipf, 100).WithSeed(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := small.Identity().Cost, model.TotalCost(small.in, model.Identity(small.in)); got != want {
		t.Errorf("identity cost %v, dense fold %v", got, want)
	}
}

// TestRunClusterAllocationBound bounds one RunCluster round at m=300.
// The runtime's servers hold O(m) state each, so a round needs O(m²)
// bytes, about 20 MiB here; a bus that buffers O(m) messages per server
// (16·m² inbox slots of 192 B, 264 MiB) fails the bound.
func TestRunClusterAllocationBound(t *testing.T) {
	sys, err := NewScenario(300).WithLoads(LoadExponential, 80).WithSeed(7).Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := sess.RunCluster(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("one RunCluster round at m=300: %d bytes", bytes)
	if bytes >= 64<<20 {
		t.Errorf("one RunCluster round allocates %d bytes at m=300 (bound 64 MiB) — the runtime buffers O(m) messages per server again", bytes)
	}
}

// TestRemoveServerAllocationBound pins the recorded leave: on a warm
// m=2000 block session whose batch is already laid out, one
// RemoveServer allocates nothing.
func TestRemoveServerAllocationBound(t *testing.T) {
	const m = 2000
	sys, err := NewScenario(m).WithClusters(12).WithLoads(LoadZipf, 100).WithSeed(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession(WithSolver("proxy"), WithMaxIterations(40))
	if _, err := sess.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := sess.RemoveServer(sess.M() / 2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RemoveServer at m=%d: %.1f allocs/op", m, n)
	if n != 0 {
		t.Errorf("RemoveServer allocates %.1f times per call (bound 0) — a leave copies session state again", n)
	}
}

// TestChurnBurstAllocationBound pins what a metro outage allocates on a
// warm session at m=2000: each RemoveServer only records the edit, and
// the next read settles the whole burst once, the instance's O(m)
// per-server vectors and the allocation's O(nnz + m) projection. A
// session that copies the instance on every removal (about 24·m bytes
// each here) or projects the allocation on every removal (about 125·m)
// fails the 1.6·m bound; the settle is counted, amortized over the
// burst.
func TestChurnBurstAllocationBound(t *testing.T) {
	const m = 2000
	sys, err := NewScenario(m).WithClusters(12).WithLoads(LoadZipf, 100).WithSeed(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession(WithSolver("proxy"), WithMaxIterations(40))
	if _, err := sess.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	var down []int
	for i, g := range sys.in.Cluster {
		if g == 0 {
			down = append(down, i)
		}
	}
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := len(down) - 1; k >= 0; k-- {
		if err := sess.RemoveServer(down[k]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&mid)
	sess.Cost()
	runtime.ReadMemStats(&after)
	perRemoval := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(down))
	t.Logf("%d removals at m=%d: %.1f·m bytes each, then a %d-byte settle; %.1f·m each with it",
		len(down), m, float64(mid.TotalAlloc-before.TotalAlloc)/float64(len(down))/m, after.TotalAlloc-mid.TotalAlloc, perRemoval/m)
	if perRemoval >= 1.6*m {
		t.Errorf("a metro outage allocates %.0f bytes per removal at m=%d (bound 1.6·m = %.0f) — a removal copies session state again", perRemoval, m, 1.6*m)
	}
}
