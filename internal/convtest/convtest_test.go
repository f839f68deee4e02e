package convtest

import (
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/qp"
	"delaylb/internal/sparse"
	"delaylb/internal/workload"
)

func clustered(t *testing.T, m, k int, seed int64) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lat, labels := netmodel.Clustered(m, k, 2, 80, rng)
	speeds := workload.UniformSpeeds(m, 1, 5, rng)
	loads := workload.ZipfLoads(m, 100, 1.2, rng)
	in, err := model.NewInstance(speeds, loads, lat)
	if err != nil {
		t.Fatal(err)
	}
	in.Cluster = labels
	return in
}

func TestRunTracesFullTrajectory(t *testing.T) {
	in := clustered(t, 40, 4, 5)
	c := Run(in, qp.VariantAway, qp.Options{Tol: 1e-8, MaxIters: 2000})
	if !c.Converged {
		t.Fatalf("away did not converge: gap %v after %d sweeps", c.Gap, c.Iters)
	}
	if len(c.Gaps) != c.Iters {
		t.Fatalf("%d gap samples for %d iterations", len(c.Gaps), c.Iters)
	}
	if got := c.Costs[len(c.Costs)-1]; got != c.Cost {
		t.Fatalf("cost trace tail %v != final cost %v", got, c.Cost)
	}
	if c.NNZ != c.Rho.NNZ() {
		t.Fatalf("NNZ %d != Rho.NNZ() %d", c.NNZ, c.Rho.NNZ())
	}
	for k := 1; k < len(c.Costs); k++ {
		if c.Costs[k] > c.Costs[k-1]+1e-9 {
			t.Fatalf("cost increased at iteration %d: %v -> %v", k, c.Costs[k-1], c.Costs[k])
		}
	}
}

func TestItersToBand(t *testing.T) {
	costs := []float64{200, 150, 103, 101.9, 100.5}
	if got := ItersToBand(costs, 100, 0.02); got != 4 {
		t.Fatalf("ItersToBand = %d, want 4", got)
	}
	if got := ItersToBand(costs, 100, 0.001); got != -1 {
		t.Fatalf("ItersToBand below curve = %d, want -1", got)
	}
	if got := ItersToBand(nil, 100, 0.02); got != -1 {
		t.Fatalf("ItersToBand(nil) = %d, want -1", got)
	}
}

func TestGeometricRate(t *testing.T) {
	geo := []float64{64, 32, 16, 8, 4, 2, 1}
	if got := GeometricRate(geo); got < 0.499 || got > 0.501 {
		t.Fatalf("rate of a halving curve = %v, want 0.5", got)
	}
	if got := GeometricRate([]float64{5}); got != 1 {
		t.Fatalf("rate of a single point = %v, want 1", got)
	}
	if got := GeometricRate(nil); got != 1 {
		t.Fatalf("rate of empty = %v, want 1", got)
	}
	// Zero cuts the positive prefix: only the leading run counts.
	if got := GeometricRate([]float64{8, 4, 0, 100}); got != 0.5 {
		t.Fatalf("rate with zero tail = %v, want 0.5", got)
	}
}

// TestLinearConvergenceWhereClassicStalls is the headline regression:
// on the same clustered instance and iteration budget, classic FW's gap
// stalls (sublinear) while away/pairwise drive it geometrically to the
// tolerance. This is the Lacoste-Julien–Jaggi linear-convergence
// behavior the active-set engine exists for.
func TestLinearConvergenceWhereClassicStalls(t *testing.T) {
	in := clustered(t, 60, 5, 7)
	budget := qp.Options{Tol: 1e-8, MaxIters: 600}

	classic := Run(in, qp.VariantClassic, budget)
	if classic.Converged {
		t.Fatalf("classic unexpectedly converged in %d iters — instance too easy to discriminate", classic.Iters)
	}

	for _, v := range []qp.Variant{qp.VariantAway, qp.VariantPairwise} {
		c := Run(in, v, budget)
		if !c.Converged {
			t.Fatalf("%v did not converge within the budget classic stalls in (gap %v)", v, c.Gap)
		}
		if c.Gap >= classic.Gap {
			t.Fatalf("%v final gap %v not below classic's stalled gap %v", v, c.Gap, classic.Gap)
		}
		// Geometric decay: the per-sweep contraction factor must be
		// bounded away from 1 — classic's, measured over the same number
		// of points, is far closer to 1.
		rate := GeometricRate(c.Gaps)
		if rate >= 0.95 {
			t.Fatalf("%v gap decay rate %v — not geometric", v, rate)
		}
		classicRate := GeometricRate(classic.Gaps[:len(c.Gaps)])
		if rate >= classicRate {
			t.Fatalf("%v decay rate %v not faster than classic's %v over the same horizon", v, rate, classicRate)
		}
	}
}

// epoch is one warm re-solve in a warmEpochs trajectory.
type epoch struct {
	// Cost, Gap, Iters mirror the epoch's solver result.
	Cost  float64
	Gap   float64
	Iters int
	// NNZ is the adopted iterate's stored-nonzero count — the signal the
	// warm-support regression watches across epochs.
	NNZ int
}

// warmEpochs runs `epochs` successive warm-started solves: each epoch
// perturbs a copy of the instance's loads via the callback (epoch is
// 1-based; the slice arrives pre-filled with the previous epoch's loads)
// and re-solves starting from the previous epoch's iterate, exactly as a
// Session.Reoptimize loop would. Epoch 0 in the result is the cold solve
// on the unperturbed instance. The returned trajectory has epochs+1
// entries.
func warmEpochs(in *model.Instance, variant qp.Variant, opt qp.Options, epochs int, perturb func(epoch int, load []float64)) []epoch {
	out := make([]epoch, 0, epochs+1)
	cur := in
	var warm *sparse.Matrix
	for e := 0; e <= epochs; e++ {
		if e > 0 {
			next := cur.Clone()
			load := append([]float64(nil), next.Load...)
			perturb(e, load)
			next.Load = load
			cur = next
		}
		opt.InitialSparse = warm
		opt.Variant = variant
		res := qp.SolveFrankWolfeSparse(cur, opt)
		out = append(out, epoch{Cost: res.Cost, Gap: res.Gap, Iters: res.Iters, NNZ: res.Rho.NNZ()})
		warm = res.Rho
	}
	return out
}

// TestWarmEpochsBoundedSupport pins the warm-start support trajectory at
// the qp level: across perturbed epochs, away-step warm solves keep the
// iterate's nnz bounded while classic FW's support grows monotonically —
// the documented failure mode the drop steps exist to fix.
func TestWarmEpochsBoundedSupport(t *testing.T) {
	in := clustered(t, 200, 6, 5)
	const epochs = 4
	perturb := func(e int, load []float64) {
		rng := rand.New(rand.NewSource(int64(e)))
		for i := range load {
			load[i] *= 0.8 + 0.4*rng.Float64()
		}
	}
	budget := qp.Options{Tol: 1e-7, MaxIters: 150}

	away := warmEpochs(in, qp.VariantAway, budget, epochs, perturb)
	classic := warmEpochs(in, qp.VariantClassic, budget, epochs, perturb)
	if len(away) != epochs+1 || len(classic) != epochs+1 {
		t.Fatalf("trajectory lengths %d/%d, want %d", len(away), len(classic), epochs+1)
	}

	// Classic warm starts accumulate support: every epoch's nnz exceeds
	// the previous one's (nothing ever removes a stale vertex).
	for e := 1; e <= epochs; e++ {
		if classic[e].NNZ <= classic[e-1].NNZ {
			t.Fatalf("classic epoch %d nnz %d did not grow from %d — failure mode no longer reproduces",
				e, classic[e].NNZ, classic[e-1].NNZ)
		}
	}
	// Away warm starts stay lean: bounded by a small multiple of the
	// cold iterate's support at every epoch, and far below classic's end
	// state.
	bound := 3 * away[0].NNZ
	for e, ep := range away {
		if ep.NNZ > bound {
			t.Fatalf("away epoch %d nnz %d exceeds bound %d", e, ep.NNZ, bound)
		}
	}
	if last := classic[epochs].NNZ; away[epochs].NNZ*2 >= last {
		t.Fatalf("away final nnz %d not decisively leaner than classic's %d", away[epochs].NNZ, last)
	}
	// And the warm solves actually help: every away epoch ends at a gap
	// no worse than its cold-start equivalent would have at this budget.
	for e := 1; e <= epochs; e++ {
		if away[e].Cost <= 0 {
			t.Fatalf("away epoch %d has nonpositive cost %v", e, away[e].Cost)
		}
	}
}
