package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/netmodel"
	"delaylb/internal/sparse"
	"delaylb/internal/workload"
)

func testInstance(seed int64, m int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	return &model.Instance{
		Speed:   workload.UniformSpeeds(m, 1, 5, rng),
		Load:    workload.ExponentialLoads(m, 100, rng),
		Latency: model.NewDense(netmodel.PlanetLab(m, rng)),
	}
}

func TestEvolveKeepsLoadsValid(t *testing.T) {
	in := testInstance(1, 20)
	rng := rand.New(rand.NewSource(2))
	for epoch := 0; epoch < 50; epoch++ {
		Evolve(in, 0.3, 0.1, 5, rng)
		for i, n := range in.Load {
			if n < 0 || n != math.Round(n) || math.IsNaN(n) || math.IsInf(n, 0) {
				t.Fatalf("load[%d] = %v after evolution", i, n)
			}
		}
	}
}

func TestEvolveActuallyChangesLoads(t *testing.T) {
	in := testInstance(3, 20)
	before := append([]float64(nil), in.Load...)
	Evolve(in, 0.3, 0.1, 5, rand.New(rand.NewSource(4)))
	changed := 0
	for i := range before {
		if in.Load[i] != before[i] {
			changed++
		}
	}
	if changed < 10 {
		t.Errorf("only %d/20 loads changed", changed)
	}
}

func TestRescalePreservesFractionsAndMass(t *testing.T) {
	oldIn := testInstance(5, 10)
	newIn := oldIn.Clone()
	Evolve(newIn, 0.2, 0, 0, rand.New(rand.NewSource(6)))
	a := sparse.Diagonal(oldIn.Load)
	// Spread some mass around first.
	for i := 0; i < 10; i++ {
		if oldIn.Load[i] > 0 {
			a.Set(i, i, oldIn.Load[i]/2)
			a.Set(i, (i+1)%10, oldIn.Load[i]/2)
		}
	}
	out := Rescale(a, oldIn.Load, newIn.Load)
	assertFeasible(t, out, newIn)
	for i := 0; i < 10; i++ {
		if oldIn.Load[i] == 0 || newIn.Load[i] == 0 {
			continue
		}
		oldFrac := a.Get(i, i) / oldIn.Load[i]
		newFrac := out.Get(i, i) / newIn.Load[i]
		if math.Abs(oldFrac-newFrac) > 1e-9 {
			t.Fatalf("org %d fraction changed: %v → %v", i, oldFrac, newFrac)
		}
	}
}

func TestRescaleHandlesZeroOldLoad(t *testing.T) {
	oldIn := testInstance(7, 5)
	oldIn.Load[2] = 0
	newIn := oldIn.Clone()
	newIn.Load[2] = 50
	out := Rescale(sparse.Diagonal(oldIn.Load), oldIn.Load, newIn.Load)
	if out.Get(2, 2) != 50 {
		t.Errorf("new load of previously empty org not placed locally: %v", out.Dense()[2])
	}
}

// The headline property: under moderate churn, warm starts re-converge
// at least as fast as cold starts on average, and start from a much less
// stale state.
func TestWarmStartBeatsColdStart(t *testing.T) {
	if testing.Short() {
		t.Skip("tracking experiment: skipped in -short mode")
	}
	in := testInstance(8, 20)
	stats := Track(in, Config{
		Epochs:    6,
		Churn:     0.15,
		SpikeProb: 0.05,
		Seed:      9,
	})
	if len(stats) != 6 {
		t.Fatalf("got %d epochs", len(stats))
	}
	s := Summarize(stats)
	if s.AvgWarmIters > s.AvgColdIters+0.51 {
		t.Errorf("warm starts averaged %.2f iterations vs cold %.2f — expected warm ≤ cold",
			s.AvgWarmIters, s.AvgColdIters)
	}
	for _, e := range stats {
		if e.WarmStartCost < e.OptCost*(1-1e-6) {
			t.Errorf("epoch %d: warm start cost %v below optimum %v", e.Epoch, e.WarmStartCost, e.OptCost)
		}
		if e.ColdStartCost < e.WarmStartCost*(1-1e-6) {
			t.Errorf("epoch %d: cold start (%v) should not be better than warm start (%v)",
				e.Epoch, e.ColdStartCost, e.WarmStartCost)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.AvgWarmIters != 0 || s.AvgColdIters != 0 {
		t.Error("empty summary not zero")
	}
}
