package core

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
)

func TestTransferMatrixZeroAtOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 8)
	alloc, _ := Run(in, Config{Rng: rand.New(rand.NewSource(2))})
	st := NewState(in, rowsOf(alloc.R))
	dr := TransferMatrix(st)
	total := 0.0
	for i := range dr {
		for j := range dr {
			total += dr[i][j]
		}
	}
	if total > 1e-3*math.Max(1, in.TotalLoad()) {
		t.Errorf("converged state still has pending transfers: %v", total)
	}
	if b := DistanceBound(st); b > 1e-2*math.Max(1, in.TotalLoad()) {
		t.Errorf("distance bound %v at optimum, want ≈0", b)
	}
}

// Proposition 1: the bound dominates the actual Manhattan distance to the
// optimum, for cycle-free intermediate states.
func TestDistanceBoundDominatesActual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 3+rng.Intn(6))
		// Intermediate state: run one iteration only.
		st := NewIdentityState(in)
		RunState(st, Config{MaxIters: 1, Rng: rand.New(rand.NewSource(int64(trial)))})
		RemoveCycles(st) // the proposition assumes no negative cycles
		bound := DistanceBound(st)

		// Optimal allocation for distance measurement.
		opt, _ := Run(in, Config{Rng: rand.New(rand.NewSource(int64(trial) + 100))})
		actual := denseOf(st).L1Distance(opt)
		if bound+1e-6 < actual {
			t.Errorf("bound %v below actual distance %v (m=%d)", bound, actual, in.M())
		}
	}
}

func TestDeltaRScalesWithImbalance(t *testing.T) {
	// Identity allocation on a strongly imbalanced homogeneous instance
	// has a large ΔR; the balanced optimum has ΔR ≈ 0.
	in := model.Uniform(6, 1, 0, 5)
	in.Load[0] = 600
	st := NewIdentityState(in)
	drStart := DeltaR(st, TransferMatrix(st))
	if drStart <= 0 {
		t.Fatal("imbalanced state should have positive ΔR")
	}
	RunState(st, Config{Rng: rand.New(rand.NewSource(1))})
	drEnd := DeltaR(st, TransferMatrix(st))
	if drEnd > drStart/100 {
		t.Errorf("ΔR did not shrink: %v → %v", drStart, drEnd)
	}
}

func TestTransferMatrixDiagonalZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randInstance(rng, 5)
	st := randState(rng, in)
	dr := TransferMatrix(st)
	for i := range dr {
		if dr[i][i] != 0 {
			t.Errorf("dr[%d][%d] = %v, want 0", i, i, dr[i][i])
		}
	}
}
