package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityAllocation(t *testing.T) {
	in := Uniform(3, 1, 10, 20)
	a := Identity(in)
	if err := a.Validate(in, 1e-9); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	loads := a.Loads()
	for i, l := range loads {
		if l != 10 {
			t.Errorf("load[%d] = %v, want 10", i, l)
		}
	}
	for i, row := range a.R {
		for j, v := range row {
			if i != j && v != 0 {
				t.Errorf("identity allocation relays r[%d][%d] = %v", i, j, v)
			}
		}
	}
}

func TestLoadsIntoMatchesLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randInstance(rng, 6)
	a := randAllocation(rng, in)
	want := a.Loads()
	got := make([]float64, in.M())
	// Pre-fill with garbage to verify LoadsInto resets.
	for i := range got {
		got[i] = -1
	}
	a.LoadsInto(got)
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Errorf("LoadsInto[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestFractionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(rng, 5)
		a := randAllocation(rng, in)
		rho := a.Fractions(in)
		// Every row must be a simplex point.
		for i, row := range rho {
			var sum float64
			for _, v := range row {
				if v < -1e-12 {
					t.Fatalf("fraction rho[%d] has negative entry %v", i, v)
				}
				sum += v
			}
			if in.Load[i] > 0 && math.Abs(sum-1) > 1e-9 {
				t.Fatalf("fraction row %d sums to %v, want 1", i, sum)
			}
		}
		b := FromFractions(in, rho)
		if d := a.L1Distance(b); d > 1e-6 {
			t.Fatalf("round trip L1 distance %v, want ~0", d)
		}
	}
}

func TestFractionsZeroLoadRow(t *testing.T) {
	in := Uniform(3, 1, 10, 20)
	in.Load[1] = 0
	a := Identity(in)
	rho := a.Fractions(in)
	if rho[1][1] != 1 {
		t.Errorf("zero-load row should default to rho_ii=1, got %v", rho[1])
	}
}

func TestAllocationValidateCatchesViolations(t *testing.T) {
	in := Uniform(3, 1, 10, 20)
	a := Identity(in)
	a.R[0][1] = -1
	if err := a.Validate(in, 1e-9); err == nil {
		t.Error("negative entry accepted")
	}
	a = Identity(in)
	a.R[0][0] = 5 // row sum now 5 != 10
	if err := a.Validate(in, 1e-9); err == nil {
		t.Error("row-sum violation accepted")
	}
	in.Latency.(DenseLatency)[0][2] = math.Inf(1)
	a = Identity(in)
	a.R[0][0] = 5
	a.R[0][2] = 5
	if err := a.Validate(in, 1e-9); err == nil {
		t.Error("mass on forbidden link accepted")
	}
}

// Property: mass conservation — the sum of loads always equals the total
// instance load, for any feasible allocation.
func TestMassConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, 2+r.Intn(8))
		a := randAllocation(r, in)
		var total float64
		for _, l := range a.Loads() {
			total += l
		}
		return math.Abs(total-in.TotalLoad()) < 1e-6*math.Max(1, in.TotalLoad())
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: L1Distance is a metric — symmetric, zero on identical
// allocations, triangle inequality.
func TestL1DistanceMetricProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		in := randInstance(rng, 4)
		a := randAllocation(rng, in)
		b := randAllocation(rng, in)
		c := randAllocation(rng, in)
		if d := a.L1Distance(a.Clone()); d != 0 {
			t.Fatalf("d(a,a) = %v, want 0", d)
		}
		if math.Abs(a.L1Distance(b)-b.L1Distance(a)) > 1e-9 {
			t.Fatal("L1Distance not symmetric")
		}
		if a.L1Distance(c) > a.L1Distance(b)+b.L1Distance(c)+1e-9 {
			t.Fatal("triangle inequality violated")
		}
	}
}
