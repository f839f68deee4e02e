package model

import (
	"math"
	"math/rand"
	"testing"
)

// naiveTotalCost computes ΣC_i directly from eq. (1) in O(m³)-ish style,
// serving as the reference implementation for the optimized TotalCost.
func naiveTotalCost(in *Instance, a *Allocation) float64 {
	loads := a.Loads()
	var total float64
	for i := 0; i < in.M(); i++ {
		for j := 0; j < in.M(); j++ {
			r := a.R[i][j]
			total += r * (loads[j]/(2*in.Speed[j]) + in.Latency.(DenseLatency)[i][j])
		}
	}
	return total
}

// congestionCost returns the pure congestion component Σ_j l_j²/(2 s_j).
func congestionCost(in *Instance, a *Allocation) float64 {
	var t float64
	for j, l := range a.Loads() {
		t += l * l / (2 * in.Speed[j])
	}
	return t
}

// lowerBoundCost returns a simple lower bound on the optimal ΣC_i: the
// congestion cost of the ideal speed-proportional load split with zero
// communication. For homogeneous systems this is the paper's bound
// m·l_av²/(2s) used in the proof of Theorem 1.
//
// The bound follows from minimizing Σ l_j²/(2 s_j) subject to Σ l_j = N,
// whose optimum (by Cauchy–Schwarz / KKT) is l_j ∝ s_j, giving
// N²/(2 Σ_j s_j).
func lowerBoundCost(in *Instance) float64 {
	n := in.TotalLoad()
	return n * n / (2 * in.TotalSpeed())
}

func TestTotalCostMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 2+rng.Intn(10))
		a := randAllocation(rng, in)
		got := TotalCost(in, a)
		want := naiveTotalCost(in, a)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("TotalCost = %v, naive = %v", got, want)
		}
	}
}

func TestTotalCostSplitsIntoComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	in := randInstance(rng, 6)
	a := randAllocation(rng, in)
	sum := congestionCost(in, a) + CommCost(in, a)
	if math.Abs(sum-TotalCost(in, a)) > 1e-9*math.Max(1, sum) {
		t.Errorf("congestion+comm = %v, TotalCost = %v", sum, TotalCost(in, a))
	}
}

func TestOrgCostsSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(rng, 2+rng.Intn(8))
		a := randAllocation(rng, in)
		var sum float64
		for _, c := range OrgCosts(in, a) {
			sum += c
		}
		want := TotalCost(in, a)
		if math.Abs(sum-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("ΣOrgCost = %v, TotalCost = %v", sum, want)
		}
	}
}

func TestIdentityCostHandComputed(t *testing.T) {
	// 2 servers, speeds 1 and 2, loads 10 and 4, c=5.
	in, err := NewInstance(
		[]float64{1, 2},
		[]float64{10, 4},
		[][]float64{{0, 5}, {5, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := Identity(in)
	// C_1 = 10·(10/2) = 50, C_2 = 4·(4/4) = 4.
	want := 54.0
	if got := TotalCost(in, a); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalCost = %v, want %v", got, want)
	}
}

func TestRelayCostHandComputed(t *testing.T) {
	in, err := NewInstance(
		[]float64{1, 1},
		[]float64{10, 0},
		[][]float64{{0, 3}, {3, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAllocation(2)
	a.R[0][0], a.R[0][1] = 6, 4
	// loads: l1=6, l2=4.
	// C_1 = 6·(6/2) + 4·(4/2 + 3) = 18 + 20 = 38.
	want := 38.0
	if got := TotalCost(in, a); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalCost = %v, want %v", got, want)
	}
	if got := CommCost(in, a); got != 12 {
		t.Errorf("CommCost = %v, want 12", got)
	}
}

func TestLowerBoundCost(t *testing.T) {
	// Homogeneous: bound must be m·lav²/(2s).
	in := Uniform(4, 2, 10, 20)
	want := 4 * 10.0 * 10.0 / (2 * 2.0)
	if got := lowerBoundCost(in); math.Abs(got-want) > 1e-12 {
		t.Errorf("lowerBoundCost = %v, want %v", got, want)
	}
}

// Property: the lower bound never exceeds the cost of any feasible
// allocation.
func TestLowerBoundIsALowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 2+rng.Intn(8))
		a := randAllocation(rng, in)
		if lb, c := lowerBoundCost(in), TotalCost(in, a); lb > c+1e-9 {
			t.Fatalf("lower bound %v exceeds feasible cost %v", lb, c)
		}
	}
}

func TestOrgCostZeroLoad(t *testing.T) {
	in := Uniform(2, 1, 10, 20)
	in.Load[1] = 0
	a := Identity(in)
	loads := a.Loads()
	if got := OrgCost(in, a, loads, 1); got != 0 {
		t.Errorf("OrgCost of empty org = %v, want 0", got)
	}
}

func BenchmarkTotalCost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 200)
	a := randAllocation(rng, in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TotalCost(in, a)
	}
}
