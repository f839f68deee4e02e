package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "Mean")
	approx(t, Variance(xs), 32.0/7.0, 1e-12, "Variance")
	approx(t, StdDev(xs), math.Sqrt(32.0/7.0), 1e-12, "StdDev")
	approx(t, Min(xs), 2, 0, "Min")
	approx(t, Max(xs), 9, 0, "Max")
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of single sample should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Avg != 2 || s.Max != 3 || s.Min != 1 {
		t.Errorf("Summary = %+v", s)
	}
	zero := Summarize(nil)
	if zero.N != 0 {
		t.Error("empty summary should have N=0")
	}
}

func TestTrimLargest(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	trimmed := TrimLargest(xs, 0.2) // drop 2 largest (9, 10)
	if len(trimmed) != 8 {
		t.Fatalf("got %d values, want 8", len(trimmed))
	}
	if Max(trimmed) != 8 {
		t.Errorf("max after trim = %v, want 8", Max(trimmed))
	}
	// frac=0 returns a copy.
	cp := TrimLargest(xs, 0)
	if len(cp) != len(xs) {
		t.Error("frac=0 should keep all values")
	}
	if TrimLargest(xs, 1.0) != nil {
		t.Error("trimming everything should return nil")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		approx(t, RegIncBeta(1, 1, x), x, 1e-12, "I_x(1,1)")
	}
	// Symmetry: I_{1/2}(a,a) = 1/2.
	for _, a := range []float64{0.5, 1, 2, 5, 10} {
		approx(t, RegIncBeta(a, a, 0.5), 0.5, 1e-10, "I_0.5(a,a)")
	}
	// I_x(2,2) = 3x² − 2x³.
	for _, x := range []float64{0.2, 0.4, 0.7} {
		approx(t, RegIncBeta(2, 2, x), 3*x*x-2*x*x*x, 1e-12, "I_x(2,2)")
	}
	// Complement identity.
	approx(t, RegIncBeta(3, 5, 0.3)+RegIncBeta(5, 3, 0.7), 1, 1e-12, "complement")
	// Boundaries.
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("boundary values wrong")
	}
}

func TestFSurvivalKnownQuantiles(t *testing.T) {
	// Standard F-distribution critical values: P(F ≥ crit) = 0.05.
	cases := []struct{ d1, d2, crit float64 }{
		{1, 10, 4.965},
		{2, 10, 4.103},
		{5, 20, 2.711},
		{7, 292, 2.04}, // close to the paper's setting: 8 groups × 300 samples
	}
	for _, c := range cases {
		p := FSurvival(c.crit, c.d1, c.d2)
		if math.Abs(p-0.05) > 0.005 {
			t.Errorf("FSurvival(%v; %v,%v) = %v, want ≈0.05", c.crit, c.d1, c.d2, p)
		}
	}
	if FSurvival(0, 3, 3) != 1 {
		t.Error("FSurvival(0) should be 1")
	}
	if FSurvival(math.Inf(1), 3, 3) != 0 {
		t.Error("FSurvival(inf) should be 0")
	}
}

func TestOneWayANOVAHandComputed(t *testing.T) {
	// Classic textbook example.
	groups := [][]float64{
		{6, 8, 4, 5, 3, 4},
		{8, 12, 9, 11, 6, 8},
		{13, 9, 11, 8, 7, 12},
	}
	res, err := OneWayANOVA(groups)
	if err != nil {
		t.Fatal(err)
	}
	// Hand computation: group means 5, 9, 10; grand mean 8.
	// SSB = 6(9+1+4) = 84, SSW = 17.5+23.5... compute: g1 deviations
	// {1,3,-1,0,-2,-1} → 16; g2 {-1,3,0,2,-3,-1} → 24; g3 {3,-1,1,-2,-3,2} → 28.
	// SSW = 68, MSB = 42, MSW = 68/15 ≈ 4.533, F ≈ 9.2647.
	approx(t, res.F, 9.2647, 1e-3, "F")
	if res.DFBetw != 2 || res.DFWithin != 15 {
		t.Errorf("df = (%d,%d), want (2,15)", res.DFBetw, res.DFWithin)
	}
	if res.P > 0.01 {
		t.Errorf("p = %v, expected < 0.01 for clearly different groups", res.P)
	}
}

func TestOneWayANOVANullHolds(t *testing.T) {
	// Identical distributions: p should be roughly uniform; with a fixed
	// seed we just check it is not extreme.
	rng := rand.New(rand.NewSource(12))
	groups := make([][]float64, 4)
	for g := range groups {
		groups[g] = make([]float64, 100)
		for i := range groups[g] {
			groups[g][i] = rng.NormFloat64()
		}
	}
	res, err := OneWayANOVA(groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.001 {
		t.Errorf("p = %v; same-mean groups should rarely reject", res.P)
	}
}

func TestOneWayANOVAIdenticalValues(t *testing.T) {
	res, err := OneWayANOVA([][]float64{{5, 5}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.F != 0 || res.P != 1 {
		t.Errorf("identical data: F=%v p=%v, want 0 and 1", res.F, res.P)
	}
}

func TestOneWayANOVAErrors(t *testing.T) {
	if _, err := OneWayANOVA(nil); err == nil {
		t.Error("nil groups accepted")
	}
	if _, err := OneWayANOVA([][]float64{{1}}); err == nil {
		t.Error("single group accepted")
	}
	if _, err := OneWayANOVA([][]float64{{1}, {}}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := OneWayANOVA([][]float64{{1}, {2}}); err == nil {
		t.Error("zero residual df accepted")
	}
}

// Property: RegIncBeta is monotone in x and within [0,1].
func TestRegIncBetaMonotoneProperty(t *testing.T) {
	f := func(a8, b8, x8, y8 uint8) bool {
		a := 0.5 + float64(a8%40)/4
		b := 0.5 + float64(b8%40)/4
		x := float64(x8) / 255
		y := float64(y8) / 255
		if x > y {
			x, y = y, x
		}
		ix := RegIncBeta(a, b, x)
		iy := RegIncBeta(a, b, y)
		return ix >= -1e-12 && iy <= 1+1e-12 && ix <= iy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOneWayANOVA(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	groups := make([][]float64, 8)
	for g := range groups {
		groups[g] = make([]float64, 300)
		for i := range groups[g] {
			groups[g][i] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OneWayANOVA(groups); err != nil {
			b.Fatal(err)
		}
	}
}
