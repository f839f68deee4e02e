package game

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
)

func randInstance(rng *rand.Rand, m int) *model.Instance {
	in := &model.Instance{
		Speed:   make([]float64, m),
		Load:    make([]float64, m),
		Latency: model.NewDense(make([][]float64, m)),
	}
	for i := 0; i < m; i++ {
		in.Speed[i] = 1 + 4*rng.Float64()
		in.Load[i] = math.Floor(rng.Float64() * 120)
		in.Latency.(model.DenseLatency)[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			c := 40 * rng.Float64()
			in.Latency.(model.DenseLatency)[i][j] = c
			in.Latency.(model.DenseLatency)[j][i] = c
		}
	}
	return in
}

// lemmaThreeHolds checks Lemma 3 on an allocation over a homogeneous
// instance: in a Nash equilibrium every pair of server loads differs by
// at most c·s (plus tolerance for the approximate equilibrium).
func lemmaThreeHolds(in *model.Instance, a *model.Allocation, slack float64) bool {
	c := in.AverageLatency()
	s := in.Speed[0]
	loads := a.Loads()
	bound := c*s + slack
	for i := range loads {
		for j := range loads {
			if math.Abs(loads[i]-loads[j]) > bound {
				return false
			}
		}
	}
	return true
}

// KKT verification of the water-filling best response: on the support,
// marginal costs are equal; off the support they are no smaller.
func TestBestResponseKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(10)
		in := randInstance(rng, m)
		a := model.Identity(in)
		// Perturb: move some requests around first.
		for i := 0; i < m; i++ {
			if in.Load[i] > 0 {
				j := rng.Intn(m)
				half := a.R[i][i] / 2
				a.R[i][i] -= half
				a.R[i][j] += half
			}
		}
		loads := a.Loads()
		i := rng.Intn(m)
		if in.Load[i] == 0 {
			continue
		}
		row := BestResponse(in, loads, a, i, nil)
		var sum float64
		lambda := math.Inf(-1)
		for j := 0; j < m; j++ {
			sum += row[j]
			if row[j] < -1e-12 {
				t.Fatalf("negative r[%d]=%v", j, row[j])
			}
		}
		if math.Abs(sum-in.Load[i]) > 1e-6*math.Max(1, in.Load[i]) {
			t.Fatalf("row sums to %v, want %v", sum, in.Load[i])
		}
		// Marginal of C_i at r_ij: (ext_j + 2 r_ij)/(2 s_j) + c_ij.
		marginal := func(j int) float64 {
			ext := loads[j] - a.R[i][j]
			return (ext+2*row[j])/(2*in.Speed[j]) + in.Latency.(model.DenseLatency)[i][j]
		}
		for j := 0; j < m; j++ {
			if row[j] > 1e-9 {
				lambda = math.Max(lambda, marginal(j))
			}
		}
		for j := 0; j < m; j++ {
			mj := marginal(j)
			if row[j] > 1e-9 {
				if math.Abs(mj-lambda) > 1e-6*math.Max(1, lambda) {
					t.Fatalf("support marginal %v != λ %v", mj, lambda)
				}
			} else if mj < lambda-1e-6*math.Max(1, lambda) {
				t.Fatalf("off-support marginal %v < λ %v", mj, lambda)
			}
		}
	}
}

// The best response must beat every grid alternative on a 2-server
// system (1-D problem).
func TestBestResponseBeatsGridTwoServers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		in := randInstance(rng, 2)
		if in.Load[0] == 0 {
			continue
		}
		a := model.Identity(in)
		loads := a.Loads()
		row := BestResponse(in, loads, a, 0, nil)
		cost := privateCost(in, loads, a, 0, row)
		n := in.Load[0]
		for k := 0; k <= 200; k++ {
			alt := []float64{n * float64(k) / 200, n * (1 - float64(k)/200)}
			if c := privateCost(in, loads, a, 0, alt); c < cost-1e-6*math.Max(1, cost) {
				t.Fatalf("grid point %v beats best response: %v < %v", alt, c, cost)
			}
		}
	}
}

func TestBestResponseRespectsForbiddenLinks(t *testing.T) {
	in := model.Uniform(3, 1, 100, 5)
	in.Latency.(model.DenseLatency)[0][2] = math.Inf(1)
	a := model.Identity(in)
	row := BestResponse(in, a.Loads(), a, 0, nil)
	if row[2] != 0 {
		t.Errorf("best response placed %v on forbidden server", row[2])
	}
}

func TestBestResponseZeroLoad(t *testing.T) {
	in := model.Uniform(3, 1, 10, 5)
	in.Load[1] = 0
	a := model.Identity(in)
	row := BestResponse(in, a.Loads(), a, 1, nil)
	for j, v := range row {
		if v != 0 {
			t.Errorf("row[%d] = %v, want 0 for empty organization", j, v)
		}
	}
}

// When the latency dwarfs any congestion gain, identity is the Nash
// equilibrium: nobody relays anything.
func TestDynamicsKeepLocalWhenLatencyHigh(t *testing.T) {
	in := model.Uniform(4, 1, 10, 1e6)
	nash, tr := BestResponseDynamics(in, Config{})
	if !tr.Converged {
		t.Fatal("did not converge")
	}
	for i := 0; i < 4; i++ {
		if math.Abs(nash.R[i][i]-10) > 1e-9 {
			t.Errorf("org %d relayed despite huge latency: %v", i, nash.R[i])
		}
	}
}

func TestDynamicsReachApproximateNash(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 3+rng.Intn(12))
		nash, tr := BestResponseDynamics(in, Config{})
		if !tr.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		if err := nash.Validate(in, 1e-6); err != nil {
			t.Fatalf("invalid equilibrium: %v", err)
		}
		if eps := EpsilonNash(in, nash); eps > 0.05 {
			t.Errorf("equilibrium residual ε = %v too large", eps)
		}
	}
}

// Theorem 1: on homogeneous instances with equal initial loads and
// lav ≫ cs, the measured PoA sits within (a slightly slackened version
// of) the analytic band.
func TestTheoremOneBand(t *testing.T) {
	const (
		m   = 10
		s   = 1.0
		c   = 5.0
		lav = 500.0 // lav/cs = 100 ≫ 1
	)
	in := model.Uniform(m, s, lav, c)
	res := MeasurePoA(in, Config{ChangeTol: 1e-4}, rand.New(rand.NewSource(4)))
	lower, upper := TheoremOneBounds(c, s, lav)
	if res.Ratio < lower-0.01 || res.Ratio > upper+0.01 {
		t.Errorf("PoA = %v outside band [%v, %v]", res.Ratio, lower, upper)
	}
	// With equal loads the optimum is the identity (no relaying).
	wantOpt := m * lav * lav / (2 * s)
	if math.Abs(res.OptCost-wantOpt) > 1e-3*wantOpt {
		t.Errorf("opt = %v, want %v", res.OptCost, wantOpt)
	}
}

func TestTheoremOneBoundsFormula(t *testing.T) {
	lower, upper := TheoremOneBounds(20, 1, 1000)
	x := 20.0 / 1000
	if math.Abs(lower-(1+2*x-4*x*x)) > 1e-12 {
		t.Errorf("lower = %v", lower)
	}
	if math.Abs(upper-(1+2*x+x*x)) > 1e-12 {
		t.Errorf("upper = %v", upper)
	}
	if lower > upper {
		t.Error("lower bound above upper bound")
	}
}

// Lemma 3: equilibrium loads on a homogeneous network differ by ≤ c·s.
func TestLemmaThree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		m := 5 + rng.Intn(10)
		in := model.Uniform(m, 1, 0, 10)
		for i := 0; i < m; i++ {
			in.Load[i] = math.Floor(rng.Float64() * 400)
		}
		nash, _ := BestResponseDynamics(in, Config{ChangeTol: 1e-4})
		// Allow slack for the approximate (1%-rule) equilibrium.
		if !lemmaThreeHolds(in, nash, 0.05*in.AverageLoad()+1) {
			loads := nash.Loads()
			t.Errorf("Lemma 3 violated: loads %v with c·s = %v", loads, 10.0)
		}
	}
}

// The price of anarchy must be ≥ 1 (selfishness cannot beat the optimum)
// and small on typical instances (§VI-C: below 1.15).
func TestPoABounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		in := randInstance(rng, 4+rng.Intn(10))
		if in.TotalLoad() == 0 {
			continue
		}
		res := MeasurePoA(in, Config{}, rand.New(rand.NewSource(int64(trial))))
		if res.Ratio < 1-1e-6 {
			t.Errorf("PoA = %v < 1: Nash cannot beat the optimum", res.Ratio)
		}
		if res.Ratio > 1.3 {
			t.Errorf("PoA = %v implausibly high for these instances", res.Ratio)
		}
	}
}

func TestMeasurePoAZeroLoad(t *testing.T) {
	in := model.Uniform(3, 1, 0, 5)
	res := MeasurePoA(in, Config{}, rand.New(rand.NewSource(1)))
	if res.Ratio != 1 {
		t.Errorf("empty system PoA = %v, want 1", res.Ratio)
	}
}

func BenchmarkBestResponse200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 200)
	a := model.Identity(in)
	loads := a.Loads()
	row := make([]float64, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BestResponse(in, loads, a, i%200, row)
	}
}

func BenchmarkBestResponseDynamics50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BestResponseDynamics(in, Config{})
	}
}
