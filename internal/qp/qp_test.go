package qp

import (
	"math"
	"math/rand"
	"strings"
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
		in.Load[i] = math.Floor(1 + 99*rng.Float64())
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

func randRho(rng *rand.Rand, m int) [][]float64 {
	rho := make([][]float64, m)
	for i := 0; i < m; i++ {
		rho[i] = make([]float64, m)
		var sum float64
		for j := 0; j < m; j++ {
			rho[i][j] = rng.Float64()
			sum += rho[i][j]
		}
		for j := 0; j < m; j++ {
			rho[i][j] /= sum
		}
	}
	return rho
}

// The central identity of paper §III (eq. 3–5): the cost computed from
// the model equals the quadratic form ρᵀQρ + bᵀρ over the dense matrices.
func TestQuadraticFormMatchesObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(5)
		in := randInstance(rng, m)
		rho := randRho(rng, m)
		q := BuildQ(in)
		b := BuildB(in)
		got := QuadraticForm(q, b, Flatten(rho))
		want := Objective(in, rho)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("quadratic form %v, objective %v", got, want)
		}
		// And both equal the model-level cost.
		alloc := model.FromFractions(in, rho)
		ref := model.TotalCost(in, alloc)
		if math.Abs(want-ref) > 1e-6*math.Max(1, ref) {
			t.Fatalf("objective %v, model cost %v", want, ref)
		}
	}
}

func TestBuildQStructure(t *testing.T) {
	in := model.Uniform(3, 2, 10, 5)
	q := BuildQ(in)
	m := 3
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			for k := 0; k < m; k++ {
				for l := 0; l < m; l++ {
					v := q[i*m+j][k*m+l]
					switch {
					case j == l && i < k:
						if want := in.Load[i] * in.Load[k] / in.Speed[j]; v != want {
							t.Fatalf("q[(%d,%d)][(%d,%d)] = %v, want %v", i, j, k, l, v, want)
						}
					case j == l && i == k:
						if want := in.Load[i] * in.Load[k] / (2 * in.Speed[j]); v != want {
							t.Fatalf("diag q = %v, want %v", v, want)
						}
					case j == l && i > k:
						if v != 0 {
							t.Fatalf("lower triangle not zero at (%d,%d),(%d,%d)", i, j, k, l)
						}
					default:
						if v != 0 {
							t.Fatalf("off-block entry not zero at (%d,%d),(%d,%d)", i, j, k, l)
						}
					}
				}
			}
		}
	}
}

// diagonalEigenvalues returns the diagonal of Q, which — Q being upper
// triangular — is exactly its spectrum: n_i²/(2 s_j) for all (i,j)
// (paper §III). All entries are positive when every n_i > 0, certifying
// positive definiteness.
func diagonalEigenvalues(in *model.Instance) []float64 {
	m := in.M()
	out := make([]float64, 0, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out = append(out, in.Load[i]*in.Load[i]/(2*in.Speed[j]))
		}
	}
	return out
}

func TestDiagonalEigenvaluesPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randInstance(rng, 4)
	for _, ev := range diagonalEigenvalues(in) {
		if ev <= 0 {
			t.Fatalf("eigenvalue %v not positive — Q should be positive definite", ev)
		}
	}
}

func TestFprintStructure(t *testing.T) {
	in := model.Uniform(3, 1, 10, 5)
	var sb strings.Builder
	if err := FprintStructure(&sb, in); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "D") || !strings.Contains(out, "X") {
		t.Error("structure printout missing D/X markers")
	}
	// Upper-triangular within blocks: the first row must contain X
	// entries, the last row only the diagonal.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if strings.Count(last, "X") != 0 {
		t.Errorf("last row should have no X (upper triangular), got %q", last)
	}
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randInstance(rng, 4)
	rho := randRho(rng, 4)
	loads := make([]float64, 4)
	Loads(in, rho, loads)
	grad := make([][]float64, 4)
	for i := range grad {
		grad[i] = make([]float64, 4)
	}
	Gradient(in, loads, grad)
	const h = 1e-6
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			orig := rho[i][j]
			rho[i][j] = orig + h
			up := Objective(in, rho)
			rho[i][j] = orig - h
			down := Objective(in, rho)
			rho[i][j] = orig
			fd := (up - down) / (2 * h)
			if math.Abs(fd-grad[i][j]) > 1e-3*math.Max(1, math.Abs(fd)) {
				t.Fatalf("grad[%d][%d] = %v, finite difference %v", i, j, grad[i][j], fd)
			}
		}
	}
}

// Two homogeneous servers have a closed-form optimum: move
// Δ = max(0, (n1−n2−s·c)/2) requests from the loaded to the idle server.
func TestSolversMatchClosedFormTwoServers(t *testing.T) {
	in, err := model.NewInstance(
		[]float64{1, 1},
		[]float64{100, 20},
		[][]float64{{0, 10}, {10, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Δ = (100 − 20 − 1·1·10·(1+1)/ ... use Lemma 1 with k=i=1:
	// Δr = (s2·l1 − s1·l2 − s1 s2 (c12−c11)) / (s1+s2) = (100−20−10)/2 = 35.
	wantCost := func() float64 {
		a := model.NewAllocation(2)
		a.R[0][0], a.R[0][1] = 65, 35
		a.R[1][1] = 20
		return model.TotalCost(in, a)
	}()
	for name, solve := range map[string]func(*model.Instance, Options) *Result{
		"frank-wolfe":        solveFrankWolfe,
		"projected-gradient": SolveProjectedGradient,
	} {
		res := solve(in, Options{Tol: 1e-10, MaxIters: 100000})
		if !res.Converged {
			t.Errorf("%s did not converge", name)
		}
		if math.Abs(res.Cost-wantCost) > 1e-4*wantCost {
			t.Errorf("%s cost = %v, want %v", name, res.Cost, wantCost)
		}
	}
}

// solveFrankWolfe is classic Frank–Wolfe with its result densified, in
// the signature of the solver tables in this file.
func solveFrankWolfe(in *model.Instance, opt Options) *Result {
	return SolveFrankWolfeSparse(in, opt).Dense()
}

// Frank–Wolfe's gap is a certificate: cost − gap ≤ F* ≤ cost must hold
// with F* approximated by a long projected-gradient run.
func TestFrankWolfeGapCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		in := randInstance(rng, 6)
		fw := SolveFrankWolfeSparse(in, Options{Tol: 1e-8, MaxIters: 50000}).Dense()
		pg := SolveProjectedGradient(in, Options{Tol: 1e-12, MaxIters: 50000})
		opt := math.Min(fw.Cost, pg.Cost)
		if fw.Cost-fw.Gap > opt+1e-6*opt {
			t.Errorf("gap certificate violated: cost−gap=%v > opt=%v", fw.Cost-fw.Gap, opt)
		}
		if relDiff := math.Abs(fw.Cost-pg.Cost) / opt; relDiff > 1e-4 {
			t.Errorf("solvers disagree: FW %v vs PG %v (rel %v)", fw.Cost, pg.Cost, relDiff)
		}
	}
}

func TestSolversNeverIncreaseCostVsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 8)
		idCost := model.TotalCost(in, model.Identity(in))
		fw := SolveFrankWolfeSparse(in, Options{Tol: 1e-6}).Dense()
		if fw.Cost > idCost+1e-9*idCost {
			t.Errorf("FW cost %v worse than identity %v", fw.Cost, idCost)
		}
	}
}

func TestSolverRespectsForbiddenLinks(t *testing.T) {
	in := model.Uniform(3, 1, 100, 5)
	in.Latency.(model.DenseLatency)[0][2] = math.Inf(1)
	in.Latency.(model.DenseLatency)[2][0] = math.Inf(1)
	in.Load[1], in.Load[2] = 0, 0 // all load on server 0

	for name, solve := range map[string]func(*model.Instance, Options) *Result{
		"frank-wolfe":        solveFrankWolfe,
		"projected-gradient": SolveProjectedGradient,
	} {
		res := solve(in, Options{Tol: 1e-9})
		if res.Rho[0][2] > 1e-9 {
			t.Errorf("%s placed mass %v on forbidden link", name, res.Rho[0][2])
		}
		if err := res.Allocation(in).Validate(in, 1e-6); err != nil {
			t.Errorf("%s produced invalid allocation: %v", name, err)
		}
	}
}

func TestSolverHandlesZeroLoadRows(t *testing.T) {
	in := model.Uniform(4, 1, 0, 10)
	in.Load[0] = 50
	res := SolveFrankWolfeSparse(in, Options{Tol: 1e-9}).Dense()
	if !res.Converged {
		t.Error("did not converge with zero-load rows")
	}
	if err := res.Allocation(in).Validate(in, 1e-6); err != nil {
		t.Errorf("invalid allocation: %v", err)
	}
}

func TestLipschitzConstant(t *testing.T) {
	in := model.Uniform(2, 2, 10, 5)
	// ‖n‖² = 200, min s = 2 → L = 100.
	if got := LipschitzConstant(in); math.Abs(got-100) > 1e-12 {
		t.Errorf("L = %v, want 100", got)
	}
}

func TestSolveWithInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := randInstance(rng, 5)
	init := randRho(rng, 5)
	res := SolveFrankWolfeSparse(in, Options{Tol: 1e-8, Initial: init}).Dense()
	// The initial matrix must not have been mutated.
	var sum float64
	for _, row := range init {
		for _, v := range row {
			sum += v
		}
	}
	if math.Abs(sum-5) > 1e-9 {
		t.Error("solver mutated the caller's initial matrix")
	}
	if res.Cost <= 0 {
		t.Error("nonsensical cost")
	}
}

func BenchmarkFrankWolfe50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveFrankWolfeSparse(in, Options{Tol: 1e-6, MaxIters: 5000}).Dense()
	}
}

func BenchmarkProjectedGradient50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveProjectedGradient(in, Options{Tol: 1e-9, MaxIters: 5000})
	}
}
