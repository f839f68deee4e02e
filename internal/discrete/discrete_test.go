package discrete

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/qp"
)

func randInstance(rng *rand.Rand, m int) *model.Instance {
	in := &model.Instance{
		Speed:   make([]float64, m),
		Load:    make([]float64, m),
		Latency: model.NewDense(make([][]float64, m)),
	}
	for i := 0; i < m; i++ {
		in.Speed[i] = 1 + 4*rng.Float64()
		in.Load[i] = math.Floor(20 + rng.Float64()*100)
		in.Latency.(model.DenseLatency)[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			c := 30 * rng.Float64()
			in.Latency.(model.DenseLatency)[i][j] = c
			in.Latency.(model.DenseLatency)[j][i] = c
		}
	}
	return in
}

// maxTaskSize returns the largest task size of each organization.
func maxTaskSize(in *model.Instance, tasks []Task) []float64 {
	out := make([]float64, in.M())
	for _, t := range tasks {
		if t.Size > out[t.Org] {
			out[t.Org] = t.Size
		}
	}
	return out
}

func TestGenerateTasksSumToLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 5)
	tasks := GenerateTasks(in, 5, rng)
	sums := make([]float64, 5)
	for _, task := range tasks {
		if task.Size <= 0 {
			t.Fatalf("non-positive task size %v", task.Size)
		}
		sums[task.Org] += task.Size
	}
	for i, s := range sums {
		if math.Abs(s-in.Load[i]) > 1e-6*math.Max(1, in.Load[i]) {
			t.Errorf("org %d tasks sum to %v, want %v", i, s, in.Load[i])
		}
	}
}

func TestRoundPreservesMassAndBoundsError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 4+rng.Intn(5))
		res := qp.SolveFrankWolfeSparse(in, qp.Options{Tol: 1e-6}).Dense()
		tasks := GenerateTasks(in, 5, rng)
		asg := Round(in, res.Rho, tasks)
		vol := Volumes(in, tasks, asg)
		if err := vol.Validate(in, 1e-6); err != nil {
			t.Fatalf("rounded allocation invalid: %v", err)
		}
		// Over-assignment per (org, server) is bounded by the org's
		// largest task (greedy largest-gap property).
		maxSz := maxTaskSize(in, tasks)
		for i := 0; i < in.M(); i++ {
			for j := 0; j < in.M(); j++ {
				target := in.Load[i] * res.Rho[i][j]
				if over := vol.R[i][j] - target; over > maxSz[i]+1e-9 {
					t.Errorf("org %d over-assigned server %d by %v > max task %v",
						i, j, over, maxSz[i])
				}
			}
		}
	}
}

func TestRoundedCostNearFractional(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randInstance(rng, 6)
	res := qp.SolveFrankWolfeSparse(in, qp.Options{Tol: 1e-8}).Dense()
	tasks := GenerateTasks(in, 2, rng) // many small tasks → tight rounding
	asg := Round(in, res.Rho, tasks)
	vol := Volumes(in, tasks, asg)
	frac := res.Cost
	disc := model.TotalCost(in, vol)
	if rel := (disc - frac) / frac; rel > 0.05 {
		t.Errorf("discrete cost %.1f%% above fractional optimum, want ≤ 5%%", 100*rel)
	}
}

func TestRoundRespectsForbiddenServers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randInstance(rng, 4)
	in.Latency.(model.DenseLatency)[0][3] = math.Inf(1)
	res := qp.SolveFrankWolfeSparse(in, qp.Options{Tol: 1e-6}).Dense()
	tasks := GenerateTasks(in, 5, rng)
	asg := Round(in, res.Rho, tasks)
	for idx, task := range tasks {
		if task.Org == 0 && asg[idx] == 3 {
			t.Fatal("task of org 0 assigned to forbidden server 3")
		}
	}
}

func TestProjectCappedSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(10)
		cap := 1/float64(n) + rng.Float64()
		x := make([]float64, n)
		for i := range x {
			x[i] = 4 * (rng.Float64() - 0.5)
		}
		ProjectCappedSimplex(x, cap)
		var sum float64
		for _, v := range x {
			if v < -1e-9 || v > cap+1e-9 {
				t.Fatalf("entry %v outside [0, %v]", v, cap)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("sum = %v, want 1", sum)
		}
		// Idempotence.
		before := append([]float64(nil), x...)
		ProjectCappedSimplex(x, cap)
		for i := range x {
			if math.Abs(x[i]-before[i]) > 1e-6 {
				t.Fatal("projection not idempotent")
			}
		}
	}
}

func TestProjectCappedSimplexInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n·cap < 1")
		}
	}()
	ProjectCappedSimplex([]float64{1, 1}, 0.3)
}

func TestSolveReplicatedRespectsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randInstance(rng, 6)
	const r = 3
	rho := SolveReplicated(in, r, 0, 0)
	for i := range rho {
		var sum float64
		for j, f := range rho[i] {
			if f > 1.0/r+1e-6 {
				t.Fatalf("rho[%d][%d] = %v exceeds 1/R = %v", i, j, f, 1.0/r)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// The replication constraint can only increase the optimal cost.
	unconstrained := qp.SolveFrankWolfeSparse(in, qp.Options{Tol: 1e-8}).Dense()
	if replCost := qp.Objective(in, rho); replCost < unconstrained.Cost-1e-6*unconstrained.Cost {
		t.Errorf("replicated cost %v below unconstrained optimum %v", replCost, unconstrained.Cost)
	}
}

func TestSolveReplicatedR1MatchesUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randInstance(rng, 5)
	rho := SolveReplicated(in, 1, 20000, 1e-12)
	got := qp.Objective(in, rho)
	want := qp.SolveFrankWolfeSparse(in, qp.Options{Tol: 1e-9, MaxIters: 100000}).Cost
	if math.Abs(got-want) > 1e-3*want {
		t.Errorf("R=1 cost %v, unconstrained %v", got, want)
	}
}

func TestPlaceReplicasExactlyRDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	row := []float64{0.3, 0.3, 0.2, 0.1, 0.1}
	const r = 3
	for trial := 0; trial < 200; trial++ {
		picks := PlaceReplicas(row, r, rng)
		if len(picks) != r {
			t.Fatalf("got %d replicas, want %d", len(picks), r)
		}
		seen := map[int]bool{}
		for _, j := range picks {
			if seen[j] {
				t.Fatalf("duplicate replica server %d in %v", j, picks)
			}
			seen[j] = true
		}
	}
}

func TestPlaceReplicasInclusionFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	row := []float64{0.5, 0.25, 0.125, 0.125}
	const r, trials = 2, 40000
	counts := make([]float64, len(row))
	for k := 0; k < trials; k++ {
		for _, j := range PlaceReplicas(row, r, rng) {
			counts[j]++
		}
	}
	for j, f := range row {
		want := float64(r) * f
		got := counts[j] / trials
		if math.Abs(got-want) > 0.02 {
			t.Errorf("server %d inclusion %v, want %v", j, got, want)
		}
	}
}

func TestPlaceReplicasEmptyRow(t *testing.T) {
	if out := PlaceReplicas([]float64{0, 0, 0}, 2, rand.New(rand.NewSource(1))); out != nil {
		t.Errorf("empty row produced %v", out)
	}
}

func BenchmarkRound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 20)
	res := qp.SolveFrankWolfeSparse(in, qp.Options{Tol: 1e-6}).Dense()
	tasks := GenerateTasks(in, 2, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Round(in, res.Rho, tasks)
	}
}
