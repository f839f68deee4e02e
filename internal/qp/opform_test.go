package qp

import (
	"math/rand"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// randomSimplexRho returns a random feasible flattened ρ (each row a
// simplex point).
func randomSimplexRho(m int, rng *rand.Rand) []float64 {
	v := make([]float64, m*m)
	for i := 0; i < m; i++ {
		var sum float64
		for j := 0; j < m; j++ {
			x := rng.Float64()
			if rng.Float64() < 0.4 {
				x = 0 // keep it sparse-ish so zero-handling is exercised
			}
			v[i*m+j] = x
			sum += x
		}
		if sum == 0 {
			v[i*m+i] = 1
			continue
		}
		for j := 0; j < m; j++ {
			v[i*m+j] /= sum
		}
	}
	return v
}

// objectiveSparse evaluates ΣC_i at a sparse iterate from scratch.
func objectiveSparse(in *model.Instance, rho *sparse.Matrix) float64 {
	loads := make([]float64, in.M())
	LoadsSparse(in, rho, loads)
	return objectiveAt(in, rho, loads, latRowBuf(in))
}

// TestObjectiveSparseMatchesObjective pins the bit-level agreement the
// sparse Frank–Wolfe run relies on.
func TestObjectiveSparseMatchesObjective(t *testing.T) {
	for _, m := range []int{3, 8, 20} {
		in := randomInstance(t, m, int64(m)+50)
		rng := rand.New(rand.NewSource(int64(m)))
		v := randomSimplexRho(m, rng)
		rho := make([][]float64, m)
		for i := range rho {
			rho[i] = v[i*m : (i+1)*m]
		}
		sp := sparse.FromDense(rho, 0)
		if got, want := objectiveSparse(in, sp), Objective(in, rho); got != want {
			t.Fatalf("m=%d: objectiveSparse=%v, Objective=%v", m, got, want)
		}
		loadsDense := make([]float64, m)
		loadsSparse := make([]float64, m)
		Loads(in, rho, loadsDense)
		LoadsSparse(in, sp, loadsSparse)
		for j := range loadsDense {
			if loadsDense[j] != loadsSparse[j] {
				t.Fatalf("m=%d: loads[%d] %v != %v", m, j, loadsDense[j], loadsSparse[j])
			}
		}
	}
}
