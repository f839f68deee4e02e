package model

import (
	"fmt"
	"math"
)

// Allocation records where every organization's requests execute.
// R[i][j] is r_ij: the (possibly fractional) number of organization i's own
// requests that are executed on server j. Row i must sum to Load[i] of the
// owning instance, and every entry must be non-negative.
//
// Allocation is the mutable working state of every solver in this module;
// it deliberately stores absolute request counts rather than fractions
// because the distributed algorithm (paper Algorithms 1–2) exchanges
// request counts. Use Fractions to recover ρ.
type Allocation struct {
	R [][]float64
}

// NewAllocation returns an all-zero m×m allocation.
func NewAllocation(m int) *Allocation {
	r := make([][]float64, m)
	buf := make([]float64, m*m)
	for i := range r {
		r[i], buf = buf[:m:m], buf[m:]
	}
	return &Allocation{R: r}
}

// Identity returns the allocation in which every organization executes all
// of its own requests locally (ρ_ii = 1). This is the starting point of the
// distributed algorithm and of best-response dynamics.
func Identity(in *Instance) *Allocation {
	a := NewAllocation(in.M())
	for i, n := range in.Load {
		a.R[i][i] = n
	}
	return a
}

// M returns the number of organizations covered by the allocation.
func (a *Allocation) M() int { return len(a.R) }

// Clone returns a deep copy of the allocation.
func (a *Allocation) Clone() *Allocation {
	out := NewAllocation(a.M())
	for i, row := range a.R {
		copy(out.R[i], row)
	}
	return out
}

// Loads returns the load vector l where l[j] = Σ_i r_ij — the total number
// of requests each server must execute.
func (a *Allocation) Loads() []float64 {
	m := a.M()
	l := make([]float64, m)
	for _, row := range a.R {
		for j, v := range row {
			l[j] += v
		}
	}
	_ = m
	return l
}

// LoadsInto fills dst with the load vector, avoiding an allocation.
// dst must have length M().
func (a *Allocation) LoadsInto(dst []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for _, row := range a.R {
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Fractions returns the relay-fraction matrix ρ with ρ_ij = r_ij / n_i.
// Rows with n_i == 0 are returned as ρ_ii = 1 (the organization trivially
// "keeps" its empty load), so that every row is a valid simplex point.
func (a *Allocation) Fractions(in *Instance) [][]float64 {
	m := a.M()
	rho := make([][]float64, m)
	for i := 0; i < m; i++ {
		rho[i] = make([]float64, m)
		if in.Load[i] == 0 {
			rho[i][i] = 1
			continue
		}
		for j := 0; j < m; j++ {
			rho[i][j] = a.R[i][j] / in.Load[i]
		}
	}
	return rho
}

// FromFractions builds an allocation from a relay-fraction matrix ρ:
// r_ij = n_i ρ_ij.
func FromFractions(in *Instance, rho [][]float64) *Allocation {
	m := in.M()
	a := NewAllocation(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			a.R[i][j] = in.Load[i] * rho[i][j]
		}
	}
	return a
}

// Validate checks that the allocation is consistent with the instance:
// non-negative entries, row sums equal to the owned loads (within tol),
// and no mass on forbidden (infinite-latency) links.
func (a *Allocation) Validate(in *Instance, tol float64) error {
	m := in.M()
	if a.M() != m {
		return fmt.Errorf("model: allocation is %d×%d, instance has m=%d", a.M(), a.M(), m)
	}
	for i := 0; i < m; i++ {
		var sum float64
		for j := 0; j < m; j++ {
			v := a.R[i][j]
			if v < -tol || math.IsNaN(v) {
				return fmt.Errorf("model: r[%d][%d]=%v, must be >= 0", i, j, v)
			}
			if v > tol && math.IsInf(in.Latency.At(i, j), 1) {
				return fmt.Errorf("model: r[%d][%d]=%v placed on forbidden link", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-in.Load[i]) > tol*math.Max(1, in.Load[i]) {
			return fmt.Errorf("model: row %d sums to %v, want n_%d=%v", i, sum, i, in.Load[i])
		}
	}
	return nil
}

// L1Distance returns Σ_ij |a_ij − b_ij|, the Manhattan distance between two
// allocations (the metric of paper Proposition 1).
func (a *Allocation) L1Distance(b *Allocation) float64 {
	var d float64
	for i, row := range a.R {
		for j, v := range row {
			d += math.Abs(v - b.R[i][j])
		}
	}
	return d
}
