// Package stats provides the statistical machinery used by the evaluation
// harness: descriptive summaries (mean/max/stdev rows as printed in the
// paper's tables), trimmed samples (Table IV removes the 5% largest
// deviations), and a one-way ANOVA F-test with an exact F-distribution
// CDF implemented via the regularized incomplete beta function — the test
// the paper uses in the Appendix to argue that RTT does not depend on
// background throughput.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary is one avg/max/stdev row as printed in the paper's tables.
type Summary struct {
	N   int
	Avg float64
	Max float64
	Min float64
	Std float64
}

// Summarize computes the Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:   len(xs),
		Avg: Mean(xs),
		Max: Max(xs),
		Min: Min(xs),
		Std: StdDev(xs),
	}
}

// TrimLargest returns a copy of xs with the ⌈frac·len⌉ largest values
// removed — the paper's "removal of 5% largest deviations" (Table IV).
func TrimLargest(xs []float64, frac float64) []float64 {
	if frac <= 0 || len(xs) == 0 {
		return append([]float64(nil), xs...)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	drop := int(math.Ceil(frac * float64(len(sorted))))
	if drop >= len(sorted) {
		return nil
	}
	return sorted[:len(sorted)-drop]
}

// ANOVAResult is the outcome of a one-way analysis of variance.
type ANOVAResult struct {
	F        float64 // F statistic: betweengroup MS / within-group MS
	DFBetw   int     // k − 1
	DFWithin int     // N − k
	P        float64 // P(F_{df1,df2} ≥ F) under the null hypothesis
}

// ErrANOVA is returned when the input groups cannot support the test.
var ErrANOVA = errors.New("stats: ANOVA requires ≥2 groups, each non-empty, and ≥1 residual degree of freedom")

// OneWayANOVA tests the null hypothesis that all groups share a common
// mean. The paper applies this per server pair, grouping RTT samples by
// background throughput, and reports the fraction of pairs where the null
// is not rejected.
func OneWayANOVA(groups [][]float64) (ANOVAResult, error) {
	k := len(groups)
	if k < 2 {
		return ANOVAResult{}, ErrANOVA
	}
	var n int
	var grand float64
	for _, g := range groups {
		if len(g) == 0 {
			return ANOVAResult{}, ErrANOVA
		}
		n += len(g)
		for _, x := range g {
			grand += x
		}
	}
	grand /= float64(n)
	var ssb, ssw float64
	for _, g := range groups {
		gm := Mean(g)
		d := gm - grand
		ssb += float64(len(g)) * d * d
		for _, x := range g {
			e := x - gm
			ssw += e * e
		}
	}
	df1 := k - 1
	df2 := n - k
	if df2 < 1 {
		return ANOVAResult{}, ErrANOVA
	}
	msb := ssb / float64(df1)
	msw := ssw / float64(df2)
	var f float64
	switch {
	case msw > 0:
		f = msb / msw
	case msb == 0:
		f = 0 // all values identical: no evidence against the null
	default:
		f = math.Inf(1)
	}
	return ANOVAResult{
		F:        f,
		DFBetw:   df1,
		DFWithin: df2,
		P:        FSurvival(f, float64(df1), float64(df2)),
	}, nil
}

// FSurvival returns P(F ≥ x) for the F distribution with d1 and d2
// degrees of freedom, via the regularized incomplete beta function:
// P(F ≤ x) = I_{d1x/(d1x+d2)}(d1/2, d2/2).
func FSurvival(x, d1, d2 float64) float64 {
	if math.IsInf(x, 1) {
		return 0
	}
	if x <= 0 {
		return 1
	}
	return RegIncBeta(d2/2, d1/2, d2/(d2+d1*x))
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and 0 ≤ x ≤ 1, computed with the Lentz continued-fraction
// expansion (Numerical Recipes §6.4) accurate to ~1e-14.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	// Use the continued fraction directly when it converges fast,
	// otherwise the symmetry I_x(a,b) = 1 − I_{1−x}(b,a).
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
