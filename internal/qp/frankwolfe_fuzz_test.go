package qp

import (
	"math"
	"slices"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs dry, so every input decodes to some instance.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// Flag bits of a FuzzFrankWolfe input's first byte.
const (
	fuzzContradict = 1 << iota // dense rows, hint contradicted by one entry
	fuzzBlockView              // verified hint as a BlockLatency view
	fuzzInfLinks               // +Inf delays between some metros
	fuzzZeroLoads              // some zero-load rows
	fuzzWarmStart              // start from a decoded warm start
)

// fuzzFWInstance decodes an instance with m ≤ 12 on a k-metro delay
// table. The flags pick the shape: a verified block instance (dense rows
// with the hint, or a BlockLatency view) or a dense instance whose hint
// one perturbed entry contradicts; +Inf links between some metros; some
// zero-load rows. verified reports whether the hint is trustworthy.
func fuzzFWInstance(t *testing.T, flags int, b *fuzzBytes) (in *model.Instance, verified bool) {
	contradict, blockView := flags&fuzzContradict != 0, flags&fuzzBlockView != 0
	m := 1 + b.next()%12
	if contradict && m < 2 {
		m = 2
	}
	k := 1 + b.next()%4
	labels := make([]int, m)
	speed := make([]float64, m)
	load := make([]float64, m)
	for i := range labels {
		labels[i] = b.next() % k
		speed[i] = 0.5 + float64(b.next()%8)
		load[i] = float64(b.next()%50) * 1.7
		if flags&fuzzZeroLoads != 0 && b.next()%3 == 0 {
			load[i] = 0
		}
	}
	if contradict {
		labels[1] = labels[0] // rows 0 and 1 now share every block
	}
	delay := make([][]float64, k)
	for g := range delay {
		delay[g] = make([]float64, k)
		for h := range delay[g] {
			delay[g][h] = float64(b.next()%40) * 0.9
			if g != h && flags&fuzzInfLinks != 0 && b.next()%3 == 0 {
				delay[g][h] = math.Inf(1)
			}
		}
	}
	if blockView && !contradict {
		in, err := model.NewBlockInstance(speed, load, delay, labels)
		if err != nil {
			t.Fatal(err)
		}
		return in, true
	}
	lat := make([][]float64, m)
	for i := range lat {
		lat[i] = make([]float64, m)
		for j := range lat[i] {
			if i != j {
				lat[i][j] = delay[labels[i]][labels[j]]
			}
		}
	}
	if contradict {
		// Entry (0, m−1) leaves the block (g0, g_{m−1}) that row 1 also
		// fills (or, at m = 2, the block entry (1, 0) also fills).
		j := m - 1
		if v := lat[0][j]; math.IsInf(v, 1) {
			lat[0][j] = 3
		} else {
			lat[0][j] = v + 1 + float64(b.next()%5)
		}
	}
	in, err := model.NewInstance(speed, load, lat)
	if err != nil {
		t.Fatal(err)
	}
	in.Cluster = labels
	return in, !contradict
}

// assertSameSparseRun requires two sparse runs to agree bit for bit:
// scalars, gap trace and iterate.
func assertSameSparseRun(t *testing.T, label string, got, want *SparseResult) {
	t.Helper()
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || math.Float64bits(got.Gap) != math.Float64bits(want.Gap) ||
		got.Iters != want.Iters || got.Converged != want.Converged {
		t.Fatalf("%s: (cost %v, gap %v, iters %d, converged %v), reference (%v, %v, %d, %v)", label,
			got.Cost, got.Gap, got.Iters, got.Converged, want.Cost, want.Gap, want.Iters, want.Converged)
	}
	if !slices.Equal(got.Gaps, want.Gaps) {
		t.Fatalf("%s: gap trace %v, reference %v", label, got.Gaps, want.Gaps)
	}
	for i := range want.Rho.Idx {
		if !slices.Equal(got.Rho.Idx[i], want.Rho.Idx[i]) || !slices.Equal(got.Rho.Val[i], want.Rho.Val[i]) {
			t.Fatalf("%s: row %d is %v/%v, reference %v/%v", label, i,
				got.Rho.Idx[i], got.Rho.Val[i], want.Rho.Idx[i], want.Rho.Val[i])
		}
	}
}

// genericTwin is in with dense latency rows and no hint, which the
// solver answers with the generic full-row oracle.
func genericTwin(t *testing.T, in *model.Instance) *model.Instance {
	twin, err := model.NewInstance(in.Speed, in.Load, in.Latency.Dense())
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// decodeWarmStart decodes a warm start: stochastic rows whose positive
// weights sit on finite links, with explicit zeros stored on arbitrary
// columns — +Inf links included — as dense round-trips leave them.
func decodeWarmStart(in *model.Instance, b *fuzzBytes) *sparse.Matrix {
	m := in.M()
	warm := sparse.New(m, m)
	for i := 0; i < m; i++ {
		var sum float64
		for j := 0; j < m; j++ {
			switch c := b.next() % 6; {
			case c == 0:
				warm.Set(i, j, 0)
			case c <= 2 && !math.IsInf(in.Latency.At(i, j), 1):
				w := float64(c)
				warm.Set(i, j, w)
				sum += w
			}
		}
		if sum == 0 {
			warm.Set(i, i, 1)
			sum = 1
		}
		for t := range warm.Val[i] {
			warm.Val[i][t] /= sum
		}
	}
	return warm
}

// FuzzFrankWolfe runs all three step rules of SolveFrankWolfeSparse on
// decoded instances and starts. Classic with the generic oracle must
// reproduce the dense reference on the densified start bit for bit;
// away and pairwise must reproduce the always-oracle reference sweep bit
// for bit, keep the active-set invariants and never end above their
// start cost; and every variant's Cost − Gap must lower-bound every
// variant's Cost.
//
// With a verified hint, classic is held to the dense reference's first
// certificate only. The metro oracle returns the minimal score, but
// when IEEE addition of the block delay rounds more servers of one
// cluster onto that score than the two it tracks, it can return another
// of them than the dense scan's lowest index, and the runs part there.
func FuzzFrankWolfe(f *testing.F) {
	for _, flags := range []byte{0, 1, 2, 5, 14, 16, 17, 18, 29, 30} {
		seed := []byte{flags}
		for x := uint32(flags) + 1; len(seed) < 240; {
			x = x*1664525 + 1013904223
			seed = append(seed, byte(x>>24))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		flags := b.next()
		in, verified := fuzzFWInstance(t, flags, &b)
		opt := Options{
			MaxIters:  1 + b.next()%60,
			Tol:       []float64{0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1}[b.next()%6],
			TraceGaps: true,
		}
		start := sparse.Identity(in.M())
		if flags&fuzzWarmStart != 0 {
			start = decodeWarmStart(in, &b)
			opt.InitialSparse = start
		}
		startCost := objectiveSparse(in, start)

		var runs []*SparseResult
		for _, v := range []Variant{VariantClassic, VariantAway, VariantPairwise} {
			o := opt
			o.Variant = v
			sp := SolveFrankWolfeSparse(in, o)
			if sp.ClusteredLMO != verified {
				t.Fatalf("%v: ClusteredLMO %v on a hint that is verified=%v", v, sp.ClusteredLMO, verified)
			}
			if v == VariantClassic {
				generic := SolveFrankWolfeSparse(genericTwin(t, in), o)
				o.InitialSparse, o.Initial = nil, start.Dense()
				dense := solveFrankWolfeDense(in, o)
				assertSameRun(t, "classic", dense, generic)
				if sp.Gaps[0] != dense.Gaps[0] {
					t.Fatalf("classic: first gap %v, dense reference %v", sp.Gaps[0], dense.Gaps[0])
				}
			} else {
				assertSameSparseRun(t, v.String(), sp, solveSparse(in, o, (*fwState).sweepReference))
				assertActiveInvariants(t, v.String(), sp, in.Load, sp.Iters)
				if sp.Cost > startCost {
					t.Fatalf("%v: cost %v above the start's %v", v, sp.Cost, startCost)
				}
			}
			runs = append(runs, sp)
		}
		for _, a := range runs {
			for _, c := range runs {
				if lb := a.Cost - a.Gap; lb > c.Cost+1e-9*math.Abs(c.Cost) {
					t.Fatalf("lower bound %v (cost %v − gap %v) above a reached cost %v", lb, a.Cost, a.Gap, c.Cost)
				}
			}
		}
	})
}
