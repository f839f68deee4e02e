package descent

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// proxStepSorted is the breakpoint scan proxStep replaced, kept as its
// oracle: sort the whole working set by (c desc, j asc), then scan the
// sorted coordinates until λ reaches the next one's c.
func proxStepSorted(mode Mode, eta, budget float64, ws []wsEntry) []float64 {
	n := len(ws)
	c := make([]float64, n)
	ord := make([]proxKey, n)
	x := make([]float64, n)
	for t, e := range ws {
		c[t] = e.r/(eta*e.speed) - gradient(mode, e)
		ord[t] = proxKey{c: c[t], j: e.j, t: int32(t)}
	}
	slices.SortFunc(ord, func(a, b proxKey) int {
		switch {
		case a.c > b.c:
			return -1
		case a.c < b.c:
			return 1
		}
		return cmp.Compare(a.j, b.j)
	})
	var wSum, wcSum, lam float64
	for t := 0; t < n; t++ {
		k := ord[t]
		w := eta * ws[k.t].speed
		wSum += w
		wcSum += w * k.c
		lam = (wcSum - budget) / wSum
		if t+1 < n && lam >= ord[t+1].c {
			break
		}
	}
	var sum float64
	big := 0
	for t, e := range ws {
		v := eta * e.speed * (c[t] - lam)
		if v < 0 {
			v = 0
		}
		x[t] = v
		sum += v
		if v > x[big] {
			big = t
		}
	}
	x[big] += budget - sum
	return x
}

// randomWorkingSet draws n coordinates on distinct servers in random
// order. Equal c values on distinct servers are common, so the scan's
// tie-break by server decides their order: about a quarter of the
// coordinates copy an earlier one outright, and about a quarter are idle
// servers (no load, no requests from the row) whose c is −c_ij whatever
// their speed, so tied coordinates also differ in weight and the order
// of their sums shows in the bits.
func randomWorkingSet(rng *rand.Rand, n int) []wsEntry {
	servers := rng.Perm(4 * n)
	ws := make([]wsEntry, n)
	for t := range ws {
		switch {
		case t > 0 && rng.Intn(4) == 0:
			ws[t] = ws[rng.Intn(t)]
		case rng.Intn(3) == 0:
			ws[t] = wsEntry{speed: 0.5 + 4*rng.Float64(), cij: float64(rng.Intn(4))}
		default:
			e := wsEntry{
				load:  rng.Float64() * math.Pow(10, float64(rng.Intn(7)-2)),
				speed: 0.5 + 4*rng.Float64(),
				cij:   float64(rng.Intn(40)),
			}
			if rng.Intn(2) == 0 {
				e.r = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-2))
				e.load += e.r
			}
			ws[t] = e
		}
		ws[t].j = int32(servers[t])
	}
	return ws
}

// TestProxStepMatchesSortedScan pins the heap-selected breakpoint scan
// against the full sort, bit for bit, over random working sets: sizes 1
// to 64, budgets from 1e-9 to 1e6, both modes, η ∈ {1, 0.25}, and many
// ties in c between distinct servers.
func TestProxStepMatchesSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scratch stepScratch
	var ties, partial, full int
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(64)
		ws := randomWorkingSet(rng, n)
		budget := math.Pow(10, -9+15*rng.Float64())
		mode := Mode(rng.Intn(2))
		eta := []float64{1, 0.25}[rng.Intn(2)]

		want := proxStepSorted(mode, eta, budget, ws)
		got := proxStep(mode, eta, budget, ws, &scratch)
		for k := range ws {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d (n=%d, budget %g, %v, η=%g): x[%d] = %v, sorted scan %v",
					trial, n, budget, mode, eta, k, got[k], want[k])
			}
		}

		seen := map[float64]bool{}
		active := 0
		for k, e := range ws {
			c := e.r/(eta*e.speed) - gradient(mode, e)
			if seen[c] {
				ties++
			}
			seen[c] = true
			if want[k] > 0 {
				active++
			}
		}
		if active < n {
			partial++
		} else {
			full++
		}
	}
	if ties == 0 || partial == 0 || full == 0 {
		t.Fatalf("the trials missed a case: %d ties, %d scans that stopped early, %d that used every coordinate", ties, partial, full)
	}
}

// TestProxStepAllocatesNothing pins that a step on warm scratch makes no
// allocation.
func TestProxStepAllocatesNothing(t *testing.T) {
	ws := randomWorkingSet(rand.New(rand.NewSource(4)), 44)
	var scratch stepScratch
	proxStep(Cooperative, 0.5, 120, ws, &scratch)
	if allocs := testing.AllocsPerRun(100, func() {
		proxStep(Cooperative, 0.5, 120, ws, &scratch)
	}); allocs != 0 {
		t.Fatalf("proxStep on warm scratch allocated %v times, want 0", allocs)
	}
}
