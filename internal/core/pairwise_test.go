package core

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

func randState(rng *rand.Rand, in *model.Instance) *State {
	m := in.M()
	a := model.NewAllocation(m)
	for i := 0; i < m; i++ {
		w := make([]float64, m)
		var tot float64
		for j := range w {
			w[j] = rng.Float64()
			tot += w[j]
		}
		for j := range w {
			a.R[i][j] = in.Load[i] * w[j] / tot
		}
	}
	return NewState(in, rowsOf(a.R))
}

// deltaTransfer implements Lemma 1: the number of organization k's
// requests that should move from server i to server j — given speeds
// s_i, s_j, current loads l_i, l_j, latencies c_ki, c_kj and the amount
// r_ki currently at i — to minimize ΣC_i along that single direction:
//
//	Δr' = ((s_j l_i − s_i l_j) − s_i s_j (c_kj − c_ki)) / (s_i + s_j)
//	Δr  = max(0, min(r_ki, Δr'))
func deltaTransfer(si, sj, li, lj, cki, ckj, rki float64) float64 {
	raw := ((sj*li - si*lj) - si*sj*(ckj-cki)) / (si + sj)
	if raw <= 0 {
		return 0
	}
	return math.Min(raw, rki)
}

// Lemma 1: deltaTransfer minimizes f(Δ) = (l_i−Δ)²/2s_i + (l_j+Δ)²/2s_j +
// Δ(c_kj − c_ki) over Δ ∈ [0, r_ki]. Verify against a fine grid search.
func TestDeltaTransferIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(si, sj, li, lj, cki, ckj, d float64) float64 {
		return (li-d)*(li-d)/(2*si) + (lj+d)*(lj+d)/(2*sj) - d*cki + d*ckj
	}
	for trial := 0; trial < 200; trial++ {
		si, sj := 1+4*rng.Float64(), 1+4*rng.Float64()
		li, lj := 200*rng.Float64(), 200*rng.Float64()
		cki, ckj := 30*rng.Float64(), 30*rng.Float64()
		rki := li * rng.Float64()
		d := deltaTransfer(si, sj, li, lj, cki, ckj, rki)
		if d < 0 || d > rki+1e-12 {
			t.Fatalf("Δ = %v outside [0, %v]", d, rki)
		}
		fd := f(si, sj, li, lj, cki, ckj, d)
		for step := 0; step <= 100; step++ {
			alt := rki * float64(step) / 100
			if fa := f(si, sj, li, lj, cki, ckj, alt); fa < fd-1e-6 {
				t.Fatalf("grid point Δ=%v gives %v < optimal %v (Δ*=%v)", alt, fa, fd, d)
			}
		}
	}
}

func TestDeltaTransferClamping(t *testing.T) {
	// Strong imbalance but tiny available volume: clamp to r_ki.
	if d := deltaTransfer(1, 1, 100, 0, 0, 0, 3); d != 3 {
		t.Errorf("Δ = %v, want 3 (clamped)", d)
	}
	// Balanced servers with positive latency: no transfer.
	if d := deltaTransfer(1, 1, 50, 50, 0, 10, 40); d != 0 {
		t.Errorf("Δ = %v, want 0", d)
	}
	// Exact Lemma 1 value: (s_j l_i − s_i l_j − s_i s_j (c_kj−c_ki))/(s_i+s_j).
	want := ((1*100.0 - 1*20.0) - 1*1*10.0) / 2
	if d := deltaTransfer(1, 1, 100, 20, 0, 10, 1000); math.Abs(d-want) > 1e-12 {
		t.Errorf("Δ = %v, want %v", d, want)
	}
}

// ApplyPair must never increase ΣC_i, must conserve each organization's
// row sum, and must keep the load vector consistent.
func TestApplyPairInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		in := randInstance(rng, 2+rng.Intn(8))
		st := randState(rng, in)
		m := in.M()
		rowSums := make([]float64, m)
		for i := 0; i < m; i++ {
			rowSums[i] = st.Rows.RowSum(i)
		}
		before := st.Cost()
		i, j := rng.Intn(m), rng.Intn(m)
		if i == j {
			continue
		}
		out := ApplyPair(st, i, j, nil)
		after := st.Cost()
		if after > before+1e-6*math.Max(1, before) {
			t.Fatalf("cost increased: %v → %v", before, after)
		}
		if math.Abs(before-after-out.Gain) > 1e-6*math.Max(1, before) {
			t.Fatalf("reported gain %v, actual %v", out.Gain, before-after)
		}
		for k := 0; k < m; k++ {
			if sum := st.Rows.RowSum(k); math.Abs(sum-rowSums[k]) > 1e-6*math.Max(1, rowSums[k]) {
				t.Fatalf("row %d sum changed: %v → %v", k, rowSums[k], sum)
			}
		}
		want := denseOf(st).Loads()
		for k := range want {
			if math.Abs(want[k]-st.Loads[k]) > 1e-6*math.Max(1, want[k]) {
				t.Fatalf("maintained load[%d]=%v, actual %v", k, st.Loads[k], want[k])
			}
		}
	}
}

// Lemma 2: after Algorithm 1 runs on (i, j), no further exchange between
// i and j can improve the cost.
func TestPairwiseStabilityAfterBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		in := randInstance(rng, 2+rng.Intn(8))
		st := randState(rng, in)
		m := in.M()
		i, j := rng.Intn(m), rng.Intn(m)
		if i == j {
			continue
		}
		ApplyPair(st, i, j, nil)
		// Re-evaluating the same pair (either orientation) must find
		// essentially nothing.
		tol := 1e-6 * math.Max(1, st.Cost())
		if g := EvaluatePair(st, i, j, nil).Gain; g > tol {
			t.Fatalf("pair (%d,%d) still improvable by %v after balance", i, j, g)
		}
		if g := EvaluatePair(st, j, i, nil).Gain; g > tol {
			t.Fatalf("pair (%d,%d) reverse still improvable by %v", j, i, g)
		}
	}
}

// EvaluatePair must be side-effect free and agree with ApplyPair.
func TestEvaluateMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		in := randInstance(rng, 3+rng.Intn(6))
		st := randState(rng, in)
		snapshot := denseOf(st)
		i, j := 0, 1+rng.Intn(in.M()-1)
		ev := EvaluatePair(st, i, j, nil)
		if denseOf(st).L1Distance(snapshot) != 0 {
			t.Fatal("EvaluatePair mutated the allocation")
		}
		ap := ApplyPair(st, i, j, nil)
		if math.Abs(ev.Gain-ap.Gain) > 1e-9*math.Max(1, ap.Gain) {
			t.Fatalf("evaluate gain %v != apply gain %v", ev.Gain, ap.Gain)
		}
		if math.Abs(ev.Moved-ap.Moved) > 1e-9*math.Max(1, ap.Moved) {
			t.Fatalf("evaluate moved %v != apply moved %v", ev.Moved, ap.Moved)
		}
	}
}

// Algorithm 1 on a two-server homogeneous system reproduces the closed
// form: transfer (n1 − n2 − s·c)/2 requests.
func TestBalanceTwoServersClosedForm(t *testing.T) {
	in, err := model.NewInstance(
		[]float64{1, 1},
		[]float64{100, 20},
		[][]float64{{0, 10}, {10, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	st := NewIdentityState(in)
	ApplyPair(st, 0, 1, nil)
	// Δ = (100 − 20 − 10)/2 = 35 → l = (65, 55).
	if math.Abs(st.Loads[0]-65) > 1e-9 || math.Abs(st.Loads[1]-55) > 1e-9 {
		t.Errorf("loads = %v, want [65 55]", st.Loads)
	}
	if r01 := st.Rows.Get(0, 1); math.Abs(r01-35) > 1e-9 {
		t.Errorf("r01 = %v, want 35", r01)
	}
}

// Balancing respects forbidden links: requests never land on a server the
// owner cannot reach.
func TestBalanceRespectsForbiddenLinks(t *testing.T) {
	in := model.Uniform(3, 1, 0, 5)
	in.Load[0] = 90
	in.Latency.(model.DenseLatency)[0][2] = math.Inf(1)
	in.Latency.(model.DenseLatency)[2][0] = math.Inf(1)
	st := NewIdentityState(in)
	ApplyPair(st, 0, 2, nil) // must move nothing: org 0 can't use server 2
	if r02 := st.Rows.Get(0, 2); r02 != 0 {
		t.Errorf("r02 = %v, want 0 (forbidden)", r02)
	}
	ApplyPair(st, 0, 1, nil) // allowed: balances between 0 and 1
	if st.Rows.Get(0, 1) <= 0 {
		t.Error("expected transfer to server 1")
	}
	if err := denseOf(st).Validate(in, 1e-9); err != nil {
		t.Errorf("allocation invalid: %v", err)
	}
}

// Third-party requests already relayed to i or j participate in the
// exchange, per the paper's key difference from diffusive load balancing.
func TestBalanceMovesThirdPartyRequests(t *testing.T) {
	// Server 2's requests sit on server 0; server 1 is idle and close to
	// server 2. Balancing (0,1) should move some of org 2's requests to 1.
	in, err := model.NewInstance(
		[]float64{1, 1, 1},
		[]float64{0, 0, 80},
		[][]float64{
			{0, 2, 1},
			{2, 0, 1},
			{1, 1, 0},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := model.NewAllocation(3)
	a.R[2][0] = 80 // all of org 2's requests on server 0
	st := NewState(in, rowsOf(a.R))
	out := ApplyPair(st, 0, 1, nil)
	if out.Gain <= 0 {
		t.Fatal("expected improvement from moving third-party requests")
	}
	if st.Rows.Get(2, 1) <= 0 {
		t.Errorf("org 2's requests were not moved to server 1: %v", denseOf(st).R[2])
	}
	// c_21 == c_20, so optimal split is li = lj = 40.
	if math.Abs(st.Loads[0]-40) > 1e-9 || math.Abs(st.Loads[1]-40) > 1e-9 {
		t.Errorf("loads = %v, want [40 40 0]", st.Loads)
	}
}

func BenchmarkApplyPair200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInstance(rng, 200)
	st := randState(rng, in)
	buf := newPairBuffer(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyPair(st, i%200, (i+7)%200, buf)
	}
}
