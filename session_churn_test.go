package delaylb

import (
	"context"
	"math"
	"testing"
)

// Server-churn edge cases for the online replay tier: sessions must
// survive joins and leaves at the extremes — a one-server system growing,
// the only loaded server leaving, churn under the sparse scale-tier
// paths — with a feasible (row-stochastic) allocation at every step.

// checkFeasible asserts every row of the session's allocation sums to
// its organization's load with non-negative entries.
func checkFeasible(t *testing.T, sess *Session) {
	t.Helper()
	loads := sess.Loads()
	res := sess.Result()
	if len(res.Requests()) != len(loads) {
		t.Fatalf("allocation is %d×?, loads have %d entries", len(res.Requests()), len(loads))
	}
	for i, row := range res.Requests() {
		var sum float64
		for j, v := range row {
			if v < -1e-9 || math.IsNaN(v) {
				t.Fatalf("r[%d][%d]=%v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-loads[i]) > 1e-6*math.Max(1, loads[i]) {
			t.Fatalf("org %d carries %v, want %v", i, sum, loads[i])
		}
	}
}

func TestSessionAddServerIntoSingleton(t *testing.T) {
	sys, err := New([]float64{2}, []float64{120}, [][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	if err := sess.AddServer(ServerSpec{
		Speed: 2, Load: 0, LatencyTo: []float64{1}, LatencyFrom: []float64{1},
	}); err != nil {
		t.Fatal(err)
	}
	if sess.M() != 2 {
		t.Fatalf("m=%d after join into m=1, want 2", sess.M())
	}
	checkFeasible(t, sess)
	// The newcomer is idle, so re-optimizing must offload onto it.
	res, err := sess.Reoptimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads[1] <= 0 {
		t.Errorf("joined server got no load after Reoptimize: %v", res.Loads)
	}
	checkFeasible(t, sess)
}

func TestSessionRemoveOnlyLoadedServer(t *testing.T) {
	sys, err := New(
		ConstSpeeds(4, 1),
		[]float64{300, 0, 0, 0},
		HomogeneousLatencies(4, 5),
	)
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	if _, err := sess.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Org 0's requests are now spread; when org 0 leaves, they leave too.
	if err := sess.RemoveServer(0); err != nil {
		t.Fatal(err)
	}
	if sess.M() != 3 {
		t.Fatalf("m=%d, want 3", sess.M())
	}
	checkFeasible(t, sess)
	if got := sess.Cost(); got != 0 {
		t.Errorf("cost %v after the only loaded org left, want 0", got)
	}
	// A session with all-zero loads must still re-optimize cleanly.
	if _, err := sess.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, sess)
}

func TestSessionChurnDuringSparseSession(t *testing.T) {
	sys, err := NewScenario(24).WithClusters(3).WithLoads(LoadZipf, 80).WithSeed(9).Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession(WithSolver("frankwolfe"), WithTolerance(1e-8), WithMaxIterations(200))
	if _, err := sess.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	labels := sess.Clusters()
	if labels == nil {
		t.Fatal("clustered scenario lost its labels")
	}

	// A leave mid-session, then a cluster-consistent join, each followed
	// by a sparse warm re-solve.
	if err := sess.RemoveServer(5); err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, sess)
	res, err := sess.Reoptimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.NNZ == 0 {
		t.Error("sparse path lost after RemoveServer (NNZ not reported)")
	}
	checkFeasible(t, sess)

	// Join into cluster g with rows copied from an existing member, so
	// the block structure stays exact and the clustered LMO stays on.
	lat := sess.Latency()
	labels = sess.Clusters()
	g := labels[0]
	latTo := append([]float64(nil), lat[0]...)
	latFrom := make([]float64, len(lat))
	for j := range lat {
		latFrom[j] = lat[j][0]
	}
	// Delay between the newcomer and its template: the intra-metro delay,
	// read from any other member of g.
	intra := 0.0
	for j := 1; j < len(labels); j++ {
		if labels[j] == g {
			intra = lat[0][j]
			break
		}
	}
	latTo[0], latFrom[0] = intra, intra
	if err := sess.AddServer(ServerSpec{Speed: 2, Load: 50, LatencyTo: latTo, LatencyFrom: latFrom, Cluster: g}); err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, sess)
	res, err = sess.Reoptimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.NNZ == 0 {
		t.Error("sparse path lost after AddServer")
	}
	checkFeasible(t, sess)
}

func TestSessionAddServerValidates(t *testing.T) {
	sys := testSystem(t, 5, 41)
	sess := sys.NewSession()
	if err := sess.AddServer(ServerSpec{Speed: 1, Load: 0, LatencyTo: []float64{1, 2}, LatencyFrom: []float64{1, 2, 3, 4, 5}}); err == nil {
		t.Error("short LatencyTo accepted")
	}
	if err := sess.AddServer(ServerSpec{Speed: -1, Load: 0, LatencyTo: []float64{1, 1, 1, 1, 1}, LatencyFrom: []float64{1, 1, 1, 1, 1}}); err == nil {
		t.Error("negative speed accepted")
	}
	if err := sess.AddServer(ServerSpec{Speed: 1, Load: math.NaN(), LatencyTo: []float64{1, 1, 1, 1, 1}, LatencyFrom: []float64{1, 1, 1, 1, 1}}); err == nil {
		t.Error("NaN load accepted")
	}
	if sess.Epoch() != 0 {
		t.Error("failed AddServer advanced the epoch")
	}
	if err := sess.RemoveServer(7); err == nil {
		t.Error("out-of-range RemoveServer accepted")
	}
	if sess.Epoch() != 0 || sess.M() != 5 {
		t.Error("failed churn mutated the session")
	}
}

func TestSessionRemoveLastServerRejected(t *testing.T) {
	sys, err := New([]float64{1}, []float64{10}, [][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	if err := sess.RemoveServer(0); err == nil {
		t.Error("removing the only server accepted")
	}
}

// The satellite fix: a malformed latency feed — wrong row count, ragged
// rows, NaN, −Inf — is rejected without mutating the session, and the
// dimension checks run before any cloning.
func TestSessionUpdateLatencyRejectsMalformedFeeds(t *testing.T) {
	sys := testSystem(t, 4, 42)
	sess := sys.NewSession()
	before := sess.Latency()

	bad := [][]float64{
		{0, 1, 1, 1},
		{1, 0, 1}, // ragged
		{1, 1, 0, 1},
		{1, 1, 1, 0},
	}
	if err := sess.UpdateLatency(bad); err == nil {
		t.Error("ragged latency row accepted")
	}
	nan := HomogeneousLatencies(4, 5)
	nan[2][3] = math.NaN()
	if err := sess.UpdateLatency(nan); err == nil {
		t.Error("NaN latency accepted")
	}
	neg := HomogeneousLatencies(4, 5)
	neg[1][0] = math.Inf(-1)
	if err := sess.UpdateLatency(neg); err == nil {
		t.Error("-Inf latency accepted")
	}
	if sess.Epoch() != 0 {
		t.Error("failed updates advanced the epoch")
	}
	after := sess.Latency()
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("failed update mutated latency[%d][%d]", i, j)
			}
		}
	}

	// +Inf off-diagonal (a forbidden link) stays legal in online feeds.
	forbidden := HomogeneousLatencies(4, 5)
	forbidden[0][1] = math.Inf(1)
	if err := sess.UpdateLatency(forbidden); err != nil {
		t.Errorf("forbidden (+Inf) link rejected: %v", err)
	}
}

func TestSessionUpdateLatencyKeepsClusterHint(t *testing.T) {
	sys, err := NewScenario(12).WithClusters(3).WithSeed(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	lat := sess.Latency()
	for i := range lat {
		for j := range lat[i] {
			if i != j {
				lat[i][j] *= 2 // a uniform scaling keeps the block structure
			}
		}
	}
	if err := sess.UpdateLatency(lat); err != nil {
		t.Fatal(err)
	}
	if sess.Clusters() == nil {
		t.Error("UpdateLatency dropped the cluster labels")
	}
}
