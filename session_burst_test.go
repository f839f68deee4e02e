package delaylb

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// A session records joins and leaves and projects them onto its
// allocation once, at the next read. These tests pin that a burst lands
// bit for bit where reading after every edit lands, and that a caller
// who churns and never reads keeps the pending batch O(m).

// entries lists a result's stored requests as (i, j, bits) triples.
func entries(res *Result) [][3]uint64 {
	var out [][3]uint64
	res.Each(func(i, j int, req float64) {
		out = append(out, [3]uint64{uint64(i), uint64(j), math.Float64bits(req)})
	})
	return out
}

func TestChurnBurstMatchesPerEdit(t *testing.T) {
	sys, err := NewScenario(300).WithClusters(6).WithLoads(LoadZipf, 100).WithSeed(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := []Option{WithSolver("proxy"), WithMaxIterations(60)}
	eager, burst := sys.NewSession(opts...), sys.NewSession(opts...)
	for _, s := range []*Session{eager, burst} {
		if _, err := s.Reoptimize(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// edit applies f to both sessions; only eager reads after it.
	edit := func(f func(s *Session) error) {
		t.Helper()
		for _, s := range []*Session{eager, burst} {
			if err := f(s); err != nil {
				t.Fatal(err)
			}
		}
		eager.Cost()
	}
	// Metro 2 goes down in a shuffled order, so rows relaying to several
	// of its servers fold them in an order that is not the index order,
	// then rejoins.
	const metro = 2
	var down []int
	for i, g := range sys.in.Cluster {
		if g == metro {
			down = append(down, i)
		}
	}
	rand.New(rand.NewSource(9)).Shuffle(len(down), func(a, b int) { down[a], down[b] = down[b], down[a] })
	ids := make([]int, sys.M()) // current index → index in sys
	for i := range ids {
		ids[i] = i
	}
	for _, id := range down {
		at := slices.Index(ids, id)
		ids = slices.Delete(ids, at, at+1)
		edit(func(s *Session) error { return s.RemoveServer(at) })
	}
	for _, id := range down {
		edit(func(s *Session) error {
			return s.AddServer(ServerSpec{Speed: sys.in.Speed[id], Load: sys.in.Load[id], Cluster: metro})
		})
	}
	if got, want := burst.pending.Len(), 2*len(down); got != want {
		t.Fatalf("burst session holds %d pending edits, want %d", got, want)
	}

	ra, rb := eager.Result(), burst.Result()
	if !slices.Equal(entries(ra), entries(rb)) {
		t.Fatal("the burst's allocation differs from the per-edit one")
	}
	if a, b := eager.Cost(), burst.Cost(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("cost after the burst %v, per edit %v", b, a)
	}
	wa, err := eager.Reoptimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := burst.Reoptimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(wa.Cost) != math.Float64bits(wb.Cost) || wa.Iterations != wb.Iterations || !slices.Equal(entries(wa), entries(wb)) {
		t.Fatalf("warm re-solve after the burst: cost %v in %d iterations, per edit %v in %d", wb.Cost, wb.Iterations, wa.Cost, wa.Iterations)
	}
	t.Logf("metro %d: %d servers down and back; warm re-solve %d iterations to cost %v", metro, len(down), wa.Iterations, wa.Cost)
}

// TestChurnBatchStaysBounded churns 2·M() join+leave pairs without a
// read: an edit that finds M() edits pending settles them first, so at
// most M() are ever pending, and the pairs cancel bit for bit.
func TestChurnBatchStaysBounded(t *testing.T) {
	sys, err := NewScenario(120).WithClusters(4).WithLoads(LoadZipf, 100).WithSeed(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sys.NewSession()
	m := s.M()
	most := 0
	for k := 0; k < 2*m; k++ {
		if err := s.AddServer(ServerSpec{Speed: 2, Load: 10, Cluster: k % 4}); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveServer(s.M() - 1); err != nil {
			t.Fatal(err)
		}
		most = max(most, s.pending.Len())
	}
	if most > m {
		t.Fatalf("%d edits pending at most, want ≤ M() = %d", most, m)
	}
	if most < m-1 {
		t.Fatalf("at most %d edits pending over %d pairs: the batch settled early", most, 2*m)
	}
	if got, want := entries(s.Result()), entries(sys.NewSession().Result()); !slices.Equal(got, want) {
		t.Fatal("join+leave pairs did not cancel")
	}
}

// TestSessionChurnWhileSolving churns and reads a session from another
// goroutine while a Reoptimize runs outside the lock: each read settles
// the batch into a new matrix and never writes the one the solver holds
// (run it under -race). The session stays feasible throughout.
func TestSessionChurnWhileSolving(t *testing.T) {
	sys, err := NewScenario(200).WithClusters(4).WithLoads(LoadZipf, 100).WithSeed(6).Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession(WithSolver("hybrid"), WithMaxIterations(8))
	started, stop := make(chan struct{}), make(chan struct{})
	churned := make(chan error, 1)
	go func() {
		<-started
		for k := 0; ; k++ {
			select {
			case <-stop:
				churned <- nil
				return
			default:
			}
			if err := sess.RemoveServer(k % sess.M()); err != nil {
				churned <- err
				return
			}
			if err := sess.AddServer(ServerSpec{Speed: 2, Load: 5, Cluster: k % 4}); err != nil {
				churned <- err
				return
			}
			if k%3 == 0 {
				sess.Cost()
			}
		}
	}()
	var once bool
	_, err = sess.Reoptimize(context.Background(), WithProgress(func(int, float64) bool {
		if !once {
			once = true
			close(started)
		}
		return true
	}))
	if !once {
		close(started)
	}
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, sess)
}
