package descent

import (
	"runtime"
	"slices"
	"testing"
)

// TestDescentRoundAllocationBound pins the steady-state allocations of
// a Bus round on a warm plane of the descent-flash shape: m=1500, 16
// metros, participation 0.2, after 100 rounds. Payloads are decoded
// into per-actor scratch and inboxes keep their capacity, so what a
// round allocates is its encoded payloads — the Transport owns each
// after Send, so each is a fresh buffer, one per payload sent at most
// (a summary encoding fans out to every peer) — plus a constant for
// the phase goroutines.
func TestDescentRoundAllocationBound(t *testing.T) {
	p, err := NewPlane(clusteredInstance(t, 1500, 16, 1), Config{Seed: 1, Participation: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 20, 64
	var msgs int64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		met, err := p.Round()
		if err != nil {
			t.Fatal(err)
		}
		msgs += met.Messages
	}
	runtime.ReadMemStats(&after)
	allocs := int64(after.Mallocs - before.Mallocs)
	t.Logf("%d rounds: %d allocations, %d payloads sent (%.1f and %.1f per round)",
		rounds, allocs, msgs, float64(allocs)/rounds, float64(msgs)/rounds)
	if bound := msgs + rounds*perRound; allocs > bound {
		t.Errorf("%d rounds allocated %d times, bound %d (one per payload sent plus %d per round)", rounds, allocs, bound, perRound)
	}
}

// TestPlaneAllocationAllocationBound pins the copy Plane.Allocation
// makes — for callers and inside every Join, Leave and Crash — at five
// allocations at any m: the matrix, its two row tables and one backing
// array each for Idx and Val. Rows are capped at their length, so a
// caller's append to one row must leave the next row's entries alone.
func TestPlaneAllocationAllocationBound(t *testing.T) {
	p, err := NewPlane(clusteredInstance(t, 1500, 16, 1), Config{Seed: 1, Participation: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() { p.Allocation() })
	t.Logf("Allocation at m=1500: %.1f allocs/op", n)
	if n > 5 {
		t.Errorf("Allocation allocates %.1f times per call at m=1500, want 5", n)
	}
	alloc := p.Allocation()
	for i := 0; i+1 < len(alloc.Idx); i++ {
		if len(alloc.Idx[i]) == 0 || len(alloc.Idx[i+1]) == 0 {
			continue
		}
		next := slices.Clone(alloc.Idx[i+1])
		nextVal := slices.Clone(alloc.Val[i+1])
		alloc.Idx[i] = append(alloc.Idx[i], 1<<30)
		alloc.Val[i] = append(alloc.Val[i], -1)
		if !slices.Equal(alloc.Idx[i+1], next) || !slices.Equal(alloc.Val[i+1], nextVal) {
			t.Fatalf("appending to row %d overwrote row %d", i, i+1)
		}
		return
	}
	t.Fatal("no two adjacent non-empty rows to check the row caps on")
}
