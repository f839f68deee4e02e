package descent

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// subscriptionsFromColumns recomputes one actor's subscription index
// from its columns the slow way: per owned server, every peer actor
// owning a row in the column, with its row count, sorted by (server,
// peer).
func subscriptionsFromColumns(a *actor) []subscription {
	p := a.pl
	var out []subscription
	for s, j := range a.own {
		count := map[int32]int32{}
		for _, i := range a.cols[j].idx {
			if d := p.owner[i]; d != int32(a.id) {
				count[d]++
			}
		}
		for d, n := range count {
			out = append(out, subscription{slot: int32(s), dst: d, rows: n})
		}
	}
	slices.SortFunc(out, func(x, y subscription) int {
		if x.slot != y.slot {
			return cmp.Compare(x.slot, y.slot)
		}
		return cmp.Compare(x.dst, y.dst)
	})
	return out
}

// checkSubscriptions compares an actor's subscription index with the
// one its columns imply.
func checkSubscriptions(a *actor) error {
	want := subscriptionsFromColumns(a)
	if !slices.Equal(a.subs, want) && (len(a.subs) > 0 || len(want) > 0) {
		return fmt.Errorf("actor %d: subscriptions %v, columns say %v", a.id, a.subs, want)
	}
	return nil
}

// pricesByColumnScan is the price collection the subscription index
// replaced, kept as its oracle: scan every entry of every owned column
// and send server j's price once to each peer actor owning a row in it
// (marks remembers the last server sent per destination). The dense
// fallback broadcasts the whole owned table.
func pricesByColumnScan(a *actor) [][]priceEntry {
	p := a.pl
	out := make([][]priceEntry, p.shards)
	if !p.block {
		for _, j := range a.own {
			e := priceEntry{j: j, load: a.load[j], speed: p.in.Speed[j]}
			for dst := 0; dst < p.shards; dst++ {
				if dst != a.id {
					out[dst] = append(out[dst], e)
				}
			}
		}
		return out
	}
	marks := make([]int32, p.shards)
	for _, j := range a.own {
		col := a.cols[j]
		if len(col.idx) == 0 {
			continue
		}
		e := priceEntry{j: j, load: a.load[j], speed: p.in.Speed[j]}
		for _, row := range col.idx {
			dst := int(p.owner[row])
			if dst == a.id || marks[dst] == j+1 {
				continue
			}
			marks[dst] = j + 1
			out[dst] = append(out[dst], e)
		}
	}
	return out
}

// checkPublish compares the price payloads an actor would publish now
// with the column scan's.
func checkPublish(a *actor, round int) error {
	want := pricesByColumnScan(a)
	a.collectPrices()
	for dst := range want {
		got := a.outPrices[dst]
		if len(got) == 0 && len(want[dst]) == 0 {
			continue
		}
		if !bytes.Equal(encodePrices(a.id, round, got), encodePrices(a.id, round, want[dst])) {
			return fmt.Errorf("actor %d publishes %v to actor %d, the column scan %v", a.id, got, dst, want[dst])
		}
	}
	return nil
}

// TestSubscriptionIndexMatchesColumns drives planes through rounds phase
// by phase and through Join, Leave, Crash and UpdateLoads, on the Bus,
// the dense fallback and a lossy SimTransport whose anti-entropy
// refreshes prune stale column entries. After every phase and every
// edit, each actor's subscription index must equal the one its columns
// imply, and the price payloads it would publish must equal the column
// scan's. The lossy run also forces one prune of a whole peer's entries.
func TestSubscriptionIndexMatchesColumns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dense bool
		plan  *FaultPlan
	}{
		{"bus", false, nil},
		{"dense", true, nil},
		{"lossy", false, &FaultPlan{Seed: 7, Drop: 0.3, Duplicate: 0.1, Reorder: 0.2, Delay: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := clusteredInstance(t, 60, 5, 29)
			if tc.dense {
				in = denseInstance(t, 24, 29)
			}
			p, err := NewPlane(in, Config{Shards: 4, Seed: 29, Participation: 0.5, Faults: tc.plan})
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string) {
				t.Helper()
				for _, a := range p.actors {
					if err := checkSubscriptions(a); err != nil {
						t.Fatalf("round %d, %s: %v", p.round, what, err)
					}
					if err := checkPublish(a, p.round); err != nil {
						t.Fatalf("round %d, %s: %v", p.round, what, err)
					}
				}
			}
			rounds := func(n int) {
				t.Helper()
				for ; n > 0; n-- {
					// Round's phases, checked between barriers.
					p.round++
					r := p.round
					p.par(func(a *actor) { a.publish(r) })
					p.tr.Flush()
					check("after publish")
					p.par(func(a *actor) { a.step(r) })
					p.tr.Flush()
					check("after step")
					p.par(func(a *actor) { a.apply(r) })
					if p.errSet != nil {
						t.Fatal(p.errSet)
					}
					check("after apply")
					p.observe()
				}
			}
			check("start")
			rounds(20)
			loads := append([]float64(nil), p.Instance().Load...)
			for i := range loads {
				loads[i] *= 1.25
			}
			loads[3], loads[7] = 0, 0
			if err := p.UpdateLoads(loads); err != nil {
				t.Fatal(err)
			}
			check("UpdateLoads")
			rounds(10)
			var lat []float64
			if tc.dense {
				lat = make([]float64, p.M())
				for j := range lat {
					lat[j] = 5 + float64(j%7)
				}
			}
			if err := p.Join(2.5, 60, lat, lat, 1); err != nil {
				t.Fatal(err)
			}
			check("Join")
			rounds(10)
			if err := p.Leave(3); err != nil {
				t.Fatal(err)
			}
			check("Leave")
			rounds(10)
			if _, err := p.Crash(1); err != nil {
				t.Fatal(err)
			}
			check("Crash")
			rounds(20)
			if !p.harden {
				return
			}
			// A snapshot from peer src that names none of its entries
			// prunes all of them; the peer must leave every list.
			a := p.actors[0]
			if len(a.subs) == 0 {
				t.Fatal("actor 0 has no subscriber to prune")
			}
			src := int(a.subs[0].dst)
			a.refreshIn[src] = refreshSnap{round: int32(p.round), ok: true, pairs: map[int64]bool{}}
			a.pruneFromSnapshots()
			if err := checkSubscriptions(a); err != nil {
				t.Fatalf("after a forced prune: %v", err)
			}
			for _, sb := range a.subs {
				if int(sb.dst) == src {
					t.Fatalf("actor %d still lists pruned peer %d on server %d", a.id, src, a.own[sb.slot])
				}
			}
			if err := checkPublish(a, p.round); err != nil {
				t.Fatalf("after a forced prune: %v", err)
			}
		})
	}
}
