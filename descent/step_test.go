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

// splitWorkingSet turns a random working set into one row step's two
// parts: an own working set and a list of shared metro candidates in
// scan order, plus the held marks. Candidates hold no requests (r = 0)
// and are keyed from their entries as keyCandidates keys them; their
// working-set positions are a random permutation, as metros and their
// best and second interleave with the scan order. Held servers (stamp
// 1) are every own server — own[0], the home, always among them — plus
// a frozen one outside both parts; about a third of the candidates
// name a held server and must be skipped. It returns the union the scan
// must equal — own, then the unheld candidates in working-set order —
// and each shared candidate's position in it (−1 when skipped).
func splitWorkingSet(rng *rand.Rand, eta float64, mode Mode, ws []wsEntry) (own []wsEntry, shared []sharedCand, held []int32, union []wsEntry, unionPos []int) {
	maxJ := int32(0)
	for _, e := range ws {
		maxJ = max(maxJ, e.j)
	}
	frozen := maxJ + 1
	held = make([]int32, maxJ+2)
	held[frozen] = 1
	var cands []wsEntry
	for _, e := range ws {
		if e.r == 0 && len(own) > 0 && rng.Intn(3) > 0 {
			cands = append(cands, e)
		} else {
			own = append(own, e)
			held[e.j] = 1
		}
	}
	for t := range cands {
		if rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				cands[t].j = own[0].j
			case 1:
				cands[t].j = own[rng.Intn(len(own))].j
			default:
				cands[t].j = frozen
			}
		}
	}
	pos := rng.Perm(len(cands))
	byPos := make([]wsEntry, len(cands))
	shared = make([]sharedCand, len(cands))
	for t, e := range cands {
		byPos[pos[t]] = e
		shared[t] = sharedCand{
			key:   proxKey{c: e.r/(eta*e.speed) - gradient(mode, e), j: e.j, t: int32(pos[t])},
			speed: e.speed,
		}
	}
	slices.SortFunc(shared, func(x, y sharedCand) int {
		switch {
		case x.key.before(y.key):
			return -1
		case y.key.before(x.key):
			return 1
		}
		return 0
	})
	union = append([]wsEntry(nil), own...)
	at := make([]int, len(cands))
	for p, e := range byPos {
		at[p] = -1
		if held[e.j] != 1 {
			at[p] = len(union)
			union = append(union, e)
		}
	}
	unionPos = make([]int, len(shared))
	for t, sc := range shared {
		unionPos[t] = at[sc.key.t]
	}
	return own, shared, held, union, unionPos
}

// TestProxStepMatchesSortedScan pins the merged breakpoint scan — a
// heap over the row's own coordinates and a shared candidate list in
// scan order — against the full sort of their union, bit for bit, over
// random working sets: sizes 1 to 64, budgets from 1e-9 to 1e6, both
// modes, η ∈ {1, 0.25}, random own/shared splits, skip sets that hold
// the home and other own or frozen servers, and many ties in c, within
// each part and across the two. The union is own, then the unskipped
// candidates in working-set order — the working set the row step used
// to assemble.
func TestProxStepMatchesSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scratch stepScratch
	var ties, crossTies, partial, full, skips, homeSkips, residualOnCand, split int
	for trial := 0; trial < 6000; trial++ {
		n := 1 + rng.Intn(64)
		budget := math.Pow(10, -9+15*rng.Float64())
		mode := Mode(rng.Intn(2))
		eta := []float64{1, 0.25}[rng.Intn(2)]
		own, shared, held, union, unionPos := splitWorkingSet(rng, eta, mode, randomWorkingSet(rng, n))

		want := proxStepSorted(mode, eta, budget, union)
		got := proxStep(mode, eta, budget, own, shared, held, 1, &scratch)
		popped := scratch.popped
		if len(got) != len(own)+len(popped) {
			t.Fatalf("trial %d: %d values for %d own coordinates and %d reached candidates", trial, len(got), len(own), len(popped))
		}
		for k := range own {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d (n=%d, budget %g, %v, η=%g): x[%d] = %v, sorted scan %v",
					trial, n, budget, mode, eta, k, got[k], want[k])
			}
		}
		reached := map[int]bool{}
		last := -1
		for u, sc := range popped {
			pos := unionPos[sc]
			if pos < 0 {
				t.Fatalf("trial %d: the scan reached candidate %d on held server %d", trial, sc, shared[sc].key.j)
			}
			if pos <= last {
				t.Fatalf("trial %d: reached candidates out of working-set order", trial)
			}
			last = pos
			reached[pos] = true
			if math.Float64bits(got[len(own)+u]) != math.Float64bits(want[pos]) {
				t.Fatalf("trial %d (n=%d, budget %g, %v, η=%g): candidate on server %d = %v, sorted scan %v",
					trial, n, budget, mode, eta, shared[sc].key.j, got[len(own)+u], want[pos])
			}
		}
		for pos := len(own); pos < len(union); pos++ {
			if !reached[pos] && want[pos] != 0 {
				t.Fatalf("trial %d: unreached candidate on server %d holds %v in the sorted scan", trial, union[pos].j, want[pos])
			}
		}

		if len(shared) > 0 {
			split++
		}
		big := 0
		for k := range want {
			if want[k] > want[big] {
				big = k
			}
		}
		if big >= len(own) {
			residualOnCand++
		}
		ownC := map[float64]bool{}
		seen := map[float64]bool{}
		active := 0
		for k, e := range union {
			c := e.r/(eta*e.speed) - gradient(mode, e)
			if seen[c] {
				ties++
			}
			if k < len(own) {
				ownC[c] = true
			} else if ownC[c] {
				crossTies++
			}
			seen[c] = true
			if want[k] > 0 {
				active++
			}
		}
		for _, sc := range shared {
			if held[sc.key.j] == 1 {
				skips++
				if sc.key.j == own[0].j {
					homeSkips++
				}
			}
		}
		if active < len(union) {
			partial++
		} else {
			full++
		}
	}
	for name, n := range map[string]int{
		"ties in c":                        ties,
		"ties in c across own and shared":  crossTies,
		"scans that stopped early":         partial,
		"scans that used every coordinate": full,
		"skipped candidates":               skips,
		"candidates on the home, skipped":  homeSkips,
		"residuals landing on a candidate": residualOnCand,
		"working sets split in two parts":  split,
	} {
		if n == 0 {
			t.Errorf("the trials missed a case: %s", name)
		}
	}
}

// TestProxStepAllocatesNothing pins that a step on warm scratch makes no
// allocation, with and without a shared candidate list.
func TestProxStepAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ws := randomWorkingSet(rng, 44)
	own, shared, held, _, _ := splitWorkingSet(rng, 0.5, Cooperative, ws)
	var scratch stepScratch
	proxStep(Cooperative, 0.5, 120, ws, nil, nil, 0, &scratch)
	proxStep(Cooperative, 0.5, 120, own, shared, held, 1, &scratch)
	if allocs := testing.AllocsPerRun(100, func() {
		proxStep(Cooperative, 0.5, 120, ws, nil, nil, 0, &scratch)
		proxStep(Cooperative, 0.5, 120, own, shared, held, 1, &scratch)
	}); allocs != 0 {
		t.Fatalf("proxStep on warm scratch allocated %v times, want 0", allocs)
	}
}

// TestKeyCandidatesMatchRowKeys checks the shared candidate lists
// against the keys each row's own working set would give them: for
// every row of a home metro and every merged candidate other than the
// row's own server, the list holds the candidate once, in scan order,
// keyed from c_ij as the latency view returns it, in both modes. A
// server offered twice — a corrupted summary can name any server —
// keeps its first offer in working-set order, as the row's marks did,
// and one offered under a foreign metro is keyed by its own metro's
// delay.
func TestKeyCandidatesMatchRowKeys(t *testing.T) {
	for _, mode := range []Mode{Cooperative, Selfish} {
		p, err := NewPlane(clusteredInstance(t, 60, 5, 31), Config{Shards: 2, Seed: 31, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(5); err != nil {
			t.Fatal(err)
		}
		a := p.actors[1]
		dup := a.cand1[0]
		dup.load += 7
		a.cand2[3] = dup // the same server again, with another load
		// A server offered under another metro than its own, and not
		// offered elsewhere: its c_ij is still its own metro's.
		for _, j := range a.byMetro[1] {
			if j != a.cand1[1].id && j != a.cand2[1].id {
				a.cand2[2] = candidate{id: j, load: 3, speed: p.in.Speed[j], price: 3 / p.in.Speed[j]}
				break
			}
		}
		eta := 0.25
		a.keyCandidates(eta)
		for h, servers := range a.byMetro {
			if len(servers) == 0 {
				continue
			}
			list := a.shared[h]
			if !slices.IsSortedFunc(list, func(x, y sharedCand) int {
				if x.key.before(y.key) {
					return -1
				}
				return 1
			}) {
				t.Fatalf("%v, metro %d: shared list is not in scan order", mode, h)
			}
			pos := map[int32]sharedCand{}
			for _, sc := range list {
				if _, ok := pos[sc.key.j]; ok {
					t.Fatalf("%v, metro %d: server %d listed twice", mode, h, sc.key.j)
				}
				pos[sc.key.j] = sc
			}
			seen := map[int32]bool{}
			for g := range a.cand1 {
				for r, c := range [2]candidate{a.cand1[g], a.cand2[g]} {
					if c.id < 0 || seen[c.id] {
						continue
					}
					seen[c.id] = true
					sc, ok := pos[c.id]
					if !ok || sc.key.t != int32(2*g+r) || sc.speed != c.speed {
						t.Fatalf("%v, metro %d: candidate %d (metro %d, rank %d) listed as %+v", mode, h, c.id, g, r, sc)
					}
					for _, i := range servers {
						if i == c.id {
							continue
						}
						e := wsEntry{j: c.id, load: c.load, speed: c.speed, cij: p.lat.At(int(i), int(c.id))}
						if want := e.r/(eta*e.speed) - gradient(mode, e); math.Float64bits(want) != math.Float64bits(sc.key.c) {
							t.Fatalf("%v, row %d: candidate %d keyed %v, its own working set %v", mode, i, c.id, sc.key.c, want)
						}
					}
				}
			}
			if len(pos) != len(seen) {
				t.Fatalf("%v, metro %d: %d listed, %d distinct candidates", mode, h, len(pos), len(seen))
			}
		}
	}
}
