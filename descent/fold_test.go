package descent

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// foldPerDelta is the fold the column merge replaced, kept as its
// oracle: sort the batch by (row, col), then per delta read the old
// value, write the new one (0 removes the entry) and fold
// load += val − old.
func foldPerDelta(cols []*vec, load []float64, batch []deltaEntry) {
	batch = slices.Clone(batch)
	sort.Slice(batch, func(a, b int) bool {
		if batch[a].row != batch[b].row {
			return batch[a].row < batch[b].row
		}
		return batch[a].col < batch[b].col
	})
	for _, d := range batch {
		col := cols[d.col]
		old := col.get(d.row)
		col.set(d.row, d.val)
		load[d.col] += d.val - old
	}
}

// foldCase is one random fold instance: a plane skeleton with columns
// and loads, and one batch per actor.
type foldCase struct {
	m, shards int
	owner     []int32
	cols      []*vec
	load      []float64
	batches   [][]deltaEntry
}

// foldCoverage counts the shapes a batch exercised.
type foldCoverage struct {
	beforeFirst, afterLast, zeroRemoves, zeroAbsent, multiSource, untouched int
}

// randValue draws values spread over many magnitudes, so a fold in any
// other order than the oracle's changes the low bits of a load.
func randValue(rng *rand.Rand) float64 {
	return rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4))
}

func newFoldCase(rng *rand.Rand, cov *foldCoverage) *foldCase {
	m := 1 + rng.Intn(64)
	fc := &foldCase{m: m, shards: 1 + rng.Intn(min(m, 6))}
	fc.owner = make([]int32, m)
	for j := range fc.owner {
		fc.owner[j] = int32(rng.Intn(fc.shards))
	}
	fc.cols = make([]*vec, m)
	fc.load = make([]float64, m)
	for j := range fc.cols {
		col := &vec{}
		for i := 0; i < m; i++ {
			if rng.Intn(3) == 0 {
				col.idx = append(col.idx, int32(i))
				col.val = append(col.val, randValue(rng))
			}
		}
		fc.cols[j] = col
		fc.load[j] = randValue(rng)
	}
	fc.batches = make([][]deltaEntry, fc.shards)
	for j := 0; j < m; j++ {
		col := fc.cols[j]
		if rng.Intn(4) == 0 {
			cov.untouched++
			continue
		}
		rows := map[int32]bool{}
		add := func(i int32, val float64) {
			if i < 0 || int(i) >= m || rows[i] {
				return
			}
			rows[i] = true
			if _, ok := col.find(i); val == 0 && ok {
				cov.zeroRemoves++
			} else if val == 0 {
				cov.zeroAbsent++
			}
			a := fc.owner[j]
			fc.batches[a] = append(fc.batches[a], deltaEntry{row: i, col: int32(j), val: val})
		}
		if n := len(col.idx); n > 0 {
			if col.idx[0] > 0 {
				cov.beforeFirst++
				add(col.idx[0]-1, randValue(rng))
			}
			if int(col.idx[n-1]) < m-1 {
				cov.afterLast++
				add(col.idx[n-1]+1, randValue(rng))
			}
		}
		for t := rng.Intn(m + 1); t > 0; t-- {
			val := randValue(rng)
			if rng.Intn(4) == 0 {
				val = 0
			}
			add(int32(rng.Intn(m)), val)
		}
		sources := map[int32]bool{}
		for i := range rows {
			sources[fc.owner[i]] = true
		}
		if len(sources) > 1 {
			cov.multiSource++
		}
	}
	for _, b := range fc.batches {
		rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
	}
	return fc
}

// clone deep-copies the columns and loads.
func (fc *foldCase) clone() ([]*vec, []float64) {
	cols := make([]*vec, len(fc.cols))
	for j, c := range fc.cols {
		cols[j] = &vec{idx: slices.Clone(c.idx), val: slices.Clone(c.val)}
	}
	return cols, slices.Clone(fc.load)
}

// TestFoldBatchMatchesPerDeltaFold checks the apply phase's column
// merge against the per-delta fold bit for bit: same entries, same
// values, same load bits, for every column of every actor. Each actor's
// subscription index, built from the columns before the fold, must
// match the folded columns after it.
func TestFoldBatchMatchesPerDeltaFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cov foldCoverage
	for trial := 0; trial < 300; trial++ {
		fc := newFoldCase(rng, &cov)

		wantCols, wantLoad := fc.clone()
		for _, b := range fc.batches {
			foldPerDelta(wantCols, wantLoad, b)
		}

		gotCols, gotLoad := fc.clone()
		p := &Plane{owner: fc.owner, slot: make([]int32, fc.m), shards: fc.shards}
		actors := make([]*actor, fc.shards)
		for id := range actors {
			actors[id] = &actor{pl: p, id: id, cols: gotCols, load: gotLoad}
		}
		for j, o := range fc.owner {
			a := actors[o]
			p.slot[j] = int32(len(a.own))
			a.own = append(a.own, int32(j))
		}
		for id, a := range actors {
			a.indexSubscriptions()
			a.batch = append(a.batch[:0], fc.batches[id]...)
			a.foldBatch()
			if err := checkSubscriptions(a); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}

		for j := 0; j < fc.m; j++ {
			g, w := gotCols[j], wantCols[j]
			if !slices.Equal(g.idx, w.idx) {
				t.Fatalf("trial %d col %d: rows %v, per-delta fold %v", trial, j, g.idx, w.idx)
			}
			for u := range g.val {
				if math.Float64bits(g.val[u]) != math.Float64bits(w.val[u]) {
					t.Fatalf("trial %d col %d row %d: value %v, per-delta fold %v", trial, j, g.idx[u], g.val[u], w.val[u])
				}
			}
			if math.Float64bits(gotLoad[j]) != math.Float64bits(wantLoad[j]) {
				t.Fatalf("trial %d col %d: load %v, per-delta fold %v", trial, j, gotLoad[j], wantLoad[j])
			}
		}
	}
	for name, n := range map[string]int{
		"delta before a column's first entry": cov.beforeFirst,
		"delta after a column's last entry":   cov.afterLast,
		"zero delta removing an entry":        cov.zeroRemoves,
		"zero delta for an absent entry":      cov.zeroAbsent,
		"column updated by several sources":   cov.multiSource,
		"column with no delta":                cov.untouched,
	} {
		if n == 0 {
			t.Errorf("no trial covered: %s", name)
		}
	}
}
