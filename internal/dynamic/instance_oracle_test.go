package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// Reference implementations of the instance side of a Resize: one edit
// at a time, every vector copied, the view densified the moment a join's
// rows contradict the metro table, and Validate run on every result. A
// batch must report, edit for edit, the error these report, and settle
// into the instance they reach.

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// naiveJoin appends j to in.
func naiveJoin(in *model.Instance, j Join) (*model.Instance, error) {
	m := in.M()
	if j.Speed <= 0 || !finite(j.Speed) {
		return nil, fmt.Errorf("dynamic: join speed=%v, must be positive and finite", j.Speed)
	}
	if j.Load < 0 || !finite(j.Load) {
		return nil, fmt.Errorf("dynamic: join load=%v, must be non-negative and finite", j.Load)
	}
	out := &model.Instance{
		Speed: append(slices.Clone(in.Speed), j.Speed),
		Load:  append(slices.Clone(in.Load), j.Load),
	}
	if in.Cluster != nil {
		out.Cluster = append(slices.Clone(in.Cluster), j.Cluster)
	}
	if b, ok := in.Latency.(*model.BlockLatency); ok {
		if j.Cluster < 0 || j.Cluster >= b.K() {
			return nil, fmt.Errorf("dynamic: join cluster=%d out of block range [0, %d)", j.Cluster, b.K())
		}
		fits := j.To == nil && j.From == nil
		if !fits {
			if len(j.To) != m || len(j.From) != m {
				return nil, fmt.Errorf("dynamic: join latency rows have %d/%d entries, want %d", len(j.To), len(j.From), m)
			}
			fits = true
			for i, g := range b.Label {
				fits = fits && j.To[i] == b.Delay[j.Cluster][g] && j.From[i] == b.Delay[g][j.Cluster]
			}
		}
		if fits {
			out.Latency = model.NewBlock(b.Delay, out.Cluster)
			return out, out.Validate()
		}
		in = &model.Instance{Speed: in.Speed, Load: in.Load, Latency: model.NewDense(b.Dense()), Cluster: in.Cluster}
	}
	if len(j.To) != m || len(j.From) != m {
		return nil, fmt.Errorf("dynamic: join latency rows have %d/%d entries, want %d", len(j.To), len(j.From), m)
	}
	rows := make([][]float64, m+1)
	for i, row := range in.Latency.Dense() {
		rows[i] = append(slices.Clone(row), j.From[i])
	}
	rows[m] = append(slices.Clone(j.To), 0)
	out.Latency = model.NewDense(rows)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// naiveLeave removes server i from in.
func naiveLeave(in *model.Instance, i int) (*model.Instance, error) {
	m := in.M()
	if i < 0 || i >= m {
		return nil, fmt.Errorf("dynamic: leave index %d out of range [0, %d)", i, m)
	}
	if m == 1 {
		return nil, fmt.Errorf("dynamic: leave would remove the only server")
	}
	out := &model.Instance{
		Speed: slices.Delete(slices.Clone(in.Speed), i, i+1),
		Load:  slices.Delete(slices.Clone(in.Load), i, i+1),
	}
	if in.Cluster != nil {
		out.Cluster = slices.Delete(slices.Clone(in.Cluster), i, i+1)
	}
	if b, ok := in.Latency.(*model.BlockLatency); ok {
		out.Latency = model.NewBlock(b.Delay, out.Cluster)
	} else {
		var rows [][]float64
		for k, row := range in.Latency.Dense() {
			if k != i {
				rows = append(rows, slices.Delete(slices.Clone(row), i, i+1))
			}
		}
		out.Latency = model.NewDense(rows)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// assertSameInstance requires got to be want bit for bit, on the same
// kind of latency view; a block view must share want's metro table.
func assertSameInstance(t *testing.T, got, want *model.Instance) {
	t.Helper()
	m := want.M()
	if got.M() != m {
		t.Fatalf("settled %d servers, one at a time %d", got.M(), m)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < m; i++ {
		if !same(got.Speed[i], want.Speed[i]) || !same(got.Load[i], want.Load[i]) {
			t.Fatalf("server %d: speed %v load %v, one at a time %v and %v", i, got.Speed[i], got.Load[i], want.Speed[i], want.Load[i])
		}
	}
	if !slices.Equal(got.Cluster, want.Cluster) || (got.Cluster == nil) != (want.Cluster == nil) {
		t.Fatalf("labels %v, one at a time %v", got.Cluster, want.Cluster)
	}
	gb, gotBlock := got.Latency.(*model.BlockLatency)
	wb, wantBlock := want.Latency.(*model.BlockLatency)
	if gotBlock != wantBlock {
		t.Fatalf("settled view %T, one at a time %T", got.Latency, want.Latency)
	}
	if gotBlock {
		if &gb.Delay[0] != &wb.Delay[0] {
			t.Fatal("the settled block view copied the metro table")
		}
		return
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if !same(got.LatAt(i, j), want.LatAt(i, j)) {
				t.Fatalf("c[%d][%d] = %v, one at a time %v", i, j, got.LatAt(i, j), want.LatAt(i, j))
			}
		}
	}
}

// randomJoin draws a join for in: no rows, the metro's rows, rows that
// break the metro table, or one invalid field.
func randomJoin(rng *rand.Rand, in *model.Instance, k int) Join {
	m := in.M()
	j := Join{Speed: 0.5 + 4*rng.Float64(), Load: float64(rng.Intn(50)), Cluster: rng.Intn(k)}
	rows := func(v func(i int) (float64, float64)) {
		j.To, j.From = make([]float64, m), make([]float64, m)
		for i := range j.To {
			j.To[i], j.From[i] = v(i)
		}
	}
	switch rng.Intn(10) {
	case 0: // no rows
	case 1, 2:
		rows(func(i int) (float64, float64) {
			g := in.Cluster[i]
			return metroDelay(in, j.Cluster, g), metroDelay(in, g, j.Cluster)
		})
	case 3, 4:
		rows(func(int) (float64, float64) { return float64(rng.Intn(40)), math.Inf(1) })
	case 5:
		rows(func(int) (float64, float64) { return 7, 7 })
		j.From[rng.Intn(m)] = []float64{math.NaN(), -1, math.Inf(-1)}[rng.Intn(3)]
	case 6:
		rows(func(int) (float64, float64) { return 7, 7 })
		j.To = append(j.To, 7)
	case 7:
		j.Speed = []float64{0, -1, math.NaN(), math.Inf(1)}[rng.Intn(4)]
	case 8:
		j.Load = []float64{-1, math.NaN(), math.Inf(1)}[rng.Intn(3)]
	default:
		j.Cluster = []int{-1, k, k + 3}[rng.Intn(3)]
	}
	return j
}

// metroDelay is the delay from a server of metro g to one of metro h:
// the metro table's, or any witness pair's on a dense view.
func metroDelay(in *model.Instance, g, h int) float64 {
	if b, ok := in.Latency.(*model.BlockLatency); ok {
		return b.Delay[g][h]
	}
	for a, ga := range in.Cluster {
		for b, gb := range in.Cluster {
			if a != b && ga == g && gb == h {
				return in.LatAt(a, b)
			}
		}
	}
	return 5
}

// TestResizeMatchesOneEditAtATime records random joins and leaves,
// valid and not, on block instances, on their dense twins and on dense
// instances without labels, and pins every error and the settled
// instance against the reference.
func TestResizeMatchesOneEditAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var densified, kept, failed int
	for trial := 0; trial < 300; trial++ {
		m, k := 1+rng.Intn(8), 1+rng.Intn(4)
		labels := make([]int, m)
		speed, load := make([]float64, m), make([]float64, m)
		for i := range labels {
			labels[i], speed[i], load[i] = rng.Intn(k), 1+rng.Float64(), float64(rng.Intn(60))
		}
		delay := make([][]float64, k)
		for g := range delay {
			delay[g] = make([]float64, k)
			for h := range delay[g] {
				delay[g][h] = float64(1 + rng.Intn(30))
			}
		}
		in, err := model.NewBlockInstance(speed, load, delay, labels)
		if err != nil {
			t.Fatal(err)
		}
		switch trial % 3 {
		case 1:
			in = &model.Instance{Speed: speed, Load: load, Latency: model.NewDense(in.Latency.Dense()), Cluster: labels}
		case 2:
			in = &model.Instance{Speed: speed, Load: load, Latency: model.NewDense(in.Latency.Dense())}
		}
		want, r := in, NewResize(m)
		for e, edits := 0, 1+rng.Intn(14); e < edits; e++ {
			var next *model.Instance
			var got, wantErr error
			if rng.Intn(2) == 0 {
				i := rng.Intn(want.M()+2) - 1
				next, wantErr = naiveLeave(want, i)
				got = r.Leave(in, i)
			} else {
				lab := want
				if want.Cluster == nil {
					lab = &model.Instance{Speed: want.Speed, Load: want.Load, Latency: want.Latency, Cluster: make([]int, want.M())}
				}
				j := randomJoin(rng, lab, k)
				next, wantErr = naiveJoin(want, j)
				got = r.Join(in, j)
			}
			if fmt.Sprint(got) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d edit %d: batch returned %v, one at a time %v", trial, e, got, wantErr)
			}
			if wantErr != nil {
				failed++
				continue
			}
			want = next
		}
		if r.M() != want.M() {
			t.Fatalf("trial %d: batch counts %d servers, one at a time %d", trial, r.M(), want.M())
		}
		got, _ := r.Apply(in, sparse.Diagonal(in.Load))
		assertSameInstance(t, got, want)
		if _, isBlock := in.Latency.(*model.BlockLatency); isBlock {
			if _, still := got.Latency.(*model.BlockLatency); still {
				kept++
			} else {
				densified++
			}
		}
	}
	t.Logf("block batches kept %d, densified %d; %d edits rejected", kept, densified, failed)
	if kept == 0 || densified == 0 || failed == 0 {
		t.Fatal("the trials missed a case")
	}
}

// Labels of MaxSmallClusterLabel or more stay valid only while the
// instance has more servers than the label. A dense batch reports the
// leave that strands one, a join that brings one, and a block batch the
// join that densifies it onto a table wider than its servers.
func TestResizeChecksLargeLabels(t *testing.T) {
	const m = model.MaxSmallClusterLabel + 6
	in := model.Uniform(m, 1, 1, 3)
	in.Cluster = make([]int, m)
	in.Cluster[7] = m - 3
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	want, r := in, NewResize(m)
	check := func(got error, next *model.Instance, wantErr error) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(wantErr) {
			t.Fatalf("batch returned %v, one at a time %v", got, wantErr)
		}
		if wantErr == nil {
			want = next
		}
	}
	row := func(n int) []float64 { return slices.Repeat([]float64{3}, n) }
	big := Join{Speed: 1, Load: 1, Cluster: m + 5, To: row(m), From: row(m)}
	next, err := naiveJoin(want, big)
	check(r.Join(in, big), next, err)
	big.Cluster = m - 1
	next, err = naiveJoin(want, big)
	check(r.Join(in, big), next, err)
	// The second leave strands the joined label, removing that server
	// frees it, and the last leave strands label m−3.
	for _, last := range []bool{false, false, true, false, false, false} {
		i := 0
		if last {
			i = want.M() - 1
		}
		next, err = naiveLeave(want, i)
		check(r.Leave(in, i), next, err)
	}
	got, _ := r.Apply(in, sparse.Diagonal(in.Load))
	assertSameInstance(t, got, want)

	// A block table wider than MaxSmallClusterLabel: fine until a join
	// densifies the instance.
	const k = model.MaxSmallClusterLabel + 2
	delay := make([][]float64, k)
	for g := range delay {
		delay[g] = make([]float64, k)
	}
	small, err := model.NewBlockInstance([]float64{1, 1, 1}, []float64{1, 1, 1}, delay, []int{0, k - 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	foreign := Join{Speed: 1, Load: 1, Cluster: 2, To: row(3), From: row(3)}
	_, wantErr := naiveJoin(small, foreign)
	if gotErr := NewResize(3).Join(small, foreign); wantErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("densifying join returned %v, one at a time %v", gotErr, wantErr)
	}
}

// A batch that has recorded nothing is bound to no instance: edits that
// failed against one instance leave it free to record against the
// next, as a session's batch does across a latency update.
func TestResizeFailedEditsRecordNothing(t *testing.T) {
	speed, load, labels := []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, []int{0, 1, 1, 0}
	before, err := model.NewBlockInstance(speed, load, [][]float64{{1, 2}, {3, 4}}, labels)
	if err != nil {
		t.Fatal(err)
	}
	after, err := model.NewBlockInstance(speed, load, [][]float64{{10, 20}, {30, 40}}, labels)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResize(4)
	if r.Join(before, Join{Speed: 1, Cluster: 2}) == nil || r.Leave(before, 4) == nil {
		t.Fatal("invalid edits accepted")
	}
	if r.Len() != 0 || r.M() != 4 {
		t.Fatalf("failed edits left %d pending over %d servers", r.Len(), r.M())
	}
	j := Join{Speed: 1, Load: 1, Cluster: 1}
	for _, g := range labels {
		j.To, j.From = append(j.To, metroDelay(after, 1, g)), append(j.From, metroDelay(after, g, 1))
	}
	if err := r.Join(after, j); err != nil {
		t.Fatal(err)
	}
	want, err := naiveJoin(after, j)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.Apply(after, sparse.Diagonal(after.Load))
	assertSameInstance(t, got, want)
}
