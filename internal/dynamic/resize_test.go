package dynamic

import (
	"slices"
	"testing"

	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// assertFeasible checks a projected allocation against the instance it
// must now serve: non-negative entries, rows summing to the loads, no
// mass on forbidden links.
func assertFeasible(t *testing.T, a *sparse.Matrix, in *model.Instance) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&model.Allocation{R: a.Dense()}).Validate(in, 1e-9); err != nil {
		t.Fatalf("projected allocation infeasible: %v", err)
	}
}

// The tests below name the two directions of a Resize as the matrix
// sees them: a join expands it by a row and a column, a leave collapses
// one of each.

// oneMetro is an m-server instance on a one-metro block view, for the
// tests that watch the allocation alone: its joins need no delay rows.
func oneMetro(m int) *model.Instance {
	speed, load := make([]float64, m), make([]float64, m)
	for i := range speed {
		speed[i], load[i] = 1, 1
	}
	in, err := model.NewBlockInstance(speed, load, [][]float64{{5}}, make([]int, m))
	if err != nil {
		panic(err)
	}
	return in
}

// edit records one join or leave against in.
type edit func(r *Resize, in *model.Instance) error

func joining(j Join) edit { return func(r *Resize, in *model.Instance) error { return r.Join(in, j) } }

func leaving(i int) edit { return func(r *Resize, in *model.Instance) error { return r.Leave(in, i) } }

// project records edits in one batch against in and a, and applies it.
func project(t *testing.T, in *model.Instance, a *sparse.Matrix, edits ...edit) (*model.Instance, *sparse.Matrix) {
	t.Helper()
	r := NewResize(in.M())
	for _, e := range edits {
		if err := e(r, in); err != nil {
			t.Fatal(err)
		}
	}
	return r.Apply(in, a)
}

func TestExpandKeepsRowsAndAddsIdentityRow(t *testing.T) {
	in := testInstance(11, 4)
	a := sparse.Diagonal(in.Load)
	a.Set(0, 0, in.Load[0]/2)
	a.Set(0, 3, in.Load[0]/2)

	ones := []float64{1, 1, 1, 1}
	bigIn, out := project(t, in, a, joining(Join{Speed: 2, Load: 40, To: ones, From: ones}))
	if bigIn.M() != 5 || bigIn.Speed[4] != 2 || bigIn.Load[4] != 40 {
		t.Fatalf("grown instance has %d servers, the last of speed %v and load %v", bigIn.M(), bigIn.Speed[4], bigIn.Load[4])
	}
	if out.Rows() != 5 || out.Cols != 5 {
		t.Fatalf("expanded allocation is %d×%d, want 5×5", out.Rows(), out.Cols)
	}
	assertFeasible(t, out, bigIn)
	if out.Get(4, 4) != 40 {
		t.Errorf("new org serves %v locally, want 40", out.Get(4, 4))
	}
	for i := 0; i < 4; i++ {
		if out.Get(i, 4) != 0 {
			t.Errorf("pre-existing org %d routes %v to the new server", i, out.Get(i, 4))
		}
	}
	if out.Get(0, 3) != a.Get(0, 3) {
		t.Error("existing entries not preserved")
	}
	// A zero-load join still stores its diagonal.
	_, zero := project(t, in, a, joining(Join{Speed: 1, To: ones, From: ones}))
	if !slices.Equal(zero.Idx[4], []int32{4}) || zero.Val[4][0] != 0 {
		t.Errorf("zero-load join row is %v/%v, want one explicit zero on the diagonal", zero.Idx[4], zero.Val[4])
	}
}

func TestCollapseReturnsOrphanedMassHome(t *testing.T) {
	in := testInstance(12, 5)
	in.Load = []float64{100, 50, 0, 80, 60}
	a := sparse.Diagonal(in.Load)
	// Orgs 0 and 3 relay to server 2, which is about to leave.
	a.Set(0, 0, 70)
	a.Set(0, 2, 30)
	a.Set(3, 3, 40)
	a.Set(3, 2, 25)
	a.Set(3, 4, 15)

	smallIn, out := project(t, in, a, leaving(2))
	if out.Rows() != 4 || out.Cols != 4 {
		t.Fatalf("collapsed allocation is %d×%d, want 4×4", out.Rows(), out.Cols)
	}
	assertFeasible(t, out, smallIn)
	// Org 0 keeps index 0: its 30 relayed requests return home.
	if out.Get(0, 0) != 100 {
		t.Errorf("org 0 local mass %v, want 100", out.Get(0, 0))
	}
	// Org 3 shifts to index 2: 40 local + 25 returned, 15 still on old
	// server 4 (now index 3).
	if out.Get(2, 2) != 65 || out.Get(2, 3) != 15 {
		t.Errorf("org 3 row after collapse: %v, want [0 0 65 15]", out.Dense()[2])
	}
}

func TestCollapseOfUntouchedServerIsAReindex(t *testing.T) {
	in := testInstance(13, 4)
	_, out := project(t, in, sparse.Diagonal(in.Load), leaving(1))
	for i := 0; i < 3; i++ {
		orig := i
		if i >= 1 {
			orig++
		}
		if out.Get(i, i) != in.Load[orig] {
			t.Errorf("row %d diagonal %v, want load %v", i, out.Get(i, i), in.Load[orig])
		}
	}
}

// A join that leaves in the same batch, or in the next one, leaves the
// allocation as it was.
func TestExpandCollapseRoundTrip(t *testing.T) {
	in := testInstance(14, 6)
	a := sparse.Diagonal(in.Load)
	a.Set(1, 1, in.Load[1]-5)
	a.Set(1, 4, 5)
	row := []float64{3, 1, 4, 1, 5, 9}
	newcomer := Join{Speed: 2, Load: 33, To: row, From: row}
	grownIn, grown := project(t, in, a, joining(newcomer))
	_, back1 := project(t, grownIn, grown, leaving(6))
	_, back2 := project(t, in, a, joining(newcomer), leaving(6))
	for _, back := range []*sparse.Matrix{back1, back2} {
		if back.Rows() != a.Rows() || back.Cols != a.Cols {
			t.Fatalf("round trip changed size: %d×%d", back.Rows(), back.Cols)
		}
		want, got := a.Dense(), back.Dense()
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("round trip drifted at [%d][%d]: %v vs %v", i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// A row relaying to two departing servers folds them onto its diagonal
// in departure order: with 0.1 at home, 0.2 on server 1 and 0.4 on
// server 2, (0.1+0.2)+0.4 and (0.1+0.4)+0.2 differ in the last bit.
// An orphan onto a row without a diagonal creates it at its sorted
// slot, and a zero orphan creates nothing.
func TestResizeFoldsInDepartureOrder(t *testing.T) {
	home, on1, on2 := 0.1, 0.2, 0.4
	a := sparse.New(4, 4)
	a.Set(0, 0, home)
	a.Set(0, 1, on1)
	a.Set(0, 2, on2)
	a.Set(1, 1, 1)
	a.Set(2, 2, 1)
	a.Set(3, 0, 0.5) // row 3 has no diagonal ...
	a.Set(3, 1, 0)   // ... and an explicit zero on a departing server
	a.Set(3, 2, 0.25)
	first1, first2 := (home+on1)+on2, (home+on2)+on1
	if first1 == first2 {
		t.Fatal("the two fold orders agree; the case shows nothing")
	}
	for _, tc := range []struct {
		name  string
		edits []edit
		home  float64
	}{
		{"1 then 2", []edit{leaving(1), leaving(1)}, first1},
		{"2 then 1", []edit{leaving(2), leaving(1)}, first2},
	} {
		_, out := project(t, oneMetro(4), a, tc.edits...)
		if got := out.Get(0, 0); got != tc.home {
			t.Errorf("%s: home mass %v, want %v", tc.name, got, tc.home)
		}
		if !slices.Equal(out.Idx[1], []int32{0, 1}) || !slices.Equal(out.Val[1], []float64{0.5, 0.25}) {
			t.Errorf("%s: row 3 became %v/%v, want [0 1]/[0.5 0.25]", tc.name, out.Idx[1], out.Val[1])
		}
	}
	_, onlyZero := project(t, oneMetro(4), a, leaving(1))
	if !slices.Equal(onlyZero.Idx[2], []int32{0, 1}) {
		t.Errorf("a zero orphan created a diagonal: row 3 is %v, want [0 1]", onlyZero.Idx[2])
	}
}
