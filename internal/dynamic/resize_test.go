package dynamic

import (
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

func TestExpandKeepsRowsAndAddsIdentityRow(t *testing.T) {
	in := testInstance(11, 4)
	a := sparse.Diagonal(in.Load)
	a.Set(0, 0, in.Load[0]/2)
	a.Set(0, 3, in.Load[0]/2)

	bigIn, err := in.WithServer(2, 40, []float64{1, 1, 1, 1}, []float64{1, 1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := Expand(a, 40)
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

	smallIn, err := in.WithoutServer(2)
	if err != nil {
		t.Fatal(err)
	}
	out := Collapse(a, 2)
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
	out := Collapse(sparse.Diagonal(in.Load), 1)
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

// Expand then Collapse of the newcomer is the identity projection.
func TestExpandCollapseRoundTrip(t *testing.T) {
	in := testInstance(14, 6)
	a := sparse.Diagonal(in.Load)
	a.Set(1, 1, in.Load[1]-5)
	a.Set(1, 4, 5)
	back := Collapse(Expand(a, 33), 6)
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
