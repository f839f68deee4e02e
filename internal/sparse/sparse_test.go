package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randomDense builds a dense matrix with the given fill fraction.
func randomDense(rows, cols int, fill float64, rng *rand.Rand) [][]float64 {
	d := make([][]float64, rows)
	for i := range d {
		d[i] = make([]float64, cols)
		for j := range d[i] {
			if rng.Float64() < fill {
				d[i][j] = rng.NormFloat64()
			}
		}
	}
	return d
}

// TestRoundTrip pins the satellite requirement: dense → sparse → dense
// is exact for every fill level, and the sparse form stores exactly the
// nonzeros.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fill := range []float64{0, 0.05, 0.5, 1} {
		d := randomDense(17, 23, fill, rng)
		mx := FromDense(d, 0)
		if err := mx.Validate(); err != nil {
			t.Fatalf("fill=%g: %v", fill, err)
		}
		nnz := 0
		for _, row := range d {
			for _, v := range row {
				if v != 0 {
					nnz++
				}
			}
		}
		if got := mx.NNZ(); got != nnz {
			t.Fatalf("fill=%g: NNZ=%d, want %d", fill, got, nnz)
		}
		back := mx.Dense()
		for i := range d {
			for j := range d[i] {
				if back[i][j] != d[i][j] {
					t.Fatalf("fill=%g: round-trip mismatch at (%d,%d): %v != %v", fill, i, j, back[i][j], d[i][j])
				}
			}
		}
	}
}

func TestFromDenseEps(t *testing.T) {
	d := [][]float64{{1e-12, 0.5, -1e-12}, {0, -0.25, 2}}
	mx := FromDense(d, 1e-9)
	if got := mx.NNZ(); got != 3 {
		t.Fatalf("NNZ=%d, want 3 after eps filtering", got)
	}
	if v := mx.Get(0, 1); v != 0.5 {
		t.Fatalf("Get(0,1)=%v, want 0.5", v)
	}
	if v := mx.Get(0, 0); v != 0 {
		t.Fatalf("Get(0,0)=%v, want 0 (filtered)", v)
	}
}

func TestIdentity(t *testing.T) {
	mx := Identity(5)
	if err := mx.Validate(); err != nil {
		t.Fatal(err)
	}
	if mx.NNZ() != 5 {
		t.Fatalf("NNZ=%d, want 5", mx.NNZ())
	}
	for i := 0; i < 5; i++ {
		if mx.Get(i, i) != 1 {
			t.Fatalf("diagonal (%d,%d) = %v, want 1", i, i, mx.Get(i, i))
		}
		if s := mx.RowSum(i); s != 1 {
			t.Fatalf("row %d sums to %v, want 1", i, s)
		}
	}
}

func TestDiagonal(t *testing.T) {
	d := []float64{3, 0, 5}
	mx := Diagonal(d)
	d[0] = 99 // the matrix must not alias its input
	want := [][]float64{{3, 0, 0}, {0, 0, 0}, {0, 0, 5}}
	for i, row := range mx.Dense() {
		for j, v := range row {
			if v != want[i][j] {
				t.Fatalf("[%d][%d] = %v, want %v", i, j, v, want[i][j])
			}
		}
	}
	if mx.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (the zero diagonal entry is stored)", mx.NNZ())
	}
	// Rows are capped at their one entry: growing row 0 must not
	// overwrite row 1's storage.
	mx.Set(0, 2, 7)
	if mx.Get(1, 1) != 0 || mx.Get(0, 2) != 7 || mx.Get(2, 2) != 5 {
		t.Fatalf("growing a row clobbered a neighbour: %v", mx.Dense())
	}
	if err := mx.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetAddGet(t *testing.T) {
	mx := New(2, 10)
	// Insert out of order; the row must stay sorted.
	mx.Set(0, 7, 7)
	mx.Set(0, 2, 2)
	mx.Set(0, 5, 5)
	mx.Add(0, 2, 1)  // existing
	mx.Add(0, 9, -3) // new, at the end
	mx.Add(0, 0, 1)  // new, at the front
	if err := mx.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{0: 1, 2: 3, 5: 5, 7: 7, 9: -3}
	for j := 0; j < 10; j++ {
		if got := mx.Get(0, j); got != want[j] {
			t.Fatalf("Get(0,%d)=%v, want %v", j, got, want[j])
		}
	}
	if mx.NNZ() != 5 {
		t.Fatalf("NNZ=%d, want 5", mx.NNZ())
	}
	mx.Set(0, 5, 0) // explicit zero stays stored until pruned
	if mx.NNZ() != 5 {
		t.Fatalf("NNZ=%d after Set 0, want 5 (explicit zero stored)", mx.NNZ())
	}
	if removed := mx.Prune(0); removed != 1 {
		t.Fatalf("Prune removed %d, want 1", removed)
	}
	if mx.Get(0, 5) != 0 || mx.NNZ() != 4 {
		t.Fatalf("entry (0,5) not pruned: %v, NNZ=%d", mx.Get(0, 5), mx.NNZ())
	}
}

// TestScaleRowAdd verifies the Frank–Wolfe update primitive against its
// dense equivalent.
func TestScaleRowAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDense(1, 12, 0.4, rng)
	mx := FromDense(d, 0)
	const (
		scale = 0.75
		col   = 6
		add   = 0.25
	)
	mx.ScaleRowAdd(0, scale, col, add)
	for j := range d[0] {
		want := d[0][j] * scale
		if j == col {
			want += add
		}
		if got := mx.Get(0, j); math.Abs(got-want) > 1e-15 {
			t.Fatalf("col %d: got %v, want %v", j, got, want)
		}
	}
	if err := mx.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	mx := Identity(3)
	cp := mx.Clone()
	cp.Set(0, 2, 9)
	cp.Val[1][0] = 5
	if mx.Get(0, 2) != 0 || mx.Get(1, 1) != 1 {
		t.Fatal("mutating the clone leaked into the original")
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	mx := Identity(3)
	mx.Idx[1] = []int32{2, 1} // out of order
	mx.Val[1] = []float64{1, 1}
	if err := mx.Validate(); err == nil {
		t.Fatal("Validate accepted unsorted indices")
	}
	mx2 := Identity(3)
	mx2.Idx[0] = []int32{5} // out of range
	if err := mx2.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range column")
	}
}
