package coords

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/netmodel"
)

func TestEmbedsEuclideanMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lat := netmodel.Euclidean(40, 100, rng)
	s := NewSpace(40, 2, rand.New(rand.NewSource(2)))
	s.Train(lat, 200)
	if err := s.MedianRelativeError(lat); err > 0.15 {
		t.Errorf("median relative error %v on a perfectly embeddable matrix, want ≤ 0.15", err)
	}
}

func TestEmbedsPlanetLabMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lat := netmodel.PlanetLab(40, rng)
	s := NewSpace(40, 3, rand.New(rand.NewSource(4)))
	s.Train(lat, 300)
	// PlanetLab-like matrices are not metric-embeddable exactly; Vivaldi
	// papers report ~10–30% median error. Accept anything clearly better
	// than no information at all.
	if err := s.MedianRelativeError(lat); err > 0.45 {
		t.Errorf("median relative error %v on PlanetLab-like matrix, want ≤ 0.45", err)
	}
}

func TestTrainingImprovesError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lat := netmodel.Euclidean(30, 100, rng)
	s := NewSpace(30, 2, rand.New(rand.NewSource(6)))
	before := s.MedianRelativeError(lat)
	s.Train(lat, 100)
	after := s.MedianRelativeError(lat)
	if after >= before {
		t.Errorf("training did not improve: %v → %v", before, after)
	}
}

func TestDistanceProperties(t *testing.T) {
	s := NewSpace(5, 2, rand.New(rand.NewSource(7)))
	if d := s.Distance(2, 2); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
	if d, d2 := s.Distance(0, 1), s.Distance(1, 0); math.Abs(d-d2) > 1e-12 {
		t.Errorf("asymmetric distances %v vs %v", d, d2)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j && s.Distance(i, j) <= 0 {
				t.Errorf("non-positive distance between %d and %d", i, j)
			}
		}
	}
}

func TestUpdateIgnoresBadSamples(t *testing.T) {
	s := NewSpace(3, 2, rand.New(rand.NewSource(8)))
	snap := s.Distance(0, 1)
	s.Update(0, 0, 50) // self measurement
	s.Update(0, 1, -5) // negative RTT
	s.Update(0, 1, 0)  // zero RTT
	if s.Distance(0, 1) != snap {
		t.Error("invalid samples changed the embedding")
	}
}

func TestHeightStaysPositive(t *testing.T) {
	s := NewSpace(2, 2, rand.New(rand.NewSource(9)))
	for k := 0; k < 1000; k++ {
		s.Update(0, 1, 1e-3) // tiny RTTs push heights down
		s.Update(1, 0, 1e-3)
	}
	for i, n := range s.Nodes {
		if n.Height <= 0 {
			t.Errorf("node %d height %v, want > 0", i, n.Height)
		}
	}
}

func TestEstimateMatrixShape(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	lat := netmodel.Euclidean(10, 50, rng)
	s := NewSpace(10, 2, rand.New(rand.NewSource(11)))
	s.Train(lat, 50)
	est := s.EstimateMatrix()
	if len(est) != 10 {
		t.Fatalf("estimate has %d rows", len(est))
	}
	for i := range est {
		if est[i][i] != 0 {
			t.Errorf("diagonal entry %d non-zero", i)
		}
	}
}

func TestTrainSkipsInfiniteLinks(t *testing.T) {
	lat := netmodel.Euclidean(6, 50, rand.New(rand.NewSource(12)))
	lat[0][1] = math.Inf(1)
	lat[1][0] = math.Inf(1)
	s := NewSpace(6, 2, rand.New(rand.NewSource(13)))
	s.Train(lat, 50) // must not panic or corrupt coordinates
	for i, n := range s.Nodes {
		for _, p := range n.Pos {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("node %d coordinate corrupted: %v", i, n.Pos)
			}
		}
	}
}

func BenchmarkVivaldiUpdate(b *testing.B) {
	s := NewSpace(100, 3, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(i%100, (i+1)%100, 50)
	}
}
