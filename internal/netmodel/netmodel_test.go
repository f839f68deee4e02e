package netmodel

import (
	"math"
	"math/rand"
	"testing"
)

// triangleViolations counts ordered triples (i,k,j) with
// c_ik + c_kj < c_ij − eps, i.e. violations of the triangle inequality.
// After FloydWarshall the count is zero; the paper relies on this to rule
// out relaying through intermediate servers (§II).
func triangleViolations(lat [][]float64, eps float64) int {
	m := len(lat)
	count := 0
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			if i == k {
				continue
			}
			for j := 0; j < m; j++ {
				if j == i || j == k {
					continue
				}
				if lat[i][k]+lat[k][j] < lat[i][j]-eps {
					count++
				}
			}
		}
	}
	return count
}

func TestHomogeneous(t *testing.T) {
	lat := Homogeneous(5, 20)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 20.0
			if i == j {
				want = 0
			}
			if lat[i][j] != want {
				t.Fatalf("lat[%d][%d] = %v, want %v", i, j, lat[i][j], want)
			}
		}
	}
}

func TestEuclideanIsSymmetricMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lat := Euclidean(30, 100, rng)
	for i := range lat {
		if lat[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := range lat {
			if lat[i][j] != lat[j][i] {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	if v := triangleViolations(lat, 1e-9); v != 0 {
		t.Errorf("Euclidean matrix has %d triangle violations, want 0", v)
	}
}

func TestFloydWarshallClosesMatrix(t *testing.T) {
	inf := math.Inf(1)
	lat := [][]float64{
		{0, 1, inf},
		{1, 0, 2},
		{inf, 2, 0},
	}
	FloydWarshall(lat)
	if lat[0][2] != 3 {
		t.Errorf("lat[0][2] = %v, want 3 (via node 1)", lat[0][2])
	}
	if v := triangleViolations(lat, 1e-9); v != 0 {
		t.Errorf("closure left %d triangle violations", v)
	}
}

func TestFloydWarshallShortcut(t *testing.T) {
	// Direct link 0→2 is longer than the two-hop path; closure must
	// replace it, reflecting the paper's assumption that routing is
	// network-layer optimal.
	lat := [][]float64{
		{0, 1, 10},
		{1, 0, 1},
		{10, 1, 0},
	}
	FloydWarshall(lat)
	if lat[0][2] != 2 {
		t.Errorf("lat[0][2] = %v, want 2", lat[0][2])
	}
}

func TestPlanetLabProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := 60
	lat := PlanetLab(m, rng)
	if len(lat) != m {
		t.Fatalf("matrix has %d rows, want %d", len(lat), m)
	}
	var minOff, maxOff = math.Inf(1), 0.0
	for i := 0; i < m; i++ {
		if lat[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			v := lat[i][j]
			if math.IsInf(v, 1) || math.IsNaN(v) || v <= 0 {
				t.Fatalf("lat[%d][%d] = %v, want finite positive", i, j, v)
			}
			if v != lat[j][i] {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			minOff = math.Min(minOff, v)
			maxOff = math.Max(maxOff, v)
		}
	}
	// Heterogeneity: the spread should span at least one order of
	// magnitude, like real PlanetLab.
	if maxOff/minOff < 5 {
		t.Errorf("latency spread %.1f–%.1f too narrow for a PlanetLab-like net", minOff, maxOff)
	}
	// Metricity after closure.
	if v := triangleViolations(lat, 1e-9); v != 0 {
		t.Errorf("PlanetLab matrix has %d triangle violations after closure", v)
	}
}

func TestPlanetLabDeterministicUnderSeed(t *testing.T) {
	a := PlanetLab(20, rand.New(rand.NewSource(5)))
	b := PlanetLab(20, rand.New(rand.NewSource(5)))
	for i := range a {
		for j := range a {
			if a[i][j] != b[i][j] {
				t.Fatal("PlanetLab not deterministic for a fixed seed")
			}
		}
	}
}

func TestTriangleViolationsDetects(t *testing.T) {
	lat := [][]float64{
		{0, 1, 10},
		{1, 0, 1},
		{10, 1, 0},
	}
	if v := triangleViolations(lat, 1e-9); v == 0 {
		t.Error("expected violations in a non-metric matrix")
	}
}

func BenchmarkPlanetLab200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PlanetLab(200, rng)
	}
}

func TestClusteredBlockStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lat, cluster := Clustered(40, 6, 2, 100, rng)
	if len(cluster) != 40 {
		t.Fatalf("got %d labels, want 40", len(cluster))
	}
	// Latency must depend only on the cluster pair.
	type pair struct{ g, h int }
	seen := map[pair]float64{}
	for i := range lat {
		if lat[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := range lat {
			if i == j {
				continue
			}
			p := pair{cluster[i], cluster[j]}
			if v, ok := seen[p]; ok {
				if lat[i][j] != v {
					t.Fatalf("block (%d,%d) has two delays: %v and %v", p.g, p.h, v, lat[i][j])
				}
			} else {
				seen[p] = lat[i][j]
			}
			if lat[i][j] != lat[j][i] {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if lat[i][j] < 2 {
				t.Fatalf("lat[%d][%d]=%v below the intra-metro floor", i, j, lat[i][j])
			}
		}
	}
	if v := triangleViolations(lat, 1e-9); v != 0 {
		t.Errorf("clustered matrix has %d triangle violations, want 0", v)
	}
}

func TestClusteredDeterministic(t *testing.T) {
	a, ca := Clustered(25, 4, 1, 50, rand.New(rand.NewSource(9)))
	b, cb := Clustered(25, 4, 1, 50, rand.New(rand.NewSource(9)))
	for i := range a {
		if ca[i] != cb[i] {
			t.Fatalf("labels differ at %d", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("latency differs at (%d,%d)", i, j)
			}
		}
	}
}
