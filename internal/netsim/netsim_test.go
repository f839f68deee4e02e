package netsim

import (
	"math"
	"math/rand"
	"testing"

	"delaylb/internal/netmodel"
	"delaylb/internal/stats"
)

func newSim(t *testing.T, seed int64) *Sim {
	t.Helper()
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	lat := netmodel.PlanetLab(cfg.Servers, rng)
	// Base matrix holds RTTs; the sim wants one-way delays. The paper's
	// servers were distinct PlanetLab sites scattered around Europe, so
	// floor the one-way delay at 10 ms (RTT ≥ 20 ms).
	for i := range lat {
		for j := range lat {
			if i == j {
				continue
			}
			lat[i][j] /= 2
			if lat[i][j] < 10 {
				lat[i][j] = 10
			}
		}
	}
	return New(cfg, lat, rng)
}

// TestNewRejectsUndersizedLatency pins the dimension check: an
// undersized matrix must fail loudly at construction, not as an index
// panic inside ProbeRTT rounds later.
func TestNewRejectsUndersizedLatency(t *testing.T) {
	square := func(n int) [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		lat  [][]float64
	}{
		{"too few rows", DefaultConfig(), square(59)},
		{"short row", DefaultConfig(), func() [][]float64 {
			m := square(60)
			m[41] = m[41][:59]
			return m
		}()},
		{"zero servers", Config{}, square(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted an undersized latency matrix")
				}
			}()
			New(tc.cfg, tc.lat, rand.New(rand.NewSource(1)))
		})
	}
	// An oversized matrix stays fine — "at least" is the contract.
	cfg := DefaultConfig()
	cfg.Servers = 10
	if s := New(cfg, square(60), rand.New(rand.NewSource(1))); s == nil {
		t.Fatal("New rejected a larger-than-needed matrix")
	}
}

func TestTopology(t *testing.T) {
	s := newSim(t, 1)
	for i := 0; i < 60; i++ {
		ns := s.neighbors[i]
		if len(ns) != 5 {
			t.Fatalf("node %d has %d neighbors, want 5", i, len(ns))
		}
		seen := map[int]bool{}
		for _, j := range ns {
			if j == i {
				t.Fatalf("node %d is its own neighbor", i)
			}
			if seen[j] {
				t.Fatalf("node %d has duplicate neighbor %d", i, j)
			}
			seen[j] = true
		}
	}
	if got := len(s.Pairs()); got != 300 {
		t.Errorf("pairs = %d, want 300", got)
	}
}

func TestThroughputCapping(t *testing.T) {
	s := newSim(t, 2)
	s.SetBackgroundThroughput(5000) // 5 MB/s per flow, far above the shaper
	for i, e := range s.egress {
		if e > s.cfg.ShapingRateKBps+1e-9 {
			t.Fatalf("node %d egress %v exceeds the shaping rate", i, e)
		}
	}
}

func TestRTTFlatUnderLightLoad(t *testing.T) {
	s := newSim(t, 3)
	pairs := s.Pairs()
	meanOverPairs := func(tb float64) float64 {
		s.SetBackgroundThroughput(tb)
		var sum float64
		for _, p := range pairs {
			sum += s.AverageRTT(p[0], p[1], 100)
		}
		return sum / float64(len(pairs))
	}
	base := meanOverPairs(10)
	light := meanOverPairs(100)
	if dev := math.Abs(light-base) / base; dev > 0.03 {
		t.Errorf("mean RTT deviated %.1f%% between 10 and 100 KB/s, want flat", 100*dev)
	}
}

func TestRTTRisesUnderHeavyLoad(t *testing.T) {
	s := newSim(t, 4)
	// Average over all pairs to wash out topology luck.
	meanRTT := func() float64 {
		var sum float64
		pairs := s.Pairs()
		for _, p := range pairs {
			sum += s.AverageRTT(p[0], p[1], 100)
		}
		return sum / float64(len(pairs))
	}
	s.SetBackgroundThroughput(10)
	low := meanRTT()
	s.SetBackgroundThroughput(2000)
	high := meanRTT()
	if (high-low)/low < 0.1 {
		t.Errorf("RTT rose only %.1f%% under saturation, want ≥ 10%%", 100*(high-low)/low)
	}
}

// Reproduce the Table IV computation shape: relative deviations near zero
// until ~0.2 MB/s, clearly positive at ≥ 0.5 MB/s.
func TestTableIVShape(t *testing.T) {
	s := newSim(t, 5)
	pairs := s.Pairs()
	const probes = 120
	baseline := make([]float64, len(pairs))
	s.SetBackgroundThroughput(10)
	for k, p := range pairs {
		baseline[k] = s.AverageRTT(p[0], p[1], probes)
	}
	devAt := func(tb float64) float64 {
		s.SetBackgroundThroughput(tb)
		devs := make([]float64, len(pairs))
		for k, p := range pairs {
			devs[k] = (s.AverageRTT(p[0], p[1], probes) - baseline[k]) / baseline[k]
		}
		trimmed := stats.TrimLargest(devs, 0.05)
		return stats.Mean(trimmed)
	}
	if mu := devAt(100); math.Abs(mu) > 0.05 {
		t.Errorf("μ(100 KB/s) = %v, want ≈0", mu)
	}
	if mu := devAt(200); math.Abs(mu) > 0.12 {
		t.Errorf("μ(200 KB/s) = %v, want small", mu)
	}
	mu500 := devAt(500)
	if mu500 < 0.05 {
		t.Errorf("μ(500 KB/s) = %v, want clearly positive", mu500)
	}
	mu2000 := devAt(2000)
	if mu2000 < mu500 {
		t.Errorf("μ(2 MB/s) = %v not above μ(0.5 MB/s) = %v", mu2000, mu500)
	}
}

// ANOVA must accept the null (no RTT dependence on throughput) for most
// pairs when restricted to sub-knee throughputs — the paper reports >56%
// acceptance for tb ≤ 0.2 MB/s and >90% for tb ≤ 50 KB/s.
func TestANOVAAcceptsNullUnderLightLoad(t *testing.T) {
	s := newSim(t, 6)
	pairs := s.Pairs()
	levels := []float64{10, 20, 50}
	accepted := 0
	for _, p := range pairs {
		groups := make([][]float64, len(levels))
		for li, tb := range levels {
			s.SetBackgroundThroughput(tb)
			groups[li] = s.MeasureRTT(p[0], p[1], 60)
		}
		res, err := stats.OneWayANOVA(groups)
		if err != nil {
			t.Fatal(err)
		}
		if res.P > 0.05 {
			accepted++
		}
	}
	if frac := float64(accepted) / float64(len(pairs)); frac < 0.80 {
		t.Errorf("ANOVA accepted the null for only %.0f%% of pairs, want ≥ 80%%", 100*frac)
	}
}

func TestProbeDeterministicUnderSeed(t *testing.T) {
	a := newSim(t, 7)
	b := newSim(t, 7)
	a.SetBackgroundThroughput(100)
	b.SetBackgroundThroughput(100)
	for k := 0; k < 10; k++ {
		if a.ProbeRTT(0, 1) != b.ProbeRTT(0, 1) {
			t.Fatal("probes not deterministic under fixed seed")
		}
	}
}

func BenchmarkProbeRTT(b *testing.B) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	lat := netmodel.PlanetLab(cfg.Servers, rng)
	s := New(cfg, lat, rng)
	s.SetBackgroundThroughput(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ProbeRTT(i%60, (i+1)%60)
	}
}
