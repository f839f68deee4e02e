package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randInstance builds a random valid instance for property tests.
func randInstance(rng *rand.Rand, m int) *Instance {
	in := &Instance{
		Speed:   make([]float64, m),
		Load:    make([]float64, m),
		Latency: NewDense(make([][]float64, m)),
	}
	for i := 0; i < m; i++ {
		in.Speed[i] = 1 + 4*rng.Float64()
		in.Load[i] = math.Floor(100 * rng.Float64())
		in.Latency.(DenseLatency)[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			c := 50 * rng.Float64()
			in.Latency.(DenseLatency)[i][j] = c
			in.Latency.(DenseLatency)[j][i] = c
		}
	}
	return in
}

// randAllocation builds a random feasible allocation for in.
func randAllocation(rng *rand.Rand, in *Instance) *Allocation {
	m := in.M()
	a := NewAllocation(m)
	for i := 0; i < m; i++ {
		w := make([]float64, m)
		var tot float64
		for j := 0; j < m; j++ {
			w[j] = rng.Float64()
			tot += w[j]
		}
		for j := 0; j < m; j++ {
			a.R[i][j] = in.Load[i] * w[j] / tot
		}
	}
	return a
}

func TestUniformInstance(t *testing.T) {
	in := Uniform(4, 2, 10, 20)
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := in.M(); got != 4 {
		t.Errorf("M() = %d, want 4", got)
	}
	if got := in.TotalLoad(); got != 40 {
		t.Errorf("TotalLoad() = %v, want 40", got)
	}
	if got := in.AverageLoad(); got != 10 {
		t.Errorf("AverageLoad() = %v, want 10", got)
	}
	if got := in.AverageLatency(); got != 20 {
		t.Errorf("AverageLatency() = %v, want 20", got)
	}
	for i := 0; i < in.M(); i++ {
		if in.Speed[i] != 2 {
			t.Errorf("speed[%d] = %v, want 2", i, in.Speed[i])
		}
		for j := 0; j < in.M(); j++ {
			if c := in.LatAt(i, j); i != j && c != 20 {
				t.Errorf("c[%d][%d] = %v, want 20", i, j, c)
			}
		}
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"zero speed", func(in *Instance) { in.Speed[1] = 0 }, "speed"},
		{"negative speed", func(in *Instance) { in.Speed[0] = -1 }, "speed"},
		{"nan speed", func(in *Instance) { in.Speed[0] = math.NaN() }, "speed"},
		{"negative load", func(in *Instance) { in.Load[2] = -3 }, "load"},
		{"inf load", func(in *Instance) { in.Load[0] = math.Inf(1) }, "load"},
		{"negative latency", func(in *Instance) { in.Latency.(DenseLatency)[0][1] = -1 }, "latency"},
		{"nonzero diagonal", func(in *Instance) { in.Latency.(DenseLatency)[1][1] = 5 }, "diagonal"},
		{"ragged latency", func(in *Instance) { in.Latency.(DenseLatency)[2] = in.Latency.(DenseLatency)[2][:1] }, "latency row"},
		{"load mismatch", func(in *Instance) { in.Load = in.Load[:2] }, "len(Load)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := Uniform(3, 1, 10, 20)
			tc.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid instance")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsInfiniteLatency(t *testing.T) {
	in := Uniform(3, 1, 10, 20)
	in.Latency.(DenseLatency)[0][2] = math.Inf(1)
	if err := in.Validate(); err != nil {
		t.Fatalf("instance with forbidden link should validate, got %v", err)
	}
}

func TestValidateRejectsEmptyInstance(t *testing.T) {
	in := &Instance{}
	if err := in.Validate(); err == nil {
		t.Fatal("empty instance should be rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := Uniform(3, 1, 10, 20)
	cp := in.Clone()
	cp.Speed[0] = 99
	cp.Load[0] = 99
	if in.Speed[0] == 99 || in.Load[0] == 99 {
		t.Error("Clone shares speed/load memory with the original")
	}
	// The latency view is deliberately shared: views are immutable by
	// contract (updates replace the view), so cloning a block-backed
	// instance stays O(m).
	if &in.Latency.(DenseLatency)[0][0] != &cp.Latency.(DenseLatency)[0][0] {
		t.Error("Clone should share the immutable latency view")
	}
}

func TestCloneBlockKeepsLabelAliasing(t *testing.T) {
	in, err := NewBlockInstance(
		[]float64{1, 1, 1}, []float64{5, 5, 5},
		[][]float64{{1, 10}, {10, 2}}, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	cp := in.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone of block instance should validate, got %v", err)
	}
	b := cp.Latency.(*BlockLatency)
	if &b.Label[0] != &cp.Cluster[0] {
		t.Error("clone should keep Cluster aliased to the view's labels")
	}
	cp.Cluster[0] = 1
	if in.Cluster[0] != 0 {
		t.Error("clone shares cluster labels with the original")
	}
}

func TestAverageLatencyIgnoresForbiddenLinks(t *testing.T) {
	in := Uniform(3, 1, 10, 20)
	in.Latency.(DenseLatency)[0][1] = math.Inf(1)
	got := in.AverageLatency()
	if math.IsInf(got, 1) || got != 20 {
		t.Errorf("AverageLatency() = %v, want 20 (forbidden link ignored)", got)
	}
}

func TestNewInstanceValidates(t *testing.T) {
	_, err := NewInstance([]float64{1}, []float64{1, 2}, [][]float64{{0}})
	if err == nil {
		t.Fatal("NewInstance accepted mismatched shapes")
	}
	in, err := NewInstance([]float64{1, 2}, []float64{3, 4}, [][]float64{{0, 5}, {5, 0}})
	if err != nil {
		t.Fatalf("NewInstance rejected a valid instance: %v", err)
	}
	if in.M() != 2 {
		t.Errorf("M() = %d, want 2", in.M())
	}
}

func TestValidateClusterLabelCap(t *testing.T) {
	in := Uniform(2, 1, 5, 3)
	in.Cluster = []int{0, MaxSmallClusterLabel}
	if err := in.Validate(); err == nil {
		t.Errorf("label %d on m=2 accepted, want rejection at the cap", MaxSmallClusterLabel)
	}
	in.Cluster = []int{0, MaxSmallClusterLabel - 1}
	if err := in.Validate(); err != nil {
		t.Errorf("small label rejected: %v", err)
	}
}

// Online feeds must not be able to poison an instance: NaN and ±Inf
// loads, and NaN/−Inf latencies, are rejected; +Inf stays legal off the
// diagonal (the paper's trust-restricted links).
func TestValidateRejectsNonFiniteValues(t *testing.T) {
	base := func() *Instance { return Uniform(3, 1, 5, 2) }

	for name, mutate := range map[string]func(*Instance){
		"NaN load":       func(in *Instance) { in.Load[1] = math.NaN() },
		"+Inf load":      func(in *Instance) { in.Load[1] = math.Inf(1) },
		"-Inf load":      func(in *Instance) { in.Load[1] = math.Inf(-1) },
		"NaN speed":      func(in *Instance) { in.Speed[0] = math.NaN() },
		"+Inf speed":     func(in *Instance) { in.Speed[0] = math.Inf(1) },
		"NaN latency":    func(in *Instance) { in.Latency.(DenseLatency)[0][1] = math.NaN() },
		"-Inf latency":   func(in *Instance) { in.Latency.(DenseLatency)[0][1] = math.Inf(-1) },
		"diagonal +Inf":  func(in *Instance) { in.Latency.(DenseLatency)[2][2] = math.Inf(1) },
		"negative delay": func(in *Instance) { in.Latency.(DenseLatency)[1][0] = -3 },
	} {
		in := base()
		mutate(in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s accepted by Validate", name)
		}
	}

	ok := base()
	ok.Latency.(DenseLatency)[0][1] = math.Inf(1) // forbidden link: legal
	if err := ok.Validate(); err != nil {
		t.Errorf("off-diagonal +Inf (forbidden link) rejected: %v", err)
	}
}
