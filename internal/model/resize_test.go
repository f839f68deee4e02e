package model_test

import (
	"math"
	"testing"

	"delaylb/internal/dynamic"
	"delaylb/internal/model"
	"delaylb/internal/sparse"
)

// withServer and withoutServer resize in through a one-edit
// dynamic.Resize batch, the way sessions and the descent plane do.
func withServer(in *model.Instance, speed, load float64, latTo, latFrom []float64, cluster int) (*model.Instance, error) {
	r := dynamic.NewResize(in.M())
	if err := r.Join(in, dynamic.Join{Speed: speed, Load: load, Cluster: cluster, To: latTo, From: latFrom}); err != nil {
		return nil, err
	}
	out, _ := r.Apply(in, sparse.Diagonal(in.Load))
	return out, nil
}

func withoutServer(in *model.Instance, i int) (*model.Instance, error) {
	r := dynamic.NewResize(in.M())
	if err := r.Leave(in, i); err != nil {
		return nil, err
	}
	out, _ := r.Apply(in, sparse.Diagonal(in.Load))
	return out, nil
}

func resizeFixture() *model.Instance {
	in := model.Uniform(3, 2, 10, 5)
	in.Cluster = []int{0, 1, 1}
	return in
}

func TestWithServerAppends(t *testing.T) {
	in := resizeFixture()
	out, err := withServer(in, 3, 7, []float64{1, 2, 3}, []float64{4, 5, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.M() != 4 {
		t.Fatalf("m=%d after join, want 4", out.M())
	}
	if out.Speed[3] != 3 || out.Load[3] != 7 {
		t.Errorf("new server speed/load = %v/%v", out.Speed[3], out.Load[3])
	}
	for j, want := range []float64{1, 2, 3, 0} {
		if out.Latency.(model.DenseLatency)[3][j] != want {
			t.Errorf("latency[3][%d]=%v, want %v", j, out.Latency.(model.DenseLatency)[3][j], want)
		}
	}
	for i, want := range []float64{4, 5, 6} {
		if out.Latency.(model.DenseLatency)[i][3] != want {
			t.Errorf("latency[%d][3]=%v, want %v", i, out.Latency.(model.DenseLatency)[i][3], want)
		}
	}
	if got := out.Cluster[3]; got != 1 {
		t.Errorf("new server label %d, want 1", got)
	}
	// The original instance is untouched.
	if in.M() != 3 || len(in.Latency.(model.DenseLatency)[0]) != 3 {
		t.Error("WithServer mutated the receiver")
	}
}

func TestWithServerRejectsBadInput(t *testing.T) {
	in := resizeFixture()
	if _, err := withServer(in, 1, 1, []float64{1, 2}, []float64{1, 2, 3}, 0); err == nil {
		t.Error("short latTo accepted")
	}
	if _, err := withServer(in, 0, 1, []float64{1, 2, 3}, []float64{1, 2, 3}, 0); err == nil {
		t.Error("zero speed accepted")
	}
	if _, err := withServer(in, 1, -1, []float64{1, 2, 3}, []float64{1, 2, 3}, 0); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := withServer(in, 1, math.NaN(), []float64{1, 2, 3}, []float64{1, 2, 3}, 0); err == nil {
		t.Error("NaN load accepted")
	}
	if _, err := withServer(in, 1, 1, []float64{1, math.NaN(), 3}, []float64{1, 2, 3}, 0); err == nil {
		t.Error("NaN latency accepted")
	}
	if _, err := withServer(in, 1, 1, []float64{1, -2, 3}, []float64{1, 2, 3}, 0); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestWithServerAllowsForbiddenLinks(t *testing.T) {
	in := model.Uniform(2, 1, 5, 3)
	out, err := withServer(in, 1, 0, []float64{math.Inf(1), 4}, []float64{4, math.Inf(1)}, 0)
	if err != nil {
		t.Fatalf("+Inf (forbidden) link rejected: %v", err)
	}
	if !math.IsInf(out.Latency.(model.DenseLatency)[2][0], 1) || !math.IsInf(out.Latency.(model.DenseLatency)[1][2], 1) {
		t.Error("forbidden links not preserved")
	}
}

func TestWithoutServerRemoves(t *testing.T) {
	in := resizeFixture()
	in.Load = []float64{10, 20, 30}
	in.Latency.(model.DenseLatency)[0][2] = 9
	out, err := withoutServer(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.M() != 2 {
		t.Fatalf("m=%d after leave, want 2", out.M())
	}
	if out.Load[0] != 10 || out.Load[1] != 30 {
		t.Errorf("loads %v, want [10 30]", out.Load)
	}
	if out.Latency.(model.DenseLatency)[0][1] != 9 {
		t.Errorf("latency[0][1]=%v, want the old [0][2]=9", out.Latency.(model.DenseLatency)[0][1])
	}
	if len(out.Cluster) != 2 || out.Cluster[0] != 0 || out.Cluster[1] != 1 {
		t.Errorf("labels %v, want [0 1]", out.Cluster)
	}
	if in.M() != 3 {
		t.Error("WithoutServer mutated the receiver")
	}
}

func TestWithoutServerBounds(t *testing.T) {
	in := resizeFixture()
	if _, err := withoutServer(in, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := withoutServer(in, 3); err == nil {
		t.Error("out-of-range index accepted")
	}
	solo := model.Uniform(1, 1, 5, 0)
	if _, err := withoutServer(solo, 0); err == nil {
		t.Error("removing the only server accepted")
	}
}

// Churn must not strand cluster labels: removing servers shrinks m below
// a surviving label, which Validate now accepts for small labels.
func TestWithoutServerKeepsHighLabelsValid(t *testing.T) {
	in := model.Uniform(3, 1, 5, 4)
	in.Cluster = []int{0, 1, 2}
	out, err := withoutServer(in, 0)
	if err != nil {
		t.Fatalf("label 2 with m=2 rejected after churn: %v", err)
	}
	if _, ok := model.ClusterDelays(out); !ok {
		t.Error("cluster hint lost after removal of a homogeneous instance's server")
	}
}
