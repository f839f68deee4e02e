package model

import (
	"math"
	"math/rand"
	"testing"
)

// randomBlockInstance builds a random metro instance twice: once on the
// block representation, once as the bit-identical dense oracle.
func randomBlockInstance(t *testing.T, rng *rand.Rand, m, k int) (block, dense *Instance) {
	t.Helper()
	delay := make([][]float64, k)
	for g := range delay {
		delay[g] = make([]float64, k)
		for h := range delay[g] {
			delay[g][h] = math.Round(rng.Float64()*1000) / 10
		}
	}
	// An occasional forbidden metro pair exercises the +Inf path.
	if k > 1 && rng.Intn(2) == 0 {
		delay[0][k-1] = math.Inf(1)
	}
	labels := make([]int, m)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	speed := make([]float64, m)
	load := make([]float64, m)
	for i := range speed {
		speed[i] = 1 + 4*rng.Float64()
		load[i] = math.Round(rng.Float64() * 200)
	}
	var err error
	block, err = NewBlockInstance(speed, load, delay, labels)
	if err != nil {
		t.Fatal(err)
	}
	dense = &Instance{
		Speed:   speed,
		Load:    load,
		Latency: NewDense(block.Latency.Dense()),
		Cluster: labels,
	}
	if err := dense.Validate(); err != nil {
		t.Fatal(err)
	}
	return block, dense
}

// assertViewsAgree checks every read path of the two views bit for bit.
func assertViewsAgree(t *testing.T, block, dense *Instance) {
	t.Helper()
	m := block.M()
	if dense.M() != m {
		t.Fatalf("m mismatch: block %d, dense %d", m, dense.M())
	}
	bl, dl := block.Latency, dense.Latency
	rowB := make([]float64, m)
	rowD := make([]float64, m)
	for i := 0; i < m; i++ {
		bl.RowInto(i, rowB)
		dl.RowInto(i, rowD)
		var sumB, sumD float64
		for j := 0; j < m; j++ {
			if a, b := bl.At(i, j), dl.At(i, j); a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
				t.Fatalf("At(%d,%d): block %v, dense %v", i, j, a, b)
			}
			if rowB[j] != rowD[j] && !(math.IsInf(rowB[j], 1) && math.IsInf(rowD[j], 1)) {
				t.Fatalf("RowInto(%d)[%d]: block %v, dense %v", i, j, rowB[j], rowD[j])
			}
			if !math.IsInf(rowB[j], 1) {
				sumB += rowB[j]
				sumD += rowD[j]
			}
		}
		if sumB != sumD {
			t.Fatalf("row %d finite sum: block %v, dense %v", i, sumB, sumD)
		}
		bl.ColInto(i, rowB)
		dl.ColInto(i, rowD)
		for j := 0; j < m; j++ {
			if rowB[j] != rowD[j] && !(math.IsInf(rowB[j], 1) && math.IsInf(rowD[j], 1)) {
				t.Fatalf("ColInto(%d)[%d]: block %v, dense %v", i, j, rowB[j], rowD[j])
			}
		}
	}
	// GatherCol over a random ascending subset.
	rows := []int32{0, int32(m / 3), int32(m / 2), int32(m - 1)}
	gb := make([]float64, len(rows))
	gd := make([]float64, len(rows))
	for j := 0; j < m; j += 1 + m/7 {
		bl.GatherCol(j, rows, gb)
		dl.GatherCol(j, rows, gd)
		for t2 := range rows {
			if gb[t2] != gd[t2] && !(math.IsInf(gb[t2], 1) && math.IsInf(gd[t2], 1)) {
				t.Fatalf("GatherCol(%d)[%d]: block %v, dense %v", j, t2, gb[t2], gd[t2])
			}
		}
	}
	// ClusterDelays: the block table (O(1)) must equal the dense-verified
	// derivation wherever the dense matrix has a witness pair.
	tabB, okB := ClusterDelays(block)
	tabD, okD := ClusterDelays(dense)
	if !okB || !okD {
		t.Fatalf("ClusterDelays: block ok=%v, dense ok=%v", okB, okD)
	}
	counts := make([]int, len(tabB))
	for _, g := range block.Cluster {
		counts[g]++
	}
	for g := range tabD {
		for h := range tabD[g] {
			witnessed := g != h && counts[g] > 0 && counts[h] > 0 || g == h && counts[g] > 1
			if !witnessed {
				continue // dense derivation reports 0 for unwitnessed pairs
			}
			bv, dv := tabB[g][h], tabD[g][h]
			if bv != dv && !(math.IsInf(bv, 1) && math.IsInf(dv, 1)) {
				t.Fatalf("ClusterDelays[%d][%d]: block %v, dense %v", g, h, bv, dv)
			}
		}
	}
}

// TestBlockLatencyAgreesWithDense is the property test of the latency
// view tentpole: across randomized metro instances the block view and
// its dense materialization agree exactly on every read path — including
// after WithServer/WithoutServer churn round-trips, where the block form
// shares its delay table copy-on-write and the dense form full-copies.
func TestBlockLatencyAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(40)
		k := 1 + rng.Intn(6)
		block, dense := randomBlockInstance(t, rng, m, k)
		assertViewsAgree(t, block, dense)

		// Churn round-trip: join a random metro (block derives the rows,
		// the dense oracle receives the explicitly materialized ones),
		// then remove a random server.
		g := rng.Intn(k)
		latTo := make([]float64, m)
		latFrom := make([]float64, m)
		bv := block.Latency.(*BlockLatency)
		for j, h := range bv.Label {
			latTo[j] = bv.Delay[g][h]
			latFrom[j] = bv.Delay[h][g]
		}
		speed, load := 1+4*rng.Float64(), float64(rng.Intn(100))
		block2, err := block.WithServer(speed, load, nil, nil, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, still := block2.Latency.(*BlockLatency); !still {
			t.Fatal("implicit-row join should keep the block representation")
		}
		if &block2.Latency.(*BlockLatency).Delay[0][0] != &bv.Delay[0][0] {
			t.Fatal("block join should share the delay table (copy-on-write)")
		}
		dense2, err := dense.WithServer(speed, load, latTo, latFrom, g)
		if err != nil {
			t.Fatal(err)
		}
		assertViewsAgree(t, block2, dense2)

		// Explicit matching rows must also keep the block form.
		block2b, err := block.WithServer(speed, load, latTo, latFrom, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, still := block2b.Latency.(*BlockLatency); !still {
			t.Fatal("matching explicit rows should keep the block representation")
		}

		victim := rng.Intn(block2.M())
		block3, err := block2.WithoutServer(victim)
		if err != nil {
			t.Fatal(err)
		}
		dense3, err := dense2.WithoutServer(victim)
		if err != nil {
			t.Fatal(err)
		}
		if &block3.Latency.(*BlockLatency).Delay[0][0] != &bv.Delay[0][0] {
			t.Fatal("block leave should share the delay table (copy-on-write)")
		}
		assertViewsAgree(t, block3, dense3)
	}
}

// TestBlockJoinWithForeignRowsDensifies pins the fallback: a join whose
// explicit rows contradict the metro structure cannot stay block-backed,
// and the densified result carries exactly the requested rows.
func TestBlockJoinWithForeignRowsDensifies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	block, _ := randomBlockInstance(t, rng, 8, 3)
	m := block.M()
	latTo := make([]float64, m)
	latFrom := make([]float64, m)
	for j := 0; j < m; j++ {
		latTo[j] = 123.25 // uniform, not block-structured
		latFrom[j] = 17.5
	}
	out, err := block.WithServer(2, 10, latTo, latFrom, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, isBlock := out.Latency.(*BlockLatency); isBlock {
		t.Fatal("foreign rows must densify the instance")
	}
	for j := 0; j < m; j++ {
		if out.LatAt(m, j) != 123.25 || out.LatAt(j, m) != 17.5 {
			t.Fatalf("densified join lost its rows at j=%d", j)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}
