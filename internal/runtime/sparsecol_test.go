package runtime

import (
	"math"
	"testing"
)

func TestSparseColRoundTrip(t *testing.T) {
	dense := []float64{0, 1.5, 0, 0, 3.25, 0.0, 7}
	c := PackCol(dense)
	if len(c.Idx) != 3 {
		t.Fatalf("packed %d coordinates, want 3", len(c.Idx))
	}
	back := make([]float64, len(dense))
	c.UnpackInto(back)
	for k, v := range dense {
		if back[k] != v {
			t.Fatalf("entry %d: %g, want %g", k, back[k], v)
		}
	}
	if got, want := c.Sum(), 1.5+3.25+7; got != want {
		t.Fatalf("sum %g, want %g", got, want)
	}
	clone := c.Clone()
	clone.Val[0] = 99
	if c.Val[0] == 99 {
		t.Fatal("clone shares storage with the original")
	}
	// Unpack must clear stale entries in the destination.
	dirty := []float64{9, 9, 9, 9, 9, 9, 9}
	c.UnpackInto(dirty)
	if dirty[0] != 0 || dirty[1] != 1.5 {
		t.Fatalf("unpack left stale entries: %v", dirty)
	}
}

// TestSparseWireMatchesDenseProtocol pins the sparse-coordinate wire to
// the retired dense-column exchange: the golden constants below were
// produced by the dense protocol (Col/NewCol as length-m vectors) on
// this exact seeded run. Packing drops exact zeros only and Algorithm 1
// still runs on densified scratch, so the trajectory — cost bits and
// message count — must be unchanged.
func TestSparseWireMatchesDenseProtocol(t *testing.T) {
	const (
		goldenCostBits  = 0x40e1231721a861ee // 35096.72285861136
		goldenDelivered = 682
	)
	in := testInstance(31, 12)
	bus := newIdentityBus(in, 1e-6, 32)
	for r := 0; r < 12; r++ {
		bus.Tick()
	}
	if got := math.Float64bits(bus.Cost(in)); got != goldenCostBits {
		t.Errorf("cost bits %#x (%v), dense protocol produced %#x",
			got, bus.Cost(in), uint64(goldenCostBits))
	}
	if bus.Delivered != goldenDelivered {
		t.Errorf("delivered %d messages, dense protocol delivered %d",
			bus.Delivered, goldenDelivered)
	}
	if err := bus.Allocation().Validate(in, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestProposalsStaySparse checks the point of the exercise: once the
// protocol has converged, proposal payloads carry far fewer coordinates
// than the fleet size.
func TestProposalsStaySparse(t *testing.T) {
	in := testInstance(33, 40)
	bus := newIdentityBus(in, 1e-6, 34)
	tickUntilStable(bus, in, 40, 1e-9)
	maxNNZ, total := 0, 0
	for _, s := range bus.Servers {
		n := len(s.col.Idx)
		total += n
		if n > maxNNZ {
			maxNNZ = n
		}
	}
	m := in.M()
	if total >= m*m/4 {
		t.Errorf("converged columns hold %d coordinates over a %d×%d table — wire is not sparse", total, m, m)
	}
	if maxNNZ >= m {
		t.Errorf("a column holds %d coordinates at m=%d", maxNNZ, m)
	}
}
