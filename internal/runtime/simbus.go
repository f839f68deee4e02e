package runtime

import (
	"math/rand"

	"delaylb/internal/model"
)

// SimBus drives a set of Servers deterministically in a single thread:
// messages are delivered FIFO, ticks are injected round by round in a
// random order derived from the seed. A run is therefore a pure
// function of the instance, the start allocation, the threshold and the
// seed.
type SimBus struct {
	Servers []*Server
	queue   []Message
	rng     *rand.Rand
	// Delivered counts total messages processed (for cost accounting in
	// experiments: the paper argues each server needs only ~a dozen
	// messages to converge).
	Delivered int
}

// NewSimBusFromAllocation builds the node set starting from a feasible
// allocation: server i's initial column is a's column i. minGain is the
// improvement threshold for proposals (e.g. 1e-6 of the initial cost).
func NewSimBusFromAllocation(in *model.Instance, a *model.Allocation, minGain float64, seed int64) *SimBus {
	m := in.M()
	rng := rand.New(rand.NewSource(seed))
	bus := &SimBus{rng: rng}
	for i := 0; i < m; i++ {
		col := make([]float64, m)
		for k := 0; k < m; k++ {
			col[k] = a.R[k][i]
		}
		row := make([]float64, m)
		in.Latency.RowInto(i, row)
		bus.Servers = append(bus.Servers, NewServer(
			i, m, in.Speed[i], row, col, minGain,
			rand.New(rand.NewSource(seed+int64(i)+1)),
		))
	}
	return bus
}

// Tick injects one MsgTick per server in random order, draining the
// message queue after each injection (so exchanges complete before the
// next server acts, matching the sequential semantics of §VI-B).
func (b *SimBus) Tick() {
	for _, i := range b.rng.Perm(len(b.Servers)) {
		b.queue = append(b.queue, Message{Kind: MsgTick, To: i})
		b.drain()
	}
}

// drain delivers queued messages until quiescence.
func (b *SimBus) drain() {
	for len(b.queue) > 0 {
		msg := b.queue[0]
		b.queue = b.queue[1:]
		b.Delivered++
		out := b.Servers[msg.To].Handle(msg)
		b.queue = append(b.queue, out...)
	}
}

// Allocation assembles the global allocation from all servers' sparse
// columns.
func (b *SimBus) Allocation() *model.Allocation {
	m := len(b.Servers)
	a := model.NewAllocation(m)
	for j, s := range b.Servers {
		for t, k := range s.col.Idx {
			a.R[k][j] = s.col.Val[t]
		}
	}
	return a
}

// Cost evaluates the current global ΣC_i (an observer's view; no node
// knows this quantity).
func (b *SimBus) Cost(in *model.Instance) float64 {
	return model.TotalCost(in, b.Allocation())
}
