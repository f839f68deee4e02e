package runtime

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"delaylb/internal/model"
)

// Cluster runs every Server in its own goroutine, connected by buffered
// in-memory channels — the concurrent counterpart of SimBus. Ticks are
// broadcast by the caller; the cluster guarantees that each server's
// handler runs single-threaded over its inbox.
type Cluster struct {
	in      *model.Instance
	servers []*Server
	inboxes []chan Message
	wg      sync.WaitGroup
	mu      []sync.Mutex // one per server: handler vs. snapshot
	stopped chan struct{}
	// inflight counts messages that are enqueued or being handled: it is
	// incremented before a message enters an inbox and decremented only
	// after its handler has run AND the handler's own sends have been
	// enqueued (and counted). It therefore reaches zero exactly when the
	// cluster is quiescent — unlike inspecting channel lengths, which
	// misses messages held between a channel read and the resulting
	// sends.
	inflight atomic.Int64
}

// NewClusterFromAllocation builds the goroutine cluster starting from an
// arbitrary feasible allocation (see NewSimBusFromAllocation).
func NewClusterFromAllocation(in *model.Instance, a *model.Allocation, minGain float64, seed int64) *Cluster {
	m := in.M()
	c := &Cluster{
		in:      in,
		inboxes: make([]chan Message, m),
		mu:      make([]sync.Mutex, m),
		stopped: make(chan struct{}),
	}
	sim := NewSimBusFromAllocation(in, a, minGain, seed) // reuse server construction
	c.servers = sim.Servers
	for i := 0; i < m; i++ {
		c.inboxes[i] = make(chan Message, 16*m)
	}
	for i := 0; i < m; i++ {
		c.wg.Add(1)
		go c.loop(i)
	}
	return c
}

func (c *Cluster) loop(i int) {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopped:
			return
		case msg := <-c.inboxes[i]:
			c.mu[i].Lock()
			out := c.servers[i].Handle(msg)
			c.mu[i].Unlock()
			for _, o := range out {
				if !c.send(o) {
					c.inflight.Add(-1) // shutting down; counts no longer observed
					return
				}
			}
			c.inflight.Add(-1) // msg handled, successors registered
		}
	}
}

// send registers a message as in flight and enqueues it, reporting false
// when the cluster is stopping.
func (c *Cluster) send(msg Message) bool {
	c.inflight.Add(1)
	select {
	case c.inboxes[msg.To] <- msg:
		return true
	case <-c.stopped:
		c.inflight.Add(-1)
		return false
	}
}

// TickAll sends one tick to every server (non-blocking for the caller as
// long as inboxes have room).
func (c *Cluster) TickAll() {
	for i := range c.inboxes {
		if !c.send(Message{Kind: MsgTick, To: i}) {
			return
		}
	}
}

// Quiesce blocks until no message is enqueued or being handled — every
// tick cascade, including sends a handler was about to make when a
// channel was last inspected, has fully drained. It yields the processor
// while waiting so the server goroutines can make progress.
func (c *Cluster) Quiesce() {
	for c.inflight.Load() != 0 {
		select {
		case <-c.stopped:
			return
		default:
			stdruntime.Gosched()
		}
	}
}

// Allocation snapshots the current global allocation. Columns are read
// under their per-server locks; the snapshot is per-column consistent
// (an in-flight pair exchange may be half-visible, which only matters to
// observers — the protocol itself never reads a foreign column).
func (c *Cluster) Allocation() *model.Allocation {
	m := len(c.servers)
	a := model.NewAllocation(m)
	for j, s := range c.servers {
		c.mu[j].Lock()
		for t, k := range s.col.Idx {
			a.R[k][j] = s.col.Val[t]
		}
		c.mu[j].Unlock()
	}
	return a
}

// Cost evaluates the global ΣC_i of the snapshot.
func (c *Cluster) Cost() float64 {
	return model.TotalCost(c.in, c.Allocation())
}

// Stop terminates all server goroutines.
func (c *Cluster) Stop() {
	close(c.stopped)
	c.wg.Wait()
}
