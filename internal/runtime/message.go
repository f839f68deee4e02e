// Package runtime turns the MinE optimizer into an actual distributed
// system: each server runs as an independent event-driven node that (a)
// gossips load/speed information, (b) proposes pairwise balances to the
// locally most promising partner, and (c) executes the paper's
// Algorithm 1 on the two participants' columns when a proposal is
// accepted — exactly the protocol sketched in §IV ("the i-th server in
// each step communicates with the locally optimal partner server").
//
// The node logic (Server.Handle) is a pure message-in/messages-out state
// machine. SimBus delivers its messages deterministically on one
// goroutine, in FIFO order, one exchange at a time: the sequential
// schedule of §VI-B.
//
// The runtime assumes symmetric latencies (c_ij = c_ji), which lets a
// server use its own latency row as the c_ki column Algorithm 1 needs.
package runtime

// MsgKind enumerates the protocol messages.
type MsgKind int

const (
	// MsgTick triggers one activity step at a server: a gossip exchange
	// and a balance proposal to the best-looking partner.
	MsgTick MsgKind = iota
	// MsgGossip carries a (load, speed, version) table; if Reply is set,
	// the receiver answers with its own table (push–pull).
	MsgGossip
	// MsgPropose asks the receiver to rebalance with the sender.
	// It carries the sender's column, speed and latency row.
	MsgPropose
	// MsgAccept answers a proposal with the sender's updated column.
	MsgAccept
)

// GossipEntry is one row of the load/speed table spread by gossip.
type GossipEntry struct {
	Origin  int
	Load    float64
	Speed   float64
	Version uint64
	Known   bool
}

// SparseCol is a server column in coordinate form: Val[t] requests of
// organization Idx[t] execute on the server, indices strictly ascending,
// no explicit zeros. Columns converge to a handful of organizations per
// server, so shipping coordinates instead of a length-m vector keeps
// proposal traffic O(nnz) rather than O(m).
type SparseCol struct {
	Idx []int32
	Val []float64
}

// PackCol converts a dense column to coordinate form, dropping exact
// zeros only — UnpackInto(PackCol(x)) restores x bit for bit.
func PackCol(dense []float64) SparseCol {
	var c SparseCol
	for k, v := range dense {
		if v != 0 {
			c.Idx = append(c.Idx, int32(k))
			c.Val = append(c.Val, v)
		}
	}
	return c
}

// UnpackInto writes the column into dst (zeroing it first).
func (c SparseCol) UnpackInto(dst []float64) {
	for k := range dst {
		dst[k] = 0
	}
	for t, k := range c.Idx {
		dst[k] = c.Val[t]
	}
}

// Sum is the column total: the server's load.
func (c SparseCol) Sum() float64 {
	var l float64
	for _, v := range c.Val {
		l += v
	}
	return l
}

// Clone deep-copies the column.
func (c SparseCol) Clone() SparseCol {
	return SparseCol{
		Idx: append([]int32(nil), c.Idx...),
		Val: append([]float64(nil), c.Val...),
	}
}

// Message is the single wire format of the protocol; unused fields stay
// zero.
type Message struct {
	Kind MsgKind
	From int
	To   int

	// MsgGossip
	Table []GossipEntry
	Reply bool

	// MsgPropose: proposer's state.
	Col   SparseCol // r_k,From in coordinate form
	Lat   []float64 // proposer's latency row (== its latency column)
	Speed float64

	// MsgAccept: the proposer's new column after Algorithm 1, again in
	// coordinate form.
	NewCol SparseCol
}
