package runtime

import (
	"math"
	"math/rand"

	"delaylb/internal/core"
)

// Server is one node of the distributed load balancer. All state is
// private to the node: its column of the allocation (who executes on it),
// its latency row, and gossiped knowledge about the other servers. It
// must only be driven from a single goroutine.
type Server struct {
	ID int

	speed  float64
	latRow []float64 // c_{ID,k}; assumed symmetric so it doubles as c_{k,ID}
	col    SparseCol // requests of each organization executing here

	table   []GossipEntry // local view of everyone's (load, speed)
	version uint64        // own announcement version

	minGain float64
	rng     *rand.Rand

	// scratch buffers for Algorithm 1, which works on dense columns:
	// sparse columns are unpacked into ri/rj around the call and packed
	// back after. The dense form never crosses the wire.
	order []int
	keys  []float64
	ri    []float64
	rj    []float64
}

// NewServer creates a node. col is the server's initial column (e.g. the
// identity allocation: own load on itself); latRow must be the symmetric
// latency row of the node. minGain is the improvement threshold below
// which no proposal is sent.
func NewServer(id, m int, speed float64, latRow, col []float64, minGain float64, rng *rand.Rand) *Server {
	s := &Server{
		ID:      id,
		speed:   speed,
		latRow:  append([]float64(nil), latRow...),
		col:     PackCol(col),
		table:   make([]GossipEntry, m),
		minGain: minGain,
		rng:     rng,
		order:   make([]int, m),
		keys:    make([]float64, m),
		ri:      make([]float64, m),
		rj:      make([]float64, m),
	}
	s.announce()
	return s
}

// load is the server's true current load: the sum of its column.
func (s *Server) load() float64 {
	return s.col.Sum()
}

// announce refreshes the server's own gossip entry.
func (s *Server) announce() {
	s.version++
	s.table[s.ID] = GossipEntry{
		Origin:  s.ID,
		Load:    s.load(),
		Speed:   s.speed,
		Version: s.version,
		Known:   true,
	}
}

// Handle processes one message and returns the messages to send.
func (s *Server) Handle(msg Message) []Message {
	switch msg.Kind {
	case MsgTick:
		return s.onTick()
	case MsgGossip:
		return s.onGossip(msg)
	case MsgPropose:
		return s.onPropose(msg)
	case MsgAccept:
		return s.onAccept(msg)
	default:
		return nil
	}
}

func (s *Server) onTick() []Message {
	s.announce()
	var out []Message
	m := len(s.table)
	// Push–pull gossip with one random peer.
	if peer := s.rng.Intn(m); peer != s.ID {
		out = append(out, Message{
			Kind:  MsgGossip,
			From:  s.ID,
			To:    peer,
			Table: append([]GossipEntry(nil), s.table...),
			Reply: true,
		})
	}
	partner := s.bestPartner()
	if partner < 0 {
		// No partner looks profitable through the load-only proxy. Third-
		// party rerouting gains (invisible to the proxy) may remain, and
		// Algorithm 1 never makes things worse, so explore: propose to a
		// random reachable peer. This makes the steady state randomized
		// pairwise balancing, whose fixed point is pairwise stability —
		// the global optimum (§IV-A).
		cand := s.rng.Intn(m)
		if cand != s.ID && !math.IsInf(s.latRow[cand], 1) {
			partner = cand
		}
	}
	if partner >= 0 {
		out = append(out, Message{
			Kind:  MsgPropose,
			From:  s.ID,
			To:    partner,
			Col:   s.col.Clone(),
			Lat:   append([]float64(nil), s.latRow...),
			Speed: s.speed,
		})
	}
	return out
}

// bestPartner scores all peers with core.ProxyGain over gossiped loads
// and speeds (see core.StrategyProxy) and returns the best, or −1 when
// no transfer looks profitable. The latency row is symmetric, so c_{ID,j}
// prices both directions.
func (s *Server) bestPartner() int {
	li := s.load()
	bestJ, bestGain := -1, s.minGain
	for j, e := range s.table {
		if j == s.ID || !e.Known || math.IsInf(s.latRow[j], 1) {
			continue
		}
		if gain := core.ProxyGain(s.speed, e.Speed, li, e.Load, s.latRow[j], s.latRow[j]); gain > bestGain {
			bestGain, bestJ = gain, j
		}
	}
	return bestJ
}

func (s *Server) onGossip(msg Message) []Message {
	for _, e := range msg.Table {
		if !e.Known || e.Origin < 0 || e.Origin >= len(s.table) || e.Origin == s.ID {
			continue
		}
		if cur := s.table[e.Origin]; !cur.Known || cur.Version < e.Version {
			s.table[e.Origin] = e
		}
	}
	if msg.Reply {
		return []Message{{
			Kind:  MsgGossip,
			From:  s.ID,
			To:    msg.From,
			Table: append([]GossipEntry(nil), s.table...),
		}}
	}
	return nil
}

// onPropose runs Algorithm 1 between the proposer (acting as "server i")
// and this node ("server j"), adopts its own new column and ships the
// proposer's new column back.
func (s *Server) onPropose(msg Message) []Message {
	// Densify both sparse columns into scratch for Algorithm 1: it sees
	// exactly the vectors the dense wire used to carry (packing drops
	// exact zeros only), so the exchange is bit-identical to the old
	// protocol while the wire stays O(nnz).
	msg.Col.UnpackInto(s.ri)
	s.col.UnpackInto(s.rj)
	core.BalanceColumns(msg.Speed, s.speed, s.ri, s.rj, msg.Lat, s.latRow, s.order, s.keys)
	newMine := PackCol(s.rj)
	newTheirs := PackCol(s.ri)
	s.col = newMine
	s.announce()
	// Track the proposer's new load in the local table.
	li := newTheirs.Sum()
	if e := &s.table[msg.From]; e.Known {
		e.Load = li
		e.Version++
	} else {
		*e = GossipEntry{Origin: msg.From, Load: li, Speed: msg.Speed, Version: 1, Known: true}
	}
	return []Message{{Kind: MsgAccept, From: s.ID, To: msg.From, NewCol: newTheirs}}
}

// onAccept adopts the proposer's new column. The bus completes each
// exchange before another server acts, so every accept answers the
// server's own latest proposal.
func (s *Server) onAccept(msg Message) []Message {
	// The acceptor packed this column fresh and keeps no reference;
	// adopt it without copying.
	s.col = msg.NewCol
	s.announce()
	return nil
}
