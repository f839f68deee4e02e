package descent

// The wire format of the control plane. Every cross-actor datum travels
// as one of three message kinds, encoded into a flat little-endian byte
// payload so (a) the measured bytes/round is the real wire volume, not a
// proxy, and (b) a socket transport can ship payloads verbatim (the
// Transport seam — see transport.go).
//
//   - prices: (server, load, speed) triples. Sent by the owner of a
//     server to exactly the actors that currently route requests to it —
//     the per-round volume is bounded by the allocation's nonzeros, never
//     by m².
//   - summary: per-metro aggregates — the best and second-best priced
//     servers of the metro plus the metro's total load. O(k) per actor
//     pair; this is what keeps the remote term of every gradient O(k).
//   - delta: sparse allocation deltas — only the coordinates a
//     projected step actually changed, each carrying its new absolute
//     value (0 = the row dropped the server). Absolute values rather
//     than increments keep the owner's column copy bit-identical to the
//     row (r + (x−r) ≠ x in floats; plain x is exact), which is what
//     makes "value == 0 ⇒ remove" sound. This retires the dense-column
//     exchange of internal/runtime for good: message volume is O(nnz),
//     independent of m². Payloads carry no ordering promise: the owner
//     folds each column's deltas in ascending row order, whatever order
//     and grouping they arrived in.
//
// Encoding is deliberately not gob: fixed-width little-endian fields make
// payload bytes a pure function of the values, so byte counts are
// deterministic and two runs of the same seed produce identical traffic.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

type msgKind byte

const (
	kindPrices  msgKind = 1
	kindSummary msgKind = 2
	kindDelta   msgKind = 3
	// kindEnvelope wraps any of the above with a per-(sender, receiver)
	// stream sequence number (carried in the count field). Only lossy
	// transports see envelopes — the Bus wire format is untouched, so
	// its byte counters stay comparable across releases.
	kindEnvelope msgKind = 4
	// kindResend asks the sender to retransmit the listed envelope
	// sequence numbers (one uint32 per entry). Sent raw (no envelope):
	// requests are idempotent, so they need no stream of their own.
	kindResend msgKind = 5
	// kindRefresh is the anti-entropy snapshot (delta entry layout): the
	// sender's complete (row, col, val) set for the receiver's columns.
	// NACK/retransmit gives up on a gap after a bounded number of
	// rounds, so a lost delta can leave an owner column stale
	// indefinitely; the periodic refresh overwrites stale values and —
	// because the snapshot is complete per (sender, receiver) — lets
	// the owner prune entries the sender's rows no longer hold.
	kindRefresh msgKind = 6
)

// header: kind(1) + from(4) + round(4) + count(4)
const headerBytes = 13

const (
	priceEntryBytes   = 4 + 8 + 8
	summaryEntryBytes = 4 + 4 + 8 + 8 + 4 + 8 + 8 + 8
	deltaEntryBytes   = 4 + 4 + 8
)

// priceEntry is one (server, load, speed) triple of a prices message.
type priceEntry struct {
	j           int32
	load, speed float64
}

// summaryEntry is one metro's aggregate: its two cheapest servers by
// congestion price (id −1 when the metro slice holds fewer servers) and
// the slice's total load.
type summaryEntry struct {
	metro                 int32
	best                  int32
	bestLoad, bestSpeed   float64
	second                int32
	secondLoad, secondSpd float64
	load                  float64
}

// deltaEntry is one changed allocation coordinate: the row's new
// absolute request volume on that server (0 = dropped).
type deltaEntry struct {
	row, col int32
	val      float64
}

// message is the decoded form of a payload.
type message struct {
	kind      msgKind
	from      int32
	round     int32
	prices    []priceEntry
	summaries []summaryEntry
	deltas    []deltaEntry
	seq       uint32   // envelope stream sequence (kindEnvelope)
	inner     []byte   // wrapped payload (kindEnvelope)
	resend    []uint32 // requested sequence numbers (kindResend)
}

func putHeader(buf []byte, kind msgKind, from, round, count int) []byte {
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(round))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	return buf
}

func encodePrices(from, round int, entries []priceEntry) []byte {
	buf := make([]byte, 0, headerBytes+len(entries)*priceEntryBytes)
	buf = putHeader(buf, kindPrices, from, round, len(entries))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.j))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.load))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.speed))
	}
	return buf
}

func encodeSummaries(from, round int, entries []summaryEntry) []byte {
	buf := make([]byte, 0, headerBytes+len(entries)*summaryEntryBytes)
	buf = putHeader(buf, kindSummary, from, round, len(entries))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.metro))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.best))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.bestLoad))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.bestSpeed))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.second))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.secondLoad))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.secondSpd))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.load))
	}
	return buf
}

func encodeDeltas(from, round int, entries []deltaEntry) []byte {
	return encodeDeltaKind(kindDelta, from, round, entries)
}

// encodeRefresh builds an anti-entropy snapshot payload — delta layout
// under kindRefresh.
func encodeRefresh(from, round int, entries []deltaEntry) []byte {
	return encodeDeltaKind(kindRefresh, from, round, entries)
}

func encodeDeltaKind(kind msgKind, from, round int, entries []deltaEntry) []byte {
	buf := make([]byte, 0, headerBytes+len(entries)*deltaEntryBytes)
	buf = putHeader(buf, kind, from, round, len(entries))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.row))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.col))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.val))
	}
	return buf
}

// encodeEnvelope wraps an encoded message with the sender's stream
// sequence number for dst (carried in the header's count field).
func encodeEnvelope(from, round int, seq uint32, inner []byte) []byte {
	buf := make([]byte, 0, headerBytes+len(inner))
	buf = putHeader(buf, kindEnvelope, from, round, int(seq))
	return append(buf, inner...)
}

// encodeResend builds a retransmit request for the given envelope
// sequence numbers (ascending by construction — see scanGaps).
func encodeResend(from, round int, seqs []uint32) []byte {
	buf := make([]byte, 0, headerBytes+4*len(seqs))
	buf = putHeader(buf, kindResend, from, round, len(seqs))
	for _, s := range seqs {
		buf = binary.LittleEndian.AppendUint32(buf, s)
	}
	return buf
}

func decodeMessage(payload []byte) (message, error) {
	var m message
	err := m.decodeAppend(payload)
	return m, err
}

// decodeAppend parses payload into m, appending its entries to m's entry
// slices instead of replacing them, so a caller can decode into reused
// scratch, or straight onto a batch it is filling: this payload's
// entries are each slice's tail past its prior length. A malformed
// payload returns an error before anything is appended.
func (m *message) decodeAppend(payload []byte) error {
	body, count, err := m.decodeHeader(payload)
	if err != nil {
		return err
	}
	switch m.kind {
	case kindPrices:
		m.prices = slices.Grow(m.prices, count)
		for off := 0; off < len(body); off += priceEntryBytes {
			m.prices = append(m.prices, priceAt(body, off))
		}
	case kindSummary:
		m.summaries = slices.Grow(m.summaries, count)
		for off := 0; off < len(body); off += summaryEntryBytes {
			m.summaries = append(m.summaries, summaryEntry{
				metro:      int32(binary.LittleEndian.Uint32(body[off:])),
				best:       int32(binary.LittleEndian.Uint32(body[off+4:])),
				bestLoad:   math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:])),
				bestSpeed:  math.Float64frombits(binary.LittleEndian.Uint64(body[off+16:])),
				second:     int32(binary.LittleEndian.Uint32(body[off+24:])),
				secondLoad: math.Float64frombits(binary.LittleEndian.Uint64(body[off+28:])),
				secondSpd:  math.Float64frombits(binary.LittleEndian.Uint64(body[off+36:])),
				load:       math.Float64frombits(binary.LittleEndian.Uint64(body[off+44:])),
			})
		}
	case kindDelta, kindRefresh:
		m.deltas = slices.Grow(m.deltas, count)
		for off := 0; off < len(body); off += deltaEntryBytes {
			m.deltas = append(m.deltas, deltaEntry{
				row: int32(binary.LittleEndian.Uint32(body[off:])),
				col: int32(binary.LittleEndian.Uint32(body[off+4:])),
				val: math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:])),
			})
		}
	case kindEnvelope:
		m.seq = uint32(count)
		m.inner = body
	case kindResend:
		m.resend = slices.Grow(m.resend, count)
		for off := 0; off < len(body); off += 4 {
			m.resend = append(m.resend, binary.LittleEndian.Uint32(body[off:]))
		}
	}
	return nil
}

// decodeHeader parses payload's header into m and checks the body's
// length against the kind's entry size, returning the body and the
// header's count field.
func (m *message) decodeHeader(payload []byte) ([]byte, int, error) {
	if len(payload) < headerBytes {
		return nil, 0, fmt.Errorf("descent: payload of %d bytes is shorter than the header", len(payload))
	}
	m.kind = msgKind(payload[0])
	m.from = int32(binary.LittleEndian.Uint32(payload[1:]))
	m.round = int32(binary.LittleEndian.Uint32(payload[5:]))
	count := int(binary.LittleEndian.Uint32(payload[9:]))
	body := payload[headerBytes:]
	var what string
	var size int
	switch m.kind {
	case kindPrices:
		what, size = "prices", priceEntryBytes
	case kindSummary:
		what, size = "summary", summaryEntryBytes
	case kindDelta, kindRefresh:
		what, size = "delta", deltaEntryBytes
	case kindEnvelope:
		return body, count, nil
	case kindResend:
		what, size = "resend", 4
	default:
		return nil, 0, fmt.Errorf("descent: unknown message kind %d", m.kind)
	}
	if len(body) != count*size {
		return nil, 0, fmt.Errorf("descent: %s payload has %d body bytes, want %d", what, len(body), count*size)
	}
	return body, count, nil
}

// priceAt decodes the prices entry at byte offset off of a body.
func priceAt(body []byte, off int) priceEntry {
	return priceEntry{
		j:     int32(binary.LittleEndian.Uint32(body[off:])),
		load:  math.Float64frombits(binary.LittleEndian.Uint64(body[off+4:])),
		speed: math.Float64frombits(binary.LittleEndian.Uint64(body[off+12:])),
	}
}
