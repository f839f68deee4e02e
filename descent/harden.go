package descent

// The recovery protocol — the actor-side half of the WAN story
// (faultnet.go is the injector half). On the reliable Bus none of this
// exists: every payload arrives exactly once, in the round it was
// sent, well-formed. A lossy transport (Transport.Lossy() == true)
// breaks all three guarantees, and the plane hardens its seams:
//
//   - framing: every outbound payload is wrapped in a kindEnvelope
//     carrying a per-(sender, receiver) sequence number. Duplicates —
//     injected or retransmitted — are suppressed idempotently;
//   - staleness: prices and summaries carry their round and only ever
//     move the caches forward; delta application is tagged per
//     (col, row) coordinate, so an old delta arriving after a newer
//     one is rejected rather than rewinding the owner's column;
//   - gaps: at each apply barrier the receiver scans its streams for
//     missing sequence numbers. A gap older than one round is NACKed
//     (kindResend) at the next publish; the sender replays the
//     buffered envelope verbatim. A gap that stays open giveUpRounds
//     rounds is abandoned (counted as unrecovered) so one lost-forever
//     payload cannot stall the stream bookkeeping;
//   - garbage: every decoded message is validated against the attached
//     topology (validateMessage) — out-of-range indices, non-finite
//     values and forged ownership are counted and dropped instead of
//     panicking deep in the apply path.
//
// Losing a delta never corrupts feasibility: rows are the ground truth
// (observeCost and Allocation read only rows), and a lost delta merely
// leaves the owner's column — prices, subscriptions — stale until the
// retransmit lands or churn rebuilds columns from rows.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// sentRec is one retransmittable envelope in the sender's buffer.
type sentRec struct {
	round int32
	data  []byte
}

// recvState tracks one (sender → this actor) envelope stream.
type recvState struct {
	contig   uint32           // every seq <= contig is settled
	maxSeen  uint32           // highest seq ever observed
	seen     map[uint32]bool  // settled seqs above contig
	missedAt map[uint32]int32 // open gap -> round first noticed
}

// settle records seq as received (or abandoned) and advances the
// contiguous frontier.
func (st *recvState) settle(seq uint32) {
	st.seen[seq] = true
	if seq > st.maxSeen {
		st.maxSeen = seq
	}
	delete(st.missedAt, seq)
	for st.seen[st.contig+1] {
		st.contig++
		delete(st.seen, st.contig)
	}
}

// refreshSnap is one sender's pending anti-entropy snapshot: the
// complete coordinate set its rows hold on this actor's columns.
type refreshSnap struct {
	round int32
	ok    bool
	pairs map[int64]bool // coordKey(col, row)
}

// coordKey packs one (col, row) coordinate for the round-tag and
// snapshot maps.
func coordKey(col, row int32) int64 {
	return int64(col)<<32 | int64(uint32(row))
}

// summaryState is the freshest summary received from one actor.
type summaryState struct {
	round   int32
	ok      bool
	entries []summaryEntry
}

// taggedDelta is a delta entry with its sender's round, for the
// per-coordinate staleness check.
type taggedDelta struct {
	d     deltaEntry
	round int32
}

const (
	// giveUpRounds bounds how long a receiver keeps NACKing an open gap
	// before abandoning it; sentWindow (> giveUpRounds) bounds the
	// sender's retransmit buffer.
	giveUpRounds = 8
	sentWindow   = 16
	// nackCap bounds one round's retransmit requests per stream.
	nackCap = 256
	// maxSeqAhead bounds how far past the contiguous frontier an
	// envelope seq may claim to be. Honest streams advance a handful of
	// seqs per round; a corrupted count field claiming seq 2³¹ must not
	// stretch the gap scan to that width.
	maxSeqAhead = 1 << 12
	// refreshRounds is the anti-entropy period: every that many rounds
	// each actor re-announces its rows' full coordinate sets, bounding
	// how long an abandoned gap can keep an owner column stale.
	refreshRounds = 16
)

// hardInit allocates the hardened per-actor state. Called from derive,
// so churn resets every stream — exactly like a real peer restarting
// with a new topology epoch.
func (a *actor) hardInit(shards int) {
	a.hardSeq = make([]uint32, shards)
	a.hardSent = make([]map[uint32]sentRec, shards)
	a.hardRecv = make([]recvState, shards)
	for d := 0; d < shards; d++ {
		a.hardSeq[d] = 1
		a.hardSent[d] = make(map[uint32]sentRec)
		a.hardRecv[d] = recvState{seen: make(map[uint32]bool), missedAt: make(map[uint32]int32)}
	}
	a.priceRnd = make(map[int32]int32)
	a.lastSum = make([]summaryState, shards)
	a.nackOut = make([][]uint32, shards)
	a.colRnd = make(map[int64]int32)
	a.refreshIn = make([]refreshSnap, shards)
}

// refreshRows broadcasts the anti-entropy snapshot: every coordinate of
// every owned row, grouped by owning peer, with an (often empty)
// payload to every remote peer so receivers can prune their columns
// against a snapshot they know is complete for this sender. Local
// columns are skipped — pendingLocal never crosses the transport, so
// they cannot desync.
func (a *actor) refreshRows(round int) {
	p := a.pl
	out := make([][]deltaEntry, p.shards)
	for _, i := range a.own {
		row := a.rows[i]
		for t, j := range row.idx {
			if dst := int(p.owner[j]); dst != a.id {
				out[dst] = append(out[dst], deltaEntry{row: i, col: j, val: row.val[t]})
			}
		}
	}
	for dst := 0; dst < p.shards; dst++ {
		if dst != a.id {
			a.send(dst, encodeRefresh(a.id, round, out[dst]))
		}
	}
}

// pruneSent drops retransmit buffers older than the window.
func (a *actor) pruneSent(round int32) {
	for dst := range a.hardSent {
		for seq, rec := range a.hardSent[dst] {
			if round-rec.round > sentWindow {
				delete(a.hardSent[dst], seq)
			}
		}
	}
}

// sendNacks emits the retransmit requests computed at the previous
// apply barrier. Requests ride outside the envelope streams — they are
// idempotent, and a lost NACK is simply re-issued next round.
func (a *actor) sendNacks(round int) {
	for src := range a.nackOut {
		if seqs := a.nackOut[src]; len(seqs) > 0 {
			a.nacksSent += int64(len(seqs))
			a.raw(src, encodeResend(a.id, round, seqs))
			a.nackOut[src] = nil
		}
	}
}

// ingest drains the inbox and routes every payload through the full
// unwrap → dedup → decode → validate → dispatch pipeline. It runs at
// both the step and apply barriers: whatever a phase does not consume
// lands in a cache or pend list for the phase that does.
func (a *actor) ingest(round int32) {
	msgs := a.drain()
	for _, payload := range msgs {
		a.ingestOne(payload, round)
	}
	a.recycle(msgs)
}

func (a *actor) ingestOne(payload []byte, round int32) {
	p := a.pl
	m, err := decodeMessage(payload)
	if err != nil {
		a.invalidDropped++
		return
	}
	var st *recvState
	var seq uint32
	if m.kind == kindEnvelope {
		if m.from < 0 || int(m.from) >= p.shards {
			a.invalidDropped++
			return
		}
		st = &a.hardRecv[m.from]
		seq = m.seq
		if seq == 0 || seq <= st.contig || st.seen[seq] {
			a.dupsDropped++
			return
		}
		if seq > st.contig+maxSeqAhead {
			a.invalidDropped++
			return
		}
		inner, err := decodeMessage(m.inner)
		if err != nil {
			// Do not settle the seq: the bytes were corrupted in flight,
			// and a retransmit of the same stream slot may arrive clean.
			a.invalidDropped++
			return
		}
		m = inner
	}
	if err := a.validateMessage(&m); err != nil {
		a.invalidDropped++
		return
	}
	if st != nil {
		st.settle(seq)
	}
	switch m.kind {
	case kindPrices:
		for _, e := range m.prices {
			if rnd, ok := a.priceRnd[e.j]; ok && m.round < rnd {
				a.staleDropped++
				continue
			}
			a.price[e.j] = loadSpeed{load: e.load, speed: e.speed}
			a.priceRnd[e.j] = m.round
		}
	case kindSummary:
		ls := &a.lastSum[m.from]
		if ls.ok && m.round < ls.round {
			a.staleDropped++
			return
		}
		ls.round, ls.ok = m.round, true
		ls.entries = append(ls.entries[:0], m.summaries...)
	case kindDelta:
		for _, d := range m.deltas {
			a.deltaPend = append(a.deltaPend, taggedDelta{d: d, round: m.round})
		}
	case kindRefresh:
		rs := &a.refreshIn[m.from]
		if rs.ok && m.round < rs.round {
			a.staleDropped++
			return
		}
		if !rs.ok || m.round > rs.round {
			*rs = refreshSnap{round: m.round, ok: true, pairs: make(map[int64]bool, len(m.deltas))}
		}
		for _, d := range m.deltas {
			rs.pairs[coordKey(d.col, d.row)] = true
			a.deltaPend = append(a.deltaPend, taggedDelta{d: d, round: m.round})
		}
	case kindResend:
		// Serve the peer's retransmit request: replay the buffered
		// envelopes verbatim — original round and seq intact, so the
		// requester's dedup stays sound if the original shows up late.
		for _, want := range m.resend {
			if rec, ok := a.hardSent[m.from][want]; ok {
				a.resendsServed++
				a.raw(int(m.from), rec.data)
			}
		}
	case kindEnvelope:
		// An envelope inside an envelope is nothing the plane sends.
		a.invalidDropped++
	}
}

// mergeSummariesHard folds the last-known summary of every peer (not
// just this round's — under loss the freshest survivor is the best
// available information) together with the actor's own partial.
func (a *actor) mergeSummariesHard() {
	a.sums = a.sums[:0]
	for src := range a.lastSum {
		if st := &a.lastSum[src]; st.ok {
			a.sums = append(a.sums, st.entries...)
		}
	}
	a.mergeSummaries(a.sums)
}

// applyHard is the hardened phase 3: ingest late arrivals, fold the
// round-tagged deltas in canonical (row, col, round) order with
// per-coordinate staleness rejection, then scan the streams for gaps.
// The fold is per delta, not per column: staleness is judged per
// coordinate, and one coordinate may carry several rounds' values.
func (a *actor) applyHard(round int) {
	p := a.pl
	a.ingest(int32(round))
	for _, d := range a.pendingLocal {
		a.deltaPend = append(a.deltaPend, taggedDelta{d: d, round: int32(round)})
	}
	a.pendingLocal = a.pendingLocal[:0]
	sortTagged(a.deltaPend)
	for _, td := range a.deltaPend {
		if c := td.d.col; c < 0 || int(c) >= len(a.cols) || p.owner[c] != int32(a.id) {
			a.invalidDropped++
			continue
		}
		col := a.cols[td.d.col]
		key := coordKey(td.d.col, td.d.row)
		if prev, ok := a.colRnd[key]; ok && td.round < prev {
			a.staleDropped++
			continue
		}
		a.colRnd[key] = td.round
		var old float64
		t, held := col.find(td.d.row)
		if held {
			old = col.val[t]
		}
		col.set(td.d.row, td.d.val)
		switch s := p.slot[td.d.col]; {
		case held && td.d.val == 0:
			a.unsubscribe(s, td.d.row)
		case !held && td.d.val != 0:
			a.subscribe(s, td.d.row)
		}
		a.load[td.d.col] += td.d.val - old
	}
	a.deltaPend = a.deltaPend[:0]
	a.pruneFromSnapshots()
	a.scanGaps(int32(round))
}

// pruneFromSnapshots removes column entries a pending anti-entropy
// snapshot proves stale: the snapshot is complete per sender, so an
// entry from a refreshed sender that the snapshot does not mention —
// and that no newer delta has touched — is a removal whose delta was
// lost past the retransmit window.
func (a *actor) pruneFromSnapshots() {
	p := a.pl
	any := false
	for src := range a.refreshIn {
		if a.refreshIn[src].ok {
			any = true
			break
		}
	}
	if !any {
		return
	}
	var rm []int32
	for s, j := range a.own {
		col := a.cols[j]
		rm = rm[:0]
		for _, i := range col.idx {
			rs := &a.refreshIn[p.owner[i]]
			if !rs.ok {
				continue
			}
			key := coordKey(j, i)
			if rs.pairs[key] {
				continue
			}
			if tag, ok := a.colRnd[key]; ok && tag > rs.round {
				continue // touched after the snapshot was taken
			}
			rm = append(rm, i)
		}
		for _, i := range rm {
			old := col.get(i)
			col.set(i, 0)
			a.unsubscribe(int32(s), i)
			a.load[j] -= old
			a.colRnd[coordKey(j, i)] = a.refreshIn[p.owner[i]].round
		}
	}
	for src := range a.refreshIn {
		a.refreshIn[src] = refreshSnap{}
	}
}

// scanGaps inspects every receive stream at the apply barrier. A seq
// missing for the first time gets a grace round (it may merely be
// delayed); one still missing next barrier is NACKed; one open for
// giveUpRounds is abandoned so the stream can advance.
func (a *actor) scanGaps(round int32) {
	for src := range a.hardRecv {
		st := &a.hardRecv[src]
		var want, abandon []uint32
		for s := st.contig + 1; s <= st.maxSeen; s++ {
			if st.seen[s] {
				continue
			}
			first, ok := st.missedAt[s]
			if !ok {
				st.missedAt[s] = round
				continue
			}
			if round-first >= giveUpRounds {
				abandon = append(abandon, s)
				continue
			}
			if len(want) < nackCap {
				want = append(want, s)
			}
		}
		for _, s := range abandon {
			a.unrecovered++
			st.settle(s)
		}
		a.nackOut[src] = want
	}
}

// validateMessage bounds-checks a decoded message against the attached
// topology: index ranges, finiteness, and ownership (prices must come
// from the server's owner, summaries from the metro's owner). On the
// reliable Bus a failure is a bug and fatal; on a lossy transport it
// is Byzantine input, counted and dropped by the caller.
func (a *actor) validateMessage(msg *message) error {
	p := a.pl
	m := int32(p.in.M())
	if msg.from < 0 || int(msg.from) >= p.shards {
		return fmt.Errorf("descent: message from actor %d, plane has %d", msg.from, p.shards)
	}
	if msg.round < 0 || int(msg.round) > p.round {
		return fmt.Errorf("descent: message round %d outside [0, %d]", msg.round, p.round)
	}
	switch msg.kind {
	case kindPrices:
		for _, e := range msg.prices {
			if err := a.checkPrice(msg.from, e); err != nil {
				return err
			}
		}
	case kindSummary:
		if !p.block {
			return fmt.Errorf("descent: summary message on a non-block instance")
		}
		for _, e := range msg.summaries {
			if e.metro < 0 || int(e.metro) >= p.k {
				return fmt.Errorf("descent: summary for metro %d, instance has %d", e.metro, p.k)
			}
			if int(e.metro)%p.shards != int(msg.from) {
				return fmt.Errorf("descent: summary for metro %d from actor %d, owner is %d", e.metro, msg.from, int(e.metro)%p.shards)
			}
			for _, c := range [2]struct {
				id          int32
				load, speed float64
			}{{e.best, e.bestLoad, e.bestSpeed}, {e.second, e.secondLoad, e.secondSpd}} {
				if c.id < -1 || c.id >= m {
					return fmt.Errorf("descent: summary candidate %d, fleet has %d", c.id, m)
				}
				if c.id >= 0 && (!finiteF(c.load) || !(c.speed > 0) || !finiteF(c.speed)) {
					return fmt.Errorf("descent: summary candidate %d has load=%v speed=%v", c.id, c.load, c.speed)
				}
			}
			if !finiteF(e.load) {
				return fmt.Errorf("descent: summary metro %d load %v", e.metro, e.load)
			}
		}
	case kindDelta, kindRefresh:
		for _, d := range msg.deltas {
			if d.row < 0 || d.row >= m || d.col < 0 || d.col >= m {
				return fmt.Errorf("descent: delta (%d, %d) out of range, fleet has %d", d.row, d.col, m)
			}
			if p.owner[d.col] != int32(a.id) {
				return fmt.Errorf("descent: delta for server %d delivered to actor %d, owner is %d", d.col, a.id, p.owner[d.col])
			}
			if p.owner[d.row] != msg.from {
				return fmt.Errorf("descent: delta for row %d from actor %d, owner is %d", d.row, msg.from, p.owner[d.row])
			}
			if !(d.val >= 0) || !finiteF(d.val) {
				return fmt.Errorf("descent: delta (%d, %d) value %v", d.row, d.col, d.val)
			}
		}
	case kindResend:
		// Sequence numbers need no range: unknown ones simply miss the
		// retransmit buffer.
	default:
		return fmt.Errorf("descent: unexpected message kind %d", msg.kind)
	}
	return nil
}

// checkPrice is validateMessage's check of one prices entry from actor
// from.
func (a *actor) checkPrice(from int32, e priceEntry) error {
	p := a.pl
	if e.j < 0 || int(e.j) >= p.in.M() {
		return fmt.Errorf("descent: price for server %d, fleet has %d", e.j, p.in.M())
	}
	if p.owner[e.j] != from {
		return fmt.Errorf("descent: price for server %d from actor %d, owner is %d", e.j, from, p.owner[e.j])
	}
	// Loads are maintained by incremental delta folds, so honest values
	// can carry ±1e-14 float dust below zero — only non-finite values
	// are rejected.
	if !finiteF(e.load) || !(e.speed > 0) || !finiteF(e.speed) {
		return fmt.Errorf("descent: price for server %d has load=%v speed=%v", e.j, e.load, e.speed)
	}
	return nil
}

func finiteF(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// sortTagged orders tagged deltas by (row, col, round): each column
// folds in ascending row order, with multiple rounds of the same
// coordinate applied oldest first so the newest value wins under the >=
// staleness rule.
func sortTagged(entries []taggedDelta) {
	slices.SortFunc(entries, func(x, y taggedDelta) int {
		if x.d.row != y.d.row {
			return cmp.Compare(x.d.row, y.d.row)
		}
		if x.d.col != y.d.col {
			return cmp.Compare(x.d.col, y.d.col)
		}
		return cmp.Compare(x.round, y.round)
	})
}

// seedCandidatePrices fills price-cache holes from the merged metro
// candidates: under loss a row can hold mass on a server whose price
// payload vanished, and a summary naming that server is the freshest
// substitute. Entries are seeded without a round tag, so any real price
// message supersedes them.
func (a *actor) seedCandidatePrices() {
	p := a.pl
	for g := range a.cand1 {
		for _, c := range [2]candidate{a.cand1[g], a.cand2[g]} {
			if c.id < 0 || p.owner[c.id] == int32(a.id) {
				continue
			}
			if _, ok := a.price[c.id]; !ok {
				a.price[c.id] = loadSpeed{load: c.load, speed: c.speed}
			}
		}
	}
}
