package descent

// One actor owns a contiguous-by-metro slice of servers and, with them,
// the allocation rows of the organizations homed there (row i and
// server i are the same org by the paper's model, so ownership of both
// coincides). An actor holds:
//
//   - rows: its orgs' allocation rows (sorted sparse vectors, request
//     units — row i sums to Load[i]);
//   - cols: for each owned server, the per-row contributions currently
//     routed to it. Columns mirror rows exactly (bit-identical floats)
//     because delta messages carry absolute values;
//   - subs: the subscription index — for each owned server, the peer
//     actors whose rows use it, each with its row count, in one list
//     sorted by (server, peer). It changes only where a column entry
//     appears or disappears (foldColumn, applyHard, pruneFromSnapshots,
//     and derive's counting pass), so publish walks the subscriptions,
//     not every column entry;
//   - load: each owned server's total load, maintained incrementally by
//     folding each column's deltas in ascending row order;
//   - price: last-received (load, speed) for every remote server the
//     actor's rows currently use.
//
// rows, cols and load are plane-wide slices indexed by global server
// (= org) index, allocated once per reshard and shared by every actor.
// An actor reads and writes only the entries of the servers it owns,
// so concurrent phases touch disjoint indices; price is a private map
// sized by the actor's subscriptions, not by m.
//
// Rounds are bulk-synchronous with three phases, barriered by the
// plane (publish → step → apply). Every row step reads only state
// published at the start of the round, so the computation per row is a
// pure function of global round state — which actor runs it is
// irrelevant. That is the whole determinism story: sharding changes
// the partition of work and messages, never the numbers.

import (
	"cmp"
	"slices"
	"sync"
)

// vec is a sorted sparse vector: parallel (idx, val) with idx strictly
// increasing. Values are exact — no epsilon pruning; a coordinate
// leaves only when its value is exactly 0.
type vec struct {
	idx []int32
	val []float64
}

func (v *vec) find(j int32) (int, bool) {
	return slices.BinarySearch(v.idx, j)
}

func (v *vec) get(j int32) float64 {
	if t, ok := v.find(j); ok {
		return v.val[t]
	}
	return 0
}

// set writes coordinate j to x, inserting or removing as needed.
func (v *vec) set(j int32, x float64) {
	t, ok := v.find(j)
	switch {
	case ok && x == 0:
		v.idx = append(v.idx[:t], v.idx[t+1:]...)
		v.val = append(v.val[:t], v.val[t+1:]...)
	case ok:
		v.val[t] = x
	case x != 0:
		v.idx = append(v.idx, 0)
		copy(v.idx[t+1:], v.idx[t:])
		v.idx[t] = j
		v.val = append(v.val, 0)
		copy(v.val[t+1:], v.val[t:])
		v.val[t] = x
	}
}

type loadSpeed struct{ load, speed float64 }

// candidate is one merged metro-level offer: a server id with the
// start-of-round load and speed its owner vouched for.
type candidate struct {
	id          int32
	load, speed float64
	price       float64
}

// subscription is one entry of the subscription index: a peer actor
// whose rows use an owned server (by its position in own), and how many
// of its rows do.
type subscription struct {
	slot, dst int32
	rows      int32
}

type actor struct {
	pl  *Plane
	id  int
	own []int32 // owned server indices, ascending

	rows  []*vec              // org row per org (plane-wide, shared)
	cols  []*vec              // per-row contributions per server (shared)
	load  []float64           // total load per server (shared)
	price map[int32]loadSpeed // cache of remote server prices
	subs  []subscription      // subscription index, sorted by (slot, dst)

	byMetro [][]int32 // owned servers grouped by metro (block mode)

	inMu  sync.Mutex
	inbox [][]byte
	spare [][]byte // a drained inbox's backing array, for the next drain

	// Round-local state, reset by publish.
	pendingLocal []deltaEntry
	deferred     [][]byte
	sentBytes    int64
	sentMsgs     int64
	moved        float64
	stepped      int

	// Per-kind traffic tallies (indexed by wire kind byte, envelopes
	// unwrapped — see tallyKind). Plain round-local int64s kept always
	// on: two integer adds per payload, no allocation, no output
	// change; observe folds them into the obs scope when one is set.
	kindMsgs  [8]int64
	kindBytes [8]int64

	// Reusable buffers.
	outPrices [][]priceEntry
	outDeltas [][]deltaEntry
	subAt     []int32 // per peer actor: its entry for the server being indexed, +1 (derive)
	partial   []summaryEntry
	sums      []summaryEntry // every summary received this round (step)
	cand1     []candidate
	cand2     []candidate
	shared    [][]sharedCand // per home metro: the keyed candidates, in scan order
	ws        []wsEntry
	wsStamp   []int32 // per server: the stamp of the last row step whose ws holds it
	stamp     int32
	scratch   stepScratch
	extra     []rowEntry // frozen and candidate coordinates of a rebuilt row
	frozenIdx []int32
	frozenVal []float64
	batch     []deltaEntry
	byCol     []deltaEntry // batch bucketed by owned column (apply)
	colEnd    []int32      // bucket bounds per own slot (apply)
	colIdx    []int32      // column merge output (apply)
	colVal    []float64

	// Hardened-transport state (harden.go), allocated by hardInit only
	// when the plane runs over a lossy transport.
	curRound  int                  // round of the current publish, for envelope headers
	hardSeq   []uint32             // next envelope seq per destination stream
	hardSent  []map[uint32]sentRec // retransmit buffer per destination
	hardRecv  []recvState          // receive stream per source
	priceRnd  map[int32]int32      // round of each cached price
	lastSum   []summaryState       // freshest summary per source
	deltaPend []taggedDelta        // round-tagged deltas awaiting apply
	nackOut   [][]uint32           // retransmit requests per source, for next publish
	colRnd    map[int64]int32      // per (col, row) round of the applied value
	refreshIn []refreshSnap        // pending anti-entropy snapshots per source

	// Round-local recovery counters, reset by publish.
	dupsDropped    int64
	staleDropped   int64
	invalidDropped int64
	nacksSent      int64
	resendsServed  int64
	unrecovered    int64
}

func (a *actor) enqueue(payload []byte) {
	a.inMu.Lock()
	a.inbox = append(a.inbox, payload)
	a.inMu.Unlock()
}

// drain takes the inbox, leaving the spare backing array to collect
// what arrives next; recycle hands a drained inbox back once its
// payloads are consumed, so inboxes keep their capacity across rounds.
// Only the actor's own phase calls either, so spare needs no lock.
func (a *actor) drain() [][]byte {
	a.inMu.Lock()
	msgs := a.inbox
	a.inbox, a.spare = a.spare, nil
	a.inMu.Unlock()
	return msgs
}

func (a *actor) recycle(msgs [][]byte) {
	clear(msgs)
	a.spare = msgs[:0]
}

// send ships one logical message. On a lossy transport it is wrapped in
// a kindEnvelope with the destination stream's next sequence number and
// buffered for retransmission; on the Bus the payload goes out verbatim
// (the Bus wire format — and with it the byte counters — is unchanged).
func (a *actor) send(dst int, payload []byte) {
	if a.pl.harden {
		seq := a.hardSeq[dst]
		a.hardSeq[dst]++
		env := encodeEnvelope(a.id, a.curRound, seq, payload)
		a.hardSent[dst][seq] = sentRec{round: int32(a.curRound), data: env}
		a.raw(dst, env)
		return
	}
	a.raw(dst, payload)
}

// raw ships payload without envelope framing: Bus traffic, NACKs, and
// retransmits (which replay their original envelope verbatim).
func (a *actor) raw(dst int, payload []byte) {
	a.sentBytes += int64(len(payload))
	a.sentMsgs++
	k := tallyKind(payload)
	a.kindMsgs[k]++
	a.kindBytes[k] += int64(len(payload))
	a.pl.tr.Send(dst, payload)
}

// publish is phase 1: push start-of-round prices to subscribers and, in
// block mode, the actor's partial metro summaries to everyone.
func (a *actor) publish(round int) {
	p := a.pl
	a.sentBytes, a.sentMsgs, a.moved, a.stepped = 0, 0, 0, 0
	a.kindMsgs = [8]int64{}
	a.kindBytes = [8]int64{}
	if p.harden {
		a.curRound = round
		a.dupsDropped, a.staleDropped, a.invalidDropped = 0, 0, 0
		a.nacksSent, a.resendsServed, a.unrecovered = 0, 0, 0
		a.pruneSent(int32(round))
		a.sendNacks(round)
	}
	a.collectPrices()
	if p.block {
		a.publishSummaries(round)
	}
	for dst := 0; dst < p.shards; dst++ {
		if len(a.outPrices[dst]) > 0 {
			a.send(dst, encodePrices(a.id, round, a.outPrices[dst]))
		}
	}
}

// collectPrices fills outPrices with each destination's start-of-round
// price entries. In block mode server j's price goes to the owners of
// exactly the rows in its column — its subscribers. The outer loop is
// ascending in j, so every per-destination payload lists servers in
// ascending order — a canonical byte stream.
func (a *actor) collectPrices() {
	p := a.pl
	if a.outPrices == nil {
		a.outPrices = make([][]priceEntry, p.shards)
	}
	for d := range a.outPrices {
		a.outPrices[d] = a.outPrices[d][:0]
	}
	if !p.block {
		// Dense fallback (no metro structure): broadcast the full owned
		// price table. O(m) per actor pair — small-m territory only.
		for _, j := range a.own {
			e := priceEntry{j: j, load: a.load[j], speed: p.in.Speed[j]}
			for dst := 0; dst < p.shards; dst++ {
				if dst != a.id {
					a.outPrices[dst] = append(a.outPrices[dst], e)
				}
			}
		}
		return
	}
	for _, sb := range a.subs {
		j := a.own[sb.slot]
		e := priceEntry{j: j, load: a.load[j], speed: p.in.Speed[j]}
		a.outPrices[sb.dst] = append(a.outPrices[sb.dst], e)
	}
}

// publishSummaries computes the actor's partial per-metro aggregates —
// best and second-best priced owned servers per metro plus the owned
// slice's load — and broadcasts them. Ties break toward the lower
// server id, so partials are a pure function of round state.
func (a *actor) publishSummaries(round int) {
	p := a.pl
	a.partial = a.partial[:0]
	for g, servers := range a.byMetro {
		if len(servers) == 0 {
			continue
		}
		e := summaryEntry{metro: int32(g), best: -1, second: -1}
		var p1, p2 float64
		for _, j := range servers {
			l := a.load[j]
			s := p.in.Speed[j]
			pr := l / s
			e.load += l
			switch {
			case e.best < 0 || pr < p1 || (pr == p1 && j < e.best):
				e.second, e.secondLoad, e.secondSpd, p2 = e.best, e.bestLoad, e.bestSpeed, p1
				e.best, e.bestLoad, e.bestSpeed, p1 = j, l, s, pr
			case e.second < 0 || pr < p2 || (pr == p2 && j < e.second):
				e.second, e.secondLoad, e.secondSpd, p2 = j, l, s, pr
			}
		}
		a.partial = append(a.partial, e)
	}
	if len(a.partial) == 0 {
		return
	}
	payload := encodeSummaries(a.id, round, a.partial)
	for dst := 0; dst < p.shards; dst++ {
		if dst != a.id {
			// Payloads are read-only after Send; one encoding fans out.
			a.send(dst, payload)
		}
	}
}

// mergeSummaries folds the actor's own partial, then every received
// one, into per-metro top-2 candidates. The fold is order-independent:
// server ids are globally unique across partials and selection is by
// the total order (price, id).
func (a *actor) mergeSummaries(received []summaryEntry) {
	p := a.pl
	if a.cand1 == nil {
		a.cand1 = make([]candidate, p.k)
		a.cand2 = make([]candidate, p.k)
	}
	for g := range a.cand1 {
		a.cand1[g].id = -1
		a.cand2[g].id = -1
	}
	offer := func(g int32, id int32, load, speed float64) {
		if id < 0 {
			return
		}
		c := candidate{id: id, load: load, speed: speed, price: load / speed}
		b1, b2 := &a.cand1[g], &a.cand2[g]
		switch {
		case b1.id < 0 || c.price < b1.price || (c.price == b1.price && c.id < b1.id):
			*b2 = *b1
			*b1 = c
		case b2.id < 0 || c.price < b2.price || (c.price == b2.price && c.id < b2.id):
			*b2 = c
		}
	}
	fold := func(entries []summaryEntry) {
		for _, e := range entries {
			offer(e.metro, e.best, e.bestLoad, e.bestSpeed)
			offer(e.metro, e.second, e.secondLoad, e.secondSpd)
		}
	}
	fold(a.partial)
	fold(received)
}

// keyCandidates keys the merged metro candidates once per round for
// each metro the actor's rows are homed in, sorted in scan order. A
// candidate holds no requests from the row (r = 0), so its key
// c = 0/(η·s) − gradient is the same for every row of the home metro:
// its c_ij is the metro table's entry for the candidate's metro, and
// the one row it differs for, the candidate's own, holds it as its
// home and skips it. A server offered twice keeps its first offer in
// working-set order, as a row's working set would.
func (a *actor) keyCandidates(eta float64) {
	p := a.pl
	if a.shared == nil {
		a.shared = make([][]sharedCand, p.k)
	}
	for h, servers := range a.byMetro {
		if len(servers) == 0 {
			continue
		}
		drow := p.metroDelays[h]
		a.stamp++
		list := a.shared[h][:0]
		for g := range a.cand1 {
			for r, c := range [2]candidate{a.cand1[g], a.cand2[g]} {
				if c.id < 0 || a.wsStamp[c.id] == a.stamp {
					continue
				}
				a.wsStamp[c.id] = a.stamp
				e := wsEntry{j: c.id, load: c.load, speed: c.speed, cij: drow[p.labels[c.id]]}
				list = append(list, sharedCand{
					key:   proxKey{c: e.r/(eta*e.speed) - gradient(p.cfg.Mode, e), j: c.id, t: int32(2*g + r)},
					speed: c.speed,
				})
			}
		}
		slices.SortFunc(list, func(x, y sharedCand) int {
			switch {
			case x.key.before(y.key):
				return -1
			case y.key.before(x.key):
				return 1
			}
			return 0
		})
		a.shared[h] = list
	}
}

// step is phase 2: decode this round's prices and summaries, then run
// the damped projected step on every participating owned row, sending
// the changed coordinates to their owners.
func (a *actor) step(round int) {
	p := a.pl
	if p.harden {
		// Lossy transport: everything routes through the hardened
		// unwrap/dedup/validate pipeline. Deltas land in deltaPend for
		// the apply phase, prices and summaries in the round-tagged
		// caches read below.
		a.ingest(int32(round))
		if p.block {
			a.mergeSummariesHard()
			a.seedCandidatePrices()
		}
	} else {
		a.readPricesAndSummaries()
		if p.block {
			a.mergeSummaries(a.sums)
		}
	}
	if a.outDeltas == nil {
		a.outDeltas = make([][]deltaEntry, p.shards)
	}
	for d := range a.outDeltas {
		a.outDeltas[d] = a.outDeltas[d][:0]
	}
	if len(a.wsStamp) < p.in.M() {
		a.wsStamp = make([]int32, p.in.M())
		a.stamp = 0
	}
	eta := p.eta
	if p.block {
		a.keyCandidates(eta)
	}
	for _, i := range a.own {
		a.stepRow(i, round, eta)
	}
	for dst := 0; dst < p.shards; dst++ {
		if len(a.outDeltas[dst]) > 0 {
			a.send(dst, encodeDeltas(a.id, round, a.outDeltas[dst]))
		}
	}
	if p.harden && round%refreshRounds == 0 {
		a.refreshRows(round)
	}
}

// readPricesAndSummaries is the Bus half of step's intake: it decodes
// the round's payloads into the actor's scratch — prices straight into
// the price cache, summaries onto one flat slice (a.sums) — and defers
// delta payloads to apply. On the reliable Bus a malformed message is a
// bug, not weather — validation failures are fatal.
func (a *actor) readPricesAndSummaries() {
	a.sums = a.sums[:0]
	msgs := a.drain()
	for _, payload := range msgs {
		var kind msgKind
		if len(payload) > 0 {
			kind = msgKind(payload[0])
		}
		switch kind {
		case kindDelta:
			// Delta payloads for the apply phase may already be here: a
			// peer that finished its step before we started ours races its
			// sends against our drain. Defer them — phase 3 owns them.
			a.deferred = append(a.deferred, payload)
		case kindPrices:
			a.readPrices(payload)
		default:
			n := len(a.sums)
			m := message{summaries: a.sums}
			err := m.decodeAppend(payload)
			a.sums = m.summaries
			if err == nil {
				m.summaries = m.summaries[n:]
				err = a.validateMessage(&m)
			}
			if err != nil {
				a.sums = a.sums[:n]
				a.pl.noteErr(err)
			}
		}
	}
	a.recycle(msgs)
}

// readPrices validates a prices payload, then decodes it straight into
// the price cache — two passes over the bytes, no entry slice.
func (a *actor) readPrices(payload []byte) {
	var m message
	body, _, err := m.decodeHeader(payload)
	if err == nil {
		err = a.validateMessage(&m)
	}
	for off := 0; err == nil && off < len(body); off += priceEntryBytes {
		err = a.checkPrice(m.from, priceAt(body, off))
	}
	if err != nil {
		a.pl.noteErr(err)
		return
	}
	for off := 0; off < len(body); off += priceEntryBytes {
		e := priceAt(body, off)
		a.price[e.j] = loadSpeed{load: e.load, speed: e.speed}
	}
}

// stepRow runs one row's working-set assembly and prox step.
func (a *actor) stepRow(i int32, round int, eta float64) {
	p := a.pl
	n := p.in.Load[i]
	row := a.rows[i]
	if n == 0 {
		return
	}
	if p.cfg.Participation < 1 && rowDraw(p.cfg.Seed, i, round) >= p.cfg.Participation {
		return
	}

	a.stamp++
	stamp := a.stamp
	a.ws = a.ws[:0]
	a.frozenIdx = a.frozenIdx[:0]
	a.frozenVal = a.frozenVal[:0]
	budget := n
	mark := func(j int32) { a.wsStamp[j] = stamp }
	inWS := func(j int32) bool { return a.wsStamp[j] == stamp }
	drow := p.delayRow(i)

	// Current support first.
	for t, j := range row.idx {
		r := row.val[t]
		var ls loadSpeed
		if p.owner[j] == int32(a.id) {
			ls = loadSpeed{load: a.load[j], speed: p.in.Speed[j]}
		} else {
			var ok bool
			ls, ok = a.price[j]
			if !ok {
				// No price for a support coordinate: impossible on the
				// Bus (columns mirror rows, so owners always publish to
				// us), routine under a lossy transport when the price
				// payload was dropped and neither a retransmit nor a
				// summary seed has refilled the cache yet. Freeze the
				// coordinate this round.
				budget -= r
				a.frozenIdx = append(a.frozenIdx, j)
				a.frozenVal = append(a.frozenVal, r)
				mark(j)
				continue
			}
		}
		// c_ij: on block views the metro table holds exactly the bits
		// the latency view returns (model.ClusterDelays verifies every
		// off-diagonal pair of a metro pair), and c_ii = 0.
		var cij float64
		switch {
		case drow == nil:
			cij = p.lat.At(int(i), int(j))
		case j != i:
			cij = drow[p.labels[j]]
		}
		a.ws = append(a.ws, wsEntry{j: j, r: r, load: ls.load, speed: ls.speed, cij: cij})
		mark(j)
	}
	support := len(a.ws) // ws[:support] is in index order; candidates follow
	// The home server is always a candidate — mass must be able to
	// return to it.
	if !inWS(i) {
		a.ws = append(a.ws, wsEntry{j: i, r: 0, load: a.load[i], speed: p.in.Speed[i], cij: 0})
		mark(i)
	}
	// O(k) metro candidates, keyed once for the home metro; the prox
	// step merges them in and skips the ones marked here.
	var shared []sharedCand
	if p.block {
		shared = a.shared[p.labels[i]]
	} else {
		// Dense fallback: the whole fleet is the working set.
		for j := int32(0); j < int32(p.in.M()); j++ {
			if inWS(j) {
				continue
			}
			var ls loadSpeed
			if p.owner[j] == int32(a.id) {
				ls = loadSpeed{load: a.load[j], speed: p.in.Speed[j]}
			} else {
				var ok bool
				ls, ok = a.price[j]
				if !ok {
					continue
				}
			}
			a.ws = append(a.ws, wsEntry{j: j, r: 0, load: ls.load, speed: ls.speed, cij: p.lat.At(int(i), int(j))})
		}
	}
	if budget <= 0 || len(a.ws) == 0 {
		return
	}

	x := proxStep(p.cfg.Mode, eta, budget, a.ws, shared, a.wsStamp, stamp, &a.scratch)
	for _, u := range a.scratch.popped {
		a.ws = append(a.ws, wsEntry{j: shared[u].key.j})
	}

	// Route the changed coordinates to their owners.
	changed := false
	for t, e := range a.ws {
		if x[t] != e.r {
			changed = true
			a.moved += abs(x[t] - e.r)
			d := deltaEntry{row: i, col: e.j, val: x[t]}
			if dst := int(p.owner[e.j]); dst == a.id {
				a.pendingLocal = append(a.pendingLocal, d)
			} else {
				a.outDeltas[dst] = append(a.outDeltas[dst], d)
			}
		}
	}
	a.stepped++
	if !changed {
		return
	}
	// Rebuild the row in index order, frozen coordinates kept as they
	// are. The support part of the working set is already in order, so
	// only the frozen coordinates (in order among themselves) and the
	// few appended candidates that received mass need ordering before
	// one merge.
	extra := a.extra[:0]
	for t, j := range a.frozenIdx {
		extra = append(extra, rowEntry{j: j, v: a.frozenVal[t]})
	}
	for t := support; t < len(a.ws); t++ {
		if x[t] == 0 {
			continue
		}
		e := rowEntry{j: a.ws[t].j, v: x[t]}
		u := len(extra)
		extra = append(extra, e)
		for ; u > 0 && extra[u-1].j > e.j; u-- {
			extra[u] = extra[u-1]
		}
		extra[u] = e
	}
	row.idx, row.val = row.idx[:0], row.val[:0]
	u := 0
	for t, e := range a.ws[:support] {
		if x[t] == 0 {
			continue
		}
		for ; u < len(extra) && extra[u].j < e.j; u++ {
			row.idx = append(row.idx, extra[u].j)
			row.val = append(row.val, extra[u].v)
		}
		row.idx = append(row.idx, e.j)
		row.val = append(row.val, x[t])
	}
	for _, e := range extra[u:] {
		row.idx = append(row.idx, e.j)
		row.val = append(row.val, e.v)
	}
	a.extra = extra
}

// delayRow returns organization i's row of the metro delay table in
// block mode, indexed by metro, and nil otherwise.
func (p *Plane) delayRow(i int32) []float64 {
	if p.block {
		return p.metroDelays[p.labels[i]]
	}
	return nil
}

// apply is phase 3: fold every delta destined to this actor's servers —
// remote and local alike — one owned column at a time.
func (a *actor) apply(round int) {
	p := a.pl
	if p.harden {
		a.applyHard(round)
		return
	}
	a.batch = append(a.batch[:0], a.pendingLocal...)
	a.pendingLocal = a.pendingLocal[:0]
	for _, payload := range a.deferred {
		a.readDeltas(payload)
	}
	clear(a.deferred)
	a.deferred = a.deferred[:0]
	msgs := a.drain()
	for _, payload := range msgs {
		a.readDeltas(payload)
	}
	a.recycle(msgs)
	a.foldBatch()
}

// readDeltas decodes one delta payload straight onto the apply batch.
func (a *actor) readDeltas(payload []byte) {
	n := len(a.batch)
	m := message{deltas: a.batch}
	err := m.decodeAppend(payload)
	a.batch = m.deltas
	if err == nil {
		m.deltas = m.deltas[n:]
		err = a.validateMessage(&m)
	}
	if err != nil {
		a.pl.noteErr(err)
	}
	if err != nil || m.kind != kindDelta {
		a.batch = a.batch[:n]
	}
}

// foldBatch applies a.batch, which holds at most one delta per
// (row, col) and only deltas for owned columns. A counting sort on each
// column's slot buckets the batch; each bucket is put in row order and
// merged into its column in one pass. Each column thus folds its deltas
// into its load in ascending row order — the only order a server's
// load depends on — whatever order the messages arrived in. Most
// buckets hold a handful of deltas, but under full participation rows
// herd onto the same few servers and one bucket can hold a delta from
// nearly every row, so buckets get an O(b log b) sort.
func (a *actor) foldBatch() {
	slot := a.pl.slot
	end := slices.Grow(a.colEnd[:0], len(a.own))[:len(a.own)]
	clear(end)
	for _, d := range a.batch {
		end[slot[d.col]]++
	}
	var at int32
	for s, n := range end {
		end[s] = at // bucket start; advanced to the bucket end below
		at += n
	}
	by := slices.Grow(a.byCol[:0], len(a.batch))[:len(a.batch)]
	for _, d := range a.batch {
		s := slot[d.col]
		by[end[s]] = d
		end[s]++
	}
	var lo int32
	for s, hi := range end {
		if hi > lo {
			ups := by[lo:hi]
			slices.SortFunc(ups, func(x, y deltaEntry) int { return cmp.Compare(x.row, y.row) })
			a.foldColumn(int32(s), ups)
		}
		lo = hi
	}
	a.colEnd, a.byCol = end, by
}

// foldColumn merges ups — deltas for the column of own slot s in
// ascending row order — into the column in one pass over the entries
// from the first updated row to the last, and folds load += val − old
// per delta in that order. A zero value removes the entry. Entries that
// appear or disappear update the subscription index.
func (a *actor) foldColumn(s int32, ups []deltaEntry) {
	j := a.own[s]
	col := a.cols[j]
	t, _ := col.find(ups[0].row)
	head := t
	idx, val := a.colIdx[:0], a.colVal[:0]
	l := a.load[j]
	for _, d := range ups {
		for t < len(col.idx) && col.idx[t] < d.row {
			idx = append(idx, col.idx[t])
			val = append(val, col.val[t])
			t++
		}
		var old float64
		held := t < len(col.idx) && col.idx[t] == d.row
		if held {
			old = col.val[t]
			t++
		}
		switch {
		case d.val != 0:
			idx = append(idx, d.row)
			val = append(val, d.val)
			if !held {
				a.subscribe(s, d.row)
			}
		case held:
			a.unsubscribe(s, d.row)
		}
		l += d.val - old
	}
	col.idx = slices.Replace(col.idx, head, t, idx...)
	col.val = slices.Replace(col.val, head, t, val...)
	a.load[j] = l
	a.colIdx, a.colVal = idx, val
}

// subscribe records that row, a new entry in the column of own slot s,
// now uses the server; unsubscribe records that a row whose entry left
// the column no longer does. Either shifts the index's tail: it holds
// one entry per (server, peer) pair, about 160 per actor on the
// descent-flash plane. The actor's own rows are no subscribers: publish
// never sends to itself.
func (a *actor) subscribe(s, row int32) {
	dst := a.pl.owner[row]
	if dst == int32(a.id) {
		return
	}
	t, ok := a.findSubscription(s, dst)
	if ok {
		a.subs[t].rows++
		return
	}
	a.subs = slices.Insert(a.subs, t, subscription{slot: s, dst: dst, rows: 1})
}

func (a *actor) unsubscribe(s, row int32) {
	dst := a.pl.owner[row]
	if dst == int32(a.id) {
		return
	}
	t, ok := a.findSubscription(s, dst)
	if !ok {
		return
	}
	if a.subs[t].rows--; a.subs[t].rows == 0 {
		a.subs = slices.Delete(a.subs, t, t+1)
		// Give back the capacity early rounds grew: from the cold
		// start, rows try every metro's candidates before they settle on
		// a few servers, and the index shrinks several-fold. Halving at
		// a quarter keeps the reallocations amortized O(1).
		if c := cap(a.subs); c > 64 && len(a.subs) < c/4 {
			a.subs = append(make([]subscription, 0, 2*len(a.subs)), a.subs...)
		}
	}
}

// findSubscription returns where (s, dst) sits in the index, or would.
func (a *actor) findSubscription(s, dst int32) (int, bool) {
	lo, hi := 0, len(a.subs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if e := a.subs[h]; e.slot < s || e.slot == s && e.dst < dst {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(a.subs) && a.subs[lo].slot == s && a.subs[lo].dst == dst
}

// indexSubscriptions rebuilds the subscription index from the owned
// columns in one counting pass, O(column entries + subscriptions) with
// no per-entry search: subAt remembers where each peer actor sits among
// the current server's entries. The index keeps its backing array.
func (a *actor) indexSubscriptions() {
	p := a.pl
	if len(a.subAt) != p.shards {
		a.subAt = make([]int32, p.shards)
	}
	at := a.subAt
	a.subs = a.subs[:0]
	for s, j := range a.own {
		head := len(a.subs)
		for _, i := range a.cols[j].idx {
			d := p.owner[i]
			if d == int32(a.id) {
				continue
			}
			if at[d] == 0 {
				a.subs = append(a.subs, subscription{slot: int32(s), dst: d})
				at[d] = int32(len(a.subs))
			}
			a.subs[at[d]-1].rows++
		}
		list := a.subs[head:]
		for u, e := range list {
			at[e.dst] = 0
			for v := u; v > 0 && list[v].dst < list[v-1].dst; v-- {
				list[v], list[v-1] = list[v-1], list[v]
			}
		}
	}
}

// nnz reports the entry count across the actor's rows.
func (a *actor) nnz() int {
	n := 0
	for _, i := range a.own {
		n += len(a.rows[i].idx)
	}
	return n
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// rowEntry is one (index, value) coordinate of a row being rebuilt.
type rowEntry struct {
	j int32
	v float64
}
