package descent

// faultnet: the WAN-real transport. Bus delivers instantly and
// losslessly, which makes it the one subsystem of a delay-aware model
// where delay does not exist. SimTransport closes that gap: payloads
// buffer in Send and release in Flush according to the instance's own
// latency view — a cross-metro payload pays the metro-pair delay,
// measured in fractions of the configured round duration — composed
// with a deterministic fault injector drawn from a splitmix64
// FaultPlan keyed by (seed, round, edge, transmission). The same plan
// over the same plane replays the same failure schedule byte for byte.
//
// The division of labour with the recovery protocol (actor.go):
//
//   - the transport injects faults: it drops, duplicates, reorders,
//     delays, corrupts and falsifies payloads, and never repairs
//     anything;
//   - the plane detects and recovers: envelope sequence numbers per
//     (sender, receiver) stream, idempotent duplicate suppression,
//     per-coordinate stale-round rejection, and NACK/retransmit at the
//     phase barrier (see the hardened paths in actor.go). The plane
//     turns hardening on whenever its transport says Lossy().
//
// Determinism: every fault decision is a pure function of (plan seed,
// the payload's round header, src, dst, per-edge transmission counter).
// Each edge has a single sequential sender, so the counter — and with
// it the whole schedule — is reproducible run over run. Delivery order
// within a Flush is canonically sorted, so the receiver-side fold does
// not depend on goroutine scheduling.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// FaultPlan is a deterministic fault schedule. Probabilities are per
// transmitted payload, independent per fault class; the zero value
// injects nothing (useful for a delay-only SimTransport).
type FaultPlan struct {
	// Seed keys every draw; two plans with the same seed and rates
	// schedule identical faults for identical traffic.
	Seed int64
	// Drop is the probability a payload vanishes.
	Drop float64
	// Duplicate is the probability a payload is delivered twice (the
	// copy may land a phase later).
	Duplicate float64
	// Reorder is the probability a payload is demoted behind its
	// phase-mates at delivery instead of the canonical (src, seq) order.
	Reorder float64
	// Delay is the probability a payload is held extra flush phases;
	// DelayPhases bounds how many (uniform in 1..DelayPhases, default 1).
	Delay       float64
	DelayPhases int
	// Corrupt is the probability 1–3 payload bytes are flipped — the
	// Byzantine garbage case; receivers must survive arbitrary bytes.
	Corrupt float64
	// FalsePrice is the probability a prices payload has one entry's
	// load inflated ×2..×16 — the Byzantine lying case: a plausible,
	// finite value that passes validation and can only be outrun by
	// fresher honest traffic.
	FalsePrice float64
	// CrashEvery > 0 crashes a plan-chosen actor mid-round every that
	// many rounds (between the step barrier and apply); MaxCrashes caps
	// how many times (0 = unlimited). Crashes are executed by the
	// plane, not the transport — see Plane.Crash.
	CrashEvery int
	MaxCrashes int
}

// Validate checks the plan's static constraints.
func (fp *FaultPlan) Validate() error {
	for _, pr := range [...]struct {
		name string
		v    float64
	}{
		{"Drop", fp.Drop}, {"Duplicate", fp.Duplicate}, {"Reorder", fp.Reorder},
		{"Delay", fp.Delay}, {"Corrupt", fp.Corrupt}, {"FalsePrice", fp.FalsePrice},
	} {
		if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
			return fmt.Errorf("descent: FaultPlan.%s=%v, must be in [0, 1]", pr.name, pr.v)
		}
	}
	if fp.DelayPhases < 0 {
		return fmt.Errorf("descent: FaultPlan.DelayPhases=%d, must be >= 0", fp.DelayPhases)
	}
	if fp.CrashEvery < 0 || fp.MaxCrashes < 0 {
		return fmt.Errorf("descent: FaultPlan crash fields must be >= 0 (CrashEvery=%d, MaxCrashes=%d)", fp.CrashEvery, fp.MaxCrashes)
	}
	return nil
}

// Draw salts: one independent stream per decision kind.
const (
	saltDrop uint64 = iota + 1
	saltDup
	saltDupDelay
	saltReorder
	saltReorderAt
	saltDelay
	saltDelayN
	saltCorrupt
	saltCorruptAt
	saltLie
	saltLieAt
	saltCrash
	saltCrashEpoch
)

// draw returns the uniform 64-bit value of the (round, src, dst, seq,
// salt) cell of the plan's stream — splitmix64 chained over the key
// components, the same generator the participation schedule uses.
func (fp *FaultPlan) draw(round int32, src, dst int, seq uint32, salt uint64) uint64 {
	z := splitmix64(uint64(fp.Seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	z = splitmix64(z ^ (uint64(uint32(round)) + 0x9E3779B97F4A7C15))
	z = splitmix64(z ^ (uint64(uint32(src))<<32 | uint64(uint32(dst))))
	z = splitmix64(z ^ uint64(seq))
	return splitmix64(z ^ salt)
}

// roll is a Bernoulli draw with probability pr on the salted stream.
func (fp *FaultPlan) roll(round int32, src, dst int, seq uint32, salt uint64, pr float64) bool {
	if pr <= 0 {
		return false
	}
	return float64(fp.draw(round, src, dst, seq, salt)>>11)/(1<<53) < pr
}

// CrashVictim draws a victim actor for an externally scheduled crash
// (the replay driver's per-epoch crashes use it with an epoch-derived
// salt; the plane's own CrashEvery schedule draws per round).
func (fp *FaultPlan) CrashVictim(salt int64, shards int) int {
	if shards < 1 {
		return 0
	}
	return int(fp.draw(int32(salt), 0, 0, 0, saltCrashEpoch) % uint64(shards))
}

// TransportStats counts a SimTransport's fault decisions, cumulatively
// since construction (Attach does not reset them — the plane reads
// per-round deltas across churn).
type TransportStats struct {
	Sent, Dropped, Duplicated, Reordered, Delayed, Corrupted, FalsePriced int64
}

// FaultStatsReader is implemented by transports that count injected
// faults; the plane folds per-round deltas into its metrics stream.
type FaultStatsReader interface {
	FaultStats() TransportStats
}

// LossyTransport marks transports that may delay, drop, duplicate,
// reorder or corrupt payloads. When the plane sees Lossy() == true it
// enables the recovery protocol: envelope framing, duplicate
// suppression, stale-round rejection and NACK/retransmit.
type LossyTransport interface {
	Transport
	Lossy() bool
}

// DelayAware transports accept the actor-pair delay matrix the plane
// derives from its latency view, plus the modeled round duration in
// the same unit. The plane calls SetDelays on every (re)build.
type DelayAware interface {
	SetDelays(ms [][]float64, roundMs float64)
}

// simPayload is one queued delivery.
type simPayload struct {
	due  int // flush phase at which it becomes deliverable
	dst  int
	src  int
	seq  uint32 // per-edge transmission counter
	dup  uint8  // 1 on the injected duplicate copy (delivery tie-break)
	prio uint64 // 0 = canonical order; reordered payloads draw > 0
	data []byte
}

// SimTransport is the delay-aware, fault-injecting Transport. Send
// buffers; Flush releases everything whose delivery phase has come, in
// a canonical sorted order. Each round has two flushes (the plane's
// publish and step barriers), so a payload delayed by d ms arrives
// floor(d / (roundMs/2)) phases after an instant one.
type SimTransport struct {
	plan *FaultPlan

	mu      sync.Mutex
	deliver func(dst int, payload []byte)
	actors  int
	extra   [][]int // per (src, dst): delay in flush phases
	phase   int
	seq     []uint32 // per-edge transmission counters, src*actors+dst
	pending []simPayload
	stats   TransportStats
}

// NewSimTransport builds the transport; plan may be nil for a pure
// delay simulation. The plane wires delays via SetDelays and attaches
// it like any Transport.
func NewSimTransport(plan *FaultPlan) *SimTransport {
	return &SimTransport{plan: plan}
}

// Lossy reports true: even with a nil plan, delayed payloads cross
// round boundaries, so receivers need the hardened (round-tagged)
// paths.
func (s *SimTransport) Lossy() bool { return true }

// FaultStats returns the cumulative injection counters.
func (s *SimTransport) FaultStats() TransportStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetDelays installs the actor-pair delays. With roundMs <= 0 every
// payload is delivered at the next flush regardless of ms.
func (s *SimTransport) SetDelays(ms [][]float64, roundMs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	half := roundMs / 2
	s.extra = make([][]int, len(ms))
	for i, row := range ms {
		s.extra[i] = make([]int, len(row))
		if half <= 0 {
			continue
		}
		for j, d := range row {
			if d > 0 {
				s.extra[i][j] = int(d / half)
			}
		}
	}
}

func (s *SimTransport) Attach(actors int, deliver func(dst int, payload []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.actors = actors
	s.deliver = deliver
	s.phase = 0
	s.pending = nil
	s.seq = make([]uint32, actors*actors)
	if len(s.extra) != actors {
		// Stale delay matrix from a previous topology: drop it rather
		// than index out of range; the plane re-wires it in derive.
		s.extra = nil
	}
}

func (s *SimTransport) Send(dst int, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deliver == nil {
		panic("descent: SimTransport.Send before Attach — construct the plane (which attaches the transport) before sending")
	}
	src, round := peekHeader(payload)
	if src < 0 || src >= s.actors {
		src = 0
	}
	if dst < 0 || dst >= s.actors {
		return
	}
	edge := src*s.actors + dst
	seq := s.seq[edge]
	s.seq[edge]++
	s.stats.Sent++
	due := s.phase
	if s.extra != nil {
		due += s.extra[src][dst]
	}
	prio := uint64(0)
	if fp := s.plan; fp != nil {
		// Byzantine mutations work on a private copy: the sender's
		// retransmit buffer and fanned-out payloads alias the original
		// bytes, and recovery depends on retransmits replaying the
		// *clean* payload.
		if fp.roll(round, src, dst, seq, saltLie, fp.FalsePrice) {
			cp := append([]byte(nil), payload...)
			if lieInPrices(cp, fp.draw(round, src, dst, seq, saltLieAt)) {
				payload = cp
				s.stats.FalsePriced++
			}
		}
		if fp.roll(round, src, dst, seq, saltCorrupt, fp.Corrupt) {
			payload = append([]byte(nil), payload...)
			corruptBytes(payload, fp.draw(round, src, dst, seq, saltCorruptAt))
			s.stats.Corrupted++
		}
		if fp.roll(round, src, dst, seq, saltDrop, fp.Drop) {
			s.stats.Dropped++
			return
		}
		if fp.roll(round, src, dst, seq, saltDelay, fp.Delay) {
			n := fp.DelayPhases
			if n <= 0 {
				n = 1
			}
			due += 1 + int(fp.draw(round, src, dst, seq, saltDelayN)%uint64(n))
			s.stats.Delayed++
		}
		if fp.roll(round, src, dst, seq, saltReorder, fp.Reorder) {
			prio = 1 + fp.draw(round, src, dst, seq, saltReorderAt)%1024
			s.stats.Reordered++
		}
		if fp.roll(round, src, dst, seq, saltDup, fp.Duplicate) {
			s.stats.Duplicated++
			cp := append([]byte(nil), payload...)
			s.pending = append(s.pending, simPayload{
				due: due + int(fp.draw(round, src, dst, seq, saltDupDelay)%2),
				dst: dst, src: src, seq: seq, dup: 1, prio: prio, data: cp,
			})
		}
	}
	s.pending = append(s.pending, simPayload{due: due, dst: dst, src: src, seq: seq, prio: prio, data: payload})
}

// Flush delivers every payload whose phase has come, sorted into the
// canonical (dst, prio, src, seq, dup) order so the delivery sequence
// is a pure function of the traffic and the plan — never of goroutine
// scheduling — then advances the phase clock.
func (s *SimTransport) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ready []simPayload
	keep := s.pending[:0]
	for _, pl := range s.pending {
		if pl.due <= s.phase {
			ready = append(ready, pl)
		} else {
			keep = append(keep, pl)
		}
	}
	s.pending = keep
	slices.SortFunc(ready, func(a, b simPayload) int {
		if a.dst != b.dst {
			return cmp.Compare(a.dst, b.dst)
		}
		if a.prio != b.prio {
			return cmp.Compare(a.prio, b.prio)
		}
		if a.src != b.src {
			return cmp.Compare(a.src, b.src)
		}
		if a.seq != b.seq {
			return cmp.Compare(a.seq, b.seq)
		}
		return cmp.Compare(a.dup, b.dup)
	})
	for _, pl := range ready {
		s.deliver(pl.dst, pl.data)
	}
	s.phase++
}

// peekHeader reads the (from, round) fields every payload — plain or
// enveloped — carries in its fixed header. The transport peeks its own
// framing to key fault draws and the delay matrix; garbage is clamped
// by the caller.
func peekHeader(payload []byte) (src int, round int32) {
	if len(payload) < headerBytes {
		return 0, 0
	}
	return int(int32(binary.LittleEndian.Uint32(payload[1:]))),
		int32(binary.LittleEndian.Uint32(payload[5:]))
}

// corruptBytes flips 1–3 bytes of the payload at drawn offsets.
func corruptBytes(payload []byte, r uint64) {
	if len(payload) == 0 {
		return
	}
	n := 1 + int(r%3)
	for t := 0; t < n; t++ {
		r = splitmix64(r + uint64(t))
		payload[int(r%uint64(len(payload)))] ^= byte(r>>8) | 1
	}
}

// lieInPrices inflates one load of a prices payload (plain or inside
// an envelope) by ×2..×16 — a finite, plausible lie that passes
// validation. Returns false when the payload is not a well-formed
// prices message.
func lieInPrices(payload []byte, r uint64) bool {
	body := payload
	if len(body) >= headerBytes && msgKind(body[0]) == kindEnvelope {
		body = body[headerBytes:]
	}
	if len(body) < headerBytes || msgKind(body[0]) != kindPrices {
		return false
	}
	count := int(binary.LittleEndian.Uint32(body[9:]))
	if count <= 0 || len(body) != headerBytes+count*priceEntryBytes {
		return false
	}
	off := headerBytes + int(r%uint64(count))*priceEntryBytes + 4
	load := math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
	factor := float64(uint64(2) << ((r >> 16) % 4))
	binary.LittleEndian.PutUint64(body[off:], math.Float64bits(load*factor))
	return true
}

// ParseFaultPlan parses the CLI fault-plan spec: a comma-separated
// key=value list, e.g.
//
//	drop=0.05,dup=0.05,reorder=0.1,delay=0.25,delayphases=2,corrupt=0.01,lie=0.01,crashevery=40,maxcrashes=1,seed=7
//
// Unknown keys are errors; the result is Validate()d.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	fp := &FaultPlan{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("descent: fault spec token %q is not key=value", tok)
		}
		var err error
		switch k {
		case "drop":
			fp.Drop, err = strconv.ParseFloat(v, 64)
		case "dup":
			fp.Duplicate, err = strconv.ParseFloat(v, 64)
		case "reorder":
			fp.Reorder, err = strconv.ParseFloat(v, 64)
		case "delay":
			fp.Delay, err = strconv.ParseFloat(v, 64)
		case "delayphases":
			fp.DelayPhases, err = strconv.Atoi(v)
		case "corrupt":
			fp.Corrupt, err = strconv.ParseFloat(v, 64)
		case "lie":
			fp.FalsePrice, err = strconv.ParseFloat(v, 64)
		case "crashevery":
			fp.CrashEvery, err = strconv.Atoi(v)
		case "maxcrashes":
			fp.MaxCrashes, err = strconv.Atoi(v)
		case "seed":
			fp.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return nil, fmt.Errorf("descent: unknown fault spec key %q (want drop|dup|reorder|delay|delayphases|corrupt|lie|crashevery|maxcrashes|seed)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("descent: bad fault spec value %s=%q", k, v)
		}
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	return fp, nil
}
