package descent

// The transport seam. Actors never hold references to each other; every
// cross-actor datum is an encoded []byte payload handed to a Transport.
// The in-process Bus below is the only implementation the plane ships
// with — it is the simulated-network backend the determinism contract is
// stated against. A socket transport slots in behind the same three
// methods with length-prefixed framing: payloads are flat little-endian
// bytes (message.go), so they can cross a wire verbatim.

// Transport moves opaque payloads between actors 0..n-1. Send may be
// called concurrently by different senders; delivery order within a
// round is explicitly *not* part of the contract — each column folds its
// deltas in ascending row order whatever order they arrived in (see
// foldBatch), which is what makes the plane's results independent of
// scheduling and of the transport itself.
type Transport interface {
	// Attach registers the receive path. deliver(dst, payload) enqueues
	// payload for actor dst and is safe for concurrent calls — the
	// plane's queues do their own locking. Attach is called at
	// construction and again after every churn call, load updates
	// included; an implementation drops whatever it still holds.
	Attach(actors int, deliver func(dst int, payload []byte))
	// Send ships one payload to dst. The payload is owned by the
	// transport after the call.
	Send(dst int, payload []byte)
	// Flush blocks until everything sent so far has been delivered.
	// The plane calls it at each phase barrier.
	Flush()
}

// Bus is the in-process transport: Send hands the payload straight to
// the attached deliver hook, so Flush has nothing to wait for. It is
// the zero-latency stand-in for a real network; a lossy or delaying
// transport would buffer in Send and release in Flush.
type Bus struct {
	deliver func(dst int, payload []byte)
}

// NewBus returns an empty in-process bus; the plane attaches it.
func NewBus() *Bus { return &Bus{} }

func (b *Bus) Attach(actors int, deliver func(dst int, payload []byte)) {
	b.deliver = deliver
}

func (b *Bus) Send(dst int, payload []byte) {
	if b.deliver == nil {
		panic("descent: Bus.Send before Attach — construct the plane (which attaches the transport) before sending")
	}
	b.deliver(dst, payload)
}

func (b *Bus) Flush() {}
