package descent

// Membership and load churn. The plane treats every mutation the same
// way: assemble the global rows, project them through the exact same
// O(nnz + m) transforms the session tier uses (internal/dynamic.Rescale
// for loads, a dynamic.Resize batch for joins and leaves), then
// reshard. Join and Leave project a one-edit batch; Crash records every
// departure of the victim in one batch, so a metro's worth of servers
// costs one projection and one rebuild. Rebuilding from rows is what
// makes mid-round churn safe — columns, loads, subscriptions and price
// caches are derived state, and any in-flight payload (including a
// delta addressed to a server that just left) is dropped with the old
// inboxes rather than applied to a stale index space. Rows stay
// row-stochastic by construction: a leaving server's orphaned mass
// folds back onto each organization's home server, exactly like the
// centralized failover.
//
// Churn calls must come between rounds (or, in tests, between phases) —
// never concurrently with one.

import (
	"fmt"
	"math"

	"delaylb/internal/dynamic"
)

// UpdateLoads replaces the per-organization loads, rescaling each row
// to its new load so relay fractions survive moderate churn.
func (p *Plane) UpdateLoads(loads []float64) error {
	if len(loads) != p.in.M() {
		return fmt.Errorf("descent: UpdateLoads got %d loads, fleet has %d", len(loads), p.in.M())
	}
	for i, l := range loads {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("descent: UpdateLoads load[%d]=%v, must be non-negative and finite", i, l)
		}
	}
	next := dynamic.Rescale(p.Allocation(), p.in.Load, loads)
	in := p.in.Clone()
	copy(in.Load, loads)
	return p.rebuild(in, next)
}

// Join adds a server/organization with the given speed and load. On
// block (metro) instances pass latTo = latFrom = nil and the metro in
// cluster; dense instances need the explicit latency rows. The newcomer
// starts by serving its own load, like every cold start.
func (p *Plane) Join(speed, load float64, latTo, latFrom []float64, cluster int) error {
	in, err := p.in.WithServer(speed, load, latTo, latFrom, cluster)
	if err != nil {
		return err
	}
	r := dynamic.NewResize(p.in.M())
	r.Join(load)
	return p.rebuild(in, r.Apply(p.Allocation()))
}

// Leave removes server/organization i. Every index above i shifts down
// by one; mass other organizations had routed to i folds back onto
// their home servers. In-flight messages addressed to i are dropped
// with the rebuild.
func (p *Plane) Leave(i int) error {
	if i < 0 || i >= p.in.M() {
		return fmt.Errorf("descent: Leave(%d) out of range, fleet has %d", i, p.in.M())
	}
	in, err := p.in.WithoutServer(i)
	if err != nil {
		return err
	}
	r := dynamic.NewResize(p.in.M())
	r.Leave(i)
	return p.rebuild(in, r.Apply(p.Allocation()))
}

// CrashEvent describes one actor crash executed by the plane.
type CrashEvent struct {
	Round         int     `json:"round"`
	Victim        int     `json:"victim"`  // actor id at crash time
	Servers       int     `json:"servers"` // servers the victim owned
	LostMass      float64 `json:"lost_mass"`
	RecoveredMass float64 `json:"recovered_mass"`
	// Removed lists the victim's server indices as they were numbered
	// at crash time, ascending — what a driver tracking stable ids
	// needs to mirror the removals.
	Removed []int32 `json:"removed,omitempty"`
}

// Crash kills actor victim: every server — and with it every
// organization homed there — that the victim owns leaves the fleet,
// highest index first, exactly as that many Leave calls would remove
// them, but projected as one batch with one reshard of the survivors.
// LostMass is the crashed organizations' own load, which exits the
// system with them; RecoveredMass is the surviving organizations' mass
// that was routed to the dying servers and is folded back onto their
// home servers by the failover instead of being lost. A victim owning
// the whole fleet cannot fail over and is an error; a victim owning
// nothing is a no-op.
func (p *Plane) Crash(victim int) (CrashEvent, error) {
	if victim < 0 || victim >= p.shards {
		return CrashEvent{}, fmt.Errorf("descent: Crash(%d) out of range, plane has %d actors", victim, p.shards)
	}
	own := append([]int32(nil), p.actors[victim].own...)
	ev := CrashEvent{Round: p.round, Victim: victim, Servers: len(own), Removed: own}
	if len(own) == 0 {
		return ev, nil
	}
	if len(own) == p.in.M() {
		return ev, fmt.Errorf("descent: Crash(%d) would remove every server — no survivor to fail over to", victim)
	}
	vic := make([]bool, p.in.M())
	for _, j := range own {
		vic[j] = true
		ev.LostMass += p.in.Load[j]
	}
	for i := 0; i < p.in.M(); i++ {
		if vic[i] {
			continue
		}
		row := p.rows[i]
		for t, j := range row.idx {
			if vic[j] {
				ev.RecoveredMass += row.val[t]
			}
		}
	}
	// Highest index first, so the remaining owned indices stay valid
	// across the shift every departure applies. One rebuild suffices:
	// it derives every field from the instance and the rows, and
	// re-attaching resets the transport's in-flight state, so the
	// rebuilds of one-at-a-time Leaves would leave nothing it does not
	// redo.
	in, r := p.in, dynamic.NewResize(p.in.M())
	for t := len(own) - 1; t >= 0; t-- {
		next, err := in.WithoutServer(int(own[t]))
		if err != nil {
			return ev, err
		}
		in = next
		r.Leave(int(own[t]))
	}
	if err := p.rebuild(in, r.Apply(p.Allocation())); err != nil {
		return ev, err
	}
	p.crashes++
	p.roundCrash = &ev
	if p.cfg.OnCrash != nil {
		p.cfg.OnCrash(ev)
	}
	return ev, nil
}
