package descent

// Membership and load churn. Every mutation ends the same way: derive
// recomputes columns, loads, subscriptions and price caches from the
// rows, and drops every in-flight payload (including a delta addressed
// to a server that just left) with the old inboxes rather than applying
// it to a stale index space. That is what makes mid-round churn safe.
// What comes before derive depends on the mutation:
//
//   - Join, Leave and Crash change the index space. They record their
//     edits in a dynamic.Resize batch — the record the session tier
//     keeps — which checks each edit, builds the next instance and
//     projects the assembled global rows in O(nnz + m), and reshard the
//     plane over the result. Join and Leave apply a one-edit batch;
//     Crash records every departure of the victim in one batch, so a
//     metro's worth of servers costs one instance, one projection and
//     one reshard.
//     Rows stay row-stochastic by construction: a leaving server's
//     orphaned mass folds back onto each organization's home server,
//     exactly like the centralized failover.
//   - UpdateLoads keeps the index space, the shards and every backing
//     array. It scales each row in place by dynamic.RowScale, the rule
//     dynamic.Rescale applies, so the rows come out bit for bit as a
//     rescale-and-reshard would leave them.
//
// Churn calls must come between rounds (or, in tests, between phases) —
// never concurrently with one.

import (
	"fmt"
	"math"

	"delaylb/internal/dynamic"
)

// UpdateLoads replaces the per-organization loads, rescaling each row
// to its new load so relay fractions survive moderate churn: a row that
// carried load is scaled by new/old, a row that carried none restarts
// on its home server, and entries that become exactly 0 leave the row.
// The rows are scaled in place and the plane keeps its shards; derive
// then recomputes everything that follows from the rows.
func (p *Plane) UpdateLoads(loads []float64) error {
	if len(loads) != p.in.M() {
		return fmt.Errorf("descent: UpdateLoads got %d loads, fleet has %d", len(loads), p.in.M())
	}
	for i, l := range loads {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("descent: UpdateLoads load[%d]=%v, must be non-negative and finite", i, l)
		}
	}
	for i, row := range p.rows {
		f, keep := dynamic.RowScale(p.in.Load[i], loads[i])
		if !keep {
			row.idx, row.val = row.idx[:0], row.val[:0]
			if loads[i] != 0 {
				row.idx = append(row.idx, int32(i))
				row.val = append(row.val, loads[i])
			}
			continue
		}
		n := 0
		for t, j := range row.idx {
			if v := row.val[t] * f; v != 0 {
				row.idx[n], row.val[n] = j, v
				n++
			}
		}
		row.idx, row.val = row.idx[:n], row.val[:n]
	}
	// The instance is exposed read-only through Instance, so the new
	// loads go into a clone rather than under a caller's feet.
	in := p.in.Clone()
	copy(in.Load, loads)
	p.in, p.lat = in, in.Latency
	p.derive()
	return nil
}

// Join adds a server/organization with the given speed and load. On
// block (metro) instances pass latTo = latFrom = nil and the metro in
// cluster; dense instances need the explicit latency rows. The newcomer
// starts by serving its own load, like every cold start.
func (p *Plane) Join(speed, load float64, latTo, latFrom []float64, cluster int) error {
	r := dynamic.NewResize(p.in.M())
	if err := r.Join(p.in, dynamic.Join{Speed: speed, Load: load, Cluster: cluster, To: latTo, From: latFrom}); err != nil {
		return err
	}
	p.rebuild(r.Apply(p.in, p.Allocation()))
	return nil
}

// Leave removes server/organization i. Every index above i shifts down
// by one; mass other organizations had routed to i folds back onto
// their home servers. In-flight messages addressed to i are dropped
// with the reshard.
func (p *Plane) Leave(i int) error {
	r := dynamic.NewResize(p.in.M())
	if err := r.Leave(p.in, i); err != nil {
		return err
	}
	p.rebuild(r.Apply(p.in, p.Allocation()))
	return nil
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
	r := dynamic.NewResize(p.in.M())
	for t := len(own) - 1; t >= 0; t-- {
		if err := r.Leave(p.in, int(own[t])); err != nil {
			return ev, err
		}
	}
	p.rebuild(r.Apply(p.in, p.Allocation()))
	p.crashes++
	p.roundCrash = &ev
	if p.cfg.OnCrash != nil {
		p.cfg.OnCrash(ev)
	}
	return ev, nil
}
