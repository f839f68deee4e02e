package delaylb

import (
	"fmt"

	"delaylb/internal/model"
)

// LatencyUpdate is a structured network change: instead of feeding a
// whole m×m matrix through Session.UpdateLatency (inherently O(m²), and
// the one operation that used to densify a block-latency session), a
// structured update names what changed in the metro vocabulary — scale
// one metro pair, scale the whole backbone, or restore a saved block
// table — and a NetClustered session absorbs it natively on the k×k
// delay table in O(m + k²).
//
// The dense path survives as the oracle: on a dense-latency session with
// cluster labels the same update is applied entry-by-entry, bit-identical
// to the block fast path (pinned by FuzzLatencyUpdate), so a replay on a
// block session and its dense twin produce byte-identical timelines.
type LatencyUpdate struct {
	u    model.LatencyUpdate
	desc string
}

// ScaleMetroPair scales the directed delay from metro g to metro h by
// factor — one degraded (or recovered-by-rerouting) backbone link.
// g == h scales metro g's intra-metro delay.
func ScaleMetroPair(g, h int, factor float64) LatencyUpdate {
	return LatencyUpdate{
		u:    model.ScaleMetroPair{G: g, H: h, Factor: factor},
		desc: fmt.Sprintf("scale metro %d→%d ×%v", g, h, factor),
	}
}

// ScaleBackbone scales every metro-pair delay (intra-metro links
// included) by factor — the whole-network degradation of an outage
// epoch. Factor 1.25 is the replay generators' canonical degrade.
func ScaleBackbone(factor float64) LatencyUpdate {
	return LatencyUpdate{
		u:    model.ScaleBackbone{Factor: factor},
		desc: fmt.Sprintf("scale backbone ×%v", factor),
	}
}

// RestoreBlockLatency replaces the session's block-delay table with the
// given k×k snapshot — typically one taken with Session.BlockLatency
// before a degradation — restoring the pre-shift delays bit-exactly
// (scaling by the inverse factor cannot, in IEEE arithmetic). The table
// is copied; the caller keeps ownership of the snapshot.
func RestoreBlockLatency(delay [][]float64) LatencyUpdate {
	return LatencyUpdate{
		u:    model.RestoreDelayTable{Delay: delay},
		desc: fmt.Sprintf("restore %d-metro delay table", len(delay)),
	}
}

// String describes the update for logs and errors.
func (u LatencyUpdate) String() string {
	if u.u == nil {
		return "no-op latency update"
	}
	return u.desc
}

// DenseMaterializations returns the process-wide count of dense m×m
// latency materializations — every time a block (NetClustered) latency
// view was expanded into the full matrix, by Session.Latency or any
// internal fallback. At scale the whole point of the block
// representation and the structured-update path is that this counter
// does not move: the scale-tier tests, and lbsim's -assert-nodense
// flag, assert a zero delta across a run. Monotone; sample before and
// after and compare.
func DenseMaterializations() int64 {
	return model.BlockDenseMaterializations.Load()
}

// ApplyLatencyUpdate applies a structured network change to the session.
// On a block-latency (NetClustered) session this is the O(m + k²) fast
// path: a fresh k×k table is swapped in copy-on-write — the session
// stays block-backed, no dense matrix is ever materialized, and
// subsequent churn keeps its O(m + k²) cost. On a dense-latency session
// with cluster labels the update applies to the matrix entry-by-entry
// (bit-identical to the block path); without labels it errors, and
// Session.UpdateLatency remains the escape hatch for unstructured
// changes. The allocation is untouched — it stays feasible because no
// loads moved — and the epoch advances; call Reoptimize to adapt.
func (s *Session) ApplyLatencyUpdate(u LatencyUpdate) error {
	if u.u == nil {
		return fmt.Errorf("delaylb: ApplyLatencyUpdate on a zero LatencyUpdate")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
	next, err := s.in.WithLatencyUpdate(u.u)
	if err != nil {
		return err
	}
	s.in = next
	s.epoch++
	return nil
}
