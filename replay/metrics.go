package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"delaylb"
	"delaylb/obs"
)

// EpochMetrics is one row of the replay timeline. Every field is
// deterministic for a fixed (trace, seed, options) triple — wall-clock
// lives in the timeline's RuntimeStats side struct (see Timeline),
// never here, so persisted timelines stay byte-identical per seed.
type EpochMetrics struct {
	// Epoch is the row index: 0 is the initial solve, k ≥ 1 the k-th
	// trace epoch.
	Epoch int `json:"epoch"`
	// Time is the trace timestamp (0 for the initial solve).
	Time float64 `json:"time"`
	// Events is how many events this epoch applied.
	Events int `json:"events"`
	// Servers is m after the epoch's events.
	Servers int `json:"servers"`
	// TotalLoad is Σ n_i after the epoch's events.
	TotalLoad float64 `json:"total_load"`
	// WarmStartCost is ΣC_i of the carried-over allocation before
	// re-optimizing — how stale the epoch's events left the plan.
	WarmStartCost float64 `json:"warm_start_cost"`
	// Cost is ΣC_i of the adopted allocation after the warm re-solve.
	Cost float64 `json:"cost"`
	// ColdCost is the cold (identity-start) solve's final cost. On epoch
	// 0 it mirrors Cost (the initial solve IS cold); under
	// Config.SkipCold the cold fields of later epochs stay zero — the
	// timeline-level ColdBaseline flag says which reading applies.
	ColdCost float64 `json:"cold_cost"`
	// OptCost is the epoch's reference optimum: the better of the warm
	// and cold final costs.
	OptCost float64 `json:"opt_cost"`
	// WarmIters / ColdIters count solver iterations actually run.
	WarmIters int `json:"warm_iters"`
	ColdIters int `json:"cold_iters"`
	// WarmItersToBand / ColdItersToBand count iterations until the cost
	// trajectory first enters the (1+Band)·OptCost band; 0 means the
	// start point was already inside.
	WarmItersToBand int `json:"warm_iters_to_band"`
	ColdItersToBand int `json:"cold_iters_to_band"`
	// Moved is the reallocation churn: half the L1 distance between the
	// pre- and post-reoptimization request matrices — the number of
	// requests the epoch's re-solve actually moved.
	Moved float64 `json:"moved"`
	// NNZ is the warm solve's stored-entry count (Result.NNZ).
	NNZ int `json:"nnz,omitempty"`
}

// Timeline is the replay engine's output: the per-epoch metrics plus the
// provenance needed to reproduce them.
type Timeline struct {
	Scenario delaylb.Scenario `json:"scenario"`
	Band     float64          `json:"band"`
	// ColdBaseline reports whether the per-epoch cold solves ran (false
	// under Config.SkipCold); without it a cold solve that started
	// inside the band (ColdItersToBand == 0) would be indistinguishable
	// from no cold solve at all.
	ColdBaseline bool           `json:"cold_baseline"`
	Epochs       []EpochMetrics `json:"epochs"`

	// Runtime is the wall-clock side channel: Runtime.At(k) measures
	// Epochs[k] (events + warm solve + cold baseline). Excluded from
	// every JSON encode — the machine-dependent figures render only in
	// WriteTable.
	Runtime *obs.RuntimeStats `json:"-"`
}

// WriteJSON writes the timeline as indented JSON. The bytes are
// deterministic for a fixed (trace, seed, options) triple: wall-clock
// never appears in this form.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}

// WriteTable renders the human summary: one row per epoch, ending with
// the wall-clock column (the one machine-dependent figure, so it lives
// here and not in the JSON).
func (tl *Timeline) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-8s %-6s %-5s %-10s %-12s %-12s %-12s %-7s %-7s %-10s %-8s %s\n",
		"epoch", "time", "events", "m", "load", "warmstart", "cost", "opt", "w2band", "c2band", "moved", "nnz", "elapsed")
	for k, e := range tl.Epochs {
		cold := "-"
		// Epoch 0 mirrors the initial (cold-by-construction) solve even
		// when the per-epoch baseline is off.
		if tl.ColdBaseline || e.Epoch == 0 {
			cold = fmt.Sprintf("%d", e.ColdItersToBand)
		}
		nnz := "-"
		if e.NNZ > 0 {
			nnz = fmt.Sprintf("%d", e.NNZ)
		}
		fmt.Fprintf(w, "%-5d %-8.4g %-6d %-5d %-10.6g %-12.6g %-12.6g %-12.6g %-7d %-7s %-10.6g %-8s %s\n",
			e.Epoch, e.Time, e.Events, e.Servers, e.TotalLoad, e.WarmStartCost, e.Cost, e.OptCost,
			e.WarmItersToBand, cold, e.Moved, nnz, tl.Runtime.At(k).Elapsed.Round(time.Millisecond))
	}
}

// bandOr is the relative optimality band b, or the paper's 2% Table I
// target when unset.
func bandOr(b float64) float64 {
	if b > 0 {
		return b
	}
	return 0.02
}

// itersToBand returns the first index of trace at or below band, or
// len(trace) when the trajectory never enters it (one past the last
// iteration — "not yet").
func itersToBand(trace []float64, band float64) int {
	for k, c := range trace {
		if c <= band {
			return k
		}
	}
	return len(trace)
}
