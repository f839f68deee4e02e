package main

import (
	"strings"

	"delaylb/obs"
)

// callStats aggregates the benchmark's spans of one call name.
type callStats struct {
	durUs []float64
	sums  map[string]float64 // attribute totals
}

func (c *callStats) n() float64 { return float64(len(c.durUs)) }

func (c *callStats) busyMs() float64 {
	var s float64
	for _, d := range c.durUs {
		s += d
	}
	return s / 1e3
}

// per divides an attribute total by the call count (0 without calls).
func (c *callStats) per(attr string) float64 { return ratio(c.sums[attr], c.n()) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterTotals sums every series of each counter family in a registry.
func counterTotals(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, p := range reg.Snapshot() {
		if p.Kind == "counter" {
			out[p.Name] += p.Value
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics of one traced lap from the
// benchmark's spans and the library counters' growth over the lap
// (before/after are counterTotals snapshots). overheadPct is the traced
// lap's timed wall-clock over the untraced per-step medians' sum, minus
// one, in percent.
func layerMetrics(events []obs.TraceEvent, before, after map[string]float64, overheadPct float64) map[string]float64 {
	calls := map[string]*callStats{}
	var stepUs, callUs, verifyUs float64
	for _, ev := range events {
		switch {
		case ev.Name == stepSpan:
			stepUs += ev.Dur
		case ev.Name == verifySpan:
			verifyUs += ev.Dur
		case strings.HasPrefix(ev.Name, callPrefix):
			name := strings.TrimPrefix(ev.Name, callPrefix)
			c := calls[name]
			if c == nil {
				c = &callStats{sums: map[string]float64{}}
				calls[name] = c
			}
			c.durUs = append(c.durUs, ev.Dur)
			for k, v := range ev.Args {
				c.sums[k] += v
			}
			callUs += ev.Dur
		}
	}
	get := func(name string) *callStats {
		if c := calls[name]; c != nil {
			return c
		}
		return &callStats{sums: map[string]float64{}}
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	m := map[string]float64{
		"bench.loop.self_ms":       (stepUs - callUs) / 1e3,
		"bench.verify.busy_ms":     verifyUs / 1e3,
		"bench.trace_overhead_pct": overheadPct,
	}
	for _, op := range []string{"update_loads", "add_server", "remove_server", "latency_update"} {
		c := get("session." + op)
		p := "session." + op + "."
		m[p+"calls"] = c.n()
		m[p+"busy_ms"] = c.busyMs()
		m[p+"us_p50"] = quantile(c.durUs, 0.5)
		m[p+"alloc_kb_per_call"] = c.per("alloc_bytes") / (1 << 10)
	}

	qp := get("qp.solve")
	m["qp.solve.calls"] = qp.n()
	m["qp.solve.busy_ms"] = qp.busyMs()
	m["qp.solve.ms_p50"] = quantile(qp.durUs, 0.5) / 1e3
	m["qp.iters_per_solve"] = qp.per("iters")
	m["qp.us_per_iter"] = ratio(qp.busyMs()*1e3, qp.sums["iters"])
	m["qp.nnz_mean"] = qp.per("nnz")
	m["qp.alloc_mb_per_solve"] = qp.per("alloc_bytes") / (1 << 20)
	m["qp.improving_iter_ratio"] = ratio(qp.sums["improving"], qp.sums["compared"])
	m["qp.sweeps"] = delta("qp_sweeps_total")
	m["qp.lmo_calls_per_sweep"] = ratio(delta("qp_lmo_calls_total"), delta("qp_sweeps_total"))
	m["qp.drop_steps"] = delta("qp_drop_steps_total")

	for _, start := range []string{"warm", "cold"} {
		c := get("core." + start)
		p := "core." + start + "."
		m[p+"calls"] = c.n()
		m[p+"busy_ms"] = c.busyMs()
		m[p+"ms_p50"] = quantile(c.durUs, 0.5) / 1e3
		m[p+"iters_per_solve"] = c.per("iters")
		m[p+"ms_per_iter"] = ratio(c.busyMs(), c.sums["iters"])
		m[p+"nnz_mean"] = c.per("nnz")
		m[p+"alloc_mb_per_solve"] = c.per("alloc_bytes") / (1 << 20)
		m[p+"improving_iter_ratio"] = ratio(c.sums["improving"], c.sums["compared"])
	}

	rd := get("descent.round")
	m["descent.round.calls"] = rd.n()
	m["descent.round.busy_ms"] = rd.busyMs()
	m["descent.round.ms_p50"] = quantile(rd.durUs, 0.5) / 1e3
	m["descent.round.ms_p99"] = quantile(rd.durUs, 0.99) / 1e3
	m["descent.bytes_per_round"] = rd.per("bytes")
	m["descent.messages_per_round"] = rd.per("messages")
	m["descent.stepped_per_round"] = rd.per("stepped")
	m["descent.alloc_kb_per_round"] = rd.per("alloc_bytes") / (1 << 10)
	m["descent.improving_round_ratio"] = ratio(rd.sums["improving"], rd.sums["compared"])
	for _, op := range []string{"update_loads", "join", "leave"} {
		c := get("descent." + op)
		m["descent."+op+".calls"] = c.n()
		m["descent."+op+".busy_ms"] = c.busyMs()
	}
	return m
}
