package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"delaylb"
	"delaylb/descent"
	"delaylb/obs"
	"delaylb/replay"
	"delaylb/sweep"
)

// Fixed workload constants. A lap's step count and these values are the
// same on every commit, so laps of two commits do the same work.
const (
	avgLoad      = 100  // zipf mean load per server
	surge        = 5    // FlashCrowd hot-metro load factor
	grow         = 10   // FlashCrowd elastic servers
	fwTol        = 1e-3 // relative duality gap: the paper's 0.1% Table II target
	fwSetupCap   = 600  // FW iteration cap of the initial solve
	fwCap        = 50   // FW iterations an epoch may spend; nearly every epoch spends them
	mineCap      = 60   // MinE (proxy) iteration cap
	outageDown   = 3    // epochs a metro stays down per MetroOutage cycle
	participate  = 0.2  // descent per-row step probability
	roundsPerStp = 16   // descent rounds per epoch
)

// deploySeed fixes the deployment (metro geometry, speeds, base loads)
// of the three trace workloads. Their -seed draws the event trace, so
// runs with different seeds do the same kind of work: with the
// deployment drawn from the seed too, zipf placement and metro geometry
// moved step times by 14-34% between seeds.
const deploySeed = 1

// size is a workload's scale. The full sizes define the benchmark; the
// smoke sizes let the test run every code path in a second.
type size struct {
	M      int `json:"m"`
	Metros int `json:"metros"`
	Steps  int `json:"steps"`
	// Warmup is the descent plane's initial round count (from identity).
	Warmup int `json:"warmup_rounds,omitempty"`
}

// workload is one set of inputs. setup builds everything the timed loop
// needs, including the initial solve; lap steps are then timed one by one.
type workload struct {
	name  string
	full  size
	smoke size
	// fixed lists the constants the workload uses, for the result file.
	fixed map[string]any
	setup func(ctx context.Context, sz size, seed int64, r *recorder) (*lap, error)
}

// lap is one pass over a workload's fixed step sequence.
type lap struct {
	steps int
	// step performs step k through public calls; it is timed.
	step func(k int) (stepOut, error)
	// after verifies the state step k left behind and fills out.floor;
	// it is not timed.
	after func(out *stepOut) error
}

// stepOut is what a step reports for the fingerprint and the checks.
type stepOut struct {
	cost  float64 // ΣC_i after the step
	iters int     // solver iterations, or descent rounds
	bytes int64   // descent cross-actor bytes
	gap   float64 // FW duality gap at the last certificate
	// floor is N²/(2S) for total load N and total speed S after the step:
	// ΣC_i with every delay zero, a lower bound on it.
	floor float64
}

var workloads = []*workload{
	{
		name:  "flash-fw",
		full:  size{M: 700, Metros: 8, Steps: 40},
		smoke: size{M: 60, Metros: 4, Steps: 6},
		fixed: map[string]any{"solver": "frankwolfe-away-sparse", "tol": fwTol, "cap": fwCap, "setup_cap": fwSetupCap, "surge": surge, "grow": grow},
		setup: setupFlashFW,
	},
	{
		name:  "outage-mine",
		full:  size{M: 2400, Metros: 16, Steps: 40},
		smoke: size{M: 60, Metros: 4, Steps: 6},
		fixed: map[string]any{"solver": "proxy-sparse", "cap": mineCap, "down_for": outageDown},
		setup: setupOutageMinE,
	},
	{
		name:  "descent-flash",
		full:  size{M: 1500, Metros: 16, Steps: 40, Warmup: 100},
		smoke: size{M: 60, Metros: 4, Steps: 6, Warmup: 10},
		fixed: map[string]any{"participation": participate, "rounds_per_step": roundsPerStp, "surge": surge, "grow": grow, "transport": "bus"},
		setup: setupDescentFlash,
	},
	{
		name:  "cold-mine",
		full:  size{M: 1100, Metros: 12, Steps: 40},
		smoke: size{M: 60, Metros: 4, Steps: 6},
		fixed: map[string]any{"solver": "proxy-sparse", "cap": mineCap},
		setup: setupColdMinE,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scenario is the deployment of size sz drawn from seed.
func scenario(sz size, seed int64) delaylb.Scenario {
	return delaylb.NewScenario(sz.M).WithClusters(sz.Metros).WithLoads(delaylb.LoadZipf, avgLoad).WithSeed(seed)
}

func setupFlashFW(ctx context.Context, sz size, seed int64, r *recorder) (*lap, error) {
	sc := scenario(sz, deploySeed)
	tr, err := replay.FlashCrowd(sc, sz.Steps, surge, grow, seed)
	if err != nil {
		return nil, err
	}
	opts := []delaylb.Option{delaylb.WithSolver("frankwolfe"), delaylb.WithFWVariant(delaylb.FWAway),
		delaylb.WithSparse(), delaylb.WithTolerance(fwTol), delaylb.WithMaxIterations(fwCap)}
	return sessionLap(ctx, sc, tr.Epochs, "qp.solve", opts, []delaylb.Option{delaylb.WithMaxIterations(fwSetupCap)}, r,
		func(out *stepOut) error {
			if out.gap > fwTol*math.Max(1, out.cost) && out.iters != fwCap {
				return fmt.Errorf("FW stopped at gap %g (cost %g) after %d iterations", out.gap, out.cost, out.iters)
			}
			return nil
		})
}

func setupOutageMinE(ctx context.Context, sz size, seed int64, r *recorder) (*lap, error) {
	sc := scenario(sz, deploySeed)
	var epochs []replay.Epoch
	for c := 0; len(epochs) < sz.Steps; c++ {
		tr, err := replay.MetroOutage(sc, c%sz.Metros, outageDown, seed+int64(c))
		if err != nil {
			return nil, err
		}
		epochs = append(epochs, tr.Epochs...)
	}
	opts := []delaylb.Option{delaylb.WithSolver("proxy"), delaylb.WithSparse(), delaylb.WithMaxIterations(mineCap)}
	return sessionLap(ctx, sc, epochs[:sz.Steps], "core.warm", opts, nil, r, nil)
}

// sessionLap replays epochs on a session over sc: the initial solve from
// identity (with setupOpts overriding opts) is set-up; each
// step applies one epoch's events and re-optimizes warm, the solve being
// recorded as layer. check, when set, adds a solver-specific check.
func sessionLap(ctx context.Context, sc delaylb.Scenario, epochs []replay.Epoch, layer string,
	opts, setupOpts []delaylb.Option, r *recorder, check func(*stepOut) error) (*lap, error) {
	sys, err := sc.Build()
	if err != nil {
		return nil, err
	}
	in, err := sc.Instance()
	if err != nil {
		return nil, err
	}
	sess := sys.NewSession(opts...)
	if _, err := sess.Reoptimize(ctx, setupOpts...); err != nil {
		return nil, err
	}
	t := newTranslator(sessionBackend{sess}, sessionOps, in.Speed, r)
	return &lap{
		steps: len(epochs),
		step: func(k int) (stepOut, error) {
			if err := t.apply(epochs[k].Events); err != nil {
				return stepOut{}, err
			}
			return r.solve(layer, func(opts ...delaylb.Option) (*delaylb.Result, error) {
				return sess.Reoptimize(ctx, opts...)
			})
		},
		after: func(out *stepOut) error {
			if check != nil {
				if err := check(out); err != nil {
					return err
				}
			}
			loads := sess.Loads()
			out.floor = floor(loads, t.speeds)
			return checkRows(loads, sess.Result().Each)
		},
	}, nil
}

func setupDescentFlash(_ context.Context, sz size, seed int64, r *recorder) (*lap, error) {
	sc := scenario(sz, deploySeed)
	tr, err := replay.FlashCrowd(sc, sz.Steps, surge, grow, seed)
	if err != nil {
		return nil, err
	}
	in, err := sc.Instance()
	if err != nil {
		return nil, err
	}
	// One shard per metro (the default on block instances) over the
	// lossless in-memory Bus. The scope is attached from the start, so
	// warm-up rounds reach the counters; the runner reads counter deltas.
	p, err := descent.NewPlane(in, descent.Config{Participation: participate, Seed: seed, Obs: r.scope})
	if err != nil {
		return nil, err
	}
	for i := 0; i < sz.Warmup; i++ {
		if _, err := p.Round(); err != nil {
			return nil, err
		}
	}
	t := newTranslator(planeBackend{p}, descentOps, in.Speed, r)
	return &lap{
		steps: len(tr.Epochs),
		step: func(k int) (stepOut, error) {
			if err := t.apply(tr.Epochs[k].Events); err != nil {
				return stepOut{}, err
			}
			out := stepOut{iters: roundsPerStp}
			prev := p.Cost()
			for i := 0; i < roundsPerStp; i++ {
				tok := r.begin("descent.round")
				met, err := p.Round()
				var better int64
				if met.Cost < prev {
					better = 1
				}
				if r.end(tok, err, obs.Int("bytes", met.Bytes), obs.Int("messages", met.Messages),
					obs.Int("stepped", int64(met.Stepped)), obs.Int("improving", better), obs.Int("compared", 1)) != nil {
					return out, err
				}
				out.bytes += met.Bytes
				prev = met.Cost
			}
			out.cost = p.Cost()
			return out, nil
		},
		after: func(out *stepOut) error {
			in, a := p.Instance(), p.Allocation()
			out.floor = floor(in.Load, in.Speed)
			return checkRows(in.Load, func(f func(i, j int, v float64)) {
				for i, idx := range a.Idx {
					for t, j := range idx {
						f(i, int(j), a.Val[i][t])
					}
				}
			})
		},
	}, nil
}

func setupColdMinE(ctx context.Context, sz size, seed int64, r *recorder) (*lap, error) {
	// Instance sz.Steps is solved once here, so the first timed solve
	// does not pay for growing the heap.
	systems := make([]*delaylb.System, sz.Steps+1)
	loads := make([][]float64, sz.Steps+1)
	floors := make([]float64, sz.Steps+1)
	for i := range systems {
		sc := scenario(sz, sweep.CellSeed(seed, i))
		sys, err := sc.Build()
		if err != nil {
			return nil, err
		}
		in, err := sc.Instance()
		if err != nil {
			return nil, err
		}
		systems[i], loads[i], floors[i] = sys, in.Load, floor(in.Load, in.Speed)
	}
	opts := []delaylb.Option{delaylb.WithSolver("proxy"), delaylb.WithSparse(), delaylb.WithMaxIterations(mineCap)}
	if _, err := systems[sz.Steps].OptimizeContext(ctx, opts...); err != nil {
		return nil, err
	}
	var last *delaylb.Result
	var lastK int
	return &lap{
		steps: sz.Steps,
		step: func(k int) (stepOut, error) {
			last, lastK = nil, k
			return r.solve("core.cold", func(extra ...delaylb.Option) (*delaylb.Result, error) {
				res, err := systems[k].OptimizeContext(ctx, append(opts[:len(opts):len(opts)], extra...)...)
				last = res
				return res, err
			})
		},
		after: func(out *stepOut) error {
			out.floor = floors[lastK]
			if tr := last.CostTrace; len(tr) > 0 && last.Cost > tr[0] {
				return fmt.Errorf("cold solve raised the cost from %g to %g", tr[0], last.Cost)
			}
			return checkRows(loads[lastK], last.Each)
		},
	}, nil
}

// floor is N²/(2S): ΣC_i of an instance with total load N spread over
// total speed S at zero delay, which no allocation beats.
func floor(loads, speeds []float64) float64 {
	var n, s float64
	for _, l := range loads {
		n += l
	}
	for _, v := range speeds {
		s += v
	}
	return n * n / (2 * s)
}

// checkRows verifies an allocation: every entry finite and non-negative,
// every row summing to its load within 1e-6·max(1, n_i).
func checkRows(loads []float64, each func(func(i, j int, v float64))) error {
	sums := make([]float64, len(loads))
	var bad error
	each(func(i, j int, v float64) {
		if bad != nil {
			return
		}
		if i >= len(sums) || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = fmt.Errorf("entry r[%d][%d]=%v invalid for %d rows", i, j, v, len(sums))
			return
		}
		sums[i] += v
	})
	if bad != nil {
		return bad
	}
	for i, s := range sums {
		if !(math.Abs(s-loads[i]) <= 1e-6*math.Max(1, loads[i])) {
			return fmt.Errorf("row %d sums to %v, want %v", i, s, loads[i])
		}
	}
	return nil
}

// backend is the state a translator mutates: a Session or a Plane.
type backend interface {
	loads() []float64
	updateLoads(loads []float64) error
	join(speed, load float64, metro int) error
	leave(i int) error
	// scaleBackbone scales every metro-pair delay and returns the table
	// it replaced, for the matching restore.
	scaleBackbone(factor float64) ([][]float64, error)
	restoreBackbone(table [][]float64) error
}

type sessionBackend struct{ s *delaylb.Session }

func (b sessionBackend) loads() []float64              { return b.s.Loads() }
func (b sessionBackend) updateLoads(l []float64) error { return b.s.UpdateLoads(l) }
func (b sessionBackend) leave(i int) error             { return b.s.RemoveServer(i) }
func (b sessionBackend) join(speed, load float64, metro int) error {
	return b.s.AddServer(delaylb.ServerSpec{Speed: speed, Load: load, Cluster: metro})
}
func (b sessionBackend) scaleBackbone(f float64) ([][]float64, error) {
	table, _, ok := b.s.BlockLatency()
	if !ok {
		return nil, errors.New("session is not block-latency backed")
	}
	return table, b.s.ApplyLatencyUpdate(delaylb.ScaleBackbone(f))
}
func (b sessionBackend) restoreBackbone(t [][]float64) error {
	return b.s.ApplyLatencyUpdate(delaylb.RestoreBlockLatency(t))
}

type planeBackend struct{ p *descent.Plane }

func (b planeBackend) loads() []float64              { return append([]float64(nil), b.p.Instance().Load...) }
func (b planeBackend) updateLoads(l []float64) error { return b.p.UpdateLoads(l) }
func (b planeBackend) leave(i int) error             { return b.p.Leave(i) }
func (b planeBackend) join(speed, load float64, metro int) error {
	return b.p.Join(speed, load, nil, nil, metro)
}
func (b planeBackend) scaleBackbone(float64) ([][]float64, error) {
	return nil, errors.New("the descent plane takes no latency updates")
}
func (b planeBackend) restoreBackbone([][]float64) error {
	return errors.New("the descent plane takes no latency updates")
}

// translator turns generator events into backend calls the way
// replay/engine.go batches them: load edits collect into one update per
// epoch, flushed before any membership change, and servers are named by
// stable id across churn. It covers only the event kinds the generators
// emit: spike, cluster join, leave and wildcard latshift/latrestore.
type translator struct {
	b       backend
	ops     opNames
	r       *recorder
	ids     []int64
	idx     map[int64]int
	pending []float64
	snaps   [][][]float64 // tables replaced by latshifts, latest last
	speeds  []float64     // speed of each live server, by index
}

// opNames are the span names of a backend's calls.
type opNames struct{ update, join, leave, latency string }

var (
	sessionOps = opNames{"session.update_loads", "session.add_server", "session.remove_server", "session.latency_update"}
	descentOps = opNames{"descent.update_loads", "descent.join", "descent.leave", "descent.latency_update"}
)

func newTranslator(b backend, ops opNames, speeds []float64, r *recorder) *translator {
	m := len(speeds)
	t := &translator{b: b, ops: ops, r: r, ids: make([]int64, m), idx: make(map[int64]int, m),
		speeds: append([]float64(nil), speeds...)}
	for i := range t.ids {
		t.ids[i] = int64(i)
		t.idx[int64(i)] = i
	}
	return t
}

func (t *translator) call(name string, f func() error) error {
	return t.r.end(t.r.begin(name), f())
}

func (t *translator) flush() error {
	if t.pending == nil {
		return nil
	}
	l := t.pending
	t.pending = nil
	return t.call(t.ops.update, func() error { return t.b.updateLoads(l) })
}

func (t *translator) apply(events []replay.Event) error {
	for _, ev := range events {
		if err := t.event(ev); err != nil {
			return fmt.Errorf("%s event %+v: %w", ev.Kind, ev, err)
		}
	}
	return t.flush()
}

func (t *translator) event(ev replay.Event) error {
	wildcard := ev.ID == replay.Wildcard && ev.To == replay.Wildcard
	switch {
	case ev.Kind == replay.Spike:
		i, ok := t.idx[ev.ID]
		if !ok {
			return errors.New("no such server")
		}
		if t.pending == nil {
			t.pending = t.b.loads()
		}
		t.pending[i] *= ev.Value
	case ev.Kind == replay.ServerJoin && ev.Join == replay.JoinCluster:
		if err := t.flush(); err != nil {
			return err
		}
		if _, dup := t.idx[ev.ID]; dup {
			return errors.New("id already live")
		}
		if err := t.call(t.ops.join, func() error { return t.b.join(ev.Speed, ev.Load, ev.Cluster) }); err != nil {
			return err
		}
		t.idx[ev.ID] = len(t.ids)
		t.ids = append(t.ids, ev.ID)
		t.speeds = append(t.speeds, ev.Speed)
	case ev.Kind == replay.ServerLeave:
		if err := t.flush(); err != nil {
			return err
		}
		i, ok := t.idx[ev.ID]
		if !ok {
			return errors.New("no such server")
		}
		if err := t.call(t.ops.leave, func() error { return t.b.leave(i) }); err != nil {
			return err
		}
		t.ids = append(t.ids[:i], t.ids[i+1:]...)
		t.speeds = append(t.speeds[:i], t.speeds[i+1:]...)
		delete(t.idx, ev.ID)
		for _, id := range t.ids[i:] {
			t.idx[id]--
		}
	case ev.Kind == replay.LatencyShift && wildcard:
		var table [][]float64
		err := t.call(t.ops.latency, func() (err error) {
			table, err = t.b.scaleBackbone(ev.Value)
			return err
		})
		if err != nil {
			return err
		}
		t.snaps = append(t.snaps, table)
	case ev.Kind == replay.LatencyRestore && wildcard:
		n := len(t.snaps)
		if n == 0 {
			return errors.New("no latshift to restore")
		}
		table := t.snaps[n-1]
		t.snaps = t.snaps[:n-1]
		return t.call(t.ops.latency, func() error { return t.b.restoreBackbone(table) })
	default:
		return errors.New("event kind not supported by the benchmark")
	}
	return nil
}
