package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"delaylb"
	"delaylb/obs"
)

// recorder counts the public calls a lap makes and, on a traced pass,
// wraps each in a span named after its layer ("qp.solve",
// "session.add_server", ...) carrying the heap bytes it allocated. The
// same scope is handed to the library, so its own spans and counters
// land next to the benchmark's.
type recorder struct {
	scope             *obs.Scope // nil on an untraced pass
	attempted, failed int
	mem               []metrics.Sample
}

func newRecorder(scope *obs.Scope) *recorder {
	return &recorder{scope: scope, mem: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (r *recorder) allocBytes() int64 {
	metrics.Read(r.mem)
	return int64(r.mem[0].Value.Uint64())
}

type callToken struct {
	span  obs.Span
	alloc int64
}

func (r *recorder) begin(name string) callToken {
	r.attempted++
	if r.scope == nil {
		return callToken{}
	}
	return callToken{alloc: r.allocBytes(), span: r.scope.Start(callPrefix + name)}
}

func (r *recorder) end(t callToken, err error, attrs ...obs.Attr) error {
	if err != nil {
		r.failed++
	}
	if r.scope == nil {
		return err
	}
	sp := t.span.With(obs.Int("alloc_bytes", r.allocBytes()-t.alloc))
	for _, a := range attrs {
		sp = sp.With(a)
	}
	sp.End()
	return err
}

// solve wraps one solver call. On a traced pass the call also gets the
// scope and a progress callback that counts improving iterations.
func (r *recorder) solve(layer string, f func(opts ...delaylb.Option) (*delaylb.Result, error)) (stepOut, error) {
	var opts []delaylb.Option
	var prev float64
	var compared, better int64
	if r.scope != nil {
		opts = []delaylb.Option{delaylb.WithObs(r.scope), delaylb.WithProgress(func(it int, cost float64) bool {
			if it > 1 {
				compared++
				if cost < prev {
					better++
				}
			}
			prev = cost
			return true
		})}
	}
	tok := r.begin(layer)
	res, err := f(opts...)
	if err == nil && res == nil {
		err = errors.New("solver returned no result")
	}
	if err != nil {
		return stepOut{}, r.end(tok, err)
	}
	err = r.end(tok, nil, obs.Int("iters", int64(res.Iterations)), obs.Int("nnz", int64(res.NNZ)),
		obs.Int("improving", better), obs.Int("compared", compared))
	return stepOut{cost: res.Cost, iters: res.Iterations, gap: res.Gap}, err
}

// Span names the benchmark records; library spans use other names.
const (
	callPrefix = "call/"
	stepSpan   = "bench.step"
	verifySpan = "bench.verify"
)

// pass is one process-local run of a workload: laps of its fixed step
// sequence, each set up afresh, so every step is timed once per lap.
type pass struct {
	setupS      []float64   // wall-clock of each set-up
	stepMs      [][]float64 // stepMs[k]: step k's wall-clock in each lap
	lapPeakMB   []float64   // per lap, the largest live heap sampled after a step
	laps        int
	fingerprint uint64  // of the first lap; later laps must match
	costRatio   float64 // mean over a lap's steps of ΣC_i / floor
	attempted   int
	failed      int
	problems    []string
	lapStart    func() // called after each lap's set-up, before its first step
}

// perStepMs is each step's median wall-clock over the laps: a burst of
// machine noise that slows one lap does not move it.
func (p *pass) perStepMs() []float64 {
	out := make([]float64, len(p.stepMs))
	for k, xs := range p.stepMs {
		out[k] = median(xs)
	}
	return out
}

func (p *pass) timedS() float64 {
	var s float64
	for _, xs := range p.stepMs {
		for _, ms := range xs {
			s += ms / 1e3
		}
	}
	return s
}

func (p *pass) problem(format string, args ...any) {
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

const (
	// minLaps is the fewest laps an untraced run makes, so that every
	// step has a median.
	minLaps = 3
	// After the laps, cheap set-ups repeat for up to setupBudgetS (at
	// most maxSetups in all) so that their median settles.
	setupBudgetS = 1.0
	maxSetups    = 40
)

// run executes at least wantLaps laps of w, and more while another lap
// fits in seconds of timed steps.
func (p *pass) run(ctx context.Context, w *workload, sz size, seed int64, scope *obs.Scope, seconds float64, wantLaps int) error {
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rec := newRecorder(scope)
	for {
		// Every set-up starts from a collected heap, so whether a GC
		// cycle lands inside it does not depend on the previous lap.
		runtime.GC()
		t0 := time.Now()
		l, err := w.setup(ctx, sz, seed, rec)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		rec.attempted, rec.failed = 0, 0 // set-up calls are not ops
		if p.stepMs == nil {
			p.stepMs = make([][]float64, l.steps)
		}
		if p.lapStart != nil {
			p.lapStart()
		}
		h := fnv.New64a()
		var ratioSum, lapS float64
		var peak uint64
		for k := 0; k < l.steps; k++ {
			a0, f0 := rec.attempted, rec.failed
			sp := scope.Start(stepSpan)
			t := time.Now()
			out, err := l.step(k)
			d := time.Since(t)
			sp.End()
			if err == nil {
				sp = scope.Start(verifySpan)
				err = l.after(&out)
				sp.End()
			}
			if err != nil {
				// A step that fails its check fails every op it made.
				rec.failed = f0 + (rec.attempted - a0)
				p.problem("lap %d step %d: %v", p.laps+1, k, err)
			}
			p.stepMs[k] = append(p.stepMs[k], float64(d)/float64(time.Millisecond))
			lapS += d.Seconds()
			if out.floor > 0 {
				ratioSum += out.cost / out.floor
			}
			var b [24]byte
			binary.LittleEndian.PutUint64(b[0:], uint64(out.iters))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(out.cost))
			binary.LittleEndian.PutUint64(b[16:], uint64(out.bytes))
			h.Write(b[:])
			metrics.Read(heap)
			peak = max(peak, heap[0].Value.Uint64())
		}
		p.attempted += rec.attempted
		p.failed += rec.failed
		p.lapPeakMB = append(p.lapPeakMB, float64(peak)/(1<<20))
		p.laps++
		if p.laps == 1 {
			p.fingerprint, p.costRatio = h.Sum64(), ratioSum/float64(l.steps)
		} else if h.Sum64() != p.fingerprint {
			p.problem("lap %d fingerprint %016x differs from lap 1's %016x", p.laps, h.Sum64(), p.fingerprint)
		}
		if p.laps >= wantLaps && p.timedS()+lapS > seconds {
			return nil
		}
	}
}

// moreSetups repeats w's set-up alone while the set-up budget lasts.
func (p *pass) moreSetups(ctx context.Context, w *workload, sz size, seed int64) error {
	var spent float64
	for _, s := range p.setupS {
		spent += s
	}
	for spent < setupBudgetS && len(p.setupS) < maxSetups {
		runtime.GC()
		t0 := time.Now()
		if _, err := w.setup(ctx, sz, seed, newRecorder(nil)); err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		p.setupS = append(p.setupS, d)
		spent += d
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced pass. Step
// times are per-step medians over the laps; the tail is their 75th
// percentile, the highest that leaves ten of a 40-step lap beyond it.
func (p *pass) endToEnd() map[string]float64 {
	steps := p.perStepMs()
	var sum float64
	for _, ms := range steps {
		sum += ms / 1e3
	}
	return map[string]float64{
		"setup_s":      median(p.setupS),
		"step_ms_p50":  quantile(steps, 0.5),
		"step_ms_p75":  quantile(steps, 0.75),
		"steps_per_s":  float64(len(steps)) / sum,
		"cost_ratio":   p.costRatio,
		"heap_peak_mb": median(p.lapPeakMB),
	}
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
