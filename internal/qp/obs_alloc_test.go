package qp

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"delaylb/internal/model"
	"delaylb/obs"
)

// The solver's telemetry contract: with a nil scope, every obs call the
// sweep loop makes — the resolved bundle fold and the solve span — must
// cost zero allocations. The solver's own per-iteration allocations
// (direction rows, line-search state) are not obs's to answer for; this
// test isolates exactly the instrumentation that SolveFrankWolfeSparse
// and the active-set variants added.
func TestDisabledSolveObsZeroAlloc(t *testing.T) {
	in := clusteredInstance(t, 100, 4, 9)
	rho := SolveFrankWolfeSparse(in, Options{Tol: 1e-6, MaxIters: 100}).Rho
	for _, v := range []Variant{VariantClassic, VariantAway, VariantPairwise} {
		sobs := newSolveObs(nil, v)
		var opt Options // Obs deliberately nil: the default every caller gets
		allocs := testing.AllocsPerRun(200, func() {
			span := opt.Obs.Start("qp.solve")
			sobs.sweep(1.5e-3, 42.0, rho)
			sobs.dropSteps.Add(1)
			sobs.lmoCalls.Add(3)
			sobs.lmoSkips.Add(2)
			span.With(obs.Float("gap", 1.5e-3)).With(obs.Int("iters", 12)).End()
		})
		if allocs != 0 {
			t.Errorf("%v: disabled solve instrumentation allocated %.1f per sweep, want 0", v, allocs)
		}
	}
}

// TestSolveObsCounters pins the per-variant counters the repository
// benchmark reads (qp.sweeps, qp.lmo_calls_per_sweep, qp.drop_steps):
// one sweep per iteration; for classic, one oracle call per loaded row
// per iteration and no drop steps; for away and pairwise, at least that
// many oracle calls. Bracket-settled row steps (qp_lmo_skipped_total)
// never occur in classic or on the generic oracle, and do occur in away
// runs on the metro oracle. Runs end both by tolerance and by MaxIters,
// on the metro and the generic oracle, with some zero-load rows.
func TestSolveObsCounters(t *testing.T) {
	clustered := clusteredInstance(t, 60, 5, 7)
	generic := randomInstance(t, 25, 11)
	for _, in := range []*model.Instance{clustered, generic} {
		in.Load[3], in.Load[8] = 0, 0
	}
	for _, in := range []*model.Instance{clustered, generic} {
		var loaded int64
		for _, n := range in.Load {
			if n != 0 {
				loaded++
			}
		}
		for _, v := range []Variant{VariantClassic, VariantAway, VariantPairwise} {
			var skipped int64
			for _, opt := range []Options{{Tol: 1e-6, MaxIters: 500}, {Tol: 1e-12, MaxIters: 7}} {
				reg := obs.NewRegistry()
				opt.Variant, opt.Obs = v, obs.NewScope(reg, nil)
				res := SolveFrankWolfeSparse(in, opt)
				label := fmt.Sprintf("%v m=%d maxIters=%d", v, in.M(), opt.MaxIters)
				sweeps := reg.Counter("qp_sweeps_total", "variant", v.String()).Value()
				calls := reg.Counter("qp_lmo_calls_total", "variant", v.String()).Value()
				drops := reg.Counter("qp_drop_steps_total", "variant", v.String()).Value()
				skipped += reg.Counter("qp_lmo_skipped_total", "variant", v.String()).Value()
				if sweeps != int64(res.Iters) {
					t.Errorf("%s: qp_sweeps_total %d, Iters %d", label, sweeps, res.Iters)
				}
				perIter := loaded * int64(res.Iters)
				switch {
				case v == VariantClassic && (calls != perIter || drops != 0):
					t.Errorf("%s: lmo calls %d, drops %d; want %d and 0", label, calls, drops, perIter)
				case v != VariantClassic && calls < perIter:
					t.Errorf("%s: lmo calls %d below loaded rows × Iters = %d", label, calls, perIter)
				}
			}
			switch {
			case (v == VariantClassic || in == generic) && skipped != 0:
				t.Errorf("%v m=%d: %d bracket-settled row steps, want 0", v, in.M(), skipped)
			case in == clustered && v == VariantAway && skipped == 0:
				t.Errorf("%v m=%d: no bracket-settled row step on the metro oracle", v, in.M())
			}
		}
	}
}

// TestSolverObsOverheadSmoke compares wall-clock of instrumented vs
// uninstrumented solves. Timing under arbitrary CI load is inherently
// noisy, so the check only arms when OBS_OVERHEAD_SMOKE is set (the
// dedicated CI step does; the regular test job does not).
func TestSolverObsOverheadSmoke(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_SMOKE") == "" {
		t.Skip("set OBS_OVERHEAD_SMOKE=1 to arm the overhead check")
	}
	in := clusteredInstance(t, 400, 8, 21)
	opt := Options{Tol: 1e-7, MaxIters: 300}
	solve := func(sc *obs.Scope) time.Duration {
		o := opt
		o.Obs = sc
		start := time.Now()
		for i := 0; i < 5; i++ {
			SolveFrankWolfeSparse(in, o)
		}
		return time.Since(start)
	}
	solve(nil) // warm caches before either timed pass
	off := solve(nil)
	on := solve(obs.NewScope(obs.NewRegistry(), obs.NewTracer()))
	t.Logf("off=%v on=%v overhead=%.1f%%", off, on, 100*(on.Seconds()-off.Seconds())/off.Seconds())
	if on.Seconds() > off.Seconds()*1.10 {
		t.Errorf("enabled obs overhead above 10%%: off=%v on=%v", off, on)
	}
}

// BenchmarkSparseSolveObs reports the enabled-path cost next to the
// disabled baseline so the overhead trend is visible in routine bench
// runs, not only in the gated smoke test.
func BenchmarkSparseSolveObs(b *testing.B) {
	in := randInstance(rand.New(rand.NewSource(1)), 200)
	for _, bc := range []struct {
		name  string
		scope func() *obs.Scope
	}{
		{"off", func() *obs.Scope { return nil }},
		{"on", func() *obs.Scope { return obs.NewScope(obs.NewRegistry(), obs.NewTracer()) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opt := Options{Tol: 1e-6, MaxIters: 200, Obs: bc.scope()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SolveFrankWolfeSparse(in, opt)
			}
		})
	}
}
