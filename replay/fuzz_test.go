package replay

import (
	"context"
	"reflect"
	"testing"

	"delaylb"
)

// traceSeeds is the FuzzParseTrace corpus; FuzzReplayBackends starts
// from it too.
var traceSeeds = []string{
	"scenario m=5 net=metro dist=zipf avg=50 clusters=2 seed=9\nepoch 1\nspike 2 4\nload 0 -10\n",
	"scenario m=3\nepoch 1\njoin 3 speed=2 load=0 uniform=5\nepoch 2\nleave 3\n",
	"scenario m=4 net=pl\nepoch 0.5\nlatshift * * 1.5\nlatshift 1 2 0\n",
	"# comment\n\nscenario m=2 net=c20 latency=7 smin=2 smax=3 speeds=uniform\nepoch 1\n",
	"scenario m=0\n",
	"epoch 1\nspike 0 2\n",
	"scenario m=3\nepoch 2\nepoch 1\n",
	"join 9 speed=1e309 load=-0 cluster=-1",
}

// FuzzParseTrace: the trace parser must never panic, must only accept
// traces that Validate, and must round-trip everything it accepts —
// Encode(Parse(x)) parses back to the same value.
func FuzzParseTrace(f *testing.F) {
	for _, s := range traceSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := ParseTraceString(text)
		if err != nil {
			return
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("ParseTrace accepted a trace Validate rejects: %v", verr)
		}
		enc, err := tr.EncodeString()
		if err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		back, err := ParseTraceString(enc)
		if err != nil {
			t.Fatalf("canonical encoding failed to reparse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip drifted:\nwant %+v\ngot  %+v\nvia\n%s", tr, back, enc)
		}
	})
}

// FuzzReplayBackends drives small parsed traces through both backends
// of the replay loop. Every failure must come back as an error, never a
// panic; the plane must refuse latency events; and since the shared
// loop applies the events for both, the two timelines must agree on
// the fleet size and its total load epoch by epoch.
func FuzzReplayBackends(f *testing.F) {
	for _, s := range traceSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := ParseTraceString(text)
		if err != nil || tr.Scenario.Servers > 16 || len(tr.Epochs) > 4 {
			return
		}
		ctx := context.Background()
		stl, serr := Run(ctx, tr, Config{
			Options:  append(DefaultOptions(), delaylb.WithMaxIterations(20)),
			SkipCold: true,
			Verify:   true,
		})
		dtl, derr := RunDescent(ctx, tr, DescentConfig{SkipOracle: true, RoundBudget: 20, Verify: true})
		for _, ep := range tr.Epochs {
			for _, ev := range ep.Events {
				if ev.Kind == LatencyShift || ev.Kind == LatencyRestore {
					if derr == nil {
						t.Fatal("the descent backend accepted a latency event")
					}
					return
				}
			}
		}
		var srows []EpochMetrics
		var drows []DescentEpoch
		if stl != nil {
			srows = stl.Epochs
		}
		if dtl != nil {
			drows = dtl.Epochs
		}
		if serr == nil && derr == nil && len(srows) != len(drows) {
			t.Fatalf("both replays succeeded with %d vs %d rows", len(srows), len(drows))
		}
		for k := 0; k < len(srows) && k < len(drows); k++ {
			s, d := srows[k], drows[k]
			if s.Servers != d.Servers || s.TotalLoad != d.TotalLoad {
				t.Errorf("epoch %d: session m=%d load=%v, plane m=%d load=%v", k, s.Servers, s.TotalLoad, d.Servers, d.TotalLoad)
			}
		}
	})
}
