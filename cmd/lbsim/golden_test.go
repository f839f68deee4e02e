package main

// Timeline goldens: the four committed traces, replayed with the same
// flags as the CI smoke steps, must write byte-identical -timeline JSON.
// Regenerate after an intentional change with:
//
//	go test ./cmd/lbsim -run TestTimelineGolden -update

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the timeline golden files under cmd/lbsim/testdata")

func TestTimelineGolden(t *testing.T) {
	for name, cfg := range map[string]config{
		"tiny":    {Algo: "mine", Replay: "tiny.trace"},
		"outage":  {Algo: "proxy", Replay: "outage.trace"},
		"descend": {Descend: "descend.trace"},
		"faulted": {Descend: "faulted.trace", Faults: "drop=0.2,dup=0.1,reorder=0.2,delay=0.1", Crashes: 1},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Seed = 1 // the -seed default
			if cfg.Replay != "" {
				cfg.Replay = filepath.Join("testdata", cfg.Replay)
			} else {
				cfg.Descend = filepath.Join("testdata", cfg.Descend)
			}
			cfg.Timeline = filepath.Join(t.TempDir(), "timeline.json")
			var sb strings.Builder
			if err := run(context.Background(), cfg, &sb); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(cfg.Timeline)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".timeline.golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/lbsim -run TestTimelineGolden -update` to create it)", err)
			}
			if string(want) != string(got) {
				t.Errorf("%s timeline drifted from %s.\n--- want\n%s--- got\n%s", name, path, want, got)
			}
		})
	}
}
