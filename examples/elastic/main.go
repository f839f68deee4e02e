// Elastic scaling scenario (§IX run online): a 60-server metro cloud
// rides out a flash crowd. A third of the way through the trace the
// hottest metro's demand quintuples and six fresh servers join that
// metro to absorb it; after the crowd passes, demand subsides and the
// extra servers leave again. The replay engine feeds every epoch into a
// live Session — warm-started MinE on the sparse scale-tier path — and
// compares each warm re-solve against a cold solve of the same moment,
// showing why fast convergence makes the algorithm usable "in networks
// with dynamically changing loads".
//
//	go run ./examples/elastic
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"delaylb"
	"delaylb/replay"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run holds the whole scenario; main is a thin wrapper so the smoke
// test can drive it and inspect the output.
func run(w io.Writer) error {
	const (
		m      = 60
		metros = 4
		epochs = 9
		surge  = 5 // the crowd: hot metro demand ×5
		grow   = 6 // elastic servers joining the hot metro
		seed   = 7
	)

	sc := delaylb.NewScenario(m).
		WithClusters(metros).
		WithLoads(delaylb.LoadZipf, 120).
		WithSeed(seed)
	tr, err := replay.FlashCrowd(sc, epochs, surge, grow, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flash-crowd trace: %s, %d epochs, %d events\n", sc, len(tr.Epochs), tr.Events())

	// Traces are files: the same workload can be replayed anywhere,
	// against any solver, and regenerated bit-identically from the seed.
	text, err := tr.EncodeString()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace encodes to %d bytes of plain text (round-trippable)\n\n", len(text))

	tl, err := replay.Run(context.Background(), tr, replay.Config{
		Options: []delaylb.Option{
			delaylb.WithSolver("mine"),
			delaylb.WithSeed(seed),
		},
		Verify: true, // re-check row-stochastic feasibility every epoch
	})
	if err != nil {
		return err
	}
	tl.WriteTable(w)

	warm, cold := 0, 0
	peak := tl.Epochs[0].Servers
	for _, row := range tl.Epochs[1:] {
		warm += row.WarmItersToBand
		cold += row.ColdItersToBand
		if row.Servers > peak {
			peak = row.Servers
		}
	}
	fmt.Fprintf(w, "\nscaled %d → %d → %d servers through the crowd\n",
		tl.Epochs[0].Servers, peak, tl.Epochs[len(tl.Epochs)-1].Servers)
	fmt.Fprintf(w, "iterations back into the 2%% band, summed over epochs: warm %d vs cold %d\n", warm, cold)
	fmt.Fprintf(w, "(the warm starts are the session carrying its allocation through spikes, joins and leaves)\n")
	return nil
}
