// CDN scenario (paper §I, §VII): a federation of 40 edge servers serves
// content with Zipf-skewed request popularity. Requests are balanced
// delay-aware, the fractional solution is rounded to whole content
// chunks, and each chunk is placed on R = 2 replicas for availability.
//
//	go run ./examples/cdn
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"delaylb"
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
		m        = 40
		avgLoad  = 200 // requests per edge server on average
		replicas = 2
		seed     = 7
	)

	// PlanetLab-like geography (clustered latencies, 5–300 ms), Zipf
	// popularity skew, heterogeneous edge hardware — one declarative,
	// deterministic scenario.
	sys, err := delaylb.NewScenario(m).
		WithNetwork(delaylb.NetPlanetLab).
		WithLoads(delaylb.LoadZipf, avgLoad).
		WithSpeeds(delaylb.SpeedUniform, 1, 5).
		WithSeed(seed).
		Build()
	if err != nil {
		return err
	}

	// 1. Delay-aware balancing of download requests (§I: complementary
	// to consistent caching — once content must be fetched from
	// back-ends, this is how to spread the fetches).
	opt, err := sys.Optimize()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fractional optimum: ΣC_i = %.0f ms (converged in %d iterations)\n",
		opt.Cost, opt.Iterations)

	// 2. Round to whole content chunks (mean size 5 requests' worth).
	tasks, err := sys.GenerateTasks(5, seed+3)
	if err != nil {
		return err
	}
	_, discrete, err := sys.RoundTasks(opt, tasks)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after rounding %d chunks: ΣC_i = %.0f ms (+%.2f%% vs fractional)\n",
		len(tasks), discrete.Cost, 100*(discrete.Cost-opt.Cost)/opt.Cost)

	// 3. Replicated placement: no server may hold more than 1/R of an
	// organization's content, so R distinct replicas always exist.
	repl, err := sys.OptimizeReplicated(replicas)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replication-constrained optimum (R=%d): ΣC_i = %.0f ms (+%.2f%% vs unconstrained)\n",
		replicas, repl.Cost, 100*(repl.Cost-opt.Cost)/opt.Cost)

	// Place the replicas of three example chunks of the busiest org.
	busiest := 0
	maxLoad := 0.0
	for i, row := range repl.Requests() {
		var n float64
		for _, v := range row {
			n += v
		}
		if n > maxLoad {
			maxLoad, busiest = n, i
		}
	}
	fmt.Fprintf(w, "replica placements for organization %d's chunks:\n", busiest)
	for chunk := 0; chunk < 3; chunk++ {
		servers, err := sys.PlaceReplicas(repl, busiest, replicas, int64(seed+10+chunk))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  chunk %d → servers %v\n", chunk, servers)
	}
	return nil
}
