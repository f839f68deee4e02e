// Cloud burst scenario (paper §I): one datacenter of a 30-site cloud
// federation experiences a demand peak and offloads it through the
// message-passing runtime — no central coordinator: sites gossip loads
// and negotiate pairwise transfers over messages.
//
//	go run ./examples/cloudburst
package main

import (
	"context"
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
		m    = 30
		peak = 50000 // requests stuck at one site
		seed = 11
	)

	sys, err := delaylb.NewScenario(m).
		WithLoads(delaylb.LoadPeak, peak).
		WithSpeeds(delaylb.SpeedUniform, 1, 5).
		WithSeed(seed).
		Build()
	if err != nil {
		return err
	}

	// Reference: what a central, all-knowing optimizer would do.
	opt, err := sys.Optimize()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "centralized optimum: ΣC_i = %.4g ms\n", opt.Cost)

	// The runtime via a Session: every site is an autonomous agent; per
	// round each gossips its load to one random peer and proposes one
	// pairwise rebalance (paper Algorithms 1–2 over messages).
	sess := sys.NewSession(delaylb.WithSeed(seed))
	res, err := sess.RunCluster(context.Background(), 40, func(round int, cost float64) bool {
		switch round {
		case 1, 2, 3, 5, 10, 20, 40:
			gap := 100 * (cost - opt.Cost) / opt.Cost
			fmt.Fprintf(w, "  after %2d rounds: ΣC_i = %.4g ms (%+.2f%% vs optimum)\n",
				round, cost, gap)
		}
		return true
	})
	if err != nil {
		return err
	}

	// SimulateDistributed runs the same protocol on the same bus from the
	// identity, stopping once a round improves ΣC_i by at most 1e-9
	// relative, and counts the messages it took.
	sim, delivered := sys.SimulateDistributed(40, delaylb.WithSeed(seed))
	fmt.Fprintf(w, "deterministic replay: ΣC_i = %.4g ms, %.1f messages/server\n",
		sim.Cost, float64(delivered)/float64(m))

	// The Proposition 1 error bound tells an operator when to stop
	// without knowing the optimum.
	bound, err := sys.DistanceBound(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nProposition 1 distance bound at the reached state: ≤ %.3g requests misplaced\n", bound)
	fmt.Fprintf(w, "(conservative by design — a (4m+1)·Σs_i factor over the pending transfers;\n")
	fmt.Fprintf(w, " compare with the %.0f requests in the system: continuing is not worth it)\n", float64(peak))
	return nil
}
