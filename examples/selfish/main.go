// Selfish federation scenario (paper §V): ISPs pool their servers but
// each routes only its own customers' requests optimally. How much does
// the lack of coordination cost, and how well does Theorem 1 predict it?
//
//	go run ./examples/selfish
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
		m    = 12
		c    = 10.0 // homogeneous latency, ms
		s    = 1.0  // homogeneous speed
		seed = 3
	)

	// The Theorem 1 band bounds the WORST-CASE equilibrium; best-response
	// dynamics may settle in a cheaper one, so "measured" can fall
	// slightly below "worst≥" at low loads.
	fmt.Fprintln(w, "homogeneous federation: measured PoA vs the Theorem 1 band")
	fmt.Fprintf(w, "%10s %10s %10s %10s\n", "avg load", "worst≥", "measured", "worst≤")
	for _, lav := range []float64{100, 200, 500, 1000, 2000} {
		sys := delaylb.Homogeneous(m, s, lav, c)
		poa, err := sys.PriceOfAnarchy(delaylb.WithSeed(seed))
		if err != nil {
			return err
		}
		lower, upper := sys.TheoreticalPoABounds()
		fmt.Fprintf(w, "%10.0f %10.4f %10.4f %10.4f\n", lav, lower, poa, upper)
	}

	// Heterogeneous federation: the paper's experiments (Table III) show
	// selfishness costs even less here.
	fmt.Fprintln(w, "\nheterogeneous federation (PlanetLab-like latencies, speeds U[1,5]):")
	sys, err := delaylb.NewScenario(m).
		WithLoads(delaylb.LoadExponential, 300).
		WithSpeeds(delaylb.SpeedUniform, 1, 5).
		WithSeed(seed).
		Build()
	if err != nil {
		return err
	}
	nash, err := sys.NashEquilibrium()
	if err != nil {
		return err
	}
	opt, err := sys.Optimize()
	if err != nil {
		return err
	}
	eps, err := sys.EpsilonNash(nash)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Nash ΣC_i = %.0f ms after %d sweeps; optimum = %.0f ms (residual ε = %.2g)\n",
		nash.Cost, nash.Iterations, opt.Cost, eps)
	fmt.Fprintf(w, "  cost of selfishness = %.4f\n", nash.Cost/opt.Cost)
	fmt.Fprintln(w, "\nconclusion (paper §IX): federations stay efficient without central control —")
	fmt.Fprintln(w, "selfish routing costs only a few percent over the coordinated optimum.")
	return nil
}
