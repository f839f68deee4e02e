package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// boundSpec is the part of BENCHMARK.json -compare reads.
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords reads the untraced records of a result file (JSON lines).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		n, m := 4, len(s)+1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// compareFiles compares two sets of runs (parent first) metric by metric
// against the bounds in the benchmark definition. It refuses sets whose
// seeds, step counts or GOMAXPROCS differ, and returns errWorse when any
// (workload, metric) got worse by more than its bound.
func compareFiles(specPath, aPath, bPath string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec boundSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	byName := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	ga, gb := byName(a), byName(b)
	var names []string
	for name := range ga {
		names = append(names, name)
	}
	for name := range gb {
		if _, ok := ga[name]; !ok {
			return fmt.Errorf("workload %s has runs only in %s", name, bPath)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := comparable(name, ga[name], gb[name]); err != nil {
			return err
		}
	}

	worse := false
	fmt.Fprintf(w, "%-14s %-14s %-7s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "unit", "parent", "change", "delta", "spread", "bound", "verdict")
	for _, name := range names {
		ra, rb := ga[name], gb[name]
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			// worsening: the relative change in the bad direction.
			worsening := ratio(mb-ma, math.Abs(ma))
			if m.Better == "higher" {
				worsening = -worsening
			}
			sp := max(spread(va), spread(vb))
			verdict := "same"
			switch {
			case allBetter(va, vb, m.Better):
				verdict = "better"
			case sp > m.Bound:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict, worse = "worse", true
			case -worsening > spread(va) && 10*pairWins(ra, rb, m.Name, m.Better) >= 9*len(ra):
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-14s %-7s %14.6g %14.6g %+8.2f%% %7.2f%% %6.2f%%  %s\n",
				name, m.Name, m.Unit, ma, mb, -100*worsening, 100*sp, 100*m.Bound, verdict)
		}
		ea, eb := errorRate(ra), errorRate(rb)
		verdict := "same"
		if eb > ea {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-14s %-7s %14.6g %14.6g %9s %8s %7s  %s\n",
			name, "error_rate", "ratio", ea, eb, "", "", "0", verdict)
	}
	if worse {
		return errWorse
	}
	return nil
}

// comparable refuses two sets of one workload that were not measured the
// same way: different seeds, step counts or GOMAXPROCS.
func comparable(name string, a, b []record) error {
	seeds := func(rs []record) []int64 {
		var s []int64
		for _, r := range rs {
			s = append(s, r.Seed)
		}
		slices.Sort(s)
		return s
	}
	if !slices.Equal(seeds(a), seeds(b)) {
		return fmt.Errorf("%s: the two sets ran different seeds %v and %v", name, seeds(a), seeds(b))
	}
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.Steps != a[0].Steps {
			return fmt.Errorf("%s: step counts differ (%d and %d)", name, a[0].Steps, r.Steps)
		}
		if r.GOMAXPROCS != a[0].GOMAXPROCS {
			return fmt.Errorf("%s: GOMAXPROCS differs (%d and %d)", name, a[0].GOMAXPROCS, r.GOMAXPROCS)
		}
	}
	return nil
}

func values(rs []record, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.Metrics[metric].Value)
	}
	return v
}

// pairWins counts the runs of b that beat a's run of the same seed
// (comparable checked that the seeds match; a seed run twice in a pairs
// with its last run).
func pairWins(a, b []record, metric, better string) int {
	av := map[int64]float64{}
	for _, r := range a {
		av[r.Seed] = r.Metrics[metric].Value
	}
	wins := 0
	for _, r := range b {
		d := r.Metrics[metric].Value - av[r.Seed]
		if (better == "higher" && d > 0) || (better != "higher" && d < 0) {
			wins++
		}
	}
	return wins
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

func errorRate(rs []record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
