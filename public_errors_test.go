package delaylb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"delaylb/descent"
)

// TestNewResultRejectsInfeasible pins NewResult's input contract: a nil
// system, a non-finite or negative entry, or a row that does not sum to
// its load is an error naming the row, never a panic or a Result with a
// meaningless cost. Entries and sums inside the 1e-6·max(1, n_i)
// tolerance are accepted.
func TestNewResultRejectsInfeasible(t *testing.T) {
	sys, err := New([]float64{1, 2, 3}, []float64{10, 0.5, 2e6}, [][]float64{{0, 5, 9}, {5, 0, 4}, {9, 4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// identity plus edits: row i's tolerance is 1e-6·max(1, n_i), so 1e-5,
	// 1e-6 and 2 here.
	plan := func(edits ...func(r [][]float64)) [][]float64 {
		r := [][]float64{{10, 0, 0}, {0, 0.5, 0}, {0, 0, 2e6}}
		for _, e := range edits {
			e(r)
		}
		return r
	}
	cases := []struct {
		name string
		sys  *System
		req  [][]float64
		want string // "" accepts; otherwise a substring of the error
	}{
		{"nil system", nil, plan(), "nil"},
		{"zero system", &System{}, plan(), "nil"},
		{"NaN entry", sys, plan(func(r [][]float64) { r[1][2] = math.NaN() }), "row 1 entry 2"},
		{"+Inf entry", sys, plan(func(r [][]float64) { r[0][1] = math.Inf(1) }), "row 0 entry 1"},
		{"-Inf entry", sys, plan(func(r [][]float64) { r[2][0] = math.Inf(-1) }), "row 2 entry 0"},
		{"negative entry", sys, plan(func(r [][]float64) { r[0][0], r[0][2] = 11, -1 }), "row 0 entry 2"},
		{"negative past a large row's tolerance", sys, plan(func(r [][]float64) { r[2][2], r[2][1] = 2e6+3, -3 }), "row 2 entry 1"},
		{"row short of its load", sys, plan(func(r [][]float64) { r[0][0] = 9 }), "row 0 sums to 9"},
		{"row over its load", sys, plan(func(r [][]float64) { r[1][0] = 0.1 }), "row 1 sums to 0.6"},
		{"huge entries overflow the sum", sys, plan(func(r [][]float64) { r[0][0], r[0][1], r[0][2] = 10, math.MaxFloat64, math.MaxFloat64 }), "row 0 sums to +Inf"},
		{"feasible", sys, plan(), ""},
		{"inside the tolerance", sys, plan(func(r [][]float64) {
			r[0][0], r[0][1] = 10+5e-6, -5e-6 // entry and sum within 1e-5
			r[2][2] = 2e6 + 1.5               // 2e6's tolerance is 2
		}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var res *Result
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
						t.Errorf("NewResult panicked: %v", p)
					}
				}()
				res, err = NewResult(tc.sys, tc.req)
			}()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("feasible plan rejected: %v", err)
			case tc.want == "" && (math.IsNaN(res.Cost) || res.Cost <= 0):
				t.Fatalf("feasible plan costs %v", res.Cost)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted; cost %v", res.Cost)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestChurnErrorsNameTheEdit pins the text of a rejected join or leave:
// it names the edit ("dynamic: join", "dynamic: leave"), and a session
// and a descent plane over the same instance report the same words.
func TestChurnErrorsNameTheEdit(t *testing.T) {
	sc := NewScenario(3).WithClusters(2).WithSeed(2)
	in, err := sc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		session func(s *Session) error
		plane   func(p *descent.Plane) error
		want    string
	}{
		{"leave -1",
			func(s *Session) error { return s.RemoveServer(-1) },
			func(p *descent.Plane) error { return p.Leave(-1) },
			"dynamic: leave index -1 out of range [0, 3)"},
		{"leave m",
			func(s *Session) error { return s.RemoveServer(3) },
			func(p *descent.Plane) error { return p.Leave(3) },
			"dynamic: leave index 3 out of range [0, 3)"},
		{"join speed 0",
			func(s *Session) error { return s.AddServer(ServerSpec{Speed: 0, Load: 1}) },
			func(p *descent.Plane) error { return p.Join(0, 1, nil, nil, 0) },
			"dynamic: join speed=0, must be positive and finite"},
		{"join load NaN",
			func(s *Session) error { return s.AddServer(ServerSpec{Speed: 1, Load: math.NaN()}) },
			func(p *descent.Plane) error { return p.Join(1, math.NaN(), nil, nil, 0) },
			"dynamic: join load=NaN, must be non-negative and finite"},
		{"join cluster out of range",
			func(s *Session) error { return s.AddServer(ServerSpec{Speed: 1, Load: 1, Cluster: 5}) },
			func(p *descent.Plane) error { return p.Join(1, 1, nil, nil, 5) },
			"dynamic: join cluster=5 out of block range [0, 2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plane, err := descent.NewPlane(in, descent.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for who, err := range map[string]error{"session": tc.session(sys.NewSession()), "plane": tc.plane(plane)} {
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s: error %v, want %q", who, err, tc.want)
				}
			}
		})
	}
}

// TestResultReadersRejectHostileInput pins the input contract of the
// calls that read a result's allocation: a nil result, one without an
// allocation, or one sized for another system is an error naming the
// call, and so are an organization or replication factor out of range,
// a placement from a row above 1/r, and a task naming no organization or
// with a NaN, infinite or negative size — never a panic, an empty or
// duplicate placement or a meaningless cost. GenerateTasks rejects a
// mean task size that is not positive and finite, or one that would
// split the loads into more tasks than its bound, and a nil result's
// Fractions are nil. Valid calls on the same system succeed.
func TestResultReadersRejectHostileInput(t *testing.T) {
	lat := [][]float64{{0, 5, 9}, {5, 0, 4}, {9, 4, 0}}
	sys, err := New([]float64{1, 2, 3}, []float64{10, 6, 20}, lat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.OptimizeReplicated(2)
	if err != nil {
		t.Fatal(err)
	}
	small, err := New([]float64{1, 2}, []float64{3, 4}, [][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	other, err := small.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	unreplicated, err := sys.Optimize() // organization 1 keeps all its requests
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := sys.GenerateTasks(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(meanSize float64) func() error {
		return func() error {
			got, err := sys.GenerateTasks(meanSize, 5)
			if err == nil && len(got) == 0 {
				return fmt.Errorf("no tasks for mean size %v", meanSize)
			}
			return err
		}
	}
	eps := func(r *Result) func() error {
		return func() error { _, err := sys.EpsilonNash(r); return err }
	}
	place := func(r *Result, org, rep int) func() error {
		return func() error {
			picks, err := sys.PlaceReplicas(r, org, rep, 1)
			if err == nil && (len(picks) != rep || len(slices.Compact(slices.Sorted(slices.Values(picks)))) != rep) {
				return fmt.Errorf("want %d distinct replicas, got %v", rep, picks)
			}
			return err
		}
	}
	round := func(r *Result, tasks ...Task) func() error {
		return func() error {
			asg, disc, err := sys.RoundTasks(r, tasks)
			if err == nil && (len(asg) != len(tasks) || math.IsNaN(disc.Cost) || disc.Cost <= 0) {
				return fmt.Errorf("assignment %v, cost %v", asg, disc.Cost)
			}
			return err
		}
	}
	cases := []struct {
		name string
		call func() error
		want string // "" accepts; otherwise a substring of the error
	}{
		{"EpsilonNash nil", eps(nil), "EpsilonNash needs a result with an allocation"},
		{"EpsilonNash no allocation", eps(&Result{}), "EpsilonNash needs a result with an allocation"},
		{"EpsilonNash other system", eps(other), "EpsilonNash got a 2×2 allocation for a 3-server system"},
		{"EpsilonNash valid", eps(res), ""},
		{"PlaceReplicas nil", place(nil, 0, 2), "PlaceReplicas needs a result with an allocation"},
		{"PlaceReplicas other system", place(other, 0, 2), "PlaceReplicas got a 2×2 allocation"},
		{"PlaceReplicas org -1", place(res, -1, 2), "organization -1 out of range [0, 3)"},
		{"PlaceReplicas org m", place(res, 3, 2), "organization 3 out of range [0, 3)"},
		{"PlaceReplicas r 0", place(res, 0, 0), "replication factor 0 out of range [1, 3]"},
		{"PlaceReplicas r > m", place(res, 0, 4), "replication factor 4 out of range [1, 3]"},
		{"PlaceReplicas unreplicated", place(unreplicated, 1, 2), "organization 1 sends 1 of its requests to server 1, above 1/r = 0.5"},
		{"PlaceReplicas valid", place(res, 2, 2), ""},
		{"RoundTasks nil", round(nil, tasks...), "RoundTasks needs a result with an allocation"},
		{"RoundTasks other system", round(other, tasks...), "RoundTasks got a 2×2 allocation"},
		{"RoundTasks org -1", round(res, Task{Org: -1, Size: 1}), "task 0 organization -1 out of range [0, 3)"},
		{"RoundTasks org m", round(res, tasks[0], Task{Org: 3, Size: 1}), "task 1 organization 3 out of range [0, 3)"},
		{"RoundTasks NaN size", round(res, Task{Org: 0, Size: math.NaN()}), "task 0 size NaN"},
		{"RoundTasks +Inf size", round(res, Task{Org: 1, Size: math.Inf(1)}), "task 0 size +Inf"},
		{"RoundTasks negative size", round(res, Task{Org: 1, Size: -2}), "task 0 size -2"},
		{"RoundTasks valid", round(res, tasks...), ""},
		{"GenerateTasks mean 0", gen(0), "GenerateTasks meanSize=0, must be positive and finite"},
		{"GenerateTasks mean -1", gen(-1), "GenerateTasks meanSize=-1, must be positive"},
		{"GenerateTasks mean NaN", gen(math.NaN()), "GenerateTasks meanSize=NaN"},
		{"GenerateTasks mean +Inf", gen(math.Inf(1)), "GenerateTasks meanSize=+Inf"},
		{"GenerateTasks mean 1e-300", gen(1e-300), "more than 4194304"},
		{"GenerateTasks mean 1e-6", gen(1e-6), "splits the loads into 3.6e+07 tasks"},
		{"GenerateTasks valid", gen(2), ""},
		{"GenerateTasks one per organization", gen(1e300), ""},
		{"Fractions nil", func() error {
			if f := (*Result)(nil).Fractions(); f != nil {
				return fmt.Errorf("nil result has fractions %v", f)
			}
			return nil
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
						t.Errorf("panicked: %v", p)
					}
				}()
				err = tc.call()
			}()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid call failed: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
