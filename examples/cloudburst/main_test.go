package main

import (
	"strings"
	"testing"
)

// Smoke test: the cloud-burst scenario (a session's runtime run + the
// SimulateDistributed run) goes end to end and prints finite, non-empty
// results.
func TestCloudburstRuns(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if len(out) < 100 {
		t.Fatalf("suspiciously short output:\n%s", out)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("output contains %s:\n%s", bad, out)
		}
	}
	for _, want := range []string{"centralized optimum", "after 40 rounds", "deterministic replay", "distance bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
