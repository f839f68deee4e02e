package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delaylb"
	"delaylb/sweep"
)

func TestRunFigure1WritesStructure(t *testing.T) {
	var sb strings.Builder
	if err := runFigure1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 1") || len(out) < 100 {
		t.Errorf("Figure 1 output suspiciously short:\n%s", out)
	}
}

func TestRunPoAAblationInBand(t *testing.T) {
	var sb strings.Builder
	runPoAAblation(&sb, []float64{500})
	out := sb.String()
	if !strings.Contains(out, "500") {
		t.Fatalf("missing sweep row:\n%s", out)
	}
	// lav=500 sits deep in the asymptotic regime; the measurement must
	// land inside the Theorem 1 band.
	if !strings.Contains(out, "true") {
		t.Errorf("measured PoA out of the Theorem 1 band:\n%s", out)
	}
}

func TestRoman(t *testing.T) {
	if roman(1) != "I" || roman(2) != "II" {
		t.Error("roman numeral labels wrong")
	}
}

// smallConvergenceRows produces a tiny but real rowset for the
// persistence tests.
func smallConvergenceRows(t *testing.T) []sweep.ConvergenceRow {
	t.Helper()
	rows := sweep.ConvergenceTable(sweep.ConvergenceConfig{
		Sizes:    []int{15},
		Dists:    []delaylb.LoadKind{delaylb.LoadUniform},
		AvgLoads: []float64{50},
		Networks: []delaylb.NetworkKind{delaylb.NetHomogeneous},
		Tol:      0.02,
		Repeats:  1,
		Seed:     1,
		MaxIters: 50,
	})
	if len(rows) == 0 {
		t.Fatal("no rows produced")
	}
	return rows
}

func TestWriteReportJSONAndCSV(t *testing.T) {
	report := &sweep.Report{Seed: 1, Table1: smallConvergenceRows(t)}
	dir := t.TempDir()
	for _, name := range []string{"out.json", "out.csv"} {
		path := filepath.Join(dir, name)
		if err := writeReport(report, path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "table1") || !strings.Contains(string(data), "m<=50") {
			t.Errorf("%s missing table rows:\n%s", name, data)
		}
	}
	if err := writeReport(report, filepath.Join(dir, "out.xml")); err == nil {
		t.Error("unknown extension accepted")
	}
}

// TestRunBenchWritesReport drives the -bench path end to end on a tiny
// grid and checks that the table prints and the JSON artifact lands.
func TestRunBenchWritesReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var sb strings.Builder
	if err := runBenchWith(&sb, benchTestConfig(), path); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Scale tier") || !strings.Contains(out, "frankwolfe-sparse") {
		t.Errorf("bench table missing:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"solver\": \"frankwolfe-sparse\"") {
		t.Errorf("bench report missing sparse entries:\n%s", data)
	}
}

func benchTestConfig() sweep.BenchConfig {
	cfg := sweep.DefaultBenchConfig()
	cfg.Sizes = []int{25}
	cfg.MineMax = 25
	cfg.FWIters = 30
	cfg.MineIters = 3
	cfg.DescentSizes = []int{25}
	cfg.DescentRounds = 60
	cfg.FWVariantSizes = []int{25}
	cfg.MineSparseSizes = []int{25}
	cfg.LatencyUpdateSizes = []int{25}
	return cfg
}

// TestRunBenchAppendExtendsReport drives the -benchappend path: a report
// generated without the FW-variant tier gains exactly those cells, with
// the original JSON prefix preserved byte for byte.
func TestRunBenchAppendExtendsReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	old := benchTestConfig()
	old.FWVariantSizes = nil
	var sb strings.Builder
	if err := runBenchWith(&sb, old, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	if err := runBenchAppendWith(&sb, benchTestConfig(), path); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "cells appended") {
		t.Errorf("append path reported nothing appended:\n%s", out)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"frankwolfe-away", "frankwolfe-pairwise"} {
		if !strings.Contains(string(after), "\"solver\": \""+solver+"\"") {
			t.Errorf("appended report missing %s entries", solver)
		}
		if strings.Contains(string(before), solver) {
			t.Errorf("pre-append report unexpectedly contains %s", solver)
		}
	}
	// Pure append at the JSON level: the old document's entries open the
	// new one unchanged (WriteJSON is deterministic, so everything up to
	// the closing bracket of the last old entry is a shared prefix).
	cut := strings.LastIndex(string(before), "}\n  ]")
	if cut < 0 || string(after[:cut]) != string(before[:cut]) {
		t.Error("append rewrote the pre-existing JSON prefix")
	}

	// Saturated grid: a second append leaves the file untouched.
	sb.Reset()
	if err := runBenchAppendWith(&sb, benchTestConfig(), path); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(after) {
		t.Error("no-op append rewrote the report")
	}
}

// TestRunDescentTablePrints drives the -descent path on the default
// laptop-scale grid's smallest corner.
func TestRunFaultsTablePrints(t *testing.T) {
	if testing.Short() {
		t.Skip("faults table: skipped in -short mode")
	}
	var sb strings.Builder
	rows := runFaultsTable(&sb, false, 1, 2, nil)
	if len(rows) != 8 {
		t.Fatalf("faults table has %d rows, want 8 scenarios", len(rows))
	}
	out := sb.String()
	for _, want := range []string{"Faults", "lossless", "byzantine", "storm"} {
		if !strings.Contains(out, want) {
			t.Errorf("faults table output missing %q:\n%s", want, out)
		}
	}
	for _, r := range rows {
		if r.Fault == "crash" && r.LostMass.Max <= 0 {
			t.Error("crash row accounts no lost mass — the drill never fired")
		}
	}
}

func TestRunDescentTablePrints(t *testing.T) {
	if testing.Short() {
		t.Skip("descent table: skipped in -short mode")
	}
	var sb strings.Builder
	rows := runDescentTable(&sb, false, 1, 2, nil)
	if len(rows) == 0 {
		t.Fatal("no descent rows produced")
	}
	out := sb.String()
	if !strings.Contains(out, "Descent") || !strings.Contains(out, "zipf") {
		t.Errorf("descent table output missing:\n%s", out)
	}
}
