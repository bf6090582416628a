package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ftspm/internal/campaign"
)

func TestRunBenchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "0.05", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV",
		"Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
		"Headline results",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in bench output", want)
		}
	}
	// Every artifact lands as .txt and .csv.
	for _, name := range []string{
		"table1_case_study_profile", "table2_case_study_mapping",
		"table3_endurance", "table4_configurations",
		"fig2_case_study_distribution", "fig3_energy_per_access",
		"fig4_suite_distribution", "fig5_vulnerability",
		"fig6_static_energy", "fig7_dynamic_energy", "fig8_endurance",
		"perf_overhead",
	} {
		for _, ext := range []string{".txt", ".csv"} {
			if _, err := os.Stat(filepath.Join(dir, name+ext)); err != nil {
				t.Errorf("missing artifact %s%s: %v", name, ext, err)
			}
		}
	}
}

func TestRunBenchBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunBenchAblationsAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite is slow")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "summary.json")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "0.05", "-ablations", "-out", dir, "-json", jsonPath}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ablation_schedule", "ablation_region_split", "ablation_priorities",
		"ablation_write_threshold", "ablation_interleaving", "ablation_scrubbing",
		"related_work", "ablation_retention",
		"ablation_granularity_casestudy", "ablation_granularity_matmul",
		"validation_live_injection", "ablation_tech_node",
	} {
		if _, err := os.Stat(filepath.Join(dir, name+".txt")); err != nil {
			t.Errorf("missing ablation artifact %s: %v", name, err)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "vulnerability_improvement") {
		t.Error("JSON summary missing headline field")
	}
}

func TestRunBenchUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-resume"}, // resume requires -checkpoint
		{"-scale", "0"},
		{"-retries", "-2"},
		{"-job-timeout", "-1s"},
		// Fabric-only flags without -workers.
		{"-lease", "5s"},
		{"-audit-seed", "3"},
		{"-audit-frac", "0.5"},
		{"-audit-frac", "-0.1", "-workers", "127.0.0.1:1"},
	}
	for _, args := range cases {
		err := run(context.Background(), args, &bytes.Buffer{})
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if campaign.ExitCode(err) != campaign.ExitUsage {
			t.Errorf("args %v: exit code %d, want %d (err: %v)",
				args, campaign.ExitCode(err), campaign.ExitUsage, err)
		}
	}
}

// TestRunBenchPerfJSON pins the keys of the -perfjson record, with and
// without the result cache's counters.
func TestRunBenchPerfJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("two sweeps")
	}
	dir := t.TempDir()
	perf := filepath.Join(dir, "perf.jsonl")
	args := []string{"-scale", "0.02", "-perfjson", perf}
	if err := run(context.Background(), args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	args = append(args, "-cache", filepath.Join(dir, "sweep.cache"))
	if err := run(context.Background(), args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(perf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	want := []string{
		"alloc_bytes,allocs,benchmark,gomaxprocs,scale,wall_ms",
		"alloc_bytes,allocs,benchmark,cache,gomaxprocs,scale,wall_ms",
	}
	if len(lines) != len(want) {
		t.Fatalf("perfjson lines = %d, want %d:\n%s", len(lines), len(want), data)
	}
	for i, line := range lines {
		if got := recordKeys(t, line); got != want[i] {
			t.Errorf("record %d keys %s, want %s", i, got, want[i])
		}
		var m sweepMeasurement
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		if m.Benchmark != "RunSweep" || m.Scale != 0.02 || m.WallMS <= 0 {
			t.Errorf("unexpected measurement: %+v", m)
		}
	}
}

// recordKeys returns a -perfjson line's top-level keys, sorted and
// comma-joined.
func recordKeys(t *testing.T, line string) string {
	t.Helper()
	var rec map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("bad perfjson line %q: %v", line, err)
	}
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
