package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
)

// mapTitle runs ftspm-map on a short sha trace and returns the first
// line of its report, which names the structure and priority in use.
func mapTitle(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), append([]string{"-workload", "sha", "-scale", "0.05"}, args...), &buf)
	title, _, _ := strings.Cut(buf.String(), "\n")
	return title, err
}

// TestParseStructure checks that -structure takes every structure name
// the other tools take and rejects an unknown one as a usage error.
func TestParseStructure(t *testing.T) {
	tests := map[string]core.Structure{
		"ftspm": core.StructFTSPM, "FTSPM": core.StructFTSPM,
		"sram": core.StructPureSRAM, "pure-sram": core.StructPureSRAM,
		"stt": core.StructPureSTT, "stt-ram": core.StructPureSTT, "pure-stt": core.StructPureSTT,
		"pure-STT-RAM": core.StructPureSTT, "dmr": core.StructDMR,
	}
	for in, want := range tests {
		title, err := mapTitle(t, "-structure", in)
		if err != nil || !strings.Contains(title, fmt.Sprintf(" on %v ", want)) {
			t.Errorf("-structure %q: title %q, err %v; want structure %v", in, title, err, want)
		}
	}
	if _, err := mapTitle(t, "-structure", "dram"); campaign.ExitCode(err) != campaign.ExitUsage {
		t.Errorf("bad structure: exit code %d, want %d (err: %v)", campaign.ExitCode(err), campaign.ExitUsage, err)
	}
}

// TestParsePriority checks that -priority takes every MDA priority name,
// in any case, and rejects an unknown one as a usage error.
func TestParsePriority(t *testing.T) {
	tests := map[string]core.Priority{
		"reliability": core.PriorityReliability,
		"performance": core.PriorityPerformance,
		"power":       core.PriorityPower,
		"Endurance":   core.PriorityEndurance,
	}
	for in, want := range tests {
		title, err := mapTitle(t, "-priority", in)
		if err != nil || !strings.Contains(title, fmt.Sprintf("(priority %v)", want)) {
			t.Errorf("-priority %q: title %q, err %v; want priority %v", in, title, err, want)
		}
	}
	if _, err := mapTitle(t, "-priority", "speed"); campaign.ExitCode(err) != campaign.ExitUsage {
		t.Errorf("bad priority: exit code %d, want %d (err: %v)", campaign.ExitCode(err), campaign.ExitUsage, err)
	}
}

func TestRunMapTableII(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "casestudy", "-scale", "0.1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Array1", "SRAM(ECC)", "SRAM(parity)", "write threshold"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunMapCSVAndErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "sha", "-scale", "0.05", "-csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "Block,") {
		t.Error("csv header missing")
	}
	for _, args := range [][]string{
		{"-structure", "bogus"},
		{"-priority", "bogus"},
		{"-scale", "0"},
	} {
		if err := run(context.Background(), args, &buf); campaign.ExitCode(err) != campaign.ExitUsage {
			t.Errorf("args %v: exit code %d, want %d (err: %v)", args, campaign.ExitCode(err), campaign.ExitUsage, err)
		}
	}
	if err := run(context.Background(), []string{"-workload", "bogus"}, &buf); err == nil {
		t.Error("bad workload accepted")
	}
}

// TestRunMapPerfArtifacts drives the new profiling flags: -perfjson
// appends a MapBlocks measurement line and the pprof flags produce
// non-empty profile files.
func TestRunMapPerfArtifacts(t *testing.T) {
	dir := t.TempDir()
	perf := filepath.Join(dir, "perf.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "casestudy", "-scale", "0.05",
		"-perfjson", perf, "-cpuprofile", cpu, "-memprofile", mem,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Two invocations append two JSON lines.
	if err := run(context.Background(), []string{
		"-workload", "casestudy", "-scale", "0.05", "-perfjson", perf,
	}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(perf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("perfjson lines = %d, want 2:\n%s", len(lines), data)
	}
	wantKeys := "alloc_bytes,allocs,benchmark,gomaxprocs,scale,structure,wall_ms,workload"
	for _, line := range lines {
		var m mapMeasurement
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad perfjson line %q: %v", line, err)
		}
		if m.Benchmark != "MapBlocks" || m.Workload != "casestudy" || m.WallMS <= 0 {
			t.Errorf("unexpected measurement: %+v", m)
		}
		if got := recordKeys(t, line); got != wantKeys {
			t.Errorf("perfjson keys %s, want %s", got, wantKeys)
		}
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
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
