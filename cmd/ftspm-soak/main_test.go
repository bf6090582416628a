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
	"ftspm/internal/experiments"
)

func TestRunSoakEndToEnd(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "soak.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-structures", "ftspm",
		"-trials", "2",
		"-scale", "0.02",
		"-strike", "0.01",
		"-scrub", "512",
		"-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Soak campaign", "FTSPM", "recovery activity", "DUE/strike"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*experiments.SoakReport
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Trials != 2 || reports[0].Strikes == 0 {
		t.Errorf("unexpected JSON reports: %+v", reports)
	}
}

func TestRunSoakFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-structures", "warp-core"},
		{"-target", "moon"},
		{"-policy", "shrug"},
		{"-workload", "no-such-workload"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunSoakUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-resume"}, // resume requires -checkpoint
		{"-trials", "0"},
		{"-scale", "-1"},
		{"-strike", "1.5"},
		{"-retries", "-1"},
		// Unknown names.
		{"-structures", "warp-core"},
		{"-structures", "ftspm,"},
		{"-target", "moon"},
		{"-policy", "shrug"},
		// Storm knobs without -storm, even at their defaults.
		{"-storm-span", "5", "-storm-intensity", "0.9"},
		{"-storm-calm", "0.01"},
		{"-storm-calm-dwell", "100"},
		{"-storm-dwell", "100"},
		{"-storm-hot-blocks", "2"},
		{"-storm-hot", "0"},
		{"-storm-thermal", "1"},
		// Fabric-only flags without -workers.
		{"-lease", "5s"},
		{"-audit-seed", "3"},
		{"-audit-frac", "0.5"},
		{"-audit-frac", "2", "-workers", "127.0.0.1:1"},
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

// TestRunSoakCheckpointResume drives the CLI path end to end: a
// checkpointed run, then a resume that must skip every trial and emit
// identical JSON.
func TestRunSoakCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "soak.ckpt")
	args := func(jsonPath string, extra ...string) []string {
		return append([]string{
			"-structures", "ftspm,sram",
			"-trials", "2",
			"-scale", "0.02",
			"-strike", "0.01",
			"-checkpoint", ckpt,
			"-json", jsonPath,
		}, extra...)
	}
	first := filepath.Join(dir, "first.json")
	if err := run(context.Background(), args(first), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// Re-running onto an existing checkpoint without -resume must be
	// rejected, not silently overwrite the journal.
	if err := run(context.Background(), args(first), &bytes.Buffer{}); err == nil {
		t.Fatal("second run without -resume accepted")
	}
	second := filepath.Join(dir, "second.json")
	var buf bytes.Buffer
	if err := run(context.Background(), args(second, "-resume"), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resumed 4 finished trials") {
		t.Errorf("resume did not skip the journaled trials:\n%s", buf.String())
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed JSON differs:\n%s\nvs\n%s", a, b)
	}
}

// TestRunSoakWarmCache drives -cache end to end: a cold run fills the
// cache file, a warm run of the same campaign answers every trial from
// it, and the JSON reports are byte-identical.
func TestRunSoakWarmCache(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "soak.cache")
	args := func(jsonPath string) []string {
		return []string{
			"-structures", "ftspm",
			"-trials", "2",
			"-scale", "0.02",
			"-strike", "0.01",
			"-cache", cache,
			"-json", jsonPath,
		}
	}
	cold := filepath.Join(dir, "cold.json")
	var coldBuf bytes.Buffer
	if err := run(context.Background(), args(cold), &coldBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldBuf.String(), "0 hits, 2 misses") {
		t.Errorf("cold run cache line missing:\n%s", coldBuf.String())
	}
	warm := filepath.Join(dir, "warm.json")
	var warmBuf bytes.Buffer
	if err := run(context.Background(), args(warm), &warmBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warmBuf.String(), "2 hits, 0 misses") {
		t.Errorf("warm run not served from cache:\n%s", warmBuf.String())
	}
	cb, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, wb) {
		t.Fatalf("warm reports diverge from cold:\n got %s\nwant %s", wb, cb)
	}
}

// TestRunSoakStructureNames runs the names the reports print, which the
// structure list must accept back.
func TestRunSoakStructureNames(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-structures", "pure-STT-RAM, DMR-SRAM", "-trials", "1", "-scale", "0.02",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pure-STT-RAM recovery activity", "DMR-SRAM recovery activity"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, buf.String())
		}
	}
}

// TestRunSoakPerfJSON pins the keys of the -perfjson record, with and
// without the result cache's counters.
func TestRunSoakPerfJSON(t *testing.T) {
	dir := t.TempDir()
	perf := filepath.Join(dir, "perf.jsonl")
	args := []string{"-structures", "ftspm", "-trials", "2", "-scale", "0.02", "-perfjson", perf}
	if err := run(context.Background(), args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	args = append(args, "-cache", filepath.Join(dir, "soak.cache"))
	if err := run(context.Background(), args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(perf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	const keys = "alloc_bytes,allocs,benchmark,gomaxprocs,lanes,scale,trials,wall_ms"
	want := []string{keys, "alloc_bytes,allocs,benchmark,cache,gomaxprocs,lanes,scale,trials,wall_ms"}
	if len(lines) != len(want) {
		t.Fatalf("perfjson lines = %d, want %d:\n%s", len(lines), len(want), data)
	}
	for i, line := range lines {
		if got := recordKeys(t, line); got != want[i] {
			t.Errorf("record %d keys %s, want %s", i, got, want[i])
		}
		var m soakMeasurement
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		if m.Benchmark != "RunSoakCampaign" || m.Trials != 2 || m.WallMS <= 0 {
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
