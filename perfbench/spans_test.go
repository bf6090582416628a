package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", Start: 0, End: 100},
		// Two jobs in parallel: they overlap on [20,50].
		{ID: 2, Parent: 1, Op: 1, Name: "campaign.job", Start: 10, End: 50},
		{ID: 3, Parent: 1, Op: 1, Name: "campaign.job", Start: 20, End: 70},
		// Nested layers inside the first job, the second reaching past
		// the job's end (clipped).
		{ID: 4, Parent: 2, Op: 1, Name: "sim.run", Start: 15, End: 25},
		{ID: 5, Parent: 2, Op: 1, Name: "sim.run", Start: 30, End: 60},
		{ID: 6, Parent: 3, Op: 1, Name: "avf.compute", Start: 20, End: 70},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 60, // children cover [10,70]
		2: 40 - 30,  // [15,25] + [30,50]
		3: 0,
		4: 10, 5: 30, 6: 50,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	by := selfByName(spans)
	if by["sim.run"] != 40e-9 || by["campaign.job"] != 10e-9 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := newRecorder()
	root := r.begin(1, 0, "op")
	child := r.begin(1, root, "sim.run")
	r.end(child)
	open := r.begin(2, 0, "op")
	if err := checkClosed(r.opSpans(2)); err == nil {
		t.Error("an open span passed checkClosed")
	}
	r.end(open)
	r.end(root)
	spans := r.opSpans(1)
	if len(spans) != 2 || spans[1].Parent != root || checkClosed(spans) != nil {
		t.Fatalf("op 1 spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	var first span
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "op" || first.ID != 1 {
		t.Errorf("first written span = %+v", first)
	}
}
