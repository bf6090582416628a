package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestRegeneratesCommittedResults is the behaviour oracle for the
// committed artifacts: a scale-0.25 run with ablations must rewrite
// every file under results/ byte for byte, and write no file that is
// not committed there.
func TestRegeneratesCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep and ablation suite")
	}
	const golden = "../../results"
	dir := t.TempDir()
	args := []string{"-scale", "0.25", "-ablations", "-out", dir, "-json", filepath.Join(dir, "summary.json")}
	if err := run(context.Background(), args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("regenerated %d files, results/ holds %d", len(got), len(want))
	}
	for _, e := range want {
		w, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s not regenerated: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from results/%s", e.Name(), e.Name())
		}
	}
}
