package main

import "testing"

func draw(seed int64, n int) []int {
	ks := newKeyStream(seed, 36)
	out := make([]int, n)
	for i := range out {
		out[i] = ks.next()
	}
	return out
}

func TestKeyStreamIsSeeded(t *testing.T) {
	a, b := draw(7, 5000), draw(7, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 draw %d: %d then %d", i, a[i], b[i])
		}
	}
	c := draw(8, 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 drew the same stream")
	}
}

func TestKeyStreamIsZipf(t *testing.T) {
	counts := make([]int, 36)
	for _, k := range draw(1, 20000) {
		if k < 0 || k >= 36 {
			t.Fatalf("key %d outside [0,36)", k)
		}
		counts[k]++
	}
	// Rank 0 is the hottest, and the head outdraws the tail.
	for k := 1; k < 36; k++ {
		if counts[k] > counts[0] {
			t.Errorf("rank %d drawn %d times, more than rank 0 (%d)", k, counts[k], counts[0])
		}
	}
	if counts[1] <= counts[35] || counts[35] == 0 {
		t.Errorf("rank 1 drawn %d times, rank 35 %d times", counts[1], counts[35])
	}
}

// TestKeyStreamBlocksHoldTheMix checks the stratification: every
// period-long stretch of the stream has the same key counts, whatever
// the seed.
func TestKeyStreamBlocksHoldTheMix(t *testing.T) {
	n := len(newKeyStream(1, 36).block)
	want := make([]int, 36)
	for _, k := range draw(1, n) {
		want[k]++
	}
	for seed := int64(1); seed <= 3; seed++ {
		keys := draw(seed, 3*n)
		for b := 0; b < 3; b++ {
			got := make([]int, 36)
			for _, k := range keys[b*n : (b+1)*n] {
				got[k]++
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("seed %d block %d: rank %d drawn %d times, want %d", seed, b, k, got[k], want[k])
				}
			}
		}
	}
}
