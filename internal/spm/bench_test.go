package spm

import (
	"testing"

	"ftspm/internal/program"
)

// steadyController returns a fixture controller with the Hot block
// already resident, so subsequent Access calls exercise the steady-state
// hot path (no DMA, no eviction).
func steadyController(tb testing.TB, recovery bool) (*Controller, program.BlockID) {
	tb.Helper()
	ctl, _, ids := ctlFixture(tb)
	if recovery {
		if err := ctl.EnableRecovery(DefaultRecovery()); err != nil {
			tb.Fatal(err)
		}
	}
	hot := ids["Hot"]
	if _, err := ctl.Access(hot, 0, 4, true); err != nil {
		tb.Fatal(err)
	}
	return ctl, hot
}

// accessCases is the steady-state Access matrix. A struck case sticks
// one cell of the block's second word at the opposite of its stored
// value and reads only the first 16 bytes, so every read takes the
// mixed clean/dirty path of the clean-word fast path (DESIGN.md §11):
// the STT-RAM word decodes silently wrong and stays dirty.
var accessCases = []struct {
	name     string
	recovery bool
	write    bool
	struck   bool
}{
	{"read", false, false, false},
	{"write", false, true, false},
	{"read-recovery", true, false, false},
	{"write-recovery", true, true, false},
	{"read-struck", false, false, true},
}

// accessStep returns the per-call Access of one case.
func accessStep(tb testing.TB, recovery, write, struck bool) func() {
	tb.Helper()
	ctl, hot := steadyController(tb, recovery)
	step := 16
	if struck {
		res := ctl.resident[hot]
		r := ctl.regions[res.region]
		w := res.baseWord + 1
		if err := r.InjectStuckAt(w, 0, !r.words[w].Get(0)); err != nil {
			tb.Fatal(err)
		}
		if !r.isDirty(w) {
			tb.Fatal("stuck cell left the word clean")
		}
		step = 0
	}
	off := 0
	return func() {
		if _, err := ctl.Access(hot, off, 16, write); err != nil {
			tb.Fatal(err)
		}
		off = (off + step) % 512
	}
}

// TestControllerAccessZeroAllocs pins the steady-state access path —
// read and write, with and without the recovery engine, and a read over
// a struck word — to zero heap allocations per call. This is the
// regression guard for the dense block-indexed controller state and the
// reused scratch buffers (DESIGN.md §11); any reintroduced map or
// per-call make shows up here.
func TestControllerAccessZeroAllocs(t *testing.T) {
	for _, tc := range accessCases {
		t.Run(tc.name, func(t *testing.T) {
			step := accessStep(t, tc.recovery, tc.write, tc.struck)
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Errorf("steady-state Access allocates %.1f/op, want 0", n)
			}
		})
	}
}

// BenchmarkControllerAccess times one steady-state controller access —
// the operation every simulated memory reference pays — across the
// read/write × recovery on/off matrix plus a read over a struck word.
func BenchmarkControllerAccess(b *testing.B) {
	for _, tc := range accessCases {
		b.Run(tc.name, func(b *testing.B) {
			step := accessStep(b, tc.recovery, tc.write, tc.struck)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
