package core

import (
	"errors"
	"testing"
)

// TestParseNames holds every structure and priority name the tools
// accept, in one table: the short aliases, the String() names in any
// case, and surrounding whitespace.
func TestParseNames(t *testing.T) {
	structures := []struct {
		in   string
		want Structure
	}{
		{"ftspm", StructFTSPM}, {"FTSPM", StructFTSPM}, {" ftspm\t", StructFTSPM},
		{"sram", StructPureSRAM}, {"pure-sram", StructPureSRAM}, {"pure-SRAM", StructPureSRAM},
		{"stt", StructPureSTT}, {"stt-ram", StructPureSTT}, {"pure-stt", StructPureSTT},
		{"pure-stt-ram", StructPureSTT}, {"pure-STT-RAM", StructPureSTT},
		{"dmr", StructDMR}, {"duplication", StructDMR}, {"dmr-sram", StructDMR}, {"DMR-SRAM", StructDMR},
	}
	for _, c := range structures {
		if got, err := ParseStructure(c.in); err != nil || got != c.want {
			t.Errorf("ParseStructure(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "dram", "quantum", "all", "ftspm,sram"} {
		if _, err := ParseStructure(bad); !errors.Is(err, ErrUnknownStructure) {
			t.Errorf("ParseStructure(%q): %v, want ErrUnknownStructure", bad, err)
		}
	}
	for _, s := range AllStructures() {
		if got, err := ParseStructure(s.String()); err != nil || got != s {
			t.Errorf("ParseStructure(%v.String()) = %v, %v", s, got, err)
		}
	}

	priorities := []struct {
		in   string
		want Priority
	}{
		{"reliability", PriorityReliability}, {"performance", PriorityPerformance},
		{"power", PriorityPower}, {"Endurance", PriorityEndurance}, {" POWER ", PriorityPower},
	}
	for _, c := range priorities {
		if got, err := ParsePriority(c.in); err != nil || got != c.want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "speed", "Priority(0)"} {
		if _, err := ParsePriority(bad); !errors.Is(err, ErrBadPriority) {
			t.Errorf("ParsePriority(%q): %v, want ErrBadPriority", bad, err)
		}
	}
	for p := PriorityReliability; p <= PriorityEndurance; p++ {
		if got, err := ParsePriority(p.String()); err != nil || got != p {
			t.Errorf("ParsePriority(%v.String()) = %v, %v", p, got, err)
		}
	}
}

// TestParseStructureDoesNotAllocate pins the request-path cost: the
// server parses one structure name per /v1/evaluate call.
func TestParseStructureDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"ftspm", "FTSPM", "pure-STT-RAM"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseStructure(name) }); n != 0 {
			t.Errorf("ParseStructure(%q) allocates %v times", name, n)
		}
	}
}
