package cliflags

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// Profile holds the profiling flags: a CPU profile of the run, a heap
// profile at exit, and a JSON-lines file each run appends one
// measurement record to.
type Profile struct {
	CPU, Mem, PerfJSON string

	name string
}

// Register declares -cpuprofile, -memprofile and -perfjson on fs.
func (p *Profile) Register(fs *flag.FlagSet) {
	p.name = fs.Name()
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.StringVar(&p.PerfJSON, "perfjson", "", "append a wall-clock/allocation measurement of the run to this JSON-lines file")
}

// Start starts the CPU profile. The returned stop, to be called once
// at exit, writes the heap profile and then stops the CPU profile.
// Heap-profile errors are reported on stderr: by then the run's own
// result is decided.
func (p *Profile) Start() (stop func(), err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if p.Mem != "" {
			if err := writeHeapProfile(p.Mem); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", p.name, err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the retained-heap picture
	return pprof.WriteHeapProfile(f)
}

// Append appends rec to the -perfjson file as one JSON line, fsynced
// before close: append-only history cannot be renamed into place
// atomically, but it must survive a crash right after the run it
// measures.
func (p *Profile) Append(rec any) error {
	f, err := os.OpenFile(p.PerfJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// Cost is the wall-clock and allocation cost of a measured span: the
// fields every -perfjson record shares, embedded in each command's
// record type.
type Cost struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	WallMS     float64 `json:"wall_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
}

// Meter measures a span's Cost from StartMeter on.
type Meter struct {
	start  time.Time
	before runtime.MemStats
}

// StartMeter starts measuring.
func StartMeter() *Meter {
	m := &Meter{}
	runtime.ReadMemStats(&m.before)
	m.start = time.Now()
	return m
}

// Cost returns the span's cost so far. Allocation deltas are
// process-wide, so measure a quiet process for clean numbers.
func (m *Meter) Cost() Cost {
	wall := time.Since(m.start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return Cost{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		WallMS:     float64(wall.Microseconds()) / 1e3,
		AllocBytes: after.TotalAlloc - m.before.TotalAlloc,
		Allocs:     after.Mallocs - m.before.Mallocs,
	}
}
