package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// The process-lifetime maximum RSS is set by the single worst moment
// of a run — one unlucky GC timing — so it scatters from run to run.
// peak_rss_mb is instead the median over ops of each op's own peak:
// the kernel's high-water mark (VmHWM) is reset before the op and read
// after it.

// resetPeakRSS restarts the VmHWM high-water mark at the current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the peak RSS since the last reset, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, sc.Err()
}

// rssSampler records the peak RSS of successive fixed windows, for
// workloads whose ops overlap.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSSSampler(window time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var out []float64
		t := time.NewTicker(window)
		defer t.Stop()
		resetPeakRSS()
		for {
			select {
			case <-s.stop:
				// The last, partial window; it also makes a short run
				// report a peak.
				if mb, err := peakRSSMB(); err == nil {
					out = append(out, mb)
				}
				s.done <- out
				return
			case <-t.C:
				if mb, err := peakRSSMB(); err == nil {
					out = append(out, mb)
				}
				resetPeakRSS()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns one peak per window.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	return <-s.done
}
