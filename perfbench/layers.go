package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ftspm/internal/sim"
	"ftspm/internal/spm"
)

// perLayerMetric names one per-layer metric; the list matches
// BENCHMARK.json's per_layer (checked by TestMetricListsMatchBenchmark).
type perLayerMetric struct{ name, unit string }

var perLayerMetrics = []perLayerMetric{
	{"workloads.gen_s", "s"}, {"workloads.events", "count"},
	{"profile.run_s", "s"}, {"profile.events", "count"},
	{"sim.run_s", "s"}, {"sim.accesses", "count"}, {"sim.ns_per_access", "ns"},
	{"spm.words_read", "count"}, {"spm.words_written", "count"},
	{"spm.map_ins", "count"}, {"spm.evictions", "count"}, {"spm.transfer_cycles", "count"},
	{"cache.misses", "count"}, {"dram.words", "count"}, {"faults.strikes", "count"},
	{"spm.clean_read_frac", "ratio"},
	{"spm.corrected", "count"}, {"spm.rollbacks", "count"}, {"spm.scrub_runs", "count"},
	{"spm.escalations", "count"}, {"spm.recovery_cycles", "count"},
	{"simd.skeleton_s", "s"}, {"simd.batch_s", "s"}, {"simd.batches", "count"},
	{"simd.lane_fill", "ratio"}, {"simd.fallbacks", "count"},
	{"core.map_s", "s"}, {"avf.compute_s", "s"}, {"report.summary_s", "s"},
	{"campaign.idle_frac", "ratio"},
	{"resultcache.hits", "count"}, {"resultcache.misses", "count"}, {"resultcache.hit_frac", "ratio"},
	{"resultcache.evictions", "count"}, {"resultcache.collapsed", "count"},
	{"server.hit_p50_ms", "ms"}, {"server.miss_p50_ms", "ms"},
	{"server.overhead_p50_ms", "ms"}, {"server.shed", "count"},
	{"runtime.alloc_mb_per_op", "MB"}, {"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// spanMetrics maps span names to the per-layer time metric that sums
// their self time.
var spanMetrics = map[string]string{
	"workloads.gen":  "workloads.gen_s",
	"profile.run":    "profile.run_s",
	"sim.run":        "sim.run_s",
	"simd.skeleton":  "simd.skeleton_s",
	"simd.batch":     "simd.batch_s",
	"core.map":       "core.map_s",
	"avf.compute":    "avf.compute_s",
	"report.summary": "report.summary_s",
}

// layerNotes names, per workload, the per-layer metrics its traced run
// cannot observe and why; they read 0 there.
var layerNotes = map[string]map[string]string{
	"soak": {
		"dropped: sim.run_s, sim.ns_per_access, spm word/map-in/eviction/transfer counts, cache.misses, dram.words, spm.clean_read_frac": "the fault-free recording run is inside simd.BuildSkeleton: its time is in simd.skeleton_s and its counters are not public",
	},
	"serve": {
		"dropped: layer times and simulated counts": "the server runs profile, map, sim and AVF inside one handler call, so only the request is timed (server.*_ms); a request's counts depend on the drawn key, so they are not per-op invariant",
		"dropped: campaign.idle_frac":               "serve runs no campaign",
	},
}

// simCounts are the simulated counts of one op. They depend only on
// the op's inputs, so every op of a run (and every run at one seed)
// must report the same counts.
type simCounts struct {
	events, accesses, simAccesses                uint64
	wordsRead, wordsWritten, readErrors          uint64
	mapIns, evictions, transferCycles            uint64
	cacheMisses, dramWords, strikes              uint64
	corrected, rollbacks, scrubRuns, escalations uint64
	recoveryCycles, trials, batches, fallbacks   uint64
}

// addRun adds one scalar simulation: its result and the region
// counters of the machine that ran it.
func (c *simCounts) addRun(res sim.Result, m *sim.Machine) {
	c.accesses += res.Accesses
	c.simAccesses += res.Accesses
	for _, s := range []*spm.SPM{m.InstSPM(), m.DataSPM()} {
		for _, r := range s.Regions() {
			st := r.Stats()
			c.wordsRead += st.WordsRead
			c.wordsWritten += st.WordsWritten
			c.readErrors += st.CorrectedErrors + st.DetectedErrors + st.SilentReads
		}
	}
	for _, ctl := range []spm.ControllerStats{res.ICtl, res.DCtl} {
		c.mapIns += ctl.MapIns
		c.evictions += ctl.Evictions
		c.transferCycles += uint64(ctl.TransferCycles)
	}
	c.cacheMisses += res.ICacheStats.Misses + res.DCacheStats.Misses
	c.dramWords += res.DRAMStats.WordsRead + res.DRAMStats.WordsWritten
	c.strikes += res.InjectedStrikes
	c.addRecovery(res.RecoveryTotals())
}

func (c *simCounts) addRecovery(r spm.RecoveryStats) {
	c.corrected += r.CorrectedOnAccess
	c.rollbacks += r.Rollbacks
	c.scrubRuns += r.ScrubRuns
	c.escalations += r.ScrubEscalations
	c.recoveryCycles += uint64(r.RecoveryCycles)
}

// values flattens the counts into per-layer metrics.
func (c simCounts) values() map[string]float64 {
	v := map[string]float64{
		"workloads.events":    float64(c.events),
		"profile.events":      float64(c.events),
		"sim.accesses":        float64(c.accesses),
		"spm.words_read":      float64(c.wordsRead),
		"spm.words_written":   float64(c.wordsWritten),
		"spm.map_ins":         float64(c.mapIns),
		"spm.evictions":       float64(c.evictions),
		"spm.transfer_cycles": float64(c.transferCycles),
		"cache.misses":        float64(c.cacheMisses),
		"dram.words":          float64(c.dramWords),
		"faults.strikes":      float64(c.strikes),
		"spm.corrected":       float64(c.corrected),
		"spm.rollbacks":       float64(c.rollbacks),
		"spm.scrub_runs":      float64(c.scrubRuns),
		"spm.escalations":     float64(c.escalations),
		"spm.recovery_cycles": float64(c.recoveryCycles),
		"simd.batches":        float64(c.batches),
		"simd.fallbacks":      float64(c.fallbacks),
	}
	if c.wordsRead > 0 {
		v["spm.clean_read_frac"] = 1 - float64(c.readErrors)/float64(c.wordsRead)
	}
	if c.batches > 0 {
		v["simd.lane_fill"] = float64(c.trials) / float64(c.batches*64)
	}
	return v
}

// counter accumulates simCounts from concurrent jobs.
type counter struct {
	mu sync.Mutex
	c  simCounts
}

func (k *counter) add(f func(*simCounts)) {
	k.mu.Lock()
	defer k.mu.Unlock()
	f(&k.c)
}

// pool runs fn(0..n-1) in index order over the given number of
// workers, like the campaign runner's pool, and returns the first
// error.
func pool(workers, n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// sharedOnce runs fn once for all jobs that need it, the way the
// campaign shares a workload's trace and profile. A job that finds
// another job running fn records the time it waits as a
// "campaign.wait" span, which campaign.idle_frac counts as idle.
func sharedOnce(once *sync.Once, rec *recorder, op, job int, fn func()) {
	start := time.Now()
	ran := false
	once.Do(func() {
		ran = true
		fn()
	})
	if !ran {
		rec.add(op, job, "campaign.wait", start, time.Now())
	}
}

// timed wraps one layer call in a span.
func timed(rec *recorder, op, parent int, name string, fn func()) {
	id := rec.begin(op, parent, name)
	fn()
	rec.end(id)
}

// campaign is a workload whose op is one whole campaign, run back to
// back. untraced runs the program's own campaign entry point and
// returns its output and the simulated accesses it reports; tracedOp
// recomposes the same campaign from public layer calls with spans;
// check compares an op's output with its reference.
type campaign interface {
	untraced(ctx context.Context) ([]byte, uint64, error)
	tracedOp(ctx context.Context, rec *recorder, op int) ([]byte, simCounts, error)
	check(out []byte) error
}

// measureCampaign runs untraced ops back to back for d, checking each
// output and recording each op's peak RSS and its latency, unscaled and
// scaled by a host-speed sample taken just after it.
func measureCampaign(ctx context.Context, c campaign, d time.Duration) (*sample, error) {
	smp := &sample{}
	start := time.Now()
	for smp.attempted == 0 || time.Since(start) < d {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t := time.Now()
		out, acc, err := c.untraced(ctx)
		lat := time.Since(t)
		smp.attempted++
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		smp.rssMB = append(smp.rssMB, rss)
		if err := c.check(out); err != nil {
			return nil, err
		}
		speed := hostSpeed()
		smp.latMS = append(smp.latMS, float64(lat)/1e6)
		smp.refMS = append(smp.refMS, refTime(float64(lat)/1e6, speed))
		smp.speed = append(smp.speed, speed)
		smp.accesses += acc
	}
	smp.wall = time.Since(start)
	return smp, nil
}

// traceCampaign runs traced ops for d, checking each output and that
// every op reports the same simulated counts, and returns the
// per-layer metrics: counts per op, times as medians over ops.
func traceCampaign(ctx context.Context, c campaign, d time.Duration, rec *recorder) (*layerResult, error) {
	lr := &layerResult{values: map[string]float64{}, notes: map[string]string{}}
	var (
		first  simCounts
		perOp  = map[string][]float64{}
		start  = time.Now()
		nSpans int
	)
	for op := 1; op == 1 || time.Since(start) < d; op++ {
		out, counts, err := c.tracedOp(ctx, rec, op)
		if err != nil {
			return nil, err
		}
		if err := c.check(out); err != nil {
			return nil, fmt.Errorf("traced op: %w", err)
		}
		if op == 1 {
			first = counts
		} else if counts != first {
			return nil, fmt.Errorf("simulated counts drifted between traced ops 1 and %d:\n%+v\n%+v", op, first, counts)
		}
		spans := rec.opSpans(op)
		if err := checkClosed(spans); err != nil {
			return nil, err
		}
		nSpans += len(spans)
		var root span
		busy := 0.0
		for _, sp := range spans {
			switch sp.Name {
			case "op":
				root = sp
			case "campaign.job":
				busy += float64(sp.dur())
			case "campaign.wait":
				busy -= float64(sp.dur())
			}
		}
		lr.latMS = append(lr.latMS, float64(root.dur())/1e6)
		self := selfByName(spans)
		for spanName, m := range spanMetrics {
			perOp[m] = append(perOp[m], self[spanName])
		}
		perOp["campaign.idle_frac"] = append(perOp["campaign.idle_frac"], 1-busy/(float64(nproc)*float64(root.dur())))
		if counts.simAccesses > 0 {
			perOp["sim.ns_per_access"] = append(perOp["sim.ns_per_access"], self["sim.run"]*1e9/float64(counts.simAccesses))
		}
	}
	for k, v := range first.values() {
		lr.values[k] = v
	}
	for k, xs := range perOp {
		lr.values[k] = median(xs)
	}
	lr.notes["per-op values"] = fmt.Sprintf("times are medians over %d traced ops (%d spans); counts are per op and identical across ops", len(lr.latMS), nSpans)
	return lr, nil
}
