// Command perfbench is the repository's host-time benchmark. It runs
// one of four workloads — sweep, soak, storm, serve — in a closed loop
// for a fixed time, checks every output against the committed goldens,
// and prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a recomposed, span-traced run. See README.md.
//
// Run it from the repository root through the launcher, which builds
// this module first:
//
//	python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// defaultSeed is the seed at which the goldens apply.
const defaultSeed = 1

// Set-up is timed in two halves, one just before and one just after
// the measuring window, so setup_s samples the host over the whole run.
// Each half runs set-up at least minSetupRuns times and until setupTime
// has passed, so a cheap set-up gets more samples; setup_s is the
// median of both halves, each set-up scaled to the reference host speed
// by a host-speed sample taken just after it.
const (
	minSetupRuns = 3
	setupTime    = 3 * time.Second
)

// workDir holds the benchmark's scratch files (server data, spans),
// inside the checkout and ignored by git.
var workDir = filepath.Join(".bench_build", "perfbench")

// nproc bounds every workload's worker threads and connections.
var nproc = runtime.NumCPU()

// workload is one benchmark workload: a campaign (sweep, soak, storm)
// or serve's request loop.
type workload interface {
	// setup loads the goldens, builds the workload's state and runs
	// one checked warm-up op.
	setup(ctx context.Context) error
	// finish runs the checks that belong outside the timed window.
	finish(ctx context.Context) error
	// close releases the state built by setup.
	close()
}

// measure runs untraced ops for d, checking each output.
func measure(ctx context.Context, w workload, d time.Duration) (*sample, error) {
	if c, ok := w.(campaign); ok {
		return measureCampaign(ctx, c, d)
	}
	return w.(*serveW).measure(ctx, d)
}

// traced runs the span-traced ops for d, checking each output, and
// returns the per-layer metrics.
func traced(ctx context.Context, w workload, d time.Duration, rec *recorder) (*layerResult, error) {
	if c, ok := w.(campaign); ok {
		return traceCampaign(ctx, c, d, rec)
	}
	return w.(*serveW).traced(ctx, d, rec)
}

// sample is the outcome of one untraced measuring window.
type sample struct {
	latMS     []float64 // host latency of each completed op
	refMS     []float64 // the same, scaled to the reference host speed
	attempted int
	failed    int // errored or refused ops
	wall      time.Duration
	accesses  uint64    // simulated accesses, from the program's reports
	rssMB     []float64 // peak resident memory of each op (or window)
	speed     []float64 // host-speed samples taken between ops
	note      string
}

// layerResult is the outcome of one traced window.
type layerResult struct {
	values map[string]float64
	notes  map[string]string // what is dropped or derived, and why
	latMS  []float64         // latency of each traced op
	failed int
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "sweep":
		return &sweepW{}, nil
	case "soak":
		return newSoak(seed), nil
	case "storm":
		return newStorm(seed), nil
	case "serve":
		return newServe(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep, soak, storm or serve)", name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloadNames are the workloads "all" runs, in order.
var workloadNames = []string{"sweep", "soak", "storm", "serve"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "sweep", "workload: sweep, soak, storm, serve, or all (each in turn)")
	seed := fs.Int64("seed", defaultSeed, "input seed; the goldens apply at 1")
	seconds := fs.Float64("seconds", 10, "measuring time")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer measurement")
	setupOnly := fs.Bool("setup-only", false, "run set-up once and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be > 0")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	if *setupOnly {
		w, err := newWorkload(*name, *seed)
		if err != nil {
			return err
		}
		defer w.close()
		return w.setup(ctx)
	}

	id := identify()
	d := time.Duration(*seconds * float64(time.Second))
	if *name != "all" {
		return runOne(ctx, out, id, *name, *seed, d, *trace)
	}
	for _, n := range workloadNames {
		// Return the previous workload's memory, so each one's
		// peak_rss_mb is the same as when it runs alone.
		debug.FreeOSMemory()
		if err := runOne(ctx, out, id, n, *seed, d, *trace); err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
	}
	return nil
}

// runOne measures one workload and prints the machine record, with the
// CPU-loop rate before and after the run, and the result.
func runOne(ctx context.Context, out io.Writer, id identity, name string, seed int64, d time.Duration, trace int) error {
	id.CPULoopStart = cpuLoopRate()
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	var setups setupTimes
	if trace == 0 {
		if err := setups.time(name, seed); err != nil {
			return err
		}
	}
	if err := w.setup(ctx); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	id.GOMAXPROCS = runtime.GOMAXPROCS(0) // serve's setup lowers it

	var res *result
	if trace == 0 {
		res, err = endToEnd(ctx, w, d, name, seed, &setups)
	} else {
		res, err = perLayer(ctx, w, d, name, seed)
	}
	if err != nil {
		return err
	}
	if err := w.finish(ctx); err != nil {
		return err
	}
	id.CPULoopEnd = cpuLoopRate()
	blob, err := json.Marshal(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "machine %s\n", blob)
	return res.print(out, name, seed, trace)
}

// setupTimes holds the set-up runs of one benchmark run: each one's
// wall time and a host-speed sample taken just after it.
type setupTimes struct {
	secs, speed []float64
	before      int // runs timed before the measuring window
}

// time runs set-up in fresh processes of this binary, one after
// another, and records each one's wall time, from process start to exit
// after set-up. A fresh process pays everything a user's first op waits
// for: runtime and package start-up, loading the goldens, building
// state and the warm-up op.
func (st *setupTimes) time(name string, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for begin, n := time.Now(), 0; n < minSetupRuns || time.Since(begin) < setupTime; n++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--setup-only")
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set-up process: %w", err)
		}
		st.secs = append(st.secs, time.Since(start).Seconds())
		st.speed = append(st.speed, hostSpeed())
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// result is what a run prints.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	order             []string
	notes             map[string]string
}

func (r *result) set(name string, v float64, unit, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, note: note}
}

// endToEnd measures the untraced end-to-end metrics; setups holds the
// set-up half timed before the window.
func endToEnd(ctx context.Context, w workload, d time.Duration, name string, seed int64, setups *setupTimes) (*result, error) {
	s, err := measure(ctx, w, d)
	if err != nil {
		return nil, err
	}
	setups.before = len(setups.secs)
	if err := setups.time(name, seed); err != nil {
		return nil, err
	}
	r := &result{attempted: s.attempted, failed: s.failed, metrics: map[string]metric{}}
	n := len(s.latMS)
	var busy, refBusy float64
	for i := range s.latMS {
		busy += s.latMS[i] / 1e3
		refBusy += s.refMS[i] / 1e3
	}
	refSetup := make([]float64, len(setups.secs))
	for i, t := range setups.secs {
		refSetup[i] = refTime(t, setups.speed[i])
	}
	r.set("setup_s", median(refSetup), "s", fmt.Sprintf("median of %d set-ups (%d before, %d after the window); unscaled %.4f, q1=%.4f q3=%.4f",
		len(setups.secs), setups.before, len(setups.secs)-setups.before,
		median(setups.secs), quantile(setups.secs, 0.25), quantile(setups.secs, 0.75)))
	r.set("ops_per_ref_s", float64(n)/refBusy, "1/s", fmt.Sprintf("%d ops%s, %.3f s of ops in a %.3f s window; %.1f 1/s unscaled",
		n, s.note, busy, s.wall.Seconds(), float64(n)/busy))
	r.set("sim_accesses_per_ref_s", float64(s.accesses)/refBusy, "1/s", fmt.Sprintf("%d simulated accesses; %.4g 1/s unscaled",
		s.accesses, float64(s.accesses)/busy))
	r.set("op_p50_ref_ms", median(s.refMS), "ms", fmt.Sprintf("n=%d; unscaled p50 %.4f, q1=%.4f q3=%.4f",
		n, median(s.latMS), quantile(s.latMS, 0.25), quantile(s.latMS, 0.75)))
	r.set("peak_rss_mb", median(s.rssMB), "MB", fmt.Sprintf("median of %d peaks [%.2f..%.2f]",
		len(s.rssMB), quantile(s.rssMB, 0), quantile(s.rssMB, 1)))
	r.notes = map[string]string{}
	if p99, ok := tailPercentile(s.latMS, 990); ok {
		r.notes["op_p99_ms"] = fmt.Sprintf("%.4f ms unscaled (n=%d)", p99, n)
	} else {
		r.notes["op_p99_ms"] = fmt.Sprintf("not reported: %d samples, p99 needs %d", n, samplesNeeded(990))
	}
	r.notes["host speed"] = fmt.Sprintf("median %.1f kernel rounds/s over %d samples [%.1f..%.1f], reference %d",
		median(s.speed), len(s.speed), quantile(s.speed, 0), quantile(s.speed, 1), refLoopRate)
	r.notes["failed_frac"] = fmt.Sprintf("%g (%d of %d ops)", safeDiv(float64(s.failed), float64(s.attempted)), s.failed, s.attempted)
	return r, nil
}

// perLayer splits the window: the first half runs untraced ops (the
// baseline for the tracing overhead and the runtime counters), the
// second half the recomposed traced ops.
func perLayer(ctx context.Context, w workload, d time.Duration, name string, seed int64) (*result, error) {
	rt0 := readRuntime()
	base, err := measure(ctx, w, d/2)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	rec := newRecorder()
	lr, err := traced(ctx, w, d/2, rec)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := rec.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	r := &result{
		attempted: base.attempted + len(lr.latMS) + lr.failed,
		failed:    base.failed + lr.failed,
		metrics:   map[string]metric{},
		notes:     lr.notes,
	}
	for k, v := range layerNotes[name] {
		r.notes[k] = v
	}
	for _, pl := range perLayerMetrics {
		v, ok := lr.values[pl.name]
		if !ok {
			v = 0
		}
		r.set(pl.name, v, pl.unit, "")
	}
	ops := float64(len(base.latMS))
	r.set("runtime.alloc_mb_per_op", float64(rt1.allocBytes-rt0.allocBytes)/1e6/ops, "MB", "untraced half")
	r.set("runtime.gc_cycles_per_op", float64(rt1.gcCycles-rt0.gcCycles)/ops, "count", "untraced half")
	r.set("runtime.gc_cpu_frac", safeDiv(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio", "untraced half")
	r.set("trace.overhead_frac", median(lr.latMS)/median(base.latMS)-1, "ratio",
		fmt.Sprintf("traced p50 %.4f ms (n=%d) vs untraced %.4f ms (n=%d)",
			median(lr.latMS), len(lr.latMS), median(base.latMS), len(base.latMS)))
	r.notes["spans"] = "written to " + path
	return r, nil
}

func (r *result) print(out io.Writer, name string, seed int64, trace int) error {
	fmt.Fprintf(out, "workload %s seed %d trace %d: %d ops attempted, %d failed, every output checked\n",
		name, seed, trace, r.attempted, r.failed)
	for _, k := range r.order {
		m := r.metrics[k]
		fmt.Fprintf(out, "  %-26s %14.6g %-6s %s\n", k, m.Value, m.Unit, m.note)
	}
	keys := make([]string, 0, len(r.notes))
	for k := range r.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  - %s: %s\n", k, r.notes[k])
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, r.metrics}
	blob, err := json.Marshal(final)
	if err != nil {
		return fmt.Errorf("result: %w", err) // a NaN or Inf metric
	}
	_, err = fmt.Fprintf(out, "%s\n", blob)
	return err
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters are the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// errMismatch marks an output that differs from its reference. It
// fails the whole run.
var errMismatch = errors.New("output mismatch")

// identity records where a result was measured. The CPU-loop rates,
// taken just before and after the run, tell a slower host period from a
// slower program.
type identity struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Go           string  `json:"go"`
	Commit       string  `json:"commit"`
	TreeSHA256   string  `json:"tree_sha256"`
	CPULoopStart float64 `json:"cpu_loop_start_per_s"`
	CPULoopEnd   float64 `json:"cpu_loop_end_per_s"`
}

func identify() identity {
	return identity{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		TreeSHA256: treeDigest("."),
	}
}
