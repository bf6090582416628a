package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/faults"
	"ftspm/internal/profile"
	"ftspm/internal/sim"
	"ftspm/internal/simd"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// soakGolden holds the committed soak and storm baselines.
const soakGolden = "BENCH_soak.json"

// soakTrials is the trial count of one timed soak op: two full lane
// batches of 64 per structure, so RunBatch outweighs the one skeleton
// build per structure, while a window still holds some 40 ops whose
// median is steady.
const soakTrials = 128

// trialStride derives trial t's injection seed as Seed + t*trialStride,
// as the soak campaign does (experiments.soakTrialStride).
const trialStride = 1_000_003

var soakStructures = []core.Structure{core.StructFTSPM, core.StructPureSRAM, core.StructPureSTT}

// soakOptions mirrors BENCH_soak.json's command at the given trial
// count and seed: scale 0.05, strike 0.01, rollback recovery.
func soakOptions(trials int, seed int64) experiments.SoakOptions {
	rec := spm.DefaultRecovery()
	return experiments.SoakOptions{
		Workload: workloads.CaseStudyName, Trials: trials, Scale: 0.05,
		StrikesPerAccess: 0.01, Seed: seed, Recovery: &rec, Dist: faults.Dist40nm,
	}
}

// stormOptions mirrors BENCH_soak.json's storm_command at the given
// seed: 4 trials, scale 0.05, the default storm, adaptive defenses.
func stormOptions(seed int64) experiments.SoakOptions {
	o := soakOptions(4, seed)
	ad := spm.DefaultAdaptive()
	o.Recovery.Adaptive = &ad
	st := faults.StormConfig{
		CalmStrikesPerAccess: 0.001, StormStrikesPerAccess: 0.2,
		MeanCalmAccesses: 4000, MeanStormAccesses: 400,
		SpatialSpan: 2, ThermalFactor: 1, HotBlocks: 4,
	}.Normalized()
	o.Storm = &st
	return o
}

// loadSoakGoldens returns the compacted "reports" and "storm_reports"
// arrays of BENCH_soak.json.
func loadSoakGoldens() (reports, storm []byte, err error) {
	raw, err := os.ReadFile(soakGolden)
	if err != nil {
		return nil, nil, err
	}
	var g struct {
		Reports      json.RawMessage `json:"reports"`
		StormReports json.RawMessage `json:"storm_reports"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", soakGolden, err)
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, g.Reports); err != nil {
		return nil, nil, err
	}
	if err := json.Compact(&b, g.StormReports); err != nil {
		return nil, nil, err
	}
	return a.Bytes(), b.Bytes(), nil
}

// runSoakCampaign is one untraced op: the program's soak campaign,
// its reports as JSON and the simulated accesses they report.
func runSoakCampaign(ctx context.Context, opts experiments.SoakOptions) ([]byte, uint64, error) {
	reps, status, err := experiments.RunSoakCampaign(ctx, opts, soakStructures,
		experiments.CampaignConfig{Workers: nproc})
	if err != nil {
		return nil, 0, err
	}
	if f := status.FirstFailure(); f != nil {
		return nil, 0, f
	}
	return reportsJSON(reps)
}

func reportsJSON(reps []*experiments.SoakReport) ([]byte, uint64, error) {
	var acc uint64
	for _, r := range reps {
		acc += r.Accesses
	}
	blob, err := json.Marshal(reps)
	return blob, acc, err
}

// soakBase is the state soak and storm share: the campaign options and
// the reference output every op must repeat, set by the warm-up op.
type soakBase struct {
	seed int64
	opts experiments.SoakOptions
	ref  []byte
}

// untraced is one op: the program's soak campaign.
func (b *soakBase) untraced(ctx context.Context) ([]byte, uint64, error) {
	return runSoakCampaign(ctx, b.opts)
}

// warmUp runs the warm-up op, whose output every later op must repeat;
// a non-nil golden must equal it too.
func (b *soakBase) warmUp(ctx context.Context, golden []byte) error {
	out, _, err := b.untraced(ctx)
	if err != nil {
		return err
	}
	if golden != nil && !bytes.Equal(out, golden) {
		return fmt.Errorf("reports differ from %s: %w", soakGolden, errMismatch)
	}
	b.ref = out
	return nil
}

func (b *soakBase) check(out []byte) error {
	if !bytes.Equal(out, b.ref) {
		return fmt.Errorf("reports differ from the warm-up op's at seed %d: %w", b.seed, errMismatch)
	}
	return nil
}

func (b *soakBase) close() {}

// soakW is the packed Monte-Carlo soak.
type soakW struct {
	soakBase
	golden []byte // BENCH_soak.json reports
}

func newSoak(seed int64) *soakW {
	return &soakW{soakBase: soakBase{seed: seed, opts: soakOptions(soakTrials, seed)}}
}

func (w *soakW) setup(ctx context.Context) error {
	var err error
	if w.golden, _, err = loadSoakGoldens(); err != nil {
		return err
	}
	return w.warmUp(ctx, nil)
}

// finish reproduces the committed 8-trial soak golden, outside the
// timed window.
func (w *soakW) finish(ctx context.Context) error {
	out, _, err := runSoakCampaign(ctx, soakOptions(8, defaultSeed))
	if err != nil {
		return err
	}
	if !bytes.Equal(out, w.golden) {
		return fmt.Errorf("soak: 8-trial campaign differs from %s reports: %w", soakGolden, errMismatch)
	}
	return nil
}

// trialResult is one trial's contribution to a soak report.
type trialResult struct {
	accesses, strikes uint64
	recovery          spm.RecoveryStats
	audit             faults.Tally
}

// aggregate folds trials into a report the way the soak campaign does.
func aggregate(workload string, s core.Structure, trials []trialResult) *experiments.SoakReport {
	rep := &experiments.SoakReport{Workload: workload, Structure: s, Trials: len(trials)}
	var degradedSum float64
	for _, tr := range trials {
		rep.Accesses += tr.accesses
		rep.Strikes += tr.strikes
		rep.Recovery.Add(tr.recovery)
		rep.EndAudit.Benign += tr.audit.Benign
		rep.EndAudit.DRE += tr.audit.DRE
		rep.EndAudit.DUE += tr.audit.DUE
		rep.EndAudit.SDC += tr.audit.SDC
		if tr.recovery.FirstDegradedTick > 0 {
			rep.DegradedTrials++
			degradedSum += float64(tr.recovery.FirstDegradedTick)
		}
	}
	if rep.DegradedTrials > 0 {
		rep.MeanTimeToDegraded = degradedSum / float64(rep.DegradedTrials)
	}
	return rep
}

// genProfile generates the campaign's trace and profiles it, once.
func genProfile(rec *recorder, op, parent int, wl workloads.Workload, scale float64, cnt *counter) ([]trace.Event, *profile.Profile, error) {
	var (
		events []trace.Event
		prof   *profile.Profile
		err    error
	)
	timed(rec, op, parent, "workloads.gen", func() { events = wl.TraceEvents(scale) })
	timed(rec, op, parent, "profile.run", func() { prof, err = profile.Run(wl.Program(), trace.Replay(events)) })
	n := uint64(len(events))
	cnt.add(func(c *simCounts) { c.events += n })
	return events, prof, err
}

// mapStructure is the MDA placement of one structure.
func mapStructure(rec *recorder, op, parent int, s core.Structure, prof *profile.Profile) (spec core.Spec, place spm.Placement, err error) {
	def := experiments.DefaultOptions()
	timed(rec, op, parent, "core.map", func() {
		if spec, err = core.NewSpec(s); err != nil {
			return
		}
		var m core.Mapping
		m, err = core.MapBlocks(prof, spec, def.Thresholds, def.Priority)
		place = m.Placement
	})
	return spec, place, err
}

// tracedOp recomposes the packed soak. The campaign serializes a
// structure's lane batches behind one lock, so the recomposition runs
// them in order on one goroutine; campaign.idle_frac shows the other
// worker's idle share.
func (w *soakW) tracedOp(ctx context.Context, rec *recorder, op int) ([]byte, simCounts, error) {
	root := rec.begin(op, 0, "op")
	job := rec.begin(op, root, "campaign.job")
	var cnt counter
	wl, err := workloads.ByName(w.opts.Workload)
	if err != nil {
		return nil, simCounts{}, err
	}
	events, prof, err := genProfile(rec, op, job, wl, w.opts.Scale, &cnt)
	if err != nil {
		return nil, simCounts{}, err
	}
	reps := make([]*experiments.SoakReport, len(soakStructures))
	for si, s := range soakStructures {
		spec, place, err := mapStructure(rec, op, job, s, prof)
		if err != nil {
			return nil, simCounts{}, err
		}
		cfg := spec.SimConfig(place)
		rc := *w.opts.Recovery
		cfg.Recovery = &rc
		var eng *simd.Engine
		timed(rec, op, job, "simd.skeleton", func() {
			var sk *simd.Skeleton
			if sk, err = simd.BuildSkeleton(ctx, wl.Program(), cfg, events); err != nil {
				return
			}
			cnt.add(func(c *simCounts) { c.accesses += sk.Accesses() })
			eng, err = simd.NewEngine(sk, simd.Injection{
				StrikesPerAccess: w.opts.StrikesPerAccess, Dist: w.opts.Dist, Target: w.opts.Target,
			})
		})
		if err != nil {
			return nil, simCounts{}, fmt.Errorf("soak %v: %w", s, err)
		}
		trials := make([]trialResult, 0, w.opts.Trials)
		for t0 := 0; t0 < w.opts.Trials; t0 += simd.MaxLanes {
			n := min(simd.MaxLanes, w.opts.Trials-t0)
			seeds := make([]int64, n)
			for i := range seeds {
				seeds[i] = w.opts.Seed + int64(t0+i)*trialStride
			}
			batch := make([]simd.TrialResult, n)
			timed(rec, op, job, "simd.batch", func() { err = eng.RunBatch(ctx, seeds, batch) })
			if err != nil {
				return nil, simCounts{}, err
			}
			for _, b := range batch {
				trials = append(trials, trialResult{b.Accesses, b.Strikes, b.Recovery, b.Audit})
				cnt.add(func(c *simCounts) {
					c.strikes += b.Strikes
					c.addRecovery(b.Recovery)
				})
			}
			cnt.add(func(c *simCounts) { c.batches++; c.trials += uint64(n) })
		}
		reps[si] = aggregate(w.opts.Workload, s, trials)
	}
	rec.end(job)
	var blob []byte
	timed(rec, op, root, "report.summary", func() { blob, _, err = reportsJSON(reps) })
	rec.end(root)
	return blob, cnt.c, err
}

// stormW is the correlated-storm soak on the scalar controller.
type stormW struct{ soakBase }

func newStorm(seed int64) *stormW {
	return &stormW{soakBase{seed: seed, opts: stormOptions(seed)}}
}

// setup checks the warm-up against storm_reports at the default seed;
// at other seeds only repeats are checked.
func (w *stormW) setup(ctx context.Context) error {
	_, golden, err := loadSoakGoldens()
	if err != nil {
		return err
	}
	if w.seed != defaultSeed {
		golden = nil
	}
	return w.warmUp(ctx, golden)
}

func (w *stormW) finish(context.Context) error { return nil }

// stormStructure is one structure's placement, shared by its trials.
type stormStructure struct {
	once  sync.Once
	spec  core.Spec
	place spm.Placement
	err   error
}

// tracedOp recomposes the storm campaign: (structure, trial) jobs over
// the campaign's worker count; per structure the mapping and the packed
// engine's attempt, which declines the storm; per trial one scalar
// simulation and the end-of-run audit.
func (w *stormW) tracedOp(ctx context.Context, rec *recorder, op int) ([]byte, simCounts, error) {
	root := rec.begin(op, 0, "op")
	wl, err := workloads.ByName(w.opts.Workload)
	if err != nil {
		return nil, simCounts{}, err
	}
	var (
		cnt     counter
		shared  sync.Once
		events  []trace.Event
		prof    *profile.Profile
		sharedE error
		structs = make([]stormStructure, len(soakStructures))
		trials  = make([][]trialResult, len(soakStructures))
		n       = w.opts.Trials
	)
	for i := range trials {
		trials[i] = make([]trialResult, n)
	}
	err = pool(nproc, len(soakStructures)*n, func(j int) error {
		si, t := j/n, j%n
		job := rec.begin(op, root, "campaign.job")
		defer rec.end(job)
		sharedOnce(&shared, rec, op, job, func() {
			events, prof, sharedE = genProfile(rec, op, job, wl, w.opts.Scale, &cnt)
		})
		if sharedE != nil {
			return sharedE
		}
		ss := &structs[si]
		sharedOnce(&ss.once, rec, op, job, func() { ss.err = w.prepare(ctx, rec, op, job, ss, soakStructures[si], wl, prof, events, &cnt) })
		if ss.err != nil {
			return ss.err
		}
		tr, err := w.trial(ctx, rec, op, job, ss, wl, events, t, &cnt)
		trials[si][t] = tr
		return err
	})
	if err != nil {
		return nil, simCounts{}, err
	}
	var blob []byte
	timed(rec, op, root, "report.summary", func() {
		reps := make([]*experiments.SoakReport, len(soakStructures))
		for si, s := range soakStructures {
			reps[si] = aggregate(w.opts.Workload, s, trials[si])
		}
		blob, _, err = reportsJSON(reps)
	})
	rec.end(root)
	return blob, cnt.c, err
}

// prepare maps the structure and tries the packed engine, which must
// decline the storm.
func (w *stormW) prepare(ctx context.Context, rec *recorder, op, job int, ss *stormStructure, s core.Structure,
	wl workloads.Workload, prof *profile.Profile, events []trace.Event, cnt *counter) error {
	var err error
	if ss.spec, ss.place, err = mapStructure(rec, op, job, s, prof); err != nil {
		return err
	}
	cfg := ss.spec.SimConfig(ss.place)
	rc := *w.opts.Recovery
	cfg.Recovery = &rc
	st := *w.opts.Storm
	cfg.Injection = &sim.InjectionConfig{Dist: w.opts.Dist, Target: w.opts.Target, Storm: &st}
	timed(rec, op, job, "simd.skeleton", func() { _, err = simd.BuildSkeleton(ctx, wl.Program(), cfg, events) })
	if !errors.Is(err, simd.ErrUnsupported) {
		return fmt.Errorf("storm %v: packed engine did not decline the storm (err %v)", s, err)
	}
	cnt.add(func(c *simCounts) { c.fallbacks++ })
	return nil
}

// trial runs one scalar storm trial, as the campaign's scalar path
// does.
func (w *stormW) trial(ctx context.Context, rec *recorder, op, job int, ss *stormStructure,
	wl workloads.Workload, events []trace.Event, t int, cnt *counter) (trialResult, error) {
	cfg := ss.spec.SimConfig(ss.place)
	st := *w.opts.Storm
	cfg.Injection = &sim.InjectionConfig{
		StrikesPerAccess: w.opts.StrikesPerAccess, Dist: w.opts.Dist,
		Seed: w.opts.Seed + int64(t)*trialStride, Target: w.opts.Target, Storm: &st,
	}
	rc := *w.opts.Recovery
	cfg.Recovery = &rc
	var (
		m   *sim.Machine
		res sim.Result
		err error
	)
	timed(rec, op, job, "sim.run", func() {
		if m, err = sim.New(wl.Program(), cfg); err == nil {
			res, err = m.RunContext(ctx, trace.Replay(events))
		}
	})
	if err != nil {
		return trialResult{}, err
	}
	cnt.add(func(c *simCounts) { c.addRun(res, m) })
	audit := m.DataSPM().Audit()
	ia := m.InstSPM().Audit()
	audit.Benign += ia.Benign
	audit.DRE += ia.DRE
	audit.DUE += ia.DUE
	audit.SDC += ia.SDC
	return trialResult{res.Accesses, res.InjectedStrikes, res.RecoveryTotals(), audit}, nil
}
