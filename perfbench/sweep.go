package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ftspm/internal/avf"
	"ftspm/internal/core"
	"ftspm/internal/endurance"
	"ftspm/internal/experiments"
	"ftspm/internal/faults"
	"ftspm/internal/profile"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// summaryGolden is the committed sweep summary every sweep op must
// reproduce byte for byte.
const summaryGolden = "results/summary.json"

// sweepW is the paper's figure pipeline: one cold scale-0.25 sweep of
// the 12-workload suite on the 3 structures. RunSweepCampaign takes no
// seed, so its input — and its golden — is the same at every seed.
type sweepW struct {
	golden []byte
}

func (w *sweepW) setup(ctx context.Context) error {
	g, err := os.ReadFile(summaryGolden)
	if err != nil {
		return err
	}
	w.golden = g
	out, _, err := w.untraced(ctx)
	if err != nil {
		return err
	}
	return w.check(out)
}

func (w *sweepW) finish(context.Context) error { return nil }
func (w *sweepW) close()                       {}

func (w *sweepW) check(out []byte) error {
	if !bytes.Equal(out, w.golden) {
		return fmt.Errorf("sweep: summary differs from %s: %w", summaryGolden, errMismatch)
	}
	return nil
}

// untraced is one op: a cold sweep campaign, summarized the way
// ftspm-bench -json writes it.
func (w *sweepW) untraced(ctx context.Context) ([]byte, uint64, error) {
	sw, status, err := experiments.RunSweepCampaign(ctx, experiments.DefaultOptions(),
		experiments.CampaignConfig{Workers: nproc})
	if err != nil {
		return nil, 0, err
	}
	if f := status.FirstFailure(); f != nil {
		return nil, 0, f
	}
	return summarize(sw)
}

func summarize(sw *experiments.Sweep) ([]byte, uint64, error) {
	sum, err := experiments.Summarize(sw)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		return nil, 0, err
	}
	var acc uint64
	for _, r := range sum.Runs {
		acc += r.Accesses
	}
	return buf.Bytes(), acc, nil
}

// sweepShare is one workload's trace and profile, computed by the first
// job that needs them and released after its last structure, as the
// campaign does.
type sweepShare struct {
	once      sync.Once
	events    []trace.Event
	prof      *profile.Profile
	err       error
	remaining atomic.Int32
}

// tracedOp recomposes the sweep campaign from public layer calls:
// structure-major jobs over the same worker count, each workload's
// trace generated and profiled once, then per job the mapping, the
// simulation, AVF and endurance — the steps of the campaign's sweep
// job — each in its own span.
func (w *sweepW) tracedOp(ctx context.Context, rec *recorder, op int) ([]byte, simCounts, error) {
	root := rec.begin(op, 0, "op")
	opts := experiments.DefaultOptions()
	suite := workloads.Suite()
	structs := core.Structures()
	shares := make([]sweepShare, len(suite))
	sw := &experiments.Sweep{Options: opts, Workloads: make([]string, len(suite)), Outcomes: make([][]experiments.Outcome, len(suite))}
	for i, wl := range suite {
		shares[i].remaining.Store(int32(len(structs)))
		sw.Workloads[i] = wl.Name
		sw.Outcomes[i] = make([]experiments.Outcome, len(structs))
	}
	var cnt counter
	err := pool(nproc, len(suite)*len(structs), func(j int) error {
		si, wi := j/len(suite), j%len(suite)
		job := rec.begin(op, root, "campaign.job")
		defer rec.end(job)
		out, err := sweepJob(ctx, rec, op, job, suite[wi], structs[si], &shares[wi], opts, &cnt)
		if err != nil {
			return fmt.Errorf("sweep %s/%v: %w", suite[wi].Name, structs[si], err)
		}
		sw.Outcomes[wi][si] = out
		return nil
	})
	if err != nil {
		return nil, simCounts{}, err
	}
	var blob []byte
	timed(rec, op, root, "report.summary", func() { blob, _, err = summarize(sw) })
	rec.end(root)
	return blob, cnt.c, err
}

func sweepJob(ctx context.Context, rec *recorder, op, job int, wl workloads.Workload, s core.Structure,
	sh *sweepShare, opts experiments.Options, cnt *counter) (experiments.Outcome, error) {
	sharedOnce(&sh.once, rec, op, job, func() {
		timed(rec, op, job, "workloads.gen", func() { sh.events = wl.TraceEvents(opts.Scale) })
		timed(rec, op, job, "profile.run", func() { sh.prof, sh.err = profile.Run(wl.Program(), trace.Replay(sh.events)) })
		n := uint64(len(sh.events))
		cnt.add(func(c *simCounts) { c.events += n })
	})
	if sh.err != nil {
		return experiments.Outcome{}, sh.err
	}
	var (
		spec    core.Spec
		mapping core.Mapping
		err     error
	)
	timed(rec, op, job, "core.map", func() {
		if spec, err = core.NewSpec(s); err == nil {
			mapping, err = core.MapBlocks(sh.prof, spec, opts.Thresholds, opts.Priority)
		}
	})
	if err != nil {
		return experiments.Outcome{}, err
	}
	var (
		m   *sim.Machine
		res sim.Result
	)
	timed(rec, op, job, "sim.run", func() {
		if m, err = sim.New(wl.Program(), spec.SimConfig(mapping.Placement)); err == nil {
			res, err = m.RunContext(ctx, trace.Replay(sh.events))
		}
	})
	if err != nil {
		return experiments.Outcome{}, err
	}
	if sh.remaining.Add(-1) == 0 {
		sh.events = nil
	}
	cnt.add(func(c *simCounts) { c.addRun(res, m) })

	mode := avf.ModeUniform
	if len(spec.DataKinds) > 1 {
		mode = avf.ModePerBlock
	}
	var rep avf.Report
	timed(rec, op, job, "avf.compute", func() {
		rep, err = avf.Compute(sh.prof, mapping.Placement, faults.Dist40nm, spec.DSPMBytes(), mode)
	})
	if err != nil {
		return experiments.Outcome{}, err
	}
	var rate float64
	if _, hasSTT := m.DataSPM().RegionByKind(spm.RegionSTT); hasSTT {
		timed(rec, op, job, "endurance.rate", func() {
			rate, err = endurance.MaxCellWriteRate(m.DataSPM(), res.Cycles, spm.RegionSTT)
		})
		if err != nil && !errors.Is(err, endurance.ErrNoExecution) {
			return experiments.Outcome{}, err
		}
	}
	return experiments.Outcome{
		Workload: wl.Name, Structure: s, Spec: spec, Profile: sh.prof,
		Mapping: mapping, Sim: res, AVF: rep, STTWriteRate: rate,
	}, nil
}
