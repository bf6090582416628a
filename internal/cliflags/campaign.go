// Package cliflags is the command-line front end the campaign and
// measuring commands share. Campaign declares, validates and wires the
// crash-safe campaign flags of ftspm-bench and ftspm-soak; Profile
// implements -cpuprofile, -memprofile and -perfjson for every command
// that measures itself. A command registers them on its FlagSet and
// keeps only the flags and output that are its own.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric"
	"ftspm/internal/fabric/wire"
	"ftspm/internal/resultcache"
)

// Campaign holds the campaign flags: the checkpoint journal, the
// result cache, the local worker pool, the fabric's worker list, lease
// and audit, and the per-job retry budget and deadline.
type Campaign struct {
	Checkpoint string
	Resume     bool
	CachePath  string
	Parallel   int
	Workers    string
	Lease      time.Duration
	AuditFrac  float64
	AuditSeed  int64
	Retries    int
	JobTimeout time.Duration

	fs    *flag.FlagSet
	cache *resultcache.Cache
}

// fabricOnly names the flags that only tune the distributed fabric.
var fabricOnly = []string{"lease", "audit-frac", "audit-seed"}

// Register declares the campaign flags on fs.
func (c *Campaign) Register(fs *flag.FlagSet) {
	c.fs = fs
	fs.StringVar(&c.Checkpoint, "checkpoint", "", "journal finished jobs to this file (crash-safe campaign)")
	fs.BoolVar(&c.Resume, "resume", false, "skip jobs already journaled in -checkpoint")
	fs.StringVar(&c.CachePath, "cache", "", "memoize finished jobs in this content-addressed cache file (warm runs skip recomputing)")
	fs.IntVar(&c.Parallel, "parallel", 0, "job worker pool size, local or per fabric chunk (0: GOMAXPROCS)")
	fs.StringVar(&c.Workers, "workers", "", "comma-separated ftspmd worker URLs: distribute the campaign over the fabric")
	fs.DurationVar(&c.Lease, "lease", 0, "fabric heartbeat lease before a silent worker is declared dead (0: 60s)")
	fs.Float64Var(&c.AuditFrac, "audit-frac", 0, "fraction of fabric results to audit by re-execution on a different executor (0 disables)")
	fs.Int64Var(&c.AuditSeed, "audit-seed", 0, "seed for the deterministic audit job selection")
	fs.IntVar(&c.Retries, "retries", 0, "per-job retries before a job is recorded failed")
	fs.DurationVar(&c.JobTimeout, "job-timeout", 0, "per-job deadline (0: none)")
}

// Open validates the parsed flags and opens the -cache file. Every
// failure is a usage error except the cache's own. Close releases the
// cache.
func (c *Campaign) Open() error {
	if c.AuditFrac < 0 || c.AuditFrac > 1 {
		return campaign.Usagef("-audit-frac must be a probability in [0, 1] (got %g)", c.AuditFrac)
	}
	if c.Workers == "" {
		if name := FirstSet(c.fs, func(name string) bool { return slices.Contains(fabricOnly, name) }); name != "" {
			return campaign.Usagef("-%s requires -workers (it only tunes the distributed fabric)", name)
		}
	}
	if err := c.local().Validate(); err != nil {
		return err
	}
	if c.CachePath == "" {
		return nil
	}
	rc, err := resultcache.Open(resultcache.Config{Path: c.CachePath, Fingerprint: wire.Fingerprint()})
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	c.cache = rc
	return nil
}

// Close closes the result cache, if Open opened one.
func (c *Campaign) Close() error {
	if c.cache == nil {
		return nil
	}
	return c.cache.Close()
}

// CacheStats returns the result cache's counters, nil without -cache.
func (c *Campaign) CacheStats() *resultcache.Stats {
	if c.cache == nil {
		return nil
	}
	st := c.cache.Stats()
	return &st
}

func (c *Campaign) local() experiments.CampaignConfig {
	return experiments.CampaignConfig{
		Checkpoint: c.Checkpoint,
		Resume:     c.Resume,
		Workers:    c.Parallel,
		JobTimeout: c.JobTimeout,
		Retries:    c.Retries,
		Cache:      c.cache,
	}
}

func (c *Campaign) distributed() fabric.Config {
	return fabric.Config{
		Workers:    fabric.ParseWorkers(c.Workers),
		Parallel:   c.Parallel,
		Lease:      c.Lease,
		Retries:    c.Retries,
		JobTimeout: c.JobTimeout,
		Checkpoint: c.Checkpoint,
		Resume:     c.Resume,
		AuditFrac:  c.AuditFrac,
		AuditSeed:  c.AuditSeed,
		Cache:      c.cache,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, c.fs.Name()+": "+format+"\n", args...)
		},
	}
}

// RunSweep runs the full-suite sweep campaign: over the fabric with
// -workers, locally otherwise.
func (c *Campaign) RunSweep(ctx context.Context, opts experiments.Options) (*experiments.Sweep, *experiments.CampaignStatus, error) {
	if c.Workers != "" {
		return fabric.RunSweep(ctx, c.distributed(), opts)
	}
	return experiments.RunSweepCampaign(ctx, opts, c.local())
}

// RunSoak runs a soak campaign over structures: over the fabric with
// -workers, locally otherwise.
func (c *Campaign) RunSoak(ctx context.Context, opts experiments.SoakOptions, structures []core.Structure) ([]*experiments.SoakReport, *experiments.CampaignStatus, error) {
	if c.Workers != "" {
		return fabric.RunSoak(ctx, c.distributed(), opts, structures)
	}
	return experiments.RunSoakCampaign(ctx, opts, structures, c.local())
}

// PrintStatus prints a finished campaign's status lines: the result
// cache's counters, the jobs -resume skipped, each failed job (named
// by job, e.g. "trial"), and the fabric's integrity-audit outcome (a
// headline, then one line per divergence and per convicted worker).
// Lines with nothing to report are left out. Status belongs on the
// text stream, never in -json artifacts: those must stay
// byte-identical to a single-node run.
func (c *Campaign) PrintStatus(out io.Writer, st *experiments.CampaignStatus, job string) {
	if cs := c.CacheStats(); cs != nil {
		fmt.Fprintf(out, "result cache: %d hits, %d misses, %d bypasses (%d entries)\n",
			cs.Hits, cs.Misses, cs.Bypasses, cs.Entries)
	}
	if st.Resumed > 0 {
		fmt.Fprintf(out, "resumed %d finished %ss from %s\n", st.Resumed, job, c.Checkpoint)
	}
	for _, f := range st.Failures {
		fmt.Fprintf(out, "%s %s failed after %d attempt(s): %s\n", job, f.ID, f.Attempts, f.Error)
		if f.Stack != "" {
			fmt.Fprintf(out, "%s\n", f.Stack)
		}
	}
	if a := st.Audit; a != nil {
		fmt.Fprintf(out, "audit: %d re-executed, %d passed, %d divergence(s), %d unaudited result(s) invalidated and re-run\n",
			a.Audited, a.Passed, len(a.Divergences), a.Invalidated)
		for _, d := range a.Divergences {
			fmt.Fprintf(out, "audit: DIVERGENCE job %s on %s: worker returned %s, re-execution says %s\n",
				d.JobID, d.Worker, d.GotSum, d.WantSum)
		}
		for _, w := range a.SuspectWorkers {
			fmt.Fprintf(out, "audit: worker %s CONVICTED and quarantined\n", w)
		}
	}
}

// FirstSet returns the first flag set explicitly on fs's command line
// whose name matches, "" if none was. Commands use it to reject knobs
// whose enabling flag is absent.
func FirstSet(fs *flag.FlagSet, match func(name string) bool) string {
	found := ""
	fs.Visit(func(f *flag.Flag) {
		if found == "" && match(f.Name) {
			found = f.Name
		}
	})
	return found
}
