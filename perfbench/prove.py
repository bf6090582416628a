#!/usr/bin/env python3
"""Check that the benchmark is steady: run it on ten seeds per
workload, twice, and report each end-to-end metric's spread and how its
median moved between the two sets.

Run from the repository root:

    python3 perfbench/prove.py [--traced]

Each set runs every workload of BENCHMARK.json on seeds 1 to 10, seed
by seed, so each workload's runs span the whole set. For each workload
and end-to-end metric it prints the median and the spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, and marks it WIDE when the spread is not below a
third of the metric's bound in BENCHMARK.json. setup_s is the
exception: it is marked WIDE only when its spread reaches the whole
bound, because its samples are sub-second process starts, which follow
the host's speed from minute to minute more than the measuring windows
do. After the two sets it marks a metric WORSE when the second set's
median is worse than the first's by more than the metric's bound.

It also prints the median kernel rate of the runs' machine records, so
two sets can be told apart by host speed. With --traced it then runs
the traced measurement twice at seed 1 per workload and checks that the
simulated counts are identical. Raw results go to
.bench_build/prove.json. It exits 1 if any spread is WIDE, any median
WORSE or any count drifts.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = 10
SETS = 2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Simulated counts: they must repeat exactly at a fixed seed.
COUNTS = [
    "workloads.events", "profile.events", "sim.accesses",
    "spm.words_read", "spm.words_written", "spm.map_ins", "spm.evictions",
    "spm.transfer_cycles", "cache.misses", "dram.words", "faults.strikes",
    "spm.corrected", "spm.rollbacks", "spm.scrub_runs", "spm.escalations",
    "spm.recovery_cycles", "simd.batches", "simd.fallbacks",
]


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result")
    machine = [json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("machine ")]
    res["machine"] = machine[-1]
    return res


def spreads(bench, results):
    """Print each end-to-end metric's median and spread over one set;
    return the medians and whether every spread is within its limit."""
    ok = True
    medians = {}
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = medians[m["name"]] = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med
        limit = m["bound"] if m["name"] == "setup_s" else m["bound"] / 3
        if spread < m["bound"] / 3:
            flag = "ok"
        elif spread < limit:
            flag = "over bound/3, under bound"
        else:
            flag = "WIDE"
            ok = False
        print(f"  {m['name']:24s} median {med:14.6g} {m['unit']:5s} spread {spread:7.4f}  bound/3 {m['bound'] / 3:.4f} {flag}")
    loop = [r["machine"][k] for r in results for k in ("cpu_loop_start_per_s", "cpu_loop_end_per_s")]
    print(f"  {'kernel rate':24s} median {statistics.median(loop):14.6g} 1/s   range {min(loop):.6g}..{max(loop):.6g}")
    return medians, ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    raw = {}
    ok = True
    medians = []
    for n in range(SETS):
        # Seed-major order: each workload's ten runs are spread over the
        # whole set, so the spread includes the host's drift over it.
        sets = {wl: [] for wl in workloads}
        for seed in range(1, SEEDS + 1):
            for wl in workloads:
                sets[wl].append(run(bench, wl, seed, 0))
        medians.append({})
        for wl in workloads:
            print(f"set {n + 1}, {wl}:")
            medians[n][wl], fine = spreads(bench, sets[wl])
            ok = ok and fine
            raw[f"set{n + 1}/{wl}"] = sets[wl]
        sys.stdout.flush()
    print("second set against the first:")
    for wl in workloads:
        for m in bench["end_to_end"]:
            a, b = medians[0][wl][m["name"]], medians[1][wl][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and flag == "ok"
            print(f"  {wl:6s} {m['name']:24s} {a:14.6g} -> {b:14.6g}  worse by {worse:+.4f}  bound {m['bound']} {flag}")
    if args.traced:
        for wl in workloads:
            a, b = run(bench, wl, 1, 1), run(bench, wl, 1, 1)
            raw[wl + "/traced"] = [a, b]
            drift = [c for c in COUNTS if a["metrics"][c]["value"] != b["metrics"][c]["value"]]
            if drift:
                ok = False
            print(f"{wl}: simulated counts at seed 1: {'DRIFT in ' + ', '.join(drift) if drift else 'identical in two traced runs'}")
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "prove.json"), "w") as f:
        json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
