#!/usr/bin/env python3
"""Steadiness self-check of the end-to-end benchmark.

Runs every workload of BENCHMARK.json (or the ones named) several times,
each run with another seed and the workloads taking turns, and records per end-to-end metric the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread — the
quartile distance as a share of the median — next to the metric's bound.
A spread above its bound fails the check. With --baseline, each median is also compared
with the median of an earlier record: worse by more than the bound fails.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
        [--first-seed 1] [--out perfbench/steadiness.json]
        [--baseline perfbench/steadiness.json]

Exit code 0 when every check passes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# Which of the noise causes that sank an earlier benchmark attempt each
# end-to-end metric is built to avoid: 4-thread oversubscription of a
# 4-core host, one operation per process, set-up times under 100 ms, and
# metrics derived from other metrics.
NOISE_CAUSES = {
    "op_ms": {
        "oversubscription": "avoided: HFX runs on 3 threads, the server on "
                            "3 jobs x 1 thread; one core stays free",
        "per_process_runs": "avoided: every op runs in one long-lived "
                            "process after a warm-up; the median is reported",
        "sub_100ms_setup": "not applicable",
        "derived_duplicates": "avoided: no throughput metric is computed "
                              "from op_ms",
    },
    "setup_s": {
        "oversubscription": "avoided: set-up runs at the same 3 threads",
        "per_process_runs": "reduced: every set-up is cold (one-time "
                            "costs included): 6 in forked children, then "
                            "the run's own; the median of the 7 is reported",
        "sub_100ms_setup": "avoided: set-up includes the warm-up operation "
                           "(an SCF iteration, the cold MD step, a served "
                           "job), so it is 0.2 s or more",
        "derived_duplicates": "avoided",
    },
    "peak_rss_mb": {
        "oversubscription": "not a timing",
        "per_process_runs": "measured in the process that does the work "
                            "(the forked server for serve_screen)",
        "sub_100ms_setup": "not applicable",
        "derived_duplicates": "avoided",
    },
}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: correctness gate failed")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--baseline", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)["workloads"]

    record = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "first_seed": args.first_seed,
              "host": f"{platform.machine()}, {os.cpu_count()} cores",
              "noise_causes": NOISE_CAUSES, "workloads": {}}
    # Runs interleave across workloads (run i of each, then run i + 1), so
    # a slow phase of the host is shared out instead of landing on the
    # runs of one workload.
    values = {name: {m["name"]: [] for m in bench["end_to_end"]}
              for name in names}
    for i in range(args.runs):
        for name in names:
            result = run_once(name, args.first_seed + i, bench["run_seconds"])
            for m in values[name]:
                values[name][m].append(result["metrics"][m]["value"])
            print(f"run {i + 1}/{args.runs} {name}", flush=True)
    ok = True
    for name in names:
        rows = {}
        for m in bench["end_to_end"]:
            v = values[name][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                   "bound": m["bound"], "values": v}
            row["spread_ok"] = spread <= m["bound"]
            base = baseline.get(name, {}).get(m["name"])
            if base:
                worse = (med - base["median"]) / base["median"]
                if m["better"] == "higher":
                    worse = -worse
                row["vs_baseline"] = worse
                row["baseline_ok"] = worse <= m["bound"]
            ok = ok and row["spread_ok"] and row.get("baseline_ok", True)
            rows[m["name"]] = row
            print(f"{name:16s} {m['name']:12s} median {med:12.4f} "
                  f"spread {spread:7.4f} bound {m['bound']:5.2f}"
                  + (f" vs baseline {row['vs_baseline']:+.4f}"
                     if "vs_baseline" in row else ""),
                  flush=True)
        record["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print("steadiness:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
