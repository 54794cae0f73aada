"""A/A check: two sets of runs of one commit, each metric against its bound.

    python3 perfbench/aa.py --workload NAME [--runs 10] [--first-seed 1]

Runs `perfbench/run.py --trace 0` `runs` times per set, each run with another
seed (the second set takes the seeds after the first set's), with the
`run_seconds` of BENCHMARK.json.  For every end-to-end metric it prints the
median of each set, the quartile spread (Q3 - Q1) / median of each set and
of all runs together, and the shift of the second median against the first
in the metric's worse direction, each as a share of the metric's bound.
It exits 1 when a spread other than that of setup_s, or any shift, exceeds
its bound.  The per-run results are kept in .perfbench_out/aa-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} jobs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [args.first_seed + i for i in range(2 * args.runs)]
    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, bench["run_seconds"]))
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    sets = (runs[: args.runs], runs[args.runs :])

    ok = True
    print(f"\n{'metric':14s} {'bound':>6s} {'median A':>10s} {'median B':>10s} "
          f"{'spread A':>9s} {'spread B':>9s} {'spread all':>10s} {'shift':>7s}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = ([r[name] for r in s] for s in sets)
        med_a, med_b = statistics.median(a), statistics.median(b)
        shift = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
        spreads = [spread(a), spread(b), spread(a + b)]
        over = shift > bound or (name != "setup_s" and max(spreads) > bound)
        ok = ok and not over
        print(f"{name:14s} {bound:6.3f} {med_a:10.5g} {med_b:10.5g} "
              + " ".join(f"{s:9.4f}" for s in spreads[:2]) + f" {spreads[2]:10.4f} {shift:+7.4f}"
              + ("  OVER BOUND" if over else ""))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"aa-{args.workload}.json").write_text(json.dumps({"seeds": seeds, "runs": runs}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
