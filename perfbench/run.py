"""dulackit benchmark: one closed-loop client running one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports dulackit from the checkout's
`src/` and exits with an error when that is missing.  `--trace 0` measures
whole rounds of jobs for about S seconds and prints the end-to-end metrics;
`--trace 1` runs every job of one round untraced and traced, and prints the
per-layer metrics.  The last line of standard output is the result object,
the line before it the environment stamp; the full record, and the spans of
a traced run, go to `.perfbench_out/`.  `--record` stores the summaries of
one round as reference values.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
TAIL_PERCENTILE = 90
VERIFY_KINDS = ("orbit", "dulac_map", "dulac_time")


def load_program() -> float:
    """Import dulackit from the checkout's src/ only; returns the import time."""
    if not (SRC / "dulackit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dulackit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dulackit.cli  # noqa: F401  (the CLI pulls in every layer)

    import_s = time.perf_counter() - t0
    if Path(dulackit.__file__).resolve().parent != (SRC / "dulackit").resolve():
        sys.exit(f"perfbench: dulackit was imported from {dulackit.__file__}, not {SRC}")
    return import_s


class Runner:
    """Runs jobs, times them, and checks every output outside the timed part."""

    def __init__(self, reference: dict, compare):
        self.reference = reference
        self.compare = compare  # (reference summary, summary, path) -> problems
        self.first = {}  # job key -> summary of its first run
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def execute(self, job, tracer=None, job_id=None) -> tuple:
        if tracer is not None:
            tracer.job = job_id
        t0 = time.perf_counter()
        try:
            out, raised = job.run(), None
        except (Exception, SystemExit):  # a job that raises has failed
            out, raised = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.job = None
        summary = None
        if raised:
            problems = [f"raised: {raised.strip().splitlines()[-1]}"]
        else:
            try:
                problems, summary = job.check(out)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        if summary is not None:
            if job.key in self.first:
                if summary != self.first[job.key]:
                    problems.append("output differs from an earlier run of the same job")
            else:
                self.first[job.key] = summary
            if job.key in self.reference:
                problems += self.compare(self.reference[job.key], summary, "reference")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"kind": job.kind, "key": job.key, "problems": problems[:5]})
        return wall, not problems


def setup_probe_times(args) -> list:
    """Wall time from spawning a fresh process to its first timed job, set
    up SETUP_PROBES times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit("perfbench: a set-up probe did not reach its first job")
    return samples


def run_rounds(runner, wl, seconds) -> tuple:
    """Whole rounds until another round would end further from `seconds` of
    timed wall than stopping now; returns ([(job key, wall)], correct jobs, rounds)."""
    timed, correct, rounds = [], 0, 0
    while True:
        for job in wl.jobs:
            wall, ok = runner.execute(job)
            timed.append((job.key, wall))
            correct += ok
        rounds += 1
        total = sum(wall for _, wall in timed)
        if total + total / rounds / 2 >= seconds:
            return timed, correct, rounds


def job_means(timed) -> dict:
    """Each job's mean time over its repetitions in the run.

    The machine's speed swings between states for seconds at a time; a mean
    over a job's repetitions averages over them, where single samples jump
    between them.  job_p50_s and job_tail_s are percentiles of these means,
    one per job of the round, so they do not move with the number of rounds
    either."""
    by_key = {}
    for key, wall in timed:
        by_key.setdefault(key, []).append(wall)
    return {key: statistics.fmean(walls) for key, walls in by_key.items()}


def percentile(values, pct) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(args, runner, wl, stamp) -> dict:
    setup = setup_probe_times(args)
    for job in wl.warmups:
        runner.execute(job)
    timed, correct, rounds = run_rounds(runner, wl, args.seconds)
    times = [wall for _, wall in timed]
    means = list(job_means(timed).values())
    tail_s = percentile(means, TAIL_PERCENTILE)
    stamp.update(
        rounds=rounds, jobs_timed=len(times), timed_wall_s=sum(times), setup_samples_s=setup,
        tail_percentile=TAIL_PERCENTILE, tail_samples_beyond=rounds * sum(m > tail_s for m in means),
        failed_frac=runner.failed / runner.attempted,
        job_times_s=timed,
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (correct / sum(times), "1/s"),
        "job_p50_s": (statistics.median(means), "s"),
        "job_tail_s": (tail_s, "s"),
        "correct_frac": (1.0 - runner.failed / runner.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(args, runner, wl, stamp) -> dict:
    from spans import Tracer

    def run_traced(i, job):
        tracer.install()
        try:
            return runner.execute(job, tracer, i)[0]
        finally:
            tracer.uninstall()

    # Each job runs untraced and traced back to back, in alternating order,
    # so drifts in machine speed and first-run costs fall on both sides.
    for job in wl.warmups:
        runner.execute(job)
    tracer = Tracer()
    plain, traced = [], []
    for i, job in enumerate(wl.jobs):
        if i % 2:
            traced.append(run_traced(i, job))
            plain.append(runner.execute(job)[0])
        else:
            plain.append(runner.execute(job)[0])
            traced.append(run_traced(i, job))

    L, C = tracer.layers(), tracer.totals()
    get = lambda name, field: L.get(name, {}).get(field, 0)
    ratio = lambda a, b: a / b if b else 0.0
    verify_points = sum(j.points for j in wl.jobs if j.kind in VERIFY_KINDS)
    loud_points = sum(j.points for j in wl.jobs if j.kind == "loud")
    by_kind = {}
    for kind in sorted({j.kind for j in wl.jobs}):
        ids = {i for i, j in enumerate(wl.jobs) if j.kind == kind}
        by_kind[kind] = {"jobs": len(ids), "layers": tracer.layers(ids), "counters": tracer.totals(ids)}
    q_per_job = max(
        (ratio(k["layers"].get("family.compute_Q", {}).get("calls", 0), k["jobs"]) for k in by_kind.values()),
        default=0.0,
    )
    cli_self = sum(row["self_s"] for name, row in L.items() if name.startswith("cli."))

    metrics = {
        "oracle.solve_ivp.calls": (get("oracle.solve_ivp", "calls"), "count"),
        "oracle.solve_ivp.busy_s": (get("oracle.solve_ivp", "busy_s"), "s"),
        "oracle.solve_ivp.nfev": (C.get("oracle.solve_ivp.nfev", 0), "count"),
        "oracle.solve_ivp.njev": (C.get("oracle.solve_ivp.njev", 0), "count"),
        "oracle.solve_ivp.nlu": (C.get("oracle.solve_ivp.nlu", 0), "count"),
        "oracle.solve_ivp.calls_per_point": (ratio(get("oracle.solve_ivp", "calls"), verify_points), "ratio"),
        "oracle.quad.calls": (get("oracle.quad", "calls"), "count"),
        "oracle.quad.busy_s": (get("oracle.quad", "busy_s"), "s"),
        "oracle.quad.neval": (C.get("oracle.quad.neval", 0), "count"),
        "oracle.particular_solution.busy_s": (get("oracle.particular_solution", "busy_s"), "s"),
        "oracle.dulac_map.busy_s": (get("oracle.dulac_map", "busy_s"), "s"),
        "oracle.dulac_time.busy_s": (get("oracle.dulac_time", "busy_s"), "s"),
        "expansion.coefficients.exact.busy_s": (get("expansion.coefficients.exact", "busy_s"), "s"),
        "expansion.coefficients.float.busy_s": (get("expansion.coefficients.float", "busy_s"), "s"),
        "expansion.vbounds.busy_s": (get("expansion.vbounds", "busy_s"), "s"),
        "series.mul.calls": (C.get("series.mul", 0), "count"),
        "series.div.calls": (C.get("series.div", 0), "count"),
        "expansion.dulac_time_coefficients.busy_s": (get("expansion.dulac_time_coefficients", "busy_s"), "s"),
        "expansion.dulac_time_coefficients.self_s": (get("expansion.dulac_time_coefficients", "self_s"), "s"),
        "expansion.modes_used": (ratio(C.get("expansion.modes_used", 0), get("expansion.dulac_time_coefficients", "calls")), "ratio"),
        "family.compute_Q.calls_per_job": (q_per_job, "ratio"),
        "family.biggest_real_root_branch.busy_s": (get("family.biggest_real_root_branch", "busy_s"), "s"),
        "family.track_biggest_real_root.busy_s": (get("family.track_biggest_real_root", "busy_s"), "s"),
        "family.check_h2.busy_s": (get("family.check_h2", "busy_s"), "s"),
        "family.check_h0.busy_s": (get("family.check_h0", "busy_s"), "s"),
        "family.branch.exact_frac": (ratio(C.get("family.branch.exact", 0), C.get("family.branch.total", 0)), "ratio"),
        "loud.period_numeric.calls": (get("loud.period_numeric", "calls"), "count"),
        "loud.period_numeric.busy_s": (get("loud.period_numeric", "busy_s"), "s"),
        "loud.period_numeric.calls_per_point": (ratio(get("loud.period_numeric", "calls"), loud_points), "ratio"),
        "loud.solve_ivp.calls": (get("loud.solve_ivp", "calls"), "count"),
        "loud.solve_ivp.nfev": (C.get("loud.solve_ivp.nfev", 0), "count"),
        "loud.time_to_entry.busy_s": (get("loud.time_to_entry", "busy_s"), "s"),
        "loud.regularity_check.busy_s": (get("loud.regularity_check", "busy_s"), "s"),
        "cli.main.self_s": (cli_self, "s"),
        "setup.import_s": (stamp["import_s"], "s"),
        "trace.overhead_frac": (1.0 - sum(plain) / sum(traced), "frac"),
    }
    stamp.update(jobs_timed=2 * len(wl.jobs), timed_wall_s=sum(plain), traced_wall_s=sum(traced))
    trace = {
        "schema": "perfbench.trace/1",
        "stamp": stamp,
        "jobs": [{"id": i, "kind": j.kind, "key": j.key, "wall_s": w} for i, (j, w) in enumerate(zip(wl.jobs, traced))],
        "layers": L,
        "totals": C,
        "by_kind": by_kind,
        **tracer.to_json(),
    }
    with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(trace, fh)
    return metrics


def record(name: str, seed: int, workdir: Path) -> int:
    """Store the summaries of one round (and the warm-up) of each part of
    the workload as reference values."""
    import workloads

    for part in workloads.parts(name):
        runner = Runner({}, workloads.compare)
        wl = workloads.build(part, seed, workdir)
        for job in [*wl.warmups, *wl.jobs]:
            runner.execute(job)
        if runner.failed:
            print(json.dumps(runner.problems, indent=1), file=sys.stderr)
            return 1
        path = BENCH / "reference" / f"{part}.json"
        ref = json.loads(path.read_text()) if path.exists() else {}
        ref.update(runner.first)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(runner.first)} summaries into {path} ({len(ref)} in all)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write reference values for this seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.pop("DULACKIT_THREADS", None)  # default threading: one sweep thread
    import_s = load_program()
    import numpy
    import scipy
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.record:
            return record(args.workload, args.seed, workdir)
        wl = workloads.build(args.workload, args.seed, workdir)
        if args.setup_probe:
            for job in wl.warmups:
                job.run()
            print("ready", flush=True)
            return 0
        reference = {}
        for part in workloads.parts(args.workload):
            path = BENCH / "reference" / f"{part}.json"
            if path.exists():
                reference.update(json.loads(path.read_text()))
        runner = Runner(reference, workloads.compare)
        stamp = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "threads": "default (--threads and DULACKIT_THREADS unset)",
            "jobs_per_round": len(wl.jobs), "import_s": import_s,
        }
        if args.trace:
            metrics = per_layer(args, runner, wl, stamp)
        else:
            metrics = end_to_end(args, runner, wl, stamp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, stamp=stamp, problems=runner.problems), fh, indent=1)
    print(json.dumps({"stamp": {k: v for k, v in stamp.items() if k != "job_times_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
