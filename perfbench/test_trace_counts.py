"""Two traced runs of one seed give identical counts, and the metric names
printed match BENCHMARK.json.

    python3 -m pytest perfbench -q

Each workload is run traced twice (one round untraced and one traced per
run), so the module takes a few minutes.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_UNITS = ("count", "ratio")  # counts and ratios of counts; times are not compared


@functools.cache
def result(workload, trace, attempt):
    """(stamp, result) of one run; `attempt` tells repeated runs apart."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    stamp, res = proc.stdout.strip().splitlines()[-2:]
    return json.loads(stamp)["stamp"], json.loads(res)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    (_, first), (_, second) = result(workload, 1, 0), result(workload, 1, 1)
    assert first["correct"] and second["correct"]
    assert [m["name"] for m in BENCH["per_layer"]] == list(first["metrics"])
    for metric in BENCH["per_layer"]:
        if metric["unit"] in EXACT_UNITS:
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name


def test_sizing_in_kind():
    """The per-layer shares the benchmark was designed around."""
    loud = result("loud_sweep", 1, 0)[1]["metrics"]
    assert loud["loud.period_numeric.calls_per_point"]["value"] == 2.0
    modes = result("expand_float", 1, 0)[1]["metrics"]
    assert modes["family.compute_Q.calls_per_job"]["value"] >= 24
    stamp, verify = result("verify_grid", 1, 0)
    assert verify["metrics"]["oracle.solve_ivp.busy_s"]["value"] > 0.5 * stamp["traced_wall_s"]


def test_end_to_end_metric_names():
    got = result("expand_float", 0, 0)[1]
    assert got["correct"] and got["failed"] == 0
    assert [m["name"] for m in BENCH["end_to_end"]] == list(got["metrics"])
    for metric in BENCH["end_to_end"]:
        assert got["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert got["metrics"][metric["name"]]["value"] > 0
