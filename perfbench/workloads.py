"""The seeded workloads and the correctness check of every job kind.

A workload turns a seed into one *round*: a list of jobs.  What sets the cost
of a job (its kind, grid size, expansion order, mu, lambda of an oracle job,
number of modes, the heights of exact rationals) is fixed per round, and the
seed draws the rest: data that do not change the cost, signs, which jobs are
perturbed, and the order.  So every round of every seed does the same work,
and two runs differ only by the machine's speed.  The benchmark runs whole
rounds.  `library` and `numeric`, the workloads BENCHMARK.json names, each
join the rounds of two of the four parts below for the same seed.

Every job carries the check of its output, which the benchmark runs outside
the timed region.  A check returns the problems it found and a summary of
the output; the summary is what is compared between rounds and against the
reference recorded from the seed commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Fr
from pathlib import Path
from typing import Callable

from dulackit import cli, expansion, family, loud
from dulackit.series import TruncatedSeries

# Float outputs are compared with this relative tolerance, the oracle's own
# quadrature rel_tol (QuadratureConfig.rel_tol); its ODE tolerance is looser.
REL_TOL = 1e-10

LOUD_D = (-0.9, -0.75, -0.5, -0.25, -0.1)


@dataclass
class Job:
    kind: str
    spec: dict  # JSON-able inputs; the reference is keyed by their digest
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (problems, summary)
    points: int = 0  # s-grid points (verify) or unique (D, s) points (loud)

    @property
    def key(self) -> str:
        blob = json.dumps({"kind": self.kind, "spec": self.spec}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Workload:
    jobs: list  # one round
    warmups: list  # untimed jobs run before the first timed one


# ---------------------------------------------------------------------------
# exact reference data, computed without dulackit
# ---------------------------------------------------------------------------


def family_terms(roots) -> dict:
    """Coefficients {(k, m): c} of x * prod_i (x - a_i eps)."""
    poly = {(1, 0): Fr(1)}
    for a in roots:
        nxt = {}
        for (k, m), c in poly.items():
            nxt[(k + 1, m)] = nxt.get((k + 1, m), 0) + c
            nxt[(k, m + 1)] = nxt.get((k, m + 1), 0) - a * c
        poly = nxt
    return {km: c for km, c in poly.items() if c != 0}


def family_json(mu: int, terms: dict) -> dict:
    return {
        "mu": mu,
        "terms": [{"x": k, "eps": m, "c": str(c)} for (k, m), c in sorted(terms.items())],
    }


def _poly_mul(a, b):
    out = [Fr(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _recentred(coeffs, theta):
    """Coefficients of p(s + theta) from those of p."""
    return [
        sum(coeffs[k] * math.comb(k, n) * theta ** (k - n) for k in range(n, len(coeffs)))
        for n in range(len(coeffs))
    ]


def shifted_data(roots, V, U, lam, eps):
    """(U(s+theta)/lam, V(s+theta), Q(s)) at theta = max(roots) * eps, where
    Q(s) = P(s + theta)/s = (s + theta) prod_{i != max} (s + (a_max - a_i) eps)."""
    a_max = max(roots)
    theta = a_max * eps
    Q = [theta, Fr(1)]
    others = list(roots)
    others.remove(a_max)
    for a in others:
        Q = _poly_mul(Q, [(a_max - a) * eps, Fr(1)])
    return [u / lam for u in _recentred(U, theta)], _recentred(V, theta), Q


def triangular_coefficients(data, lam, ell):
    """c_0..c_ell from c_n (V_0 - (n/lam) Q_0) = U_n + sum_{k<n} ((k/lam) Q_{n-k} - V_{n-k}) c_k.

    The diagonal V_0 - (n/lam) Q_0 is nonzero for every drawn job, so these
    are the only coefficients that satisfy the identity."""
    U, V, Q = data
    at = lambda seq, i: seq[i] if i < len(seq) else 0
    c = []
    for n in range(ell + 1):
        rhs = at(U, n) + sum((Fr(k) / lam * at(Q, n - k) - at(V, n - k)) * c[k] for k in range(n))
        c.append(rhs / (at(V, 0) - Fr(n) / lam * at(Q, 0)))
    return c


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def compare(ref, got, path="") -> list:
    """Differences between a recorded summary and a new one: floats within
    REL_TOL, everything else (rationals as strings, verdicts) exactly."""
    if isinstance(ref, float) or isinstance(got, float):
        ok = (isinstance(ref, (int, float)) and isinstance(got, (int, float))
              and abs(ref - got) <= REL_TOL * max(abs(ref), abs(got)))
        return [] if ok else [f"{path}: {got!r} != reference {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != reference {sorted(ref)}"]
        return [p for k in ref for p in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        return [p for i, (r, g) in enumerate(zip(ref, got)) for p in compare(r, g, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {got!r} != reference {ref!r}"]


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def _cli_job(kind, command, spec, workdir: Path, expected_code, check, points=0) -> Job:
    job = Job(kind=kind, spec=spec, run=None, check=None, points=points)
    job_dir = workdir / f"{kind}-{job.key}"
    job_dir.mkdir(parents=True, exist_ok=True)
    spec_path = job_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = job_dir / "out"
    argv = [command, str(spec_path), "--out", str(out_dir)]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliRun(code, out.getvalue(), err.getvalue())

    def check_run(res: CliRun):
        problems = []
        if res.code != expected_code:
            problems.append(f"exit code {res.code}, expected {expected_code}: {res.stderr.strip()[:200]}")
        if "Traceback" in res.stderr:
            problems.append("traceback on stderr")
        if problems:
            return problems, {"exit": res.code}
        more, summary = check(res, out_dir)
        summary["exit"] = res.code
        return problems + more, summary

    job.run, job.check = run, check_run
    return job


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# expand_exact: library jobs, exact rational data
# ---------------------------------------------------------------------------

ROOTS = (Fr(1, 2), Fr(1), Fr(3, 2), Fr(2), Fr(3))
SMALL = (Fr(-2), Fr(-1), Fr(-1, 2), Fr(-1, 3), Fr(0), Fr(1, 4), Fr(1, 3), Fr(1, 2), Fr(1), Fr(3, 2), Fr(2))
LAMBDAS = (Fr(1), Fr(3, 2), Fr(2), Fr(5, 2), Fr(3))
EXACT_EPS = (Fr(1, 1000), Fr(1, 500), Fr(1, 250))


def _draw_data(rng, mu):
    roots = sorted(rng.sample(ROOTS, mu))
    V = [Fr(1), rng.choice(SMALL), rng.choice(SMALL)]
    U = [rng.choice(SMALL) for _ in range(3)]
    if not any(U):
        U[0] = Fr(1)
    return roots, V, U


def _signed(rng, values):
    return [v * rng.choice((-1, 1)) for v in values]


# One template per (mu, ell, eps) slot of an expand_exact round, drawn once
# from the pools above: roots, V, U, lambda and eps.  The cost of an exact
# job follows the heights of these rationals: drawn anew for each seed, they
# moved a round's time by a quartile spread of 0.24 between seeds.  The seed
# flips their signs instead, which keeps the heights.
EXACT_SLOTS = [(mu, ell, nonzero) for mu in (1, 2, 3) for ell in (6, 20, 40) for nonzero in (False, True)]


def _exact_template(mu, ell, nonzero_eps):
    rng = random.Random(f"expand_exact:template:{mu}:{ell}:{nonzero_eps}")
    roots, V, U = _draw_data(rng, mu)
    lam = rng.choice(LAMBDAS)
    eps = rng.choice(EXACT_EPS) if nonzero_eps else Fr(0)
    return roots, V, U, lam, eps


def _exact_job(rng, mu, ell, nonzero_eps) -> Job:
    roots, V, U, lam, eps = _exact_template(mu, ell, nonzero_eps)
    V, U = [V[0], *_signed(rng, V[1:])], _signed(rng, U)
    terms = family_terms(roots)
    verified = set()
    spec = {
        "mu": mu, "roots": [str(a) for a in roots], "V": [str(v) for v in V],
        "U": [str(u) for u in U], "lambda": str(lam), "eps": str(eps), "ell": ell,
    }

    def run():
        fam = family.PolynomialFamily(mu=mu, coeffs=terms)
        branch, nd = family.analyze_family(fam, +1)
        uspec = expansion.UnfoldingSpec(
            family=fam, branch=branch, V=TruncatedSeries(tuple(V)),
            U=TruncatedSeries(tuple(U)), lam=lam, eps=eps, Q=nd.Q,
        )
        return branch, nd, expansion.coefficients(uspec, ell, check_validity=True)

    def check(out):
        branch, nd, res = out
        problems = []
        if not (branch.exact and branch.rho == 1 and branch.theta(eps) == max(roots) * eps):
            problems.append(f"branch is not the exact root {max(roots)}*eps")
        verdicts = [nd.h0.holds, nd.h1.holds, nd.h2.holds]
        if verdicts != [True, True, True]:
            problems.append(f"h0/h1/h2 = {verdicts} on a family with distinct positive roots")
        digest = hashlib.sha256(",".join(str(c) for c in res.c).encode()).hexdigest()
        if len(res.c) != ell + 1 or not all(isinstance(c, Fr) for c in res.c):
            problems.append("coefficients are not ell+1 Fractions")
        elif digest not in verified:  # an identical output was verified already
            if list(res.c) != triangular_coefficients(shifted_data(roots, V, U, lam, eps), lam, ell):
                problems.append("coefficients violate the triangular identity")
            else:
                verified.add(digest)
        summary = {
            "coeffs_sha256": digest,
            "c_head": [str(c) for c in res.c[:4]],
            "verdicts": verdicts,
            "eps0": res.meta.get("eps0"),
            "within_validity_bound": res.meta.get("within_validity_bound"),
        }
        return problems, summary

    return Job(kind="exact", spec=spec, run=run, check=check)


def expand_exact(rng, workdir) -> Workload:
    jobs = [_exact_job(rng, *slot) for slot in EXACT_SLOTS]
    rng.shuffle(jobs)
    return Workload(jobs, [_exact_job(rng, 1, 6, False)])


# ---------------------------------------------------------------------------
# expand_float: CLI check/expand with float lambda/eps, Loud mode summation
# ---------------------------------------------------------------------------

FLOAT_LAMBDAS = (1.0, 1.5, 2.0, 2.5, 3.0)
FLOAT_EPS = (0.0, 0.001, 0.002, 0.004)


def _float_spec(rng, mu, ell):
    roots, V, U = _draw_data(rng, mu)
    spec = {
        "family": family_json(mu, family_terms(roots)), "sign": 1,
        "V": [str(v) for v in V], "U": [str(u) for u in U],
        "lambda": rng.choice(FLOAT_LAMBDAS), "eps": rng.choice(FLOAT_EPS),
        "ell": ell,
    }
    return spec, roots, V, U


def _check_job(rng, mu, workdir) -> Job:
    spec, roots, _, _ = _float_spec(rng, mu, 2)  # check does not expand

    def check(res, out_dir):
        report = _read_json(out_dir / "check.json")
        problems = []
        if json.loads(res.stdout) != report["newton"]:
            problems.append("stdout differs from check.json")
        for h in ("h0", "h1", "h2"):
            if report["newton"][h]["holds"] is not True:
                problems.append(f"{h} fails on a family with distinct positive roots")
        if not (report["branch"]["exact"] and report["branch"]["rho"] == 1):
            problems.append("branch is not exact with rho = 1")
        return problems, {"branch": report["branch"], "newton": report["newton"]}

    return _cli_job("check", "check", spec, workdir, 0, check)


def _expand_job(rng, mu, ell, workdir) -> Job:
    spec, roots, V, U = _float_spec(rng, mu, ell)
    lam, eps, ell = Fr(spec["lambda"]), Fr(spec["eps"]), spec["ell"]

    def check(res, out_dir):
        data = _read_json(out_dir / "expansion.json")
        problems = []
        if json.loads(res.stdout) != data:
            problems.append("stdout differs from expansion.json")
        got = [float(c) for c in data["coeffs"]]
        want = triangular_coefficients(shifted_data(roots, V, U, lam, eps), lam, ell)
        scale = max(1.0, *(abs(float(w)) for w in want))
        if len(got) != ell + 1 or any(abs(g - float(w)) > REL_TOL * scale for g, w in zip(got, want)):
            problems.append("float coefficients differ from the exact triangular solution")
        summary = dict(data, coeffs=got)
        return problems, summary

    return _cli_job("expand", "expand", spec, workdir, 0, check)


def _loud_modes_job(D, ell) -> Job:
    spec = {"D": D, "F": 1.0, "ell": ell}

    def run():
        ts = loud.node_time_spec(loud.LoudParams(D=D, F=1.0))
        return expansion.dulac_time_coefficients(ts, ell)

    def check(res):
        problems = []
        c = [float(x) for x in res.c]
        if len(c) != ell + 1 or not all(math.isfinite(x) for x in c):
            problems.append("passage-time coefficients are not ell+1 finite floats")
        if res.meta.get("modes_used") != 24:
            problems.append(f"modes_used = {res.meta.get('modes_used')}, expected the 24 Loud modes")
        tail = res.meta.get("tail_bound")
        if not (isinstance(tail, float) and math.isfinite(tail) and tail >= 0):
            problems.append(f"tail_bound = {tail!r}")
        summary = {k: res.meta.get(k) for k in ("modes_used", "tail_bound", "gamma", "y0")}
        summary["c"] = c
        return problems, summary

    return Job(kind="loud_modes", spec=spec, run=run, check=check)


FLOAT_ELLS = (2, 4, 6, 8)  # the expand jobs of one mu
LOUD_MODE_ELLS = ((1, 2), (3, 4), (1, 3), (2, 4), (1, 4))  # two per D


def expand_float(rng, workdir) -> Workload:
    # In floats the drawn data do not change the cost; mu, ell and D do, so
    # those are fixed per round and the seed draws the rest and the order.
    jobs = []
    for mu in (1, 2, 3):
        jobs += [_check_job(rng, mu, workdir) for _ in FLOAT_ELLS]
        jobs += [_expand_job(rng, mu, ell, workdir) for ell in FLOAT_ELLS]
    for D, ells in zip(rng.sample(LOUD_D, len(LOUD_D)), LOUD_MODE_ELLS):
        jobs += [_loud_modes_job(D, ell) for ell in ells]
    rng.shuffle(jobs)
    return Workload(jobs, [_check_job(rng, 1, workdir)])


# ---------------------------------------------------------------------------
# verify_grid: CLI verify over the pools of acceptance criteria 4, 5 and 7
# ---------------------------------------------------------------------------

GRID_N = (12, 25, 40)


def _power_family(mu):
    return family_json(mu, {(mu + 1, 0): Fr(1), (1, 1): Fr(-1)})


def _grid(n):
    return {"min": 1e-3, "max": 1e-1, "n": n}


def _perturb(rng, spec):
    """Replace one coefficient below ell by a value far from every
    coefficient of these pools, so the flatness check must fail."""
    j = rng.randrange(spec["ell"])
    spec["debug_coefficient_overrides"] = {str(j): round(rng.choice((-1, 1)) * rng.uniform(20, 40), 3)}


def _verify_job(spec, workdir) -> Job:
    n = spec["s_grid"]["n"]
    expected = 1 if "debug_coefficient_overrides" in spec else 0

    def check(res, out_dir):
        summary = _read_json(out_dir / "verify.json")
        problems = []
        if json.loads(res.stdout) != summary:
            problems.append("stdout differs from verify.json")
        if summary["passed"] != (expected == 0) or summary["passed"] != all(summary["decay_ok"]):
            problems.append(f"passed = {summary['passed']} with decay_ok = {summary['decay_ok']}")
        with open(out_dir / "flatness.csv") as fh:
            rows = sum(1 for _ in fh)
        if rows != n + 1:
            problems.append(f"flatness.csv has {rows} lines for an {n}-point grid")
        return problems, summary

    return _cli_job(spec["kind"], "verify", spec, workdir, expected, check, points=n)


def _orbit_spec(rng, n):
    # One fixed criterion-4 point, so the seed does not change the cost of the
    # ODE route: the seed draws ell and which job is perturbed.
    return {
        "kind": "orbit", "family": _power_family(1), "sign": 1, "V": ["1", "1/2"], "U": ["1"],
        "lambda": 1.0, "eps": 0.0, "ell": rng.choice((1, 2)), "k": 1,
        "s_grid": _grid(n), "flatness_tol": 0.1,
    }


# (V, eps, ell) of a dulac_map job: the criterion-5 pool, ell 0..5
DMAP_DRAWS = list(itertools.product((["1"], ["1", "1/2"]), (0.0, 1e-4, 1e-2), range(6)))


def _dulac_map_spec(n, mu, lam, V, eps, ell):
    return {
        "kind": "dulac_map", "family": _power_family(mu), "sign": 1,
        "V": V, "lambda": float(lam), "eps": eps, "ell": ell, "k": 1,
        "s_grid": _grid(n), "flatness_tol": 1e-2,
    }


def _dulac_time_spec(rng, n, m):
    modes = [["0"] * j + [str(Fr(1, 2**j))] for j in range(m)]  # U_n = (x/2)^(n-1)
    return {
        "kind": "dulac_time", "family": _power_family(1), "sign": 1, "V": ["1"],
        "eps": rng.choice((0.0, 5e-3)), "modes": modes, "ell": rng.choice((1, 2)), "k": 1,
        "s_grid": _grid(n), "flatness_tol": 0.1,
    }


DTIME_MODES = (2, 6)  # modes of the two dulac_time jobs of one grid size
DMAP_PER_SLOT = 4


def verify_grid(rng, workdir) -> Workload:
    # The grid size, mu, lambda and the number of modes set the cost of a
    # verify job, so each round has every combination below; the seed draws
    # V, eps, ell, the perturbed jobs and the order.
    orbit = [_orbit_spec(rng, n) for n in GRID_N]
    dtime = [_dulac_time_spec(rng, n, m) for n in GRID_N for m in DTIME_MODES]
    # Quadrature-only dulac_map requests are the cheap, frequent ones: four
    # per slot make them most of the jobs, so job_p50_s is a mean over many
    # short samples rather than over three of one slower job.
    dmap = [
        _dulac_map_spec(n, mu, lam, *draw)
        for n in GRID_N for mu in (1, 2) for lam in (1, 5, 25)
        for draw in rng.sample(DMAP_DRAWS, DMAP_PER_SLOT)
    ]
    # the stated share: 1 of 3 orbit and 2 of 6 dulac_time jobs, 3 of 81 in all
    _perturb(rng, rng.choice(orbit))
    for spec in rng.sample(dtime, 2):
        _perturb(rng, spec)
    jobs = [_verify_job(spec, workdir) for spec in orbit + dtime + dmap]
    rng.shuffle(jobs)
    return Workload(jobs, [_verify_job(_dulac_map_spec(12, 1, 1, *rng.choice(DMAP_DRAWS)), workdir)])


# ---------------------------------------------------------------------------
# loud_sweep: CLI loud on D grids
# ---------------------------------------------------------------------------

LOUD_S_POINTS = 7  # cmd_loud's default s grid
# The paper's sign rule: dP/ds has the sign of 2D+1, so regularity_check's
# fitted orientation constant must come out +1.
ORIENTATION = 1


def _loud_job(D_grid, workdir) -> Job:
    spec = {"kind": "loud", "loud": {"D_grid": list(D_grid), "F": 1.0}}

    def check(res, out_dir):
        report = _read_json(out_dir / "loud.json")
        reg = report["regularity"]
        problems = []
        if json.loads(res.stdout) != reg:
            problems.append("stdout differs from loud.json")
        if [r["D"] for r in reg["rows"]] != list(D_grid):
            problems.append("regularity rows do not follow the D grid")
        if reg["orientation"] != ORIENTATION:
            problems.append(f"orientation {reg['orientation']}, expected {ORIENTATION}")
        for r in reg["rows"]:
            if r["D"] == -0.5:
                if not r["near_zero"]:
                    problems.append("D = -1/2 is not flagged near zero")
            elif r["near_zero"] or r["coherent"] is not True or r["sign"] != ORIENTATION * (1 if 2 * r["D"] + 1 > 0 else -1):
                problems.append(f"D = {r['D']}: sign {r['sign']} does not follow sign(2D+1)")
        for entry in report["c1_limit_table"]:
            if abs(entry["c1_hat"] - entry["limit"]) > 1e-2:
                problems.append(f"c1_hat at D = {entry['D']} is off its F -> 1 limit")
        with open(out_dir / "period_samples.csv") as fh:
            periods = [float(line.split(",")[2]) for line in list(fh)[1:]]
        if len(periods) != LOUD_S_POINTS * len(D_grid) or not all(math.isfinite(p) and p > 0 for p in periods):
            problems.append("period_samples.csv does not hold one positive period per (D, s)")
        summary = dict(report, periods=periods)
        return problems, summary

    return _cli_job("loud", "loud", spec, workdir, 0, check, points=LOUD_S_POINTS * len(D_grid))


def loud_sweep(rng, workdir) -> Workload:
    # Every 3-value grid of the five D values once, so each round costs the
    # same; the seed draws the order of the D values in a grid and of the jobs.
    grids = [rng.sample(g, 3) for g in itertools.combinations(LOUD_D, 3)]
    rng.shuffle(grids)
    jobs = [_loud_job(g, workdir) for g in grids]
    return Workload(jobs, [_loud_job(rng.sample(LOUD_D, 3), workdir)])


BUILDERS = {
    "expand_exact": expand_exact,
    "expand_float": expand_float,
    "verify_grid": verify_grid,
    "loud_sweep": loud_sweep,
}

# The workloads BENCHMARK.json names: each joins the rounds of two of the
# above for the same seed, so that one run is long enough to average over
# the machine's swings in speed.
JOINED = {
    "library": ("expand_exact", "expand_float"),
    "numeric": ("verify_grid", "loud_sweep"),
}
NAMES = (*JOINED, *BUILDERS)


def parts(name: str) -> tuple:
    return JOINED.get(name, (name,))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """One round of the named workload; the same seed gives the same jobs."""
    rounds = [BUILDERS[part](random.Random(f"{part}:{seed}"), workdir) for part in parts(name)]
    if len(rounds) == 1:
        return rounds[0]
    jobs = [job for wl in rounds for job in wl.jobs]
    random.Random(f"{name}:{seed}").shuffle(jobs)
    return Workload(jobs, [job for wl in rounds for job in wl.warmups])
