"""Command-line driver: JSON problem specs in, JSON/CSV reports out.

    dulackit check  spec.json [--out DIR]
    dulackit expand spec.json [--out DIR]
    dulackit verify spec.json [--out DIR]
    dulackit loud   spec.json [--out DIR]

Exit codes: 0 pass, 1 verification fail, 2 degenerate family (DegenerateQ),
3 parse error or out-of-range spec value, 4 refused preconditions.  `check`
reports failed hypotheses in check.json and exits 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import expansion, family
from .errors import DegenerateQ, DulacKitError
from .series import TruncatedSeries, _json_int, _json_key, _scalar_from_str

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_HYPOTHESIS = 2
EXIT_PARSE = 3
EXIT_REFUSED = 4


def _load_spec(path: str) -> dict:
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"the top level is a JSON {type(spec).__name__}, not an object")
    return spec


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object")
    return value


def _array(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array")
    return value


def _floats(value, field: str) -> list:
    """A JSON array of numbers (or numeric strings) as floats."""
    items = _array(value, field)
    try:
        return [float(x) for x in items]
    except (TypeError, ValueError):
        raise ValueError(f"{field} must hold numbers only") from None


def _float(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field} must be a number") from None


def _finite(value, field: str) -> float:
    val = _float(value, field)
    if not math.isfinite(val):
        raise ValueError(f"{field} = {val!r} is not a finite number")
    return val


def _number(spec: dict, key: str, default: float) -> float:
    return _finite(spec.get(key, default), key)


def _count(spec: dict, key: str, default: int) -> int:
    val = _json_int(spec.get(key, default), key)
    if val < 0:
        raise ValueError(f"{key} = {val} is negative")
    if val > sys.maxsize:  # no series or grid can have that many terms
        raise ValueError(f"{key} is above {sys.maxsize}")
    return val


def _series_from(data, field: str) -> TruncatedSeries:
    """A JSON array of coefficients as a series; a ValueError names the
    entry (as in V[1]) or the array it comes from."""
    coeffs = []
    for i, tok in enumerate(_array(data, field)):
        try:
            coeffs.append(_scalar_from_str(str(tok)))
        except ValueError as exc:
            raise ValueError(f"{field}[{i}]: {exc}") from None
    try:
        return TruncatedSeries(tuple(coeffs))
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def _write_json(obj, out_dir: Path, name: str):
    # serialize first, so a value JSON cannot hold leaves no partial file
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def _write_csv(rows, out_dir: Path, name: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)
    return path


def _analyze(spec: dict):
    data = _object(_json_key(spec, "family", "family"), "family")
    for i, term in enumerate(_array(_json_key(data, "terms", "family.terms"), "family.terms")):
        _object(term, f"family.terms[{i}]")
    fam = family.PolynomialFamily.from_json(data)
    branch, nd = family.analyze_family(fam, _json_int(spec.get("sign", +1), "sign"))
    return fam, branch, nd


def cmd_check(spec: dict, out_dir: Path) -> int:
    fam, branch, nd = _analyze(spec)
    report = {
        "family": fam.to_json(),
        "branch": {
            "rho": branch.rho,
            "sigma": branch.sigma.to_json(),
            "sign": branch.sign,
            "exact": branch.exact,
        },
        "newton": nd.to_json(),
    }
    _write_json(report, out_dir, "check.json")
    print(json.dumps(report["newton"], sort_keys=True, allow_nan=False))
    return EXIT_PASS


def _unfolding_spec(spec: dict, fam, branch, nd) -> expansion.UnfoldingSpec:
    return expansion.UnfoldingSpec(
        family=fam,
        branch=branch,
        V=_series_from(spec.get("V", ["1"]), "V"),
        U=_series_from(spec.get("U", ["0"]), "U"),
        lam=_number(spec, "lambda", 1.0),
        eps=_number(spec, "eps", 0.0),
        Q=nd.Q,
    )


def cmd_expand(spec: dict, out_dir: Path) -> int:
    fam, branch, nd = _analyze(spec)
    if not (nd.h1.holds and nd.h2.holds):
        sys.stderr.write(
            "refusing to expand: hypothesis verdicts "
            f"h1={nd.h1.holds} h2={nd.h2.holds}\n"
        )
        return EXIT_REFUSED
    uspec = _unfolding_spec(spec, fam, branch, nd)
    ell = _count(spec, "ell", 2)
    res = expansion.coefficients(uspec, ell, check_validity=True)
    _write_json(res.to_json(), out_dir, "expansion.json")
    print(json.dumps(res.to_json(), sort_keys=True, allow_nan=False))
    return EXIT_PASS


# verify runs the oracle at every grid point, a quadrature or more each, so
# a million points is already minutes to hours of work; past that, numpy
# would try to allocate the grid before anything could refuse it
_S_GRID_MAX_N = 10**6


def _s_grid(spec: dict, ell: int, k: int):
    """The log grid of s, long enough for k scale derivatives
    (oracle.check_grid_length) and at most _S_GRID_MAX_N points;
    h = (value - S_ell) / s^ell needs s^ell > 0 at the smallest s."""
    from . import oracle  # only verify reads a grid; it has loaded scipy already

    g = _object(spec.get("s_grid", {}), "s_grid")
    lo = _float(g.get("min", 1e-3), "s_grid.min")
    hi = _float(g.get("max", 1e-1), "s_grid.max")
    n = _json_int(g.get("n", 25), "s_grid.n")
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"s_grid needs 0 < min < max < inf, got min = {lo!r}, max = {hi!r}")
    oracle.check_grid_length(n, k)
    if n > _S_GRID_MAX_N:
        raise ValueError(f"s_grid.n = {n} is above {_S_GRID_MAX_N}")
    if not min(lo, 1.0) ** ell > 0:
        raise ValueError(f"s_grid min**ell = {lo!r}**{ell} underflows to 0")
    return np.geomspace(lo, hi, n)


def cmd_verify(spec: dict, out_dir: Path) -> int:
    from . import oracle  # scipy is imported only by the commands that solve

    kind = spec.get("kind", "orbit")
    fam, branch, nd = _analyze(spec)
    ell = _count(spec, "ell", 2)
    k = _count(spec, "k", 1)
    x0 = _number(spec, "x0", 1.0)
    s_grid = _s_grid(spec, ell, k)

    if kind == "orbit":
        uspec = _unfolding_spec(spec, fam, branch, nd)
        if uspec.U.is_zero():
            raise ValueError("U is zero: the orbit is 0, so verify has nothing to check")
        res = _apply_overrides(expansion.coefficients(uspec, ell), spec)
        eps, lam = uspec.eps, float(uspec.lam)
        evaluate = lambda grid: oracle.particular_solution(uspec, x0, grid)
    elif kind == "dulac_map":
        uspec = _unfolding_spec(spec, fam, branch, nd)
        res = expansion.ExpansionResult(c=(0.0,) * (ell + 1), ell=ell)
        eps, lam = uspec.eps, float(uspec.lam)
        evaluate = lambda grid: oracle.dulac_map(uspec, grid)
    elif kind == "dulac_time":
        modes = _array(_json_key(spec, "modes", "modes"), "modes")
        ts = expansion.DulacTimeSpec(
            family=fam,
            branch=branch,
            V=_series_from(spec.get("V", ["1"]), "V"),
            eps=_number(spec, "eps", 0.0),
            modes=tuple(_series_from(m, f"modes[{i}]") for i, m in enumerate(modes)),
            y0=_number(spec, "y0", 1.0),
            x0=x0,
        )
        if all(mode.is_zero() for mode in ts.modes):
            raise ValueError("modes are all zero: the passage time is 0, so verify has nothing to check")
        if ts.y0 == 0:
            raise ValueError("y0 is 0: it scales every mode to 0, so verify has nothing to check")
        res = _apply_overrides(expansion.dulac_time_coefficients(ts, ell), spec)
        eps, lam = ts.eps, 1.0
        evaluate = lambda grid: oracle.dulac_time(ts, grid)
    else:
        raise ValueError(f"unknown verify kind {kind!r}")

    # the oracle integrates from s + theta out to the section at x0 (at 1
    # for the Dulac map), with the oracle's own 1e-15 slack
    outer, section = (1.0, "1") if kind == "dulac_map" else (x0, f"x0 = {x0!r}")
    s_max = float(s_grid[-1])
    reach = s_max + float(branch.theta(eps))
    if reach > outer + 1e-15:
        raise ValueError(
            f"eps = {eps!r} and s_grid.max = {s_max!r} put s + theta at {reach!r}, "
            f"past the outer section at {section}"
        )
    tol = _number(spec, "flatness_tol", 1e-2)
    # a float overflow inside numpy, in the solvers, raises at once (exit 1)
    # instead of warning on stderr and failing later as a bad-spec ValueError
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        values = evaluate(s_grid.tolist())
    label = {"case": kind, "eps": float(eps)}
    report = oracle.flatness_report(values, res, lam, label, s_grid, k, tol)
    _write_csv(report.to_csv_rows(), out_dir, "flatness.csv")
    summary = report.to_json()
    summary["passed"] = bool(all(report.decay_ok))
    _write_json(summary, out_dir, "verify.json")
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return EXIT_PASS if summary["passed"] else EXIT_FAIL


def _apply_overrides(res, spec: dict):
    """Debug hook: replace chosen coefficients before verification.  Each
    key is an index in 0..ell, each value a finite number."""
    overrides = spec.get("debug_coefficient_overrides")
    if not overrides:
        return res
    c = list(res.c)
    for idx, val in _object(overrides, "debug_coefficient_overrides").items():
        field = f"debug_coefficient_overrides[{idx}]"
        try:
            j = int(idx)
        except ValueError:
            raise ValueError(f"{field}: the index is not an integer") from None
        if not 0 <= j <= res.ell:
            raise ValueError(f"{field}: the index is not in 0..{res.ell}")
        c[j] = _finite(val, field)
    return expansion.ExpansionResult(c=tuple(c), ell=res.ell, meta=dict(res.meta))


def _loud_conf(spec: dict):
    """D grid, F and s grid of a `loud` spec.  D and F are checked against
    `loud.LoudParams`'s ranges here, so that a message names the entry.  The
    period derivative is a difference quotient along s, so the s grid needs
    two or more points inside s > 0, strictly increasing."""
    conf = _object(spec.get("loud", {}), "loud")
    D_grid = _floats(conf.get("D_grid", [-0.9, -0.75, -0.5, -0.25, -0.1]), "loud.D_grid")
    if not D_grid:
        raise ValueError("loud.D_grid needs at least one value")
    for i, D in enumerate(D_grid):
        if not -1.0 < D < 0.0:
            raise ValueError(f"loud.D_grid[{i}] = {D!r}: D must lie in (-1, 0)")
    F = _finite(conf.get("F", 1.0), "loud.F")
    if not F > 0.5:
        raise ValueError(f"loud.F = {F!r}: F must exceed 1/2")
    s_vals = conf.get("s_grid")
    if s_vals is None:
        return D_grid, F, np.geomspace(1e-3, 1e-2, 7)
    s = _floats(s_vals, "loud.s_grid")
    if not (
        len(s) >= 2
        and all(math.isfinite(x) for x in s)
        and 0 < s[0]
        and all(a < b for a, b in zip(s, s[1:]))
    ):
        raise ValueError(
            f"loud.s_grid needs at least 2 finite values with 0 < s_1 < s_2 < ..., got {s!r}"
        )
    return D_grid, F, np.asarray(s)


def cmd_loud(spec: dict, out_dir: Path) -> int:
    from . import loud

    D_grid, F, s_grid = _loud_conf(spec)

    gamma_self_test = {
        "gamma(1)": math.gamma(1.0),
        "gamma(5)": math.gamma(5.0),
        "gamma(0.5)^2/pi": math.gamma(0.5) ** 2 / np.pi,
    }
    c1_table = []
    for D in D_grid:
        if D == -0.5:
            continue
        pp = loud.LoudParams(D=D, F=1 - 1e-4)
        c1_table.append(
            {
                "D": D,
                "c1_hat": loud.c1_hat(pp),
                "limit": loud.c1_hat_limit(D),
            }
        )
    report = loud.regularity_check(D_grid, s_grid, F=F)

    samples = [["D", "s", "period"]]
    for D in D_grid:
        p = loud.LoudParams(D=D, F=F)
        for sj in s_grid:
            P = loud.period_numeric(p, float(sj))
            samples.append([f"{D:.17g}", f"{float(sj):.17g}", f"{P:.17g}"])
    _write_csv(samples, out_dir, "period_samples.csv")

    out = {
        "gamma_self_test": gamma_self_test,
        "c1_limit_table": c1_table,
        "regularity": report.to_json(),
    }
    _write_json(out, out_dir, "loud.json")
    print(json.dumps(out["regularity"], sort_keys=True, allow_nan=False))
    failed = [r for r in report.rows if not (r.near_zero or r.coherent is True)]
    if failed:
        rows = "; ".join(
            f"D = {r.D!r} (sign {r.sign}, coherent {json.dumps(r.coherent)}, "
            f"near_zero {json.dumps(r.near_zero)})"
            for r in failed
        )
        sys.stderr.write(f"regularity check failed: {rows}\n")
        return EXIT_FAIL
    return EXIT_PASS


# built once: parse_args leaves the parser as it was, so every call shares it
_PARSER = argparse.ArgumentParser(prog="dulackit", description=__doc__)
_PARSER.add_argument("command", choices=["check", "expand", "verify", "loud"])
_PARSER.add_argument("spec", help="path to the problem spec JSON")
_PARSER.add_argument("--out", default="out", help="output directory")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        spec = _load_spec(args.spec)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        sys.stderr.write(f"cannot read spec: {exc}\n")
        return EXIT_PARSE

    out_dir = Path(args.out)
    try:
        if args.command == "check":
            return cmd_check(spec, out_dir)
        if args.command == "expand":
            return cmd_expand(spec, out_dir)
        if args.command == "verify":
            return cmd_verify(spec, out_dir)
        return cmd_loud(spec, out_dir)
    except DegenerateQ as exc:
        sys.stderr.write(f"hypothesis failure: {exc}\n")
        return EXIT_HYPOTHESIS
    except (KeyError, ValueError, TypeError) as exc:
        sys.stderr.write(f"bad spec: {exc}\n")
        return EXIT_PARSE
    except DulacKitError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_FAIL
    except ArithmeticError as exc:  # a numeric routine left the float range
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
