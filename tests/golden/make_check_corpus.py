"""Write tests/golden/check_corpus.json: `dulackit check` on a seeded corpus
of families, with the exit code and check.json of each run, or the stderr
line of a run that fails.

    PYTHONPATH=src python tests/golden/make_check_corpus.py

The corpus holds exact, float and mixed data on both sides: random sparse
families, products of rational factors (multiple roots among them) with and
without a perturbing term, double irrational roots, ramified branches
(rho = 2 and 3), two rational roots 1e-20 apart, and the families of the
CI console-script step.  tests/test_cli.py::test_check_corpus reruns every
entry and compares the bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from dulackit.cli import main

OUT = Path(__file__).with_name("check_corpus.json")
SEED = 18


def term(k, m, c):
    """One spec term; an exact c is written as a string, a float as a number."""
    return {"x": k, "eps": m, "c": c if isinstance(c, float) else str(c)}


def spec_of(mu, coeffs, sign):
    terms = [term(k, m, c) for (k, m), c in sorted(coeffs.items()) if c != 0]
    return {"family": {"mu": mu, "terms": terms}, "sign": sign}


def product(factors):
    """prod (x - c eps^p) over (c, p), as {(k, m): c}."""
    poly = {(0, 0): Fraction(1)}
    for c, p in factors:
        out = {}
        for (k, m), a in poly.items():
            out[(k + 1, m)] = out.get((k + 1, m), 0) + a
            out[(k, m + p)] = out.get((k, m + p), 0) - a * c
        poly = {km: a for km, a in out.items() if a != 0}
    return poly


def in_kind(coeffs, kind, rng):
    """The coefficients as exact, float, or a mix (the leading 1 stays exact)."""
    if kind == "exact":
        return coeffs
    out = {}
    for km, c in coeffs.items():
        if km[1] == 0 or (kind == "mixed" and rng.random() < 0.5):
            out[km] = c
        else:
            out[km] = float(c)
    return out


def small_fraction(rng, height=4):
    while True:
        c = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if c != 0:
            return c


def fixed_specs():
    one = Fraction(1)
    yield "ci-orbit", spec_of(1, {(2, 0): one, (1, 1): -one}, 1)
    yield "ci-wide", spec_of(1, {(2, 0): one, (0, 2): Fraction(-(10**20 + 39))}, 1)
    yield "ci-double", spec_of(3, {(4, 0): one, (2, 2): -4 * one, (0, 4): 4 * one, (0, 5): -one}, 1)
    yield "ci-double-pure", spec_of(3, {(4, 0): one, (2, 2): -4 * one, (0, 4): 4 * one}, 1)
    yield "ci-double-float", spec_of(3, {(4, 0): 1.0, (2, 2): -5.0, (0, 4): 6.25, (0, 5): 2.0}, -1)
    yield "ci-overflow", spec_of(2, {(3, 0): one, (1, 1): 1.622687966041273e-287, (0, 2): 1.0}, 1)
    yield "mu3", spec_of(3, {(4, 0): one, (3, 1): -2 * one, (2, 2): -one, (1, 3): 2 * one}, 1)
    yield "mixed", spec_of(2, {(3, 0): one, (2, 1): -one, (2, 3): -1.25, (1, 3): 0.5}, 1)
    yield "counterexample", spec_of(2, {(3, 0): one, (2, 1): -2 * one, (1, 2): one, (1, 4): one}, 1)
    yield "inconclusive", spec_of(2, {(3, 0): one, (2, 1): -2 * one, (1, 2): one + Fraction(1, 10**6)}, 1)
    yield "no-real-root", spec_of(1, {(2, 0): one, (0, 1): one}, 1)
    yield "sqrt2", spec_of(1, {(2, 0): one, (0, 1): -2 * one}, 1)
    yield "nested", spec_of(1, {(2, 0): one, (0, 2): -one, (0, 3): -one}, 1)
    yield "ambiguous", spec_of(1, {(2, 0): one, (1, 1): -2 * one, (1, 20): -one, (0, 2): one, (0, 21): one}, 1)
    yield "theta-rho2", spec_of(2, {(3, 0): one, (1, 1): -one, (0, 2): Fraction(-1, 3)}, 1)
    yield "one-float-double", spec_of(3, {(4, 0): one, (2, 2): -2.0, (0, 4): 1.0, (0, 5): -1.0}, 1)
    yield "double-exact-rational", spec_of(3, {(4, 0): one, (2, 2): -2 * one, (0, 4): one, (0, 5): -one}, 1)
    # x (x - eps) (x - (1 + 10^-20) eps): two rational roots 1e-20 apart
    close = product([(one, 1), (one + Fraction(1, 10**20), 1), (Fraction(0), 1)])
    for sign in (1, -1):
        yield f"close-roots{sign:+d}", spec_of(2, close, sign)
    for mu in (1, 2, 3):
        for sign in (1, -1):
            yield f"power-mu{mu}{sign:+d}", spec_of(mu, {(mu + 1, 0): one, (1, 1): -one}, sign)
            yield f"pure-mu{mu}{sign:+d}", spec_of(mu, {(mu + 1, 0): one, (0, 1): -one}, sign)


def random_specs(rng):
    for n in range(60):
        kind = ("exact", "float", "mixed")[n % 3]
        mu = rng.randint(1, 3)
        coeffs = {(mu + 1, 0): Fraction(1)}
        for _ in range(rng.randint(1, 5)):
            coeffs[(rng.randint(0, mu), rng.randint(1, 4))] = small_fraction(rng)
        yield f"random-{kind}-{n}", spec_of(mu, in_kind(coeffs, kind, rng), rng.choice([1, -1]))
    for n in range(50):
        kind = ("exact", "float", "mixed")[n % 3]
        factors = []
        for _ in range(rng.randint(2, 4)):
            c, p = small_fraction(rng, 3), rng.randint(1, 2)
            factors += [(c, p)] * rng.choice([1, 1, 2, 3])
        coeffs = product(factors[:4])
        mu = max(k for k, _ in coeffs) - 1
        if rng.random() < 0.6:  # a perturbing term splits multiple roots
            m = max(m for _, m in coeffs) + rng.randint(1, 2)
            coeffs[(0, m)] = coeffs.get((0, m), 0) + small_fraction(rng)
        yield f"product-{kind}-{n}", spec_of(mu, in_kind(coeffs, kind, rng), rng.choice([1, -1]))
    for n in range(30):
        kind = ("exact", "float", "mixed")[n % 3]
        a = rng.choice([2, 3, 5, Fraction(5, 2), Fraction(1, 2)])
        # (x^2 - a eps^2)^2 x^j + b eps^(4 + i)
        j = rng.randint(0, 1)
        coeffs = {(4 + j, 0): Fraction(1), (2 + j, 2): -2 * a, (j, 4): a * a}
        if rng.random() < 0.8:
            m = 4 + rng.randint(1, 3)
            coeffs[(0, m)] = coeffs.get((0, m), 0) + small_fraction(rng)
        yield f"irrational-{kind}-{n}", spec_of(3 + j, in_kind(coeffs, kind, rng), rng.choice([1, -1]))
    for n in range(30):
        kind = ("exact", "float", "mixed")[n % 3]
        # x^(mu+1) - c eps^m plus higher terms: rho = mu + 1 or a divisor
        mu = rng.randint(1, 2)
        coeffs = {(mu + 1, 0): Fraction(1), (0, rng.randint(1, 2)): small_fraction(rng)}
        for _ in range(rng.randint(0, 2)):
            coeffs[(rng.randint(0, mu), rng.randint(2, 5))] = small_fraction(rng)
        yield f"ramified-{kind}-{n}", spec_of(mu, in_kind(coeffs, kind, rng), rng.choice([1, -1]))


def run_check(spec: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check", str(path), "--out", tmp])
        entry = {"exit": code}
        if code == 0:
            entry["check_json"] = (Path(tmp) / "check.json").read_text()
        else:
            entry["stderr"] = err.getvalue()
        return entry


def corpus() -> list:
    rng = random.Random(SEED)
    entries = []
    for name, spec in [*fixed_specs(), *random_specs(rng)]:
        entries.append({"name": name, "spec": spec, **run_check(spec)})
    return entries


if __name__ == "__main__":
    entries = corpus()
    OUT.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    codes = {}
    for e in entries:
        codes[e["exit"]] = codes.get(e["exit"], 0) + 1
    sys.stdout.write(f"{len(entries)} entries, exit codes {codes}\n")
