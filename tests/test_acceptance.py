"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import math
import random
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from dulackit.expansion import (
    DulacTimeSpec,
    UnfoldingSpec,
    coefficients,
    dulac_time_coefficients,
    glue_two_sided,
    residual_identity_series,
)
from dulackit.family import (
    PolynomialFamily,
    analyze_family,
    biggest_real_root_branch,
)
from dulackit.loud import (
    LoudParams,
    c1_hat,
    c1_hat_limit,
    chart_transform,
    first_integral,
    gamma,
    loud_rhs,
    regularity_check,
)
from dulackit.oracle import (
    QuadratureConfig,
    log_dulac_map,
    dulac_time,
    particular_solution,
)
from dulackit.series import TruncatedSeries as TS

ORACLE_CFG = QuadratureConfig(ode_rel_tol=1e-11, ode_abs_tol=1e-14)


def report(n, ok, elapsed, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")


def fam_power(mu):
    return PolynomialFamily(mu=mu, coeffs={(mu + 1, 0): Fr(1), (1, 1): Fr(-1)})


def rational_series(rng, order, unit=False):
    coeffs = [Fr(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order + 1)]
    if unit:
        coeffs[0] = Fr(1)
    return TS(tuple(coeffs))


def test_criterion_1_operator_identities():
    t0 = time.time()
    rng = random.Random(20250809)
    # finite-difference linearity on random rational series
    for _ in range(20):
        f = rational_series(rng, 8)
        g = rational_series(rng, 8)
        a, b = Fr(rng.randint(-5, 5), 3), Fr(rng.randint(-5, 5), 2)
        assert (f * a + g * b).nabla() == f.nabla() * a + g.nabla() * b
    # shift-down law on s^m g for all k <= m <= 8
    for _ in range(5):
        g = rational_series(rng, 6)
        for m in range(1, 9):
            for k in range(m + 1):
                h = g.shifted_up(m)
                for _ in range(k):
                    h = h.nabla()
                assert h == g.shifted_up(m - k)
    # defining identity, exactly zero for 50 random rational specs
    checked = 0
    while checked < 50:
        U = rational_series(rng, 10)
        V = rational_series(rng, 10, unit=True)
        Q = rational_series(rng, 10)
        lam = Fr(rng.randint(1, 9), rng.randint(1, 4))
        try:
            for ell in range(-1, 7):
                r = residual_identity_series(U, V, Q, lam, ell)
                assert r == 0 and not isinstance(r, float)
        except Exception as exc:
            from dulackit.errors import NonUnitV

            if isinstance(exc, NonUnitV):
                continue
            raise
        checked += 1
    elapsed = time.time() - t0
    report(1, True, elapsed, f"{checked} rational specs, residual exactly 0")
    assert elapsed < 10


def test_criterion_2_euler_equation():
    t0 = time.time()
    fam = fam_power(1)
    branch = biggest_real_root_branch(fam, +1)
    spec = UnfoldingSpec(
        family=fam, branch=branch,
        V=TS.constant(Fr(1)), U=TS.from_coeffs([Fr(0), Fr(-1)]),
        lam=Fr(1), eps=Fr(0),
    )
    res = coefficients(spec, 12)
    # independent oracle: formal substitution a_{j+1} = j a_j, a_1 = -1
    a = [Fr(0), Fr(-1)]
    for j in range(1, 12):
        a.append(j * a[j])
    assert list(res.c) == a
    assert res.c[0] == 0
    for j in range(1, 13):
        assert res.c[j] == -math.factorial(j - 1)
    elapsed = time.time() - t0
    report(2, True, elapsed, "c_j = -(j-1)! exactly for j = 1..12")
    assert elapsed < 1


def test_criterion_3_hypothesis_checker_example():
    t0 = time.time()
    fam = PolynomialFamily(
        mu=2,
        coeffs={(3, 0): Fr(1), (2, 1): Fr(-2), (1, 2): Fr(1), (1, 4): Fr(1)},
    )
    branch, nd = analyze_family(fam, +1)
    assert branch.sigma.is_zero() and branch.exact
    assert nd.Q.terms == {(2, 0): Fr(1), (1, 1): Fr(-2), (0, 2): Fr(1), (0, 4): Fr(1)}
    assert nd.mu == 2 and nd.nu == 2
    assert nd.h0.holds and nd.h1.holds
    assert not nd.h2.holds
    assert abs(nd.h2.witness - math.pi / 4) < 1e-12
    elapsed = time.time() - t0
    report(3, True, elapsed, "root 0, Q exact, h0 h1 pass, h2 fails at pi/4")
    assert elapsed < 1


def _criterion4_cases():
    for mu in (1, 2):
        fam = fam_power(mu)
        branch = biggest_real_root_branch(fam, +1)
        for V in (TS.constant(Fr(1), 4), TS.from_coeffs([Fr(1), Fr(1, 2)], order=4)):
            for lam in (1, 5, 25):
                for eps in (0.0, 1e-4, 1e-2):
                    for U in (
                        TS.constant(Fr(1), 2),
                        TS.monomial(1, 2),
                        TS.monomial(2, 2),
                    ):
                        yield fam, branch, V, lam, eps, U


def test_criterion_4_oracle_vs_recursion_slopes():
    t0 = time.time()
    cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)
    s_grid = np.geomspace(1e-3, 1e-1, 12)
    n_cases = flat_passes = 0
    for fam, branch, V, lam, eps, U in _criterion4_cases():
        spec = UnfoldingSpec(family=fam, branch=branch, V=V, U=U, lam=lam, eps=eps)
        vals = np.array(
            [
                particular_solution(spec, 1.0, float(s), cfg, method="quadrature")
                for s in s_grid
            ]
        )
        res = coefficients(spec, 3)
        for ell in (1, 2, 3):
            sums = np.array(
                [float(sum(res.c[j] * s**j for j in range(ell + 1))) for s in s_grid]
            )
            diff = np.abs(vals - sums)
            floor = np.maximum(1e-9 * np.abs(vals), 1e-300)
            mask = diff > floor
            n_cases += 1
            if mask.sum() < 5 or s_grid[mask][-1] / s_grid[mask][0] < 6.0:
                flat_passes += 1  # remainder below oracle resolution
                continue
            slope = np.polyfit(np.log(s_grid[mask]), np.log(diff[mask]), 1)[0]
            assert slope >= ell + 0.8, (
                f"slope {slope:.3f} < {ell}+0.8 for mu={fam.mu} V={V.coeffs[:2]} "
                f"lam={lam} eps={eps} U={U.coeffs} ell={ell}"
            )
    elapsed = time.time() - t0
    report(
        4, True, elapsed,
        f"{n_cases} (case, ell) pairs, {flat_passes} flat below noise floor",
    )
    assert elapsed < 120


def test_criterion_5_dulac_map_flatness():
    t0 = time.time()
    s_grid = np.geomspace(1e-3, 1e-1, 21)
    sup = {ell: np.zeros_like(s_grid) for ell in range(6)}
    for mu in (1, 2):
        fam = fam_power(mu)
        branch = biggest_real_root_branch(fam, +1)
        for V in (TS.constant(Fr(1), 4), TS.from_coeffs([Fr(1), Fr(1, 2)], order=4)):
            for lam in (1, 5, 25):
                for eps in (0.0, 1e-4, 1e-2):
                    spec = UnfoldingSpec(
                        family=fam, branch=branch, V=V, U=TS.zero(4), lam=lam, eps=eps
                    )
                    logd = np.array(
                        [log_dulac_map(spec, float(s)) for s in s_grid]
                    )
                    for ell in range(6):
                        vals = np.exp(np.maximum(logd - ell * np.log(s_grid), -745.0))
                        vals[logd - ell * np.log(s_grid) < -745.0] = 0.0
                        sup[ell] = np.maximum(sup[ell], vals)
    for ell in range(6):
        assert sup[ell][0] < 1e-6, f"s^-{ell} D at s=1e-3 is {sup[ell][0]:.3e}"
        decade = s_grid <= 1e-2 + 1e-15
        seg = sup[ell][decade]
        assert np.all(np.diff(seg) >= 0), f"sup not monotone for ell={ell}"
    elapsed = time.time() - t0
    report(5, True, elapsed, "s^-ell D < 1e-6 at s=1e-3 for ell <= 5, sup monotone")
    assert elapsed < 60


def test_criterion_6_two_sidedness():
    t0 = time.time()
    for mu in (1, 2):
        fam = fam_power(mu)
        bp = biggest_real_root_branch(fam, +1)
        bm = biggest_real_root_branch(fam, -1)
        for Ubar in (TS.constant(Fr(1), 2), TS.from_coeffs([Fr(1), Fr(1)], order=2)):
            U = Ubar.shifted_up(2)  # valuation m = 2
            sp = UnfoldingSpec(family=fam, branch=bp, V=TS.constant(Fr(1), 2), U=U, lam=Fr(1), eps=1e-3)
            sm = UnfoldingSpec(family=fam, branch=bm, V=TS.constant(Fr(1), 2), U=U, lam=Fr(1), eps=-1e-3)
            grid = sorted(
                [Fr(-1, 10**k) for k in range(3, 18)]
                + [Fr(0)]
                + [10.0**-k for k in range(3, 18)],
                key=float,
            )
            g = glue_two_sided(sp, sm, 2, grid=grid)
            for eps, row in zip(g.eps, g.coeffs):
                if float(eps) <= 0:
                    assert row[0] == 0 and row[1] == 0
                    assert not isinstance(row[0], float)  # exact rational zero
            assert max(g.continuity_delta) <= 1e-8
    elapsed = time.time() - t0
    report(6, True, elapsed, "c_0 = c_1 = 0 exactly for eps <= 0; continuous at 0")
    assert elapsed < 30


def test_criterion_7_mode_summation():
    t0 = time.time()
    fam = fam_power(1)
    branch = biggest_real_root_branch(fam, +1)

    def mode(n):
        return TS.monomial(n - 1, max(n, 4), Fr(1, 2 ** (n - 1)))

    for eps in (0.0, 5e-3):
        ts = DulacTimeSpec(
            family=fam, branch=branch, V=TS.constant(Fr(1), 4), eps=eps,
            modes_fn=mode, decay=(2.0, 0.5),
            ua_fn=lambda x, y: 1.0 / (1.0 - x * y / 2.0),
        )
        summed = dulac_time_coefficients(ts, 1)
        assert summed.meta["tail_bound"] < 1e-8
        s_grid = np.geomspace(1e-3, 1e-2, 8)
        vals = np.array([dulac_time(ts, float(s), ORACLE_CFG) for s in s_grid])
        # quadratic least squares; the s^2 column absorbs the next order
        A = np.vander(s_grid, 3, increasing=True)
        fit = np.linalg.lstsq(A, vals, rcond=None)[0]
        for j in (0, 1):
            rel = abs(fit[j] - float(summed.c[j])) / abs(float(summed.c[j]))
            assert rel <= 1e-3, f"eps={eps}: c_{j} fit {fit[j]:.8g} vs {summed.c[j]:.8g} rel {rel:.2e}"
    elapsed = time.time() - t0
    report(7, True, elapsed, "summed c_0, c_1 match the numeric passage-time fit")
    assert elapsed < 120


def test_criterion_8_loud_family():
    t0 = time.time()
    # (a) gamma accuracy
    for x in [0.5 + 0.25 * k for k in range(39)]:
        assert abs(gamma(x) / math.gamma(x) - 1) <= 1e-12
    # (b) first-order coefficient near F = 1
    for D in (-0.9, -0.75, -0.25, -0.1):
        got = c1_hat(LoudParams(D=D, F=1 - 1e-4))
        assert abs(got - c1_hat_limit(D)) <= 1e-2
    # (c) first-integral conservation along one orbit
    from scipy.integrate import solve_ivp

    p = LoudParams(D=-0.25, F=1 - 1e-4)
    sol = solve_ivp(loud_rhs(p), (0, 12), [0.4, 0.0], rtol=1e-10, atol=1e-12, dense_output=True)
    vals = []
    for t in np.linspace(0.3, 11.5, 250):
        u, v = sol.sol(t)
        if abs(v) > 0.05:
            vals.append(first_integral(*chart_transform(u, v), p))
    vals = np.array(vals)
    drift = float(np.max(np.abs(vals - np.median(vals))) / abs(np.median(vals)))
    assert drift <= 1e-6
    # (d) regularity of the period derivative
    D_grid = [-0.9, -0.75, -0.5, -0.25, -0.1]
    rep = regularity_check(D_grid, F=1.0, s_grid=np.geomspace(1e-3, 1e-2, 7))
    rows = {r.D: r for r in rep.rows}
    for D in D_grid:
        if D == -0.5:
            assert rows[D].near_zero, "the D = -1/2 probe must be flagged near-zero"
        else:
            assert rows[D].sign != 0, f"derivative changes sign at D={D}"
            assert rows[D].coherent, f"sign incoherent with 2D+1 at D={D}"
    elapsed = time.time() - t0
    report(
        8, True, elapsed,
        f"gamma 1e-12, c1 limits 1e-2, drift {drift:.1e}, signs coherent, -1/2 flagged",
    )
    assert elapsed < 300
