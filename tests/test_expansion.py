"""Coefficient kernel and the reference recursion, their defining identity,
gluing, mode summation."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dulackit.errors import (
    ContinuityViolation,
    NonUnitV,
    OrderExhausted,
    TailUnbounded,
)
from dulackit.expansion import (
    VB_EPS_MAX,
    VB_N_EPS,
    VB_N_S,
    VB_S0,
    DulacTimeSpec,
    ExpansionResult,
    UnfoldingSpec,
    _exact_pairs,
    _scaled,
    coefficients,
    dulac_time_coefficients,
    glue_two_sided,
    recursion_coefficients,
    residual_identity_series,
    residual_identity_check,
    shifted_data,
    triangular_coefficients,
    vbounds,
    working_order,
)
from dulackit.family import PolynomialFamily, biggest_real_root_branch
from dulackit.loud import LoudParams, node_time_spec, normal_family
from dulackit.series import TruncatedSeries as TS, horner


def euler_formal_oracle(n):
    """Independent derivation: substituting y = sum a_j x^j into
    x^2 y' = y + x gives a_0 = 0, a_1 = -1, a_{j+1} = j a_j."""
    a = [Fr(0), Fr(-1)]
    for j in range(1, n):
        a.append(j * a[j])
    return a[: n + 1]


def random_rational_series(rng, order, unit=False):
    coeffs = [Fr(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order + 1)]
    if unit:
        coeffs[0] = Fr(1)
    return TS(tuple(coeffs))


def rational_root_family(roots):
    """x * prod_i (x - a_i eps): mu = len(roots), exact branches."""
    poly = {(1, 0): Fr(1)}
    for a in roots:
        nxt = {}
        for (k, m), c in poly.items():
            nxt[(k + 1, m)] = nxt.get((k + 1, m), 0) + c
            nxt[(k, m + 1)] = nxt.get((k, m + 1), 0) - a * c
        poly = nxt
    return PolynomialFamily(mu=len(roots), coeffs=poly)


def random_rational_specs(seed):
    """(spec, ell) over mu = 1, 2, 3, eps = 0 and eps > 0, ell up to 40."""
    rng = random.Random(seed)
    for mu in (1, 2, 3):
        fam = rational_root_family([Fr(1)] + [Fr(-k, 2) for k in range(1, mu)])
        branch = biggest_real_root_branch(fam, +1)
        assert branch.exact
        for eps in (Fr(0), Fr(1, 20)):
            for ell in (0, 4, 13, 40):
                spec = UnfoldingSpec(
                    family=fam,
                    branch=branch,
                    V=random_rational_series(rng, 3, unit=True),
                    U=random_rational_series(rng, 3),
                    lam=Fr(rng.randint(1, 7), rng.randint(1, 3)),
                    eps=eps,
                )
                yield spec, ell


class TestTriangularKernel:
    def test_equals_recursion_exactly(self):
        for spec, ell in random_rational_specs(7):
            U, V, Qs = shifted_data(spec, working_order(ell))
            reference, _ = recursion_coefficients(U, V, Qs, spec.lam, ell)
            c = coefficients(spec, ell).c
            assert list(c) == reference
            assert all(isinstance(x, Fr) for x in c)

    def test_identity_holds_for_production_coefficients(self):
        # Q theta(S) - V S + U vanishes through order ell
        for spec, ell in random_rational_specs(8):
            U, V, Qs = shifted_data(spec, ell)
            S = TS(coefficients(spec, ell).c)
            diff = Qs * S.theta(spec.lam) - V * S + U
            assert diff.order == ell and diff.is_zero()

    def test_float_rho_two_point(self, fam_quadratic):
        branch = biggest_real_root_branch(fam_quadratic, +1)
        assert branch.rho == 2
        spec = UnfoldingSpec(
            family=fam_quadratic,
            branch=branch,
            V=TS((1.0, 0.5, -0.25)),
            U=TS((0.0, -1.0, 0.3)),
            lam=1.5,
            eps=1e-3,
        )
        ell = 12
        reference, _ = recursion_coefficients(
            *shifted_data(spec, working_order(ell)), spec.lam, ell
        )
        c = coefficients(spec, ell).c
        assert all(isinstance(x, float) for x in c)
        assert list(c) == pytest.approx(reference, rel=1e-12, abs=0)

    def test_non_unit_v_at_recursion_index(self, fam_linear, branch_linear_plus):
        # V_3(0) = 1 - 3 Q(0)/lam = 0 when lam = 3 e_hat
        spec = UnfoldingSpec(
            family=fam_linear,
            branch=branch_linear_plus,
            V=TS.constant(Fr(1), 2),
            U=TS.constant(Fr(1), 2),
            lam=Fr(3, 100),
            eps=Fr(1, 100),
        )
        U, V, Qs = shifted_data(spec, 8)
        with pytest.raises(NonUnitV, match="V_3"):
            recursion_coefficients(U, V, Qs, spec.lam, 5)
        with pytest.raises(NonUnitV, match="V_3"):
            triangular_coefficients(U, V, Qs, spec.lam, 5)
        with pytest.raises(NonUnitV, match="V_3"):
            coefficients(spec, 5)


def fraction_loop(U, V, Qs, lam, ell):
    """The kernel's forward substitution in Fraction arithmetic, operation
    for operation: the reference for the integer path on exact data."""
    width = max(V.degree(), Qs.degree())
    U, V, Qs = U.coeffs, V.coeffs, Qs.coeffs
    r = [Fr(k) / Fr(lam) for k in range(ell + 1)]
    c = []
    for n in range(ell + 1):
        diag = V[0] - Qs[0] * r[n]
        if diag == 0:
            raise NonUnitV(f"V_{n}(0) = 0 at this parameter point")
        acc = U[n]
        for k in range(max(0, n - width), n):
            acc = acc + (r[k] * Qs[n - k] - V[n - k]) * c[k]
        c.append(acc / diag)
    return c


@st.composite
def exact_kernel_data(draw):
    """(U, V, Qs, lam, ell) of int, Fraction or mixed int/Fraction data with
    exact zeros: Q of degree mu = 1..3 with Q_0 = 0 (eps = 0) or not, ell up
    to 60, and lam at times a resonance n0 Q_0/V_0, n0 <= ell."""
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    ints = st.integers(-7, 7)
    fractions = st.builds(Fr, st.integers(-40, 40), st.integers(1, 30))
    scalars = {"int": ints, "fraction": fractions, "mixed": st.one_of(ints, fractions)}[kind]
    nonzero = scalars.filter(bool)
    mu, ell, eps_zero = draw(st.integers(1, 3)), draw(st.integers(0, 60)), draw(st.booleans())
    Q = [Fr(0) if kind == "fraction" else 0] if eps_zero else [draw(nonzero)]
    Q += [draw(scalars) for _ in range(mu - 1)] + [draw(nonzero)]
    V = [draw(nonzero)] + [draw(scalars) for _ in range(draw(st.integers(0, 2)))]
    U = [draw(scalars) for _ in range(draw(st.integers(1, 3)))]
    lam = abs(draw(nonzero))
    if ell and Q[0] * V[0] > 0 and draw(st.booleans()):
        lam = Fr(draw(st.integers(1, ell))) * Q[0] / V[0]
        if kind == "int" and lam.denominator == 1:
            lam = int(lam)
    return *(TS.from_coeffs(x, order=ell) for x in (U, V, Q)), lam, ell


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(exact_kernel_data())
    def test_equals_fraction_loop(self, data):
        # the same Fractions, numerator and denominator alike (== on two
        # Fractions compares both, so an unreduced result fails), or
        # NonUnitV at the same index with the same message
        U, V, Qs, lam, ell = data
        try:
            want = fraction_loop(U, V, Qs, lam, ell)
        except NonUnitV as exc:
            with pytest.raises(NonUnitV) as got:
                triangular_coefficients(U, V, Qs, lam, ell)
            assert str(got.value) == str(exc)
            return
        got = triangular_coefficients(U, V, Qs, lam, ell)
        assert got == want and all(type(x) is Fr for x in got)
        width = max(V.degree(), Qs.degree())
        pairs = _exact_pairs(U.coeffs, V.coeffs, Qs.coeffs, lam, ell, width)
        assert pairs == [(x.numerator, x.denominator) for x in want]

    def test_float_and_mixed_data_keep_the_loop(self):
        # one float coefficient, or a float lam, sends exact data to the
        # loop, whose arithmetic then runs in floats
        U, V, Qs = (TS.from_coeffs(c, order=3) for c in ([Fr(1), 2], [1, Fr(1, 3)], [Fr(1, 5), 1]))
        exact = triangular_coefficients(U, V, Qs, Fr(3, 2), 3)
        assert exact == fraction_loop(U, V, Qs, Fr(3, 2), 3)
        for c in (triangular_coefficients(U, V, Qs, 1.5, 3),
                  triangular_coefficients(U, TS.from_coeffs([1, 1 / 3], order=3), Qs, Fr(3, 2), 3)):
            assert type(c[-1]) is float
            assert c == pytest.approx([float(x) for x in exact], rel=1e-15)


class TestRecursion:
    def test_euler_coefficients_exact(self, euler_spec):
        res = coefficients(euler_spec, 12)
        oracle = euler_formal_oracle(12)
        assert list(res.c) == oracle
        assert res.c[0] == 0
        assert all(res.c[j] == -math.factorial(j - 1) for j in range(1, 13))

    def test_euler_factorial_law(self, euler_spec):
        res = coefficients(euler_spec, 10)
        for j in range(1, 10):
            assert res.c[j + 1] == j * res.c[j]

    def test_c0_is_u_over_v_at_origin(self, fam_linear, branch_linear_plus):
        spec = UnfoldingSpec(
            family=fam_linear,
            branch=branch_linear_plus,
            V=TS.from_coeffs([Fr(2), Fr(1)], order=3),
            U=TS.from_coeffs([Fr(3), Fr(1)], order=3),
            lam=Fr(1),
            eps=Fr(0),
        )
        U, V, _ = shifted_data(spec, 6)
        res = coefficients(spec, 2)
        assert res.c[0] == U.coeffs[0] / V.coeffs[0]

    def test_zero_u_gives_zero(self, fam_linear, branch_linear_plus):
        spec = UnfoldingSpec(
            family=fam_linear,
            branch=branch_linear_plus,
            V=TS.from_coeffs([Fr(1), Fr(1, 3)], order=4),
            U=TS.zero(4),
            lam=Fr(2),
            eps=Fr(1, 50),
        )
        assert all(c == 0 for c in coefficients(spec, 6).c)

    def test_c1_matches_limit_formula(self, fam_linear, branch_linear_plus):
        rng = random.Random(11)
        for _ in range(10):
            spec = UnfoldingSpec(
                family=fam_linear,
                branch=branch_linear_plus,
                V=random_rational_series(rng, 6, unit=True),
                U=random_rational_series(rng, 6),
                lam=Fr(rng.randint(1, 5)),
                eps=Fr(rng.randint(0, 3), 100),
            )
            U, V, Qs = shifted_data(spec, 8)
            indep = ((U / V).nabla() * (V / (V - _scaled(Qs, 1, spec.lam)))).coeffs[0]
            assert coefficients(spec, 1).c[1] == indep

    def test_linearity_in_u(self, fam_linear, branch_linear_plus):
        rng = random.Random(5)
        for _ in range(10):
            V = random_rational_series(rng, 5, unit=True)
            U1 = random_rational_series(rng, 5)
            U2 = random_rational_series(rng, 5)
            a, b = Fr(rng.randint(-3, 3), 2), Fr(rng.randint(-3, 3), 3)
            base = UnfoldingSpec(
                family=fam_linear,
                branch=branch_linear_plus,
                V=V,
                U=U1,
                lam=Fr(3, 2),
                eps=Fr(1, 64),
            )
            c1 = coefficients(base, 4).c
            c2 = coefficients(replace(base, U=U2), 4).c
            c3 = coefficients(replace(base, U=U1 * a + U2 * b), 4).c
            assert all(a * x + b * y == z for x, y, z in zip(c1, c2, c3))

    def test_order_exhausted(self, euler_spec):
        # order 5 holds 6 coefficients, one short of ell + 2 for ell = 4
        U, V, Qs = shifted_data(euler_spec, 5)
        with pytest.raises(OrderExhausted):
            recursion_coefficients(U, V, Qs, euler_spec.lam, 4)

    def test_non_unit_v(self, fam_linear, branch_linear_plus):
        # V_1(0) = 1 - Q(0)/lam = 0 when lam = Q(0, e_hat) = e_hat
        spec = UnfoldingSpec(
            family=fam_linear,
            branch=branch_linear_plus,
            V=TS.constant(Fr(1), 2),
            U=TS.constant(Fr(1), 2),
            lam=Fr(1, 100),
            eps=Fr(1, 100),
        )
        with pytest.raises(NonUnitV):
            coefficients(spec, 3)


class TestShiftedData:
    def test_identity_shift(self, fam_linear, branch_linear_plus):
        spec = UnfoldingSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.constant(Fr(1), 3), U=TS.monomial(1, 3), lam=Fr(1), eps=Fr(0),
        )
        U, V, _ = shifted_data(spec, 4)
        assert U == TS.monomial(1, 4)  # U = x recentered at 0 stays s

    def test_constant_u_halved(self, fam_linear, branch_linear_plus):
        spec = UnfoldingSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.constant(Fr(1), 3), U=TS.constant(Fr(1), 3),
            lam=Fr(2), eps=Fr(1, 100),
        )
        U, _, _ = shifted_data(spec, 4)
        assert U == TS.constant(Fr(1, 2), 4)

    def test_affine_v_recentres(self, fam_linear, branch_linear_plus):
        spec = UnfoldingSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.from_coeffs([Fr(1), Fr(1)], order=3), U=TS.zero(3),
            lam=Fr(1), eps=Fr(1, 100),
        )
        # normalization divides by V(0) = 1; the recentering adds theta = eps
        _, V, _ = shifted_data(spec, 3)
        assert V.coeffs[0] == 1 + Fr(1, 100)
        assert V.coeffs[1] == 1


class TestResidualIdentity:
    def test_euler_exact_zero(self, euler_spec):
        for ell in range(-1, 7):
            assert residual_identity_check(euler_spec, ell) == 0

    def test_random_rational_specs(self):
        rng = random.Random(1234)
        for _ in range(25):
            order = 10
            U = random_rational_series(rng, order)
            V = random_rational_series(rng, order, unit=True)
            Qs = random_rational_series(rng, order)
            lam = Fr(rng.randint(1, 7), rng.randint(1, 3))
            for ell in range(-1, 7):
                try:
                    r = residual_identity_series(U, V, Qs, lam, ell)
                except NonUnitV:
                    break
                assert r == 0 and isinstance(r, (int, Fr))


class TestPartialSum:
    def test_horner(self):
        res = ExpansionResult(c=(1.0, 2.0), ell=1)
        assert res.partial_sum(0.5) == 2.0

    def test_negative_ell_is_refused(self):
        with pytest.raises(ValueError, match="ell = -1 is negative"):
            ExpansionResult(c=(), ell=-1)

    def test_euler_sigma3(self, euler_spec):
        res = coefficients(euler_spec, 3)
        assert res.partial_sum(Fr(1, 10)) == Fr(-112, 1000)


def vbounds_reference(spec, ell):
    """eps0 probed with the full shifted data at the working order."""
    probes = sorted(VB_EPS_MAX * 10.0 ** (-6 * k / (VB_N_EPS - 1)) for k in range(VB_N_EPS))
    s_grid = [-VB_S0 + 2 * VB_S0 * i / (VB_N_S - 1) for i in range(VB_N_S)]
    certified = 0.0
    for eps_probe in probes:
        trial = spec.at_eps(spec.branch.sign * eps_probe)
        _, V, Qs = shifted_data(trial, working_order(ell))
        # V_j is affine in j: its extremes over 0 <= j <= ell are at the ends
        ends = (0, ell) if ell > 0 else (0,)
        if not all(0.5 <= float((V - _scaled(Qs, j, trial.lam))(s)) <= 2.0 for j in ends for s in s_grid):
            break
        certified = eps_probe
    return certified


def vbounds_specs(fam_linear, fam_quadratic):
    """Exact and float specs on x(x - eps) and on the rho = 2 branch of
    x^3 - x eps, the last one with Loud's V = 2F - x^2."""
    for fam in (fam_linear, fam_quadratic):
        for sign in (+1, -1):
            branch = biggest_real_root_branch(fam, sign)
            yield UnfoldingSpec(
                family=fam, branch=branch, V=TS((Fr(1), Fr(1, 2), Fr(-1, 4))),
                U=TS((Fr(0), Fr(-1), Fr(3, 10))), lam=Fr(3, 2), eps=Fr(0),
            )
            yield UnfoldingSpec(
                family=fam, branch=branch, V=TS((1.0, 0.5, -0.25)),
                U=TS((0.0, -1.0, 0.3)), lam=1.5, eps=sign * 1e-3,
            )
    fam, V, branch = normal_family(LoudParams(D=-0.25, F=1.001))
    assert branch.rho == 2
    yield UnfoldingSpec(family=fam, branch=branch, V=V, U=TS.zero(2), lam=1, eps=0.002)


def vbounds_scalar_reference(spec, ell):
    """eps0 with each V_j evaluated point by point by the series' own Horner
    rule, stopping at the first value outside [1/2, 2]."""
    probes = sorted(VB_EPS_MAX * 10.0 ** (-6 * k / (VB_N_EPS - 1)) for k in range(VB_N_EPS))
    s_grid = [-VB_S0 + 2 * VB_S0 * i / (VB_N_S - 1) for i in range(VB_N_S)]
    order = min(working_order(ell), max(spec.V.order, spec.Q.degree_s()))
    certified = 0.0
    for eps_probe in probes:
        trial = spec.at_eps(spec.branch.sign * eps_probe)
        V = trial.V.shift(trial.theta_eps).padded(order).truncated(order)
        Qs = trial.Q.restrict(trial.e_hat, order)
        for j in (0, ell) if ell > 0 else (0,):
            Vj = V - _scaled(Qs, j, trial.lam)
            for s in s_grid:
                if not 0.5 <= float(Vj(s)) <= 2.0:
                    return certified
        certified = eps_probe
    return certified


def vbounds_exact_reference(spec, ell):
    """eps0 from V_j = V(s + theta) - (j/lam) Q(s, e) in exact rationals at
    each probe and grid point, for a rho = 1 exact spec (e_hat = |eps|);
    asserts that no value sits exactly on the band's ends."""
    assert spec.branch.rho == 1 and spec.branch.exact
    probes = sorted(VB_EPS_MAX * 10.0 ** (-6 * k / (VB_N_EPS - 1)) for k in range(VB_N_EPS))
    s_grid = [Fr(-VB_S0 + 2 * VB_S0 * i / (VB_N_S - 1)) for i in range(VB_N_S)]
    V = [Fr(c) for c in spec.V.coeffs]
    certified = 0.0
    for eps_probe in probes:
        e = Fr(eps_probe)
        theta = horner([Fr(c) for c in spec.branch.sigma.coeffs], e)
        Qe = [Fr(0)] * (spec.Q.degree_s() + 1)
        for (i, m), c in spec.Q.terms.items():
            Qe[i] += Fr(c) * e**m
        for s in s_grid:
            for j in (0, ell):
                Vj = horner(V, s + theta) - Fr(j) / Fr(spec.lam) * horner(Qe, s)
                assert Vj not in (Fr(1, 2), Fr(2))
                if not Fr(1, 2) <= Vj <= 2:
                    return certified
        certified = eps_probe
    return certified


def floated(spec):
    """The spec with V, U, lambda and eps in floats."""
    return replace(
        spec,
        V=TS(tuple(float(c) for c in spec.V.coeffs)),
        U=TS(tuple(float(c) for c in spec.U.coeffs)),
        lam=float(spec.lam),
        eps=float(spec.eps),
    )


class TestVBounds:
    def test_equals_full_order_reference(self, fam_linear, fam_quadratic):
        eps0 = []
        for spec in vbounds_specs(fam_linear, fam_quadratic):
            for ell in (0, 1, 6, 20, 40):
                eps0.append(vbounds(spec, ell))
                assert eps0[-1] == vbounds_reference(spec, ell)
        # the probes decide: some certify the whole range, some stop early
        assert 0.0 < min(e for e in eps0 if e > 0) < VB_EPS_MAX == max(eps0)

    def test_equals_scalar_reference(self, fam_linear, fam_quadratic):
        """The one-pass grid evaluation gives the eps0 of the point-by-point
        loop, on exact and float specs."""
        specs = [s for s in vbounds_specs(fam_linear, fam_quadratic)]
        specs += [spec for spec, _ in random_rational_specs(11)]
        eps0 = []
        for spec in specs + [floated(s) for s in specs]:
            for ell in (0, 1, 6, 20, 40):
                eps0.append(vbounds(spec, ell))
                assert eps0[-1] == vbounds_scalar_reference(spec, ell)
        probes = [VB_EPS_MAX * 10.0 ** (-6 * k / (VB_N_EPS - 1)) for k in range(VB_N_EPS)]
        assert any(min(probes) < e < max(probes) for e in eps0)

    def test_equals_exact_definition(self, fam_linear, branch_linear_plus, branch_linear_minus):
        """eps0 is the one V_j = V(s + theta) - (j/lam) Q(s, e) gives on the
        grid in exact rationals, with V evaluated in full: for x(x - eps),
        V = 1 + 10^7 x^8 and ell = 0, V_0 leaves [1/2, 2] at eps = 0.0398,
        so eps0 is the probe below it."""
        def spec(branch, V, lam):
            return UnfoldingSpec(
                family=fam_linear, branch=branch, V=TS(tuple(V)), U=TS.zero(1), lam=lam, eps=Fr(0),
            )

        steep = [Fr(1)] + [Fr(0)] * 7 + [Fr(10**7)]
        assert vbounds(spec(branch_linear_plus, steep, Fr(1)), 0) == VB_EPS_MAX * 10.0 ** -0.8
        cases = [(spec(branch_linear_plus, steep, Fr(1)), 0)]
        for branch in (branch_linear_plus, branch_linear_minus):
            for V in (steep, [Fr(1), Fr(1, 2), Fr(-1, 4)], [Fr(1), Fr(-3)] + [Fr(0)] * 5 + [Fr(-10**6)]):
                for lam, ell in ((Fr(1), 0), (Fr(7, 3), 1), (Fr(50, 3), 6), (Fr(41), 20)):
                    cases.append((spec(branch, V, lam), ell))
        cases += list(random_rational_specs(5))
        eps0 = []
        for case, ell in cases:
            eps0.append(vbounds(case, ell))
            assert eps0[-1] == vbounds_exact_reference(case, ell)
        assert 0.0 in eps0 and VB_EPS_MAX in eps0
        assert len(set(eps0)) > 4

    def test_euler_positive(self, euler_spec):
        assert vbounds(euler_spec, 3) > 0

    def test_constant_v_small_q(self, fam_linear, branch_linear_plus):
        spec = UnfoldingSpec(
            family=fam_linear,
            branch=branch_linear_plus,
            V=TS.constant(Fr(1), 3),
            U=TS.zero(3),
            lam=Fr(1000),
            eps=Fr(1, 100),
        )
        # lam huge: V_j stays near 1 for every probe
        assert vbounds(spec, 5) == pytest.approx(0.1)

    def test_saturating_lambda_shrinks(self, fam_linear, branch_linear_plus):
        spec = UnfoldingSpec(
            family=fam_linear,
            branch=branch_linear_plus,
            V=TS.constant(Fr(1), 3),
            U=TS.zero(3),
            lam=Fr(1),
            eps=Fr(1, 100),
        )
        wide = vbounds(spec, 1)
        narrow = vbounds(spec, 8)
        assert narrow <= wide


class TestGlue:
    def make_specs(self, fam, sign_plus, sign_minus, U, lam=Fr(1)):
        sp = UnfoldingSpec(family=fam, branch=sign_plus, V=TS.constant(Fr(1), 2), U=U, lam=lam, eps=1e-3)
        sm = UnfoldingSpec(family=fam, branch=sign_minus, V=TS.constant(Fr(1), 2), U=U, lam=lam, eps=-1e-3)
        return sp, sm

    def test_valuation_vanishing_exact(self, fam_linear, branch_linear_plus, branch_linear_minus):
        U = TS.from_coeffs([Fr(0), Fr(0), Fr(1)])  # valuation 2
        sp, sm = self.make_specs(fam_linear, branch_linear_plus, branch_linear_minus, U)
        grid = sorted(
            [Fr(-1, 10**k) for k in range(3, 12)] + [Fr(0)] + [10.0**-k for k in range(3, 12)],
            key=float,
        )
        g = glue_two_sided(sp, sm, 3, grid=grid)
        for eps, row in zip(g.eps, g.coeffs):
            if float(eps) <= 0:
                assert row[0] == 0 and row[1] == 0
                assert isinstance(row[0], (int, Fr))

    def test_continuity_at_zero(self, fam_linear, branch_linear_plus, branch_linear_minus):
        U = TS.from_coeffs([Fr(0), Fr(0), Fr(1), Fr(1)])
        sp, sm = self.make_specs(fam_linear, branch_linear_plus, branch_linear_minus, U)
        g = glue_two_sided(sp, sm, 2)
        assert max(g.continuity_delta) <= 1e-8

    def test_same_spec_at_zero(self, fam_linear, branch_linear_plus, branch_linear_minus):
        U = TS.from_coeffs([Fr(1), Fr(2)], order=2)
        sp, sm = self.make_specs(fam_linear, branch_linear_plus, branch_linear_minus, U)
        cp = coefficients(sp.at_eps(0.0), 3).c
        cm = coefficients(sm.at_eps(0.0), 3).c
        assert cp == cm

    def test_quadratic_family_kink_allowed(self, fam_quadratic):
        from dulackit.family import biggest_real_root_branch

        bp = biggest_real_root_branch(fam_quadratic, +1)
        bm = biggest_real_root_branch(fam_quadratic, -1)
        V = TS.from_coeffs([Fr(1), Fr(1, 2)], order=2)
        U = TS.constant(Fr(1), 2)
        sp = UnfoldingSpec(family=fam_quadratic, branch=bp, V=V, U=U, lam=Fr(1), eps=1e-3)
        sm = UnfoldingSpec(family=fam_quadratic, branch=bm, V=V, U=U, lam=Fr(1), eps=-1e-3)
        grid = sorted(
            [-(10.0**-k) for k in range(3, 18)] + [0.0] + [10.0**-k for k in range(3, 18)]
        )
        # c_0(eps) = 1/(1 + sqrt(eps)/2) for eps > 0: continuous, kink allowed
        g = glue_two_sided(sp, sm, 1, grid=grid)
        assert max(g.continuity_delta) <= 1e-8
        c0 = g.column(0)
        assert float(min(c0)) < 1.0 - 1e-3 < 1.0 == pytest.approx(float(max(c0)))

    def test_mismatched_sides_violate(self, fam_linear, branch_linear_plus, branch_linear_minus):
        sp = UnfoldingSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.constant(Fr(1), 2), U=TS.from_coeffs([Fr(1)], order=2), lam=Fr(1), eps=1e-3,
        )
        sm = UnfoldingSpec(
            family=fam_linear, branch=branch_linear_minus,
            V=TS.constant(Fr(1), 2), U=TS.from_coeffs([Fr(2)], order=2), lam=Fr(1), eps=-1e-3,
        )
        with pytest.raises(ContinuityViolation):
            glue_two_sided(sp, sm, 1)


def per_mode_reference(ts, ell):
    """dulac_time_coefficients with one coefficients() call, and so one
    shift of V and one restriction of Q, per mode: the reference for the
    sum that takes them once."""
    if ts.decay is not None:
        C, r = ts.decay
        r_eff = r * ts.y0
        if not 0 < r_eff < 1:
            raise TailUnbounded(f"certificate radius r*y0 = {r_eff} is not in (0,1)")
    total = [0.0] * (ell + 1)
    gamma = 0.0
    for n, mode in enumerate(ts.modes, start=1):
        U_n = mode * (ts.y0**n)
        spec = UnfoldingSpec(family=ts.family, branch=ts.branch, V=ts.V, U=U_n, lam=n, eps=ts.eps)
        res = coefficients(spec, ell)
        for j in range(ell + 1):
            total[j] += float(res.c[j])
        norm = float(U_n.norm_ell1())
        if norm > 0:
            gamma = max(gamma, max(abs(float(cj)) for cj in res.c) / norm)
    N = len(ts.modes)
    tail = 0.0 if ts.decay is None else C * max(gamma, 1e-300) * r_eff ** (N + 1) / (1 - r_eff)
    largest = max(abs(cj) for cj in total)
    if ts.decay is not None and not tail < largest:
        raise TailUnbounded(f"tail estimate {tail:g} of the {N} modes is not below the largest |c_j| = {largest:g}")
    meta = {"eps": float(ts.eps), "modes_used": N, "tail_bound": float(tail), "gamma": gamma, "y0": ts.y0}
    return ExpansionResult(c=tuple(total), ell=ell, meta=meta)


def golden_time_spec(name):
    """The DulacTimeSpec that `verify` builds from a golden spec file."""
    from dulackit.cli import _analyze, _series_from

    spec = json.loads((Path(__file__).parent / "golden" / f"{name}.spec.json").read_text())
    fam, branch, _ = _analyze(spec)
    ts = DulacTimeSpec(
        family=fam, branch=branch, V=_series_from(spec.get("V", ["1"]), "V"), eps=spec.get("eps", 0.0),
        modes=tuple(_series_from(m, "mode") for m in spec["modes"]), y0=spec.get("y0", 1.0),
    )
    return ts, spec["ell"]


def assert_same_sum(ts, ell):
    """dulac_time_coefficients equals the per-mode reference by == on every
    float, meta included, or raises what it raises with the same message."""
    try:
        want = per_mode_reference(ts, ell)
    except (NonUnitV, TailUnbounded) as exc:
        with pytest.raises(type(exc)) as got:
            dulac_time_coefficients(ts, ell)
        assert str(got.value) == str(exc)
        return type(exc)
    got = dulac_time_coefficients(ts, ell)
    assert got.c == want.c and got.meta == want.meta
    return None


class TestModeSummation:
    @pytest.mark.parametrize("F", [0.9, 1.0, 1.1])
    def test_loud_sums_equal_per_mode_loop(self, F):
        # the default D grid of `loud`, ell 1-6: 24 modes each
        for D in (-0.9, -0.75, -0.5, -0.25, -0.1):
            ts = node_time_spec(LoudParams(D, F))
            for ell in range(1, 7):
                assert assert_same_sum(ts, ell) is None

    @pytest.mark.parametrize("name", ["dulac_time", "dulac_time_rho2"])
    def test_golden_sums_equal_per_mode_loop(self, name):
        ts, ell = golden_time_spec(name)
        for k in range(ell + 3):
            assert assert_same_sum(ts, k) is None

    def test_refusals_equal_per_mode_loop(self, fam_linear, branch_linear_plus):
        # NonUnitV at F = 2 (a float diagonal 0 up to rounding), TailUnbounded
        # for the specs of test_tail_unbounded and test_tail_not_below_coefficients
        assert assert_same_sum(node_time_spec(LoudParams(-0.75, 2.0)), 3) is NonUnitV
        for y0, decay in [(1.0, (1.0, 1.0)), (0.0, (1.0, 0.5)), (1.0, (1.0, 0.99))]:
            ts = DulacTimeSpec(
                family=fam_linear, branch=branch_linear_plus, V=TS.constant(Fr(1), 3),
                eps=0.0, modes=(TS.constant(Fr(1), 2),) * 3, decay=decay, y0=y0,
            )
            assert assert_same_sum(ts, 1) is TailUnbounded

    def test_single_mode_reduces(self, fam_linear, branch_linear_plus):
        V = TS.from_coeffs([Fr(2), Fr(1)], order=3)
        U = TS.from_coeffs([Fr(1), Fr(1)], order=2)
        ts = DulacTimeSpec(family=fam_linear, branch=branch_linear_plus, V=V, eps=Fr(0), modes=(U,))
        summed = dulac_time_coefficients(ts, 3)
        direct = coefficients(
            UnfoldingSpec(family=fam_linear, branch=branch_linear_plus, V=V, U=U, lam=1, eps=Fr(0)),
            3,
        )
        assert [float(x) for x in summed.c] == pytest.approx([float(x) for x in direct.c], abs=0)

    def test_x_only_mode(self, fam_linear, branch_linear_plus):
        # U(x, y) = x has a single nonzero mode, so extra zero modes change nothing
        V = TS.constant(Fr(1), 3)
        mode1 = TS.from_coeffs([Fr(0), Fr(1)], order=2)
        ts1 = DulacTimeSpec(family=fam_linear, branch=branch_linear_plus, V=V, eps=Fr(0), modes=(mode1,))
        ts2 = DulacTimeSpec(
            family=fam_linear, branch=branch_linear_plus, V=V, eps=Fr(0),
            modes=(mode1, TS.zero(2), TS.zero(2)),
        )
        assert dulac_time_coefficients(ts1, 2).c == dulac_time_coefficients(ts2, 2).c

    def test_geometric_modes(self, fam_linear, branch_linear_plus):
        def mode(n):
            return TS.monomial(n - 1, max(n, 4), Fr(1, 2 ** (n - 1)))

        # the first 28 modes of U = 1 / (1 - x y / 2), with their decay
        ts = DulacTimeSpec(
            family=fam_linear, branch=branch_linear_plus, V=TS.constant(Fr(1), 3),
            eps=0.0, modes=tuple(mode(n) for n in range(1, 29)), decay=(2.0, 0.5),
        )
        res = dulac_time_coefficients(ts, 1)
        assert res.c[0] == pytest.approx(1.0, abs=1e-12)
        assert res.c[1] == pytest.approx(0.25, abs=1e-12)
        assert res.meta["modes_used"] == 28
        assert res.meta["tail_bound"] < 1e-8

    @pytest.mark.parametrize("x", [0.37, 1e-3, np.float64(0.2), Fr(3, 7), 2])
    def test_ua_matches_exact_modes(self, fam_linear, branch_linear_plus, x):
        # float copies of the modes at a float x: the same value and type
        modes = (
            TS.from_coeffs([Fr(1, 3)], order=2),
            TS.from_coeffs([Fr(2, 7), Fr(-5, 11), Fr(1, 9)], order=2),
            TS.from_coeffs([Fr(0), Fr(1, 6), Fr(0), Fr(-4, 13)], order=3),
        )
        ts = DulacTimeSpec(
            family=fam_linear, branch=branch_linear_plus, V=TS.constant(Fr(1), 3), eps=0.0, modes=modes,
        )
        y = 0.61
        want, yp = 0.0, 1.0
        for mode in modes:
            want += float(mode(x)) * yp
            yp *= y
        for _ in range(2):
            got = ts.ua(x, y)
            assert got == want and type(got) is float

    def test_diagonal_zero_up_to_rounding(self):
        # at F = 2 mode 2's V_1(0) = 1/2 - 1/2 vanishes exactly but reads
        # -2.2e-16 in floats; dividing by it gave c_1 = -3.06e14
        with pytest.raises(NonUnitV, match=r"V_1\(0\) = -2\.220446049250313e-16 is 0 up to rounding"):
            dulac_time_coefficients(node_time_spec(LoudParams(-0.75, 2.0)), 1)

    @pytest.mark.parametrize("ulps", [0, 1, 7, 8, -7, -8])
    def test_float_diagonal_within_ulps_is_zero(self, ulps):
        # V_1(0) = V_0 - (1/2) Q_0 = ulps units in the last place of 1/2
        V0 = 0.5 + ulps * math.ulp(0.5)
        U, V, Qs = (TS.from_coeffs(c, order=2) for c in ([1.0, 1.0], [V0, 0.25], [1.0, 0.5]))
        if abs(ulps) < 8:
            with pytest.raises(NonUnitV, match="V_1"):
                triangular_coefficients(U, V, Qs, 2.0, 2)
        else:
            c = triangular_coefficients(U, V, Qs, 2.0, 2)
            assert all(math.isfinite(x) for x in c) and abs(c[1]) > 1e14

    @pytest.mark.parametrize("y0, decay", [(1.0, (1.0, 1.0)), (0.0, (1.0, 0.5))], ids=["ry0-1", "y0-0"])
    def test_tail_unbounded(self, fam_linear, branch_linear_plus, y0, decay):
        # a tail estimate needs r y0 in (0, 1)
        ts = DulacTimeSpec(
            family=fam_linear, branch=branch_linear_plus, V=TS.constant(Fr(1), 3),
            eps=0.0, modes=(TS.constant(Fr(1), 2),) * 3, decay=decay, y0=y0,
        )
        with pytest.raises(TailUnbounded, match=r"r\*y0 = .* is not in \(0,1\)"):
            dulac_time_coefficients(ts, 1)

    def test_tail_not_below_coefficients(self, fam_linear, branch_linear_plus):
        # three unit modes sum to c_0 = 1 + 1/2 + 1/3; at r = 0.99 the tail
        # estimate of the modes left out, 0.99^4 / 0.01 = 96.1, swamps it
        def spec(r):
            return DulacTimeSpec(
                family=fam_linear, branch=branch_linear_plus, V=TS.constant(Fr(1), 3),
                eps=0.0, modes=(TS.constant(Fr(1), 2),) * 3, decay=(1.0, r),
            )

        with pytest.raises(TailUnbounded, match=r"tail estimate 96\.0596 of the 3 modes is not below "
                                                r"the largest \|c_j\| = 1\.83333"):
            dulac_time_coefficients(spec(0.99), 1)
        res = dulac_time_coefficients(spec(0.5), 1)  # 0.5^4 / 0.5 = 0.125
        assert res.c == (1.8333333333333333, 0.0) and res.meta["tail_bound"] == 0.125
