"""Branch extraction, the shifted quotient Q, and the hypothesis checks."""

import math
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dulackit.errors import (
    BranchAmbiguous,
    DegenerateQ,
    DulacKitError,
    Inconclusive,
    NoRealRoot,
    NotDivisible,
)
from dulackit.family import (
    _H2_GRID_POINTS,
    _Q_CHOP,
    _VALIDATION_GRID,
    _h2_power_table,
    NewtonData,
    _hensel_lift,
    _rational_roots,
    PolynomialFamily,
    PuiseuxBranch,
    analyze_family,
    biggest_real_root_branch,
    check_h0,
    check_h2,
    compute_Q,
    newton_diagram,
    track_biggest_real_root,
)
from dulackit.series import BivariatePoly, TruncatedSeries as TS, horner


def fam_linear():
    """x(x - eps), mu = 1."""
    return PolynomialFamily(mu=1, coeffs={(2, 0): Fr(1), (1, 1): Fr(-1)})


def fam_power(mu):
    """x(x^mu - eps)."""
    return PolynomialFamily(mu=mu, coeffs={(mu + 1, 0): Fr(1), (1, 1): Fr(-1)})


def fam_counterexample():
    """x((x - eps)^2 + eps^4): single compact side but indefinite principal part."""
    return PolynomialFamily(
        mu=2,
        coeffs={(3, 0): Fr(1), (2, 1): Fr(-2), (1, 2): Fr(1), (1, 4): Fr(1)},
    )


def fam_inconclusive():
    """x((x - eps)^2 + 1e-6 eps^2): the branch is x = 0 and the principal part
    1 - sin(2 theta) + 1e-6 cos^2(theta) has a positive grid minimum below
    the Lipschitz margin of check_h2."""
    return PolynomialFamily(
        mu=2,
        coeffs={(3, 0): Fr(1), (2, 1): Fr(-2), (1, 2): Fr(1) + Fr(1, 10**6)},
    )


ZOO = [
    (fam_linear(), +1),
    (fam_linear(), -1),
    (fam_power(2), +1),
    (fam_power(2), -1),
    (fam_power(3), +1),
    (fam_counterexample(), +1),
]


class TestFamilyType:
    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            PolynomialFamily(mu=2, coeffs={(2, 0): 1})

    def test_rejects_non_reduced(self):
        with pytest.raises(ValueError):
            PolynomialFamily(mu=1, coeffs={(2, 0): 1, (1, 0): 1})

    def test_json_round_trip(self):
        f = fam_counterexample()
        assert PolynomialFamily.from_json(f.to_json()).coeffs == f.coeffs


class TestBranch:
    def test_power_family_positive_side(self):
        for mu in (1, 2, 3):
            b = biggest_real_root_branch(fam_power(mu), +1)
            assert b.rho == mu and b.exact
            assert b.sigma.coeffs[1] == 1
            assert all(c == 0 for j, c in enumerate(b.sigma.coeffs) if j != 1)

    def test_power_family_negative_side(self):
        for mu in (1, 2):
            b = biggest_real_root_branch(fam_power(mu), -1)
            if mu == 1:
                # roots 0 and eps < 0: the biggest is 0
                assert b.sigma.is_zero() and b.rho == 1
            else:
                assert b.sigma.is_zero()

    def test_counterexample_root_is_zero(self):
        b = biggest_real_root_branch(fam_counterexample(), +1)
        assert b.sigma.is_zero() and b.rho == 1 and b.exact

    def test_no_real_root(self):
        f = PolynomialFamily(mu=1, coeffs={(2, 0): Fr(1), (0, 1): Fr(1)})
        with pytest.raises(NoRealRoot):
            biggest_real_root_branch(f, +1)

    def test_negative_side_of_same_family_is_real(self):
        f = PolynomialFamily(mu=1, coeffs={(2, 0): Fr(1), (0, 1): Fr(1)})
        b = biggest_real_root_branch(f, -1)
        assert b.rho == 2 and b.sigma.coeffs[1] == 1

    def test_irrational_leading_coefficient(self):
        f = PolynomialFamily(mu=1, coeffs={(2, 0): 1, (0, 1): Fr(-2)})
        b = biggest_real_root_branch(f, +1)
        assert b.rho == 2
        assert abs(float(b.sigma.coeffs[1]) - math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("eps", [1e-3, 0.02, 0.5, 0.0, np.float64(0.02), Fr(1, 50), Fr(0), 0])
    def test_theta_matches_exact_coefficients(self, eps):
        # theta = sigma(e_hat) with rational sigma, rho = 2: float points use
        # float copies of sigma's coefficients, with the same value and type
        f = PolynomialFamily(mu=2, coeffs={(3, 0): Fr(1), (1, 1): Fr(-1), (0, 2): Fr(-1, 3)})
        b = biggest_real_root_branch(f, +1)
        assert len(b.sigma.coeffs) > 2 and b.sigma.coeffs[2] == Fr(1, 6)
        got, want = b.theta(eps), horner(b.sigma.coeffs, b.e_hat(eps))
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("eps", [0.0, -0.3, Fr(-1, 3)])
    def test_theta_one_coefficient_sigma(self, eps):
        b = PuiseuxBranch(rho=1, sigma=TS.from_coeffs([Fr(0)]), sign=-1, exact=True)
        got = b.theta(eps)
        assert got == 0 and type(got) is Fr

    def test_nested_ramification(self):
        # x^2 = eps^2 (1 + eps): theta = eps sqrt(1+eps) = eps + eps^2/2 - ...
        f = PolynomialFamily(mu=1, coeffs={(2, 0): 1, (0, 2): Fr(-1), (0, 3): Fr(-1)})
        b = biggest_real_root_branch(f, +1)
        assert b.rho == 1
        assert b.sigma.coeffs[1] == 1
        assert abs(float(b.sigma.coeffs[2]) - 0.5) < 1e-12

    def test_ambiguous_branches(self):
        # (x - eps)(x - eps - eps^20): branches agree far past the order
        f = PolynomialFamily(
            mu=1,
            coeffs={
                (2, 0): Fr(1),
                (1, 1): Fr(-2),
                (1, 20): Fr(-1),
                (0, 2): Fr(1),
                (0, 21): Fr(1),
            },
        )
        with pytest.raises(BranchAmbiguous):
            biggest_real_root_branch(f, +1)

    def test_residual_invariant_on_grid(self):
        for fam, sign in ZOO:
            b = biggest_real_root_branch(fam, sign)
            for k in range(9, 2, -1):
                eps = sign * 10.0**-k
                pred = float(b.sigma(abs(eps) ** (1.0 / b.rho)))
                scale = max(1.0, sum(abs(float(c)) for c in fam.x_coeffs(eps)))
                assert abs(float(fam.eval(pred, eps))) <= 1e-9 * scale

    def test_tracker_finds_simple_roots(self):
        fam = fam_linear()
        assert abs(track_biggest_real_root(fam, [1e-4])[0] - 1e-4) < 1e-15

    @pytest.mark.parametrize(
        "coeffs,lead_index,lead",
        [
            ({(2, 0): 1, (0, 2): Fr(-1)}, 1, 1),  # roots +-eps
            ({(2, 0): 1, (1, 1): Fr(1), (0, 2): Fr(-2)}, 1, 1),  # eps vs -2eps
            ({(2, 0): 1, (1, 1): Fr(3), (0, 2): Fr(2)}, 1, -1),  # -eps vs -2eps
            # eps vs eps^2: smaller exponent wins for positive leads
            ({(2, 0): 1, (1, 1): Fr(-1), (1, 2): Fr(-1), (0, 3): Fr(1)}, 1, 1),
        ],
    )
    def test_biggest_selection_among_real_branches(self, coeffs, lead_index, lead):
        fam = PolynomialFamily(mu=1, coeffs=coeffs)
        b = biggest_real_root_branch(fam, +1)
        assert float(b.sigma.coeffs[lead_index]) == pytest.approx(lead, abs=1e-12)


class TestQ:
    def test_linear_family(self):
        fam = fam_linear()
        b = biggest_real_root_branch(fam, +1)
        Q = compute_Q(fam, b)
        assert Q.terms == {(1, 0): Fr(1), (0, 1): Fr(1)}

    def test_counterexample_Q(self):
        fam = fam_counterexample()
        b = biggest_real_root_branch(fam, +1)
        Q = compute_Q(fam, b)
        assert Q.terms == {
            (2, 0): Fr(1),
            (1, 1): Fr(-2),
            (0, 2): Fr(1),
            (0, 4): Fr(1),
        }

    def test_zero_slice_is_monomial(self):
        for fam, sign in ZOO:
            b = biggest_real_root_branch(fam, sign)
            Q = compute_Q(fam, b)
            slice0 = {i: c for (i, j), c in Q.terms.items() if j == 0}
            assert slice0 == {fam.mu: 1}

    def test_infinite_branch_with_mixed_terms(self):
        # x^2 - 2x eps - eps^2(1+eps): the branch eps(1 + sqrt(2+eps)) is an
        # infinite series; truncation residue past the branch order must not
        # break the divisibility check
        fam = PolynomialFamily(
            mu=1, coeffs={(2, 0): 1, (1, 1): Fr(-2), (0, 2): Fr(-1), (0, 3): Fr(-1)}
        )
        b = biggest_real_root_branch(fam, +1)
        assert not b.exact
        assert abs(float(b.sigma.coeffs[1]) - (1 + math.sqrt(2))) < 1e-12
        nd = newton_diagram(compute_Q(fam, b))
        # Q(0, e) = P'(theta) = 2 sqrt(2) e + ...
        assert abs(float(nd.chi) - 2 * math.sqrt(2)) < 1e-9
        assert nd.h1.holds


def divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out |= {d, n // d}
        d += 1
    return sorted(out) or [1]


def rational_roots_reference(p):
    """The rational roots of p by the rational root theorem: every p/q with
    p dividing the constant and q the leading coefficient of the integer
    polynomial is tried, in increasing order, and deflated while it is a
    root."""
    p = [Fr(c) for c in p]
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    den = math.lcm(*(c.denominator for c in p))
    ip = [int(c * den) for c in p]
    while ip and ip[0] == 0:
        ip = ip[1:]
    if len(ip) <= 1:
        return []
    cands = {Fr(sign * a, b) for a in divisors(ip[0]) for b in divisors(ip[-1]) for sign in (1, -1)}
    poly, roots = [Fr(c) for c in ip], []
    for c in sorted(cands):
        mult = 0
        while len(poly) > 1 and horner(poly, c) == 0:
            poly = deflate(poly, c)
            mult += 1
        if mult:
            roots.append((c, mult))
    return roots


def deflate(poly, c):
    """poly / (x - c) for a root c, by synthetic division (low first)."""
    out = [poly[-1]]
    for a in reversed(poly[1:-1]):
        out.append(a + c * out[-1])
    return out[::-1]


def times_linear(poly, a, b):
    """poly * (b x - a), low first."""
    return [b * y - a * x for x, y in zip(poly + [0], [0] + poly)]


@st.composite
def rational_root_poly(draw):
    """An integer multiple of prod (b x - a)^m over small-height roots a/b,
    times a factor without rational roots, or 1."""
    poly = [Fr(draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1])))]
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(-6, 6))
        b = draw(st.integers(1, 6))
        for _ in range(draw(st.integers(1, 3))):
            poly = times_linear(poly, Fr(a), Fr(b))
    extra = draw(st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [3, 0, 0, 1], [1, 1, 1]]))
    out = [Fr(0)] * (len(poly) + len(extra) - 1)
    for i, x in enumerate(poly):
        for j, y in enumerate(extra):
            out[i + j] += x * y
    return out


class TestRationalRoots:
    @given(p=rational_root_poly())
    @settings(max_examples=200, deadline=None)
    def test_matches_divisor_enumeration(self, p):
        assert _rational_roots(p) == rational_roots_reference(p)

    def test_large_root_stays_exact(self):
        # (7x - (10^12 + 1)) (x - 2)^2 (x^2 + 1)
        p = times_linear([Fr(1), Fr(0), Fr(1)], Fr(10**12 + 1), Fr(7))
        p = times_linear(times_linear(p, Fr(2), Fr(1)), Fr(2), Fr(1))
        assert _rational_roots(p) == [(Fr(2), 2), (Fr(10**12 + 1, 7), 1)]

    def test_close_roots_with_large_denominators(self):
        # the leading coefficient is 8.9e11, so telling these roots from
        # their neighbours with denominators up to it takes more than floats
        roots = [Fr(953, 947), Fr(971, 967), Fr(983, 977), Fr(997, 991)]
        p = [Fr(1)]
        for r in roots:
            p = times_linear(p, Fr(r.numerator), Fr(r.denominator))
        assert _rational_roots(p) == [(r, 1) for r in sorted(roots)]

    def test_large_constant_without_rational_root(self):
        # x^2 - (10^20 + 39): the divisor enumeration would run to 10^10
        assert _rational_roots([Fr(-(10**20 + 39)), Fr(0), Fr(1)]) == []


class TestDiagram:
    def test_linear(self):
        nd = newton_diagram(BivariatePoly({(1, 0): Fr(1), (0, 1): Fr(1)}))
        assert (nd.mu, nd.nu, nd.chi) == (1, 1, 1)
        assert nd.h1.holds

    def test_counterexample_diagram(self):
        fam = fam_counterexample()
        b = biggest_real_root_branch(fam, +1)
        nd = newton_diagram(compute_Q(fam, b))
        assert (nd.mu, nd.nu) == (2, 2)
        assert nd.h1.holds

    def test_degenerate(self):
        with pytest.raises(DegenerateQ):
            newton_diagram(BivariatePoly({(2, 0): 1, (1, 1): 1}))

    def test_h1_violation(self):
        # q_{1,1} below the segment (3,0)-(0,4): 1/3 + 1/4 < 1
        nd = newton_diagram(
            BivariatePoly({(3, 0): 1, (0, 4): 1, (1, 1): 1})
        )
        assert not nd.h1.holds
        assert nd.h1.witness == (1, 1)


class TestHypotheses:
    def test_h2_linear_true(self):
        nd = newton_diagram(BivariatePoly({(1, 0): Fr(1), (0, 1): Fr(1)}))
        assert check_h2(nd).holds

    def test_h2_counterexample_false_with_witness(self):
        fam = fam_counterexample()
        b = biggest_real_root_branch(fam, +1)
        nd = newton_diagram(compute_Q(fam, b))
        v = check_h2(nd)
        assert not v.holds
        assert abs(v.witness - math.pi / 4) < 1e-12

    def test_h2_circle(self):
        nd = newton_diagram(BivariatePoly({(2, 0): 1, (0, 2): 1}))
        assert check_h2(nd).holds

    def test_h2_inconclusive_margin(self):
        from dulackit.errors import Inconclusive

        # principal part 1 - sin(2 theta) + 1e-6 cos^2: positive minimum far
        # below the Lipschitz certification margin
        nd = newton_diagram(
            BivariatePoly({(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0 + 1e-6})
        )
        with pytest.raises(Inconclusive) as err:
            check_h2(nd)
        assert err.value.min_value > 0
        assert err.value.min_value <= err.value.margin

    def test_h0_positive(self):
        nd = newton_diagram(BivariatePoly({(1, 0): 1, (0, 1): 1}))
        assert check_h0(nd).holds

    def test_h0_negative(self):
        nd = newton_diagram(BivariatePoly({(1, 0): 1, (0, 2): -1}))
        assert not check_h0(nd).holds

    def test_counterexample_h0(self):
        fam = fam_counterexample()
        _, nd = analyze_family(fam, +1)
        assert nd.h0.holds and nd.h1.holds and not nd.h2.holds

    def test_analyze_family_records_inconclusive_h2(self):
        branch, nd = analyze_family(fam_inconclusive(), +1)
        assert branch.exact and all(c == 0 for c in branch.sigma.coeffs)
        assert nd.h0.holds and nd.h1.holds
        assert not nd.h2.holds
        assert nd.h2.detail.startswith("inconclusive:")
        assert abs(nd.h2.witness - math.pi / 4) < 1e-3

    def test_metatest_h2_implies_h0(self):
        for fam, sign in ZOO:
            _, nd = analyze_family(fam, sign)
            if nd.h2.holds:
                assert nd.h0.holds

    def test_metatest_coprime_h1_implies_h2(self):
        for fam, sign in ZOO:
            _, nd = analyze_family(fam, sign)
            if math.gcd(nd.mu, nd.nu) == 1 and nd.h1.holds:
                assert nd.h2.holds


class TestRandomFamilies:
    """Fuzz of the whole branch/Q pipeline on random rational families."""

    def _random_family(self, rng):
        mu = rng.choice([1, 2])
        coeffs = {(mu + 1, 0): Fr(1)}
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, mu)
            m = rng.randint(1, 3)
            c = Fr(rng.randint(-3, 3), rng.randint(1, 3))
            if c:
                coeffs[(k, m)] = coeffs.get((k, m), Fr(0)) + c
        coeffs = {km: c for km, c in coeffs.items() if c != 0}
        if max(k for k, _ in coeffs) != mu + 1:
            coeffs[(mu + 1, 0)] = Fr(1)
        return PolynomialFamily(mu=mu, coeffs=coeffs)

    def test_pipeline_on_random_rational_families(self):
        import random

        from dulackit.errors import DulacKitError

        rng = random.Random(777)
        produced = 0
        for _ in range(60):
            fam = self._random_family(rng)
            for sign in (+1, -1):
                try:
                    b = biggest_real_root_branch(fam, sign)
                except DulacKitError:
                    continue  # documented refusals are acceptable outcomes
                # accepted branches must satisfy the grid residual bound
                for k in (8, 5, 3):
                    eps = sign * 10.0**-k
                    pred = float(b.sigma(abs(eps) ** (1.0 / b.rho)))
                    scale = max(1.0, sum(abs(float(c)) for c in fam.x_coeffs(eps)))
                    assert abs(float(fam.eval(pred, eps))) <= 1e-9 * scale
                try:
                    nd = newton_diagram(compute_Q(fam, b))
                except DulacKitError:
                    continue
                slice0 = {i: c for (i, j), c in nd.Q.terms.items() if j == 0}
                assert slice0 == {fam.mu: 1}
                assert nd.nu >= 1 and nd.chi != 0
                produced += 1
        assert produced >= 40  # the generator must mostly produce live cases


def h2_reference(nd):
    """check_h2 written pointwise: g(theta) = sum_side float(q_ij) sin^i cos^j
    on the same grid, then the same decision.  Returns (holds, witness,
    detail), with holds = "inconclusive" and detail None below the margin."""
    side = [(i, j, c) for (i, j), c in nd.Q.terms.items() if i * nd.nu + j * nd.mu == nd.mu * nd.nu]
    h = (math.pi / 2) / _H2_GRID_POINTS

    def g(theta):
        acc = 0.0
        for i, j, c in side:
            acc += float(c) * math.sin(theta) ** i * math.cos(theta) ** j
        return acc

    # min() keeps the first minimizer, as a strict "<" scan does
    min_val, theta = min(((g(k * h), k * h) for k in range(_H2_GRID_POINTS + 1)), key=lambda p: p[0])
    margin = h * sum(abs(float(c)) * (i + j) for i, j, c in side)
    if min_val <= 0:
        return False, theta, f"principal part reaches {min_val:.3g} at theta={theta:.10g}"
    if min_val > margin:
        return True, theta, (
            f"grid minimum {min_val:.3g} at theta={theta:.6g} clears Lipschitz margin {margin:.3g}"
        )
    return "inconclusive", theta, None


@st.composite
def quasi_homogeneous_Q(draw):
    """Q with Q(s, 0) = s^mu, a compact side from (mu, 0) to (0, nu), and
    terms above it; rational or float coefficients.  Some draws are
    (a - b)^2 + delta b^2 on the side, a near miss of the grid margin."""
    exact = draw(st.booleans())
    coeff = (
        st.fractions(min_value=-3, max_value=3, max_denominator=12)
        if exact
        else st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False)
    )
    mu, nu = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    g = math.gcd(mu, nu)
    one = Fr(1) if exact else 1.0
    terms = {(mu, 0): one}
    if g >= 2 and draw(st.booleans()):
        a, b = mu // g, nu // g
        delta = draw(
            st.fractions(min_value=-1, max_value=1, max_denominator=10**7)
            if exact
            else st.floats(min_value=-1e-3, max_value=1e-3)
        )
        terms = {(2 * a, 0): one, (a, b): -2 * one, (0, 2 * b): one + delta}
        mu, nu = 2 * a, 2 * b
    else:
        terms[(0, nu)] = draw(coeff.filter(lambda c: c != 0))
        for k in range(1, g):
            terms[(k * mu // g, (g - k) * nu // g)] = draw(coeff)
    for i, j in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)), max_size=3)):
        if i * nu + j * mu > mu * nu:
            terms[(i, j)] = draw(coeff)
    return BivariatePoly({k: c for k, c in terms.items() if c != 0})


class TestH2Grid:
    @given(Q=quasi_homogeneous_Q())
    @settings(max_examples=200, deadline=None)
    def test_matches_pointwise_reference(self, Q):
        nd = newton_diagram(Q)
        holds, witness, detail = h2_reference(nd)
        if holds == "inconclusive":
            with pytest.raises(Inconclusive) as err:
                check_h2(nd)
            assert err.value.theta == witness
        else:
            v = check_h2(nd)
            assert (v.holds, v.witness, v.detail) == (holds, witness, detail)

    @given(Qs=st.lists(quasi_homogeneous_Q(), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_verdict_independent_of_table_order(self, Qs):
        # the power tables are cached per exponent: whichever Q asks first
        # fills them, and no verdict may depend on which one that was
        def outcome(Q):
            try:
                v = check_h2(newton_diagram(Q))
            except Inconclusive as exc:
                return "inconclusive", str(exc), exc.theta
            return v.holds, v.witness, v.detail

        def in_order(order):
            _h2_power_table.cache_clear()
            found = {n: outcome(Qs[n]) for n in order}
            return [found[n] for n in range(len(Qs))]

        assert in_order(range(len(Qs))) == in_order(reversed(range(len(Qs))))


def Q_reference(P, branch):
    """compute_Q with dense powers of sigma: products of truncated series,
    which multiply every pair of coefficients, exact zeros included."""
    max_m = max(m for _, m in P.coeffs)
    order_e = branch.sigma.order
    if branch.exact:
        order_e = max(branch.sigma.degree() * (P.mu + 1) + branch.rho * max_m, order_e)
    sigma = branch.sigma.padded(order_e)
    one = 1 if all(isinstance(c, (int, Fr)) for c in sigma.coeffs) else 1.0
    powers = [TS.constant(one, order_e), sigma]
    for _ in range(P.mu):
        powers.append(powers[-1] * sigma)
    acc, mag = {}, {}
    for (k, m), c in P.coeffs.items():
        for j in range(k + 1):
            for t, sc in enumerate(powers[k - j].coeffs):
                if sc != 0:
                    key = (j, t + branch.rho * m)
                    term = c * branch.sign**m * math.comb(k, j) * sc
                    acc[key] = acc.get(key, 0) + term
                    if isinstance(term, float):
                        mag[key] = mag.get(key, 0.0) + abs(term)
    if not branch.exact:
        acc = {(j, t): v for (j, t), v in acc.items() if t <= order_e}
    scale = max((abs(float(v)) for v in acc.values()), default=1.0)
    acc = {
        key: v for key, v in acc.items()
        if (abs(v) > _Q_CHOP * scale if isinstance(v, float) else v != 0)
    }
    for (j, t), v in acc.items():
        if j == 0 and (not isinstance(v, float) or abs(v) > 1e-9 * max(scale, mag.get((j, t), 0.0))):
            raise NotDivisible(f"constant term in s does not vanish (coefficient of e^{t} is {v!r})")
    Q = BivariatePoly({(j - 1, t): v for (j, t), v in acc.items() if j >= 1})
    slice0 = {i: c for (i, j), c in Q.terms.items() if j == 0}
    if slice0 != {P.mu: 1}:
        raise NotDivisible(f"Q(s, 0) != s^mu; got slice {slice0!r}")
    return Q


def Q_outcome(compute, P, branch):
    """The terms of Q in order with their types, or the exception raised."""
    try:
        Q = compute(P, branch)
    except DulacKitError as exc:
        return type(exc), str(exc)
    return [(key, type(v), v) for key, v in Q.terms.items()]


@st.composite
def random_family(draw):
    """P = x^(mu+1) + terms in eps, with rational, float, or mixed
    coefficients, and a side."""
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    # |c| >= 1e-6 or 0: a root of a characteristic polynomial with a tinier
    # coefficient overflows c ** k in _substitute_edge before Q is reached
    real = st.floats(min_value=-3, max_value=3).filter(lambda c: c == 0 or abs(c) >= 1e-6)
    coeff = {"exact": rational, "float": real, "mixed": rational | real}[kind]
    mu = draw(st.integers(1, 3))
    coeffs = {(mu + 1, 0): Fr(1)}
    for _ in range(draw(st.integers(1, 5))):
        coeffs[(draw(st.integers(0, mu)), draw(st.integers(1, 4)))] = draw(coeff)
    return PolynomialFamily(mu=mu, coeffs=coeffs), draw(st.sampled_from([1, -1]))


# x^2 (x - eps^2 - 1.25 eps^3): sigma = (0, 0, 1, 1.25, -0.0, ...) has
# exact zeros, an exact 1 and floats (-0.0 among them), so its powers have
# products of an exact zero and a float, which turn their sums into floats
MIXED_SIGMA = (
    PolynomialFamily(mu=2, coeffs={(3, 0): Fr(1), (2, 2): Fr(-1), (2, 3): -1.25}),
    1,
)


class TestQPowers:
    @given(problem=random_family())
    @example(problem=MIXED_SIGMA)
    @example(problem=(MIXED_SIGMA[0], -1))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_powers(self, problem):
        fam, sign = problem
        try:
            branch = biggest_real_root_branch(fam, sign)
        except DulacKitError:
            return  # no branch: compute_Q is not reached
        assert Q_outcome(compute_Q, fam, branch) == Q_outcome(Q_reference, fam, branch)

    def test_mixed_sigma_example(self):
        fam, sign = MIXED_SIGMA
        branch = biggest_real_root_branch(fam, sign)
        kinds = {type(c) for c in branch.sigma.coeffs if c != 0}
        assert kinds == {Fr, float}


def track_reference(P, eps):
    """The tracker at one point, with one np.roots call: float coefficients
    summed term by term, companion-matrix roots, three polishing Newton
    steps and a sign test across each real candidate."""
    coeffs = [0.0] * (P.mu + 2)
    for (k, m), c in P.coeffs.items():
        coeffs[k] += float(c) * float(eps) ** m
    rr = np.roots(list(reversed(coeffs)))
    dcoeffs = [coeffs[k] * k for k in range(1, len(coeffs))]
    best = 0.0 if coeffs[0] == 0.0 else None
    for i, r in enumerate(rr):
        if abs(r.imag) > 1e-6 * max(1.0, abs(r)):
            continue
        x = float(r.real)
        for _ in range(3):
            d = horner(dcoeffs, x)
            if d == 0:
                break
            step = horner(coeffs, x) / d
            if abs(step) > 0.5 * max(1.0, abs(x)):
                break
            x -= step
        gap = min((abs(complex(x, 0.0) - rr[j]) for j in range(len(rr)) if j != i), default=1.0)
        delta = max(1e-3 * gap, 1e-15 * max(1.0, abs(x)))
        if horner(coeffs, x - delta) * horner(coeffs, x + delta) < 0:
            if best is None or x > best:
                best = x
    return best


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def tracker_problem(draw):
    """(family, grid): rational, float or mixed coefficients on the
    validation grid of one side, a few other points, eps = 0 (where P is
    x^(mu+1)) and eps = 1; rows without a constant term, and rows whose
    leading term 1 - eps vanishes at eps = 1."""
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    real = st.floats(min_value=-3, max_value=3)
    coeff = {"exact": rational, "float": real, "mixed": rational | real}[kind]
    mu = draw(st.integers(1, 3))
    coeffs = {(mu + 1, 0): Fr(1)}
    for _ in range(draw(st.integers(1, 5))):
        coeffs[(draw(st.integers(0, mu + 1)), draw(st.integers(1, 4)))] = draw(coeff)
    if draw(st.booleans()):
        coeffs = {(k, m): c for (k, m), c in coeffs.items() if k <= mu}
        coeffs[(mu + 1, 0)], coeffs[(mu + 1, 1)] = Fr(1), Fr(-1)
    if draw(st.booleans()):
        coeffs = {(k, m): c for (k, m), c in coeffs.items() if k > 0}
    sign = draw(st.sampled_from([1, -1]))
    others = draw(st.lists(st.floats(min_value=-2, max_value=2), max_size=4))
    grid = [sign * e for e in _VALIDATION_GRID] + others + [0.0, 1.0]
    return PolynomialFamily(mu=mu, coeffs=coeffs), grid


class TestBatchedTracker:
    @given(problem=tracker_problem())
    @example(problem=(fam_linear(), [1e-4, 0.0, 1.0]))
    @example(problem=(PolynomialFamily(mu=1, coeffs={(2, 0): 1, (2, 1): -1, (1, 1): 0.5}), [1.0, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_point_roots(self, problem):
        fam, grid = problem
        expected = outcome(lambda: [track_reference(fam, e) for e in grid])
        assert outcome(track_biggest_real_root, fam, grid) == expected


def lift_reference(P1, order):
    """The lift by series Horner: step n evaluates P1(v_{<n}(z), z) as
    truncated series and reads off its z^n coefficient."""
    a10 = P1[(1, 0)]
    max_v = max(i for i, _ in P1)
    zero = 0 * a10
    A = [
        TS(tuple(sum((c for (i, jz), c in P1.items() if (i, jz) == (j, m)), zero) for m in range(order + 1)))
        for j in range(max_v + 1)
    ]
    v = [zero] * (order + 1)
    for n in range(1, order + 1):
        vs = TS(tuple(v[: n + 1]))
        acc = A[max_v].truncated(n)
        for j in range(max_v - 1, -1, -1):
            acc = acc * vs + A[j].truncated(n)
        v[n] = -acc[n] / a10
    return v[1:]


@st.composite
def lift_problem(draw):
    """(P1, order): P1(v, z) with a simple root v = 0 at z = 0, i.e.
    P1(0, 0) = 0 and a10 = [v z^0] P1 != 0."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)), max_size=8))
    keys += draw(st.lists(st.tuples(st.just(0), st.integers(1, 6)), max_size=3))  # v != 0
    P1 = {k: draw(coeff) for k in keys if k not in ((0, 0), (1, 0))}
    P1[(1, 0)] = draw(coeff.filter(lambda c: c != 0))
    return {k: c for k, c in P1.items() if c != 0}, draw(st.integers(0, 12))


LIFT_RTOL = 1e-12  # float lift against the series-Horner lift, of max |v_k|


class TestHenselLift:
    @given(problem=lift_problem())
    @settings(max_examples=150, deadline=None)
    def test_exact_lift_solves_and_equals_reference(self, problem):
        P1, order = problem
        v, _ = _hensel_lift(P1, order)
        assert v == lift_reference(P1, order)
        assert all(isinstance(c, Fr) for c in v)
        # P1(v(z), z) vanishes through z^order
        vz = TS((Fr(0),) + tuple(v))
        total = TS.zero(order, like=Fr(0))
        for (i, jz), c in P1.items():
            if jz <= order:
                power = TS.constant(Fr(1), order)
                for _ in range(i):
                    power = power * vz
                total = total + power.shifted_up(jz).truncated(order) * c
        assert total.is_zero()

    @given(problem=lift_problem(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_float_lift_within_tolerance(self, problem, data):
        P1, order = problem
        # all floats, or a mix of floats and rationals
        floats = data.draw(st.sets(st.sampled_from(sorted(P1))) | st.just(set(P1)))
        P1 = {k: float(c) if k in floats else c for k, c in P1.items()}
        v, exact = _hensel_lift(P1, order)
        ref = lift_reference(P1, order)
        assert [type(c) for c in v] == [type(c) for c in ref]
        assert not exact or not floats
        scale = max((abs(float(c)) for c in ref), default=0.0)
        for a, b in zip(v, ref):
            assert abs(float(a) - float(b)) <= LIFT_RTOL * scale
            if a == 0 and b == 0:
                assert math.copysign(1, a) == math.copysign(1, b)  # reports print -0.0
