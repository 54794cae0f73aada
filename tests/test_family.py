"""Branch extraction, the shifted quotient Q, and the hypothesis checks."""

import math
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dulackit.errors import (
    BranchAmbiguous,
    BranchNotFound,
    DegenerateQ,
    DulacKitError,
    Inconclusive,
    NoRealRoot,
    NotDivisible,
)
from dulackit.family import (
    DEFAULT_BRANCH_ORDER,
    _H2_GRID_POINTS,
    _Q_CHOP,
    _VALIDATION_GRID,
    _canonical_ramification,
    _h2_power_table,
    NewtonData,
    _compare_branches,
    _hensel_lift,
    _substitute_edge,
    _real_roots_with_multiplicity,
    _validate_branch,
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


CLOSE_ROOT = 1 + Fr(1, 10**20)  # float(CLOSE_ROOT) == 1.0

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

    @pytest.mark.parametrize("x, eps", [(0.3, 0.01), (-1.7, Fr(1, 3)), (2.5, -0.2), (1e-3, 1)])
    def test_eval_at_float_point_matches_exact_terms(self, x, eps):
        f = PolynomialFamily(
            mu=2,
            coeffs={(3, 0): 1, (2, 1): Fr(-1, 3), (1, 1): 0.7, (0, 2): Fr(5, 7), (0, 3): 3,
                    (1, 3): Fr(2**60 + 1, 2**60)},
        )
        want = 0 * x
        for (k, m), c in f.coeffs.items():
            want = want + c * x**k * eps**m
        got = f.eval(x, eps)
        assert got == want and type(got) is float


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

    @pytest.mark.parametrize(
        "coeffs, sign, c, theta",
        [
            # (x^2 - 2 eps^2)^2 - eps^5 with exact data: c = sqrt(2) is a float
            ({(4, 0): 1, (2, 2): Fr(-4), (0, 4): Fr(4), (0, 5): Fr(-1)}, 1, math.sqrt(2),
             1.41774e-4),
            ({(4, 0): 1, (2, 2): -4.0, (0, 4): 4.0, (0, 5): -1.0}, 1, math.sqrt(2), 1.41774e-4),
            # (x^2 - eps^2)^2 - eps^5 with float data: c = 1.0 carries rounding
            ({(4, 0): 1, (2, 2): -2.0, (0, 4): 1.0, (0, 5): -1.0}, 1, 1.0, None),
            # (x^2 - 2.5 eps^2)^2 + 2 eps^5 with float data on eps < 0: np.roots
            # splits the double root +sqrt(2.5) of phi into a complex pair
            ({(4, 0): 1, (2, 2): -5.0, (0, 4): 6.25, (0, 5): 2.0}, -1, math.sqrt(2.5), 1.58560e-4),
        ],
        ids=["sqrt2-exact-data", "sqrt2-float-data", "one-float-data", "split-pair-float-data"],
    )
    def test_multiple_float_characteristic_root(self, coeffs, sign, c, theta):
        # x^2 = c^2 e^2 + e^(5/2), e = |eps|: the edge's characteristic root c
        # is double and the next polygon gives rho = 2, once the Taylor terms
        # of P1 below the multiplicity, rounding noise at a float c, are dropped
        f = PolynomialFamily(mu=3, coeffs=coeffs)
        b = biggest_real_root_branch(f, sign)
        assert b.rho == 2 and not b.exact
        assert b.sigma.coeffs[1] == 0 and b.sigma.coeffs[2] == pytest.approx(c, rel=1e-15)
        grid = [sign * e for e in (1e-8, 1e-6, 1e-4, 1e-2)]
        for eps, root in zip(grid, track_biggest_real_root(f, grid)):
            assert b.theta(eps) == pytest.approx(root, rel=1e-12)
        if theta is not None:
            assert b.theta(sign * 1e-4) == pytest.approx(theta, rel=1e-5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_validation_refuses_non_finite_values(self, bad):
        # x^2 - x eps: a sigma with an inf or NaN coefficient passes every
        # comparison of the residual and root checks
        f = fam_linear()
        tracked = dict(zip(_VALIDATION_GRID, track_biggest_real_root(f, _VALIDATION_GRID)))
        with pytest.raises(BranchNotFound, match="left the float range"):
            _validate_branch(f, PuiseuxBranch(1, TS((0.0, 1.0, bad)), +1), tracked)

    @pytest.mark.parametrize("sign, sigma1, chi", [
        (1, CLOSE_ROOT, CLOSE_ROOT * (CLOSE_ROOT - 1)),
        (-1, 0, CLOSE_ROOT),
    ])
    def test_close_rational_roots(self, sign, sigma1, chi):
        # x (x - eps)(x - r eps), r = 1 + 10^-20: the characteristic roots 1
        # and r are the same float; both stay exact, and the branches are
        # told apart exactly
        r = CLOSE_ROOT
        f = PolynomialFamily(mu=2, coeffs={(3, 0): Fr(1), (2, 1): -1 - r, (1, 2): r})
        branch, nd = analyze_family(f, sign)
        assert branch.exact and branch.rho == 1
        assert branch.sigma.coeffs[1] == sigma1 and not any(branch.sigma.coeffs[2:])
        assert nd.h0.holds and nd.chi == chi

    @pytest.mark.parametrize("a, b, want", [
        (CLOSE_ROOT, Fr(1), 1),
        (Fr(1), CLOSE_ROOT, -1),
        (CLOSE_ROOT, 1.0, 1),  # a Fraction against a float, exactly
        (1.0, CLOSE_ROOT, -1),
        (Fr(1), 1.0, 0),
    ])
    def test_compare_branches_exactly(self, a, b, want):
        order = DEFAULT_BRANCH_ORDER
        pad = (0,) * (order - 1)
        assert _compare_branches((1, (0, a, *pad), True), (1, (0, b, *pad), True), order) == want

    def test_multiple_exact_characteristic_root(self):
        # (x^2 - eps^2)^2 - eps^5 with exact data: the double root c = 1 is
        # exact, its Taylor terms are exact zeros, and the branch keeps
        # rational coefficients: x = eps (1 + eps^(1/2))^(1/2)
        f = PolynomialFamily(
            mu=3, coeffs={(4, 0): 1, (2, 2): Fr(-2), (0, 4): Fr(1), (0, 5): Fr(-1)}
        )
        b = biggest_real_root_branch(f, +1)
        assert b.rho == 2 and not b.exact  # an infinite series
        assert b.sigma.coeffs[:6] == (0, 0, 1, Fr(1, 2), Fr(-1, 8), Fr(1, 16))

    def test_pure_double_root_is_degenerate(self):
        # (x^2 - 2 eps^2)^2: the biggest root sqrt(2) eps is double
        f = PolynomialFamily(mu=3, coeffs={(4, 0): 1, (2, 2): Fr(-4), (0, 4): Fr(4)})
        b = biggest_real_root_branch(f, +1)
        assert b.rho == 1 and b.sigma.coeffs[1] == pytest.approx(math.sqrt(2), rel=1e-15)
        with pytest.raises(DegenerateQ):
            analyze_family(f, +1)


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
def rational_root_poly(draw, close=False):
    """(p, roots): p an integer multiple of prod (b x - a)^m over small-height
    roots a/b, times a factor without rational roots, squared or not, or 1;
    roots its nonzero rational roots with their multiplicities, increasing.
    With close, p also has a pair of simple roots r and r + 1/(b 10^k),
    k = 18..22, closer than 1e-18."""
    poly = [Fr(draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1])))]
    planted = {}
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(-6, 6))
        b = draw(st.integers(1, 6))
        m = draw(st.integers(1, 3))
        for _ in range(m):
            poly = times_linear(poly, Fr(a), Fr(b))
        planted[Fr(a, b)] = planted.get(Fr(a, b), 0) + m
    if close:
        r = Fr(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 6)))
        s = r + Fr(1, r.denominator * 10 ** draw(st.integers(18, 22)))
        for c in (r, s):
            poly = times_linear(poly, Fr(c.numerator), Fr(c.denominator))
            planted[c] = planted.get(c, 0) + 1
    extra = draw(st.sampled_from([[1], [1, 0, 1], [-2, 0, 1], [3, 0, 0, 1], [1, 1, 1]]))
    for _ in range(draw(st.integers(1, 2))):
        out = [Fr(0)] * (len(poly) + len(extra) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(extra):
                out[i + j] += x * y
        poly = out
    return poly, sorted((c, m) for c, m in planted.items() if c != 0)


def rational_roots(p):
    """The exact roots among those _real_roots_with_multiplicity gives."""
    return [(c, m) for c, m in _real_roots_with_multiplicity(p) if isinstance(c, Fr)]


class TestRationalRoots:
    @given(problem=rational_root_poly())
    @settings(max_examples=200, deadline=None)
    def test_matches_divisor_enumeration(self, problem):
        p, planted = problem
        assert rational_roots(p) == rational_roots_reference(p) == planted

    @given(problem=rational_root_poly(close=True))
    @settings(max_examples=100, deadline=None)
    def test_close_planted_pairs(self, problem):
        # the pair's float roots snap to the same fraction, or to none, in
        # one pass; the rest is snapped again until nothing snaps
        p, planted = problem
        assert rational_roots(p) == planted

    def test_close_pair_in_one_quadratic(self):
        # (c - 1)(c - r), r = 1 + 10^-20: both float roots are 1.0
        r = CLOSE_ROOT
        assert _real_roots_with_multiplicity([r, -1 - r, Fr(1)]) == [(Fr(1), 1), (r, 1)]

    def test_large_root_stays_exact(self):
        # (7x - (10^12 + 1)) (x - 2)^2 (x^2 + 1)
        p = times_linear([Fr(1), Fr(0), Fr(1)], Fr(10**12 + 1), Fr(7))
        p = times_linear(times_linear(p, Fr(2), Fr(1)), Fr(2), Fr(1))
        assert rational_roots(p) == [(Fr(2), 2), (Fr(10**12 + 1, 7), 1)]

    def test_close_roots_with_large_denominators(self):
        # the leading coefficient is 8.9e11, so telling these roots from
        # their neighbours with denominators up to it takes more than floats
        roots = [Fr(953, 947), Fr(971, 967), Fr(983, 977), Fr(997, 991)]
        p = [Fr(1)]
        for r in roots:
            p = times_linear(p, Fr(r.numerator), Fr(r.denominator))
        assert rational_roots(p) == [(r, 1) for r in sorted(roots)]

    def test_large_constant_without_rational_root(self):
        # x^2 - (10^20 + 39): the divisor enumeration would run to 10^10
        assert rational_roots([Fr(-(10**20 + 39)), Fr(0), Fr(1)]) == []


class TestRootsWithMultiplicity:
    def test_squarefree_split(self):
        # (c^2 - 2)^2 (c - 1)^3 (c^2 + 1): the rational root is split off
        # exactly, the rest goes through Yun's loop
        p = [Fr(x) for x in (-4, 12, -12, 4, 3, -9, 8, 0, -3, 1)]
        roots = _real_roots_with_multiplicity(p)
        assert roots[0] == (Fr(1), 3)
        assert sorted(roots[1:]) == [
            (pytest.approx(-math.sqrt(2), rel=1e-15), 2),
            (pytest.approx(math.sqrt(2), rel=1e-15), 2),
        ]

    def test_rational_and_irrational_roots_in_one_factor(self):
        # ((x - 1/2)(x^2 - 2))^2 (7x - (10^12 + 1)): the squarefree factor of
        # multiplicity 2 holds 1/2 and +-sqrt(2)
        p = times_linear([Fr(4), Fr(0), Fr(-4), Fr(0), Fr(1)], Fr(1), Fr(2))
        p = times_linear(times_linear(p, Fr(1), Fr(2)), Fr(10**12 + 1), Fr(7))
        roots = _real_roots_with_multiplicity(p)
        assert roots[:2] == [(Fr(1, 2), 2), (Fr(10**12 + 1, 7), 1)]
        assert sorted(roots[2:]) == [
            (pytest.approx(-math.sqrt(2), rel=1e-15), 2),
            (pytest.approx(math.sqrt(2), rel=1e-15), 2),
        ]

    def test_float_double_roots_split_by_rounding(self):
        # (c^2 - 2.5)^2 in floats: np.roots splits each double root into a
        # pair, complex for +sqrt(2.5); the clusters are real
        roots = _real_roots_with_multiplicity([6.25, 0.0, -5.0, 0.0, 1.0])
        assert sorted(roots) == [
            (pytest.approx(-math.sqrt(2.5), rel=1e-15), 2),
            (pytest.approx(math.sqrt(2.5), rel=1e-15), 2),
        ]

    def test_canonical_ramification(self):
        # x = a t^2 + b t^4 + c t^6 with eps = t^2 is x = a e + b e^2 + c e^3
        a, b, c = Fr(3), Fr(-5, 2), 0.25
        assert _canonical_ramification(2, (0, 0, a, 0, b, 0, c), 6) == (
            1, (0, a, b, c, 0, 0, 0)
        )


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


def _ref_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _ref_deriv(p):
    return [p[k] * k for k in range(1, len(p))] or [0 * p[0]]


def _ref_divmod(a, b):
    a, b = list(a), _ref_trim(list(b))
    q = [0 * b[0]] * max(1, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = q[k] = a[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            a[k + i] = a[k + i] - c * bc
    return _ref_trim(q), _ref_trim(a)


def _ref_gcd(a, b):
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a[-1] != 0 else a


def _ref_sub(a, b):
    n = max(len(a), len(b))
    return _ref_trim([x - y for x, y in zip(a + [0 * a[0]] * (n - len(a)), b + [0 * b[0]] * (n - len(b)))])


def yun_reference(p):
    """Yun's algorithm over the rationals: [(i, b_i)] with b_i monic, or
    [(1, p)] if p is squarefree."""
    p = _ref_trim(list(p))
    dp = _ref_deriv(p)
    g = _ref_gcd(p, dp)
    if len(g) == 1:
        return [(1, p)]
    out, i = [], 1
    c = _ref_divmod(p, g)[0]
    d = _ref_sub(_ref_divmod(dp, g)[0], _ref_deriv(c))
    while len(c) > 1:
        b = _ref_gcd(c, d)
        if len(b) > 1:
            out.append((i, b))
        c = _ref_divmod(c, b)[0]
        d = _ref_sub(_ref_divmod(d, b)[0], _ref_deriv(c))
        i += 1
    return out


def nearest_fraction_root_reference(g, z):
    """Newton's method in fractions from z, rounded to the grid 2^-b,
    b = 2 bitlen(L) + 4, then the nearest fraction with denominator <= L."""
    L = abs(g[-1])
    ulp = Fr(1, 2 ** (2 * L.bit_length() + 4))
    dg, x = _ref_deriv(g), Fr(z)
    for _ in range(12):
        d = horner(dg, x)
        if d == 0:
            break
        step = horner(g, x) / d
        x = round((x - step) / ulp) * ulp
        if abs(step) < ulp:
            break
    return x.limit_denominator(L)


def roots_reference(phi):
    """_real_roots_with_multiplicity on exact data, in rational arithmetic:
    Yun's algorithm over the rationals, one pass per factor that snaps the
    near-real roots of its primitive integer multiple by Newton's method in
    fractions and divides each rational root out, then the float roots of
    what is left, from np.roots."""
    p = _ref_trim([Fr(c) for c in phi])
    while len(p) > 1 and p[0] == 0:
        p = p[1:]
    if len(p) <= 1:
        return []
    rational, floats = [], []
    for mult, b in yun_reference(p):
        den = math.lcm(*(c.denominator for c in b))
        g = [int(c * den) for c in b]
        g = [c // (math.gcd(*g) or 1) for c in g]
        cands = {
            nearest_fraction_root_reference(g, z.real)
            for z in np.roots([float(c) for c in reversed(g)])
            if math.isfinite(z.real) and abs(z.imag) <= 1e-4 * max(1.0, abs(z))
        }
        for c in sorted(cands):
            if horner(b, c) == 0:
                rational.append((c, mult))
                b = _ref_divmod(b, [-c, Fr(1)])[0]
        if len(b) > 1:
            floats += [
                (float(r.real), mult)
                for r in np.roots([float(c) for c in reversed(b)])
                if abs(r.imag) <= 1e-10 * max(1.0, abs(r))
            ]
    return [(c, m) for c, m in sorted(rational) + floats if c != 0]


def typed(items):
    """A list of pairs with each value's type and repr, so floats compare
    bit for bit (the sign of a zero included) and 1 differs from Fraction(1)."""
    return [(k, type(v), repr(v)) for k, v in items]


@st.composite
def squarefree_split_poly(draw):
    """A polynomial of rational_root_poly, or one with a repeated quadratic
    factor and rational roots of several multiplicities (Yun's loop)."""
    p, _ = draw(rational_root_poly())
    if draw(st.booleans()):
        q = draw(st.sampled_from([[-2, 0, 1], [-5, 0, 2], [1, -1, -1], [-3, 1, 1]]))
        for _ in range(draw(st.integers(1, 3))):
            p = [sum((p[i] * q[k - i] for i in range(len(p)) if 0 <= k - i < len(q)), Fr(0))
                 for k in range(len(p) + len(q) - 1)]
    return p


class TestRootsReference:
    @given(p=squarefree_split_poly())
    @example(p=[Fr(x) for x in (-4, 12, -12, 4, 3, -9, 8, 0, -3, 1)])
    @settings(max_examples=200, deadline=None)
    def test_exact_path_equals_reference(self, p):
        # the same roots, multiplicities, order and types; float roots bit
        # for bit, as np.roots gives them from the same polynomial
        assert typed(_real_roots_with_multiplicity(p)) == typed(roots_reference(p))


def substitute_reference(P, c, p, q):
    """P((c + v) z^p, z^q) / z^w term by term: coeff * C(k, j) * c^(k - j)
    added into the key (j, p k + q m - w) in P's order."""
    out = {}
    w = min(p * k + q * m for (k, m), a in P.items() if a != 0)
    for (k, m), coeff in P.items():
        for j in range(k + 1):
            key = (j, p * k + q * m - w)
            out[key] = out.get(key, 0) + coeff * math.comb(k, j) * c ** (k - j)
    return {key: v for key, v in out.items() if v != 0}


@st.composite
def edge_problem(draw):
    """(P, c, p, q): a sparse P(x, e) with rational, float or mixed
    coefficients, a rational or float root c and an edge slope p/q."""
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    rational |= st.integers(-4, 4).filter(bool)
    real = st.floats(min_value=-3, max_value=3).filter(bool)
    coeff = {"exact": rational, "float": real, "mixed": rational | real}[kind]
    keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), min_size=1, max_size=6, unique=True))
    P = {key: draw(coeff) for key in keys}
    c = draw(rational | real)
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g = math.gcd(p, q)
    return P, c, p // g, q // g


class TestSubstituteEdge:
    @given(problem=edge_problem())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, problem):
        # the same terms in the same order, of the same types and values
        P, c, p, q = problem
        got, want = _substitute_edge(P, c, p, q), substitute_reference(P, c, p, q)
        assert typed(got.items()) == typed(want.items())
