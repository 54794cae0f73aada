"""Branch extraction, the shifted quotient Q, and the hypothesis checks."""

import math
from fractions import Fraction as Fr

import pytest

from dulackit.errors import BranchAmbiguous, DegenerateQ, NoRealRoot
from dulackit.family import (
    NewtonData,
    PolynomialFamily,
    analyze_family,
    biggest_real_root_branch,
    check_h0,
    check_h2,
    compute_Q,
    newton_diagram,
    track_biggest_real_root,
)
from dulackit.series import BivariatePoly, TruncatedSeries as TS


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
        assert abs(track_biggest_real_root(fam, 1e-4) - 1e-4) < 1e-15

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
