"""Truncated series arithmetic and the two structural operators."""

import json
import random
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulackit.errors import (
    DivisionByNonUnit,
    NonpositiveLambda,
    OrderExhausted,
)
from dulackit.series import BivariatePoly, TruncatedSeries as TS, horner, horner_source

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


def rational_series(min_order=2, max_order=8):
    return st.lists(rationals, min_size=min_order + 1, max_size=max_order + 1).map(
        lambda cs: TS(tuple(cs))
    )


def geometric(ratio, order):
    return TS(tuple(ratio**j for j in range(order + 1)))


class TestArithmetic:
    def test_add_cancellation(self):
        f = TS((Fr(1), Fr(1)))
        g = TS((Fr(1), Fr(-1)))
        assert f + g == TS((Fr(2), Fr(0)))

    def test_add_identity(self):
        f = TS((Fr(2), Fr(3), Fr(5)))
        assert f + TS.zero(2) == f

    def test_add_order_is_minimum(self):
        f = TS((Fr(1), Fr(2), Fr(3)))
        g = TS((Fr(1), Fr(1)))
        assert f + g == TS((Fr(2), Fr(3)))

    def test_mul(self):
        f = TS.from_coeffs([1, 1], order=2)
        g = TS.from_coeffs([1, -1], order=2)
        assert (f * g).coeffs == (1, 0, -1)

    def test_div_geometric(self):
        one = TS.constant(Fr(1), 3)
        g = TS.from_coeffs([Fr(1), Fr(-1)], order=3)
        assert (one / g).coeffs == (1, 1, 1, 1)

    def test_div_needs_unit(self):
        with pytest.raises(DivisionByNonUnit):
            TS.constant(Fr(1), 2) / TS((Fr(0), Fr(1), Fr(0)))

    def test_shift_is_taylor_recentering(self):
        f = TS.from_coeffs([Fr(0), Fr(0), Fr(1)])  # s^2
        assert f.shift(Fr(1)).coeffs == (1, 2, 1)

    @given(f=rational_series(), g=rational_series())
    @settings(max_examples=60, deadline=None)
    def test_mul_div_inverse(self, f, g):
        if g.coeffs[0] == 0:
            g = g + Fr(1)
        assert (f * g) / g == f.truncated(min(f.order, g.order))

    @given(f=rational_series(), g=rational_series())
    @settings(max_examples=60, deadline=None)
    def test_norm_subadditive_submultiplicative(self, f, g):
        k = min(f.order, g.order)
        assert (f + g).norm_ell1() <= f.truncated(k).norm_ell1() + g.truncated(k).norm_ell1()
        assert (f * g).norm_ell1() <= f.norm_ell1() * g.norm_ell1()


class TestFloatPoints:
    """A series sums its float copy at float points and numpy arrays, with
    the value and type the exact coefficients give; other points stay exact."""

    coeff = st.one_of(
        rationals,
        st.integers(min_value=-10**20, max_value=10**20),
        st.floats(min_value=-4, max_value=4),
    )
    point = st.floats(min_value=-3, max_value=3)

    @given(
        coeffs=st.lists(coeff, min_size=1, max_size=7),
        xs=st.lists(point, min_size=1, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_float_copy_matches_exact_horner(self, coeffs, xs):
        f = TS(tuple(coeffs))
        for x in xs + [2, Fr(1, 3), np.float64(0.5)]:
            got, want = f(x), horner(f.coeffs, x)
            assert got == want and type(got) is type(want)
        values = f(np.array(xs))
        assert values.dtype == np.float64 and values.shape == (len(xs),)
        assert values.tolist() == [float(f(x)) for x in xs]


class TestHornerSource:
    """The generated Horner expression is horner's sum, bit for bit."""

    # signed zeros, subnormals and entries whose products overflow
    SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -3.7e300, 1.0, -1.0]

    def test_shape(self):
        assert horner_source(["c0"], "x", "p") == ["p = c0"]
        assert horner_source(["c0", "c1", "c2"], "x", "p") == ["p = c2", "p = p * x + c1", "p = p * x + c0"]

    @staticmethod
    def compiled(n):
        names = [f"c{j}" for j in range(n)]
        body = "".join(f"    {line}\n" for line in horner_source(names, "x", "p"))
        namespace = {}
        exec(f"def f(x, {', '.join(names)}):\n{body}    return p\n", namespace)
        return namespace["f"]

    def test_equals_horner(self):
        rng = random.Random(20)
        for _ in range(2000):
            n = rng.randint(1, 8)
            coeffs = [rng.choice(self.SPECIAL) if rng.random() < 0.3 else rng.uniform(-4.0, 4.0)
                      for _ in range(n)]
            f = self.compiled(n)
            points = [rng.uniform(-1.0, 1.0), rng.uniform(-1e3, 1e3), rng.choice([-0.0, 5e-324, -1e10, 1e300])]
            for x in points:
                # repr: equal floats, the sign of a zero included, and NaN for NaN
                assert repr(f(x, *coeffs)) == repr(horner(coeffs, x)), (coeffs, x)

    def test_long_sum_compiles(self):
        """Past the parser's 200 nested parentheses."""
        coeffs = [1.0 / (j + 1) for j in range(500)]
        assert self.compiled(500)(0.99, *coeffs) == horner(coeffs, 0.99)


class TestOperators:
    def test_nabla_constant(self):
        assert TS.constant(Fr(7), 3).nabla().is_zero()

    def test_nabla_monomial_law(self):
        # the shift-down law on s^m g(s) for all k <= m <= 8
        g = TS(tuple(Fr(j + 1, 3) for j in range(5)))
        for m in range(1, 9):
            for k in range(m + 1):
                f = g.shifted_up(m)
                for _ in range(k):
                    f = f.nabla()
                assert f == g.shifted_up(m - k)

    def test_nabla_geometric_fixed_point(self):
        g = geometric(Fr(1), 6)  # 1/(1-s)
        assert g.nabla() == g.truncated(5)

    def test_nabla_exhausts(self):
        with pytest.raises(OrderExhausted):
            TS((Fr(1),)).nabla()

    @given(
        f=rational_series(),
        g=rational_series(),
        a=rationals,
        b=rationals,
    )
    @settings(max_examples=60, deadline=None)
    def test_nabla_linear(self, f, g, a, b):
        k = min(f.order, g.order)
        if k < 1:
            return
        lhs = (f * a + g * b).nabla()
        rhs = f.truncated(k).nabla() * a + g.truncated(k).nabla() * b
        assert lhs == rhs

    def test_theta_examples(self):
        assert TS.constant(Fr(5), 2).theta(Fr(3)).is_zero()
        assert TS.monomial(3, 3).theta(1).coeffs == (0, 0, 0, 3)
        assert TS((Fr(0), Fr(1), Fr(1))).theta(Fr(2)).coeffs == (0, Fr(1, 2), 1)

    def test_theta_needs_positive_lambda(self):
        with pytest.raises(NonpositiveLambda):
            TS.constant(1, 1).theta(0)

    @given(f=rational_series(), g=rational_series())
    @settings(max_examples=60, deadline=None)
    def test_theta_leibniz(self, f, g):
        lam = Fr(3, 2)
        lhs = (f * g).theta(lam)
        rhs = f * g.theta(lam) + g * f.theta(lam)
        assert lhs == rhs.truncated(lhs.order)

    def test_norm_examples(self):
        assert TS.zero(3).norm_ell1() == 0
        assert TS((Fr(1), Fr(-2), Fr(3))).norm_ell1() == 6
        geo = geometric(Fr(1, 2), 10)
        assert geo.norm_ell1() == 2 - Fr(1, 2) ** 10


class TestSerialization:
    def test_round_trip_rational(self):
        f = TS((Fr(1, 3), Fr(-2), Fr(0), Fr(5, 7)))
        data = json.dumps(f.to_json())
        assert TS.from_json(json.loads(data)) == f

    def test_round_trip_float(self):
        f = TS((0.1, -2.5, 3e-17))
        g = TS.from_json(f.to_json())
        assert g.coeffs == f.coeffs
        assert all(isinstance(c, float) for c in g.coeffs)

    def test_rational_tokens(self):
        assert TS((Fr(1, 2),)).to_json() == ["1/2"]


class TestBivariate:
    def test_eval_example_polynomial(self):
        q = BivariatePoly({(2, 0): 1, (1, 1): -2, (0, 2): 1, (0, 4): 1})
        assert q.eval(1, 1) == 1

    def test_eval_projection(self):
        q = BivariatePoly({(1, 0): 1})
        assert q.eval(3, 123.0) == 3

    def test_restrict_at_zero_gives_monomial(self):
        q = BivariatePoly({(2, 0): Fr(1), (1, 1): Fr(-2), (0, 2): Fr(1)})
        r = q.restrict(Fr(0), order=4)
        assert r == TS.monomial(2, 4, Fr(1))

    def test_no_zero_terms_stored(self):
        q = BivariatePoly({(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in q.terms

    def test_json_round_trip(self):
        q = BivariatePoly({(2, 0): Fr(1), (0, 2): Fr(-1, 3)})
        assert BivariatePoly.from_json(q.to_json()) == q
