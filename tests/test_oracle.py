"""Numeric kernels against closed forms and against each other."""

import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from dulackit.expansion import (
    DulacTimeSpec,
    ExpansionResult,
    UnfoldingSpec,
    coefficients,
)
from dulackit.oracle import (
    QuadratureConfig,
    dulac_map,
    dulac_time,
    flatness_report,
    log_dulac_map,
    particular_solution,
)
from dulackit.series import TruncatedSeries as TS

TIGHT = QuadratureConfig(ode_rel_tol=1e-12, ode_abs_tol=1e-15)


@pytest.fixture(scope="module")
def v_one_spec(fam_linear, branch_linear_plus):
    def make(lam=1.0, eps=0.0):
        return UnfoldingSpec(
            family=fam_linear,
            branch=branch_linear_plus,
            V=TS.constant(Fr(1), 2),
            U=TS.zero(2),
            lam=lam,
            eps=eps,
        )

    return make


class TestDulacMap:
    def test_identity_at_outer_section(self, v_one_spec):
        spec = v_one_spec(lam=3.0)
        assert dulac_map(spec, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_mu1(self, v_one_spec):
        # V = 1, eps = 0: the homogeneous solution is exp(lam (1 - 1/x))
        for lam in (1.0, 2.0):
            spec = v_one_spec(lam=lam)
            for s in (0.07, 0.4, 0.9):
                want = math.exp(lam * (1 - 1 / s))
                assert dulac_map(spec, s) == pytest.approx(want, rel=1e-9)

    def test_lambda_doubling_squares(self, v_one_spec):
        # the quadrature does not see lam, so the scaling is exact
        s = 0.2
        d1 = log_dulac_map(v_one_spec(lam=1.0), s)
        d2 = log_dulac_map(v_one_spec(lam=2.0), s)
        assert d2 == 2 * d1

    def test_underflow_is_zero(self, v_one_spec):
        assert dulac_map(v_one_spec(lam=50.0), 1e-3) == 0.0

    def test_without_endpoint_substitution(self, v_one_spec):
        # away from the root the raw quadrature must agree with the
        # log-substituted one
        spec = v_one_spec(lam=1.5)
        raw = QuadratureConfig(substitution=False, rel_tol=1e-10)
        a = log_dulac_map(spec, 0.3, raw)
        b = log_dulac_map(spec, 0.3)
        assert a == pytest.approx(b, rel=1e-9)

    def test_quadratic_family_closed_form(self, fam_quadratic):
        from dulackit.family import biggest_real_root_branch

        b = biggest_real_root_branch(fam_quadratic, +1)
        spec = UnfoldingSpec(
            family=fam_quadratic, branch=b,
            V=TS.constant(Fr(1), 2), U=TS.zero(2), lam=2.0, eps=0.0,
        )
        # V = 1, P = x^3: log D = lam * (1 - 1/s^2) / 2
        for s in (0.3, 0.7):
            want = 2.0 * 0.5 * (1 - 1 / s**2)
            assert log_dulac_map(spec, s) == pytest.approx(want, rel=1e-10)


class TestParticularSolution:
    def test_zero_u(self, v_one_spec):
        spec = v_one_spec(lam=2.0)
        assert particular_solution(spec, 1.0, 0.3) == 0.0

    def test_two_routes_agree(self, euler_spec):
        for s in (0.02, 0.1, 0.5):
            y_ode = particular_solution(euler_spec, 1.0, s, TIGHT, method="ode")
            y_quad = particular_solution(euler_spec, 1.0, s, TIGHT, method="quadrature")
            assert y_ode == pytest.approx(y_quad, rel=1e-9)

    def test_two_routes_agree_off_origin(self, fam_linear, branch_linear_plus):
        spec = UnfoldingSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.from_coeffs([Fr(1), Fr(1, 2)], order=3),
            U=TS.from_coeffs([Fr(1), Fr(0), Fr(1)], order=3),
            lam=5.0, eps=1e-3,
        )
        for s in (0.01, 0.2):
            y_ode = particular_solution(spec, 1.0, s, TIGHT, method="ode")
            y_quad = particular_solution(spec, 1.0, s, TIGHT, method="quadrature")
            assert y_ode == pytest.approx(y_quad, rel=1e-9)

    def test_negative_side_remainder_slope(self, fam_quadratic):
        # eps < 0: the root stays at 0 and the expansion must still match
        from dulackit.family import biggest_real_root_branch

        bm = biggest_real_root_branch(fam_quadratic, -1)
        spec = UnfoldingSpec(
            family=fam_quadratic, branch=bm,
            V=TS.from_coeffs([Fr(1), Fr(1, 2)], order=4),
            U=TS.from_coeffs([Fr(1), Fr(1)], order=3),
            lam=2.0, eps=-1e-3,
        )
        res = coefficients(spec, 2)
        s_grid = np.geomspace(1e-3, 1e-1, 12)
        diff = np.array(
            [
                abs(
                    particular_solution(spec, 1.0, float(s), TIGHT, method="quadrature")
                    - float(res.partial_sum(float(s)))
                )
                for s in s_grid
            ]
        )
        slope = np.polyfit(np.log(s_grid), np.log(diff), 1)[0]
        assert slope >= 2.8

    def test_shrinks_linearly_near_x0(self, euler_spec):
        vals = [abs(particular_solution(euler_spec, 1.0, 1.0 - d)) for d in (1e-3, 2e-3)]
        assert vals[1] == pytest.approx(2 * vals[0], rel=0.05)

    def test_linear_in_u(self, fam_linear, branch_linear_plus):
        cfg = QuadratureConfig()
        U1 = TS.from_coeffs([Fr(1), Fr(1)], order=2)
        U2 = TS.from_coeffs([Fr(0), Fr(0), Fr(1)])
        mk = lambda U: UnfoldingSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.constant(Fr(1), 2), U=U, lam=2.0, eps=0.0,
        )
        a, b = 0.75, -1.5
        s = 0.15
        y1 = particular_solution(mk(U1), 1.0, s, cfg)
        y2 = particular_solution(mk(U2), 1.0, s, cfg)
        y3 = particular_solution(mk(U1.padded(2) * Fr(3, 4) + U2 * Fr(-3, 2)), 1.0, s, cfg)
        assert abs(y3 - (a * y1 + b * y2)) <= 10 * cfg.ode_rel_tol * max(1.0, abs(y3))


class TestDulacTime:
    def test_zero_integrand(self, fam_linear, branch_linear_plus):
        ts = DulacTimeSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.constant(Fr(1), 2), eps=0.0, modes=(TS.zero(2),),
        )
        assert dulac_time(ts, 0.2) == pytest.approx(0.0, abs=1e-13)

    def test_single_mode_equals_particular_solution(self, fam_linear, branch_linear_plus):
        V = TS.from_coeffs([Fr(2), Fr(1)], order=3)
        U = TS.from_coeffs([Fr(1), Fr(1)], order=2)
        ts = DulacTimeSpec(family=fam_linear, branch=branch_linear_plus, V=V, eps=0.0, modes=(U,))
        spec = UnfoldingSpec(family=fam_linear, branch=branch_linear_plus, V=V, U=U, lam=1, eps=0.0)
        for s in (0.03, 0.15, 0.4):
            t = dulac_time(ts, s)
            y = particular_solution(spec, 1.0, s, TIGHT, method="ode")
            assert t == pytest.approx(y, rel=1e-9)

    def test_monotone_decreasing_for_positive_integrand(self, fam_linear, branch_linear_plus):
        ts = DulacTimeSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.constant(Fr(1), 2), eps=0.0,
            modes=(TS.constant(Fr(1), 2), TS.from_coeffs([Fr(1, 2)], order=2)),
        )
        ts_vals = [dulac_time(ts, s) for s in (0.01, 0.05, 0.2)]
        assert ts_vals[0] > ts_vals[1] > ts_vals[2]


class TestFlatness:
    @staticmethod
    def euler_values(euler_spec, s_grid):
        return [particular_solution(euler_spec, 1.0, s, TIGHT, method="quadrature") for s in s_grid]

    def test_zero_u_dulac_map_flat(self, v_one_spec):
        spec = v_one_spec(lam=1.0)
        s_grid = np.geomspace(1e-3, 1e-1, 25)
        values = [dulac_map(spec, s) for s in s_grid]
        res = ExpansionResult(c=(0.0,), ell=0)
        rep = flatness_report(values, res, 1.0, {"case": "d"}, s_grid, k=1, tol=1e-3)
        assert all(rep.decay_ok)

    def test_euler_remainder_slope(self, euler_spec):
        res = coefficients(euler_spec, 2)
        s_grid = np.geomspace(1e-3, 1e-1, 25)
        values = self.euler_values(euler_spec, s_grid)
        rep = flatness_report(values, res, 1.0, {"case": "euler"}, s_grid, k=1, tol=0.1)
        assert all(rep.decay_ok)
        assert rep.fitted_slope == pytest.approx(3.0, abs=0.15)

    def test_second_scale_derivative_decays(self, euler_spec):
        # the remainder stays flat under two applications of the scale
        # derivative, not just one
        res = coefficients(euler_spec, 1)
        s_grid = np.geomspace(1e-3, 1e-1, 33)
        values = self.euler_values(euler_spec, s_grid)
        rep = flatness_report(values, res, 1.0, {"case": "euler"}, s_grid, k=2, tol=0.2)
        assert all(rep.decay_ok)

    def test_wrong_coefficient_fails(self, euler_spec):
        res = coefficients(euler_spec, 1)
        bad = ExpansionResult(c=(float(res.c[0]), float(res.c[1]) + 0.3), ell=1)
        s_grid = np.geomspace(1e-3, 1e-1, 25)
        values = self.euler_values(euler_spec, s_grid)
        rep = flatness_report(values, bad, 1.0, {"case": "bad"}, s_grid, k=1, tol=0.1)
        assert not rep.decay_ok[0]

    @pytest.mark.parametrize("n, k", [(8, 2), (12, 2), (8, 1)])
    def test_short_grid_is_a_value_error(self, n, k):
        # two points per side go to each scale derivative, and 5 must remain
        s_grid = np.geomspace(1e-3, 1e-1, n)
        res = ExpansionResult(c=(0.0,), ell=0)
        with pytest.raises(ValueError, match=rf"s_grid n = {n} is below 4k \+ 5"):
            flatness_report(np.ones(n), res, 1.0, {"case": "d"}, s_grid, k=k, tol=0.1)

    def test_csv_and_json_shapes(self, euler_spec):
        res = coefficients(euler_spec, 1)
        s_grid = np.geomspace(1e-3, 1e-1, 13)
        values = self.euler_values(euler_spec, s_grid)
        label = {"case": "euler", "eps": 0.0}
        rep = flatness_report(values, res, 1.0, label, s_grid, k=2, tol=0.5)
        rows = list(rep.to_csv_rows())
        assert rows[0] == ["case", "eps", "lambda", "s", "value", "h", "theta1_h", "theta2_h"]
        assert len(rows) == 14
        summary = rep.to_json()
        assert set(summary) >= {"ell", "k", "decay_ok", "fitted_slopes"}
