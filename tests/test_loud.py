"""Chart geometry, the explicit first-order coefficient, and the period."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dulackit.errors import (
    BranchCut,
    NegativeG,
    OnSection,
    PoleAtNonPositiveInteger,
)
from dulackit.loud import (
    LoudParams,
    c1_hat,
    c1_hat_limit,
    chart_field_pushforward,
    chart_inverse,
    chart_transform,
    dulac_map_node,
    first_integral,
    g_poly,
    gamma,
    loud_modes,
    loud_rhs,
    normal_coordinates,
    normal_form_field,
    normal_to_chart,
    normal_to_plane,
    period_numeric,
    period_via_decomposition,
    regularity_check,
    time_to_entry,
    ua,
    y_section_height,
)

P_REF = LoudParams(D=-0.25, F=1.0)


class TestCharts:
    def test_point_map(self):
        assert chart_transform(0.0, 1.0) == (1.0, 1.0)

    def test_round_trip(self):
        for u, v in [(0.3, 0.4), (-1.2, 2.0), (0.9, -0.5)]:
            z, w = chart_transform(u, v)
            u2, v2 = chart_inverse(z, w)
            assert abs(u - u2) < 1e-14 and abs(v - v2) < 1e-14

    def test_v_to_zero_is_infinity(self):
        _, w = chart_transform(0.5, 1e-9)
        assert w > 1e8

    def test_on_section(self):
        with pytest.raises(OnSection):
            chart_transform(0.2, 0.0)
        with pytest.raises(OnSection):
            chart_inverse(1.0, 0.0)

    def test_g_on_axis(self):
        # g(z, 0) = -1/(2D) > 0 on (-1, 0)
        for D in (-0.9, -0.5, -0.1):
            p = LoudParams(D=D, F=1.0)
            assert g_poly(0.7, 0.0, p) == pytest.approx(-1 / (2 * D))

    def test_normal_on_axis(self):
        # y = 0 maps to y = 0 with x = z sqrt(-2D)
        z = 0.4
        x, y = normal_coordinates(z, 0.0, P_REF)
        assert y == 0.0
        assert x == pytest.approx(z * math.sqrt(-2 * P_REF.D))

    def test_negative_g(self):
        assert g_poly(5.0, 0.5, P_REF) < 0
        with pytest.raises(NegativeG):
            normal_coordinates(5.0, 0.5, P_REF)

    def test_normal_round_trip(self):
        for x, y in [(0.2, 0.1), (0.6, 0.05), (0.05, 0.15)]:
            z, w = normal_to_chart(x, y, P_REF)
            x2, y2 = normal_coordinates(z, w, P_REF)
            assert abs(x - x2) < 1e-13 and abs(y - y2) < 1e-13

    def test_ua_at_origin(self):
        for D in (-0.8, -0.25):
            p = LoudParams(D=D, F=1.0)
            assert ua(0.0, 0.0, p) == pytest.approx((-D / 2) ** -0.5)

    def test_field_match(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(0.05, 0.7)
            y = rng.uniform(0.01, 0.25)
            z, w = normal_to_chart(x, y, P_REF)
            f_chart = chart_field_pushforward(z, w, P_REF)
            f_normal = normal_form_field(x, y, P_REF)
            scale = max(abs(f_normal[0]), abs(f_normal[1]), 1.0)
            worst = max(
                worst,
                abs(f_chart[0] - f_normal[0]) / scale,
                abs(f_chart[1] - f_normal[1]) / scale,
            )
        assert worst <= 1e-10


class TestFirstIntegral:
    def test_conserved_along_orbit(self):
        p = LoudParams(D=-0.25, F=1 - 1e-4)
        sol = solve_ivp(loud_rhs(p), (0, 12), [0.4, 0.0], rtol=1e-10, atol=1e-12, dense_output=True)
        vals = []
        for t in np.linspace(0.3, 11.5, 250):
            u, v = sol.sol(t)
            if abs(v) > 0.05:
                vals.append(first_integral(*chart_transform(u, v), p))
        vals = np.array(vals)
        ref = np.median(vals)
        assert len(vals) > 100
        assert np.max(np.abs(vals - ref)) / abs(ref) <= 1e-6

    def test_two_points_one_orbit(self):
        p = LoudParams(D=-0.25, F=1 - 1e-4)
        sol = solve_ivp(loud_rhs(p), (0, 1.0), [0.4, 0.0], rtol=1e-12, atol=1e-14, dense_output=True)
        a = first_integral(*chart_transform(*sol.sol(0.4)), p)
        b = first_integral(*chart_transform(*sol.sol(0.9)), p)
        assert a == pytest.approx(b, rel=1e-8)

    def test_exponential_limit_form_continuity(self):
        z, w = 1.3, 0.4
        near = first_integral(z, w, LoudParams(D=-0.25, F=1 - 1e-9))
        at = first_integral(z, w, LoudParams(D=-0.25, F=1.0))
        assert near == pytest.approx(at, rel=1e-6)

    def test_branch_cut(self):
        with pytest.raises(BranchCut):
            first_integral(3.0, 3.0, LoudParams(D=-0.25, F=0.6))


class TestModes:
    def test_leading_mode_constant_term(self):
        me = loud_modes(P_REF, order=8)
        assert float(me.modes[0].coeffs[0]) == pytest.approx((-P_REF.D / 2) ** -0.5)

    def test_half_d_kills_even_modes(self):
        me = loud_modes(LoudParams(D=-0.5, F=1.0), order=6)
        assert all(abs(c) < 1e-15 for c in me.modes[1].coeffs)

    def test_mode_sum_matches_closed_form(self):
        me = loud_modes(P_REF, order=10, n_modes=30)
        x, y = 0.3, 0.15
        approx = sum(float(me.modes[n](x)) * y**n for n in range(len(me.modes)))
        assert approx == pytest.approx(ua(x, y, P_REF), abs=1e-10)

    def test_certificate_bounds_norms(self):
        me = loud_modes(P_REF, order=10, n_modes=30)
        for n, m in enumerate(me.modes, start=1):
            assert float(m.norm_ell1()) <= me.C * me.r**n * (1 + 1e-12)

    def test_scaled_tail_is_finite(self):
        me = loud_modes(P_REF, order=10)
        y0 = y_section_height(P_REF)
        assert me.r * y0 < 1.0
        tail = sum(float(m.norm_ell1()) * y0**n for n, m in enumerate(me.modes, start=1))
        assert tail < math.inf


class TestGamma:
    def test_exact_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_against_stdlib(self):
        grid = [0.5 + 0.25 * k for k in range(39)]  # 0.5 .. 10
        for x in grid:
            assert abs(gamma(x) / math.gamma(x) - 1) <= 1e-12

    def test_reflection(self):
        for x in (-0.5, -1.3, 0.2):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma(0.0)
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma(-3.0)


class TestC1Hat:
    def test_zero_at_half(self):
        for F in (0.8, 0.999, 1.2):
            assert c1_hat(LoudParams(D=-0.5, F=F)) == 0.0

    def test_limit_from_below(self):
        for D in (-0.9, -0.75, -0.25, -0.1):
            val = c1_hat(LoudParams(D=D, F=1 - 1e-4))
            assert abs(val - c1_hat_limit(D)) <= 1e-2

    def test_limit_value_at_three_quarters(self):
        assert c1_hat_limit(-0.75) == pytest.approx(-8.0, rel=1e-14)

    def test_continuity_probe(self):
        got = c1_hat(LoudParams(D=-0.25, F=0.999))
        want = 2 * 0.5 / 0.75**1.5
        assert abs(got - want) <= 1e-2


class TestDulacMapNode:
    def test_flatness_order_one(self):
        vals = [dulac_map_node(P_REF, s) / s for s in (0.3, 0.2, 0.12)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-10

    def test_closed_form_at_f1(self):
        # eps = 0, V = 1 - x^2/2F, lam = 2F: log D = F(1 - 1/s^2) - log s
        p = LoudParams(D=-0.4, F=1.0)
        for s in (0.4, 0.8):
            want = math.exp(p.F * (1 - 1 / s**2)) / s
            assert dulac_map_node(p, s) == pytest.approx(want, rel=1e-9)

    def test_monotone(self):
        vals = [dulac_map_node(P_REF, s) for s in (0.15, 0.2, 0.3)]
        assert vals[0] < vals[1] < vals[2]


class TestPeriod:
    def test_direct_matches_single_chart_integration(self):
        # at moderate s the whole half loop fits in the plane chart
        p = P_REF
        s = 0.25
        y0 = y_section_height(p)
        t_back = time_to_entry(p, s)
        u0, v0 = normal_to_plane(s, y0, p)
        back = lambda t, y: [v for v in (-loud_rhs(p)(t, y)[0], -loud_rhs(p)(t, y)[1])]
        ev = lambda t, y: y[1]
        ev.terminal = True
        sol_b = solve_ivp(back, (0, 50), [u0, v0], events=ev, rtol=1e-12, atol=1e-14)
        u_start = sol_b.y[0, -1]
        ev2 = lambda t, y: y[1]
        ev2.terminal = True
        ev2.direction = -1.0
        sol = solve_ivp(
            loud_rhs(p), (0, 100), [u_start, 0.0], events=ev2,
            rtol=1e-12, atol=1e-14, first_step=1e-8,
        )
        assert sol.status == 1
        half_plane = sol.t_events[0][0]
        assert period_numeric(p, s) == pytest.approx(2 * half_plane, rel=1e-8)

    def test_symmetry_half_is_half_of_full_loop(self):
        # measure one full loop directly (no symmetry) and compare with the
        # doubled half-return the period integrator uses
        p = P_REF
        s = 0.25
        y0 = y_section_height(p)
        u0, v0 = normal_to_plane(s, y0, p)
        back = lambda t, y: [-f for f in loud_rhs(p)(t, y)]
        ev = lambda t, y: y[1]
        ev.terminal = True
        solb = solve_ivp(back, (0, 50), [u0, v0], events=ev, rtol=1e-12, atol=1e-14)
        u_start = solb.y[0, -1]
        up = lambda t, y: y[1]
        up.direction = 1.0  # full loop: next upward crossing of v = 0
        sol = solve_ivp(
            loud_rhs(p), (0, 20), [u_start, 0.0], events=up,
            rtol=1e-12, atol=1e-14, first_step=1e-8,
        )
        crossings = [t for t in sol.t_events[0] if t > 0.5]
        assert crossings
        assert period_numeric(p, s) == pytest.approx(crossings[0], rel=1e-7)

    def test_decomposition_cross_check(self):
        for s in (0.05, 0.01, 0.002):
            direct = period_numeric(P_REF, s)
            decomp = period_via_decomposition(P_REF, s)
            assert direct == pytest.approx(decomp, abs=1e-7)

    def test_finite_and_monotone_toward_polycycle(self):
        vals = [period_numeric(P_REF, s) for s in (1e-3, 3e-3, 1e-2)]
        assert all(np.isfinite(vals))
        assert vals[0] < vals[1] < vals[2]

    def test_regularity_signs(self):
        rep = regularity_check([-0.9, -0.5, -0.1], F=1.0, s_grid=np.geomspace(1e-3, 1e-2, 5))
        rows = {r.D: r for r in rep.rows}
        assert rows[-0.9].sign == -rows[-0.1].sign != 0
        assert rows[-0.5].near_zero
        assert rows[-0.9].coherent and rows[-0.1].coherent

    def test_node_passage_coefficients_match_numeric_fit(self):
        # summed mode coefficients against a fit of the numeric passage time,
        # which evaluates the closed-form integrand, not the modes
        from dulackit.expansion import dulac_time_coefficients
        from dulackit.loud import node_time_spec
        from dulackit.oracle import dulac_time

        ts = node_time_spec(P_REF)
        summed = dulac_time_coefficients(ts, 1)
        s_grid = np.geomspace(1e-3, 1e-2, 8)
        vals = np.array([dulac_time(ts, float(s)) for s in s_grid])
        fit = np.linalg.lstsq(np.vander(s_grid, 3, increasing=True), vals, rcond=None)[0]
        assert fit[0] == pytest.approx(float(summed.c[0]), rel=1e-4)
        assert fit[1] == pytest.approx(float(summed.c[1]), rel=1e-2)
