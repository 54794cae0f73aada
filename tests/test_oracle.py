"""Numeric kernels against closed forms and against each other."""

import json
import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, Radau, quad, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from dulackit import oracle
from dulackit.errors import StepSizeUnderflow, ToleranceNotMet
from dulackit.expansion import (
    DulacTimeSpec,
    ExpansionResult,
    UnfoldingSpec,
    coefficients,
)
from dulackit.family import PolynomialFamily, biggest_real_root_branch
from dulackit.loud import LoudParams, node_time_spec
from dulackit.oracle import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    dulac_map,
    dulac_time,
    flatness_report,
    log_dulac_map,
    particular_solution,
)
from dulackit.series import TruncatedSeries as TS, horner

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


def solve_alone(spec, x0, s, cfg=DEFAULT_CONFIG):
    """The ode route's value at one s: a backward Radau solve in
    u = log(x - theta) from y(x0) = 0 that ends at s + theta."""
    th = float(spec.theta_eps)
    if not (0 < s and s + th <= x0 <= 1.0 + 1e-15):
        raise ValueError("need theta < s + theta <= x0 <= 1")
    lam = float(spec.lam)
    Vc = [float(c) for c in spec.V.coeffs]
    Uc = [float(c) for c in spec.U.coeffs]
    Qc = [float(c) for c in spec.Q.restrict(float(spec.e_hat)).coeffs]

    def rhs(u, y):
        x = th + math.exp(u)
        return [(lam * horner(Vc, x) * y[0] - horner(Uc, x)) / horner(Qc, x - th)]

    def jac(u, y):
        x = th + math.exp(u)
        return [[lam * horner(Vc, x) / horner(Qc, x - th)]]

    u0, u1 = math.log(x0 - th), math.log(s)
    if u1 == u0:
        return 0.0
    sol = solve_ivp(
        rhs, (u0, u1), [0.0], method="Radau", jac=jac,
        rtol=cfg.ode_rel_tol, atol=cfg.ode_abs_tol,
    )
    if not sol.success:
        if "step size" in sol.message.lower():
            raise StepSizeUnderflow(sol.message)
        raise ToleranceNotMet(sol.message)
    return float(sol.y[0, -1])


def ode_case(fam, sign, lam, eps, V=(1, Fr(1, 2)), U=(1, 1)):
    return UnfoldingSpec(
        family=fam, branch=biggest_real_root_branch(fam, sign),
        V=TS.from_coeffs([Fr(c) for c in V], order=3),
        U=TS.from_coeffs([Fr(c) for c in U], order=3),
        lam=lam, eps=eps,
    )


def hard_grid(spec, x0):
    """An unsorted log grid with duplicates, the point s + theta = x0, and
    points on both sides of 1e-4 from u0 = log(x0 - theta): at x0 = 0.99999
    a shared sweep would move the last bit at two of those within 1e-4."""
    rest = x0 - float(spec.theta_eps)
    near = [rest * math.exp(-d) for d in (1e-7, 3e-5, 6.7e-5, 9.9e-5, 1e-4, 1.01e-4, 3e-4)]
    grid = np.geomspace(1e-3, 0.5 * rest, 13).tolist() + near + [rest]
    grid += grid[3:6] + [near[2], rest]
    random.Random(len(grid)).shuffle(grid)
    return grid


def first_failure(call):
    """(type, message) of what call() raises, None if it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestOdeGrid:
    """One call on a grid gives every point the value of its own solve."""

    @pytest.mark.parametrize(
        "mu, sign, lam, eps, x0",
        [
            (1, +1, 1.0, 0.0, 1.0),
            (1, +1, 0.7, 0.0, 0.99999),
            (1, +1, 5.0, 1e-3, 0.5),
            (2, +1, 25.0, 1e-3, 1.0),
            (2, +1, 2.0, 0.0, 0.99999),
            (2, -1, 3.0, -1e-3, 1.0),
        ],
    )
    def test_equals_one_solve_per_point(self, fam_linear, fam_quadratic, mu, sign, lam, eps, x0):
        spec = ode_case(fam_linear if mu == 1 else fam_quadratic, sign, lam, eps)
        grid = hard_grid(spec, x0)
        got = particular_solution(spec, x0, grid)
        assert got == [solve_alone(spec, x0, s) for s in grid]
        assert all(type(v) is float for v in got)
        assert got[grid.index(x0 - float(spec.theta_eps))] == 0.0

    def test_scalar_and_array_grid(self, euler_spec):
        assert particular_solution(euler_spec, 1.0, 0.05) == solve_alone(euler_spec, 1.0, 0.05)
        grid = np.geomspace(1e-3, 1e-1, 9)
        assert particular_solution(euler_spec, 1.0, grid) == [solve_alone(euler_spec, 1.0, s) for s in grid]
        assert particular_solution(euler_spec, 1.0, []) == []

    def test_quadrature_route_per_point(self, euler_spec):
        grid = [0.3, 0.02, 0.3]
        got = particular_solution(euler_spec, 1.0, grid, TIGHT, method="quadrature")
        assert got == [particular_solution(euler_spec, 1.0, s, TIGHT, method="quadrature") for s in grid]

    def test_invalid_point_raises_in_grid_order(self, euler_spec):
        with pytest.raises(ValueError, match="need theta"):
            particular_solution(euler_spec, 0.5, [0.1, 0.7, 0.2])
        with pytest.raises(ValueError, match="unknown method"):
            particular_solution(euler_spec, 1.0, [0.1], method="euler")

    @pytest.mark.parametrize("where", ["sweep", "copies", "raises"])
    def test_failure_as_the_per_point_loop(self, monkeypatch, fam_linear, where):
        # force failures into Radau: past u = log 0.02 ("sweep" and "raises"),
        # or at the first step of the solves ending at two chosen points
        spec = ode_case(fam_linear, +1, 2.0, 0.0)
        grid = np.geomspace(1e-3, 1e-1, 11).tolist()
        stop = {math.log(grid[7]): "tolerance not met", math.log(grid[9]): "Required step size is tiny"}
        step = Radau._step_impl

        def failing(solver):
            if where == "copies" and solver.t_bound in stop and solver.t - solver.t_bound < 0.6:
                return False, stop[solver.t_bound]
            if where != "copies" and solver.t < math.log(0.02):
                if where == "raises":
                    raise ZeroDivisionError("forced")
                return False, "Required step size is less than spacing between numbers."
            return step(solver)

        monkeypatch.setattr(Radau, "_step_impl", failing)
        for order in (grid, grid[::-1], grid[5:] + grid[:5]):
            want = first_failure(lambda: [solve_alone(spec, 1.0, s) for s in order])
            assert want is not None
            assert first_failure(lambda: particular_solution(spec, 1.0, order)) == want


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


def horner_v_over_q(nv, nq):
    """oracle._v_over_q's integrand as the loops over series.horner it is
    written from."""
    def make(th, *c):
        Vc, Qc = c[:nv], c[nv:]

        def in_u(u):
            x = th + math.exp(u)
            return horner(Vc, x) / horner(Qc, x - th)

        return in_u

    return make


class TestQuadratureGrids:
    """A grid takes one set-up; every value is the one a call on its point
    alone gives, and the Dulac map's the one its integrand summed by
    series.horner gives, by ==."""

    @pytest.fixture()
    def map_specs(self, fam_linear, fam_quadratic, branch_linear_plus):
        return [
            UnfoldingSpec(family=fam_linear, branch=branch_linear_plus, V=TS.constant(Fr(1), 2),
                          U=TS.zero(2), lam=50.0, eps=0.0),  # D underflows to 0.0 at small s
            UnfoldingSpec(family=fam_linear, branch=branch_linear_plus,
                          V=TS.from_coeffs([Fr(1), Fr(1, 2)], order=3), U=TS.zero(2), lam=5.0, eps=1e-2),
            UnfoldingSpec(family=fam_quadratic, branch=biggest_real_root_branch(fam_quadratic, +1),
                          V=TS.from_coeffs([Fr(1), Fr(0), Fr(1, 3)], order=3), U=TS.zero(2),
                          lam=Fr(3, 2), eps=1e-3),
        ]

    def test_dulac_map(self, monkeypatch, map_specs):
        grid = np.geomspace(1e-3, 0.5, 9).tolist() + [0.02]
        for spec in map_specs:
            got, logs = dulac_map(spec, grid), log_dulac_map(spec, grid)
            assert got == [dulac_map(spec, s) for s in grid]
            assert logs == [log_dulac_map(spec, s) for s in grid]
            assert dulac_map(spec, np.array(grid)) == got
            assert all(type(v) is float for v in got + logs)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_v_over_q", horner_v_over_q)
                assert dulac_map(spec, grid) == got and log_dulac_map(spec, grid) == logs
        assert 0.0 in dulac_map(map_specs[0], grid)
        assert dulac_map(map_specs[0], []) == []

    def test_dulac_map_fails_in_grid_order(self, monkeypatch, map_specs):
        spec = map_specs[1]
        with pytest.raises(ValueError, match="positive"):
            dulac_map(spec, [0.1, -0.2, 2.0])
        with pytest.raises(ValueError, match="outer section"):
            dulac_map(spec, [0.1, 2.0, -0.2])
        # a quadrature that fails at one point raises before a bad point after it
        quad, th = oracle.quad, float(spec.theta_eps)

        def failing(f, a, b, **kw):
            if a == math.log(0.1 + th - th):
                raise RuntimeError(f"forced at {a}")
            return quad(f, a, b, **kw)

        monkeypatch.setattr(oracle, "quad", failing)
        grid = [0.05, 0.1, 2.0, 0.2]
        for order in (grid, grid[::-1]):
            want = first_failure(lambda: [dulac_map(spec, s) for s in order])
            assert want is not None
            assert first_failure(lambda: dulac_map(spec, order)) == want

    @staticmethod
    def time_specs(fam_linear, branch_linear_plus):
        return [
            golden_time_spec("dulac_time"),
            golden_time_spec("dulac_time_rho2"),
            DulacTimeSpec(family=fam_linear, branch=branch_linear_plus,
                          V=TS.from_coeffs([Fr(2), Fr(1), Fr(1, 5)], order=3), eps=0.005, y0=0.7, x0=0.9,
                          modes=(TS.from_coeffs([Fr(1, 3)], order=0), TS.from_coeffs([Fr(-1), Fr(1, 7)], order=1),
                                 TS.zero(3), TS.from_coeffs([Fr(1, 2), Fr(0), Fr(0), Fr(1, 9)], order=4))),
        ]

    def test_dulac_time(self, fam_linear, branch_linear_plus):
        grid = [1e-3, 0.0153, 0.02, 0.3, 0.02]
        for ts in self.time_specs(fam_linear, branch_linear_plus):
            got = dulac_time(ts, grid)
            assert got == [dulac_time(ts, s) for s in grid]
            assert all(type(v) is float for v in got)
        with pytest.raises(ValueError, match="need 0 < s"):
            dulac_time(ts, [0.1, 0.95, -1.0])

    def test_one_compile_per_form(self, map_specs):
        """Other values of the same degrees compile nothing new."""
        oracle._v_over_q.cache_clear()
        grid = [0.01, 0.1]
        dulac_map(map_specs[1], grid)
        assert oracle._v_over_q.cache_info().misses == 1
        other = replace(map_specs[1], V=TS.from_coeffs([Fr(1), Fr(-1, 3)], order=3), lam=2.0, eps=3e-3)
        dulac_map(other, grid), log_dulac_map(other, 0.2)
        assert oracle._v_over_q.cache_info().misses == 1

    def test_import_compiles_nothing(self):
        caches = "o._v_over_q, o._x_of_tau, o._time_weight, o._u_over_v_weight"
        script = f"import dulackit.cli, dulackit.oracle as o; print(*(c.cache_info().currsize for c in ({caches})))"
        src = str(Path(oracle.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"] * 4


TAU_OPTIONS = dict(rtol=1e-11, atol=1e-14)  # the tau route's at DEFAULT_CONFIG
TAU_CAP = -oracle._EXP_UNDERFLOW + 60.0  # dulac_time's tau_cap, 805


def hit_of(x0):
    """The tau route's end as a scipy event: x = x0, rising, terminal."""
    hit = lambda tau, x: x[0] - x0
    hit.terminal, hit.direction = True, 1.0
    return hit


def tau_rate(Pc, Vc):
    """The tau route's rate P/V."""
    return lambda x: horner(Pc, x) / horner(Vc, x)


def scipy_solve(rate, x_start, x0, tau_cap, **options):
    """x(tau) by scipy: DOP853 with the crossing of x0 as a terminal event
    and dense output, run on to tau_cap."""
    return solve_ivp(lambda tau, x: [rate(x[0])], (0.0, tau_cap), [x_start], method="DOP853",
                     events=hit_of(x0), dense_output=True, **(options or TAU_OPTIONS))


def stepper_solve(rate, x_start, x0, tau_cap, stop=math.inf):
    """The same solve by oracle._StoppingDOP853, with the steps it records."""
    steps = oracle._Steps()
    sol = solve_ivp(lambda tau, x: [rate(x[0])], (0.0, tau_cap), [x_start], method=oracle._StoppingDOP853,
                    stop=stop, rate=rate, x0=x0, steps=steps, **TAU_OPTIONS)
    return sol, steps


def scipy_steps(sol) -> oracle._Steps:
    """A scipy_solve's knots, interpolants and crossing, as _StoppingDOP853
    records them."""
    return oracle._Steps(
        knots=sol.sol.ts.tolist(),
        segments=[(p.t_old, p.h, *p.F[::-1, 0].tolist(), p.y_old[0]) for p in sol.sol.interpolants],
        crossing=sol.t_events[0][0] if sol.status == 1 else None,
    )


def reference_tau_quadrature(Pc, Vc, s_abs, x0, tau_cap, cut, weight, cfg=DEFAULT_CONFIG):
    """The tau route as scipy runs it: scipy_solve of dx/dtau = P/V, then
    the quadrature of weight(x(tau), tau) with x read through OdeSolution,
    from 0 to the crossing (or tau_cap) or to cut, whichever comes first."""
    sol = scipy_solve(tau_rate(Pc, Vc), s_abs, x0, tau_cap, rtol=min(cfg.ode_rel_tol, 1e-11), atol=1e-14)
    assert sol.success
    tau_end = sol.t_events[0][0] if sol.status == 1 else tau_cap
    return oracle._quad(lambda tau: weight(float(sol.sol(tau)[0]), tau), 0.0, min(float(tau_end), cut), cfg)[0]


def time_weight(ts):
    """dulac_time's weight U(x, y) y / V(x) at y = y0 e^-tau, through
    DulacTimeSpec.ua and series.horner."""
    Vc = ts.V.float_coeffs

    def weight(x, tau):
        y = ts.y0 * math.exp(-tau)
        return ts.ua(x, y) * y / horner(Vc, x)

    return weight


def u_over_v_weight(spec):
    """The quadrature route's weight U(x)/V(x) exp(-lam tau)."""
    Uc, Vc, lam = spec.U.float_coeffs, spec.V.float_coeffs, float(spec.lam)
    return lambda x, tau: horner(Uc, x) / horner(Vc, x) * math.exp(-lam * tau)


def reference_dulac_time(ts, s):
    return reference_tau_quadrature(ts.family.x_coeffs(float(ts.eps)), ts.V.float_coeffs,
                                    s + float(ts.branch.theta(ts.eps)), ts.x0, TAU_CAP, 55.0, time_weight(ts))


def reference_y_l(spec, x0, s):
    lam = float(spec.lam)
    return reference_tau_quadrature(spec.family.x_coeffs(float(spec.eps)), spec.V.float_coeffs,
                                    s + float(spec.theta_eps), x0, TAU_CAP / lam, 50.0 / lam,
                                    u_over_v_weight(spec))


def off_origin_spec(fam_linear, branch_linear_plus):
    return UnfoldingSpec(
        family=fam_linear, branch=branch_linear_plus,
        V=TS.from_coeffs([Fr(1), Fr(1, 2)], order=3),
        U=TS.from_coeffs([Fr(1), Fr(0), Fr(1)], order=3), lam=5.0, eps=1e-3,
    )


class TestDop853Evaluator:
    """x(tau) read off the recorded steps equals scipy's OdeSolution by ==,
    and so do the tau route's values: if scipy changes its interpolant or
    its choice of segment, these fail."""

    @pytest.mark.parametrize(
        "mu, s_abs, x0, tau_cap",
        [(1, 0.01, 1.0, 805.0), (1, 0.3, 1.0, 805.0), (1, 1e-3, 1.0, 805.0), (2, 0.02, 0.8, 805.0)],
        ids=["to-x0", "short-to-x0", "to-cap", "cubic-to-cap"],
    )
    def test_equals_ode_solution(self, fam_linear, fam_quadratic, mu, s_abs, x0, tau_cap):
        fam = fam_linear if mu == 1 else fam_quadratic
        rate = tau_rate(fam.x_coeffs(0.0), TS.from_coeffs([Fr(1), Fr(1, 2)], order=3).float_coeffs)
        dense = scipy_solve(rate, s_abs, x0, tau_cap).sol
        _, steps = stepper_solve(rate, s_abs, x0, tau_cap)
        knots = dense.ts.tolist()
        assert steps.knots == knots and len(knots) > 10 and knots[0] == 0.0
        taus = list(knots)  # every knot, 0 and the last one included
        for a, b in zip(knots, knots[1:]):
            taus += [a + f * (b - a) for f in (1e-9, 0.1, 0.37, 0.5, 0.9)]
            taus += [math.nextafter(a, b), math.nextafter(b, a)]
        taus += [-1.0, -1e-300, math.nextafter(knots[-1], math.inf), knots[-1] + 1.0]  # clamped
        x_of = oracle._x_of_tau()(steps.knots, steps.segments)
        for tau in taus:
            got = x_of(tau)
            assert type(got) is float and got == float(dense(tau)[0]), tau

    def test_dulac_time_equals_reference(self, fam_linear, fam_quadratic, branch_linear_plus):
        specs = [
            DulacTimeSpec(family=fam_linear, branch=branch_linear_plus, V=TS.constant(Fr(1), 2),
                          eps=0.005, modes=(TS.constant(Fr(1), 2), TS.from_coeffs([Fr(0), Fr(1, 2)], 2))),
            # rho = 2: x^3 - x eps at eps = 0.01, the tests/golden spec
            DulacTimeSpec(family=fam_quadratic, branch=biggest_real_root_branch(fam_quadratic, +1),
                          V=TS.from_coeffs([Fr(1), Fr(0), Fr(1, 3)], 3), eps=0.01,
                          modes=(TS.constant(Fr(1), 3), TS.from_coeffs([Fr(1, 3), Fr(1, 2)], 3),
                                 TS.from_coeffs([Fr(0), Fr(0), Fr(1, 4)], 3))),
        ]
        assert specs[1].branch.rho == 2
        for ts in specs:
            for s in (1e-3, 0.02, 0.1):
                assert dulac_time(ts, s) == reference_dulac_time(ts, s)

    def test_quadrature_route_equals_reference(self, euler_spec, fam_linear, branch_linear_plus):
        grid = [1e-3, 0.02, 0.5]
        for spec in (euler_spec, off_origin_spec(fam_linear, branch_linear_plus)):
            got = particular_solution(spec, 1.0, grid, method="quadrature")
            assert got == [reference_y_l(spec, 1.0, s) for s in grid]


def golden_time_spec(name):
    """The DulacTimeSpec of a tests/golden verify spec."""
    spec = json.loads((Path(__file__).parent / "golden" / f"{name}.spec.json").read_text())
    fam = PolynomialFamily.from_json(spec["family"])
    return DulacTimeSpec(
        family=fam, branch=biggest_real_root_branch(fam, spec["sign"]), V=TS.from_json(spec["V"]),
        eps=spec["eps"], modes=tuple(TS.from_json(m) for m in spec["modes"]),
    )


def tau_problem(ts):
    """The x(tau) rate of a DulacTimeSpec and its theta."""
    return tau_rate(ts.family.x_coeffs(float(ts.eps)), ts.V.float_coeffs), float(ts.branch.theta(ts.eps))


class TestStoppedSolve:
    """The tau route's x(tau) solve ends after its first step reaching cut;
    every value equals the same quadrature read from a DOP853 solve run on
    to tau_cap, by ==."""

    # golden rho = 1 spec: s -> where x0 is hit, for the full solve
    RHO1_POINTS = {
        1e-3: "past cut",  # tau = 357
        0.0153: "past cut",  # tau = 55.55, a step after the one crossing cut
        0.01547: "in the step crossing cut, past it",  # tau = 55.009 in [54.938, 55.037]
        0.015475: "in the step crossing cut, before it",  # tau = 54.993 in [54.923, 55.021]
        0.02: "before cut",
        0.3: "before cut",
    }

    @pytest.fixture()
    def solves(self, monkeypatch):
        """call() with every x(tau) solve recorded as (stop, steps,
        solution): as the oracle runs it, or, with full=True, as scipy_solve
        runs it on to tau_cap, its steps handed to the oracle as
        _StoppingDOP853 records them."""
        def run(call, full=False):
            seen = []

            def recorded(*args, method, stop, rate, x0, steps, **options):
                assert method is oracle._StoppingDOP853
                if full:
                    sol = solve_ivp(*args, method="DOP853", events=hit_of(x0), dense_output=True, **options)
                    vars(steps).update(vars(scipy_steps(sol)))
                else:
                    sol = solve_ivp(*args, method=method, stop=stop, rate=rate, x0=x0, steps=steps, **options)
                seen.append((stop, steps, sol))
                return sol

            with monkeypatch.context() as m:
                m.setattr(oracle, "solve_ivp", recorded)
                return call(), seen
        return run

    def check(self, solves, call):
        got, stopped = solves(call)
        want, full = solves(call, full=True)
        assert got == want
        assert len(stopped) == len(full) > 0
        listed = lambda crossing: [] if crossing is None else [crossing]
        for (cut, short, _), (_, whole, _) in zip(stopped, full):
            knots = short.knots
            assert knots == whole.knots[:bisect_left(whole.knots, cut) + 1]
            assert short.segments == whole.segments[:len(knots) - 1]
            assert listed(short.crossing) == [t for t in listed(whole.crossing) if t <= knots[-1]]
        return [(cut, sol) for cut, _, sol in full]

    @staticmethod
    def hit_at(cut, sol) -> str:
        hit = sol.t_events[0].tolist()
        if not hit:
            return "never"
        last = sol.sol.interpolants[-1]  # the step the hit ends
        if last.t < cut:
            return "before cut"
        if last.t_old >= cut:
            return "past cut"
        return "in the step crossing cut, " + ("before" if hit[0] < cut else "past") + " it"

    def test_dulac_time_rho1(self, solves):
        ts = golden_time_spec("dulac_time")
        for s, where in self.RHO1_POINTS.items():
            (cut, sol), = self.check(solves, lambda: dulac_time(ts, s))
            assert self.hit_at(cut, sol) == where, s

    def test_dulac_time_rho2(self, solves):
        ts = golden_time_spec("dulac_time_rho2")
        assert ts.branch.rho == 2
        for s in (1e-3, 0.02, 0.1):
            self.check(solves, lambda: dulac_time(ts, s))

    def test_quadrature_route(self, solves, euler_spec, fam_linear, branch_linear_plus):
        cases = [
            (euler_spec, ["never", "before cut", "before cut"]),
            (off_origin_spec(fam_linear, branch_linear_plus), ["never", "past cut", "before cut"]),  # cut = 10 at lam = 5
        ]
        for spec, where in cases:
            full = self.check(solves, lambda: particular_solution(
                spec, 1.0, [1e-3, 0.02, 0.5], method="quadrature"))
            assert [self.hit_at(cut, sol) for cut, sol in full] == where

    def test_last_knot_is_first_past_cut(self, solves):
        ts = golden_time_spec("dulac_time")
        _, [(cut, steps, sol)] = solves(lambda: dulac_time(ts, 1e-3))
        knots = steps.knots
        assert sol.status == 0 and steps.crossing is None
        assert knots[-2] < cut <= knots[-1] < 2 * cut


class TestStepperEvents:
    """_StoppingDOP853, run on to tau_cap, records what scipy_solve gives,
    by ==: the crossing (t_events[0][0]), every knot and every
    interpolant's t_old, h, F and y_old; and it counts the same nfev and
    ends in the same state."""

    @staticmethod
    def same(rate, x_start, x0):
        with np.errstate(all="ignore"):  # the rho = 2 blow-up overflows in both
            ours, steps = stepper_solve(rate, x_start, x0, TAU_CAP)
            ref = scipy_solve(rate, x_start, x0, TAU_CAP)
        want = scipy_steps(ref)
        assert (steps.crossing, steps.knots, steps.segments) == (want.crossing, want.knots, want.segments)
        assert ours.nfev == ref.nfev and ours.njev == ref.njev == 0
        if ref.status == 1:
            assert ours.status == 0 and ours.t[-1] == ref.sol.interpolants[-1].t
        else:
            assert (ours.status, ours.message, ours.t.tolist()) == (ref.status, ref.message, ref.t.tolist())
        return steps

    def test_rho1(self):
        ts = golden_time_spec("dulac_time")
        rate, th = tau_problem(ts)
        for s in TestStoppedSolve.RHO1_POINTS:
            steps = self.same(rate, s + th, ts.x0)
            assert steps.crossing is not None and len(steps.segments) > 10, s

    def test_rho2(self):
        ts = golden_time_spec("dulac_time_rho2")
        rate, th = tau_problem(ts)
        for s in (1e-3, 0.02, 0.1):
            assert self.same(rate, s + th, ts.x0).crossing is not None, s

    @pytest.mark.parametrize("name", ["dulac_time", "dulac_time_rho2"])
    def test_root_at_start(self, name):
        # s + theta = x0: g = 0 at tau = 0 counts as a crossing, found at 0
        ts = golden_time_spec(name)
        steps = self.same(tau_problem(ts)[0], ts.x0, ts.x0)
        assert steps.crossing == 0.0 and steps.knots == [0.0, 0.0] and len(steps.segments) == 1

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ["dulac_time", "dulac_time_rho2"])
    def test_step_size_failure(self, name, seed):
        # x0 = inf is never crossed: x blows up and the step size underflows
        steps = self.same(*TestDop853Step.tau_problem(name, seed), math.inf)
        assert steps.crossing is None and len(steps.segments) > 300


class TestTauIntegrands:
    """The generated integrands equal the weights they are written from, at
    x = float(sol.sol(tau)[0]) of scipy_solve run on to tau_cap, at every
    node quad visits, by ==."""

    @pytest.fixture()
    def nodes(self, monkeypatch):
        """call() with, for each tau-route quadrature, scipy_solve's
        solution and every (tau, integrand value) quad asked for."""
        def run(call):
            seen = []

            def recorded_solve(*args, method, stop, rate, x0, steps, **options):
                seen.append((solve_ivp(*args, method="DOP853", events=hit_of(x0), dense_output=True, **options), []))
                return solve_ivp(*args, method=method, stop=stop, rate=rate, x0=x0, steps=steps, **options)

            def recorded_quad(f, a, b, **options):
                def g(tau):
                    value = f(tau)
                    seen[-1][1].append((tau, value))
                    return value
                return quad(g, a, b, **options)

            monkeypatch.setattr(oracle, "solve_ivp", recorded_solve)
            monkeypatch.setattr(oracle, "quad", recorded_quad)
            call()
            return seen
        return run

    @staticmethod
    def check(seen, weight, points):
        assert len(seen) == points
        for sol, visited in seen:
            assert len(visited) >= 21
            for tau, value in visited:
                assert type(value) is float and value == weight(float(sol.sol(tau)[0]), tau), tau

    @pytest.mark.parametrize("n_modes", [2, 6])
    def test_dulac_time_modes(self, nodes, fam_linear, branch_linear_plus, n_modes):
        modes = tuple(TS.from_coeffs([Fr((-1) ** k * (k + 1), j + 2) for k in range(j + 1)], order=j)
                      for j in range(n_modes))
        ts = DulacTimeSpec(family=fam_linear, branch=branch_linear_plus,
                           V=TS.from_coeffs([Fr(1), Fr(1, 3)], order=2), eps=5e-3, y0=0.8, modes=modes)
        grid = [1e-3, 0.02, 0.3]
        self.check(nodes(lambda: dulac_time(ts, grid)), time_weight(ts), len(grid))

    def test_dulac_time_ua_fn(self, nodes):
        ts = node_time_spec(LoudParams(-0.75, 1.0))
        assert ts.ua_fn is not None
        grid = [1e-3, 1e-2]
        self.check(nodes(lambda: dulac_time(ts, grid)), time_weight(ts), len(grid))

    def test_quadrature_route(self, nodes, euler_spec, fam_linear, branch_linear_plus):
        for spec in (euler_spec, off_origin_spec(fam_linear, branch_linear_plus)):
            grid = [1e-3, 0.02, 0.5]
            seen = nodes(lambda: particular_solution(spec, 1.0, grid, method="quadrature"))
            self.check(seen, u_over_v_weight(spec), len(grid))


class TestDop853Step:
    """_StoppingDOP853's step in floats against scipy's DOP853, step for
    step and by ==: t, y, h_abs, nfev, status and message after every
    step, and every recorded interpolant against scipy's (t_old, h, F,
    y_old).  Run on to tau_cap, x(tau) blows up in finite tau, so those
    solves take rejected steps (on the rho = 2 problem through overflow and
    NaN stages) and fail on a step size below the spacing of tau; a short
    tau_cap ends on a step clipped to it."""

    @staticmethod
    def tau_problem(name, seed):
        """The x(tau) rate of a golden dulac_time spec and a start s + theta
        at a seeded s in [1e-3, 1e-1]."""
        rate, th = tau_problem(golden_time_spec(name))
        return rate, 10 ** random.Random(seed).uniform(-3, -1) + th

    @staticmethod
    def lockstep(rate, x_start, tau_cap):
        """Step both solvers to the end; the message and the number of
        trials (rejected steps + 1) of each step."""
        fun = lambda tau, x: [rate(x[0])]
        options = dict(rtol=1e-11, atol=1e-14)
        steps = oracle._Steps()
        ours = oracle._StoppingDOP853(fun, 0.0, [x_start], tau_cap, stop=math.inf, rate=rate,
                                      x0=math.inf, steps=steps, **options)
        ref = DOP853(fun, 0.0, [x_start], tau_cap, **options)
        state = lambda solver: (solver.status, solver.t, solver.y.tolist(), solver.h_abs)
        assert state(ours) == state(ref) and ours.nfev == ref.nfev and steps.knots == [0.0]
        trials = []
        while ref.status == "running":
            nfev = ref.nfev
            message = ref.step()
            assert ours.step() == message
            assert state(ours) == state(ref)
            trials.append((ref.nfev - nfev) // ref.n_stages)
            if ref.status != "failed":  # ours built the interpolant with the step
                scipys = ref.dense_output()
                assert type(scipys) is Dop853DenseOutput
                assert steps.segments[-1] == (scipys.t_old, scipys.h, *scipys.F[::-1, 0].tolist(), scipys.y_old[0])
                assert steps.knots[-1] == scipys.t
            assert ours.nfev == ref.nfev
        assert steps.crossing is None and len(steps.knots) == len(steps.segments) + 1 == len(trials) + (ref.status != "failed")
        return message, trials, ref

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["dulac_time", "dulac_time_rho2"])
    def test_to_step_size_underflow(self, name, seed):
        with np.errstate(all="ignore"):  # the rho = 2 blow-up overflows in both
            message, trials, ref = self.lockstep(*self.tau_problem(name, seed), 805.0)
        assert ref.status == "failed" and message == DOP853.TOO_SMALL_STEP
        assert max(trials) > 1 and len(trials) > 300

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ["dulac_time", "dulac_time_rho2"])
    def test_to_tau_cap(self, name, seed):
        rate, x_start = self.tau_problem(name, seed)
        message, trials, ref = self.lockstep(rate, x_start, 1.0)
        assert ref.status == "finished" and message is None and ref.t == 1.0


class TestRadauLapack:
    """_ForkingRadau's LU straight from LAPACK against scipy's lu_factor and
    lu_solve route, by ==."""

    class ScipyLU(oracle._ForkingRadau):
        """_ForkingRadau with the closures Radau.__init__ makes for a dense
        Jacobian put back."""

        def __init__(self, *args, **options):
            super().__init__(*args, **options)

            def lu(A):
                self.nlu += 1
                return lu_factor(A, overwrite_a=True)

            self.lu = lu
            self.solve_lu = lambda LU, b: lu_solve(LU, b, overwrite_b=True)

    @staticmethod
    def counted(monkeypatch, call):
        """call() and the (nfev, njev, nlu) of each of its solves."""
        counts = []

        def recorded(*args, **options):
            sol = solve_ivp(*args, **options)
            counts.append((sol.nfev, sol.njev, sol.nlu))
            return sol

        with monkeypatch.context() as m:
            m.setattr(oracle, "solve_ivp", recorded)
            return call(), counts

    @pytest.mark.parametrize(
        "mu, sign, lam, eps, x0",
        [(1, +1, 1.0, 0.0, 1.0), (1, +1, 5.0, 1e-3, 0.5), (2, +1, 25.0, 1e-3, 1.0), (2, -1, 3.0, -1e-3, 1.0)],
    )
    def test_sweep_equals_scipy_lu(self, monkeypatch, fam_linear, fam_quadratic, mu, sign, lam, eps, x0):
        spec = ode_case(fam_linear if mu == 1 else fam_quadratic, sign, lam, eps)
        grid = hard_grid(spec, x0)
        call = lambda: particular_solution(spec, x0, grid)
        got, counts = self.counted(monkeypatch, call)
        monkeypatch.setattr(oracle, "_ForkingRadau", self.ScipyLU)
        assert (got, counts) == self.counted(monkeypatch, call)
        assert all(nlu > 0 for _, _, nlu in counts)

    @pytest.mark.parametrize(
        "nan_in, ends",
        [
            (None, "finished"),
            ("jac", (ValueError, "array must not contain infs or NaNs")),
            ("rhs", Radau.TOO_SMALL_STEP),  # Newton fails at every step size
        ],
    )
    def test_steps_equal_scipy(self, nan_in, ends):
        # solve_alone's Radau problem for the Euler equation x^2 y' = y + x,
        # its Jacobian or right-hand side NaN past u = log 0.05
        bad = math.log(0.05)
        rhs = lambda u, y: [math.nan if nan_in == "rhs" and u < bad else (y[0] + math.exp(u)) / math.exp(u)]
        jac = lambda u, y: [[math.nan if nan_in == "jac" and u < bad else 1 / math.exp(u)]]
        options = dict(jac=jac, rtol=DEFAULT_CONFIG.ode_rel_tol, atol=DEFAULT_CONFIG.ode_abs_tol)
        ours = oracle._ForkingRadau(rhs, 0.0, [0.0], math.log(1e-3), stops=[], values={}, **options)
        ref = Radau(rhs, 0.0, [0.0], math.log(1e-3), **options)
        state = lambda solver: (solver.status, solver.t, solver.y.tolist(), solver.h_abs,
                                solver.nfev, solver.njev, solver.nlu)
        outcome = None
        while ref.status == "running" and outcome is None:
            message = []
            outcome = first_failure(lambda: message.append(ref.step()))
            assert first_failure(ours.step) == outcome
            assert state(ours) == state(ref)
        if outcome is None:
            outcome = message[0] if ref.status == "failed" else ref.status
        assert outcome == ends
        assert ref.nlu > 10 and (nan_in is None or ref.t < bad + 0.1)  # stopped at the turn

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_factor_and_solve(self, dtype):
        rng = np.random.default_rng(7)
        solver = oracle._ForkingRadau(lambda t, y: -y, 0.0, [1.0, 2.0, 3.0], 1.0, stops=[], values={})
        for _ in range(3):
            A = rng.standard_normal((3, 3)).astype(dtype) * (1 + 1j if dtype is complex else 1)
            b = rng.standard_normal(3).astype(dtype)
            nlu = solver.nlu
            LU = solver.lu(A.copy())
            assert solver.nlu == nlu + 1
            want = lu_factor(A.copy())
            assert LU[0].tolist() == want[0].tolist() and LU[1].tolist() == want[1].tolist()
            assert solver.solve_lu(LU, b.copy()).tolist() == lu_solve(want, b.copy()).tolist()
        with pytest.warns(LinAlgWarning, match="Diagonal number 1 is exactly zero. Singular matrix."):
            solver.lu(np.zeros((3, 3), dtype))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                solver.lu(np.full((3, 3), bad, dtype))
            with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                solver.solve_lu(LU, np.full(3, bad, dtype))


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
