"""Numeric kernels against closed forms and against each other."""

import json
import math
import random
from bisect import bisect_left
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import Radau, solve_ivp

from dulackit import oracle
from dulackit.errors import StepSizeUnderflow, ToleranceNotMet
from dulackit.expansion import (
    DulacTimeSpec,
    ExpansionResult,
    UnfoldingSpec,
    coefficients,
)
from dulackit.family import PolynomialFamily, biggest_real_root_branch
from dulackit.oracle import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _dop853_x,
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

    @staticmethod
    def first_failure(call):
        try:
            call()
        except Exception as exc:
            return type(exc), str(exc)
        return None

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
            want = self.first_failure(lambda: [solve_alone(spec, 1.0, s) for s in order])
            assert want is not None
            assert self.first_failure(lambda: particular_solution(spec, 1.0, order)) == want


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


def dop853_solve(fam, V, s_abs, x0, tau_cap):
    """The DOP853 x(tau) solve of oracle._tau_quadrature at eps = 0."""
    Pc, Vc = fam.x_coeffs(0.0), V.float_coeffs
    hit = lambda tau, x: x[0] - x0
    hit.terminal, hit.direction = True, 1.0
    return solve_ivp(
        lambda tau, x: [horner(Pc, x[0]) / horner(Vc, x[0])], (0.0, tau_cap), [s_abs],
        method="DOP853", events=hit, rtol=1e-11, atol=1e-14, dense_output=True,
    ).sol


class TestDop853Evaluator:
    """The float evaluator of the DOP853 dense output equals scipy's
    OdeSolution by ==: if scipy changes its interpolant, these fail."""

    @pytest.mark.parametrize(
        "mu, s_abs, x0, tau_cap",
        [(1, 0.01, 1.0, 805.0), (1, 0.3, 1.0, 805.0), (1, 1e-3, 1.0, 805.0), (2, 0.02, 0.8, 805.0)],
        ids=["to-x0", "short-to-x0", "to-cap", "cubic-to-cap"],
    )
    def test_equals_ode_solution(self, fam_linear, fam_quadratic, mu, s_abs, x0, tau_cap):
        dense = dop853_solve(fam_linear if mu == 1 else fam_quadratic,
                             TS.from_coeffs([Fr(1), Fr(1, 2)], order=3), s_abs, x0, tau_cap)
        knots = dense.ts.tolist()
        assert len(knots) > 10 and knots[0] == 0.0
        taus = list(knots)  # every knot, 0 and the last one included
        for a, b in zip(knots, knots[1:]):
            taus += [a + f * (b - a) for f in (1e-9, 0.1, 0.37, 0.5, 0.9)]
            taus += [math.nextafter(a, b), math.nextafter(b, a)]
        taus += [-1.0, -1e-300, math.nextafter(knots[-1], math.inf), knots[-1] + 1.0]  # clamped
        x_of = _dop853_x(dense)
        for tau in taus:
            got = x_of(tau)
            assert type(got) is float and got == float(dense(tau)[0]), tau

    @pytest.fixture()
    def through_ode_solution(self, monkeypatch):
        """Run the oracle with x(tau) read through OdeSolution.__call__."""
        def run(call):
            with monkeypatch.context() as m:
                m.setattr(oracle, "_dop853_x", lambda dense: lambda tau: float(dense(tau)[0]))
                return call()
        return run

    def test_dulac_time_equals_reference(self, fam_linear, fam_quadratic, branch_linear_plus,
                                         through_ode_solution):
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
                assert dulac_time(ts, s) == through_ode_solution(lambda: dulac_time(ts, s))

    def test_quadrature_route_equals_reference(self, euler_spec, fam_linear, branch_linear_plus,
                                               through_ode_solution):
        off_origin = UnfoldingSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.from_coeffs([Fr(1), Fr(1, 2)], order=3),
            U=TS.from_coeffs([Fr(1), Fr(0), Fr(1)], order=3), lam=5.0, eps=1e-3,
        )
        grid = [1e-3, 0.02, 0.5]
        for spec in (euler_spec, off_origin):
            got = particular_solution(spec, 1.0, grid, method="quadrature")
            assert got == through_ode_solution(
                lambda: particular_solution(spec, 1.0, grid, method="quadrature"))


def golden_time_spec(name):
    """The DulacTimeSpec of a tests/golden verify spec."""
    spec = json.loads((Path(__file__).parent / "golden" / f"{name}.spec.json").read_text())
    fam = PolynomialFamily.from_json(spec["family"])
    return DulacTimeSpec(
        family=fam, branch=biggest_real_root_branch(fam, spec["sign"]), V=TS.from_json(spec["V"]),
        eps=spec["eps"], modes=tuple(TS.from_json(m) for m in spec["modes"]),
    )


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
        """call() with every x(tau) solve recorded as (stop, solution): as
        the oracle runs it, or, with full=True, run on to tau_cap."""
        def run(call, full=False):
            seen = []

            def recorded(*args, method, stop, **options):
                assert method is oracle._StoppingDOP853
                if full:
                    sol = solve_ivp(*args, method="DOP853", **options)
                else:
                    sol = solve_ivp(*args, method=method, stop=stop, **options)
                seen.append((stop, sol))
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
        for (cut, short), (_, whole) in zip(stopped, full):
            knots, all_knots = short.sol.ts.tolist(), whole.sol.ts.tolist()
            assert knots == all_knots[:bisect_left(all_knots, cut) + 1]
            assert short.t_events[0].tolist() == [t for t in whole.t_events[0] if t <= knots[-1]]
        return full

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
        off_origin = UnfoldingSpec(
            family=fam_linear, branch=branch_linear_plus,
            V=TS.from_coeffs([Fr(1), Fr(1, 2)], order=3),
            U=TS.from_coeffs([Fr(1), Fr(0), Fr(1)], order=3), lam=5.0, eps=1e-3,
        )
        cases = [
            (euler_spec, ["never", "before cut", "before cut"]),
            (off_origin, ["never", "past cut", "before cut"]),  # cut = 10 at lam = 5
        ]
        for spec, where in cases:
            full = self.check(solves, lambda: particular_solution(
                spec, 1.0, [1e-3, 0.02, 0.5], method="quadrature"))
            assert [self.hit_at(cut, sol) for cut, sol in full] == where

    def test_last_knot_is_first_past_cut(self, solves):
        ts = golden_time_spec("dulac_time")
        _, [(cut, sol)] = solves(lambda: dulac_time(ts, 1e-3))
        knots = sol.sol.ts.tolist()
        assert sol.status == 0 and knots[-2] < cut <= knots[-1] < 2 * cut


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
