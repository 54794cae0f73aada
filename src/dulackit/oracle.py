"""Numeric ground truth for the series machinery: transition maps,
particular solutions, passage times, and flatness diagnostics.

All integrands have a simple pole of the coefficient V/P at the tracked
root theta, regularized once and for all by the substitution
x = theta + exp(u).  Two genuinely different discretizations are kept for
the particular solution:

* a stiff implicit Runge-Kutta integration of the linear equation
  P y' = lam V y - U backwards from y(x0) = 0 (the node repels forward,
  so the backward direction is contracting), and
* a quadrature in the variable tau = A(x) - A(s + theta), where
  A' = V/P, which turns the kernel into exp(-lam tau) times a smooth
  factor; the reparametrization x(tau) is a single nonstiff ODE.

Their agreement to ~1e-9 on smooth problems is asserted by the tests.

The transition (Dulac) map itself is exp(-lam * I) with I a direct
adaptive quadrature; underflow to exact 0.0 for large exponents is the
expected flat regime and is returned, not raised.

On a grid of s the ODE route runs one backward Radau sweep to the smallest
s.  Before each step whose first trial step could reach the next grid
point, the sweep deep-copies its solver, sets the copy's t_bound to that
point and steps the copy to the end.  scipy reads t_bound only to cap the
first step and to clip a trial step that would pass it, and trial steps
only shrink after the first, so up to that step a solve ending at the point
takes exactly the sweep's steps: every value is the one a solve of its own
gives, bit for bit.  A point within 1e-4 of the start in u, where the first
step could differ, gets its own solve.  The quadrature route stays one
point at a time and shares nothing with the ODE route.

The quadrature route solves x(tau) with scipy's DOP853 and reads it at
each quadrature node from the dense output in Python floats (`_dop853_x`):
each step's interpolant is copied once (`OdeSolution.ts`/`interpolants`,
`Dop853DenseOutput.F`/`h`/`y_old`) and evaluated with the same operations
in the same order as `OdeSolution.__call__`, so the values are scipy's bit
for bit.  Those are scipy internals, and the tests pin them by ==.
The solve ends after its first accepted step that reaches the
quadrature's cut (`_StoppingDOP853`); tau_cap only caps scipy's first
step, and the values are those of a solve run on to tau_cap, bit for bit.
A solve that would fail only past cut does not raise.

Still repeated on purpose, since perfbench's `test_sizing_in_kind` pins
the per-layer shares they set: `dulac_time` solves x(tau) once per s
(`_tau_quadrature`; the pin asks the ODE solves for more than half of a
traced verify round, about 0.55 at seed 3, which one trajectory per grid
would not keep), `cli.cmd_loud` computes each Loud period twice, and
`expansion.dulac_time_coefficients` calls `compute_Q` once per mode.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import DOP853, Radau, quad, solve_ivp

from .errors import QuadratureFailure, StepSizeUnderflow, ToleranceNotMet
from .expansion import DulacTimeSpec, ExpansionResult, UnfoldingSpec, check_grid_length
from .series import horner

_EXP_UNDERFLOW = -745.0
_NOISE_FLOOR_REL = 1e-13
_QUAD_LIMIT = 200  # subintervals quad may bisect into


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    substitution: bool = True  # log change of variable at the singular endpoint
    ode_rel_tol: float = 1e-9
    ode_abs_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def _v_over_p_integral(spec: UnfoldingSpec, a: float, b: float, cfg: QuadratureConfig) -> float:
    """A(b) - A(a) with A' = V/P, for theta < a <= b, via u = log(x - theta)."""
    th = float(spec.theta_eps)
    Vc = spec.V.float_coeffs
    Qc = spec.Q.restrict(float(spec.e_hat)).float_coeffs
    if not b > th or not a > th:
        raise ValueError("integration endpoints must lie right of the root")
    if cfg.substitution:
        ua, ub = math.log(a - th), math.log(b - th)

        def integrand(u):
            x = th + math.exp(u)
            return horner(Vc, x) / horner(Qc, x - th)

        val, _ = _quad(integrand, ua, ub, cfg)
    else:
        def integrand(x):
            return horner(Vc, x) / ((x - th) * horner(Qc, x - th))

        val, _ = _quad(integrand, a, b, cfg)
    return val


def _quad(f, a, b, cfg: QuadratureConfig):
    val, err, info, *rest = quad(
        f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=_QUAD_LIMIT, full_output=True,
    )
    if rest:
        raise QuadratureFailure(f"quadrature on [{a:g}, {b:g}]: {rest[0]}")
    if err > cfg.rel_tol * max(1.0, abs(val)) * 100 and err > cfg.abs_tol * 100:
        raise QuadratureFailure(
            f"quadrature error estimate {err:g} above tolerance on [{a:g}, {b:g}]"
        )
    return val, err


def log_dulac_map(spec: UnfoldingSpec, s: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """log D(s) = -lam * integral_{s+theta}^{1} V/P; always <= 0 for s+theta <= 1."""
    th = float(spec.theta_eps)
    if not s > 0:
        raise ValueError("s must be positive")
    if s + th > 1.0 + 1e-15:
        raise ValueError("s + theta must not exceed the outer section at 1")
    lam = float(spec.lam)
    integral = _v_over_p_integral(spec, s + th, 1.0, cfg)
    return -lam * integral


def dulac_map(spec: UnfoldingSpec, s: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Transition map D(s); underflows gracefully to 0.0 deep in the flat regime."""
    ld = log_dulac_map(spec, s, cfg)
    if ld < _EXP_UNDERFLOW:
        return 0.0
    return math.exp(ld)


# ---------------------------------------------------------------------------
# particular solution: two independent routes
# ---------------------------------------------------------------------------


def particular_solution(
    spec: UnfoldingSpec,
    x0: float,
    s: float | Sequence[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    method: str = "ode",
) -> float | list:
    """Solution of P y' = lam V y - U with y(x0) = 0, evaluated at s + theta,
    for one s (a float back) or a grid of s (a list back, in the grid's
    order).

    method "ode": implicit Runge-Kutta backwards in u = log(x - theta); the
    pole coefficient makes explicit pairs step-limited, while the backward
    direction is contracting so the implicit solve is benign.  A grid takes
    one forked sweep (_ode_values), whose value at each point is the one a
    solve ending there gives, bit for bit.
    method "quadrature": independent cross-check via the exponential-kernel
    integral in tau = A(x) - A(s + theta), one point at a time.

    Each point is checked in the grid's order, and the first that fails
    raises what a solve of that point alone raises."""
    grid = np.ndim(s) > 0
    points = list(s) if grid else [s]
    th = float(spec.theta_eps)
    valid = lambda p: 0 < p and p + th <= x0 <= 1.0 + 1e-15
    ode = None
    out = []
    for p in points:
        if not valid(p):
            raise ValueError("need theta < s + theta <= x0 <= 1")
        if method == "quadrature":
            out.append(_y_l_quadrature(spec, x0, p, cfg))
            continue
        if method != "ode":
            raise ValueError(f"unknown method {method!r}")
        if ode is None:
            ode = _ode_values(spec, x0, [q for q in points if valid(q)], cfg)
        value = ode[math.log(p)]
        if isinstance(value, Exception):
            raise value
        out.append(value)
    return out if grid else out[0]


# scipy's select_initial_step starts from y = 0 with a trial step of 1e-6 and
# picks at most 100 times that; each is clipped to the interval, so only an
# interval shorter than this can change the first step
_OWN_SOLVE_SPAN = 1e-4


def _ode_values(spec: UnfoldingSpec, x0: float, s_points, cfg: QuadratureConfig) -> dict:
    """log s -> the value at s + theta, or the exception its solve raises.

    A point within _OWN_SOLVE_SPAN of u0 = log(x0 - theta) gets its own
    solve; the rest share one Radau sweep to the smallest s, which forks a
    copy ending at each other point (_ForkingRadau)."""
    th = float(spec.theta_eps)
    lam = float(spec.lam)
    Vc = spec.V.float_coeffs
    Uc = spec.U.float_coeffs
    Qc = spec.Q.restrict(float(spec.e_hat)).float_coeffs

    def rhs(u, y):
        x = th + math.exp(u)
        q = horner(Qc, x - th)
        return [(lam * horner(Vc, x) * y[0] - horner(Uc, x)) / q]

    def jac(u, y):
        x = th + math.exp(u)
        return [[lam * horner(Vc, x) / horner(Qc, x - th)]]

    def sweep(targets):
        """Radau from u0 to the farthest target, recording every target;
        one the sweep never reached gets the sweep's failure."""
        end = min(targets)
        try:
            sol = solve_ivp(
                rhs, (u0, end), [0.0], method=_ForkingRadau, jac=jac,
                rtol=cfg.ode_rel_tol, atol=cfg.ode_abs_tol, dense_output=False,
                stops=[u for u in targets if u != end], values=values,
            )
        except Exception as exc:  # raised again at the first point it reaches
            failure = exc
        else:
            failure = None if sol.success else _solve_failure(sol.message)
            if failure is None:
                values[end] = float(sol.y[0, -1])
        for u in targets:
            values.setdefault(u, failure)

    u0 = math.log(x0 - th)
    values = {u0: 0.0}
    targets = {math.log(s) for s in s_points} - {u0}
    shared = [u for u in targets if u0 - u >= _OWN_SOLVE_SPAN]
    for u in sorted(targets.difference(shared)):
        sweep([u])
    if shared:
        sweep(shared)
    return values


def _solve_failure(message) -> Exception:
    if "step size" in (message or "").lower():
        return StepSizeUnderflow(message)
    return ToleranceNotMet(message or "ODE integration failed")


class _ForkingRadau(Radau):
    """Radau that, before each step whose first trial step could reach the
    next of its `stops`, deep-copies itself, sets the copy's t_bound to that
    stop and steps the copy to the end; `values[stop]` gets the copy's y[0],
    or the exception a solve_ivp call ending there raises.

    scipy reads t_bound only to cap the first step (select_initial_step) and
    to clip a trial step that would pass it.  Trial steps only shrink after
    the first one, so up to the fork every step of a solve ending at the stop
    is the sweep's step: the copy continues exactly as that solve would.
    The caller keeps the first-step cap equal (_OWN_SOLVE_SPAN).  The copies
    count their work in this solver's nfev, njev and nlu."""

    def __init__(self, fun, t0, y0, t_bound, *, stops, values, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.stops = sorted(stops, key=lambda t: -self.direction * t)  # next stop last
        self.values = values

    def _step_impl(self):
        while self.stops and self._may_reach(self.stops[-1]):
            stop = self.stops.pop()
            self.values[stop] = self._finish_copy(stop)
        return super()._step_impl()

    def _may_reach(self, stop) -> bool:
        # the first trial step as Radau._step_impl takes it, max_step aside
        t = self.t
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        t_new = t + max(self.h_abs, min_step) * self.direction
        return self.direction * (t_new - stop) >= 0

    def _finish_copy(self, stop):
        # the memo gives the copy no stops and no table of its own
        fork = copy.deepcopy(self, {id(self.stops): [], id(self.values): None})
        fork.t_bound = stop
        try:
            while fork.status == "running":
                message = fork.step()
        except Exception as exc:
            return exc
        if fork.status == "failed":
            return _solve_failure(message)
        return float(fork.y[0])


def _tau_quadrature(Pc, Vc, s_abs: float, x0: float, tau_cap: float, cut: float,
                    weight, cfg: QuadratureConfig) -> float:
    """Integral of weight(x(tau), tau) over 0 <= tau <= min(tau_end, cut),
    where x(tau) solves dx/dtau = P(x)/V(x) (float coefficients Pc, Vc) from
    x(0) = s_abs, so that tau = A(x) - A(s_abs) with A' = V/P, and tau_end
    is the tau at which x reaches x0, or tau_cap if it does not.

    One DOP853 solve per call, through the module's solve_ivp binding, that
    ends after its first step reaching cut (_StoppingDOP853); tau_cap only
    sets scipy's first-step cap.  The integrand reads x(tau) from its dense
    output in Python floats (_dop853_x), bit for bit what sol.sol(tau) of a
    solve run on to tau_cap gives.  A solve that would fail only past cut
    does not raise."""

    def rhs(tau, x):
        return [horner(Pc, x[0]) / horner(Vc, x[0])]

    hit = lambda tau, x: x[0] - x0
    hit.terminal = True
    hit.direction = 1.0
    sol = solve_ivp(
        rhs, (0.0, tau_cap), [s_abs], method=_StoppingDOP853, events=hit,
        rtol=min(cfg.ode_rel_tol, 1e-11), atol=1e-14, dense_output=True, stop=cut,
    )
    if not sol.success and sol.status != 1:
        raise ToleranceNotMet(sol.message or "reparametrization ODE failed")
    tau_end = sol.t_events[0][0] if sol.status == 1 and len(sol.t_events[0]) else tau_cap

    x_of = _dop853_x(sol.sol)
    val, _ = _quad(lambda tau: weight(x_of(tau), tau), 0.0, min(float(tau_end), cut), cfg)
    return val


class _StoppingDOP853(DOP853):
    """DOP853 that finishes after the first accepted step whose end reaches
    `stop`, without clipping that step.

    solve_ivp handles events on that step before it leaves its loop, so an
    event inside it is still found, and every interpolant over [0, stop]
    (or up to an earlier terminal event) is the one a solve run on to
    t_bound builds.  t_bound still caps the first step and clips a step
    that would pass it.  A forward solve only."""

    def __init__(self, fun, t0, y0, t_bound, *, stop, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.stop = stop

    def step(self):
        message = super().step()
        if self.status == "running" and self.t >= self.stop:
            self.status = "finished"
        return message


def _dop853_x(dense):
    """x(tau) from solve_ivp's DOP853 dense output (an OdeSolution over an
    increasing tau), evaluated in Python floats.

    Each segment is copied once: its t_old, h, the rows of F reversed and
    y_old[0].  A call picks the segment as OdeSolution._call_single does
    (leftmost knot >= tau, clamped to the segments) and runs
    Dop853DenseOutput._call_impl's loop on one float.  Those are IEEE
    double operations in the same order, so every value equals
    float(dense(tau)[0]) bit for bit; the tests pin that."""
    knots = dense.ts.tolist()
    segments = [(float(p.t_old), float(p.h), p.F[::-1, 0].tolist(), float(p.y_old[0]))
                for p in dense.interpolants]
    last = len(segments) - 1

    def x_of(tau):
        t_old, h, rows, x_old = segments[min(max(bisect_left(knots, tau) - 1, 0), last)]
        z = (tau - t_old) / h
        factors = (z, 1 - z)
        x = 0.0
        for i, f in enumerate(rows):  # y += f, then y *= x or y *= 1 - x in turn
            x = (x + f) * factors[i % 2]
        return x + x_old

    return x_of


def _y_l_quadrature(spec: UnfoldingSpec, x0: float, s: float, cfg: QuadratureConfig) -> float:
    th = float(spec.theta_eps)
    lam = float(spec.lam)
    Vc = spec.V.float_coeffs
    Uc = spec.U.float_coeffs
    weight = lambda x, tau: horner(Uc, x) / horner(Vc, x) * math.exp(-lam * tau)
    # kernel decays like exp(-lam tau); cut where it is far below tolerance
    return _tau_quadrature(spec.family.x_coeffs(float(spec.eps)), Vc, s + th, x0,
                           (-_EXP_UNDERFLOW + 60.0) / lam, 50.0 / lam, weight, cfg)


def dulac_time(ts: DulacTimeSpec, s: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Passage time from (s + theta, y0) to the section x = x0 for the
    polar-factor field: integral of U(x, y(x)) y(x) / P(x) dx with
    y(x) = y0 exp(-(A(x) - A(s+theta))).

    In the variable tau = A(x) - A(s+theta) the integrand is
    U(x(tau), y0 e^-tau) y0 e^-tau / V(x(tau)): smooth, exponentially
    decaying, no pole."""
    th = float(ts.branch.theta(ts.eps))
    if not s > 0 or s + th > ts.x0 + 1e-15:
        raise ValueError("need 0 < s and s + theta <= x0")
    Vc = ts.V.float_coeffs

    def weight(x, tau):
        y = ts.y0 * math.exp(-tau)
        return ts.ua(x, y) * y / horner(Vc, x)

    return _tau_quadrature(ts.family.x_coeffs(float(ts.eps)), Vc, s + th, ts.x0,
                           -_EXP_UNDERFLOW + 60.0, 55.0, weight, cfg)


# ---------------------------------------------------------------------------
# flatness diagnostics
# ---------------------------------------------------------------------------


@dataclass
class FlatnessReport:
    s_grid: tuple
    label: dict
    lam: float
    ell: int
    k: int
    values: np.ndarray        # the oracle's value at each s
    h: np.ndarray             # (value - S_ell) / s^ell at each s
    theta_h: list             # r -> theta^r h on s_grid[2r : len - 2r], r = 1..k
    decay_ok: list            # r -> bool, r = 0..k
    fitted_slope: float | None  # slope of log|value - S_ell| vs log s

    def to_json(self) -> dict:
        curves = [self.h, *self.theta_h]
        return {
            "ell": self.ell,
            "k": self.k,
            "s_min": self.s_grid[0],
            "s_max": self.s_grid[-1],
            "decay_ok": list(self.decay_ok),
            "fitted_slopes": [self.fitted_slope],
            "sup_final": [float(abs(c[0])) for c in curves],
            "cases": [self.label],
        }

    def to_csv_rows(self):
        header = ["case", "eps", "lambda", "s", "value", "h"]
        header += [f"theta{r}_h" for r in range(1, self.k + 1)]
        yield header
        for j, s in enumerate(self.s_grid):
            row = [
                str(self.label.get("case", 0)),
                f"{self.label.get('eps', float('nan')):.17g}",
                f"{self.lam:.17g}",
                f"{s:.17g}",
                f"{self.values[j]:.17g}",
                f"{self.h[j]:.17g}",
            ]
            for r in range(1, self.k + 1):
                arr = self.theta_h[r - 1]
                trim = 2 * r
                val = arr[j - trim] if trim <= j < trim + len(arr) else float("nan")
                row.append(f"{val:.17g}")
            yield row


def log_derivative(values: np.ndarray, dlog: float) -> np.ndarray:
    """d/d(log s) by central differences, Richardson-extrapolated once;
    consumes two grid points per side."""
    d1 = (values[..., 3:-1] - values[..., 1:-3]) / (2 * dlog)
    d2 = (values[..., 4:] - values[..., :-4]) / (4 * dlog)
    return (4 * d1 - d2) / 3


def flatness_report(
    values: Sequence[float],
    expansion: ExpansionResult,
    lam: float,
    label: dict,
    s_grid: Sequence[float],
    k: int,
    tol: float,
) -> FlatnessReport:
    """Check the oracle's values on an increasing grid, uniform in log s,
    against the partial sum S_ell: h_ell = (value - S_ell)/s^ell and its
    scale derivatives theta^r h, r = 1..k, must decay monotonically toward
    s = 0 over the smallest decade and lie below tol at its first point.
    The remainder slope is fitted only where |value - S_ell| exceeds
    _NOISE_FLOOR_REL times |value|.  A grid too short for k scale
    derivatives (check_grid_length) raises ValueError."""
    s = np.asarray(s_grid, dtype=float)
    vals = np.asarray(values, dtype=float)
    if s.ndim != 1 or vals.shape != s.shape:
        raise ValueError("need one value per point of a 1-D s grid")
    check_grid_length(len(s), k)
    dlogs = np.diff(np.log(s))
    if len(s) < 2 or not np.all(dlogs > 0) or dlogs.max() - dlogs.min() > 1e-8 * dlogs.mean():
        raise ValueError("s grid must increase uniformly in log s")
    dlog = float(dlogs.mean())
    pts = s.tolist()
    ell = expansion.ell
    partial = np.array([float(expansion.partial_sum(x)) for x in pts])
    h = (vals - partial) / np.array([x**ell for x in pts])
    theta_h = []
    cur = h
    for r in range(1, k + 1):
        cur = log_derivative(cur, dlog) / lam
        theta_h.append(cur)
    decay_ok = []
    for r, arr in enumerate([h, *theta_h]):
        seg = np.abs(arr[s[2 * r : 2 * r + len(arr)] <= s[2 * r] * 10.0])
        monotone = bool(np.all(np.diff(seg) >= -1e-12 * np.maximum(seg[1:], 1e-300)))
        decay_ok.append(bool(monotone and seg[0] < tol))
    diff = np.abs(vals - partial)
    mask = diff > np.maximum(_NOISE_FLOOR_REL * np.abs(vals), 1e-290)
    # the surviving points must span most of a decade; else the remainder
    # is below measurement noise, a flat pass
    slope = None
    if mask.sum() >= 5 and s[mask][-1] / s[mask][0] >= 6.0:
        slope = float(np.polyfit(np.log(s[mask]), np.log(diff[mask]), 1)[0])
    return FlatnessReport(
        s_grid=tuple(pts),
        label=label,
        lam=lam,
        ell=ell,
        k=k,
        values=vals,
        h=h,
        theta_h=theta_h,
        decay_ok=decay_ok,
        fitted_slope=slope,
    )
