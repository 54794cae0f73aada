"""scipy's RK45 for small systems, stepped in Python floats.

`solve_ivp` here is a port of ``scipy.integrate.solve_ivp(method="RK45")``
for the arguments the Loud period integration passes.  Its systems have
two or three components, where scipy's per-step numpy overhead costs several
times the right-hand side.  The port keeps everything that decides the
steps and the events:

* the Dormand-Prince 5(4) tableau, written out as the fractions of scipy's
  source, each the float that scipy's array holds;
* the initial step of ``select_initial_step`` (or ``first_step``);
* the step control: safety 0.9, factors between 0.2 and 10, exponent -1/5,
  no growth right after a rejected step, failure below ten spacings of t;
* the event location: the sign test with ``direction``, Brent's root
  finder at ``xtol = rtol = 4 EPS`` on the same quartic dense output, and a
  terminal event ending the solve at ``sol(t_event)``.

The module imports nothing from scipy, so the Loud period sweep runs
without loading it.  The root finder `_brentq` is a line-by-line port of
scipy's ``brentq`` (the C routine ``brentq.c``, Brent's method in the form
of R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973,
ch. 4, behind scipy's wrapper that raises on a NaN value): it evaluates the
function at the same points as ``scipy.optimize.brentq`` and returns its
root bit for bit.

Each sum is formed in numpy's order (the stages times their weights, then
times h), so solutions agree with scipy's to rounding in the last bits:
numpy may fuse a multiply and an add where Python rounds twice.  Only
``terminal`` values that are booleans are supported (a count above one is
not).  A right-hand side that keeps returning NaN fails the solve with
scipy's step-size message; scipy itself loops forever on a NaN step size.

The step is written out component by component: `_step` builds one step
function per state dimension from a template, once per dimension, as
``collections.namedtuple`` builds its class.  Each stage state, each
component of the new state and each error-norm term is one expression in
local floats, so a step builds no zip and runs no comprehension.  The
expressions are the sums over the components' lists, in the same order and
grouping (``y + (k1*a1 + ... + kj*aj)*h``, ``y + h*(k1*b1 + ... + k6*b6)``,
the squared error terms added to 0.0 in component order), and Python floats
are IEEE doubles that never fuse a multiply and an add, so writing them out
changes no bit.  On the default-grid Loud periods a step costs 8-10 µs on
a 2-core x86-64 host, 3-4 µs of it in the right-hand side; summed by list
comprehensions, the same step took 15-21 µs there, and scipy's solve_ivp
takes about eight times as long as this port.

A solve that would take more than `_NFEV_BUDGET` = 10^6 right-hand side
evaluations stops with status -1 and a message that names the budget;
scipy has no such limit.  A stiff system, such as the Loud entry arc at
F = 1e19, shrinks the step without end and would otherwise run for hours.
No Loud period solve of a sweep over 0.51 <= F <= 100 took more than 4,808.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

_EPS = 2.0**-52
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / (4 + 1)  # the error estimator has order 4
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_NFEV_BUDGET = 10**6  # right-hand side evaluations per solve
_BUDGET_SPENT = (
    f"The solve needs more than its budget of {_NFEV_BUDGET} right-hand side evaluations."
)
_MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}

# RK45's Dormand-Prince 5(4) tableau, written as scipy's source writes it
# (scipy/integrate/_ivp/rk.py, class RK45).  A quotient of two ints is
# correctly rounded, so each entry is the float that scipy's array holds.
_C = [0.0, 1/5, 3/10, 4/5, 8/9, 1.0]
_A = [
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1/5, 0.0, 0.0, 0.0, 0.0],
    [3/40, 9/40, 0.0, 0.0, 0.0],
    [44/45, -56/15, 32/9, 0.0, 0.0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0.0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
]
_B = [35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84]
_E = [-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]
_P = [
    [1.0, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0.0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0.0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0.0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
]

# unpacked for the written-out step: stage j's weights are row j of A
_, _C2, _C3, _C4, _C5, _C6 = _C
(
    _,
    (_A21, *_),
    (_A31, _A32, *_),
    (_A41, _A42, _A43, *_),
    (_A51, _A52, _A53, _A54, _),
    (_A61, _A62, _A63, _A64, _A65),
) = _A
_B1, _B2, _B3, _B4, _B5, _B6 = _B
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E
_P_COLUMNS = [list(col) for col in zip(*_P)]


@dataclass
class Solution:
    """Outcome of one solve: ``t`` and ``y`` are the final time and state
    (at the terminal event, if one fired), ``t_events`` a list of event
    times per event, ``nfev`` the number of right-hand side evaluations."""

    status: int
    message: str
    t: float
    y: list
    t_events: list
    nfev: int


def _dot(a, b) -> float:
    acc = 0.0
    for u, v in zip(a, b):
        acc += u * v
    return acc


def _rms(x: list) -> float:
    """scipy's norm: sqrt(x . x) / sqrt(n)."""
    return math.sqrt(_dot(x, x)) / len(x) ** 0.5


def _quotient(a: float, b: float) -> float:
    """a / b for a, b >= 0 (or NaN) as numpy divides: inf or NaN at b = 0."""
    if b:
        return a / b
    return math.inf if a > 0 else math.nan


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol) -> float:
    """scipy's select_initial_step (Hairer, Norsett and Wanner, II.4)."""
    interval_length = abs(t_bound - t0)
    scale = [a + abs(y) * rtol for y, a in zip(y0, atol)]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = [y + h0 * direction * f for y, f in zip(y0, f0)]
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _quotient(_rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]), h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = _quotient(0.01, max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, interval_length)


def _dense_output(t_old, h, y_old, K):
    """The quartic interpolant of the last step: scipy's RkDenseOutput with
    Q = K^T P."""
    Q = [[_dot(k, p) for p in _P_COLUMNS] for k in zip(*K)]

    def sol(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        p = (x, x2, x3, x3 * x)
        return [h * _dot(q, p) + y for q, y in zip(Q, y_old)]

    return sol


def _brentq(f, a, b, xtol, rtol, maxiter=100) -> float:
    """A root of f in [a, b] by Brent's method, as ``scipy.optimize.brentq``
    finds it: a line-by-line port of scipy's ``brentq.c`` (Brent 1973, ch. 4),
    behind scipy's wrapper that raises ValueError on a NaN value of f.  It
    raises ValueError if f(a) and f(b) have the same sign and RuntimeError
    after maxiter iterations, with scipy's messages.  The tolerances are the
    caller's to choose: scipy's checks on them are not repeated."""

    def f_raise(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = f_raise(xpre)
    fcur = f_raise(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f_raise(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _step_source(n: int) -> str:
    """Source of one RK45 step for an n-component state, with the stage
    states, y_new and the error-norm terms written out per component."""

    def each(pattern: str) -> list:
        """pattern once per component, "#" standing for its index."""
        return [pattern.replace("#", str(i)) for i in range(n)]

    def row(pattern: str) -> str:
        return ", ".join(each(pattern))

    def weighted(weights: str, count: int) -> str:
        """k1_# * <weights>1 + ... + k<count>_# * <weights><count>."""
        return " + ".join(f"k{m}_# * {weights}{m}" for m in range(1, count + 1))

    body = [f"{row('y_#')}, = y", f"{row('k1_#')}, = k1"]
    for j in range(2, 7):
        state = row(f"y_# + ({weighted('_A' + str(j), j - 1)}) * h")
        body += [f"k{j} = fun(t + _C{j} * h, [{state}])", f"{row(f'k{j}_#')}, = k{j}"]
    body += each(f"yn_# = y_# + h * ({weighted('_B', 6)})")
    body += [
        f"y_new = [{row('yn_#')}]",
        "k7 = fun(t + h, y_new)",
        f"{row('k7_#')}, = k7",
        f"{row('atol_#')}, = atol",
    ]
    body += each(f"e_# = ({weighted('_E', 7)}) * h / (atol_# + max(abs(y_#), abs(yn_#)) * rtol)")
    squares = "".join(each(" + e_# * e_#"))
    body += [
        f"error_norm = math.sqrt(0.0{squares}) / {n} ** 0.5",
        "return y_new, error_norm, (k1, k2, k3, k4, k5, k6, k7)",
    ]
    return "def step(fun, t, h, y, k1, atol, rtol):\n" + "".join(f"    {line}\n" for line in body)


@functools.cache
def _step(n: int):
    """The step for n components, compiled once per n."""
    namespace = {}
    exec(compile(_step_source(n), f"<rk45 step, n = {n}>", "exec"), globals(), namespace)
    return namespace["step"]


def solve_ivp(fun, t_span, y0, events=(), rtol=1e-3, atol=1e-6, first_step=None) -> Solution:
    """Integrate y' = fun(t, y) over t_span as scipy's RK45 does.

    ``fun`` receives the state as a list of floats and returns a sequence;
    ``atol`` is a positive number or one per component; ``events`` are
    callables ``event(t, y)`` with optional ``terminal`` (bool) and
    ``direction`` attributes, as for scipy."""
    t, t_bound = (float(v) for v in t_span)
    y = [float(v) for v in y0]
    if not all(math.isfinite(v) for v in y):
        raise ValueError("All components of the initial state `y0` must be finite.")
    n = len(y)
    atol = [float(a) for a in atol] if isinstance(atol, (list, tuple)) else [float(atol)] * n
    if len(atol) != n or not all(a > 0 for a in atol):
        raise ValueError("atol must be positive, one value or one per component")
    step = _step(n)
    direction = -1.0 if t_bound < t else 1.0
    terminal = [bool(getattr(ev, "terminal", False)) for ev in events]
    ev_dir = [getattr(ev, "direction", 0) for ev in events]
    t_events = [[] for _ in events]
    g = [ev(t, y) for ev in events]

    f = fun(t, y)
    nfev = 1
    if t == t_bound:
        return Solution(0, _MESSAGES[0], t, y, t_events, nfev)
    if first_step is None:
        h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
        nfev += 1
    else:
        h_abs = first_step

    status = None
    while status is None:
        # one accepted step: scipy's RungeKutta._step_impl
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN fails here too
                return Solution(-1, _TOO_SMALL_STEP, t, y, t_events, nfev)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            if nfev + 6 > _NFEV_BUDGET:
                return Solution(-1, _BUDGET_SPENT, t, y, t_events, nfev)
            y_new, error_norm, K = step(fun, t, h, y, f, atol, rtol)
            nfev += 6
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True

        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[6]
        if direction * (t - t_bound) >= 0:
            status = 0

        if events:
            g_new = []
            active = []
            for i, ev in enumerate(events):
                a, b, d = g[i], ev(t, y), ev_dir[i]
                g_new.append(b)
                if (a <= 0 <= b and d >= 0) or (a >= 0 >= b and d <= 0):
                    active.append(i)
            if active:
                sol = _dense_output(t_old, h, y_old, K)
                roots = [
                    (_brentq(lambda s, ev=events[i]: ev(s, sol(s)), t_old, t,
                             xtol=4 * _EPS, rtol=4 * _EPS), i)
                    for i in active
                ]
                roots.sort(key=lambda r: direction * r[0])
                for root, i in roots:
                    t_events[i].append(root)
                    if terminal[i]:
                        status = 1
                        t, y = root, sol(root)
                        break
            g = g_new

    return Solution(status, _MESSAGES[status], t, y, t_events, nfev)
