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
numpy may fuse a multiply and an add where Python rounds twice.  An
event's ``terminal`` must be a bool: a count of occurrences, which scipy
honours, raises ValueError, as does a ``first_step`` that is not positive
or exceeds the span, with scipy's messages.  A right-hand side that keeps
returning NaN fails the solve with scipy's step-size message; scipy itself
loops forever on a NaN step size.

Each solve runs a loop generated for its right-hand side and events:
`_loop` fills the one template `_LOOP` and compiles it once per form, as
``collections.namedtuple`` builds its class.  The loop holds the state,
the stages and the event values in local floats, and writes out the
stage states, the new state, the error norm, the step control and the
events' sign tests per component, each tableau entry as the literal of
its float.  A right-hand side given as a `System` (its components' names,
statements and derivatives as source, and named parameters) and events
given as `Event`s (an expression, ``terminal`` and ``direction``) are
written straight into the loop; the parameters are the loop's arguments,
so one compile serves every parameter value.  A plain callable is called
from the same template.  A System and an Event stay callable, compiled
from the same source, for the first evaluations, the initial step, the
event roots and scipy.  The written-out expressions are the sums over the
components' lists, in the same order and grouping
(``y + (k1*a1 + ... + kj*aj)*h``, ``y + h*(k1*b1 + ... + k6*b6)``, the
squared error terms added to 0.0 in component order), min and max are
written as the comparisons they make, and Python floats are IEEE doubles
that never fuse a multiply and an add, so no bit changes: a System's solve
is the solve of the callable compiled from its source.  Event roots, which
are rare, go through `_dense_output` and `_brentq`.  On the 35
default-grid Loud periods (70 solves, 7,637 steps) a step costs 4.1-6.3 µs
on a 2-core x86-64 host whose speed drifts, everything included (the
set-up of each solve and the event roots), and scipy's solve_ivp takes
about 16 times as long as this port (the median ratio of 6 rounds
interleaved in one process).

A solve that would take more than `_NFEV_BUDGET` = 10^6 right-hand side
evaluations stops with status -1 and a message that names the budget;
scipy has no such limit.  A stiff system, such as the Loud entry arc at
F = 1e19, shrinks the step without end and would otherwise run for hours.
No Loud period solve of a sweep over 0.51 <= F <= 100 took more than 4,808.
"""

from __future__ import annotations

import ast
import builtins
import functools
import math
from dataclasses import dataclass, field

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
    Q = K^T P, K[i] being the seven stage derivatives of component i."""
    Q = [[_dot(k, p) for p in _P_COLUMNS] for k in K]

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


def _locate(events, hits, terminal, t_old, t, h, y_old, K, direction, t_events):
    """The events of ``hits`` changed sign over the step from t_old to t:
    each root is found by `_brentq` on the step's dense output and recorded
    in t_events, in the order of time, up to the first terminal one, whose
    (root, state) is returned; None if no terminal event fired."""
    sol = _dense_output(t_old, h, y_old, K)
    roots = [
        (_brentq(lambda s, ev=events[i]: ev(s, sol(s)), t_old, t, xtol=4 * _EPS, rtol=4 * _EPS), i)
        for i, hit in enumerate(hits)
        if hit
    ]
    roots.sort(key=lambda r: direction * r[0])
    for root, i in roots:
        t_events[i].append(root)
        if terminal[i]:
            return root, sol(root)
    return None


_nextafter, _sqrt = math.nextafter, math.sqrt

# The solve loop, scipy's RungeKutta._step_impl and the event sign test in
# local floats.  Its own names start with "_"; a system's and an event's
# names do not.  The blocks in braces are written per component and per
# event by `_loop`.
_LOOP = """\
def _solve(_fun, _events, _t, _t_bound, _y, _f, _g, _h_abs, _atol, _rtol, _direction, _nfev{params}):
    {y}, = _y
    {k1}, = _f
    {atol}, = _atol
    {ay} = {abs_y}
    {start}
    _toward = _direction * math.inf
    _t_events = [[] for _ in _events]
    while True:
        _min_step = 10 * abs(_nextafter(_t, _toward) - _t)
        if _h_abs < _min_step:
            _h_abs = _min_step
        _rejected = False
        while True:
            if not _h_abs >= _min_step:  # NaN fails here too
                return Solution(-1, _TOO_SMALL_STEP, _t, [{y}], _t_events, _nfev)
            _t_new = _t + _h_abs * _direction
            if _direction * (_t_new - _t_bound) > 0:
                _t_new = _t_bound
            _h = _t_new - _t
            _h_abs = abs(_h)
            if _nfev + 6 > _NFEV_BUDGET:
                return Solution(-1, _BUDGET_SPENT, _t, [{y}], _t_events, _nfev)
            {step}
            _nfev += 6
            if _error_norm < 1:
                if _error_norm == 0:
                    _factor = _MAX_FACTOR
                else:
                    _factor = _SAFETY * _error_norm ** _ERROR_EXPONENT
                    if not _factor < _MAX_FACTOR:
                        _factor = _MAX_FACTOR
                if _rejected and not _factor < 1.0:
                    _factor = 1.0
                _h_abs *= _factor
                break
            _factor = _SAFETY * _error_norm ** _ERROR_EXPONENT
            _h_abs *= _factor if _factor > _MIN_FACTOR else _MIN_FACTOR
            _rejected = True
        {events}
        _t = _t_new
        {y} = {yn}
        {ay} = {ayn}
        {k1} = {k7}
        if _direction * (_t - _t_bound) >= 0:
            return Solution(0, _MESSAGES[0], _t, [{y}], _t_events, _nfev)
"""


def _free(names, statements=(), expressions=(), params=()) -> frozenset:
    """The names that one-line source for the state ``names`` reads.  It
    may read the state, the parameters, the names its statements assign,
    ``math`` and the builtins; ValueError if it reads another name, binds
    one twice, or binds one that is not an identifier, starts with "_" or
    is a name of this module or the builtins, which the solve loop reads."""
    assigned, read = set(), set()
    trees = [ast.parse(s, mode="exec") for s in statements]
    trees += [ast.parse(e, mode="eval") for e in expressions]
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            (assigned if isinstance(node.ctx, ast.Store) else read).add(node.id)
    own = [*names, *params, *assigned]
    taken = set(globals()) | set(vars(builtins))
    if len(set(own)) < len(own) or any(not b.isidentifier() or b[0] == "_" or b in taken for b in own):
        raise ValueError(f"names not identifiers, bound twice or taken by the solve loop: {own}")
    unbound = sorted(read - set(own) - taken)
    if unbound or any("\n" in s for s in [*statements, *expressions]):
        raise ValueError(f"source that spans lines or reads unbound names {unbound}")
    return frozenset(read)


def _compile(source: str, name: str):
    namespace = {}
    exec(compile(source, f"<rk45 {name}>", "exec"), globals(), namespace)
    return namespace[name]


@functools.cache
def _function(names, statements, result, params):
    """The source as a callable, compiled once per source:
    ``_function(...)(*param values)`` is fun(t, y), returning ``result``."""
    _free(names, statements, [result], params)
    body = [f"{', '.join(names)}, = _y", *statements]
    return _compile(
        f"def _make({', '.join(params)}):\n"
        "    def _fun(_t, _y):\n"
        + "".join(f"        {line}\n" for line in body)
        + f"        return {result}\n"
        "    return _fun\n",
        "_make",
    )


@dataclass(frozen=True)
class System:
    """An autonomous right-hand side y' = f(y) as source: the derivative of
    the component ``names[i]`` is the expression ``derivatives[i]``,
    evaluated after the one-line statements ``lines``.  The source reads
    the state by its names, the names the lines assign, the ``params`` by
    name, ``math`` and the builtins.  A System is called as fun(t, y),
    compiled from the same source; `solve_ivp` writes it into its loop."""

    names: tuple
    derivatives: tuple
    lines: tuple = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.derivatives) != len(self.names):
            raise ValueError("a System needs one derivative per component")

    @functools.cached_property
    def form(self) -> tuple:
        """What fixes the source: names, lines, derivatives and the
        parameters' names."""
        return tuple(self.names), tuple(self.lines), tuple(self.derivatives), tuple(self.params)

    @functools.cached_property
    def _fun(self):
        names, lines, derivatives, params = self.form
        return _function(names, lines, f"[{', '.join(derivatives)}]", params)(*self.params.values())

    def __call__(self, t, y):
        return self._fun(t, y)


@dataclass(frozen=True)
class Event:
    """An event function g(y) as source: ``expression`` reads the state by
    its ``names``, ``math`` and the builtins.  A solve records each root of
    g crossed in ``direction`` (either way if 0) and, if ``terminal``,
    stops at the first.  Called as event(t, y), it is compiled from the
    same source; `solve_ivp` writes it into its loop."""

    expression: str
    names: tuple
    terminal: bool = False
    direction: float = 0.0

    @functools.cached_property
    def _fun(self):
        return _function(tuple(self.names), (), self.expression, ())()

    def __call__(self, t, y):
        return self._fun(t, y)


def _stage(system, j: int, time: str, state: list) -> list:
    """Source that sets _k<j>_0, _k<j>_1, ... to the right-hand side at the
    time and state expressions: a call of ``_fun``, or, for a
    `System.form`, its source written in."""
    if system is None:
        return [f"{', '.join(f'_k{j}_{i}' for i in range(len(state)))}, = _fun({time}, [{', '.join(state)}])"]
    names, lines, derivatives, params = system
    read = _free(names, lines, derivatives, params)
    bound = (f"{name} = {x}" for name, x in zip(names, state) if name in read)
    derivative = (f"_k{j}_{i} = {d}" for i, d in enumerate(derivatives))
    return [*bound, *lines, *derivative]


@functools.cache
def _loop(n: int, system, events):
    """The solve loop for n components, compiled once per form.  system is
    a `System.form` to write in, or None for a callable ``_fun(t, y)``;
    each event is (expression, names) of an `Event` to write in, or None
    for a callable ``_events[i](t, y)``, then its terminal flag and
    whether the sign test takes rises and falls."""

    def each(pattern: str) -> list:
        """pattern once per component, "#" standing for its index."""
        return [pattern.replace("#", str(i)) for i in range(n)]

    def row(pattern: str) -> str:
        return ", ".join(each(pattern))

    def weighted(weights: list, count: int) -> str:
        """_k1_# * w1 + ... + _k<count>_# * w<count>, each weight written
        as the literal of its float."""
        return " + ".join(f"_k{m}_# * {w!r}" for m, w in enumerate(weights[:count], 1))

    step = []
    for j in range(2, 7):
        state = each(f"_y# + ({weighted(_A[j - 1], j - 1)}) * _h")
        step += _stage(system, j, f"_t + {_C[j - 1]!r} * _h", state)
    step += each(f"_yn# = _y# + _h * ({weighted(_B, 6)})")
    step += _stage(system, 7, "_t + _h", each("_yn#"))
    # the scale atol + max(|y|, |y_new|) rtol, with |y| kept from the step before
    step += each("_ayn# = abs(_yn#)")
    step += each(f"_e# = ({weighted(_E, 7)}) * _h / (_atol# + (_ayn# if _ayn# > _ay# else _ay#) * _rtol)")
    step.append(f"_error_norm = _sqrt(0.0{''.join(each(' + _e# * _e#'))}) / {n} ** 0.5")

    g, b, hit = ([f"{v}{i}" for i in range(len(events))] for v in ("_g", "_b", "_hit"))
    start = [f"{', '.join(g)}, = _g"] if events else []
    tests = [f"_y_new = [{row('_yn#')}]"] if any(source is None for source, *_ in events) else []
    for i, (source, _, up, down) in enumerate(events):
        if source is None:
            start.append(f"_ev{i} = _events[{i}]")
            tests.append(f"_b{i} = _ev{i}(_t_new, _y_new)")
        else:
            expression, names = source
            read = _free(names, (), [expression])
            tests += [f"{name} = _yn{k}" for k, name in enumerate(names) if name in read]
            tests.append(f"_b{i} = {expression}")
        sign = [f"_g{i} <= 0 <= _b{i}"] * up + [f"_g{i} >= 0 >= _b{i}"] * down
        tests.append(f"_hit{i} = {' or '.join(sign) or 'False'}")
    if events:
        K = ", ".join(f"({', '.join(f'_k{j}_{i}' for j in range(1, 8))})" for i in range(n))
        tests += [
            f"if {' or '.join(hit)}:",
            f"    _end = _locate(_events, ({', '.join(hit)},), {tuple(t for _, t, *_ in events)!r}, "
            f"_t, _t_new, _h, ({row('_y#')},), ({K},), _direction, _t_events)",
            "    if _end is not None:",
            "        return Solution(1, _MESSAGES[1], *_end, _t_events, _nfev)",
            f"{', '.join(g)} = {', '.join(b)}",
        ]

    source = _LOOP.format(
        params="".join(f", {p}" for p in (system[3] if system else ())),
        y=row("_y#"),
        yn=row("_yn#"),
        k1=row("_k1_#"),
        k7=row("_k7_#"),
        atol=row("_atol#"),
        ay=row("_ay#"),
        ayn=row("_ayn#"),
        abs_y=row("abs(_y#)"),
        start="\n    ".join(start),
        step="\n            ".join(step),
        events="\n        ".join(tests),
    )
    return _compile(source, "_solve")


def solve_ivp(fun, t_span, y0, events=(), rtol=1e-3, atol=1e-6, first_step=None) -> Solution:
    """Integrate y' = fun(t, y) over t_span as scipy's RK45 does.

    ``fun`` is a `System`, or a callable that receives the state as a list
    of floats and returns a sequence; ``atol`` is a positive number or one
    per component; ``events`` are `Event`s, or callables ``event(t, y)``
    with optional ``terminal`` (a bool) and ``direction`` attributes, as
    for scipy; a lone event is taken as a list of one, as scipy takes it.
    ``first_step``, if given, is positive and within t_span."""
    t, t_bound = (float(v) for v in t_span)
    y = [float(v) for v in y0]
    if not all(math.isfinite(v) for v in y):
        raise ValueError("All components of the initial state `y0` must be finite.")
    n = len(y)
    atol = [float(a) for a in atol] if isinstance(atol, (list, tuple)) else [float(atol)] * n
    if len(atol) != n or not all(a > 0 for a in atol):
        raise ValueError("atol must be positive, one value or one per component")
    if first_step is not None:
        if first_step <= 0:
            raise ValueError("`first_step` must be positive.")
        if first_step > abs(t_bound - t):
            raise ValueError("`first_step` exceeds bounds.")
    if callable(events):
        events = [events]
    forms = []
    for ev in events:
        terminal = getattr(ev, "terminal", False)
        if not isinstance(terminal, bool):
            raise ValueError("The `terminal` attribute of each event must be a bool.")
        d = getattr(ev, "direction", 0)
        source = (ev.expression, tuple(ev.names)) if isinstance(ev, Event) else None
        forms.append((source, terminal, bool(d >= 0), bool(d <= 0)))
    if isinstance(fun, System):
        if len(fun.names) != n:
            raise ValueError("the System's names and y0 differ in length")
        loop = _loop(n, fun.form, tuple(forms))
        params = fun.params.values()
    else:
        loop = _loop(n, None, tuple(forms))
        params = ()
    direction = -1.0 if t_bound < t else 1.0
    g = [ev(t, y) for ev in events]

    f = fun(t, y)
    nfev = 1
    if t == t_bound:
        return Solution(0, _MESSAGES[0], t, y, [[] for _ in events], nfev)
    if first_step is None:
        h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
        nfev += 1
    else:
        h_abs = first_step
    return loop(fun, events, t, t_bound, y, f, g, h_abs, atol, rtol, direction, nfev, *params)
