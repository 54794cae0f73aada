"""scipy's RK45 for the Loud charts, stepped in Python floats.

`solve_ivp` here is a port of ``scipy.integrate.solve_ivp(method="RK45")``
for what the Loud period integration passes it: a right-hand side given
as a `System`, a forward span and `Event`s, each of which ends the solve
(scipy's ``terminal=True``).  Its systems have two or three components,
where scipy's per-step numpy overhead costs several times the right-hand
side.  The port keeps everything that decides the steps and the events:

* the Dormand-Prince 5(4) tableau, written out as the fractions of scipy's
  source, each the float that scipy's array holds;
* the initial step of ``select_initial_step`` (or ``first_step``);
* the step control: safety 0.9, factors between 0.2 and 10, exponent -1/5,
  no growth right after a rejected step, failure below ten spacings of t;
* the event location: the sign test with ``direction``, Brent's root
  finder at ``xtol = rtol = 4 EPS`` on the same quartic dense output, and
  the earliest root (the lower index on a tie) ending the solve at
  ``sol(t_event)``.

The module imports nothing from scipy, so the Loud period sweep runs
without loading it.  The solve loop finds event roots with a root search
written into it (`_BRENT`): scipy's ``brentq`` line by line (the C routine
``brentq.c``, Brent's method in the form of R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4, behind scipy's wrapper
that raises on a NaN value), so it evaluates the event at the points where
``scipy.optimize.brentq`` does and returns its root bit for bit.  The
tests hold it to scipy's brentq.

Each sum is formed in numpy's order (the stages times their weights, then
times h), so solutions agree with scipy's to rounding in the last bits:
numpy may fuse a multiply and an add where Python rounds twice.  A
``fun`` that is not a System raises TypeError and a span that runs
backward ValueError; a ``first_step`` that is not positive or exceeds the
span raises ValueError with scipy's messages.  A right-hand side that
keeps returning NaN fails the solve with scipy's step-size message; scipy
itself loops forever on a NaN step size.

Each solve runs a loop generated for its System and Events: `_loop` fills
the one template `_LOOP` and compiles it once per form, as
``collections.namedtuple`` builds its class.  The loop holds the state,
the stages and the event values in local floats, and writes out per
component and per event the first evaluations, the initial step, the
stages, the error norm, the step control, the sign tests and the roots,
each tableau entry and step-control constant as a literal.  The System's
source (its components' names, statements and derivatives) and each
Event's expression are written into the loop; the System's named
parameters are the loop's arguments, so one compile serves every
parameter value, and a term of the parameters alone passed as a
parameter is computed once per solve.  Called as fun(t, y) and
event(t, y), a System and an Event run the same source compiled on its
own, for scipy and the tests.  The written-out expressions are the sums
over the components' lists in the same order and grouping
(``y + (k1*a1 + ... + kj*aj)*h``, ``y + h*(k1*b1 + ... + k6*b6)``, each
norm's squared terms added to 0.0 in component order), min and max are
written as the comparisons they make, and Python floats never fuse a
multiply and an add; the tests hold the loop, bit for bit, to those sums
stepped in plain Python.  The root search `_BRENT`, one copy for all the
loop's events, runs on the step's quartic dense output, written with the
operations of scipy's ``RkDenseOutput``.  On the 35 default-grid Loud
periods (70 solves, 7,637 steps) a step costs 3.0-5.8 µs on a 2-core
x86-64 host whose speed drifts, set-up and event roots included, and
scipy's solve_ivp takes about 18 times as long (the median ratio of 24
rounds interleaved in one process).

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
# Its nodes C are left out: a System is autonomous, so no stage reads its time.
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

@dataclass
class Solution:
    """Outcome of one solve: ``t`` and ``y`` are the final time and state
    (at the event root that ended it, if one did), ``t_events`` a list per
    event, holding that root for the event that ended the solve and empty
    for the others, ``nfev`` the number of right-hand side evaluations."""

    status: int
    message: str
    t: float
    y: list
    t_events: list
    nfev: int


# scipy's brentq: its messages and its default iteration limit
_NAN_VALUE = "The function value at x={} is NaN; solver cannot continue."
_SAME_SIGNS = "f(a) and f(b) must have different signs"
_NO_CONVERGENCE = "Failed to converge after {} iterations."
_MAXITER = 100


# The solve loop: scipy's RK45.__init__ (the first evaluations and
# select_initial_step), RungeKutta._step_impl, the event sign test and the
# event roots, in local floats.  Its own names start with "_"; a system's
# and an event's names do not.  The blocks in braces are written per
# component and per event by `_loop`.
_LOOP = """\
def _solve(_t, _t_bound, _y, _h_abs, _atol, _rtol{params}):
    _abs, _nextafter, _sqrt = abs, math.nextafter, math.sqrt
    {y}, = _y
    {atol}, = _atol
    {start}
    _nfev = 1
    if _t == _t_bound:
        return Solution(0, _MESSAGES[0], _t, _y, {no_events}, _nfev)
    {ay} = {abs_y}
    if _h_abs is None:
        {initial_step}
        _nfev = 2
    while True:
        _min_step = 10.0 * (_nextafter(_t, math.inf) - _t)
        if _h_abs < _min_step:
            _h_abs = _min_step
        _rejected = False
        while True:
            if not _h_abs >= _min_step:  # NaN fails here too
                return Solution(-1, _TOO_SMALL_STEP, _t, [{y}], {no_events}, _nfev)
            _t_new = _t + _h_abs
            if _t_new > _t_bound:
                _t_new = _t_bound
            _h = _h_abs = _t_new - _t
            if _nfev + 6 > {budget!r}:
                return Solution(-1, _BUDGET_SPENT, _t, [{y}], {no_events}, _nfev)
            {step}
            _nfev += 6
            if _error_norm < 1.0:
                if _error_norm == 0.0:
                    _factor = {max_factor!r}
                else:
                    _factor = {safety!r} * _error_norm ** {exponent!r}
                    if not _factor < {max_factor!r}:
                        _factor = {max_factor!r}
                if _rejected and not _factor < 1.0:
                    _factor = 1.0
                _h_abs *= _factor
                break
            _factor = {safety!r} * _error_norm ** {exponent!r}
            _h_abs *= _factor if _factor > {min_factor!r} else {min_factor!r}
            _rejected = True
        {events}
        _t = _t_new
        {y} = {yn}
        {ay} = {ayn}
        {k1} = {k7}
        if _t >= _t_bound:
            return Solution(0, _MESSAGES[0], _t, [{y}], {no_events}, _nfev)
"""

# The root of event _i over the step from _t to _t_new: scipy's brentq,
# line by line, setting _root; "@xtol" and "@rtol" stand for its
# tolerances (the solve loop's are xtol = rtol = 4 EPS).  The "@value" line
# stands for the source that sets _fx to the value of event _i at time _x
# on the step's dense output, and raises on a NaN; its first two passes take
# the values at the ends of the step, and each pass after them is one of
# brentq's iterations.
_BRENT = f"""\
_xpre, _xcur = _t, _t_new
_xblk = _fblk = _spre = _scur = 0.0
_x = _xpre
_n = -2
while True:
    @value
    _n += 1
    if _n < 0:
        _fpre, _x = _fx, _xcur
        continue
    _fcur = _fx
    if _n == 0:
        if _fpre == 0:
            _root = _xpre
            break
        if _fcur == 0:
            _root = _xcur
            break
        if (_fpre < 0) == (_fcur < 0):
            raise ValueError(_SAME_SIGNS)
    elif _n == {_MAXITER}:
        raise RuntimeError({_NO_CONVERGENCE.format(_MAXITER)!r})
    if _fpre != 0 and _fcur != 0 and (_fpre < 0) != (_fcur < 0):
        _xblk, _fblk = _xpre, _fpre
        _spre = _scur = _xcur - _xpre
    if abs(_fblk) < abs(_fcur):
        _xpre, _xcur, _xblk = _xcur, _xblk, _xcur
        _fpre, _fcur, _fblk = _fcur, _fblk, _fcur
    _delta = (@xtol + @rtol * abs(_xcur)) / 2
    _sbis = (_xblk - _xcur) / 2
    if _fcur == 0 or abs(_sbis) < _delta:
        _root = _xcur
        break
    if abs(_spre) > _delta and abs(_fcur) < abs(_fpre):
        if _xpre == _xblk:
            _stry = -_fcur * (_xcur - _xpre) / (_fcur - _fpre)
        else:
            _dpre = (_fpre - _fcur) / (_xpre - _xcur)
            _dblk = (_fblk - _fcur) / (_xblk - _xcur)
            _stry = -_fcur * (_fblk * _dblk - _fpre * _dpre) / (_dblk * _dpre * (_fblk - _fpre))
        if 2 * abs(_stry) < min(abs(_spre), 3 * abs(_sbis) - _delta):
            _spre, _scur = _scur, _stry
        else:
            _spre = _scur = _sbis
    else:
        _spre = _scur = _sbis
    _xpre, _fpre = _xcur, _fcur
    if abs(_scur) > _delta:
        _xcur += _scur
    else:
        _xcur += _delta if _sbis > 0 else -_delta
    _x = _xcur
"""


def _names(source: str, mode: str) -> tuple:
    """The names one line of source assigns and the names it reads (an
    augmented assignment's target is both)."""
    assigned, read = set(), set()
    for node in ast.walk(ast.parse(source, mode=mode)):
        if isinstance(node, ast.Name):
            (assigned if isinstance(node.ctx, ast.Store) else read).add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
    return assigned, read


def _free(names, statements=(), expressions=(), params=()) -> frozenset:
    """The names that one-line source for the state ``names`` reads.  Each
    statement may read the state, the parameters, the names the statements
    before it assign, ``math`` and the builtins, and the expressions may
    read the names all the statements assign; ValueError if the source
    reads another name, binds one twice, or binds one that is not an
    identifier, starts with "_" or is a name of this module or the
    builtins, which the solve loop reads."""
    own, read = [*names, *params], set()
    taken = set(globals()) | set(vars(builtins))
    for source, mode in [*((s, "exec") for s in statements), *((e, "eval") for e in expressions)]:
        assigned, reads = _names(source, mode)
        unbound = sorted(reads - set(own) - taken)
        if unbound or "\n" in source:
            raise ValueError(f"source that spans lines or reads unbound names {unbound}")
        own += sorted(assigned)
        read |= reads
    if len(set(own)) < len(own) or any(not b.isidentifier() or b[0] == "_" or b in taken for b in own):
        raise ValueError(f"names not identifiers, bound twice or taken by the solve loop: {own}")
    return frozenset(read)


def _compile(source: str, name: str):
    namespace = {}
    exec(compile(source, f"<rk45 {name}>", "exec"), globals(), namespace)
    return namespace[name]


@functools.cache
def _function(names, statements, result, params):
    """The source as a function of (t, y), compiled once per source:
    ``_function(...)(*param values)`` returns ``result``."""
    _free(names, statements, [result], params)
    body = [f"{', '.join(names)}, = _y", *statements]
    return _compile(
        f"def _make({', '.join(params)}):\n"
        "    def _call(_t, _y):\n"
        + "".join(f"        {line}\n" for line in body)
        + f"        return {result}\n"
        "    return _call\n",
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
    def _compiled(self):
        names, lines, derivatives, params = self.form
        return _function(names, lines, f"[{', '.join(derivatives)}]", params)(*self.params.values())

    def __call__(self, t, y):
        return self._compiled(t, y)


@dataclass(frozen=True)
class Event:
    """An event function g(y) as source: ``expression`` reads the state by
    its ``names``, ``math`` and the builtins.  A solve stops at the first
    root of g crossed in ``direction`` (either way if 0).  Called as
    event(t, y), it is compiled from the same source, and its ``terminal``
    is True, as scipy reads it; `solve_ivp` writes it into its loop."""

    expression: str
    names: tuple
    direction: float = 0.0
    terminal = True  # a class constant, not a field: every event ends the solve

    @functools.cached_property
    def _compiled(self):
        return _function(tuple(self.names), (), self.expression, ())()

    def __call__(self, t, y):
        return self._compiled(t, y)


def _stage(system, j: int, state: list) -> list:
    """Source that sets _k<j>_0, _k<j>_1, ... to the right-hand side of
    the `System.form` system at the state expressions, its source written
    in."""
    names, lines, derivatives, params = system
    read = _free(names, lines, derivatives, params)
    bound = (f"{name} = {x}" for name, x in zip(names, state) if name in read)
    derivative = (f"_k{j}_{i} = {d}" for i, d in enumerate(derivatives))
    return [*bound, *lines, *derivative]


def _value(event, state: list, target: str) -> list:
    """Source that sets target to the event (expression, names) at the
    state expressions, its expression written in."""
    expression, names = event
    read = _free(names, (), [expression])
    return [*(f"{name} = {x}" for name, x in zip(names, state) if name in read), f"{target} = {expression}"]


def _indent(lines, depth: int = 1) -> list:
    return ["    " * depth + line for line in lines]


def _brent(value: list, xtol: float = 4 * _EPS, rtol: float = 4 * _EPS) -> list:
    """`_BRENT` with its "@value" line replaced by the source ``value`` and
    its tolerances by ``xtol`` and ``rtol``."""
    source = _BRENT.replace("@xtol", repr(xtol)).replace("@rtol", repr(rtol))
    head, tail = source.split("    @value\n")
    return [*head.splitlines(), *_indent(value), *tail.splitlines()]


@functools.cache
def _loop(n: int, system, events):
    """The solve loop for n components, compiled once per form: system is
    a `System.form` and each event the (expression, names) of an `Event`,
    then whether its sign test takes rises and whether it takes falls."""
    if any(set(system[3]) & set(names) for (_, names), *_ in events):
        raise ValueError(f"an event's names rebind a parameter of the system: {list(system[3])}")

    def each(pattern: str) -> list:
        """pattern once per component, "#" standing for its index."""
        return [pattern.replace("#", str(i)) for i in range(n)]

    def row(pattern: str) -> str:
        return ", ".join(each(pattern))

    def weighted(weights: list, count: int) -> str:
        """_k1_# * w1 + ... + _k<count>_# * w<count>, each weight written
        as the literal of its float."""
        return " + ".join(f"_k{m}_# * {w!r}" for m, w in enumerate(weights[:count], 1))

    def rms(target: str, term: str) -> list:
        """Source that sets target to scipy's norm of the terms:
        sqrt(x . x) / sqrt(n), the dot product summed from 0.0."""
        return [*each(f"_r# = {term}"), f"{target} = _sqrt(0.0{''.join(each(' + _r# * _r#'))}) / {n} ** 0.5"]

    # scipy's select_initial_step (Hairer, Norsett and Wanner, II.4), with
    # min and max written as the comparisons they make
    initial_step = [
        "_interval = _t_bound - _t",
        *each("_sc# = _atol# + _ay# * _rtol"),
        *rms("_d0", "_y# / _sc#"),
        *rms("_d1", "_k1_# / _sc#"),
        "_h0 = 1e-6 if _d0 < 1e-5 or _d1 < 1e-5 else 0.01 * _d0 / _d1",
        "if _interval < _h0:",
        "    _h0 = _interval",
        *_stage(system, 2, each("_y# + _h0 * _k1_#")),
        *rms("_d2", "(_k2_# - _k1_#) / _sc#"),
        "_d2 = _d2 / _h0 if _h0 else (math.inf if _d2 > 0 else math.nan)",
        "if _d1 <= 1e-15 and _d2 <= 1e-15:",
        "    _h1 = _h0 * 1e-3 if _h0 * 1e-3 > 1e-6 else 1e-6",
        "else:",
        "    _d2 = _d2 if _d2 > _d1 else _d1",
        f"    _h1 = (0.01 / _d2 if _d2 else math.inf) ** {-_ERROR_EXPONENT!r}",
        "_h_abs = 100 * _h0",
        "if _h1 < _h_abs:",
        "    _h_abs = _h1",
        "if _interval < _h_abs:",
        "    _h_abs = _interval",
    ]

    step = []
    for j in range(2, 7):
        state = each(f"_y# + ({weighted(_A[j - 1], j - 1)}) * _h")
        step += _stage(system, j, state)
    step += each(f"_yn# = _y# + _h * ({weighted(_B, 6)})")
    step += _stage(system, 7, each("_yn#"))
    # the scale atol + max(|y|, |y_new|) rtol, with |y| kept from the step before
    step += each("_ayn# = _abs(_yn#)")
    step += rms("_error_norm", f"({weighted(_E, 7)}) * _h / (_atol# + (_ayn# if _ayn# > _ay# else _ay#) * _rtol)")

    # the quartic dense output of the step, scipy's RkDenseOutput with
    # Q = K^T P, at the time _x
    at_x = ["_s = (_x - _t) / _h", "_s2 = _s * _s", "_s3 = _s2 * _s", "_s4 = _s3 * _s"]
    dense = each("_h * (0.0 + _q#_0 * _s + _q#_1 * _s2 + _q#_2 * _s3 + _q#_3 * _s4) + _y#")

    start, tests, value = [], [], [*at_x]
    for i, (source, up, down) in enumerate(events):
        start += _value(source, each("_y#"), f"_g{i}")
        tests += _value(source, each("_yn#"), f"_b{i}")
        sign = [f"_g{i} <= 0.0 <= _b{i}"] * up + [f"_g{i} >= 0.0 >= _b{i}"] * down
        tests.append(f"_hit{i} = {' or '.join(sign) or 'False'}")
        value += [f"if _i == {i}:", *_indent(_value(source, dense, "_fx"))]
    start += _stage(system, 1, each("_y#"))
    if events:
        # one root search for each event _i that changes sign over the
        # step; the earliest root, the lower index on a tie, ends the solve
        value += ["if math.isnan(_fx):", "    raise ValueError(_NAN_VALUE.format(_x))"]
        hits = [f"_hit{i}" for i in range(len(events))]
        roots = [
            f"for _i, _hit in enumerate(({', '.join(hits)},)):",
            "    if _hit:",
            *_indent(_brent(value), 2),
            "        _roots.append((_root, _i))",
            "_root, _i = min(_roots)",
            "_x = _root",
            *at_x,
            f"_t_events = [[_root] if _j == _i else [] for _j in range({len(events)})]",
            f"return Solution(1, _MESSAGES[1], _root, [{', '.join(dense)}], _t_events, _nfev)",
        ]
        q = [f"_q#_{c} = 0.0 + {weighted([p[c] for p in _P], 7)}" for c in range(4)]
        tests += [
            f"if {' or '.join(hits)}:",
            *_indent([*(line for pattern in q for line in each(pattern)), "_roots = []", *roots]),
            f"{', '.join(f'_g{i}' for i in range(len(events)))} = {', '.join(f'_b{i}' for i in range(len(events)))}",
        ]

    source = _LOOP.format(
        params="".join(f", {p}" for p in system[3]),
        y=row("_y#"),
        yn=row("_yn#"),
        k1=row("_k1_#"),
        k7=row("_k7_#"),
        atol=row("_atol#"),
        ay=row("_ay#"),
        ayn=row("_ayn#"),
        no_events=repr([[]] * len(events)),
        abs_y=row("_abs(_y#)"),
        start="\n    ".join(start),
        initial_step="\n        ".join(initial_step),
        step="\n            ".join(step),
        events="\n        ".join(tests),
        budget=_NFEV_BUDGET,
        safety=_SAFETY,
        exponent=_ERROR_EXPONENT,
        max_factor=_MAX_FACTOR,
        min_factor=_MIN_FACTOR,
    )
    return _compile(source, "_solve")


def solve_ivp(fun: System, t_span, y0, events=(), rtol=1e-3, atol=1e-6, first_step=None) -> Solution:
    """Integrate y' = fun(y) forward over t_span as scipy's RK45 does, up
    to the first root of the events.

    ``fun`` is a `System` (TypeError otherwise) and ``events`` are `Event`s
    of its state; t_span runs forward (ValueError otherwise); ``atol`` is a
    positive number or one per component; ``first_step``, if given, is
    positive and within t_span."""
    if not isinstance(fun, System):
        raise TypeError(f"fun must be an rk45.System, not {type(fun).__name__}")
    t, t_bound = (float(v) for v in t_span)
    if t_bound < t:
        raise ValueError(f"t_span must run forward, not from {t!r} back to {t_bound!r}")
    y = [float(v) for v in y0]
    if not all(math.isfinite(v) for v in y):
        raise ValueError("All components of the initial state `y0` must be finite.")
    n = len(y)
    if len(fun.names) != n:
        raise ValueError("the System's names and y0 differ in length")
    atol = [float(a) for a in atol] if isinstance(atol, (list, tuple)) else [float(atol)] * n
    if len(atol) != n or not all(a > 0 for a in atol):
        raise ValueError("atol must be positive, one value or one per component")
    if first_step is not None:
        if first_step <= 0:
            raise ValueError("`first_step` must be positive.")
        if first_step > t_bound - t:
            raise ValueError("`first_step` exceeds bounds.")
    forms = tuple(((ev.expression, tuple(ev.names)), ev.direction >= 0, ev.direction <= 0) for ev in events)
    loop = _loop(n, fun.form, forms)
    return loop(t, t_bound, y, first_step, atol, rtol, *fun.params.values())
