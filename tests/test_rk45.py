"""The scalar RK45 port against scipy's solve_ivp(method="RK45")."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from dulackit import loud, rk45
from dulackit.errors import EventMissed
from dulackit.rk45 import Event, System, solve_ivp

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# (D, s) points whose period solves are compared one by one.  Between them
# they take every chart path: the plane backward arc (v = 0 and guard
# events) everywhere, the log-w chart ending at the z switch (s = 0.05 and
# 0.2, which then finish in the horizontal chart with first_step = 1e-6)
# or at the w floor (s <= 0.01), and D = -1/2.
COMPARED = [(-0.9, 0.05), (-0.75, 0.01), (-0.5, 1e-3), (-0.25, 0.2), (-0.1, 10**-2.5)]
# Solves where one step-size decision comes out the other way, because the
# error norm lands within rounding of 1: at (-0.75, 0.01) the log-w solve
# takes 572 evaluations against scipy's 578.  From there the two runs
# differ by the integrator's error, not by rounding, so their final states
# are compared at the solve's tolerance (z: 1.75e-13 apart, against
# atol + rtol |z| = 1.8e-13).  Every other compared solve has equal nfev.
STEPS_DIFFER = {(-0.75, 0.01, "log_w")}


def scipy_rk45(fun, t_span, y0, events=(), **kw):
    """scipy's solve_ivp with the port's result shape (final state in y)."""
    sol = scipy.integrate.solve_ivp(fun, t_span, y0, events=events, **kw)
    return SimpleNamespace(
        status=sol.status,
        message=sol.message,
        t=float(sol.t[-1]),
        y=sol.y[:, -1].tolist(),
        t_events=[te.tolist() for te in sol.t_events],
        nfev=sol.nfev,
    )


def chart(y0, events):
    return {(2, 2): "plane_back", (3, 2): "log_w", (3, 1): "horizontal"}[(len(y0), len(events))]


def period_solves(D, s):
    """Every solve of period_numeric at (D, F = 1, s), run by the port and
    by scipy."""
    out = []

    def both(fun, t_span, y0, events=(), **kw):
        port = solve_ivp(fun, t_span, y0, events=events, **kw)
        ref = scipy_rk45(fun, t_span, y0, events=events, **kw)
        out.append((chart(y0, events), fun, kw, port, ref))
        return port

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loud, "solve_ivp", both)
        loud.period_numeric(loud.LoudParams(D=D, F=1.0), s)
    return out


def assert_same_solve(port, ref, fun, state_tol=None):
    """Same outcome and events; event times within 1e-13 relative; final
    states within state_tol, by default 1e-13 of max(|y|, 1), once moved
    along the orbit by the difference of the final times (brentq stops each
    root within 4 EPS (1 + |t|) of it, and the state's own coordinate runs
    fast at a z switch)."""
    assert (port.status, port.message) == (ref.status, ref.message)
    assert [len(te) for te in port.t_events] == [len(te) for te in ref.t_events]
    for te_p, te_r in zip(port.t_events, ref.t_events):
        for a, b in zip(te_p, te_r):
            assert abs(a - b) <= 1e-13 * abs(b)
    dt = abs(port.t - ref.t)
    assert dt <= 1e-13 * max(abs(ref.t), 1.0)
    if state_tol is None:
        state_tol = [1e-13 * max(abs(b), 1.0) for b in ref.y]
    for a, b, f, tol in zip(port.y, ref.y, fun(ref.t, list(ref.y)), state_tol):
        assert abs(a - b) <= tol + abs(f) * dt


@pytest.mark.parametrize("D, s", COMPARED)
def test_period_solves_match_scipy(D, s):
    for name, fun, kw, port, ref in period_solves(D, s):
        if (D, s, name) in STEPS_DIFFER:
            tol = [a + kw["rtol"] * abs(y) for a, y in zip(kw["atol"], ref.y)]
            assert_same_solve(port, ref, fun, tol)
        else:
            assert_same_solve(port, ref, fun)
            assert port.nfev == ref.nfev, name


def test_compared_points_cover_every_chart_ending():
    endings = set()
    for D, s in COMPARED:
        for name, _, _, port, _ in period_solves(D, s):
            fired = tuple(i for i, te in enumerate(port.t_events) if te)
            endings.add((name, fired))
    assert endings == {
        ("plane_back", (0,)),  # v = 0 reached
        ("log_w", (0,)),  # z switch
        ("log_w", (1,)),  # w floor
        ("horizontal", (0,)),
    }


def test_default_grid_periods_match_scipy(monkeypatch):
    s_grid = np.geomspace(1e-3, 1e-2, 7)
    D_grid = [-0.9, -0.75, -0.5, -0.25, -0.1]
    points = [(loud.LoudParams(D=D, F=1.0), float(s)) for D in D_grid for s in s_grid]
    port = [loud.period_numeric(p, s) for p, s in points]
    monkeypatch.setattr(loud, "solve_ivp", scipy_rk45)
    ref = [loud.period_numeric(p, s) for p, s in points]
    for a, b in zip(port, ref):
        assert abs(a - b) <= 1e-13 * abs(b)


def test_default_grid_step_count():
    """The 35 default-grid periods take 70 solves and 45,962 right-hand
    side evaluations: the steps are the steps these solves have always
    taken (perfbench's seed-3 loud_sweep round reads 551,544)."""
    solves = []

    def counted(*args, **kw):
        sol = solve_ivp(*args, **kw)
        solves.append(sol.nfev)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loud, "solve_ivp", counted)
        for D in [-0.9, -0.75, -0.5, -0.25, -0.1]:
            for s in np.geomspace(1e-3, 1e-2, 7):
                loud.period_numeric(loud.LoudParams(D=D, F=1.0), float(s))
    assert (len(solves), sum(solves)) == (70, 45962)


def test_tableau_is_scipys():
    """The written-out Dormand-Prince fractions are the floats of scipy's
    RK45 arrays."""
    RK45 = scipy.integrate.RK45
    assert RK45.error_estimator_order == 4 and rk45._ERROR_EXPONENT == -1 / 5
    for name in "ABEP":
        assert getattr(rk45, f"_{name}") == getattr(RK45, name).tolist(), name


def _polynomial_brackets(seed, count):
    """Seeded random polynomials of degree 1-5 with a sign change over a
    random interval: (f, a, b)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(2, 6))]
        f = lambda x, c=c: sum(ci * x**i for i, ci in enumerate(c))
        a, b = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
        if (f(a) < 0) != (f(b) < 0):
            out.append((f, a, b))
    return out


def _template_search(xtol=4 * rk45._EPS, rtol=4 * rk45._EPS):
    """`_BRENT` as a function search(f, a, b), its value line a call of f
    that raises on a NaN, as the solve loop's value lines do."""
    value = ["_fx = _f(_x)", "if math.isnan(_fx):", "    raise ValueError(_NAN_VALUE.format(_x))"]
    body = "".join(f"    {line}\n" for line in rk45._brent(value, xtol, rtol))
    namespace = {}
    exec(f"def _search(_f, _t, _t_new):\n{body}    return _root\n", vars(rk45), namespace)
    return namespace["_search"]


def _searched(search, f, a, b):
    """The root search's outcome, its root or its error, and the points
    where it evaluated f."""
    points = []
    try:
        return search(lambda x: (points.append(x), f(x))[1], a, b), points
    except (ValueError, RuntimeError) as error:
        return (type(error), str(error)), points


def _scipy_brentq(f, a, b, xtol=4 * rk45._EPS, rtol=4 * rk45._EPS):
    return scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize("xtol, rtol", [(4 * rk45._EPS, 4 * rk45._EPS), (1e-12, 4 * rk45._EPS)])
def test_brentq_is_scipys(xtol, rtol):
    """`_BRENT` at the given tolerances evaluates f where scipy's brentq
    does and returns its root, by ==, on 400 seeded brackets taken either
    way round."""
    search = _template_search(xtol, rtol)
    for f, a, b in _polynomial_brackets(seed=15, count=400):
        for case in [(f, a, b), (f, b, a)]:
            assert _searched(search, *case) == _searched(lambda *c: _scipy_brentq(*c, xtol, rtol), *case)


def test_root_search_template_is_brentq():
    """`_BRENT` as the solve loop fills it, at xtol = rtol = 4 EPS,
    evaluates f where scipy's brentq does and returns its root, by ==: on
    200 more seeded brackets taken either way round and on a zero at
    either end."""
    search = _template_search()
    cases = [case for f, a, b in _polynomial_brackets(seed=16, count=200) for case in [(f, a, b), (f, b, a)]]
    cases += [(lambda x: x - 0.5, 0.5, 1.0), (lambda x: x - 1.0, 0.5, 1.0)]
    for f, a, b in cases:
        assert _searched(search, f, a, b) == _searched(_scipy_brentq, f, a, b)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0),
        (lambda x: x * x + 1.0, 0.0, 1.0),
        # a step: each iteration halves the bracket, 100 of them are too few
        (lambda x: 1.0 if x > 0.3 else -1.0, -1e300, 1e300),
    ],
    ids=["nan", "same-signs", "maxiter"],
)
def test_brentq_fails_as_scipy_does(f, a, b):
    """`_BRENT` raises scipy's error with scipy's message, after the same
    evaluations."""
    outcome = _searched(_template_search(), f, a, b)
    assert isinstance(outcome[0], tuple) and outcome == _searched(_scipy_brentq, f, a, b)


OSCILLATOR = System(("x", "p"), ("p", "-x"))
DECAY = System(("y",), ("-y",))
# y' = 1 until the clock c passes 1/2, then NaN
NAN_AFTER_HALF = System(("y", "b", "c"), ("math.nan if c > 0.5 else 1.0", "1.0", "1.0"))


def _system(n):
    """An n-component test system in which every component's stage states
    reach a derivative: for n = 1, y0' = -sin t - (y0 - cos t) / 2 (solved
    by cos t), with t as the clock component c' = 1; for n = 2, the
    oscillator; for n = 3 and 4, further components integrate y0 and y2,
    and the last one feeds back into y0'."""
    return {
        1: System(("y0", "c"), ("-math.sin(c) - 0.5 * (y0 - math.cos(c))", "1.0")),
        2: System(("y0", "y1"), ("y1", "-y0")),
        3: System(("y0", "y1", "y2"), ("y1 + 0.1 * y2", "-y0", "y0")),
        4: System(("y0", "y1", "y2", "y3"), ("y1 + 0.1 * y3", "-y0", "y0", "y2")),
    }[n]


def _start(n, t0=0.0):
    """The initial state of `_system(n)` at t0: y0 = 1, the clock at t0,
    the other components 0."""
    return [1.0, t0] if n == 1 else [1.0, 0.0, 0.0, 0.0][:n]


DIMENSIONS = pytest.mark.parametrize("n", [1, 2, 3, 4], ids=lambda n: f"n{n}")
# a span from t = 0, as every Loud solve has, and one from t = 5
SPANS = pytest.mark.parametrize("t_span", [(0.0, 20.0), (5.0, 25.0)], ids=["forward", "from-5"])


@DIMENSIONS
@SPANS
def test_events_and_direction_match_scipy(t_span, n):
    """Each event ends the solve at its first root in its direction, as
    scipy's terminal events do: y0 rising through 1/2, y0 falling through
    it, y0 crossing -1/2 either way, and two levels 1e-9 apart that y0
    falls through in one step, where the later in index order is crossed
    first and its root wins."""
    system, y0 = _system(n), _start(n, t_span[0])
    kw = dict(rtol=1e-10, atol=1e-12)
    pair = [Event("y0 - 0.5", system.names), Event(f"y0 - {0.5 + 1e-9!r}", system.names)]
    cases = [
        ([Event("y0 - 0.5", system.names, 1.0)], 0),
        ([Event("y0 - 0.5", system.names, -1.0)], 0),
        ([Event("y0 + 0.5", system.names)], 0),
        (pair, 1),
    ]
    for events, fired in cases:
        port = solve_ivp(system, t_span, y0, events=events, **kw)
        ref = scipy_rk45(system, t_span, y0, events=events, **kw)
        assert port.status == 1 and [i for i, te in enumerate(port.t_events) if te] == [fired]
        assert_same_solve(port, ref, system)
        assert port.nfev == ref.nfev
    seen = set()
    assert outcome(port) == reference_outcome(system, pair, t_span, y0, kw, seen)
    assert "two in one step, out of index order" in seen


@DIMENSIONS
def test_whole_interval_without_events_matches_scipy(n):
    system, y0 = _system(n), _start(n)
    kw = dict(rtol=1e-11, atol=[1e-14, 1e-13, 1e-14, 1e-13][: len(y0)])
    port = solve_ivp(system, (0.0, 7.5), y0, **kw)
    ref = scipy_rk45(system, (0.0, 7.5), y0, **kw)
    assert port.status == 0 and port.t == 7.5
    assert_same_solve(port, ref, system)
    assert port.nfev == ref.nfev


def test_empty_interval_matches_scipy():
    port = solve_ivp(OSCILLATOR, (1.0, 1.0), [1.0, 0.0])
    ref = scipy_rk45(OSCILLATOR, (1.0, 1.0), [1.0, 0.0])
    assert (port.status, port.t, port.y, port.nfev) == (ref.status, ref.t, ref.y, ref.nfev)


class TestFailures:
    @pytest.mark.parametrize(
        "rhs, y0",
        [
            (NAN_AFTER_HALF, [1.0, 2.0, 0.0]),
            # slope 1 at the start, NaN at the trial point of the initial
            # step and everywhere after it
            (System(("y",), ("1.0 if y == 0.0 else math.nan",)), [0.0]),
        ],
        ids=["nan-after-t", "nan-after-start"],
    )
    def test_nan_rhs_fails_as_scipy_does(self, rhs, y0):
        port = solve_ivp(rhs, (0.0, 10.0), y0, rtol=1e-11, atol=1e-14)
        ref = scipy_rk45(rhs, (0.0, 10.0), y0, rtol=1e-11, atol=1e-14)
        assert (port.status, port.message) == (-1, TOO_SMALL_STEP)
        assert (port.status, port.message, port.t, port.nfev) == (ref.status, ref.message, ref.t, ref.nfev)

    def test_nan_from_the_start_fails(self):
        # scipy never leaves its step loop here: the step size is NaN
        sol = solve_ivp(System(("y",), ("math.nan",)), (0.0, 1.0), [1.0], rtol=1e-11, atol=1e-14)
        assert (sol.status, sol.message) == (-1, TOO_SMALL_STEP)

    def test_loud_solve_raises_event_missed(self):
        with pytest.raises(EventMissed, match="^Required step size"):
            loud._solve(NAN_AFTER_HALF, (0.0, 10.0), [1.0, 2.0, 0.0], [], 1e-14)

    def test_evaluation_budget(self):
        """A stiff linear equation: stability holds the explicit steps near
        3.3e-6, so the interval needs about 2e7 evaluations, and the solve
        stops at the budget with status -1 and a message that names it."""
        sol = solve_ivp(System(("y",), ("-1e6 * y",)), (0.0, 10.0), [1.0], rtol=1e-6, atol=1e-9)
        assert sol.status == -1
        assert sol.message == (
            "The solve needs more than its budget of 1000000 right-hand side evaluations."
        )
        assert 1_000_000 - 6 < sol.nfev <= 1_000_000 and 0 < sol.t < 10

    def test_stiff_entry_arc_stops_at_the_budget(self):
        """At F = 1e19 the backward plane arc stiffens through the F v^2
        term (it used to run for hours): EventMissed naming the budget."""
        with pytest.raises(EventMissed, match="^The solve needs more than its budget of 1000000 "):
            loud.time_to_entry(loud.LoudParams(D=-0.25, F=1e19), 0.001)

    @pytest.mark.parametrize("atol", [0.0, [1e-14], -1.0], ids=["zero", "wrong-length", "negative"])
    def test_bad_atol(self, atol):
        with pytest.raises(ValueError, match="atol"):
            solve_ivp(OSCILLATOR, (0.0, 1.0), [1.0, 0.0], atol=atol)

    def test_non_finite_start(self):
        with pytest.raises(ValueError, match="finite"):
            solve_ivp(OSCILLATOR, (0.0, 1.0), [math.inf, 0.0])

    @pytest.mark.parametrize(
        "first_step, message",
        [
            (-1e-3, "`first_step` must be positive."),
            (0.0, "`first_step` must be positive."),
            (5.0, "`first_step` exceeds bounds."),  # past the span (0, 1)
        ],
        ids=["negative", "zero", "past-span"],
    )
    def test_bad_first_step_fails_as_scipy_does(self, first_step, message):
        with pytest.raises(ValueError) as ref:
            scipy.integrate.solve_ivp(DECAY, (0.0, 1.0), [1.0], first_step=first_step)
        with pytest.raises(ValueError) as port:
            solve_ivp(DECAY, (0.0, 1.0), [1.0], first_step=first_step)
        assert str(port.value) == str(ref.value) == message

    def test_callable_is_refused(self):
        """The port writes a System's source into its loop; it does not
        call a plain function."""
        with pytest.raises(TypeError, match="^fun must be an rk45.System, not function$"):
            solve_ivp(lambda t, y: [-y[0]], (0.0, 1.0), [1.0])

    @pytest.mark.parametrize("t_span", [(0.0, -1.0), (1.0, math.nextafter(1.0, 0.0))], ids=["to-minus-1", "one-ulp"])
    def test_backward_span_is_refused(self, t_span):
        with pytest.raises(ValueError, match="^t_span must run forward, not from"):
            solve_ivp(DECAY, t_span, [1.0])


# ---------------------------------------------------------------------------
# systems and events given as source, written into the solve loop
# ---------------------------------------------------------------------------


def outcome(sol) -> str:
    """A Solution's status, t, y, t_events and nfev, as their exact repr."""
    return repr((sol.status, sol.t, sol.y, sol.t_events, sol.nfev))


def written_in(system):
    """The System's right-hand side as the solve loop writes it in, as a
    function of (t, y)."""
    n = len(system.names)
    body = rk45._stage(system.form, 1, [f"_y[{i}]" for i in range(n)])
    source = (
        f"def _probe(_t, _y, {', '.join(system.params)}):\n"
        + "".join(f"    {line}\n" for line in body)
        + f"    return [{', '.join(f'_k1_{i}' for i in range(n))}]\n"
    )
    namespace = {}
    exec(source, vars(rk45), namespace)
    return lambda t, y: namespace["_probe"](t, y, *system.params.values())


def test_system_callable_is_its_written_in_form():
    """Equal floats, by repr, at random states of every Loud chart, with
    log w on both sides of the guard at -745 (where w is set to 0)."""
    rng = random.Random(19)
    for F in (0.6, 0.9, 1.0, 1.1, 1.5, 3.0):
        p = loud.LoudParams(D=rng.uniform(-0.99, -0.01), F=F)
        systems = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loud, "solve_ivp", lambda fun, *a, **kw: (systems.append(fun), solve_ivp(fun, *a, **kw))[1])
            loud.time_to_entry(p, 0.01)
        systems += [loud.loud_rhs(p), loud._log_w_rhs(p), loud._horizontal_rhs(p)]
        for system in systems:
            probe = written_in(system)
            for _ in range(100):
                y = [rng.uniform(-3.0, 3.0) for _ in system.names]
                if "lw" in system.names:
                    y[1] = rng.choice([rng.uniform(-800.0, 3.0), -745.0, math.nextafter(-745.0, 0.0)])
                t = rng.uniform(0.0, 10.0)
                assert repr(system(t, y)) == repr(probe(t, y)), (system.form, y)


def test_one_compile_per_chart():
    """Parameters enter the loop as arguments: other (D, F) on the same
    charts compile nothing new."""
    forms = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loud, "solve_ivp", lambda fun, *a, **kw: (forms.append(fun.form), solve_ivp(fun, *a, **kw))[1])
        loud.period_numeric(loud.LoudParams(D=-0.9, F=1.1), 0.05)
        compiled = rk45._loop.cache_info().misses, rk45._function.cache_info().misses
        loud.period_numeric(loud.LoudParams(D=-0.25, F=1.5), 0.02)
    assert forms[3:] == forms[:3]
    assert (rk45._loop.cache_info().misses, rk45._function.cache_info().misses) == compiled


def test_import_compiles_nothing():
    """The loops compile on first use: importing loud compiles no source."""
    script = (
        "import dulackit.loud, dulackit.rk45 as r; "
        "print(r._loop.cache_info().currsize, r._function.cache_info().currsize)"
    )
    src = str(Path(rk45.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


@pytest.mark.parametrize(
    "names, derivatives, lines, match",
    [
        (("_u", "v"), ("v", "-_u"), (), "taken"),
        (("u v", "w"), ("w", "-w"), (), "not identifiers"),
        (("abs", "v"), ("v", "-abs"), (), "taken"),
        (("u", "v"), ("v", "-u"), ("u = 2.0 * v",), "bound twice"),
        (("u", "v"), ("v", "-w"), (), "unbound names \\['w'\\]"),
        (("u", "v"), ("v", "-G * u"), (), "unbound names \\['G'\\]"),
        (("u", "v"), ("v", "-k * u"), ("k = 1.0", "k = 2.0"), "bound twice"),
        (("u", "v"), ("v", "-k * u"), ("k = j", "j = 1.0"), "unbound names \\['j'\\]"),
        (("u", "v"), ("v", "-k * u"), ("k += 1.0",), "unbound names \\['k'\\]"),
    ],
    ids=[
        "underscore", "not-identifier", "builtin", "state-assigned", "unbound", "parameter",
        "assigned-twice", "read-before-assigned", "augmented-unassigned",
    ],
)
def test_system_source_is_checked(names, derivatives, lines, match):
    system = System(names, derivatives, lines, {"D": -0.5})
    with pytest.raises(ValueError, match=match):
        system(0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match=match):
        solve_ivp(system, (0.0, 1.0), [1.0, 0.0])


def test_event_names_keep_the_systems_bindings():
    """An event written into the loop binds its names there, so it may not
    name a parameter of the System."""
    system = System(("u", "v"), ("v", "-c * u"), (), {"c": 1.0})
    with pytest.raises(ValueError, match="rebind a parameter"):
        solve_ivp(system, (0.0, 1.0), [1.0, 0.0], events=[Event("c", ("c", "v"))])


@pytest.mark.parametrize(
    "t_span, angle, fired", [((0.0, 20.0), 0.3, 2), ((5.0, 25.0), 1.0, 1)], ids=["forward", "from-5"]
)
def test_system_and_events_as_source_match_scipy(t_span, angle, fired):
    """A System with a statement and a parameter, and Events that read the
    state through math and the builtins, handed to scipy as callables and
    to the port as source: a rise of x, a crossing of |p| = 1/2 and the
    damped oscillator's phase turning by the angle, the first of which ends
    the solve (the phase at angle 0.3, |p| at 1.0)."""
    damped = System(("x", "p"), ("p", "force"), ("force = -x - c * p",), {"c": 0.05})
    up = Event("x", damped.names, direction=1.0)
    either = Event("abs(p) - 0.5", damped.names)
    turned = Event(f"math.atan2(p, x) + {angle}", damped.names)
    kw = dict(events=[up, either, turned], rtol=1e-10, atol=1e-12)
    port = solve_ivp(damped, t_span, [1.0, 0.0], **kw)
    ref = scipy_rk45(damped, t_span, [1.0, 0.0], **kw)
    assert port.status == 1 and [i for i, te in enumerate(port.t_events) if te] == [fired]
    assert_same_solve(port, ref, damped)
    assert port.nfev == ref.nfev


# ---------------------------------------------------------------------------
# the event roots written into the solve loop
# ---------------------------------------------------------------------------


def dense_output(t_old, h, y_old, K):
    """The quartic interpolant of a step, scipy's RkDenseOutput with
    Q = K^T P, K[i] being the seven stage derivatives of component i: the
    reference for the dense output the solve loop writes in."""

    def dot(a, b):
        acc = 0.0
        for u, v in zip(a, b):
            acc += u * v
        return acc

    Q = [[dot(k, p) for p in zip(*rk45._P)] for k in K]

    def sol(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        p = (x, x2, x3, x3 * x)
        return [h * dot(q, p) + y for q, y in zip(Q, y_old)]

    return sol


def _weighted(K, i, weights):
    """K[0][i] w0 + K[1][i] w1 + ..., summed from the first term, as the
    solve loop writes its weighted sums."""
    acc = K[0][i] * weights[0]
    for k, w in zip(K[1:], weights[1:]):
        acc = acc + k[i] * w
    return acc


def _rms(terms):
    """scipy's norm as the solve loop writes it: sqrt(x . x) / sqrt(n),
    the dot product summed from 0.0."""
    acc = 0.0
    for r in terms:
        acc = acc + r * r
    return math.sqrt(acc) / len(terms) ** 0.5


def reference_steps(system, t_span, y0, rtol, atol, first_step=None):
    """The accepted steps of scipy's RK45 on an autonomous System over
    t_span: its initial step, stages and step control in plain Python
    floats, each sum formed as the solve loop writes it out.  Each step is
    (nfev, t_old, t_new, y_old, y_new, K), K[i] the seven stage
    derivatives of component i."""
    f = lambda y: system(0.0, y)
    t, t_bound = t_span
    n, y = len(y0), list(y0)
    atol = [atol] * n
    k1, nfev = f(y), 1
    ay = [abs(v) for v in y]
    h_abs = first_step
    if h_abs is None:  # select_initial_step
        interval = t_bound - t
        sc = [a + v * rtol for a, v in zip(atol, ay)]
        d0, d1 = _rms([v / s for v, s in zip(y, sc)]), _rms([k / s for k, s in zip(k1, sc)])
        h0 = min(interval, 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1)
        k2, nfev = f([v + h0 * k for v, k in zip(y, k1)]), 2
        d2 = _rms([(b - a) / s for a, b, s in zip(k1, k2, sc)]) / h0
        h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
        h_abs = min(100 * h0, h1, interval)
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            K = [k1]
            for j in range(1, 6):
                K.append(f([v + _weighted(K, i, rk45._A[j][:j]) * h for i, v in enumerate(y)]))
            y_new = [v + h * _weighted(K, i, rk45._B) for i, v in enumerate(y)]
            K.append(f(y_new))
            nfev += 6
            ayn = [abs(v) for v in y_new]
            error_norm = _rms(
                [_weighted(K, i, rk45._E) * h / (atol[i] + max(ayn[i], ay[i]) * rtol) for i in range(n)]
            )
            if error_norm < 1.0:
                factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm**-0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm**-0.2)
            rejected = True
        yield nfev, t, t_new, y, y_new, [list(k) for k in zip(*K)]
        t, y, ay, k1 = t_new, y_new, ayn, K[6]
        if t >= t_bound:
            return


def reference_outcome(system, events, t_span, y0, kw, seen):
    """`outcome` of the solve as scipy solves it with terminal events: on
    each accepted step of `reference_steps` the sign test, then scipy's
    brentq on the step's dense output, the earliest root ending the solve
    at the dense output there; seen collects what the hits covered."""
    t_events = [[] for _ in events]
    for nfev, t_old, t_new, y_old, y_new, K in reference_steps(system, t_span, y0, **kw):
        sol = dense_output(t_old, t_new - t_old, y_old, K)
        roots = []
        for i, ev in enumerate(events):
            g, b = ev(t_old, y_old), ev(t_new, y_new)
            if (ev.direction >= 0 and g <= 0 <= b) or (ev.direction <= 0 and g >= 0 >= b):
                root = _scipy_brentq(lambda x, ev=ev: ev(x, sol(x)), t_old, t_new)
                roots.append((root, i))
                seen.update(["rise" if b > g else "fall", ("direction", ev.direction)])
                seen.update(["at the step's end"] * (root == t_new))
        if roots:
            seen.update(["two in one step, out of index order"] * (sorted(roots) != sorted(roots, key=lambda r: r[1])))
            root, i = min(roots)
            t_events[i].append(root)
            return repr((1, root, sol(root), t_events, nfev))
    return repr((0, t_new, y_new, t_events, nfev))


def random_system(rng):
    """A damped oscillator with a quadratic drive (a statement), a
    parameter computed from another and a third component that drifts
    with x."""
    w = rng.uniform(0.5, 2.0)
    params = {"w": w, "c": rng.uniform(-0.03, 0.08), "e": rng.uniform(0.0, 0.2), "b": rng.uniform(-0.2, 0.2)}
    return System(
        ("x", "p", "u"),
        ("w * p - c * x + drive", "-w * x - c * p - half_w * drive", "x + b"),
        ("drive = e * x * p",),
        {**params, "half_w": 0.5 * w},
    )


def random_events(rng, names):
    """A close pair of levels of x or p, which it crosses in one step, and
    some of: a level crossing of a random component, a circle, and |u|
    held at a random height, which reads exactly 0 at the end of the step
    where |u| gets there; each with a random direction, the pair's the
    same, in a random order."""
    level = lambda: rng.uniform(-0.6, 0.6)
    pair_at, name, height = level(), rng.choice(names[:2]), rng.uniform(0.02, 0.3)
    pair = [f"{name} - {pair_at + 1e-9!r}", f"{name} - {pair_at!r}"]
    others = [
        f"{rng.choice(names)} - {level()!r}",
        f"math.hypot(x, p) - {rng.uniform(0.3, 1.2)!r}",
        f"min(abs(u), {height!r}) - {height!r}",
    ]
    direction = lambda: rng.choice([-1.0, 0.0, 1.0])
    d = direction()
    events = [Event(e, names, d) for e in pair] + [Event(e, names, direction()) for e in others if rng.random() < 0.5]
    rng.shuffle(events)
    return events


@pytest.mark.parametrize("seed", range(4))
def test_written_in_roots_are_brentqs(seed):
    """On seeded random Systems, the written-in solve loop takes the steps
    of `reference_steps`, bit for bit, and its event roots and final state
    are, by ==, scipy's brentq on the reference dense output of the same
    step."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(16):
        system = random_system(rng)
        events = random_events(rng, system.names)
        kw = dict(rtol=10 ** rng.uniform(-11, -6), atol=1e-12)
        if rng.random() < 0.3:
            kw["first_step"] = 1e-3
        y0 = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0]
        port = solve_ivp(system, (0.0, 20.0), y0, events=events, **kw)
        assert outcome(port) == reference_outcome(system, events, (0.0, 20.0), y0, kw, seen)
    assert seen >= {
        "rise", "fall", ("direction", -1.0), ("direction", 0.0), ("direction", 1.0),
        "two in one step, out of index order", "at the step's end",
    }
