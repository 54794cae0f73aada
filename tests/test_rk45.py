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
from dulackit.rk45 import solve_ivp

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
    for name in "CABEP":
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


def _oscillator(t, y):
    return [y[1], -y[0]]


def _system(n):
    """An n-component test system in which every component's stage states
    reach a derivative: for n = 1, y0' = -sin t - (y0 - cos t) / 2 (solved
    by cos t); for n = 2, the oscillator; for n = 3 and 4, further
    components integrate y0 and y2, and the last one feeds back into y0'.
    Each n runs its own written-out step."""
    return {
        1: lambda t, y: [-math.sin(t) - 0.5 * (y[0] - math.cos(t))],
        2: _oscillator,
        3: lambda t, y: [y[1] + 0.1 * y[2], -y[0], y[0]],
        4: lambda t, y: [y[1] + 0.1 * y[3], -y[0], y[0], y[2]],
    }[n]


DIMENSIONS = pytest.mark.parametrize("n", [1, 2, 3, 4], ids=lambda n: f"n{n}")


@DIMENSIONS
@pytest.mark.parametrize("t_span", [(0.0, 20.0), (0.0, -20.0)], ids=["forward", "backward"])
def test_events_and_direction_match_scipy(t_span, n):
    """Non-terminal events record every crossing in their direction; the
    terminal one ends the solve at its root, forward and backward in t."""
    up = lambda t, y: y[0]
    up.direction = 1.0
    either = lambda t, y: y[-1] - 0.5
    stop = lambda t, y: abs(t) - 15.0
    stop.terminal = True
    kw = dict(events=[up, either, stop], rtol=1e-10, atol=1e-12)
    fun, y0 = _system(n), [1.0, 0.0, 0.0, 0.0][:n]
    port = solve_ivp(fun, t_span, y0, **kw)
    ref = scipy_rk45(fun, t_span, y0, **kw)
    assert port.status == 1 and all(port.t_events)
    assert_same_solve(port, ref, fun)
    assert port.nfev == ref.nfev


@DIMENSIONS
def test_whole_interval_without_events_matches_scipy(n):
    fun, y0 = _system(n), [1.0, 0.0, 0.0, 0.0][:n]
    kw = dict(rtol=1e-11, atol=[1e-14, 1e-13, 1e-14, 1e-13][:n])
    port = solve_ivp(fun, (0.0, 7.5), y0, **kw)
    ref = scipy_rk45(fun, (0.0, 7.5), y0, **kw)
    assert port.status == 0 and port.t == 7.5
    assert_same_solve(port, ref, fun)
    assert port.nfev == ref.nfev


def test_empty_interval_matches_scipy():
    port = solve_ivp(_oscillator, (1.0, 1.0), [1.0, 0.0])
    ref = scipy_rk45(_oscillator, (1.0, 1.0), [1.0, 0.0])
    assert (port.status, port.t, port.y, port.nfev) == (ref.status, ref.t, ref.y, ref.nfev)


@pytest.mark.parametrize(
    "event", [lambda t, y: y[0] - 0.5, rk45.Event("y - 0.5", ("y",))], ids=["callable", "Event"]
)
def test_lone_event_is_a_list_of_one(event):
    """scipy takes one event without a list, and so does the port: y' = -y
    crosses y = 0.5 once, at scipy's 0.6927682 over [0, 1] under the default
    tolerances."""
    fun = lambda t, y: [-y[0]]
    port = solve_ivp(fun, (0.0, 1.0), [1.0], events=event)
    ref = scipy_rk45(fun, (0.0, 1.0), [1.0], events=event)
    assert len(port.t_events) == 1 and port.t_events[0] == pytest.approx([0.6927682], abs=1e-7)
    assert_same_solve(port, ref, fun)
    assert port.nfev == ref.nfev


class TestFailures:
    @pytest.mark.parametrize(
        "rhs, y0",
        [
            (lambda t, y: [math.nan if t > 0.5 else 1.0, 1.0], [1.0, 2.0]),
            # zero slope at the start, NaN at the trial point of the initial
            # step: scipy divides 0.01 by a zero norm there and gets inf
            (lambda t, y: [0.0 if t == 0 else math.nan], [1.0]),
        ],
        ids=["nan-after-t", "nan-after-start"],
    )
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_nan_rhs_fails_as_scipy_does(self, rhs, y0):
        port = solve_ivp(rhs, (0.0, 10.0), y0, rtol=1e-11, atol=1e-14)
        ref = scipy_rk45(rhs, (0.0, 10.0), y0, rtol=1e-11, atol=1e-14)
        assert (port.status, port.message) == (-1, TOO_SMALL_STEP)
        assert (port.status, port.message, port.t, port.nfev) == (ref.status, ref.message, ref.t, ref.nfev)

    def test_nan_from_the_start_fails(self):
        # scipy never leaves its step loop here: the step size is NaN
        sol = solve_ivp(lambda t, y: [math.nan], (0.0, 1.0), [1.0], rtol=1e-11, atol=1e-14)
        assert (sol.status, sol.message) == (-1, TOO_SMALL_STEP)

    def test_loud_solve_raises_event_missed(self):
        rhs = lambda t, y: [math.nan if t > 0.5 else 1.0, 1.0]
        with pytest.raises(EventMissed, match="^Required step size"):
            loud._solve(rhs, (0.0, 10.0), [1.0, 2.0], [], 1e-14)

    def test_evaluation_budget(self):
        """A stiff linear equation: stability holds the explicit steps near
        3.3e-6, so the interval needs about 2e7 evaluations, and the solve
        stops at the budget with status -1 and a message that names it."""
        sol = solve_ivp(lambda t, y: [-1e6 * y[0]], (0.0, 10.0), [1.0], rtol=1e-6, atol=1e-9)
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
            solve_ivp(_oscillator, (0.0, 1.0), [1.0, 0.0], atol=atol)

    def test_non_finite_start(self):
        with pytest.raises(ValueError, match="finite"):
            solve_ivp(_oscillator, (0.0, 1.0), [math.inf, 0.0])

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
        decay = lambda t, y: [-y[0]]
        with pytest.raises(ValueError) as ref:
            scipy.integrate.solve_ivp(decay, (0.0, 1.0), [1.0], first_step=first_step)
        with pytest.raises(ValueError) as port:
            solve_ivp(decay, (0.0, 1.0), [1.0], first_step=first_step)
        assert str(port.value) == str(ref.value) == message

    @pytest.mark.parametrize("terminal", [2, 1], ids=["count", "int"])
    def test_terminal_other_than_a_bool_is_refused(self, terminal):
        """scipy stops at the terminal-th occurrence; the port does not
        count occurrences, so it refuses what is not True or False."""
        cross = lambda t, y: y[0]
        cross.terminal = terminal
        with pytest.raises(ValueError, match="`terminal` attribute of each event must be a bool"):
            solve_ivp(_oscillator, (0.0, 20.0), [1.0, 0.0], events=[cross])
        with pytest.raises(ValueError, match="must be a bool"):
            solve_ivp(_oscillator, (0.0, 20.0), [1.0, 0.0], events=[rk45.Event("x", ("x", "p"), terminal)])


# ---------------------------------------------------------------------------
# systems and events given as source, written into the solve loop
# ---------------------------------------------------------------------------


def plain(fun):
    """fun as a plain callable, with its terminal and direction: the solve
    loop calls it instead of writing its source in."""
    call = lambda t, y: fun(t, y)
    call.terminal = getattr(fun, "terminal", False)
    call.direction = getattr(fun, "direction", 0.0)
    return call


def outcome(sol) -> str:
    """Every field of a Solution, as its exact repr."""
    return repr((sol.status, sol.message, sol.t, sol.y, sol.t_events, sol.nfev))


def test_written_in_loop_is_the_callable_loop():
    """Each Loud chart's System and Events, written into the loop and
    called as plain callables by the same template, give the same status,
    t, y, event times and evaluation count, bit for bit."""
    endings = set()

    def both(fun, t_span, y0, events=(), **kw):
        assert isinstance(fun, rk45.System) and all(isinstance(ev, rk45.Event) for ev in events)
        written = solve_ivp(fun, t_span, y0, events=events, **kw)
        called = solve_ivp(plain(fun), t_span, y0, events=[plain(ev) for ev in events], **kw)
        assert outcome(written) == outcome(called)
        endings.add((fun.form, tuple(i for i, te in enumerate(written.t_events) if te)))
        return written

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loud, "solve_ivp", both)
        for F in (0.9, 1.0, 1.1, 1.5):
            for D, s in COMPARED:
                loud.period_numeric(loud.LoudParams(D=D, F=F), s)
    # the backward arc, the log-w chart at both events, the plane and the
    # horizontal chart
    assert len({form for form, _ in endings}) == 4 and len(endings) == 5


def written_in(system):
    """The System's right-hand side as the solve loop writes it in, as a
    function of (t, y)."""
    n = len(system.names)
    body = rk45._stage(system.form, 1, "_t", [f"_y[{i}]" for i in range(n)])
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
    system = rk45.System(names, derivatives, lines, {"D": -0.5})
    with pytest.raises(ValueError, match=match):
        system(0.0, [1.0, 0.0])
    with pytest.raises(ValueError, match=match):
        solve_ivp(system, (0.0, 1.0), [1.0, 0.0])


def test_event_names_keep_the_systems_bindings():
    """An event written into the loop binds its names there, so it may not
    name a parameter of the System."""
    system = rk45.System(("u", "v"), ("v", "-c * u"), (), {"c": 1.0})
    with pytest.raises(ValueError, match="rebind a parameter"):
        solve_ivp(system, (0.0, 1.0), [1.0, 0.0], events=[rk45.Event("c", ("c", "v"))])


@pytest.mark.parametrize(
    "t_span, radius", [((0.0, 20.0), 0.8), ((0.0, -20.0), 1.25)], ids=["forward", "backward"]
)
def test_system_and_events_as_source_match_scipy(t_span, radius):
    """A System with a statement and a parameter, and Events that read the
    state through math and the builtins, handed to scipy as callables and
    to the port as source: every rise of x, every crossing of |p| = 1/2,
    and a terminal event where the damped oscillator's amplitude, shrinking
    forward in t and growing backward, reaches the radius."""
    damped = rk45.System(("x", "p"), ("p", "force"), ("force = -x - c * p",), {"c": 0.05})
    up = rk45.Event("x", damped.names, direction=1.0)
    either = rk45.Event("abs(p) - 0.5", damped.names)
    stop = rk45.Event(f"math.hypot(x, p) - {radius}", damped.names, terminal=True)
    kw = dict(events=[up, either, stop], rtol=1e-10, atol=1e-12)
    port = solve_ivp(damped, t_span, [1.0, 0.0], **kw)
    ref = scipy_rk45(damped, t_span, [1.0, 0.0], **kw)
    assert port.status == 1 and all(port.t_events)
    assert_same_solve(port, ref, damped)
    assert port.nfev == ref.nfev
    called = solve_ivp(plain(damped), t_span, [1.0, 0.0], **{**kw, "events": [plain(e) for e in kw["events"]]})
    assert outcome(port) == outcome(called)


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


def accepted_steps(log, skip):
    """The accepted steps of a solve of a callable, from the log of its
    evaluations (t, y, f): the first, then ``skip`` - 1 for the initial
    step, then six per step tried.  A step tried again after a rejection
    starts where the rejected one did: its second stage is at t + h/5,
    y + (k1/5) h.  Each step is (t_old, t_new, y_old, y_new, K), K[i] the
    seven stage derivatives of component i."""

    def starts(t, y, k1, stages):
        h = stages[5][0] - t
        t2, y2, _ = stages[0]
        return t2 == t + 0.2 * h and y2 == [a + (k * 0.2) * h for a, k in zip(y, k1)]

    t, y, k1 = log[0]
    tried = [log[i:i + 6] for i in range(skip, len(log), 6)]
    assert len(tried[-1]) == 6
    steps = []
    for before, stages in zip([None, *tried], tried):
        if not starts(t, y, k1, stages):  # the step before was accepted
            steps.append((t, y, k1, before))
            t, y, k1 = before[5]
            assert starts(t, y, k1, stages)
    steps.append((t, y, k1, tried[-1]))  # the last step ends the solve
    return [
        (t, stages[5][0], y, stages[5][1], [[k, *(f[i] for _, _, f in stages)] for i, k in enumerate(k1)])
        for t, y, k1, stages in steps
    ]


def reference_events(system, events, t_span, y0, kw, seen):
    """t_events and the terminal (t, y), or None, found as scipy finds
    them: on each accepted step the sign test, then scipy's brentq on the
    step's dense output, the roots recorded in the order of time up to the
    first terminal one.  The steps come from a solve of the System as a
    callable, which must equal its written-in solve; seen collects what the
    hits covered."""
    log = []

    def logged(t, y):
        f = system(t, y)
        log.append((t, list(y), f))
        return f

    called = solve_ivp(logged, t_span, y0, events=[plain(ev) for ev in events], **kw)
    t_events = [[] for _ in events]
    direction = 1.0 if t_span[1] > t_span[0] else -1.0
    for t_old, t_new, y_old, y_new, K in accepted_steps(log, 1 if kw.get("first_step") else 2):
        sol = dense_output(t_old, t_new - t_old, y_old, K)
        roots = []
        for i, ev in enumerate(events):
            g, b = ev(t_old, y_old), ev(t_new, y_new)
            d = getattr(ev, "direction", 0.0)
            if (d >= 0 and g <= 0 <= b) or (d <= 0 and g >= 0 >= b):
                root = _scipy_brentq(lambda x, ev=ev: ev(x, sol(x)), t_old, t_new)
                roots.append((root, i))
                seen.add("rise" if b > g else "fall")
                seen.add(("direction", d))
                seen.update(["at the step's end"] * (root == t_new))
        roots.sort(key=lambda r: direction * r[0])
        seen.update(["two in one step, out of index order"] * (roots != sorted(roots, key=lambda r: r[1])))
        for root, i in roots:
            t_events[i].append(root)
            if getattr(events[i], "terminal", False):
                return called, t_events, (root, sol(root))
            seen.add("non-terminal")
    return called, t_events, None


def random_system(rng):
    """A damped oscillator with a quadratic drive (a statement), a
    parameter computed from another and a third component that drifts
    with x."""
    w = rng.uniform(0.5, 2.0)
    params = {"w": w, "c": rng.uniform(-0.03, 0.08), "e": rng.uniform(0.0, 0.2), "b": rng.uniform(-0.2, 0.2)}
    return rk45.System(
        ("x", "p", "u"),
        ("w * p - c * x + drive", "-w * x - c * p - half_w * drive", "x + b"),
        ("drive = e * x * p",),
        {**params, "half_w": 0.5 * w},
    )


def random_events(rng, names):
    """Level crossings of a random component, one of them a close pair
    that crosses in one step (the later level first in index order), a
    circle and the time t_bound, each with a random direction and
    terminal flag, terminal ones rarer."""
    level = lambda: rng.uniform(-0.6, 0.6)
    pair_at, name = level(), rng.choice(names[:2])
    expressions = [
        f"{rng.choice(names)} - {level()!r}",
        f"{rng.choice(names)} - {level()!r}",
        f"{name} - {pair_at + 1e-9!r}",
        f"{name} - {pair_at!r}",
        f"math.hypot(x, p) - {rng.uniform(0.3, 1.2)!r}",
    ]
    return [rk45.Event(e, names, rng.random() < 0.2, rng.choice([-1.0, 0.0, 1.0])) for e in expressions]


@pytest.mark.parametrize("seed", range(4))
def test_written_in_roots_are_brentqs(seed):
    """On seeded random Systems, forward and backward, the written-in event
    roots and the terminal state equal, by ==, scipy's brentq on the
    reference dense output of the same step, and the System as a callable
    gives the same solve."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(12):
        system = random_system(rng)
        t_span = (0.0, rng.choice([20.0, -20.0]))
        events = random_events(rng, system.names)
        at_end = lambda t, y, t_bound=t_span[1]: t - t_bound  # a root exactly at the last step's end
        at_end.terminal, at_end.direction = rng.random() < 0.5, 0.0
        events.append(at_end)
        kw = dict(rtol=10 ** rng.uniform(-11, -6), atol=1e-12)
        if rng.random() < 0.3:
            kw["first_step"] = 1e-3
        y0 = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0]
        port = solve_ivp(system, t_span, y0, events=events, **kw)
        called, t_events, end = reference_events(system, events, t_span, y0, kw, seen)
        assert outcome(port) == outcome(called)
        assert port.t_events == t_events
        if end is None:
            assert (port.status, port.t) == (0, t_span[1])
        else:
            assert (port.status, port.t, port.y) == (1, *end)
    assert seen >= {
        "rise", "fall", ("direction", -1.0), ("direction", 0.0), ("direction", 1.0),
        "two in one step, out of index order", "at the step's end", "non-terminal",
    }
