"""The quadratic center family

    u' = -v + u v,   v' = u + D u^2 + F v^2,

its chart at the line at infinity, the reduction to the polar-factor
normal form, and the numeric period function near the outer boundary of
the period annulus.

The passage near the boundary polycycle runs exponentially close to
infinity: the orbit's far intersection with v = 0 sits at |u| of order
exp(const/s^2), far outside floating range for small s.  The period is
therefore integrated in a three-chart atlas:

* the plane (u, v) for the short arc from the section v = 0 up to the
  entry section of the node region,
* the infinity chart (z, w) = ((1-u)/v, 1/v), where the passage along
  the polycycle is regular once time is rescaled by dt = w dtau (the
  field has a 1/w polar factor there), and
* the horizontal chart (p, q) = (1/u, v/u) for the far crossing of
  v = 0, time-rescaled by dt = -p dsigma.

Orbit segments whose w underflows contribute less than exp(-600) of
time, far below double resolution, and are dropped when the w-floor
event fires.  Where both are feasible this agrees with single-chart
integration to ~1e-11.

Every chart is integrated by `rk45.solve_ivp`, scipy's RK45 stepped in
Python floats (its tableau written out as fractions, its event roots found
by scipy's brentq written into the loop, so neither this module nor rk45
imports scipy).  Each chart's field is an `rk45.System` and each event an
`rk45.Event`: source that rk45 writes into one generated solve loop per
chart, compiled on first use, with D and F and the charts' parameter-only
terms as the loop's arguments, computed once per solve.  Every solve runs
forward from t = 0 (the entry arc integrates the negated plane field) and
ends at the first event root, or at the end of its span.  The sources keep
the operations of the chart fields in their order and grouping, so a
period has the bits it has when they are called.  On these 2- and
3-component systems a solve takes about an eighteenth of the time of
scipy's solve_ivp (the 35 default-grid periods: 0.023-0.044 s against
0.42-0.77 s, in rounds interleaved in one process on a 2-core x86-64 host
whose speed drifts).  A solve that would need more than its budget of
10^6 right-hand side evaluations raises EventMissed; no solve of a sweep
over 0.51 <= F <= 100 took more than 4,808.  It keeps RK45's Dormand-Prince
tableau, step control and event location, so it takes scipy's steps and
differs from it only by rounding.  On the default grid the periods agree
with scipy's to 1.6e-15 relative (1e-13 is the stated tolerance; 1.6e-13
was the largest gap over 150 random specs, at D = -0.999) and `mean_slope`
to 1.0e-11 relative (2e-11 stated), on the near-zero D = -1/2 row, a
difference of nearly equal periods.  A higher-order pair such as DOP853
would change the periods by its integration error instead, and moved
`mean_slope` by up to 3e-8 relative.

The oracle, which imports scipy, is imported on first use, by the two
cross-checks that call it: `dulac_map_node` and `period_via_decomposition`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BranchCut,
    EscapedAnnulus,
    EventMissed,
    NegativeG,
    OnSection,
    OutsideAtlas,
)
from .expansion import DulacTimeSpec, UnfoldingSpec
from .family import PolynomialFamily, PuiseuxBranch, biggest_real_root_branch
from .rk45 import Event, System, solve_ivp
from .series import TruncatedSeries

_LOG_W_FLOOR = -650.0
_Z_SWITCH = 6.0
_TIME_BUDGET = 200.0
_RTOL = 1e-11  # relative tolerance of every period integration
_NEAR_ZERO_FRACTION = 0.05  # of the largest |dP/ds| over the D grid
_N_MODES = 24  # Taylor modes of the time-form factor in y
_MODE_ORDER = 12  # their degree in x


@dataclass(frozen=True)
class LoudParams:
    """Parameter point a = (D, F) with D in (-1, 0) and F > 1/2."""

    D: float
    F: float

    def __post_init__(self):
        if not -1.0 < self.D < 0.0:
            raise ValueError("D must lie in (-1, 0)")
        if not self.F > 0.5:
            raise ValueError("F must exceed 1/2")

    @property
    def eps(self) -> float:
        return 2.0 * (self.F - 1.0)

    @functools.cached_property
    def section_height(self) -> float:
        """y_section_height(self), evaluated once per parameter point."""
        return y_section_height(self)


# the plane field, as source for rk45's generated solve loop
_PLANE = ("u", "v")
_PLANE_RHS = ("-v + u * v", "u + D * u * u + F * v * v")


def loud_rhs(p: LoudParams) -> System:
    return System(_PLANE, _PLANE_RHS, params={"D": p.D, "F": p.F})


# ---------------------------------------------------------------------------
# charts and the normal form
# ---------------------------------------------------------------------------


def chart_transform(u: float, v: float):
    """(z, w) = ((1-u)/v, 1/v); the line at infinity is w = 0."""
    if v == 0:
        raise OnSection("chart transform undefined on v = 0")
    return (1.0 - u) / v, 1.0 / v


def chart_inverse(z: float, w: float):
    if w == 0:
        raise OnSection("chart inverse undefined on w = 0 (line at infinity)")
    return 1.0 - z / w, 1.0 / w


def g_poly(z: float, w: float, p: LoudParams) -> float:
    D, F = p.D, p.F
    return (2 * D + 1) / ((2 * F - 1) * D) * z * w - (D + 1) / (2 * F * D) * w * w - 1 / (2 * D)


def first_integral(z: float, w: float, p: LoudParams) -> float:
    """Conserved quantity (w/z) (1 - eps g / z^2)^(1/eps); at F = 1 the
    exponential limit form (w/z) exp(-g/z^2) applies."""
    if z == 0:
        raise BranchCut("first integral undefined at z = 0")
    g = g_poly(z, w, p)
    eps = p.eps
    if eps == 0.0:
        return (w / z) * math.exp(-g / (z * z))
    base = 1.0 - eps * g / (z * z)
    if base <= 0:
        raise BranchCut(f"fractional power base {base:g} <= 0")
    return (w / z) * base ** (1.0 / eps)


def ua_inverse_square(x: float, y: float, p: LoudParams) -> float:
    """The positive quantity whose -1/2 power is the time-form factor."""
    D, F = p.D, p.F
    return (2 * D + 1) / (2 * (2 * F - 1)) * x * y - (D + 1) / (4 * F) * y * y - D / 2


def ua(x: float, y: float, p: LoudParams) -> float:
    b = ua_inverse_square(x, y, p)
    if b <= 0:
        raise NegativeG(f"time-form factor undefined: base {b:g} <= 0 at ({x:g}, {y:g})")
    return b ** -0.5


def normal_coordinates(z: float, w: float, p: LoudParams):
    """(x, y) = (z, w) / sqrt(g(z, w))."""
    g = g_poly(z, w, p)
    if g <= 0:
        raise NegativeG(f"g({z:g}, {w:g}) = {g:g} <= 0")
    r = g**-0.5
    return z * r, w * r


def normal_to_chart(x: float, y: float, p: LoudParams):
    """Inverse of normal_coordinates: g is solved from the self-consistency
    g = 1 / (4 B(x, y)) with B the inverse-square factor above."""
    b = ua_inverse_square(x, y, p)
    if b <= 0:
        raise NegativeG(f"point ({x:g}, {y:g}) outside the normal chart")
    g = 1.0 / (4.0 * b)
    r = math.sqrt(g)
    return x * r, y * r


def normal_to_plane(x: float, y: float, p: LoudParams):
    z, w = normal_to_chart(x, y, p)
    return chart_inverse(z, w)


def normal_form_field(x: float, y: float, p: LoudParams):
    """The polar-factor normal form: (P(x) dx - V(x) y dy) / (y Ua)."""
    P = (x * x - p.eps) * x
    V = 2 * p.F - x * x
    f = y * ua(x, y, p)
    return P / f, -V * y / f


def chart_field_pushforward(z: float, w: float, p: LoudParams):
    """(x', y') obtained by pushing the (z, w)-chart field through the
    normal-coordinate map; used to verify the normal form pointwise."""
    D, F = p.D, p.F
    common = -F - D * z * z + (2 * D + 1) * z * w - (D + 1) * w * w
    zdot = (z / w) * (common + 1.0)
    wdot = common
    g = g_poly(z, w, p)
    if g <= 0:
        raise NegativeG(f"g({z:g}, {w:g}) <= 0")
    gz = (2 * D + 1) / ((2 * F - 1) * D) * w
    gw = (2 * D + 1) / ((2 * F - 1) * D) * z - (D + 1) / (F * D) * w
    r = g**-0.5
    r3 = 0.5 * g**-1.5
    # d(x)/dz = r - (z/2) g^(-3/2) gz ; d(x)/dw = -(z/2) g^(-3/2) gw
    dxdz = r - z * r3 * gz
    dxdw = -z * r3 * gw
    dydz = -w * r3 * gz
    dydw = r - w * r3 * gw
    return dxdz * zdot + dxdw * wdot, dydz * zdot + dydw * wdot


# ---------------------------------------------------------------------------
# modes and the node-passage data
# ---------------------------------------------------------------------------


def y_section_height(p: LoudParams) -> float:
    """Half the largest y for which the time-form factor stays positive on
    x in [0, 1]; the entry section y = y0 of the node region."""
    D, F = p.D, p.F
    b2 = -(D + 1) / (4 * F)
    b1_mag = abs(2 * D + 1) / (2 * (2 * F - 1))
    roots = []
    for b1 in (0.0, -b1_mag):
        rr = np.roots([b2, b1, -D / 2])
        roots += [float(r.real) for r in rr if abs(r.imag) < 1e-12 and r.real > 0]
    if not roots:
        raise NegativeG("no positive section height exists")
    return 0.5 * min(min(roots), 2.0)


@dataclass(frozen=True)
class ModeExpansion:
    modes: tuple  # U_1..U_n as series in x
    C: float
    r: float


def loud_modes(p: LoudParams) -> ModeExpansion:
    """The first `_N_MODES` Taylor modes of the time-form factor against
    powers of y, each to degree `_MODE_ORDER` in x, with a geometric decay
    certificate (C, r) estimated from the norm ratios."""
    D, F = p.D, p.F
    b0 = -D / 2
    b1 = (2 * D + 1) / (2 * (2 * F - 1))
    b2 = -(D + 1) / (4 * F)
    per_y = [[0.0] * (_MODE_ORDER + 1) for _ in range(_N_MODES)]
    # (b0 + b1 x y + b2 y^2)^(-1/2) = b0^(-1/2) sum_k binom(-1/2, k) t^k
    coef = 1.0
    for k in range(_N_MODES):
        if k > 0:
            coef *= -(0.5 + (k - 1)) / k  # binom(-1/2, k) ratio
        bc = 1.0
        for j in range(k, -1, -1):  # t^k term with x^j y^(2k-j)
            ypow = 2 * k - j
            if j == k:
                bc = 1.0
            else:
                bc = bc * (j + 1) / (k - j)
            if ypow < _N_MODES and j <= _MODE_ORDER:
                per_y[ypow][j] += coef * bc * (b1 / b0) ** j * (b2 / b0) ** (k - j)
    scale = b0**-0.5
    modes = tuple(
        TruncatedSeries(tuple(scale * c for c in row)) for row in per_y
    )
    norms = [float(m.norm_ell1()) for m in modes]
    # growth rate from n-th roots; robust when alternate modes vanish
    roots_est = [
        norms[n - 1] ** (1.0 / n)
        for n in range(3, len(norms) + 1)
        if norms[n - 1] > 1e-300
    ]
    r = 1.05 * max(roots_est) if roots_est else 0.5
    C = max(norms[n - 1] / r**n for n in range(1, len(norms) + 1))
    return ModeExpansion(modes=modes, C=C, r=r)


@functools.cache
def _normal_branch(sign: int) -> tuple[PolynomialFamily, PuiseuxBranch]:
    """The family x(x^2 - eps) and its biggest-root branch on one side: the
    family does not depend on D or F, so each side is extracted once, and
    every caller shares the cached pair (neither is ever modified)."""
    fam = PolynomialFamily(mu=2, coeffs={(3, 0): 1, (1, 1): -1})
    return fam, biggest_real_root_branch(fam, sign)


def normal_family(p: LoudParams) -> tuple[PolynomialFamily, TruncatedSeries, PuiseuxBranch]:
    """The polynomial family x(x^2 - eps), the unnormalized V = 2F - x^2,
    and the biggest-root branch on the side of eps = 2(F - 1)."""
    fam, branch = _normal_branch(+1 if p.eps >= 0 else -1)
    V = TruncatedSeries.from_coeffs([2 * p.F, 0.0, -1.0], order=4)
    return fam, V, branch


def node_time_spec(p: LoudParams) -> DulacTimeSpec:
    """Time-form data of the node passage with the closed-form factor,
    entering at the section height and leaving at the section x = 1."""
    fam, V, branch = normal_family(p)
    me = loud_modes(p)
    return DulacTimeSpec(
        family=fam,
        branch=branch,
        V=V,
        eps=p.eps,
        modes=me.modes,
        ua_fn=lambda x, y: ua(x, y, p),
        decay=(me.C, me.r),
        y0=p.section_height,
    )


def dulac_map_node(p: LoudParams, s: float) -> float:
    """Transition map of the nodal field (x^2-eps)x dx + 2F(1 - x^2/(2F)) y dy."""
    from . import oracle  # the oracle imports scipy, which the period sweep never needs

    fam, V, branch = normal_family(p)
    spec = UnfoldingSpec(
        family=fam, branch=branch, V=V, U=TruncatedSeries.zero(2), lam=1, eps=p.eps
    )
    return oracle.dulac_map(spec, s)


# ---------------------------------------------------------------------------
# the explicit first-order coefficient
# ---------------------------------------------------------------------------


def c1_hat(p: LoudParams) -> float:
    """First-order period coefficient in the linearizable-saddle
    parametrization: sqrt(pi) (2D+1) / sqrt(F (D+1)^3) *
    Gamma((3F-1)/(2F)) / Gamma((4F-1)/(2F))."""
    D, F = p.D, p.F
    return (
        math.sqrt(math.pi)
        * (2 * D + 1)
        / math.sqrt(F * (D + 1) ** 3)
        * math.gamma((3 * F - 1) / (2 * F))
        / math.gamma((4 * F - 1) / (2 * F))
    )


def c1_hat_limit(D: float) -> float:
    """Limit of c1_hat as F -> 1 from below: 2(2D+1)/(D+1)^(3/2)."""
    return 2 * (2 * D + 1) / (D + 1) ** 1.5


# ---------------------------------------------------------------------------
# the period function
# ---------------------------------------------------------------------------


# The other charts and the events, as source.  The log-w and horizontal
# charts carry the true time as a third component.  Each expression keeps
# the operations, their order and grouping of the lambdas it replaced, so
# every period has the same bits.
_BACK_RHS = tuple(f"-({d})" for d in _PLANE_RHS)  # loud_rhs, negated
# The parameter-only terms (-F, 2D + 1, D + 1, F - 1) and math.exp are
# parameters of the charts, computed once per solve.
_LOG_W = ("z", "lw", "time")
_LOG_W_LINES = (
    "w = exp(lw) if lw > -745.0 else 0.0",
    "common = minus_f - D * z * z + two_d_plus_1 * z * w - d_plus_1 * w * w",
)
_LOG_W_RHS = ("z * (common + 1.0)", "common", "w")
_HORIZONTAL = ("pp", "q", "time")
_HORIZONTAL_RHS = (
    "q * (1.0 - pp) * pp",
    "-(pp + D + f_minus_1 * q * q + pp * q * q)",
    "-pp",
)
_ON_SECTION = Event("v", _PLANE)
_U_GUARD = Event("1.0 + 1e-9 - u", _PLANE)
_FAR_SECTION = Event("v", _PLANE, direction=-1.0)
_Z_HIT = Event(f"z - {_Z_SWITCH!r}", _LOG_W, direction=1.0)
_W_FLOOR = Event(f"lw - ({_LOG_W_FLOOR!r})", _LOG_W, direction=-1.0)
_Q_SECTION = Event("q", _HORIZONTAL, direction=1.0)


def _solve(rhs, span, y0, events, atol, **kw):
    sol = solve_ivp(rhs, span, y0, events=events, rtol=_RTOL, atol=atol, **kw)
    if sol.status == -1:
        raise EventMissed(sol.message or "integration failed")
    return sol


def time_to_entry(p: LoudParams, s: float) -> float:
    """Time from the section v = 0 to the node entry point Phi(s + theta, y0)
    at the section height y0, by backward integration of the plane field
    (a short regular arc)."""
    th = _theta_normal(p)
    u0, v0 = normal_to_plane(s + th, p.section_height, p)
    back = System(_PLANE, _BACK_RHS, params={"D": p.D, "F": p.F})
    sol = _solve(back, (0.0, _TIME_BUDGET), [u0, v0], [_ON_SECTION, _U_GUARD], 1e-14)
    if len(sol.t_events[1]):
        raise EscapedAnnulus(f"orbit through s={s:g} crossed the invariant line u=1")
    if not len(sol.t_events[0]):
        raise EventMissed(f"no v=0 crossing within the time budget at s={s:g}")
    return float(sol.t_events[0][0])


def _theta_normal(p: LoudParams) -> float:
    return math.sqrt(p.eps) if p.eps > 0 else 0.0


def period_numeric(p: LoudParams, s: float) -> float:
    """Full period of the orbit through the node entry point Phi(s+theta, y0)
    at the section height y0, as twice the v=0-to-v=0 half period, by the
    three-chart integration.  An entry point at or past the log-w chart's
    z switch, where the switch event cannot fire, raises OutsideAtlas before
    anything is integrated."""
    th = _theta_normal(p)
    z0, w0 = normal_to_chart(s + th, p.section_height, p)
    if z0 >= _Z_SWITCH:
        raise OutsideAtlas(
            f"s = {s:g} is outside the chart atlas at D = {p.D:g}, F = {p.F:g}: "
            f"the node entry has z = {z0:.3g}, at or past the switch z = {_Z_SWITCH:g}"
        )
    t_back = time_to_entry(p, s)

    sol = _solve(
        _log_w_rhs(p), (0.0, 1e12), [z0, math.log(w0), 0.0], [_Z_HIT, _W_FLOOR],
        [1e-13, 1e-9, 1e-15],
    )
    if sol.status != 1:
        raise EventMissed("node passage did not reach either switch event")
    z1, lw1, t_zw = sol.y

    t_rest = 0.0
    if len(sol.t_events[0]):  # reached z switch with w above the floor
        w1 = math.exp(lw1)
        u1 = 1.0 - z1 / w1
        if abs(u1) < 50.0:
            # moderate coordinates: finish in the plane
            sol3 = _solve(loud_rhs(p), (0.0, _TIME_BUDGET), [u1, 1.0 / w1], [_FAR_SECTION], 1e-14)
            if not len(sol3.t_events[0]):
                raise EventMissed("far v=0 crossing not reached in the plane chart")
            t_rest = float(sol3.t_events[0][0])
        else:
            p0, q0 = 1.0 / u1, (1.0 / w1) / u1
            sol3 = _solve(
                _horizontal_rhs(p), (0.0, 1e6), [p0, q0, 0.0], [_Q_SECTION],
                [1e-30, 1e-13, 1e-30], first_step=1e-6,
            )
            if not len(sol3.t_events[0]):
                raise EventMissed("far v=0 crossing not reached in the horizontal chart")
            t_rest = sol3.y[2]
    # else: w underflowed; the remaining true time is below exp(-600)
    return 2.0 * (t_back + t_zw + t_rest)


def _log_w_rhs(p: LoudParams) -> System:
    """Chart (z, log w) with dt = w dtau; w below exp(-745) is 0."""
    params = {"D": p.D, "minus_f": -p.F, "two_d_plus_1": 2 * p.D + 1, "d_plus_1": p.D + 1, "exp": math.exp}
    return System(_LOG_W, _LOG_W_RHS, _LOG_W_LINES, params)


def _horizontal_rhs(p: LoudParams) -> System:
    """Chart (p, q) = (1/u, v/u) with dt = -p dsigma (p < 0 on the far side)."""
    return System(_HORIZONTAL, _HORIZONTAL_RHS, params={"D": p.D, "f_minus_1": p.F - 1.0})


def period_via_decomposition(p: LoudParams, s: float) -> float:
    """Cross-check route: twice (entry arc time + node passage time).  Omits
    the arc beyond the outer section whose time is O(transition map value)."""
    from . import oracle

    return 2.0 * (time_to_entry(p, s) + oracle.dulac_time(node_time_spec(p), s))


@dataclass
class RegularityRow:
    D: float
    mean_slope: float
    sign: int
    near_zero: bool
    coherent: bool | None

    def to_json(self):
        return {
            "D": self.D,
            "mean_slope": self.mean_slope,
            "sign": self.sign,
            "near_zero": self.near_zero,
            "coherent": self.coherent,
        }


@dataclass
class RegularityReport:
    rows: list
    s_grid: tuple

    def to_json(self):
        return {
            "orientation": 1,  # the paper's rule fixes it: see regularity_check
            "s_min": self.s_grid[0],
            "s_max": self.s_grid[-1],
            "rows": [r.to_json() for r in self.rows],
        }


def regularity_check(
    D_grid: Sequence[float],
    s_grid: Sequence[float],
    F: float = 1.0,
) -> RegularityReport:
    """Sign analysis of the numeric period derivative near the polycycle.

    For each D the period P(s) is sampled on the s grid and dP/ds taken by
    central differences.  A row is regular when the derivative keeps one
    sign; rows with |dP/ds| below _NEAR_ZERO_FRACTION of the grid maximum
    are flagged near-zero (inconclusive).  A conclusive row is coherent
    when its sign is sign(2D+1), the sign the paper's rule gives dP/ds."""
    s = np.asarray([float(x) for x in s_grid])
    rows = []
    for D in D_grid:
        p = LoudParams(D=float(D), F=float(F))
        P = np.array([period_numeric(p, float(sj)) for sj in s])
        dP = np.gradient(P, s)
        rows.append((float(D), dP))
    max_abs = max(float(np.max(np.abs(dp))) for _, dp in rows)
    out = []
    for D, dP in rows:
        mean = float(np.mean(dP))
        near_zero = bool(np.max(np.abs(dP)) < _NEAR_ZERO_FRACTION * max_abs)
        one_sign = bool(np.all(dP > 0) or np.all(dP < 0))
        sgn = int(np.sign(mean)) if one_sign else 0
        coherent = None
        if not near_zero and one_sign and (2 * D + 1) != 0:
            coherent = sgn == int(np.sign(2 * D + 1))
        out.append(
            RegularityRow(
                D=D,
                mean_slope=mean,
                sign=sgn,
                near_zero=near_zero,
                coherent=coherent,
            )
        )
    return RegularityReport(rows=out, s_grid=tuple(float(x) for x in s))
