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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import QuadratureFailure, StepSizeUnderflow, ToleranceNotMet
from .expansion import DulacTimeSpec, ExpansionResult, UnfoldingSpec
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
    e_hat = float(spec.e_hat)
    Vc = [float(c) for c in spec.V.coeffs]
    Qres = spec.Q.restrict(e_hat)
    Qc = [float(c) for c in Qres.coeffs]
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
    s: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    method: str = "ode",
) -> float:
    """Solution of P y' = lam V y - U with y(x0) = 0, evaluated at s + theta.

    method "ode": implicit Runge-Kutta backwards in u = log(x - theta); the
    pole coefficient makes explicit pairs step-limited, while the backward
    direction is contracting so the implicit solve is benign.
    method "quadrature": independent cross-check via the exponential-kernel
    integral in tau = A(x) - A(s + theta)."""
    th = float(spec.theta_eps)
    if not (0 < s and s + th <= x0 <= 1.0 + 1e-15):
        raise ValueError("need theta < s + theta <= x0 <= 1")
    if method == "quadrature":
        return _y_l_quadrature(spec, x0, s, cfg)
    if method != "ode":
        raise ValueError(f"unknown method {method!r}")
    e_hat = float(spec.e_hat)
    lam = float(spec.lam)
    Vc = [float(c) for c in spec.V.coeffs]
    Uc = [float(c) for c in spec.U.coeffs]
    Qc = [float(c) for c in spec.Q.restrict(e_hat).coeffs]

    def rhs(u, y):
        x = th + math.exp(u)
        q = horner(Qc, x - th)
        return [(lam * horner(Vc, x) * y[0] - horner(Uc, x)) / q]

    def jac(u, y):
        x = th + math.exp(u)
        return [[lam * horner(Vc, x) / horner(Qc, x - th)]]

    u0, u1 = math.log(x0 - th), math.log(s)
    if u1 == u0:
        return 0.0
    sol = solve_ivp(
        rhs, (u0, u1), [0.0], method="Radau", jac=jac,
        rtol=cfg.ode_rel_tol, atol=cfg.ode_abs_tol, dense_output=False,
    )
    if not sol.success:
        if "step size" in (sol.message or "").lower():
            raise StepSizeUnderflow(sol.message)
        raise ToleranceNotMet(sol.message or "ODE integration failed")
    return float(sol.y[0, -1])


def _x_of_tau(spec_or_ts, s_abs: float, x0: float, tau_cap: float, cfg: QuadratureConfig):
    """Reparametrize x by tau = A(x) - A(s_abs), dx/dtau = P(x)/V(x).

    Returns (dense solution, tau_end) where tau_end is min(tau at x = x0,
    tau_cap)."""
    Vc = [float(c) for c in spec_or_ts.V.coeffs]
    Pc = spec_or_ts.family.x_coeffs(float(spec_or_ts.eps))

    def rhs(tau, x):
        return [horner(Pc, x[0]) / horner(Vc, x[0])]

    hit = lambda tau, x: x[0] - x0
    hit.terminal = True
    hit.direction = 1.0
    sol = solve_ivp(
        rhs, (0.0, tau_cap), [s_abs], method="DOP853", events=hit,
        rtol=min(cfg.ode_rel_tol, 1e-11), atol=1e-14, dense_output=True,
    )
    if not sol.success and sol.status != 1:
        raise ToleranceNotMet(sol.message or "reparametrization ODE failed")
    tau_end = sol.t_events[0][0] if sol.status == 1 and len(sol.t_events[0]) else tau_cap
    return sol, float(tau_end)


def _y_l_quadrature(spec: UnfoldingSpec, x0: float, s: float, cfg: QuadratureConfig) -> float:
    th = float(spec.theta_eps)
    lam = float(spec.lam)
    Vc = [float(c) for c in spec.V.coeffs]
    Uc = [float(c) for c in spec.U.coeffs]
    tau_cap = (-_EXP_UNDERFLOW + 60.0) / lam
    sol, tau_end = _x_of_tau(spec, s + th, x0, tau_cap, cfg)

    def integrand(tau):
        x = float(sol.sol(tau)[0])
        return horner(Uc, x) / horner(Vc, x) * math.exp(-lam * tau)

    # kernel decays like exp(-lam tau); cut where it is far below tolerance
    cut = min(tau_end, 50.0 / lam)
    val, _ = _quad(integrand, 0.0, cut, cfg)
    return val


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
    Vc = [float(c) for c in ts.V.coeffs]
    tau_cap = -_EXP_UNDERFLOW + 60.0
    sol, tau_end = _x_of_tau(ts, s + th, ts.x0, tau_cap, cfg)

    def integrand(tau):
        x = float(sol.sol(tau)[0])
        y = ts.y0 * math.exp(-tau)
        return ts.ua(x, y) * y / horner(Vc, x)

    cut = min(tau_end, 55.0)
    val, _ = _quad(integrand, 0.0, cut, cfg)
    return val


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
    flatness report's k scale derivatives: they use up 4k of its points
    (log_derivative takes two per side) and need 5 more."""
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
