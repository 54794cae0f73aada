"""Series coefficients of orbits arriving at the unfolded node, the
two-sided gluing, and the mode summation for passage times.

At a fixed parameter point the shifted data

    U(s) = U(s + theta) / lam,   V(s) = V(s + theta),   Q(s) = Q(s, e)

define the coefficients c_j of S_l = sum c_j s^j through the identity

    Q * theta_lam(S_l) = V * S_l - U + s^(l+1) F_(l+1).

Its first l+1 coefficients are lower-triangular in c_0..c_l,

    c_n (V_0 - (n/lam) Q_0) = U_n + sum_{k<n} ((k/lam) Q_{n-k} - V_{n-k}) c_k,

and the production kernel (:func:`triangular_coefficients`) solves them by
forward substitution on data truncated at order l.  Only the terms with
n - k up to the degree d of V and Q are nonzero, so this takes O(l d)
scalar operations, O(l^2) at most.  The diagonal V_n(0) of
V_n = V - (n/lam) Q must not vanish.

The paper's finite-difference recursion

    F_0 = U,   F_{j+1} = V_j * nabla(F_j / V_j),   c_j = (F_j / V_j)(0)

is kept as the reference construction (:func:`recursion_coefficients`): it
also yields the remainder F_(l+1), so :func:`residual_identity_series` can
check the identity with residual exactly zero in rational arithmetic, and
the tests check that both constructions give equal coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ContinuityViolation, NonUnitV, OrderExhausted, TailUnbounded
from .family import PolynomialFamily, PuiseuxBranch, compute_Q
from .series import BivariatePoly, TruncatedSeries, horner

ORDER_MARGIN = 4
# vbounds probes eps in [VB_EPS_MAX * 1e-6, VB_EPS_MAX] at VB_N_EPS log-spaced
# values and s in [-VB_S0, VB_S0] at VB_N_S evenly spaced values
VB_S0 = 0.1
VB_EPS_MAX = 0.1
VB_N_EPS = 16
VB_N_S = 33
MAX_MODES = 400
MODE_TAIL_TOL = 1e-8  # mode summation stops once its tail estimate is below
GLUE_TOL = 1e-8  # largest jump of a coefficient across eps = 0


def working_order(ell: int) -> int:
    """Truncation order of the recursion for an expansion to degree ell:
    each nabla costs one order, so it needs at least ell + 2, and
    ORDER_MARGIN leaves two to spare."""
    return ell + ORDER_MARGIN


@dataclass(frozen=True)
class UnfoldingSpec:
    """One parameter point of the unfolded family.

    V is normalized so V(0) = 1 (lam absorbs the factor); eps must lie on
    the side covered by the branch.  U and V are taken as exact polynomials
    of their stored degree."""

    family: PolynomialFamily
    branch: PuiseuxBranch
    V: TruncatedSeries
    U: TruncatedSeries
    lam: object
    eps: object
    Q: BivariatePoly = None

    def __post_init__(self):
        v0 = self.V.coeffs[0]
        if not v0 > 0:
            raise NonUnitV(f"V(0) = {v0!r} must be positive")
        if v0 != 1:
            object.__setattr__(self, "lam", self.lam * v0)
            object.__setattr__(self, "V", self.V / v0)
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if self.eps != 0 and self.eps * self.branch.sign < 0:
            raise ValueError("eps lies on the side not covered by the branch")
        if self.Q is None:
            object.__setattr__(self, "Q", compute_Q(self.family, self.branch))

    @property
    def e_hat(self):
        return self.branch.e_hat(self.eps)

    @property
    def theta_eps(self):
        return self.branch.theta(self.eps)

    def at_eps(self, eps) -> "UnfoldingSpec":
        return replace(self, eps=eps)


@dataclass(frozen=True)
class ExpansionResult:
    c: tuple
    ell: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.c) != self.ell + 1:
            raise ValueError("need exactly ell+1 coefficients")

    def partial_sum(self, s):
        """Horner evaluation of sum c_j s^j; the empty result is 0."""
        if not self.c:
            return 0 * s
        return horner(self.c, s)

    def to_json(self) -> dict:
        from .series import _scalar_to_str

        out = {
            "coeffs": [_scalar_to_str(v) for v in self.c],
            "ell": self.ell,
        }
        out.update(
            {k: v for k, v in self.meta.items() if isinstance(v, (int, float, str, bool))}
        )
        return out


EMPTY_SUM = ExpansionResult(c=(), ell=-1)


def check_grid_length(n: int, k: int) -> None:
    """Raise ValueError unless an s grid of n points is long enough for the
    flatness report's k scale derivatives (oracle.flatness_report): they use
    up 4k of its points (two per side each) and need 5 more."""
    if n < 4 * k + 5:
        raise ValueError(f"s_grid n = {n} is below 4k + 5 = {4 * k + 5} for k = {k}")


def shifted_data(spec: UnfoldingSpec, order: int):
    """Recentered series (U/lam, V, Q) at the tracked root, all at the
    given truncation order.  U and V are shifted as the polynomials they
    store and padded afterwards, so the cost of the shift does not grow
    with the order."""
    th = spec.theta_eps
    U = spec.U.shift(th).padded(order).truncated(order) / spec.lam
    V = spec.V.shift(th).padded(order).truncated(order)
    Qs = spec.Q.restrict(spec.e_hat, order)
    return U, V, Qs


def _ratio(j, lam):
    """j/lam, exact when lam is."""
    if isinstance(lam, (int, Fraction)) and not isinstance(lam, float):
        return Fraction(j) / Fraction(lam)
    return j / lam


def _scaled(Q: TruncatedSeries, j, lam):
    return Q * _ratio(j, lam)


def triangular_coefficients(U, V, Qs, lam, ell):
    """c_0..c_ell by forward substitution in the defining identity; the
    series need order >= ell.  Raises NonUnitV at the first n with
    V_n(0) = V_0 - (n/lam) Q_0 = 0, the index the recursion stops at."""
    # terms with n - k above both degrees vanish, so the cost is
    # O(ell * degree) rather than O(ell^2)
    width = max(V.degree(), Qs.degree())
    U, V, Qs = U.coeffs, V.coeffs, Qs.coeffs
    r = [_ratio(k, lam) for k in range(ell + 1)]
    c = []
    for n in range(ell + 1):
        diag = V[0] - Qs[0] * r[n]
        if diag == 0:
            raise NonUnitV(f"V_{n}(0) = 0 at this parameter point")
        acc = U[n]
        for k in range(max(0, n - width), n):
            acc = acc + (r[k] * Qs[n - k] - V[n - k]) * c[k]
        c.append(acc / diag)
    return c


def recursion_coefficients(U, V, Qs, lam, ell):
    """Run the paper's recursion on raw series data; returns
    (coeffs, F_{ell+1}).  The reference construction: production
    coefficients come from :func:`triangular_coefficients`."""
    order = min(U.order, V.order, Qs.order)
    if order < ell + 2:
        raise OrderExhausted(f"working order {order} cannot produce {ell + 1} coefficients")
    U = U.truncated(order)
    V = V.truncated(order)
    Qs = Qs.truncated(order)
    c = []
    F = U
    for j in range(ell + 1):
        Vj = V - _scaled(Qs, j, lam)
        if Vj.coeffs[0] == 0:
            raise NonUnitV(f"V_{j}(0) = 0 at this parameter point")
        G = F / Vj
        c.append(G.coeffs[0])
        F = Vj.truncated(G.order - 1) * G.nabla()
    return c, F


def coefficients(spec: UnfoldingSpec, ell: int, check_validity: bool = False) -> ExpansionResult:
    """Expansion coefficients c_0..c_ell at the spec's parameter point.

    meta["order"] is the truncation order the recursion would need; the
    triangular solve itself reads the shifted data up to order ell.  With
    check_validity, meta["eps0"] is the advisory grid check of
    :func:`vbounds` (V_j kept in [1/2, 2], V evaluated in full, not a
    certificate) and meta["within_validity_bound"] says whether
    |eps| <= eps0."""
    U, V, Qs = shifted_data(spec, max(ell, 0))
    c = triangular_coefficients(U, V, Qs, spec.lam, ell)
    meta = {
        "order": working_order(ell),
        "eps": float(spec.eps),
        "e_hat": float(spec.e_hat),
        "lambda": float(spec.lam),
        "branch_sign": spec.branch.sign,
    }
    if check_validity:
        eps0 = vbounds(spec, ell)
        meta["eps0"] = eps0
        meta["within_validity_bound"] = abs(float(spec.eps)) <= eps0
    return ExpansionResult(c=tuple(c), ell=ell, meta=meta)


def residual_identity_series(U, V, Qs, lam, ell):
    """Max |coefficient| of Q*theta(S) - (V*S - U + s^(l+1) F_(l+1));
    exactly zero in exact arithmetic."""
    c, F_next = recursion_coefficients(U, V, Qs, lam, ell)
    order = min(U.order, V.order, Qs.order)
    if ell >= 0:
        S = TruncatedSeries.from_coeffs(list(c), order=order)
    else:
        S = TruncatedSeries.zero(order, like=U.coeffs[0])
    lhs = Qs * S.theta(lam)
    rhs = V * S - U + F_next.shifted_up(ell + 1).truncated(order)
    diff = lhs - rhs
    return max(abs(a) for a in diff.coeffs)


def residual_identity_check(spec: UnfoldingSpec, ell: int):
    """:func:`residual_identity_series` on the spec's shifted data.

    It runs the reference recursion, not the production kernel.  In floats
    the recursion's error grows with ell: at ell = 30, on the rho = 2
    branch of x^3 - x eps at eps = 0.05, its coefficients are off by 9.4e-6
    of the coefficient scale, the triangular kernel's by 7.9e-15.  So a
    float residual measures the recursion, not the coefficients that
    :func:`coefficients` returns; over the rationals it is exactly zero."""
    U, V, Qs = shifted_data(spec, working_order(ell))
    return residual_identity_series(U, V, Qs, spec.lam, ell)


def vbounds(spec: UnfoldingSpec, ell: int) -> float:
    """The largest eps probe up to which every
    V_j(s) = V(s + theta) - (j/lam) Q(s, e_hat), 0 <= j <= ell, stays in
    [1/2, 2] at every point of the VB_N_EPS x VB_N_S grid of eps probes
    (on the branch side) and s values; 0.0 when the smallest probe fails.
    It is an advisory grid check, not a certificate: V_j is not looked at
    between the grid points.

    theta = sigma(e_hat), V and Q are evaluated in full on the whole grid
    at once.  V_j is affine in j, so at each point its extremes over
    0 <= j <= ell sit at j = 0 and j = ell; only those are evaluated."""
    probes = sorted(VB_EPS_MAX * (10.0 ** (-6 * k / (VB_N_EPS - 1))) for k in range(VB_N_EPS))
    s = np.array([-VB_S0 + 2 * VB_S0 * i / (VB_N_S - 1) for i in range(VB_N_S)])
    branch = spec.branch
    e = np.array([[branch.e_hat(branch.sign * p)] for p in probes])
    q = np.zeros((spec.Q.degree_s() + 1, max(j for _, j in spec.Q.terms) + 1))
    for (i, j), c in spec.Q.terms.items():
        q[i, j] = float(c)
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        theta = branch.sigma(e)
        V = spec.V(s + theta)
        Q = horner([horner(row.tolist(), e) for row in q], s)
        V_ell = V - float(_ratio(ell, spec.lam)) * Q
        inside = (0.5 <= V) & (V <= 2.0) & (0.5 <= V_ell) & (V_ell <= 2.0)
    ok = np.broadcast_to(inside, (len(probes), len(s))).all(axis=1)
    passed = len(probes) if ok.all() else int(np.argmin(ok))
    return probes[passed - 1] if passed else 0.0


# ---------------------------------------------------------------------------
# two-sided gluing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlueResult:
    eps: tuple
    coeffs: tuple  # per eps, tuple c_0..c_ell
    ell: int
    valuation: int | None
    vanishing_checked: bool
    continuity_delta: tuple

    def column(self, j: int):
        return tuple(row[j] for row in self.coeffs)


def glue_two_sided(
    spec_plus: UnfoldingSpec,
    spec_minus: UnfoldingSpec,
    ell: int,
    grid: Sequence | None = None,
) -> GlueResult:
    """Sample c_j(eps) across eps = 0 and enforce the matching conditions.

    When U has valuation m, the coefficients c_0..c_{m-1} must vanish for
    eps <= 0 (checked exactly in rational arithmetic, to rounding in
    floats); both one-sided limits at eps = 0 must agree within GLUE_TOL."""
    if grid is None:
        hi = min(abs(float(spec_plus.eps)) or 1e-3, abs(float(spec_minus.eps)) or 1e-3)
        decades = 9
        pos = [hi * 10.0 ** (-k) for k in range(decades)]
        grid = sorted({-g for g in pos} | {0.0} | set(pos))
    m = spec_plus.U.valuation()
    rows = []
    for eps in grid:
        spec = (spec_plus if eps >= 0 else spec_minus).at_eps(eps)
        res = coefficients(spec, ell)
        rows.append(res.c)
        if eps <= 0 and m is not None:
            for j in range(min(m, ell + 1)):
                cj = res.c[j]
                bad = (cj != 0) if not isinstance(cj, float) else abs(cj) > 1e-13
                if bad:
                    raise ContinuityViolation(
                        f"c_{j}({eps}) = {cj!r} should vanish below the valuation "
                        f"m = {m} of U for eps <= 0"
                    )
    grid = list(grid)
    i0 = grid.index(0.0) if 0.0 in grid else None
    deltas = []
    if i0 is not None:
        c0 = rows[i0]
        below = rows[i0 - 1] if i0 > 0 else c0
        above = rows[i0 + 1] if i0 + 1 < len(rows) else c0
        for j in range(ell + 1):
            d = max(abs(float(below[j]) - float(c0[j])), abs(float(above[j]) - float(c0[j])))
            deltas.append(d)
            if d > GLUE_TOL:
                raise ContinuityViolation(
                    f"c_{j} jumps by {d:g} across eps=0 (tolerance {GLUE_TOL:g})"
                )
    return GlueResult(
        eps=tuple(grid),
        coeffs=tuple(rows),
        ell=ell,
        valuation=m,
        vanishing_checked=m is not None,
        continuity_delta=tuple(deltas),
    )


# ---------------------------------------------------------------------------
# mode summation for passage-time coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DulacTimeSpec:
    """Data of the time form: the polar-factor field with a planar function
    U(x, y) decomposed into modes U_n(x) against y^(n-1).

    Either a finite tuple of modes or a generator with a geometric decay
    certificate (C, r): ||U_n|| <= C r^n.  The trajectory enters the node
    section at height y0 and the time is read off up to the section x = x0."""

    family: PolynomialFamily
    branch: PuiseuxBranch
    V: TruncatedSeries  # unnormalized, V(0) > 0
    eps: object
    modes: tuple | None = None
    modes_fn: Callable[[int], TruncatedSeries] | None = None
    ua_fn: Callable[[float, float], float] | None = None
    decay: tuple | None = None  # (C, r)
    y0: float = 1.0
    x0: float = 1.0

    def __post_init__(self):
        if not self.modes and self.modes_fn is None:
            raise ValueError("need at least one mode, or modes_fn")
        if not self.V.coeffs[0] > 0:
            raise NonUnitV("V(0) must be positive")

    def mode(self, n: int) -> TruncatedSeries:
        """U_n (1-based), the coefficient of y^(n-1)."""
        if self.modes is not None:
            return self.modes[n - 1]
        return self.modes_fn(n)

    def n_modes(self) -> int | None:
        return len(self.modes) if self.modes is not None else None

    def ua(self, x: float, y: float) -> float:
        if self.ua_fn is not None:
            return self.ua_fn(x, y)
        if self.modes is None:
            raise ValueError("evaluating U(x, y) needs ua_fn or a finite mode list")
        exact = type(x) is not float
        acc = 0.0
        yp = 1.0
        for m in self.modes:
            acc += float(horner(m.coeffs if exact else m.float_coeffs, x)) * yp
            yp *= y
        return acc


def dulac_time_coefficients(ts: DulacTimeSpec, ell: int) -> ExpansionResult:
    """Sum per-mode expansion coefficients over the mode index.

    Mode n contributes the coefficients of the scalar problem with
    U = U_n y0^n and lam = n V(0); summation stops when the tail estimate
    C gamma (r y0)^(N+1) / (1 - r y0) drops below MODE_TAIL_TOL.  The
    estimate is not a bound: gamma is the largest |c_j| / ||U_n y0^n|| ratio
    observed over the modes summed so far, not a bound on the ratios of
    later modes.  An infinite mode list that has not converged after MAX_MODES
    modes raises TailUnbounded."""
    finite = ts.n_modes()
    if finite is None and ts.decay is None:
        raise TailUnbounded("infinite mode list without a decay certificate")
    if ts.decay is not None:
        C, r = ts.decay
        r_eff = r * ts.y0
        if not 0 < r_eff < 1:
            raise TailUnbounded(f"certificate radius r*y0 = {r_eff} is not in (0,1)")
    total = [0.0] * (ell + 1)
    gamma = 0.0
    n = 0
    tail = math.inf if finite is None else 0.0
    while True:
        n += 1
        if finite is not None and n > finite:
            if ts.decay is not None:
                # finite table of a longer decomposition: estimated tail
                tail = C * max(gamma, 1e-300) * r_eff ** (n) / (1 - r_eff)
            else:
                tail = 0.0  # the table is the whole decomposition
            break
        if finite is None and n > MAX_MODES:
            raise TailUnbounded(f"no convergence within {MAX_MODES} modes")
        U_n = ts.mode(n) * (ts.y0**n)
        spec = UnfoldingSpec(
            family=ts.family,
            branch=ts.branch,
            V=ts.V,
            U=U_n,
            lam=n,
            eps=ts.eps,
        )
        res = coefficients(spec, ell)
        for j in range(ell + 1):
            total[j] += float(res.c[j])
        norm = float(U_n.norm_ell1())
        if norm > 0:
            gamma = max(gamma, max(abs(float(cj)) for cj in res.c) / norm)
        if finite is None:
            tail = C * max(gamma, 1e-300) * r_eff ** (n + 1) / (1 - r_eff)
            if tail < MODE_TAIL_TOL and n >= 3:
                break
    return ExpansionResult(
        c=tuple(total),
        ell=ell,
        meta={
            "eps": float(ts.eps),
            "modes_used": n if finite is None else finite,
            "tail_bound": float(tail),
            "gamma": gamma,
            "y0": ts.y0,
        },
    )
