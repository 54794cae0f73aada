"""Series coefficients of orbits arriving at the unfolded node, the
two-sided gluing, and passage-time coefficients summed over the modes given.

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
V_n = V - (n/lam) Q must not vanish.  Exact data (ints and Fractions) take
an integer path, :func:`_exact_pairs`, which gives the same Fractions;
float and mixed data take the loop.

Passage-time coefficients sum such solves over the modes given.  Every mode
shares the family, branch, V and eps, so the sum shifts V and restricts Q
once per call; it still builds one UnfoldingSpec, and so one compute_Q, per
mode until the benchmark that pins that count is re-baselined.

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
GLUE_TOL = 1e-8  # largest jump of a coefficient across eps = 0
# a float diagonal V_n(0) nearer 0 than this many ulps of its larger term is 0
_DIAG_NOISE_ULPS = 8


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
        if self.ell < 0:
            raise ValueError(f"ell = {self.ell} is negative")
        if len(self.c) != self.ell + 1:
            raise ValueError("need exactly ell+1 coefficients")

    def partial_sum(self, s):
        """Horner evaluation of sum c_j s^j."""
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


def shifted_data(spec: UnfoldingSpec, order: int):
    """Recentered series (U/lam, V, Q) at the tracked root, all at the
    given truncation order.  U and V are shifted as the polynomials they
    store and padded afterwards, so the cost of the shift does not grow
    with the order."""
    th = spec.theta_eps
    return (_shifted_u(spec, th, order), *_shifted_vq(spec, th, order))


def _shifted_u(spec: UnfoldingSpec, th, order: int) -> TruncatedSeries:
    """U(s + th)/lam of :func:`shifted_data`, with th = spec.theta_eps."""
    return spec.U.shift(th).padded(order).truncated(order) / spec.lam


def _shifted_vq(spec: UnfoldingSpec, th, order: int):
    """V(s + th) and Q restricted to spec.e_hat, of :func:`shifted_data`,
    with th = spec.theta_eps."""
    return spec.V.shift(th).padded(order).truncated(order), spec.Q.restrict(spec.e_hat, order)


def _ratio(j, lam):
    """j/lam, exact when lam is."""
    if isinstance(lam, (int, Fraction)) and not isinstance(lam, float):
        return Fraction(j) / Fraction(lam)
    return j / lam


def _scaled(Q: TruncatedSeries, j, lam):
    return Q * _ratio(j, lam)


_EXACT = {int, Fraction}


def _exact_pairs(U, V, Qs, lam, ell, width):
    """c_0..c_ell of exact data (coefficient tuples, lam != 0) as reduced
    (numerator, denominator) pairs of ints, denominators positive.

    With lam = a/b and d the common denominator of V_j and Q_j, j <= w =
    min(width, ell), the identity times a d reads, in the integers
    v_j = d V_j and q_j = d Q_j,

        c_n (a v_0 - n b q_0) = a d U_n + sum_k (k b q_{n-k} - a v_{n-k}) c_k.

    The live terms are summed with the steps of Fraction's own product and
    sum (a gcd before each multiplication, Henrici's gcd for each sum), so
    every intermediate pair is reduced and no step costs more than the
    Fraction operation it replaces."""
    gcd = math.gcd
    a, b = lam.numerator, lam.denominator
    w = min(width, ell)
    d = math.lcm(*(x.denominator for x in V[: w + 1] + Qs[: w + 1]))
    av = [a * x.numerator * (d // x.denominator) for x in V[: w + 1]]
    bq = [b * x.numerator * (d // x.denominator) for x in Qs[: w + 1]]
    ad = a * d
    c = []
    for n in range(ell + 1):
        diag = av[0] - n * bq[0]
        if diag == 0:
            raise NonUnitV(f"V_{n}(0) = 0 at this parameter point")
        u = U[n]
        g = gcd(ad, u.denominator)
        num, den = ad // g * u.numerator, u.denominator // g
        for k in range(max(0, n - w), n):
            p, q = c[k]
            wk = k * bq[n - k] - av[n - k]
            if not (wk and p):
                continue
            g = gcd(wk, q)  # the term wk p/q, reduced
            tn, td = wk // g * p, q // g
            g = gcd(den, td)  # num/den + tn/td
            if g == 1:
                num, den = num * td + den * tn, den * td
            else:
                s = den // g
                t = num * (td // g) + tn * s
                g2 = gcd(t, g)
                num, den = t // g2, s * (td // g2)
        g = gcd(num, diag)  # num/den divided by diag
        num, diag = num // g, diag // g
        if diag < 0:
            num, diag = -num, -diag
        c.append((num, den * diag))
    return c


def triangular_coefficients(U, V, Qs, lam, ell):
    """c_0..c_ell by forward substitution in the defining identity; the
    series need order >= ell.  Raises NonUnitV at the first n with
    V_n(0) = V_0 - (n/lam) Q_0 = 0, the index the recursion stops at.  A
    float V_n(0) counts as 0 when it lies within _DIAG_NOISE_ULPS units in
    the last place of the larger of V_0 and (n/lam) Q_0: that is the
    rounding left of a difference that vanishes exactly.

    Exact data (every coefficient and lam an int or Fraction) take
    :func:`_exact_pairs`, which solves in integers and gives the same
    Fractions; float and mixed data take the loop below."""
    # terms with n - k above both degrees vanish, so the cost is
    # O(ell * degree) rather than O(ell^2)
    width = max(V.degree(), Qs.degree())
    U, V, Qs = U.coeffs, V.coeffs, Qs.coeffs
    # lam = 0 stays with the loop, which raises ZeroDivisionError for it
    if lam != 0 and type(lam) in _EXACT and set(map(type, U + V + Qs)) <= _EXACT:
        return [Fraction(p, q) for p, q in _exact_pairs(U, V, Qs, lam, ell, width)]
    r = [_ratio(k, lam) for k in range(ell + 1)]
    c = []
    for n in range(ell + 1):
        shift = Qs[0] * r[n]
        diag = V[0] - shift
        if diag == 0:
            raise NonUnitV(f"V_{n}(0) = 0 at this parameter point")
        if isinstance(diag, float) and abs(diag) < _DIAG_NOISE_ULPS * math.ulp(max(abs(V[0]), abs(shift))):
            raise NonUnitV(f"V_{n}(0) = {diag!r} is 0 up to rounding at this parameter point")
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

    `modes` holds U_1..U_N, at least one.  With a decay estimate (C, r),
    ||U_n|| <= C r^n, they are the first N modes of a longer decomposition;
    without one they are the whole of U.  The trajectory enters the node
    section at height y0 and the time is read off up to the section x = x0."""

    family: PolynomialFamily
    branch: PuiseuxBranch
    V: TruncatedSeries  # unnormalized, V(0) > 0
    eps: object
    modes: tuple
    ua_fn: Callable[[float, float], float] | None = None
    decay: tuple | None = None  # (C, r)
    y0: float = 1.0
    x0: float = 1.0

    def __post_init__(self):
        if not self.modes:
            raise ValueError("modes is empty: need at least one mode")
        if not self.V.coeffs[0] > 0:
            raise NonUnitV("V(0) must be positive")

    def ua(self, x: float, y: float) -> float:
        if self.ua_fn is not None:
            return self.ua_fn(x, y)
        exact = type(x) is not float
        acc = 0.0
        yp = 1.0
        for m in self.modes:
            acc += float(horner(m.coeffs if exact else m.float_coeffs, x)) * yp
            yp *= y
        return acc


def dulac_time_coefficients(ts: DulacTimeSpec, ell: int) -> ExpansionResult:
    """Sum per-mode expansion coefficients over the modes given.

    Mode n contributes the coefficients of the scalar problem with
    U = U_n y0^n and lam = n V(0).  With a decay estimate (C, r), r y0 must
    lie in (0, 1), and meta["tail_bound"] estimates what the modes left
    out would add: C gamma (r y0)^(N+1) / (1 - r y0), which must lie below
    the largest |c_j| returned (TailUnbounded otherwise).  The estimate is
    not a bound: gamma is the largest |c_j| / ||U_n y0^n|| ratio observed
    over the modes summed, not a bound on the ratios of the modes left out.
    Without a decay estimate the tail is 0."""
    if ts.decay is not None:
        C, r = ts.decay
        r_eff = r * ts.y0
        if not 0 < r_eff < 1:
            raise TailUnbounded(f"certificate radius r*y0 = {r_eff} is not in (0,1)")
    # Every mode has the same family, branch, V and eps, so theta, the
    # shifted V and the restricted Q are taken once, from the first mode.
    # Each mode keeps its own UnfoldingSpec, and so its own compute_Q:
    # perfbench's test_sizing_in_kind pins compute_Q.calls_per_job >= 24
    # until the benchmark is re-baselined.
    specs = [
        UnfoldingSpec(family=ts.family, branch=ts.branch, V=ts.V, U=mode * (ts.y0**n), lam=n, eps=ts.eps)
        for n, mode in enumerate(ts.modes, start=1)
    ]
    order = max(ell, 0)
    th = specs[0].theta_eps
    V, Qs = _shifted_vq(specs[0], th, order)
    total = [0.0] * (ell + 1)
    gamma = 0.0
    for spec in specs:
        c = triangular_coefficients(_shifted_u(spec, th, order), V, Qs, spec.lam, ell)
        for j in range(ell + 1):
            total[j] += float(c[j])
        norm = float(spec.U.norm_ell1())
        if norm > 0:
            gamma = max(gamma, max(abs(float(cj)) for cj in c) / norm)
    N = len(ts.modes)
    tail = 0.0 if ts.decay is None else C * max(gamma, 1e-300) * r_eff ** (N + 1) / (1 - r_eff)
    largest = max(abs(cj) for cj in total)
    if ts.decay is not None and not tail < largest:
        raise TailUnbounded(f"tail estimate {tail:g} of the {N} modes is not below the largest |c_j| = {largest:g}")
    return ExpansionResult(
        c=tuple(total),
        ell=ell,
        meta={
            "eps": float(ts.eps),
            "modes_used": N,
            "tail_bound": float(tail),
            "gamma": gamma,
            "y0": ts.y0,
        },
    )
