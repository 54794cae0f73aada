"""Polynomial families P(x; eps), the fractional-power branch of their
biggest real root, the shifted quotient Q, and the hypothesis verdicts.

Branch extraction runs the classical Newton-polygon iteration on the
support of P viewed as a polynomial in (x, e), e >= 0.  For each
admissible edge the characteristic polynomial is solved over the reals;
simple roots are lifted by undetermined coefficients (one coefficient of
P1(v(z), z) per step, from the coefficients of the powers of v kept
incrementally), multiple roots recurse on the substituted polynomial.
Rational characteristic roots are kept exact, so the common families
produce branches with exact rational coefficients.  An iteration that
stalls, yields no real branch or overflows floats raises BranchNotFound.

A numeric tracker (companion-matrix roots on a log grid) validates every
accepted branch.  It takes the whole grid at once: P's coefficients are
converted to float once, the companion matrices of one degree share one
eigvals call, and the candidates are polished and sign-tested as numpy
arrays (:func:`track_biggest_real_root`), bit-identical to point-by-point
evaluation, since numpy's float64 products and sums round as Python's
floats do.

The quotient Q(s, e) := P(s + sigma(e); +-e^rho) / s is the object the
later hypothesis checks and the coefficient recursion consume.  It is
built from the powers of sigma kept as sparse (t, coefficient) lists,
which skip the products that are exact zeros (:func:`compute_Q`).

* h0: Q(0, e) > 0 near e = 0 (the tracked root stays a simple node),
* h1: the Newton diagram of Q has a single compact side,
* h2: the principal quasi-homogeneous part is positive on the closed
  first quadrant, decided on the quarter circle by a grid minimum against
  a Lipschitz margin (:func:`check_h2`); the grid values of sin^i and
  cos^j are tabulated once per exponent and shared by every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BranchAmbiguous,
    BranchNotFound,
    DegenerateQ,
    Inconclusive,
    NoRealRoot,
    NotDivisible,
)
from .series import (
    BivariatePoly,
    TruncatedSeries,
    _json_int,
    _scalar_from_str,
    _scalar_to_str,
    horner,
)

DEFAULT_BRANCH_ORDER = 12
_VALIDATION_GRID = tuple(10.0 ** (-8 + 6 * k / 24) for k in range(25))  # 1e-8 .. 1e-2
_RESIDUAL_RTOL = 1e-9
_MAX_POLYGON_DEPTH = 24
_Q_CHOP = 1e-12  # relative size below which a float term of Q is noise
_H2_GRID_POINTS = 4096
_H2_STEP = (math.pi / 2) / _H2_GRID_POINTS


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialFamily:
    """P(x; eps) = sum coeffs[(k, m)] x^k eps^m with P(x; 0) = x^(mu+1)."""

    mu: int
    coeffs: Mapping[tuple, object]

    def __post_init__(self):
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        clean = {}
        for (k, m), c in dict(self.coeffs).items():
            if c != 0:
                clean[(int(k), int(m))] = c
        object.__setattr__(self, "coeffs", clean)
        deg = max((k for k, _ in clean), default=-1)
        if deg != self.mu + 1:
            raise ValueError(f"degree in x is {deg}, expected mu+1={self.mu + 1}")
        at_zero = {k: c for (k, m), c in clean.items() if m == 0}
        if at_zero != {self.mu + 1: 1}:
            raise ValueError("P(x; 0) must equal x^(mu+1) exactly")

    @functools.cached_property
    def float_coeffs(self) -> dict:
        """coeffs with each coefficient converted to float, in the same order."""
        return {km: float(c) for km, c in self.coeffs.items()}

    def eval(self, x, eps):
        """P(x; eps), term by term in coeffs order; at a float x it sums
        float_coeffs, by the rule TruncatedSeries.__call__ states."""
        terms = self.float_coeffs if type(x) is float else self.coeffs
        acc = 0 * x
        for (k, m), c in terms.items():
            acc = acc + c * x**k * eps**m
        return acc

    def x_coeffs(self, eps) -> list:
        """Dense coefficients in x (low first) at a fixed eps."""
        return self.x_coeff_rows([eps])[0].tolist()

    def x_coeff_rows(self, eps_grid) -> np.ndarray:
        """Row r holds the dense float coefficients in x (low first) at
        eps_grid[r]: the terms of float_coeffs, added in their order as
        c * float(eps) ** m with Python's float power, on the whole grid."""
        eps = [float(e) for e in eps_grid]
        rows = np.zeros((len(eps), self.mu + 2))
        powers = {}
        with np.errstate(all="ignore"):  # Python floats overflow silently too
            for (k, m), c in self.float_coeffs.items():
                if m not in powers:
                    powers[m] = np.array([e**m for e in eps])
                rows[:, k] += c * powers[m]
        return rows

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "terms": [
                {"x": k, "eps": m, "c": _scalar_to_str(c)}
                for (k, m), c in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PolynomialFamily":
        """The family of a spec's "family" object; a value that is not a
        number, or an exponent that is not a nonnegative integer, raises
        ValueError naming its key, and a family of the wrong shape (degree
        in x other than mu + 1, say) one naming `family`."""
        terms = {}
        for i, t in enumerate(data["terms"]):
            field = f"family.terms[{i}]"
            try:
                c = _scalar_from_str(str(t["c"]))
            except ValueError as exc:
                raise ValueError(f"{field}.c: {exc}") from None
            exponents = []
            for key in ("x", "eps"):
                n = _json_int(t[key], f"{field}.{key}")
                if n < 0:
                    raise ValueError(f"{field}.{key} = {n} is negative")
                exponents.append(n)
            terms[tuple(exponents)] = c
        mu = _json_int(data["mu"], "family.mu")
        try:
            return cls(mu=mu, coeffs=terms)
        except ValueError as exc:
            raise ValueError(f"family: {exc}") from None


@dataclass(frozen=True)
class PuiseuxBranch:
    """Biggest-real-root branch theta_eps = sigma(|eps|^(1/rho)) on one side."""

    rho: int
    sigma: TruncatedSeries
    sign: int  # +1: branch covers eps >= 0, -1: eps <= 0
    exact: bool = False

    def __post_init__(self):
        if self.sigma.coeffs[0] != 0:
            raise ValueError("sigma(0) must vanish: the root tends to zero")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    def e_hat(self, eps) -> float:
        """The branch variable |eps|^(1/rho); eps must lie on the branch side."""
        if eps * self.sign < 0:
            raise ValueError("eps has the wrong sign for this branch")
        a = abs(eps)
        if a == 0:
            return a * 0
        if self.rho == 1 and isinstance(a, (int, Fraction)):
            return a
        return float(a) ** (1.0 / self.rho)

    def theta(self, eps):
        """The tracked root sigma(e_hat(eps)) at a parameter value."""
        return self.sigma(self.e_hat(eps))


@dataclass
class Verdict:
    holds: bool
    witness: object = None
    detail: str = ""

    def to_json(self) -> dict:
        w = self.witness
        if isinstance(w, Fraction):
            w = str(w)
        elif isinstance(w, tuple):
            w = list(w)
        return {"holds": self.holds, "witness": w, "detail": self.detail}


@dataclass
class NewtonData:
    """Support data of Q plus the three hypothesis verdicts."""

    Q: BivariatePoly
    mu: int
    nu: int
    chi: object
    diagram: list = field(default_factory=list)
    h0: Verdict | None = None
    h1: Verdict | None = None
    h2: Verdict | None = None

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "nu": self.nu,
            "chi": _scalar_to_str(self.chi),
            "support": [list(p) for p in self.Q.support()],
            "diagram": [list(p) for p in self.diagram],
            "h0": self.h0.to_json() if self.h0 else None,
            "h1": self.h1.to_json() if self.h1 else None,
            "h2": self.h2.to_json() if self.h2 else None,
        }


# ---------------------------------------------------------------------------
# exact polynomial helpers (univariate, coefficients low-first)
# ---------------------------------------------------------------------------


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deriv(p):
    return [p[k] * k for k in range(1, len(p))] or [0 * p[0]]


def _poly_divmod(a, b):
    a = list(a)
    b = _poly_trim(list(b))
    q = [0 * b[0]] * max(1, len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / lead
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = a[k + i] - c * bc
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while not (len(b) == 1 and b[0] == 0):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a[-1] != 0:
        a = [c / a[-1] for c in a]  # monic
    return a


def _yun_squarefree(p):
    """Yun's algorithm: p = prod b_i^i with b_i squarefree (exact field)."""
    p = _poly_trim(list(p))
    dp = _poly_deriv(p)
    g = _poly_gcd(p, dp)
    if len(g) == 1:
        return [(1, p)]
    out = []
    c, _ = _poly_divmod(p, g)
    d = [x - y for x, y in _pad_pair(_poly_divmod(dp, g)[0], _poly_deriv(c))]
    d = _poly_trim(d)
    i = 1
    while len(c) > 1:
        b = _poly_gcd(c, d)
        if len(b) > 1:
            out.append((i, b))
        c, _ = _poly_divmod(c, b)
        db, _ = _poly_divmod(d, b)
        d = _poly_trim([x - y for x, y in _pad_pair(db, _poly_deriv(c))])
        i += 1
    return out


def _pad_pair(a, b):
    n = max(len(a), len(b))
    za, zb = 0 * a[0], 0 * b[0]
    return list(zip(list(a) + [za] * (n - len(a)), list(b) + [zb] * (n - len(b))))


def _rational_roots(p):
    """All rational roots of an exact-coefficient polynomial, with
    multiplicity, in increasing order; roots at 0 are left out.

    The candidates come from the real float roots of the squarefree part
    (:func:`_nearest_fraction_root`); a candidate is kept only if it is an
    exact root."""
    ip = _primitive(_poly_trim([Fraction(c) for c in p]))
    while ip and ip[0] == 0:
        ip = ip[1:]  # roots at 0 are not wanted here (c != 0 in the polygon)
    if len(ip) <= 1:
        return []
    poly = [Fraction(c) for c in ip]
    sq = _primitive(_poly_divmod(poly, _poly_gcd(poly, _poly_deriv(poly)))[0])
    if len(sq) == 2:
        cands = {Fraction(-sq[0], sq[1])}
    else:
        cands = {
            _nearest_fraction_root(sq, z.real)
            for z in np.roots([float(c) for c in reversed(sq)])
            if math.isfinite(z.real) and abs(z.imag) <= 1e-4 * max(1.0, abs(z))
        }
    roots = []
    for c in sorted(cands):
        mult = 0
        while len(poly) > 1 and horner(poly, c) == 0:
            poly, _ = _poly_divmod(poly, [-c, Fraction(1)])
            mult += 1
        if mult:
            roots.append((c, mult))
    return roots


def _primitive(p):
    """The integer polynomial with coprime coefficients that is a positive
    rational multiple of p."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    ip = [int(Fraction(c) * den) for c in p]
    g = math.gcd(*ip) or 1
    return [c // g for c in ip]


def _nearest_fraction_root(g, z):
    """The fraction nearest to the root of g near the float z among those
    whose denominator is at most L = |lead(g)|, for a squarefree primitive
    integer polynomial g: a rational root's denominator divides L.

    Newton's method in rationals, rounded to multiples of 2^-b with
    b = 2 bitlen(L) + 4, takes z to within 1/(16 L^2) of a root p/q, and
    any other fraction with denominator <= L is at least 1/L^2 from p/q."""
    L = abs(g[-1])
    ulp = Fraction(1, 2 ** (2 * L.bit_length() + 4))
    dg = _poly_deriv(g)
    x = Fraction(z)
    for _ in range(12):
        d = horner(dg, x)
        if d == 0:
            break
        step = horner(g, x) / d
        x = round((x - step) / ulp) * ulp
        if abs(step) < ulp:
            break
    return x.limit_denominator(L)


def _real_roots_with_multiplicity(phi):
    """Real roots of a univariate polynomial (low-first coefficients).

    Exact rational roots are split off exactly; what remains is handled per
    squarefree factor with companion-matrix roots (those are simple inside
    their factor, so float clustering is safe)."""
    exact = all(isinstance(c, (int, Fraction)) for c in phi)
    roots = []
    if exact:
        phi_f = [Fraction(c) for c in phi]
        for c, mult in _rational_roots(phi_f):
            roots.append((c, mult))
            for _ in range(mult):
                phi_f, _ = _poly_divmod(phi_f, [-c, Fraction(1)])
        if len(phi_f) > 1:
            for mult, factor in _yun_squarefree(phi_f):
                fl = [float(c) for c in factor]
                for r in np.roots(list(reversed(fl))):
                    if abs(r.imag) <= 1e-10 * max(1.0, abs(r)):
                        roots.append((float(r.real), mult))
    else:
        fl = [float(c) for c in _poly_trim(list(phi))]
        if len(fl) <= 1:
            return []
        rs = np.roots(list(reversed(fl)))
        used = [False] * len(rs)
        for i, r in enumerate(rs):
            if used[i] or abs(r.imag) > 1e-8 * max(1.0, abs(r)):
                continue
            cluster = [r]
            used[i] = True
            for k in range(i + 1, len(rs)):
                if not used[k] and abs(rs[k] - r) <= 1e-6 * max(1.0, abs(r)):
                    cluster.append(rs[k])
                    used[k] = True
            val = float(np.mean([c.real for c in cluster]))
            roots.append((val, len(cluster)))
    return [(c, m) for c, m in roots if c != 0]


# ---------------------------------------------------------------------------
# Newton-polygon branch enumeration
# ---------------------------------------------------------------------------


def _support(P: dict):
    return [(k, m) for (k, m), c in P.items() if c != 0]


def _lower_hull(points):
    """Vertices of the lower convex hull of lattice points, by increasing
    first coordinate (monotone chain over the lowest point per column)."""
    pts = {}
    for k, m in points:
        if k not in pts or m < pts[k]:
            pts[k] = m
    hull = []
    for k in sorted(pts):
        m = pts[k]
        while len(hull) >= 2:
            (k1, m1), (k2, m2) = hull[-2], hull[-1]
            if (k2 - k1) * (m - m1) - (m2 - m1) * (k - k1) <= 0:
                hull.pop()  # middle point above or on the segment
            else:
                break
        hull.append((k, m))
    return hull


def _lower_hull_edges(P: dict):
    """Decreasing edges of the lower hull of the support.  Each edge with
    slope -p/q (lowest terms) balances x ~ c e^(p/q); returned as
    (p, q, k1, points-on-edge)."""
    hull = _lower_hull(_support(P))
    edges = []
    for (k1, m1), (k2, m2) in zip(hull, hull[1:]):
        if m1 > m2:
            g = math.gcd(m1 - m2, k2 - k1)
            p, q = (m1 - m2) // g, (k2 - k1) // g
            on_edge = [
                (k, m)
                for (k, m) in _support(P)
                if k1 <= k <= k2 and (k - k1) * (m1 - m2) == (m1 - m) * (k2 - k1)
            ]
            edges.append((p, q, k1, sorted(on_edge)))
    return edges


def _substitute_edge(P: dict, c, p: int, q: int):
    """P1(v, z) = P((c + v) z^p, z^q) / z^w, w the minimal weight."""
    out = {}
    w = min(p * k + q * m for k, m in _support(P))
    for (k, m), coeff in P.items():
        zdeg = p * k + q * m - w
        bc = 1
        for j in range(k + 1):  # (c+v)^k = sum C(k,j) c^(k-j) v^j
            if j > 0:
                bc = bc * (k - j + 1) // j
            key = (j, zdeg)
            out[key] = out.get(key, 0) + coeff * bc * c ** (k - j)
    return {key: v for key, v in out.items() if v != 0}


def _hensel_lift(P1: dict, order: int):
    """Solve P1(v(z), z) = 0 with v(0) = 0 for a simple root (the linear
    coefficient of v at the origin is nonzero).  Returns (series coeffs
    v_1..v_order, exact flag).

    Step n needs only [z^n] P1(v_{<n}(z), z) = sum q_ij [z^(n-j)] v^i.
    Since v_0 = 0, [z^m] v^i = sum_{k=1}^{m-1} v_k [z^(m-k)] v^(i-1), so the
    coefficients of the powers of v are kept incrementally and zero terms
    are skipped: O(max_v order^2) scalar operations.  Over the rationals
    this is the undetermined-coefficient solution itself; in floats only
    the rounding depends on the summation order."""
    a10 = P1.get((1, 0), 0)
    if a10 == 0:
        raise ArithmeticError("lift needs a simple characteristic root")
    max_v = max(i for i, _ in P1)
    zero = 0 * a10
    const = {jz: c for (i, jz), c in P1.items() if i == 0}
    terms = [(i, jz, c) for (i, jz), c in P1.items() if i > 0 and (i, jz) != (1, 0)]
    # mixed exact/float data: from the first step a float coefficient enters,
    # the coefficients are floats, as in a product of truncated series
    float_from = min(
        (max(jz, 1) for (i, jz), c in P1.items() if isinstance(c, float) and (i, jz) != (0, 0)),
        default=order + 1,
    )
    # pw[i][m] = [z^m] v^i; v^i has valuation >= i
    pw = [None] + [[zero] * (order + 1) for _ in range(max_v)]
    v = pw[1]  # v_0 = 0
    for n in range(1, order + 1):
        for i in range(2, max_v + 1):
            prev = pw[i - 1]
            acc = zero
            for k in range(1, n - i + 2):
                if v[k] and prev[n - k]:
                    acc = acc + v[k] * prev[n - k]
            pw[i][n] = acc
        # start at +0.0 in floats: an exact-zero v_n is then -0.0 / a10 in every
        # case, and branch coefficients print their sign ("-0.0")
        acc = abs(zero)
        for i, jz, c in terms:
            if jz < n and pw[i][n - jz]:
                acc = acc + c * pw[i][n - jz]
        if n in const:
            acc = acc + const[n]
        if n >= float_from and not isinstance(acc, float):
            acc = float(acc)
        v[n] = -acc / a10
    # exactness: substitute the polynomial v into P1 without truncation
    exact = False
    if all(isinstance(c, (int, Fraction)) for c in v) and all(
        isinstance(c, (int, Fraction)) for c in P1.values()
    ):
        exact = _exact_substitution_vanishes(P1, v)
    return v[1:], exact


def _exact_substitution_vanishes(P1: dict, v: Sequence) -> bool:
    """Whether P1(v(z), z) is exactly zero, v taken as a polynomial; the
    powers v^i are built once each, v^i = v^(i-1) * v."""
    vp = [Fraction(x) for x in v]
    powers = [[Fraction(1)]]
    for _ in range(max(i for i, _ in P1)):
        powers.append(_poly_mul(powers[-1], vp))
    full = {}
    for (i, jz), c in P1.items():
        for d, pc in enumerate(powers[i]):
            if pc != 0:
                full[d + jz] = full.get(d + jz, Fraction(0)) + c * pc
    return all(val == 0 for val in full.values())


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _branches_of(P: dict, order: int, depth: int):
    """All real fractional-power branches x(e) -> 0 of P(x, e) = 0, e >= 0.

    Returns a list of (rho, coeffs, exact) where x = sum coeffs[i] t^i with
    e = t^rho and coeffs[0] = 0."""
    if depth <= 0:
        raise BranchNotFound(
            f"the Newton-polygon iteration stalled after {_MAX_POLYGON_DEPTH} levels"
        )
    out = []
    P = {k: v for k, v in P.items() if v != 0}
    if not P:
        return out
    minx = min(k for k, _ in P)
    if minx >= 1:
        out.append((1, tuple([0] * (order + 1)), True))  # x identically 0
        P = {(k - minx, m): v for (k, m), v in P.items()}
    if all(k == 0 for k, _ in P):
        return out
    for p, q, k1, on_edge in _lower_hull_edges(P):
        # characteristic equation: sum over the edge of coeff * c^(k - k1) = 0
        phi = {}
        for k, m in on_edge:
            phi[k - k1] = phi.get(k - k1, 0) + P[(k, m)]
        phi_coeffs = [phi.get(t, 0) for t in range(max(phi) + 1)]
        for c, mult in _real_roots_with_multiplicity(phi_coeffs):
            P1 = _substitute_edge(P, c, p, q)
            if mult == 1:
                # analytic continuation in z; covers the exact v = 0 case too
                v_coeffs, exact = _hensel_lift(P1, max(order - p, 0))
                coeffs = [0] * (order + 1)
                if p <= order:
                    coeffs[p] = c
                else:
                    exact = False  # leading term dropped by the truncation
                for i, vc in enumerate(v_coeffs, start=1):  # p + i <= order
                    coeffs[p + i] = vc
                out.append((q, tuple(coeffs), exact and isinstance(c, (int, Fraction))))
            else:
                for rho_sub, vco, exact in _branches_of(P1, order, depth - 1):
                    coeffs = [0] * (order + 1)
                    if p * rho_sub <= order:
                        coeffs[p * rho_sub] = c
                    else:
                        exact = False
                    for i in range(1, order + 1):
                        if p * rho_sub + i <= order:
                            coeffs[p * rho_sub + i] = coeffs[p * rho_sub + i] + vco[i]
                        elif vco[i] != 0:
                            exact = False
                    out.append(
                        (q * rho_sub, tuple(coeffs), exact and isinstance(c, (int, Fraction)))
                    )
    return out


# ---------------------------------------------------------------------------
# branch selection and validation
# ---------------------------------------------------------------------------


def _signed_support(P: PolynomialFamily, sign: int) -> dict:
    """Support of P(x, sign*e) as a polynomial in (x, e), e >= 0."""
    return {(k, m): c * (sign**m) for (k, m), c in P.coeffs.items()}


def _compare_branches(a, b, order):
    """-1, 0, +1 comparing branch values for small e > 0."""
    rho_a, ca, _ = a
    rho_b, cb, _ = b
    bound = min(Fraction(order, rho_a), Fraction(order, rho_b))
    exps = sorted(
        {Fraction(i, rho_a) for i in range(1, order + 1) if ca[i] != 0}
        | {Fraction(i, rho_b) for i in range(1, order + 1) if cb[i] != 0}
    )
    for ex in exps:
        if ex > bound:
            break
        va = ca[int(ex * rho_a)] if (ex * rho_a).denominator == 1 and ex * rho_a <= order else 0
        vb = cb[int(ex * rho_b)] if (ex * rho_b).denominator == 1 and ex * rho_b <= order else 0
        if va != vb:
            diff = float(va) - float(vb)
            return 1 if diff > 0 else -1
    return 0


def _companion_roots(rows: np.ndarray) -> list:
    """The values np.roots gives for every row (coefficients low first).

    Each row is trimmed as np.roots trims it, the companion matrices of the
    rows of one trimmed degree are stacked into one eigvals call, and the
    roots at the origin are appended as zeros, as np.roots does.  A row of
    a group with complex roots comes back complex even when its own roots
    are real (their imaginary parts are then zero)."""
    out = [np.array([])] * len(rows)
    groups: dict = {}
    for r, row in enumerate(rows):
        nz = np.flatnonzero(row)
        if len(nz):
            lo, hi = int(nz[0]), int(nz[-1])
            groups.setdefault(hi - lo + 1, []).append((r, lo, hi))
    for n, members in groups.items():
        if n == 1:
            w = np.empty((len(members), 0))
        else:
            p = np.array([rows[r, lo : hi + 1][::-1] for r, lo, hi in members])
            A = np.zeros((len(members), n - 1, n - 1))
            A[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
            A[:, 0, :] = -p[:, 1:] / p[:, :1]
            w = np.linalg.eigvals(A)
        for (r, lo, _), wr in zip(members, w):
            out[r] = np.hstack((wr, np.zeros(lo, wr.dtype)))
    return out


def _max1(a: np.ndarray) -> np.ndarray:
    """Python's max(1.0, a) elementwise: a NaN gives 1.0."""
    return np.where(a > 1.0, a, 1.0)


def track_biggest_real_root(P: PolynomialFamily, eps_grid) -> list:
    """Largest real root of P(., eps) at each eps of the grid, or None.

    Companion-matrix roots give candidates; each is polished by real Newton
    steps and accepted only if P changes sign across it.  The sign test
    discriminates genuine (odd-multiplicity) real roots from complex pairs
    that sit within floating resolution of the axis, which plain imaginary
    part thresholds cannot do for eps near 0.

    The whole grid is done at once: P's coefficients are converted to float
    once (PolynomialFamily.x_coeff_rows), the companion matrices of one
    degree share an eigvals call (_companion_roots), and the candidates of
    all rows are polished and tested as numpy arrays.  numpy's float64
    operations round as Python's floats do, and the distance to the nearest
    other root is hypot(x - re, 0.0 - im) as abs() of the complex difference
    computes it, so each result is the one a per-point np.roots tracker
    gives."""
    rows = P.x_coeff_rows(eps_grid)
    if not len(rows):
        return []
    roots = _companion_roots(rows)
    # the roots of row r are R_re + i R_im at columns 0 .. n_roots[r] - 1
    n_roots = np.array([len(rr) for rr in roots])
    width = int(n_roots.max())
    R_re, R_im = np.zeros((len(rows), width)), np.zeros((len(rows), width))
    for r, rr in enumerate(roots):
        R_re[r, : len(rr)], R_im[r, : len(rr)] = rr.real, rr.imag
    j = np.arange(width)
    cand_row, cand_idx = np.nonzero(j < n_roots[:, None])
    re, im = R_re[cand_row, cand_idx], R_im[cand_row, cand_idx]
    with np.errstate(all="ignore"):
        keep = ~(np.abs(im) > 1e-6 * _max1(np.hypot(re, im)))
        cand_row, cand_idx, x = cand_row[keep], cand_idx[keep], re[keep]
        C = rows[cand_row]
        D = C[:, 1:] * np.arange(1, C.shape[1])
        live = np.ones(len(x), dtype=bool)
        for _ in range(3):  # polish; harmless at non-simple candidates
            d = horner(D.T, x)
            live &= d != 0
            step = horner(C.T, x) / d
            live &= ~(np.abs(step) > 0.5 * _max1(np.abs(x)))
            x = np.where(live, x - step, x)
        # gap: distance to the nearest other root of the same row, 1.0 if
        # none; roots are finite (eigvals refuses other matrices), so only a
        # NaN candidate, which the sign test rejects, gives a NaN distance
        others = (j != cand_idx[:, None]) & (j < n_roots[cand_row][:, None])
        dist = np.hypot(x[:, None] - R_re[cand_row], 0.0 - R_im[cand_row])
        nearest = np.min(np.where(others, dist, np.inf), axis=1, initial=np.inf)
        gap = np.where(others.any(axis=1), nearest, 1.0)
        a, b = 1e-3 * gap, 1e-15 * _max1(np.abs(x))
        delta = np.where(b > a, b, a)
        accept = horner(C.T, x - delta) * horner(C.T, x + delta) < 0
    # a zero constant term is an exact root at the origin, of any multiplicity
    best = [0.0 if c0 == 0.0 else None for c0 in rows[:, 0]]
    for r, xr in zip(cand_row[accept].tolist(), x[accept].tolist()):
        if best[r] is None or xr > best[r]:
            best[r] = xr
    return best


def biggest_real_root_branch(P: PolynomialFamily, sign: int) -> PuiseuxBranch:
    """Fractional-power branch of the biggest real root of P on one side.

    The polygon iteration produces every real branch to DEFAULT_BRANCH_ORDER;
    the largest for small |eps| is selected (ties broken by comparing
    coefficient sequences), then checked against numerically tracked roots
    on the log grid _VALIDATION_GRID.  A polygon iteration that stalls or
    yields no real branch raises BranchNotFound, as does a float overflow
    anywhere in the extraction (a characteristic root beyond the float
    range, say)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    try:
        return _biggest_real_root_branch(P, sign)
    except OverflowError:
        raise BranchNotFound(f"float overflow in branch extraction, sign {sign:+d}") from None


def _biggest_real_root_branch(P: PolynomialFamily, sign: int) -> PuiseuxBranch:
    order = DEFAULT_BRANCH_ORDER
    tracked = dict(
        zip(_VALIDATION_GRID, track_biggest_real_root(P, [sign * e for e in _VALIDATION_GRID]))
    )
    raw = _branches_of(_signed_support(P, sign), order, _MAX_POLYGON_DEPTH)
    branches = []
    seen = {}
    for rho, coeffs, exact in raw:
        rho, coeffs = _canonical_ramification(rho, coeffs, order)
        key = (rho, tuple(str(c) for c in coeffs))
        if key in seen:
            # only two certified-exact copies are truly the same function
            if not (seen[key] and exact):
                raise BranchAmbiguous(
                    "two real branches coincide to the computed truncation order"
                )
        else:
            seen[key] = exact
            branches.append((rho, coeffs, exact))
    if all(r is None for r in tracked.values()):
        raise NoRealRoot(f"no real root of P on the sampled eps grid, sign {sign:+d}")
    if not branches:
        raise BranchNotFound(f"the Newton-polygon iteration gives no real branch, sign {sign:+d}")
    best = branches[0]
    for b in branches[1:]:
        cmp = _compare_branches(b, best, order)
        if cmp > 0:
            best = b
        elif cmp == 0 and (b[0] != best[0] or b[1] != best[1]):
            raise BranchAmbiguous("two distinct real branches coincide to the computed order")
    rho, coeffs, exact = best
    branch = PuiseuxBranch(rho=rho, sigma=TruncatedSeries(tuple(coeffs)), sign=sign, exact=exact)
    _validate_branch(P, branch, tracked)
    return branch


def _canonical_ramification(rho: int, coeffs, order: int):
    """Reduce rho by the gcd of the nonzero coefficient indices."""
    idxs = [i for i, c in enumerate(coeffs) if c != 0]
    if not idxs:
        return 1, tuple([0] * (order + 1))
    g = math.gcd(rho, *idxs)
    if g <= 1:
        return rho, coeffs
    reduced = [0] * (order + 1)
    for i in idxs:
        if i // g <= order:
            reduced[i // g] = coeffs[i]
    return rho // g, tuple(reduced)


def _validate_branch(P: PolynomialFamily, branch: PuiseuxBranch, tracked: dict):
    """Numeric guard for the selected branch.

    The residual must vanish to tolerance at every grid point.  A confirmed
    (sign-change) real root above the prediction means the selection is
    wrong.  A prediction above every confirmed root is allowed only if it is
    itself root-consistent, since even-multiplicity real roots produce no
    sign change and cannot be confirmed numerically."""
    t = np.array([e ** (1.0 / branch.rho) for e in tracked])
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        preds = branch.sigma(t).tolist()
    epses = [branch.sign * e for e in tracked]
    rows = P.x_coeff_rows(epses).tolist()
    for root, eps, pred, row in zip(tracked.values(), epses, preds, rows):
        scale = max(1.0, sum(abs(c) for c in row))
        resid = abs(P.eval(pred, eps))
        if resid > _RESIDUAL_RTOL * scale:
            raise BranchAmbiguous(
                f"branch residual {resid:g} exceeds tolerance at eps={eps:g}"
            )
        if root is None:
            continue
        tol = _RESIDUAL_RTOL * max(1.0, abs(root))
        if root > pred + tol:
            raise BranchAmbiguous(
                f"confirmed real root {root:.15g} exceeds the branch value "
                f"{pred:.15g} at eps={eps:g}"
            )


# ---------------------------------------------------------------------------
# the shifted quotient Q and the hypothesis checks
# ---------------------------------------------------------------------------


def _live_terms(items) -> list:
    """The (t, c) pairs of a coefficient sequence that are not exact zeros.
    A float is kept even when it is 0.0: its products are floats."""
    return [(t, c) for t, c in items if isinstance(c, float) or c != 0]


def _times_truncated(a: list, b: list, order: int) -> list:
    """The product of two (t, c) lists of _live_terms, truncated at order.

    Coefficient n sums a_i * b_(n-i) over increasing i, as the dense product
    of truncated series does, but skips a product when it is an exact zero
    (neither factor a float, one of them 0).  A product with a float factor
    is kept even when the other factor is an exact zero: it makes the sum a
    float from that point on.  So the kept terms, their order and their
    types are those of the dense product."""
    da, db = dict(a), dict(b)
    b_floats = [j for j, c in b if isinstance(c, float)]
    out: dict = {}
    for i in range(order + 1):
        x = da.get(i, 0)
        if isinstance(x, float):
            js = range(order - i + 1)
        elif x != 0:
            js = db
        else:
            js = b_floats
        for j in js:
            n = i + j
            if n <= order:
                term = x * db.get(j, 0)
                out[n] = out[n] + term if n in out else term
    return _live_terms(sorted(out.items()))


def compute_Q(P: PolynomialFamily, branch: PuiseuxBranch) -> BivariatePoly:
    """Q(s, e) = P(s + sigma(e); sign * e^rho) / s.

    The substitution is carried out termwise with the powers sigma^0 ..
    sigma^(mu+1), truncated at order_e and kept as (t, coefficient) lists
    without their exact zeros (:func:`_times_truncated`): an exact branch
    has few nonzero coefficients, so the powers cost a few products each.
    The terms kept, their order and their types are those of the dense
    product of truncated series, so Q is the same, term for term and in
    the same term order, for exact, float and mixed data.  The constant
    term in s must vanish (the branch is a root), which is checked before
    dividing.  For exact branches the result is exact; float terms below
    _Q_CHOP times the largest one are dropped as noise."""
    max_m = max((m for _, m in P.coeffs), default=0)
    if branch.exact:
        order_e = max(
            branch.sigma.degree() * (P.mu + 1) + branch.rho * max_m,
            branch.sigma.order,
        )
    else:
        order_e = branch.sigma.order
    sigma = branch.sigma.padded(order_e)
    exact_field = all(isinstance(c, (int, Fraction)) for c in sigma.coeffs)
    one = 1 if exact_field else 1.0
    # powers of sigma, exact polynomials when branch.exact
    sigma_terms = _live_terms(enumerate(sigma.coeffs))
    pow_cache = [[(0, one)], sigma_terms]
    for _ in range(P.mu):
        pow_cache.append(_times_truncated(pow_cache[-1], sigma_terms, order_e))

    acc: dict = {}
    mag: dict = {}  # t -> sum of |float terms| summed into the s^0 e^t coefficient
    for (k, m), c in P.coeffs.items():
        c_signed = c * (branch.sign**m)
        bc = 1
        for j in range(k + 1):  # (s + sigma)^k
            if j > 0:
                bc = bc * (k - j + 1) // j
            for t, sc in pow_cache[k - j]:
                if sc == 0:
                    continue
                key = (j, t + branch.rho * m)
                term = c_signed * bc * sc
                acc[key] = acc.get(key, 0) + term
                if j == 0 and isinstance(term, float):
                    mag[key[1]] = mag.get(key[1], 0.0) + abs(term)
    if not branch.exact:
        # e-coefficients beyond the branch truncation are incomplete
        acc = {(j, t): v for (j, t), v in acc.items() if t <= order_e}
    # drop float noise
    scale = max((abs(float(v)) for v in acc.values()), default=1.0)
    cleaned = {}
    for key, v in acc.items():
        if isinstance(v, float):
            if abs(v) > _Q_CHOP * scale:
                cleaned[key] = v
        elif v != 0:
            cleaned[key] = v
    # the s^0 column must vanish: sigma is a root branch.  An exact
    # coefficient must be 0; a float one is a sum of terms that cancel, so
    # its rounding is measured against their size
    for (j, t), v in cleaned.items():
        if j == 0 and (not isinstance(v, float) or abs(v) > 1e-9 * max(scale, mag.get(t, 0.0))):
            raise NotDivisible(
                f"constant term in s does not vanish (coefficient of e^{t} is {v!r})"
            )
    shifted = {(j - 1, t): v for (j, t), v in cleaned.items() if j >= 1}
    Q = BivariatePoly(shifted)
    # sanity: the e = 0 slice must be exactly s^mu
    slice0 = {i: c for (i, j), c in Q.terms.items() if j == 0}
    if slice0 != {P.mu: 1}:
        raise NotDivisible(f"Q(s, 0) != s^mu; got slice {slice0!r}")
    return Q


def newton_diagram(Q: BivariatePoly) -> NewtonData:
    """Fill mu, nu, chi, the diagram, and the single-compact-side verdict."""
    support = Q.support()
    s_axis = [(i, c) for (i, j), c in Q.terms.items() if j == 0]
    if len(s_axis) != 1:
        raise ValueError("Q(s,0) must be a single monomial s^mu")
    mu = s_axis[0][0]
    e_axis = sorted((j, c) for (i, j), c in Q.terms.items() if i == 0)
    if not e_axis:
        raise DegenerateQ("Q(0, e) vanishes identically")
    nu, chi = e_axis[0]
    violations = [(i, j) for (i, j) in support if i * nu + j * mu < mu * nu]
    nd = NewtonData(Q=Q, mu=mu, nu=nu, chi=chi, diagram=_lower_hull(support))
    if violations:
        nd.h1 = Verdict(
            holds=False,
            witness=violations[0],
            detail=f"support point {violations[0]} lies below the segment "
            f"(mu,0)-(0,nu) = ({mu},0)-(0,{nu})",
        )
    else:
        nd.h1 = Verdict(
            holds=True,
            witness=None,
            detail=f"all support points satisfy i/{mu} + j/{nu} >= 1",
        )
    return nd


@functools.cache
def _h2_power_table(trig, i: int) -> np.ndarray:
    """trig(k * _H2_STEP) ** i at the h2 grid points k = 0.._H2_GRID_POINTS,
    taken with Python's float power, as a pointwise evaluation would."""
    table = np.array([trig(k * _H2_STEP) ** i for k in range(_H2_GRID_POINTS + 1)])
    table.flags.writeable = False  # shared by every later call
    return table


def check_h2(nd: NewtonData) -> Verdict:
    """Positivity of the principal quasi-homogeneous part
    g(theta) = sum over the compact side of q_ij sin^i cos^j on [0, pi/2].

    Certified on a uniform grid of N = _H2_GRID_POINTS intervals with the
    Lipschitz bound |g'| <= sum_side |q_ij| (i+j): positive iff the grid
    minimum clears (pi/2 / N) * bound.  The side is collected once, as
    (float(q_ij), i, j) in the order of Q.terms, and g is summed in that
    order over all grid points at once, as c * sin^i * cos^j from tables
    of Python float powers (_h2_power_table, cached per exponent): each
    grid value is the one a pointwise loop computes.  The witness is the
    first grid minimizer.  A positive but uncertified minimum raises
    Inconclusive; analyze_family records that as a failed h2 whose detail
    starts with "inconclusive:"."""
    mu, nu = nd.mu, nd.nu
    side = [(float(c), i, j) for (i, j), c in nd.Q.terms.items() if i * nu + j * mu == mu * nu]
    bound = sum(abs(c) * (i + j) for c, i, j in side)
    g = np.zeros(_H2_GRID_POINTS + 1)
    for c, i, j in side:
        g += c * _h2_power_table(math.sin, i) * _h2_power_table(math.cos, j)
    # a NaN never compares below the running minimum of a strict "<" scan;
    # argmin, like that scan, returns the first minimizer
    g = np.where(np.isnan(g), math.inf, g)
    k = int(np.argmin(g))
    min_val, min_theta = float(g[k]), k * _H2_STEP
    margin = _H2_STEP * bound
    if min_val <= 0:
        nd.h2 = Verdict(
            holds=False,
            witness=min_theta,
            detail=f"principal part reaches {min_val:.3g} at theta={min_theta:.10g}",
        )
        return nd.h2
    if min_val > margin:
        nd.h2 = Verdict(
            holds=True,
            witness=min_theta,
            detail=f"grid minimum {min_val:.3g} at theta={min_theta:.6g} "
            f"clears Lipschitz margin {margin:.3g}",
        )
        return nd.h2
    raise Inconclusive(
        f"grid minimum {min_val:.3g} positive but below margin {margin:.3g}",
        theta=min_theta,
        min_value=min_val,
        margin=margin,
    )


def check_h0(nd: NewtonData) -> Verdict:
    """Positivity of Q(0, e) near e = 0: chi > 0 plus a check on
    _VALIDATION_GRID."""
    if not float(nd.chi) > 0:
        nd.h0 = Verdict(holds=False, witness=0.0, detail=f"chi = {nd.chi!r} <= 0")
        return nd.h0
    for e in _VALIDATION_GRID:
        val = float(nd.Q.eval(0.0, float(e)))
        if val <= 0:
            nd.h0 = Verdict(
                holds=False, witness=float(e), detail=f"Q(0, {e:g}) = {val:.3g} <= 0"
            )
            return nd.h0
    nd.h0 = Verdict(
        holds=True, witness=None, detail="chi > 0 and Q(0, e) > 0 on the grid"
    )
    return nd.h0


def analyze_family(P: PolynomialFamily, sign: int = +1) -> tuple[PuiseuxBranch, NewtonData]:
    """Branch extraction, Q, and all three hypothesis verdicts in one call.

    An h2 check that cannot certify a positive grid minimum (Inconclusive)
    is recorded as a failed h2 whose witness is the grid minimizer."""
    branch = biggest_real_root_branch(P, sign)
    nd = newton_diagram(compute_Q(P, branch))
    check_h0(nd)
    try:
        check_h2(nd)
    except Inconclusive as exc:
        nd.h2 = Verdict(holds=False, witness=exc.theta, detail=f"inconclusive: {exc}")
    return branch, nd
