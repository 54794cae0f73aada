"""Polynomial families P(x; eps), the fractional-power branch of their
biggest real root, the shifted quotient Q, and the hypothesis verdicts.

Branch extraction runs the classical Newton-polygon iteration on the
support of P viewed as a polynomial in (x, e), e >= 0.  For each
admissible edge the characteristic polynomial is solved over the reals in
one pass.  Exact data become a primitive integer polynomial, factored once
(Yun's squarefree algorithm, in integers); each factor gives its rational
roots exactly and the rest in floats.  A root is tested by evaluating p/q
as an integer sum and divided out by synthetic division, and what is left
is snapped again until nothing snaps, so two rational roots closer than
the float spacing are both kept; a linear rest gives its root, a quadratic
its roots from an exact square discriminant.  Float data cluster their
companion roots before the realness test, so a multiple root that rounding
splits stays one real root, tested by the spread of its cluster and the
derivatives at its mean, which Newton steps polish for a triple root or
higher (:func:`_float_root_clusters`).  Simple
roots are lifted by undetermined coefficients (one coefficient of
P1(v(z), z) per step, from the coefficients of the powers of v kept
incrementally; an exact P1 without v^0 terms has the solution v = 0),
multiple roots recurse on the substituted polynomial once its Taylor terms
below the root's multiplicity, rounding noise for a float root, are set to
zero; one loop assembles the sub-branches of both.  Exact data are
substituted in integers over a common denominator.
Rational characteristic roots are kept exact, so the common families
produce branches with exact rational coefficients, and branches are
compared exactly (a Fraction against a float too).  An iteration that
stalls, yields no real branch or leaves the float range raises
BranchNotFound.

A numeric tracker (companion-matrix roots on a log grid) validates every
accepted branch.  It takes the whole grid at once: P's coefficients are
converted to float once, the companion matrices of the rows with the same
nonzero span share one eigvals call, and the candidates are polished and
sign-tested as numpy arrays (:func:`track_biggest_real_root`),
bit-identical to point-by-point evaluation, since numpy's float64 products
and sums round as Python's floats do.  The validation evaluates P at the
branch values on the whole grid the same way, with Python's float powers.

The quotient Q(s, e) := P(s + sigma(e); +-e^rho) / s is the object the
later hypothesis checks and the coefficient recursion consume.  Exact data
build it from the powers of sigma kept as sparse (t, coefficient) lists of
their nonzero terms and sum it in integers over a common denominator;
float and mixed data take the dense products of truncated series
(:func:`compute_Q`).

* h0: Q(0, e) > 0 near e = 0 (the tracked root stays a simple node),
  checked on the grid with Q's coefficients converted to float once,
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
    _json_key,
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
                    powers[m] = _float_powers(eps, m)
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
        """The family of a spec's "family" object; a missing key, a value
        that is not a number, or an exponent that is not a nonnegative
        integer raises ValueError naming its key, and a family of the wrong
        shape (degree in x other than mu + 1, say) one naming `family`."""
        terms = {}
        for i, t in enumerate(_json_key(data, "terms", "family.terms")):
            field = f"family.terms[{i}]"
            c = _json_key(t, "c", f"{field}.c")
            try:
                c = _scalar_from_str(str(c))
            except ValueError as exc:
                raise ValueError(f"{field}.c: {exc}") from None
            exponents = []
            for key in ("x", "eps"):
                name = f"{field}.{key}"
                n = _json_int(_json_key(t, key, name), name)
                if n < 0:
                    raise ValueError(f"{name} = {n} is negative")
                exponents.append(n)
            terms[tuple(exponents)] = c
        mu = _json_int(_json_key(data, "mu", "family.mu"), "family.mu")
        try:
            return cls(mu=mu, coeffs=terms)
        except ValueError as exc:
            raise ValueError(f"family: {exc}") from None


def _float_powers(values: list, n) -> np.ndarray:
    """[v ** n for v in values] with Python's float power, as an array.  A
    power 0 is 1.0 and a power 1 is v itself, exactly, so those are not
    taken; another power raises OverflowError as ** does."""
    if n == 0:
        return np.ones(len(values))
    if n == 1:
        return np.array(values, dtype=float)
    return np.array([v**n for v in values])


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
# exact polynomial helpers (univariate integer coefficients, low first)
# ---------------------------------------------------------------------------


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deriv(p):
    return [p[k] * k for k in range(1, len(p))] or [0]


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return _poly_trim([x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def _primitive(p):
    """The integer polynomial with coprime coefficients that is a positive
    rational multiple of p (int or Fraction coefficients)."""
    den = math.lcm(*(c.denominator for c in p))
    ip = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*ip) or 1
    return [c // g for c in ip]


def _exact_quotient(a, b):
    """a / b for integer polynomials, b primitive and dividing a over the
    rationals: by Gauss's lemma the quotient has integer coefficients."""
    n = len(b) - 1
    if len(a) <= n:
        return [0]  # a = 0
    a = list(a)
    q = [0] * (len(a) - n)
    for k in range(len(a) - 1 - n, -1, -1):
        c = q[k] = a[k + n] // b[-1]
        if c:
            for i in range(n):
                a[k + i] -= c * b[i]
    return q


def _poly_gcd(a, b):
    """The gcd of two integer polynomials, primitive: Euclid on
    pseudo-remainders, each made primitive."""
    a, b = _primitive(a), _primitive(b)
    while b != [0]:
        r, n = list(a), len(b)
        while len(r) >= n and r != [0]:
            c, off = r[-1], len(r) - n
            r = [b[-1] * x for x in r]
            for i in range(n):
                r[off + i] -= c * b[i]
            r = _poly_trim(r[:-1] or [0])
        a, b = b, _primitive(r)
    return a


def _yun_squarefree(p):
    """Yun's algorithm on a primitive integer polynomial p of degree >= 1:
    p = const * prod b_i^i as [(i, b_i)], each b_i squarefree and
    primitive, or [(1, p)] if p is squarefree."""
    dp = _poly_deriv(p)
    g = _poly_gcd(p, dp)
    if len(g) == 1:
        return [(1, p)]
    out = []
    c = _exact_quotient(p, g)
    d = _poly_sub(_exact_quotient(dp, g), _poly_deriv(c))
    i = 1
    while len(c) > 1:
        b = _poly_gcd(c, d)
        if len(b) > 1:
            out.append((i, b))
        c = _exact_quotient(c, b)
        d = _poly_sub(_exact_quotient(d, b), _poly_deriv(c))
        i += 1
    return out


def _round_div(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, halves to even, as round() of
    a Fraction."""
    if d < 0:
        n, d = -n, -d
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    return q


def _scaled_value(g, num: int, den: int) -> int:
    """den^n g(num/den) for an integer polynomial g of degree n: an integer,
    zero exactly when num/den is a root."""
    acc, scale = g[-1], 1
    for c in reversed(g[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def _snapped_root(g, z):
    """A rational root of the squarefree primitive integer polynomial g
    near the float z, or None.  A root p/q has q | L = |lead(g)|, so
    round(z L) / L is tried first (L < 2^52).  Otherwise the fraction
    nearest to the root near z among those whose denominator is at most L
    is tried: Newton's method on the grid of multiples of 2^-b,
    b = 2 bitlen(L) + 4, in integers (x = X 2^-b, and the step in grid
    units is the ratio of the scaled values of g and g'), takes z to within
    1/(16 L^2) of a root p/q, and any other fraction with denominator <= L
    is at least 1/L^2 from p/q.  Near two roots closer than the float
    spacing, where z is only good to about the square root of it, Newton
    halves its distance per step until it is below their separation, which
    is at least 1/L^2; so it gets b + 64 steps."""
    L = abs(g[-1])
    if L.bit_length() <= 52 and math.isfinite(z * L):
        n = round(z * L)
        if _scaled_value(g, n, L) == 0:
            return Fraction(n, L)
    b = 2 * L.bit_length() + 4
    dg = _poly_deriv(g)
    n, d = float(z).as_integer_ratio()
    X = _round_div(n << b, d)
    for _ in range(b + 64):
        D = _scaled_value(dg, X, 1 << b)
        if D == 0:
            break
        G = _scaled_value(g, X, 1 << b)
        X = _round_div(X * D - G, D)
        if abs(G) < abs(D):  # the step was below one grid unit
            break
    r = Fraction(X, 1 << b).limit_denominator(L)
    return r if _scaled_value(g, r.numerator, r.denominator) == 0 else None


def _real_roots_with_multiplicity(phi):
    """Real nonzero roots of a univariate polynomial (low-first
    coefficients), with multiplicity.

    Exact data are made a primitive integer polynomial and factored once,
    phi = const * x^k prod b_i^i (Yun's algorithm, in integers).  The
    rational roots of each b_i (:func:`_rational_roots`) are kept with
    multiplicity i, and the real float roots of what is left of b_i follow:
    those np.roots gives for its float copy, scaled as phi itself if phi is
    squarefree and monic if not.  Rational roots come first, increasing,
    then the float roots, factor by factor.  Float data: the companion
    roots are clustered (:func:`_float_root_clusters`) and a cluster whose
    mean is real (1e-8) is one root of multiplicity its size."""
    p = _poly_trim(list(phi))
    while len(p) > 1 and p[0] == 0:
        p = p[1:]  # roots at 0 are not wanted here (c != 0 in the polygon)
    if len(p) <= 1:
        return []
    if all(isinstance(c, (int, Fraction)) for c in p):
        g = _primitive(p)
        factors = _yun_squarefree(g)
        if len(factors) == 1 and factors[0][0] == 1:
            units = [Fraction(p[-1]) / g[-1]]  # b_1 * units[0] = phi
        else:
            units = [Fraction(1, b[-1]) for _, b in factors]  # monic
        rational, floats = [], []
        for (mult, b), unit in zip(factors, units):
            found, zs = _rational_roots(b, unit)
            rational += [(c, mult) for c in found]
            floats += [(float(r.real), mult) for r in zs if abs(r.imag) <= 1e-10 * max(1.0, abs(r))]
        roots = sorted(rational) + floats
    else:
        roots = [
            (float(z.real), m)
            for z, m in _float_root_clusters([float(c) for c in p])
            if abs(z.imag) <= 1e-8 * max(1.0, abs(z))
        ]
    return [(c, m) for c, m in roots if c != 0]


# A cluster of m companion roots is one m-fold root when p's m-th Taylor
# term at the cluster's spread is within _SPLIT_ULPS units of the rounding
# of p, and its first m - 1 Taylor terms at the mean are within
# _CLUSTER_ULPS units of the rounding of the sums that form them.
_SPLIT_ULPS = 1024
_CLUSTER_ULPS = 256


def _float_root_clusters(a) -> list:
    """The companion roots of sum a_k x^k (floats, low first, a_0 != 0)
    grouped into roots with multiplicity, as (mean, m) in np.roots' order.

    With u the unit roundoff and T_i = p^(i)(z)/i!, rounding the
    coefficients moves p(z) by up to u S_0, with S_i the T_i of the |a_k|
    at |z| (S_0 = sum |a_k| |z|^k), and splits an m-fold root at z into m
    roots a spread r apart with |T_m| r^m about u S_0.  Roots that close
    can also be simple, so the spread alone does not decide; but at an
    m-fold root T_1..T_(m-1) vanish, while a cluster of simple roots leaves
    them above the rounding of their sums, u S_i.  So from each root not
    yet taken, with its nearest untaken roots after it, the largest cluster
    is taken whose spread r about its mean z has |T_m| r^m at most
    _SPLIT_ULPS u S_0 and whose |T_i| are at most _CLUSTER_ULPS u S_i for
    0 < i < m, all of them finite.  The mean of an m-fold root's split is
    accurate to rounding where each root of it is not, but a root close
    by bends the split and moves the mean: float
    (c - 1/625)(c - 1/600)^3 moves it 2e-14, and T_2 there reads 272 u S_2.
    So for m >= 3 the mean is polished first by up to two Newton steps on
    p^(m-1), whose root is simple at an m-fold root, each step no longer
    than the spread; at m = 2 that is a root of p', which any pair of
    simple roots has between them, so the mean is kept.  (Over 10,000
    multiple roots of float products of rational factors, |T_m| r^m was
    at most 148 u S_0.)  Both bounds scale as p does, not as its roots: of
    a quadratic, whose T_1 vanishes at the mean of any pair, the simple
    roots x and x(1 + g) are joined only for g below about
    4 sqrt(_SPLIT_ULPS u) = 1.9e-6, whatever the size of x.
    (c^2 - 2)^2 (c - 1)^3 (c^2 + 1) in floats splits its triple root 1.2e-5
    wide, and at the mean its |T_1|, |T_2| are at most 0.12 u S_i; the
    simple roots 1, 1 +- 1e-5 leave |T_1| at 3.8e4 u S_1."""
    u = np.finfo(float).eps
    p = TruncatedSeries(tuple(a))
    p_abs = TruncatedSeries(tuple(abs(c) for c in a))
    rs = np.roots(a[::-1])
    used = [False] * len(rs)
    clusters = []
    for i, r in enumerate(rs):
        if used[i]:
            continue
        near = sorted((k for k in range(i + 1, len(rs)) if not used[k]), key=lambda k: abs(rs[k] - r))
        for m in range(len(near) + 1, 0, -1):
            cluster = sorted([i, *near[: m - 1]])
            z = rs[cluster].mean()
            if m == 1:
                break
            spread = max(abs(rs[cluster] - z))
            for _ in range(2 if m >= 3 else 0):
                # Newton on p^(m-1), whose root is simple at an m-fold root
                t = p.shift(z).coeffs
                if t[m] == 0 or not np.isfinite(t[m]):
                    break
                step = -t[m - 1] / (m * t[m])
                if not abs(step) <= spread:
                    break
                z += step
            t, s = p.shift(z).coeffs, p_abs.shift(abs(z)).coeffs
            if not np.isfinite([*t[: m + 1], *s[:m]]).all():
                continue  # inf <= inf would join anything
            if spread**m * abs(t[m]) <= _SPLIT_ULPS * u * s[0] and all(
                abs(t[j]) <= _CLUSTER_ULPS * u * s[j] for j in range(1, m)
            ):
                break
        for k in cluster:
            used[k] = True
        clusters.append((z, m))
    return clusters


def _rational_roots(b, unit):
    """The rational roots of a squarefree primitive integer polynomial b,
    increasing within each pass, and np.roots of the float copy of
    unit * (what is left of b), or [] if a constant is left.

    Each root found is divided out of b by synthetic division.  A linear b
    gives its root, and a quadratic its roots if its discriminant is a
    square, both exactly.  Of a higher degree, the near-real roots of b's
    float copy are snapped (:func:`_snapped_root`), and after a pass that
    keeps a root the rest is snapped again, from np.roots of its float
    copy, which gives the float roots once nothing more snaps.  So two
    rational roots closer than the float spacing, which snap to the same
    fraction in one pass, are both kept."""
    found, dens = [], 1  # unit * dens * b is the rest in its float scale
    # b's float copy, taken for every degree: coefficients past the float
    # range raise OverflowError here, before any exact work on them
    src, zs = [float(c) for c in reversed(b)], None
    while len(b) > 1:
        if len(b) == 2:
            cands = [Fraction(-b[0], b[1])]
        elif len(b) == 3:
            disc = b[1] * b[1] - 4 * b[0] * b[2]
            s = math.isqrt(disc) if disc >= 0 else -1
            roots = {Fraction(-b[1] - s, 2 * b[2]), Fraction(-b[1] + s, 2 * b[2])}
            cands = sorted(roots) if s * s == disc else []
        else:
            if found:
                src = [float(c * dens * unit) for c in reversed(b)]
            zs = np.roots(src)
            near = {
                _snapped_root(b, z.real)
                for z in zs
                if math.isfinite(z.real) and abs(z.imag) <= 1e-4 * max(1.0, abs(z))
            }
            cands = sorted(near - {None})
        if not cands:
            break
        for c in cands:
            b = _exact_quotient(b, [-c.numerator, c.denominator])
            dens *= c.denominator
        found += cands
    if len(b) == 1:
        return found, []
    rest = [float(c * dens * unit) for c in reversed(b)]
    return found, zs if zs is not None and rest == src else np.roots(rest)


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
    """P1(v, z) = P((c + v) z^p, z^q) / z^w, w the minimal weight.

    Exact data (a Fraction c = r/s, rational coefficients a/d) are summed
    in integers over the common denominator lcm(d) s^K, K the degree in x,
    and each nonzero sum becomes one Fraction, the value the Fraction
    arithmetic gives; otherwise the powers c^n are taken once each, with
    the ** of c's type, and the terms are summed as they come."""
    w = min(p * k + q * m for k, m in _support(P))
    K = max(k for k, _ in P)
    den = None
    if isinstance(c, Fraction) and all(isinstance(a, (int, Fraction)) for a in P.values()):
        D = math.lcm(*(a.denominator for a in P.values()))
        den = D * c.denominator**K
        coeffs = {km: a.numerator * (D // a.denominator) for km, a in P.items()}
        cpow = [c.numerator**n * c.denominator ** (K - n) for n in range(K + 1)]
    else:
        coeffs, cpow = P, [c**n for n in range(K + 1)]
    out = {}
    for (k, m), coeff in coeffs.items():
        zdeg = p * k + q * m - w
        bc = 1
        for j in range(k + 1):  # (c+v)^k = sum C(k,j) c^(k-j) v^j
            if j > 0:
                bc = bc * (k - j + 1) // j
            key = (j, zdeg)
            out[key] = out.get(key, 0) + coeff * bc * cpow[k - j]
    if den is None:
        return {key: v for key, v in out.items() if v != 0}
    return {key: Fraction(v, den) for key, v in out.items() if v}


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
    zero = 0 * a10
    exact_data = all(isinstance(c, (int, Fraction)) for c in P1.values())
    if exact_data and not any(i == 0 and jz > 0 for i, jz in P1):
        # v = 0 solves P1(v, z) = 0: every step below sums no term, so v_n is
        # -0 / a10 (a float for an int a10); P1(0, z) is the z^0 term alone
        v = [-zero / a10] * order
        return v, (0, 0) not in P1 and all(isinstance(c, (int, Fraction)) for c in v)
    # mixed exact/float data: from the first step a float coefficient enters,
    # the coefficients are floats, as in a product of truncated series
    float_from = min(
        (max(jz, 1) for (i, jz), c in P1.items() if isinstance(c, float) and (i, jz) != (0, 0)),
        default=order + 1,
    )
    max_v = max(i for i, _ in P1)
    const = {jz: c for (i, jz), c in P1.items() if i == 0}
    terms = [(i, jz, c) for (i, jz), c in P1.items() if i > 0 and (i, jz) != (1, 0)]
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
    exact = exact_data and all(isinstance(c, (int, Fraction)) for c in v)
    return v[1:], exact and _exact_substitution_vanishes(P1, v)


def _exact_substitution_vanishes(P1: dict, v: Sequence) -> bool:
    """Whether P1(v(z), z) is exactly zero, v taken as a polynomial; the
    powers v^i are built once each, v^i = v^(i-1) * v, untruncated."""
    max_v = max(i for i, _ in P1)
    order = max_v * len(v)
    v_terms = [(t, c) for t, c in enumerate(v) if c]
    powers = [[(0, 1)]]
    for _ in range(max_v):
        powers.append(_times_truncated(powers[-1], v_terms, order))
    full = {}
    for (i, jz), c in P1.items():
        for d, pc in powers[i]:
            full[d + jz] = full.get(d + jz, 0) + c * pc
    return all(val == 0 for val in full.values())


def _branches_of(P: dict, order: int, depth: int):
    """All real fractional-power branches x(e) -> 0 of P(x, e) = 0, e >= 0.

    Returns a list of (rho, coeffs, exact) where x = sum coeffs[i] t^i with
    e = t^rho and coeffs[0] = 0.  A root c of an edge's characteristic
    polynomial gives x = z^p (c + v), e = z^q, for each sub-branch v of
    P1 = _substitute_edge(P, c, p, q): its one lifted series if c is simple,
    every branch of P1 if c is multiple."""
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
                v, exact = _hensel_lift(P1, max(order - p, 0))
                subs = [(1, (0, *v) + (0,) * p, exact)]
            else:
                # [v^j z^0] P1 for j < mult are the Taylor coefficients of
                # c^k1 phi at its root c: zero, though rounding noise for a
                # float c, and noise there would reshape the next polygon
                P1 = {(j, jz): a for (j, jz), a in P1.items() if jz > 0 or j >= mult}
                subs = _branches_of(P1, order, depth - 1)
            for rho_sub, vco, exact in subs:
                lead = p * rho_sub
                coeffs = [0] * (order + 1)
                if lead <= order:
                    coeffs[lead] = c
                else:
                    exact = False  # leading term dropped by the truncation
                for i in range(1, order + 1):
                    if lead + i <= order:
                        coeffs[lead + i] = vco[i]
                    elif vco[i] != 0:
                        exact = False
                out.append((q * rho_sub, tuple(coeffs), exact and isinstance(c, (int, Fraction))))
    return out


# ---------------------------------------------------------------------------
# branch selection and validation
# ---------------------------------------------------------------------------


def _signed_support(P: PolynomialFamily, sign: int) -> dict:
    """Support of P(x, sign*e) as a polynomial in (x, e), e >= 0."""
    return {(k, m): c * (sign**m) for (k, m), c in P.coeffs.items()}


def _compare_branches(a, b, order):
    """-1, 0, +1 comparing branch values for small e > 0: the coefficients
    at the smallest exponent where they differ decide, compared exactly
    (Python compares a Fraction with a float exactly, so two rational
    coefficients that round to the same float are still told apart).  The
    exponent i / rho of a branch is kept as the integer i * (rho_a rho_b) / rho."""
    rho_a, ca, _ = a
    rho_b, cb, _ = b
    bound = order * min(rho_a, rho_b)  # min(order / rho_a, order / rho_b)
    exps = sorted(
        {i * rho_b for i in range(1, order + 1) if ca[i]}
        | {i * rho_a for i in range(1, order + 1) if cb[i]}
    )
    for ex in exps:
        if ex > bound:
            break
        va = ca[ex // rho_b] if ex % rho_b == 0 else 0
        vb = cb[ex // rho_a] if ex % rho_a == 0 else 0
        if va != vb:
            return 1 if va > vb else -1
    return 0


def _companion_roots(rows: np.ndarray):
    """The values np.roots gives for every row (coefficients low first), as
    (re, im, count, eig): the roots of row r are re[r, j] + i im[r, j] for
    j < count[r], the others zero; the first eig[r] of them are eigenvalues
    and the rest the roots at the origin.

    Each row is trimmed as np.roots trims it, to its nonzero coefficients
    lo..hi; the companion matrices of the rows of one (lo, hi) are stacked
    into one eigvals call, and the lo roots at the origin follow as zeros,
    as np.roots appends them.  LAPACK solves each matrix of a stack alone,
    so every row's roots are those np.roots gives it."""
    nz = rows != 0
    width = rows.shape[1]
    lo = nz.argmax(axis=1)
    hi = width - 1 - nz[:, ::-1].argmax(axis=1)
    live = nz.any(axis=1)
    count = np.where(live, hi, 0)  # hi - lo eigenvalues, then lo zeros
    eig = np.where(live, hi - lo, 0)
    re, im = np.zeros((len(rows), width)), np.zeros((len(rows), width))
    for l, h in set(zip(lo[live].tolist(), hi[live].tolist())):
        if h == l:
            continue  # one nonzero coefficient: only the roots at the origin
        members = (live & (lo == l) & (hi == h)).nonzero()[0]
        A = np.zeros((len(members), h - l, h - l))
        if len(members) == len(rows):
            members = slice(None)  # one group: plain slices, no gathers
        p = rows[members, l : h + 1][:, ::-1]
        A[:, np.arange(1, h - l), np.arange(h - l - 1)] = 1.0
        A[:, 0, :] = -p[:, 1:] / p[:, :1]
        w = np.linalg.eigvals(A)
        re[members, : h - l], im[members, : h - l] = w.real, w.imag
    return re, im, count, eig


def _max1(a: np.ndarray) -> np.ndarray:
    """Python's max(1.0, a) elementwise for a >= 0: a NaN gives 1.0."""
    return np.fmax(a, 1.0)


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
    # the roots of row r are R_re + i R_im at columns 0 .. n_roots[r] - 1,
    # those from n_eig[r] on at the origin
    R_re, R_im, n_roots, n_eig = _companion_roots(rows)
    j = np.arange(R_re.shape[1])
    with np.errstate(all="ignore"):
        # candidates: the eigenvalues whose imaginary part is small, row by
        # row; a root at the origin polishes to +0.0, which never beats the
        # 0.0 its row starts from below, so it is only another root for gap
        near_real = ~(np.abs(R_im) > 1e-6 * _max1(np.hypot(R_re, R_im)))
        cand_row, cand_idx = ((j < n_eig[:, None]) & near_real).nonzero()
        x = R_re[cand_row, cand_idx]
        C = rows[cand_row]
        D = C[:, 1:] * np.arange(1, C.shape[1])
        live = np.ones(len(x), dtype=bool)
        for _ in range(3):  # polish; harmless at non-simple candidates
            d = horner(D.T, x)
            live &= d != 0
            step = horner(C.T, x) / d
            live &= ~(np.abs(step) > 0.5 * _max1(np.abs(x)))
            np.subtract(x, step, out=x, where=live)
        # gap: distance to the nearest other root of the same row, 1.0 if
        # none; roots are finite (eigvals refuses other matrices), so only a
        # NaN candidate, which the sign test rejects, gives a NaN distance
        others = (j != cand_idx[:, None]) & (j < n_roots[cand_row][:, None])
        dist = np.hypot(x[:, None] - R_re[cand_row], R_im[cand_row])  # |0.0 - im|
        nearest = np.where(others, dist, np.inf).min(axis=1, initial=np.inf)
        gap = np.where(others.any(axis=1), nearest, 1.0)
        a, b = 1e-3 * gap, 1e-15 * _max1(np.abs(x))
        delta = np.where(b > a, b, a)
        accept = horner(C.T, x - delta) * horner(C.T, x + delta) < 0
    # a zero constant term is an exact root at the origin, of any multiplicity
    best = [0.0 if c0 == 0.0 else None for c0 in rows[:, 0].tolist()]
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
        order = DEFAULT_BRANCH_ORDER
        tracked = dict(
            zip(_VALIDATION_GRID, track_biggest_real_root(P, [sign * e for e in _VALIDATION_GRID]))
        )
        raw = _branches_of(_signed_support(P, sign), order, _MAX_POLYGON_DEPTH)
        branches = []
        seen = {}
        for rho, coeffs, exact in raw:
            rho, coeffs = _canonical_ramification(rho, coeffs, order)
            key = (rho, tuple(map(str, coeffs)))
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
            raise BranchNotFound(
                f"the Newton-polygon iteration gives no real branch, sign {sign:+d}"
            )
        best = branches[0]
        for b in branches[1:]:
            cmp = _compare_branches(b, best, order)
            if cmp > 0:
                best = b
            elif cmp == 0 and (b[0] != best[0] or b[1] != best[1]):
                raise BranchAmbiguous("two distinct real branches coincide to the computed order")
        rho, coeffs, exact = best
        branch = PuiseuxBranch(rho, TruncatedSeries(tuple(coeffs)), sign, exact)
        _validate_branch(P, branch, tracked)
        return branch
    except OverflowError:
        raise BranchNotFound(f"float overflow in branch extraction, sign {sign:+d}") from None


def _canonical_ramification(rho: int, coeffs, order: int):
    """Reduce rho by the gcd of the nonzero coefficient indices."""
    idxs = [i for i, c in enumerate(coeffs) if c]
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


def _residuals(P: PolynomialFamily, xs: list, epses: list) -> np.ndarray:
    """abs(P.eval(x, eps)) at each pair as one array: the terms of
    float_coeffs in their order, from Python's float powers of the points
    (which raise OverflowError where P.eval raises it) and numpy's products
    and sums, which round as Python's floats do."""
    xpow, epow = {}, {}
    acc = 0.0 * np.array(xs)
    for (k, m), c in P.float_coeffs.items():
        if k not in xpow:
            xpow[k] = _float_powers(xs, k)
        if m not in epow:
            epow[m] = _float_powers(epses, m)
        acc = acc + c * xpow[k] * epow[m]
    return np.abs(acc)


def _validate_branch(P: PolynomialFamily, branch: PuiseuxBranch, tracked: dict):
    """Numeric guard for the selected branch.

    A value or residual that is not finite at a grid point raises
    BranchNotFound (NaN passes every comparison below).  The residual must
    vanish to tolerance at every grid point.  A confirmed
    (sign-change) real root above the prediction means the selection is
    wrong.  A prediction above every confirmed root is allowed only if it is
    itself root-consistent, since even-multiplicity real roots produce no
    sign change and cannot be confirmed numerically."""
    t = _float_powers(list(tracked), 1.0 / branch.rho)
    # sigma(t) summed as TruncatedSeries.__call__ sums it; above the highest
    # nonzero coefficient of index >= 1, Horner's rule carries a zero, and at
    # finite t zero * t + c = c, so those coefficients are left out
    coeffs = branch.sigma.float_coeffs
    top = max((i for i, c in enumerate(coeffs) if i and c != 0), default=len(coeffs) - 1)
    epses = [branch.sign * e for e in tracked]
    roots = list(tracked.values())
    rows = np.abs(P.x_coeff_rows(epses))
    scales = rows[:, 0]
    for k in range(1, rows.shape[1]):  # sum(abs(c) for c in row), in its order
        scales = scales + rows[:, k]
    scales = _max1(scales)
    start = 0
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        preds = np.full(t.shape, horner(coeffs[: top + 1], t))
        try:
            resids = _residuals(P, preds.tolist(), epses)
        except OverflowError:  # a float power: P.eval raises it at its point
            resids = None
        else:  # the checks below on the whole grid, to start at the first failure
            root = np.array([math.nan if r is None else r for r in roots])
            bad = ~(np.isfinite(preds) & np.isfinite(resids))
            bad |= resids > _RESIDUAL_RTOL * scales
            bad |= root > preds + _RESIDUAL_RTOL * _max1(np.abs(root))
            start = int(bad.argmax()) if bad.any() else len(roots)
            resids = resids.tolist()
    preds, scales = preds.tolist(), scales.tolist()
    for n in range(start, len(roots)):
        root, eps, pred, scale = roots[n], epses[n], preds[n], scales[n]
        resid = abs(P.eval(pred, eps)) if resids is None else resids[n]
        if not (math.isfinite(pred) and math.isfinite(resid)):
            raise BranchNotFound(
                f"branch value {pred:g} with residual {resid:g} left the float range "
                f"at eps={eps:g}"
            )
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


def _times_truncated(a: list, b: list, order: int) -> list:
    """The product of two (t, c) lists of the nonzero coefficients of
    exact polynomials, sorted by t, truncated at order: only the pairs of
    listed terms are visited, so a sparse factor costs few products."""
    out: dict = {}
    for i, x in a:
        for j, y in b:
            n = i + j
            if n > order:
                break
            out[n] = out[n] + x * y if n in out else x * y
    return [(n, c) for n, c in sorted(out.items()) if c != 0]


def compute_Q(P: PolynomialFamily, branch: PuiseuxBranch) -> BivariatePoly:
    """Q(s, e) = P(s + sigma(e); sign * e^rho) / s.

    The substitution is carried out termwise with the powers sigma^0 ..
    sigma^(mu+1), truncated at order_e.  Exact data (P and sigma in int or
    Fraction, sigma's nonzero terms of one type) multiply the nonzero terms
    alone (:func:`_times_truncated`) and sum in integers over the common
    denominator lcm(P's denominators) S^(mu+1), S = lcm(sigma's); a sum is
    a Fraction exactly when one of its terms is.  Everything else takes the
    dense products of truncated series.  The constant term in s must vanish
    (the branch is a root), which is checked before dividing.  Float terms
    below _Q_CHOP times the largest one are dropped as noise."""
    sigma = branch.sigma
    sigma_terms = [(t, c) for t, c in enumerate(sigma.coeffs) if c]
    order_e = sigma.order
    if branch.exact:
        degree = sigma_terms[-1][0] if sigma_terms else -1
        max_m = max((m for _, m in P.coeffs), default=0)
        order_e = max(degree * (P.mu + 1) + branch.rho * max_m, order_e)
    kinds = {isinstance(c, Fraction) for _, c in sigma_terms}
    types = {*map(type, sigma.coeffs), *map(type, P.coeffs.values())}
    exact = len(kinds) <= 1 and all(issubclass(kind, (int, Fraction)) for kind in types)
    if exact:
        S = math.lcm(*(c.denominator for _, c in sigma_terms))
        D = math.lcm(*(c.denominator for c in P.coeffs.values()))
        sigma_terms = [(t, c.numerator * (S // c.denominator)) for t, c in sigma_terms]
        terms = {km: c.numerator * (D // c.denominator) for km, c in P.coeffs.items()}
        den = D * S ** (P.mu + 1)
        pow_cache = [[(0, 1)], sigma_terms]
        for _ in range(P.mu):
            pow_cache.append(_times_truncated(pow_cache[-1], sigma_terms, order_e))
        if S != 1:  # sigma^i = (N / S)^i, over S^(mu+1)
            pow_cache = [[(t, sc * S ** (P.mu + 1 - i)) for t, sc in pw] for i, pw in enumerate(pow_cache)]
    else:
        terms = P.coeffs
        dense = sigma.padded(order_e)
        one = 1 if all(isinstance(c, (int, Fraction)) for c in dense.coeffs) else 1.0
        powers = [TruncatedSeries.constant(one, order_e), dense]
        for _ in range(P.mu):
            powers.append(powers[-1] * dense)
        # a zero coefficient, 0.0 included, adds no term
        pow_cache = [[(t, sc) for t, sc in enumerate(pw.coeffs) if sc != 0] for pw in powers]

    acc: dict = {}
    mag: dict = {}  # t -> sum of |float terms| summed into the s^0 e^t coefficient
    fractions = set()  # keys with a Fraction term, when summed in integers
    sigma_frac = exact and True in kinds
    for (k, m), c in terms.items():
        c_signed = c * (branch.sign**m)
        shift = branch.rho * m
        c_frac = exact and isinstance(P.coeffs[(k, m)], Fraction)
        bc = 1
        for j in range(k + 1):  # (s + sigma)^k
            if j > 0:
                bc = bc * (k - j + 1) // j
            cb = c_signed * bc
            frac = c_frac or (j < k and sigma_frac)
            for t, sc in pow_cache[k - j]:
                key = (j, t + shift)
                term = cb * sc
                acc[key] = acc[key] + term if key in acc else term
                if frac:
                    fractions.add(key)
                if j == 0 and isinstance(term, float):
                    mag[key[1]] = mag.get(key[1], 0.0) + abs(term)
    if exact:
        acc = {
            key: (Fraction(v) if den == 1 else Fraction(v, den)) if key in fractions else v // den
            for key, v in acc.items()
            if v
        }
    if not branch.exact:
        # e-coefficients beyond the branch truncation are incomplete
        acc = {(j, t): v for (j, t), v in acc.items() if t <= order_e}
    scale = max((abs(float(v)) for v in acc.values()), default=1.0)
    # drop float noise and divide by s.  The s^0 column must vanish: sigma
    # is a root branch.  An exact coefficient must be 0; a float one is a sum
    # of terms that cancel, so its rounding is measured against their size
    shifted = {}
    for (j, t), v in acc.items():
        if isinstance(v, float) and not abs(v) > _Q_CHOP * scale or not v:
            continue
        if j == 0 and (not isinstance(v, float) or abs(v) > 1e-9 * max(scale, mag.get(t, 0.0))):
            raise NotDivisible(
                f"constant term in s does not vanish (coefficient of e^{t} is {v!r})"
            )
        if j >= 1:
            shifted[(j - 1, t)] = v
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
    _VALIDATION_GRID.  Q(0, e) is summed as Q.eval sums it, c * s^i * e^j
    term by term; c * 0.0^i is float(c) * 0.0^i, taken once per term."""
    if not float(nd.chi) > 0:
        nd.h0 = Verdict(holds=False, witness=0.0, detail=f"chi = {nd.chi!r} <= 0")
        return nd.h0
    terms = [(float(c) * 0.0**i, j) for (i, j), c in nd.Q.terms.items()]
    for e in _VALIDATION_GRID:
        val = 0.0 if not terms else None
        for a, j in terms:
            term = a * e**j
            val = term if val is None else val + term
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
