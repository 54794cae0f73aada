"""Truncated power-series arithmetic, generic over the coefficient field.

A :class:`TruncatedSeries` stores coefficients a_0..a_K of a series in one
variable, truncated at order K.  Arithmetic is written once and works for
exact rationals (``fractions.Fraction``) and for floats: exactness is needed
where operator identities must hold bit-for-bit, floats where quadratures
dominate.  Results never silently gain order: binary operations carry the
minimum order of their operands.

The two structural operators are

* ``nabla``:  (f(s) - f(0)) / s,  a finite-difference that consumes one
  order of truncation, and
* ``theta``:  (1/lam) * s * f'(s),  the scale derivative, which preserves
  the order.

:class:`BivariatePoly` is a sparse polynomial in two variables (s, e); it is
the carrier for the shifted family Q(s, e) and feeds its restrictions
Q(. , e0) into the series kernel.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DivisionByNonUnit,
    NonpositiveLambda,
    OrderExhausted,
)

Scalar = Union[int, float, Fraction]

_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^[+-]?\d+/\d+$")


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients a_0..a_K of a series truncated at order K."""

    coeffs: tuple

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("a truncated series needs at least the constant term")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Scalar], order: int | None = None) -> "TruncatedSeries":
        """Build from low-first coefficients, optionally padding with zeros
        (which asserts the input is exact up to that order)."""
        c = list(coeffs)
        if order is not None:
            if len(c) > order + 1:
                c = c[: order + 1]
            else:
                zero = _zero_like(c[0] if c else 0)
                c = c + [zero] * (order + 1 - len(c))
        return cls(tuple(c))

    @classmethod
    def constant(cls, value: Scalar, order: int = 0) -> "TruncatedSeries":
        zero = _zero_like(value)
        return cls((value,) + (zero,) * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: Scalar = 1) -> "TruncatedSeries":
        if exponent > order:
            raise ValueError("monomial exponent exceeds truncation order")
        zero = _zero_like(coeff)
        c = [zero] * (order + 1)
        c[exponent] = coeff
        return cls(tuple(c))

    @classmethod
    def zero(cls, order: int = 0, like: Scalar = 0) -> "TruncatedSeries":
        return cls((_zero_like(like),) * (order + 1))

    # -- basic queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, j: int) -> Scalar:
        return self.coeffs[j]

    @functools.cached_property
    def float_coeffs(self) -> tuple:
        """The coefficients converted to float, once per series."""
        return tuple(float(a) for a in self.coeffs)

    def __call__(self, x: Scalar) -> Scalar:
        """Horner's rule at x.  At a Python float (two or more coefficients)
        and at a numpy array it sums float_coeffs: a Fraction or int meeting
        a float is converted to float first, and numpy's float64 products
        and sums round as Python's floats do, so the copy gives the exact
        coefficients' value bit for bit (at an array, as a float array of
        x's shape).  Other points (int, Fraction, numpy scalars) sum the
        exact coefficients."""
        if isinstance(x, np.ndarray):
            return np.full(x.shape, horner(self.float_coeffs, x))
        if type(x) is float and len(self.coeffs) > 1:
            return horner(self.float_coeffs, x)
        return horner(self.coeffs, x)

    def degree(self) -> int:
        """Index of the highest stored nonzero coefficient, -1 for zero."""
        for j in range(self.order, -1, -1):
            if self.coeffs[j] != 0:
                return j
        return -1

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, None for the zero series."""
        for j, a in enumerate(self.coeffs):
            if a != 0:
                return j
        return None

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            K = min(self.order, other.order)
            return TruncatedSeries(tuple(self.coeffs[j] + other.coeffs[j] for j in range(K + 1)))
        c = list(self.coeffs)
        c[0] = c[0] + other
        return TruncatedSeries(tuple(c))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            K = min(self.order, other.order)
            return TruncatedSeries(tuple(self.coeffs[j] - other.coeffs[j] for j in range(K + 1)))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            K = min(self.order, other.order)
            out = []
            for n in range(K + 1):
                acc = self.coeffs[0] * other.coeffs[n]
                for k in range(1, n + 1):
                    acc = acc + self.coeffs[k] * other.coeffs[n - k]
                out.append(acc)
            return TruncatedSeries(tuple(out))
        return TruncatedSeries(tuple(a * other for a in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return divide(self, other)
        return TruncatedSeries(tuple(a / other for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"

    # -- order management --------------------------------------------------------

    def truncated(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def padded(self, order: int) -> "TruncatedSeries":
        """Extend with exact zeros.  Only meaningful when the series is in
        fact a polynomial known exactly; callers assert that."""
        if order <= self.order:
            return self
        zero = _zero_like(self.coeffs[0])
        return TruncatedSeries(self.coeffs + (zero,) * (order - self.order))

    def shifted_up(self, n: int) -> "TruncatedSeries":
        """Multiply by s^n, keeping all known coefficients (order grows by n)."""
        zero = _zero_like(self.coeffs[0])
        return TruncatedSeries((zero,) * n + self.coeffs)

    # -- the structural operators ---------------------------------------------

    def nabla(self) -> "TruncatedSeries":
        """(f(s) - f(0)) / s; drops the constant term, costs one order."""
        if self.order < 1:
            raise OrderExhausted("nabla needs order >= 1")
        return TruncatedSeries(self.coeffs[1:])

    def theta(self, lam: Scalar) -> "TruncatedSeries":
        """(1/lam) s d/ds; coefficient a_j maps to (j/lam) a_j."""
        if not lam > 0:
            raise NonpositiveLambda(f"lambda must be positive, got {lam!r}")
        return TruncatedSeries(tuple(a * j / lam for j, a in enumerate(self.coeffs)))

    def norm_ell1(self) -> Scalar:
        """Sum of absolute coefficient values (exact for rationals)."""
        acc = abs(self.coeffs[0])
        for a in self.coeffs[1:]:
            acc = acc + abs(a)
        return acc

    # -- shifting ----------------------------------------------------------------

    def shift(self, c: Scalar) -> "TruncatedSeries":
        """Taylor recentering f(s + c), treating f as an exact polynomial of
        degree <= order (synthetic Horner, exact over rationals)."""
        if c == 0:
            return self
        n = self.order
        a = list(self.coeffs)
        for j in range(n):
            for k in range(n - 1, j - 1, -1):
                a[k] = a[k] + c * a[k + 1]
        return TruncatedSeries(tuple(a))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> list:
        return [_scalar_to_str(a) for a in self.coeffs]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "TruncatedSeries":
        return cls(tuple(_scalar_from_str(str(tok)) for tok in data))


def _zero_like(value: Scalar):
    if isinstance(value, float):
        return 0.0
    if isinstance(value, Fraction):
        return Fraction(0)
    return 0


def _scalar_to_str(a: Scalar) -> str:
    if isinstance(a, float):
        return repr(a)
    return str(a)  # Fraction/int render as 'p/q' or 'p'


def _scalar_from_str(tok: str) -> Scalar:
    """'p' or 'p/q' as an exact rational, anything else as a float; raises
    ValueError for a zero denominator or a value that is not finite."""
    tok = tok.strip()
    if _FRAC_RE.match(tok) or _INT_RE.match(tok):
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {tok!r} has a zero denominator") from None
    val = float(tok)
    if not math.isfinite(val):
        raise ValueError(f"coefficient {tok!r} is not a finite number")
    return val


def _json_key(data, key: str, field: str):
    """data[key] of a JSON object; ValueError naming field if it is missing."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{field} is missing") from None


def _json_int(value, field: str) -> int:
    """A JSON integer as an int: an integral number or an integer string,
    not a boolean; ValueError naming field if it is not one."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{field} must be an integer")


def horner(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    """Evaluate sum coeffs[j] x^j (low first, at least one coefficient)
    by Horner's rule.  With numpy arrays for x or for the coefficients
    (rows of a 2-D array, say), it evaluates elementwise, with the same
    operations in the same order at each element."""
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = acc * x + a
    return acc


def divide(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Long division; needs g(0) != 0.  Order is the operand minimum."""
    if g.coeffs[0] == 0:
        raise DivisionByNonUnit("divisor has zero constant term")
    K = min(f.order, g.order)
    g0 = g.coeffs[0]
    out = []
    for n in range(K + 1):
        acc = f.coeffs[n]
        for k in range(1, n + 1):
            acc = acc - g.coeffs[k] * out[n - k]
        out.append(acc / g0)
    return TruncatedSeries(tuple(out))


class BivariatePoly:
    """Sparse polynomial sum q_ij s^i e^j; no zero coefficients are stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Scalar]):
        clean = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError("exponents must be non-negative")
            if c:
                clean[(int(i), int(j))] = c
        self.terms = clean

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        items = ", ".join(f"s^{i} e^{j}: {c}" for (i, j), c in sorted(self.terms.items()))
        return f"BivariatePoly({{{items}}})"

    def support(self):
        return sorted(self.terms.keys())

    def degree_s(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def eval(self, s: Scalar, e: Scalar) -> Scalar:
        acc = None
        for (i, j), c in self.terms.items():
            term = c * s**i * e**j
            acc = term if acc is None else acc + term
        if acc is None:
            return 0 * s
        return acc

    def restrict(self, e_value: Scalar, order: int | None = None) -> TruncatedSeries:
        """Substitute e = e_value; returns the s-series (a polynomial, so
        padding to a larger order is exact)."""
        deg = self.degree_s()
        if order is None:
            order = max(deg, 0)
        coeffs = [_zero_like(e_value)] * (order + 1)
        for (i, j), c in self.terms.items():
            if i <= order:
                coeffs[i] = coeffs[i] + c * e_value**j
        return TruncatedSeries(tuple(coeffs))

    def to_json(self) -> list:
        return [
            {"s": i, "e": j, "c": _scalar_to_str(c)}
            for (i, j), c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "BivariatePoly":
        return cls({(int(d["s"]), int(d["e"])): _scalar_from_str(str(d["c"])) for d in data})
