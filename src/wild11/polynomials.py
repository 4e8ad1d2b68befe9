"""Exact univariate polynomials over Z.

Coefficients are stored constant-term first with trailing zeros stripped,
so the zero polynomial is canonical and equality is structural.  All
arithmetic is arbitrary precision: characteristic polynomials of Frobenius
on a K3 surface have constant terms near 11^20, well past 64 bits.

Also provides cyclotomic polynomials, divisibility with multiplicity by a
monic polynomial (the root-of-unity detector behind the Picard bound),
Newton polygons with respect to a prime, and the palindrome test for the
Weil functional equation.  Division is only ever by monic divisors, so it
never leaves Z[T].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


def _strip(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPoly:
    """Polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        if any(not isinstance(c, int) for c in coeffs):
            raise TypeError("IntPoly coefficients must be ints")
        self.coeffs = _strip(list(coeffs))

    @staticmethod
    def monomial(degree: int, c: int = 1) -> "IntPoly":
        return IntPoly((0,) * degree + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        """Quotient self/divisor in Z[T] for a monic divisor; raises if inexact."""
        quo, rem = _divmod_monic(self.coeffs, divisor)
        if any(rem):
            raise ValueError(f"{divisor!r} does not divide {self!r}")
        return IntPoly(quo)

    def __repr__(self) -> str:
        return f"IntPoly({poly_str(self.coeffs)})"


def _divmod_monic(coeffs: Sequence[int], divisor: IntPoly) -> tuple[list[int], list[int]]:
    """Long division in Z[T] by a monic, non-constant divisor: (quotient, remainder)."""
    if divisor.degree < 1 or not divisor.is_monic():
        raise ValueError(f"divisor must be monic and non-constant, got {divisor!r}")
    dcs = divisor.coeffs
    dd = len(dcs) - 1
    rem = list(coeffs)
    quo = [0] * max(len(rem) - dd, 0)
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top]
        if c:
            base = top - dd
            quo[base] = c
            for i in range(dd):
                rem[base + i] -= c * dcs[i]
    return quo, rem[:dd]


def poly_str(coeffs: Sequence, var: str = "T") -> str:
    """Human-readable polynomial, highest degree first."""
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if i == 0:
            body = f"{mag}"
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


@lru_cache(maxsize=None)
def euler_phi(k: int) -> int:
    result, n, d = k, k, 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            result -= result // d
        d += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial, by exact division of T^k - 1."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    num = IntPoly.monomial(k) - IntPoly([1])
    for d in range(1, k):
        if k % d == 0:
            num = num.exact_div(cyclotomic_poly(d))
    return num


def divides_with_multiplicity(f: IntPoly, g: IntPoly) -> int:
    """Largest m >= 0 with f^m dividing g in Z[T], for monic non-constant f."""
    m = 0
    current = g.coeffs
    while True:
        quo, rem = _divmod_monic(current, f)
        if not current or any(rem):
            return m
        m += 1
        current = quo


@dataclass(frozen=True)
class NewtonPolygon:
    """Newton polygon of a polynomial at a prime p.

    `points` are (j, v_p(c_j)) for nonzero coefficients, `hull` the lower
    convex hull, and `slopes` the multiset of root valuations (negated hull
    slopes), stored as (valuation, multiplicity) pairs with valuations
    weakly increasing.
    """

    p: int
    points: tuple[tuple[int, int], ...]
    hull: tuple[tuple[int, int], ...]
    slopes: tuple[tuple[Fraction, int], ...]

    def min_valuation(self) -> Fraction:
        return self.slopes[0][0]


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def newton_polygon(f: IntPoly, p: int) -> NewtonPolygon:
    """Root-valuation data of f at p; requires a nonzero constant term."""
    if not f:
        raise ValueError("Newton polygon of the zero polynomial is undefined")
    if f.coeffs[0] == 0:
        raise ValueError("constant term vanishes; factor out T first")
    points = tuple((j, _vp(c, p)) for j, c in enumerate(f.coeffs) if c != 0)
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep hull[-1] only if it lies strictly below the chord hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.append((Fraction(y1 - y2, x2 - x1), x2 - x1))
    slopes.sort(key=lambda sm: sm[0])
    return NewtonPolygon(p=p, points=points, hull=tuple(hull), slopes=tuple(slopes))


def palindrome_sign(cs: Sequence) -> int | None:
    """+1 if c_j = c_{d-j} for all j, -1 if c_j = -c_{d-j}, else None."""
    d = len(cs) - 1
    if d < 0:
        return None
    if all(cs[j] == cs[d - j] for j in range(d + 1)):
        return 1
    if all(cs[j] == -cs[d - j] for j in range(d + 1)):
        return -1
    return None
