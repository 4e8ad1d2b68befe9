"""Exact univariate polynomials over Z, as plain integer tuples.

A polynomial in Z[T] is a tuple of ints, constant term first, with a
nonzero leading coefficient; () is the zero polynomial, so equality is
tuple equality.  Python ints are arbitrary precision: characteristic
polynomials of Frobenius on a K3 surface have constant terms near 11^20,
well past 64 bits.

Provides the product every ring of the package reuses, the Newton slopes
at a prime as plain (valuation, multiplicity) pairs (the Picard number and
the height are read off them), and the palindrome test for the Weil
functional equation.  Z[T] has a product and no division.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

B2 = 22  # second Betti number of a K3 surface, shared by analysis and kodaira


def poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The product a * b in Z[T]; () is the zero polynomial."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


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


def prime_divisors(n: int) -> list[int]:
    """The primes dividing n >= 1, ascending, by trial division up to sqrt(n)."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


def valuation(n: int, p: int) -> int:
    """v_p(n), the exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("the p-adic valuation of 0 is infinite")
    if p < 2:
        raise ValueError(f"valuation needs a prime p >= 2, got {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def newton_polygon(f: Sequence[int], p: int) -> tuple[tuple[Fraction, int], ...]:
    """The p-adic Newton slopes of f: ((valuation, multiplicity), ...).

    Each pair is one segment of the lower convex hull of the points
    (j, v_p(c_j)): the valuation of its roots (the negated hull slope) and
    their number (the segment's length).  Valuations strictly increase, and
    the multiplicities sum to deg f.  Requires a nonzero constant term."""
    from fractions import Fraction  # here, so commands that read no slopes never import it

    if not f:
        raise ValueError("Newton polygon of the zero polynomial is undefined")
    if f[0] == 0:
        raise ValueError("constant term vanishes; factor out T first")
    points = tuple((j, valuation(c, p)) for j, c in enumerate(f) if c != 0)
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
    segments = zip(hull, hull[1:])
    return tuple(sorted((Fraction(y1 - y2, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in segments))


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
