"""Univariate polynomial arithmetic over prime fields F_p.

Support module for the Weierstrass-model and fiber-classification code:
discriminants and c4-covariants live in F_p[t], and fiber classification
needs their factorizations into monic irreducibles.  Factorization is
distinct-degree splitting, which strips every power (p-th powers included)
of each factor it finds and is also the irreducibility test, then
equal-degree splitting, which requires odd p; that covers every use in this
package (classification is only offered for p >= 5).

Distinct-degree splitting keeps the Frobenius powers t^(p^j) it computes,
and equal-degree splitting reuses them (von zur Gathen and Shoup 1992):

* degree 1, p < ROOT_SCAN_LIMIT: the linear factors are read off a root
  scan over F_p;
* degree d > 1: the trace Tr = t + t^p + ... + t^(p^(d-1)) takes one value
  in F_p on each factor; gcds with Tr + c for every c in F_p (small p) or
  with the quadratic character of Tr + c for a bounded number of shifts c
  (larger p) separate factors whose traces differ;
* the fallback, for degree 1 at p >= ROOT_SCAN_LIMIT and for factors that
  share one trace (at p = 11, the two Artin-Schreier factors of degree 11
  of gamma's Delta for a non-square gamma both have trace 0), is
  Cantor-Zassenhaus splitting (Cantor and Zassenhaus 1981).

Cantor-Zassenhaus tries candidate polynomials in a fixed enumeration order
instead of sampling, so factorizations are deterministic and output is
reproducible run to run.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapabilityError
from .polynomials import poly_str

# Below this p the linear factors are read by a root scan (up to p
# evaluations); above it Cantor-Zassenhaus (O(log p) multiplications mod f
# per split) is cheaper.  Timed on the degree-1 products of Delta for
# epsilon 1, gamma 1 and uniform at every third prime below 7000 (2-core
# x86, Python 3.11): summed per 500-wide bin of p the scan wins below 3000,
# breaks even at 3000-3500 and loses above.
ROOT_SCAN_LIMIT = 3000
# Shifts c tried by the trace split, a bound independent of p; for
# p <= TRACE_SHIFTS they run through all of F_p and gcd(f, Tr + c) separates
# every trace value without a power.
TRACE_SHIFTS = 16


class FpPoly:
    """Immutable polynomial over F_p, coefficients constant-term first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int] = ()):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(p: int, c: int) -> "FpPoly":
        return FpPoly(p, (c,))

    @staticmethod
    def monomial(p: int, degree: int, c: int = 1) -> "FpPoly":
        return FpPoly(p, (0,) * degree + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FpPoly) and (self.p, self.coeffs) == (other.p, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def _check(self, other: "FpPoly") -> None:
        if self.p != other.p:
            raise ValueError("polynomials over different prime fields")

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FpPoly(self.p, out)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + (-other)

    def __neg__(self) -> "FpPoly":
        return FpPoly(self.p, [-c for c in self.coeffs])

    def __mul__(self, other: "FpPoly | int") -> "FpPoly":
        if isinstance(other, int):
            return FpPoly(self.p, [c * other for c in self.coeffs])
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return FpPoly(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return FpPoly(self.p, out)

    __rmul__ = __mul__

    def divmod(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        dcs = other.coeffs
        dd = len(dcs) - 1
        inv_lead = pow(dcs[-1], p - 2, p)
        quo = [0] * max(len(rem) - dd, 0)
        for top in range(len(rem) - 1, dd - 1, -1):
            c = rem[top] % p
            if c:
                f = c * inv_lead % p
                quo[top - dd] = f
                for i, d in enumerate(dcs):
                    rem[top - dd + i] -= f * d
            rem[top] = 0
        return FpPoly(p, quo), FpPoly(p, rem[:dd])

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return self.divmod(other)[1]

    def monic(self) -> "FpPoly":
        if not self:
            return self
        inv = pow(self.lead, self.p - 2, self.p)
        return self * inv

    def gcd(self, other: "FpPoly") -> "FpPoly":
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def pow_mod(self, e: int, mod: "FpPoly") -> "FpPoly":
        result = FpPoly(self.p, (1,))
        base = self % mod
        while e:
            if e & 1:
                result = result * base % mod
            base = base * base % mod
            e >>= 1
        return result

    def evaluate(self, x: int) -> int:
        """Value at x in F_p, as a residue in [0, p)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    __call__ = evaluate

    def reverse(self, m: int) -> "FpPoly":
        """s^m * f(1/s); requires deg f <= m."""
        if self.degree > m:
            raise ValueError(f"degree {self.degree} exceeds reversal weight {m}")
        padded = list(self.coeffs) + [0] * (m + 1 - len(self.coeffs))
        return FpPoly(self.p, padded[::-1])

    def multiplicity_of(self, g: "FpPoly") -> int:
        """Largest m with g^m dividing self (self nonzero, g non-constant)."""
        if not self:
            raise ValueError("multiplicity in the zero polynomial is undefined")
        m = 0
        cur = self
        while True:
            q, r = cur.divmod(g)
            if r:
                return m
            m += 1
            cur = q

    def __repr__(self) -> str:
        return f"FpPoly(p={self.p}, {poly_str(self.coeffs, 't')})"


def _distinct_degree(f: FpPoly) -> tuple[list[tuple[FpPoly, int]], list[FpPoly]]:
    """f monic -> ([(product of the distinct irreducible factors of degree d, d)],
    frobenius), where frobenius[j] is t^(p^j) modulo a multiple of every
    product of degree-d factors with d > j.

    Every power of a factor found at degree d is divided out (the gcd with each
    quotient, as multiplicities may differ), so f keeps no factor of degree
    below d and a remainder of degree below 2d is irreducible."""
    p = f.p
    out = []
    t = FpPoly.monomial(p, 1)
    g = t % f
    frobenius = [g]
    d = 1
    while f.degree >= 2 * d:
        g = g.pow_mod(p, f)
        frobenius.append(g)
        gd = f.gcd(g - t)
        if gd.degree > 0:
            out.append((gd, d))
            while gd.degree > 0:
                f //= gd
                gd = f.gcd(gd)
            g = g % f
        d += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out, frobenius


def is_irreducible(f: FpPoly) -> bool:
    """Whether f is monic and irreducible over F_p."""
    return f.lead == 1 and _distinct_degree(f)[0] == [(f, f.degree)]


def _candidate_polys(p: int, max_degree: int):
    """Monic polynomials of degree 1 .. max_degree in a fixed deterministic order."""
    for degree in range(1, max_degree + 1):
        for m in range(p**degree):
            coeffs = []
            mm = m
            for _ in range(degree):
                coeffs.append(mm % p)
                mm //= p
            yield FpPoly(p, coeffs + [1])


def _candidate_split(f: FpPoly, d: int) -> list[FpPoly]:
    """Cantor-Zassenhaus: split f by gcd(f, a^((p^d - 1)/2) - 1) over candidates a."""
    if f.degree == d:
        return [f]
    p = f.p
    half = (p**d - 1) // 2
    for a in _candidate_polys(p, f.degree):
        b = a.pow_mod(half, f) - FpPoly.constant(p, 1)
        g = f.gcd(b)
        if 0 < g.degree < f.degree:
            return _candidate_split(g, d) + _candidate_split(f // g, d)
    # splitting residues have density >= 1/2, so scanning every monic
    # polynomial up to deg f cannot come up empty for a genuine product
    raise RuntimeError(f"equal-degree splitting failed for {f!r}")


def _trace_split(f: FpPoly, d: int, trace: FpPoly) -> list[FpPoly]:
    """Split f by the values in F_p that trace = Tr(t) takes on its factors.

    On an irreducible factor of degree d, t^(p^0) + ... + t^(p^(d-1)) is
    congruent to the trace of t's residue class, an element of F_p.  For each
    shift c < TRACE_SHIFTS every part is refined by gcd(part, trace + c) when
    p <= TRACE_SHIFTS (so every trace value is separated), and otherwise by
    the quadratic character, gcd(part, (trace + c)^((p-1)/2) - 1).  Factors
    that share one trace, or that no shift separated, go to _candidate_split."""
    p = f.p
    one = FpPoly.constant(p, 1)
    trace = trace % f
    parts = [f]
    for c in range(min(p, TRACE_SHIFTS)):
        shifted = trace + FpPoly.constant(p, c)
        refined = []
        for part in parts:
            if part.degree > d and (trace % part).degree > 0:
                if p > TRACE_SHIFTS:
                    g = part.gcd(shifted.pow_mod((p - 1) // 2, part) - one)
                else:
                    g = part.gcd(shifted)
                if 0 < g.degree < part.degree:
                    refined += [g, part // g]
                    continue
            refined.append(part)
        parts = refined
    return [irr for part in parts for irr in _candidate_split(part, d)]


def _equal_degree(f: FpPoly, d: int, frobenius: list[FpPoly]) -> list[FpPoly]:
    """Split monic squarefree f, all of whose irreducible factors have degree d.

    frobenius[j] is t^(p^j) modulo a multiple of f, for j < d."""
    if f.degree == d:
        return [f]
    p = f.p
    if p == 2:
        raise CapabilityError("equal-degree splitting not implemented for p = 2")
    if d == 1:
        if p < ROOT_SCAN_LIMIT:
            return [FpPoly(p, (-x, 1)) for x in roots_in_base(f)]
        return _candidate_split(f, d)
    return _trace_split(f, d, sum(frobenius[1:d], frobenius[0]))


def factor(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Factor nonzero f into monic irreducibles: [(g, multiplicity)], sorted.

    The unit leading coefficient is discarded; callers that need it use
    f.lead directly.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    f = f.monic()
    products, frobenius = _distinct_degree(f)
    pieces = [
        (irr, f.multiplicity_of(irr))
        for prod, d in products
        for irr in _equal_degree(prod, d, frobenius)
    ]
    return sorted(pieces, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def roots_in_base(f: FpPoly) -> list[int]:
    """Roots of f in F_p, ascending, by an exhaustive scan that stops after
    deg f roots; factor uses it only for p < ROOT_SCAN_LIMIT."""
    roots = []
    for x in range(f.p):
        if f.evaluate(x) == 0:
            roots.append(x)
            if len(roots) == f.degree:
                break
    return roots
