"""Univariate polynomial arithmetic over prime fields F_p.

Support module for the Weierstrass-model and fiber-classification code:
discriminants and c4-covariants live in F_p[t], and fiber classification
needs their factorizations into monic irreducibles.  Factorization is
distinct-degree splitting, which strips every power (p-th powers included)
of each factor it finds, reading the multiplicity off its chain of gcds, and
is also the irreducibility test, then equal-degree splitting.

Equal-degree splitting is one loop.  On an irreducible factor of degree d
the trace Tr(t) = t + t^p + ... + t^(p^(d-1)) and the norm N(t) = t * t^p *
... * t^(p^(d-1)), both built from the Frobenius powers that distinct-degree
splitting keeps (von zur Gathen and Shoup 1992), and every norm
N(a) = a^((p^d - 1)/(p - 1)) take a single value in F_p.  The loop refines
the parts by Tr(t), then by N(t), then by N(a) for the other monic a in
base-p order, until every part has degree d.  For p <= SHIFTS, gcd(part, v + c)
for every c in F_p separates every value of v; for larger p the quadratic
character of v + c does, for SHIFTS shifts c, and at c = 0 on N(a) that is
the Cantor-Zassenhaus test with a (Cantor and Zassenhaus 1981).  For d = 1,
Tr(t) = t, so the first pass is the root search.  The values come in a fixed
order instead of being sampled, so factorizations are reproducible.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator, Sequence

from .errors import InconsistencyError
from .polynomials import poly_mul, poly_str, power

# Shifts c tried on each value v, a bound independent of p; for p <= SHIFTS
# they run through all of F_p and gcd(f, v + c) separates every value of v
# without a power.
SHIFTS = 16


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
        return FpPoly(self.p, poly_mul(self.coeffs, other.coeffs))

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
        """self^e modulo mod, for e >= 0."""
        return power(self % mod, e, lambda a, b: a * b % mod, FpPoly(self.p, (1,)))

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, [n * c for n, c in enumerate(self.coeffs)][1:])

    def multiplicity_of(self, g: "FpPoly") -> int:
        """Largest m with g^m dividing self (self nonzero, g non-constant)."""
        if not self or g.degree < 1:
            raise ValueError(f"multiplicity of {g!r} in {self!r} is undefined")
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


def _distinct_degree(f: FpPoly) -> tuple[list[tuple[FpPoly, int, int]], list[FpPoly]]:
    """f monic -> ([(product of the distinct irreducible factors of degree d
    and multiplicity m, d, m)], frobenius), where frobenius[j] is t^(p^j)
    modulo a multiple of every product of degree-d factors with d > j.

    Every power of a factor found at degree d is divided out: gd_k, the gcd
    of gd_(k-1) with the quotient, is the product of the degree-d factors of
    multiplicity at least k, so gd_k // gd_(k+1) is those of multiplicity k.
    f keeps no factor of degree below d, and a remainder of degree below 2d
    is irreducible of multiplicity 1."""
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
            m = 0
            while gd.degree > 0:
                f //= gd
                m += 1
                next_gd = f.gcd(gd)
                if next_gd.degree < gd.degree:
                    out.append((gd // next_gd, d, m))
                gd = next_gd
            g = g % f
        d += 1
    if f.degree > 0:
        out.append((f, f.degree, 1))
    return out, frobenius


def is_irreducible(f: FpPoly) -> bool:
    """Whether f is monic and irreducible over F_p."""
    return f.lead == 1 and _distinct_degree(f)[0] == [(f, f.degree, 1)]


def digits(index: int, p: int, r: int) -> tuple[int, ...]:
    """The r base-p digits of index, least significant first.

    They are the lower coefficients of the index-th monic polynomial of
    degree r in monic_polys, and the coordinates of element `index` of
    F_(p^r) in ffield's power basis."""
    coords = []
    for _ in range(r):
        coords.append(index % p)
        index //= p
    return tuple(coords)


def monic_polys(p: int, degree: int) -> Iterator[FpPoly]:
    """The monic polynomials of one degree over F_p, in base-p order of their
    lower coefficients (the constant term is the least significant digit)."""
    for m in range(p**degree):
        yield FpPoly(p, digits(m, p, degree) + (1,))


def _separating_values(f: FpPoly, d: int, frobenius: list[FpPoly]) -> Iterator[FpPoly]:
    """Tr(t), then N(a) for the monic a of degree 1 .. deg f in base-p order;
    each takes one value in F_p on every degree-d irreducible factor of f.
    N(t), the first norm, is the product of the Frobenius powers mod f."""
    p = f.p
    yield sum(frobenius[1:d], frobenius[0])
    t = FpPoly.monomial(p, 1)
    norm = (p**d - 1) // (p - 1)
    for degree in range(1, f.degree + 1):
        for a in monic_polys(p, degree):
            if a == t:
                yield reduce(lambda n, x: n * x % f, frobenius[1:d], t % f)
            else:
                yield a.pow_mod(norm, f)


def _refine(parts: list[FpPoly], d: int, v: FpPoly) -> list[FpPoly]:
    """Split the parts by the values in F_p that v takes on their degree-d
    factors: by gcd(part, v + c), or for p > SHIFTS by the quadratic
    character of v + c, for each shift c < min(p, SHIFTS)."""
    p = v.p
    one = FpPoly.constant(p, 1)
    for c in range(min(p, SHIFTS)):
        shifted = v + FpPoly.constant(p, c)
        refined = []
        for part in parts:
            if part.degree > d:
                w = shifted % part
                if w.degree > 0:
                    if p > SHIFTS:
                        w = w.pow_mod((p - 1) // 2, part) - one
                    g = part.gcd(w)
                    if 0 < g.degree < part.degree:
                        refined += [g, part // g]
                        continue
            refined.append(part)
        parts = refined
    return parts


def _equal_degree(f: FpPoly, d: int, frobenius: list[FpPoly]) -> list[FpPoly]:
    """Split monic squarefree f, all of whose irreducible factors have degree d.

    frobenius[j] is t^(p^j) modulo a multiple of f, for j < d."""
    parts = [f]
    values = _separating_values(f, d, frobenius)
    while any(part.degree > d for part in parts):
        v = next(values, None)
        if v is None:
            # every residue class mod f has a monic representative of degree
            # deg f, so some N(a) separates any two factors (for p > SHIFTS,
            # by its quadratic character): running out is an arithmetic bug
            raise InconsistencyError(f"equal-degree splitting found no separating value for {f!r}")
        parts = _refine(parts, d, v)
    return parts


def factor(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Factor nonzero f into monic irreducibles: [(g, multiplicity)], sorted.

    Each (product, d, m) of the distinct-degree pass splits into its degree-d
    factors, all of multiplicity m.  The unit leading coefficient is
    discarded; callers that need it use f.lead directly.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    products, frobenius = _distinct_degree(f.monic())
    pieces = [
        (irr, m)
        for prod, d, m in products
        for irr in _equal_degree(prod, d, frobenius)
    ]
    return sorted(pieces, key=lambda fm: (fm[0].degree, fm[0].coeffs))
