"""Univariate polynomial arithmetic over prime fields F_p.

Support module for the Weierstrass-model and fiber-classification code:
discriminants and c4-covariants live in F_p[t], and fiber classification
needs their factorizations into monic irreducibles.  Factorization is the
classical squarefree / distinct-degree / equal-degree pipeline; the
equal-degree splitting step requires odd p, which covers every use in this
package (classification is only offered for p >= 5).

The splitting step tries candidate polynomials in a fixed enumeration
order instead of sampling, so factorizations are deterministic and output
is reproducible run to run.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapabilityError


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

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

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
        from .polynomials import poly_str

        return f"FpPoly(p={self.p}, {poly_str(self.coeffs, 't')})"


def _pth_root(f: FpPoly) -> FpPoly:
    # f = g(t^p) with coefficients in F_p, where c^(1/p) = c
    return FpPoly(f.p, f.coeffs[:: f.p])


def _squarefree_decomposition(f: FpPoly) -> dict[FpPoly, int]:
    """f monic -> {monic squarefree g: m} with f = prod g^m; characteristic-aware."""
    out: dict[FpPoly, int] = {}
    if f.degree <= 0:
        return out
    fp = f.derivative()
    if not fp:
        for h, m in _squarefree_decomposition(_pth_root(f)).items():
            out[h] = out.get(h, 0) + m * f.p
        return out
    c = f.gcd(fp)
    w = f // c
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w // y
        if z.degree > 0:
            out[z] = out.get(z, 0) + i
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        # remaining part has all multiplicities divisible by p
        for h, m in _squarefree_decomposition(c).items():
            out[h] = out.get(h, 0) + m
    return out


def _distinct_degree(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """f monic squarefree -> [(product of irreducible factors of degree d, d)]."""
    p = f.p
    out = []
    t = FpPoly.monomial(p, 1)
    g = t % f
    d = 1
    while f.degree >= 2 * d:
        g = g.pow_mod(p, f)
        gd = f.gcd(g - t)
        if gd.degree > 0:
            out.append((gd, d))
            f = f // gd
            g = g % f
        d += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _candidate_polys(p: int):
    """Monic non-constant polynomials in a fixed deterministic order."""
    degree = 1
    while True:
        for m in range(p**degree):
            coeffs = []
            mm = m
            for _ in range(degree):
                coeffs.append(mm % p)
                mm //= p
            yield FpPoly(p, coeffs + [1])
        degree += 1


def _equal_degree(f: FpPoly, d: int) -> list[FpPoly]:
    """Split monic squarefree f, all of whose irreducible factors have degree d."""
    if f.degree == d:
        return [f]
    p = f.p
    if p == 2:
        raise CapabilityError("equal-degree splitting not implemented for p = 2")
    half = (p**d - 1) // 2
    for a in _candidate_polys(p):
        if a.degree > f.degree:
            # splitting residues have density >= 1/2, so scanning every monic
            # polynomial up to deg f cannot come up empty for a genuine product
            raise RuntimeError(f"equal-degree splitting failed for {f!r}")
        b = a.pow_mod(half, f) - FpPoly.constant(p, 1)
        g = f.gcd(b)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d) + _equal_degree(f // g, d)
    raise RuntimeError("candidate enumeration exhausted")


def factor(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Factor nonzero f into monic irreducibles: [(g, multiplicity)], sorted.

    The unit leading coefficient is discarded; callers that need it use
    f.lead directly.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    pieces: dict[FpPoly, int] = {}
    for sqfree, mult in _squarefree_decomposition(f.monic()).items():
        for prod, d in _distinct_degree(sqfree):
            for irr in _equal_degree(prod, d):
                pieces[irr] = pieces.get(irr, 0) + mult
    return sorted(pieces.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))


def roots_in_base(f: FpPoly) -> list[int]:
    """Roots of f in F_p, ascending (exhaustive scan; p is small here)."""
    return [x for x in range(f.p) if f.evaluate(x) == 0]
