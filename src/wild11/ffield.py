"""Exact arithmetic in prime fields F_p and their extensions F_{p^r}.

Fields are bounded by size alone, q <= Q_LIMIT, whatever the degree; the
point count stops at q = 11^4.  A FieldSpec is only the field: the counting
layers build their own lookup tables from its indices (surface for the point
count, equivariant for the tally), so no table is shared between them.  F_q
is F_p[u]/(m) for its canonical modulus m: an element is its remainder mod m
as a reduced F_p[u] tuple of fppoly (() for zero), or the index sum_j c_j p^j
of its coefficients c_j, and its products and powers are fppoly's `_divmod`
and `_pow_mod` modulo m.  One rule picks the modulus for every
(p, r): the first monic irreducible of degree r in `fppoly.monic_polys`
order, that is, in base-p order of the lower coefficients.  So r = 1 gives
t, F_4 is F_2[u]/(u^2 + u + 1), and for odd p, r = 2 gives u^2 + c with c
the least value for which -c is a non-residue (F_9 and F_121 on u^2 + 1).
Any monic irreducible of degree r describes the same field F_(p^r) (Lidl and
Niederreiter, Finite Fields, ch. 1-2), so the choice moves no count; the
fixed rule makes indices reproducible across runs.

Everything here is immutable and pure, so values may be shared freely.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Sequence

from .errors import CapabilityError, InconsistencyError
from .fppoly import _add, _divmod, _pow_mod, digits, is_irreducible, reduced
from .polynomials import poly_mul, poly_str

# Largest supported field size; keeps exhaustive O(q) loops desk-scale.  The
# O(q^2) point count has its own, lower limit (surface.COUNT_Q_LIMIT).
Q_LIMIT = 1 << 20

# Miller-Rabin with the primes up to 41 as bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster 2017, "Strong
# pseudoprimes to twelve prime bases"); the bases up to 37 alone are not.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise CapabilityError(f"primality of {n} is only decided below {_MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)  # a search over up to p^r candidates; its result never changes
def _canonical_modulus(p: int, r: int) -> tuple[int, ...]:
    """The first monic irreducible of degree r over F_p in monic_polys order.

    The candidates come in blocks of p that share their upper coefficients
    a_1 .. a_(r-1) and run through every constant term a_0.  For r > 1 a
    candidate with a root x in F_p is reducible, and it has one iff a_0 is
    -(x^r + a_(r-1) x^(r-1) + ... + a_1 x) for some x.  Those p values are
    one Horner pass over every x per block, so is_irreducible runs only on
    the root-free candidates; for r <= 3 the first of them is irreducible
    (Lidl and Niederreiter, Finite Fields, ch. 1)."""
    for upper in range(p ** (r - 1)):
        high = digits(upper, p, r - 1) + (1,)
        rooted: set[int] = set()
        if r > 1:
            # h(x) = x^(r-1) + a_(r-1) x^(r-2) + ... + a_1 at every x, left
            # unreduced (it stays below r * p^(r-1)); a_0 = -x h(x) is a root at x
            h = range(high[-2], high[-2] + p)
            for c in high[-3::-1]:
                h = [v * x + c for x, v in enumerate(h)]
            rooted = {v * x % p for x, v in zip(range(0, -p, -1), h)}
        for a0 in range(p):
            if a0 not in rooted and is_irreducible((a0,) + high, p):
                return (a0,) + high
    raise InconsistencyError(f"no irreducible polynomial of degree {r} over F_{p}")


class FieldSpec(namedtuple("FieldSpec", ("p", "r", "q", "modulus"))):
    """Description of F_q, q = p^r <= Q_LIMIT, and its arithmetic.

    The modulus is always the canonical one for (p, r), the first monic
    irreducible of degree r in `monic_polys` order, so two FieldSpecs of
    the same size describe the same field with the same indices.  Only
    (p, r) is passed, and copies and pickles rebuild from it
    (`__getnewargs__`), so they rerun the checks.

    `mul` and `pow` hide the modulus; they take reduced or zero-padded tuples
    and return reduced ones, and sums are `fppoly._add`.  `index_of` and
    `coords_at` convert between tuples and the counting layers' indices.
    """

    __slots__ = ()
    p: int
    r: int
    q: int
    modulus: tuple[int, ...]

    def __new__(cls, p: int, r: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        q = p**r
        if q > Q_LIMIT:
            raise CapabilityError(f"field size {q} exceeds the supported limit {Q_LIMIT}")
        return super().__new__(cls, p, r, q, _canonical_modulus(p, r))

    def __getnewargs__(self) -> tuple[int, int]:
        return self.p, self.r

    def __repr__(self) -> str:
        if self.r == 1:
            return f"FieldSpec(F_{self.p})"
        return f"FieldSpec(F_{self.q} = F_{self.p}[u]/({poly_str(self.modulus, 'u')}))"

    # -- coordinates and indices ----------------------------------------------

    def index_of(self, coords: Sequence[int]) -> int:
        idx = 0
        for c in reversed(coords):
            idx = idx * self.p + c
        return idx

    def coords_at(self, index: int) -> tuple[int, ...]:
        return reduced(digits(index, self.p, self.r), self.p)

    # -- arithmetic modulo the modulus --------------------------------------------

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return _divmod(poly_mul(a, b), self.modulus, self.p)[1]

    def pow(self, a: Sequence[int], e: int) -> tuple[int, ...]:
        """a^e for e >= 0."""
        return _pow_mod(a, e, self.modulus, self.p)


def trace_to_base(spec: FieldSpec, x: Sequence[int]) -> int:
    """Tr_{F_q/F_p}(x) = sum of x^(p^j), returned as an integer residue mod p."""
    acc = img = x
    for _ in range(spec.r - 1):
        img = spec.pow(img, spec.p)
        acc = _add(acc, img, spec.p)
    if len(acc) > 1:
        raise InconsistencyError(f"trace {acc} has nonzero higher coordinates")
    return acc[0] if acc else 0
