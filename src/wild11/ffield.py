"""Exact arithmetic in prime fields F_p and their extensions F_{p^r}.

Fields are bounded by size, not degree: q <= Q_LIMIT, and at most 2^24
entries in the packed-addition table; the point count stops at q = 11^4.  An
extension is described by its canonical modulus, and an element is its
coordinate tuple (c_0, ..., c_{r-1}) in the power basis of that modulus, or
the index sum_j c_j p^j of that tuple.  One rule picks the modulus for every
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

from functools import lru_cache
from typing import Sequence

from .errors import CapabilityError, InconsistencyError
from .fppoly import digits, is_irreducible, monic_polys
from .polynomials import divmod_monic, poly_mul, poly_str, power

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
    """The first monic irreducible of degree r over F_p in monic_polys order."""
    for cand in monic_polys(p, r):
        if is_irreducible(cand):
            return cand.coeffs
    raise InconsistencyError(f"no irreducible polynomial of degree {r} over F_{p}")


class FieldSpec:
    """Description of F_q, q = p^r <= Q_LIMIT with (2p - 1)^r <= 2^24, and its arithmetic.

    The modulus is always the canonical one for (p, r), the first monic
    irreducible of degree r in `monic_polys` order, so two FieldSpecs of
    the same size describe the same field with the same indices.

    The methods `add`, `mul`, `smul` and `pow` act on coordinate tuples;
    `index_of` and `coords_at` convert between tuples and indices, the form
    the cached lookup tables are indexed by.
    """

    __slots__ = ("p", "r", "q", "modulus")

    def __init__(self, p: int, r: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        q = p**r
        if q > Q_LIMIT:
            raise CapabilityError(f"field size {q} exceeds the supported limit {Q_LIMIT}")
        # packed_tables' unpack table has (2p - 1)^r < 2^r q entries; 2^24 admits every r <= 4
        table = (2 * p - 1) ** r
        if table > Q_LIMIT << 4:
            raise CapabilityError(f"F_{q} needs a packed-addition table of {table} > 2^24 entries")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = _canonical_modulus(p, r)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # the modulus fixes the indices, so a spec on another modulus keeps its own tables
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.r, self.modulus))

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
        return digits(index, self.p, self.r)

    # -- coordinate arithmetic --------------------------------------------------

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """poly_mul's product, reduced by the monic modulus with divmod_monic, then
        mod p (a monic division never divides, so it commutes with reduction mod p)."""
        p = self.p
        return tuple([c % p for c in divmod_monic(poly_mul(a, b), self.modulus)[1]])

    def smul(self, s: int, a: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple(s * x % p for x in a)

    def pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        """a^e for e >= 0."""
        return power(a, e, self.mul, self.coords_at(1))

    # -- cached lookup tables (used by the enumeration loops) ----------------
    #
    # The point-count tables are cached per field, so equal FieldSpecs share
    # one copy: the memoised counters in surface keep every FieldSpec they see
    # as a cache key, and a copy per instance would be kept alive with it.

    @lru_cache(maxsize=None)
    def log_tables(self) -> tuple[list[int], list[int]]:
        """(log, exp) by element index, for the first generator g of F_q^* in index order.

        exp[k] is the index of g^k for 0 <= k < q - 1, and log[exp[k]] = k;
        log[0] is -1, since zero has no logarithm.  The product of nonzero
        elements with indices a and b has index exp[(log[a] + log[b]) % (q - 1)].
        """
        p, q = self.p, self.q
        one = self.coords_at(1)
        # g generates F_q^* iff g^((q-1)/l) != 1 for every prime l dividing q - 1
        cofactors = [
            (q - 1) // ell for ell in range(2, q) if (q - 1) % ell == 0 and is_prime(ell)
        ]
        g = next(
            self.coords_at(i)
            for i in range(1, q)
            if all(self.pow(self.coords_at(i), c) != one for c in cofactors)
        )
        # x -> x * g is F_p-linear: tabulate it by index one coordinate at a
        # time, adding the multiples of u^j * g by carry-free packed addition
        pack, unpack = self.packed_tables()
        times_g = [0]
        for j in range(self.r):
            column = self.mul(self.coords_at(p**j), g)
            multiples = [pack[self.index_of(self.smul(c, column))] for c in range(p)]
            times_g = [unpack[m + pack[i]] for m in multiples for i in times_g]
        log = [-1] * q
        exp = []
        i = 1
        for k in range(q - 1):
            exp.append(i)
            log[i] = k
            i = times_g[i]
        return log, exp

    @lru_cache(maxsize=None)
    def chi_table(self) -> list[int]:
        """Quadratic character by element index; requires odd p.

        Read from the logarithm: chi(g^k) = (-1)^k for the generator g."""
        if self.p == 2:
            raise CapabilityError("quadratic character undefined in characteristic 2")
        chi = [0] * self.q
        for k, i in enumerate(self.log_tables()[1]):
            chi[i] = -1 if k & 1 else 1
        return chi

    @lru_cache(maxsize=None)
    def packed_tables(self) -> tuple[list[int], list[int]]:
        """(pack, unpack) for carry-free addition of elements given by index.

        pack[i] reads the coordinates c_j of element i as digits in base
        2p - 1, sum_j c_j (2p - 1)^j.  A sum of two packed elements has every
        digit below 2p - 1, so it never carries, and unpack, of size
        (2p - 1)^r < 2^r q, maps it to the index of the field sum:
        unpack[pack[a] + pack[b]] is the index of a + b.
        """
        p = self.p
        base = 2 * p - 1
        pack, unpack = [0], [0]
        for j in range(self.r):
            # index c * p^j + k packs to c * base^j + pack[k]; packed d * base^j + s
            # unpacks to (d mod p) * p^j + unpack[s]
            bj, pj = base**j, p**j
            pack = [s + c * bj for c in range(p) for s in pack]
            unpack = [i + (d % p) * pj for d in range(base) for i in unpack]
        return pack, unpack

    @lru_cache(maxsize=None)
    def neg_trace_table(self) -> list[int]:
        """(- Tr_{F_q/F_p} x) mod p by element index.

        The trace is F_p-linear, so with t_j = -Tr(u^j) for the power basis
        1, u, ..., u^(r-1), the element sum_j c_j u^j has -Tr = sum_j c_j t_j
        mod p.  Only the r basis traces are computed with trace_to_base; the
        table is then filled one coordinate at a time, in index order.
        """
        p = self.p
        table = [0]
        for j in range(self.r):
            t_j = (-trace_to_base(self, self.coords_at(p**j))) % p
            # indices c * p^j + k for k < p^j: coordinate j is c
            table = [(t + c * t_j) % p for c in range(p) for t in table]
        return table


def trace_to_base(spec: FieldSpec, x: tuple[int, ...]) -> int:
    """Tr_{F_q/F_p}(x) = sum of x^(p^j), returned as an integer residue mod p."""
    acc = img = x
    for _ in range(spec.r - 1):
        img = spec.pow(img, spec.p)
        acc = spec.add(acc, img)
    if any(acc[1:]):
        raise InconsistencyError(f"trace {acc} has nonzero higher coordinates")
    return acc[0]
