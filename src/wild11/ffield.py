"""Exact arithmetic in prime fields F_p and small extensions F_{p^r}.

Extensions of degree r <= 4 are supported: the equivariant tally works
over F_p and F_{p^2}, and the point count goes up to q = 11^4.  An
extension is described by a monic irreducible modulus over F_p, and an
element is its coordinate tuple (c_0, ..., c_{r-1}) in the power basis of
that modulus, or the index sum_j c_j p^j of that tuple.  For r = 2 the
modulus is always u^2 - n with n the smallest quadratic non-residue mod p,
so field descriptions are canonical and reproducible across runs.

Everything here is immutable and pure, so values may be shared freely.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import CapabilityError, InconsistencyError
from .fppoly import FpPoly
from .polynomials import poly_str

# Largest supported field size; keeps exhaustive O(q) loops desk-scale.  The
# O(q^2) point count has its own, lower limit (surface.COUNT_Q_LIMIT).
Q_LIMIT = 1 << 20

MAX_EXTENSION_DEGREE = 4

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


def smallest_nonresidue(p: int) -> int:
    """Least n >= 2 that is not a square modulo the odd prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("no quadratic non-residue exists mod 2")
    squares = {pow(x, 2, p) for x in range(1, p)}
    for n in range(2, p):
        if n not in squares:
            return n
    raise InconsistencyError(f"no non-residue found mod {p}")  # unreachable for odd p


def _is_irreducible(f: FpPoly) -> bool:
    """Whether the monic f has no factor of degree <= deg f / 2 (Rabin 1980).

    Linear factors are found by a root scan, which for the small p used here
    is cheaper than a power of t; a factor of degree d >= 2 is a common
    factor of f and t^(p^d) - t."""
    if f.degree < 1 or f.lead != 1:
        return False
    if f.degree == 1:
        return True
    if 0 in map(f.evaluate, range(f.p)):
        return False
    t = FpPoly.monomial(f.p, 1)
    for d in range(2, f.degree // 2 + 1):
        if f.gcd(t.pow_mod(f.p**d, f) - t).degree > 0:
            return False
    return True


@lru_cache(maxsize=None)  # a search over up to p^r candidates; its result never changes
def _canonical_modulus(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)
    if r == 2:
        if p == 2:
            return (1, 1, 1)  # u^2 + u + 1, the unique irreducible quadratic
        return ((-smallest_nonresidue(p)) % p, 0, 1)
    # r in {3, 4}: first monic irreducible in the base-p enumeration of
    # lower-coefficient tuples; deterministic, hence reproducible.
    for m in range(p**r):
        cand = _digits(m, p, r) + (1,)
        if _is_irreducible(FpPoly(p, cand)):
            return cand
    raise InconsistencyError(f"no irreducible polynomial of degree {r} over F_{p}")


def _digits(index: int, p: int, r: int) -> tuple[int, ...]:
    """The r base-p digits of index, least significant first."""
    coords = []
    for _ in range(r):
        coords.append(index % p)
        index //= p
    return tuple(coords)


class FieldSpec:
    """Description of F_q with q = p^r, r <= 4, and its arithmetic.

    The methods `add`, `mul`, `smul` and `pow` act on coordinate tuples;
    `index_of` and `coords_at` convert between tuples and indices, the form
    the cached lookup tables are indexed by.
    """

    __slots__ = ("p", "r", "q", "modulus", "_reduction_rows")

    def __init__(self, p: int, r: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        if r > MAX_EXTENSION_DEGREE:
            raise CapabilityError(f"extension degree {r} unsupported (max {MAX_EXTENSION_DEGREE})")
        q = p**r
        if q > Q_LIMIT:
            raise CapabilityError(f"field size {q} exceeds the supported limit {Q_LIMIT}")
        if modulus is None:
            modulus = _canonical_modulus(p, r)
        else:
            modulus = tuple(c % p for c in modulus[:-1]) + (modulus[-1],)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree r")
            if not _is_irreducible(FpPoly(p, modulus)):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = modulus
        # reduction_rows[k] = coordinates of u^(r+k) for k = 0 .. r-2
        rows = []
        rel = tuple((-c) % p for c in modulus[:-1])  # u^r
        cur = rel
        for _ in range(r - 1):
            rows.append(cur)
            shifted = (0,) + cur[:-1]
            top = cur[-1]
            cur = tuple((s + top * rl) % p for s, rl in zip(shifted, rel))
        self._reduction_rows = tuple(rows)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
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
        return _digits(index, self.p, self.r)

    # -- coordinate arithmetic --------------------------------------------------

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, r = self.p, self.r
        if r == 1:
            return (a[0] * b[0] % p,)
        raw = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] += x * y
        out = raw[:r]
        for k, row in enumerate(self._reduction_rows):
            c = raw[r + k]
            if c:
                for i, rl in enumerate(row):
                    out[i] += c * rl
        return tuple(c % p for c in out)

    def smul(self, s: int, a: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple(s * x % p for x in a)

    def pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        """a^e for e >= 0."""
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        result = self.coords_at(1)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

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


def quadratic_character(spec: FieldSpec, x: tuple[int, ...]) -> int:
    """0 for x = 0, +1 for a nonzero square in F_q, -1 otherwise (odd p only)."""
    if spec.p == 2:
        raise CapabilityError("quadratic character undefined in characteristic 2")
    if not any(x):
        return 0
    return 1 if spec.pow(x, (spec.q - 1) // 2) == spec.coords_at(1) else -1
