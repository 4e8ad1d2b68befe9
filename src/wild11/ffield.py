"""Exact arithmetic in prime fields F_p and small extensions F_{p^r}.

Extensions of degree r <= 4 are supported; the package itself only needs
r in {1, 2, 3}.  An extension is described by a monic irreducible modulus
over F_p, and elements are coordinate vectors with respect to the power
basis of that modulus.  For r = 2 the modulus is always u^2 - n with n the
smallest quadratic non-residue mod p, so field descriptions are canonical
and reproducible across runs.

Everything here is immutable and pure, so values may be shared freely.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .errors import CapabilityError, InconsistencyError

# Largest supported field size; keeps exhaustive O(q) loops desk-scale.  The
# O(q^2) point count has its own, lower limit (surface.COUNT_Q_LIMIT).
Q_LIMIT = 1 << 20

MAX_EXTENSION_DEGREE = 4


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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


def _poly_gcd_modp(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while any(b):
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], p - 2, p)
        shift = len(a) - len(b)
        factor = a[-1] * inv % p
        for i, c in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * c) % p
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            a, b = b, a
    return a if a else [0]


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Exhaustive root/factor check, valid for degree <= 4."""
    deg = len(modulus) - 1
    if deg < 1 or modulus[-1] != 1:
        return False
    if deg == 1:
        return True
    for x in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    # degree 4: also exclude a product of two irreducible quadratics
    for b in range(p):
        for c in range(p):
            g = _poly_gcd_modp(list(modulus), [c, b, 1], p)
            if len(g) - 1 == 2:
                return False
    return True


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
        coeffs = []
        mm = m
        for _ in range(r):
            coeffs.append(mm % p)
            mm //= p
        cand = tuple(coeffs) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InconsistencyError(f"no irreducible polynomial of degree {r} over F_{p}")


class FieldSpec:
    """Description of F_q with q = p^r, r <= 4.

    Field operations are exposed both on :class:`FieldElement` wrappers and
    as raw tuple-coordinate methods (`add`, `mul`, ...); the latter are what
    the counting loops use.
    """

    __slots__ = ("p", "r", "q", "modulus", "_reduction_rows", "_neg_trace")

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
        modulus = tuple(c % p for c in modulus[:-1]) + (modulus[-1],)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r")
        if not _is_irreducible(modulus, p):
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
        self._neg_trace: list[int] | None = None

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
        return f"FieldSpec(F_{self.q} = F_{self.p}[u]/{_poly_repr(self.modulus)})"

    # -- element construction ---------------------------------------------

    def element(self, value: int | Sequence[int]) -> "FieldElement":
        if isinstance(value, int):
            coords = (value % self.p,) + (0,) * (self.r - 1)
        else:
            value = tuple(value)
            if len(value) > self.r:
                raise ValueError(f"too many coordinates for degree-{self.r} extension")
            coords = tuple(c % self.p for c in value) + (0,) * (self.r - len(value))
        return FieldElement(self, coords)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.r)

    def one(self) -> "FieldElement":
        return self.element(1)

    def elements(self) -> Iterator["FieldElement"]:
        """All q elements, in index order (constant coordinate fastest)."""
        for i in range(self.q):
            yield FieldElement(self, self.coords_at(i))

    def index_of(self, coords: Sequence[int]) -> int:
        idx = 0
        for c in reversed(coords):
            idx = idx * self.p + c
        return idx

    def coords_at(self, index: int) -> tuple[int, ...]:
        coords = []
        for _ in range(self.r):
            coords.append(index % self.p)
            index //= self.p
        return tuple(coords)

    # -- raw coordinate arithmetic ------------------------------------------

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((-x) % p for x in a)

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
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = (1,) + (0,) * (self.r - 1)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if not any(a):
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.q - 2)

    def frobenius(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return self.pow(a, self.p)

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

    def neg_trace_table(self) -> list[int]:
        """(- Tr_{F_q/F_p} x) mod p by element index.

        The trace is F_p-linear, so with t_j = -Tr(u^j) for the power basis
        1, u, ..., u^(r-1), the element sum_j c_j u^j has -Tr = sum_j c_j t_j
        mod p.  Only the r basis traces are computed with trace_to_base; the
        table is then filled one coordinate at a time, in index order.
        """
        if self._neg_trace is None:
            p = self.p
            table = [0]
            for j in range(self.r):
                basis = tuple(int(i == j) for i in range(self.r))
                t_j = (-trace_to_base(FieldElement(self, basis))) % p
                # indices c * p^j + k for k < p^j: coordinate j is c
                table = [(t + c * t_j) % p for c in range(p) for t in table]
            self._neg_trace = table
        return self._neg_trace


def _poly_repr(coeffs: Sequence[int], var: str = "u") -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{var}" if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
    return "(" + " + ".join(terms) + ")" if terms else "(0)"


class FieldElement:
    """An element of a :class:`FieldSpec`, as power-basis coordinates in [0, p)."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec: FieldSpec, coords: tuple[int, ...]):
        self.spec = spec
        self.coords = coords

    def _coerce(self, other: "FieldElement | int") -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError("elements belong to different fields")
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "FieldElement | int") -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.spec, self.spec.add(self.coords, o.coords))

    __radd__ = __add__

    def __sub__(self, other: "FieldElement | int") -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.spec, self.spec.sub(self.coords, o.coords))

    def __rsub__(self, other: int) -> "FieldElement":
        return self._coerce(other) - self

    def __mul__(self, other: "FieldElement | int") -> "FieldElement":
        if isinstance(other, int):
            return FieldElement(self.spec, self.spec.smul(other % self.spec.p, self.coords))
        o = self._coerce(other)
        return FieldElement(self.spec, self.spec.mul(self.coords, o.coords))

    __rmul__ = __mul__

    def __truediv__(self, other: "FieldElement | int") -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.spec, self.spec.mul(self.coords, self.spec.inv(o.coords)))

    def __rtruediv__(self, other: int) -> "FieldElement":
        return self._coerce(other) / self

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.neg(self.coords))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.spec, self.spec.pow(self.coords, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.coords))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.spec.element(other)
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.coords))

    def __bool__(self) -> bool:
        return any(self.coords)

    def index(self) -> int:
        return self.spec.index_of(self.coords)

    def in_base_field(self) -> bool:
        return not any(self.coords[1:])

    def __repr__(self) -> str:
        return f"FieldElement({_poly_repr(self.coords)} in F_{self.spec.q})"


def trace_to_base(x: FieldElement, spec: FieldSpec | None = None) -> int:
    """Tr_{F_q/F_p}(x) = sum of x^(p^j), returned as an integer residue mod p."""
    spec = spec or x.spec
    if spec != x.spec:
        raise ValueError("element does not belong to the given field")
    acc = x.coords
    img = x.coords
    for _ in range(spec.r - 1):
        img = spec.frobenius(img)
        acc = spec.add(acc, img)
    if any(acc[1:]):
        raise InconsistencyError(f"trace {acc} has nonzero higher coordinates")
    return acc[0]


def quadratic_character(x: FieldElement, spec: FieldSpec | None = None) -> int:
    """0 for x = 0, +1 for a nonzero square in F_q, -1 otherwise (odd p only)."""
    spec = spec or x.spec
    if spec != x.spec:
        raise ValueError("element does not belong to the given field")
    if spec.p == 2:
        raise CapabilityError("quadratic character undefined in characteristic 2")
    if not x:
        return 0
    power = spec.pow(x.coords, (spec.q - 1) // 2)
    if power == (1,) + (0,) * (spec.r - 1):
        return 1
    return -1

