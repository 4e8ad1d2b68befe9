"""Exact arithmetic in Q(zeta_11) and recovery of eigenspace traces.

Elements are written in the power basis 1, z, ..., z^9 of the degree-10
cyclotomic field, with z a fixed primitive 11th root of unity; z^10 is
eliminated through z^10 = -(1 + z + ... + z^9).  This representation is
unique, so equality is coordinate-wise.

The central operation is :func:`inverse_dft`: given the eleven integer
traces tr_n of (automorphism^n . Frobenius) on degree-2 cohomology, it
solves

    tr_n = sum_{i=0}^{10} z^(n*i) a_i          (n = 0, ..., 10)

for the relative traces a_i of Frobenius on the z^i-eigenspaces.  Two hard
gates protect the inversion: the invariant eigenspace must carry a_0 = 2q
exactly (anything else means the fixed-point tallies are wrong), and every
a_i must land in Z[zeta] (anything else means an arithmetic bug upstream).

Every value this pipeline produces is an algebraic integer, so elements
live in Z[zeta]: coordinates are plain Python ints.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistencyError

DEGREE = 10  # [Q(zeta_11) : Q]
ORDER = 11


def _cyc(coords: tuple[int, ...]) -> "CycNum":
    """A CycNum from DEGREE int coordinates, without re-validation."""
    out = object.__new__(CycNum)
    out.coords = coords
    return out


class CycNum:
    """An element of Z[zeta_11] in the power basis, int coordinates c0..c9."""

    __slots__ = ("coords",)

    def __init__(self, coords=()):
        coords = tuple(coords)
        if any(not isinstance(c, int) for c in coords):
            raise TypeError("CycNum coordinates must be ints")
        if len(coords) > DEGREE:
            raise ValueError(f"at most {DEGREE} coordinates, got {len(coords)}")
        self.coords = coords + (0,) * (DEGREE - len(coords))

    @staticmethod
    def _coerce(other) -> "CycNum | None":
        if isinstance(other, CycNum):
            return other
        if isinstance(other, int):
            return CycNum((other,))
        return None

    def __add__(self, other) -> "CycNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _cyc(tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other) -> "CycNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _cyc(tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other) -> "CycNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CycNum":
        return _cyc(tuple(-a for a in self.coords))

    def __mul__(self, other) -> "CycNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # exponents are added mod 11 (z^11 = 1), then z^10 is eliminated
        folded = [0] * ORDER
        for i, x in enumerate(self.coords):
            if x:
                for j, y in enumerate(o.coords):
                    if y:
                        folded[(i + j) % ORDER] += x * y
        top = folded[DEGREE]
        return _cyc(tuple(folded[i] - top for i in range(DEGREE)))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        return isinstance(o, CycNum) and self.coords == o.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __repr__(self) -> str:
        return f"CycNum({list(self.coords)})"


def galois_apply(s: int, a: CycNum) -> CycNum:
    """Image of a under the field automorphism zeta -> zeta^s, gcd(s, 11) = 1."""
    if s % ORDER == 0:
        raise ValueError("s must be a unit mod 11")
    out = [a.coords[0]] + [0] * (DEGREE - 1)
    tail = 0  # accumulated coefficient mapped onto z^10
    for i in range(1, DEGREE):
        k = (s * i) % ORDER
        if k < DEGREE:
            out[k] += a.coords[i]
        else:
            tail += a.coords[i]
    if tail:
        out = [c - tail for c in out]
    return _cyc(tuple(out))


@dataclass(frozen=True)
class EigenTraces:
    """Relative Frobenius traces a_1 .. a_10 over F_q; a[i-1] is a_i.

    For tallies produced by honest point counts every a_i lies in Z[zeta]
    and a_s = sigma_s(a_1) for each Galois map sigma_s: zeta -> zeta^s
    (equivariant.check_conjugates).
    """

    q: int
    a: tuple[CycNum, ...]

    def __post_init__(self):
        if len(self.a) != DEGREE:
            raise ValueError(f"expected {DEGREE} traces, got {len(self.a)}")

    def galois_permutation(self, s: int) -> tuple[int, ...] | None:
        """Observed index map under zeta -> zeta^s: position i holds j with
        sigma_s(a_{i+1}) = a_{j+1}.  None if some image has no match; when
        traces repeat, the lowest matching index is reported."""
        try:
            return tuple(self.a.index(galois_apply(s, x)) for x in self.a)
        except ValueError:
            return None


def inverse_dft(tr: list[int] | tuple[int, ...], q: int) -> EigenTraces:
    """Solve tr_n = sum_i z^(n i) a_i for a_1..a_10, given all eleven tr_n.

    Raises InconsistencyError if the forced invariant-part trace a_0 differs
    from 2q (a wrong tally) or if any a_i is not in Z[zeta] (an arithmetic
    bug somewhere upstream).
    """
    tr = list(tr)
    if len(tr) != ORDER:
        raise ValueError(f"expected {ORDER} traces, got {len(tr)}")
    if any(not isinstance(t, int) for t in tr):
        raise ValueError("traces must be integers")
    total = sum(tr)
    if total != ORDER * 2 * q:
        raise InconsistencyError(
            f"a_0 = {Fraction(total, ORDER)} != 2q = {2 * q}; the fixed-point tally is inconsistent"
        )
    out = []
    for i in range(1, ORDER):
        # accumulate sum_n tr_n * z^(-n i) in the redundant basis 1..z^10
        acc = [0] * ORDER
        for n in range(ORDER):
            acc[(-n * i) % ORDER] += tr[n]
        coords = [acc[k] - acc[DEGREE] for k in range(DEGREE)]
        if any(c % ORDER for c in coords):
            raise InconsistencyError(
                f"eigenspace trace a_{i} = (1/11)*{coords} is not an algebraic integer"
            )
        out.append(_cyc(tuple(c // ORDER for c in coords)))
    return EigenTraces(q=q, a=tuple(out))
