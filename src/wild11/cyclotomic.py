"""Exact arithmetic in Z[zeta_11] and recovery of eigenspace traces.

An element of Z[zeta_11] is a tuple of DEGREE = 10 ints, its coordinates
in the power basis 1, z, ..., z^9 of the degree-10 cyclotomic field, with
z a fixed primitive 11th root of unity; z^10 is eliminated through
z^10 = -(1 + z + ... + z^9).  This representation is unique, so equality
is tuple equality.  Sums are coordinate-wise; the power basis itself is
known only to this module: the product (:func:`cyc_mul`), the power-sum
traces of a quadratic (:func:`power_sum_traces`), the Galois action
(:func:`galois_apply`) and the DFT inversion below, which builds the
elements.

:func:`power_sum_traces` runs a whole recurrence on plain ints by
Kronecker substitution.  Z[z]/(z^11 - 1) maps onto Z[zeta] by z -> zeta,
and onto Z/N, N = 2^(11 w) - 1, by z -> 2^w, since 2^(11 w) = 1 mod N.  An
element sum_i x_i z^i (i = 0 .. 10) packs to the integer sum_i x_i 2^(w i)
mod N, so each product in the recurrence is one integer product.  While
every |x_i| < 2^(w - 2), the balanced residue mod N is that sum itself,
so its low w bits give x_0, its residue mod 2^w - 1 gives x(1) = sum_i x_i,
and the trace to Q is 11 x_0 - x(1).  The width w is fixed before the
recurrence from a bound on the l1 norm of every power sum, which holds
because ||x y||_1 <= ||x||_1 ||y||_1 for cyclic products.

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

from collections import namedtuple

from .errors import InconsistencyError
from .polynomials import poly_mul

DEGREE = 10  # [Q(zeta_11) : Q]
ORDER = 11


def cyc_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product a * b in Z[zeta]: poly_mul's product in Z[T], of degree 18,
    with z^11 = 1 folding degree 11 + i onto i, then z^10 eliminated."""
    prod = poly_mul(a, b)
    top = prod[DEGREE]
    # degrees 19 and 20 do not occur, so coordinates 8 and 9 receive no fold
    return tuple(x + y - top for x, y in zip(prod, prod[ORDER:] + (0, 0)))


def power_sum_traces(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """S_k = Tr_{Q(zeta)/Q}(alpha^k + beta^k) for k = 0 .. 20, where alpha and
    beta are the roots of T^2 - a T + b with a, b in Z[zeta].

    s_k = alpha^k + beta^k obeys s_k = a s_(k-1) - b s_(k-2) with s_0 = 2 and
    s_1 = a.  It runs in Z[z]/(z^11 - 1), a and b lifted with a z^10
    coordinate of 0, packed into Z/N with z = 2^w (see the module
    docstring).  L_0 = 2, L_1 = ||a||_1, L_k = ||a||_1 L_(k-1) + ||b||_1
    L_(k-2) bounds ||s_k||_1; L may shrink (a = 0), so w comes from the
    largest L_k, with two spare bits for the balanced digits."""
    n = 2 * DEGREE
    norm_a, norm_b = sum(map(abs, a)), sum(map(abs, b))
    bound = [2, norm_a]
    for _ in range(n - 1):
        bound.append(norm_a * bound[-1] + norm_b * bound[-2])
    w = max(bound).bit_length() + 2
    bits = ORDER * w
    modulus = (1 << bits) - 1  # N; 2^bits = 1 mod N
    digit = (1 << w) - 1  # divides N, and z = 2^w is 1 mod it
    half_w, half_d = 1 << (w - 1), digit >> 1
    pack_a, pack_b = (sum(c << (w * i) for i, c in enumerate(x)) % modulus for x in (a, b))
    s = [2, pack_a]
    for _ in range(n - 1):
        x = pack_a * s[-1] - pack_b * s[-2]
        # two folds by 2^bits = 1 bring |x| < N (N + 4) into [-2, N + 2]
        x = (x & modulus) + (x >> bits)
        s.append((x & modulus) + (x >> bits))
    traces = []
    for v in s:
        v = v - modulus if v > modulus >> 1 else v  # the balanced residue
        x_0 = ((v + half_w) & digit) - half_w
        x_at_1 = (v + half_d) % digit - half_d
        traces.append(ORDER * x_0 - x_at_1)
    return traces


def galois_apply(s: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a under the field automorphism zeta -> zeta^s, gcd(s, 11) = 1."""
    if s % ORDER == 0:
        raise ValueError("s must be a unit mod 11")
    # z^i goes to z^(s i mod 11), then z^10 is eliminated
    out = [a[0]] + [0] * DEGREE
    for i in range(1, DEGREE):
        out[(s * i) % ORDER] += a[i]
    top = out[DEGREE]
    return tuple(out[i] - top for i in range(DEGREE))


class EigenTraces(namedtuple("EigenTraces", ("q", "a"))):
    """Relative Frobenius traces a_1 .. a_10 over F_q; a[i-1] is a_i.

    Each a_i is an element of Z[zeta], a tuple of exactly 10 ints; anything
    else is refused here, since a short tuple would mis-multiply.  For
    tallies produced by honest point counts a_s = sigma_s(a_1) for each
    Galois map sigma_s: zeta -> zeta^s (equivariant.check_conjugates).
    """

    __slots__ = ()
    q: int
    a: tuple[tuple[int, ...], ...]

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.a) != DEGREE:
            raise ValueError(f"expected {DEGREE} traces, got {len(self.a)}")
        for x in self.a:
            if not isinstance(x, tuple) or any(not isinstance(c, int) for c in x):
                raise TypeError(f"an element of Z[zeta] is a tuple of ints, got {x!r}")
            if len(x) != DEGREE:
                raise ValueError(f"an element of Z[zeta] has {DEGREE} coordinates, got {len(x)}")
        return self

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
        # a_0 = total / ORDER in lowest terms: ORDER is prime
        a_0 = str(total // ORDER) if total % ORDER == 0 else f"{total}/{ORDER}"
        raise InconsistencyError(
            f"a_0 = {a_0} != 2q = {2 * q}; the fixed-point tally is inconsistent"
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
        out.append(tuple(c // ORDER for c in coords))
    return EigenTraces(q=q, a=tuple(out))
