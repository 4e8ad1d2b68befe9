"""Weierstrass models of the three elliptic K3 families and exact point counts.

The families, all fibered over the t-line:

* epsilon kind:  y^2 = x^3 + e*x^2 + t^11 - t
* gamma kind:    y^2 = x^3 + g*x  + t^11 - t
* uniform kind:  y^2 + x*y = x^3 + t^11

The place t = infinity needs no second chart.  At s = 1/t the K3
normalization x = X/s^4, y = Y/s^6 sends a_i(t) to s^(2i) * a_i(1/s), a
polynomial because of the degree bounds deg a_i <= 2i.  c4 and Delta are
isobaric of weights 4 and 12 in the a_i (a_i has weight i), so in that chart
they are s^8 * c4(1/s) and s^24 * Delta(1/s): v_inf(c4) = 8 - deg c4 and
v_inf(Delta) = 24 - deg Delta, and the fiber at s = 0 is the cubic whose
coefficients are the top coefficients, of t^4, t^8 and t^12, of the
completed A2, A4 and A6.

The epsilon and gamma families see t only through s = t^11 - t, which the
paper's automorphism t -> t + 1 fixes.  At p = 11 their c4 and Delta are
polynomials in s of degree at most 2: epsilon e has c4 = 16 e^2 and
Delta = -16 s (4 e^3 + 27 s), gamma g has c4 = -48 g and
Delta = -16 (4 g^3 + 27 s^2).  So singular_places factors Delta on the
s-line and lifts each place to the t-line by Artin-Schreier theory, in
closed form where it can, instead of factoring Delta(t) of degree 22 or 24.

Point counting is the independent oracle for everything downstream, so it
shares no table and no code with the equivariant tally: each fiber adds
1 + q + sum_x chi(cubic in x) points (odd characteristic; the substitution
y -> y - (a1*x + a3)/2 removes the crossed terms first).  Counts are exact
integers, and identical no matter how the enumeration is partitioned.
The sum depends on (a2, a4, a6) only up to scaling: x = lambda X gives
sum_x chi(x^3 + a2 x^2 + a4 x + a6) = chi(lambda) *
sum_X chi(X^3 + (a2/lambda) X^2 + (a4/lambda^2) X + a6/lambda^3).  With
lambda = g^k, for g the generator of F_q^* below, chi(g^k) = (-1)^k, and
k puts the triple on its class representative: a2 = 1 if a2 != 0, else
a4 in {0, 1, g}.  So one x-part serves every fiber of its class, at most
q + 3 of them per field.  surface_count works on element
indices: the cubic is completed once, A2, A4 and A6 are evaluated once per
closed point of the t-line (at t = 0 and at one t per Frobenius orbit of
F_q^*) through log/exp tables, and each fiber's character sum is read from
bitsets.  The distinct values w of the x-part x^3 + A2 x^2 + A4 x are the
bits of one int per preimage count n (at most three ints), set at their
carry-free packed positions, so adding A6 to every value is one shift, and
the nonzero squares among the sums are one AND and one popcount against the
bitset of squares over packed sums.  The sum of chi over every x is then
2S - q + n(-A6), where S is the number of x whose sum is a nonzero square
and n(-A6) the number with w(x) = -A6, read from the preimage counts by
element.  Those tables, the Frobenius map, the cubes x^3, the orbits of
F_q^* and the squares bitset are built once per field here (_field_tables),
from FieldSpec's indices; the two tables over packed sums, the unpacking
and the character classes, are the element-indexed tables widened by slices
one base-p digit at a time.  The value masks and preimage counts come from
enumerating every x once per class of (A2, A4), starting from the cubes.
Every build is linear in its table.  One table of coefficient triples covers
P^1(F_q): t = 0, one t per orbit of F_q^*, and the fiber at infinity, the
cubic of those top coefficients.  It counts one fiber per Frobenius orbit:
x -> x^p is an automorphism of F_q and A_i(t^p) = A_i(t)^p, so the d fibers
over an orbit of size d are conjugate, each key is weighted by its orbit's
size, and the fibers with coefficients (a2, a4, a6) and (a2^p, a4^p, a6^p)
have equal counts; each orbit of triples is counted once, on its least
triple of indices.

Counting a Weierstrass model only counts the smooth K3 correctly when all
singular fibers are irreducible (nodal or cuspidal cubics); surface_count
verifies that from the discriminant without factoring it (a squarefree test
on gcd(Delta, Delta'), on the line singular_places reads Delta on, so in s
for both wild families at p = 11), names the first reducible fiber from the
factorisation only when it refuses, and refuses characteristics 2 and 3
outright, where that test is invalid.  The count costs a shift, one AND
and one popcount of (2p - 1)^r-bit ints per mask per distinct Frobenius
orbit of fibers, still quadratic in q but word-parallel, so fields larger
than 11^4 are refused up front (COUNT_Q_LIMIT).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import CapabilityError, InconsistencyError, ReducibleFiberError
from .ffield import FieldSpec, is_prime
from .fppoly import _add, _divmod, _gcd, derivative, factor, multiplicity, reduced
from .polynomials import poly_mul, poly_str, prime_divisors

KINDS = ("epsilon", "gamma", "uniform")

# surface_count evaluates the cubic once per closed point of the t-line and
# counts one fiber per Frobenius orbit, each by at most three shifted masks of
# (2p - 1)^r bits against the squares bitset.  Near the limit (Python 3.11,
# one core of a 2-core x86 host, epsilon 1 in a fresh process, tables
# included, medians of 10 runs) a count at q = 11^4 (3696 evaluation points,
# 1331 distinct fibers in 336 orbits, masks of 21^4 bits) takes 35 ms,
# 11-17 ms of it the tables, and at the prime 14639 (9255 distinct fibers,
# Frobenius the identity) 99 ms.  At 31^4 the tables would hold
# 61^4 = 1.4e7 packed sums, and about 230000 orbits at 1.3 ms of bitset work
# per mask would take a quarter of an hour.
COUNT_Q_LIMIT = 11**4

# degree bounds deg a_i <= 2i that keep the fibration K3 (and t = infinity in
# the top coefficients)
_DEGREE_BOUNDS = {"a1": 2, "a2": 4, "a3": 6, "a4": 8, "a6": 12}

# the place t = infinity (s = 0 at s = 1/t), as FiberPlace.location_str prints it
INFINITY = "infinity"


class WeierstrassModel(namedtuple("WeierstrassModel", ("p", "kind", "param", "a1", "a2", "a3", "a4", "a6"))):
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6, each a_i a reduced tuple
    in F_p[t]; the point count reads its entries as element indices."""

    __slots__ = ()
    p: int
    kind: str
    param: int | None
    a1: tuple[int, ...]
    a2: tuple[int, ...]
    a3: tuple[int, ...]
    a4: tuple[int, ...]
    a6: tuple[int, ...]

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, bound in _DEGREE_BOUNDS.items():
            poly = getattr(self, name)
            if not isinstance(poly, tuple) or any(not isinstance(c, int) for c in poly):
                raise TypeError(f"a coefficient in F_p[t] is a tuple of ints, got {name} = {poly!r}")
            if poly != reduced(poly, self.p):
                raise ValueError(
                    f"{name} = {poly!r} is not reduced mod {self.p}: "
                    f"entries lie in 0..{self.p - 1}, with no trailing zero"
                )
            if len(poly) - 1 > bound:
                raise ValueError(f"deg {name} = {len(poly) - 1} exceeds the K3 bound {bound}")
        return self


class FiberPlace(namedtuple("FiberPlace", ("location", "degree", "vdelta", "vc4"))):
    """A closed point of the t-line where the discriminant vanishes.

    `location` is an int residue for a rational point, the monic irreducible
    (a reduced tuple) for a closed point of higher degree, or INFINITY.
    `vc4` is None when c4 vanishes identically (the j = 0 families).
    """

    __slots__ = ()
    location: object
    degree: int
    vdelta: int
    vc4: int | None

    def location_str(self) -> str:
        if self.location == INFINITY:
            return INFINITY
        if isinstance(self.location, int):
            return f"t={self.location}"
        return poly_str(self.location, "t")


def make_model(kind: str, param: int | None, p: int) -> WeierstrassModel:
    """Build one of the three families over F_p; param is reduced mod p."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    # t^11 - t and t^11
    t11_minus_t = (0, p - 1) + (0,) * 9 + (1,)
    t11 = (0,) * 11 + (1,)
    if kind == "uniform":
        param = None
        a1, a2, a3, a4, a6 = (1,), (), (), (), t11
    else:
        if param is None:
            raise ValueError(f"kind {kind!r} requires a parameter in F_{p}")
        param = param % p
        constant = reduced((param,), p)
        if kind == "epsilon":
            a1, a2, a3, a4, a6 = (), constant, (), (), t11_minus_t
        else:
            a1, a2, a3, a4, a6 = (), (), (), constant, t11_minus_t
    return WeierstrassModel(p=p, kind=kind, param=param, a1=a1, a2=a2, a3=a3, a4=a4, a6=a6)


def _combine(*terms: tuple[int, Sequence[int]]) -> list[int]:
    """sum k * a over the (k, a) terms, in Z[t]."""
    out = [0] * max(len(a) for _, a in terms)
    for k, a in terms:
        for i, c in enumerate(a):
            out[i] += k * c
    return out


def _b_invariants(model: WeierstrassModel) -> tuple[list[int], list[int], list[int]]:
    """b2 = a1^2 + 4 a2, b4 = 2 a4 + a1 a3 and b6 = a3^2 + 4 a6, in Z[t]."""
    a1, a3 = model.a1, model.a3
    b2 = _combine((1, poly_mul(a1, a1)), (4, model.a2))
    b4 = _combine((2, model.a4), (1, poly_mul(a1, a3)))
    b6 = _combine((1, poly_mul(a3, a3)), (4, model.a6))
    return b2, b4, b6


def c4_delta(model: WeierstrassModel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Standard covariants c4 and Delta of the model, in F_p[t].

    The b_i, c4 and Delta are integer combinations of products of the
    coefficient tuples, taken in Z[t] and reduced mod p once."""
    b2, b4, b6 = _b_invariants(model)
    # 4 b8 = b2 b6 - b4^2 holds identically over Z[a_i], so the division is exact
    b8 = [c // 4 for c in _combine((1, poly_mul(b2, b6)), (-1, poly_mul(b4, b4)))]
    b2b2 = poly_mul(b2, b2)
    c4 = _combine((1, b2b2), (-24, b4))
    delta = _combine(
        (-1, poly_mul(b2b2, b8)),
        (-8, poly_mul(b4, poly_mul(b4, b4))),
        (-27, poly_mul(b6, b6)),
        (9, poly_mul(b2, poly_mul(b4, b6))),
    )
    return reduced(c4, model.p), reduced(delta, model.p)


def _covariants_and_infinity(
    model: WeierstrassModel,
) -> tuple[tuple[int, ...], tuple[int, ...], FiberPlace | None, bool]:
    """c4, Delta, the place t = infinity (None when Delta does not vanish
    there) and whether c4 and Delta are read on the line s = t^p - t, which
    they are when the model lies on it; refuses Delta = 0.  The valuations
    at infinity are read off the degrees, p times those in s on that line."""
    on_s = _on_artin_schreier_line(model)
    c4, delta = c4_delta(model if on_s is None else on_s)
    if not delta:
        raise ValueError("discriminant vanishes identically; the model is not elliptic")
    e = 1 if on_s is None else model.p
    # v_inf(Delta) = 24 - deg Delta and v_inf(c4) = 8 - deg c4, degrees in t
    vdelta = 24 - e * (len(delta) - 1)
    infinity = None if not vdelta else FiberPlace(INFINITY, 1, vdelta, 8 - e * (len(c4) - 1) if c4 else None)
    return c4, delta, infinity, on_s is not None


def _artin_schreier(p: int) -> tuple[int, ...]:
    """s = t^p - t in F_p[t]."""
    return (0, p - 1) + (0,) * (p - 2) + (1,)


def _on_artin_schreier_line(model: WeierstrassModel) -> WeierstrassModel | None:
    """The model with each a_i(t) written as a polynomial in s = t^p - t, or
    None when some a_i is not one.

    The digits of a_i in base s are the remainders of repeated division by
    s; a_i lies in F_p[s] iff every digit is constant.  Beyond the degree
    bound 12 only constants lie in F_p[s], and those pull back the same
    along either line, so for p > 12 s is never built."""
    p = model.p
    if p > _DEGREE_BOUNDS["a6"]:
        return None
    s = _artin_schreier(p)
    on_s = {}
    for name in _DEGREE_BOUNDS:
        poly, digits = getattr(model, name), []
        while poly:
            poly, digit = _divmod(poly, s, p)
            if len(digit) > 1:
                return None
            digits.append(digit[0] if digit else 0)
        on_s[name] = tuple(digits)
    return model._replace(**on_s)


def _artin_schreier_lift(g: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """The monic irreducible factors in F_p[t] of g(t^p - t), for g monic
    irreducible in F_p[s]: the places of the t-line over the place g of the
    s-line, by the rules in singular_places."""
    k = len(g) - 1
    if not g[-2] and k == 1:
        return [(-c % p, 1) for c in range(p)]
    if not g[-2] and k == 2 and p > 2:
        quarter = g[0] * pow(4, p - 2, p)
        return [((c * c + quarter) % p, -2 * c % p, 1) for c in range(p)]
    s = _artin_schreier(p)
    lifted: tuple[int, ...] = ()
    for c in reversed(g):
        lifted = _add(poly_mul(lifted, s), (c,), p)
    if g[-2]:
        return [lifted]
    return [h for h, _ in factor(lifted, p)]


def singular_places(model: WeierstrassModel) -> list[FiberPlace]:
    """All places of P^1 where Delta vanishes, with (v(Delta), v(c4)) data.

    Closed points of degree > 1 appear once, carrying their degree.  The
    place at infinity comes first, its valuations read off the degrees, and
    the finite places follow in factor's order, by degree, then by
    coefficients.

    When every a_i lies in F_p[s] for s = t^p - t (both wild families at
    p = 11), so do c4 and Delta, and the places are found on the s-line,
    where Delta has degree at most 24/p, then lifted to the t-line.  The
    cover t -> s has derivative -1, so it is etale over the affine line: a
    place over g carries the v(Delta) and v(c4) of g.  For g monic
    irreducible of degree k with a root s0, the trace of s0 from F_(p^k)
    to F_p is -g_(k-1), read off its coefficients, and by Artin-Schreier
    t^p - t = s0 is irreducible over F_(p^k) iff that trace is nonzero:
    then g(t^p - t) is one place of degree kp.  Otherwise the p roots
    t0 + c, c in F_p, of t^p - t = s0 lie in F_(p^k), and the p places over
    g have degree k: for k = 1 (s0 = 0) the rational places t = c, and for
    k = 2 and odd p, where s0^p = -s0 makes t0 = -s0/2 a root, the
    (t - c)^2 - s0^2/4 = (t - c)^2 + g_0/4.  Any other case factors
    g(t^p - t).  Models off the s-line have the places of Delta(t) itself."""
    p = model.p
    c4, delta, infinity, on_s = _covariants_and_infinity(model)
    finite = []
    for g, mult in factor(delta, p):
        vc4 = multiplicity(g, c4, p) if c4 else None
        finite += [(h, mult, vc4) for h in (_artin_schreier_lift(g, p) if on_s else [g])]
    finite.sort(key=lambda place: (len(place[0]), place[0]))
    places = [] if infinity is None else [infinity]
    for h, mult, vc4 in finite:
        location: object = -h[0] % p if len(h) == 2 else h
        places.append(FiberPlace(location, len(h) - 1, mult, vc4))
    return places


def _is_irreducible_fiber(place: FiberPlace) -> bool:
    # v(Delta) = 1: nodal cubic; v(Delta) = 2 with additive reduction: cuspidal cubic
    if place.vdelta == 1:
        return True
    return place.vdelta == 2 and (place.vc4 is None or place.vc4 >= 1)


def _every_fiber_irreducible(model: WeierstrassModel) -> bool:
    """Whether every singular fiber is irreducible, for odd p, without factoring Delta.

    Delta is read on the line singular_places reads it on: in s = t^p - t
    when the model lies there, else in t.  The cover t -> s is etale over
    the affine line, so the places over a factor of Delta(s) of multiplicity
    m have v(Delta) = m, and c4 vanishes there iff it vanishes at the
    factor.  On that line, Yun's first step: an irreducible factor of
    multiplicity m divides g = gcd(Delta, Delta') exactly m - 1 times, or m
    times when p | m.  So the factors of multiplicity 1 and 2 are those that
    divide g at most once: every finite fiber is irreducible iff g is
    squarefree (gcd(g, g') = 1, which fails for a nonconstant g with
    g' = 0) and the double factors, those of g, all divide c4 or c4
    vanishes identically."""
    p = model.p
    c4, delta, infinity, _ = _covariants_and_infinity(model)
    if infinity is not None and not _is_irreducible_fiber(infinity):
        return False
    g = _gcd(delta, derivative(delta, p), p)
    if len(_gcd(g, derivative(g, p), p)) > 1:
        return False
    return not c4 or not _divmod(c4, g, p)[1]


def _completed_cubic(model: WeierstrassModel) -> tuple[tuple[int, ...], ...]:
    """(A2, A4, A6) = (b2/4, b4/2, b6/4) mod p (odd p): y^2 = x^3 + A2 x^2 +
    A4 x + A6 after completing the square in y removes a1 and a3."""
    p = model.p
    inv2 = pow(2, p - 2, p)
    inv4 = inv2 * inv2
    b2, b4, b6 = _b_invariants(model)
    return tuple(reduced([k * c for c in b], p) for k, b in ((inv4, b2), (inv2, b4), (inv4, b6)))


# _DIGITS[c] translates the byte c to "1" and every other byte to "0"; the
# classes read by _bits are 1 (a square) and preimage counts 1 .. 3
_DIGITS = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(4)]


def _bits(classes: bytes | bytearray, c: int) -> int:
    """The int whose bit s is set iff classes[s] == c, in linear time: one
    translate to the base-2 digits, most significant first, and one parse."""
    return int(classes[::-1].translate(_DIGITS[c]), 2)


def _widen(seq: list[int] | bytearray, p: int, r: int) -> list[int] | bytearray:
    """seq, indexed by element index, widened to a sequence of its type
    indexed by packed sum: entry s is seq[unpack[s]].

    A packed digit d in 0 .. 2p - 2 reads as d mod p.  So, one base-p digit
    at a time, least significant first, seq is cut into runs of p blocks,
    one block for each value of the digit, and each run is followed by a
    copy of its first p - 1 blocks, for the values p .. 2p - 2.  A block is
    (2p - 1)^j long at digit j, since the lower digits are widened already."""
    block = 1
    for _ in range(r):
        out = seq[:0]
        step = p * block
        for k in range(0, len(seq), step):
            out += seq[k : k + step]
            out += seq[k : k + step - block]
        seq = out
        block *= 2 * p - 1
    return seq


@lru_cache(maxsize=None)  # one entry per field; equal FieldSpecs share it
def _field_tables(spec: FieldSpec) -> tuple:
    """(log, exp, pack, unpack, squares, frob, cubes, orbits): the count's tables for F_q, odd p.

    pack[i] reads the coordinates c_j of element i as digits in base
    2p - 1, sum_j c_j (2p - 1)^j.  A sum of two packed elements has every
    digit below 2p - 1, so it never carries, and unpack, of size
    (2p - 1)^r, maps it to the index of the field sum: unpack[pack[a] +
    pack[b]] is the index of a + b; it is list(range(q)) widened by slices
    (_widen).  exp[k] is the index of g^k for 0 <= k < q - 1 and the first generator g
    of F_q^* in index order, and log[exp[k]] = k; log[0] is -1, since zero
    has no logarithm.  The search for g tests g^((q - 1)/l) != 1 for the
    primes l dividing q - 1, found by trial division, and for r > 1 starts
    at index p, since F_p^* is too small to hold a generator.  squares is
    the quadratic character over packed sums as one bitset: bit
    pack[a] + pack[b] is set iff a + b is a nonzero square, read from the
    logarithm as chi(g^k) = (-1)^k: a class byte per element (1 for a
    nonzero square, 0 for zero and for a nonsquare), widened like unpack
    and read into the int by _bits.  Zero and the nonsquares need no bitset
    of their own: _count_cubic_points counts the zeros from the preimage
    counts and the nonsquares as the rest.  frob[i] is the index of x^p for
    x of index i, exp[p * log x mod (q - 1)], and 0 -> 0.  cubes[k] is the index of
    g^(3k), x^3 at x = g^k.  orbits holds one log per Frobenius orbit of
    F_q^*, as pairs (d, logs), one for each d | r: x -> x^p is k -> p*k
    mod (q - 1) on logs, an orbit of size d lies in F_(p^d)^*, whose logs
    are the multiples of (q - 1)/(p^d - 1), and its least log stands for it.
    At r = 1 every orbit is one element, and logs is range(q - 1).
    """
    p, r, q = spec.p, spec.r, spec.q
    base = 2 * p - 1
    pack = [0]
    for j in range(r):
        # index c * p^j + k packs to c * base^j + pack[k]
        pack = [o + s for o in range(0, p * base**j, base**j) for s in pack]
    unpack = _widen(list(range(q)), p, r)
    # g generates F_q^* iff g^((q-1)/l) != 1 for every prime l dividing q - 1;
    # for r > 1 no element of F_p, of index below p, does
    cofactors = [(q - 1) // ell for ell in prime_divisors(q - 1)]
    g = next(
        spec.coords_at(i)
        for i in range(p if r > 1 else 1, q)
        if all(spec.pow(spec.coords_at(i), c) != (1,) for c in cofactors)
    )
    # x -> x * g is F_p-linear: tabulate it by index one coordinate at a
    # time, adding the multiples of u^j * g by carry-free packed addition;
    # c * (u^j * g) packs to sum_k (c x_k mod p) base^k over its coordinates x_k
    times_g = [0]
    for j in range(r):
        multiples = [0] * p
        for k, x in enumerate(spec.mul(spec.coords_at(p**j), g)):
            step = base**k
            multiples = [m + c * x % p * step for c, m in enumerate(multiples)]
        times_g = [unpack[m + pack[i]] for m in multiples for i in times_g]
    log = [-1] * q
    exp = []
    i = 1
    for k in range(q - 1):
        exp.append(i)
        log[i] = k
        i = times_g[i]
    frob = [0] + [exp[p * k % (q - 1)] for k in log[1:]]
    # the character class of each element, then of each packed sum: 1 for
    # a nonzero square (an even power of g), 0 for zero and a nonsquare
    classes = bytearray(q)
    for i in exp[::2]:
        classes[i] = 1
    classes = _widen(classes, p, r)
    cubes = (exp * 3)[::3]  # entry k is exp[3k mod (q - 1)]
    orbits = []
    for d in range(1, r + 1):
        if r % d == 0:
            # the logs of F_(p^d)^*, less each log below some conjugate and
            # each of smaller degree e | d, its own e-th conjugate
            least = range(0, q - 1, (q - 1) // (p**d - 1))
            for j in range(1, d):
                pj = p**j
                least = [k for k in least if k < k * pj % (q - 1)]
            orbits.append((d, least))
    return log, exp, pack, unpack, _bits(classes, 1), frob, cubes, tuple(orbits)


def _values_at(coeffs: Sequence[int], spec: FieldSpec, logs: Sequence[int], acc: list[int]) -> list[int]:
    """acc[i] plus sum_{n >= 1} coeffs[n] t^n at t = g^logs[i], by index.

    The coefficients are element indices (an F_p coefficient c is index c);
    coeffs[0] is not read, since acc holds what the caller has already
    summed at each t, such as the constant term.  The term c*t^n at t = g^k
    is exp[(log c + n*k) % (q - 1)], and the terms add by carry-free packed
    addition."""
    m = spec.q - 1
    log, exp, pack, unpack, *_ = _field_tables(spec)
    for n, c in enumerate(coeffs[1:], 1):
        if c:
            lc = log[c]
            acc = [unpack[pack[a] + pack[exp[(lc + n * k) % m]]] for a, k in zip(acc, logs)]
    return acc


@lru_cache(maxsize=None)
def _cubic_linear_part(spec: FieldSpec, a2: int, a4: int) -> tuple[tuple[tuple[int, int], ...], bytes]:
    """The values of w(x) = x^3 + a2*x^2 + a4*x over F_q, a2 and a4 given
    by index, as ((n, mask), ...) and preimages: preimages[w], q bytes by
    element index, is the number of x with w(x) = w, and bit pack[w] of
    mask is set for each value w with n preimages, one mask per n >= 1.
    _count_cubic_points asks only for class representatives, a2 = 1 with
    any a4, or a2 = 0 with a4 in {0, 1, g}: at most q + 3 entries per field."""
    _, _, pack, *_, cubes, _ = _field_tables(spec)
    counts = Counter(_values_at((0, a4, a2), spec, range(spec.q - 1), cubes))
    counts[0] += 1  # x = 0
    preimages = bytearray(spec.q)
    packed = bytearray(pack[-1] + 1)  # pack[-1], of index q - 1, is the largest
    for w, n in counts.items():
        preimages[w] = packed[pack[w]] = n
    return tuple((n, _bits(packed, n)) for n in sorted(set(counts.values()))), bytes(preimages)


def _count_cubic_points(spec: FieldSpec, a2: int, a4: int, a6: int) -> int:
    """Projective points of y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q, odd q.

    The coefficients are element indices.  The count is
    1 + q + sum_x chi(x^3 + a2 x^2 + a4 x + a6) over every x.  Substituting
    x = g^k X scales the cubic by g^(3k) and its coefficients to
    (a2 g^-k, a4 g^-2k, a6 g^-3k), so the sum is chi(g^k) = (-1)^k times
    the sum for those coefficients.  k moves the triple to its class
    representative: k = log a2 if a2 != 0 (a2 becomes 1), else
    floor(log a4 / 2) if a4 != 0 (a4 becomes 1 or g), else 0.  For the
    representative, with w(x) = x^3 + a2 x^2 + a4 x, since
    chi(v) = 2 [v a nonzero square] - 1 + [v = 0], the sum is
    2 S - q + n(-a6): S is the number of x with w(x) + a6 a nonzero square
    and n(-a6) the number with w(x) = -a6, one entry of the preimage
    counts.  Packed addition never carries, so shifting the mask of the
    values with n preimages left by pack[a6] gives the packed values
    w + a6, and S sums n times one AND with squares and one popcount per
    mask."""
    log, exp, pack, _, squares, *_ = _field_tables(spec)
    m = spec.q - 1
    k = log[a2] if a2 else log[a4] // 2 if a4 else 0
    a2 = exp[(log[a2] - k) % m] if a2 else 0
    a4 = exp[(log[a4] - 2 * k) % m] if a4 else 0
    a6 = exp[(log[a6] - 3 * k) % m] if a6 else 0
    masks, preimages = _cubic_linear_part(spec, a2, a4)
    # -a6 = a6 * g^(m/2), since g^(m/2) = -1
    chi_sum = preimages[exp[(log[a6] + m // 2) % m] if a6 else 0] - spec.q
    c = pack[a6]
    for n, mask in masks:
        chi_sum += 2 * n * ((mask << c) & squares).bit_count()
    return 1 + spec.q + (-chi_sum if k % 2 else chi_sum)


def surface_count(model: WeierstrassModel, spec: FieldSpec) -> int:
    """#X(F_q): sum of fiber counts over P^1(F_q).

    Valid as the point count of the smooth K3 only when every singular fiber
    is irreducible; refuses with ReducibleFiberError otherwise.  The tame
    (v(c4), v(Delta)) irreducibility test is invalid in characteristics 2
    and 3, which are refused with CapabilityError, as is any q above
    COUNT_Q_LIMIT, before any fiber is examined."""
    if spec.p != model.p:
        raise ValueError(f"field characteristic {spec.p} differs from model characteristic {model.p}")
    if model.p in (2, 3):
        raise CapabilityError(
            f"surface counting needs characteristic > 3: in characteristic {model.p} "
            "the fibers are wildly ramified and the (v(c4), v(Delta)) test does not apply"
        )
    if spec.q > COUNT_Q_LIMIT:
        raise CapabilityError(
            f"surface counting takes O(q^2) field operations; q = {spec.q} exceeds "
            f"the limit {COUNT_Q_LIMIT}"
        )
    if not _every_fiber_irreducible(model):
        # the factorisation names the fiber the squarefree test refused
        for place in singular_places(model):
            if not _is_irreducible_fiber(place):
                vc4 = "infinity" if place.vc4 is None else place.vc4
                raise ReducibleFiberError(
                    f"fiber at {place.location_str()} has v(Delta)={place.vdelta}, "
                    f"v(c4)={vc4}; the Weierstrass count would miss components"
                )
        raise InconsistencyError(
            "the squarefree test found a reducible fiber, but every place of the "
            "factored discriminant has an irreducible fiber"
        )
    completed = _completed_cubic(model)
    *_, frob, _, orbits = _field_tables(spec)
    # the fibers at t = 0 and at t = infinity: the constant terms and the top
    # coefficients (of t^4, t^8 and t^12); an F_p coefficient c is the element index c
    constants = [poly[0] if poly else 0 for poly in completed]
    tops = [poly[w] if len(poly) == w + 1 else 0 for poly, w in zip(completed, (4, 8, 12))]
    keys, weights = [tuple(constants), tuple(tops)], [1, 1]
    # A_i(t^p) = A_i(t)^p, so the d fibers over a Frobenius orbit of size d
    # are conjugate, with equal counts: one t stands for them, weighted d
    for d, logs in orbits:
        values = [_values_at(poly, spec, logs, [c] * len(logs)) for poly, c in zip(completed, constants)]
        fibers = Counter(zip(*values))
        keys += fibers
        weights += [d * n for n in fibers.values()]
    # fibers over different orbits of t may still be conjugate: key each by
    # the least of its conjugates, conjugating one coordinate column at a time
    if spec.r > 1:
        columns = list(zip(*keys))
        conjugates = [keys]
        for _ in range(spec.r - 1):
            columns = [[frob[c] for c in column] for column in columns]
            conjugates.append(zip(*columns))
        keys = list(map(min, *conjugates))
    counts = {key: _count_cubic_points(spec, *key) for key in set(keys)}
    return sum(map(mul, weights, map(counts.__getitem__, keys)))
