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
Tr(t) = t, so the first pass is the root search, and N(a) = a, so the
norms skip every a whose shifts would repeat values already tried.  The
values come in a fixed order instead of being sampled, so factorizations
are reproducible.

A polynomial in F_p[t] is a reduced tuple of ints: constant term first,
every entry in 0 .. p - 1, no trailing zero, () for zero, so equality is
tuple equality.  `reduced` brings any integer coefficients to that form.
The functions here take p as their last argument.  `_divmod` is the one
F_p[t] division loop; the gcd, the modular powers `_pow_mod` (square-and-
multiply over `poly_mul` and that loop), `multiplicity`, the factorization
and the products and powers of F_q = F_p[u]/(m) (ffield) call it.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterator, Sequence

from .errors import InconsistencyError
from .polynomials import poly_mul, poly_str

# Shifts c tried on each value v, a bound independent of p; for p <= SHIFTS
# they run through all of F_p and gcd(f, v + c) separates every value of v
# without a power.
SHIFTS = 16


def reduced(a: Sequence[int], p: int) -> tuple[int, ...]:
    """a in F_p[t]: every coefficient mod p, trailing zeros stripped."""
    out = [c % p for c in a]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(quotient, remainder) of a by b in F_p[t], both reduced.

    b is reduced and nonzero; a may hold unreduced ints, such as a product
    from poly_mul, if its leading coefficient is nonzero mod p.  Each step
    reduces the coefficient it clears, and stores the quotient coefficient
    in its slot, since step `top` writes only below `top`."""
    db = len(b) - 1
    low = b[:db]
    inv = pow(b[-1], p - 2, p)
    rem = list(a)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top] % p
        if c:
            if inv != 1:
                c = c * inv % p
            for i, y in enumerate(low, top - db):
                rem[i] -= c * y
        rem[top] = c
    return tuple(rem[db:]), reduced(rem[:db], p)


def _add(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """a + b in F_p[t]; either may hold unreduced ints."""
    return reduced([x + y for x, y in zip_longest(a, b, fillvalue=0)], p)


def _monic(a: Sequence[int], p: int) -> tuple[int, ...]:
    """Nonzero reduced a scaled to leading coefficient 1."""
    inv = pow(a[-1], p - 2, p)
    return tuple(a) if inv == 1 else tuple([c * inv % p for c in a])


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """The monic gcd of a and b in F_p[t] (() when both are zero), by Euclid
    with each divisor made monic."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else ()


def _pow_mod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> tuple[int, ...]:
    """a^e modulo monic mod in F_p[t], for e >= 0, by square-and-multiply."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    x = _divmod(a, mod, p)[1]
    result = (1,)
    while e:
        if e & 1:
            result = _divmod(poly_mul(result, x), mod, p)[1]
        e >>= 1
        if e:
            x = _divmod(poly_mul(x, x), mod, p)[1]
    return result


def derivative(f: Sequence[int], p: int) -> tuple[int, ...]:
    """The formal derivative f' in F_p[t]."""
    return reduced([n * c for n, c in enumerate(f)][1:], p)


def multiplicity(g: Sequence[int], f: Sequence[int], p: int) -> int:
    """Largest m with g^m dividing f in F_p[t] (f nonzero, g non-constant)."""
    if not f or len(g) < 2:
        raise ValueError(f"multiplicity of {poly_str(g, 't')} in {poly_str(f, 't')} is undefined")
    m = 0
    while True:
        quo, rem = _divmod(f, g, p)
        if rem:
            return m
        m += 1
        f = quo


def _distinct_degree(
    f: tuple[int, ...], p: int
) -> tuple[list[tuple[tuple[int, ...], int, int]], list[tuple[int, ...]]]:
    """f monic -> ([(product of the distinct irreducible factors of degree d
    and multiplicity m, d, m)], frobenius), where frobenius[j] is t^(p^j)
    modulo a multiple of every product of degree-d factors with d > j.

    Every power of a factor found at degree d is divided out: gd_k, the gcd
    of gd_(k-1) with the quotient, is the product of the degree-d factors of
    multiplicity at least k, so gd_k // gd_(k+1) is those of multiplicity k.
    f keeps no factor of degree below d, and a remainder of degree below 2d
    is irreducible of multiplicity 1."""
    out = []
    g = _divmod((0, 1), f, p)[1]
    frobenius = [g]
    d = 1
    while len(f) > 2 * d:
        g = _pow_mod(g, p, f, p)
        frobenius.append(g)
        gd = _gcd(f, _add(g, (0, -1), p), p)
        if len(gd) > 1:
            m = 0
            while len(gd) > 1:
                f = _divmod(f, gd, p)[0]
                m += 1
                next_gd = _gcd(f, gd, p)
                if len(next_gd) < len(gd):
                    out.append((_divmod(gd, next_gd, p)[0], d, m))
                gd = next_gd
            g = _divmod(g, f, p)[1]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1, 1))
    return out, frobenius


def is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Whether reduced f is monic and irreducible over F_p."""
    return bool(f) and f[-1] == 1 and _distinct_degree(f, p)[0] == [(f, len(f) - 1, 1)]


def digits(index: int, p: int, r: int) -> tuple[int, ...]:
    """The r base-p digits of index, least significant first.

    They are the lower coefficients of the index-th monic polynomial of
    degree r in monic_polys; reduced, they are element `index` of F_(p^r)
    (ffield.FieldSpec.coords_at)."""
    coords = []
    for _ in range(r):
        coords.append(index % p)
        index //= p
    return tuple(coords)


def monic_polys(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """The coefficient tuples of the monic polynomials of one degree over
    F_p, in base-p order of their lower coefficients (the constant term is
    the least significant digit)."""
    for m in range(p**degree):
        yield digits(m, p, degree) + (1,)


def _separating_values(
    f: tuple[int, ...], d: int, frobenius: list[tuple[int, ...]], p: int
) -> Iterator[tuple[int, ...]]:
    """Tr(t), then N(a) for the monic a of degree 1 .. deg f in base-p order;
    each takes one value in F_p on every degree-d irreducible factor of f.
    N(t), the first norm, is the product of the Frobenius powers mod f.

    At d = 1, N(a) = a and Tr(t) = t, and `_refine` tries v + c for every
    shift c < SHIFTS, so only the a whose constant term is a multiple of
    SHIFTS, t excepted, add values: the others would repeat shifts already
    tried.  Their shifts still reach every monic a of degree deg f."""
    trace = frobenius[0]
    for g in frobenius[1:d]:
        trace = _add(trace, g, p)
    yield trace
    norm = (p**d - 1) // (p - 1)
    for degree in range(1, len(f)):
        for a in monic_polys(p, degree):
            if d == 1 and (a[0] % SHIFTS or a == (0, 1)):
                continue
            if a == (0, 1):
                n = _divmod(a, f, p)[1]
                for g in frobenius[1:d]:
                    n = _divmod(poly_mul(n, g), f, p)[1]
                yield n
            else:
                yield _pow_mod(a, norm, f, p)


def _refine(
    parts: list[tuple[int, ...]], d: int, v: tuple[int, ...], p: int
) -> list[tuple[int, ...]]:
    """Split the parts by the values in F_p that v takes on their degree-d
    factors: by gcd(part, v + c), or for p > SHIFTS by the quadratic
    character of v + c, for each shift c < min(p, SHIFTS)."""
    for c in range(min(p, SHIFTS)):
        shifted = _add(v, (c,), p)
        refined = []
        for part in parts:
            if len(part) > d + 1:
                w = _divmod(shifted, part, p)[1]
                if len(w) > 1 and p > SHIFTS:
                    w = _add(_pow_mod(w, (p - 1) // 2, part, p), (-1,), p)
                if len(w) > 1:
                    # the first step of Euclid's gcd(part, w); when monic w
                    # divides part, w and its quotient are the split
                    w = _monic(w, p)
                    quo, rem = _divmod(part, w, p)
                    if not rem:
                        refined += [w, quo]
                        continue
                    g = _gcd(w, rem, p)
                    if len(g) > 1:
                        refined += [g, _divmod(part, g, p)[0]]
                        continue
            refined.append(part)
        parts = refined
    return parts


def _equal_degree(
    f: tuple[int, ...], d: int, frobenius: list[tuple[int, ...]], p: int
) -> list[tuple[int, ...]]:
    """Split monic squarefree f, all of whose irreducible factors have degree d.

    frobenius[j] is t^(p^j) modulo a multiple of f, for j < d."""
    parts = [f]
    values = _separating_values(f, d, frobenius, p)
    while any(len(part) > d + 1 for part in parts):
        v = next(values, None)
        if v is None:
            # every residue class mod f has a monic representative of degree
            # deg f, so some N(a) separates any two factors (for p > SHIFTS,
            # by its quadratic character): running out is an arithmetic bug
            raise InconsistencyError(
                f"equal-degree splitting found no separating value for {poly_str(f, 't')}"
            )
        parts = _refine(parts, d, v, p)
    return parts


def factor(f: tuple[int, ...], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factor nonzero reduced f into monic irreducibles: [(g, multiplicity)],
    sorted by degree, then by coefficients.

    Each (product, d, m) of the distinct-degree pass splits into its degree-d
    factors, all of multiplicity m.  The unit leading coefficient is
    discarded; callers that need it read f[-1].
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    products, frobenius = _distinct_degree(_monic(f, p), p)
    pieces = sorted(
        (len(irr), irr, m)
        for prod, d, m in products
        for irr in _equal_degree(prod, d, frobenius, p)
    )
    return [(irr, m) for _, irr, m in pieces]
