"""Slow, independent references for fast paths in wild11.

Each function here computes the same thing as a fast path in the package,
the direct way, and the tests compare the two.  None of them is on any
command's path, so they live beside the tests rather than in the package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, zip_longest

from wild11.cyclotomic import DEGREE, ORDER, EigenTraces
from wild11.errors import CapabilityError, InconsistencyError
from wild11.ffield import FieldSpec
from wild11.fppoly import _add, _divmod, factor, is_irreducible, multiplicity, reduced
from wild11.polynomials import poly_mul, prime_divisors
from wild11.surface import (
    INFINITY,
    FiberPlace,
    WeierstrassModel,
    _completed_cubic,
    _count_cubic_points,
    c4_delta,
)


ZERO = (0,) * DEGREE


def divmod_monic(coeffs, divisor) -> tuple[list[int], list[int]]:
    """Long division in Z[T] by a monic, non-constant divisor (unchecked): (quotient, remainder)."""
    dd = len(divisor) - 1
    rem = list(coeffs)
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top]
        if c:
            base = top - dd
            for i in range(dd):
                rem[base + i] -= c * divisor[i]
    return rem[dd:], rem[:dd]  # step top writes only below top: rem[dd:] is the quotient


@lru_cache(maxsize=None)
def euler_phi(k: int) -> int:
    result = k
    for d in prime_divisors(k):
        result -= result // d
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """The k-th cyclotomic polynomial, by exact division of T^k - 1."""
    num = (-1,) + (0,) * (k - 1) + (1,)
    for d in range(1, k):
        if k % d == 0:
            quo, rem = divmod_monic(num, cyclotomic_poly(d))
            assert not any(rem), (d, num)
            num = tuple(quo)
    return num


def _reduce(coeffs) -> tuple[int, ...]:
    """The class of a polynomial in Z[zeta] = Z[T]/(Phi_11), by long division."""
    _, rem = divmod_monic(coeffs, cyclotomic_poly(ORDER))
    return tuple(rem) + (0,) * (DEGREE - len(rem))


def zeta_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def zeta_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a * b in Z[zeta] as the product in Z[T] reduced mod Phi_11.

    The reference for wild11.cyclotomic.cyc_mul's exponent fold."""
    return _reduce(poly_mul(a, b))


def zeta_power(k: int) -> tuple[int, ...]:
    """zeta^k in the power basis: T^(k mod 11) reduced mod Phi_11."""
    return _reduce((0,) * (k % ORDER) + (1,))


def zeta_trace(a: tuple[int, ...]) -> int:
    """Tr_{Q(zeta)/Q}(a) as the trace of multiplication by a on the basis z^j."""
    return sum(zeta_mul(a, zeta_power(j))[j] for j in range(DEGREE))


def zeta_power_sum_traces(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Tr(alpha^k + beta^k), k = 0 .. 20, for the roots alpha, beta of
    T^2 - a T + b: s_k = a s_(k-1) - b s_(k-2) in Z[zeta], one reduced
    product at a time, and each s_k's trace by zeta_trace.

    The reference for wild11.cyclotomic.power_sum_traces."""
    s = [(2,) + ZERO[1:], a]
    while len(s) <= 2 * DEGREE:
        s.append(tuple(x - y for x, y in zip(zeta_mul(a, s[-1]), zeta_mul(b, s[-2]))))
    return [zeta_trace(x) for x in s]


def zeta_conjugate(s: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """sigma_s(a) = sum_i c_i (zeta^s)^i, by Horner's rule in Z[zeta].

    The reference for wild11.cyclotomic.galois_apply."""
    acc = ZERO
    for c in reversed(a):
        acc = zeta_add(zeta_mul(acc, zeta_power(s)), (c,) + ZERO[1:])
    return acc


def as_int(x: tuple[int, ...]) -> int | None:
    """The integer value if x lies in Z, else None."""
    if any(x[1:]):
        return None
    return x[0]


def sum_as_int(traces: EigenTraces) -> int:
    """a_1 + ... + a_10, which must be an integer."""
    total = ZERO
    for x in traces.a:
        total = zeta_add(total, x)
    value = as_int(total)
    if value is None:
        raise InconsistencyError("sum of eigenspace traces is not rational")
    return value


def forward_dft(traces: EigenTraces) -> list[int]:
    """The integer traces tr_n = 2q + sum_i zeta^(n i) a_i, n = 0 .. 10.

    Exact inverse of wild11.inverse_dft."""
    out = []
    for n in range(ORDER):
        total = (2 * traces.q,) + ZERO[1:]  # a_0 contribution
        for i, a_i in enumerate(traces.a, start=1):
            total = zeta_add(total, zeta_mul(zeta_power(n * i), a_i))
        value = as_int(total)
        if value is None:
            raise InconsistencyError(f"reconstructed tr_{n} = {total} is not an integer")
        out.append(value)
    return out


def expand_eigenspace_product(pairs) -> tuple[int, ...]:
    """Expand prod_i (T^2 - a_i T + b_i) over Q(zeta) and demand Z coefficients.

    The reference for the norm in wild11.assemble_charpoly."""
    poly = [zeta_power(0)]
    for a, b in pairs:
        minus_a = tuple(-x for x in a)
        new = [ZERO] * (len(poly) + 2)
        for i, c in enumerate(poly):
            new[i] = zeta_add(new[i], zeta_mul(c, b))
            new[i + 1] = zeta_add(new[i + 1], zeta_mul(c, minus_a))
            new[i + 2] = zeta_add(new[i + 2], c)
        poly = new
    coeffs = []
    for j, c in enumerate(poly):
        value = as_int(c)
        if value is None:
            raise InconsistencyError(f"coefficient of T^{j} is irrational: {c!r}")
        coeffs.append(value)
    return tuple(coeffs)


def spec_with_modulus(p: int, r: int, modulus: tuple[int, ...]) -> FieldSpec:
    """FieldSpec(p, r) built on the monic irreducible `modulus` instead of the canonical one.

    FieldSpec takes only its canonical modulus.  To check the counting
    layers' cached tables in another basis too (one where Tr(u) != 0),
    this builds the record from its fields, which skips FieldSpec's checks."""
    if not is_irreducible(tuple(modulus), p):
        raise ValueError(f"{modulus} is not a monic irreducible over F_{p}")
    return FieldSpec._make((p, r, p**r, tuple(modulus)))


def monic_polys_of_degree(p: int, degree: int):
    """Monic polynomials of one degree over F_p, in base-p order of the lower
    coefficients: the constant term changes fastest."""
    for lower in product(range(p), repeat=degree):
        yield lower[::-1] + (1,)


def irreducible_by_trial_division(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg f / 2."""
    return all(
        _divmod(f, g, p)[1] for d in range(1, (len(f) - 1) // 2 + 1) for g in monic_polys_of_degree(p, d)
    )


def quadratic_character(spec: FieldSpec, x: tuple[int, ...]) -> int:
    """Euler's criterion: 0 for x = 0, +1 for a nonzero square in F_q, -1
    otherwise (odd p only).  The reference for the point count's packed
    character table (surface._field_tables)."""
    if spec.p == 2:
        raise CapabilityError("quadratic character undefined in characteristic 2")
    if not any(x):
        return 0
    return 1 if spec.pow(x, (spec.q - 1) // 2) == spec.coords_at(1) else -1


def unpack_by_digits(p: int, r: int) -> list[int]:
    """The packed-sum table by the per-entry formula: entry s, whose base-(2p - 1)
    digits are d_j, is the index sum_j (d_j mod p) p^j.  The reference for
    unpack in surface._field_tables, which widens the element table a digit
    at a time."""
    base = 2 * p - 1
    out = []
    for s in range(base**r):
        index = 0
        for j in range(r):
            s, d = divmod(s, base)
            index += (d % p) * p**j
        out.append(index)
    return out


def character_by_squaring(spec: FieldSpec) -> list[int]:
    """The quadratic character by element index (odd p): 0 at zero, 1 at
    the index of each square x * x of a nonzero x, -1 elsewhere."""
    chi = [-1] * spec.q
    chi[0] = 0
    for i in range(1, spec.q):
        x = spec.coords_at(i)
        chi[spec.index_of(spec.mul(x, x))] = 1
    return chi


def multiplicative_order(spec: FieldSpec, index: int) -> int:
    """The order of the nonzero element `index` of F_q^*, by multiplying
    by it until the product is 1."""
    x = spec.coords_at(index)
    power, order = x, 1
    while power != (1,):
        power = spec.mul(power, x)
        order += 1
    return order


def fp_mul(p: int, *factors) -> tuple[int, ...]:
    """The product of the factors in F_p[t], reduced after every step; a
    scalar k is passed as the constant (k,)."""
    out = (1,)
    for f in factors:
        out = reduced(poly_mul(out, f), p)
    return out


def fp_add(p: int, *terms) -> tuple[int, ...]:
    """The sum of the terms in F_p[t], reduced after every step."""
    out = ()
    for a in terms:
        out = reduced([x + y for x, y in zip_longest(out, a, fillvalue=0)], p)
    return out


def c4_delta_reference(model: WeierstrassModel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """c4 and Delta by the textbook formulas in F_p[t], every sum and
    product reduced mod p.  The reference for wild11.c4_delta, which
    combines the coefficient tuples over Z and reduces once."""
    p = model.p
    a1, a2, a3, a4, a6 = model.a1, model.a2, model.a3, model.a4, model.a6
    b2 = fp_add(p, fp_mul(p, a1, a1), fp_mul(p, (4,), a2))
    b4 = fp_add(p, fp_mul(p, (2,), a4), fp_mul(p, a1, a3))
    b6 = fp_add(p, fp_mul(p, a3, a3), fp_mul(p, (4,), a6))
    b8 = fp_add(
        p,
        fp_mul(p, a1, a1, a6),
        fp_mul(p, (4,), a2, a6),
        fp_mul(p, (-1,), a1, a3, a4),
        fp_mul(p, a2, a3, a3),
        fp_mul(p, (-1,), a4, a4),
    )
    c4 = fp_add(p, fp_mul(p, b2, b2), fp_mul(p, (-24,), b4))
    delta = fp_add(
        p,
        fp_mul(p, (-1,), b2, b2, b8),
        fp_mul(p, (-8,), b4, b4, b4),
        fp_mul(p, (-27,), b6, b6),
        fp_mul(p, (9,), b2, b4, b6),
    )
    return c4, delta


def infinity_chart(model: WeierstrassModel) -> WeierstrassModel:
    """The model in the chart s = 1/t: a_i -> s^(2i) * a_i(1/s).

    Each coefficient tuple is padded to length 2i + 1, reversed and
    stripped of its trailing zeros.  The reference for the place at infinity
    that wild11.singular_places and wild11.surface_count read off the top
    coefficients of the affine chart."""

    def reversed_at(i: int) -> tuple[int, ...]:
        poly = getattr(model, f"a{i}")
        return reduced((poly + (0,) * (2 * i + 1 - len(poly)))[::-1], model.p)

    return WeierstrassModel(
        model.p, model.kind, model.param, *(reversed_at(i) for i in (1, 2, 3, 4, 6))
    )


def singular_places_reference(model: WeierstrassModel) -> list[FiberPlace]:
    """The places of P^1 where Delta vanishes, with v(Delta) and v(c4), the
    direct way: the finite ones from factor(Delta(t)) and multiplicities in
    c4(t), the one at infinity as v_s at s = 0 on infinity_chart.  The
    reference for wild11.singular_places, which lifts the places of the
    Artin-Schreier line where the model lies on it."""
    p, s = model.p, (0, 1)
    c4, delta = c4_delta(model)
    c4_s, delta_s = c4_delta(infinity_chart(model))
    v_inf = multiplicity(s, delta_s, p)
    places = [FiberPlace(INFINITY, 1, v_inf, multiplicity(s, c4_s, p) if c4_s else None)] if v_inf else []
    for g, mult in factor(delta, p):
        location = -g[0] % p if len(g) == 2 else g
        places.append(FiberPlace(location, len(g) - 1, mult, multiplicity(g, c4, p) if c4 else None))
    return places


def horner(poly: tuple[int, ...], t: tuple[int, ...], spec: FieldSpec) -> tuple[int, ...]:
    """poly in F_p[t] at the element t of spec, by Horner's rule."""
    acc = ()
    for c in reversed(poly):
        acc = _add(spec.mul(acc, t), (c,), spec.p)
    return acc


@lru_cache(maxsize=None)
def _elements_and_squares(spec: FieldSpec) -> tuple[tuple[tuple[int, ...], ...], frozenset]:
    """Every element of spec as a reduced tuple, in index order, and the
    set of their squares, by FieldSpec.mul; built once per field."""
    elements = tuple([spec.coords_at(i) for i in range(spec.q)])
    return elements, frozenset(spec.mul(x, x) for x in elements)


def cubic_count(spec: FieldSpec, a2: tuple[int, ...], a4: tuple[int, ...], a6: tuple[int, ...]) -> int:
    """Projective F_q-points of y^2 = x^3 + a2 x^2 + a4 x + a6 (odd q), one x at a time.

    The coefficients are F_q elements as tuples.  Each x goes through Horner's
    rule in tuple arithmetic and adds the number of y with y^2 equal to
    the value, read from the set of squares of every element, with no
    change of variable: the reference for wild11.surface._count_cubic_points,
    which scales (a2, a4, a6) to a class representative under x -> lambda x
    and sums the quadratic character over the distinct values of that
    representative's x-part."""
    p = spec.p
    elements, squares = _elements_and_squares(spec)
    zero = elements[0]
    count = 1  # the point at infinity
    for x in elements:
        w = _add(spec.mul(_add(spec.mul(_add(x, a2, p), x), a4, p), x), a6, p)
        count += 1 if w == zero else 2 if w in squares else 0
    return count


def fiber_count_at(model: WeierstrassModel, t0: int, spec: FieldSpec) -> int:
    """Projective F_q-points of the (possibly singular) Weierstrass cubic at a finite t.

    t0 is the element index of t in `spec` (0 <= t0 < q), a field of the
    model's odd characteristic.  A2, A4 and A6 are evaluated at t by
    Horner's rule in tuple arithmetic, one fiber at a time: the
    per-fiber reference for wild11.surface_count, which evaluates them at
    every t at once through log/exp tables."""
    if not (isinstance(t0, int) and 0 <= t0 < spec.q):
        raise ValueError(f"t0 must be an element index in [0, {spec.q}), got {t0!r}")
    t = spec.coords_at(t0)
    values = [spec.index_of(horner(poly, t, spec)) for poly in _completed_cubic(model)]
    return _count_cubic_points(spec, *values)
