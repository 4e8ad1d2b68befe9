import math
import random
import time

import pytest

from wild11.equivariant import _neg_trace_table
from wild11.errors import CapabilityError
from wild11.ffield import FieldSpec, is_prime, trace_to_base
from wild11.fppoly import _add, is_irreducible, reduced
from wild11.polynomials import poly_mul
from wild11.surface import _field_tables
from references import (
    divmod_monic,
    irreducible_by_trial_division,
    monic_polys_of_degree,
    quadratic_character,
    spec_with_modulus,
)


def _elements(spec):
    """Every element of spec as a reduced F_p[u] tuple, in index order."""
    return [spec.coords_at(i) for i in range(spec.q)]


def _padded(spec, x):
    """x with trailing zeros up to the r coordinates of spec."""
    return tuple(x) + (0,) * (spec.r - len(x))


def _spec(p, r, modulus):
    """FieldSpec(p, r), or the same field on a non-canonical modulus when one is given."""
    return FieldSpec(p, r) if modulus is None else spec_with_modulus(p, r, modulus)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division_is_prime(n)
    ]


def test_is_prime_on_pseudoprimes_and_large_primes():
    # a Carmichael number and the least strong pseudoprimes to the prime
    # bases up to 2, 7, 23 and 37
    for n in (561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for n in (2**61 - 1, 10**16 + 61):
        assert is_prime(n)
    assert not is_prime(2**100)  # a small factor decides it at any size
    # the least strong pseudoprime to the bases up to 41, and a prime above it
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(CapabilityError):
            is_prime(n)


def test_canonical_quadratic_modulus():
    spec = FieldSpec(11, 2)
    assert spec.modulus == (1, 0, 1)  # u^2 + 1: -1 is a non-residue mod 11
    assert spec.mul((0, 1), (0, 1)) == (10,)
    assert spec.coords_at(0) == () and spec.coords_at(1) == (1,) and spec.coords_at(11) == (0, 1)
    assert repr(spec) == "FieldSpec(F_121 = F_11[u]/(u^2 + 1))"
    assert FieldSpec(3, 2).modulus == (1, 0, 1)  # u^2 + 1


@pytest.mark.parametrize(
    "p,r,modulus",
    [
        (11, 2, (1, 0, 1)),
        (11, 3, (4, 1, 0, 1)),
        (11, 4, (2, 1, 0, 0, 1)),
        (5, 4, (2, 0, 0, 0, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
    ],
)
def test_canonical_moduli_pinned(p, r, modulus):
    assert FieldSpec(p, r).modulus == modulus


@pytest.mark.parametrize(
    "p,r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 3), (5, 4), (7, 4), (11, 2), (11, 3)]
)
def test_is_irreducible_matches_trial_division(p, r):
    for f in monic_polys_of_degree(p, r):
        assert is_irreducible(f, p) == irreducible_by_trial_division(f, p), f


@pytest.mark.parametrize(
    "p,r",
    [(p, r) for p in (2, 3, 5, 7, 11, 13) for r in range(1, 5) if p**r <= 14641]
    + [(3, 5), (2, 10), (5, 5)]  # the first q = 1 mod 11 at p = 3, 2 and 5
    + [(101, 2), (101, 3), (1021, 2)],  # blocks of p candidates sieved by roots
)
def test_canonical_modulus_is_first_irreducible(p, r):
    # one rule for every (p, r): the first monic irreducible in base-p order.
    # At (101, 3) every u^3 + a_0 has a root, since 3 does not divide 100, so
    # the whole first block of 101 candidates is reducible
    first = next(f for f in monic_polys_of_degree(p, r) if irreducible_by_trial_division(f, p))
    assert FieldSpec(p, r).modulus == first


def _reference_mul(spec, a, b):
    """a * b as the product in Z[u], divided by the monic modulus over Z,
    then reduced mod p and stripped of trailing zeros."""
    return reduced(divmod_monic(poly_mul(a, b), spec.modulus)[1], spec.p)


@pytest.mark.parametrize("p,r", [(7, 2), (11, 2)])
def test_mul_matches_polynomial_reference_exhaustively(p, r):
    spec = FieldSpec(p, r)
    els = _elements(spec)
    for a in els:
        for b in els:
            expected = _reference_mul(spec, a, b)
            assert spec.mul(a, b) == expected
            # padded inputs give the same reduced product
            assert spec.mul(_padded(spec, a), _padded(spec, b)) == expected


@pytest.mark.parametrize(
    "p,r,modulus",
    [(11, 3, None), (5, 4, None), (7, 3, (1, 1, 3, 1)), (3, 5, None), (2, 10, None), (5, 5, None)],
)
def test_mul_matches_polynomial_reference_sampled(p, r, modulus):
    spec = _spec(p, r, modulus)
    rng = random.Random(2300 + spec.q)
    for _ in range(3000):
        a, b = (tuple(rng.randrange(p) for _ in range(r)) for _ in range(2))
        assert spec.mul(a, b) == _reference_mul(spec, a, b)


@pytest.mark.parametrize("p,r", [(11, 2), (11, 3), (3, 5), (2, 10)])
def test_pow_matches_repeated_reference_products(p, r):
    spec = FieldSpec(p, r)
    rng = random.Random(4100 + spec.q)
    for _ in range(20):
        x = reduced([rng.randrange(p) for _ in range(r)], p)
        expected = (1,)
        for e in range(30):
            assert spec.pow(x, e) == expected, (x, e)
            assert spec.pow(_padded(spec, x), e) == expected, (x, e)
            expected = _reference_mul(spec, expected, x)


def test_spec_construction_errors():
    with pytest.raises(ValueError):
        FieldSpec(12)
    with pytest.raises(CapabilityError, match="exceeds the supported limit"):
        FieldSpec(1039, 2)  # q = 1039^2 > 2^20
    # q <= 2^20 is the only bound: fields whose packed-addition table (built
    # only by the point count, which refuses them) would be large still
    # construct, and quickly, since construction builds no table (the
    # modulus search takes milliseconds; F_(2^15)'s table took seconds)
    for p, r in [(2, r) for r in range(16, 21)] + [(3, 11), (3, 12), (5, 8), (7, 7)]:
        start = time.perf_counter()
        spec = FieldSpec(p, r)
        assert time.perf_counter() - start < 0.5, (p, r)
        assert spec.q == p**r and len(spec.modulus) == r + 1


def test_fields_are_bounded_by_size_not_degree():
    # every p^r up to the first past 2^20: refused exactly when q > 2^20
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        r = 1
        while p ** (r - 1) <= 1 << 20:
            if p**r > 1 << 20:
                with pytest.raises(CapabilityError):
                    FieldSpec(p, r)
            else:
                assert FieldSpec(p, r).q == p**r
            r += 1


def test_trace_examples():
    spec = FieldSpec(11, 2)
    # base-field values double, given reduced or padded
    for a in range(11):
        assert trace_to_base(spec, reduced((a,), 11)) == 2 * a % 11
        assert trace_to_base(spec, (a, 0)) == 2 * a % 11
    # the generator u has trace zero: u^11 = -u
    assert trace_to_base(spec, (0, 1)) == 0
    # linearity: a + b*u -> 2a
    for a in range(11):
        for b in range(11):
            assert trace_to_base(spec, (a, b)) == 2 * a % 11


def test_trace_is_linear_and_balanced():
    spec = FieldSpec(11, 2)
    hits = {v: 0 for v in range(11)}
    for x in _elements(spec):
        hits[trace_to_base(spec, x)] += 1
        assert trace_to_base(spec, _padded(spec, x)) == trace_to_base(spec, x)
    # surjective onto F_p, each value hit exactly p times... q/p = 11 per value
    assert all(count == 11 for count in hits.values())


def test_artin_schreier_image_is_trace_kernel():
    # image of t -> t^p - t on F_{p^2} equals ker(trace), each value hit p times;
    # this is what makes the bucket distribution well defined.
    spec = FieldSpec(11, 2)
    image_counts: dict[tuple, int] = {}
    for t in _elements(spec):
        c = _add(spec.pow(t, 11), reduced([-x for x in t], 11), 11)
        image_counts[c] = image_counts.get(c, 0) + 1
    kernel = {x for x in _elements(spec) if trace_to_base(spec, x) == 0}
    assert set(image_counts) == kernel
    assert all(count == 11 for count in image_counts.values())


def test_quadratic_character_examples():
    f11 = FieldSpec(11)
    assert quadratic_character(f11, (3,)) == 1  # 5^2 = 25 = 3
    assert quadratic_character(f11, (0,)) == 0
    assert quadratic_character(f11, (2,)) == -1
    with pytest.raises(CapabilityError):
        quadratic_character(FieldSpec(2), (1,))


def test_quadratic_character_is_multiplicative():
    spec = FieldSpec(11, 2)
    elements = [x for x in _elements(spec) if any(x)]
    chars = {x: quadratic_character(spec, x) for x in elements}
    for x in elements[::7]:
        for y in elements[::5]:
            assert chars[spec.mul(x, y)] == chars[x] * chars[y]


@pytest.mark.parametrize("p,r", [(11, 1), (11, 2), (3, 2), (5, 2)])
def test_fermat_little_exhaustive(p, r):
    spec = FieldSpec(p, r)
    one = spec.coords_at(1)
    for x in _elements(spec)[1:]:
        assert spec.pow(x, spec.q - 1) == one


def test_field_axioms_exhaustive_f9():
    spec = FieldSpec(3, 2)
    mul = spec.mul

    def add(a, b):
        return _add(a, b, 3)

    els = _elements(spec)
    for a in els:
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_division_and_inverse():
    # x^(q-2) is the inverse of x != 0, so a / x = a * x^(q-2)
    spec = FieldSpec(11, 2)
    one = spec.coords_at(1)
    a = (3, 7)
    for x in _elements(spec)[1:]:
        inverse = spec.pow(x, spec.q - 2)
        assert spec.mul(x, inverse) == one
        assert spec.mul(spec.mul(a, inverse), x) == a
    with pytest.raises(ValueError):
        spec.pow((0, 1), -1)


def test_extension_degrees_3_and_4():
    # canonical moduli are irreducible and arithmetic closes
    for p, r in [(11, 3), (5, 4)]:
        spec = FieldSpec(p, r)
        x = tuple(range(1, r + 1))
        assert spec.pow(x, spec.q - 1) == spec.coords_at(1)
        assert trace_to_base(spec, x) in range(p)


# -- the counting layers' own tables, against the field's arithmetic -------
#
# FieldSpec holds no table.  The point count builds log/exp, packed addition,
# the squares bitset and Frobenius in surface._field_tables; the tally
# builds the negated traces in equivariant._neg_trace_table.


def _squares_by_packed_sum(spec):
    """The point count's squares bitset read at every packed sum s, with the
    quadratic character of unpack[s] by Euler's criterion beside it: the bit
    must be set iff that character is 1, a nonzero square."""
    _, _, _, unpack, squares, *_ = _field_tables(spec)
    assert squares.bit_length() <= len(unpack)
    chi = [quadratic_character(spec, x) for x in _elements(spec)]
    return [squares >> s & 1 for s in range(len(unpack))], [int(chi[i] == 1) for i in unpack]


def test_chi_table_matches_character():
    bits, expected = _squares_by_packed_sum(FieldSpec(11, 2))
    assert bits == expected


@pytest.mark.parametrize(
    "p,r,modulus",
    [(11, 1, None), (11, 2, None), (11, 3, None), (5, 4, None), (7, 2, None), (11, 2, (1, 1, 1))],
)
def test_log_tables(p, r, modulus):
    spec = _spec(p, r, modulus)
    q = spec.q
    log, exp, *_ = _field_tables(spec)
    assert sorted(exp) == list(range(1, q))  # a permutation of the nonzero indices
    assert all(log[i] == k for k, i in enumerate(exp))
    g = spec.coords_at(exp[1])
    for k in range(q - 1):
        assert spec.index_of(spec.mul(spec.coords_at(exp[k]), g)) == exp[(k + 1) % (q - 1)]
    # first generator in index order: g^k generates F_q^* iff gcd(k, q - 1) = 1
    assert all(math.gcd(log[i], q - 1) > 1 for i in range(1, exp[1]))


@pytest.mark.parametrize("p,r,modulus", [(11, 3, None), (5, 4, None), (7, 3, (1, 1, 3, 1))])
def test_chi_table_matches_character_in_larger_fields(p, r, modulus):
    bits, expected = _squares_by_packed_sum(_spec(p, r, modulus))
    assert bits == expected


def test_packed_tables_add_exhaustively():
    spec = FieldSpec(3, 3)
    _, _, pack, unpack, *_ = _field_tables(spec)
    assert len(unpack) == 5**3
    for a in range(spec.q):
        for b in range(spec.q):
            expected = spec.index_of(_add(spec.coords_at(a), spec.coords_at(b), spec.p))
            assert unpack[pack[a] + pack[b]] == expected


@pytest.mark.parametrize(
    "p,r,modulus",
    [
        (11, 1, None),
        (11, 2, None),
        (11, 3, None),
        (5, 4, None),
        (2, 3, None),
        (11, 2, (1, 1, 1)),  # u^2 + u + 1: Tr(u) = -1, so the basis traces are not (2, 0)
        (7, 3, (1, 1, 3, 1)),
    ],
)
def test_neg_trace_table_matches_trace(p, r, modulus):
    spec = _spec(p, r, modulus)
    assert _neg_trace_table(spec) == [(-trace_to_base(spec, x)) % p for x in _elements(spec)]


def test_neg_trace_table_basis_traces_can_be_nontrivial():
    spec = spec_with_modulus(11, 2, (1, 1, 1))
    assert spec.modulus == (1, 1, 1)
    assert _neg_trace_table(spec)[11] == 1  # -Tr(u) = -(u + u^11) = -(-1)
