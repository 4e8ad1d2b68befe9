import itertools
import math

import pytest

from wild11 import (
    CapabilityError,
    FieldSpec,
    quadratic_character,
    smallest_nonresidue,
    trace_to_base,
)
from wild11.ffield import _is_irreducible, is_prime
from wild11.fppoly import FpPoly


def _elements(spec):
    """Every element of spec as a coordinate tuple, in index order."""
    return [spec.coords_at(i) for i in range(spec.q)]


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


@pytest.mark.parametrize("p,expected", [(11, 2), (3, 2), (7, 3)])
def test_smallest_nonresidue_matches_enumeration(p, expected):
    squares = {x * x % p for x in range(1, p)}
    oracle = min(n for n in range(2, p) if n not in squares)
    assert oracle == expected
    assert smallest_nonresidue(p) == expected


@pytest.mark.parametrize("p", [2, 4, 9, 1])
def test_smallest_nonresidue_rejects_bad_input(p):
    with pytest.raises(ValueError):
        smallest_nonresidue(p)


def test_canonical_quadratic_modulus():
    spec = FieldSpec(11, 2)
    assert spec.modulus == (9, 0, 1)  # u^2 - 2
    assert spec.mul((0, 1), (0, 1)) == (2, 0)
    assert repr(spec) == "FieldSpec(F_121 = F_11[u]/(u^2 + 9))"
    assert FieldSpec(3, 2).modulus == (1, 0, 1)  # u^2 + 1


@pytest.mark.parametrize(
    "p,r,modulus",
    [
        (11, 2, (9, 0, 1)),
        (11, 3, (4, 1, 0, 1)),
        (11, 4, (2, 1, 0, 0, 1)),
        (5, 4, (2, 0, 0, 0, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
    ],
)
def test_canonical_moduli_pinned(p, r, modulus):
    assert FieldSpec(p, r).modulus == modulus


def _monic_polys(p, degree):
    for lower in itertools.product(range(p), repeat=degree):
        yield FpPoly(p, lower + (1,))


def _reference_is_irreducible(f):
    """Trial division by every monic polynomial of degree 1 .. deg f / 2."""
    return not any(
        not f % g for d in range(1, f.degree // 2 + 1) for g in _monic_polys(f.p, d)
    )


@pytest.mark.parametrize(
    "p,r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 3), (5, 4), (7, 4), (11, 2), (11, 3)]
)
def test_is_irreducible_matches_trial_division(p, r):
    for f in _monic_polys(p, r):
        assert _is_irreducible(f) == _reference_is_irreducible(f), f


def test_spec_construction_errors():
    with pytest.raises(ValueError):
        FieldSpec(12)
    with pytest.raises(CapabilityError):
        FieldSpec(11, 5)  # degree beyond the supported range
    with pytest.raises(CapabilityError):
        FieldSpec(1039, 2)  # q = 1039^2 > 2^20
    with pytest.raises(ValueError):
        FieldSpec(11, 2, modulus=(7, 0, 1))  # u^2 - 4 = (u - 2)(u + 2)
    with pytest.raises(ValueError):
        FieldSpec(11, 2, modulus=(9, 0, 2))  # not monic


def test_trace_examples():
    spec = FieldSpec(11, 2)
    # base-field values double
    for a in range(11):
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
    # surjective onto F_p, each value hit exactly p times... q/p = 11 per value
    assert all(count == 11 for count in hits.values())


def test_artin_schreier_image_is_trace_kernel():
    # image of t -> t^p - t on F_{p^2} equals ker(trace), each value hit p times;
    # this is what makes the bucket distribution well defined.
    spec = FieldSpec(11, 2)
    image_counts: dict[tuple, int] = {}
    for t in _elements(spec):
        c = spec.add(spec.pow(t, 11), spec.smul(-1, t))
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


def test_chi_table_matches_character():
    spec = FieldSpec(11, 2)
    chi = spec.chi_table()
    for x in _elements(spec):
        assert chi[spec.index_of(x)] == quadratic_character(spec, x)


@pytest.mark.parametrize(
    "p,r,modulus",
    [(11, 1, None), (11, 2, None), (11, 3, None), (5, 4, None), (7, 2, None), (11, 2, (1, 1, 1))],
)
def test_log_tables(p, r, modulus):
    spec = FieldSpec(p, r, modulus)
    q = spec.q
    log, exp = spec.log_tables()
    assert sorted(exp) == list(range(1, q))  # a permutation of the nonzero indices
    assert all(log[i] == k for k, i in enumerate(exp))
    g = spec.coords_at(exp[1])
    for k in range(q - 1):
        assert spec.index_of(spec.mul(spec.coords_at(exp[k]), g)) == exp[(k + 1) % (q - 1)]
    # first generator in index order: g^k generates F_q^* iff gcd(k, q - 1) = 1
    assert all(math.gcd(log[i], q - 1) > 1 for i in range(1, exp[1]))


@pytest.mark.parametrize("p,r,modulus", [(11, 3, None), (5, 4, None), (7, 3, (1, 1, 3, 1))])
def test_chi_table_matches_character_in_larger_fields(p, r, modulus):
    spec = FieldSpec(p, r, modulus)
    chi = spec.chi_table()
    assert chi == [quadratic_character(spec, x) for x in _elements(spec)]


def test_packed_tables_add_exhaustively():
    spec = FieldSpec(3, 3)
    pack, unpack = spec.packed_tables()
    assert len(unpack) == 5**3
    for a in range(spec.q):
        for b in range(spec.q):
            expected = spec.index_of(spec.add(spec.coords_at(a), spec.coords_at(b)))
            assert unpack[pack[a] + pack[b]] == expected


def test_field_axioms_exhaustive_f9():
    spec = FieldSpec(3, 2)
    add, mul = spec.add, spec.mul
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
    spec = FieldSpec(p, r, modulus)
    assert spec.neg_trace_table() == [(-trace_to_base(spec, x)) % p for x in _elements(spec)]


def test_neg_trace_table_basis_traces_can_be_nontrivial():
    spec = FieldSpec(11, 2, (1, 1, 1))
    assert spec.neg_trace_table()[11] == 1  # -Tr(u) = -(u + u^11) = -(-1)
