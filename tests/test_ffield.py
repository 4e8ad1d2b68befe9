import math

import pytest

from wild11 import (
    CapabilityError,
    FieldSpec,
    quadratic_character,
    smallest_nonresidue,
    trace_to_base,
)


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
    assert FieldSpec(3, 2).modulus == (1, 0, 1)  # u^2 + 1


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
        assert trace_to_base(spec.element(a)) == 2 * a % 11
    # the generator u has trace zero: u^11 = -u
    assert trace_to_base(spec.element((0, 1))) == 0
    # linearity: a + b*u -> 2a
    for a in range(11):
        for b in range(11):
            assert trace_to_base(spec.element((a, b))) == 2 * a % 11


def test_trace_is_linear_and_balanced():
    spec = FieldSpec(11, 2)
    hits = {v: 0 for v in range(11)}
    for x in spec.elements():
        hits[trace_to_base(x)] += 1
    # surjective onto F_p, each value hit exactly p times... q/p = 11 per value
    assert all(count == 11 for count in hits.values())


def test_artin_schreier_image_is_trace_kernel():
    # image of t -> t^p - t on F_{p^2} equals ker(trace), each value hit p times;
    # this is what makes the bucket distribution well defined.
    spec = FieldSpec(11, 2)
    image_counts: dict[tuple, int] = {}
    for t in spec.elements():
        c = t**11 - t
        image_counts[c.coords] = image_counts.get(c.coords, 0) + 1
    kernel = {x.coords for x in spec.elements() if trace_to_base(x) == 0}
    assert set(image_counts) == kernel
    assert all(count == 11 for count in image_counts.values())


def test_quadratic_character_examples():
    f11 = FieldSpec(11)
    assert quadratic_character(f11.element(3)) == 1  # 5^2 = 25 = 3
    assert quadratic_character(f11.element(0)) == 0
    assert quadratic_character(f11.element(2)) == -1
    with pytest.raises(CapabilityError):
        quadratic_character(FieldSpec(2).element(1))


def test_quadratic_character_is_multiplicative():
    spec = FieldSpec(11, 2)
    elements = [x for x in spec.elements() if x]
    chars = {x.coords: quadratic_character(x) for x in elements}
    for x in elements[::7]:
        for y in elements[::5]:
            assert chars[(x * y).coords] == chars[x.coords] * chars[y.coords]


@pytest.mark.parametrize("p,r", [(11, 1), (11, 2), (3, 2), (5, 2)])
def test_fermat_little_exhaustive(p, r):
    spec = FieldSpec(p, r)
    one = spec.one()
    for x in spec.elements():
        if x:
            assert x ** (spec.q - 1) == one


def test_chi_table_matches_character():
    spec = FieldSpec(11, 2)
    chi = spec.chi_table()
    for x in spec.elements():
        assert chi[x.index()] == quadratic_character(x)


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
    assert chi == [quadratic_character(x) for x in spec.elements()]


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
    els = list(spec.elements())
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_division_and_inverse():
    spec = FieldSpec(11, 2)
    for x in spec.elements():
        if x:
            assert x * x.inverse() == spec.one()
            assert (x / x) == spec.one()
    with pytest.raises(ZeroDivisionError):
        spec.zero().inverse()


def test_mixed_int_arithmetic():
    spec = FieldSpec(11, 2)
    u = spec.element((0, 1))
    assert 3 + u == spec.element((3, 1))
    assert u - 1 == spec.element((10, 1))
    assert 2 * u == spec.element((0, 2))
    assert u * u == spec.element(2)  # u^2 = 2 by the canonical modulus


def test_extension_degrees_3_and_4():
    # canonical moduli are irreducible and arithmetic closes
    for p, r in [(11, 3), (5, 4)]:
        spec = FieldSpec(p, r)
        x = spec.element(tuple(range(1, r + 1)))
        assert x ** (spec.q - 1) == spec.one()
        assert trace_to_base(x) in range(p)


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
    assert spec.neg_trace_table() == [(-trace_to_base(x)) % p for x in spec.elements()]


def test_neg_trace_table_basis_traces_can_be_nontrivial():
    spec = FieldSpec(11, 2, (1, 1, 1))
    assert spec.neg_trace_table()[11] == 1  # -Tr(u) = -(u + u^11) = -(-1)


def test_cross_field_operations_rejected():
    a = FieldSpec(11).element(1)
    b = FieldSpec(11, 2).element(1)
    with pytest.raises(ValueError):
        _ = a + b
