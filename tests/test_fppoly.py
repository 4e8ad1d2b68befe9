import random

import pytest

from wild11.fppoly import FpPoly, factor, roots_in_base


def poly(p, *coeffs):
    return FpPoly(p, coeffs)


def test_divmod_round_trip():
    rng = random.Random(11)
    for p in (5, 7, 11):
        for _ in range(30):
            a = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 9))])
            b = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1])
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_gcd_basics():
    p = 11
    f = poly(p, 0, 1) * poly(p, 3, 1)  # t(t+3)
    g = poly(p, 0, 1) * poly(p, 5, 1)
    assert f.gcd(g) == poly(p, 0, 1)
    assert f.gcd(FpPoly(p)) == f.monic()


def test_evaluate_at_residues():
    p = 11
    f = poly(p, 1, 0, 1)  # t^2 + 1
    assert f(3) == 10
    assert [f(x) for x in range(p)] == [(x * x + 1) % p for x in range(p)]


def test_reverse():
    p = 11
    t11_minus_t = FpPoly(p, (0, p - 1) + (0,) * 9 + (1,))
    rev = t11_minus_t.reverse(12)
    # s^12 (1/s^11 - 1/s) = s - s^11
    assert rev == FpPoly(p, (0, 1) + (0,) * 9 + (p - 1,))
    with pytest.raises(ValueError):
        t11_minus_t.reverse(10)


def _refactor_check(f):
    prod = FpPoly.constant(f.p, f.lead)
    for g, m in factor(f):
        assert g.lead == 1
        for _ in range(m):
            prod = prod * g
    assert prod == f


def test_factor_artin_schreier_split():
    # t^11 - t splits into the eleven linear factors over F_11
    p = 11
    f = FpPoly(p, (0, p - 1) + (0,) * 9 + (1,))
    pieces = factor(f)
    assert len(pieces) == 11
    assert all(g.degree == 1 and m == 1 for g, m in pieces)
    assert roots_in_base(f) == list(range(11))
    _refactor_check(f)


def test_factor_artin_schreier_irreducible():
    # t^11 - t - c is irreducible over F_11 for c != 0
    p = 11
    f = FpPoly(p, (8, p - 1) + (0,) * 9 + (1,))  # t^11 - t + 8
    pieces = factor(f)
    assert pieces == [(f, 1)]


def test_factor_with_multiplicity():
    p = 11
    base = FpPoly(p, (0, p - 1) + (0,) * 9 + (1,))
    square = base * base
    pieces = factor(square)
    assert all(m == 2 for _, m in pieces)
    assert len(pieces) == 11
    _refactor_check(square)


def test_factor_frobenius_power():
    # 432 t^11 + 1 = 3 (t + 4)^11 over F_11
    p = 11
    f = FpPoly(p, (1,) + (0,) * 10 + (432,))
    pieces = factor(f)
    assert pieces == [(poly(p, 4, 1), 11)]
    _refactor_check(f)


def test_factor_mixed_degrees_f7():
    # 432 t^11 + 1 over F_7: one rational root, one irreducible of degree 10
    p = 7
    f = FpPoly(p, (1,) + (0,) * 10 + (432,))
    pieces = factor(f)
    degrees = sorted(g.degree for g, _ in pieces)
    assert degrees == [1, 10]
    assert all(m == 1 for _, m in pieces)
    _refactor_check(f)


def test_factor_random_products():
    rng = random.Random(5)
    for p in (5, 11):
        pool = [g for g, _ in factor(FpPoly(p, [1, 0, 0, 0, 0, 0, 1]))]
        pool += [poly(p, a, 1) for a in range(3)]
        irreducibles = list(dict.fromkeys(pool))
        for _ in range(10):
            chosen = rng.sample(irreducibles, k=3)
            mults = [rng.randint(1, 3) for _ in chosen]
            f = FpPoly.constant(p, rng.randrange(1, p))
            for g, m in zip(chosen, mults):
                for _ in range(m):
                    f = f * g
            recovered = dict(factor(f))
            assert recovered == dict(zip(chosen, mults))
            _refactor_check(f)


def test_multiplicity_of():
    p = 11
    g = poly(p, 4, 1)
    f = g * g * g * poly(p, 1, 1)
    assert f.multiplicity_of(g) == 3
    assert f.multiplicity_of(poly(p, 2, 1)) == 0


def test_factor_ignores_unit_scalars():
    # classification must not depend on the unit ambiguity of Delta
    p = 11
    f = FpPoly(p, (0, p - 1) + (0,) * 9 + (1,)) * poly(p, 3, 1)
    for unit in range(2, p):
        assert factor(f * unit) == factor(f)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(FpPoly(11))
