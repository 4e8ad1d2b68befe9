import itertools
import random

import pytest

from wild11.fppoly import FpPoly, factor, is_irreducible, roots_in_base
from wild11.surface import c4_delta, make_model


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


def test_factor_uniform_discriminant_f11():
    # Delta = 8 t^22 + 10 t^11 = 8 t^11 (t + 4)^11: its derivative vanishes
    p = 11
    delta = FpPoly(p, (0,) * 11 + (10,) + (0,) * 10 + (8,))
    assert c4_delta(make_model("uniform", None, p))[1] == delta
    assert factor(delta) == [(poly(p, 0, 1), 11), (poly(p, 4, 1), 11)]
    _refactor_check(delta)


def test_factor_gamma2_discriminant_f11_shared_trace():
    # Delta of gamma 2 over F_11 is the product of the Artin-Schreier factors
    # t^11 - t + 3 and t^11 - t + 8.  The trace of t on a degree-11 factor is
    # minus its t^10 coefficient, 0 for both, so the trace split cannot
    # separate them and the Cantor-Zassenhaus fallback must
    p = 11
    delta = poly(p, 5, 0, 8, *(0,) * 9, 6, *(0,) * 9, 8)
    assert c4_delta(make_model("gamma", 2, p))[1] == delta
    pieces = factor(delta)
    as_3, as_8 = poly(p, 3, p - 1, *(0,) * 9, 1), poly(p, 8, p - 1, *(0,) * 9, 1)
    assert pieces == [(as_3, 1), (as_8, 1)]
    assert all(g.coeffs[10] == 0 for g, _ in pieces)
    _refactor_check(delta)


def _cantor_zassenhaus_reference(f, d, rng):
    """Test-only equal-degree splitting: f squarefree with all factors of
    degree d, split by gcd(f, a^((p^d - 1)/2) - 1) for random a."""
    if f.degree == d:
        return [f]
    p = f.p
    one = FpPoly.constant(p, 1)
    while True:
        a = FpPoly(p, [rng.randrange(p) for _ in range(f.degree)])
        g = f.gcd(a.pow_mod((p**d - 1) // 2, f) - one)
        if 0 < g.degree < f.degree:
            return _cantor_zassenhaus_reference(g, d, rng) + _cantor_zassenhaus_reference(
                f // g, d, rng
            )


@pytest.mark.parametrize(
    "p,d", [(p, d) for p in (5, 7, 11, 13, 101) for d in (1, 2, 3)] + [(3001, 1)]
)
def test_factor_matches_cantor_zassenhaus_on_equal_degree_products(p, d):
    # d = 1 covers the root scan (and, at p = 3001, the path above its
    # limit); d > 1 the trace split, whose quadratic-character pass runs
    # only for p = 101, and its fallback whenever two factors share a trace
    rng = random.Random(p * 10 + d)
    for _ in range(8):
        chosen = set()
        target = rng.randint(2, min(6, p))  # F_5 has only 5 monic linears
        while len(chosen) < target:
            g = FpPoly(p, [rng.randrange(p) for _ in range(d)] + [1])
            if _irreducible_by_trial_division(g):
                chosen.add(g)
        f = FpPoly.constant(p, 1)
        for g in chosen:
            f = f * g
        expected = sorted(_cantor_zassenhaus_reference(f, d, rng), key=lambda g: g.coeffs)
        assert sorted(chosen, key=lambda g: g.coeffs) == expected
        assert factor(f) == [(g, 1) for g in expected]


def _monic_polys(p, degree):
    for lower in itertools.product(range(p), repeat=degree):
        yield FpPoly(p, lower + (1,))


def _irreducible_by_trial_division(g):
    return all(
        g % h for d in range(1, g.degree // 2 + 1) for h in _monic_polys(g.p, d)
    )


@pytest.mark.parametrize("p,max_degree", [(3, 6), (5, 4), (7, 3)])
def test_factor_exhaustive_small_fields(p, max_degree):
    # every monic f of degree 1 .. max_degree, so zero derivatives (t^3 + 1
    # over F_3) and unequal multiplicities (t^3 (t + 1)) are all covered
    irreducible = {}
    for degree in range(1, max_degree + 1):
        for f in _monic_polys(p, degree):
            pieces = factor(f)
            prod = FpPoly.constant(p, 1)
            for g, m in pieces:
                assert g.lead == 1 and m >= 1
                if g not in irreducible:
                    irreducible[g] = _irreducible_by_trial_division(g)
                assert irreducible[g], (f, g)
                for _ in range(m):
                    prod = prod * g
            assert prod == f
            keys = [(g.degree, g.coeffs) for g, _ in pieces]
            assert keys == sorted(set(keys)), f


def test_is_irreducible_requires_monic_nonconstant():
    p = 5
    assert is_irreducible(poly(p, 1, 1)) and is_irreducible(poly(p, 2, 0, 1))
    for f in (FpPoly(p), poly(p, 1), poly(p, 3), poly(p, 1, 2), poly(p, 4, 0, 2)):
        assert not is_irreducible(f), f


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
