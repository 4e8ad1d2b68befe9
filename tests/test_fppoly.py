import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wild11 import fppoly
from wild11.fppoly import FpPoly, factor, is_irreducible, monic_polys
from wild11.polynomials import poly_mul
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
    # minus its t^10 coefficient, 0 for both, so Tr(t) cannot separate them
    # and the norm N(t), -3 on one and -8 on the other, must
    p = 11
    delta = poly(p, 5, 0, 8, *(0,) * 9, 6, *(0,) * 9, 8)
    assert c4_delta(make_model("gamma", 2, p))[1] == delta
    pieces = factor(delta)
    as_3, as_8 = poly(p, 3, p - 1, *(0,) * 9, 1), poly(p, 8, p - 1, *(0,) * 9, 1)
    assert pieces == [(as_3, 1), (as_8, 1)]
    assert all(g.coeffs[10] == 0 for g, _ in pieces)
    _refactor_check(delta)


def _pow_mod_reference(base, e, mod):
    """base^e % mod by square-and-multiply on FpPoly's * and %, for e >= 0."""
    result, x = FpPoly.constant(base.p, 1) % mod, base % mod
    while e:
        if e & 1:
            result = result * x % mod
        x = x * x % mod
        e >>= 1
    return result


def _cantor_zassenhaus_reference(f, d, rng):
    """Test-only equal-degree splitting: f squarefree with all factors of
    degree d, split by gcd(f, a^((p^d - 1)/2) - 1) for random a."""
    if f.degree == d:
        return [f]
    p = f.p
    one = FpPoly.constant(p, 1)
    while True:
        a = FpPoly(p, [rng.randrange(p) for _ in range(f.degree)])
        g = f.gcd(_pow_mod_reference(a, (p**d - 1) // 2, f) - one)
        if 0 < g.degree < f.degree:
            return _cantor_zassenhaus_reference(g, d, rng) + _cantor_zassenhaus_reference(
                f // g, d, rng
            )


@pytest.mark.parametrize(
    "p,d", [(p, d) for p in (5, 7, 11, 13, 101) for d in (1, 2, 3)] + [(3001, 1)]
)
def test_factor_matches_cantor_zassenhaus_on_equal_degree_products(p, d):
    # d = 1 covers the root search by Tr(t) = t, by gcds for p <= SHIFTS and
    # by quadratic characters for p = 101 and 3001; d > 1 the trace pass and
    # the norms after it whenever two factors share a trace
    rng = random.Random(p * 10 + d)
    for _ in range(8):
        target = rng.randint(2, min(6, p))  # F_5 has only 5 monic linears
        chosen, f = _equal_degree_product(p, d, target, rng)
        expected = sorted(_cantor_zassenhaus_reference(f, d, rng), key=lambda g: g.coeffs)
        assert sorted(chosen, key=lambda g: g.coeffs) == expected
        assert factor(f) == [(g, 1) for g in expected]


def test_factor_shared_trace_and_norm_f5():
    # t^3 + t + 1 and t^3 + 2t + 1 are irreducible over F_5 with trace 0
    # (minus the t^2 coefficient) and norm N(t) = -1 (minus the constant
    # term) on both, so only the values N(a) after N(t) can separate them
    p = 5
    g1, g2 = poly(p, 1, 1, 0, 1), poly(p, 1, 2, 0, 1)
    assert _irreducible_by_trial_division(g1) and _irreducible_by_trial_division(g2)
    f = g1 * g2
    expected = sorted(_cantor_zassenhaus_reference(f, 3, random.Random(3)), key=lambda g: g.coeffs)
    assert expected == [g1, g2]
    assert factor(f) == [(g1, 1), (g2, 1)]


@pytest.mark.parametrize("kind,param", [("epsilon", 1), ("gamma", 1), ("uniform", None)])
@pytest.mark.parametrize("p", [5, 13, 17, 577, 991, 3001, 7919])
def test_factor_discriminants_across_shift_bound(kind, param, p):
    # primes on both sides of SHIFTS = 16 and of 3000; gamma 1 at p = 577
    # has two trace-0 factors of degree 11, which only a norm separates
    delta = c4_delta(make_model(kind, param, p))[1]
    pieces = factor(delta)
    assert all(is_irreducible(g) and m >= 1 for g, m in pieces)
    _refactor_check(delta)


def test_factor_needs_the_degree_one_norms():
    # With two shifts, Tr(t) = t leaves roots of epsilon 1's Delta together
    # at p = 10^16 + 61 and the norms N(t + k) = t + k separate them.  Norms
    # of degree 2 alone never would: Delta has root pairs +-r, every t^2 + c
    # takes one value on a pair, and base-p order tries all p constants c
    # before t^2 + t.  The cap turns such a hang into a failure.
    p = 10**16 + 61
    delta = c4_delta(make_model("epsilon", 1, p))[1]
    values = fppoly._separating_values

    def capped(f, d, frobenius, p):
        for k, v in enumerate(values(f, d, frobenius, p)):
            if k == 200:
                raise AssertionError(f"degree-{d} parts still unsplit after 200 values")
            yield v

    with mock.patch.object(fppoly, "SHIFTS", 2), mock.patch.object(fppoly, "_separating_values", capped):
        pieces = factor(delta)
        _refactor_check(delta)
    assert [(g.degree, m) for g, m in pieces] == [(1, 1)] * 12 + [(5, 1)] * 2
    assert all(is_irreducible(g) for g, _ in pieces)


@pytest.mark.parametrize("kind,param", [("epsilon", 1), ("gamma", 2)])
def test_factor_builds_fppoly_only_for_its_result(kind, param):
    # the splitting runs on coefficient lists: FpPoly is built for the monic
    # input and for each factor returned
    delta = c4_delta(make_model(kind, param, 11))[1]
    built = []
    init = FpPoly.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    with mock.patch.object(FpPoly, "__init__", counting):
        pieces = factor(delta)
    assert len(built) <= len(pieces) + 2
    assert [(g.degree, m) for g, m in pieces] == (
        [(1, 1)] * 11 + [(11, 1)] if kind == "epsilon" else [(11, 1)] * 2
    )


def _reduced(cs, p):
    out = [c % p for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def _evaluate(cs, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(cs)) % p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 11, 577, 10**16 + 61]), st.data())
def test_list_division_gcd_and_power_against_integer_references(p, data):
    # the one division loop, the gcd and the power on reduced lists, checked
    # by products in Z[t] reduced mod p and by evaluation at points of F_p
    def draw(max_size, monic=False):
        cs = data.draw(st.lists(st.integers(0, p - 1), max_size=max_size))
        return _reduced(cs + [1] if monic else cs, p)

    a, b = draw(9), draw(5)
    if b:
        quo, rem = fppoly._divmod(a, b, p)
        assert _reduced(quo, p) == quo and _reduced(rem, p) == rem
        assert len(rem) < len(b)
        product = itertools.zip_longest(poly_mul(quo, b), rem, fillvalue=0)
        assert _reduced([x + y for x, y in product], p) == a
        exact = _reduced(poly_mul(a, b), p)
        assert fppoly._divmod(exact, b, p) == (a, [])
    common, u, v = draw(3, monic=True), draw(4), draw(4)
    x, y = _reduced(poly_mul(common, u), p), _reduced(poly_mul(common, v), p)
    g = fppoly._gcd(x, y, p)

    def divides(d, z):
        return _reduced(poly_mul(fppoly._divmod(z, d, p)[0], d), p) == z

    if x or y:
        assert g[-1] == 1 and divides(g, x) and divides(g, y) and divides(common, g)
    else:
        assert g == []
    roots = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(p, 4), unique=True))
    mod = [1]
    for r in roots:
        mod = _reduced(poly_mul(mod, [-r, 1]), p)
    base, e = draw(7), data.draw(st.integers(0, 3 * p))
    power = fppoly._pow_mod(base, e, mod, p)
    assert len(power) < len(mod) and _reduced(power, p) == power
    for r in roots:
        assert _evaluate(power, r, p) == pow(_evaluate(base, r, p), e, p)


def test_monic_polys_base_p_order():
    assert list(monic_polys(3, 2)) == [
        (c0, c1, 1) for c1 in range(3) for c0 in range(3)
    ]
    assert list(monic_polys(7, 1)) == [(c, 1) for c in range(7)]
    # lazy in p: the norms after Tr(t) may be reached at p = 2^61 - 1
    assert next(monic_polys(2**61 - 1, 2)) == (0, 0, 1)


def _monic_polys(p, degree):
    for lower in itertools.product(range(p), repeat=degree):
        yield FpPoly(p, lower + (1,))


def _irreducible_by_trial_division(g):
    return all(
        g % h for d in range(1, g.degree // 2 + 1) for h in _monic_polys(g.p, d)
    )


@pytest.mark.parametrize("p,max_degree", [(2, 7), (3, 6), (5, 4), (7, 3)])
def test_factor_exhaustive_small_fields(p, max_degree):
    # every monic f of degree 1 .. max_degree, so zero derivatives (t^3 + 1
    # over F_3) and unequal multiplicities (t^3 (t + 1)) are all covered;
    # over F_2 the splitting values lie in {0, 1} and only gcds separate them
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
    # a unit divides everything to every power: refused, not looped on
    for unit in (poly(p, 3), poly(p, 1), FpPoly(p)):
        with pytest.raises(ValueError):
            f.multiplicity_of(unit)


def test_factor_ignores_unit_scalars():
    # classification must not depend on the unit ambiguity of Delta
    p = 11
    f = FpPoly(p, (0, p - 1) + (0,) * 9 + (1,)) * poly(p, 3, 1)
    for unit in range(2, p):
        assert factor(f * unit) == factor(f)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 11]), st.data())
def test_derivative_is_a_derivation(p, data):
    def poly():
        return FpPoly(p, data.draw(st.lists(st.integers(0, p - 1), max_size=8)))

    f, g = poly(), poly()
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    assert (f + g).derivative() == f.derivative() + g.derivative()
    assert FpPoly.monomial(p, p).derivative() == FpPoly(p)
    assert FpPoly.monomial(p, 3, 2).derivative() == FpPoly.monomial(p, 2, 6)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(FpPoly(11))


def _squarefree(f):
    # over the perfect field F_p, f' = 0 makes f a p-th power
    derivative = FpPoly(f.p, [i * c for i, c in enumerate(f.coeffs)][1:])
    return bool(derivative) and f.gcd(derivative).degree == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
def test_factor_multiplicities_match_multiplicity_of(p, data):
    # products of powers g^m with m up to p + 2, so p-th powers and
    # multiplicities above p occur; the g need not be irreducible or distinct
    f = FpPoly.constant(p, 1)
    for _ in range(data.draw(st.integers(1, 3))):
        lower = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
        m = data.draw(st.integers(1, p + 2))
        for _ in range(m):
            f = f * FpPoly(p, lower + [1])
    products = [(FpPoly(p, g), d, m) for g, d, m in fppoly._distinct_degree(list(f.coeffs), p)[0]]
    prod = FpPoly.constant(p, 1)
    for i, (g, d, m) in enumerate(products):
        assert g.lead == 1 and g.degree % d == 0 and _squarefree(g), (f, g)
        assert all(g.gcd(h).degree == 0 for h, _, _ in products[i + 1 :]), (f, g)
        for _ in range(m):
            prod = prod * g
    assert prod == f
    pieces = factor(f)
    assert all(f.multiplicity_of(g) == m for g, m in pieces), f
    _refactor_check(f)


_ARTIN_SCHREIER_GAMMAS = (2, 6, 7, 8, 10)


def _equal_degree_product(p, d, count, rng):
    """count distinct monic irreducibles of degree d drawn by rng, and their product."""
    chosen = set()
    while len(chosen) < count:
        g = FpPoly(p, [rng.randrange(p) for _ in range(d)] + [1])
        if _irreducible_by_trial_division(g):
            chosen.add(g)
    f = FpPoly.constant(p, 1)
    for g in chosen:
        f = f * g
    return chosen, f


@pytest.mark.parametrize(
    "f",
    [c4_delta(make_model("gamma", param, 11))[1].monic() for param in _ARTIN_SCHREIER_GAMMAS]
    + [
        _equal_degree_product(p, d, 3, random.Random(p + d))[1]
        for p in (5, 13, 577, 3001)
        for d in (2, 3)
    ],
    ids=lambda f: f"p{f.p}-deg{f.degree}",
)
def test_norm_of_t_is_the_product_of_the_frobenius_powers(f):
    # the loop's N(t) = prod_(j<d) t^(p^j) mod f against the power of t it
    # replaces, and every value after it against the norms by a reference power in
    # base-p order, so the sequence of values is the one before the product
    p = f.p
    [(prod, d, m)], frobenius = fppoly._distinct_degree(list(f.coeffs), p)
    prod, frobenius = FpPoly(p, prod), [FpPoly(p, g) for g in frobenius]
    assert (prod, m) == (f, 1) and f.degree > d
    norm = (p**d - 1) // (p - 1)
    separating = fppoly._separating_values(list(f.coeffs), d, [list(g.coeffs) for g in frobenius], p)
    values = [FpPoly(p, v) for v in itertools.islice(separating, 8)]
    assert values[0] == sum(frobenius[1:d], frobenius[0])
    monics = itertools.chain.from_iterable(monic_polys(p, k) for k in range(1, f.degree + 1))
    expected = [_pow_mod_reference(FpPoly(p, a), norm, f) for a in itertools.islice(monics, 7)]
    assert values[1] == _pow_mod_reference(FpPoly.monomial(p, 1), norm, f) == expected[0]
    assert values[1:] == expected


@pytest.mark.parametrize("p", [2, 11, 577])
def test_pow_mod_matches_repeated_multiplication(p):
    # e = 0 and e = 1 are the exponents whose only squaring is skipped
    rng = random.Random(p)
    mod = FpPoly(p, [rng.randrange(p) for _ in range(5)] + [1])
    base = FpPoly(p, [rng.randrange(p) for _ in range(8)] + [1])
    expected = FpPoly.constant(p, 1)
    for e in range(65):
        assert FpPoly(p, fppoly._pow_mod(list(base.coeffs), e, list(mod.coeffs), p)) == expected, e
        expected = expected * base % mod
    with pytest.raises(ValueError):  # refused, not looped on
        fppoly._pow_mod(list(base.coeffs), -1, list(mod.coeffs), p)


@pytest.mark.parametrize(
    "kind,param", [("gamma", param) for param in _ARTIN_SCHREIER_GAMMAS] + [("epsilon", 0)]
)
def test_factor_work_count_on_discriminants_f11(kind, param):
    # multiplicities come from the distinct-degree gcd chain and N(t) from
    # the Frobenius powers: no trial division by a factor, and no power mod
    # Delta above the Frobenius step t -> t^p (epsilon 0 has
    # Delta = (t^11 - t)^2, the five gammas two trace-0 factors of degree 11)
    p = 11
    delta = c4_delta(make_model(kind, param, p))[1]
    with mock.patch.object(
        fppoly, "_pow_mod", side_effect=fppoly._pow_mod
    ) as pow_mod, mock.patch.object(
        FpPoly, "multiplicity_of", autospec=True, side_effect=FpPoly.multiplicity_of
    ) as multiplicity_of:
        pieces = factor(delta)
    assert multiplicity_of.call_count == 0
    assert pow_mod.call_count > 0
    assert max(call.args[1] for call in pow_mod.call_args_list) <= p
    degrees = [(g.degree, m) for g, m in pieces]
    assert degrees == ([(1, 2)] * 11 if kind == "epsilon" else [(11, 1)] * 2)


def test_root_search_divides_once_per_split():
    # t^11 - t at p = 11, every epsilon surface's root search: each shift
    # c = 0 .. 9 reduces t + c modulo the unsplit part and divides the part
    # by that monic value, whose quotient is the rest of the split, so 20
    # divisions, none of them repeated
    p = 11
    f = [0, p - 1] + [0] * 9 + [1]
    _, frobenius = fppoly._distinct_degree(list(f), p)
    with mock.patch.object(fppoly, "_divmod", side_effect=fppoly._divmod) as divmod_:
        parts = fppoly._equal_degree(f, 1, frobenius, p)
    assert sorted(parts) == [[c, 1] for c in range(p)]
    calls = [(tuple(call.args[0]), tuple(call.args[1])) for call in divmod_.call_args_list]
    assert len(calls) == 20
    assert len(set(calls)) == len(calls)
