import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wild11 import fppoly
from wild11.fppoly import derivative, factor, is_irreducible, monic_polys, multiplicity, reduced
from wild11.polynomials import poly_mul
from wild11.surface import c4_delta, make_model
from references import fp_mul, irreducible_by_trial_division, monic_polys_of_degree


def _rem(a, mod, p):
    return fppoly._divmod(a, mod, p)[1]


def test_reduced_reduces_every_entry_and_strips_trailing_zeros():
    assert reduced([12, -1, 22, 0], 11) == (1, 10)
    assert reduced((0, 11, -22), 11) == () == reduced((), 5)
    assert reduced([3, 0, 1], 5) == (3, 0, 1) and type(reduced([3], 5)) is tuple


def test_divmod_round_trip():
    rng = random.Random(11)
    for p in (5, 7, 11):
        for _ in range(30):
            a = reduced([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
            b = reduced([rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1], p)
            q, r = fppoly._divmod(a, b, p)
            assert reduced(q, p) == q and reduced(r, p) == r
            assert fppoly._add(poly_mul(q, b), r, p) == a
            assert len(r) < len(b)


def test_gcd_basics():
    p = 11
    f = fp_mul(p, (0, 1), (3, 1))  # t(t+3)
    g = fp_mul(p, (0, 1), (5, 1))
    assert fppoly._gcd(f, g, p) == (0, 1)
    assert fppoly._gcd(f, (), p) == fppoly._monic(f, p)


def _refactor_check(f, p):
    prod = (f[-1],)
    for g, m in factor(f, p):
        assert g[-1] == 1
        for _ in range(m):
            prod = fp_mul(p, prod, g)
    assert prod == f


def test_factor_artin_schreier_split():
    # t^11 - t splits into the eleven linear factors over F_11
    p = 11
    f = (0, p - 1) + (0,) * 9 + (1,)
    pieces = factor(f, p)
    assert len(pieces) == 11
    assert all(len(g) == 2 and m == 1 for g, m in pieces)
    _refactor_check(f, p)


def test_factor_artin_schreier_irreducible():
    # t^11 - t - c is irreducible over F_11 for c != 0
    p = 11
    f = (8, p - 1) + (0,) * 9 + (1,)  # t^11 - t + 8
    pieces = factor(f, p)
    assert pieces == [(f, 1)]


def test_factor_with_multiplicity():
    p = 11
    base = (0, p - 1) + (0,) * 9 + (1,)
    square = fp_mul(p, base, base)
    pieces = factor(square, p)
    assert all(m == 2 for _, m in pieces)
    assert len(pieces) == 11
    _refactor_check(square, p)


def test_factor_frobenius_power():
    # 432 t^11 + 1 = 3 (t + 4)^11 over F_11
    p = 11
    f = reduced((1,) + (0,) * 10 + (432,), p)
    pieces = factor(f, p)
    assert pieces == [((4, 1), 11)]
    _refactor_check(f, p)


def test_factor_mixed_degrees_f7():
    # 432 t^11 + 1 over F_7: one rational root, one irreducible of degree 10
    p = 7
    f = reduced((1,) + (0,) * 10 + (432,), p)
    pieces = factor(f, p)
    degrees = sorted(len(g) - 1 for g, _ in pieces)
    assert degrees == [1, 10]
    assert all(m == 1 for _, m in pieces)
    _refactor_check(f, p)


def test_factor_random_products():
    rng = random.Random(5)
    for p in (5, 11):
        pool = [g for g, _ in factor((1, 0, 0, 0, 0, 0, 1), p)]
        pool += [(a, 1) for a in range(3)]
        irreducibles = list(dict.fromkeys(pool))
        for _ in range(10):
            chosen = rng.sample(irreducibles, k=3)
            mults = [rng.randint(1, 3) for _ in chosen]
            f = (rng.randrange(1, p),)
            for g, m in zip(chosen, mults):
                for _ in range(m):
                    f = fp_mul(p, f, g)
            recovered = dict(factor(f, p))
            assert recovered == dict(zip(chosen, mults))
            _refactor_check(f, p)


def test_factor_uniform_discriminant_f11():
    # Delta = 8 t^22 + 10 t^11 = 8 t^11 (t + 4)^11: its derivative vanishes
    p = 11
    delta = (0,) * 11 + (10,) + (0,) * 10 + (8,)
    assert c4_delta(make_model("uniform", None, p))[1] == delta
    assert factor(delta, p) == [((0, 1), 11), ((4, 1), 11)]
    _refactor_check(delta, p)


def test_factor_gamma2_discriminant_f11_shared_trace():
    # Delta of gamma 2 over F_11 is the product of the Artin-Schreier factors
    # t^11 - t + 3 and t^11 - t + 8.  The trace of t on a degree-11 factor is
    # minus its t^10 coefficient, 0 for both, so Tr(t) cannot separate them
    # and the norm N(t), -3 on one and -8 on the other, must
    p = 11
    delta = (5, 0, 8, *(0,) * 9, 6, *(0,) * 9, 8)
    assert c4_delta(make_model("gamma", 2, p))[1] == delta
    pieces = factor(delta, p)
    as_3, as_8 = (3, p - 1, *(0,) * 9, 1), (8, p - 1, *(0,) * 9, 1)
    assert pieces == [(as_3, 1), (as_8, 1)]
    assert all(g[10] == 0 for g, _ in pieces)
    _refactor_check(delta, p)


def _pow_mod_reference(base, e, mod, p):
    """base^e % mod by square-and-multiply, each product reduced and divided
    by mod, for e >= 0."""
    result, x = _rem((1,), mod, p), _rem(base, mod, p)
    while e:
        if e & 1:
            result = _rem(fp_mul(p, result, x), mod, p)
        x = _rem(fp_mul(p, x, x), mod, p)
        e >>= 1
    return result


def _cantor_zassenhaus_reference(f, d, p, rng):
    """Test-only equal-degree splitting: f squarefree with all factors of
    degree d, split by gcd(f, a^((p^d - 1)/2) - 1) for random a."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = reduced([rng.randrange(p) for _ in range(len(f) - 1)], p)
        g = fppoly._gcd(f, fppoly._add(_pow_mod_reference(a, (p**d - 1) // 2, f, p), (-1,), p), p)
        if 1 < len(g) < len(f):
            return _cantor_zassenhaus_reference(g, d, p, rng) + _cantor_zassenhaus_reference(
                fppoly._divmod(f, g, p)[0], d, p, rng
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
        expected = sorted(_cantor_zassenhaus_reference(f, d, p, rng))
        assert sorted(chosen) == expected
        assert factor(f, p) == [(g, 1) for g in expected]


def test_factor_shared_trace_and_norm_f5():
    # t^3 + t + 1 and t^3 + 2t + 1 are irreducible over F_5 with trace 0
    # (minus the t^2 coefficient) and norm N(t) = -1 (minus the constant
    # term) on both, so only the values N(a) after N(t) can separate them
    p = 5
    g1, g2 = (1, 1, 0, 1), (1, 2, 0, 1)
    assert irreducible_by_trial_division(g1, p) and irreducible_by_trial_division(g2, p)
    f = fp_mul(p, g1, g2)
    expected = sorted(_cantor_zassenhaus_reference(f, 3, p, random.Random(3)))
    assert expected == [g1, g2]
    assert factor(f, p) == [(g1, 1), (g2, 1)]


@pytest.mark.parametrize("kind,param", [("epsilon", 1), ("gamma", 1), ("uniform", None)])
@pytest.mark.parametrize("p", [5, 13, 17, 577, 991, 3001, 7919])
def test_factor_discriminants_across_shift_bound(kind, param, p):
    # primes on both sides of SHIFTS = 16 and of 3000; gamma 1 at p = 577
    # has two trace-0 factors of degree 11, which only a norm separates
    delta = c4_delta(make_model(kind, param, p))[1]
    pieces = factor(delta, p)
    assert all(is_irreducible(g, p) and m >= 1 for g, m in pieces)
    _refactor_check(delta, p)


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
        pieces = factor(delta, p)
        _refactor_check(delta, p)
    assert [(len(g) - 1, m) for g, m in pieces] == [(1, 1)] * 12 + [(5, 1)] * 2
    assert all(is_irreducible(g, p) for g, _ in pieces)


def test_root_search_tries_no_shifted_value_twice():
    # At p = 2137 the roots 920 and 1217 = -920 have equal quadratic
    # characters after each of the 16 shifts 0 .. 15, so Tr(t) = t leaves
    # them together.  The next value is t + 16, whose shifts are all new;
    # t + 1 .. t + 15 would repeat 15 of them, and no t^2 + c separates +-r.
    p, r1, r2 = 2137, 920, 1217
    assert fppoly.SHIFTS == 16 and (r1 + r2) % p == 0

    def chi(x):
        return pow(x % p, (p - 1) // 2, p)

    assert all(chi(r1 + c) == chi(r2 + c) for c in range(16))
    f = fp_mul(p, (-r1, 1), (-r2, 1))
    with mock.patch.object(fppoly, "_refine", side_effect=fppoly._refine) as refine:
        pieces = factor(f, p)
    assert pieces == [((p - r2, 1), 1), ((p - r1, 1), 1)]
    values = [c.args[2] for c in refine.call_args_list]
    assert values == [(0, 1), (16, 1)]
    shifted = [fppoly._add(v, (c,), p) for v in values for c in range(fppoly.SHIFTS)]
    assert len(set(shifted)) == len(shifted)


@pytest.mark.parametrize("kind,param", [("epsilon", 1), ("gamma", 2)])
def test_factor_returns_reduced_monic_tuples(kind, param):
    # every factor is in the form the rest of F_p[t] takes: a tuple with
    # entries in 0 .. p - 1 and leading coefficient 1
    delta = c4_delta(make_model(kind, param, 11))[1]
    pieces = factor(delta, 11)
    assert all(type(g) is tuple and reduced(g, 11) == g and g[-1] == 1 for g, _ in pieces)
    assert [(len(g) - 1, m) for g, m in pieces] == (
        [(1, 1)] * 11 + [(11, 1)] if kind == "epsilon" else [(11, 1)] * 2
    )


def _reduced(cs, p):
    """The reduced tuple of cs, computed apart from fppoly.reduced."""
    out = [c % p for c in cs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _evaluate(cs, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(cs)) % p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 11, 577, 10**16 + 61]), st.data())
def test_list_division_gcd_and_power_against_integer_references(p, data):
    # the one division loop, the gcd and the power on reduced lists, checked
    # by products in Z[t] reduced mod p and by evaluation at points of F_p
    def draw(max_size, monic=False):
        cs = data.draw(st.lists(st.integers(0, p - 1), max_size=max_size))
        cs = cs + [1] if monic else cs
        assert reduced(cs, p) == _reduced(cs, p)
        return _reduced(cs, p)

    a, b = draw(9), draw(5)
    if b:
        quo, rem = fppoly._divmod(a, b, p)
        assert _reduced(quo, p) == quo and _reduced(rem, p) == rem
        assert len(rem) < len(b)
        product = itertools.zip_longest(poly_mul(quo, b), rem, fillvalue=0)
        assert _reduced([x + y for x, y in product], p) == a
        exact = _reduced(poly_mul(a, b), p)
        assert fppoly._divmod(exact, b, p) == (a, ())
    common, u, v = draw(3, monic=True), draw(4), draw(4)
    x, y = _reduced(poly_mul(common, u), p), _reduced(poly_mul(common, v), p)
    g = fppoly._gcd(x, y, p)

    def divides(d, z):
        return _reduced(poly_mul(fppoly._divmod(z, d, p)[0], d), p) == z

    if x or y:
        assert g[-1] == 1 and divides(g, x) and divides(g, y) and divides(common, g)
    else:
        assert g == ()
    roots = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(p, 4), unique=True))
    mod = (1,)
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


@pytest.mark.parametrize("p,max_degree", [(2, 7), (3, 6), (5, 4), (7, 3)])
def test_factor_exhaustive_small_fields(p, max_degree):
    # every monic f of degree 1 .. max_degree, so zero derivatives (t^3 + 1
    # over F_3) and unequal multiplicities (t^3 (t + 1)) are all covered;
    # over F_2 the splitting values lie in {0, 1} and only gcds separate them
    irreducible = {}
    for degree in range(1, max_degree + 1):
        for f in monic_polys_of_degree(p, degree):
            pieces = factor(f, p)
            prod = (1,)
            for g, m in pieces:
                assert g[-1] == 1 and m >= 1
                if g not in irreducible:
                    irreducible[g] = irreducible_by_trial_division(g, p)
                assert irreducible[g], (f, g)
                for _ in range(m):
                    prod = fp_mul(p, prod, g)
            assert prod == f
            keys = [(len(g) - 1, g) for g, _ in pieces]
            assert keys == sorted(set(keys)), f


def test_is_irreducible_requires_monic_nonconstant():
    p = 5
    assert is_irreducible((1, 1), p) and is_irreducible((2, 0, 1), p)
    for f in ((), (1,), (3,), (1, 2), (4, 0, 2)):
        assert not is_irreducible(f, p), f


def test_multiplicity_of():
    p = 11
    g = (4, 1)
    f = fp_mul(p, g, g, g, (1, 1))
    assert multiplicity(g, f, p) == 3
    assert multiplicity((2, 1), f, p) == 0
    # a unit divides everything to every power, and zero is divisible by
    # every power: refused, not looped on
    for unit in ((3,), (1,), ()):
        with pytest.raises(ValueError):
            multiplicity(unit, f, p)
    with pytest.raises(ValueError):
        multiplicity(g, (), p)


def test_factor_ignores_unit_scalars():
    # classification must not depend on the unit ambiguity of Delta
    p = 11
    f = fp_mul(p, (0, p - 1) + (0,) * 9 + (1,), (3, 1))
    for unit in range(2, p):
        assert factor(fp_mul(p, f, (unit,)), p) == factor(f, p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 11]), st.data())
def test_derivative_is_a_derivation(p, data):
    def poly():
        return reduced(data.draw(st.lists(st.integers(0, p - 1), max_size=8)), p)

    def d(a):
        return derivative(a, p)

    f, g = poly(), poly()
    assert d(fp_mul(p, f, g)) == fppoly._add(poly_mul(d(f), g), poly_mul(f, d(g)), p)
    assert d(fppoly._add(f, g, p)) == fppoly._add(d(f), d(g), p)
    assert d((0,) * p + (1,)) == ()
    assert d((0, 0, 0, 2)) == reduced((0, 0, 6), p)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor((), 11)


def _squarefree(f, p):
    # over the perfect field F_p, f' = 0 makes f a p-th power
    f_prime = reduced([i * c for i, c in enumerate(f)][1:], p)
    return bool(f_prime) and fppoly._gcd(f, f_prime, p) == (1,)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
def test_factor_multiplicities_match_multiplicity_of(p, data):
    # products of powers g^m with m up to p + 2, so p-th powers and
    # multiplicities above p occur; the g need not be irreducible or distinct
    f = (1,)
    for _ in range(data.draw(st.integers(1, 3))):
        lower = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
        m = data.draw(st.integers(1, p + 2))
        for _ in range(m):
            f = fp_mul(p, f, tuple(lower) + (1,))
    products = fppoly._distinct_degree(f, p)[0]
    prod = (1,)
    for i, (g, d, m) in enumerate(products):
        assert reduced(g, p) == g and g[-1] == 1, (f, g)
        assert (len(g) - 1) % d == 0 and _squarefree(g, p), (f, g)
        assert all(fppoly._gcd(g, h, p) == (1,) for h, _, _ in products[i + 1 :]), (f, g)
        for _ in range(m):
            prod = fp_mul(p, prod, g)
    assert prod == f
    pieces = factor(f, p)
    assert all(multiplicity(g, f, p) == m for g, m in pieces), f
    _refactor_check(f, p)


_ARTIN_SCHREIER_GAMMAS = (2, 6, 7, 8, 10)


def _equal_degree_product(p, d, count, rng):
    """count distinct monic irreducibles of degree d drawn by rng, and their product."""
    chosen = set()
    while len(chosen) < count:
        g = tuple([rng.randrange(p) for _ in range(d)]) + (1,)
        if irreducible_by_trial_division(g, p):
            chosen.add(g)
    return chosen, fp_mul(p, *chosen)


_NORM_CASES = [
    (11, fppoly._monic(c4_delta(make_model("gamma", param, 11))[1], 11)) for param in _ARTIN_SCHREIER_GAMMAS
] + [
    (p, _equal_degree_product(p, d, 3, random.Random(p + d))[1])
    for p in (5, 13, 577, 3001)
    for d in (2, 3)
]


@pytest.mark.parametrize("p,f", _NORM_CASES, ids=[f"p{p}-deg{len(f) - 1}" for p, f in _NORM_CASES])
def test_norm_of_t_is_the_product_of_the_frobenius_powers(p, f):
    # the loop's N(t) = prod_(j<d) t^(p^j) mod f against the power of t it
    # replaces, and every value after it against the norms by a reference power in
    # base-p order, so the sequence of values is the one before the product;
    # Tr(t) against the sum of the Frobenius powers, reduced once
    [(prod, d, m)], frobenius = fppoly._distinct_degree(f, p)
    assert (prod, m) == (f, 1) and len(f) - 1 > d
    assert all(reduced(g, p) == g for g in frobenius)
    norm = (p**d - 1) // (p - 1)
    values = list(itertools.islice(fppoly._separating_values(f, d, frobenius, p), 8))
    assert values[0] == reduced([sum(cs) for cs in itertools.zip_longest(*frobenius[:d], fillvalue=0)], p)
    monics = itertools.chain.from_iterable(monic_polys(p, k) for k in range(1, len(f)))
    expected = [_pow_mod_reference(a, norm, f, p) for a in itertools.islice(monics, 7)]
    assert values[1] == _pow_mod_reference((0, 1), norm, f, p) == expected[0]
    assert values[1:] == expected


@pytest.mark.parametrize("p", [2, 11, 577])
def test_pow_mod_matches_repeated_multiplication(p):
    # e = 0 and e = 1 are the exponents whose only squaring is skipped
    rng = random.Random(p)
    mod = tuple([rng.randrange(p) for _ in range(5)]) + (1,)
    base = tuple([rng.randrange(p) for _ in range(8)]) + (1,)
    expected = (1,)
    for e in range(65):
        assert fppoly._pow_mod(base, e, mod, p) == expected, e
        expected = _rem(fp_mul(p, expected, base), mod, p)
    with pytest.raises(ValueError):  # refused, not looped on
        fppoly._pow_mod(base, -1, mod, p)


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
        fppoly, "multiplicity", side_effect=fppoly.multiplicity
    ) as multiplicity_:
        pieces = factor(delta, p)
    assert multiplicity_.call_count == 0
    assert pow_mod.call_count > 0
    assert max(call.args[1] for call in pow_mod.call_args_list) <= p
    degrees = [(len(g) - 1, m) for g, m in pieces]
    assert degrees == ([(1, 2)] * 11 if kind == "epsilon" else [(11, 1)] * 2)


def test_root_search_divides_once_per_split():
    # t^11 - t at p = 11, every epsilon surface's root search: each shift
    # c = 0 .. 9 reduces t + c modulo the unsplit part and divides the part
    # by that monic value, whose quotient is the rest of the split, so 20
    # divisions, none of them repeated
    p = 11
    f = (0, p - 1) + (0,) * 9 + (1,)
    _, frobenius = fppoly._distinct_degree(f, p)
    with mock.patch.object(fppoly, "_divmod", side_effect=fppoly._divmod) as divmod_:
        parts = fppoly._equal_degree(f, 1, frobenius, p)
    assert sorted(parts) == [(c, 1) for c in range(p)]
    calls = [(tuple(call.args[0]), tuple(call.args[1])) for call in divmod_.call_args_list]
    assert len(calls) == 20
    assert len(set(calls)) == len(calls)
