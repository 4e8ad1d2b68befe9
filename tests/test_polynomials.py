import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wild11.ffield import FieldSpec
from wild11.kodaira import LatticeSummary, artin_invariant
from wild11.polynomials import (
    newton_polygon,
    palindrome_sign,
    poly_mul,
    poly_str,
    prime_divisors,
    valuation,
)
from reference_values import GOLDEN_MU_EPS1, MU_TILDE_EPSILON_SQUARE
from references import cyclotomic_poly, divmod_monic, euler_phi


def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(11) == (1,) * 11
    # Phi_22(T) = Phi_11(-T)
    assert cyclotomic_poly(22) == tuple(1 if i % 2 == 0 else -1 for i in range(11))


@pytest.mark.parametrize("k", list(range(1, 67)))
def test_cyclotomic_product_identity(k):
    prod = (1,)
    for d in range(1, k + 1):
        if k % d == 0:
            prod = poly_mul(prod, cyclotomic_poly(d))
    assert prod == (-1,) + (0,) * (k - 1) + (1,)  # T^k - 1


def _horner(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_COEFFS = st.lists(st.integers(-10**6, 10**6), max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_COEFFS, b=_COEFFS, pad_a=st.integers(0, 2), pad_b=st.integers(0, 2))
def test_poly_mul_is_the_product_of_values(a, b, pad_a, pad_b):
    # the reference is evaluation, not another product loop: every product in
    # the package (Z[zeta], F_q, F_p[t] and the tests' own references) runs
    # through poly_mul.  Empty, length-1 and zero-padded tuples are drawn.
    a, b = tuple(a) + (0,) * pad_a, tuple(b) + (0,) * pad_b
    prod = poly_mul(a, b)
    assert len(prod) == (len(a) + len(b) - 1 if a and b else 0)
    for x in (-3, -1, 0, 1, 2, 5, 10**20):
        assert _horner(prod, x) == _horner(a, x) * _horner(b, x)


def test_power_matches_repeated_multiplication():
    spec = FieldSpec(11, 2)
    for x in ((0, 0), (1, 0), (3, 7), (10, 1)):
        expected = spec.coords_at(1)
        for e in range(21):
            assert spec.pow(x, e) == expected, (x, e)
            expected = spec.mul(expected, x)
    for e in (-1, -(2**70)):
        with pytest.raises(ValueError, match="negative exponent"):
            spec.pow((2,), e)


def test_exact_division_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        f = tuple(rng.randint(-50, 50) for _ in range(4)) + (1,)
        g = tuple(rng.randint(-50, 50) for _ in range(5)) + (rng.randint(1, 9),)
        quo, rem = divmod_monic(poly_mul(g, f), f)
        assert tuple(quo) == g and not any(rem)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-50, 50), max_size=12),
    st.lists(st.integers(-50, 50), min_size=1, max_size=5),
)
def test_divmod_monic_reconstructs_the_dividend(dividend, lower):
    # quotient * divisor + remainder = dividend, with a nonzero remainder of
    # degree below the divisor's
    divisor = tuple(lower) + (1,)
    quo, rem = divmod_monic(dividend, divisor)
    assume(any(rem))
    assert len(rem) <= len(lower)
    total = [0] * len(dividend)
    for terms in (poly_mul(quo, divisor), rem):
        for i, c in enumerate(terms):
            total[i] += c
    assert total == dividend


def test_int_exact_div_errors():
    _, rem = divmod_monic((1, 0, 1), (-1, 1))  # T - 1 leaves remainder 2 on T^2 + 1
    assert rem == [2]


def test_newton_polygon_examples():
    p = 11
    double_root = poly_mul((-p, 1), (-p, 1))
    np1 = newton_polygon(double_root, p)
    assert np1 == ((Fraction(1), 2),)
    np2 = newton_polygon((p, -1, 1), p)  # T^2 - T + p
    assert np2 == ((Fraction(0), 1), (Fraction(1), 1))
    with pytest.raises(ValueError):
        newton_polygon((0, 1), p)
    with pytest.raises(ValueError):
        newton_polygon((), p)


def test_valuation():
    assert valuation(1, 11) == 0
    assert valuation(3 * 121, 11) == 2
    assert valuation(-8, 2) == 3
    assert valuation(-(11**20), 11) == 20
    assert valuation(10, 11) == 0
    with pytest.raises(ValueError):
        valuation(0, 11)


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_valuation_refuses_p_below_2(p):
    # n % 1 == 0 and n % -1 == 0 for every n, so the division loop would never end
    with pytest.raises(ValueError, match="p >= 2"):
        valuation(8, p)
    with pytest.raises(ValueError, match="p >= 2"):
        newton_polygon((2, 1), p)
    with pytest.raises(ValueError, match="p >= 2"):
        artin_invariant(LatticeSummary(22, 121, ()), p)


def test_newton_polygon_of_golden_mu():
    np_mu = newton_polygon(GOLDEN_MU_EPS1, 11)
    assert np_mu == ((Fraction(9, 10), 10), (Fraction(11, 10), 10))


def test_newton_polygon_sum_rule_random():
    # sum(valuation * multiplicity) = v_p(constant) - v_p(lead)
    rng = random.Random(3)
    p = 5

    def val(n):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    for _ in range(40):
        coeffs = [rng.randint(1, 4) * p ** rng.randint(0, 4) for _ in range(6)]
        slopes = newton_polygon(coeffs, p)
        total = sum(v * m for v, m in slopes)
        assert total == val(coeffs[0]) - val(coeffs[-1])
        assert sum(m for _, m in slopes) == len(coeffs) - 1


def test_palindrome_sign():
    assert palindrome_sign(MU_TILDE_EPSILON_SQUARE) == 1
    assert palindrome_sign([-1, 0, 1]) == -1  # T^2 - 1
    assert palindrome_sign([0, 1, 1]) is None  # T^2 + T
    assert palindrome_sign(()) is None


def test_prime_divisors_by_brute_force():
    for n in range(1, 400):
        expected = [d for d in range(2, n + 1) if n % d == 0 and all(d % e for e in range(2, d))]
        assert prime_divisors(n) == expected, n
    assert prime_divisors(14640) == [2, 3, 5, 61] and prime_divisors(1330) == [2, 5, 7, 19]


def test_euler_phi():
    assert [euler_phi(k) for k in (1, 2, 4, 11, 22, 66)] == [1, 1, 2, 10, 10, 20]
    assert max(k for k in range(1, 200) if euler_phi(k) <= 20) == 66


def test_poly_str():
    assert poly_str([1, -2, 0, 1]) == "T^3 - 2*T + 1"
    assert poly_str([]) == "0"
    assert poly_str([Fraction(23, 11)]) == "23/11"
