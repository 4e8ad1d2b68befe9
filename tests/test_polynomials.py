import random
from fractions import Fraction

import pytest

from wild11 import (
    IntPoly,
    cyclotomic_poly,
    divides_with_multiplicity,
    newton_polygon,
    palindrome_sign,
)
from wild11.polynomials import euler_phi, poly_str
from reference_values import GOLDEN_MU_EPS1, MU_TILDE_EPSILON_SQUARE


def T(power=1, c=1):
    return IntPoly.monomial(power, c)


def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1) == IntPoly([-1, 1])
    assert cyclotomic_poly(11) == IntPoly([1] * 11)
    # Phi_22(T) = Phi_11(-T)
    assert cyclotomic_poly(22) == IntPoly([c if i % 2 == 0 else -c for i, c in enumerate([1] * 11)])


@pytest.mark.parametrize("k", list(range(1, 67)))
def test_cyclotomic_product_identity(k):
    prod = IntPoly([1])
    for d in range(1, k + 1):
        if k % d == 0:
            prod = prod * cyclotomic_poly(d)
    assert prod == T(k) - IntPoly([1])


def test_divides_with_multiplicity():
    f = T(2) + IntPoly([1])  # T^2 + 1
    assert divides_with_multiplicity(f, T(4) - IntPoly([1])) == 1
    assert divides_with_multiplicity(f, f * f) == 2
    assert divides_with_multiplicity(T(1) - IntPoly([1]), f) == 0
    assert divides_with_multiplicity(f, IntPoly([3])) == 0
    for divisor in (IntPoly(), IntPoly([1]), T(2, 2) + IntPoly([1])):  # zero, constant, non-monic
        with pytest.raises(ValueError):
            divides_with_multiplicity(divisor, f)


def test_exact_division_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        f = IntPoly([rng.randint(-50, 50) for _ in range(4)] + [1])
        g = IntPoly([rng.randint(-50, 50) for _ in range(5)] + [rng.randint(1, 9)])
        assert (g * f).exact_div(f) == g


def test_int_exact_div_errors():
    with pytest.raises(ValueError):
        (T(2) + IntPoly([1])).exact_div(T(1) - IntPoly([1]))
    with pytest.raises(ValueError):  # non-monic divisor, even though 2T divides 2T^2
        T(2, 2).exact_div(T(1, 2))
    with pytest.raises(ValueError):
        T(2).exact_div(IntPoly([1]))


def test_newton_polygon_examples():
    p = 11
    double_root = (T(1) - IntPoly([p])) * (T(1) - IntPoly([p]))
    np1 = newton_polygon(double_root, p)
    assert np1 == ((Fraction(1), 2),)
    np2 = newton_polygon(IntPoly([p, -1, 1]), p)  # T^2 - T + p
    assert np2 == ((Fraction(0), 1), (Fraction(1), 1))
    with pytest.raises(ValueError):
        newton_polygon(IntPoly([0, 1]), p)
    with pytest.raises(ValueError):
        newton_polygon(IntPoly(), p)


def test_newton_polygon_of_golden_mu():
    np_mu = newton_polygon(IntPoly(list(GOLDEN_MU_EPS1)), 11)
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
        f = IntPoly(coeffs)
        slopes = newton_polygon(f, p)
        total = sum(v * m for v, m in slopes)
        assert total == val(f.coeffs[0]) - val(f.coeffs[-1])
        assert sum(m for _, m in slopes) == f.degree


def test_palindrome_sign():
    assert palindrome_sign(MU_TILDE_EPSILON_SQUARE) == 1
    assert palindrome_sign([-1, 0, 1]) == -1  # T^2 - 1
    assert palindrome_sign([0, 1, 1]) is None  # T^2 + T
    assert palindrome_sign(()) is None


def test_euler_phi():
    assert [euler_phi(k) for k in (1, 2, 4, 11, 22, 66)] == [1, 1, 2, 10, 10, 20]
    assert max(k for k in range(1, 200) if euler_phi(k) <= 20) == 66


def test_poly_str():
    assert poly_str([1, -2, 0, 1]) == "T^3 - 2*T + 1"
    assert poly_str([]) == "0"
    assert poly_str([Fraction(23, 11)]) == "23/11"
