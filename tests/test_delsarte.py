import itertools
import random

import pytest

from wild11 import delsarte
from wild11.delsarte import (
    FERMAT_TERMS,
    _substituted_equation,
    supersingular_possible,
    verify_cover_identity,
)
from wild11.ffield import is_prime


def _cover_sides(u, v, w, t_sign=-1):
    """Both sides of y^2 + xy - x^3 - t^11 = u^33 v^22 (u^11 + v^11 + w^11 + 1)
    at one integer point, with (x, y, t) from the cover map."""
    x = -(u**11) * v**11
    y = -(u**22) * v**11
    t = t_sign * w * u**3 * v**2
    return y * y + x * y - x**3 - t**11, u**33 * v**22 * (u**11 + v**11 + w**11 + 1)


def _evaluate(terms, point):
    u, v, w = point
    return sum(c * u**a * v**b * w**e for (a, b, e), c in terms.items())


def test_cover_identity_verifies_with_expected_cofactor():
    verified, cofactor = verify_cover_identity()
    assert verified
    assert cofactor == (1, (33, 22, 0))  # 1 * u^33 v^22


def test_cofactor_reproduces_substituted_equation():
    _, (coefficient, exponents) = verify_cover_identity()
    product = {tuple(a + b for a, b in zip(exponents, e)): coefficient for e in FERMAT_TERMS}
    assert product == _substituted_equation()
    assert product == {(44, 22, 0): 1, (33, 33, 0): 1, (33, 22, 11): 1, (33, 22, 0): 1}


def test_wrong_map_fails(monkeypatch):
    # flipping the sign of the t-coordinate breaks the identity (t enters at
    # odd power 11)
    x, y, (sign, exponents) = delsarte.COVER_MAP
    monkeypatch.setattr(delsarte, "COVER_MAP", (x, y, (-sign, exponents)))
    verified, _ = verify_cover_identity()
    assert verified is False


def test_cover_identity_at_integer_points():
    # plain integer evaluation, independent of the exponent substitution
    rng = random.Random(11)
    points = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(200)]
    points += [(1, 1, 1), (-1, 2, -3)]
    substituted = _substituted_equation()
    for point in points:
        lhs, rhs = _cover_sides(*point)
        assert lhs == rhs == _evaluate(substituted, point), point
    assert any(len(set(_cover_sides(*point, t_sign=+1))) == 2 for point in points)


def test_identity_reduces_modulo_small_primes():
    substituted = _substituted_equation()
    for p in (2, 3, 5, 7, 11, 13):
        for point in itertools.product(range(p), repeat=3):
            lhs, rhs = _cover_sides(*point)
            assert lhs % p == rhs % p == _evaluate(substituted, point) % p, (p, point)


@pytest.mark.parametrize("p,expected", [(11, True), (2, True), (3, False), (5, False), (7, True), (23, False)])
def test_supersingular_possible_examples(p, expected):
    assert supersingular_possible(p) is expected


def test_supersingular_possible_rejects_composites():
    with pytest.raises(ValueError):
        supersingular_possible(15)


def test_supersingular_two_criteria_agree_below_1000():
    for p in range(2, 1000):
        if not is_prime(p) or p == 11:
            continue
        # criterion 1: some power of p is -1 mod 11
        powers = set()
        x = p % 11
        while x not in powers:
            powers.add(x)
            x = x * p % 11
        has_minus_one = 10 in powers
        # criterion 2: p is a non-square mod 11
        non_square = p % 11 not in {x * x % 11 for x in range(1, 11)}
        assert has_minus_one == non_square == supersingular_possible(p)
