"""Symbolic verification of the degree-11 Fermat cover of the uniform model.

The surface y^2 + x*y = x^3 + t^11 is dominated by the Fermat surface
u^11 + v^11 + w^11 + 1 = 0 through the monomial map

    (x, y, t) = (-u^11 v^11, -u^22 v^11, -w u^3 v^2).

Substituting the map into the Weierstrass equation must produce a
monomial multiple of the Fermat relation; the verification is a single
exact computation over Z, so its reductions hold in every characteristic.

Under the map each of x, y and t is a signed monomial, so every term of
the equation becomes one monomial: its sign is a product of signs and its
exponent tuple a sum of exponent tuples.  No polynomial arithmetic is
needed beyond that substitution and one comparison.
"""

from __future__ import annotations

from .errors import InconsistencyError
from .ffield import is_prime

_Exponents = tuple[int, int, int]

# u^11 + v^11 + w^11 + 1, every coefficient 1
FERMAT_TERMS: tuple[_Exponents, ...] = ((11, 0, 0), (0, 11, 0), (0, 0, 11), (0, 0, 0))

# (x, y, t) = (-u^11 v^11, -u^22 v^11, -w u^3 v^2), each coordinate a
# (sign, exponents of u, v, w) monomial
COVER_MAP = ((-1, (11, 11, 0)), (-1, (22, 11, 0)), (-1, (3, 2, 1)))


def _substituted_equation() -> dict[_Exponents, int]:
    """y^2 + x*y - x^3 - t^11 under COVER_MAP, as {exponents: coefficient}."""
    x, y, t = COVER_MAP
    terms: dict[_Exponents, int] = {}
    for coefficient, factors in ((1, (y, y)), (1, (x, y)), (-1, (x, x, x)), (-1, (t,) * 11)):
        for sign, _ in factors:
            coefficient *= sign
        exponents = tuple(map(sum, zip(*(e for _, e in factors))))
        terms[exponents] = terms.get(exponents, 0) + coefficient
    return {e: c for e, c in terms.items() if c}


def verify_cover_identity() -> tuple[bool, tuple[int, _Exponents]]:
    """Check that the substituted equation is a monomial times the Fermat relation.

    A monomial multiple of u^11 + v^11 + w^11 + 1 has the multiple itself,
    from the constant 1, as its unique lowest-degree term; so that term is
    the cofactor, and one comparison with cofactor * Fermat decides the
    identity.  Returns (verified, (coefficient, exponents) of the cofactor).
    The identity is over Z, so it reduces correctly modulo every prime."""
    equation = _substituted_equation()
    lowest = min(equation, key=sum)
    coefficient = equation[lowest]
    product = {tuple(a + b for a, b in zip(lowest, e)): coefficient for e in FERMAT_TERMS}
    return equation == product, (coefficient, lowest)


def supersingular_possible(p: int) -> bool:
    """Whether characteristic p admits a supersingular member: p = 11, or
    some power of p is -1 mod 11 (equivalently p is a non-square mod 11)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 11:
        return True
    order = 1
    power = p % 11
    while power != 1:
        power = power * p % 11
        order += 1
    by_order = order % 2 == 0
    by_square = p % 11 not in {1, 3, 4, 5, 9}
    if by_order != by_square:
        raise InconsistencyError(
            f"order criterion ({by_order}) and square criterion ({by_square}) disagree at p = {p}"
        )
    return by_order
