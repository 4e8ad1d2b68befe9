"""Symbolic verification of the degree-11 Fermat cover of the uniform model.

The surface y^2 + x*y = x^3 + t^11 is dominated by the Fermat surface
u^11 + v^11 + w^11 + 1 = 0 through the monomial map

    (x, y, t) = (-u^11 v^11, -u^22 v^11, -w u^3 v^2).

Substituting the map into the Weierstrass equation must produce a
polynomial multiple of the Fermat relation; the verification is a single
exact computation over Z, so its reductions hold in every characteristic.

A minimal sparse trivariate polynomial type is all the computer algebra
this needs.
"""

from __future__ import annotations

from .errors import InconsistencyError
from .ffield import is_prime

_Exponents = tuple[int, int, int]


class MultiPoly:
    """Sparse polynomial in Z[u, v, w]; zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[_Exponents, int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @staticmethod
    def monomial(coefficient: int, exponents: _Exponents) -> "MultiPoly":
        return MultiPoly({exponents: coefficient})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[_Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(out)

    def __pow__(self, n: int) -> "MultiPoly":
        result = MultiPoly.monomial(1, (0, 0, 0))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod_lex(self, divisor: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        """Division with remainder by a single divisor, lex order u > v > w."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        lead_e = max(divisor.terms)
        lead_c = divisor.terms[lead_e]
        current = dict(self.terms)
        quotient: dict[_Exponents, int] = {}
        remainder: dict[_Exponents, int] = {}
        while current:
            e = max(current)
            c = current.pop(e)
            if c == 0:
                continue
            if all(a >= b for a, b in zip(e, lead_e)) and c % lead_c == 0:
                qe = (e[0] - lead_e[0], e[1] - lead_e[1], e[2] - lead_e[2])
                qc = c // lead_c
                quotient[qe] = quotient.get(qe, 0) + qc
                for de, dc in divisor.terms.items():
                    if de == lead_e:
                        continue
                    se = (qe[0] + de[0], qe[1] + de[1], qe[2] + de[2])
                    current[se] = current.get(se, 0) - qc * dc
                    if current[se] == 0:
                        del current[se]
            else:
                remainder[e] = remainder.get(e, 0) + c
        return MultiPoly(quotient), MultiPoly(remainder)

    def reduce_mod(self, p: int) -> dict[_Exponents, int]:
        return {e: c % p for e, c in self.terms.items() if c % p != 0}

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "".join(
                f"{name}^{k}" if k > 1 else name
                for name, k in zip("uvw", e)
                if k
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return f"MultiPoly({' + '.join(parts)})"


def fermat_relation() -> MultiPoly:
    """u^11 + v^11 + w^11 + 1."""
    return (
        MultiPoly.monomial(1, (11, 0, 0))
        + MultiPoly.monomial(1, (0, 11, 0))
        + MultiPoly.monomial(1, (0, 0, 11))
        + MultiPoly.monomial(1, (0, 0, 0))
    )


def _substituted_equation(t_sign: int = -1) -> MultiPoly:
    """y^2 + x*y - x^3 - t^11 under the monomial cover map.

    t_sign flips the sign of the t-coordinate of the map; -1 is the correct
    cover, +1 exists as a negative control."""
    x = MultiPoly.monomial(-1, (11, 11, 0))
    y = MultiPoly.monomial(-1, (22, 11, 0))
    t = MultiPoly.monomial(t_sign, (3, 2, 1))
    return y * y + x * y - x**3 - t**11


def verify_cover_identity() -> tuple[bool, MultiPoly]:
    """Divide the substituted equation by the Fermat relation, exactly.

    Returns (True, cofactor) when the remainder vanishes; the identity is
    over Z, so it reduces correctly modulo every prime."""
    quotient, remainder = _substituted_equation().divmod_lex(fermat_relation())
    return (not remainder, quotient)


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
