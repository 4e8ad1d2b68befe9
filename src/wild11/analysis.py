"""Interpretation of a Frobenius characteristic polynomial on V.

Three exact invariants are extracted from the degree-20 polynomial mu_p:

* the unit-normalized polynomial mu~(T) = mu_p(p T) / p^20, whose roots all
  have absolute value 1;
* the Picard number over the algebraic closure of F_p: 2 (fiber and
  zero-section classes) plus the number of roots of mu_p of the form
  p * (root of unity), counted with multiplicity through divisibility of
  P(T) = mu_p(p T) by the cyclotomic polynomials Phi_k;
* the formal-Brauer height, read off the p-adic Newton polygon: with s_min
  the smallest root valuation, height is 1/(1 - s_min), and s_min = 1 means
  infinite height (Artin-supersingular).

The root-of-unity count is the Picard number over the algebraic closure,
not only a bound: the Tate conjecture is a theorem for elliptic K3 surfaces
over finite fields (Artin and Swinnerton-Dyer, Invent. Math. 20, 1973), and
it gives rho over the closure as that count.  The report keeps the name
picard_upper.  The finer eigenspace-dimension argument restricting the
Picard number of these families to {2, 12, 22} is not recomputed here; only
the root-of-unity count enters.

The structural checks read mu_p alone, never the eigenspace data it was
expanded from: the functional equation of mu~; for the gamma kind, that
mu_p is even (the level-p^2 eigenspace product is the Graeffe transform of
mu_p, so for even mu_p = nu(T^2) it is nu^2 and adds nothing); integral
coefficients, which assemble_charpoly's conjugacy and Newton gates have
already enforced; and |mu_p(0)| = p^20, since mu_p(0) is the product of
the ten eigenspace determinants.

Every verdict is read off the one integer polynomial P(T) = mu_p(p T) =
p^20 * mu~(T) in Z[T]: mu~ is P / p^20, the Picard count divides P by
Phi_k, the functional equation is the palindrome test on P, and the
determinant is |P(0)| = p^20.  Everything
that gates pass/fail is exact integer arithmetic; mu~ is the one
rational-valued result, built once for the report.  The one
floating-point computation, the advisory check that the roots of mu~ lie
on the unit circle, is reported but never used as a gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .equivariant import CharPolyResult
from .errors import InconsistencyError
from .polynomials import (
    IntPoly,
    cyclotomic_poly,
    divides_with_multiplicity,
    euler_phi,
    newton_polygon,
    palindrome_sign,
)

V_DIMENSION = 20
B2 = 22  # second Betti number of a K3 surface

INFINITE_HEIGHT = math.inf

# k with euler_phi(k) <= 20 all lie below 67; scan a safe superset.
_CYCLOTOMIC_RANGE = range(1, 101)

UNIT_CIRCLE_TOLERANCE = 1e-9


def _scaled_mu(mu: IntPoly, p: int) -> IntPoly:
    """P(T) = mu(p T) = p^20 * mu~(T), the one polynomial every verdict reads."""
    return IntPoly([c * p**j for j, c in enumerate(mu.coeffs)])


def normalize(mu: IntPoly, p: int) -> tuple[Fraction, ...]:
    """Coefficients of mu~(T) = mu(p T) / p^20; requires mu monic of degree 20."""
    if mu.degree != V_DIMENSION or not mu.is_monic():
        raise ValueError(f"expected a monic degree-{V_DIMENSION} polynomial, got {mu!r}")
    return tuple(Fraction(c, p**V_DIMENSION) for c in _scaled_mu(mu, p).coeffs)


def picard_upper_bound(mu: IntPoly, p: int) -> int:
    """2 + (number of zeroes of mu of the shape p * root of unity).

    Zeroes are counted with multiplicity via divisibility of P(T) = mu(p T)
    by the monic Phi_k in Z[T]; by Gauss's lemma this equals the
    multiplicity of Phi_k in mu~ over Q, and of p^phi(k) * Phi_k(T / p) in mu.
    """
    scaled = _scaled_mu(mu, p)
    count = 0
    for k in _CYCLOTOMIC_RANGE:
        phi = euler_phi(k)
        if phi > V_DIMENSION:
            continue
        count += divides_with_multiplicity(cyclotomic_poly(k), scaled) * phi
    return 2 + count


def height_from_newton(slopes: tuple[tuple[Fraction, int], ...]) -> int | float:
    """Formal-Brauer height from the p-adic Newton slopes of mu.

    `slopes` is newton_polygon's ((valuation, multiplicity), ...), smallest
    valuation first; the multiplicities sum to the degree, which must be 20.
    Returns an integer in [1, 10], or INFINITE_HEIGHT when the smallest root
    valuation is 1 (the supersingular case)."""
    degree = sum(m for _, m in slopes)
    if degree != V_DIMENSION:
        raise ValueError(f"expected degree {V_DIMENSION}, got {degree}")
    s_min = slopes[0][0]
    if s_min == 1:
        return INFINITE_HEIGHT
    h = 1 / (1 - Fraction(s_min))
    if h.denominator != 1 or not 1 <= h <= 10:
        raise InconsistencyError(
            f"minimal slope {s_min} gives height {h}, outside {{1, ..., 10, infinity}}"
        )
    return int(h)


def _unit_circle_check(mu: IntPoly, p: int) -> bool:
    """Advisory floating-point check: all roots of mu~ on |z| = 1."""
    import numpy as np

    # int / int true division rounds the exact mu~ coefficient correctly, once
    coeffs = [c / p**V_DIMENSION for c in _scaled_mu(mu, p).coeffs]
    roots = np.roots(coeffs[::-1])
    return bool(np.all(np.abs(np.abs(roots) - 1.0) < UNIT_CIRCLE_TOLERANCE))


def structural_checks(mu: IntPoly, kind: str, p: int) -> dict[str, bool | None]:
    """Named boolean verdicts on mu_p; reported, never thrown.

    * functional_equation: P = p^20 * mu~ is palindromic or antipalindromic.
    * gamma_parity: mu_p has no odd-degree terms (None for the epsilon
      kind).  The level-p^2 product prod_i (T^2 - a_i(p^2) T + b_i^2) has
      the squared eigenvalues as roots, so it is always the Graeffe
      transform G with G(T^2) = mu(T) * mu(-T); for even mu = nu(T^2) that
      is nu^2, and parity is all there is to check.
    * integral_coefficients: mu_p lies in Z[T].
    * determinant: |mu_p(0)| = p^20, where mu_p(0) = prod_i b_i is the
      product of the eigenspace determinants.
    * unit_circle: the advisory floating-point root check.
    """
    checks: dict[str, bool | None] = {}
    scaled = _scaled_mu(mu, p)
    checks["functional_equation"] = palindrome_sign(scaled.coeffs) in (1, -1)
    checks["gamma_parity"] = not any(mu.coeffs[1::2]) if kind == "gamma" else None
    # mu exists only once assemble_charpoly's conjugacy gate and the exact
    # Newton divisions that build it in Z[T] have passed
    checks["integral_coefficients"] = True
    checks["determinant"] = abs(scaled.coeffs[0]) == p**V_DIMENSION
    checks["unit_circle"] = _unit_circle_check(mu, p)
    return checks


@dataclass(frozen=True)
class AnalysisReport:
    """Exact invariants of one surface: mu~, Picard bounds, height, checks."""

    mu_tilde: tuple[Fraction, ...]
    picard_upper: int
    picard_lower: int
    height: int | float
    checks: dict[str, bool | None]
    newton_slopes: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if not 2 <= self.picard_upper <= B2:
            raise InconsistencyError(f"Picard bound {self.picard_upper} outside [2, {B2}]")
        if self.picard_lower > self.picard_upper:
            raise InconsistencyError(
                f"Picard bounds inverted: {self.picard_lower} > {self.picard_upper}"
            )
        if self.height != INFINITE_HEIGHT and self.picard_upper > B2 - 2 * self.height:
            raise InconsistencyError(
                f"Picard bound {self.picard_upper} inconsistent with height {self.height}"
            )


def analyze_charpoly(result: CharPolyResult, kind: str) -> AnalysisReport:
    """Run the full interpretation pipeline on an assembled mu_p."""
    p = result.p
    slopes = newton_polygon(result.mu, p)
    return AnalysisReport(
        mu_tilde=normalize(result.mu, p),
        picard_upper=picard_upper_bound(result.mu, p),
        picard_lower=2,
        height=height_from_newton(slopes),
        checks=structural_checks(result.mu, kind, p),
        newton_slopes=slopes,
    )
