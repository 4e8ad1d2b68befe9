"""Interpretation of a Frobenius characteristic polynomial on V.

Three exact invariants are extracted from the degree-20 polynomial mu_p:

* the unit-normalized polynomial mu~(T) = mu_p(p T) / p^20, whose roots all
  have absolute value 1;
* the Picard number over the algebraic closure of F_p: 2 (fiber and
  zero-section classes) plus the number of roots of mu_p of the form
  p * (root of unity), counted with multiplicity through divisibility of
  P(T) = mu_p(p T) by the cyclotomic polynomials Phi_k.  Such a root has
  p-adic valuation exactly 1, so it lies on the slope-1 segment of the
  Newton polygon, and that segment's length L bounds the count: with
  L = 0 no division is tried, otherwise only the Phi_k with
  phi(k) <= L - (count so far) are;
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

The structural checks are advisory and not part of AnalysisReport; only
the analyze command, which prints them, runs them.  They read mu_p alone,
never the eigenspace data it was expanded from: the functional equation
of mu~; for the gamma kind, that mu_p is even (the level-p^2 eigenspace
product is the Graeffe transform of mu_p, so for even mu_p = nu(T^2) it
is nu^2 and adds nothing); integral coefficients, which
assemble_charpoly's conjugacy and Newton gates have already enforced; and
|mu_p(0)| = p^20, since mu_p(0) is the product of the ten eigenspace
determinants.

Every verdict is read off the one integer polynomial P(T) = mu_p(p T) =
p^20 * mu~(T) in Z[T], a plain tuple of ints, constant term first: mu~ is
P / p^20, the Picard count divides P by Phi_k, the functional equation is
the palindrome test on P, and the determinant is |P(0)| = p^20.
Everything that gates pass/fail is exact integer arithmetic; mu~ is the
one rational-valued result, built once for the report.  The one
floating-point computation, the advisory check that the roots of mu~ lie
on the unit circle, is reported but never used as a gate.

analyze_charpoly and _unit_circle_check are memoised per process with
functools.lru_cache, keyed by (mu, p) and bounded by _MEMO_SIZE distinct
keys.  This is sound because both are pure functions of (mu, p), mu is a
tuple of ints, and what they return is immutable (an AnalysisReport of
tuples, Fractions and ints, or a bool).  Their InconsistencyError gates
(height_from_newton, AnalysisReport) read mu alone, and lru_cache never
stores an exception, so a mu that fails a gate raises on every call.
structural_checks is not memoised, since its gamma_parity verdict depends
on the kind, and it builds a fresh dict on every call.  The 20 members
with epsilon, gamma in F_p^* fall into four square classes sharing one
mu~, and param 0 gives one surface for both kinds, so at p = 11 the 22
surfaces have 5 distinct mu and a warm process pays for the analysis and
the root check 5 times at most.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import InconsistencyError
from .polynomials import (
    B2,
    cyclotomic_poly,
    divides_with_multiplicity,
    euler_phi,
    newton_polygon,
    palindrome_sign,
)

V_DIMENSION = 20

INFINITE_HEIGHT = math.inf

# (k, euler_phi(k)) for every k with euler_phi(k) <= 20; all such k lie
# below 67, so scanning to 100 is a safe superset.
_CYCLOTOMIC_INDICES = tuple(
    (k, euler_phi(k)) for k in range(1, 101) if euler_phi(k) <= V_DIMENSION
)

UNIT_CIRCLE_TOLERANCE = 1e-9

# distinct (mu, p) kept by each memo; the CLI makes at most 5 at p = 11
_MEMO_SIZE = 64


def _scaled_mu(mu: tuple[int, ...], p: int) -> tuple[int, ...]:
    """P(T) = mu(p T) = p^20 * mu~(T), the one polynomial every verdict reads."""
    return tuple(c * p**j for j, c in enumerate(mu))


def normalize(mu: tuple[int, ...], p: int) -> tuple[Fraction, ...]:
    """Coefficients of mu~(T) = mu(p T) / p^20; requires mu monic of degree 20."""
    if len(mu) != V_DIMENSION + 1 or mu[-1] != 1:
        raise ValueError(f"expected a monic degree-{V_DIMENSION} polynomial, got {mu}")
    return tuple(Fraction(c, p**V_DIMENSION) for c in _scaled_mu(mu, p))


def picard_upper_bound(mu: tuple[int, ...], p: int, slopes: tuple[tuple[Fraction, int], ...]) -> int:
    """2 + (number of zeroes of mu of the shape p * root of unity).

    Zeroes are counted with multiplicity via divisibility of P(T) = mu(p T)
    by the monic Phi_k in Z[T]; by Gauss's lemma this equals the
    multiplicity of Phi_k in mu~ over Q, and of p^phi(k) * Phi_k(T / p) in mu.

    Such a zero has p-adic valuation exactly 1, so all of them lie on the
    slope-1 segment of `slopes`, the Newton polygon of mu with its power of
    T stripped (a zero 0 is not p * root of unity); its length L bounds the
    count.  So with L = 0 nothing is divided, and otherwise Phi_k is tried
    only while phi(k) fits in what L leaves, stopping once the count is L.
    Raises ValueError for the zero polynomial, which has no Newton polygon.
    """
    if not any(mu):
        raise ValueError("the zero polynomial has no Newton polygon")
    room = sum(m for v, m in slopes if v == 1)
    scaled = _scaled_mu(mu, p)
    count = 0
    for k, phi in _CYCLOTOMIC_INDICES:
        if count == room:
            break
        if phi <= room - count:
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


@lru_cache(maxsize=_MEMO_SIZE)
def _unit_circle_check(mu: tuple[int, ...], p: int) -> bool:
    """Advisory floating-point check: all roots of mu~ on |z| = 1."""
    import numpy as np

    # int / int true division rounds the exact mu~ coefficient correctly, once
    coeffs = [c / p**V_DIMENSION for c in _scaled_mu(mu, p)]
    roots = np.roots(coeffs[::-1])
    return bool(np.all(np.abs(np.abs(roots) - 1.0) < UNIT_CIRCLE_TOLERANCE))


def structural_checks(mu: tuple[int, ...], kind: str, p: int) -> dict[str, bool | None]:
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
    checks["functional_equation"] = palindrome_sign(scaled) in (1, -1)
    checks["gamma_parity"] = not any(mu[1::2]) if kind == "gamma" else None
    # mu exists only once assemble_charpoly's conjugacy gate and the exact
    # Newton divisions that build it in Z[T] have passed
    checks["integral_coefficients"] = True
    checks["determinant"] = abs(scaled[0]) == p**V_DIMENSION
    checks["unit_circle"] = _unit_circle_check(mu, p)
    return checks


class AnalysisReport(namedtuple("AnalysisReport", ("mu_tilde", "picard_upper", "height", "newton_slopes"))):
    """Exact invariants of one surface: mu~, Picard number, height, Newton slopes."""

    __slots__ = ()
    mu_tilde: tuple[Fraction, ...]
    picard_upper: int
    height: int | float
    newton_slopes: tuple[tuple[Fraction, int], ...]

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 2 <= self.picard_upper <= B2:
            raise InconsistencyError(f"Picard bound {self.picard_upper} outside [2, {B2}]")
        if self.height != INFINITE_HEIGHT and self.picard_upper > B2 - 2 * self.height:
            raise InconsistencyError(
                f"Picard bound {self.picard_upper} inconsistent with height {self.height}"
            )
        return self


@lru_cache(maxsize=_MEMO_SIZE)
def analyze_charpoly(mu: tuple[int, ...], p: int) -> AnalysisReport:
    """Read the exact invariants off an assembled mu_p."""
    slopes = newton_polygon(mu, p)
    return AnalysisReport(
        mu_tilde=normalize(mu, p),
        picard_upper=picard_upper_bound(mu, p, slopes),
        height=height_from_newton(slopes),
        newton_slopes=slopes,
    )
