"""Weierstrass models of the three elliptic K3 families and exact point counts.

The families, all fibered over the t-line:

* epsilon kind:  y^2 = x^3 + e*x^2 + t^11 - t
* gamma kind:    y^2 = x^3 + g*x  + t^11 - t
* uniform kind:  y^2 + x*y = x^3 + t^11

The place t = infinity needs no second chart.  At s = 1/t the K3
normalization x = X/s^4, y = Y/s^6 sends a_i(t) to s^(2i) * a_i(1/s), a
polynomial because of the degree bounds deg a_i <= 2i.  c4 and Delta are
isobaric of weights 4 and 12 in the a_i (a_i has weight i), so in that chart
they are s^8 * c4(1/s) and s^24 * Delta(1/s): v_inf(c4) = 8 - deg c4 and
v_inf(Delta) = 24 - deg Delta, and the fiber at s = 0 is the cubic whose
coefficients are the top coefficients, of t^4, t^8 and t^12, of the
completed A2, A4 and A6.

Point counting is the independent oracle for everything downstream, so it
is deliberately naive: enumerate x, add 1 + chi(cubic in x) points per
fiber (odd characteristic; the substitution y -> y - (a1*x + a3)/2 removes
the crossed terms first).  Counts are exact integers, and identical no
matter how the enumeration is partitioned.  surface_count works on element
indices: the cubic is completed once, A2, A4 and A6 are evaluated at every
t in one pass through log/exp tables, and each fiber's character sum is one
lookup per x in a table indexed by carry-free packed sums
(FieldSpec.log_tables, FieldSpec.packed_tables).  None of these tables is
used by the equivariant tally.  fiber_count counts the fiber at infinity,
the cubic of those top coefficients.

Counting a Weierstrass model only counts the smooth K3 correctly when all
singular fibers are irreducible (nodal or cuspidal cubics); surface_count
verifies that from the discriminant and refuses anything worse, and refuses
characteristics 2 and 3 outright, where that test is invalid.  The count
costs q lookups per distinct fiber, up to q^2 in all, so fields larger than
11^4 are refused up front (COUNT_Q_LIMIT).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapabilityError, ReducibleFiberError
from .ffield import FieldSpec, is_prime
from .fppoly import FpPoly, factor
from .polynomials import poly_str

KINDS = ("epsilon", "gamma", "uniform")

# surface_count does q lookups per distinct fiber, up to q^2 in all.  Near the
# limit (Python 3.11, one core of a 2-core x86 host) a count at q = 11^4 (1331
# distinct fibers) takes about 2 s and at the prime 14639 (every fiber
# distinct) about 11 s; at 31^4 it would take hours.
COUNT_Q_LIMIT = 11**4

# degree bounds deg a_i <= 2i that keep the fibration K3 (and t = infinity in
# the top coefficients)
_DEGREE_BOUNDS = {"a1": 2, "a2": 4, "a3": 6, "a4": 8, "a6": 12}

# the place t = infinity (s = 0 at s = 1/t), as FiberPlace.location_str prints it
INFINITY = "infinity"


@dataclass(frozen=True)
class WeierstrassModel:
    p: int
    kind: str
    param: int | None
    a1: FpPoly
    a2: FpPoly
    a3: FpPoly
    a4: FpPoly
    a6: FpPoly

    def __post_init__(self):
        for name, bound in _DEGREE_BOUNDS.items():
            poly: FpPoly = getattr(self, name)
            if poly.degree > bound:
                raise ValueError(f"deg {name} = {poly.degree} exceeds the K3 bound {bound}")


@dataclass(frozen=True)
class FiberPlace:
    """A closed point of the t-line where the discriminant vanishes.

    `location` is an int residue for a rational point, an irreducible FpPoly
    for a closed point of higher degree, or INFINITY.  `vc4` is None when c4
    vanishes identically (the j = 0 families).
    """

    location: object
    degree: int
    vdelta: int
    vc4: int | None

    def location_str(self) -> str:
        if self.location == INFINITY:
            return INFINITY
        if isinstance(self.location, int):
            return f"t={self.location}"
        return poly_str(self.location.coeffs, "t")


def make_model(kind: str, param: int | None, p: int) -> WeierstrassModel:
    """Build one of the three families over F_p; param is reduced mod p."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    zero = FpPoly(p)
    one = FpPoly.constant(p, 1)
    # t^11 - t and t^11
    t11_minus_t = FpPoly(p, (0, -1) + (0,) * 9 + (1,))
    t11 = FpPoly.monomial(p, 11)
    if kind == "uniform":
        param = None
        a1, a2, a3, a4, a6 = one, zero, zero, zero, t11
    else:
        if param is None:
            raise ValueError(f"kind {kind!r} requires a parameter in F_{p}")
        param = param % p
        if kind == "epsilon":
            a1, a2, a3, a4, a6 = zero, FpPoly.constant(p, param), zero, zero, t11_minus_t
        else:
            a1, a2, a3, a4, a6 = zero, zero, zero, FpPoly.constant(p, param), t11_minus_t
    return WeierstrassModel(p=p, kind=kind, param=param, a1=a1, a2=a2, a3=a3, a4=a4, a6=a6)


def c4_delta(model: WeierstrassModel) -> tuple[FpPoly, FpPoly]:
    """Standard covariants c4 and Delta of the model, in F_p[t]."""
    a1, a2, a3, a4, a6 = model.a1, model.a2, model.a3, model.a4, model.a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * (a2 * a6) - a1 * a3 * a4 + a2 * (a3 * a3) - a4 * a4
    c4 = b2 * b2 - 24 * b4
    delta = -(b2 * b2 * b8) - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * (b2 * b4 * b6)
    return c4, delta


def singular_places(model: WeierstrassModel) -> list[FiberPlace]:
    """All places of P^1 where Delta vanishes, with (v(Delta), v(c4)) data.

    Closed points of degree > 1 appear once, carrying their degree.  The
    place at infinity comes first, its valuations read off the degrees."""
    c4, delta = c4_delta(model)
    if not delta:
        raise ValueError("discriminant vanishes identically; the model is not elliptic")
    places = []
    if delta.degree < 24:
        places.append(FiberPlace(INFINITY, 1, 24 - delta.degree, 8 - c4.degree if c4 else None))
    for g, mult in factor(delta):
        vc4 = c4.multiplicity_of(g) if c4 else None
        location: object = (-g.coeffs[0]) % model.p if g.degree == 1 else g
        places.append(FiberPlace(location, g.degree, mult, vc4))
    return places


def _is_irreducible_fiber(place: FiberPlace) -> bool:
    # v(Delta) = 1: nodal cubic; v(Delta) = 2 with additive reduction: cuspidal cubic
    if place.vdelta == 1:
        return True
    return place.vdelta == 2 and (place.vc4 is None or place.vc4 >= 1)


def _completed_cubic(model: WeierstrassModel) -> tuple[FpPoly, FpPoly, FpPoly]:
    """(A2, A4, A6) with y^2 = x^3 + A2 x^2 + A4 x + A6 after removing a1, a3 (odd p)."""
    p = model.p
    a1, a2, a3, a4, a6 = model.a1, model.a2, model.a3, model.a4, model.a6
    inv2 = pow(2, p - 2, p)
    inv4 = inv2 * inv2 % p
    A2 = a2 + a1 * a1 * inv4
    A4 = a4 + a1 * a3 * inv2
    A6 = a6 + a3 * a3 * inv4
    return A2, A4, A6


def _values_everywhere(coeffs: tuple[int, ...], spec: FieldSpec) -> list[int]:
    """Index of sum_n coeffs[n] t^n for every t in F_q, in index order.

    The coefficients are element indices (an F_p coefficient c is index c).
    At t = g^k the term c*t^n is exp[(log c + n*k) % (q - 1)], and the terms
    add by carry-free packed addition; t = 0 takes the constant term."""
    m = spec.q - 1
    log, exp = spec.log_tables()
    pack, unpack = spec.packed_tables()
    log_t = log[1:]
    acc = [0] * m
    for n, c in enumerate(coeffs):
        if c:
            lc = log[c]
            acc = [unpack[pack[a] + pack[exp[(lc + n * lt) % m]]] for a, lt in zip(acc, log_t)]
    return [coeffs[0] if coeffs else 0] + acc


@lru_cache(maxsize=None)
def _packed_chi(spec: FieldSpec) -> list[int]:
    """chi(a + b) by pack(a) + pack(b), for elements a, b of F_q (odd q)."""
    chi = spec.chi_table()
    return [chi[i] for i in spec.packed_tables()[1]]


@lru_cache(maxsize=None)
def _cubic_linear_part(spec: FieldSpec, a2: int, a4: int) -> tuple[int, ...]:
    """pack(x^3 + a2*x^2 + a4*x) for every x in F_q, with a2 and a4 given by index."""
    pack = spec.packed_tables()[0]
    return tuple([pack[w] for w in _values_everywhere((0, a4, a2, 1), spec)])


@lru_cache(maxsize=None)
def _count_cubic_points(spec: FieldSpec, a2: int, a4: int, a6: int) -> int:
    """Projective points of y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q, odd q.

    The coefficients are element indices.  Every x is enumerated: the count
    is 1 + q + sum_x chi(w(x) + a6), one packed lookup per x."""
    chi = _packed_chi(spec)
    c = spec.packed_tables()[0][a6]
    return 1 + spec.q + sum([chi[w + c] for w in _cubic_linear_part(spec, a2, a4)])


def fiber_count(model: WeierstrassModel, spec: FieldSpec) -> int:
    """Projective F_q-points of the (possibly singular) cubic fiber at t = infinity.

    The fiber at s = 0 has the top coefficients, of t^4, t^8 and t^12, of
    the completed A2, A4 and A6.  Characteristic 2, where the cubic cannot
    be completed, is refused."""
    if spec.p != model.p:
        raise ValueError(f"field characteristic {spec.p} differs from model characteristic {model.p}")
    if model.p == 2:
        raise CapabilityError("fiber counting needs odd characteristic to complete the cubic")
    completed = _completed_cubic(model)
    # an F_p coefficient c is the element index c
    top = [poly.coeffs[w] if poly.degree == w else 0 for poly, w in zip(completed, (4, 8, 12))]
    return _count_cubic_points(spec, *top)


def surface_count(model: WeierstrassModel, spec: FieldSpec) -> int:
    """#X(F_q): sum of fiber counts over P^1(F_q).

    Valid as the point count of the smooth K3 only when every singular fiber
    is irreducible; refuses with ReducibleFiberError otherwise.  The tame
    (v(c4), v(Delta)) irreducibility test is invalid in characteristics 2
    and 3, which are refused with CapabilityError, as is any q above
    COUNT_Q_LIMIT, before any fiber is examined."""
    if spec.p != model.p:
        raise ValueError(f"field characteristic {spec.p} differs from model characteristic {model.p}")
    if model.p in (2, 3):
        raise CapabilityError(
            f"surface counting needs characteristic > 3: in characteristic {model.p} "
            "the fibers are wildly ramified and the (v(c4), v(Delta)) test does not apply"
        )
    if spec.q > COUNT_Q_LIMIT:
        raise CapabilityError(
            f"surface counting takes O(q^2) field operations; q = {spec.q} exceeds "
            f"the limit {COUNT_Q_LIMIT}"
        )
    for place in singular_places(model):
        if not _is_irreducible_fiber(place):
            raise ReducibleFiberError(
                f"fiber at {place.location_str()} has v(Delta)={place.vdelta}, "
                f"v(c4)={place.vc4}; the Weierstrass count would miss components"
            )
    total = fiber_count(model, spec)
    values = (_values_everywhere(poly.coeffs, spec) for poly in _completed_cubic(model))
    for a2, a4, a6 in zip(*values):
        total += _count_cubic_points(spec, a2, a4, a6)
    return total
