"""Kodaira fiber classification (p >= 5) and trivial-lattice bookkeeping.

For residue characteristic >= 5 the fiber type at a place is determined by
the valuations of c4 and Delta alone, so the full iterative reduction
algorithm is unnecessary:

    v(c4) = 0          -> I_n with n = v(Delta)
    v(Delta) = 2       -> II          v(Delta) = 3  -> III
    v(Delta) = 4       -> IV          v(Delta) = 6  -> I0*
    v(c4) = 2, v >= 7  -> I_{v-6}*
    v(Delta) = 8       -> IV*         v(Delta) = 9  -> III*
    v(Delta) = 10      -> II*

Characteristics 2 and 3 are wildly ramified for the uniform model and are
refused; only discriminant-degree bookkeeping is offered there.

Closed points of degree d > 1 are classified once and weighted by d, so
component and rank counts match the geometric picture over the algebraic
closure.  The lattice summary is the trivial part of Shioda-Tate,
rank = 2 + sum_v (m_v - 1); Mordell-Weil contributions are not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError, InconsistencyError
from .fppoly import FpPoly
from .surface import FiberPlace, WeierstrassModel, c4_delta, c4_delta_infinity, singular_places, _valuation_at_zero

B2 = 22

# type tag -> (component count m_v, |disc| of the root lattice, lattice label)
_FIBER_DATA = {
    "II": (1, 1, None),
    "III": (2, 2, "A1"),
    "IV": (3, 3, "A2"),
    "IV*": (7, 3, "E6"),
    "III*": (8, 2, "E7"),
    "II*": (9, 1, "E8"),
}


@dataclass(frozen=True)
class KodairaFiber:
    place: FiberPlace
    type: str
    components: int

    @property
    def degree(self) -> int:
        return self.place.degree

    def lattice_contribution(self) -> tuple[int, str | None]:
        """(|disc| of the fiber's root lattice, label); per geometric fiber."""
        if self.type in _FIBER_DATA:
            _, disc, label = _FIBER_DATA[self.type]
            return disc, label
        if self.type.endswith("*"):  # I_n*
            n = int(self.type[1:-1])
            return 4, f"D{n + 4}"
        n = int(self.type[1:])  # I_n
        if n == 1:
            return 1, None
        return n, f"A{n - 1}"


@dataclass(frozen=True)
class LatticeSummary:
    rank: int
    abs_disc: int
    components: tuple[str, ...]


def _classify_place(vc4: int | None, vdelta: int) -> tuple[str, int]:
    """(type tag, component count) from the valuation pair, valid for p >= 5."""
    if vdelta <= 0:
        raise ValueError("place is not singular")
    if vc4 == 0:
        return f"I{vdelta}", vdelta
    # additive reduction; vc4 is None when c4 vanishes identically
    if vdelta == 2:
        return "II", 1
    if vdelta == 3:
        return "III", 2
    if vdelta == 4:
        return "IV", 3
    if vdelta == 6:
        return "I0*", 5
    if vdelta >= 7 and vc4 == 2:
        n = vdelta - 6
        return f"I{n}*", n + 5
    if vdelta == 8:
        return "IV*", 7
    if vdelta == 9:
        return "III*", 8
    if vdelta == 10:
        return "II*", 9
    raise ValueError(
        f"(v(c4), v(Delta)) = ({vc4}, {vdelta}) matches no minimal Kodaira type; "
        "the model is not minimal at this place"
    )


def classify_fibers(model: WeierstrassModel) -> list[KodairaFiber]:
    """Kodaira types at every singular place, the infinite one first."""
    p = model.p
    if p in (2, 3):
        raise CapabilityError(
            f"characteristic {p} is wildly ramified for these models; "
            "only wild_delta_report is available"
        )
    return [
        KodairaFiber(place, *_classify_place(place.vc4, place.vdelta))
        for place in singular_places(model)
    ]


def wild_delta_report(model: WeierstrassModel) -> tuple[FpPoly, int]:
    """Discriminant bookkeeping for the uniform model in characteristics 2, 3.

    Returns (affine Delta over F_p, v_infinity(Delta)).  The affine part
    degenerates to a unit times t^11 and the excess of v_infinity over the
    tame value 2 is wild ramification; no classification is attempted."""
    if model.kind != "uniform":
        raise CapabilityError("wild-characteristic bookkeeping applies to the uniform model only")
    if model.p not in (2, 3):
        raise ValueError(f"characteristic {model.p} is not wild here; use classify_fibers")
    _, delta = c4_delta(model)
    _, delta_inf = c4_delta_infinity(model)
    return delta, _valuation_at_zero(delta_inf)


def trivial_lattice(fibers: list[KodairaFiber]) -> LatticeSummary:
    """Shioda-Tate trivial lattice: U plus the root lattices of the fibers."""
    rank = 2
    abs_disc = 1
    components: list[str] = []
    for fiber in fibers:
        rank += fiber.degree * (fiber.components - 1)
        disc, label = fiber.lattice_contribution()
        abs_disc *= disc**fiber.degree
        if label is not None:
            components.extend([label] * fiber.degree)
    if rank > B2:
        raise InconsistencyError(f"trivial lattice rank {rank} exceeds b_2 = {B2}")
    return LatticeSummary(rank=rank, abs_disc=abs_disc, components=tuple(components))


def artin_invariant(summary: LatticeSummary, p: int) -> int | None:
    """sigma with |disc| = p^(2 sigma), when rank is 22 and such sigma exists."""
    if summary.rank != B2:
        return None
    disc = summary.abs_disc
    v = 0
    while disc % p == 0:
        disc //= p
        v += 1
    if disc != 1 or v % 2 or not 1 <= v // 2 <= 10:
        return None
    return v // 2
