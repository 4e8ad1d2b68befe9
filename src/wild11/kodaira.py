"""Kodaira fiber classification (p >= 5) and trivial-lattice bookkeeping.

For residue characteristic >= 5 the fiber type at a place is determined by
the valuations of c4 and Delta alone, so the full iterative reduction
algorithm is unnecessary.  One table, _classify_place, gives each type with
its component count m_v and the |disc| and label of its root lattice:

    v(c4) = 0                     -> I_n, n = v(Delta), A_{n-1} (I1: none)
    v(Delta) = 6, or v(c4) = 2 and v(Delta) >= 7
                                  -> I_n*, n = v(Delta) - 6, D_{n+4}
    otherwise by v(Delta) alone (_ADDITIVE):
        2 -> II       3 -> III, A1      4 -> IV, A2
        8 -> IV*, E6  9 -> III*, E7    10 -> II*, E8

Characteristics 2 and 3 are wildly ramified for the uniform model, where
the table does not apply, so they are refused.

Closed points of degree d > 1 are classified once and weighted by d, so
component and rank counts match the geometric picture over the algebraic
closure.  The lattice summary is the trivial part of Shioda-Tate,
rank = 2 + sum_v (m_v - 1); Mordell-Weil contributions are not modeled.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CapabilityError, InconsistencyError
from .polynomials import B2, valuation
from .surface import FiberPlace, WeierstrassModel, singular_places

# additive types fixed by v(Delta): (type, m_v, |disc| of the root lattice, label)
_ADDITIVE = {
    2: ("II", 1, 1, None),
    3: ("III", 2, 2, "A1"),
    4: ("IV", 3, 3, "A2"),
    8: ("IV*", 7, 3, "E6"),
    9: ("III*", 8, 2, "E7"),
    10: ("II*", 9, 1, "E8"),
}


class KodairaFiber(namedtuple("KodairaFiber", ("place", "type", "components", "disc", "label"))):
    """A classified place; disc and label describe one geometric fiber."""

    __slots__ = ()
    place: FiberPlace
    type: str
    components: int
    disc: int
    label: str | None


class LatticeSummary(namedtuple("LatticeSummary", ("rank", "abs_disc", "components"))):
    __slots__ = ()
    rank: int
    abs_disc: int
    components: tuple[str, ...]


def _classify_place(vc4: int | None, vdelta: int) -> tuple[str, int, int, str | None]:
    """(type, m_v, |disc|, label) from the valuation pair, valid for p >= 5."""
    if vdelta <= 0:
        raise ValueError("place is not singular")
    if vc4 == 0:
        n = vdelta
        return f"I{n}", n, n, f"A{n - 1}" if n > 1 else None
    # additive reduction; vc4 is None when c4 vanishes identically
    if vdelta == 6 or (vdelta >= 7 and vc4 == 2):
        n = vdelta - 6
        return f"I{n}*", n + 5, 4, f"D{n + 4}"
    if vdelta in _ADDITIVE:
        return _ADDITIVE[vdelta]
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
            "characteristics 2 and 3 are refused"
        )
    return [
        KodairaFiber(place, *_classify_place(place.vc4, place.vdelta))
        for place in singular_places(model)
    ]


def trivial_lattice(fibers: list[KodairaFiber]) -> LatticeSummary:
    """Shioda-Tate trivial lattice: U plus the root lattices of the fibers."""
    rank = 2
    abs_disc = 1
    components: list[str] = []
    for fiber in fibers:
        degree = fiber.place.degree
        rank += degree * (fiber.components - 1)
        abs_disc *= fiber.disc**degree
        if fiber.label is not None:
            components.extend([fiber.label] * degree)
    if rank > B2:
        raise InconsistencyError(f"trivial lattice rank {rank} exceeds b_2 = {B2}")
    return LatticeSummary(rank=rank, abs_disc=abs_disc, components=tuple(components))


def artin_invariant(summary: LatticeSummary, p: int) -> int | None:
    """sigma with |disc| = p^(2 sigma), when rank is 22 and such sigma exists."""
    if summary.rank != B2:
        return None
    v = valuation(summary.abs_disc, p)
    if summary.abs_disc != p**v or v % 2 or not 1 <= v // 2 <= 10:
        return None
    return v // 2
