"""Slow, independent references for fast paths in wild11.

Each function here computes the same thing as a fast path in the package,
the direct way, and the tests compare the two.  None of them is on any
command's path, so they live beside the tests rather than in the package.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

from wild11 import CapabilityError, CycNum, EigenTraces, FieldSpec, InconsistencyError, IntPoly, ffield
from wild11.cyclotomic import DEGREE, ORDER
from wild11.fppoly import FpPoly, is_irreducible
from wild11.surface import WeierstrassModel, _completed_cubic, _count_cubic_points


def zeta_power(k: int) -> CycNum:
    """zeta^k in the power basis, with z^10 = -(1 + z + ... + z^9)."""
    k %= ORDER
    if k < DEGREE:
        return CycNum((0,) * k + (1,))
    return CycNum((-1,) * DEGREE)


def as_int(x: CycNum) -> int | None:
    """The integer value if x lies in Z, else None."""
    if any(x.coords[1:]):
        return None
    return x.coords[0]


def sum_as_int(traces: EigenTraces) -> int:
    """a_1 + ... + a_10, which must be an integer."""
    total = CycNum()
    for x in traces.a:
        total = total + x
    value = as_int(total)
    if value is None:
        raise InconsistencyError("sum of eigenspace traces is not rational")
    return value


def forward_dft(traces: EigenTraces) -> list[int]:
    """The integer traces tr_n = 2q + sum_i zeta^(n i) a_i, n = 0 .. 10.

    Exact inverse of wild11.inverse_dft."""
    out = []
    for n in range(ORDER):
        total = CycNum((2 * traces.q,))  # a_0 contribution
        for i, a_i in enumerate(traces.a, start=1):
            total = total + zeta_power(n * i) * a_i
        value = as_int(total)
        if value is None:
            raise InconsistencyError(f"reconstructed tr_{n} = {total} is not an integer")
        out.append(value)
    return out


def expand_eigenspace_product(pairs) -> IntPoly:
    """Expand prod_i (T^2 - a_i T + b_i) over Q(zeta) and demand Z coefficients.

    The reference for the norm in wild11.assemble_charpoly."""
    poly: list[CycNum] = [CycNum((1,))]
    for a, b in pairs:
        new = [CycNum() for _ in range(len(poly) + 2)]
        for i, c in enumerate(poly):
            new[i] = new[i] + c * b
            new[i + 1] = new[i + 1] + c * (-a)
            new[i + 2] = new[i + 2] + c
        poly = new
    coeffs = []
    for j, c in enumerate(poly):
        value = as_int(c)
        if value is None:
            raise InconsistencyError(f"coefficient of T^{j} is irrational: {c!r}")
        coeffs.append(value)
    return IntPoly(coeffs)


def spec_with_modulus(p: int, r: int, modulus: tuple[int, ...]) -> FieldSpec:
    """FieldSpec(p, r) built on the monic irreducible `modulus` instead of the canonical one.

    FieldSpec takes only its canonical modulus.  To check the cached tables
    in another basis too (one where Tr(u) != 0), this substitutes the modulus
    at its one source while the spec is built."""
    if not is_irreducible(FpPoly(p, modulus)):
        raise ValueError(f"{modulus} is not a monic irreducible over F_{p}")
    with mock.patch.object(ffield, "_canonical_modulus", lambda p, r: tuple(modulus)):
        return FieldSpec(p, r)


def quadratic_character(spec: FieldSpec, x: tuple[int, ...]) -> int:
    """Euler's criterion: 0 for x = 0, +1 for a nonzero square in F_q, -1
    otherwise (odd p only).  The reference for FieldSpec.chi_table."""
    if spec.p == 2:
        raise CapabilityError("quadratic character undefined in characteristic 2")
    if not any(x):
        return 0
    return 1 if spec.pow(x, (spec.q - 1) // 2) == spec.coords_at(1) else -1


def infinity_chart(model: WeierstrassModel) -> WeierstrassModel:
    """The model in the chart s = 1/t: a_i -> s^(2i) * a_i(1/s).

    Each coefficient list is padded to length 2i + 1 and reversed.  The
    reference for the place at infinity that wild11.singular_places and
    wild11.fiber_count read off the top coefficients of the affine chart."""

    def reversed_at(i: int) -> FpPoly:
        poly = getattr(model, f"a{i}")
        return FpPoly(model.p, (list(poly.coeffs) + [0] * (2 * i + 1 - len(poly.coeffs)))[::-1])

    return dataclasses.replace(model, **{f"a{i}": reversed_at(i) for i in (1, 2, 3, 4, 6)})


def horner(poly: FpPoly, t: tuple[int, ...], spec: FieldSpec) -> tuple[int, ...]:
    """poly in F_p[t] at the coordinate tuple t of spec, by Horner's rule."""
    acc = spec.coords_at(0)
    for c in reversed(poly.coeffs):
        acc = spec.add(spec.mul(acc, t), spec.coords_at(c))
    return acc


def fiber_count_at(model: WeierstrassModel, t0: int, spec: FieldSpec) -> int:
    """Projective F_q-points of the (possibly singular) Weierstrass cubic at a finite t.

    t0 is the element index of t in `spec` (0 <= t0 < q), a field of the
    model's odd characteristic.  A2, A4 and A6 are evaluated at t by
    Horner's rule in coordinate arithmetic, one fiber at a time: the
    per-fiber reference for wild11.surface_count, which evaluates them at
    every t at once through log/exp tables."""
    if not (isinstance(t0, int) and 0 <= t0 < spec.q):
        raise ValueError(f"t0 must be an element index in [0, {spec.q}), got {t0!r}")
    t = spec.coords_at(t0)
    values = [spec.index_of(horner(poly, t, spec)) for poly in _completed_cubic(model)]
    return _count_cubic_points(spec, *values)
