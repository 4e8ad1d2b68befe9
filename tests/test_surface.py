import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wild11 import equivariant, fppoly
from wild11.cli import cmd_analyze
from wild11.errors import CapabilityError, InconsistencyError, ReducibleFiberError
from wild11.ffield import FieldSpec
from wild11.fppoly import _add, _monic, is_irreducible, monic_polys, multiplicity, reduced
from wild11.surface import (
    COUNT_Q_LIMIT,
    INFINITY,
    WeierstrassModel,
    _completed_cubic,
    _count_cubic_points,
    _cubic_linear_part,
    _every_fiber_irreducible,
    _field_tables,
    _is_irreducible_fiber,
    _values_at,
    c4_delta,
    make_model,
    singular_places,
    surface_count,
)
import wild11.surface as surface_module
from references import (
    c4_delta_reference,
    character_by_squaring,
    cubic_count,
    fiber_count_at,
    fp_add,
    fp_mul,
    horner,
    infinity_chart,
    multiplicative_order,
    quadratic_character,
    spec_with_modulus,
    unpack_by_digits,
)

SURFACES = [(kind, param) for kind in ("epsilon", "gamma") for param in range(11)]


def _fp11():
    return FieldSpec(11)


def test_make_model_coefficients():
    m = make_model("epsilon", 1, 11)
    assert m.a2 == (1,)
    assert m.a6 == reduced((0, -1) + (0,) * 9 + (1,), 11)
    u = make_model("uniform", None, 7)
    assert u.a1 == (1,)
    assert u.a6 == (0,) * 11 + (1,)
    # epsilon = 0 and gamma = 0 describe the same surface
    e0 = make_model("epsilon", 0, 11)
    g0 = make_model("gamma", 0, 11)
    assert (e0.a1, e0.a2, e0.a3, e0.a4, e0.a6) == (g0.a1, g0.a2, g0.a3, g0.a4, g0.a6)


def test_make_model_validation():
    with pytest.raises(ValueError):
        make_model("epsilon", 1, 12)
    with pytest.raises(ValueError):
        make_model("nonsense", 1, 11)
    with pytest.raises(ValueError):
        make_model("gamma", None, 11)


def test_infinity_chart_of_epsilon_model():
    # a2 -> eps * s^4, a6 -> s - s^11
    m = make_model("epsilon", 3, 11)
    chart = infinity_chart(m)
    a1s, a2s, a3s, a4s, a6s = chart.a1, chart.a2, chart.a3, chart.a4, chart.a6
    assert a2s == (0, 0, 0, 0, 3)
    assert a6s == (0, 1) + (0,) * 9 + (10,)
    assert not a1s and not a3s and not a4s


def _assert_unit_multiple(actual, expected, p):
    # same nonzero polynomial up to one scalar: compare monic normalizations
    assert actual and _monic(actual, p) == _monic(expected, p)


@pytest.mark.parametrize("eps", range(1, 11))
def test_epsilon_discriminant_formula(eps):
    m = make_model("epsilon", eps, 11)
    _, delta = c4_delta(m)
    p = 11
    t11_minus_t = reduced((0, -1) + (0,) * 9 + (1,), p)
    second = reduced((4 * eps**3, -5) + (0,) * 9 + (5,), p)  # 5t^11 - 5t + 4 eps^3
    _assert_unit_multiple(delta, fp_mul(p, t11_minus_t, second), p)


def test_epsilon_zero_discriminant_degenerates_to_square():
    m = make_model("epsilon", 0, 11)
    _, delta = c4_delta(m)
    t11_minus_t = reduced((0, -1) + (0,) * 9 + (1,), 11)
    _assert_unit_multiple(delta, fp_mul(11, t11_minus_t, t11_minus_t), 11)


def test_uniform_discriminant_formula():
    m = make_model("uniform", None, 7)
    _, delta = c4_delta(m)
    expected = fp_mul(7, (0,) * 11 + (1,), (1,) + (0,) * 10 + (432,))
    _assert_unit_multiple(delta, expected, 7)


@pytest.mark.parametrize("kind,param", [("epsilon", 1), ("gamma", 1), ("uniform", None)])
def test_discriminant_total_degree_is_24(kind, param):
    m = make_model(kind, param, 11)
    _, delta = c4_delta(m)
    _, delta_inf = c4_delta(infinity_chart(m))
    v_inf = next(i for i, c in enumerate(delta_inf) if c)
    assert len(delta) - 1 + v_inf == 24


def _reference_place_at_infinity(model):
    """[(v(Delta), v(c4))] at s = 0 on the reference chart, or [] when Delta(0) != 0 there."""
    c4_s, delta_s = c4_delta(infinity_chart(model))
    s, p = (0, 1), model.p
    v_delta = multiplicity(s, delta_s, p)
    return [(v_delta, multiplicity(s, c4_s, p) if c4_s else None)] if v_delta else []


def _place_at_infinity(model):
    return [(pl.vdelta, pl.vc4) for pl in singular_places(model) if pl.location == INFINITY]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 577, 991])
@pytest.mark.parametrize(
    "kind,param", [("epsilon", 0), ("epsilon", 1), ("gamma", 0), ("gamma", 2), ("uniform", None)]
)
def test_place_at_infinity_matches_reference_chart(kind, param, p):
    # v_inf(Delta) = 24 - deg Delta and v_inf(c4) = 8 - deg c4, against the s-chart
    m = make_model(kind, param, p)
    assert _place_at_infinity(m) == _reference_place_at_infinity(m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 11, 101, 10**16 + 61]), st.data())
def test_c4_delta_matches_fppoly_formula_on_random_models(p, data):
    # any a_i up to the K3 degree bound 2i, including the zero polynomial
    def coefficient(i):
        return reduced(data.draw(st.lists(st.integers(0, p - 1), max_size=2 * i + 1)), p)

    model = WeierstrassModel(p, "random", None, *(coefficient(i) for i in (1, 2, 3, 4, 6)))
    assert c4_delta(model) == c4_delta_reference(model)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.data())
def test_place_at_infinity_of_random_models(p, data):
    # every a_i may be nonzero and of any degree up to 2i, so the weights of
    # a1 and a3 and the top coefficients of the completed cubic all count
    full = data.draw(st.booleans())  # full-length a_i bring v_inf(Delta) = 1 and 2

    def coefficient(i):
        length = 2 * i + 1 if full else data.draw(st.integers(0, 2 * i + 1))
        return reduced(data.draw(st.lists(st.integers(0, p - 1), min_size=length, max_size=length)), p)

    model = WeierstrassModel(p, "random", None, *(coefficient(i) for i in (1, 2, 3, 4, 6)))
    assume(c4_delta(model)[1])
    assert _place_at_infinity(model) == _reference_place_at_infinity(model)
    # the fiber at s = 0, counted on the raw equation of the reference chart,
    # against the reference chart's cubic and against the one row of
    # surface_count's table beyond the finite fibers (the guard is bypassed:
    # a Weierstrass model's count is defined whatever its fibers)
    chart = infinity_chart(model)
    a1, a2, a3, a4, a6 = (a[0] if a else 0 for a in (chart.a1, chart.a2, chart.a3, chart.a4, chart.a6))
    affine = sum(
        (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
        for x in range(p)
        for y in range(p)
    )
    spec = FieldSpec(p)
    with mock.patch.object(surface_module, "_every_fiber_irreducible", lambda model: True):
        at_infinity = surface_count(model, spec) - sum(fiber_count_at(model, t, spec) for t in range(p))
    assert at_infinity == fiber_count_at(chart, 0, spec) == 1 + affine


def test_fiber_at_infinity_is_cuspidal():
    m = make_model("epsilon", 1, 11)
    spec = _fp11()
    assert fiber_count_at(infinity_chart(m), 0, spec) == 12  # q + 1 points on Y^2 = X^3
    assert surface_count(m, spec) - sum(fiber_count_at(m, t, spec) for t in range(11)) == 12


def test_fiber_count_against_brute_force():
    # independent oracle: test every (x, y) pair against the raw equation
    m = make_model("epsilon", 1, 11)
    spec = _fp11()
    for t0 in (0, 1, 5):
        expected = 1
        for x in range(11):
            for y in range(11):
                if (y * y - x * x * x - x * x - (pow(t0, 11, 11) - t0)) % 11 == 0:
                    expected += 1
        assert fiber_count_at(m, t0, spec) == expected


def test_fiber_count_t0_zero_eps1_pinned():
    # frozen value of the brute-force count above at t0 = 0
    m = make_model("epsilon", 1, 11)
    assert fiber_count_at(m, 0, _fp11()) == 11


def test_fiber_pairing_identity_q11():
    # F_t and F_{-t} counts add up to 2q + 2, including t = 0 and infinity
    m = make_model("gamma", 1, 11)
    spec = _fp11()
    q = 11
    for t in range(q):
        ft = fiber_count_at(m, t, spec)
        fmt = fiber_count_at(m, -t % q, spec)
        assert ft + fmt == 2 * q + 2
    assert 2 * fiber_count_at(infinity_chart(m), 0, spec) == 2 * q + 2


def test_fiber_count_validation():
    m = make_model("epsilon", 1, 11)
    with pytest.raises(ValueError, match="differs from model characteristic"):
        surface_count(m, FieldSpec(7))
    for t0 in (11, -1, (3,), 3.0, None, INFINITY):  # t0 is an element index in [0, q)
        with pytest.raises(ValueError):
            fiber_count_at(m, t0, _fp11())


@pytest.mark.parametrize("gamma", range(1, 11))
def test_gamma_surface_count_is_square(gamma):
    m = make_model("gamma", gamma, 11)
    assert surface_count(m, _fp11()) == 144


def test_gamma_count_odd_extension():
    m = make_model("gamma", 1, 11)
    spec = FieldSpec(11, 3)
    assert surface_count(m, spec) == (11**3 + 1) ** 2


def test_surface_count_equals_fiberwise_sum():
    # counting must not depend on how the enumeration is organized
    m = make_model("epsilon", 1, 11)
    spec = FieldSpec(11, 2)
    total = fiber_count_at(infinity_chart(m), 0, spec)
    for t0 in range(spec.q):
        total += fiber_count_at(m, t0, spec)
    assert surface_count(m, spec) == total


def test_surface_count_refuses_reducible_fibers():
    m = make_model("uniform", None, 11)  # has I11 fibers
    with pytest.raises(ReducibleFiberError):
        surface_count(m, _fp11())


def test_surface_count_allows_eps0():
    # all fibers of the degenerate member are cuspidal, hence irreducible
    m = make_model("epsilon", 0, 11)
    assert surface_count(m, _fp11()) > 0


def test_hasse_window_at_smooth_fibers():
    # over F_11 itself Delta vanishes at every t (t^11 - t divides it), so
    # the window is checked over F_13 and F_121, where smooth fibers exist
    for p, r in ((13, 1), (11, 2)):
        m = make_model("epsilon", 1, p)
        spec = FieldSpec(p, r)
        _, delta = c4_delta(m)
        q = spec.q
        checked = 0
        for t in range(q):
            if any(horner(delta, spec.coords_at(t), spec)):
                count = fiber_count_at(m, t, spec)
                assert (count - (q + 1)) ** 2 <= 4 * q
                checked += 1
        assert checked > 0, (p, r)


def test_singular_places_of_epsilon_model():
    m = make_model("epsilon", 1, 11)
    places = singular_places(m)
    assert places[0].location is INFINITY and places[0].vdelta == 2
    rational = [pl for pl in places if isinstance(pl.location, int)]
    closed = [pl for pl in places if pl.degree > 1]
    assert len(rational) == 11 and all(pl.vdelta == 1 for pl in rational)
    assert len(closed) == 1 and closed[0].degree == 11
    # geometric count: 22 nodal fibers
    assert sum(pl.degree for pl in rational + closed) == 22


def _fibers_irreducible_by_places(model):
    return all(_is_irreducible_fiber(place) for place in singular_places(model))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 11, 13]), st.data())
def test_squarefree_guard_matches_place_classification(p, data):
    # a planted polynomial pi divides each a_i to a drawn power, so factors of
    # Delta of multiplicity 2, 3 and more, with and without pi | c4, occur
    # beside the simple ones; y^2 = x^3 + a6 has c4 = 0, where only the
    # squarefree test tells a cusp (v(Delta) = 2) from worse
    def poly(degree):
        return reduced(data.draw(st.lists(st.integers(0, p - 1), min_size=degree + 1, max_size=degree + 1)), p)

    pi = poly(data.draw(st.integers(1, 2)))

    def coefficient(i):
        planted = (1,)
        for _ in range(data.draw(st.integers(0, 3))):
            planted = fp_mul(p, planted, pi)
        if len(planted) - 1 > 2 * i:
            planted = (1,)
        return fp_mul(p, planted, poly(data.draw(st.integers(0, 2 * i - (len(planted) - 1)))))

    j_zero = data.draw(st.booleans())
    model = WeierstrassModel(
        p, "random", None, *(() if j_zero and i < 6 else coefficient(i) for i in (1, 2, 3, 4, 6))
    )
    assume(c4_delta(model)[1])
    assert _every_fiber_irreducible(model) == _fibers_irreducible_by_places(model)


def _model_11(a1, a4, a6):
    return WeierstrassModel(11, "random", None, a1, (), (), a4, a6)


# y^2 + x y = x^3 + a6 has Delta = -a6 (1 + 432 a6) and c4 = 1, so v(Delta)
# at t = 0 is v(a6) and the fiber there is of type I_v(a6); deg a6 = 12
# keeps the fiber at infinity smooth
_REFUSED = {
    "multiplicity 3": (_model_11((1,), (), (0, 0, 0, 1) + (0,) * 8 + (1,)), 11, "t=0 has v(Delta)=3, v(c4)=0"),
    "p-th power": (make_model("gamma", 0, 5), 5, "t=4 has v(Delta)=10, v(c4)=infinity"),
    "double, c4 nonzero": (_model_11((1,), (), (0, 0, 1) + (0,) * 9 + (1,)), 11, "t=0 has v(Delta)=2, v(c4)=0"),
    "at infinity": (_model_11((1,), (), (0, 1)), 11, "infinity has v(Delta)=22, v(c4)=8"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_squarefree_guard_refusals(case):
    model, p, place = _REFUSED[case]
    assert not _every_fiber_irreducible(model)
    assert not _fibers_irreducible_by_places(model)
    with pytest.raises(ReducibleFiberError, match=re.escape(f"fiber at {place}; the Weierstrass count")):
        surface_count(model, FieldSpec(p))


def test_squarefree_guard_accepts_double_factors_of_c4():
    # y^2 = x^3 + t x + t (t^11 + 1): v(Delta) = 2 and v(c4) = 1 at t = 0, a
    # cusp; epsilon 0 has c4 = 0 and a cusp at every root of t^11 - t
    for model in (_model_11((), (0, 1), (0, 1) + (0,) * 10 + (1,)), make_model("epsilon", 0, 11)):
        assert 2 in [place.vdelta for place in singular_places(model)]
        assert _every_fiber_irreducible(model) and _fibers_irreducible_by_places(model)


def test_vanishing_discriminant_is_refused():
    model = WeierstrassModel(11, "random", None, (), (), (), (), ())
    for check in (_every_fiber_irreducible, singular_places, lambda m: surface_count(m, _fp11())):
        with pytest.raises(ValueError, match="discriminant vanishes identically"):
            check(model)


def test_guard_refusal_without_reducible_place_is_inconsistent():
    # the factorisation names the refused fiber; if it finds none, the two
    # disagree and the count stops with an arithmetic inconsistency
    with mock.patch.object(surface_module, "_every_fiber_irreducible", lambda model: False):
        with pytest.raises(InconsistencyError, match="squarefree"):
            surface_count(make_model("gamma", 1, 11), _fp11())


def test_count_at_1331_never_factors_delta():
    # every one of the 22 surfaces passes the squarefree guard, so no
    # discriminant is factored, and the oracle reads none of the tally's
    # tables; the counts are those mu predicts at q = 11^3
    q = 11**3
    assert not any(
        getattr(value, "__module__", None) == "wild11.equivariant" for value in vars(surface_module).values()
    )
    with mock.patch.object(
        surface_module, "singular_places", wraps=surface_module.singular_places
    ) as places, mock.patch.object(surface_module, "factor", wraps=fppoly.factor) as factored, mock.patch.object(
        equivariant, "_neg_trace_table", side_effect=AssertionError
    ), mock.patch.object(equivariant, "_trace_histogram", side_effect=AssertionError):
        counts = {pair: surface_count(make_model(*pair, 11), FieldSpec(11, 3)) for pair in SURFACES}
    assert places.call_count == 0 and factored.call_count == 0
    for (kind, param), count in counts.items():
        mu_full = cmd_analyze(kind, param, 11)["charpoly"]["mu_full"]
        assert count == 1 + q * q + _power_sum(mu_full, 3)


def test_char2_brute_force_fiber():
    # the tame fiber test behind surface_count is invalid in characteristics 2
    # and 3, and the cubic cannot be completed in characteristic 2
    for kind, param, p, r in (("uniform", None, 2, 1), ("uniform", None, 3, 2), ("gamma", 1, 3, 3)):
        with pytest.raises(CapabilityError):
            surface_count(make_model(kind, param, p), FieldSpec(p, r))


def _reference_surface_count(model, spec):
    """Test-only slow reference for surface_count: every fiber on its own.

    Each t goes through Horner's rule in tuple arithmetic.  Each fiber then
    sums the character over every x in index arithmetic built here from
    FieldSpec.mul alone, so nothing is shared with the index tables of
    surface_count: the indices of x^2 and x^3 and of u^j * x for every x,
    and the character from squaring every element.  a * y for every y is
    the F_p-linear combination sum_j a_j (u^j * y) of the coordinates a_j of
    a, and sums add coordinates mod p.  The x-part x^3 + A2 x^2 + A4 x is
    kept per (A2, A4) and each count per fiber value, as a memo only; every
    fiber still sums over every x, and no fiber borrows the count of a
    conjugate."""
    p, q, r = spec.p, spec.q, spec.r
    mul, index_of = spec.mul, spec.index_of
    weights = p ** np.arange(r)
    coords = np.arange(q)[:, None] // weights % p  # coords[i, j]: coordinate j of element i
    elements = [spec.coords_at(i) for i in range(q)]
    x2 = np.array([index_of(mul(x, x)) for x in elements])
    x3 = np.array([index_of(mul(mul(x, x), x)) for x in elements])
    basis_times = [coords[[index_of(mul(spec.coords_at(p**j), x)) for x in elements]] for j in range(r)]
    chi = np.full(q, -1)
    chi[x2] = 1
    chi[0] = 0

    def times(a):
        """The coordinates of a * y for every y, by index."""
        return sum(c * column for c, column in zip(coords[a], basis_times)) % p

    inv2 = pow(2, p - 2, p)
    linear_parts, counts = {}, {}

    def fiber(chart, t):
        a1, a2, a3, a4, a6 = chart.a1, chart.a2, chart.a3, chart.a4, chart.a6
        completed = (
            fp_add(p, a2, fp_mul(p, a1, a1, (inv2 * inv2,))),
            fp_add(p, a4, fp_mul(p, a1, a3, (inv2,))),
            fp_add(p, a6, fp_mul(p, a3, a3, (inv2 * inv2,))),
        )
        A2, A4, A6 = (index_of(horner(poly, t, spec)) for poly in completed)
        if (A2, A4) not in linear_parts:
            linear_parts[A2, A4] = coords[x3] + times(A2)[x2] + times(A4)
        if (A2, A4, A6) not in counts:
            values = (linear_parts[A2, A4] + coords[A6]) % p @ weights
            counts[A2, A4, A6] = 1 + q + int(chi[values].sum())
        return counts[A2, A4, A6]

    return fiber(infinity_chart(model), elements[0]) + sum(fiber(model, t) for t in elements)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("kind,param", SURFACES)
def test_surface_count_matches_reference(kind, param, r):
    m = make_model(kind, param, 11)
    spec = FieldSpec(11, r)
    assert surface_count(m, spec) == _reference_surface_count(m, spec)


@pytest.mark.parametrize("kind,param", [("epsilon", 1), ("gamma", 1), ("gamma", 2)])
def test_surface_count_is_independent_of_the_modulus(kind, param):
    # the canonical F_121 = F_11[u]/(u^2 + 1), then u^2 - 2 and u^2 + u + 1
    model = make_model(kind, param, 11)
    specs = [FieldSpec(11, 2), spec_with_modulus(11, 2, (9, 0, 1)), spec_with_modulus(11, 2, (1, 1, 1))]
    counts = [surface_count(model, spec) for spec in specs]
    assert counts == [counts[0]] * 3


@pytest.mark.parametrize("kind,param", [("epsilon", 0), ("epsilon", 1), ("epsilon", 2), ("gamma", 2)])
def test_surface_count_matches_reference_q1331(kind, param):
    m = make_model(kind, param, 11)
    spec = FieldSpec(11, 3)
    assert surface_count(m, spec) == _reference_surface_count(m, spec)


# epsilon has a reducible fiber for every param at p = 5, and gamma 1 at p = 7
@pytest.mark.parametrize(
    "kind,param,p,r",
    [
        ("gamma", 1, 5, 3),
        ("gamma", 2, 5, 3),
        ("epsilon", 1, 7, 2),
        ("gamma", 3, 7, 2),
        ("epsilon", 1, 13, 2),
        ("gamma", 1, 13, 2),
        ("epsilon", 1, 23, 1),
        ("gamma", 1, 23, 1),
    ],
)
def test_surface_count_matches_reference_other_fields(kind, param, p, r):
    m = make_model(kind, param, p)
    spec = FieldSpec(p, r)
    assert surface_count(m, spec) == _reference_surface_count(m, spec)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.sampled_from([(5, 2), (5, 3), (7, 2)]), st.data())
def test_surface_count_of_random_models_matches_reference(field, data):
    # every a_i is drawn, so the completed A2 and A4 vary with t and the
    # Frobenius orbits of fibers move all three coefficients
    p, r = field

    def coefficient(i):
        return reduced(data.draw(st.lists(st.integers(0, p - 1), min_size=2 * i + 1, max_size=2 * i + 1)), p)

    model = WeierstrassModel(p, "random", None, *(coefficient(i) for i in (1, 2, 3, 4, 6)))
    assume(c4_delta(model)[1])
    spec = FieldSpec(p, r)
    try:
        count = surface_count(model, spec)
    except ReducibleFiberError:
        assume(False)
    assert count == _reference_surface_count(model, spec)


def test_surface_count_counts_one_fiber_per_frobenius_orbit():
    # t^11 - t takes the 121 trace-zero values of F_1331; Frobenius fixes only
    # 0 among them, so they fall into 1 + 120 / 3 = 41 orbits.  The fiber at
    # infinity, y^2 = x^3, is the one more.
    with mock.patch.object(
        surface_module, "_count_cubic_points", side_effect=_count_cubic_points
    ) as counter:
        surface_count(make_model("epsilon", 1, 11), FieldSpec(11, 3))
    triples = [c.args[1:] for c in counter.call_args_list]
    assert len(triples) == len(set(triples)) == 41 + 1


@pytest.mark.parametrize(
    "spec",
    [
        FieldSpec(13),
        FieldSpec(11, 2),
        FieldSpec(11, 3),
        FieldSpec(5, 4),
        FieldSpec(7, 2),
        spec_with_modulus(11, 2, (1, 1, 1)),
    ],
    ids=repr,
)
def test_orbit_table_partitions_the_nonzero_elements(spec):
    # one log per Frobenius orbit of F_q^*, each orbit walked through the
    # Frobenius table: closed, of the size it is filed under, a divisor of r,
    # kept on its least log, and together covering F_q^* once
    log, exp, *_, frob, _, orbits = _field_tables(spec)
    covered = []
    for d, logs in orbits:
        assert spec.r % d == 0
        for k in logs:
            orbit = [exp[k]]
            while frob[orbit[-1]] != orbit[0]:
                orbit.append(frob[orbit[-1]])
            assert len(orbit) == d
            assert k == min(log[i] for i in orbit)
            covered += orbit
    assert sum(d * len(logs) for d, logs in orbits) == spec.q - 1
    assert sorted(covered) == list(range(1, spec.q))


@pytest.mark.parametrize("r,points,total", [(3, {1: 10, 3: 440}, 451), (4, {1: 10, 2: 55, 4: 3630}, 3696)])
def test_surface_count_evaluates_the_cubic_once_per_closed_point(r, points, total):
    # t = 0 and one t per Frobenius orbit of F_q^*, filed by orbit size: 451
    # points at F_1331 and 3696 at F_(11^4), where every t would be q points
    spec = FieldSpec(11, r)
    with mock.patch.object(surface_module, "_count_cubic_points", return_value=0), mock.patch.object(
        surface_module, "_values_at", side_effect=_values_at
    ) as evaluate:
        surface_count(make_model("epsilon", 1, 11), spec)
    # A2, A4 and A6 at the representatives of each orbit size, and t = 0 besides
    sizes = [len(c.args[2]) for c in evaluate.call_args_list]
    assert sizes == [n for n in points.values() for _ in range(3)]
    assert 1 + sum(sizes[::3]) == total
    assert {d: len(logs) for d, logs in _field_tables(spec)[7]} == points


@pytest.mark.parametrize("seed", range(3))
def test_surface_count_of_random_models_over_f_5_to_the_4(seed):
    # F_625, where the orbits of F_q^* have sizes 1, 2 and 4.  Every a_i is
    # drawn at full degree, so A2, A4 and A6 all vary with t and carry the
    # fibers through every orbit size; a model with a reducible fiber, which
    # surface_count refuses, is drawn again
    rng = random.Random(seed)
    while True:
        coefficients = (reduced([rng.randrange(5) for _ in range(2 * i + 1)], 5) for i in (1, 2, 3, 4, 6))
        model = WeierstrassModel(5, "random", None, *coefficients)
        if c4_delta(model)[1] and _every_fiber_irreducible(model):
            break
    A2, A4, _ = _completed_cubic(model)
    assert len(A2) > 1 and len(A4) > 1
    spec = FieldSpec(5, 4)
    assert surface_count(model, spec) == _reference_surface_count(model, spec)


def test_surface_count_over_f_5_to_the_5():
    # F_3125 = F_(5^5), the first q = 1 mod 11 at p = 5: degree 5, so the
    # fibers over F_q fall into Frobenius orbits of length 1 and 5
    m = make_model("gamma", 1, 5)
    spec = FieldSpec(5, 5)
    q = spec.q
    count = surface_count(m, spec)
    assert abs(count - 1 - q * q) <= 22 * q  # Weil: |tr Frob on H^2| <= b_2 q
    rng = random.Random(3125)
    for t0 in rng.sample(range(q), 4):
        values = [horner(poly, spec.coords_at(t0), spec) for poly in _completed_cubic(m)]
        assert _count_cubic_points(spec, *map(spec.index_of, values)) == cubic_count(spec, *values)
    at_infinity = fiber_count_at(infinity_chart(m), 0, spec)
    assert count == at_infinity + sum(fiber_count_at(m, t0, spec) for t0 in range(q))


def _element_drawer(spec, data):
    """A function drawing an F_q element as a coordinate tuple, nonzero on request."""

    def element(nonzero=False):
        digits = st.lists(st.integers(0, spec.p - 1), min_size=spec.r, max_size=spec.r)
        return tuple(data.draw(digits.filter(any) if nonzero else digits))

    return element


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(
        [FieldSpec(13), FieldSpec(101), FieldSpec(7, 2), FieldSpec(11, 2), FieldSpec(5, 4), FieldSpec(11, 3)]
    ),
    st.data(),
)
def test_count_cubic_points_matches_per_x_reference(spec, data):
    # the popcounts over the shifted masks of the x-part's values, against a
    # sum over every x in tuple arithmetic.  a2 and a4 are drawn so that each
    # branch of the count's scaling to a class representative is reached:
    # a2 is 0 or drawn, and a4 is 0, a nonzero square, a nonsquare or drawn.
    # a6 is drawn, or 0, or -w(x0) for a drawn x0 and
    # w(x) = x^3 + a2 x^2 + a4 x, so that the count's term n(-a6), the
    # number of x with w(x) = -a6, is positive
    element = _element_drawer(spec, data)
    a2 = element() if data.draw(st.booleans()) else ()
    kind = data.draw(st.sampled_from(["zero", "square", "nonsquare", "drawn"]))
    if kind == "zero":
        a4 = ()
    elif kind == "drawn":
        a4 = element()
    else:
        x = element(nonzero=True)
        a4 = spec.mul(x, x)
        if kind == "nonsquare":
            nonsquare = next(
                y for y in map(spec.coords_at, range(spec.q)) if quadratic_character(spec, y) == -1
            )
            a4 = spec.mul(a4, nonsquare)
        assert quadratic_character(spec, a4) == (1 if kind == "square" else -1)
    a6 = data.draw(st.sampled_from(["drawn", "zero", "root"]))
    if a6 == "drawn":
        a6 = element()
    elif a6 == "zero":
        a6 = ()
    else:
        x0 = element()
        w = spec.mul(_add(spec.mul(_add(x0, a2, spec.p), x0), a4, spec.p), x0)
        a6 = reduced([-c for c in w], spec.p)
    count = _count_cubic_points(spec, spec.index_of(a2), spec.index_of(a4), spec.index_of(a6))
    assert count == cubic_count(spec, a2, a4, a6)


@pytest.mark.parametrize("seed", range(3))
def test_count_cubic_points_matches_per_x_reference_at_11_4(seed):
    # the largest packed tables a count builds, 21^4 packed sums: a few draws,
    # since the per-x reference takes about half a second each
    spec = FieldSpec(11, 4)
    rng = random.Random(seed)
    a2, a4, a6 = (tuple(rng.randrange(11) for _ in range(4)) for _ in range(3))
    count = _count_cubic_points(spec, spec.index_of(a2), spec.index_of(a4), spec.index_of(a6))
    assert count == cubic_count(spec, a2, a4, a6)


_PACKED_SPECS = [
    FieldSpec(11),
    FieldSpec(11, 2),
    FieldSpec(11, 3),
    FieldSpec(5, 4),
    FieldSpec(7, 2),
    FieldSpec(3, 3),
    spec_with_modulus(11, 2, (1, 1, 1)),
    spec_with_modulus(11, 2, (9, 0, 1)),  # u^2 - 2 beside the canonical u^2 + 1
    spec_with_modulus(7, 2, (4, 0, 1)),  # u^2 - 3 beside the canonical u^2 + 1
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_PACKED_SPECS), st.data())
def test_packed_chi_matches_chi_of_sum(spec, data):
    def element():
        return tuple(data.draw(st.integers(0, spec.p - 1)) for _ in range(spec.r))

    a, b = element(), element()
    _, _, pack, unpack, squares, *_ = _field_tables(spec)
    packed_sum = pack[spec.index_of(a)] + pack[spec.index_of(b)]
    assert unpack[packed_sum] == spec.index_of(_add(a, b, spec.p))
    chi = quadratic_character(spec, _add(a, b, spec.p))
    assert squares >> packed_sum & 1 == (chi == 1)


@pytest.mark.parametrize("spec", _PACKED_SPECS, ids=repr)
def test_character_bitsets_match_chi_at_every_packed_sum(spec):
    # every s < (2p - 1)^r is a packed sum (each digit up to 2p - 2 is a sum
    # of two digits below p); bit s of squares must be set iff chi(unpack[s])
    # is 1, and clear at zero and at the nonsquares alike
    _, _, _, unpack, squares, *_ = _field_tables(spec)
    chi = [quadratic_character(spec, spec.coords_at(i)) for i in range(spec.q)]
    assert squares.bit_length() <= len(unpack)
    for s, i in enumerate(unpack):
        assert squares >> s & 1 == (chi[i] == 1)


@pytest.mark.parametrize("spec", _PACKED_SPECS, ids=repr)
def test_frobenius_table_is_the_pth_power(spec):
    expected = [spec.index_of(spec.pow(spec.coords_at(i), spec.p)) for i in range(spec.q)]
    assert _field_tables(spec)[5] == expected


@pytest.mark.parametrize("modulus", ["canonical", "drawn"])
@pytest.mark.parametrize(
    "p,r", [(3, 1), (3, 5), (5, 2), (5, 3), (5, 4), (5, 5), (7, 3), (11, 1), (11, 2), (11, 3), (13, 2)]
)
def test_field_tables_match_independent_references(p, r, modulus):
    # unpack against the per-entry digit formula, the squares bitset at
    # every packed sum against the squares of every element, and exp[1]
    # against the first index of multiplicative order q - 1; "drawn" is a
    # monic irreducible picked by a fixed seed among the eleven of degree r
    # that follow the canonical one, the first, in monic_polys order
    if modulus == "canonical":
        spec = FieldSpec(p, r)
    else:
        irreducibles = [m for m in monic_polys(p, r) if is_irreducible(m, p)][1:12]
        spec = spec_with_modulus(p, r, random.Random(p**r).choice(irreducibles))
    _, exp, _, unpack, squares, *_ = _field_tables(spec)
    reference = unpack_by_digits(p, r)
    assert unpack == reference
    chi = character_by_squaring(spec)
    n = len(reference)
    square_bits = f"{squares:0{n}b}"[::-1]
    assert len(square_bits) == n
    assert [chi[i] == 1 for i in reference] == [s == "1" for s in square_bits]
    q = spec.q
    assert multiplicative_order(spec, exp[1]) == q - 1
    assert all(multiplicative_order(spec, i) < q - 1 for i in range(1, exp[1]))


def test_count_fields_have_small_packed_tables():
    # surface_count builds the packed-addition table, of (2p - 1)^r entries,
    # only after refusing p <= 3 and q > COUNT_Q_LIMIT; every field left has
    # a table of at most 21^4 entries, at F_(11^4), in integer arithmetic
    sizes = [
        (2 * p - 1) ** r
        for p in range(5, COUNT_Q_LIMIT + 1)
        if all(p % d for d in range(2, math.isqrt(p) + 1))
        for r in range(1, COUNT_Q_LIMIT.bit_length())
        if p**r <= COUNT_Q_LIMIT
    ]
    assert max(sizes) == 21**4 == 194481


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([FieldSpec(11, 2), FieldSpec(11, 3), FieldSpec(5, 4)]), st.data())
def test_conjugate_cubics_have_equal_counts(spec, data):
    # the identity behind merging Frobenius orbits in surface_count, with the
    # conjugate taken by tuple arithmetic instead of the index table
    triple = [tuple(data.draw(st.integers(0, spec.p - 1)) for _ in range(spec.r)) for _ in range(3)]
    conjugate = [spec.pow(c, spec.p) for c in triple]
    assert _count_cubic_points(spec, *map(spec.index_of, triple)) == _count_cubic_points(
        spec, *map(spec.index_of, conjugate)
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([FieldSpec(13), FieldSpec(101), FieldSpec(11, 2), FieldSpec(11, 3), FieldSpec(5, 4)]),
    st.data(),
)
def test_scaled_cubics_have_related_counts(spec, data):
    # the identity behind the count's class representatives: x = lam X
    # scales the cubic with coefficients (lam a2, lam^2 a4, lam^3 a6) to
    # lam^3 times the cubic with (a2, a4, a6), so its character sum is
    # chi(lam) times theirs; by tuple arithmetic and the per-x reference only
    element = _element_drawer(spec, data)
    a2, a4, a6 = element(), element(), element()
    lam = element(nonzero=True)
    lam2 = spec.mul(lam, lam)
    scaled = spec.mul(lam, a2), spec.mul(lam2, a4), spec.mul(spec.mul(lam2, lam), a6)
    q = spec.q
    chi = quadratic_character(spec, lam)
    assert cubic_count(spec, *scaled) - 1 - q == chi * (cubic_count(spec, a2, a4, a6) - 1 - q)


def test_family_counts_share_x_parts():
    # every fiber of the 22 epsilon/gamma members has a2 = 0 or a4 = 0, so
    # at q = 11^3 the counts scale onto at most four x-parts: a2 = 1 with
    # a4 = 0, and a2 = 0 with a4 = 0, 1 or g.  Each count must not depend
    # on what the cache held before it
    spec = FieldSpec(11, 3)
    models = [make_model(kind, param, 11) for kind, param in SURFACES]
    _cubic_linear_part.cache_clear()
    counts = [surface_count(m, spec) for m in models]
    assert _cubic_linear_part.cache_info().misses <= 4
    for m, count in zip(models, counts):
        _cubic_linear_part.cache_clear()
        assert surface_count(m, spec) == count


def _power_sum(coeffs, k):
    """k-th Newton power sum of the roots of a monic polynomial of degree >= k, constant term first."""
    a = coeffs[::-1]  # T^n + a[1] T^(n-1) + ... + a[n]
    sums = [len(coeffs) - 1]
    for m in range(1, k + 1):
        sums.append(-m * a[m] - sum(a[j] * sums[m - j] for j in range(1, m)))
    return sums[k]


# epsilon 1 and 2 lie in different square classes; at q = 11^3 gamma counts
# (q + 1)^2 whatever mu is, so gamma is checked at q = 11^4 only.  At 11^4 the
# Frobenius orbits of fibers have sizes 1, 2 and 4.
_PINNED_AT_11_4 = {("gamma", 1): 214271036, ("epsilon", 1): 214402805}


@pytest.mark.parametrize(
    "kind,param,r", [("epsilon", 1, 3), ("epsilon", 2, 3), ("epsilon", 1, 4), ("gamma", 1, 4)]
)
def test_count_matches_mu_beyond_the_tally_levels(kind, param, r):
    # mu is built from the tallies at q = 11 and 121; the count at 11^r checks it
    mu_full = cmd_analyze(kind, param, 11)["charpoly"]["mu_full"]
    q = 11**r
    count = surface_count(make_model(kind, param, 11), FieldSpec(11, r))
    assert count == 1 + q * q + _power_sum(mu_full, r)
    if r == 4:
        assert count == _PINNED_AT_11_4[kind, param]
