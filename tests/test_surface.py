import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wild11 import (
    INFINITY,
    CapabilityError,
    FieldSpec,
    ReducibleFiberError,
    WeierstrassModel,
    c4_delta,
    fiber_count,
    make_model,
    singular_places,
    surface_count,
)
from wild11.cli import cmd_analyze
from wild11.fppoly import FpPoly
from wild11.surface import _packed_chi
from references import fiber_count_at, horner, infinity_chart, spec_with_modulus

SURFACES = [(kind, param) for kind in ("epsilon", "gamma") for param in range(11)]


def _fp11():
    return FieldSpec(11)


def test_make_model_coefficients():
    m = make_model("epsilon", 1, 11)
    assert m.a2 == FpPoly.constant(11, 1)
    assert m.a6 == FpPoly(11, (0, -1) + (0,) * 9 + (1,))
    u = make_model("uniform", None, 7)
    assert u.a1 == FpPoly.constant(7, 1)
    assert u.a6 == FpPoly.monomial(7, 11)
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
    assert a2s == FpPoly(11, (0, 0, 0, 0, 3))
    assert a6s == FpPoly(11, (0, 1) + (0,) * 9 + (10,))
    assert not a1s and not a3s and not a4s


def _assert_unit_multiple(actual: FpPoly, expected: FpPoly):
    # same polynomial up to one scalar: compare monic normalizations
    assert actual.monic() == expected.monic()


@pytest.mark.parametrize("eps", range(1, 11))
def test_epsilon_discriminant_formula(eps):
    m = make_model("epsilon", eps, 11)
    _, delta = c4_delta(m)
    p = 11
    t11_minus_t = FpPoly(p, (0, -1) + (0,) * 9 + (1,))
    second = FpPoly(p, (4 * eps**3, -5) + (0,) * 9 + (5,))  # 5t^11 - 5t + 4 eps^3
    _assert_unit_multiple(delta, t11_minus_t * second)


def test_epsilon_zero_discriminant_degenerates_to_square():
    m = make_model("epsilon", 0, 11)
    _, delta = c4_delta(m)
    t11_minus_t = FpPoly(11, (0, -1) + (0,) * 9 + (1,))
    _assert_unit_multiple(delta, t11_minus_t * t11_minus_t)


def test_uniform_discriminant_formula():
    m = make_model("uniform", None, 7)
    _, delta = c4_delta(m)
    expected = FpPoly.monomial(7, 11) * FpPoly(7, (1,) + (0,) * 10 + (432,))
    _assert_unit_multiple(delta, expected)


@pytest.mark.parametrize("kind,param", [("epsilon", 1), ("gamma", 1), ("uniform", None)])
def test_discriminant_total_degree_is_24(kind, param):
    m = make_model(kind, param, 11)
    _, delta = c4_delta(m)
    _, delta_inf = c4_delta(infinity_chart(m))
    v_inf = next(i for i, c in enumerate(delta_inf.coeffs) if c)
    assert delta.degree + v_inf == 24


def _reference_place_at_infinity(model):
    """[(v(Delta), v(c4))] at s = 0 on the reference chart, or [] when Delta(0) != 0 there."""
    c4_s, delta_s = c4_delta(infinity_chart(model))
    s = FpPoly.monomial(model.p, 1)
    v_delta = delta_s.multiplicity_of(s)
    return [(v_delta, c4_s.multiplicity_of(s) if c4_s else None)] if v_delta else []


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.data())
def test_place_at_infinity_of_random_models(p, data):
    # every a_i may be nonzero and of any degree up to 2i, so the weights of
    # a1 and a3 and the top coefficients of the completed cubic all count
    full = data.draw(st.booleans())  # full-length a_i bring v_inf(Delta) = 1 and 2

    def coefficient(i):
        length = 2 * i + 1 if full else data.draw(st.integers(0, 2 * i + 1))
        return FpPoly(p, data.draw(st.lists(st.integers(0, p - 1), min_size=length, max_size=length)))

    model = WeierstrassModel(p, "random", None, *(coefficient(i) for i in (1, 2, 3, 4, 6)))
    assume(c4_delta(model)[1])
    assert _place_at_infinity(model) == _reference_place_at_infinity(model)
    # the fiber at s = 0, counted on the raw equation of the reference chart
    chart = infinity_chart(model)
    a1, a2, a3, a4, a6 = (a.coeffs[0] if a else 0 for a in (chart.a1, chart.a2, chart.a3, chart.a4, chart.a6))
    affine = sum(
        (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
        for x in range(p)
        for y in range(p)
    )
    assert fiber_count(model, FieldSpec(p)) == 1 + affine


def test_fiber_at_infinity_is_cuspidal():
    m = make_model("epsilon", 1, 11)
    assert fiber_count(m, _fp11()) == 12  # q + 1 points on Y^2 = X^3


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
    assert 2 * fiber_count(m, spec) == 2 * q + 2


def test_fiber_count_validation():
    m = make_model("epsilon", 1, 11)
    with pytest.raises(ValueError):
        fiber_count(m, FieldSpec(7))
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
    total = fiber_count(m, spec)
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


def test_char2_brute_force_fiber():
    # the cubic cannot be completed in characteristic 2, so single fibers are refused
    m = make_model("uniform", None, 2)
    spec = FieldSpec(2)
    with pytest.raises(CapabilityError):
        fiber_count(m, spec)
    # the tame fiber test behind surface_count is invalid in characteristics 2 and 3
    for kind, param, p, r in (("uniform", None, 2, 1), ("uniform", None, 3, 2), ("gamma", 1, 3, 3)):
        with pytest.raises(CapabilityError):
            surface_count(make_model(kind, param, p), FieldSpec(p, r))


def _reference_surface_count(model, spec):
    """Test-only slow reference for surface_count: every fiber on its own.

    Each t goes through Horner's rule and each x through tuple arithmetic,
    index_of and a character table built here by squaring every element, so
    nothing is shared with the index tables of surface_count.  The cubic
    part x^3 + A2 x^2 + A4 x is kept per (A2, A4) and each count per fiber
    value, as a memo only; every fiber still sums over every x."""
    p, q = spec.p, spec.q
    mul, add, index_of = spec.mul, spec.add, spec.index_of
    chi = [-1] * q
    chi[0] = 0
    for i in range(1, q):
        x = spec.coords_at(i)
        chi[index_of(mul(x, x))] = 1
    inv2 = pow(2, p - 2, p)
    linear_parts, counts = {}, {}

    def fiber(chart, t):
        a1, a2, a3, a4, a6 = chart.a1, chart.a2, chart.a3, chart.a4, chart.a6
        completed = (a2 + a1 * a1 * (inv2 * inv2), a4 + a1 * a3 * inv2, a6 + a3 * a3 * (inv2 * inv2))
        A2, A4, A6 = (horner(poly, t, spec) for poly in completed)
        if (A2, A4) not in linear_parts:
            ws = []
            for i in range(q):
                x = spec.coords_at(i)
                x2 = mul(x, x)
                ws.append(add(add(mul(x2, x), mul(A2, x2)), mul(A4, x)))
            linear_parts[A2, A4] = ws
        if (A2, A4, A6) not in counts:
            total = sum(chi[index_of(add(w, A6))] for w in linear_parts[A2, A4])
            counts[A2, A4, A6] = 1 + q + total
        return counts[A2, A4, A6]

    elements = [spec.coords_at(i) for i in range(q)]
    return fiber(infinity_chart(model), elements[0]) + sum(fiber(model, t) for t in elements)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("kind,param", SURFACES)
def test_surface_count_matches_reference(kind, param, r):
    m = make_model(kind, param, 11)
    spec = FieldSpec(11, r)
    assert surface_count(m, spec) == _reference_surface_count(m, spec)


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


_PACKED_SPECS = [
    FieldSpec(11),
    FieldSpec(11, 2),
    FieldSpec(11, 3),
    FieldSpec(5, 4),
    FieldSpec(7, 2),
    FieldSpec(3, 3),
    spec_with_modulus(11, 2, (1, 1, 1)),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_PACKED_SPECS), st.data())
def test_packed_chi_matches_chi_of_sum(spec, data):
    def element():
        return tuple(data.draw(st.integers(0, spec.p - 1)) for _ in range(spec.r))

    a, b = element(), element()
    pack, unpack = spec.packed_tables()
    packed_sum = pack[spec.index_of(a)] + pack[spec.index_of(b)]
    assert unpack[packed_sum] == spec.index_of(spec.add(a, b))
    assert _packed_chi(spec)[packed_sum] == spec.chi_table()[spec.index_of(spec.add(a, b))]


def _power_sum(coeffs, k):
    """k-th Newton power sum of the roots of a monic polynomial of degree >= k, constant term first."""
    a = coeffs[::-1]  # T^n + a[1] T^(n-1) + ... + a[n]
    sums = [len(coeffs) - 1]
    for m in range(1, k + 1):
        sums.append(-m * a[m] - sum(a[j] * sums[m - j] for j in range(1, m)))
    return sums[k]


# epsilon 1 and 2 lie in different square classes; at q = 11^3 gamma counts
# (q + 1)^2 whatever mu is, so gamma is checked at q = 11^4 only
@pytest.mark.parametrize("kind,param,r", [("epsilon", 1, 3), ("epsilon", 2, 3), ("gamma", 1, 4)])
def test_count_matches_mu_beyond_the_tally_levels(kind, param, r):
    # mu is built from the tallies at q = 11 and 121; the count at 11^r checks it
    mu_full = cmd_analyze(kind, param, 11)["charpoly"]["mu_full"]
    q = 11**r
    count = surface_count(make_model(kind, param, 11), FieldSpec(11, r))
    assert count == 1 + q * q + _power_sum(mu_full, r)
    if r == 4:
        assert count == 214271036
