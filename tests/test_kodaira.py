import pytest

from wild11.errors import CapabilityError, InconsistencyError
from wild11.kodaira import (
    KodairaFiber,
    LatticeSummary,
    _classify_place,
    artin_invariant,
    classify_fibers,
    trivial_lattice,
)
from wild11.surface import INFINITY, c4_delta, make_model
from references import infinity_chart


def _types_with_degree(fibers):
    return sorted((f.type, f.place.degree) for f in fibers)


def test_uniform_p7_fiber_types():
    fibers = classify_fibers(make_model("uniform", None, 7))
    by_place = {f.place.location_str(): f.type for f in fibers}
    assert by_place["infinity"] == "II"
    assert by_place["t=0"] == "I11"
    # eleven geometric I1 fibers at the roots of 432 t^11 + 1
    i1 = [f for f in fibers if f.type == "I1"]
    assert sum(f.place.degree for f in i1) == 11


def test_uniform_p11_fiber_types():
    fibers = classify_fibers(make_model("uniform", None, 11))
    assert _types_with_degree(fibers) == [("I11", 1), ("I11", 1), ("II", 1)]
    locations = {f.place.location_str() for f in fibers}
    assert locations == {"infinity", "t=0", "t=7"}


def test_epsilon_model_fiber_types():
    fibers = classify_fibers(make_model("epsilon", 1, 11))
    assert fibers[0].place.location is INFINITY and fibers[0].type == "II"
    nodal = [f for f in fibers if f.type == "I1"]
    assert sum(f.place.degree for f in nodal) == 22


def test_epsilon_zero_all_cuspidal():
    fibers = classify_fibers(make_model("epsilon", 0, 11))
    assert all(f.type == "II" for f in fibers)
    assert sum(f.place.degree for f in fibers) == 12


@pytest.mark.parametrize("eps", range(1, 11))
def test_classification_constant_within_family(eps):
    fibers = classify_fibers(make_model("epsilon", eps, 11))
    assert sum(f.place.degree for f in fibers if f.type == "I1") == 22
    assert [f.type for f in fibers if f.type != "I1"] == ["II"]
    assert sum(f.place.degree * f.place.vdelta for f in fibers) == 24


def test_wild_characteristics_are_refused():
    for p in (2, 3):
        with pytest.raises(CapabilityError):
            classify_fibers(make_model("uniform", None, p))


@pytest.mark.parametrize("p", [2, 3])
def test_wild_delta_report(p):
    # the discriminant bookkeeping of the uniform model where classification is refused
    model = make_model("uniform", None, p)
    _, delta = c4_delta(model)
    _, delta_inf = c4_delta(infinity_chart(model))
    # Delta degenerates to a unit times t^11
    assert len(delta) - 1 == 11
    assert all(c % p == 0 for c in delta[:11])
    v_inf = next(k for k, c in enumerate(delta_inf) if c % p)
    assert v_inf == 13
    assert len(delta) - 1 + v_inf == 24  # missing degree sits at infinity as wild ramification


@pytest.mark.parametrize(
    "p,kind,param",
    [(p, k, v) for p in (5, 7, 11, 13) for k, v in (("epsilon", 1), ("gamma", 1), ("uniform", None))],
)
def test_valuation_sum_and_rank_bound(p, kind, param):
    fibers = classify_fibers(make_model(kind, param, p))
    assert sum(f.place.degree * f.place.vdelta for f in fibers) == 24
    summary = trivial_lattice(fibers)
    assert summary.rank <= 22


def test_trivial_lattice_supersingular_configuration():
    fibers = classify_fibers(make_model("uniform", None, 11))
    summary = trivial_lattice(fibers)
    assert summary == LatticeSummary(rank=22, abs_disc=121, components=("A10", "A10"))
    assert artin_invariant(summary, 11) == 1


def test_trivial_lattice_generic_configuration():
    fibers = classify_fibers(make_model("epsilon", 1, 11))
    summary = trivial_lattice(fibers)
    assert summary.rank == 2 and summary.abs_disc == 1 and summary.components == ()


def test_trivial_lattice_intermediate_configuration():
    # II + I11 + eleven I1: rank 12, one A10
    fibers = classify_fibers(make_model("uniform", None, 7))
    summary = trivial_lattice(fibers)
    assert summary.rank == 12
    assert summary.abs_disc == 11
    assert summary.components == ("A10",)


def test_trivial_lattice_rank_gate():
    fibers = classify_fibers(make_model("uniform", None, 11))
    inflated = fibers + [KodairaFiber(fibers[1].place, "I11", 11, 11, "A10")]
    with pytest.raises(InconsistencyError):
        trivial_lattice(inflated)


def test_artin_invariant_cases():
    assert artin_invariant(LatticeSummary(22, 121, ("A10", "A10")), 11) == 1
    assert artin_invariant(LatticeSummary(12, 11, ("A10",)), 11) is None
    assert artin_invariant(LatticeSummary(22, 121, ()), 7) is None
    assert artin_invariant(LatticeSummary(22, 11, ()), 11) is None  # odd power
    assert artin_invariant(LatticeSummary(22, 2 * 121, ()), 11) is None  # not a power of p
    assert artin_invariant(LatticeSummary(22, 11**20, ()), 11) == 10
    assert artin_invariant(LatticeSummary(22, 11**22, ()), 11) is None  # sigma > 10


def test_classify_place_table():
    assert _classify_place(0, 1) == ("I1", 1, 1, None)
    assert _classify_place(0, 2) == ("I2", 2, 2, "A1")
    assert _classify_place(0, 11) == ("I11", 11, 11, "A10")
    assert _classify_place(1, 2) == ("II", 1, 1, None)
    assert _classify_place(1, 3) == ("III", 2, 2, "A1")
    assert _classify_place(2, 4) == ("IV", 3, 3, "A2")
    assert _classify_place(2, 6) == ("I0*", 5, 4, "D4")
    assert _classify_place(None, 6) == ("I0*", 5, 4, "D4")
    assert _classify_place(2, 7) == ("I1*", 6, 4, "D5")
    assert _classify_place(2, 8) == ("I2*", 7, 4, "D6")
    assert _classify_place(3, 8) == ("IV*", 7, 3, "E6")
    assert _classify_place(None, 8) == ("IV*", 7, 3, "E6")
    assert _classify_place(3, 9) == ("III*", 8, 2, "E7")
    assert _classify_place(2, 10) == ("I4*", 9, 4, "D8")
    assert _classify_place(4, 10) == ("II*", 9, 1, "E8")
    assert _classify_place(None, 2) == ("II", 1, 1, None)
    for vc4, vdelta in ((4, 12), (3, 7), (1, 1), (None, 5)):
        with pytest.raises(ValueError):
            _classify_place(vc4, vdelta)  # non-minimal or impossible
    with pytest.raises(ValueError):
        _classify_place(0, 0)  # not singular


def test_lattice_contribution_labels():
    fibers = classify_fibers(make_model("uniform", None, 11))
    i11 = next(f for f in fibers if f.type == "I11")
    assert (i11.components, i11.disc, i11.label) == (11, 11, "A10")
    ii = next(f for f in fibers if f.type == "II")
    assert (ii.components, ii.disc, ii.label) == (1, 1, None)
