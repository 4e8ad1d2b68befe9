"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is exact (integer or rational equality); the only stated
tolerances are wall-clock budgets.  Run with `pytest -s` to see the
per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from wild11.analysis import INFINITE_HEIGHT, analyze_charpoly, normalize, structural_checks
from wild11.cli import run_equivariant_pipeline
from wild11.cyclotomic import ORDER, inverse_dft
from wild11.delsarte import supersingular_possible, verify_cover_identity
from wild11.equivariant import (
    FixTally,
    assemble_charpoly,
    check_conjugates,
    fixed_locus_tally,
    traces_from_tally,
)
from wild11.errors import InconsistencyError, ReducibleFiberError
from wild11.ffield import FieldSpec, is_prime, trace_to_base
from wild11.fppoly import _add, reduced
from wild11.kodaira import artin_invariant, classify_fibers, trivial_lattice
from wild11.surface import make_model, surface_count
from reference_values import MU_TILDE_BY_CLASS, SQUARES_MOD_11
from references import fiber_count_at, sum_as_int

P = 11
ALL_PARAMS = [("epsilon", v) for v in range(1, 11)] + [("gamma", v) for v in range(1, 11)]


def _report(number: str, passed: bool, description: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {description}")


@pytest.fixture(scope="module")
def all_surfaces():
    """Fresh full pipeline for all twenty surfaces, with its own clock."""
    start = time.perf_counter()
    runs = {
        (kind, value): run_equivariant_pipeline(kind, value, P)
        for kind, value in ALL_PARAMS
    }
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def degenerate_member():
    return run_equivariant_pipeline("epsilon", 0, P)


def test_criterion_1_table_reproduction(all_surfaces):
    runs, elapsed = all_surfaces
    ok = True
    for (kind, value), run in runs.items():
        result = run[-1]
        expected = MU_TILDE_BY_CLASS[(kind, value in SQUARES_MOD_11)]
        ok = ok and normalize(result.mu, P) == tuple(Fraction(c) for c in expected)
    ok = ok and elapsed < 10.0
    _report("1", ok, f"all 20 surfaces match their square-class mu~ exactly ({elapsed:.2f} s < 10 s)")
    assert ok


def test_criterion_2_picard_bounds(all_surfaces, degenerate_member):
    runs, _ = all_surfaces
    ok = all(analyze_charpoly(run[-1].mu, P).picard_upper == 2 for run in runs.values())
    ok = ok and analyze_charpoly(degenerate_member[-1].mu, P).picard_upper == 22
    _report("2", ok, "picard_upper = 2 for all eps, gamma in F_11^x and 22 for eps = 0")
    assert ok


def test_criterion_3_heights(all_surfaces, degenerate_member):
    runs, _ = all_surfaces
    expected_slopes = ((Fraction(9, 10), 10), (Fraction(11, 10), 10))
    ok = True
    for run in runs.values():
        report = analyze_charpoly(run[-1].mu, P)
        ok = ok and report.height == 10 and report.newton_slopes == expected_slopes
    degenerate = analyze_charpoly(degenerate_member[-1].mu, P)
    ok = ok and degenerate.height == INFINITE_HEIGHT
    _report("3", ok, "height 10 with slopes {9/10 x10, 11/10 x10}; infinity for eps = 0")
    assert ok


def test_criterion_4_counting_identities():
    start = time.perf_counter()
    model = make_model("gamma", 1, P)
    ok = surface_count(model, FieldSpec(P)) == 144
    spec3 = FieldSpec(P, 3)
    ok = ok and surface_count(model, spec3) == 1_774_224
    for spec in (FieldSpec(P), spec3):
        q = spec.q
        for t in range(1, q):
            minus_t = spec.index_of(reduced([-c for c in spec.coords_at(t)], spec.p))
            if fiber_count_at(model, t, spec) + fiber_count_at(model, minus_t, spec) != 2 * q + 2:
                ok = False
                break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        "4",
        ok,
        f"gamma counts (q+1)^2 at q=11, 1331 and fiber pairing 2q+2 holds ({elapsed:.2f} s < 60 s)",
    )
    assert ok


def test_criterion_5_oracle_equivalence():
    ok = True
    for eps in range(11):
        model = make_model("epsilon", eps, P)
        for r in (1, 2):
            spec = FieldSpec(P, r)
            q = spec.q
            tally = fixed_locus_tally(model, spec)
            counted = surface_count(model, spec)
            eigen = inverse_dft(traces_from_tally(tally), q)
            reconstructed = 1 + 2 * q + sum_as_int(eigen) + q * q
            ok = ok and tally.fix[0] == counted == reconstructed
    _report("5", ok, "Fix_0 = fiberwise count = 1 + 2q + sum a_i(q) + q^2 for eps in F_11, q in {11, 121}")
    assert ok


def test_criterion_6_structural_suite(all_surfaces):
    runs, _ = all_surfaces
    ok = True
    for (kind, _value), run in runs.items():
        _, tally_p, tally_p2, _tr_p, _tr_p2, eigen_p, eigen_p2, result = run
        for tally in (tally_p, tally_p2):
            q = tally.q
            ok = ok and sum(tally.fix) == 11 * (2 * q + 1) + 11 * q * q
        for eigen in (eigen_p, eigen_p2):
            try:
                check_conjugates(eigen)
            except InconsistencyError:
                ok = False
        checks = structural_checks(result.mu, kind, P)
        ok = ok and checks["functional_equation"] and checks["integral_coefficients"]
        ok = ok and checks["determinant"]
        if kind == "gamma":
            ok = ok and checks["gamma_parity"] is True
    _report("6", ok, "integrality, Weil symmetry, gamma parity, det = p^20, tally sums, a_s = sigma_s(a_1)")
    assert ok


def test_criterion_7_proposition_suite():
    start = time.perf_counter()
    fibers7 = classify_fibers(make_model("uniform", None, 7))
    geometric7 = sorted((f.type, f.place.degree) for f in fibers7)
    ok = geometric7 == [("I1", 1), ("I1", 10), ("I11", 1), ("II", 1)]

    fibers11 = classify_fibers(make_model("uniform", None, 11))
    ok = ok and sorted((f.type, f.place.location_str()) for f in fibers11) == [
        ("I11", "t=0"),
        ("I11", "t=7"),
        ("II", "infinity"),
    ]
    lattice = trivial_lattice(fibers11)
    ok = ok and (lattice.rank, lattice.abs_disc) == (22, 121)
    ok = ok and artin_invariant(lattice, 11) == 1

    verified, cofactor = verify_cover_identity()
    ok = ok and verified and cofactor == (1, (33, 22, 0))  # 1 * u^33 v^22

    for prime in (p for p in range(2, 1000) if is_prime(p) and p != 11):
        non_square = prime % 11 not in set(SQUARES_MOD_11)
        ok = ok and supersingular_possible(prime) == non_square
    ok = ok and supersingular_possible(11)

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report("7", ok, f"uniform-model fibers, U+A10^2 lattice, sigma=1, cover identity ({elapsed:.2f} s < 5 s)")
    assert ok


def _missigned_tally(model, spec) -> FixTally:
    """The tally as computed with the wrong bucket sign n = +Tr(c)."""
    p, q = spec.p, spec.q
    fix = [2 * q + 1] * ORDER
    elements = [spec.coords_at(i) for i in range(q)]
    for x in elements:
        x2 = spec.mul(x, x)
        w = _add(spec.mul(x2, x), [(model.param or 0) * c for c in (x2 if model.kind == "epsilon" else x)], p)
        minus_w = reduced([-c for c in w], p)
        for y in elements:
            c = _add(spec.mul(y, y), minus_w, p)
            fix[trace_to_base(spec, c) % ORDER] += ORDER
    return FixTally(q=q, fix=tuple(fix))


def test_criterion_8a_missigned_bucket_fails_table():
    # Negative control as specified: a mis-signed bucket index is expected to
    # break the table reproduction.  Mathematically it cannot: the flip
    # replaces the automorphism by its inverse, relabels the eigenspaces
    # i -> -i, and leaves the product mu invariant, so this assertion fails.
    # The corruption is nonetheless detectable: it permutes the tally itself
    # (see test_equivariant.test_missigned_bucket_corrupts_the_tally).
    model = make_model("epsilon", 1, P)
    tally_p = _missigned_tally(model, FieldSpec(P))
    tally_p2 = _missigned_tally(model, FieldSpec(P, 2))
    result = assemble_charpoly(
        inverse_dft(traces_from_tally(tally_p), P),
        inverse_dft(traces_from_tally(tally_p2), P * P),
    )
    mu_tilde = normalize(result.mu, P)
    expected = tuple(Fraction(c) for c in MU_TILDE_BY_CLASS[("epsilon", True)])
    deviates = mu_tilde != expected
    _report("8a", deviates, "mis-signed bucket index makes the table reproduction fail")
    assert deviates, (
        "mu~ is invariant under the bucket-sign flip (automorphism vs. its inverse); "
        "the mis-sign is caught by the pinned tally, not by the table"
    )


def test_criterion_8b_corrupted_tally_trips_gate():
    model = make_model("gamma", 4, P)
    tally = fixed_locus_tally(model, FieldSpec(P))
    corrupted = FixTally(q=tally.q, fix=(tally.fix[0] + 11,) + tally.fix[1:])
    raised = False
    try:
        inverse_dft(traces_from_tally(corrupted), corrupted.q)
    except InconsistencyError:
        raised = True
    _report("8b", raised, "hand-corrupted tally triggers the a_0 != 2q gate")
    assert raised


def test_criterion_8c_reducible_fiber_refused():
    refused = False
    try:
        surface_count(make_model("uniform", None, P), FieldSpec(P))
    except ReducibleFiberError:
        refused = True
    _report("8c", refused, "model with a reducible fiber is refused by surface_count")
    assert refused
