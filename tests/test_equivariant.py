from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wild11 import surface
from wild11.analysis import normalize
from wild11.cli import cmd_table
from wild11.cyclotomic import EigenTraces, galois_apply, inverse_dft
from wild11.equivariant import (
    FixTally,
    _trace_histogram,
    assemble_charpoly,
    check_conjugates,
    fixed_locus_tally,
    traces_from_tally,
)
from wild11.errors import CapabilityError, InconsistencyError
from wild11.ffield import FieldSpec, trace_to_base
from wild11.fppoly import _add, reduced
from wild11.polynomials import poly_mul
from wild11.surface import make_model, surface_count
from reference_values import (
    GOLDEN_FIX0_EPS1_Q121,
    GOLDEN_FIX_EPS1_Q11,
    GOLDEN_MU_EPS1,
    GOLDEN_TR_EPS1_Q11,
    MU_TILDE_EPSILON_SQUARE,
    MU_TILDE_GAMMA_NONSQUARE,
)
from references import (
    ZERO,
    expand_eigenspace_product,
    spec_with_modulus,
    sum_as_int,
    zeta_mul,
    zeta_power,
)


def naive_tally_f11(kind, param, bucket_sign=-1):
    """Independent oracle: the 121-pair enumeration with bare modular ints."""
    q = 11
    fix = [2 * q + 1] * 11
    for x in range(11):
        for y in range(11):
            if kind == "epsilon":
                c = (y * y - x * x * x - param * x * x) % 11
            else:
                c = (y * y - x * x * x - param * x) % 11
            fix[(bucket_sign * c) % 11] += 11
    return tuple(fix)


def _reference_tally(model, spec):
    """Slow reference: every (x, y) in F_q^2 adds 11 to bucket -Tr(y^2 - w(x))."""
    p, q = spec.p, spec.q
    buckets = [2 * q + 1] * 11
    coords = [spec.coords_at(i) for i in range(q)]
    neg_trace = [(-trace_to_base(spec, x)) % p for x in coords]
    y_squares = [spec.mul(c, c) for c in coords]
    param = model.param or 0
    for x in coords:
        x2 = spec.mul(x, x)
        w = spec.mul(x2, x)
        if param:
            w = _add(w, [param * c for c in (x2 if model.kind == "epsilon" else x)], p)
        minus_w = reduced([-c for c in w], p)
        for ysq in y_squares:
            buckets[neg_trace[spec.index_of(_add(ysq, minus_w, p))]] += 11
    return tuple(buckets)


@pytest.mark.parametrize("kind", ["epsilon", "gamma"])
@pytest.mark.parametrize("param", range(11))
@pytest.mark.parametrize("r", [1, 2])
def test_tally_matches_pair_loop_reference(kind, param, r):
    model = make_model(kind, param, 11)
    spec = FieldSpec(11, r)
    assert fixed_locus_tally(model, spec).fix == _reference_tally(model, spec)


def test_tally_is_independent_of_the_modulus():
    # F_121 on its canonical u^2 + 1, on u^2 - 2 and on u^2 + u + 1 (Tr(u) != 0):
    # one field, three bases, three separately cached trace histograms
    specs = [FieldSpec(11, 2), spec_with_modulus(11, 2, (9, 0, 1)), spec_with_modulus(11, 2, (1, 1, 1))]
    assert len({spec.modulus for spec in specs}) == 3
    for kind in ("epsilon", "gamma"):
        for param in range(11):
            model = make_model(kind, param, 11)
            tallies = [fixed_locus_tally(model, spec) for spec in specs]
            assert tallies == [tallies[0]] * 3, (kind, param)


def test_tally_is_linear_in_q(monkeypatch):
    # one pass over F_q builds the field's trace histogram; a second surface
    # on the same field only folds it and touches no field element
    spec = FieldSpec(11, 2)
    calls = []
    index_of = FieldSpec.index_of

    def counting_index_of(self, coords):
        if self is spec:
            calls.append(coords)
        return index_of(self, coords)

    monkeypatch.setattr(FieldSpec, "index_of", counting_index_of)
    _trace_histogram.cache_clear()
    fixed_locus_tally(make_model("epsilon", 1, 11), spec)
    assert 0 < len(calls) <= 2 * spec.q
    calls.clear()
    fixed_locus_tally(make_model("gamma", 3, 11), spec)
    assert len(calls) == 0


def test_tally_reads_none_of_the_point_counts_tables():
    # the other direction of the oracle's independence: with the point
    # count's tables unavailable, the tally still builds its histograms
    # from its own negated-trace table, at every level up to 11^3
    _trace_histogram.cache_clear()
    with mock.patch.object(surface, "_field_tables", side_effect=AssertionError):
        for r in (1, 2, 3):
            spec = FieldSpec(11, r)
            tally = fixed_locus_tally(make_model("epsilon", 1, 11), spec)
            q = spec.q
            assert sum(tally.fix) == 11 * (2 * q + 1) + 11 * q * q
    assert _trace_histogram.cache_info().misses == 3


def test_table_builds_one_histogram_per_field():
    _trace_histogram.cache_clear()
    cmd_table()
    assert _trace_histogram.cache_info().misses == 2


@pytest.mark.parametrize("kind,param", [("epsilon", 1), ("epsilon", 0), ("gamma", 1), ("gamma", 7)])
def test_tally_matches_naive_oracle(kind, param):
    model = make_model(kind, param, 11)
    tally = fixed_locus_tally(model, FieldSpec(11))
    assert tally.fix == naive_tally_f11(kind, param)


def test_golden_tally_eps1():
    model = make_model("epsilon", 1, 11)
    tally = fixed_locus_tally(model, FieldSpec(11))
    assert tally.fix == GOLDEN_FIX_EPS1_Q11


@pytest.mark.parametrize("kind", ["epsilon", "gamma"])
@pytest.mark.parametrize("param", [0, 1, 2, 6])
@pytest.mark.parametrize("r", [1, 2])
def test_tally_bucket_invariants(kind, param, r):
    model = make_model(kind, param, 11)
    spec = FieldSpec(11, r)
    q = spec.q
    tally = fixed_locus_tally(model, spec)
    assert sum(tally.fix) == 11 * (2 * q + 1) + 11 * q * q
    assert all(f % 11 == (2 * q + 1) % 11 for f in tally.fix)


def test_fix0_equals_independent_surface_count():
    model = make_model("epsilon", 1, 11)
    tally_p = fixed_locus_tally(model, FieldSpec(11))
    assert tally_p.fix[0] == surface_count(model, FieldSpec(11)) == 133
    tally_p2 = fixed_locus_tally(model, FieldSpec(11, 2))
    assert tally_p2.fix[0] == surface_count(model, FieldSpec(11, 2)) == GOLDEN_FIX0_EPS1_Q121


def test_tally_rejects_out_of_scope_inputs():
    with pytest.raises(CapabilityError):
        fixed_locus_tally(make_model("uniform", None, 11), FieldSpec(11))
    with pytest.raises(CapabilityError):
        fixed_locus_tally(make_model("epsilon", 1, 7), FieldSpec(7))
    with pytest.raises(ValueError):
        fixed_locus_tally(make_model("epsilon", 1, 11), FieldSpec(5))


def _power_sums(a_1, b_1, n):
    """s_k = alpha^k + beta^k for k = 0 .. n, alpha and beta the roots of
    T^2 - a_1 T + b_1, by s_k = a_1 s_(k-1) - b_1 s_(k-2) in Z[zeta]."""
    s = [(2,) + ZERO[1:], a_1]
    while len(s) <= n:
        s.append(tuple(x - y for x, y in zip(zeta_mul(a_1, s[-1]), zeta_mul(b_1, s[-2]))))
    return s


@pytest.mark.parametrize("kind,param", [(kind, param) for kind in ("epsilon", "gamma") for param in range(11)])
def test_tally_at_levels_3_and_4(pipeline, kind, param):
    # the tallies over F_1331 and F_14641 fold the same histogram as levels 1
    # and 2, and their a_1 is the power sum of eigenspace 1's assembled
    # eigenvalues; fix[0] at 1331 is the independent oracle's count
    model, *_, result = pipeline(kind, param)
    s = _power_sums(*result.per_eigenspace[0], 4)
    for r in (3, 4):
        spec = FieldSpec(11, r)
        eigen = inverse_dft(traces_from_tally(fixed_locus_tally(model, spec)), spec.q)
        assert eigen.a[0] == s[r]
    spec = FieldSpec(11, 3)
    assert fixed_locus_tally(model, spec).fix[0] == surface_count(model, spec)


def test_traces_from_tally():
    assert traces_from_tally(FixTally(q=11, fix=(122,) * 11)) == [0] * 11
    model = make_model("gamma", 1, 11)
    tr = traces_from_tally(fixed_locus_tally(model, FieldSpec(11)))
    assert tr[0] == 22  # (q+1)^2 - 1 - q^2 = 2q, so the moving part has trace 0
    golden = traces_from_tally(FixTally(q=11, fix=GOLDEN_FIX_EPS1_Q11))
    assert tuple(golden) == GOLDEN_TR_EPS1_Q11


def test_fixtally_shape_check():
    with pytest.raises(ValueError):
        FixTally(q=11, fix=(1, 2, 3))


def test_assemble_trivial_forced_example():
    p = 11
    minus_2p2 = (-2 * p * p,) + ZERO[1:]
    e_p = EigenTraces(q=p, a=(ZERO,) * 10)
    e_p2 = EigenTraces(q=p * p, a=(minus_2p2,) * 10)
    result = assemble_charpoly(e_p, e_p2)
    # b_i = (0 - (-2p^2))/2 = p^2, so mu = (T^2 + p^2)^10
    expected = (1,)
    for _ in range(10):
        expected = poly_mul(expected, (p * p, 0, 1))
    assert result.mu == expected
    assert result.mu_full == poly_mul(expected, (p * p, -2 * p, 1))


def test_assemble_validates_field_levels():
    e = EigenTraces(q=11, a=(ZERO,) * 10)
    with pytest.raises(ValueError):
        assemble_charpoly(e, e)


def test_assemble_rejects_inexact_halving():
    p = 11
    one, two = (1,) + ZERO[1:], (2,) + ZERO[1:]
    e_p = EigenTraces(q=p, a=(one,) * 10)
    e_p2 = EigenTraces(q=p * p, a=(two,) * 10)  # 1 - 2 = -1: odd
    with pytest.raises(InconsistencyError, match="divisible by 2"):
        assemble_charpoly(e_p, e_p2)


def _conjugates(x):
    return tuple(galois_apply(s, x) for s in range(1, 11))


_SMALL_CYC = st.lists(st.integers(-4, 4), min_size=10, max_size=10).map(tuple)
# wide coordinates push the packed width of the power sums to hundreds of bits
_WIDE_CYC = st.lists(st.integers(-10**6, 10**6), min_size=10, max_size=10).map(tuple)


def _check_norm_against_eigenspace_product(a_1, b_1):
    # a_1(p^2) = a_1^2 - 2 b_1 makes the halving return b_1; with a_i, b_i the
    # conjugates sigma_i(a_1), sigma_i(b_1), the norm is the ten-fold product
    p = 11
    e_p = EigenTraces(q=p, a=_conjugates(a_1))
    a_1_p2 = tuple(x - 2 * y for x, y in zip(zeta_mul(a_1, a_1), b_1))
    e_p2 = EigenTraces(q=p * p, a=_conjugates(a_1_p2))
    result = assemble_charpoly(e_p, e_p2)
    pairs = tuple(zip(_conjugates(a_1), _conjugates(b_1)))
    assert result.per_eigenspace == pairs
    assert result.mu == expand_eigenspace_product(pairs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a_1=_SMALL_CYC, b_1=_SMALL_CYC)
def test_norm_matches_eigenspace_product(a_1, b_1):
    _check_norm_against_eigenspace_product(a_1, b_1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a_1=_WIDE_CYC, b_1=_WIDE_CYC)
def test_norm_matches_eigenspace_product_wide(a_1, b_1):
    _check_norm_against_eigenspace_product(a_1, b_1)


@pytest.mark.parametrize("level", ["p", "p2"])
def test_conjugacy_gate_rejects_swapped_traces(pipeline, level):
    *_, eigen_p, eigen_p2, _ = pipeline("epsilon", 1)
    check_conjugates(eigen_p)
    check_conjugates(eigen_p2)
    bad = eigen_p if level == "p" else eigen_p2
    bad = EigenTraces(q=bad.q, a=(bad.a[1], bad.a[0]) + bad.a[2:])
    e_p, e_p2 = (bad, eigen_p2) if level == "p" else (eigen_p, bad)
    with pytest.raises(InconsistencyError, match="conjugate"):
        assemble_charpoly(e_p, e_p2)


def test_expand_rejects_irrational_coefficient():
    # T^2 - zeta T: the coefficient of T is -zeta, not in Z
    with pytest.raises(InconsistencyError, match="irrational"):
        expand_eigenspace_product([(zeta_power(1), ZERO)])


def test_golden_mu_eps1(pipeline):
    *_, result = pipeline("epsilon", 1)
    assert result.mu == GOLDEN_MU_EPS1
    assert normalize(result.mu, 11) == tuple(MU_TILDE_EPSILON_SQUARE)


def test_mu_tilde_gamma2(pipeline):
    *_, result = pipeline("gamma", 2)
    assert normalize(result.mu, 11) == tuple(MU_TILDE_GAMMA_NONSQUARE)


@pytest.mark.parametrize("kind", ["epsilon", "gamma"])
@pytest.mark.parametrize("q_exp", [1, 2])
def test_reconstruction_identity(pipeline, kind, q_exp):
    # 1 + 2q + sum_i a_i(q) + q^2 equals the bucket-0 fixed-point count
    model, tally_p, tally_p2, *_rest = pipeline(kind, 1)
    tally = (tally_p, tally_p2)[q_exp - 1]
    eigen = _rest[2 + q_exp - 1]
    q = 11**q_exp
    assert 1 + 2 * q + sum_as_int(eigen) + q * q == tally.fix[0]


def test_corrupted_tally_trips_invariant_gate():
    model = make_model("epsilon", 3, 11)
    tally = fixed_locus_tally(model, FieldSpec(11))
    corrupted = FixTally(q=tally.q, fix=tally.fix[:4] + (tally.fix[4] + 11,) + tally.fix[5:])
    with pytest.raises(InconsistencyError, match="a_0"):
        inverse_dft(traces_from_tally(corrupted), corrupted.q)


def test_missigned_bucket_corrupts_the_tally():
    # wrong bucket sign reverses buckets 1..10; the pinned tally catches it
    wrong = naive_tally_f11("epsilon", 1, bucket_sign=+1)
    assert wrong != GOLDEN_FIX_EPS1_Q11
    assert wrong == GOLDEN_FIX_EPS1_Q11[:1] + GOLDEN_FIX_EPS1_Q11[1:][::-1]


def test_tally_depends_only_on_square_class_after_assembly(pipeline):
    # tallies of class members differ by a bucket permutation, but mu agrees
    mus = set()
    for eps in (1, 3, 4, 5, 9):
        *_, result = pipeline("epsilon", eps)
        mus.add(result.mu)
    assert len(mus) == 1
