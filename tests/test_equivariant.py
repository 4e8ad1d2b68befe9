import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wild11 import (
    CapabilityError,
    CycNum,
    EigenTraces,
    FieldSpec,
    FixTally,
    InconsistencyError,
    IntPoly,
    assemble_charpoly,
    fixed_locus_tally,
    galois_apply,
    inverse_dft,
    make_model,
    surface_count,
    trace_to_base,
    traces_from_tally,
)
from wild11.analysis import normalize
from wild11.equivariant import check_conjugates, expand_eigenspace_product
from reference_values import (
    GOLDEN_FIX0_EPS1_Q121,
    GOLDEN_FIX_EPS1_Q11,
    GOLDEN_MU_EPS1,
    GOLDEN_TR_EPS1_Q11,
    MU_TILDE_EPSILON_SQUARE,
    MU_TILDE_GAMMA_NONSQUARE,
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
    q = spec.q
    buckets = [2 * q + 1] * 11
    coords = [spec.coords_at(i) for i in range(q)]
    neg_trace = [(-trace_to_base(spec, x)) % spec.p for x in coords]
    y_squares = [spec.mul(c, c) for c in coords]
    param = model.param or 0
    for x in coords:
        x2 = spec.mul(x, x)
        w = spec.mul(x2, x)
        if param:
            w = spec.add(w, spec.smul(param, x2 if model.kind == "epsilon" else x))
        minus_w = spec.smul(-1, w)
        for ysq in y_squares:
            buckets[neg_trace[spec.index_of(spec.add(ysq, minus_w))]] += 11
    return tuple(buckets)


@pytest.mark.parametrize("kind", ["epsilon", "gamma"])
@pytest.mark.parametrize("param", range(11))
@pytest.mark.parametrize("r", [1, 2])
def test_tally_matches_pair_loop_reference(kind, param, r):
    model = make_model(kind, param, 11)
    spec = FieldSpec(11, r)
    assert fixed_locus_tally(model, spec).fix == _reference_tally(model, spec)


def test_tally_is_linear_in_q(monkeypatch):
    spec = FieldSpec(11, 2)
    calls = []
    index_of = FieldSpec.index_of

    def counting_index_of(self, coords):
        if self is spec:
            calls.append(coords)
        return index_of(self, coords)

    monkeypatch.setattr(FieldSpec, "index_of", counting_index_of)
    for kind, param in [("epsilon", 1), ("gamma", 3)]:
        calls.clear()
        fixed_locus_tally(make_model(kind, param, 11), spec)
        assert 0 < len(calls) <= 2 * spec.q


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
    with pytest.raises(CapabilityError):
        fixed_locus_tally(make_model("epsilon", 1, 11), FieldSpec(11, 3))
    with pytest.raises(ValueError):
        fixed_locus_tally(make_model("epsilon", 1, 11), FieldSpec(5))


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
    zero = CycNum()
    minus_2p2 = CycNum((-2 * p * p,))
    e_p = EigenTraces(q=p, a=(zero,) * 10)
    e_p2 = EigenTraces(q=p * p, a=(minus_2p2,) * 10)
    result = assemble_charpoly(e_p, e_p2, p)
    # b_i = (0 - (-2p^2))/2 = p^2, so mu = (T^2 + p^2)^10
    quad = IntPoly([p * p, 0, 1])
    expected = IntPoly([1])
    for _ in range(10):
        expected = expected * quad
    assert result.mu == expected
    assert result.mu_full == expected * IntPoly([p * p, -2 * p, 1])


def test_assemble_validates_field_levels():
    e = EigenTraces(q=11, a=(CycNum(),) * 10)
    with pytest.raises(ValueError):
        assemble_charpoly(e, e, 11)


def test_assemble_rejects_inexact_halving():
    p = 11
    one = CycNum((1,))
    e_p = EigenTraces(q=p, a=(one,) * 10)
    e_p2 = EigenTraces(q=p * p, a=(CycNum((2,)),) * 10)  # 1 - 2 = -1: odd
    with pytest.raises(InconsistencyError, match="divisible by 2"):
        assemble_charpoly(e_p, e_p2, p)


def _conjugates(x):
    return tuple(galois_apply(s, x) for s in range(1, 11))


_SMALL_CYC = st.lists(st.integers(-4, 4), min_size=10, max_size=10).map(
    lambda coords: CycNum(tuple(coords))
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a_1=_SMALL_CYC, b_1=_SMALL_CYC)
def test_norm_matches_eigenspace_product(a_1, b_1):
    # a_1(p^2) = a_1^2 - 2 b_1 makes the halving return b_1; with a_i, b_i the
    # conjugates sigma_i(a_1), sigma_i(b_1), the norm is the ten-fold product
    p = 11
    e_p = EigenTraces(q=p, a=_conjugates(a_1))
    e_p2 = EigenTraces(q=p * p, a=_conjugates(a_1 * a_1 - 2 * b_1))
    result = assemble_charpoly(e_p, e_p2, p)
    pairs = tuple(zip(_conjugates(a_1), _conjugates(b_1)))
    assert result.per_eigenspace == pairs
    assert result.mu == expand_eigenspace_product(pairs)


@pytest.mark.parametrize("level", ["p", "p2"])
def test_conjugacy_gate_rejects_swapped_traces(pipeline, level):
    *_, eigen_p, eigen_p2, _ = pipeline("epsilon", 1)
    check_conjugates(eigen_p)
    check_conjugates(eigen_p2)
    bad = eigen_p if level == "p" else eigen_p2
    bad = EigenTraces(q=bad.q, a=(bad.a[1], bad.a[0]) + bad.a[2:])
    e_p, e_p2 = (bad, eigen_p2) if level == "p" else (eigen_p, bad)
    with pytest.raises(InconsistencyError, match="conjugate"):
        assemble_charpoly(e_p, e_p2, 11)


def test_expand_rejects_irrational_coefficient():
    # T^2 - zeta T: the coefficient of T is -zeta, not in Z
    with pytest.raises(InconsistencyError, match="irrational"):
        expand_eigenspace_product([(CycNum.zeta_power(1), CycNum())])


def test_golden_mu_eps1(pipeline):
    *_, result = pipeline("epsilon", 1)
    assert result.mu.coeffs == GOLDEN_MU_EPS1
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
    assert 1 + 2 * q + eigen.sum_as_int() + q * q == tally.fix[0]


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
        mus.add(result.mu.coeffs)
    assert len(mus) == 1
