import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wild11.cyclotomic import EigenTraces, cyc_mul, galois_apply, inverse_dft, power_sum_traces
from wild11.equivariant import check_conjugates
from wild11.errors import InconsistencyError
from reference_values import GOLDEN_EIGEN_EPS1_Q11, GOLDEN_TR_EPS1_Q11
from references import (
    ZERO,
    as_int,
    forward_dft,
    sum_as_int,
    zeta_add,
    zeta_conjugate,
    zeta_mul,
    zeta_power,
    zeta_power_sum_traces,
    zeta_trace,
)


def zeta(k=1):
    return zeta_power(k)


ONE = zeta(0)
MINUS_ONES = (-1,) * 10  # z^10 in the power basis


def test_zeta_power_products():
    assert cyc_mul(zeta(6), zeta(7)) == zeta(2)  # exponents add mod 11
    assert cyc_mul(zeta(1), zeta(9)) == MINUS_ONES
    assert zeta(10) == MINUS_ONES
    assert cyc_mul(zeta_add(ONE, zeta()), ONE) == zeta_add(ONE, zeta())


def test_power_basis_is_reduced():
    # z^11 = 1 and the degree stays below 10, by repeated products
    powers = [ONE]
    for _ in range(11):
        powers.append(cyc_mul(powers[-1], zeta()))
    assert powers[10] == MINUS_ONES
    assert powers[11] == ONE


def _random_cyc(rng):
    return tuple(rng.randint(-10**6, 10**6) for _ in range(10))


def _trace(a):
    """Tr(a), read as the k = 1 power-sum trace: s_1 = alpha + beta = a."""
    return power_sum_traces(a, ZERO)[1]


def test_ring_laws_on_random_elements():
    rng = random.Random(0)
    for _ in range(40):
        a, b, c = (_random_cyc(rng) for _ in range(3))
        assert cyc_mul(a, b) == cyc_mul(b, a)
        assert cyc_mul(cyc_mul(a, b), c) == cyc_mul(a, cyc_mul(b, c))
        assert cyc_mul(a, zeta_add(b, c)) == zeta_add(cyc_mul(a, b), cyc_mul(a, c))
        assert cyc_mul(a, ONE) == a
        assert cyc_mul(a, ZERO) == ZERO
        assert cyc_mul(a, b) == zeta_mul(a, b)
        assert all(type(x) is int for x in cyc_mul(a, b))
        # the trace is Q-linear and sums the ten conjugates
        assert _trace(zeta_add(a, b)) == _trace(a) + _trace(b)
        conjugates = ZERO
        for s in range(1, 11):
            conjugates = zeta_add(conjugates, galois_apply(s, a))
        assert as_int(conjugates) == _trace(a)


_CYC = st.lists(st.integers(-10**6, 10**6), min_size=10, max_size=10).map(tuple)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=_CYC, b=_CYC)
def test_fast_paths_match_quotient_ring_reference(a, b):
    # the power-basis fold, trace and Galois permutation against Z[T]/(Phi_11)
    assert cyc_mul(a, b) == zeta_mul(a, b)
    assert _trace(a) == zeta_trace(a)
    for s in range(1, 11):
        assert galois_apply(s, a) == zeta_conjugate(s, a)


# b = +-121 zeta^k, the shape of b_1 on every real surface, and b = 0
_B_SHAPES = _CYC | st.builds(
    lambda sign, k: tuple(sign * 121 * c for c in zeta_power(k)),
    st.sampled_from((1, -1)),
    st.integers(0, 10),
) | st.just(ZERO)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=_CYC, b=_B_SHAPES)
def test_power_sum_traces_match_the_recurrence_in_z_zeta(a, b):
    assert power_sum_traces(a, b) == zeta_power_sum_traces(a, b)


def test_power_sum_traces_of_zero_cases_and_known_roots():
    # a = 0 shrinks the width bound L_k at every odd k; a = b = 0 to L_k = 0
    rng = random.Random(2)
    for b in (_random_cyc(rng), tuple(-121 * c for c in zeta(3)), ZERO):
        assert power_sum_traces(ZERO, b) == zeta_power_sum_traces(ZERO, b)
    assert power_sum_traces(ZERO, ZERO) == [20] + [0] * 20  # alpha = beta = 0
    # T^2 - 1: alpha, beta = 1, -1, so s_k = 2 for even k and 0 for odd k
    assert power_sum_traces(ZERO, tuple(-c for c in ONE)) == [20 if k % 2 == 0 else 0 for k in range(21)]
    # T^2 - zeta T: alpha = zeta, beta = 0, Tr(zeta^k) = 10 if 11 | k, else -1
    assert power_sum_traces(zeta(), ZERO) == [20] + [10 if k % 11 == 0 else -1 for k in range(1, 21)]
    # (T - 1)(T - zeta): s_k = 1 + zeta^k, Tr = 20 if 11 | k, else 9
    one_plus_zeta = zeta_add(ONE, zeta())
    assert power_sum_traces(one_plus_zeta, zeta()) == [20] + [20 if k % 11 == 0 else 9 for k in range(1, 21)]


def test_coordinates_must_be_ints():
    for bad, error in (
        ((Fraction(1, 2),) + ZERO[1:], TypeError),
        ((1.0,) + ZERO[1:], TypeError),
        ((0,) * 11, ValueError),
    ):
        with pytest.raises(error):
            EigenTraces(q=11, a=(bad,) + (ZERO,) * 9)


def test_galois_apply():
    rng = random.Random(1)
    a = _random_cyc(rng)
    assert galois_apply(1, a) == a
    seven = (7,) + ZERO[1:]
    assert galois_apply(5, seven) == seven
    assert galois_apply(2, zeta()) == zeta(2)
    # sigma_s is a ring homomorphism
    b = _random_cyc(rng)
    for s in range(1, 11):
        assert galois_apply(s, cyc_mul(a, b)) == cyc_mul(galois_apply(s, a), galois_apply(s, b))
        assert galois_apply(s, zeta_add(a, b)) == zeta_add(galois_apply(s, a), galois_apply(s, b))
    with pytest.raises(ValueError):
        galois_apply(11, a)
    # sigma_s . sigma_t = sigma_{s t}
    for s in (2, 3, 7):
        for t in (2, 5, 10):
            assert galois_apply(s, galois_apply(t, a)) == galois_apply(s * t % 11, a)


def test_as_int():
    assert as_int((5,) + ZERO[1:]) == 5
    assert as_int(zeta()) is None
    assert as_int(cyc_mul(zeta(), zeta(10))) == 1


def test_inverse_dft_trivial():
    q = 11
    traces = inverse_dft([2 * q] * 11, q)
    assert all(a == ZERO for a in traces.a)


def test_inverse_dft_rejects_wrong_invariant_trace():
    # the message gives a_0 = sum(tr)/11 in lowest terms, as an integer when it is one
    q = 11
    for shift, a_0 in ((11, "23"), (1, "243/11")):
        tr = [2 * q] * 11
        tr[3] += shift  # breaks sum(tr) = 22q, i.e. a_0 = 2q
        with pytest.raises(InconsistencyError) as raised:
            inverse_dft(tr, q)
        assert str(raised.value) == f"a_0 = {a_0} != 2q = 22; the fixed-point tally is inconsistent"


def test_inverse_dft_rejects_non_integral_traces():
    q = 11
    tr = [2 * q] * 11
    tr[1] += 1
    tr[2] -= 1  # sum is still 22q but (z - z^2)/11 is not integral
    with pytest.raises(InconsistencyError, match="algebraic integer"):
        inverse_dft(tr, q)


def test_inverse_dft_input_validation():
    with pytest.raises(ValueError):
        inverse_dft([22] * 10, 11)
    with pytest.raises(ValueError):
        inverse_dft([22.0] * 11, 11)


def test_golden_eigentraces_for_eps1():
    traces = inverse_dft(list(GOLDEN_TR_EPS1_Q11), 11)
    assert traces.a == GOLDEN_EIGEN_EPS1_Q11
    # sum over the moving part = tr_0 - 2q
    assert sum_as_int(traces) == GOLDEN_TR_EPS1_Q11[0] - 22


def test_forward_dft_round_trip():
    traces = inverse_dft(list(GOLDEN_TR_EPS1_Q11), 11)
    assert forward_dft(traces) == list(GOLDEN_TR_EPS1_Q11)
    trivial = inverse_dft([242] * 11, 121)
    assert forward_dft(trivial) == [242] * 11


@pytest.mark.parametrize("kind", ["epsilon", "gamma"])
@pytest.mark.parametrize("param", range(1, 11))
def test_real_tallies_yield_integral_galois_stable_traces(pipeline, kind, param):
    *_, eigen_p, eigen_p2, _ = pipeline(kind, param)
    for traces in (eigen_p, eigen_p2):
        assert all(type(c) is int for a in traces.a for c in a)
        check_conjugates(traces)  # raises InconsistencyError unless a_s = sigma_s(a_1)


def test_observed_galois_permutation_is_index_scaling(pipeline):
    # not asserted as an invariant, but the observed permutation acts by
    # i -> s*i mod 11 on non-degenerate trace sets
    *_, eigen_p, _, _ = pipeline("epsilon", 1)
    for s in range(2, 11):
        perm = eigen_p.galois_permutation(s)
        assert perm is not None
        assert perm == tuple((s * i) % 11 - 1 for i in range(1, 11))


def test_eigentraces_length_check():
    with pytest.raises(ValueError):
        EigenTraces(q=11, a=(ZERO,) * 9)
    with pytest.raises(ValueError, match="10 coordinates"):
        EigenTraces(q=11, a=((0,) * 9,) + (ZERO,) * 9)
