import random
from fractions import Fraction

import pytest

from wild11 import (
    CycNum,
    EigenTraces,
    InconsistencyError,
    forward_dft,
    galois_apply,
    inverse_dft,
)
from wild11.equivariant import check_conjugates
from reference_values import GOLDEN_EIGEN_EPS1_Q11, GOLDEN_TR_EPS1_Q11


def zeta(k=1):
    return CycNum.zeta_power(k)


def test_zeta_power_products():
    assert zeta(6) * zeta(7) == zeta(2)  # exponents add mod 11
    assert zeta(1) * zeta(9) == CycNum((-1,) * 10)  # z^10 in the power basis
    one = CycNum((1,))
    assert (one + zeta()) * one == one + zeta()


def test_power_basis_is_reduced():
    # z^11 = 1 and the degree stays below 10
    assert zeta() ** 11 == CycNum((1,))
    assert zeta() ** 10 == CycNum((-1,) * 10)


def _random_cyc(rng):
    return CycNum(tuple(rng.randint(-10**6, 10**6) for _ in range(10)))


def _mul_reference(a, b):
    """Schoolbook product as a sum of scaled zeta powers, independent of __mul__'s folding."""
    total = CycNum()
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            total = total + CycNum(tuple(x * y * c for c in CycNum.zeta_power(i + j).coords))
    return total


def test_ring_laws_on_random_elements():
    rng = random.Random(0)
    for _ in range(40):
        a, b, c = (_random_cyc(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == CycNum()
        assert a - b == a + (-b)
        assert a * b == _mul_reference(a, b)
        assert all(type(x) is int for x in (a * b - c).coords)


def test_coordinates_must_be_ints():
    with pytest.raises(TypeError):
        CycNum((Fraction(1, 2),))
    with pytest.raises(TypeError):
        CycNum((1.0,))
    with pytest.raises(ValueError):
        CycNum((0,) * 11)


def test_galois_apply():
    rng = random.Random(1)
    a = _random_cyc(rng)
    assert galois_apply(1, a) == a
    assert galois_apply(5, CycNum((7,))) == CycNum((7,))
    assert galois_apply(2, zeta()) == zeta(2)
    # sigma_s is a ring homomorphism
    b = _random_cyc(rng)
    for s in range(1, 11):
        assert galois_apply(s, a * b) == galois_apply(s, a) * galois_apply(s, b)
        assert galois_apply(s, a + b) == galois_apply(s, a) + galois_apply(s, b)
    with pytest.raises(ValueError):
        galois_apply(11, a)
    # sigma_s . sigma_t = sigma_{s t}
    for s in (2, 3, 7):
        for t in (2, 5, 10):
            assert galois_apply(s, galois_apply(t, a)) == galois_apply(s * t % 11, a)


def test_as_int():
    assert CycNum((5,)).as_int() == 5
    assert zeta().as_int() is None
    assert (zeta() * zeta(10)).as_int() == 1


def test_inverse_dft_trivial():
    q = 11
    traces = inverse_dft([2 * q] * 11, q)
    assert all(a == CycNum() for a in traces.a)


def test_inverse_dft_rejects_wrong_invariant_trace():
    q = 11
    tr = [2 * q] * 11
    tr[3] += 11  # breaks sum(tr) = 22q, i.e. a_0 = 2q
    with pytest.raises(InconsistencyError, match="a_0"):
        inverse_dft(tr, q)


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
    assert tuple(a.coords for a in traces.a) == GOLDEN_EIGEN_EPS1_Q11
    # sum over the moving part = tr_0 - 2q
    assert traces.sum_as_int() == GOLDEN_TR_EPS1_Q11[0] - 22


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
        assert all(type(c) is int for a in traces.a for c in a.coords)
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
        EigenTraces(q=11, a=(CycNum(),) * 9)
