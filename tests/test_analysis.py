from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wild11 import (
    CycNum,
    EigenTraces,
    INFINITE_HEIGHT,
    InconsistencyError,
    IntPoly,
    analyze_charpoly,
    cyclotomic_poly,
    divides_with_multiplicity,
    height_from_newton,
    normalize,
    picard_upper_bound,
    structural_checks,
)
from wild11.analysis import _unit_circle_check
from wild11.equivariant import CharPolyResult
from wild11.polynomials import euler_phi, newton_polygon, palindrome_sign
from reference_values import (
    MU_TILDE_EPSILON_SQUARE,
    MU_TILDE_GAMMA_SQUARE,
    NONSQUARES_MOD_11,
    SQUARES_MOD_11,
)
from references import as_int, expand_eigenspace_product


def _power(base: IntPoly, n: int) -> IntPoly:
    out = IntPoly([1])
    for _ in range(n):
        out = out * base
    return out


def _rat_multiplicity(f, g) -> int:
    """Reference: largest m with f^m | g in Q[T], by Fraction long division.

    f and g are coefficient sequences, constant term first, with nonzero
    leading coefficients; a zero g gives 0."""
    f = [Fraction(c) for c in f]
    current = [Fraction(c) for c in g]
    df = len(f) - 1
    m = 0
    while any(current):
        rem = list(current)
        quo = [Fraction(0)] * max(len(rem) - df, 0)
        for top in range(len(rem) - 1, df - 1, -1):
            c = rem[top] / f[-1]
            quo[top - df] = c
            for i, d in enumerate(f):
                rem[top - df + i] -= c * d
        if any(rem):
            break
        m += 1
        current = quo
    return m


def _picard_reference(mu: IntPoly, p: int) -> int:
    """2 + sum of phi(k) * (multiplicity of Phi_k in mu~ over Q).

    mu~ is built here, not by normalize, so the reference shares no code
    with picard_upper_bound's rescaling."""
    mu_tilde = [Fraction(c * p**j, p**20) for j, c in enumerate(mu.coeffs)]
    return 2 + sum(
        euler_phi(k) * _rat_multiplicity(cyclotomic_poly(k).coeffs, mu_tilde)
        for k in range(1, 101)
        if euler_phi(k) <= 20
    )


def _reference_checks(result: CharPolyResult, eigen_p2: EigenTraces, kind: str, p: int) -> dict:
    """Reference: the structural checks recomputed from the eigenspace data.

    Re-expands the eigenspace product (and, for even gamma polynomials, the
    level-p^2 product from the q = p^2 eigentraces) and multiplies out the
    eigenspace determinants, as the checks did before they read mu alone."""
    mu = result.mu
    checks = {}
    scaled = [c * p**j for j, c in enumerate(mu.coeffs)]
    checks["functional_equation"] = palindrome_sign(scaled) in (1, -1)
    if kind == "gamma":
        parity = not any(mu.coeffs[1::2])
        if parity:
            nu = IntPoly(mu.coeffs[0::2])
            level2_pairs = [(a2, b * b) for (_, b), a2 in zip(result.per_eigenspace, eigen_p2.a)]
            try:
                parity = expand_eigenspace_product(level2_pairs) == nu * nu
            except InconsistencyError:
                parity = False
        checks["gamma_parity"] = parity
    else:
        checks["gamma_parity"] = None
    try:
        checks["integral_coefficients"] = expand_eigenspace_product(result.per_eigenspace) == mu
    except InconsistencyError:
        checks["integral_coefficients"] = False
    det = CycNum((1,))
    for _, b in result.per_eigenspace:
        det = det * b
    det_value = as_int(det)
    checks["determinant"] = det_value is not None and abs(det_value) == p**20
    checks["unit_circle"] = _unit_circle_check(mu, p)
    return checks


def test_normalize_trivial():
    p = 11
    mu = _power(IntPoly([p * p, 0, 1]), 10)  # (T^2 + p^2)^10
    assert normalize(mu, p) == _power(IntPoly([1, 0, 1]), 10).coeffs


def test_normalize_requires_monic_degree_20():
    with pytest.raises(ValueError):
        normalize(IntPoly([1, 0, 1]), 11)
    with pytest.raises(ValueError):
        normalize(IntPoly([0] * 20 + [2]), 11)


def test_normalize_hits_expected_rows(analyzed):
    assert analyzed("epsilon", 1).mu_tilde == tuple(Fraction(c) for c in MU_TILDE_EPSILON_SQUARE)
    assert analyzed("gamma", 1).mu_tilde == tuple(Fraction(c) for c in MU_TILDE_GAMMA_SQUARE)


def test_picard_bound_trivial_supersingular_shape():
    p = 11
    mu = _power(IntPoly([p * p, 0, 1]), 10)
    assert picard_upper_bound(mu, p) == 22  # Phi_4 divides mu~ ten times


def test_picard_bound_on_computed_surfaces(analyzed):
    for eps in range(1, 11):
        assert analyzed("epsilon", eps).picard_upper == 2
    for gamma in range(1, 11):
        assert analyzed("gamma", gamma).picard_upper == 2
    assert analyzed("epsilon", 0).picard_upper == 22


@pytest.mark.parametrize("kind", ["epsilon", "gamma"])
@pytest.mark.parametrize("param", range(11))
def test_picard_bound_matches_rational_reference(pipeline, kind, param):
    *_, result = pipeline(kind, param)
    assert picard_upper_bound(result.mu, 11) == _picard_reference(result.mu, 11)


def test_picard_bound_mixed_cyclotomic_factors():
    p = 11
    # roots p (x2), -p (x4), +-ip (x2 each), and five pairs off the p * (root of unity) locus
    mu = (
        _power(IntPoly([-p, 1]), 2)
        * _power(IntPoly([p, 1]), 4)
        * _power(IntPoly([p * p, 0, 1]), 2)
        * _power(IntPoly([p, -1, 1]), 5)
    )
    assert picard_upper_bound(mu, p) == _picard_reference(mu, p) == 12


def _scaled_cyclotomic(k: int, p: int) -> IntPoly:
    """The monic p^phi(k) * Phi_k(T / p), whose roots are p times the primitive k-th roots of 1."""
    phi = euler_phi(k)
    return IntPoly([c * p ** (phi - i) for i, c in enumerate(cyclotomic_poly(k).coeffs)])


@st.composite
def _mu_with_cyclotomic_factors(draw):
    """(p, mu): a monic degree-20 mu = (scaled cyclotomic powers) * (random monic cofactor)."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    mu = IntPoly([1])
    ks = [k for k in range(1, 67) if euler_phi(k) <= 20]
    for k, e in draw(st.lists(st.tuples(st.sampled_from(ks), st.integers(1, 4)), max_size=5)):
        f = _power(_scaled_cyclotomic(k, p), e)
        if mu.degree + f.degree <= 20:
            mu = mu * f
    n = 20 - mu.degree
    cofactor = draw(st.lists(st.integers(-p * p, p * p), min_size=n, max_size=n))
    return p, mu * IntPoly(cofactor + [1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_mu_with_cyclotomic_factors())
def test_picard_bound_matches_rational_reference_random(case):
    p, mu = case
    assert picard_upper_bound(mu, p) == _picard_reference(mu, p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    f_low=st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    g=st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(lambda cs: cs[-1] != 0),
    m=st.integers(0, 3),
)
def test_divides_with_multiplicity_matches_rational_reference(f_low, g, m):
    f = IntPoly(f_low + [1])  # monic, non-constant
    h = _power(f, m) * IntPoly(g)
    found = divides_with_multiplicity(f, h)
    assert found >= m
    assert found == _rat_multiplicity(f.coeffs, h.coeffs)


def test_height_examples(analyzed):
    assert analyzed("epsilon", 1).height == 10
    assert analyzed("gamma", 2).height == 10
    assert analyzed("epsilon", 0).height == INFINITE_HEIGHT


def test_height_ordinary_case():
    p = 11
    mu = IntPoly([p, -1, 1]) * _power(IntPoly([p * p, 0, 1]), 9)
    assert height_from_newton(newton_polygon(mu, p)) == 1  # a p-adic unit root


def test_height_rejects_non_integral_value():
    p = 11
    mu = _power(IntPoly([p * p, 0, 0, 0, 0, 1]), 4)  # slopes 2/5 -> "height" 5/3
    with pytest.raises(InconsistencyError):
        height_from_newton(newton_polygon(mu, p))


def test_height_requires_degree_20():
    with pytest.raises(ValueError, match="degree 20"):
        height_from_newton(newton_polygon(IntPoly([11, -1, 1]), 11))


def test_newton_slopes_on_surfaces(analyzed):
    report = analyzed("epsilon", 5)
    assert report.newton_slopes == ((Fraction(9, 10), 10), (Fraction(11, 10), 10))
    degenerate = analyzed("epsilon", 0)
    assert degenerate.newton_slopes == ((Fraction(1), 20),)


def test_structural_checks_gamma(pipeline):
    *_, result = pipeline("gamma", 1)
    checks = structural_checks(result.mu, "gamma", 11)
    assert checks == {
        "functional_equation": True,
        "gamma_parity": True,
        "integral_coefficients": True,
        "determinant": True,
        "unit_circle": True,
    }


def test_structural_checks_epsilon(pipeline):
    *_, result = pipeline("epsilon", 1)
    checks = structural_checks(result.mu, "epsilon", 11)
    assert checks["gamma_parity"] is None
    assert all(checks[k] for k in ("functional_equation", "integral_coefficients", "determinant", "unit_circle"))


@pytest.mark.parametrize("label", ["epsilon", "gamma"])
@pytest.mark.parametrize("kind", ["epsilon", "gamma"])
@pytest.mark.parametrize("param", range(11))
def test_structural_checks_match_eigenspace_reference(pipeline, kind, param, label):
    *_, eigen_p2, result = pipeline(kind, param)
    assert structural_checks(result.mu, label, 11) == _reference_checks(result, eigen_p2, label, 11)


@pytest.mark.parametrize("kind", ["epsilon", "gamma"])
@pytest.mark.parametrize("param", range(11))
def test_mu_identities_behind_the_checks(pipeline, kind, param):
    *_, eigen_p2, result = pipeline(kind, param)
    mu = result.mu
    assert expand_eigenspace_product(result.per_eigenspace) == mu
    det = CycNum((1,))
    for _, b in result.per_eigenspace:
        det = det * b
    assert as_int(det) == mu.coeffs[0]
    if kind == "gamma":
        nu = IntPoly(mu.coeffs[0::2])
        level2_pairs = [(a2, b * b) for (_, b), a2 in zip(result.per_eigenspace, eigen_p2.a)]
        assert expand_eigenspace_product(level2_pairs) == nu * nu


def test_structural_checks_negative_control():
    # hand-built result whose eigenspace determinants multiply to 1, not p^20
    p = 11
    zero, one = CycNum(), CycNum((1,))
    pairs = tuple((zero, one) for _ in range(10))
    mu = _power(IntPoly([1, 0, 1]), 10)  # (T^2 + 1)^10, consistent with the pairs
    fake = CharPolyResult(
        p=p, mu=mu, mu_full=mu * IntPoly([p * p, -2 * p, 1]), per_eigenspace=pairs
    )
    checks = structural_checks(fake.mu, "epsilon", p)
    assert checks["determinant"] is False
    assert checks["integral_coefficients"] is True  # the product really is mu
    eigen_p2 = EigenTraces(q=p * p, a=(CycNum((-2,)),) * 10)
    assert checks == _reference_checks(fake, eigen_p2, "epsilon", p)


def test_gamma_parity_fails_on_epsilon_polynomial(pipeline):
    # the epsilon-family polynomial has odd terms, so the parity check,
    # if it were applied, must come out false
    *_, result = pipeline("epsilon", 1)
    checks = structural_checks(result.mu, "gamma", 11)
    assert checks["gamma_parity"] is False


def test_unit_circle_advisory_negative():
    p = 11
    off = IntPoly([1, 1]) * IntPoly([p * p * p, 1]) * _power(IntPoly([p * p, 0, 1]), 9)
    # roots -1 and -p^3: after normalization one root has modulus p^2 != 1
    assert _unit_circle_check(off, p) is False


def test_analyze_charpoly_bundle(pipeline):
    *_, result = pipeline("gamma", 6)
    report = analyze_charpoly(result, "gamma")
    assert report.picard_lower == 2
    assert report.picard_upper == 2
    assert report.height == 10
    assert report.mu_tilde[0] == 1


@pytest.mark.parametrize("kind,params", [("epsilon", SQUARES_MOD_11), ("gamma", NONSQUARES_MOD_11)])
def test_class_function_property(analyzed, kind, params):
    reports = [analyzed(kind, v) for v in params]
    reference = reports[0].mu_tilde
    assert all(r.mu_tilde == reference for r in reports)
