from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wild11 import analysis
from wild11.analysis import (
    INFINITE_HEIGHT,
    _unit_circle_check,
    analyze_charpoly,
    height_from_newton,
    normalize,
    picard_upper_bound,
    structural_checks,
)
from wild11.cyclotomic import EigenTraces
from wild11.equivariant import CharPolyResult
from wild11.errors import InconsistencyError
from wild11.polynomials import (
    cyclotomic_poly,
    divides_with_multiplicity,
    euler_phi,
    newton_polygon,
    palindrome_sign,
    poly_mul,
)
from reference_values import (
    MU_TILDE_EPSILON_SQUARE,
    MU_TILDE_GAMMA_SQUARE,
    NONSQUARES_MOD_11,
    SQUARES_MOD_11,
)
from references import ZERO, as_int, expand_eigenspace_product, zeta_mul, zeta_power


def _power(base: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(n):
        out = poly_mul(out, base)
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


def _slopes(mu: tuple[int, ...], p: int) -> tuple[tuple[Fraction, int], ...]:
    """The Newton polygon of mu with its power of T stripped, as picard_upper_bound reads it."""
    low = next(j for j, c in enumerate(mu) if c)
    return newton_polygon(mu[low:], p)


def _picard_reference(mu: tuple[int, ...], p: int) -> int:
    """2 + sum of phi(k) * (multiplicity of Phi_k in mu~ over Q).

    mu~ is built here, not by normalize, so the reference shares no code
    with picard_upper_bound's rescaling."""
    mu_tilde = [Fraction(c * p**j, p**20) for j, c in enumerate(mu)]
    return 2 + sum(
        euler_phi(k) * _rat_multiplicity(cyclotomic_poly(k), mu_tilde)
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
    scaled = [c * p**j for j, c in enumerate(mu)]
    checks["functional_equation"] = palindrome_sign(scaled) in (1, -1)
    if kind == "gamma":
        parity = not any(mu[1::2])
        if parity:
            nu = mu[0::2]
            level2_pairs = [
                (a2, zeta_mul(b, b)) for (_, b), a2 in zip(result.per_eigenspace, eigen_p2.a)
            ]
            try:
                parity = expand_eigenspace_product(level2_pairs) == poly_mul(nu, nu)
            except InconsistencyError:
                parity = False
        checks["gamma_parity"] = parity
    else:
        checks["gamma_parity"] = None
    try:
        checks["integral_coefficients"] = expand_eigenspace_product(result.per_eigenspace) == mu
    except InconsistencyError:
        checks["integral_coefficients"] = False
    det = zeta_power(0)
    for _, b in result.per_eigenspace:
        det = zeta_mul(det, b)
    det_value = as_int(det)
    checks["determinant"] = det_value is not None and abs(det_value) == p**20
    checks["unit_circle"] = _unit_circle_check(mu, p)
    return checks


def test_normalize_trivial():
    p = 11
    mu = _power((p * p, 0, 1), 10)  # (T^2 + p^2)^10
    assert normalize(mu, p) == _power((1, 0, 1), 10)


def test_normalize_requires_monic_degree_20():
    mu = _power((11 * 11, 0, 1), 10)
    for bad in (
        (1, 0, 1),
        (0,) * 20 + (2,),
        mu + (0,),  # a trailing zero: length 22, not a degree-20 tuple
        mu[:-1] + (3,),  # length 21 but not monic
    ):
        with pytest.raises(ValueError):
            normalize(bad, 11)


def test_normalize_hits_expected_rows(analyzed):
    assert analyzed("epsilon", 1).mu_tilde == tuple(Fraction(c) for c in MU_TILDE_EPSILON_SQUARE)
    assert analyzed("gamma", 1).mu_tilde == tuple(Fraction(c) for c in MU_TILDE_GAMMA_SQUARE)


def test_picard_bound_trivial_supersingular_shape():
    p = 11
    mu = _power((p * p, 0, 1), 10)
    assert picard_upper_bound(mu, p, _slopes(mu, p)) == 22  # Phi_4 divides mu~ ten times


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
    assert picard_upper_bound(result.mu, 11, _slopes(result.mu, 11)) == _picard_reference(result.mu, 11)


def test_picard_bound_mixed_cyclotomic_factors():
    p = 11
    # roots p (x2), -p (x4), +-ip (x2 each), and five pairs off the p * (root of unity) locus
    mu = (1,)
    for factor, e in (((-p, 1), 2), ((p, 1), 4), ((p * p, 0, 1), 2), ((p, -1, 1), 5)):
        mu = poly_mul(mu, _power(factor, e))
    assert picard_upper_bound(mu, p, _slopes(mu, p)) == _picard_reference(mu, p) == 12


def test_picard_bound_scans_past_a_valuation_one_root_off_the_locus():
    # 2p has valuation 1 but 2 is not a root of unity: the slope-1 segment
    # (length 20) is longer than the count (19), so no early stop
    p = 11
    mu = poly_mul(poly_mul((-2 * p, 1), (p, 1)), _power((p * p, 0, 1), 9))
    slopes = newton_polygon(mu, p)
    assert slopes == ((Fraction(1), 20),)
    assert picard_upper_bound(mu, p, slopes) == _picard_reference(mu, p) == 21


def test_picard_bound_strips_a_root_zero():
    p = 11
    mu = poly_mul((0, 1), poly_mul((-p, 1), _power((p * p, 0, 1), 9)))
    assert mu[0] == 0
    assert picard_upper_bound(mu, p, _slopes(mu, p)) == _picard_reference(mu, p) == 21


def test_picard_bound_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        picard_upper_bound((), 11, ())


def test_picard_bound_tries_no_division_on_finite_height(monkeypatch, pipeline):
    # height 10: slopes 9/10 and 11/10, no slope-1 segment, so no Phi_k can divide
    calls = []

    def counting(f, g):
        calls.append(f)
        return divides_with_multiplicity(f, g)

    monkeypatch.setattr(analysis, "divides_with_multiplicity", counting)
    for kind in ("epsilon", "gamma"):
        for param in range(1, 11):
            *_, result = pipeline(kind, param)
            assert picard_upper_bound(result.mu, 11, _slopes(result.mu, 11)) == 2
    assert calls == []


def test_analyze_charpoly_builds_one_newton_polygon(monkeypatch, pipeline):
    # the slopes in the report are the ones the Picard scan reads
    calls = []

    def counting(f, p):
        calls.append(f)
        return newton_polygon(f, p)

    monkeypatch.setattr(analysis, "newton_polygon", counting)
    *_, result = pipeline("epsilon", 1)
    analyze_charpoly.cache_clear()  # an earlier test may have analysed this mu
    report = analyze_charpoly(result.mu, 11)
    assert calls == [result.mu]
    assert report.newton_slopes == newton_polygon(result.mu, 11)


def _scaled_cyclotomic(k: int, p: int) -> tuple[int, ...]:
    """The monic p^phi(k) * Phi_k(T / p), whose roots are p times the primitive k-th roots of 1."""
    phi = euler_phi(k)
    return tuple(c * p ** (phi - i) for i, c in enumerate(cyclotomic_poly(k)))


@st.composite
def _mu_with_cyclotomic_factors(draw):
    """(p, mu): a monic degree-20 mu = (scaled cyclotomic powers) * (random monic cofactor)."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    mu = (1,)
    ks = [k for k in range(1, 67) if euler_phi(k) <= 20]
    for k, e in draw(st.lists(st.tuples(st.sampled_from(ks), st.integers(1, 4)), max_size=5)):
        f = _power(_scaled_cyclotomic(k, p), e)
        if len(mu) + len(f) - 2 <= 20:
            mu = poly_mul(mu, f)
    n = 21 - len(mu)
    cofactor = draw(st.lists(st.integers(-p * p, p * p), min_size=n, max_size=n))
    return p, poly_mul(mu, tuple(cofactor) + (1,))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_mu_with_cyclotomic_factors())
def test_picard_bound_matches_rational_reference_random(case):
    p, mu = case
    assert picard_upper_bound(mu, p, _slopes(mu, p)) == _picard_reference(mu, p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    f_low=st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    g=st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(lambda cs: cs[-1] != 0),
    m=st.integers(0, 3),
)
def test_divides_with_multiplicity_matches_rational_reference(f_low, g, m):
    f = tuple(f_low) + (1,)  # monic, non-constant
    h = poly_mul(_power(f, m), g)
    found = divides_with_multiplicity(f, h)
    assert found >= m
    assert found == _rat_multiplicity(f, h)


def test_height_examples(analyzed):
    assert analyzed("epsilon", 1).height == 10
    assert analyzed("gamma", 2).height == 10
    assert analyzed("epsilon", 0).height == INFINITE_HEIGHT


def test_height_ordinary_case():
    p = 11
    mu = poly_mul((p, -1, 1), _power((p * p, 0, 1), 9))
    assert height_from_newton(newton_polygon(mu, p)) == 1  # a p-adic unit root


def test_height_rejects_non_integral_value():
    p = 11
    mu = _power((p * p, 0, 0, 0, 0, 1), 4)  # slopes 2/5 -> "height" 5/3
    with pytest.raises(InconsistencyError):
        height_from_newton(newton_polygon(mu, p))


def test_height_requires_degree_20():
    with pytest.raises(ValueError, match="degree 20"):
        height_from_newton(newton_polygon((11, -1, 1), 11))


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
    det = zeta_power(0)
    for _, b in result.per_eigenspace:
        det = zeta_mul(det, b)
    assert as_int(det) == mu[0]
    if kind == "gamma":
        nu = mu[0::2]
        level2_pairs = [
            (a2, zeta_mul(b, b)) for (_, b), a2 in zip(result.per_eigenspace, eigen_p2.a)
        ]
        assert expand_eigenspace_product(level2_pairs) == poly_mul(nu, nu)


def test_structural_checks_negative_control():
    # hand-built result whose eigenspace determinants multiply to 1, not p^20
    p = 11
    pairs = tuple((ZERO, zeta_power(0)) for _ in range(10))
    mu = _power((1, 0, 1), 10)  # (T^2 + 1)^10, consistent with the pairs
    fake = CharPolyResult(
        p=p, mu=mu, mu_full=poly_mul(mu, (p * p, -2 * p, 1)), per_eigenspace=pairs
    )
    checks = structural_checks(fake.mu, "epsilon", p)
    assert checks["determinant"] is False
    assert checks["integral_coefficients"] is True  # the product really is mu
    eigen_p2 = EigenTraces(q=p * p, a=((-2,) + ZERO[1:],) * 10)
    assert checks == _reference_checks(fake, eigen_p2, "epsilon", p)


def test_gamma_parity_fails_on_epsilon_polynomial(pipeline):
    # the epsilon-family polynomial has odd terms, so the parity check,
    # if it were applied, must come out false
    *_, result = pipeline("epsilon", 1)
    checks = structural_checks(result.mu, "gamma", 11)
    assert checks["gamma_parity"] is False


def test_unit_circle_advisory_negative():
    p = 11
    off = poly_mul(poly_mul((1, 1), (p * p * p, 1)), _power((p * p, 0, 1), 9))
    # roots -1 and -p^3: after normalization one root has modulus p^2 != 1
    assert _unit_circle_check(off, p) is False


def test_memoised_analysis_equals_uncached(pipeline):
    for kind in ("epsilon", "gamma"):
        for param in range(11):
            mu = pipeline(kind, param)[-1].mu
            report = analyze_charpoly(mu, 11)
            assert analyze_charpoly(mu, 11) is report
            assert report == analyze_charpoly.__wrapped__(mu, 11)
            assert _unit_circle_check(mu, 11) is _unit_circle_check.__wrapped__(mu, 11)


def test_structural_checks_returns_a_fresh_dict(pipeline):
    mu = pipeline("epsilon", 1)[-1].mu
    first = structural_checks(mu, "epsilon", 11)
    expected = dict(first)
    first["unit_circle"] = not first["unit_circle"]
    first["determinant"] = None
    assert structural_checks(mu, "epsilon", 11) == expected
    # the memoised root check does not carry the kind over
    assert structural_checks(mu, "gamma", 11)["gamma_parity"] is False


def test_failing_gate_raises_on_every_call():
    # (T - 1)(T - p)^19: height 1, and 19 roots p * 1 give Picard 21 > 22 - 2 * 1
    p = 11
    mu = poly_mul((-1, 1), _power((-p, 1), 19))
    for _ in range(2):
        with pytest.raises(InconsistencyError, match="inconsistent with height 1"):
            analyze_charpoly(mu, p)


def test_analyze_charpoly_bundle(pipeline):
    *_, result = pipeline("gamma", 6)
    report = analyze_charpoly(result.mu, 11)
    assert report.picard_upper == 2
    assert report.height == 10
    assert report.mu_tilde[0] == 1


@pytest.mark.parametrize("kind,params", [("epsilon", SQUARES_MOD_11), ("gamma", NONSQUARES_MOD_11)])
def test_class_function_property(analyzed, kind, params):
    reports = [analyzed(kind, v) for v in params]
    reference = reports[0].mu_tilde
    assert all(r.mu_tilde == reference for r in reports)
