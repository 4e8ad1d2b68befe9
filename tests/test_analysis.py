from fractions import Fraction

import pytest

from wild11 import analysis
from wild11.analysis import (
    INFINITE_HEIGHT,
    _unit_circle_check,
    analyze_charpoly,
    height_from_newton,
    normalize,
    structural_checks,
)
from wild11.cyclotomic import EigenTraces
from wild11.equivariant import CharPolyResult, _norm_of_quadratic
from wild11.errors import CapabilityError, InconsistencyError
from wild11.polynomials import newton_polygon, palindrome_sign, poly_mul
from reference_values import (
    MU_TILDE_EPSILON_SQUARE,
    MU_TILDE_GAMMA_SQUARE,
    NONSQUARES_MOD_11,
    SQUARES_MOD_11,
)
from references import (
    ZERO,
    as_int,
    cyclotomic_poly,
    euler_phi,
    expand_eigenspace_product,
    zeta_mul,
    zeta_power,
)


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


def _picard_reference(mu: tuple[int, ...], p: int) -> int:
    """2 + sum of phi(k) * (multiplicity of Phi_k in mu~ over Q).

    mu~ is built here, not by normalize, so the reference shares no code
    with analyze_charpoly."""
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
    assert analyze_charpoly(mu, p).picard_upper == 22
    assert _picard_reference(mu, p) == 22  # Phi_4 divides mu~ ten times


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
    assert analyze_charpoly(result.mu, 11).picard_upper == _picard_reference(result.mu, 11)


# The next three mu are not Weil polynomials (roots of absolute value
# sqrt(p), 2p or 0 beside p * roots of unity), so analyze_charpoly's reading
# of the Newton polygon does not apply to them; they pin the reference alone.
def test_picard_bound_mixed_cyclotomic_factors():
    p = 11
    # roots p (x2), -p (x4), +-ip (x2 each), and five pairs off the p * (root of unity) locus
    mu = (1,)
    for factor, e in (((-p, 1), 2), ((p, 1), 4), ((p * p, 0, 1), 2), ((p, -1, 1), 5)):
        mu = poly_mul(mu, _power(factor, e))
    assert _picard_reference(mu, p) == 12


def test_picard_bound_scans_past_a_valuation_one_root_off_the_locus():
    # 2p has valuation 1 but 2 is not a root of unity: the slope-1 segment
    # has length 20 and the count is 19
    p = 11
    mu = poly_mul(poly_mul((-2 * p, 1), (p, 1)), _power((p * p, 0, 1), 9))
    assert newton_polygon(mu, p) == ((Fraction(1), 20),)
    assert _picard_reference(mu, p) == 21


def test_picard_bound_strips_a_root_zero():
    p = 11
    mu = poly_mul((0, 1), poly_mul((-p, 1), _power((p * p, 0, 1), 9)))
    assert mu[0] == 0
    assert _picard_reference(mu, p) == 21


def test_rational_multiplicity_hand_pinned():
    f = (1, 0, 1)  # T^2 + 1
    assert _rat_multiplicity(f, (-1, 0, 0, 0, 1)) == 1
    assert _rat_multiplicity(f, poly_mul(f, f)) == 2
    assert _rat_multiplicity((-1, 1), f) == 0
    assert _rat_multiplicity(f, (3,)) == 0
    assert _rat_multiplicity((1, 2), (3, 12, 12)) == 2  # 3 (2T + 1)^2, over Q
    assert _rat_multiplicity(f, ()) == 0


# (omega + conj(omega), omega * conj(omega)) for the primitive pairs of mu_3,
# mu_4 and mu_6, and for {1, -1}
_ROOT_OF_UNITY_PAIRS = {"mu3": (-1, 1), "mu4": (0, 1), "mu6": (1, 1), "pm1": (0, -1)}


@pytest.mark.parametrize("pair", sorted(_ROOT_OF_UNITY_PAIRS))
def test_supersingular_norms_read_picard_22(pair):
    # the norm of T^2 - a T + b with roots 11 * omega * zeta^k and
    # 11 * conj(omega) * zeta^k: irreducible over Q(zeta_11) for mu_3, mu_4
    # and mu_6, whose primitive roots it lacks, and split for {1, -1}
    p = 11
    trace, norm = _ROOT_OF_UNITY_PAIRS[pair]
    for k in range(11):
        a = tuple(p * trace * c for c in zeta_power(k))
        b = tuple(p * p * norm * c for c in zeta_power(2 * k))
        mu = _norm_of_quadratic(a, b)
        report = analyze_charpoly(mu, p)
        assert report.picard_upper == _picard_reference(mu, p) == 22, k
        assert report.height == INFINITE_HEIGHT


def test_analyze_charpoly_refuses_other_primes():
    # 11 is the one prime totally ramified in Q(zeta_11); (T^2 + 13^2)^10 is a
    # supersingular Weil polynomial at 13
    p = 13
    with pytest.raises(CapabilityError, match="characteristic 11 only, not 13"):
        analyze_charpoly(_power((p * p, 0, 1), 10), p)


def test_analyze_charpoly_builds_one_newton_polygon(monkeypatch, pipeline):
    # the slopes in the report are the ones the Picard number and height read
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
    # (T^5 + p^2)^4: every root has valuation 2/5, so the "height" is 5/3
    p = 11
    mu = _power((p * p, 0, 0, 0, 0, 1), 4)
    for _ in range(2):
        with pytest.raises(InconsistencyError, match="height 5/3"):
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
