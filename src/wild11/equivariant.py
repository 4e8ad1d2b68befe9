"""Equivariant fixed-point counting and the Frobenius characteristic polynomial.

The order-11 automorphism t -> t + 1 of the epsilon/gamma families commutes
with Frobenius, which makes the twisted fixed loci Fix(phi^n . Frob_q)
computable entirely over F_q, for q = p or p^2 with p = 11:

* The zero section and the fiber at infinity contribute 2q + 1 points to
  every fixed locus (q + 1 each, overlapping in one point).
* An affine point needs x, y in F_q; the curve equation then pins down
  c = t^p - t = y^2 - x^3 - e*x^2 (resp. - g*x) in F_q, and each of the
  p fibers above the roots of t^p - t = c contains one fixed point of the
  same twist n, where n = -Tr_{F_q/F_p}(c) mod 11 (a fixed point satisfies
  t^q + n = t, and t^q - t equals the trace of c).

So each pair (x, y) in F_q^2 adds exactly 11 to exactly one of the eleven
buckets.  The q^2 pairs need not be visited one by one: the trace is
F_p-linear and p = 11, so the bucket -Tr(y^2) + Tr(w(x)) is the difference
of a y-trace and an x-trace.  Two 11-bin histograms over F_q (of -Tr(y^2)
and of -Tr(w(x))) and one cyclic convolution of them give the same bucket
sizes in O(q) field operations.  Lefschetz then turns bucket sizes into
integer traces, tr_n = Fix_n - 1 - q^2, and the inverse DFT over
Q(zeta_11) recovers the per-eigenspace traces a_i(q).

With both field levels in hand, each eigenspace V_i carries Frobenius
eigenvalues alpha, beta with alpha + beta = a_i(p) and alpha^2 + beta^2 =
a_i(p^2), so its characteristic polynomial is T^2 - a_i(p) T + b_i with
b_i = (a_i(p)^2 - a_i(p^2)) / 2, a division that must be exact in Z[zeta].
The a_i come from an inverse DFT of integer traces, so a_s = sigma_s(a_1)
for the Galois map sigma_s: zeta -> zeta^s, at both levels; the conjugacy
gate demands exactly that.  mu_p, the product over the ten eigenspaces, is
then the norm from Q(zeta) of T^2 - a_1 T + b_1.  It is read from one
eigenspace: the power sums s_k = alpha^k + beta^k in Z[zeta] have
integer traces S_k = Tr(s_k), the power sums of all twenty roots, and
Newton's identities turn S_1 .. S_20 into the coefficients of mu_p, each
through a division by k that must be exact in Z (the Newton gate).  All
three conditions are hard gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import DEGREE, ORDER, CycNum, EigenTraces, galois_apply
from .errors import CapabilityError, InconsistencyError
from .ffield import FieldSpec
from .polynomials import IntPoly
from .surface import WeierstrassModel


@dataclass(frozen=True)
class FixTally:
    """Sizes of the eleven twisted fixed loci over F_q.

    Plain data on purpose: the bucket invariants are guaranteed by
    fixed_locus_tally but deliberately not re-enforced here, so corrupted
    tallies can be constructed to exercise the downstream consistency gates.
    """

    q: int
    fix: tuple[int, ...]

    def __post_init__(self):
        if len(self.fix) != ORDER:
            raise ValueError(f"expected {ORDER} buckets, got {len(self.fix)}")


def fixed_locus_tally(model: WeierstrassModel, spec: FieldSpec) -> FixTally:
    """Distribute all (x, y) in F_q^2 over the eleven twisted fixed loci.

    The pair (x, y) adds 11 to bucket n = -Tr(y^2 - w(x)) mod 11, where
    w(x) = x^3 + e*x^2 (epsilon) or x^3 + g*x (gamma).  Since p = 11 and the
    trace is F_p-linear, n = t - s with t = -Tr(y^2) and s = -Tr(w(x)).  One
    pass over F_q builds the histograms h_y[t] and h_w[s]; the number of
    pairs in bucket n is then the cyclic convolution
    sum_s h_y[(n + s) mod 11] * h_w[s], which is exactly the count of the
    q^2 pairs, each still adding 11 to exactly one bucket.
    """
    if model.kind not in ("epsilon", "gamma"):
        raise CapabilityError(
            f"{model.kind!r} model has no order-11 translation automorphism in this chart"
        )
    if model.p != ORDER:
        raise CapabilityError(
            f"the translation t -> t+1 has order 11 only in characteristic 11, not {model.p}"
        )
    if spec.p != model.p:
        raise ValueError("field does not extend the model's prime field")
    if spec.r > 2:
        raise CapabilityError(f"tally supports q = p and q = p^2 only, got r = {spec.r}")
    q = spec.q
    neg_trace = spec.neg_trace_table()
    mul, add, smul, index_of = spec.mul, spec.add, spec.smul, spec.index_of
    param = model.param or 0
    use_x_square = model.kind == "epsilon"
    h_y = [0] * ORDER
    h_w = [0] * ORDER
    for i in range(q):
        x = spec.coords_at(i)
        x2 = mul(x, x)
        w = mul(x2, x)
        if param:
            w = add(w, smul(param, x2 if use_x_square else x))
        h_y[neg_trace[index_of(x2)]] += 1
        h_w[neg_trace[index_of(w)]] += 1
    fix = tuple(
        2 * q + 1 + ORDER * sum(h_y[(n + s) % ORDER] * h_w[s] for s in range(ORDER))
        for n in range(ORDER)
    )
    return FixTally(q=q, fix=fix)


def traces_from_tally(tally: FixTally) -> list[int]:
    """Lefschetz: tr_n = Fix_n - 1 - q^2."""
    shift = 1 + tally.q**2
    return [f - shift for f in tally.fix]


@dataclass(frozen=True)
class CharPolyResult:
    """Characteristic polynomial of Frobenius on the 20-dimensional part V.

    `mu` is the degree-20 integer polynomial, `mu_full` its degree-22
    completion (T - p)^2 * mu for the whole second cohomology, and
    `per_eigenspace` holds the quadratic data (a_i(p), b_i) per eigenspace.

    Per-eigenspace data is canonical only up to the choice of which
    primitive 11th root of unity is "zeta": a different choice permutes the
    eigenspace indices and leaves mu itself unchanged.
    """

    p: int
    mu: IntPoly
    mu_full: IntPoly
    per_eigenspace: tuple[tuple[CycNum, CycNum], ...]


def _exact_half(x: CycNum, what: str) -> CycNum:
    if any(c % 2 for c in x.coords):
        raise InconsistencyError(f"{what} is not divisible by 2 in Z[zeta]: {x!r}")
    return CycNum(tuple(c // 2 for c in x.coords))


def check_conjugates(traces: EigenTraces) -> None:
    """Conjugacy gate: a_s = sigma_s(a_1) for s = 2 .. 10, as an inverse DFT
    of integer traces guarantees."""
    a_1 = traces.a[0]
    for s in range(2, ORDER):
        if traces.a[s - 1] != galois_apply(s, a_1):
            raise InconsistencyError(
                f"a_{s}(q={traces.q}) = {traces.a[s - 1]!r} is not the conjugate "
                f"sigma_{s}(a_1) = {galois_apply(s, a_1)!r}"
            )


def _norm_of_quadratic(a: CycNum, b: CycNum) -> IntPoly:
    """N_{Q(zeta)/Q}(T^2 - a T + b) from power sums and Newton's identities.

    s_k = alpha^k + beta^k obeys s_k = a s_(k-1) - b s_(k-2) with s_0 = 2 and
    s_1 = a; summed over the ten conjugates it is the trace S_k = 10 c_0 -
    (c_1 + ... + c_9).  Then k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) S_i,
    and every division by k must be exact."""
    n = 2 * DEGREE
    s = [CycNum((2,)), a]
    while len(s) <= n:
        s.append(a * s[-1] - b * s[-2])
    traces = [DEGREE * x.coords[0] - sum(x.coords[1:]) for x in s]
    e = [1]
    for k in range(1, n + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * traces[i] for i in range(1, k + 1))
        if total % k:
            raise InconsistencyError(
                f"Newton's identity gives {k} * e_{k} = {total}, not divisible by {k}"
            )
        e.append(total // k)
    return IntPoly([(-1) ** k * e[k] for k in range(n, -1, -1)])


def assemble_charpoly(E_p: EigenTraces, E_p2: EigenTraces, p: int) -> CharPolyResult:
    """Combine eigenspace traces at q = p and q = p^2 into the full mu_p."""
    if E_p.q != p:
        raise ValueError(f"first trace set is over q = {E_p.q}, expected {p}")
    if E_p2.q != p * p:
        raise ValueError(f"second trace set is over q = {E_p2.q}, expected {p * p}")
    check_conjugates(E_p)
    check_conjugates(E_p2)
    a_1 = E_p.a[0]
    b_1 = _exact_half(a_1 * a_1 - E_p2.a[0], "2 * det contribution on eigenspace 1")
    pairs = [(a_1, b_1)] + [(a, galois_apply(s, b_1)) for s, a in enumerate(E_p.a[1:], start=2)]
    mu = _norm_of_quadratic(a_1, b_1)
    mu_full = mu * IntPoly((p * p, -2 * p, 1))
    return CharPolyResult(p=p, mu=mu, mu_full=mu_full, per_eigenspace=tuple(pairs))
