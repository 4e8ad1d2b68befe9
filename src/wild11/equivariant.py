"""Equivariant fixed-point counting and the Frobenius characteristic polynomial.

The order-11 automorphism t -> t + 1 of the epsilon/gamma families commutes
with Frobenius, which makes the twisted fixed loci Fix(phi^n . Frob_q)
computable entirely over F_q, for every q = 11^r:

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
sizes.  Neither histogram needs a pass over F_q per surface: the parameter
c lies in F_p, so by the same linearity -Tr(x^3 + c x^k) = -Tr(x^3) +
c * (-Tr(x^k)).  One pass over F_q, cached per field, counts the x with
each triple (-Tr x, -Tr x^2, -Tr x^3), reading -Tr from a table built here
and shared with no other layer; each surface folds those at most q
entries by its parameter.  Lefschetz then turns bucket sizes into integer
traces, tr_n = Fix_n - 1 - q^2, and the inverse DFT over Q(zeta_11)
recovers the per-eigenspace traces a_i(q).

With both field levels in hand, each eigenspace V_i carries Frobenius
eigenvalues alpha, beta with alpha + beta = a_i(p) and alpha^2 + beta^2 =
a_i(p^2), so its characteristic polynomial is T^2 - a_i(p) T + b_i with
b_i = (a_i(p)^2 - a_i(p^2)) / 2, a division that must be exact in Z[zeta].
The a_i come from an inverse DFT of integer traces, so a_s = sigma_s(a_1)
for the Galois map sigma_s: zeta -> zeta^s, at both levels; the conjugacy
gate demands exactly that.  mu_p, the product over the ten eigenspaces, is
then the norm from Q(zeta) of T^2 - a_1 T + b_1.  It is read from one
eigenspace: the power sums s_k = alpha^k + beta^k have integer traces
S_k = Tr(s_k), the power sums of all twenty roots, and Newton's
identities turn S_1 .. S_20 into the coefficients of mu_p, each through a
division by k that must be exact in Z (the Newton gate).  The recurrence
for s_k runs on plain ints: each s_k is packed into one integer by
Kronecker substitution in Z[z]/(z^11 - 1), z -> 2^w, and its trace read
off the packed digits (cyclotomic.power_sum_traces).  All
three conditions are hard gates.  An element of Z[zeta] is a tuple of 10
ints in the power basis (see cyclotomic); mu_p comes out as a plain tuple
of ints, constant term first, like every polynomial in Z[T] here.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING

from .cyclotomic import DEGREE, ORDER, EigenTraces, cyc_mul, galois_apply, power_sum_traces
from .errors import CapabilityError, InconsistencyError
from .ffield import FieldSpec, trace_to_base
from .polynomials import poly_mul

if TYPE_CHECKING:
    from .surface import WeierstrassModel


class FixTally(namedtuple("FixTally", ("q", "fix"))):
    """Sizes of the eleven twisted fixed loci over F_q.

    Plain data on purpose: the bucket invariants are guaranteed by
    fixed_locus_tally but deliberately not re-enforced here, so corrupted
    tallies can be constructed to exercise the downstream consistency gates.
    """

    __slots__ = ()
    q: int
    fix: tuple[int, ...]

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.fix) != ORDER:
            raise ValueError(f"expected {ORDER} buckets, got {len(self.fix)}")
        return self


def _neg_trace_table(spec: FieldSpec) -> list[int]:
    """(- Tr_{F_q/F_p} x) mod p by element index.

    The trace is F_p-linear, so with t_j = -Tr(u^j) for the power basis
    1, u, ..., u^(r-1), the element sum_j c_j u^j has -Tr = sum_j c_j t_j
    mod p.  Only the r basis traces are computed with trace_to_base; the
    table is then filled one coordinate at a time, in index order.
    """
    p = spec.p
    table = [0]
    for j in range(spec.r):
        t_j = (-trace_to_base(spec, spec.coords_at(p**j))) % p
        # indices c * p^j + k for k < p^j: coordinate j is c
        table = [(t + c * t_j) % p for c in range(p) for t in table]
    return table


@lru_cache(maxsize=None)  # one entry per field F_(11^r) the tally runs over
def _trace_histogram(spec: FieldSpec) -> tuple[tuple[int, int, int, int], ...]:
    """((-Tr x, -Tr x^2, -Tr x^3, count), ...): how many x in F_q have each
    triple of negated traces, from one pass over F_q."""
    neg_trace = _neg_trace_table(spec)
    mul, index_of = spec.mul, spec.index_of
    counts: Counter[tuple[int, int, int]] = Counter()
    for i in range(spec.q):
        x = spec.coords_at(i)
        x2 = mul(x, x)
        counts[neg_trace[i], neg_trace[index_of(x2)], neg_trace[index_of(mul(x2, x))]] += 1
    return tuple(key + (count,) for key, count in counts.items())


def fixed_locus_tally(model: WeierstrassModel, spec: FieldSpec) -> FixTally:
    """Distribute all (x, y) in F_q^2 over the eleven twisted fixed loci.

    The pair (x, y) adds 11 to bucket n = -Tr(y^2 - w(x)) mod 11, where
    w(x) = x^3 + c*x^2 (epsilon) or x^3 + c*x (gamma).  Since p = 11 and the
    trace is F_p-linear, n = t - s with t = -Tr(y^2) and s = -Tr(w(x)), and
    s = -Tr(x^3) + c * (-Tr(x^k)) with k = 2 (epsilon) or 1 (gamma), since
    c lies in F_p.  So the histograms h_y[t] and h_w[s] are folded from the
    field's cached count of the triples (-Tr x, -Tr x^2, -Tr x^3), one pass
    over F_q per field and at most q entries per surface; the number of
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
    q = spec.q
    c = model.param or 0
    use_x_square = model.kind == "epsilon"
    h_y = [0] * ORDER
    h_w = [0] * ORDER
    for t1, t2, t3, count in _trace_histogram(spec):
        h_y[t2] += count
        h_w[(t3 + c * (t2 if use_x_square else t1)) % ORDER] += count
    fix = tuple(
        2 * q + 1 + ORDER * sum(h_y[(n + s) % ORDER] * h_w[s] for s in range(ORDER))
        for n in range(ORDER)
    )
    return FixTally(q=q, fix=fix)


def traces_from_tally(tally: FixTally) -> list[int]:
    """Lefschetz: tr_n = Fix_n - 1 - q^2."""
    shift = 1 + tally.q**2
    return [f - shift for f in tally.fix]


class CharPolyResult(namedtuple("CharPolyResult", ("p", "mu", "mu_full", "per_eigenspace"))):
    """Characteristic polynomial of Frobenius on the 20-dimensional part V.

    `mu` is the degree-20 integer polynomial, `mu_full` its degree-22
    completion (T - p)^2 * mu for the whole second cohomology, both as
    integer tuples, constant term first; `per_eigenspace` holds the
    quadratic data (a_i(p), b_i) per eigenspace, each an element of Z[zeta]
    as a 10-tuple of ints.

    Per-eigenspace data is canonical only up to the choice of which
    primitive 11th root of unity is "zeta": a different choice permutes the
    eigenspace indices and leaves mu itself unchanged.
    """

    __slots__ = ()
    p: int
    mu: tuple[int, ...]
    mu_full: tuple[int, ...]
    per_eigenspace: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _exact_half(x: tuple[int, ...], what: str) -> tuple[int, ...]:
    if any(c % 2 for c in x):
        raise InconsistencyError(f"{what} is not divisible by 2 in Z[zeta]: {x!r}")
    return tuple(c // 2 for c in x)


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


def _norm_of_quadratic(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """N_{Q(zeta)/Q}(T^2 - a T + b) from power sums and Newton's identities.

    S_k = Tr(alpha^k + beta^k), summed over the ten conjugates, is the k-th
    power sum of all twenty roots (cyclotomic.power_sum_traces).  The
    coefficient c_k = (-1)^k e_k of T^(20-k) carries Newton's alternating sign:
    k c_k = -sum_(i=1..k) c_(k-i) S_i, and every division by k must be exact."""
    n = 2 * DEGREE
    traces = power_sum_traces(a, b)
    c = [1]
    for k in range(1, n + 1):
        total = -sum(x * s for x, s in zip(reversed(c), traces[1 : k + 1]))
        if total % k:
            raise InconsistencyError(
                f"Newton's identity gives {k} * c_{k} = {total}, not divisible by {k}"
            )
        c.append(total // k)
    return tuple(reversed(c))


def assemble_charpoly(E_p: EigenTraces, E_p2: EigenTraces) -> CharPolyResult:
    """Combine eigenspace traces at q = p and q = p^2 into the full mu_p."""
    p = E_p.q
    if E_p2.q != p * p:
        raise ValueError(f"second trace set is over q = {E_p2.q}, expected {p * p}")
    check_conjugates(E_p)
    check_conjugates(E_p2)
    a_1 = E_p.a[0]
    twice_b_1 = tuple(x - y for x, y in zip(cyc_mul(a_1, a_1), E_p2.a[0]))
    b_1 = _exact_half(twice_b_1, "2 * det contribution on eigenspace 1")
    pairs = [(a_1, b_1)] + [(a, galois_apply(s, b_1)) for s, a in enumerate(E_p.a[1:], start=2)]
    mu = _norm_of_quadratic(a_1, b_1)
    mu_full = poly_mul(mu, (p * p, -2 * p, 1))
    return CharPolyResult(p=p, mu=mu, mu_full=mu_full, per_eigenspace=tuple(pairs))
