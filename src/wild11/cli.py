"""Command-line interface and machine-readable reports.

Subcommands: analyze (full equivariant pipeline for one surface), table
(all twenty surfaces, grouped into the four square classes), fibers and
lattice (Kodaira classification and Shioda-Tate bookkeeping), cover-check
(the Fermat-cover identity), and count (exact point counts).

Each cmd_* returns its report sections as a plain dict of JSON-ready
values, in display order.  main runs the command the parser names,
prepends the meta section and renders the report once, as JSON, CSV or
text.

Output is deterministic: identical invocations produce byte-identical
JSON with sorted keys, integers as integers and rationals as exact
"num/den" strings.  Timings are measured but only included with
--timing, since they would break reproducibility.

Exit codes: 0 success, 2 usage error, 3 capability limit, 4 internal
arithmetic inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .analysis import INFINITE_HEIGHT, analyze_charpoly
from .cyclotomic import inverse_dft
from .equivariant import assemble_charpoly, fixed_locus_tally, traces_from_tally
from .errors import CapabilityError, InconsistencyError, ReducibleFiberError
from .ffield import FieldSpec, is_prime
from .kodaira import artin_invariant, classify_fibers, trivial_lattice
from .polynomials import poly_str
from .surface import make_model, surface_count
from .delsarte import supersingular_possible, verify_cover_identity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_INCONSISTENT = 4


def _render(report: dict, fmt: str, timing: float | None) -> str:
    """The report as JSON, CSV or text; timing, when given, goes into meta
    (JSON, CSV) or onto a closing [timing] line (text)."""
    if fmt == "text":
        lines = []
        for name, value in report.items():
            lines.append(f"[{name}]")
            lines.extend(_render_text(value, indent=2))
        if timing is not None:
            lines.append(f"[timing] {timing:.3f} s")
        return "\n".join(lines) + "\n"
    if timing is not None:
        report = dict(report, meta=dict(report["meta"], timing_seconds=timing))
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = ["key,value"]
    for path, value in _flatten(report):
        text = str(value).replace('"', '""')
        if "," in text or '"' in str(value):
            text = f'"{text}"'
        lines.append(f"{path},{text}")
    return "\n".join(lines) + "\n"


def _flatten(value, prefix: str = ""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), value


def _render_text(value, indent: int) -> list[str]:
    pad = " " * indent
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 2))
            else:
                lines.append(f"{pad}{key}: {inner}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_render_text(item, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {item}")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        lines.append(f"{pad}{value}")
    return lines


def _height_json(height) -> object:
    return "infinity" if height == INFINITE_HEIGHT else int(height)


def _fiber_json(fiber) -> dict:
    return {
        "place": fiber.place.location_str(),
        "degree": fiber.degree,
        "v_delta": fiber.place.vdelta,
        "v_c4": "infinity" if fiber.place.vc4 is None else fiber.place.vc4,
        "type": fiber.type,
        "components": fiber.components,
    }


def _lattice_json(lattice, p: int) -> dict:
    return {
        "rank": lattice.rank,
        "abs_disc": lattice.abs_disc,
        "components": list(lattice.components),
        "artin_invariant": artin_invariant(lattice, p),
    }


def _cofactor_json(coefficient: int, exponents: tuple[int, int, int]) -> str:
    """The cover cofactor c*u^a v^b w^c, printed as "MultiPoly(...)" so that
    cover-check's output stays byte-identical."""
    monomial = "".join(f"{name}^{k}" if k > 1 else name for name, k in zip("uvw", exponents) if k)
    return f"MultiPoly({coefficient}*{monomial})"


def run_equivariant_pipeline(kind: str, param: int, p: int):
    """Tallies at q = p and p^2, eigentraces, and the assembled charpoly."""
    model = make_model(kind, param, p)
    tally_p = fixed_locus_tally(model, FieldSpec(p))
    tally_p2 = fixed_locus_tally(model, FieldSpec(p, 2))
    tr_p = traces_from_tally(tally_p)
    tr_p2 = traces_from_tally(tally_p2)
    eigen_p = inverse_dft(tr_p, p)
    eigen_p2 = inverse_dft(tr_p2, p * p)
    result = assemble_charpoly(eigen_p, eigen_p2, p)
    return model, tally_p, tally_p2, tr_p, tr_p2, eigen_p, eigen_p2, result


def _fiber_sections(model, lattice: bool) -> dict:
    """The fibers section, and the lattice section when asked for."""
    fibers = classify_fibers(model)
    sections = {"fibers": [_fiber_json(f) for f in fibers]}
    if lattice:
        sections["lattice"] = _lattice_json(trivial_lattice(fibers), model.p)
    return sections


def cmd_analyze(kind: str, param: int, p: int) -> dict:
    """Full pipeline for one surface: tallies, traces, mu_p, and analysis."""
    model, tally_p, tally_p2, tr_p, tr_p2, eigen_p, eigen_p2, result = run_equivariant_pipeline(
        kind, param, p
    )
    report_data = analyze_charpoly(result, kind)
    return {
        "inputs": {"kind": kind, "param": param, "p": p},
        "tally": {"p": list(tally_p.fix), "p2": list(tally_p2.fix)},
        "traces": {"p": tr_p, "p2": tr_p2},
        "eigentraces": {
            "p": [list(a.coords) for a in eigen_p.a],
            "p2": [list(a.coords) for a in eigen_p2.a],
            "galois_permutation_s2": list(eigen_p.galois_permutation(2) or ()),
        },
        "charpoly": {
            "mu": list(result.mu.coeffs),
            "mu_full": list(result.mu_full.coeffs),
            "per_eigenspace": [
                {"a": list(a.coords), "b": list(b.coords)} for a, b in result.per_eigenspace
            ],
        },
        "analysis": {
            "mu_tilde": [str(c) for c in report_data.mu_tilde],
            "picard_upper": report_data.picard_upper,
            "picard_lower": report_data.picard_lower,
            "height": _height_json(report_data.height),
            "newton_slopes": [[str(v), m] for v, m in report_data.newton_slopes],
            "checks": dict(sorted(report_data.checks.items())),
        },
        **_fiber_sections(model, lattice=True),
    }


_SQUARE_CLASSES = ((1, 3, 4, 5, 9), (2, 6, 7, 8, 10))


def cmd_table(p: int = 11) -> dict:
    """mu~ for all epsilon, gamma in F_p^*, grouped by square class.

    Verifies that members of a square class share one polynomial and that
    exactly four distinct polynomials occur."""
    rows = []
    distinct = set()
    for kind in ("epsilon", "gamma"):
        for members in _SQUARE_CLASSES:
            polys = []
            for value in members:
                *_, result = run_equivariant_pipeline(kind, value, p)
                polys.append(analyze_charpoly(result, kind).mu_tilde)
            reference = polys[0]
            for value, poly in zip(members, polys):
                if poly != reference:
                    raise InconsistencyError(
                        f"mu~ for {kind}={value} deviates from its square class"
                    )
            distinct.add(reference)
            rows.append(
                {
                    "family": kind,
                    "members": list(members),
                    "mu_tilde": [str(c) for c in reference],
                    "mu_tilde_str": poly_str(reference),
                }
            )
    if len(distinct) != 4:
        raise InconsistencyError(f"expected 4 distinct polynomials, found {len(distinct)}")
    return {"inputs": {"p": p}, "analysis": {"table": rows}}


def cmd_fibers(kind: str, param: int | None, p: int, lattice: bool = False) -> dict:
    """Kodaira types of the singular fibers (the fibers command); with
    lattice, also the trivial lattice (the lattice command)."""
    model = make_model(kind, param, p)
    inputs = {"kind": kind, "param": model.param, "p": p}
    return {"inputs": inputs, **_fiber_sections(model, lattice)}


def cmd_cover() -> dict:
    verified, cofactor = verify_cover_identity()
    primes_below = 100
    table = {str(q): supersingular_possible(q) for q in range(2, primes_below) if is_prime(q)}
    return {
        "inputs": {"primes_below": primes_below},
        "analysis": {
            "cover_verified": verified,
            "cofactor": _cofactor_json(*cofactor),
            "supersingular_possible": table,
        },
    }


def cmd_count(kind: str, param: int | None, q: int) -> dict:
    p, r = _prime_power(q)
    model = make_model(kind, param, p)
    count = surface_count(model, FieldSpec(p, r))
    inputs = {"kind": kind, "param": model.param, "p": p, "q": q}
    return {"inputs": inputs, "analysis": {"surface_count": count}}


def _prime_power(q: int) -> tuple[int, int]:
    """(p, r) with q = p^r and p prime, from the integer r-th roots of q."""
    for r in range(1, max(q, 1).bit_length()):  # p >= 2, so r <= log2 q
        p = _integer_root(q, r)
        if p**r == q and is_prime(p):
            return p, r
    raise ValueError(f"{q} is not a prime power")


def _integer_root(n: int, r: int) -> int:
    """floor(n^(1/r)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


# -- argument parsing ---------------------------------------------------------


@functools.lru_cache(maxsize=None)  # built once per process; parsing does not mutate it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wild11",
        description="Exact arithmetic of elliptic K3 surfaces with an order-11 automorphism",
    )
    parser.add_argument("--version", action="version", version=f"wild11 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(sp, run):
        """The output flags every command shares, and the command main runs."""
        sp.add_argument("--format", choices=("json", "text", "csv"), default="text")
        sp.add_argument("--out", type=str, default=None, help="write output to a file")
        sp.add_argument("--timing", action="store_true", help="include timing in the output")
        sp.set_defaults(run=run)

    sp = sub.add_parser("analyze", help="tallies, traces, mu_p and its analysis for one surface")
    sp.add_argument("--kind", required=True, choices=("epsilon", "gamma"))
    sp.add_argument("--param", required=True, type=int)
    sp.add_argument("--p", type=int, default=11)
    finish(sp, lambda a: cmd_analyze(a.kind, a.param, a.p))

    sp = sub.add_parser("table", help="mu~ for all twenty surfaces, grouped by square class")
    sp.add_argument("--p", type=int, default=11)
    finish(sp, lambda a: cmd_table(a.p))

    sp = sub.add_parser("fibers", help="Kodaira types of all singular fibers")
    sp.add_argument("--kind", required=True, choices=("epsilon", "gamma", "uniform"))
    sp.add_argument("--param", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    finish(sp, lambda a: cmd_fibers(a.kind, a.param, a.p))

    sp = sub.add_parser("lattice", help="trivial Shioda-Tate lattice and Artin invariant")
    sp.add_argument("--kind", required=True, choices=("epsilon", "gamma", "uniform"))
    sp.add_argument("--param", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    finish(sp, lambda a: cmd_fibers(a.kind, a.param, a.p, lattice=True))

    sp = sub.add_parser("cover-check", help="verify the degree-11 Fermat cover identity")
    finish(sp, lambda a: cmd_cover())

    sp = sub.add_parser("count", help="exact point count of a surface over F_q")
    sp.add_argument("--kind", required=True, choices=("epsilon", "gamma", "uniform"))
    sp.add_argument("--param", type=int, default=None)
    sp.add_argument("--q", type=int, required=True)
    finish(sp, lambda a: cmd_count(a.kind, a.param, a.q))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        sections = args.run(args)
    except (ValueError, ReducibleFiberError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    elapsed = time.perf_counter() - start
    # meta is deliberately environment-free so identical invocations stay byte-identical
    report = {"meta": {"tool": "wild11", "version": __version__}, **sections}
    text = _render(report, args.format, elapsed if args.timing else None)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
