"""Command-line interface and machine-readable reports.

Subcommands: analyze (full equivariant pipeline for one surface), table
(all twenty surfaces, grouped into the four square classes), fibers and
lattice (Kodaira classification and Shioda-Tate bookkeeping), cover-check
(the Fermat-cover identity), and count (exact point counts).

Output is deterministic: identical invocations produce byte-identical
JSON with sorted keys, integers as integers and rationals as exact
"num/den" strings.  Timings are measured but only included on request,
since they would break reproducibility.

Exit codes: 0 success, 2 usage error, 3 capability limit, 4 internal
arithmetic inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

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

_SECTIONS = ("meta", "inputs", "tally", "traces", "eigentraces", "charpoly", "analysis", "fibers", "lattice")


@dataclass
class Report:
    """One command's result, already in JSON-ready exact form."""

    meta: dict
    inputs: dict
    tally: dict | None = None
    traces: dict | None = None
    eigentraces: dict | None = None
    charpoly: dict | None = None
    analysis: dict | None = None
    fibers: list | None = None
    lattice: dict | None = None
    timing_seconds: float = 0.0  # set by main around the command's dispatch

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {}
        for name in _SECTIONS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if include_timing:
            out["meta"] = dict(out["meta"], timing_seconds=self.timing_seconds)
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timing), sort_keys=True, indent=2)

    def to_csv(self, include_timing: bool = False) -> str:
        lines = ["key,value"]
        for path, value in _flatten(self.to_json_dict(include_timing)):
            text = str(value).replace('"', '""')
            if "," in text or '"' in str(value):
                text = f'"{text}"'
            lines.append(f"{path},{text}")
        return "\n".join(lines) + "\n"

    def to_text(self, include_timing: bool = False) -> str:
        lines = []
        for name in _SECTIONS:
            value = getattr(self, name)
            if value is None:
                continue
            lines.append(f"[{name}]")
            lines.extend(_render_text(value, indent=2))
        if include_timing:
            lines.append(f"[timing] {self.timing_seconds:.3f} s")
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


def _frac_str(x) -> str:
    return str(Fraction(x))


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


def _meta() -> dict:
    # deliberately environment-free so identical invocations stay byte-identical
    return {"tool": "wild11", "version": __version__}


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


def cmd_analyze(kind: str, param: int, p: int) -> Report:
    """Full pipeline for one surface: tallies, traces, mu_p, and analysis."""
    model, tally_p, tally_p2, tr_p, tr_p2, eigen_p, eigen_p2, result = run_equivariant_pipeline(
        kind, param, p
    )
    report_data = analyze_charpoly(result, kind)
    fibers = classify_fibers(model)
    return Report(
        meta=_meta(),
        inputs={"kind": kind, "param": param, "p": p},
        tally={"p": list(tally_p.fix), "p2": list(tally_p2.fix)},
        traces={"p": tr_p, "p2": tr_p2},
        eigentraces={
            "p": [list(a.coords) for a in eigen_p.a],
            "p2": [list(a.coords) for a in eigen_p2.a],
            "galois_permutation_s2": list(eigen_p.galois_permutation(2) or ()),
        },
        charpoly={
            "mu": list(result.mu.coeffs),
            "mu_full": list(result.mu_full.coeffs),
            "per_eigenspace": [
                {"a": list(a.coords), "b": list(b.coords)} for a, b in result.per_eigenspace
            ],
        },
        analysis={
            "mu_tilde": [_frac_str(c) for c in report_data.mu_tilde],
            "picard_upper": report_data.picard_upper,
            "picard_lower": report_data.picard_lower,
            "height": _height_json(report_data.height),
            "newton_slopes": [[_frac_str(v), m] for v, m in report_data.newton.slopes],
            "checks": dict(sorted(report_data.checks.items())),
        },
        fibers=[_fiber_json(f) for f in fibers],
        lattice=_lattice_json(trivial_lattice(fibers), p),
    )


_SQUARE_CLASSES = ((1, 3, 4, 5, 9), (2, 6, 7, 8, 10))


def cmd_table(p: int = 11) -> Report:
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
                    "mu_tilde": [_frac_str(c) for c in reference],
                    "mu_tilde_str": poly_str(reference),
                }
            )
    if len(distinct) != 4:
        raise InconsistencyError(f"expected 4 distinct polynomials, found {len(distinct)}")
    return Report(meta=_meta(), inputs={"p": p}, analysis={"table": rows})


def cmd_fibers(kind: str, param: int | None, p: int) -> Report:
    model = make_model(kind, param, p)
    fibers = classify_fibers(model)
    return Report(
        meta=_meta(),
        inputs={"kind": kind, "param": model.param, "p": p},
        fibers=[_fiber_json(f) for f in fibers],
    )


def cmd_lattice(kind: str, param: int | None, p: int) -> Report:
    model = make_model(kind, param, p)
    fibers = classify_fibers(model)
    return Report(
        meta=_meta(),
        inputs={"kind": kind, "param": model.param, "p": p},
        fibers=[_fiber_json(f) for f in fibers],
        lattice=_lattice_json(trivial_lattice(fibers), p),
    )


def cmd_cover(primes_below: int = 100) -> Report:
    verified, cofactor = verify_cover_identity()
    table = {
        str(q): supersingular_possible(q) for q in range(2, primes_below) if is_prime(q)
    }
    return Report(
        meta=_meta(),
        inputs={"primes_below": primes_below},
        analysis={
            "cover_verified": verified,
            "cofactor": repr(cofactor),
            "supersingular_possible": table,
        },
    )


def cmd_count(kind: str, param: int | None, q: int) -> Report:
    p, r = _prime_power(q)
    model = make_model(kind, param, p)
    spec = FieldSpec(p, r)
    count = surface_count(model, spec)
    return Report(
        meta=_meta(),
        inputs={"kind": kind, "param": model.param, "p": p, "q": q},
        analysis={"surface_count": count},
    )


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

    def add_output_flags(sp):
        sp.add_argument("--format", choices=("json", "text", "csv"), default="text")
        sp.add_argument("--out", type=str, default=None, help="write output to a file")
        sp.add_argument("--timing", action="store_true", help="include timing in the output")

    sp = sub.add_parser("analyze", help="tallies, traces, mu_p and its analysis for one surface")
    sp.add_argument("--kind", required=True, choices=("epsilon", "gamma"))
    sp.add_argument("--param", required=True, type=int)
    sp.add_argument("--p", type=int, default=11)
    add_output_flags(sp)

    sp = sub.add_parser("table", help="mu~ for all twenty surfaces, grouped by square class")
    sp.add_argument("--p", type=int, default=11)
    add_output_flags(sp)

    sp = sub.add_parser("fibers", help="Kodaira types of all singular fibers")
    sp.add_argument("--kind", required=True, choices=("epsilon", "gamma", "uniform"))
    sp.add_argument("--param", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    add_output_flags(sp)

    sp = sub.add_parser("lattice", help="trivial Shioda-Tate lattice and Artin invariant")
    sp.add_argument("--kind", required=True, choices=("epsilon", "gamma", "uniform"))
    sp.add_argument("--param", type=int, default=None)
    sp.add_argument("--p", type=int, required=True)
    add_output_flags(sp)

    sp = sub.add_parser("cover-check", help="verify the degree-11 Fermat cover identity")
    add_output_flags(sp)

    sp = sub.add_parser("count", help="exact point count of a surface over F_q")
    sp.add_argument("--kind", required=True, choices=("epsilon", "gamma", "uniform"))
    sp.add_argument("--param", type=int, default=None)
    sp.add_argument("--q", type=int, required=True)
    add_output_flags(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "analyze":
            report = cmd_analyze(args.kind, args.param, args.p)
        elif args.command == "table":
            report = cmd_table(args.p)
        elif args.command == "fibers":
            report = cmd_fibers(args.kind, args.param, args.p)
        elif args.command == "lattice":
            report = cmd_lattice(args.kind, args.param, args.p)
        elif args.command == "cover-check":
            report = cmd_cover()
        else:
            report = cmd_count(args.kind, args.param, args.q)
    except (ValueError, ReducibleFiberError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    report.timing_seconds = time.perf_counter() - start

    if args.format == "json":
        text = report.to_json(include_timing=args.timing) + "\n"
    elif args.format == "csv":
        text = report.to_csv(include_timing=args.timing)
    else:
        text = report.to_text(include_timing=args.timing)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
