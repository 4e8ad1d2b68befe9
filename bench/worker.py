"""Benchmark worker: imports wild11.cli and runs CLI argument lists.

bench/run.py starts it; it is not meant to be run by hand.  Two modes:

  worker.py serve --trace 0|1 [--warmup JSON_ARGV]
      Imports wild11.cli, runs the untimed warm-up op, answers "ready", then
      reads one JSON argv list per stdin line and answers each with one JSON
      line: exit code, stdout text and wall time of wild11.cli.main(argv).
  worker.py cli -- ARGV...
      Runs one traced op as `python -m wild11.cli ARGV...` would (stdout and
      exit code are the program's own) and writes the trace to stderr after
      TRACE_MARKER.

The harness only calls wild11.cli.main and never passes a thread count, so
refactors of the program's internals need no change here.  Spans are
recorded by wrapping public functions where the program looks them up
(module globals and FieldSpec methods); a function that no longer exists is
reported as absent instead of failing the run.  Per-element field arithmetic
is not wrapped: its volume is reported as computed counts instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import threading
import time

TRACE_MARKER = "#wild11-bench-trace "


def _tally_name(args) -> str:
    spec = args[1] if len(args) > 1 else None
    return "equivariant.tally_p" if getattr(spec, "r", 1) == 1 else "equivariant.tally_p2"


def _count_tally_pairs(tracer, args, result) -> None:
    q = getattr(args[1], "q", 0) if len(args) > 1 else 0
    tracer.counts["equivariant.tally_pairs"] += q * q


def _count_divisibility(tracer, args, result) -> None:
    if "analysis.picard" in tracer.open_names():
        tracer.counts["analysis.picard.divisibility_trials"] += 1
        tracer.counts["analysis.picard.divisibility_hits"] += int(bool(result))


# (module, attribute, span name or naming function, counting hook).  The
# attribute is a module-level function or a "Class.method".
LAYERS = (
    ("wild11.cli", "main", "cli.main", None),
    ("wild11.ffield", "FieldSpec.__init__", "ffield.fieldspec_init", None),
    ("wild11.ffield", "FieldSpec.neg_trace_table", "ffield.neg_trace_table", None),
    ("wild11.ffield", "FieldSpec.chi_table", "ffield.chi_table", None),
    ("wild11.equivariant", "fixed_locus_tally", _tally_name, _count_tally_pairs),
    ("wild11.equivariant", "assemble_charpoly", "equivariant.assemble", None),
    ("wild11.equivariant", "expand_eigenspace_product", "equivariant.expand_product", None),
    ("wild11.cyclotomic", "inverse_dft", "cyclotomic.inverse_dft", None),
    ("wild11.analysis", "normalize", "analysis.normalize", None),
    ("wild11.analysis", "picard_upper_bound", "analysis.picard", None),
    ("wild11.analysis", "height_from_newton", "analysis.height", None),
    ("wild11.analysis", "structural_checks", "analysis.checks", None),
    ("wild11.polynomials", "newton_polygon", "polynomials.newton_polygon", None),
    ("wild11.polynomials", "divides_with_multiplicity", "polynomials.divides", _count_divisibility),
    ("wild11.surface", "make_model", "surface.make_model", None),
    ("wild11.surface", "surface_count", "surface.surface_count", None),
    ("wild11.surface", "fiber_count", "surface.fiber_count", None),
    ("wild11.surface", "singular_places", "surface.singular_places", None),
    ("wild11.fppoly", "factor", "fppoly.factor", None),
    ("wild11.kodaira", "classify_fibers", "kodaira.classify", None),
    ("wild11.kodaira", "trivial_lattice", "kodaira.lattice", None),
    ("wild11.kodaira", "artin_invariant", "kodaira.lattice", None),
    ("wild11.delsarte", "verify_cover_identity", "delsarte.cover", None),
    ("wild11.delsarte", "supersingular_possible", "delsarte.cover", None),
)


class Tracer:
    """Spans around calls into the program's modules, kept in memory.

    A span's self time is its duration minus the union of its children's
    intervals.  A span opened on a thread with no open span of its own (the
    program's tally pool) is a child of the main thread's innermost span, so
    time the main thread spends waiting on the pool is not counted twice.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._lock = threading.Lock()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_names(self) -> list[str]:
        return [self.spans[i][0] for i in self._stack()]

    def wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([span_name, 0.0, 0.0, parent])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index][1:3] = [start, end]
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS; record the ones that do not exist as absent."""
        self.counts = {
            "equivariant.tally_pairs": 0,
            "analysis.picard.divisibility_trials": 0,
            "analysis.picard.divisibility_hits": 0,
        }
        program = [m for n, m in list(sys.modules.items()) if n == "wild11" or n.startswith("wild11.")]
        for module_name, attr, name, hook in LAYERS:
            owner = sys.modules.get(module_name)
            *class_name, function_name = attr.split(".")
            if class_name:  # a method: wrap it on its class
                owner = getattr(owner, class_name[0], None)
            original = vars(owner).get(function_name) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(original, name, hook)
            setattr(owner, function_name, wrapped)
            # rebind every module-level name the program looks the function up by
            for module in program:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def fold(self) -> dict[str, list]:
        """Per span name: [calls, total ms, self ms]; clears the recorded spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, list] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) * 1e3
            entry[2] += (end - start - covered) * 1e3
        self.spans = []
        return out

    def take_counts(self) -> dict[str, int]:
        counts = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return counts


def cubic_cache_info() -> list[int] | None:
    """(hits, misses) of the memoised cubic point counter, if it still exists."""
    surface = sys.modules.get("wild11.surface")
    counter = getattr(surface, "_count_cubic_points", None)
    info = getattr(counter, "cache_info", None)
    if info is None:
        return None
    data = info()
    return [data.hits, data.misses]


def cubic_cache_since(start: list[int] | None) -> list[int] | None:
    end = cubic_cache_info()
    if start is None or end is None:
        return None
    return [e - s for s, e in zip(start, end)]


def load_cli():
    start = time.perf_counter()
    import wild11.cli

    return wild11.cli, (time.perf_counter() - start) * 1e3


def run_op(cli, argv: list[str]) -> dict:
    """One op in-process; a crash is reported as exit code None."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a program bug: the op counts as failed
            rc = None
    ms = (time.perf_counter() - start) * 1e3
    return {"rc": rc, "stdout": out.getvalue(), "ms": ms}


def _send(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def serve(trace: bool, warmup: list[str] | None) -> int:
    proto = sys.stdout
    cli, import_ms = load_cli()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ready = {"import_ms": import_ms, "warmup": run_op(cli, warmup) if warmup else None}
    if tracer is not None:
        tracer.fold()
        tracer.take_counts()
        ready["absent"] = tracer.absent
    cache_start = cubic_cache_info()
    _send(proto, ready)
    for line in sys.stdin:
        reply = run_op(cli, json.loads(line))
        if tracer is not None:
            reply["spans"] = tracer.fold()
            reply["counts"] = tracer.take_counts()
        _send(proto, reply)
    _send(proto, {"done": True, "cubic_cache": cubic_cache_since(cache_start)})
    return 0


def cli_once(argv: list[str]) -> int:
    cli, import_ms = load_cli()
    tracer = Tracer()
    tracer.install()
    cache_start = cubic_cache_info()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    ms = (time.perf_counter() - start) * 1e3
    sys.stdout.flush()
    trace = {
        "import_ms": import_ms,
        "ms": ms,
        "spans": tracer.fold(),
        "counts": tracer.take_counts(),
        "absent": tracer.absent,
        "cubic_cache": cubic_cache_since(cache_start),
    }
    sys.stderr.write("\n" + TRACE_MARKER + json.dumps(trace) + "\n")
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("serve")
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp.add_argument("--warmup", type=json.loads, default=None)
    sp = sub.add_parser("cli")
    sp.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "serve":
        return serve(bool(args.trace), args.warmup)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return cli_once(argv)


if __name__ == "__main__":
    raise SystemExit(main())
