"""wild11 benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload sweep|oracle|cold_cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Every op is one `wild11` command line, run through
wild11.cli.main(argv) in a fresh worker interpreter (sweep, oracle) or as a
fresh `python -m wild11.cli` process (cold_cli).  Each workload is a closed
loop with one client: the next op is issued when the previous one is done.
Workers start one at a time, so at most one worker or child runs at once.

Every op's exit code and the SHA-256 of its stdout are compared with
bench/golden.json, pinned from a known-good commit; every count op is also
checked against the trace formula #X(F_q) = 1 + q^2 + p_k(mu_full).  A
wrong op counts as failed; it does not stop the run.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it records the environment, the
seed, the tail percentile with its sample count and the failed ratio with
its base.  See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

from worker import TRACE_MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
GOLDEN = BENCH / "golden.json"

P = 11
KINDS = ("epsilon", "gamma")
PAIRS = [(kind, param) for kind in KINDS for param in range(P)]  # 22 surfaces
FIBER_KINDS = ("epsilon", "gamma", "uniform")
FIBER_PRIMES = [n for n in range(5, 998) if all(n % d for d in range(2, int(n**0.5) + 1))]

SETUP_STARTS = 5  # set-up-only worker starts before each measured loop
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
OP_TIMEOUT_S = 120

SWEEP_WARMUP = ["analyze", "--kind", "epsilon", "--param", "1", "--format", "json"]
ORACLE_WARMUP = ["count", "--kind", "epsilon", "--param", "1", "--q", "121", "--format", "json"]
CALIBRATION_ITERATIONS = 3000
# Calibration loop time on the reference host when it is quiet; every sweep
# and oracle time printed is scaled to that speed (see calibrate).
CALIBRATION_REF_MS = 5.0
# A fresh interpreter that imports the standard-library modules wild11.cli
# imports, and nothing of the program; cold_cli times are scaled by its wall
# time over PROBE_REF_MS, its typical time on the reference host (see probe).
PROBE = [sys.executable, "-c", "import argparse, concurrent.futures, dataclasses, fractions, json"]
PROBE_REF_MS = 90.0

# Units of the metrics printed with --trace 0 and --trace 1.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
# Per-op self time (ms) of each span name; the two names ending in .self_ms
# say so because they are the layers whose total time is mostly children.
SELF_MS = {
    "cli.main": "cli.main.self_ms",
    "ffield.fieldspec_init": "ffield.fieldspec_init_ms",
    "ffield.neg_trace_table": "ffield.neg_trace_table_ms",
    "ffield.chi_table": "ffield.chi_table_ms",
    "equivariant.tally_p": "equivariant.tally_p_ms",
    "equivariant.tally_p2": "equivariant.tally_p2_ms",
    "equivariant.assemble": "equivariant.assemble_ms",
    "equivariant.expand_product": "equivariant.expand_product_ms",
    "cyclotomic.inverse_dft": "cyclotomic.inverse_dft_ms",
    "analysis.normalize": "analysis.normalize_ms",
    "analysis.picard": "analysis.picard_ms",
    "analysis.height": "analysis.height_ms",
    "analysis.checks": "analysis.checks_ms",
    "polynomials.newton_polygon": "polynomials.newton_polygon_ms",
    "polynomials.divides": "polynomials.divides_ms",
    "surface.make_model": "surface.make_model_ms",
    "surface.surface_count": "surface.surface_count.self_ms",
    "surface.fiber_count": "surface.fiber_count_ms",
    "surface.singular_places": "surface.singular_places_ms",
    "fppoly.factor": "fppoly.factor_ms",
    "kodaira.classify": "kodaira.classify_ms",
    "kodaira.lattice": "kodaira.lattice_ms",
    "delsarte.cover": "delsarte.cover_ms",
}
# Calls per op of these span names.
CALLS = {"surface.fiber_count": "surface.fiber_count.calls", "fppoly.factor": "fppoly.factor.calls"}
PER_LAYER = {
    **{name: "ms" for name in SELF_MS.values()},
    **{name: "count" for name in CALLS.values()},
    "equivariant.tally_pairs": "count",
    "analysis.picard.divisibility_trials": "count",
    "analysis.picard.hit_ratio": "ratio",
    "surface.cubic_cache_hit_ratio": "ratio",
    "worker.import_ms": "ms",
    "worker.warmup_ms": "ms",
    "tracing.overhead_ratio": "ratio",
    "tracing.traced_ops": "count",
    "tracing.untraced_ops": "count",
    "tracing.accounted_ratio": "ratio",
}


# -- correctness ---------------------------------------------------------------


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def power_sum(coeffs: list[int], k: int) -> int:
    """k-th Newton power sum of the roots of a monic polynomial (constant term first)."""
    n = len(coeffs) - 1
    a = [coeffs[n - j] for j in range(n + 1)]  # T^n + a_1 T^(n-1) + ... + a_n
    sums = [n]
    for m in range(1, k + 1):
        s = -m * a[m] if m <= n else 0
        for j in range(1, min(m, n + 1)):
            s -= a[j] * sums[m - j]
        sums.append(s)
    return sums[k]


def trace_formula_holds(argv: list[str], stdout: bytes, golden: dict) -> bool:
    """#X(F_q) = 1 + q^2 + p_k(mu_full) for q = 11^k, from the pinned mu_full alone."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    q = int(opts["--q"])
    k = 0
    while q > 1 and q % P == 0:
        q //= P
        k += 1
    if q != 1 or k == 0:
        return False
    mu_full = golden["mu_full"].get(f"{opts['--kind']} {opts.get('--param')}")
    if mu_full is None:
        return False
    try:
        count = json.loads(stdout)["analysis"]["surface_count"]
    except (ValueError, KeyError, TypeError):
        return False
    q = P**k
    return count == 1 + q * q + power_sum(mu_full, k)


def op_correct(argv: list[str], rc, stdout: bytes, golden: dict) -> bool:
    want = golden["ops"].get(op_key(argv))
    if want is None or rc != want["rc"] or hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        return False
    if argv[0] == "count" and rc == 0:
        return trace_formula_holds(argv, stdout, golden)
    return True


# -- op mixes --------------------------------------------------------------------


def analyze_op(kind: str, param: int) -> list[str]:
    return ["analyze", "--kind", kind, "--param", str(param), "--format", "json"]


def count_op(kind: str, param: int | None, q: int) -> list[str]:
    argv = ["count", "--kind", kind]
    if param is not None:
        argv += ["--param", str(param)]
    return argv + ["--q", str(q), "--format", "json"]


def fiber_op(command: str, kind: str, p: int) -> list[str]:
    argv = [command, "--kind", kind]
    if kind != "uniform":
        argv += ["--param", "1"]
    return argv + ["--p", str(p), "--format", "json"]


def cold_cycle(rng: random.Random) -> list[list[str]]:
    """One op per line of the README command sheet, plus two refused ops, in seeded order.

    The refused ops are a reducible-fiber count (exit 2) and a wildly
    ramified fiber classification (exit 3)."""
    ops = [
        analyze_op(*rng.choice(PAIRS)),
        ["table", "--format", "json"],
        fiber_op("fibers", rng.choice(FIBER_KINDS), rng.choice(FIBER_PRIMES)),
        fiber_op("lattice", rng.choice(FIBER_KINDS), rng.choice(FIBER_PRIMES)),
        ["cover-check", "--format", "json"],
        count_op(*rng.choice(PAIRS), 121),
        count_op("uniform", None, 121),
        ["fibers", "--kind", "uniform", "--p", "3", "--format", "json"],
    ]
    rng.shuffle(ops)
    return ops


# -- processes -------------------------------------------------------------------


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WILD11_THREADS", None)  # the program's default thread budget runs
    env["PYTHONPATH"] = str(SRC)
    return env


def calibrate() -> float:
    """Host slowness just now: a fixed pure-Python loop's wall time over its reference.

    The host's speed drifts by tens of percent over seconds to minutes, and
    the program's op times move with it; each timed sample is divided by the
    mean slowness just before and just after it.  The loop runs in this
    process, on the one CPU that every worker and child shares, so the
    program cannot move it.  It mixes small tuples, a dict and big-integer
    remainders like the program does; a plain small-integer loop tracked
    the op times several times less closely."""
    start = time.perf_counter()
    seen: dict[tuple, int] = {}
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        a = (i % 11, i * 7 % 11)
        b = (i * 3 % 11, i % 5)
        key = tuple((x * y + i) % 11 for x, y in zip(a, b))
        seen[key] = seen.get(key, 0) + 1
        acc += i * 123456789123456789 % 1000003
    return (time.perf_counter() - start) * 1e3 / CALIBRATION_REF_MS


def probe() -> float:
    """Host slowness for a cold op: a fresh interpreter's wall time over its reference.

    A cold op is mostly interpreter start-up and imports, whose time follows
    the calibration loop only in part.  The probe does that start-up and the
    standard-library imports, so it tracks them; it imports nothing of the
    program, so the program cannot move it."""
    start = time.perf_counter()
    subprocess.run(PROBE, capture_output=True, env=worker_env(), cwd=ROOT, check=True,
                   timeout=OP_TIMEOUT_S)
    return (time.perf_counter() - start) * 1e3 / PROBE_REF_MS


class Clock:
    """One stretch of a closed loop: a worker's life or a cold cycle.

    Runs the calibrations (calibrate or probe) for the samples taken in it
    and keeps their time, so that the stretch's wall time can be taken
    without them and scaled by the mean slowness they measured."""

    def __init__(self, measure: Callable[[], float] = calibrate) -> None:
        self.measure = measure
        self.start = time.perf_counter()
        self.calibration_s = 0.0
        self.speeds: list[float] = []

    def speed(self) -> float:
        start = time.perf_counter()
        value = self.measure()
        self.calibration_s += time.perf_counter() - start
        self.speeds.append(value)
        return value

    def sample(self) -> tuple[float, float]:
        """(wall s since start less calibration time, mean slowness over the stretch)."""
        return time.perf_counter() - self.start - self.calibration_s, statistics.fmean(self.speeds)


class Worker:
    """A fresh interpreter that has imported wild11.cli and run the warm-up op."""

    def __init__(self, env: dict, trace: bool, warmup: list[str] | None, clock: Clock):
        before = clock.speed()
        start = time.perf_counter()
        cmd = [sys.executable, str(WORKER), "serve", "--trace", str(int(trace))]
        if warmup:
            cmd += ["--warmup", json.dumps(warmup)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        )
        try:
            self.ready = self._read()
        except RuntimeError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start
        self.speed = statistics.fmean([before, clock.speed()])

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited unexpectedly")
        return json.loads(line)

    def request(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict | None:
        final = None
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                final = self._read()
            except (OSError, RuntimeError, ValueError):
                self.proc.kill()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return final


def cold_op(env: dict, argv: list[str], trace: bool) -> tuple[object, bytes, float, dict | None]:
    if trace:
        cmd = [sys.executable, str(WORKER), "cli", "--", *argv]
    else:
        cmd = [sys.executable, "-m", "wild11.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=OP_TIMEOUT_S)
    ms = (time.perf_counter() - start) * 1e3
    traced = None
    if trace:
        text = proc.stderr.decode(errors="replace")
        at = text.rfind(TRACE_MARKER)
        if at >= 0:
            traced = json.loads(text[at + len(TRACE_MARKER):].splitlines()[0])
    return proc.returncode, proc.stdout, ms, traced


# -- one run ----------------------------------------------------------------------


def scaled(samples: list[tuple[float, float]], scale: bool = True) -> list[float]:
    """Values of (value, speed) samples, divided by their speed if scale is set."""
    return [value / s if scale else value for value, s in samples]


class Run:
    """Samples and checks of one benchmark run.  Timed samples are (value, speed)."""

    def __init__(self, golden: dict, trace: bool):
        self.golden = golden
        self.trace = trace
        self.latencies: list[tuple[float, float]] = []  # ms, untraced ops
        self.traced_latencies: list[tuple[float, float]] = []  # ms, traced ops
        self.setups: list[tuple[float, float]] = []  # s, per worker start
        self.loops: list[tuple[float, float]] = []  # s, per untraced loop worker or cycle
        self.loop_ops = 0  # ops issued in those
        self.import_ms: list[tuple[float, float]] = []
        self.warmup_ms: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spans: dict[str, list] = {}  # name -> [calls, total ms, self ms], scaled
        self.counts: dict[str, int] = {}
        self.cubic_cache = [0, 0]
        self.absent: set[str] = set()
        self.traced_main_ms = 0.0  # scaled

    def check(self, argv: list[str], rc, stdout: bytes) -> None:
        self.attempted += 1
        if not op_correct(argv, rc, stdout, self.golden):
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op_key(argv)} -> exit {rc}")

    def add_trace(self, trace: dict, speed_: float) -> None:
        self.traced_main_ms += trace["ms"] / speed_
        for name, (calls, total, self_ms) in trace["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total / speed_
            entry[2] += self_ms / speed_
        for name, value in trace["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        if trace.get("cubic_cache"):
            self.cubic_cache = [a + b for a, b in zip(self.cubic_cache, trace["cubic_cache"])]
        self.absent.update(trace.get("absent", ()))

    def add_worker(self, worker: Worker, warmup: list[str] | None, final: dict | None) -> None:
        self.setups.append((worker.setup_s, worker.speed))
        self.import_ms.append((worker.ready["import_ms"], worker.speed))
        if warmup:
            reply = worker.ready["warmup"]
            self.check(warmup, reply["rc"], reply["stdout"].encode())
            self.warmup_ms.append((reply["ms"], worker.speed))
        self.absent.update(worker.ready.get("absent", ()))
        if final and final.get("cubic_cache"):
            self.cubic_cache = [a + b for a, b in zip(self.cubic_cache, final["cubic_cache"])]


def run_pool(run: Run, env: dict, seconds: float, rng: random.Random, ops, warmup) -> None:
    """sweep / oracle: each fresh worker runs all 22 ops once, in seeded order.

    Only whole workers are run, so every run weighs the 22 surfaces equally;
    the last worker starts before the deadline and may end after it.  A traced
    run alternates untraced and traced workers."""
    for _ in range(SETUP_STARTS):
        worker = Worker(env, False, warmup, Clock())
        run.add_worker(worker, warmup, worker.close())
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or (run.trace and index < 2):
        traced = run.trace and index % 2 == 1
        clock = Clock()
        worker = Worker(env, traced, warmup, clock)
        order = list(ops)
        rng.shuffle(order)
        for argv in order:
            before = clock.speed()
            try:
                reply = worker.request(argv)
            except (RuntimeError, OSError):
                run.check(argv, None, b"")
                worker.close()
                worker = Worker(env, traced, warmup, clock)
                continue
            sample = (reply["ms"], statistics.fmean([before, clock.speed()]))
            run.check(argv, reply["rc"], reply["stdout"].encode())
            if traced:
                run.traced_latencies.append(sample)
                run.add_trace(reply, sample[1])
            else:
                run.latencies.append(sample)
        run.add_worker(worker, warmup, worker.close())
        if not traced:
            run.loops.append(clock.sample())
            run.loop_ops += len(order)
        index += 1


def run_cold(run: Run, env: dict, seconds: float, rng: random.Random) -> None:
    """cold_cli: every op is a fresh `python -m wild11.cli` process.

    Set-up is the import of wild11.cli in a fresh interpreter, with no
    warm-up op.  Only whole cycles of the command mix are run; a traced run
    alternates untraced and traced cycles."""
    for _ in range(SETUP_STARTS):
        worker = Worker(env, False, None, Clock(probe))
        run.add_worker(worker, None, worker.close())
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or (run.trace and index < 2):
        traced = run.trace and index % 2 == 1
        clock = Clock(probe)
        cycle = cold_cycle(rng)
        before = clock.speed()
        for argv in cycle:
            rc, stdout, ms, trace = cold_op(env, argv, traced)
            after = clock.speed()  # also the next op's probe before
            sample = (ms, statistics.fmean([before, after]))
            before = after
            run.check(argv, rc, stdout)
            if not traced:
                run.latencies.append(sample)
                continue
            run.traced_latencies.append(sample)
            if trace is not None:
                run.add_trace(trace, sample[1])
                run.import_ms.append((trace["import_ms"], sample[1]))
        if not traced:
            run.loops.append(clock.sample())
            run.loop_ops += len(cycle)
        index += 1


# -- metrics ---------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(run: Run, scale: bool = True) -> dict[str, float]:
    """End-to-end metrics; times are scaled to the reference speed unless scale is off."""
    lat = scaled(run.latencies, scale)
    tail_ms, _ = tail(lat)
    return {
        "setup_s": statistics.median(scaled(run.setups, scale)),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "ops_per_s": run.loop_ops / sum(scaled(run.loops, scale)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "success_ratio": 1 - run.failed / run.attempted,
    }


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer metrics of the traced ops, per op; times scaled to the reference speed."""
    n = len(run.traced_latencies)
    out = {name: 0.0 for name in PER_LAYER}
    for span, metric in SELF_MS.items():
        out[metric] = run.spans.get(span, [0, 0.0, 0.0])[2] / n
    for span, metric in CALLS.items():
        out[metric] = run.spans.get(span, [0, 0.0, 0.0])[0] / n
    out["equivariant.tally_pairs"] = run.counts.get("equivariant.tally_pairs", 0) / n
    trials = run.counts.get("analysis.picard.divisibility_trials", 0)
    out["analysis.picard.divisibility_trials"] = trials / n
    out["analysis.picard.hit_ratio"] = (
        run.counts.get("analysis.picard.divisibility_hits", 0) / trials if trials else 0.0
    )
    hits, misses = run.cubic_cache
    out["surface.cubic_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["worker.import_ms"] = statistics.median(scaled(run.import_ms)) if run.import_ms else 0.0
    out["worker.warmup_ms"] = statistics.median(scaled(run.warmup_ms)) if run.warmup_ms else 0.0
    out["tracing.overhead_ratio"] = (
        statistics.fmean(scaled(run.traced_latencies)) / statistics.fmean(scaled(run.latencies))
    )
    out["tracing.traced_ops"] = n
    out["tracing.untraced_ops"] = len(run.latencies)
    self_total = sum(entry[2] for entry in run.spans.values())
    out["tracing.accounted_ratio"] = self_total / run.traced_main_ms if run.traced_main_ms else 0.0
    return out


def environment(workload: str, seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    version_file = SRC / "wild11" / "__init__.py"
    wild11_version = None
    for line in version_file.read_text().splitlines():
        if line.startswith("__version__"):
            wild11_version = line.split("=", 1)[1].strip().strip("\"'")
    source = hashlib.sha256()
    for path in sorted((SRC / "wild11").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "wild11": wild11_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="wild11 benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "oracle", "cold_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wild11" / "cli.py").is_file():
        print(f"error: no wild11 sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    # Every process of the run shares one CPU, so each calibration measures the
    # CPU its op runs on; the two CPUs' speeds drift independently.  The
    # program still sees os.cpu_count() and keeps its default thread budget.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = worker_env()
    # compile the program's bytecode once, so no timed start pays for it
    subprocess.run([sys.executable, "-c", "import wild11.cli"], env=env, cwd=ROOT, check=True)

    rng = random.Random(args.seed)
    run = Run(golden, bool(args.trace))
    if args.workload == "sweep":
        run_pool(run, env, args.seconds, rng, [analyze_op(*pair) for pair in PAIRS], SWEEP_WARMUP)
    elif args.workload == "oracle":
        run_pool(run, env, args.seconds, rng, [count_op(*pair, 1331) for pair in PAIRS], ORACLE_WARMUP)
    else:
        run_cold(run, env, args.seconds, rng)

    if args.trace:
        metrics, units = per_layer(run), PER_LAYER
    else:
        metrics, units = end_to_end(run), END_TO_END
    _, percentile = tail(scaled(run.latencies))
    details = {
        "environment": environment(args.workload, args.seed),
        "median_speed": statistics.median(s for _, s in run.latencies),
        "unscaled": end_to_end(run, scale=False),
        "latency_samples": len(run.latencies),
        "latency_tail_percentile": percentile,
        "setup_samples": len(run.setups),
        "failed_ratio": {"value": run.failed / run.attempted, "unit": "ratio",
                         "failed": run.failed, "attempted": run.attempted},
        "failures": run.failures,
        "absent_layers": sorted(run.absent),
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
