"""Pin bench/golden.json: expected exit code and stdout SHA-256 of every op.

    python3 bench/pin_golden.py

Run from the root of a checkout of a known-good commit.  Every op the
workloads can issue is run once in a benchmark worker.  Before anything is
written, the outputs are cross-checked against tests/reference_values.py
(the four mu~ polynomials, Picard bound 2 or 22, height 10 or infinity)
and every count against the trace formula; a mismatch aborts the pin.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

import run as bench

sys.path.insert(0, str(bench.ROOT / "tests"))
import reference_values as ref  # noqa: E402


def all_ops() -> list[list[str]]:
    ops = [bench.analyze_op(*pair) for pair in bench.PAIRS]
    ops += [bench.count_op(*pair, q) for q in (121, 1331) for pair in bench.PAIRS]
    ops += [bench.count_op("uniform", None, 121), ["fibers", "--kind", "uniform", "--p", "3", "--format", "json"]]
    ops += [["table", "--format", "json"], ["cover-check", "--format", "json"]]
    ops += [
        bench.fiber_op(command, kind, p)
        for command in ("fibers", "lattice")
        for kind in bench.FIBER_KINDS
        for p in bench.FIBER_PRIMES
    ]
    assert bench.SWEEP_WARMUP in ops and bench.ORACLE_WARMUP in ops
    return ops


def cross_check(outputs: dict[str, tuple[int, str]], mu_full: dict[str, list[int]]) -> None:
    """Abort unless the pinned outputs reproduce the test suite's reference values."""
    for kind, param in bench.PAIRS:
        rc, text = outputs[bench.op_key(bench.analyze_op(kind, param))]
        analysis = json.loads(text)["analysis"]
        if param == 0:
            assert (rc, analysis["picard_upper"], analysis["height"]) == (0, 22, "infinity"), (kind, param)
            continue
        expected = ref.MU_TILDE_BY_CLASS[(kind, param in ref.SQUARES_MOD_11)]
        assert [Fraction(c) for c in analysis["mu_tilde"]] == expected, (kind, param)
        assert (rc, analysis["picard_upper"], analysis["height"]) == (0, 2, 10), (kind, param)
    rc, text = outputs[bench.op_key(["table", "--format", "json"])]
    rows = json.loads(text)["analysis"]["table"]
    assert rc == 0 and len(rows) == 4
    for row in rows:
        square = row["members"][0] in ref.SQUARES_MOD_11
        assert [Fraction(c) for c in row["mu_tilde"]] == ref.MU_TILDE_BY_CLASS[(row["family"], square)]
    golden = {"mu_full": mu_full}
    for key, (rc, text) in outputs.items():
        argv = key.split()
        if argv[0] == "count" and rc == 0:
            assert bench.trace_formula_holds(argv, text.encode(), golden), key


def main() -> int:
    env = bench.worker_env()
    worker = bench.Worker(env, False, None)
    outputs = {}
    try:
        for argv in all_ops():
            reply = worker.request(argv)
            outputs[bench.op_key(argv)] = (reply["rc"], reply["stdout"])
    finally:
        worker.close()
    mu_full = {}
    for kind, param in bench.PAIRS:
        report = json.loads(outputs[bench.op_key(bench.analyze_op(kind, param))][1])
        mu_full[f"{kind} {param}"] = report["charpoly"]["mu_full"]
    cross_check(outputs, mu_full)
    golden = {
        "ops": {
            key: {"rc": rc, "sha256": hashlib.sha256(text.encode()).hexdigest()}
            for key, (rc, text) in sorted(outputs.items())
        },
        "mu_full": mu_full,
    }
    # one entry per line, so a re-pin shows in a diff as the ops that changed
    sections = []
    for name, table in golden.items():
        entries = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in table.items())
        sections.append(f"  {json.dumps(name)}: {{\n{entries}\n  }}")
    bench.GOLDEN.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"pinned {len(outputs)} ops to {bench.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
