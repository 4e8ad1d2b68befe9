"""Smoke test of the benchmark at minimal size (about a minute).

    python3 bench/smoke.py

Run from the root of a checkout.  Checks that every metric BENCHMARK.json
names is printed with its unit on every workload, that the result line has
exactly its four keys, and, as negative controls, that a
corrupted op output, a wrong exit code and a wrong point count each count
as a failed op.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_cli(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(result)


def check_metrics(result: dict, listed: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (what, result)
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in listed}, (what, sorted(printed))
    for metric in listed:
        entry = printed[metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"], (what, metric)
        assert isinstance(entry["value"], (int, float)), (what, metric)


def test_metrics_printed() -> None:
    for workload in SPEC["workloads"]:
        details, result = run_cli(workload["name"], 0)
        check_metrics(result, SPEC["end_to_end"], workload["name"])
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, (workload["name"], metric)
        assert details["failed_ratio"] == {
            "value": 0.0, "unit": "ratio", "failed": 0, "attempted": result["attempted"]
        }
        env = details["environment"]
        assert env["seed"] == 7 and env["nproc"] and env["python"] and env["wild11"], env
        assert 0 < details["latency_tail_percentile"] <= 100
    details, result = run_cli("sweep", 1)
    check_metrics(result, SPEC["per_layer"], "sweep traced")
    assert details["absent_layers"] == [], details["absent_layers"]
    assert result["metrics"]["equivariant.tally_pairs"]["value"] == 11**2 + 121**2
    assert result["metrics"]["tracing.traced_ops"]["value"] > 0


def test_corrupted_output_raises_failed_ratio() -> None:
    corrupted = []
    request = bench.Worker.request

    def corrupting_request(self, argv):
        reply = request(self, argv)
        if not corrupted:
            corrupted.append(argv)
            reply["stdout"] = reply["stdout"].replace('"picard_upper": 2', '"picard_upper": 3')
        return reply

    golden = json.loads(bench.GOLDEN.read_text())
    clean = bench.Run(golden, trace=False)
    bench.run_pool(clean, bench.worker_env(), 0.1, random.Random(1),
                   [bench.analyze_op(*pair) for pair in bench.PAIRS[:3]], bench.SWEEP_WARMUP)
    assert clean.failed == 0 and clean.attempted > 0
    bench.Worker.request = corrupting_request
    try:
        run = bench.Run(golden, trace=False)
        bench.run_pool(run, bench.worker_env(), 0.1, random.Random(1),
                       [bench.analyze_op(*pair) for pair in bench.PAIRS[1:4]], bench.SWEEP_WARMUP)
    finally:
        bench.Worker.request = request
    assert corrupted and run.failed == 1, (corrupted, run.failed)
    assert run.failed / run.attempted > clean.failed / clean.attempted


def test_wrong_exit_code_or_count_fails() -> None:
    golden = json.loads(bench.GOLDEN.read_text())
    refused = ["fibers", "--kind", "uniform", "--p", "3", "--format", "json"]
    assert bench.op_correct(refused, 3, b"", golden)
    assert not bench.op_correct(refused, 0, b"", golden)
    argv = bench.count_op("gamma", 1, 1331)
    proc = subprocess.run([sys.executable, "-m", "wild11.cli", *argv], env=bench.worker_env(),
                          cwd=bench.ROOT, capture_output=True, check=True, timeout=120)
    assert bench.op_correct(argv, 0, proc.stdout, golden)
    count = json.loads(proc.stdout)["analysis"]["surface_count"]
    wrong = proc.stdout.replace(str(count).encode(), str(count + 11).encode())
    assert not bench.trace_formula_holds(argv, wrong, golden)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
