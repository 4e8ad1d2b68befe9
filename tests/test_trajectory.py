"""BENCH_trajectory.json: one entry per measured change, parent against change.

Each entry records the medians of the six end-to-end metrics of
bench/run.py on each of its three workloads, so the trajectory of the
benchmark can be read without replaying the history.  Its claim is null,
or the one metric and workload on which the change claims a gain.
"""

import json
from numbers import Real
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"
WORKLOADS = ("sweep", "oracle", "cold_cli")
METRICS = ("setup_s", "latency_p50_ms", "latency_tail_ms", "ops_per_s", "peak_rss_mb", "success_ratio")


def test_every_entry_has_all_end_to_end_medians():
    entries = json.loads(TRAJECTORY.read_text())
    assert entries
    for entry in entries:
        assert {"pr", "claim", "host", "seeds", "pairs", "metrics"} <= set(entry), entry.get("pr")
        claim = entry["claim"]
        assert claim is None or (
            isinstance(claim, dict)
            and set(claim) == {"metric", "workload"}
            and claim["metric"] in METRICS
            and claim["workload"] in WORKLOADS
        ), (entry["pr"], claim)
        assert set(entry["metrics"]) == set(WORKLOADS), entry["pr"]
        for workload in WORKLOADS:
            medians = entry["metrics"][workload]
            assert set(medians) == set(METRICS), (entry["pr"], workload)
            for metric in METRICS:
                sides = medians[metric]
                assert set(sides) == {"parent", "change"}, (entry["pr"], workload, metric)
                for value in sides.values():
                    assert isinstance(value, Real) and not isinstance(value, bool), (
                        entry["pr"], workload, metric, value)
    assert [entry["pr"] for entry in entries] == sorted({entry["pr"] for entry in entries})
