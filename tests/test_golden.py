"""Replay the ops pinned in bench/golden.json through the CLI, in-process.

bench/golden.json pins the exit code and the SHA-256 of stdout of every op
the benchmark can issue.  Every op is replayed here except fibers and
lattice at p >= 100, which repeat the smaller primes' code paths at more
cost, so a change that alters a printed byte or an exit code fails in the
test suite.  The file is only read; bench/pin_golden.py writes it.

Run as a script to replay all of the ops, the large primes included:

    PYTHONPATH=src python tests/test_golden.py

It prints each mismatch and exits 1 if there is any.  With --digest it
instead prints one line, `rc sha256 format argv`, for every pinned op in
each of the json, text and csv formats; the digests of two checkouts are
byte-identical exactly when every output is, which `diff` then shows:

    PYTHONPATH=src python tests/test_golden.py --digest > digest.txt
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from wild11 import cli

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"
ALL_OPS = json.loads(GOLDEN.read_text())["ops"]


def _replayed(key: str) -> bool:
    argv = key.split()
    return argv[0] not in ("fibers", "lattice") or int(argv[argv.index("--p") + 1]) < 100


OPS = {key: want for key, want in ALL_OPS.items() if _replayed(key)}


def _replay(key: str) -> dict:
    """Exit code and stdout SHA-256 of one op, in the form golden.json pins."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(key.split())
        except SystemExit as exc:
            rc = exc.code
    return {"rc": rc, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_replayed_op_count():
    assert len(OPS) == 208


@pytest.mark.parametrize("key", sorted(OPS))
def test_pinned_op(key):
    assert _replay(key) == OPS[key]


def _digest() -> None:
    for key in sorted(ALL_OPS):
        for fmt in ("json", "text", "csv"):
            argv = key.replace("--format json", f"--format {fmt}")
            got = _replay(argv)
            print(got["rc"], got["sha256"], fmt, argv)


def _check() -> int:
    mismatches = 0
    for key in sorted(ALL_OPS):
        got = _replay(key)
        if got != ALL_OPS[key]:
            mismatches += 1
            print(f"MISMATCH {key}: got {got}, pinned {ALL_OPS[key]}")
    print(f"{mismatches} mismatches over {len(ALL_OPS)} ops")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        _digest()
    else:
        sys.exit(_check())
