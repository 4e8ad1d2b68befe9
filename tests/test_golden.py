"""Replay the ops pinned in bench/golden.json through the CLI, in-process.

bench/golden.json pins the exit code and the SHA-256 of stdout of every op
the benchmark can issue.  Every op is replayed here except fibers and
lattice at p >= 100, which repeat the smaller primes' code paths at more
cost, so a change that alters a printed byte or an exit code fails in the
test suite.  The file is only read; bench/pin_golden.py writes it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from wild11 import cli

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def _replayed(key: str) -> bool:
    argv = key.split()
    return argv[0] not in ("fibers", "lattice") or int(argv[argv.index("--p") + 1]) < 100


OPS = {key: want for key, want in json.loads(GOLDEN.read_text())["ops"].items() if _replayed(key)}


def test_replayed_op_count():
    assert len(OPS) == 208


@pytest.mark.parametrize("key", sorted(OPS))
def test_pinned_op(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(key.split())
        except SystemExit as exc:
            rc = exc.code
    assert rc == OPS[key]["rc"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == OPS[key]["sha256"]
