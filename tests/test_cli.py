import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wild11

from wild11.cli import (
    EXIT_CAPABILITY,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_USAGE,
    cmd_count,
    cmd_table,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_epsilon_one(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--kind", "epsilon", "--param", "1", "--p", "11", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["analysis"]["picard_upper"] == 2
    assert data["analysis"]["height"] == 10
    assert data["analysis"]["mu_tilde"][10] == "23/11"
    assert data["tally"]["p"][0] == 133
    assert data["lattice"]["rank"] == 2
    assert "timing_seconds" not in data["meta"]


def test_analyze_degenerate_member(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--kind", "epsilon", "--param", "0", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["analysis"]["picard_upper"] == 22
    assert data["analysis"]["height"] == "infinity"


def test_json_output_is_deterministic(capsys):
    args = ("analyze", "--kind", "gamma", "--param", "2", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_timing_flag_adds_timing(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--kind", "gamma", "--param", "1", "--format", "json", "--timing"
    )
    assert code == EXIT_OK
    assert json.loads(out)["meta"]["timing_seconds"] > 0


def test_table_reproduces_four_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["analysis"]["table"]
    assert len(rows) == 4
    middles = [row["mu_tilde"][10] for row in rows]
    assert middles == ["23/11", "23/11", "-307/11", "-219/11"]
    polys = {tuple(row["mu_tilde"]) for row in rows}
    assert len(polys) == 4


def test_fibers_uniform_11(capsys):
    code, out, _ = run_cli(
        capsys, "fibers", "--kind", "uniform", "--p", "11", "--format", "json"
    )
    assert code == EXIT_OK
    fibers = json.loads(out)["fibers"]
    assert {(f["place"], f["type"]) for f in fibers} == {
        ("infinity", "II"),
        ("t=0", "I11"),
        ("t=7", "I11"),
    }


def test_lattice_uniform_11(capsys):
    code, out, _ = run_cli(
        capsys, "lattice", "--kind", "uniform", "--p", "11", "--format", "json"
    )
    assert code == EXIT_OK
    lattice = json.loads(out)["lattice"]
    assert lattice == {
        "rank": 22,
        "abs_disc": 121,
        "components": ["A10", "A10"],
        "artin_invariant": 1,
    }


def test_cover_check(capsys):
    code, out, _ = run_cli(capsys, "cover-check", "--format", "json")
    assert code == EXIT_OK
    analysis = json.loads(out)["analysis"]
    assert analysis["cover_verified"] is True
    assert "u^33" in analysis["cofactor"] and "v^22" in analysis["cofactor"]
    assert analysis["supersingular_possible"]["11"] is True
    assert analysis["supersingular_possible"]["3"] is False


def test_count_gamma(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--kind", "gamma", "--param", "1", "--q", "11", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["analysis"]["surface_count"] == 144


def test_count_refuses_reducible_model(capsys):
    for q in ("11", "121"):
        code, _, err = run_cli(capsys, "count", "--kind", "uniform", "--q", q)
        assert code == EXIT_USAGE
        assert "components" in err


@pytest.mark.parametrize("kind,q", [("uniform", "9"), ("gamma", "27")])
def test_count_refuses_characteristic_3(capsys, kind, q):
    code, _, err = run_cli(capsys, "count", "--kind", kind, "--param", "1", "--q", q)
    assert code == EXIT_CAPABILITY
    assert "characteristic 3" in err


@pytest.mark.parametrize("q", ["923521", "14653"])  # 31^4, and the first prime above 11^4
def test_count_refuses_fields_above_11_to_the_4(capsys, q):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "count", "--kind", "epsilon", "--param", "1", "--q", q)
    assert code == EXIT_CAPABILITY
    assert "exceeds the limit 14641" in err
    assert time.perf_counter() - start < 1.0


def test_count_rejects_non_prime_power(capsys):
    code, _, err = run_cli(capsys, "count", "--kind", "gamma", "--param", "1", "--q", "12")
    assert code == EXIT_USAGE
    assert "prime power" in err


def test_analyze_wrong_characteristic_is_capability_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "--kind", "epsilon", "--param", "1", "--p", "13")
    assert code == EXIT_CAPABILITY
    assert "characteristic 11" in err


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--kind", "bogus", "--param", "1"])
    assert exc.value.code == EXIT_USAGE


def test_wild_fibers_capability_exit(capsys):
    code, _, err = run_cli(capsys, "fibers", "--kind", "uniform", "--p", "2")
    assert code == EXIT_CAPABILITY
    assert "wild" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "analyze", "--kind", "epsilon", "--param", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(target.read_text())
    assert data["inputs"] == {"kind": "epsilon", "param": 2, "p": 11}


@pytest.mark.parametrize("where", ["missing_dir", "is_dir"])
def test_out_unwritable_is_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = run_cli(capsys, "cover-check", "--out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--kind", "gamma", "--param", "3", "--q", "11", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "analysis.surface_count,144" in lines


def test_text_format_mentions_key_results(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--kind", "epsilon", "--param", "1")
    assert code == EXIT_OK
    assert "picard_upper: 2" in out
    assert "height: 10" in out


def test_inconsistency_maps_to_exit_code_4(capsys, monkeypatch):
    import wild11.cli as cli
    from wild11 import InconsistencyError

    def boom(*args, **kwargs):
        raise InconsistencyError("forced for the exit-code test")

    monkeypatch.setattr(cli, "run_equivariant_pipeline", boom)
    code, _, err = run_cli(capsys, "analyze", "--kind", "epsilon", "--param", "1")
    assert code == EXIT_INCONSISTENT
    assert "inconsistency" in err


def test_non_conjugate_eigentraces_exit_4(capsys, monkeypatch):
    # a_1 and a_2 swapped at both levels: still in Z[zeta] with the same a_0,
    # but a_2 != sigma_2(a_1), which the conjugacy gate in assemble_charpoly refuses
    import wild11.cli as cli
    from wild11 import EigenTraces

    honest = cli.inverse_dft

    def swapped(tr, q):
        a = honest(tr, q).a
        return EigenTraces(q=q, a=(a[1], a[0]) + a[2:])

    monkeypatch.setattr(cli, "inverse_dft", swapped)
    code, out, err = run_cli(
        capsys, "analyze", "--kind", "epsilon", "--param", "1", "--format", "json"
    )
    assert code == EXIT_INCONSISTENT
    assert out == ""
    assert err.startswith("inconsistency:")
    assert "sigma_2(a_1)" in err


# Runs each argv through main in one fresh interpreter and prints the exit codes.
_RUN_ALL = (
    "import contextlib, io, json, sys\n"
    "from wild11.cli import main\n"
    "codes = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        codes.append(main(argv))\n"
    "print(json.dumps(codes))\n"
)


@pytest.mark.parametrize("p", [2**61 - 1, 10**16 + 61])
def test_fibers_and_lattice_finish_at_huge_primes(p):
    # nothing in fiber classification may take time linear in p (a root scan
    # over F_p would run for years); a subprocess timeout turns a hang into a failure
    surfaces = (["epsilon", "--param", "1"], ["gamma", "--param", "1"], ["uniform"])
    ops = [
        [command, "--kind", *surface, "--p", str(p), "--format", "json"]
        for command in ("fibers", "lattice")
        for surface in surfaces
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(wild11.__file__).resolve().parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-c", _RUN_ALL, json.dumps(ops)],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"fibers/lattice at p = {p} did not finish within 30 s")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [EXIT_OK] * len(ops)


def test_table_within_class_gate():
    report = cmd_table(11)
    assert len(report.analysis["table"]) == 4


def test_count_gamma_q121_matches_tally(capsys):
    # q = p^2 has even degree, so the count is not (q+1)^2; cross-check the
    # equivariant bucket instead
    from wild11 import FieldSpec, fixed_locus_tally, make_model

    report = cmd_count("gamma", 1, 121)
    tally = fixed_locus_tally(make_model("gamma", 1, 11), FieldSpec(11, 2))
    assert report.analysis["surface_count"] == tally.fix[0]
