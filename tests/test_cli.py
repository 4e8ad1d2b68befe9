import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wild11

from wild11.cli import (
    EXIT_CAPABILITY,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_USAGE,
    _json_text,
    _render,
    cmd_analyze,
    cmd_count,
    cmd_table,
    main,
)
from wild11.errors import CapabilityError, InconsistencyError, ReducibleFiberError


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


def test_analyze_echoes_the_reduced_parameter(capsys):
    # --param 12 analyses the surface with parameter 12 mod 11 = 1, and says so
    args = ("analyze", "--kind", "epsilon", "--p", "11", "--format", "json", "--param")
    code, out12, _ = run_cli(capsys, *args, "12")
    assert code == EXIT_OK
    assert json.loads(out12)["inputs"]["param"] == 1
    assert run_cli(capsys, *args, "1")[1] == out12


def _fresh_interpreter(script: str, *args: str) -> list[str]:
    """The words script prints when run with args by a new interpreter that imports wild11 from here."""
    env = dict(os.environ, PYTHONPATH=str(Path(wild11.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_table_never_imports_numpy():
    # numpy serves only analyze's advisory unit-circle check, which table never prints
    script = (
        "import contextlib, io, sys\n"
        "from wild11.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['table', '--format', 'json'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert _fresh_interpreter(script) == [str(EXIT_OK), "False"]


def test_cold_commands_never_import_dataclasses():
    # the records are collections.namedtuple subclasses: namedtuple builds its
    # methods without dataclasses or inspect, so no command imports either
    script = (
        "import contextlib, io, sys\n"
        "from wild11.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [\n"
        "        main(['count', '--kind', 'gamma', '--param', '1', '--q', '121']),\n"
        "        main(['fibers', '--kind', 'gamma', '--param', '1', '--p', '11']),\n"
        "        main(['cover-check']),\n"
        "    ]\n"
        "print(*codes, 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    assert _fresh_interpreter(script) == [str(EXIT_OK)] * 3 + ["False", "False"]


_LAYERS = tuple(
    f"wild11.{path.stem}"
    for path in sorted(Path(wild11.__file__).parent.glob("*.py"))
    if path.stem not in ("__init__", "cli", "errors")
)
_COLD = [
    ["count", "--kind", "gamma", "--param", "1", "--q", "121"],
    ["fibers", "--kind", "gamma", "--param", "1", "--p", "11"],
    ["lattice", "--kind", "epsilon", "--param", "1", "--p", "13"],
    ["cover-check"],
]


@pytest.mark.parametrize(
    "argvs,codes,absent",
    [
        (
            _COLD,
            [EXIT_OK] * 4,
            ["wild11.analysis", "wild11.cyclotomic", "wild11.equivariant", "fractions", "numpy"],
        ),
        ([["cover-check"]], [EXIT_OK], ["wild11.surface", "wild11.kodaira"]),
        ([["--version"], ["count", "--kind", "gamma"]], [EXIT_OK, EXIT_USAGE], list(_LAYERS)),
    ],
    ids=["cold-commands", "cover-check", "version-and-usage"],
)
def test_commands_import_only_their_layers(argvs, codes, absent):
    # each command imports the layers it runs when it runs, so a fresh process
    # compiles no module that its command does not use
    script = (
        "import contextlib, io, json, sys\n"
        "from wild11.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            codes.append(main(argv))\n"
        "        except SystemExit as exc:\n"
        "            codes.append(exc.code)\n"
        "print(*codes, *[name for name in sys.argv[2:] if name in sys.modules])\n"
    )
    assert "wild11.ffield" in _LAYERS  # the layer list is read from the package
    assert _fresh_interpreter(script, json.dumps(argvs), *absent) == [str(c) for c in codes]


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
    assert analysis["cofactor"] == "MultiPoly(1*u^33v^22)"
    assert analysis["supersingular_possible"]["11"] is True
    assert analysis["supersingular_possible"]["3"] is False


def test_count_gamma(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--kind", "gamma", "--param", "1", "--q", "11", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["analysis"]["surface_count"] == 144


def test_count_refuses_reducible_model(capsys):
    # v(c4) is infinite on gamma 0, where c4 vanishes identically, as fibers prints it
    for argv, place in (
        (("--kind", "uniform", "--q", "11"), "t=0 has v(Delta)=11, v(c4)=0"),
        (("--kind", "uniform", "--q", "121"), "t=0 has v(Delta)=11, v(c4)=0"),
        (("--kind", "gamma", "--param", "0", "--q", "5"), "t=4 has v(Delta)=10, v(c4)=infinity"),
    ):
        code, out, err = run_cli(capsys, "count", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: fiber at {place}; the Weierstrass count would miss components\n"


@pytest.mark.parametrize("kind,q", [("uniform", "9"), ("gamma", "27"), ("gamma", "243")])
def test_count_refuses_characteristic_3(capsys, kind, q):
    code, out, err = run_cli(capsys, "count", "--kind", kind, "--param", "1", "--q", q)
    assert code == EXIT_CAPABILITY and out == ""
    assert "characteristic 3" in err


# 31^4, the first prime above 11^4, and 11^5
@pytest.mark.parametrize("q", ["923521", "14653", "161051"])
def test_count_refuses_fields_above_11_to_the_4(capsys, q):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--kind", "epsilon", "--param", "1", "--q", q)
    assert code == EXIT_CAPABILITY and out == ""
    assert "exceeds the limit 14641" in err
    assert time.perf_counter() - start < 1.0


# fields up to 2^20 construct whatever their degree; the count refuses them
# by characteristic or COUNT_Q_LIMIT, before it builds any table
@pytest.mark.parametrize(
    "q,reason",
    [
        ("1024", "characteristic 2"),  # 2^10
        ("65536", "characteristic 2"),  # 2^16
        ("1048576", "characteristic 2"),  # 2^20
        ("823543", "exceeds the limit 14641"),  # 7^7
        ("2097152", "field size 2097152 exceeds the supported limit 1048576"),  # 2^21
    ],
)
def test_count_refuses_characteristic_2_and_oversized_fields(capsys, q, reason):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--kind", "gamma", "--param", "1", "--q", q)
    assert code == EXIT_CAPABILITY and out == ""
    assert reason in err
    assert time.perf_counter() - start < 1.0


def test_count_over_f_5_to_the_5(capsys):
    # a field of degree 5: fields are bounded by size, not degree
    code, out, _ = run_cli(
        capsys, "count", "--kind", "gamma", "--param", "1", "--q", "3125", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["analysis"]["surface_count"] == 9775626


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
    for command in ("fibers", "lattice"):
        for p in ("2", "3"):
            code, out, err = run_cli(capsys, command, "--kind", "uniform", "--p", p)
            assert code == EXIT_CAPABILITY, (command, p)
            assert out == ""
            assert "wild" in err and "characteristics 2 and 3 are refused" in err
            assert "wild_delta_report" not in err  # names no deleted function


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


# keys mix plain text with what json must escape: quotes, backslashes,
# control characters and non-ASCII (outside and beyond the BMP)
_JSON_KEYS = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u2028\U0001f600'), st.characters()),
    max_size=6,
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False),
    _JSON_KEYS,
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=4),
        st.dictionaries(_JSON_KEYS, children, max_size=4),
    ),
    max_leaves=15,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=st.one_of(_JSON_TREES, st.dictionaries(_JSON_KEYS, _JSON_TREES, max_size=5)))
def test_json_writer_matches_json_dumps(tree):
    assert _json_text(tree, "") == json.dumps(tree, sort_keys=True, indent=2)


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(section=_JSON_TREES)
@example(section={"mu": (1, 2), "per_eigenspace": ({"a": (0, 1), "b": ((2,), 3)},), "members": ()})
def test_tuple_sections_render_like_lists(fmt, section):
    # the commands hand record fields over as tuples; all three writers
    # print a tuple exactly as the list with the same items
    report = {"meta": {"tool": "wild11"}, "section": section}
    assert _render(report, fmt, None) == _render(_as_lists(report), fmt, None)


# SHA-256 of stdout; bench/golden.json pins the JSON output, these pin the
# text and CSV renderers
TEXT_AND_CSV_PINS = {
    "analyze --kind epsilon --param 1 --format text": "a09ac8f205181d7be34f5ed5ded385f188c443027ab921a4309cb2ca72ec6634",
    "analyze --kind epsilon --param 1 --format csv": "2fd9857dc0a25c1a7447de82b8da00fd70a18547b201841c4ff5314b297c806b",
    "analyze --kind gamma --param 2 --format text": "b36a5876b5f32e2378df0c8fdef466afb3ec9aaa99524f2843c8b265e435a94a",
    "analyze --kind gamma --param 2 --format csv": "d0caca69832f453039a43445a8e36881e4a5f8dac9bd4b2cb58ef2a7c255e004",
    "table --format text": "62caaefb4591352f270af23605c6a4d8d7c5828b71ff3137f60e5505cd9bfc6e",
    "table --format csv": "cb1311b7ce18af614b807f238e79c788c4231e9f52760732d958ca2110b63ff0",
    "fibers --kind uniform --p 11 --format text": "5fc5145e75cc37bdb47097cfe0022af49b385975d26383cfd2f1519f377de168",
    "fibers --kind uniform --p 11 --format csv": "789e87c3a2a454866612c6f5fde77bb4786317ed9fc736f2b6a81134cb6a973d",
    "lattice --kind epsilon --param 1 --p 13 --format text": "c9e8d5f693154cf2db4b7d62286f31a87012c55f9635174367de075fbae3f952",
    "lattice --kind epsilon --param 1 --p 13 --format csv": "41674887d4a4296cc9c996eff390feb5dcd786dee4f6123d5319a40c22a51912",
    "cover-check --format text": "5c9370d3019f5347c9e9c041b6a96c3a5d964d7c5e164311fdc396d646bd521a",
    "cover-check --format csv": "7ce3a7bf9571e0f0e50f89bd32641f7d6fa5055e9880f3e0d9605e873340d4d8",
    "count --kind gamma --param 1 --q 121 --format text": "8ad2f5dba7865c604ee38adc1c4e5463d6ef15749bc3c9df8ef8212fd2bbb875",
    "count --kind gamma --param 1 --q 121 --format csv": "f70af2d14bead7f0a64d40c203bdbcf3928bf10560fe122571b96bb33851e886",
}


@pytest.mark.parametrize("argv", sorted(TEXT_AND_CSV_PINS))
def test_text_and_csv_output_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_AND_CSV_PINS[argv]


# The first library call of each subcommand, and the exit code and stderr
# prefix that each exception raised there must map to.  The commands import
# these functions when they run, so each is patched in its defining module.
_FIRST_CALLS = {
    "analyze --kind epsilon --param 1": "wild11.surface.make_model",
    "table": "wild11.surface.make_model",
    "fibers --kind uniform --p 11": "wild11.surface.make_model",
    "lattice --kind uniform --p 11": "wild11.surface.make_model",
    "cover-check": "wild11.delsarte.verify_cover_identity",
    "count --kind gamma --param 1 --q 11": "wild11.surface.make_model",
}
_EXIT_CONTRACT = [
    (ValueError, EXIT_USAGE, "error: "),
    (ReducibleFiberError, EXIT_USAGE, "error: "),
    (CapabilityError, EXIT_CAPABILITY, "unsupported: "),
    (InconsistencyError, EXIT_INCONSISTENT, "inconsistency: "),
]


@pytest.mark.parametrize("error,exit_code,prefix", _EXIT_CONTRACT, ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("command", sorted(_FIRST_CALLS))
def test_exit_code_contract(capsys, monkeypatch, tmp_path, command, error, exit_code, prefix):
    def boom(*args, **kwargs):
        raise error("forced for the exit-code contract")

    monkeypatch.setattr(_FIRST_CALLS[command], boom)
    target = tmp_path / "report.out"
    for extra in ([], ["--out", str(target)]):
        code, out, err = run_cli(capsys, *command.split(), *extra)
        assert code == exit_code
        assert out == ""
        assert err.startswith(prefix + "forced for the exit-code contract")
    assert not target.exists()


def test_inconsistency_maps_to_exit_code_4(capsys, monkeypatch):
    import wild11.cli as cli
    from wild11.errors import InconsistencyError

    def boom(*args, **kwargs):
        raise InconsistencyError("forced for the exit-code test")

    monkeypatch.setattr(cli, "run_equivariant_pipeline", boom)
    code, _, err = run_cli(capsys, "analyze", "--kind", "epsilon", "--param", "1")
    assert code == EXIT_INCONSISTENT
    assert "inconsistency" in err


def test_non_conjugate_eigentraces_exit_4(capsys, monkeypatch):
    # a_1 and a_2 swapped at both levels: still in Z[zeta] with the same a_0,
    # but a_2 != sigma_2(a_1), which the conjugacy gate in assemble_charpoly refuses
    import wild11.cyclotomic as cyclotomic
    from wild11.cyclotomic import EigenTraces

    honest = cyclotomic.inverse_dft

    def swapped(tr, q):
        a = honest(tr, q).a
        return EigenTraces(q=q, a=(a[1], a[0]) + a[2:])

    monkeypatch.setattr(cyclotomic, "inverse_dft", swapped)
    code, out, err = run_cli(
        capsys, "analyze", "--kind", "epsilon", "--param", "1", "--format", "json"
    )
    assert code == EXIT_INCONSISTENT
    assert out == ""
    assert err.startswith("inconsistency:")
    assert "sigma_2(a_1)" in err


def test_equal_degree_splitting_without_values_exit_4(capsys, monkeypatch):
    # Delta of gamma 2 at p = 11 is two degree-11 factors of trace 0; with no
    # norms N(a) to try after Tr(t) the splitting loop must refuse, not crash.
    # fibers at p = 11 lifts gamma's places from the s-line without that
    # split, so the command runs at p = 5, where the model is not one in
    # t^5 - t and Delta(t) itself has equal-degree parts to split
    import wild11.fppoly as fppoly
    from wild11.errors import InconsistencyError
    from wild11.surface import c4_delta, make_model

    monkeypatch.setattr(fppoly, "monic_polys", lambda p, degree: iter(()))
    with pytest.raises(InconsistencyError):
        fppoly.factor(c4_delta(make_model("gamma", 2, 11))[1], 11)
    code, out, err = run_cli(capsys, "fibers", "--kind", "gamma", "--param", "4", "--p", "5")
    assert code == EXIT_INCONSISTENT
    assert out == ""
    assert err.startswith("inconsistency:")


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
    assert len(report["analysis"]["table"]) == 4


def test_analysis_runs_once_per_distinct_mu():
    # four square classes share one mu each, and param 0 is one surface for
    # both kinds, so 22 surfaces have 5 distinct mu
    from wild11.analysis import _unit_circle_check, analyze_charpoly

    analyze_charpoly.cache_clear()
    cmd_table(11)
    info = analyze_charpoly.cache_info()
    assert (info.misses, info.hits) == (4, 16)

    analyze_charpoly.cache_clear()
    _unit_circle_check.cache_clear()
    for kind in ("epsilon", "gamma"):
        for param in range(11):
            cmd_analyze(kind, param, 11)
    for memo in (analyze_charpoly, _unit_circle_check):
        info = memo.cache_info()
        assert (info.misses, info.hits) == (5, 17)


def test_count_gamma_q121_matches_tally(capsys):
    # q = p^2 has even degree, so the count is not (q+1)^2; cross-check the
    # equivariant bucket instead
    from wild11.equivariant import fixed_locus_tally
    from wild11.ffield import FieldSpec
    from wild11.surface import make_model

    report = cmd_count("gamma", 1, 121)
    tally = fixed_locus_tally(make_model("gamma", 1, 11), FieldSpec(11, 2))
    assert report["analysis"]["surface_count"] == tally.fix[0]
