import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mubtools
from mubtools import io as mio
from mubtools.biunimodular import root_census
from mubtools.cli import build_parser, main


# child processes import the mubtools this process imported, installed or from a checkout's src/
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(mubtools.__file__)), os.environ.get("PYTHONPATH")]))}


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "mubtools.cli", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        env=_CHILD_ENV,
    )
    return proc


class TestGenAndVerify:
    def test_gen_fourier_pipes_into_verify(self):
        gen = run_cli(["gen", "fourier", "--n", "6"])
        assert gen.returncode == 0
        ver = run_cli(["verify", "hadamard", "-"], stdin_text=gen.stdout)
        assert ver.returncode == 0

    def test_verify_rejects_identity(self, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text(mio.dumps(mio.complex_matrix_payload(np.eye(4, dtype=complex))))
        ver = run_cli(["verify", "hadamard", str(path)])
        assert ver.returncode == 2

    def test_verify_unbiased_pair(self, tmp_path):
        f = tmp_path / "f.json"
        e = tmp_path / "e.json"
        assert main(["gen", "fourier", "--n", "5", "-o", str(f)]) == 0
        e.write_text(mio.dumps(mio.complex_matrix_payload(np.eye(5, dtype=complex))))
        assert run_cli(["verify", "unbiased", str(e), str(f)]).returncode == 0
        assert run_cli(["verify", "unbiased", str(f), str(f)]).returncode == 2

    def test_verify_mubset_prime_construction(self, tmp_path):
        path = tmp_path / "mubs.json"
        assert main(["gen", "prime-mubs", "--p", "5", "-o", str(path)]) == 0
        assert run_cli(["verify", "mubset", str(path)]).returncode == 0

    def test_gen_roots_format(self):
        gen = run_cli(["gen", "fourier", "--n", "6", "--format", "roots"])
        payload = json.loads(gen.stdout)
        assert payload["form"] == "roots" and payload["k"] == 6

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run_cli(["verify", "hadamard", str(bad)]).returncode == 3

    def test_inadmissible_parameter_exit_code(self):
        assert run_cli(["gen", "bn", "--theta", "0.0"]).returncode == 4

    def test_roundtrip_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "bjorck", "-o", str(a)]) == 0
        matrix = mio.as_complex_matrix(mio.loads(a.read_text()))
        b.write_text(mio.dumps(mio.complex_matrix_payload(matrix)))
        assert a.read_text() == b.read_text()


class TestDistanceAndTable:
    def test_distance_standard_fourier(self, tmp_path):
        f = tmp_path / "f.json"
        e = tmp_path / "e.json"
        main(["gen", "fourier", "--n", "6", "-o", str(f)])
        e.write_text(mio.dumps(mio.complex_matrix_payload(np.eye(6, dtype=complex))))
        out = run_cli(["distance", str(e), str(f)])
        assert out.returncode == 0
        assert json.loads(out.stdout)["chordal_distance_sq"] == pytest.approx(5.0, abs=1e-9)

    def test_table_csv(self, tmp_path):
        path = tmp_path / "mubs.json"
        csv = tmp_path / "t.csv"
        main(["gen", "prime-mubs", "--p", "3", "-o", str(path)])
        assert main(["table", str(path), "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 5
        assert "2" in lines[1]


class TestCensusPipeline:
    def test_roots_census_then_fail_report_without_structure(self, tmp_path):
        out = tmp_path / "census.json"
        assert main(["census", "roots", "--n", "6", "--k", "12", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 6 and len(payload["sequences"]) == 12

    def test_newton_census_assemble_report(self, tmp_path):
        census = tmp_path / "census.json"
        bases = tmp_path / "bases.json"
        csv = tmp_path / "table.csv"
        assert main(["census", "newton", "--n", "6", "--restarts", "20000", "--seed", "7", "-o", str(census)]) == 0
        payload = json.loads(census.read_text())
        assert len(payload["sequences"]) == 48
        assert main(["assemble", str(census), "-o", str(bases)]) == 0
        assembled = json.loads(bases.read_text())
        assert len(assembled["bases"]) == 16
        rep = run_cli(["report", str(bases), "--csv", str(csv)])
        assert rep.returncode == 0
        for token in ("2.000", "3.71", "4.62", "4.64"):
            assert token in rep.stdout
        assert csv.read_text().count("\n") == 17

    def test_census_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["census", "newton", "--n", "6", "--restarts", "4000", "--seed", "3", "-o", str(a)])
        main(["census", "newton", "--n", "6", "--restarts", "4000", "--seed", "3", "-o", str(b)])
        assert a.read_text() == b.read_text()


class TestSearchCli:
    def test_hadamard_stream(self, tmp_path):
        out = tmp_path / "h.jsonl"
        assert main(["search", "hadamards", "--n", "6", "--k", "3", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        summary = json.loads(lines[-1])["summary"]
        assert summary["complete"] and summary["matrices"] == len(lines) - 1
        first = json.loads(lines[0])
        assert first["form"] == "roots" and first["k"] == 3

    def test_quartets_n3(self, tmp_path):
        out = tmp_path / "q.jsonl"
        assert main(["search", "quartets", "--n", "3", "--k", "3", "-o", str(out)]) == 0
        summary = json.loads(out.read_text().strip().split("\n")[-1])["summary"]
        assert summary["verdict"] == "non-empty"

    def test_search_determinism(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["search", "triplets", "--n", "3", "--k", "3", "-o", str(a)])
        main(["search", "triplets", "--n", "3", "--k", "3", "-o", str(b)])
        assert a.read_text() == b.read_text()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["hadamards", "--n", "9", "--k", "24"], 4),  # enumeration guard
        (["hadamards", "--n", "0", "--k", "3"], 4),
        (["hadamards", "--n", "3", "--k", "0"], 4),
        (["hadamards", "--n", "3", "--k", "3", "--resume", "missing.json"], 3),
        (["triplets", "--n", "3", "--k", "3", "--resume", "hadamards.json"], 3),  # other spec
        (["hadamards", "--n", "3", "--k", "3", "--resume", "no-results.json"], 3),
        (["hadamards", "--n", "3", "--k", "3", "--resume", "garbage.json"], 3),
        (["hadamards", "--n", "3", "--k", "3", "--resume", "hadamards.json"], 0),
        (["hadamards", "--n", "6", "--k", "3", "--budget", "1", "--write-fixtures"], 4),  # incomplete
    ],
)
def test_search_exit_codes(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["search", "hadamards", "--n", "3", "--k", "3", "--budget", "1",
                 "--checkpoint", "hadamards.json"]) == 0
    spec = {"n": 3, "k": 3, "depth": "hadamards"}
    (tmp_path / "no-results.json").write_text(json.dumps({"spec": spec, "completed_units": []}))
    (tmp_path / "garbage.json").write_text("{oops")
    capsys.readouterr()
    assert main(["search", *argv]) == code
    lines = capsys.readouterr().out.splitlines()
    if code == 0:
        assert json.loads(lines[-1])["summary"]["complete"]
    else:
        assert lines == []


@pytest.fixture(scope="module")
def roots_census_text():
    """What `census roots --n 6 --k 12` writes."""
    return mio.dumps(root_census(6, 12).to_dict())


@pytest.mark.parametrize(
    "argv, env, code",
    [
        (["verify", "unbiased", "eye.json", "fourier.json"], {}, 0),
        (["verify", "unbiased", "fourier.json", "fourier.json"], {}, 2),
        (["verify", "unbiased", "eye.json", "flat.json"], {}, 3),  # flat.json is not unitary
        (["verify", "unbiased", "eye.json", "eye6.json"], {}, 3),  # mixed dimensions
        (["verify", "mubset", "flat.json"], {}, 3),
        (["table", "eye.json", "flat.json"], {}, 3),
        (["table", "eye.json"], {}, 3),
        (["distance", "eye.json", "fourier.json"], {}, 0),
        (["distance", "eye.json", "flat.json"], {}, 3),
        (["distance", "eye.json", "eye6.json"], {}, 3),
        (["distance", "nan.json", "nan.json"], {}, 3),
        (["gen", "prime-mubs", "--p", "6"], {}, 4),
        (["gen", "fourier", "--n", "0"], {}, 4),
        (["gen", "weyl", "--n", "1"], {}, 4),
        (["gen", "bn", "--theta", "0.5"], {}, 4),
        (["census", "newton", "--n", "4", "--restarts", "10"], {}, 4),
        (["census", "newton", "--n", "6", "--restarts", "0"], {}, 4),
        (["optimize", "--n", "1", "--m", "3"], {}, 4),
        (["optimize", "--n", "2", "--m", "2", "--seeds", "0"], {}, 4),
        (["verify", "hadamard", "fourier.json"], {"MUBTOOLS_EQ_TOL": "abc"}, 4),
        (["distance", "eye.json", "fourier.json"], {"MUBTOOLS_DEDUPE_TOL": ""}, 4),
        (["table", "eye.json", "fourier.json"], {"MUBTOOLS_EQ_TOL": "1e-3"}, 4),  # not below dedupe
        (["verify", "hadamard", "fourier.json"], {"MUBTOOLS_EQ_TOL": "nan"}, 4),
        (["assemble", "fourier.json"], {}, 3),  # a matrix file, not a census
        (["assemble", "stub-census.json"], {}, 3),  # census header without sequences or metadata
        (["assemble", "empty-census.json"], {}, 3),
        (["report", "empty-census.json"], {}, 3),
        (["report", "roots-census.json"], {}, 3),  # 12 gaussians only: not the full census structure
        (["scan", "h4", "--points", "1", "--extension-m", "5", "--seeds", "0"], {}, 4),
        (["scan", "h4", "--points", "-3"], {}, 4),
        (["gen", "h4", "--phi", "nan"], {}, 4),
        (["gen", "h4", "--phi", "inf"], {}, 4),
        (["gen", "bn", "--theta", "nan"], {}, 4),
        (["census", "newton", "--n", "6", "--restarts", "10", "--seed", "-1"], {}, 4),
        (["search", "hadamards", "--n", "6", "--k", "3", "--budget", "-5"], {}, 4),
        (["optimize", "--n", "4", "--m", "3", "--iterations", "-1"], {}, 4),
        (["optimize", "--n", "4", "--m", "3", "--seed", "x"], {}, 4),  # argparse usage error, not exit 2
        (["census", "roots", "--n", "2", "--k", "40000"], {}, 4),  # k^2 guard: digits would overflow int16
        (["census", "roots", "--n", "2", "--k", "20000"], {}, 4),  # k^2 guard: k x phi(k) reduction table
        (["search", "hadamards", "--n", "1", "--k", "3"], {}, 4),  # (1) is a Hadamard; no search for it
        (["search", "triplets", "--n", "1", "--k", "2"], {}, 4),
        (["verify", "hadamard", "nan.json"], {}, 3),
        (["verify", "hadamard", "roots-k0.json"], {}, 3),
        (["verify", "hadamard", "roots-inf.json"], {}, 3),  # exponent 1e400
        (["verify", "hadamard", "roots-half.json"], {}, 3),  # exponent 0.5
        (["verify", "hadamard", "huge.json"], {}, 3),  # entry 1e308: the defect overflows
        (["verify", "hadamard", "roots-k2.5.json"], {}, 3),  # was read as k = 2
        (["verify", "hadamard", "complex-n1.9.json"], {}, 3),  # was read as n = 1
    ],
)
def test_exit_codes(argv, env, code, roots_census_text, tmp_path, monkeypatch, capsys):
    """Bad files exit 3 and bad parameters exit 4, with nothing on stdout and no traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stub-census.json").write_text('{"format": "census", "n": 6}')
    (tmp_path / "empty-census.json").write_text('{"format": "census", "n": 6, "metadata": {}, "sequences": []}')
    (tmp_path / "roots-census.json").write_text(roots_census_text)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    for name, matrix in (("eye", np.eye(4)), ("eye6", np.eye(6)), ("flat", np.full((4, 4), 0.5))):
        (tmp_path / f"{name}.json").write_text(mio.dumps(mio.complex_matrix_payload(matrix)))
    (tmp_path / "fourier.json").write_text(
        mio.dumps(mio.complex_matrix_payload(np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2)))
    (tmp_path / "nan.json").write_text('{"n": 1, "form": "complex", "entries": [[[NaN, 0]]]}')
    (tmp_path / "huge.json").write_text('{"n": 1, "form": "complex", "entries": [[[1e308, 0]]]}')
    (tmp_path / "complex-n1.9.json").write_text('{"n": 1.9, "form": "complex", "entries": [[[1, 0]]]}')
    for name, k, exponent in (("k0", "0", "0"), ("inf", "2", "1e400"), ("half", "2", "0.5"), ("k2.5", "2.5", "0")):
        (tmp_path / f"roots-{name}.json").write_text(
            '{"n": 1, "form": "roots", "k": %s, "exponents": [[%s]]}' % (k, exponent))
    assert main(argv) == code
    out = capsys.readouterr().out
    if code in (3, 4):
        assert out == ""


def test_import_loads_no_scipy():
    probe = "import sys, mubtools.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fixture_provenance(tmp_path, monkeypatch, capsys):
    """A written fixture records the versions and argv that made it, not a fixed date."""
    from importlib import resources

    monkeypatch.setattr(resources, "files", lambda package: tmp_path)
    argv = ["search", "hadamards", "--n", "6", "--k", "3", "--checkpoint", str(tmp_path / "c.json"),
            "-o", str(tmp_path / "h.jsonl"), "--write-fixtures"]
    assert main(argv) == 0
    provenance = json.loads((tmp_path / "fixtures" / "S.json").read_text())["provenance"]
    assert "date" not in provenance
    assert provenance["argv"] == argv
    assert provenance["versions"] == {"mubtools": mubtools.__version__, "numpy": np.__version__}
    assert provenance["search"]["matrices_found"] == 12


class TestOptimizeAndScan:
    def test_optimize_report(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--n", "3", "--m", "4", "--seeds", "2", "--seed", "0", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["upper_bound"] == 12.0
        assert payload["best_objective"] <= 12.0 + 1e-9
        assert len(payload["runs"]) == 2
        assert payload["seed_origin"] == "explicit"
        for run in payload["runs"]:
            assert run["stop_reason"] in ("target", "gradient", "step-underflow", "iteration-cap")
            assert run["converged"] == (run["stop_reason"] in ("target", "gradient"))

    def test_optimize_derives_seed_when_missing(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--n", "2", "--m", "2", "--iterations", "50", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["seed_origin"] == "derived-from-entropy"

    def test_scan_h4_small(self, tmp_path):
        csv = tmp_path / "scan.csv"
        assert main(["scan", "h4", "--points", "4", "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0].startswith("phi,admissible,hadamard_defect")
        assert len(lines) == 5


class TestKsCheck:
    def test_exit_zero_and_payload(self, tmp_path):
        out = tmp_path / "ks.json"
        assert main(["ks-check", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kochen_specker"]["uncolourable"] is True
        assert len(payload["kochen_specker"]["contexts"]) == 24
        assert payload["real3"]["mub_pair_exists"] is False


# The generated exit-code contract: every leaf command of `build_parser()`, every typed (numeric)
# option set to each bad value, and every input-file argument replaced by each bad file.
_BAD_VALUES = ("-1", "0", "nan", "inf", "1e308", "x")
_FILE_ARGS = {"files", "census", "resume"}  # dests that name input files
_OUTPUT_ARGS = {"output", "csv", "checkpoint"}
_BASE_ARGV = {  # cheap, valid invocations; numeric options are replaced or appended per case
    ("gen", "fourier"): ["--n", "3"],
    ("gen", "weyl"): ["--n", "3"],
    ("gen", "prime-mubs"): ["--p", "3"],
    ("gen", "h4"): ["--phi", "0.5"],
    ("gen", "f6"): [],
    ("gen", "bjorck"): [],
    ("gen", "bn"): ["--theta", "2.0"],
    ("gen", "real4"): [],
    ("verify", "hadamard"): ["fourier.json"],
    ("verify", "unbiased"): ["eye.json", "fourier.json"],
    ("verify", "mubset"): ["mubs.json"],
    ("distance",): ["eye.json", "fourier.json"],
    ("table",): ["eye.json", "fourier.json"],
    ("census", "newton"): ["--n", "6", "--restarts", "20", "--seed", "0"],
    ("census", "roots"): ["--n", "3", "--k", "3"],
    ("assemble",): ["census.json"],
    ("report",): ["census.json"],
    **{("search", depth): ["--n", "3", "--k", "3"] for depth in ("hadamards", "triplets", "quartets")},
    ("optimize",): ["--n", "2", "--m", "2", "--iterations", "20", "--seed", "0"],
    **{("scan", family): ["--points", "2", "--extension-m", "3", "--seeds", "1", "--iterations", "20"]
       for family in ("h4", "f6", "bn")},
    ("ks-check",): [],
}
_BAD_FILES = {
    "missing": None,
    "empty": "",
    "not-json": "{oops",
    "wrong-format": '{"format": "nonsense", "form": "nonsense", "n": 4}',
    "nan": {
        "files": '{"n": 2, "form": "complex", "entries": [[[NaN, 0], [1, 0]], [[1, 0], [NaN, 0]]]}',
        "census": '{"format": "census", "n": 2, "metadata": {}, '
                  '"sequences": [{"kind": "gaussian", "entries": [[NaN, 0], [1, 0]]}]}',
        "resume": '{"spec": {"n": 3, "k": 3, "depth": "%s"}, "completed": [{"unit": 0, "results": [[NaN]]}]}',
    },
}


def _leaf_commands(parser, path=()):
    """(command path, leaf parser) for every runnable command; choice positionals are expanded."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        for name, child in subs[0].choices.items():
            yield from _leaf_commands(child, path + (name,))
        return
    choice = [a for a in parser._actions if not a.option_strings and a.choices]
    for value in choice[0].choices if choice else [None]:
        yield (path if value is None else path + (value,)), parser


def _generated_cases():
    cases = []
    for path, parser in _leaf_commands(build_parser()):
        base = _BASE_ARGV[path]
        cases.append(pytest.param([*path, *base], id=" ".join(path)))
        for action in parser._actions:
            if action.type is not None:  # every typed option is numeric
                opt = action.option_strings[-1]
                for value in _BAD_VALUES:
                    argv = list(base)
                    if opt in argv:
                        argv[argv.index(opt) + 1] = value
                    else:
                        argv += [opt, value]
                    cases.append(pytest.param([*path, *argv], id=f"{' '.join(path)} {opt}={value}"))
                continue
            if isinstance(action, argparse._HelpAction) or action.choices or action.nargs == 0:
                continue
            assert action.dest in _FILE_ARGS | _OUTPUT_ARGS, (path, action.dest)
            if action.dest not in _FILE_ARGS:
                continue
            for variant in _BAD_FILES:
                bad = f"{variant}-{action.dest}.json"
                if action.option_strings:
                    argv = [*base, action.option_strings[-1], bad]
                else:
                    argv = [bad if token.endswith(".json") else token for token in base]
                cases.append(pytest.param([*path, *argv], id=f"{' '.join(path)} {action.dest}={variant}"))
    return cases


def _assert_finite_output(text: str) -> None:
    def reject(token):
        raise AssertionError(f"non-finite {token} in JSON output")

    def walk(value):
        if isinstance(value, float):
            assert math.isfinite(value), value
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    for line in text.splitlines():
        try:
            value = json.loads(line, parse_constant=reject)
        except json.JSONDecodeError:  # a CSV line (table, scan); scan marks inadmissible points NaN
            continue
        walk(value)


@pytest.mark.parametrize("argv", _generated_cases())
def test_generated_exit_codes(argv, roots_census_text, tmp_path, monkeypatch, capsys):
    """Any option value or input file exits 0, 2, 3 or 4, never with a traceback or a non-finite output."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eye.json").write_text(mio.dumps(mio.complex_matrix_payload(np.eye(4))))
    (tmp_path / "fourier.json").write_text(
        mio.dumps(mio.complex_matrix_payload(np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2)))
    assert main(["gen", "prime-mubs", "--p", "3", "-o", "mubs.json"]) == 0
    (tmp_path / "census.json").write_text(roots_census_text)
    depth = argv[1] if argv[0] == "search" else ""
    for variant, text in _BAD_FILES.items():
        for dest in _FILE_ARGS:
            content = text.get(dest) if isinstance(text, dict) else text
            if content is not None:
                (tmp_path / f"{variant}-{dest}.json").write_text(content.replace("%s", depth))
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 0:
        _assert_finite_output(out)
