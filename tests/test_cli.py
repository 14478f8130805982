import argparse
import errno
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mubtools
from mubtools import cli
from mubtools import io as mio
from mubtools.biunimodular import root_census
from mubtools.cli import build_parser, main
from mubtools.constructions import prime_mub_set
from mubtools.core import Basis
from mubtools.optimize import maximize_spread


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

    def test_verify_hadamard_reports_each_basis_of_a_list(self, tmp_path):
        path = tmp_path / "mubs7.json"
        assert main(["gen", "prime-mubs", "--p", "7", "-o", str(path)]) == 0
        ver = run_cli(["verify", "hadamard", str(path)])
        assert ver.returncode == 2
        payload = json.loads(ver.stdout)
        assert payload["failures"] == 1
        assert [(r["basis"], r["pass"]) for r in payload["reports"]] == (
            [("standard", False)] + [(f"weyl-eigenbasis(p=7,k={k})", True) for k in range(7)])
        assert {r["file"] for r in payload["reports"]} == {str(path)}

    def test_verify_hadamard_single_matrix_report(self, tmp_path):
        path = tmp_path / "f6.json"
        assert main(["gen", "fourier", "--n", "6", "-o", str(path)]) == 0
        (report,) = json.loads(run_cli(["verify", "hadamard", str(path)]).stdout)["reports"]
        assert sorted(report) == ["check", "defect", "file", "pass"] and report["pass"]

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
        (["census", "roots", "--n", "2", "--k", "20000"], {}, 4),  # k^2 guard: k-wide exact rows for k candidates
        (["search", "hadamards", "--n", "1", "--k", "3"], {}, 4),  # (1) is a Hadamard; no search for it
        (["search", "triplets", "--n", "1", "--k", "2"], {}, 4),
        (["verify", "hadamard", "nan.json"], {}, 3),
        (["verify", "hadamard", "roots-k0.json"], {}, 3),
        (["verify", "hadamard", "roots-inf.json"], {}, 3),  # exponent 1e400
        (["verify", "hadamard", "roots-half.json"], {}, 3),  # exponent 0.5
        (["verify", "hadamard", "huge.json"], {}, 3),  # entry 1e308: the defect overflows
        (["verify", "hadamard", "roots-k2.5.json"], {}, 3),  # was read as k = 2
        (["verify", "hadamard", "complex-n1.9.json"], {}, 3),  # was read as n = 1
        (["search", "hadamards", "--n", "6", "--k", "3", "--budget", "1", "--checkpoint", "missing/cp.json"], {}, 4),
        (["search", "hadamards", "--n", "6", "--k", "3", "--write-fixtures"], {}, 4),  # removed option: usage error, exit 4
        (["assemble", "census-n6.7.json"], {}, 3),  # was read as n = 6
        (["assemble", "census-kind7.json"], {}, 3),
        (["report", "census-kind7.json"], {}, 3),
        (["report", "census-label5.json"], {}, 3),
        (["report", "census.json"], {}, 0),  # the unedited full census
        (["table", "mubs-label5.json"], {}, 3),
        (["table", "mubs-labelnull.json"], {}, 3),
        (["verify", "mubset", "mubs-label5.json"], {}, 3),
        (["distance", "mubs.json", "fourier.json"], {}, 3),  # five bases, not two
        (["verify", "unbiased", "mubs.json", "fourier.json"], {}, 3),
        (["verify", "unbiased", "eye.json", "fourier.json", "fourier.json"], {}, 3),
        (["verify", "unbiased", "pair.json"], {}, 0),  # one basis list of two bases
        (["verify", "hadamard", "not-utf8.json"], {}, 3),
        (["verify", "hadamard", "mubs.json"], {}, 2),  # a basis list: the standard basis is no Hadamard
        (["verify", "hadamard", "hadamards.json"], {}, 0),  # a basis list of Hadamards only
        (["assemble", "census-n1.json", "-o", "bases-n1.json"], {}, 0),  # no free phase: zero-width rows
        (["search", "hadamards", "--n", "6", "--k", "3", "--budget", "0"], {}, 4),  # could never start a unit
    ],
)
def test_exit_codes(argv, env, code, roots_census_text, assembled6, tmp_path, monkeypatch, capsys):
    """Bad files exit 3 and bad parameters exit 4, with nothing on stdout and no traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stub-census.json").write_text('{"format": "census", "n": 6}')
    (tmp_path / "empty-census.json").write_text('{"format": "census", "n": 6, "metadata": {}, "sequences": []}')
    (tmp_path / "roots-census.json").write_text(roots_census_text)
    (tmp_path / "census-n1.json").write_text(mio.dumps(root_census(1, 3).to_dict()))
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
    census = json.loads(mio.dumps(assembled6.to_dict()))
    (tmp_path / "census.json").write_text(json.dumps(census))
    for name, edit in (("n6.7", {"n": 6.7}),
                       ("kind7", {"sequences": [{**census["sequences"][0], "kind": 7}, *census["sequences"][1:]]}),
                       ("label5", {"bases": [{**census["bases"][0], "label": 5}, *census["bases"][1:]]})):
        (tmp_path / f"census-{name}.json").write_text(json.dumps({**census, **edit}))
    mubs = mio.basis_list_payload(list(prime_mub_set(3).bases), 3)
    for name, label in (("label5", 5), ("labelnull", None)):
        (tmp_path / f"mubs-{name}.json").write_text(
            json.dumps({**mubs, "bases": [{**mubs["bases"][0], "label": label}, *mubs["bases"][1:]]}))
    (tmp_path / "mubs.json").write_text(mio.dumps(mubs))
    (tmp_path / "pair.json").write_text(mio.dumps(mio.basis_list_payload(
        [Basis(np.eye(4), label="eye"), Basis(np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2)], 4)))
    f4 = np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2
    (tmp_path / "hadamards.json").write_text(mio.dumps(mio.basis_list_payload(
        [Basis(f4, label="f4"), Basis(f4.conj(), label="conj-f4")], 4)))
    (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe")
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code in (3, 4):
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err


_CENSUS_N2 = '{"format": "census", "n": 2, "metadata": {}, "sequences": [%s]}'
_THREE_ENTRIES = '{"kind": "gaussian", "entries": [[1, 0], [1, 0], [1, 0]]}'
# (1, 1) and (1, -1) assemble into H2, whose columns are those of fourier(2)
_H2_ROWS = '{"kind": "gaussian", "entries": [[1, 0], [1, 0]]}, {"kind": "gaussian", "entries": [[1, 0], [-1, 0]]}'


@pytest.mark.parametrize(
    "command, sequences, message",
    [
        pytest.param("assemble", _THREE_ENTRIES, "census entries do not all have length n = 2", id="assemble length"),
        pytest.param("report", _THREE_ENTRIES, "census entries do not all have length n = 2", id="report length"),
        pytest.param("assemble", _H2_ROWS,
                     "census-basis-00:gaussian:circulant is not unbiased to fourier(2): defect 5.000e-01",
                     id="assemble not-unbiased"),
    ],
)
def test_bad_census_exits_3_naming_the_fault(command, sequences, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "census.json").write_text(_CENSUS_N2 % sequences)
    assert main([command, "census.json"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_memory_error_exits_4(monkeypatch, capsys):
    """An allocation too large for the machine ends in one error line and exit 4, not a traceback."""
    def out_of_memory(args):
        raise MemoryError("Unable to allocate 53.6 GiB for an array with shape (60000, 60000)")

    monkeypatch.setattr(cli, "_cmd_gen", out_of_memory)
    assert main(["gen", "fourier", "--n", "60000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_failed_checkpoint_write_exits_4(tmp_path, monkeypatch, capsys):
    """A checkpoint that cannot be written (here: a full disk) ends in one error line, and no temporary file."""
    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "write", no_space)
    assert main(["search", "hadamards", "--n", "6", "--k", "4", "--budget", "5", "--checkpoint", "cp.json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# each budget lies below the node count of its stage alone at (5, 5): 90, 30 and 120
@pytest.mark.parametrize("depth, budget", [("hadamards", 10), ("triplets", 10), ("quartets", 20)])
def test_spaced_checkpoint_resumes_like_uninterrupted_run(depth, budget, tmp_path, monkeypatch, capsys):
    """Checkpoints written by json.dump(sort_keys=True), with spaces after separators, still resume.

    The written checkpoint differs from that text only in whitespace; resumed
    from it, the search prints what an uninterrupted run prints (its node count
    aside), and some stored unit holds results.
    """
    monkeypatch.chdir(tmp_path)

    def run(*extra):
        assert main(["search", depth, "--n", "5", "--k", "5", *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        return lines[:-1], {**json.loads(lines[-1])["summary"], "nodes": None}

    full = run()
    assert not run("--budget", str(budget), "--checkpoint", "cp.json")[1]["complete"]
    text = (tmp_path / "cp.json").read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert any(item["results"] for item in payload["completed"])
    (tmp_path / "cp.json").write_text(json.dumps(payload, sort_keys=True))
    assert run("--resume", "cp.json") == full


def test_import_loads_no_scipy():
    probe = "import sys, mubtools.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

    def test_scan_with_fourier_adds_a_distance_column(self, tmp_path):
        csv = tmp_path / "scan.csv"
        assert main(["scan", "f6", "--points", "2", "--with-fourier", "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().split("\n")
        header = "phi1,phi2,admissible,hadamard_defect,d2_to_standard,d2_to_fourier(6),extension_score"
        assert lines[0] == header
        assert len(lines) == 5
        column = header.split(",").index("d2_to_fourier(6)")
        # at these points the columns of f6 are those of fourier(6) up to phase
        assert [line.split(",")[column] for line in lines[1:]] == ["0"] * 4

    def test_optimize_downsamples_a_long_trajectory(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--n", "6", "--m", "4", "--seed", "0", "-o", str(out)]) == 0
        trajectory = json.loads(out.read_text())["runs"][0]["trajectory"]
        full = maximize_spread(6, 4, seed=0).trajectory
        assert len(full) == 374
        assert len(trajectory) == 200
        assert (trajectory[0], trajectory[-1]) == (full[0], full[-1])


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
_F3 = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]  # exponents of the 3 x 3 Fourier matrix


def _checkpoint(exponent=1, grid=None, extra=0, unit=0):
    """Checkpoint text of a (3, 3) search at a given depth: unit `unit` holds one result.

    The result holds as many exponent grids as the depth's results do, plus
    `extra`; each grid is `grid`, by default `_F3` with `exponent` at (1, 1).
    Unedited, it resumes (`test_checkpoint_control_resumes`).
    """
    if grid is None:
        grid = [_F3[0], [0, exponent, 2], _F3[2]]

    def text(depth):
        count = {"hadamards": 1, "triplets": 2, "quartets": 3}[depth] + extra
        return json.dumps({"spec": {"n": 3, "k": 3, "depth": depth},
                           "completed": [{"unit": unit, "results": [grid if count == 1 else [grid] * count]}]},
                          sort_keys=True)

    return text


_BASIS_LABEL_5 = {"label": 5, "matrix": mio.complex_matrix_payload(np.eye(2))}
_BAD_FILES = {  # variant -> content, or content per input-file dest; a callable takes the search depth
    "missing": None,
    "empty": "",
    "not-utf8": b"\xff\xfe",
    "not-json": "{oops",
    "wrong-format": '{"format": "nonsense", "form": "nonsense", "n": 4}',
    "nan": {
        "files": '{"n": 2, "form": "complex", "entries": [[[NaN, 0], [1, 0]], [[1, 0], [NaN, 0]]]}',
        "census": '{"format": "census", "n": 2, "metadata": {}, '
                  '"sequences": [{"kind": "gaussian", "entries": [[NaN, 0], [1, 0]]}]}',
        "resume": _checkpoint(float("nan")),
    },
    "label": {
        "files": json.dumps({"format": "basis-list", "n": 2, "bases": [_BASIS_LABEL_5, _BASIS_LABEL_5]}),
        "census": json.dumps({"format": "census", "n": 2, "metadata": {},
                              "sequences": [{"kind": "gaussian", "entries": [[1, 0], [1, 0]]}],
                              "bases": [{"label": 5, "n": 2, "entries": mio.complex_entries(np.eye(2))}]}),
    },
    "no-bases": {"files": json.dumps({"format": "basis-list", "n": 2, "bases": []})},
    "header-n": {"files": json.dumps({"format": "basis-list", "n": 3,
                                      "bases": [{"label": "I", "matrix": mio.complex_matrix_payload(np.eye(2))}]})},
    "length": {"census": _CENSUS_N2 % _THREE_ENTRIES},
    "float-exponent": {"resume": _checkpoint(1.7)},
    "exponent-k": {"resume": _checkpoint(3)},
    "negative-exponent": {"resume": _checkpoint(-1)},
    "exponent-70000": {"resume": _checkpoint(70000)},
    "grid-shape": {"resume": _checkpoint(grid=[[0, 0], [0, 1]])},
    "matrix-count": {"resume": _checkpoint(extra=1)},
    "unit-index": {"resume": _checkpoint(unit=0.5)},
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
        cases.append(pytest.param([*path, *base], None, id=" ".join(path)))
        for action in parser._actions:
            if action.type is not None:  # every typed option is numeric
                opt = action.option_strings[-1]
                for value in _BAD_VALUES:
                    argv = list(base)
                    if opt in argv:
                        argv[argv.index(opt) + 1] = value
                    else:
                        argv += [opt, value]
                    cases.append(pytest.param([*path, *argv], None, id=f"{' '.join(path)} {opt}={value}"))
                continue
            if isinstance(action, argparse._HelpAction) or action.choices or action.nargs == 0:
                continue
            assert action.dest in _FILE_ARGS | _OUTPUT_ARGS, (path, action.dest)
            if action.dest in _OUTPUT_ARGS:  # a path in a directory that does not exist
                argv = [*base, action.option_strings[-1], "missing-dir/out"]
                cases.append(pytest.param([*path, *argv], None, id=f"{' '.join(path)} {action.dest}=missing-dir"))
                continue
            for variant, content in _BAD_FILES.items():
                if isinstance(content, dict) and action.dest not in content:
                    continue
                bad = f"{variant}-{action.dest}.json"
                if action.option_strings:
                    argv = [*base, action.option_strings[-1], bad]
                else:
                    argv = [bad if token.endswith(".json") else token for token in base]
                cases.append(pytest.param([*path, *argv], (variant, action.dest),
                                          id=f"{' '.join(path)} {action.dest}={variant}"))
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


@pytest.mark.parametrize("argv, bad_file", _generated_cases())
def test_generated_exit_codes(argv, bad_file, roots_census_text, tmp_path, monkeypatch, capsys):
    """Any option value or input file exits 0, 2, 3 or 4, never with a traceback or a non-finite output.

    An input file replaced by a bad variant exits 3, with one error line and nothing on stdout.
    """
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eye.json").write_text(mio.dumps(mio.complex_matrix_payload(np.eye(4))))
    (tmp_path / "fourier.json").write_text(
        mio.dumps(mio.complex_matrix_payload(np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2)))
    assert main(["gen", "prime-mubs", "--p", "3", "-o", "mubs.json"]) == 0
    (tmp_path / "census.json").write_text(roots_census_text)
    if bad_file is not None:
        variant, dest = bad_file
        content = _BAD_FILES[variant]
        content = content[dest] if isinstance(content, dict) else content
        content = content(argv[1]) if callable(content) else content
        if content is not None:
            path = tmp_path / f"{variant}-{dest}.json"
            path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 0:
        _assert_finite_output(out)
    if bad_file is not None:
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("depth", ["hadamards", "triplets", "quartets"])
def test_checkpoint_control_resumes(depth, tmp_path, monkeypatch, capsys):
    """The unedited `_checkpoint` resumes, so each bad checkpoint variant fails by its edit alone."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cp.json").write_text(_checkpoint()(depth))
    assert main(["search", depth, "--n", "3", "--k", "3", "--resume", "cp.json"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
    assert summary["complete"]
