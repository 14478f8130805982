import json
import subprocess
import sys

import numpy as np
import pytest

from mubtools import io as mio
from mubtools.cli import main


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "mubtools.cli", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
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


class TestOptimizeAndScan:
    def test_optimize_report(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--n", "3", "--m", "4", "--seeds", "2", "--seed", "0", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["upper_bound"] == 12.0
        assert payload["best_objective"] <= 12.0 + 1e-9
        assert len(payload["runs"]) == 2
        assert payload["seed_origin"] == "explicit"

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
