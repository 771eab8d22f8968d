"""Command-line interface: output formats, files, and exit codes."""

import csv
import json
import math
import os

import pytest

from innerinv.cli import run


@pytest.fixture
def one_atom_path(tmp_path):
    p = tmp_path / "one_atom.json"
    p.write_text(json.dumps({"atoms": [{"theta": 0.0, "mass": 1.0}]}))
    return p


@pytest.fixture
def two_atom_path(tmp_path):
    p = tmp_path / "two_atoms.json"
    p.write_text(
        json.dumps(
            {
                "atoms": [
                    {"theta": 0.0, "mass": 1.0},
                    {"theta": math.pi, "mass": 1.0},
                ]
            }
        )
    )
    return p


@pytest.fixture
def tangential_path(tmp_path):
    p = tmp_path / "tangential.json"
    p.write_text(
        json.dumps(
            {
                "tails": [
                    {
                        "kind": "TangentialSummable",
                        "anchor_theta": 0.0,
                        "side": "upper",
                        "rho": 4.0,
                    }
                ]
            }
        )
    )
    return p


class TestGroupCommand:
    def test_one_atom_line(self, one_atom_path, capsys):
        assert run(["group", str(one_atom_path)]) == 0
        out = capsys.readouterr().out
        assert "n=1 k=1 d=1 iso=Z" in out

    def test_two_atom_semidirect(self, two_atom_path, capsys):
        assert run(["group", str(two_atom_path)]) == 0
        out = capsys.readouterr().out
        assert "n=2 k=2 d=2 iso=Z^2 ⋊ Z_2" in out
        assert "presentation: ⟨x1,x2,y | y^2=e, x1x2=x2x1, y·x1=x2·y⟩" in out


class TestClassifyCommand:
    def test_tangential_line_format(self, tangential_path, capsys):
        assert run(["classify", str(tangential_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("theta=0 type=1a L=")
        assert "err=" in out

    def test_atom_lines(self, two_atom_path, capsys):
        assert run(["classify", str(two_atom_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theta=0 type=2"
        assert lines[1].startswith("theta=3.14159265359 type=2")
        assert any(line.startswith("arc=0 ") and "type=2" in line for line in lines)


class TestMapsCommand:
    def test_csv_files_and_columns(self, two_atom_path, tmp_path, capsys):
        out_dir = tmp_path / "maps"
        assert run(["maps", str(two_atom_path), "--out", str(out_dir)]) == 0
        files = sorted(p.name for p in out_dir.glob("*.csv"))
        assert files == ["map_x1.csv", "map_x2.csv", "map_y.csv"]
        with open(out_dir / "map_y.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "x_theta", "theta_err_cert"]
        for t, x, cert in rows[1:]:
            assert float(cert) < 1e-8
            want = (float(t) + math.pi) % (2.0 * math.pi)
            assert abs(float(x) - want) < 1e-8

    def test_trivial_group_message(self, tangential_path, tmp_path, capsys):
        out_dir = tmp_path / "maps"
        assert run(["maps", str(tangential_path), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "trivial" in out


class TestVerifyCommand:
    def test_clean_run_exits_zero(self, two_atom_path, capsys):
        code = run(["verify", str(two_atom_path), "--samples", "64", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "phase_derivative:" in out
        assert "PASS" in out

    @pytest.mark.parametrize("control", ["perturbed", "folded", "wrong-rotation"])
    def test_controls_exit_one(self, two_atom_path, capsys, control):
        code = run(
            [
                "verify",
                str(two_atom_path),
                "--samples",
                "64",
                "--seed",
                "3",
                "--control",
                control,
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "1 check(s) failed" in out


class TestEmitCommand:
    def test_csv_columns_monotone_phase(self, two_atom_path, tmp_path):
        out_dir = tmp_path / "emit"
        assert run(["emit", str(two_atom_path), "--out", str(out_dir), "--samples", "32"]) == 0
        with open(out_dir / "emit_arc0.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "arg_theta_unwrapped", "derivative"]
        phases = [float(r[1]) for r in rows[1:]]
        assert phases == sorted(phases)
        assert all(float(r[2]) > 0 for r in rows[1:])

    def test_rerun_writes_new_files(self, two_atom_path, tmp_path):
        # an old output is replaced by a new file, not truncated in place
        out_dir = tmp_path / "emit"
        argv = ["emit", str(two_atom_path), "--out", str(out_dir), "--samples", "32"]
        assert run(argv) == 0
        path = out_dir / "emit_arc0.csv"
        first = path.read_text()
        kept = tmp_path / "kept.csv"
        os.link(path, kept)
        path.write_text("stale\n")
        assert run(argv) == 0
        assert path.read_text() == first
        assert kept.read_text() == "stale\n"


class TestErrors:
    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = run(["classify", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        code = run(["classify", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"zeros": [{"modulus": 2.0, "argument": 0.0}]}')
        code = run(["classify", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "modulus" in err

    def test_policy_flags_threaded(self, two_atom_path, capsys):
        code = run(["group", str(two_atom_path), "--tail-terms", "32",
                    "--phase-tol", "1e-8"])
        assert code == 0
