"""Command-line behavior: formats, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from legcurves import classify, cli


def run_main(argv):
    return cli.main(argv)


def read(path):
    return path.read_bytes()


class TestClassifyCommand:
    def test_csv_shows_excluded_exception(self, tmp_path, capsys):
        assert run_main(["classify", "--q", "9", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == ("q,N,witness_count,first_witness,"
                            "legendre_isogenous,excluded_reason")
        assert lines[1] == "9,4,0,,0,maximal/minimal exception (r+1)^2"
        assert all('"' not in line for line in lines)

    def test_json_records(self, capsys):
        assert run_main(["classify", "--q", "9"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["N"] for r in rows] == list(range(4, 17))
        by_n = {r["N"]: r for r in rows}
        assert by_n[4]["attained"] is True
        assert by_n[4]["legendre_isogenous"] is False
        assert by_n[8]["witness_count"] == 4
        assert by_n[8]["first_witness"] == 3
        assert by_n[16]["legendre_isogenous"] is True
        # fixed key order
        assert list(rows[0]) == ["q", "N", "witness_count", "first_witness",
                                 "legendre_isogenous", "excluded_reason",
                                 "attained"]

    def test_writes_output_file(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run_main(["classify", "--q", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())[0]["q"] == 7


class TestCountCommand:
    def test_frozen_counts(self, capsys):
        assert run_main(["count", "--q", "5"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["lambda"], r["count"]) for r in rows] == \
            [(2, 8), (3, 4), (4, 8)]
        assert rows[0]["p"] == 5 and rows[0]["n"] == 1

    def test_lambda_selection(self, capsys):
        assert run_main(["count", "--q", "13", "--lam", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["lambda"] == 2

    def test_rejects_bad_lambda(self):
        with pytest.raises(SystemExit) as exc:
            run_main(["count", "--q", "5", "--lam", "1"])
        assert exc.value.code == 2


class TestStatsCommand:
    def test_csv_all_ok(self, capsys):
        assert run_main(["stats", "--q-max", "25", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "q,total,main_term,excess,formula_ok"
        assert lines[1] == "3,4,4,0,1"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_json_includes_aux(self, capsys):
        assert run_main(["stats", "--q", "9"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["triple_count"] == 81
        assert row["nodal_at_zero"] == 8
        assert row["nodal_at_one"] == 8


class TestSupersingularCommand:
    def test_rows(self, capsys):
        assert run_main(["supersingular", "--p-max", "20"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["p"] for r in rows] == [3, 5, 7, 11, 13, 17, 19]
        by_p = {r["p"]: r for r in rows}
        assert by_p[3]["prime_root_count"] == 1
        assert by_p[5]["prime_root_count"] == 0
        assert by_p[7]["predicted"] == 3
        assert by_p[19]["class_number"] == 1
        assert all(r["ok"] for r in rows)
        assert by_p[7]["roots"] is not None

    def test_rejects_non_prime(self):
        with pytest.raises(SystemExit) as exc:
            run_main(["supersingular", "--p", "9"])
        assert exc.value.code == 2


class TestChar2Command:
    def test_range_rows(self, capsys):
        assert run_main(["char2", "--n-max", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,lambda,beta,count"
        assert lines[1] == "1,1,0,4"
        # one row per nonzero lambda for each degree
        assert len(lines) == 1 + 1 + 3 + 7

    def test_beta_flag(self, capsys):
        assert run_main(["char2", "--n", "2", "--beta", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["beta"] == 2 for r in rows)
        assert all(r["count"] % 4 != 0 for r in rows)  # trace-1 beta


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["classify", "--q", "9", "--q-max", "25"],
        ["classify", "--q", "15"],
        ["classify", "--q", "8"],
        ["census"],
        ["stats", "--q", "4"],
        ["char2", "--n", "3", "--n-max", "4"],
        ["supersingular"],
        ["supersingular", "--p", "4"],
        ["count", "--q", "6"],
        ["count", "--q", "9", "--max-q", "5"],
        ["classify", "--q", "9", "--jobs", "0"],
        ["nonsense"],
    ])
    def test_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == 2

    def test_invariant_failure_exits_one(self, monkeypatch, capsys):
        def boom(q, cap=None, with_attained=True):
            raise RuntimeError("synthetic breakage")
        monkeypatch.setattr(classify, "census", boom)
        assert run_main(["classify", "--q", "9"]) == 1
        assert "synthetic breakage" in capsys.readouterr().err


class TestDeterminism:
    def test_bytes_identical_across_runs_and_jobs(self, tmp_path):
        paths = [tmp_path / f"out{i}" for i in range(3)]
        base = ["classify", "--q-max", "25", "--format", "csv"]
        assert run_main(base + ["--out", str(paths[0])]) == 0
        assert run_main(base + ["--out", str(paths[1])]) == 0
        assert run_main(base + ["--jobs", "2", "--out", str(paths[2])]) == 0
        blobs = [read(p) for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_json_jobs_invariant(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_main(["stats", "--q-max", "30", "--out", str(a)]) == 0
        assert run_main(["stats", "--q-max", "30", "--jobs", "3",
                         "--out", str(b)]) == 0
        assert read(a) == read(b)


class TestVerifyAll:
    def test_smoke_scale_passes(self, capsys):
        assert run_main(["verify-all", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "10/10 suites passed" in out
        assert "FAIL" not in out

    def test_failure_exits_one(self, monkeypatch, capsys):
        fake = (("always fine", lambda scale: []),
                ("always broken", lambda scale: ["q=3: synthetic failure"]))
        monkeypatch.setattr(cli, "ALL_SUITES", fake)
        assert run_main(["verify-all", "--scale", "smoke"]) == 1
        out = capsys.readouterr().out
        assert "FAIL always broken: q=3: synthetic failure" in out
        assert "1/2 suites passed" in out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "legcurves", "count", "--q", "5",
             "--format", "csv"],
            capture_output=True, text=True,
            # run the package the tests import, installed or not
            cwd=Path(cli.__file__).resolve().parents[1])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "5,1,2,8"
