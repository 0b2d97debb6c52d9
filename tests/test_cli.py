"""Command-line behavior: formats, exit codes, determinism."""

import dataclasses
import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from legcurves import char2 as c2
from legcurves import classify, cli, supersingular
from legcurves.field import DEFAULT_ENUMERATION_CAP, EnumerationCapError


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

    def test_one_cap_rule_for_a_single_p_and_a_range(self, capsys):
        # GF(11^2) is above the cap: the row comes without roots, whether
        # p = 11 is asked alone or inside a range
        assert run_main(["supersingular", "--p", "11", "--max-q", "100"]) == 0
        (alone,) = json.loads(capsys.readouterr().out)
        assert run_main(["supersingular", "--p-max", "13",
                         "--max-q", "100"]) == 0
        by_p = {r["p"]: r for r in json.loads(capsys.readouterr().out)}
        assert alone == by_p[11]
        assert alone["roots"] is None and by_p[7]["roots"] is not None


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


class TestCapOverflowInRange:
    @pytest.mark.parametrize("argv", [
        ["classify", "--q-max", "30", "--max-q", "20"],
        ["char2", "--n-max", "4", "--max-q", "8"],
    ])
    def test_exit_two_and_no_rows(self, argv, capsys):
        # the first values fit the cap, a later one does not
        assert run_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "enumeration cap" in captured.err


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
        ["count", "--q", "9", "--max-q", "2097152"],
        ["char2", "--n", "0"],
        ["char2", "--n", "-1"],
        ["char2", "--n", "70"],
        ["char2", "--n", "3", "--beta", "99"],
        ["char2", "--n", "3", "--beta", "-1"],
        ["char2", "--n-max", "4", "--beta", "3"],
        # above the cap: refused before any factoring or scan
        ["count", "--q", "1048583"],
        ["count", "--q", "1000000000000000003"],
        ["supersingular", "--p", "1000000000000000003"],
        ["classify", "--q-max", "100000000000"],
    ])
    def test_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == 2

    def test_prime_above_the_cap_names_the_cap(self, capsys):
        # 1048583 is the first prime above 2^20, not a non-prime-power
        with pytest.raises(SystemExit) as exc:
            run_main(["count", "--q", "1048583"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"enumeration cap {DEFAULT_ENUMERATION_CAP}" in err
        assert "not an odd prime power" not in err

    def test_invariant_failure_exits_one(self, monkeypatch, capsys):
        def boom(q, cap=None, with_attained=True):
            raise RuntimeError("synthetic breakage")
        monkeypatch.setattr(classify, "census", boom)
        assert run_main(["classify", "--q", "9"]) == 1
        assert "synthetic breakage" in capsys.readouterr().err


# sha256 of each command's stdout; the table bytes must stay the same
# whenever the arithmetic underneath is reworked
GOLDEN_DIGESTS = [
    ("classify --q-max 50", "json",
     "8110391d7ab939aaee5c319f802b602f646838349d0b73d5411cc8872618ed87"),
    ("classify --q-max 50", "csv",
     "0f48dfd2393ce7aa35e0f52685ddd2d975f14f378ca34854e97ecea0ca375428"),
    ("census --q-max 50", "json",
     "ccd11f081497d9aecea5338932bb6d99093dab8c145e2493ff2fc3204a85c0b7"),
    ("census --q-max 50", "csv",
     "0e790195c643463a095f8248e3aca86a56fc8ced04c38c89ebf2585db1a71403"),
    ("stats --q-max 50", "json",
     "31ba53ad413d60531c59f2792dcf858f909b046c2e53356680894df099ccdfd1"),
    ("stats --q-max 50", "csv",
     "63a2ceb55bc04a4cb698119a3a1133378e714dfd9cdf0ea5a9b6cf882d35b42c"),
    ("count --q 27", "json",
     "1bed74a64524fd20c30510c372cd9e890b83b33edc7ba481b48be7a39d8a9bcf"),
    ("count --q 27", "csv",
     "f003196f4021afb736ab5a31ce6ac94096d05c604def8a6d8b4cd2f07d9135ec"),
    ("char2 --n-max 4", "json",
     "31546722fbb9772ded76fafa69fa0d2bcafd09790f68b9a26c644648bceb3905"),
    ("char2 --n-max 4", "csv",
     "ffe50e33089bbc853a6a1ac2743ab6dfb944d80edba18e3919f731d9ebb16d68"),
    ("supersingular --p-max 31", "json",
     "5166c605304721abdade0aa7e5995460edb57c765db1268e4fcb01bab0599b6f"),
    ("supersingular --p-max 31", "csv",
     "20310c8ebc682853132349315d1aafeab2281fe905e641978c0a9f0ef31fa742"),
    ("count --q 2609", "json",
     "2b341def6f064ad5272f8a43304926df700046f1a21db57380ce84f9580530fa"),
    ("count --q 2609", "csv",
     "7501ee9edc93bac39ef4d1a2cdde4f7b09fe536f7d40f4b95db4b1d8a7c09087"),
    ("count --q 2209", "json",
     "c3c850f71ea308f7b59e8d06c62c2f1c762428e7c0b5c245a4baf0fbfb67f633"),
    ("count --q 2209", "csv",
     "ae5f2e92b88ee73f532df425d15df3db87d457181baef2522d8e88a28d4ce184"),
    ("count --q 729", "json",
     "0a70a076540bb8e694c0824c523088c552f25a8efddc72b9c08e6d59a2fe038d"),
    ("count --q 729", "csv",
     "59fdd22fb2bedb7e7333182e4c1d86079e1300d87cfdcad34fc8cebcd8df99ca"),
    ("supersingular --p-max 199", "json",
     "310a8bcebaa8680e38640581bfe8114f69136d0ab1e20eca877a93b08052ce97"),
    ("supersingular --p-max 199", "csv",
     "611fdc54b32e822503d1643ce73a2eef74f6e1639f22293b0ebbe6429645b3db"),
    # n = 9 is above char2._LITERAL_CAP: no literal scan backs the counts
    ("char2 --n 9", "csv",
     "9a341c22e8797dbe9e6bc76bd3282e0b8c63117b330cd5f70f5c1feaed67864f"),
    # Tr(1) = 1 for odd n: every count is 2 mod 4, the q - 1 - z branch
    ("char2 --n 9 --beta 1", "csv",
     "7909bde6ae86dd53fc5593d03abe7ed84d81a572ef9c5e0718a905243ce2dbf2"),
    # extension fields where some Hasse-interval counts belong to no curve
    ("census --q-max 200", "json",
     "d1c7b1b243da422588acec0bce67a00e1f3c66a0511349946defac20cb0296ee"),
    ("census --q-max 200", "csv",
     "c2207f863c2d054e188bc7ba389030aa7cb9eb4ec3918f10306aa190ce473fdb"),
    ("classify --q 343", "csv",
     "0ff8ac2a07fa609f46f58e827b5fc741a991e9ff3edad70ea1af6c41d473e311"),
    ("classify --q 625", "csv",
     "ca9c02604111c418f69e733fe478712534b738364d14573b6bb41f59dfc7f5c4"),
    # the literal count backs every lambda of these tables
    ("stats --q 953 --aux-cap 1000", "json",
     "0e89e1eb4802dc327e4784cd4e4895d358d19a0340ac5f25885cf32410ae4d06"),
    ("stats --q 953 --aux-cap 1000", "csv",
     "0288629b401fef31abbd6f69c64c863682edf94721df6f3d01f4ecec32bc3c9d"),
    # extension-field count tables at 3^8 and 5^6, taken before the kernel
    # moved to the log-indexed correlation
    ("count --q 6561", "json",
     "0e3c6612c330c6378471882bfc4306e1f3df3bef88d40e7fb838f8885de06a51"),
    ("count --q 6561", "csv",
     "6589bd5b954c1c72a8c9f46af2dfb832f5f1a39201d2288da9982a1153795c0a"),
    ("count --q 15625", "json",
     "6d60072c4631d459d32f623f430d5bc4537cd3c4f7803bf6dfa702d26fa298ec"),
    ("count --q 15625", "csv",
     "8dd9876806b4081715d9128558cb3a034ff8321aaf5790f4949c0525ce49d07c"),
    ("stats --q 343", "json",
     "e44efcf5b0ba01e169ae0212b890fa023c42d6bd8dc66c3cab5e5c94c5bae9c2"),
    ("stats --q 343", "csv",
     "9263956a94d2e923b6ff564b0510dd2a39dfff168ebb39a7ae4f71e8a76330a6"),
    # the benchmark's other JSON tables, taken while JSON was still
    # rendered by json.dumps(indent=2)
    ("count --q 1369", "json",
     "3dc8594f9ec4539de82e199907ddc53f803c75696f64a27c1ee67f300a7d9b86"),
    ("count --q 3433", "json",
     "c2a33bc808832ecca5d6814b2b285a8485f561dc2aae7f884e6d319bd4eb6ab5"),
    ("classify --q 1013", "json",
     "e053e53645a8a9f79a01659ca9eb23e25e6f87f6a29ee61030b24a7a26b36dfd"),
]


def _golden_ids(entries):
    """command-format, with the command's input added when an earlier
    entry already has that id, so appended entries rename no old id."""
    ids = []
    for command, fmt, _ in entries:
        words = command.split()
        tag = f"{words[0]}-{fmt}"
        if tag in ids:
            tag = f"{words[0]}{words[-1]}-{fmt}"
        ids.append(tag)
    return ids


@pytest.mark.parametrize("command, fmt, digest", GOLDEN_DIGESTS,
                         ids=_golden_ids(GOLDEN_DIGESTS))
def test_golden_bytes(command, fmt, digest, capsys):
    assert run_main(command.split() + ["--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


def reference_json(rows):
    """What the JSON renderer must reproduce byte for byte."""
    return json.dumps(rows, indent=2, ensure_ascii=False) + "\n"


class TestJsonRenderer:
    @pytest.mark.parametrize("argv", [
        "count --q 27", "count --q 9 --lam 3 --lam 2", "count --q 13",
        "classify --q-max 25", "census --q-max 50",
        "supersingular --p-max 31", "supersingular --p-max 31 --max-q 100",
        "stats --q-max 25", "char2 --n-max 3", "char2 --n 3 --beta 1",
    ])
    def test_every_command_matches_the_reference(self, argv):
        parser = cli.build_parser()
        config = cli._config(parser.parse_args(argv.split()), parser)
        rows = cli._build_rows(config)
        assert rows
        assert cli.render(rows, "json", config.command) == \
            reference_json(rows)

    @pytest.mark.parametrize("rows", [
        [],
        [{}],
        [{}, {"a": 1}, {}],
        [{"empty_list": [], "empty_dict": {}, "nested": [[], [[]], {}]}],
        [{"lists": [[1, 2], [3, [4, 5]], []], "dict": {"k": [1, {"j": {}}]}}],
        [{"none": None, "yes": True, "no": False, "zero": 0}],
        [{"neg": -7, "huge": 10 ** 100, "neg_huge": -(2 ** 70)}],
        [{"reference_density": 2.0, "third": 1 / 3, "tiny": 5e-324,
          "big": 1e300, "neg": -0.0}],
        [{"nan": float("nan"), "inf": float("inf"),
          "ninf": float("-inf")}],
        [{"s": 'quote " backslash \\ percent % %s %% newline \n tab \t',
          "u": "λ = 𝔽_q, naïve \u2028 \x00 \x7f"}],
        [{'key "quoted"': 1, "per%cent": 2, "%s": 3, "%%": "%d",
          "λ": 4, "new\nline": 5, "": 6}],
        [{"tuple": (1, (2, 3)), "bool_list": [True, False, None]}],
    ], ids=["empty", "empty-row", "empty-rows-mixed", "empty-values",
            "nested", "singletons", "big-ints", "floats", "float-words",
            "strings", "keys", "tuples"])
    def test_edge_rows_match_the_reference(self, rows):
        assert cli.render(rows, "json", "count") == reference_json(rows)

    def test_a_shared_value_renders_in_every_row(self):
        shared = [3, [1, 0, 2], {"a": None}, "s"]
        rows = [{"p": 3, "n": 2, "modulus": shared, "lambda": lc,
                 "other": shared[1]} for lc in range(2, 40)]
        assert cli.render(rows, "json", "count") == reference_json(rows)

    def test_two_key_orders_in_one_list(self):
        rows = [{"a": 1, "b": [2]}, {"b": [2], "a": 1}, {"a": 1, "b": [2]},
                {"a": 1}, {"b": True, "a": "x", "c": None}]
        assert cli.render(rows, "json", "count") == reference_json(rows)

    def test_an_unknown_value_type_raises(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli.render([{"a": object()}], "json", "count")


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

    def test_suite_times_go_to_stderr_in_suite_order(self, capsys):
        assert run_main(["verify-all", "--scale", "smoke"]) == 0
        captured = capsys.readouterr()
        names = [name for name, _ in cli.ALL_SUITES]
        assert captured.out.splitlines() == (
            [f"ok   {name}" for name in names] + ["10/10 suites passed"])
        # time, then a positive case count, then the name
        timed = [re.fullmatch(r"(\d+\.\d\d) s  ([1-9]\d*) cases  (.+)", line)
                 for line in captured.err.splitlines()]
        assert len(timed) == 10 and all(timed), captured.err
        assert [m[3] for m in timed] == names

    def test_failure_exits_one(self, monkeypatch, capsys):
        fake = (("always fine", lambda scale: ([], 1)),
                ("always broken",
                 lambda scale: (["q=3: synthetic failure"], 1)))
        monkeypatch.setattr(cli, "ALL_SUITES", fake)
        assert run_main(["verify-all", "--scale", "smoke"]) == 1
        out = capsys.readouterr().out
        assert "FAIL always broken: q=3: synthetic failure" in out
        assert "1/2 suites passed" in out

    def test_raising_suite_fails_and_the_rest_still_run(self, monkeypatch,
                                                         capsys):
        def boom(scale):
            raise RuntimeError("a point order does not divide the group order")
        fake = (("always raises", boom),
                ("always fine", lambda scale: ([], 1)))
        monkeypatch.setattr(cli, "ALL_SUITES", fake)
        assert run_main(["verify-all", "--scale", "smoke"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "FAIL always raises: raised RuntimeError: a point order does "
            "not divide the group order",
            "ok   always fine",
            "1/2 suites passed",
        ]

    def test_a_suite_that_checked_no_case_fails(self, monkeypatch, capsys):
        # an empty range passes every check vacuously: it must not pass
        fake = (("checks nothing", lambda scale: ([], 0)),
                ("always fine", lambda scale: ([], 1)))
        monkeypatch.setattr(cli, "ALL_SUITES", fake)
        assert run_main(["verify-all", "--scale", "smoke"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "FAIL checks nothing: checked no cases",
            "ok   always fine",
            "1/2 suites passed",
        ]
        assert "0 cases  checks nothing" in captured.err


    # the paper claims that only the unit tests used to call: a wrong
    # claim must now fail its verify-all suite
    def test_isogeny_window_checks_the_criterion(self, monkeypatch):
        # drops the (r+1)^2 exception for square q
        monkeypatch.setattr(classify, "predict_legendre_isogenous",
                            lambda q, n: n % 4 == 0)
        failures, _ = cli.suite_isogeny_window("smoke")
        assert any("q=9 N=4: the criterion predicts True" in msg
                   for msg in failures), failures

    def test_char2_suite_checks_the_twist_classes(self, monkeypatch):
        # ignores the trace of the twist
        monkeypatch.setattr(c2, "char2_is_isomorphic",
                            lambda e1, e2: e1.lam == e2.lam)
        failures, _ = cli.suite_char2("smoke")
        assert any("twist classes" in msg for msg in failures), failures[:3]

    # each supersingular check made to fail on every p: suite, the
    # function of `supersingular` it reads, and the broken version
    SS_MUTANTS = {
        "roots": (cli.suite_supersingular_roots, "supersingular_lambdas",
                  lambda real: lambda p: dataclasses.replace(
                      real(p), roots=real(p).roots[1:])),
        "eighth": (cli.suite_supersingular_roots, "verify_eighth_power",
                   lambda real: lambda p: False),
        "formula": (cli.suite_root_count_formula, "verify_sp_formula",
                    lambda real: lambda p: False),
        "structure": (cli.suite_supersingular_structure,
                      "verify_ss_structure", lambda real: lambda p: False),
    }

    @staticmethod
    def _replay_status(replay):
        """Exit status of a replay run in this process, where it sees
        the monkeypatched module."""
        if replay.startswith("legcurves "):
            return run_main(replay.split()[1:])
        code = re.fullmatch(r'python -c "(.+)"', replay)[1]
        try:
            exec(code, {})
        except SystemExit as exc:
            return int(exc.code or 0)
        return 0

    @pytest.mark.parametrize("mutant", SS_MUTANTS)
    def test_supersingular_failures_end_with_their_replay(self, monkeypatch,
                                                          capsys, mutant):
        suite, name, broken = self.SS_MUTANTS[mutant]
        monkeypatch.setattr(supersingular, name,
                            broken(getattr(supersingular, name)))
        # a failed check replays as a call of that check
        replay = ("legcurves supersingular --p {p}" if mutant == "roots" else
                  f'python -c "from legcurves.supersingular import {name}; '
                  f'raise SystemExit(not {name}({{p}}))"')
        failures, cases = suite("smoke")
        assert len(failures) == cases > 0
        found = [re.fullmatch(r"p=(\d+): .+; replay: (.+)", msg)
                 for msg in failures]
        assert all(m and m[2] == replay.format(p=m[1]) for m in found), \
            failures[:3]
        last = found[-1][2]
        # the replay reproduces the failure while the mutant is in place
        assert self._replay_status(last) == 1
        monkeypatch.undo()
        capsys.readouterr()
        assert self._replay_status(last) == 0
        if mutant == "roots":
            assert f'"p": {found[-1][1]}' in capsys.readouterr().out

    def test_char2_suite_checks_the_odd_intersection(self, monkeypatch):
        monkeypatch.setattr(c2, "verify_odd_intersection",
                            lambda n, cap=None: n != 3)
        assert cli.suite_char2("smoke") == (
            ["n=3: some trace intersection count is even"], 5)


CAP = DEFAULT_ENUMERATION_CAP
N_CAP = CAP.bit_length() - 1      # the largest n with 2^n <= CAP
ANY_JOBS = (1, CAP, CAP + 1, 10 ** 18)

# per command: numeric flag -> (the other arguments it runs with, the
# flag's cap, the values it accepts among -1, 0, 1, cap, cap + 1 and
# 10^18); every other value must be refused
ARGUMENT_TABLE = {
    "count": {"--q": ([], CAP, ()), "--lam": (["--q", "5"], CAP, ()),
              "--jobs": (["--q", "5"], CAP, ANY_JOBS),
              "--max-q": (["--q", "5"], CAP, (CAP,))},
    **{command: {"--q": ([], CAP, ()), "--q-max": ([], CAP, (CAP,)),
                 "--jobs": (["--q", "5"], CAP, ANY_JOBS),
                 "--max-q": (["--q", "5"], CAP, (CAP,))}
       for command in ("classify", "census", "stats")},
    "supersingular": {"--p": ([], CAP, ()), "--p-max": ([], CAP, (CAP,)),
                      "--jobs": (["--p", "5"], CAP, ANY_JOBS),
                      # a cap below p^2 lists the row without roots
                      "--max-q": (["--p", "5"], CAP, (0, 1, CAP))},
    "char2": {"--n": ([], N_CAP, (1, N_CAP)),
              "--n-max": ([], N_CAP, (1, N_CAP)),
              "--beta": (["--n", "1"], CAP, (0, 1)),
              "--jobs": (["--n", "1"], CAP, ANY_JOBS),
              "--max-q": (["--n", "1"], CAP, (CAP,))},
}
ARGUMENT_TABLE["stats"]["--aux-cap"] = (["--q", "5"], CAP,
                                        (0, 1, CAP, CAP + 1, 10 ** 18))


class TestArgumentEdges:
    @pytest.mark.parametrize("command", sorted(ARGUMENT_TABLE))
    def test_every_numeric_flag_at_its_edges(self, command, capsys):
        # a refused value exits 2 at once with nothing on stdout; an
        # accepted one passes argument validation, and no sweep runs
        parser = cli.build_parser()
        for flag, (others, cap, valid) in ARGUMENT_TABLE[command].items():
            for value in (-1, 0, 1, cap, cap + 1, 10 ** 18):
                argv = [command, *others, flag, str(value)]
                if value in valid:
                    config = cli._config(parser.parse_args(argv), parser)
                    assert config.values, argv
                    continue
                with pytest.raises((SystemExit, EnumerationCapError)):
                    cli._config(parser.parse_args(argv), parser)
                start = time.perf_counter()
                try:
                    code = run_main(argv)
                except SystemExit as exc:
                    code = exc.code
                assert time.perf_counter() - start < 1, argv
                assert code == 2, argv
                assert capsys.readouterr().out == "", argv


class FakePool:
    """A stand-in for ProcessPoolExecutor that records its worker count
    and maps in this process."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestPool:
    def test_workers_never_exceed_tasks_or_cores(self, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "started", [])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        qs = [3, 5, 7, 9, 11, 13]
        serial = cli._build_rows(cli.RunConfig("stats", qs))
        for jobs, tasks, workers in ((100000, qs, 4), (100000, qs[:3], 3),
                                     (2, qs, 2)):
            rows = cli._build_rows(cli.RunConfig("stats", tasks, jobs=jobs))
            assert rows == serial[:len(tasks)]
            assert FakePool.started[-1] == workers
        # an unknown core count gives one worker; one task, no pool
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        cli._build_rows(cli.RunConfig("stats", qs, jobs=100000))
        cli._build_rows(cli.RunConfig("stats", [3], jobs=100000))
        assert FakePool.started == [4, 3, 2, 1]

    def test_the_cli_imports_no_pool_machinery(self):
        # concurrent.futures loads only when a pool starts
        code = ("import sys, legcurves.cli; "
                "print('concurrent.futures' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=Path(cli.__file__).resolve().parents[1])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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
