import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genus3 import tablecli
from genus3.tablecli import (
    FixtureError,
    load_fixture,
    main,
    oracle_selftest,
    packaged_fixture_path,
    verify,
    write_fixture,
)

MISSING = object()


def bundled_rows(table):
    return load_fixture(packaged_fixture_path(table))


class TestLoadFixture:
    def test_row_counts(self):
        assert len(bundled_rows("3.25")) == 45
        assert len(bundled_rows("2.3")) == 32
        assert len(bundled_rows("5.7")) == 5
        assert len(bundled_rows("2.8.2")) == 4
        assert len(bundled_rows("4.4")) == 2

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"table": "5.7", "rows": []}')
        assert load_fixture(path) == []

    def test_missing_field_names_row_and_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "table": "3.25",
            "rows": [
                {"d": 1, "splitting": [-3, 0, 0, 0], "status": "x"},
                {"splitting": [0, 0, 0, 0], "status": "x"},
            ],
        }))
        with pytest.raises(FixtureError, match=r"row 1: missing field 'd'"):
            load_fixture(path)

    def test_unknown_table_id(self, tmp_path):
        path = tmp_path / "unknown.json"
        path.write_text('{"table": "9.9", "rows": []}')
        with pytest.raises(FixtureError, match="unknown table id"):
            load_fixture(path)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"table": "5.7", "rows": [}')
        with pytest.raises(FixtureError, match="line 1"):
            load_fixture(path)

    def test_non_integer_splitting_rejected(self, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text(json.dumps({
            "table": "3.25",
            "rows": [{"d": 1, "splitting": [-3, 0, 0, 0.5], "status": "x"}],
        }))
        with pytest.raises(FixtureError, match="integer array"):
            load_fixture(path)

    def test_boolean_splitting_entry_rejected(self, tmp_path):
        path = tmp_path / "bools.json"
        path.write_text(json.dumps({
            "table": "3.25",
            "rows": [{"d": 4, "splitting": [True, 0, 0, 0], "status": "x"}],
        }))
        with pytest.raises(FixtureError, match="row 0: field 'splitting' must be an integer array"):
            load_fixture(path)

    def test_scalar_splitting_rejected(self, tmp_path, capsys):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({
            "table": "3.25",
            "rows": [{"d": 4, "splitting": 5, "status": "x"}],
        }))
        with pytest.raises(FixtureError, match="row 0: field 'splitting' must be an integer array"):
            load_fixture(path)
        assert main(["verify", "--table", "3.25", "--fixture", str(path)]) == 2
        assert "integer array" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, index, field, value",
        [
            ("3.25", 0, "d", "4"),
            ("2.3", 3, "A2", "two"),
            ("5.7", 0, "r", True),
            # family-specific 2.3 parameters
            ("2.3", 6, "e", "0"),
            ("2.3", 6, "x", None),
            ("2.3", 1, "KK", True),
        ],
    )
    def test_non_integer_numeric_field_is_a_schema_error(
        self, tmp_path, capsys, table, index, field, value
    ):
        rows = [dict(r.params) for r in bundled_rows(table)]
        rows[index][field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"table": table, "rows": rows}))
        assert main(["verify", "--table", table, "--fixture", str(path)]) == 2
        message = f"row {index}: field {field!r} must be an integer, got {value!r}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, index, field, value",
        [
            ("3.25", 10, "splitting", [1, 0, 0, -2]),  # row 10 reversed
            ("3.25", 45, "splitting", [0, 0, 0]),  # an appended n = 2 row
            ("2.3", 4, "weights", 5),
            ("2.3", 4, "weights", [2, "a"]),
            ("2.3", 5, "weights", [0]),
            ("2.3", 6, "x", MISSING),
            ("2.3", 0, "family", "IX"),
            # degrees and splitting sums must obey the quadric parameter relations
            ("3.25", 0, "d", 13),
            ("3.25", 0, "d", 0),
            ("3.25", 0, "splitting", [0, 0, 0, 0]),  # sums to 0, not e = 1 - 4
            # K.A + A^2 = 5 is odd, so the II-1 row admits no sectional genus
            ("2.3", 1, "KA", 3),
        ],
    )
    def test_malformed_field_names_row_and_field(
        self, tmp_path, capsys, table, index, field, value
    ):
        rows = [dict(r.params) for r in bundled_rows(table)]
        if index == len(rows):
            rows.append({"d": 4, "status": "x"})
        if value is MISSING:
            del rows[index][field]
        else:
            rows[index][field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"table": table, "rows": rows}))
        assert main(["verify", "--table", table, "--fixture", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"row {index}: " in err and repr(field) in err

    def test_declared_table_must_be_the_requested_one(self, tmp_path, capsys):
        path = tmp_path / "declared.json"
        path.write_text('{"table": "2.3", "rows": []}')
        assert load_fixture(path) == []
        with pytest.raises(FixtureError, match=r"declares table '2\.3', not table '3\.25'"):
            load_fixture(path, "3.25")
        assert main(["verify", "--table", "3.25", "--fixture", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'2.3'" in captured.err and "'3.25'" in captured.err

    def test_duplicate_rows_name_both_indexes(self, tmp_path, capsys):
        for table in ("3.25", "5.7"):
            rows = [dict(r.params) for r in bundled_rows(table)]
            rows.append(dict(rows[1]))
            path = tmp_path / f"duplicate_{table}.json"
            path.write_text(json.dumps({"table": table, "rows": rows}))
            with pytest.raises(FixtureError, match=rf"rows 1 and {len(rows) - 1} share the key"):
                load_fixture(path)
            assert main(["verify", "--table", table, "--fixture", str(path)]) == 2
            assert "share the key" in capsys.readouterr().err

    def test_round_trip_is_lossless(self, tmp_path):
        for table in ("3.25", "2.3", "5.7", "2.8.2", "4.4"):
            rows = bundled_rows(table)
            out = tmp_path / f"copy_{table}.json"
            write_fixture(out, rows)
            assert load_fixture(out) == rows

    def test_write_fixture_needs_rows_of_one_table(self, tmp_path):
        path = tmp_path / "empty.json"
        with pytest.raises(ValueError, match="exactly one table"):
            write_fixture(path, [])
        assert not path.exists()
        mixed = bundled_rows("5.7")[:1] + bundled_rows("4.4")[:1]
        with pytest.raises(ValueError, match="exactly one table"):
            write_fixture(path, mixed)


class TestVerify:
    def test_3_25_passes_with_expected_warnings(self):
        report = verify("3.25", bundled_rows("3.25"))
        assert report.exit_status == 0
        assert report.counts == {"verified": 45, "beyond-paper": 4}
        beyond = [v for v in report.verdicts if v.verdict == "beyond-paper"]
        assert all(not v.unexpected for v in beyond)
        keys = {v.key for v in beyond}
        assert keys == {
            "d=1 (-2, -1, -1, 1)",
            "d=1 (-1, -1, -1, -1, 1)",
            "d=2 (-1, -1, -1, 1)",
            "d=3 (-1, -1, -1, 2)",
        }

    def test_3_25_missing_row_is_a_failure(self):
        rows = [r for r in bundled_rows("3.25") if r.params["splitting"] != [1, 2, 2, 2]]
        extra_admitted = verify("3.25", rows)
        assert extra_admitted.exit_status == 1
        verdicts = {v.key: v for v in extra_admitted.verdicts}
        assert verdicts["d=11 (1, 2, 2, 2)"].verdict == "beyond-paper"
        assert verdicts["d=11 (1, 2, 2, 2)"].unexpected

    def test_3_25_fake_row_is_paper_only(self):
        rows = bundled_rows("3.25")
        fake = tablecli.ClassificationRow(
            table="3.25",
            key="d=12 (1, 1, 2, 4)",
            params={"d": 12, "splitting": [1, 1, 2, 4], "status": "x"},
        )
        report = verify("3.25", rows + [fake])
        verdicts = {v.key: v for v in report.verdicts}
        assert verdicts["d=12 (1, 1, 2, 4)"].verdict == "paper-only"
        assert "normal-obstruction" in verdicts["d=12 (1, 1, 2, 4)"].note
        assert report.exit_status == 1

    def test_2_3_whitelisted_discrepancy(self):
        report = verify("2.3", bundled_rows("2.3"))
        assert report.exit_status == 0
        assert report.counts == {"verified": 31, "discrepancy": 1}
        flagged = [v for v in report.verdicts if v.verdict == "discrepancy"]
        assert flagged[0].key == "VII-3/e=1" and flagged[0].whitelisted

    def test_2_3_fails_without_whitelist(self):
        rows = []
        for row in bundled_rows("2.3"):
            params = dict(row.params)
            params.pop("expect_discrepancy", None)
            rows.append(
                tablecli.ClassificationRow(
                    table=row.table, key=row.key, params=params,
                    paper_status=row.paper_status, citation=row.citation,
                )
            )
        report = verify("2.3", rows)
        assert report.exit_status == 1

    def test_exact_list_tables(self):
        keys = {
            "5.7": ["(1,1,2)", "(1,2,3)", "(1,3,4)", "(2,2,4)", "(3,1,4)"],
            "2.8.2": ["degT=1", "degT=2", "degT=3", "degT=4"],
            "4.4": ["type I", "type II"],
        }
        for table, expected in keys.items():
            report = verify(table, bundled_rows(table))
            assert report.exit_status == 0
            assert set(report.counts) == {"verified"}
            assert [v.key for v in report.verdicts] == expected

    def test_5_7_detects_tampering(self):
        rows = bundled_rows("5.7")
        tampered = tablecli.ClassificationRow(
            table="5.7", key="(2,1,3)", params={"Ln": 2, "r": 1, "Lpn": 3}
        )
        report = verify("5.7", rows[:-1] + [tampered])
        assert report.exit_status == 1
        verdicts = {v.key: v.verdict for v in report.verdicts}
        assert verdicts["(2,1,3)"] == "paper-only"
        assert verdicts["(3, 1, 4)"] == "beyond-paper"

    def test_table_membership_checked(self):
        with pytest.raises(FixtureError, match="belong"):
            verify("5.7", bundled_rows("2.8.2"))

    def test_report_formats(self):
        report = verify("4.4", bundled_rows("4.4"))
        payload = json.loads(report.to_json())
        assert payload["exit_status"] == 0 and len(payload["verdicts"]) == 2
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("key,verdict") and len(lines) == 3
        assert "exit status: 0" in report.to_text()

    def test_reports_are_deterministic(self):
        first = verify("3.25", bundled_rows("3.25")).to_json()
        second = verify("3.25", bundled_rows("3.25")).to_json()
        assert first == second


class TestSelfTest:
    def test_grid_is_exact(self):
        report = oracle_selftest()
        # the exact grid size, so a change to the ring cannot shrink what is compared
        assert report.grid_points == 2535
        assert report.veronese_points == 507
        assert report.corrected_identity_points == 132
        assert report.grid_mismatches == 0 and report.max_deviation == 0
        assert report.veronese_mismatches == 0
        assert report.corrected_identity_failures == 0

    def test_broken_ring_is_caught(self, monkeypatch, capsys):
        real = tablecli.multiply_classes

        def off_by_one(bundle, factors):
            element = real(bundle, factors)
            if element.degree == bundle.rank and bundle.c1 == 3:
                return element._replace(hf=element.hf + 1)
            return element

        monkeypatch.setattr(tablecli, "multiply_classes", off_by_one)
        report = oracle_selftest()
        # every grid point with c1 = 3: 3 base genera x 5 ranks x 13 twists
        assert report.grid_mismatches == 195
        assert report.max_deviation == 1
        assert report.passed is False
        assert main(["oracle-selftest"]) == 1
        assert "self-test FAILED" in capsys.readouterr().out

    def test_broken_oracle_is_caught(self, monkeypatch):
        real = tablecli.naive_top_degree

        def off_by_one(rank, c1, factors):
            return real(rank, c1, factors) + (1 if rank == 7 else 0)

        monkeypatch.setattr(tablecli, "naive_top_degree", off_by_one)
        report = oracle_selftest()
        # every grid point with rank 7: 3 base genera x 13 c1 x 13 twists
        assert report.grid_mismatches == 507
        assert report.max_deviation == 1
        assert report.passed is False

    def test_ring_broken_for_one_base_genus_is_caught(self, monkeypatch):
        # the oracle's degree is shared across base genera; the ring's must not be
        real = tablecli.multiply_classes

        def off_by_one(bundle, factors):
            element = real(bundle, factors)
            if element.degree == bundle.rank and bundle.base.genus == 2:
                return element._replace(hf=element.hf + 1)
            return element

        monkeypatch.setattr(tablecli, "multiply_classes", off_by_one)
        report = oracle_selftest()
        # every grid point with g(C) = 2: 5 ranks x 13 c1 x 13 twists
        assert report.grid_mismatches == 845
        assert report.max_deviation == 1
        assert report.passed is False

    def test_every_route_runs_its_pinned_number_of_times(self, monkeypatch):
        # every grid point runs the ring route on its own bundle; only the
        # oracle's degree product, a function of (rank, c1, b), is expanded
        # once for all three base genera
        calls = dict.fromkeys(
            ("multiply_classes", "quadric_invariants", "veronese_invariants", "naive_top_degree"), 0
        )

        def counted(name):
            real = getattr(tablecli, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(tablecli, name, counted(name))
        assert oracle_selftest().passed
        assert calls == {
            "multiply_classes": 5070,
            "quadric_invariants": 2535,
            "veronese_invariants": 507,
            "naive_top_degree": 3380,
        }

    def test_variant_identity_counterexample(self):
        report = oracle_selftest()
        featured = report.variant_identity_counterexamples[0]
        assert (featured.n, featured.d, featured.g_C) == (3, 8, 0)
        assert (featured.lhs, featured.rhs) == (40, 24)
        text = report.to_text()
        assert "n=3 d=8 g(C)=0" in text and "PASSED" in text


class TestCli:
    def test_invariants_json(self, capsys):
        assert main(["invariants", "--base-genus", "0", "--rank", "4", "--c1", "4", "--b", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == {"d": 8, "g": 3, "s": 8}

    def test_invariants_veronese(self, capsys):
        code = main(
            ["invariants", "--base-genus", "1", "--rank", "3", "--c1", "2", "--b", "-1", "--veronese"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"d": 4, "g": 3}

    def test_invariants_bad_rank_for_veronese(self, capsys):
        code = main(
            ["invariants", "--base-genus", "0", "--rank", "4", "--c1", "0", "--b", "1", "--veronese"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_enumerate_table_output(self, capsys):
        assert main(["enumerate", "--d", "11"]) == 0
        out = capsys.readouterr().out
        assert "(1, 2, 2, 2)" in out and "admitted" in out
        assert "corank1-empty" in out and "normal-obstruction" in out

    def test_enumerate_json_output(self, capsys):
        assert main(["enumerate", "--d", "9", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        admitted = [tuple(c["splitting"]) for c in payload if c["status"] == "admitted"]
        assert admitted == [(1, 1, 1, 2), (1, 1, 1, 1, 1)]

    def test_enumerate_csv_output(self, capsys):
        assert main(["enumerate", "--d", "12", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("d,n,splitting")
        assert any("corank1-empty" in line for line in lines)

    def test_enumerate_custom_rules_must_bound(self, capsys):
        assert main(["enumerate", "--d", "6", "--rules", "param-consistency"]) == 2
        assert "truncation" in capsys.readouterr().err

    def test_enumerate_empty_dimension_range(self, capsys):
        # an explicit empty range, and d = 13 whose default range is empty
        for argv, d in (
            (["--d", "9", "--n-min", "5", "--n-max", "3"], 9),
            (["--d", "13"], 13),
            (["--d", "13", "--n-min", "4"], 13),
        ):
            assert main(["enumerate", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: empty fibre-dimension range at d = {d}\n" == captured.err

    def test_internal_error_exits_2_without_traceback(self, monkeypatch, capsys):
        # exit 1 means only "unexpected verdict"; any other failure is exit 2
        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(tablecli, "oracle_selftest", broken)
        assert main(["oracle-selftest"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: RuntimeError: boom\n"

    def test_enumerate_unknown_rule(self, capsys):
        assert main(["enumerate", "--d", "6", "--rules", "nonsense"]) == 2

    def test_verify_bundled_tables(self, capsys):
        for table in ("2.3", "3.25", "5.7", "2.8.2", "4.4"):
            assert main(["verify", "--table", table]) == 0
        assert main(["verify", "--table", "3.25", "--format", "json"]) == 0

    def test_verify_missing_fixture(self, capsys):
        assert main(["verify", "--table", "5.7", "--fixture", "/nonexistent.json"]) == 2

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        rows = bundled_rows("2.3")
        stripped = []
        for row in rows:
            params = dict(row.params)
            params.pop("expect_discrepancy", None)
            stripped.append(
                tablecli.ClassificationRow(table=row.table, key=row.key, params=params)
            )
        path = tmp_path / "no_whitelist.json"
        write_fixture(path, stripped)
        assert main(["verify", "--table", "2.3", "--fixture", str(path)]) == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--table", "7.7"])
        assert excinfo.value.code == 2

    def test_selftest_command(self, capsys):
        assert main(["oracle-selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out and "counterexample n=3 d=8 g(C)=0" in out

    def test_selftest_json(self, capsys):
        assert main(["oracle-selftest", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["variant_identity_counterexamples"][0]["n"] == 3

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("table", "f9fac816e78357fb9ccfd75410b6b450b1c15ac7a2c21d90c846c3c65d4abcc6"),
            ("json", "e25af53f413531a3622f99d646a61774302caa683c33e8bd498886ab60f5409c"),
        ],
    )
    def test_selftest_output_is_pinned(self, capsys, fmt, digest):
        # the whole report; the JSON lists all 124 counterexamples in their order
        assert main(["oracle-selftest", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_packaged_fixture_path_rejects_unknown():
    with pytest.raises(FixtureError):
        packaged_fixture_path("1.1")


def test_python_m_entry_point():
    # both module entry points run without a runpy warning on stderr
    src = str(Path(tablecli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("genus3", "genus3.tablecli"):
        result = subprocess.run(
            [sys.executable, "-m", module, "invariants",
             "--base-genus", "0", "--rank", "4", "--c1", "6", "--b", "-2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert json.loads(result.stdout) == {"d": 10, "g": 3, "s": 4}


def test_closed_output_pipe_exits_quietly():
    # a reader that stops early, as `| head -c 10` does, is no fault of genus3:
    # nothing on stderr, and exit 141 (128 + SIGPIPE) rather than 1 or 2
    src = str(Path(tablecli.__file__).resolve().parents[1])
    command = [sys.executable, "-m", "genus3", "enumerate", "--d", "12", "--n-max", "14",
               "--format", "json"]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        assert proc.stdout.read(10) == b"[\n  {\n    "
        proc.stdout.close()  # the output is about 2.3 MB, so the writer meets the closed pipe
        _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (141, b"")
