import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genus3 import classify, tablecli
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

    def test_missing_rows_is_a_schema_error(self, tmp_path, capsys):
        # not an empty table: read as one, it would print 49 UNEXPECTED verdicts
        path = tmp_path / "no_rows.json"
        path.write_text('{"table": "3.25"}')
        with pytest.raises(FixtureError, match=r"missing field 'rows'"):
            load_fixture(path)
        assert main(["verify", "--table", "3.25", "--fixture", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: fixture {path}: missing field 'rows'\n"

    def test_explicit_empty_rows_verify_as_an_empty_table(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"table": "3.25", "rows": []}')
        assert main(["verify", "--table", "3.25", "--fixture", str(path), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["counts"] == {"beyond-paper": 49}

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

    @pytest.mark.parametrize("declared", [4.4, 325, None, ["4.4"]], ids=repr)
    def test_non_string_table_id_is_a_schema_error(self, tmp_path, capsys, declared):
        # not str() of the value: a float 4.4 would verify as table "4.4"
        path = tmp_path / "numeric_id.json"
        path.write_text(json.dumps({"table": declared, "rows": []}))
        assert main(["verify", "--table", "4.4", "--fixture", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: fixture {path}: field 'table' must be a string, got {declared!r}\n"
        )

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

    def test_3_25_broken_rows_at_one_degree(self):
        # three published rows at d = 12 that the enumerator rejects, each for its own reason
        fakes = [
            tablecli.ClassificationRow(
                table="3.25",
                key=f"d=12 {split}",
                params={"d": 12, "splitting": list(split), "status": "x"},
            )
            for split in ((1, 1, 2, 4), (1, 1, 1, 5), (0, 0, 0, 8))
        ]
        report = verify("3.25", bundled_rows("3.25") + fakes)
        assert report.counts == {"verified": 45, "beyond-paper": 4, "paper-only": 3}
        rejected = [v for v in report.verdicts if v.verdict == "paper-only"]
        assert all(v.unexpected for v in rejected)
        prefix = "enumerator rejects a published row: "
        assert [(v.key, v.note.removeprefix(prefix)) for v in rejected] == [
            ("d=12 (0, 0, 0, 8)", "not generated"),
            (
                "d=12 (1, 1, 1, 5)",
                "corank1-empty: h^0 of the restricted system vanishes after removing "
                "index 3 (degree 5) [(3.23.1)]",
            ),
            (
                "d=12 (1, 1, 2, 4)",
                "normal-obstruction: one normal component has h^0 = 0 while the other "
                "has self-intersection 2 != 0 [(3.23.2)]",
            ),
        ]
        assert all(v.note.startswith(prefix) for v in rejected)

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
        # no-double-minus-one is no rule: truncation positivity implies (3.11)
        for name in ("nonsense", "no-double-minus-one"):
            assert main(["enumerate", "--d", "6", "--rules", name]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: unknown rule {name!r}; choose from cited-cap, corank1-empty, floor-bound, "
                "normal-obstruction, param-consistency, truncation-positivity\n"
            )

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


# stdout SHA-256 of `enumerate --d D --format F [--n-max N]`
ENUMERATE_DIGESTS = [
    (1, None, "table", "9ddd34ffe2d0a2f767010dcba72f66b0af3f509fb714df9a8266897ebcf1c2c2"),
    (1, None, "json", "cbff49c9abe874d620d074c40302015d4e3d8d9de01eeac50b3b14280c0c811b"),
    (1, None, "csv", "1dba9a3cc443ba99fcd6a0b589cd65a6afe5aecdd22efe71c0664a67c6ff1dfc"),
    (2, None, "table", "aa6556bcff9dcf50202d06a2fdbdcc250ebe7955aac26b4a80d556f880770013"),
    (2, None, "json", "35a7374647bbcb1d77ca007650ef13b75f25c3c64290a8a7d37d484364b93f95"),
    (2, None, "csv", "69dd8b7c6cf4434a23bc847459fc6494522f431c3e368c824a80ea3208f3f30c"),
    (3, None, "table", "3583e8d60db02ded53c713d1b760107b6caa4db2ca505ad4eceb89564c6f3a57"),
    (3, None, "json", "ebee4acbad94546a77db3241a2f03d98d9816384ab517842a0364c6a8223d2c6"),
    (3, None, "csv", "41048ee0af381f8bbceafd51a19b07baf6917670ee821b277f70a407b4eff440"),
    (4, None, "table", "1d84b16266fb146c596102721b92385d1df9adef655af75932dad95822208299"),
    (4, None, "json", "fd623f6d9647f7308c63c7bec895e0ce330229986dd09167f4098d2391dd9e26"),
    (4, None, "csv", "4bac9003ac5aa4035c7433ac0cc85c3d89b1953eb49f3c2f55d46325c8dff3b5"),
    (5, None, "table", "0f59b962172d49373dbed04b56e3cb2ddb3e685ebe207b5a0601f4606bc134ef"),
    (5, None, "json", "b2dd2e7e4df2dc4cbd1cccb4e7d961574bdb5f45fadef630f7013033ac91d807"),
    (5, None, "csv", "d8ba6f1ff2954ec64d37acc2a67fab8159960a179bb25fc16af748f27cc8e961"),
    (6, None, "table", "f038d26a419c5bd2088f0c39728a81b2178d09a3bcb60c5845edfc9321e2aa79"),
    (6, None, "json", "e8135bd9a073ab1341a691d25396e014d67be7a23e23379215369a6883f970a7"),
    (6, None, "csv", "37caf7e35b53bb174947014c924d87c0b8a80f6222936d52abe6ec6466c9b7a1"),
    (7, None, "table", "88d9af2201833c137e2319c29d78a158378c043d4f32b33caa8469056fda944c"),
    (7, None, "json", "78eb791ee0c2488eb8b82d0a5a00690ab65bad1c1a3bd6e0a565d25dc88cdfa9"),
    (7, None, "csv", "379230f5ced4a6e551edb264b04d7b18b811c6747bb93ea94633069f277fd18a"),
    (8, None, "table", "8b228b28a39cabb13173c502ec18886e1395cc6dc92581b06b66807d6e8ef2e1"),
    (8, None, "json", "0810e685da52439a8c34956de02f73fb58cb415ca81b56b55e78333349005fdf"),
    (8, None, "csv", "c6f76ebceea276b15623e270c5a431d1fdf672d6c0be84da2f8695605d13bd42"),
    (9, None, "table", "9ad8b15cde7c54981b21105436d08f264f94f2c54bfa5b9901f62e5a2e3d9da7"),
    (9, None, "json", "ec049811b386307a7031e32ebeb5692c414d7249e4bc70c92ba912868e493fa1"),
    (9, None, "csv", "da2aa5403b58b836d8f7e9c25bf5ebc1448cf7e7e3806583b3b899f6d8afafb6"),
    (10, None, "table", "d5746411ea973bd8e05a45f910fd0a4cd87c958f4d6ed3994f22804e97ca61e0"),
    (10, None, "json", "6e9db6567bba50a563af9ffce2dc18fede07a17841e1b3c39201b1e4bfe49c01"),
    (10, None, "csv", "93a26422be068918c7889f34e97c176d6fbc7075b5609026c2929d288f723e48"),
    (11, None, "table", "155caa2c87c98acc78bcd56218479d1132f308084c30ff59c8d1da8090a52ee0"),
    (11, None, "json", "7a8ff6d50bd3ee8dfa5063a3372949492944f0854dd432b105392dfd75399ab8"),
    (11, None, "csv", "312f74183606a45eb4b699b6b9b35ec2d9370f02e01f1a57e76fb371f772a6f8"),
    (12, None, "table", "37ac55ef7a48a6128c2322d92642dd1078ced12374678981d56b03a1af8f818c"),
    (12, None, "json", "0094ae1ad94cd0251f69ac251a042d244ea356a29d459ac57328afe143436232"),
    (12, None, "csv", "126fc93b35218d6121463aaca99f4cfdd92f46793e466c1ad0dd72c2e1993fc2"),
    (9, 14, "table", "a68f3ecb569b5d01fa6d1e37a14a84220a4ce52e183f81d3eb01e571e7a27853"),
    (9, 14, "json", "213ab475ad4b667447136d10058460c90b77e9533ff35701032c1d6c407a2f9e"),
    (9, 14, "csv", "bde54f536c1135a5d77f991aec090322e9477e81ddd1bc62e46168401dc35a3a"),
    (11, 14, "table", "0cf928d70fa0be217ea22bad25eaa544233834512dc0fb9b2fb38b31d4385d5c"),
    (11, 14, "json", "4d76f059c9f383d8d6bd415ac03e0c20cf920ce2c2c16ccb482d75af54afba71"),
    (11, 14, "csv", "e1b30e124a9861417e97df2bbe03107128eff9a8b0a0992b5b37c67ccce9904c"),
    (12, 14, "table", "d658d9daaffaad275a2b0fad804e8e2d7637761543ffdd29ff9706abad26ac0c"),
    (12, 14, "json", "c97bb1f7574703c4a07ae30486559e7e4ef34d8c04dfd2e88f22c4363395d0f9"),
    (12, 14, "csv", "68436ad1ad79d0070534711616093a6554e3266955899e457b681e0fcf463d70"),
]


@pytest.mark.parametrize("d, n_max, fmt, digest", ENUMERATE_DIGESTS)
def test_enumerate_output_is_pinned(capsys, d, n_max, fmt, digest):
    argv = ["enumerate", "--d", str(d), "--format", fmt]
    assert main(argv + ([] if n_max is None else ["--n-max", str(n_max)])) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# stdout SHA-256 of `verify --table T --format F` on the bundled fixtures
VERIFY_DIGESTS = [
    ("2.3", "table", "98385baafba4f97314884005eb1892c87a3cdce29d63317ffb40019cde40de77"),
    ("2.3", "json", "4e0cd2410d10a273ec1753a2a51a67f3a807812b3df6300d706d165290cfa462"),
    ("2.3", "csv", "117fb3fac9b96d7db47e5017fadba31c143578449e1b37179203879e67339485"),
    ("3.25", "table", "49801db4d03117608a8424548d2c6ec50ff8e9ef12aa11aa8a3d6afeabcd39c4"),
    ("3.25", "json", "23b9e8c8e55112196aeeab239f95dbc4d60322cedb8067ee234c9678e0e8621e"),
    ("3.25", "csv", "19e7e9c0f584ca80dd442ab3282f17e06f34ebf9bc94a163aa0eca106777d846"),
    ("5.7", "table", "66c0985be8d898e456ee0c5e38afb9791070e3ec9faf507cbe84316bfb5e84a4"),
    ("5.7", "json", "d4fb6c5b8d769d443b4bf40930c8ea1eea94be5469ea6778cd4017a1ea49c783"),
    ("5.7", "csv", "5e441c8766dd10f31d33426c7846aa0cac958eda658076565093f599c963a546"),
    ("2.8.2", "table", "fd2ba47583d63fa0a9d558ae7577bbb643ff09ae499bcab6a07ac042ac7916eb"),
    ("2.8.2", "json", "938bab41f311d35dde39d3b91c5f0411315ab48c028fa938a8e470bb5ae413f0"),
    ("2.8.2", "csv", "f8530b1449824a5f290ff22963232591084b974d0c48792e51947f792a90abf9"),
    ("4.4", "table", "463c12c58e099ec4dc676514ce3fc64efd53911800991b86dec9a97106238e48"),
    ("4.4", "json", "73e63b01890ec94c98fb319976fcf7ba1f326b2dc953b63bb24761832dbce22c"),
    ("4.4", "csv", "9a381558d9c9b6306bda391775d209c6058d031b426ea3c1411d8b0ed17cf25c"),
]


@pytest.mark.parametrize("table, fmt, digest", VERIFY_DIGESTS)
def test_verify_output_is_pinned(capsys, table, fmt, digest):
    assert main(["verify", "--table", table, "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def reference_text(candidates):
    """The table listing as rendered one candidate at a time."""
    if not candidates:
        return "no candidates"
    head = candidates[0]
    lines = [f"d={head.d}  e={head.e}  b={head.b}"]
    for c in candidates:
        if c.status == "admitted":
            extra = c.paper_status or ("beyond-paper" if c.beyond_paper else "")
            detail = f"  {extra}" if extra else ""
            lines.append(f"  n={c.n}  {c.splitting}  s={c.s}  admitted{detail}")
        else:
            lines.append(f"  n={c.n}  {c.splitting}  s={c.s}  excluded  {c.rule}")
    return "\n".join(lines)


def reference_json(candidates):
    return json.dumps([tablecli._candidate_payload(c) for c in candidates], indent=2)


def reference_csv(candidates):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ("d", "n", "splitting", "e", "b", "s", "status", "rule", "detail", "citation",
         "paper_status", "beyond_paper")
    )
    for c in candidates:
        writer.writerow(
            [c.d, c.n, " ".join(map(str, c.splitting)), c.e, c.b, c.s, c.status]
            + ([c.rule.rule, c.rule.detail, c.rule.citation] if c.rule else ["", "", ""])
            + [c.paper_status or "", c.beyond_paper]
        )
    return buffer.getvalue()


def mixed_candidates():
    """Three degrees with paper rows, d = 1 again without, and hand-made JSON-like traces.

    Admitted candidates at d = 1 differ only in the beyond-paper flag between
    the two d = 1 listings, so a group key without the flag would show.
    """
    paper = {}
    for row in bundled_rows("3.25"):
        paper.setdefault(row.params["d"], {})[tuple(row.params["splitting"])] = row.paper_status
    listed = []
    for d, n_range in ((1, None), (11, range(3, 15)), (12, None)):
        listed += classify.enumerate_quadric_splittings(d, n_range, paper_rows=paper[d])
    listed += classify.enumerate_quadric_splittings(1)
    tricky = classify.RuleResult("hand-made", 'a "splitting": [] inside,\nover two lines', "(0)")
    listed += [
        classify.Candidate((0, 0, 0, 0), 4, tricky),
        classify.Candidate((-1, 0, 0, 1), 4, None, 'quoted "splitting": [] \u00e9', False),
        classify.Candidate((0, 0, 0, 0, 0), 4, tricky),
        classify.Candidate((1, 1, 1, 1), 8, tricky),  # the same trace at another degree
    ]
    return listed


@pytest.mark.parametrize(
    "candidates",
    [
        mixed_candidates(),
        classify.enumerate_quadric_splittings(
            9, range(3, 11), rules=tablecli._parse_rules("truncation-positivity,cited-cap")
        ),
        [],
    ],
    ids=["mixed-d", "custom-rules", "empty"],
)
def test_grouped_renderers_match_per_candidate_rendering(candidates):
    assert tablecli._candidates_text(candidates) == reference_text(candidates)
    assert tablecli._candidates_json(candidates) == reference_json(candidates)
    assert tablecli._candidates_csv(candidates) == reference_csv(candidates)


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
