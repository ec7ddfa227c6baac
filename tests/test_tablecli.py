import contextlib
import csv
import hashlib
import io
import json
import keyword
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genus3 import classify, surflat, tablecli
from genus3.tablecli import (
    FixtureError,
    build_parser,
    load_fixture,
    main,
    oracle_selftest,
    packaged_fixture_path,
    verify,
    write_fixture,
)

MISSING = object()

FORMATS = ("table", "json", "csv")

# tests/golden.json maps each pinned argument line to its exit code and the
# SHA-256 of its stdout; its stderr is empty.  CI's installed-package step
# checks the same lines against the installed console script
GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def pinned_digest(line):
    # None for a line the manifest lacks, so that its test fails rather than the collection
    return GOLDEN.get(line, {}).get("stdout_sha256")


def assert_output_is_pinned(capsys, line, digest):
    assert main(line.split()) == GOLDEN.get(line, {}).get("exit")
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


SELFTEST_PINS = [(fmt, pinned_digest(f"oracle-selftest --format {fmt}")) for fmt in ("table", "json")]


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
            # the whitelist flag of the VII-3/e=1 row must be a JSON true or false
            ("2.3", 25, "expect_discrepancy", "false"),
            ("2.3", 25, "expect_discrepancy", 1),
            ("2.3", 25, "expect_discrepancy", None),
            # text that reaches a row key or a CSV field: a line break would split a record
            ("4.4", 0, "type", "I\rb"),
            ("4.4", 0, "type", [1, 2]),
            ("2.3", 0, "e", "1\r2"),  # family I reads no e, but the row key does
            ("3.25", 0, "status", "type I\nb"),
            # the weight loads, but A^2 = 4 - 10**8400 has too many digits to print
            ("2.3", 4, "weights", [10**4200]),
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

    @pytest.mark.parametrize(
        "index, field, value, named, unnamed",
        [
            # III-1: A^2 = 2 - 10**4400 is too long to print; III reads A2 and KA
            (2, "weights", [10**2200], ["'A2', 'KA', 'weights'"], []),
            # IV-1: K.A + A^2 = 0 + 5 is odd; IV reads A2_min, never the published A2
            (4, "A2_min", 5, ["'A2_min' = 5"], ["'A2'"]),
        ],
        ids=["III-1-digit-limit", "IV-1-parity"],
    )
    def test_2_3_error_names_the_fields_the_family_reads(
        self, tmp_path, capsys, index, field, value, named, unnamed
    ):
        rows = [dict(r.params) for r in bundled_rows("2.3")]
        rows[index][field] = value
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"table": "2.3", "rows": rows}))
        assert main(["verify", "--table", "2.3", "--fixture", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: row {index}: ")
        assert all(text in captured.err for text in named)
        assert not any(text in captured.err for text in unnamed)

    @staticmethod
    def parity_error(tmp_path, capsys, KA, A2):
        """The error line of verifying 2.3 with its II-1 row given ``KA`` and ``A2``."""
        rows = [dict(r.params) for r in bundled_rows("2.3")]
        rows[1] |= {"KA": KA, "A2": A2}
        path = tmp_path / "parity.json"
        path.write_text(json.dumps({"table": "2.3", "rows": rows}))
        assert main(["verify", "--table", "2.3", "--fixture", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_2_3_parity_error_past_the_digit_limit_is_one_short_line(self, tmp_path, capsys):
        # II-1: K.A + A^2 = 2 * 10**4300 - 3 is odd and one digit too long to print;
        # each field loads and prints, but the line gives their lengths, not their values
        assert self.parity_error(tmp_path, capsys, 10**4300 - 1, 10**4300 - 2) == (
            "error: row 1: II-1: KA + AA = an integer of 4301 digits must be even; the row "
            "gives 'A2' = an integer of 4300 digits, 'KA' = an integer of 4300 digits, 'KK' = 1\n"
        )

    def test_2_3_parity_error_under_the_digit_limit_is_one_short_line(self, tmp_path, capsys):
        # II-1: K.A + A^2 = 2 * 10**4299 + 1 is odd, and at 4,300 digits it still prints
        assert self.parity_error(tmp_path, capsys, 10**4299 + 1, 10**4299) == (
            "error: row 1: II-1: KA + AA = an integer of 4300 digits must be even; the row "
            "gives 'A2' = an integer of 4300 digits, 'KA' = an integer of 4300 digits, 'KK' = 1\n"
        )

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

    @pytest.mark.parametrize(
        "table, params, message",
        [
            (
                "3.25",
                {"d": "4", "splitting": [0, 0, 0, 0], "status": "x"},
                "field 'd' must be an integer, got '4'",
            ),
            ("3.25", {"d": 4, "splitting": [0, 0, 0, 0]}, "missing field 'status'"),
            ("5.7", {"Ln": 1}, "missing field 'r'"),
        ],
        ids=["3.25-string-degree", "3.25-no-status", "5.7-no-r"],
    )
    def test_caller_built_row_gets_the_loaders_schema_error(self, table, params, message):
        # rows that never went through load_fixture are checked by verify itself
        rows = bundled_rows(table)
        bad = tablecli.ClassificationRow(table=table, key="caller-built", params=params)
        with pytest.raises(FixtureError) as excinfo:
            verify(table, rows + [bad])
        assert str(excinfo.value) == f"row {len(rows)}: {message}"

    def test_2_3_whitelisted_discrepancy(self):
        report = verify("2.3", bundled_rows("2.3"))
        assert report.exit_status == 0
        assert report.counts == {"verified": 31, "discrepancy": 1}
        flagged = [v for v in report.verdicts if v.verdict == "discrepancy"]
        assert flagged[0].key == "VII-3/e=1" and flagged[0].whitelisted
        # the flag blesses these numbers only: any other discrepancy on the row shows here
        assert flagged[0].recomputed == "A^2=15, g=8"
        assert flagged[0].note == "recomputed (A^2, g) = (15, 8), table says (3, 3)"

    def test_2_3_fails_without_whitelist(self):
        rows = []
        for row in bundled_rows("2.3"):
            params = dict(row.params)
            params.pop("expect_discrepancy", None)
            rows.append(tablecli.ClassificationRow(table=row.table, key=row.key, params=params))
        report = verify("2.3", rows)
        assert report.exit_status == 1

    def test_2_3_rows_built_from_their_mapping_keep_the_whitelist(self):
        # the flag is read from the checked mapping, the one place a row keeps it
        rows = [
            tablecli.ClassificationRow(table=row.table, key=row.key, params=row.params)
            for row in bundled_rows("2.3")
        ]
        report = verify("2.3", rows)
        assert report.exit_status == 0
        assert report.counts == {"verified": 31, "discrepancy": 1}

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

    def test_exact_list_records_are_in_fixture_field_order(self):
        # the recomputed named tuples are compared with the rows' plain tuples as they are
        assert surflat.DegTRow._fields == tablecli.TABLES["2.8.2"].fields
        assert classify.VeroneseSolution._fields == tablecli.TABLES["4.4"].fields
        report = verify("2.8.2", bundled_rows("2.8.2")[:-1])
        assert report.verdicts[-1][:2] == ("(4, -3, 5, 1)", "beyond-paper")

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

    @pytest.mark.parametrize(
        "table, caught, missed, schema",
        [("2.3", 288, 92, 16), ("5.7", 30, 0, 0), ("2.8.2", 32, 0, 0), ("4.4", 16, 0, 0)],
    )
    def test_what_verify_catches_is_pinned(self, table, caught, missed, schema):
        # Every integer field and integer-array entry of every bundled row, moved by
        # +1 and by -1, one at a time.  A change that weakens verify moves a count.
        # The 2.3 misses: 64 on the row label (only a key), 26 on the whitelisted
        # VII-3/e=1 row and 2 on II-1's KK, which no verdict compares.
        rows = bundled_rows(table)
        counts = {"caught": 0, "missed": 0, "schema": 0}
        for index, row in enumerate(rows):
            for name, value in row.params.items():
                if type(value) is int:
                    changes = [value + 1, value - 1]
                elif isinstance(value, list):
                    changes = [
                        value[:i] + [entry + delta] + value[i + 1:]
                        for i, entry in enumerate(value)
                        for delta in (1, -1)
                    ]
                else:
                    continue
                for changed in changes:
                    params = row.params | {name: changed}
                    mutant = tablecli.ClassificationRow(
                        table, tablecli.TABLES[table].key(params), params
                    )
                    try:
                        report = verify(table, rows[:index] + [mutant] + rows[index + 1:])
                    except FixtureError:
                        counts["schema"] += 1
                    else:
                        counts["caught" if report.exit_status else "missed"] += 1
        assert counts == {"caught": caught, "missed": missed, "schema": schema}


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

        def off_by_one(rank, c1, *rest):
            return real(rank, c1, *rest) + (rank == 7)

        monkeypatch.setattr(tablecli, "naive_top_degree", off_by_one)
        report = oracle_selftest()
        # every grid point with rank 7: 3 base genera x 13 c1 x 13 twists; the
        # adjoint number adjoint_h*X_H + (k_f + b)*X_F is then off by |k_f + b| <= 14
        assert report.grid_mismatches == 507
        assert report.max_deviation == 14
        assert report.passed is False

    def test_broken_f_product_is_caught(self, monkeypatch):
        # the oracle's adjoint number is read linearly from X_H = H*tail and
        # X_F = F*tail; a wrong X_F must show wherever its coefficient is nonzero
        real = tablecli.naive_top_degree

        def off_by_one(rank, c1, factors, *rest):
            return real(rank, c1, factors, *rest) + (factors == [(0, 1)])

        monkeypatch.setattr(tablecli, "naive_top_degree", off_by_one)
        report = oracle_selftest()
        # every grid point with k_f + b != 0: 175 of the 2,535 have k_f + b = 0
        assert report.grid_mismatches == 2360
        assert report.max_deviation == 14
        assert report.passed is False

    def test_broken_shared_tail_is_caught(self, monkeypatch):
        # the oracle's tail H^(rank-2)*(2H + bF) is expanded once per (rank, b)
        # and continued at every point; a wrong tail must show as mismatches
        real = tablecli.naive_expand
        corrupted = []

        def off_by_one(factors, *rest):
            coeffs = list(real(factors, *rest))
            if len(factors) == 6:  # the rank-7 tail: five factors H, then 2H + bF
                coeffs[1] += 1
                corrupted.append(coeffs)
            return coeffs

        monkeypatch.setattr(tablecli, "naive_expand", off_by_one)
        report = oracle_selftest()
        # one tail per twist, and no other expansion of six factors
        assert len(corrupted) == 13
        # the oracle's degree at every grid point with rank 7: 3 base genera x 13 c1 x 13 twists
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
        # every grid point runs the ring route on its own bundle, both products
        # integrated by top_degree, and every bundle its own canonical class; the
        # oracle's two products H*tail and F*tail, functions of (rank, c1, b), are
        # expanded once for all three base genera
        calls = dict.fromkeys(
            (
                "multiply_classes", "top_degree", "canonical_class",
                "quadric_invariants", "veronese_invariants", "naive_top_degree",
            ),
            0,
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
            "top_degree": 5070,
            "canonical_class": 195,
            "quadric_invariants": 2535,
            "veronese_invariants": 507,
            "naive_top_degree": 1690,
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
        assert capsys.readouterr().out == '{"d": 8, "g": 3, "s": 8}\n'

    def test_invariants_veronese(self, capsys):
        code = main(
            ["invariants", "--base-genus", "1", "--rank", "3", "--c1", "2", "--b", "-1", "--veronese"]
        )
        assert code == 0
        assert capsys.readouterr().out == '{"d": 4, "g": 3}\n'

    def test_invariants_bad_rank_for_veronese(self, capsys):
        code = main(
            ["invariants", "--base-genus", "0", "--rank", "4", "--c1", "0", "--b", "1", "--veronese"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, names, digits",
        [
            (["--base-genus", "0", "--rank", "4", "--b", "-2"], "d, g, s", (4301, 4300, 4301)),
            (["--base-genus", "1", "--rank", "3", "--b", "-1", "--veronese"], "d, g", (4301, 4301)),
        ],
        ids=["quadric", "veronese"],
    )
    def test_invariants_past_the_digit_limit(self, capsys, argv, names, digits):
        # --c1 parses at the interpreter's 4300-digit limit, but d and g pass it
        assert main(["invariants", "--c1", "9" * 4300, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        numbers = ", ".join(f"an integer of {n} digits" for n in digits)
        assert captured.err == (
            f"error: invariants ({names}) = ({numbers}) are too long to print; "
            "they are computed from --base-genus, --rank, --c1 and --b\n"
        )

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

    def test_enumerate_degree_past_the_rational_window(self, capsys):
        # an explicit range at d >= 13 lists nothing: s < 0 there at every n >= 3
        for d, given in (("13", "13"), ("40", "40"), ("9" * 4300, "an integer of 4300 digits")):
            assert main(["enumerate", "--d", d, "--n-max", "3"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: degree must be in 1..12, got {given}: s < 0 at every fibre dimension n >= 3\n"
            )

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

    @pytest.mark.parametrize(
        "content",
        [
            b'{"table": "5.7", "rows": [\xff]}',
            b'{"table": "5.7", "rows": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
            # past the interpreter's integer digit limit (4300 by default), where
            # json.load raises a bare ValueError
            b'{"table": "5.7", "rows": [{"Ln": ' + b"9" * 5000 + b', "r": 1, "Lpn": 2}]}',
        ],
        ids=["non-utf8-byte", "deeply-nested-rows", "oversized-integer"],
    )
    def test_unreadable_fixture_names_the_fixture(self, tmp_path, capsys, content):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        with pytest.raises(FixtureError, match=f"^fixture {re.escape(str(path))}: "):
            load_fixture(path)
        assert main(["verify", "--table", "5.7", "--fixture", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: fixture {path}: " in err and "internal error" not in err

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
        err = capsys.readouterr().err
        assert err.startswith("usage: genus3 verify") and "invalid choice: '7.7'" in err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--table", "7.7"])
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", [None, *tablecli.COMMANDS])
    def test_help_is_argparse_help(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert capsys.readouterr().out == out
        if command is None:
            assert out.startswith("usage: genus3 [-h]") and all(c in out for c in tablecli.COMMANDS)
        else:
            options = tablecli.COMMANDS[command][2]
            assert out.startswith(f"usage: genus3 {command} [-h]")
            assert all(flag in out for flag in options)

    def test_selftest_command(self, capsys):
        assert main(["oracle-selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out and "counterexample n=3 d=8 g(C)=0" in out

    def test_selftest_json(self, capsys):
        assert main(["oracle-selftest", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["variant_identity_counterexamples"][0]["n"] == 3

    @pytest.mark.parametrize("fmt, digest", SELFTEST_PINS)
    def test_selftest_output_is_pinned(self, capsys, fmt, digest):
        # the whole report; the JSON lists all 124 counterexamples in their order
        assert_output_is_pinned(capsys, f"oracle-selftest --format {fmt}", digest)


def enumerate_line(d, n_max, fmt):
    return f"enumerate --d {d} --format {fmt}" + ("" if n_max is None else f" --n-max {n_max}")


# `enumerate --d D --format F [--n-max N]` over every rational degree, and past
# the default fibre dimensions for the three degrees whose lists grow there
ENUMERATE_PINS = [
    (d, n_max, fmt, pinned_digest(enumerate_line(d, n_max, fmt)))
    for d, n_max in [(d, None) for d in range(1, 13)] + [(9, 14), (11, 14), (12, 14)]
    for fmt in FORMATS
]


@pytest.mark.parametrize("d, n_max, fmt, digest", ENUMERATE_PINS)
def test_enumerate_output_is_pinned(capsys, d, n_max, fmt, digest):
    assert_output_is_pinned(capsys, enumerate_line(d, n_max, fmt), digest)


# `verify --table T --format F` on the bundled fixtures
VERIFY_PINS = [
    (table, fmt, pinned_digest(f"verify --table {table} --format {fmt}"))
    for table in ("2.3", "3.25", "5.7", "2.8.2", "4.4")
    for fmt in FORMATS
]


@pytest.mark.parametrize("table, fmt, digest", VERIFY_PINS)
def test_verify_output_is_pinned(capsys, table, fmt, digest):
    assert_output_is_pinned(capsys, f"verify --table {table} --format {fmt}", digest)


# the manifest lines that the three grids above leave out
GRID_LINES = (
    {f"oracle-selftest --format {fmt}" for fmt, _ in SELFTEST_PINS}
    | {enumerate_line(d, n_max, fmt) for d, n_max, fmt, _ in ENUMERATE_PINS}
    | {f"verify --table {table} --format {fmt}" for table, fmt, _ in VERIFY_PINS}
)
OTHER_LINES = [line for line in GOLDEN if line not in GRID_LINES]


@pytest.mark.parametrize("line", OTHER_LINES, ids=[line.replace(" ", "_") for line in OTHER_LINES])
def test_cli_output_is_pinned(capsys, line):
    assert_output_is_pinned(capsys, line, pinned_digest(line))


def test_benchmark_pins_are_manifest_pins():
    # perfbench/golden.json pins its CLI lines on its own; an output change must update both
    benchmark = json.loads((GOLDEN_PATH.parents[1] / "perfbench" / "golden.json").read_text())
    pinned = {(pin["stdout_sha256"], pin["exit"]) for pin in GOLDEN.values()}
    unpinned = {
        label: pin
        for label, pin in benchmark["cli"].items()
        if (pin["stdout_sha256"], pin["exit"]) not in pinned
    }
    assert len(benchmark["cli"]) == 10 and unpinned == {}


FLAGS = sorted({flag for _, _, options in tablecli.COMMANDS.values() for flag in options})
# malformed ints, values outside every choice, and words argparse reads as options
BAD_VALUES = st.sampled_from(
    ["7.7", "xml", "-", "--", "-h", "--help", "-.5", "-1e3", "+3", " 4", "1_0", "3.0", "x",
     "-x", "\u0663", "-\u0663", "10" * 2500]
)
STRAY_WORDS = st.one_of(
    st.sampled_from([*FLAGS, *tablecli.COMMANDS, "verif", "-h", "--help", "--d=3"]), BAD_VALUES
)


def good_values(option):
    if "choices" in option:
        return st.sampled_from(option["choices"])
    if option.get("type") is int:
        return st.integers(-30, 30).map(str)
    return st.sampled_from(["default", "cited-cap,floor-bound", "", "-7", "a b"])


@st.composite
def command_lines(draw):
    """A well-formed command line, or one with a few faults: an abbreviated, ``=``
    joined, repeated or dropped option, a bad value, or a stray word."""
    command = draw(st.sampled_from(sorted(tablecli.COMMANDS)))
    options = tablecli.COMMANDS[command][2]
    given = [
        flag for flag in draw(st.permutations(sorted(options)))
        if options[flag].get("required") or draw(st.booleans())
    ]
    items = [
        [flag] if options[flag].get("action") == "store_true"
        else [flag, draw(good_values(options[flag]))]
        for flag in given
    ]
    strays = []
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["abbreviate", "join", "repeat", "drop", "value", "stray"]))
        if fault == "stray":
            strays.append(draw(STRAY_WORDS))
            continue
        if not items:
            continue
        at = draw(st.integers(0, len(items) - 1))
        words = items[at]
        if fault == "abbreviate" and len(words[0]) > 3:
            words[0] = words[0][: draw(st.integers(3, len(words[0]) - 1))]
        elif fault == "join":
            items[at] = ["=".join(words)]
        elif fault == "repeat":
            items.insert(at, list(words))
        elif fault == "drop":
            del items[at]
        elif fault == "value" and len(words) == 2:
            words[1] = draw(BAD_VALUES)
    argv = [command, *(word for words in items for word in words)]
    for word in strays:  # before the command too
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


@settings(max_examples=150, deadline=None)
@given(command_lines())
@example(["verify", "--table", "2.3", "--fixture", "-x"])  # argparse reads -x as an option
@example(["enumerate", "--d", "-3", "--n-min", "-0", "--rules", "-7"])
def test_the_strict_parse_is_argparse_or_declines(argv):
    args = tablecli._strict_args(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("command", tablecli.COMMANDS)
def test_the_strict_parse_takes_every_well_formed_command_line(command):
    # every option given, in table order, with the first of its choices or a
    # negative int; then only the required ones
    full, required = [command], [command]
    for flag, option in tablecli.COMMANDS[command][2].items():
        words = [flag]
        if option.get("action") != "store_true":
            words.append(str(option["choices"][0]) if "choices" in option else "-2")
        full += words
        required += words if option.get("required") else []
    for argv in (full, required):
        args = tablecli._strict_args(argv)
        assert args is not None, argv
        assert vars(args) == vars(build_parser().parse_args(argv))


def run_main(argv):
    """``main(argv)``'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def assert_csv_matches_json(csv_text, records):
    """Each CSV record, as the csv module reads it, is its JSON record's values as text."""
    header, *rows = csv.reader(io.StringIO(csv_text, newline=""))
    assert all(sorted(record) == sorted(header) for record in records)
    assert rows == [["" if r[name] is None else str(r[name]) for name in header] for r in records]


def flat_candidate(record):
    """An enumerate JSON record with its splitting and rule written as the CSV writes them."""
    rule = record["rule"] or dict.fromkeys(("rule", "detail", "citation"))
    return {**record, "splitting": " ".join(map(str, record["splitting"])), **rule}


@pytest.mark.parametrize("table", tablecli.TABLE_IDS)
def test_verify_csv_reads_back_as_the_json_verdicts(table):
    status, csv_text, _ = run_main(["verify", "--table", table, "--format", "csv"])
    assert status == 0
    _, json_text, _ = run_main(["verify", "--table", table, "--format", "json"])
    assert_csv_matches_json(csv_text, json.loads(json_text)["verdicts"])


@pytest.mark.parametrize("d", range(1, 13))
def test_enumerate_csv_reads_back_as_the_json_candidates(d):
    status, csv_text, _ = run_main(["enumerate", "--d", str(d), "--format", "csv"])
    assert status == 0
    _, json_text, _ = run_main(["enumerate", "--d", str(d), "--format", "json"])
    assert_csv_matches_json(csv_text, [flat_candidate(r) for r in json.loads(json_text)])


BUNDLED_PARAMS = {t: [row.params for row in bundled_rows(t)] for t in tablecli.TABLE_IDS}
# control, line-breaking, quoting and non-ASCII characters
odd_chars = st.sampled_from("\r\n\t\x00\x1b\x85\u2028\u00e9\u2603\",; Ia1")
odd_texts = st.text(odd_chars, min_size=1, max_size=4)
other_values = st.sampled_from([None, True, 1.5, "1", [], {}, [1, 2], -7])
# past a machine word, and over half the 4,300 digits the interpreter prints of an int:
# each loads, but its square does not print
ints_past_range = st.sampled_from([-(10**4200), -(2**64), 2**64, 10**4200])


def mutated(table, index, **changes):
    """The bundled rows of ``table`` with row ``index``'s fields set as ``changes`` says."""
    rows = [dict(params) for params in BUNDLED_PARAMS[table]]
    rows[index].update(changes)
    return table, rows


@st.composite
def mutated_fixtures(draw):
    """A bundled fixture with one field dropped, retyped, given odd text or an int past its
    range, or one row repeated."""
    table = draw(st.sampled_from(tablecli.TABLE_IDS))
    rows = [dict(params) for params in BUNDLED_PARAMS[table]]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    kind = draw(st.sampled_from(("drop", "retype", "text", "int past range", "repeat")))
    numeric = [name for name in sorted(row) if type(row[name]) in (int, list)]
    field = draw(st.sampled_from(numeric if kind == "int past range" else sorted(row)))
    if kind == "drop":
        del row[field]
    elif kind == "retype":
        row[field] = draw(other_values)
    elif kind == "text":
        value = row[field] if isinstance(row[field], str) else ""
        at = draw(st.integers(0, len(value)))
        row[field] = value[:at] + draw(odd_texts) + value[at:]
    elif kind == "int past range":  # an int field, or one entry of an int array
        value = draw(ints_past_range)
        if isinstance(row[field], list):
            at = draw(st.integers(0, len(row[field])))  # an empty array gets one entry
            value = row[field][:at] + [value] + row[field][at + 1:]
        row[field] = value
    else:
        rows.append(dict(row))
    return table, rows


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "fixture.json"


@settings(max_examples=100, deadline=None)
@given(mutated_fixtures())
@example(mutated("4.4", 0, type="I\rb"))
@example(mutated("4.4", 0, type=[1, 2]))
@example(mutated("2.3", 0, e="1\r2"))
@example(mutated("3.25", 0, status="a\u2028b"))
@example(mutated("2.3", 4, A2_min=10**4200, weights=[10**4200]))
def test_a_mutated_fixture_is_verified_or_named_in_one_line(fixture_path, fixture):
    # exit 2 prints one error line and no report; exits 0 and 1 print reports that
    # parse, and whose CSV reads back as the JSON
    table, rows = fixture
    fixture_path.write_text(json.dumps({"table": table, "rows": rows}))
    argv = ["verify", "--table", table, "--fixture", str(fixture_path), "--format"]
    results = {fmt: run_main(argv + [fmt]) for fmt in ("table", "json", "csv")}
    statuses = {status for status, _, _ in results.values()}
    assert len(statuses) == 1 and statuses <= {0, 1, 2}
    for status, out, err in results.values():
        assert "internal error" not in err
        if status == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if statuses != {2}:
        assert_csv_matches_json(results["csv"][1], json.loads(results["json"][1])["verdicts"])


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
    the two d = 1 listings, so a group key without the flag would show.  The
    hand-made traces and paper statuses put each of ``,``, ``"``, ``\\r`` and
    ``\\n`` alone in some field, and one detail is empty, so the group's CSV
    fields must be quoted exactly as csv.writer quotes each row.
    """
    paper = {}
    for row in bundled_rows("3.25"):
        paper.setdefault(row.params["d"], {})[tuple(row.params["splitting"])] = row.params["status"]
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
        classify.Candidate((0, 0, 1, 1), 4, classify.RuleResult("x,y", "cr\rlf", '"q"')),
        classify.Candidate((0, 0, 0, 2), 4, classify.RuleResult("empty-detail", "", "\n")),
        classify.Candidate((0, 1, 1, 2), 5, None, 'a, "b"\r\nc\rd\n', False),
        classify.Candidate((0, 0, 1, 2), 5, None, '"', True),
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


# report-shaped payloads: scalars, flat objects and tuples of named-tuple records
json_texts = st.text() | st.sampled_from(['"', "\\", "\n", "\u00e9\u2603", "},\n      {", "}, {"])
json_scalars = st.none() | st.booleans() | st.integers() | json_texts
field_names = st.from_regex(r"[a-z\u00e9][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda name: not keyword.iskeyword(name)
)
records = st.lists(field_names, min_size=1, max_size=4, unique=True).flatmap(
    lambda names: st.tuples(*[json_scalars] * len(names)).map(namedtuple("Record", names)._make)
)
flat_objects = st.dictionaries(json_texts, json_scalars, max_size=4)
report_payloads = st.dictionaries(
    json_texts,
    json_scalars | flat_objects | st.lists(records, max_size=4).map(tuple),
    min_size=1,
    max_size=5,
)
Note = namedtuple("Note", "note n")
Flag = namedtuple("Flag", "\u00e9 ok")


@given(report_payloads)
@example({"counts": {}, "verdicts": ()})
@example({"verdicts": (Note("},\n      {", 1), Flag(None, True)), "exit_status": 0})
def test_json_document_matches_json_dumps_with_indent(payload):
    # a tuple of records is written as json writes the list of their _asdict()
    objects = {
        key: [r._asdict() for r in value] if isinstance(value, tuple) else value
        for key, value in payload.items()
    }
    assert tablecli._json_document(payload) == json.dumps(objects, indent=2)


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
