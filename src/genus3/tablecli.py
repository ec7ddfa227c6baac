"""Fixture storage, table verification, ring self-test and the CLI.

Each published table is declared once, in ``TABLES``: its fixture
schema, row key and recomputation.  Fixtures are UTF-8 JSON, one document
per table, rows as objects; the splitting types are integer arrays and
status texts are copied verbatim from the published tables.  Expected
discrepancies are whitelisted in the fixture itself (flag
``expect_discrepancy``), so the exception ledger is data rather than code.

Exit codes: 0 success, 1 verification failure, 2 usage or input error (or an
internal error, reported in one line without a traceback), 141 when the reader
of standard output closes it early (nothing is printed on standard error).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import partial
from operator import attrgetter

from . import classify, surflat
from .chowcurve import (
    BaseCurve,
    DivisorClass,
    ProjBundleModel,
    canonical_class,
    multiply_classes,
    quadric_invariants,
    top_degree,
    veronese_invariants,
)


class FixtureError(ValueError):
    """Malformed fixture file; the message names the row and field."""


class ClassificationRow(
    namedtuple(
        "ClassificationRow",
        "table key params paper_status citation expect_discrepancy",
        defaults=("", "", False),
    )
):
    """One fixture row: the raw mapping plus its extracted identity."""

    __slots__ = ()
    table: str
    key: str
    params: dict
    paper_status: str
    citation: str
    expect_discrepancy: bool


class TableSpec(
    namedtuple(
        "TableSpec", "fields key recompute other check", defaults=({}, lambda index, raw: None)
    )
):
    """One published table: its fixture schema, row key and recomputation.

    ``other`` defaults to no such fields, ``check`` to accepting every row.
    """

    __slots__ = ()
    fields: tuple[str, ...]  # required integer fields, in exact-list tuple order
    key: Callable[[Mapping], str]
    recompute: Callable[[TableSpec, Sequence[ClassificationRow]], Iterable[Verdict]]
    # required fields of other types: name -> (test of the value, what it must be)
    other: Mapping[str, tuple[Callable[[object], bool], str]]
    check: Callable[[int, Mapping], None]  # row-dependent fields


def _is_int(value) -> bool:
    # type(x) is int rejects bool, which isinstance would accept
    return type(value) is int


def _require(index: int, raw: Mapping, name: str, test=_is_int, what="an integer") -> None:
    if name not in raw:
        raise FixtureError(f"row {index}: missing field {name!r}")
    if not test(raw[name]):
        raise FixtureError(f"row {index}: field {name!r} must be {what}, got {raw[name]!r}")


def _to_row(table: str, index: int, raw: object) -> ClassificationRow:
    if not isinstance(raw, dict):
        raise FixtureError(f"row {index}: expected an object, got {type(raw).__name__}")
    spec = TABLES[table]
    for name in spec.fields:
        _require(index, raw, name)
    for name, (test, what) in spec.other.items():
        _require(index, raw, name, test, what)
    spec.check(index, raw)
    return ClassificationRow(
        table=table,
        key=spec.key(raw),
        params=dict(raw),
        paper_status=str(raw.get("status", "")),
        citation=str(raw.get("citation", "")),
        expect_discrepancy=bool(raw.get("expect_discrepancy", False)),
    )


def load_fixture(path, table: str | None = None) -> list[ClassificationRow]:
    """Parse a fixture file into rows; schema errors name row and field.

    With ``table`` given, a fixture that declares another table is a schema
    error.  Two rows with the same key are a schema error naming both indexes.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(
            f"fixture {path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(document, dict) or "table" not in document:
        raise FixtureError(f"fixture {path}: top level must be an object with a 'table' id")
    declared = document["table"]
    if type(declared) is not str:
        raise FixtureError(f"fixture {path}: field 'table' must be a string, got {declared!r}")
    if declared not in TABLES:
        raise FixtureError(f"fixture {path}: unknown table id {declared!r}")
    if table is not None and declared != table:
        raise FixtureError(f"fixture {path} declares table {declared!r}, not table {table!r}")
    if "rows" not in document:
        raise FixtureError(f"fixture {path}: missing field 'rows'")
    rows = document["rows"]
    if not isinstance(rows, list):
        raise FixtureError(f"fixture {path}: 'rows' must be an array")
    loaded = [_to_row(declared, i, raw) for i, raw in enumerate(rows)]
    seen: dict[str, int] = {}
    for i, row in enumerate(loaded):
        if row.key in seen:
            raise FixtureError(
                f"fixture {path}: rows {seen[row.key]} and {i} share the key {row.key!r}"
            )
        seen[row.key] = i
    return loaded


def write_fixture(path, rows: Sequence[ClassificationRow]) -> None:
    """Serialize rows back into a fixture document (inverse of load_fixture).

    The table id comes from the rows, so an empty row list is a ValueError.
    """
    tables = {row.table for row in rows}
    if len(tables) != 1:
        raise ValueError(f"rows must belong to exactly one table, got {sorted(tables)}")
    document = {"table": rows[0].table, "rows": [row.params for row in rows]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def packaged_fixture_path(table: str) -> str:
    """Path of the bundled fixture for a table id."""
    _spec(table)
    name = "table_" + table.replace(".", "_") + ".json"
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


# ---------------------------------------------------------------------------
# verification reports


class Verdict(
    namedtuple(
        "Verdict",
        "key verdict note expected recomputed whitelisted unexpected",
        defaults=("", "", "", False, False),
    )
):
    """One row's verdict, with the numbers it compared and how it counts."""

    __slots__ = ()
    key: str
    verdict: str  # "verified" | "discrepancy" | "beyond-paper" | "paper-only"
    note: str
    expected: str
    recomputed: str
    whitelisted: bool
    unexpected: bool


_VERDICT_COLUMNS = ("key", "verdict", "expected", "recomputed", "whitelisted", "unexpected", "note")


def _csv(header: Sequence[str], records: Iterable[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buffer.getvalue()


class VerificationReport(namedtuple("VerificationReport", "table verdicts")):
    """Every verdict of one table's verification, in text, JSON or CSV."""

    __slots__ = ()
    table: str
    verdicts: tuple[Verdict, ...]

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for verdict in self.verdicts:
            out[verdict.verdict] = out.get(verdict.verdict, 0) + 1
        return out

    @property
    def exit_status(self) -> int:
        return 1 if any(v.unexpected for v in self.verdicts) else 0

    def to_text(self) -> str:
        lines = [f"table {self.table}: {len(self.verdicts)} verdicts"]
        for v in self.verdicts:
            marks = []
            if v.whitelisted:
                marks.append("whitelisted")
            if v.unexpected:
                marks.append("UNEXPECTED")
            suffix = f" ({', '.join(marks)})" if marks else ""
            note = f"  {v.note}" if v.note else ""
            lines.append(f"  {v.verdict:<13} {v.key}{suffix}{note}")
        counts = " ".join(f"{k}={n}" for k, n in sorted(self.counts.items()))
        lines.append(f"summary: {counts}")
        lines.append(f"exit status: {self.exit_status}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {"table": self.table, "verdicts": [v._asdict() for v in self.verdicts]}
        payload |= {"counts": self.counts, "exit_status": self.exit_status}
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        return _csv(_VERDICT_COLUMNS, map(attrgetter(*_VERDICT_COLUMNS), self.verdicts))


def _verify_2_3(spec: TableSpec, rows: Sequence[ClassificationRow]) -> Iterator[Verdict]:
    for index, row in enumerate(rows):
        try:
            check = surflat.verify_row_2_3(row.params)
        except ValueError as exc:  # a loaded row fails here only on an odd K.A + A^2
            names = ("A2",) + surflat.FAMILY_FIELDS.get(row.params.get("family"), ())
            given = ", ".join(f"{n!r} = {row.params[n]}" for n in names if n in row.params)
            raise FixtureError(f"row {index}: {row.key}: {exc}; the row gives {given}") from exc
        flagged = check.status == "discrepancy"
        yield Verdict(
            key=row.key,
            verdict=check.status,
            note=check.note,
            expected=f"A^2={check.expected_AA}, g=3",
            recomputed=f"A^2={check.recomputed_AA}, g={check.recomputed_g}",
            whitelisted=flagged and row.expect_discrepancy,
            unexpected=flagged and not row.expect_discrepancy,
        )


def _verify_3_25(spec: TableSpec, rows: Sequence[ClassificationRow]) -> Iterator[Verdict]:
    by_d: dict[int, dict[tuple[int, ...], ClassificationRow]] = {}
    for row in rows:
        by_d.setdefault(row.params["d"], {})[tuple(row.params["splitting"])] = row
    for d in sorted(set(by_d).union(classify.quadric_params(0, 3).d_range)):
        table_rows = {split: row.paper_status for split, row in by_d.get(d, {}).items()}
        candidates = classify.enumerate_quadric_splittings(d, paper_rows=table_rows)
        admitted = {c.splitting: c for c in candidates if c.status == "admitted"}
        excluded = None  # splitting -> trace, built at the first paper-only row
        for split, row in sorted(by_d.get(d, {}).items()):
            if split in admitted:
                yield Verdict(key=row.key, verdict="verified")
            else:
                if excluded is None:
                    excluded = {c.splitting: c.rule for c in candidates if c.rule is not None}
                trace = str(excluded[split]) if split in excluded else "not generated"
                yield Verdict(
                    key=row.key,
                    verdict="paper-only",
                    note=f"enumerator rejects a published row: {trace}",
                    unexpected=True,
                )
        for split, cand in sorted(admitted.items()):
            if cand.beyond_paper:
                yield Verdict(
                    key=f"d={d} {split}",
                    verdict="beyond-paper",
                    note="admitted by the default rules but absent from the published list",
                    unexpected=d >= 4,
                )


def _verify_exact_list(
    recompute: Callable[[], Sequence[tuple]],
    spec: TableSpec,
    rows: Sequence[ClassificationRow],
) -> Iterator[Verdict]:
    """Diff a recomputed list of tuples against the rows' ``spec.fields`` tuples."""
    expected = recompute()
    fixture = [tuple(row.params[f] for f in spec.fields) for row in rows]
    for item, row in zip(fixture, rows):
        if item in expected:
            yield Verdict(key=row.key, verdict="verified")
        else:
            yield Verdict(key=row.key, verdict="paper-only", note="not recomputed", unexpected=True)
    for item in expected:
        if item not in fixture:
            yield Verdict(
                key=str(item),
                verdict="beyond-paper",
                note="recomputed but absent from the fixture",
                unexpected=True,
            )


# ---------------------------------------------------------------------------
# the table registry


def _is_splitting(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) >= 4
        and all(map(_is_int, value))
        and value == sorted(value)
    )


def _check_family_fields(index: int, raw: Mapping) -> None:
    """A 2.3 row carries its family's integer parameters and positive integer weights."""
    for name in surflat.FAMILY_FIELDS[raw["family"]]:
        _require(index, raw, name)
    if "weights" in raw:
        _require(
            index, raw, "weights",
            lambda v: isinstance(v, list) and all(_is_int(m) and m >= 1 for m in v),
            "an integer array with entries >= 1",
        )


def _check_quadric_relations(index: int, raw: Mapping) -> None:
    """A 3.25 degree lies in the rational-base window and the splitting sums to e."""
    window = classify.quadric_params(0, 3).d_range
    _require(index, raw, "d", window.__contains__, f"in [{window[0]}, {window[-1]}]")
    e = classify.quadric_params(0, len(raw["splitting"]) - 1).e(raw["d"])
    _require(index, raw, "splitting", lambda v: sum(v) == e, f"an array summing to e = {e}")


def _key_2_3(raw: Mapping) -> str:
    return f"{raw['family']}-{raw['row']}" + (f"/e={raw['e']}" if "e" in raw else "")


TABLES: dict[str, TableSpec] = {
    "2.3": TableSpec(
        fields=("row", "A2"),
        other={
            "family": (
                lambda v: isinstance(v, str) and v in surflat.FAMILY_FIELDS,
                "one of " + ", ".join(surflat.FAMILY_FIELDS),
            )
        },
        key=_key_2_3,
        recompute=_verify_2_3,
        check=_check_family_fields,
    ),
    "3.25": TableSpec(
        fields=("d",),
        other={
            "splitting": (_is_splitting, "an integer array, ascending, with at least 4 entries"),
            "status": (lambda v: isinstance(v, str), "a string"),
        },
        key=lambda raw: f"d={raw['d']} {tuple(raw['splitting'])}",
        recompute=_verify_3_25,
        check=_check_quadric_relations,
    ),
    "5.7": TableSpec(
        fields=("Ln", "r", "Lpn"),
        key=lambda raw: f"({raw['Ln']},{raw['r']},{raw['Lpn']})",
        recompute=partial(
            _verify_exact_list, lambda: classify.reduction_tuples().general_type_tuples
        ),
    ),
    "2.8.2": TableSpec(
        fields=("degT", "degG", "c2", "L3"),
        key=lambda raw: f"degT={raw['degT']}",
        recompute=partial(
            _verify_exact_list,
            lambda: [(r.degT, r.degG, r.c2, r.L3) for r in surflat.deg_t_enumeration()],
        ),
    ),
    "4.4": TableSpec(
        fields=("g_C", "e", "b", "d"),
        key=lambda raw: f"type {raw.get('type', raw['d'])}",
        recompute=partial(
            _verify_exact_list,
            lambda: [(s.g_C, s.e, s.b, s.d) for s in classify.veronese_solutions()],
        ),
    ),
}
TABLE_IDS = tuple(TABLES)


def _spec(table: str) -> TableSpec:
    if table not in TABLES:
        raise FixtureError(f"unknown table id {table!r}")
    return TABLES[table]


def verify(table: str, rows: Sequence[ClassificationRow]) -> VerificationReport:
    """Recompute a table and diff it against fixture rows."""
    spec = _spec(table)
    if any(row.table != table for row in rows):
        raise FixtureError(f"rows do not all belong to table {table!r}")
    return VerificationReport(table=table, verdicts=tuple(spec.recompute(spec, rows)))


# ---------------------------------------------------------------------------
# brute-force ring oracle and self-test


def naive_reduce(rank: int, c1: int, terms: Sequence[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """Exhaustively rewrite a term list under F^2 = 0 and H^rank = c1*H^(rank-1)*F."""
    out: dict[tuple[int, int], int] = {}
    for i, j, c in terms:
        while i >= rank:
            i, j, c = i - 1, j + 1, c * c1
        if j >= 2 or c == 0:
            continue
        out[(i, j)] = out.get((i, j), 0) + c
    return {key: c for key, c in out.items() if c != 0}


def naive_product(
    rank: int, c1: int, factors: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], int]:
    """Fully expand a product of h*H + f*F factors in Z[H, F], then reduce once.

    ``coeffs[j]`` is the coefficient of H^(k-j)*F^j after k factors.  Every F^j is
    kept; no ring relation is applied before ``naive_reduce`` sees the k + 1 terms.
    """
    coeffs = [1]
    for h, f in factors:
        expanded, below = [], 0
        for a in coeffs:
            expanded.append(h * a + f * below)
            below = a
        expanded.append(f * below)
        coeffs = expanded
    return naive_reduce(rank, c1, [(len(coeffs) - 1 - j, j, c) for j, c in enumerate(coeffs)])


def naive_top_degree(rank: int, c1: int, factors: Sequence[tuple[int, int]]) -> int:
    return naive_product(rank, c1, factors).get((rank - 1, 1), 0)


class IdentityCounterexample(namedtuple("IdentityCounterexample", "n d g_C lhs rhs")):
    """A grid point where the variant degree/defect relation fails: lhs != rhs."""

    __slots__ = ()
    n: int
    d: int
    g_C: int
    lhs: int
    rhs: int


class SelfTestReport(
    namedtuple(
        "SelfTestReport",
        "grid_points grid_mismatches max_deviation veronese_points veronese_mismatches "
        "corrected_identity_points corrected_identity_failures variant_identity_counterexamples",
    )
):
    """The oracle self-test's counts, in text or JSON."""

    __slots__ = ()
    grid_points: int
    grid_mismatches: int
    max_deviation: int
    veronese_points: int
    veronese_mismatches: int
    corrected_identity_points: int
    corrected_identity_failures: int
    variant_identity_counterexamples: tuple[IdentityCounterexample, ...]

    @property
    def passed(self) -> bool:
        return (
            self.grid_mismatches == 0
            and self.veronese_mismatches == 0
            and self.corrected_identity_failures == 0
            and bool(self.variant_identity_counterexamples)
        )

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def to_text(self) -> str:
        lines = [
            f"ring-oracle grid: {self.grid_points} points, "
            f"{self.grid_mismatches} mismatches, max deviation {self.max_deviation}",
            f"rank-3 polarization grid: {self.veronese_points} points, "
            f"{self.veronese_mismatches} mismatches",
            f"relation (n-1)*d + s + 4n*g(C) = 8n [(3.1), corrected]: holds at "
            f"{self.corrected_identity_points - self.corrected_identity_failures} of "
            f"{self.corrected_identity_points} genus-3 points",
        ]
        if self.variant_identity_counterexamples:
            c = self.variant_identity_counterexamples[0]
            lines.append(
                "variant relation (n+1)*d + s + 4n*g(C) = 8n FAILS: counterexample "
                f"n={c.n} d={c.d} g(C)={c.g_C}: lhs {c.lhs} != {c.rhs}"
            )
        else:
            lines.append("variant relation (n+1)*d + s + 4n*g(C) = 8n: no counterexample found")
        lines.append(f"self-test {'PASSED' if self.passed else 'FAILED'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        # JSON wants each counterexample as an object
        payload = self._asdict()
        key = "variant_identity_counterexamples"
        payload[key] = [c._asdict() for c in payload[key]]
        return json.dumps(payload | {"passed": self.passed}, indent=2)


def oracle_selftest() -> SelfTestReport:
    """Compare closed forms, the reducing ring and the naive oracle on a grid.

    Grid: g(C) in {0,1,2}, c1 in [-6,6], b in [-6,6], rank in [3,7].  Also
    probes the two coefficient variants of the degree/defect relation at
    every genus-3 grid point; the (n-1)-variant must hold everywhere and
    the (n+1)-variant must fail (the first counterexample is reported).

    The oracle's degree product H^(rank-1)·(2H + bF) reads only rank, c1 and
    b, so it is expanded once, in the g(C) = 0 pass, and the g(C) = 1 and 2
    passes read it back from a dict local to this call.  This does not fold
    the oracle into the ring: the shared value is the oracle's own output,
    never a ring value, and every grid point still runs the ring route
    (closed forms, both products, the adjoint class) on its own bundle.  The
    oracle's adjoint product, whose input depends on g(C), is expanded at
    every point.
    """
    grid_points = grid_mismatches = max_deviation = 0
    veronese_points = veronese_mismatches = 0
    identity_points = identity_failures = 0
    counterexamples: list[IdentityCounterexample] = []
    naive_degrees: dict[tuple[int, int, int], int] = {}  # (rank, c1, b) -> oracle degree

    for g_c in (0, 1, 2):
        for rank in range(3, 8):
            # the H-power runs depend only on the rank
            h_run = [(1, 0)] * (rank - 2)
            h_cls_run = [DivisorClass(1, 0)] * (rank - 2)
            degree_run = [(1, 0), *h_run]
            degree_cls_run = [DivisorClass(1, 0), *h_cls_run]
            for e in range(-6, 7):
                bundle = ProjBundleModel(BaseCurve(g_c), rank, e)
                k_class = canonical_class(bundle)
                k_shifted = k_class + (rank - 2) * DivisorClass(1, 0)
                for b in range(-6, 7):
                    grid_points += 1
                    closed = quadric_invariants(bundle, b)
                    member = (2, b)
                    if g_c == 0:
                        d_naive = naive_degrees[rank, e, b] = naive_top_degree(
                            rank, e, [*degree_run, member]
                        )
                    else:
                        d_naive = naive_degrees[rank, e, b]
                    adjoint = (k_class.h + 2 + (rank - 2), k_class.f + b)
                    g2_naive = naive_top_degree(rank, e, [adjoint, *h_run, member])
                    member_cls = DivisorClass(2, b)
                    d_ring = top_degree(
                        bundle, multiply_classes(bundle, [*degree_cls_run, member_cls])
                    )
                    adjoint_cls = k_shifted + member_cls
                    g2_ring = top_degree(
                        bundle, multiply_classes(bundle, [adjoint_cls, *h_cls_run, member_cls])
                    )
                    deviation = max(
                        abs(closed.d - d_naive),
                        abs(2 * closed.g - 2 - g2_naive),
                        abs(closed.d - d_ring),
                        abs(2 * closed.g - 2 - g2_ring),
                    )
                    if deviation:
                        grid_mismatches += 1
                        max_deviation = max(max_deviation, deviation)

                    if rank == 3:
                        veronese_points += 1
                        ring = veronese_invariants(bundle, b)
                        closed_d = 8 * e + 12 * b
                        closed_2g2 = closed_d + 8 * (g_c - 1)
                        if ring.d != closed_d or 2 * ring.g - 2 != closed_2g2:
                            veronese_mismatches += 1

                    if closed.g == 3 and rank >= 4:
                        identity_points += 1
                        n = rank - 1
                        rhs = 8 * n
                        if (n - 1) * closed.d + closed.s + 4 * n * g_c != rhs:
                            identity_failures += 1
                        lhs = (n + 1) * closed.d + closed.s + 4 * n * g_c
                        if lhs != rhs:
                            counterexamples.append(
                                IdentityCounterexample(n=n, d=closed.d, g_C=g_c, lhs=lhs, rhs=rhs)
                            )

    # feature the canonical counterexample when the probe finds it
    counterexamples.sort(key=lambda c: (c.n, c.d, c.g_C) != (3, 8, 0))
    return SelfTestReport(
        grid_points=grid_points,
        grid_mismatches=grid_mismatches,
        max_deviation=max_deviation,
        veronese_points=veronese_points,
        veronese_mismatches=veronese_mismatches,
        corrected_identity_points=identity_points,
        corrected_identity_failures=identity_failures,
        variant_identity_counterexamples=tuple(counterexamples),
    )


# ---------------------------------------------------------------------------
# CLI


def _grouped(
    candidates: Sequence[classify.Candidate], render: Callable[[classify.Candidate], tuple]
) -> Iterator[tuple[classify.Candidate, tuple]]:
    """Pair each candidate with ``render`` of its group, rendered once per group.

    A group is every candidate with the same d, n, rule, paper status and
    beyond-paper flag: every field but the splitting's entries.  At an s < 0
    fibre dimension one trace excludes every tuple, so one group holds them all.
    """
    memo: dict[tuple, tuple] = {}
    for c in candidates:
        key = (c.d, len(c.splitting), c.rule, c.paper_status, c.beyond_paper)
        shared = memo.get(key)
        if shared is None:
            shared = memo[key] = render(c)
        yield c, shared


def _text_halves(c: classify.Candidate) -> tuple[str, str]:
    if c.status == "admitted":
        extra = c.paper_status or ("beyond-paper" if c.beyond_paper else "")
        verdict = "admitted" + (f"  {extra}" if extra else "")
    else:
        verdict = f"excluded  {c.rule}"
    return f"  n={c.n}  ", f"  s={c.s}  {verdict}"


def _candidates_text(candidates: Sequence[classify.Candidate]) -> str:
    if not candidates:
        return "no candidates"
    head = candidates[0]
    lines = [f"d={head.d}  e={head.e}  b={head.b}"]
    grouped = _grouped(candidates, _text_halves)
    lines += [f"{lead}{c.splitting}{rest}" for c, (lead, rest) in grouped]
    return "\n".join(lines)


def _candidate_payload(c: classify.Candidate) -> dict:
    return {
        "splitting": list(c.splitting),
        "n": c.n,
        "d": c.d,
        "e": c.e,
        "b": c.b,
        "s": c.s,
        "status": c.status,
        "rule": None if c.rule is None else c.rule._asdict(),
        "paper_status": c.paper_status,
        "beyond_paper": c.beyond_paper,
    }


def _json_halves(c: classify.Candidate) -> tuple[str, str]:
    """The group's array item, indented as a list element, cut at its splitting.

    The cut is at the first ``"splitting": []``: json escapes a quote inside a
    string, so that raw text cannot come from a string value.
    """
    payload = _candidate_payload(c)
    payload["splitting"] = []
    item = "  " + json.dumps(payload, indent=2).replace("\n", "\n  ")
    lead, _, rest = item.partition('"splitting": []')
    return lead + '"splitting": [\n      ', "\n    ]" + rest


def _candidates_json(candidates: Sequence[classify.Candidate]) -> str:
    """``json.dumps([_candidate_payload(c) ...], indent=2)``, rendered per group."""
    if not candidates:
        return "[]"
    # json writes an int as str() does; a splitting always has at least 4 entries
    items = (
        lead + ",\n      ".join(map(str, c.splitting)) + rest
        for c, (lead, rest) in _grouped(candidates, _json_halves)
    )
    return "[\n" + ",\n".join(items) + "\n]"


def _csv_halves(c: classify.Candidate) -> tuple[tuple, tuple]:
    rule = (c.rule.rule, c.rule.detail, c.rule.citation) if c.rule else ("", "", "")
    return (c.d, c.n), (c.e, c.b, c.s, c.status, *rule, c.paper_status or "", c.beyond_paper)


def _candidates_csv(candidates: Sequence[classify.Candidate]) -> str:
    header = ("d", "n", "splitting", "e", "b", "s", "status", "rule", "detail", "citation", "paper_status", "beyond_paper")
    return _csv(
        header,
        (
            (*lead, " ".join(map(str, c.splitting)), *rest)
            for c, (lead, rest) in _grouped(candidates, _csv_halves)
        ),
    )


_RULES_BY_NAME = {rule.name: rule for rule in classify.RULES}


def _parse_rules(spec: str) -> list:
    if spec == "default":
        return classify.default_rules()
    rules = []
    for name in spec.split(","):
        name = name.strip()
        if name not in _RULES_BY_NAME:
            raise ValueError(
                f"unknown rule {name!r}; choose from {', '.join(sorted(_RULES_BY_NAME))}"
            )
        rules.append(_RULES_BY_NAME[name]())
    return rules


def _cmd_invariants(args) -> int:
    bundle = ProjBundleModel(BaseCurve(args.base_genus), args.rank, args.c1)
    if args.veronese:
        result = veronese_invariants(bundle, args.b)
        print(json.dumps({"d": result.d, "g": result.g}))
    else:
        result = quadric_invariants(bundle, args.b)
        print(json.dumps({"d": result.d, "g": result.g, "s": result.s}))
    return 0


def _emit(fmt: str, **render: Callable[[], str]) -> None:
    """Print the rendering ``fmt`` picks; CSV already ends with a newline."""
    print(render[fmt](), end="" if fmt == "csv" else "\n")


def _cmd_enumerate(args) -> int:
    default_stop = classify.default_n_range(args.d).stop
    n_range = range(args.n_min, default_stop if args.n_max is None else args.n_max + 1)
    rules = _parse_rules(args.rules)
    rows = load_fixture(packaged_fixture_path("3.25"), "3.25")
    paper_rows = {
        tuple(r.params["splitting"]): r.paper_status
        for r in rows
        if r.params["d"] == args.d
    }
    candidates = classify.enumerate_quadric_splittings(
        args.d, n_range=n_range, rules=rules, paper_rows=paper_rows
    )
    _emit(
        args.format,
        table=lambda: _candidates_text(candidates),
        json=lambda: _candidates_json(candidates),
        csv=lambda: _candidates_csv(candidates),
    )
    return 0


def _cmd_verify(args) -> int:
    path = args.fixture if args.fixture else packaged_fixture_path(args.table)
    report = verify(args.table, load_fixture(path, args.table))
    _emit(args.format, table=report.to_text, json=report.to_json, csv=report.to_csv)
    return report.exit_status


def _cmd_selftest(args) -> int:
    report = oracle_selftest()
    _emit(args.format, table=report.to_text, json=report.to_json)
    return report.exit_status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus3",
        description=(
            "Exact numerical invariants and classification-table verification "
            "for polarized manifolds of sectional genus three."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="degree/genus/defect of a fibration model")
    p_inv.add_argument("--base-genus", type=int, required=True, help="genus of the base curve")
    p_inv.add_argument("--rank", type=int, required=True, help="rank of the bundle")
    p_inv.add_argument("--c1", type=int, required=True, help="first Chern number of the bundle")
    p_inv.add_argument("--b", type=int, required=True, help="twist degree of the member class")
    p_inv.add_argument(
        "--veronese",
        action="store_true",
        help="treat L = 2H + bF as the polarization of a rank-3 Veronese fibration",
    )
    p_inv.set_defaults(func=_cmd_invariants)

    p_enum = sub.add_parser("enumerate", help="splitting-type candidates at one degree")
    p_enum.add_argument("--d", type=int, required=True, help="degree L^n")
    p_enum.add_argument("--n-min", type=int, default=3)
    p_enum.add_argument("--n-max", type=int, default=None)
    p_enum.add_argument(
        "--rules",
        default="default",
        help="'default' or a comma-separated rule list "
        f"({', '.join(sorted(_RULES_BY_NAME))})",
    )
    p_enum.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="recompute a table and diff against a fixture")
    p_verify.add_argument("--table", required=True, choices=TABLE_IDS)
    p_verify.add_argument(
        "--fixture", default=None, help="fixture path (defaults to the bundled fixture)"
    )
    p_verify.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_verify.set_defaults(func=_cmd_verify)

    p_self = sub.add_parser(
        "oracle-selftest", help="grid comparison of closed forms against the naive ring oracle"
    )
    p_self.add_argument("--format", choices=("table", "json"), default="table")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's final flush
        return status
    except BrokenPipeError:
        # the reader stopped early: say nothing, and point stdout at devnull so
        # that the interpreter's final flush of the unwritten rest stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a reader that went away
    except (FixtureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in genus3 itself; exit 1 stays "unexpected verdict"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
