"""Fixture storage, table verification, ring self-test and the CLI.

Each published table is declared once, in ``TABLES``: its fixture
schema, row key and recomputation.  Fixtures are UTF-8 JSON, one document
per table, rows as objects; the splitting types are integer arrays and
status texts are copied verbatim from the published tables.  Expected
discrepancies are whitelisted in the fixture itself (flag
``expect_discrepancy``: ``true``), so the exception ledger is data rather than code.

Exit codes: 0 success, 1 verification failure, 2 usage or input error (or an
internal error, reported in one line without a traceback), 141 when the reader
of standard output closes it early (nothing is printed on standard error).
"""

from __future__ import annotations

import atexit
import gc
import io
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cache, partial
from operator import attrgetter
from types import SimpleNamespace

# classify and surflat are imported by the functions that use them, so each
# command loads only the engines it runs; ``from __future__ import annotations``
# never evaluates the annotations that name ``classify.Candidate``
from .chowcurve import (
    BaseCurve,
    ProjBundleModel,
    Record,
    canonical_class,
    int_text,
    multiply_classes,
    quadric_invariants,
    top_degree,
    veronese_invariants,
)


class FixtureError(ValueError):
    """Malformed fixture file; the message names the row and field."""


class ClassificationRow(Record):
    """One fixture row: its table, its key and the checked mapping itself."""

    __slots__ = ()
    table: str
    key: str
    params: dict


class TableSpec(Record):
    """One published table: its fixture schema, row key and recomputation.

    ``check`` defaults to accepting every row.
    """

    __slots__ = ()
    fields: tuple[str, ...]  # required integer fields, in exact-list tuple order
    key: Callable[[Mapping], str]
    recompute: Callable[[TableSpec, Sequence[ClassificationRow]], Iterable[Verdict]]
    # every field beyond ``fields``
    check: Callable[[int, Mapping], None] = lambda index, raw: None


def _is_int(value) -> bool:
    # type(x) is int rejects bool, which isinstance would accept
    return type(value) is int


def _is_text(value) -> bool:
    return isinstance(value, str) and value.isprintable()  # no line break to split a record


def _require(index: int, raw: Mapping, name: str, test=_is_int, what="an integer") -> None:
    if name not in raw:
        raise FixtureError(f"row {index}: missing field {name!r}")
    if not test(raw[name]):
        raise FixtureError(f"row {index}: field {name!r} must be {what}, got {raw[name]!r}")


def _check_row(spec: TableSpec, index: int, raw: object) -> None:
    """Raise a FixtureError naming row ``index`` and the field it gets wrong."""
    if not isinstance(raw, dict):
        raise FixtureError(f"row {index}: expected an object, got {type(raw).__name__}")
    for name in spec.fields:
        _require(index, raw, name)
    spec.check(index, raw)


def _to_row(table: str, index: int, raw: object) -> ClassificationRow:
    spec = TABLES[table]
    _check_row(spec, index, raw)
    return ClassificationRow(table, spec.key(raw), dict(raw))


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
    # a UnicodeDecodeError, or an integer past the interpreter's digit limit
    except (ValueError, RecursionError) as exc:
        raise FixtureError(f"fixture {path}: {exc}") from exc
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


class Verdict(Record):
    """One row's verdict, with the numbers it compared and how it counts."""

    __slots__ = ()
    key: str
    verdict: str  # "verified" | "discrepancy" | "beyond-paper" | "paper-only"
    note: str = ""
    expected: str = ""
    recomputed: str = ""
    whitelisted: bool = False
    unexpected: bool = False


_VERDICT_COLUMNS = ("key", "verdict", "expected", "recomputed", "whitelisted", "unexpected", "note")


def _csv(header: Sequence[str], records: Iterable[Sequence]) -> str:
    import csv  # only CSV output loads it

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buffer.getvalue()


# Through Python 3.13, json.dumps runs its pure-Python encoder whenever
# ``indent`` is set.  The C encoder takes no indent, but with these item
# separators its output already breaks and indents the fields of records at
# depth 2, and of an object at depth 1, as ``indent=2`` does
_RECORD_FIELDS = json.JSONEncoder(separators=(",\n      ", ": "))
_OBJECT_FIELDS = json.JSONEncoder(separators=(",\n    ", ": "))


def _json_document(payload: Mapping) -> str:
    r"""``json.dumps(payload, indent=2)`` for a report, through json's C encoder.

    ``payload`` is a non-empty object; each value is a scalar, a flat object,
    or a tuple of named-tuple records with scalar fields, which is written as
    an array of objects, one ``_asdict()`` per record.  One ``encode`` call
    renders a non-empty array, and one ``replace`` re-indents its record breaks
    ``},\n      {``.  That text cannot come from a string value, because json
    escapes every newline inside a string.
    """
    members = []
    for key, value in payload.items():
        if isinstance(value, tuple) and value:
            records = _RECORD_FIELDS.encode([r._asdict() for r in value])[2:-2]
            records = records.replace("},\n      {", "\n    },\n    {\n      ")
            text = "[\n    {\n      " + records + "\n    }\n  ]"
        elif isinstance(value, dict) and value:
            text = "{\n    " + _OBJECT_FIELDS.encode(value)[1:-1] + "\n  }"
        else:
            text = json.dumps(value)
        members.append(json.dumps(key) + ": " + text)
    return "{\n  " + ",\n  ".join(members) + "\n}"


class VerificationReport(Record):
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
        return _json_document(
            self._asdict() | {"counts": self.counts, "exit_status": self.exit_status}
        )

    def to_csv(self) -> str:
        return _csv(_VERDICT_COLUMNS, map(attrgetter(*_VERDICT_COLUMNS), self.verdicts))


def _verify_2_3(spec: TableSpec, rows: Sequence[ClassificationRow]) -> Iterator[Verdict]:
    from . import surflat

    for index, row in enumerate(rows):
        params = row.params
        read = surflat.FAMILIES[params["family"]][0]  # the fields the minimal model reads
        try:
            result = surflat.verify_row_2_3(params)
        except ValueError as exc:  # a checked row fails here only on an odd K.A + A^2
            given = ", ".join(f"{n!r} = {int_text(params[n])}" for n in read)
            raise FixtureError(f"row {index}: {row.key}: {exc}; the row gives {given}") from exc
        recomputed, expected = (result.AA, result.g), (params["A2"], 3)
        flagged = recomputed != expected
        whitelisted = flagged and params.get("expect_discrepancy") is True
        try:
            text = f"A^2={result.AA}, g={result.g}"
        except ValueError as exc:  # every loaded int prints, but its square may not
            read += ("weights",) if "weights" in params else ()
            raise FixtureError(
                f"row {index}: {row.key}: recomputed (A^2, g) = ({int_text(result.AA)}, "
                f"{int_text(result.g)}) is too long to print; it is computed from the "
                f"fields {', '.join(map(repr, read))}"
            ) from exc
        yield Verdict(
            key=row.key,
            verdict="discrepancy" if flagged else "verified",
            note=f"recomputed (A^2, g) = {recomputed}, table says {expected}" if flagged else "",
            expected=f"A^2={expected[0]}, g=3",
            recomputed=text,
            whitelisted=whitelisted,
            unexpected=flagged and not whitelisted,
        )


def _published_at(rows: Iterable[ClassificationRow], d: int) -> dict[tuple[int, ...], str]:
    """The ``{splitting: status}`` map of the 3.25 rows at degree ``d``."""
    return {tuple(r.params["splitting"]): r.params["status"] for r in rows if r.params["d"] == d}


def _verify_3_25(spec: TableSpec, rows: Sequence[ClassificationRow]) -> Iterator[Verdict]:
    from . import classify

    for d in _rational_d_window():  # verify has checked every row's d into the window
        published = _published_at(rows, d)
        candidates = classify.enumerate_quadric_splittings(d, paper_rows=published)
        admitted = [c for c in candidates if c.rule is None]
        found = {c.splitting for c in admitted}
        for split in sorted(published):
            key = spec.key({"d": d, "splitting": split})
            if split in found:
                yield Verdict(key=key, verdict="verified")
            else:
                # a splitting's length fixes n, so it is generated at most once
                trace = next(
                    (str(c.rule) for c in candidates if c.splitting == split), "not generated"
                )
                yield Verdict(
                    key=key,
                    verdict="paper-only",
                    note=f"enumerator rejects a published row: {trace}",
                    unexpected=True,
                )
        for split in sorted(c.splitting for c in admitted if c.beyond_paper):
            yield Verdict(
                key=spec.key({"d": d, "splitting": split}),
                verdict="beyond-paper",
                note="admitted by the default rules but absent from the published list",
                unexpected=d >= 4,
            )


def _verify_exact_list(
    recompute: Callable[[], Sequence[tuple]],
    spec: TableSpec,
    rows: Sequence[ClassificationRow],
) -> Iterator[Verdict]:
    """Diff recomputed records against the rows' ``spec.fields`` tuples.

    A record's fields are in ``spec.fields`` order, so a named tuple equals its
    row's plain tuple; a record that no row gives is keyed by that tuple's text.
    """
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
                key=str(tuple(item)),
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


def _check_2_3(index: int, raw: Mapping) -> None:
    """A 2.3 row's family and that family's integer parameters; the optional
    integer ``e``, positive integer weights and boolean ``expect_discrepancy``."""
    families = _families_2_3()
    _require(
        index, raw, "family",
        lambda v: isinstance(v, str) and v in families, "one of " + ", ".join(families),
    )
    for name in families[raw["family"]][0]:
        _require(index, raw, name)
    if "e" in raw:  # the row key reads it in every family
        _require(index, raw, "e")
    if "weights" in raw:
        _require(
            index, raw, "weights",
            lambda v: isinstance(v, list) and all(_is_int(m) and m >= 1 for m in v),
            "an integer array with entries >= 1",
        )
    if "expect_discrepancy" in raw:
        _require(index, raw, "expect_discrepancy", lambda v: type(v) is bool, "true or false")


# the schema checks run once per row, so the engine data they read is looked up
# once, not imported per row
@cache
def _families_2_3() -> Mapping:
    from . import surflat

    return surflat.FAMILIES


@cache
def _rational_base(n: int) -> classify.QuadricParams:
    """The rational base's ``classify.QuadricParams`` at fibration dimension ``n``."""
    from . import classify

    return classify.QuadricParams(0, n)


@cache
def _rational_d_window() -> range:
    """The rational base's degree window, widest at n = 3."""
    return _rational_base(3).d_range


def _check_3_25(index: int, raw: Mapping) -> None:
    """A 3.25 row's ascending splitting and printable status; the degree lies in the
    rational-base window and the splitting sums to e."""
    _require(
        index, raw, "splitting",
        _is_splitting, "an integer array, ascending, with at least 4 entries",
    )
    _require(index, raw, "status", _is_text, "printable text")
    window = _rational_d_window()
    _require(index, raw, "d", window.__contains__, f"in [{window[0]}, {window[-1]}]")
    e = _rational_base(len(raw["splitting"]) - 1).e(raw["d"])
    _require(index, raw, "splitting", lambda v: sum(v) == e, f"an array summing to e = {e}")


# the exact-list tables' recomputations: each looks its function up per call,
# so a tracer that swaps it in sees it
def _general_type_tuples() -> Sequence[tuple]:
    from . import classify

    return classify.reduction_tuples().general_type_tuples


def _deg_t_enumeration() -> Sequence[tuple]:
    from . import surflat

    return surflat.deg_t_enumeration()


def _veronese_solutions() -> Sequence[tuple]:
    from . import classify

    return classify.veronese_solutions()


def _check_4_4(index: int, raw: Mapping) -> None:
    if "type" in raw:  # the row key reads it
        _require(index, raw, "type", _is_text, "printable text")


TABLES: dict[str, TableSpec] = {
    "2.3": TableSpec(
        fields=("row", "A2"),
        key=lambda raw: f"{raw['family']}-{raw['row']}" + (f"/e={raw['e']}" if "e" in raw else ""),
        recompute=_verify_2_3,
        check=_check_2_3,
    ),
    "3.25": TableSpec(
        fields=("d",),
        key=lambda raw: f"d={raw['d']} {tuple(raw['splitting'])}",
        recompute=_verify_3_25,
        check=_check_3_25,
    ),
    "5.7": TableSpec(
        fields=("Ln", "r", "Lpn"),
        key=lambda raw: f"({raw['Ln']},{raw['r']},{raw['Lpn']})",
        recompute=partial(_verify_exact_list, _general_type_tuples),
    ),
    "2.8.2": TableSpec(
        fields=("degT", "degG", "c2", "L3"),
        key=lambda raw: f"degT={raw['degT']}",
        recompute=partial(_verify_exact_list, _deg_t_enumeration),
    ),
    "4.4": TableSpec(
        fields=("g_C", "e", "b", "d"),
        key=lambda raw: f"type {raw.get('type', raw['d'])}",
        recompute=partial(_verify_exact_list, _veronese_solutions),
        check=_check_4_4,
    ),
}
TABLE_IDS = tuple(TABLES)


def _spec(table: str) -> TableSpec:
    if table not in TABLES:
        raise FixtureError(f"unknown table id {table!r}")
    return TABLES[table]


def verify(table: str, rows: Sequence[ClassificationRow]) -> VerificationReport:
    """Recompute a table and diff it against fixture rows.

    Rows are schema-checked first, as ``load_fixture`` checks them: a bad
    row built by a caller raises a FixtureError naming the row and field.
    """
    spec = _spec(table)
    if any(row.table != table for row in rows):
        raise FixtureError(f"rows do not all belong to table {table!r}")
    for index, row in enumerate(rows):
        _check_row(spec, index, row.params)
    return VerificationReport(table=table, verdicts=tuple(spec.recompute(spec, rows)))


# ---------------------------------------------------------------------------
# brute-force ring oracle and self-test


def naive_reduce(
    rank: int, c1: int, terms: Iterable[tuple[int, int, int]]
) -> dict[tuple[int, int], int]:
    """Exhaustively rewrite terms (i, j, c) = c*H^i*F^j under F^2 = 0 and H^rank = c1*H^(rank-1)*F.

    ``terms`` may be any iterable.  Only nonzero coefficients are kept; the
    filtering pass runs only when some bucket summed to zero.
    """
    out: dict[tuple[int, int], int] = {}
    cancelled = False
    for i, j, c in terms:
        while i >= rank:
            i, j, c = i - 1, j + 1, c * c1
        if j >= 2 or c == 0:
            continue
        total = out[(i, j)] = out.get((i, j), 0) + c
        cancelled = cancelled or total == 0
    if not cancelled:
        return out
    return {key: c for key, c in out.items() if c != 0}


def naive_expand(
    factors: Sequence[tuple[int, int]], start: Sequence[int] = (1,)
) -> Sequence[int]:
    """Fully expand a product of h*H + f*F factors in Z[H, F], continuing ``start``.

    ``start[j]`` is the coefficient of H^(k-j)*F^j in an earlier product of k
    factors, ``(1,)`` being the empty product, and so is ``[j]`` of the result
    after ``len(factors)`` more.  Every F^j is kept: no ring relation is applied.
    """
    coeffs = start
    for h, f in factors:
        expanded, below = [], 0
        for a in coeffs:
            expanded.append(h * a + f * below)
            below = a
        expanded.append(f * below)
        coeffs = expanded
    return coeffs


def naive_product(
    rank: int, c1: int, factors: Sequence[tuple[int, int]], start: Sequence[int] = (1,)
) -> dict[tuple[int, int], int]:
    """Expand ``start`` times a product of h*H + f*F factors, then reduce once.

    ``start`` is a ``naive_expand`` coefficient list; no ring relation is
    applied before ``naive_reduce`` sees the k + 1 terms of the whole product,
    which are handed to it lazily as (k - j, j, coefficient).
    """
    coeffs = naive_expand(factors, start)
    k = len(coeffs) - 1
    return naive_reduce(rank, c1, zip(range(k, -1, -1), range(k + 1), coeffs))


def naive_top_degree(
    rank: int, c1: int, factors: Sequence[tuple[int, int]], start: Sequence[int] = (1,)
) -> int:
    """The H^(rank-1)*F coefficient of ``naive_product``: the degree on P(E).

    Like the expansion and the reduction, it is linear in each factor, so
    with a leading factor (h, f) it equals h times its value with (1, 0)
    plus f times its value with (0, 1), for any ``start``.
    """
    return naive_product(rank, c1, factors, start).get((rank - 1, 1), 0)


class IdentityCounterexample(Record):
    """A grid point where the variant degree/defect relation fails: lhs != rhs."""

    __slots__ = ()
    n: int
    d: int
    g_C: int
    lhs: int
    rhs: int


class SelfTestReport(Record):
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
        return _json_document(self._asdict() | {"passed": self.passed})


def oracle_selftest() -> SelfTestReport:
    """Compare closed forms, the reducing ring and the naive oracle on a grid.

    Grid: g(C) in {0,1,2}, c1 in [-6,6], b in [-6,6], rank in [3,7].  Also
    probes the two coefficient variants of the degree/defect relation at
    every genus-3 grid point; the (n-1)-variant must hold everywhere and
    the (n+1)-variant must fail (the first counterexample is reported).
    The (n-1)-variant is an identity of the closed forms, (n-1)d + s +
    4n·g(C) - 8n = 2n·(g - 3) at every point, which is why
    ``corrected_identity_failures`` is 0 wherever g = 3.

    The grid proves that the three routes agree at ranks 3..7 for every
    (g(C), c1, b) in Z³; it is not a sample.  Each route only adds and
    multiplies the factors' coefficients, so each compared number (the
    closed forms d, 2g - 2 and s, the ring's and the oracle's d and 2g - 2)
    is a polynomial in g(C), c1 and b.  F² = 0 keeps its degree in each at
    most 1: a top-degree term carries either one F-coefficient, where b,
    g(C) and c1 (through K) enter, or the one H^rank reduction, where c1
    enters alone.  ``test_self_test_grid_routes_are_multi_affine`` pins
    that bound on the grid by second differences.  A multi-affine function
    of three integers is fixed by its values on a 2 × 2 × 2 box, which the
    grid contains, so routes that agree on the grid agree everywhere.

    The argument extends to every rank >= 3.  A factor H is the pair (1, 0):
    in the ring it leaves the fold (a, b) -> (a·h, a·f + b·h) unchanged, and
    in the oracle it only shifts every exponent by one.  So the rank enters
    the ring's and the oracle's numbers only through the final H^rank
    reduction and through K's H-coefficient -rank, which the adjoint's
    (rank-2)·H and the member's 2H cancel; the closed forms' d and 2g - 2
    do not read it.  ``test_self_test_routes_agree_at_rank_8`` in
    tests/test_properties.py runs the three routes on the same (g(C), c1, b)
    grid at rank 8 and finds no mismatch.

    The loops run rank, c1, b, g(C), outermost first, so each piece of
    work sits in the outermost loop that fixes what it reads.  Per rank:
    for every b, the tail H^(rank-2)·(2H + bF) as one list of (h, f)
    pairs, which the ring multiplies as it is and the oracle expands in
    Z[H, F] by ``naive_expand``, and the ring's degree factors H·tail.  Per
    (rank, c1): the bundle, adjoint_h and k_f at each g(C).  Per (rank, c1,
    b): the oracle's two products, each continuing from the tail with one
    more factor and reduced by ``naive_reduce`` only once it is whole: X_H
    = H·tail, the degree, and X_F = F·tail.  Neither reads g(C), so the
    innermost loop reads both at all three g(C).  A naive product is
    linear in its leading factor, so the oracle's adjoint number, the
    product with one more K + (2H + bF) + (rank-2)·H = adjoint_h·H + (k_f +
    b)·F, is read as adjoint_h·X_H + (k_f + b)·X_F.  On this grid
    adjoint_h is 0 (K = -rank·H + k_f·F), so the adjoint comparison reads
    only X_F.  A leading factor with a nonzero H part is compared, ring
    against oracle, by
    ``test_ring_matches_oracle_on_self_test_products_with_an_h_part`` in
    tests/test_properties.py.  No ring value is shared, and every grid
    point still runs the ring route (closed forms, both products, each
    integrated by ``top_degree``, the adjoint as a plain (h, f) pair) on its
    own bundle.  The deviation is only worked out at a point where a
    comparison fails.
    """
    grid_points = grid_mismatches = max_deviation = 0
    veronese_points = veronese_mismatches = 0
    identity_points = identity_failures = 0
    counterexamples: list[IdentityCounterexample] = []

    for rank in range(3, 8):
        # per b: the tail H^(rank-2)*(2H + bF), expanded for the oracle, and the
        # ring's degree factors H*tail
        tails = []
        for b in range(-6, 7):
            tail = [(1, 0)] * (rank - 2) + [(2, b)]
            tails.append((b, naive_expand(tail), [(1, 0), *tail], tail))
        for e in range(-6, 7):
            bases = []
            for g_c in (0, 1, 2):
                bundle = ProjBundleModel(BaseCurve(g_c), rank, e)
                k_h, k_f = canonical_class(bundle)
                # K + member + (rank - 2)*H: only its F-coefficient depends on b
                bases.append((g_c, bundle, k_h + 2 + (rank - 2), k_f))
            for b, expanded, ring_degree, tail in tails:
                d_naive = naive_top_degree(rank, e, [(1, 0)], expanded)
                x_f = naive_top_degree(rank, e, [(0, 1)], expanded)
                for g_c, bundle, adjoint_h, k_f in bases:
                    grid_points += 1
                    d, g, s = quadric_invariants(bundle, b)
                    g2_naive = adjoint_h * d_naive + (k_f + b) * x_f
                    d_ring = top_degree(bundle, multiply_classes(bundle, ring_degree))
                    g2_ring = top_degree(
                        bundle, multiply_classes(bundle, [(adjoint_h, k_f + b), *tail])
                    )
                    g2 = 2 * g - 2
                    if d != d_naive or g2 != g2_naive or d != d_ring or g2 != g2_ring:
                        grid_mismatches += 1
                        deviations = (d - d_naive, g2 - g2_naive, d - d_ring, g2 - g2_ring)
                        max_deviation = max(max_deviation, *map(abs, deviations))

                    if rank == 3:
                        veronese_points += 1
                        ring = veronese_invariants(bundle, b)
                        closed_d = 8 * e + 12 * b
                        closed_2g2 = closed_d + 8 * (g_c - 1)
                        if ring.d != closed_d or 2 * ring.g - 2 != closed_2g2:
                            veronese_mismatches += 1

                    if g == 3 and rank >= 4:
                        identity_points += 1
                        n = rank - 1
                        rhs = 8 * n
                        if (n - 1) * d + s + 4 * n * g_c != rhs:
                            identity_failures += 1
                        lhs = (n + 1) * d + s + 4 * n * g_c
                        if lhs != rhs:
                            counterexamples.append(IdentityCounterexample(n, d, g_c, lhs, rhs))

    # feature the canonical counterexample when the probe finds it, then order
    # the rest by g(C), n and d
    counterexamples.sort(key=lambda c: ((c.n, c.d, c.g_C) != (3, 8, 0), c.g_C, c.n, c.d))
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
    candidates: Sequence[classify.Candidate],
    halves: Callable[[classify.Candidate], tuple[str, str]],
    entries: Callable[[tuple[int, ...]], str],
) -> Iterator[str]:
    """Each candidate's splitting ``entries`` between its group's ``halves``, made once per group.

    A group is every candidate with the same d, n, rule, paper status and
    beyond-paper flag: every field but the splitting's entries.  At an s < 0
    fibre dimension one trace excludes every tuple, so one group holds them all.
    A splitting's entries are ints, whose text is only digits and minus signs:
    joined by spaces they need no CSV quoting, and as JSON no escaping.
    """
    memo: dict[tuple, tuple[str, str]] = {}
    for c in candidates:
        key = (c.d, len(c.splitting), c.rule, c.paper_status, c.beyond_paper)
        shared = memo.get(key)
        if shared is None:
            shared = memo[key] = halves(c)
        yield shared[0] + entries(c.splitting) + shared[1]


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
    lines = _grouped(candidates, _text_halves, str)  # a splitting tuple's repr is its text
    return "\n".join([f"d={head.d}  e={head.e}  b={head.b}", *lines])


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
    item = "  " + _json_document(payload).replace("\n", "\n  ")
    lead, _, rest = item.partition('"splitting": []')
    return lead + '"splitting": [\n      ', "\n    ]" + rest


def _candidates_json(candidates: Sequence[classify.Candidate]) -> str:
    """``json.dumps([_candidate_payload(c) ...], indent=2)``, rendered per group."""
    if not candidates:
        return "[]"
    # json writes an int as str() does; a splitting always has at least 4 entries
    items = _grouped(candidates, _json_halves, lambda s: ",\n      ".join(map(str, s)))
    return "[\n" + ",\n".join(items) + "\n]"


def _csv_halves(c: classify.Candidate) -> tuple[str, str]:
    rule = c.rule or ("", "", "")  # a RuleResult is (rule, detail, citation), the CSV's order
    rest = (c.e, c.b, c.s, c.status, *rule, c.paper_status or "", c.beyond_paper)
    return f"{c.d},{c.n},", "," + _csv(rest, ())  # rest as _csv's header row, newline and all


def _candidates_csv(candidates: Sequence[classify.Candidate]) -> str:
    buffer = io.StringIO()
    buffer.write("d,n,splitting,e,b,s,status,rule,detail,citation,paper_status,beyond_paper\n")
    buffer.writelines(_grouped(candidates, _csv_halves, lambda s: " ".join(map(str, s))))
    return buffer.getvalue()


def _parse_rules(spec: str) -> list:
    from . import classify

    if spec == "default":
        return classify.default_rules()
    by_name = {rule.name: rule for rule in classify.RULES}
    rules = []
    for name in spec.split(","):
        name = name.strip()
        if name not in by_name:
            raise ValueError(f"unknown rule {name!r}; choose from {', '.join(sorted(by_name))}")
        rules.append(by_name[name]())
    return rules


def _cmd_invariants(args) -> int:
    bundle = ProjBundleModel(BaseCurve(args.base_genus), args.rank, args.c1)
    invariants = veronese_invariants if args.veronese else quadric_invariants
    result = invariants(bundle, args.b)._asdict()
    try:
        text = json.dumps(result)
    except ValueError as exc:  # every parsed int prints, but what it multiplies may not
        raise ValueError(
            f"invariants ({', '.join(result)}) = ({', '.join(map(int_text, result.values()))}) "
            "are too long to print; they are computed from --base-genus, --rank, --c1 and --b"
        ) from exc
    print(text)
    return 0


def _emit(fmt: str, **render: Callable[[], str]) -> None:
    """Print the rendering ``fmt`` picks; CSV already ends with a newline."""
    print(render[fmt](), end="" if fmt == "csv" else "\n")


def _cmd_enumerate(args) -> int:
    from . import classify

    default_stop = classify.default_n_range(args.d).stop
    n_range = range(args.n_min, default_stop if args.n_max is None else args.n_max + 1)
    rules = _parse_rules(args.rules)
    paper_rows = _published_at(load_fixture(packaged_fixture_path("3.25"), "3.25"), args.d)
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


_FORMATS = ("table", "json", "csv")

# Each command's handler, help and options, every option as the keyword arguments
# of argparse's add_argument.  build_parser builds its argparse parser from this
# table, and _strict_args parses a well-formed command line from it without argparse
COMMANDS: dict[str, tuple[Callable[..., int], str, dict[str, dict]]] = {
    "invariants": (
        _cmd_invariants,
        "degree/genus/defect of a fibration model",
        {
            "--base-genus": {"type": int, "required": True, "help": "genus of the base curve"},
            "--rank": {"type": int, "required": True, "help": "rank of the bundle"},
            "--c1": {"type": int, "required": True, "help": "first Chern number of the bundle"},
            "--b": {"type": int, "required": True, "help": "twist degree of the member class"},
            "--veronese": {
                "action": "store_true",
                "default": False,
                "help": "treat L = 2H + bF as the polarization of a rank-3 Veronese fibration",
            },
        },
    ),
    "enumerate": (
        _cmd_enumerate,
        "splitting-type candidates at one degree",
        {
            "--d": {"type": int, "required": True, "help": "degree L^n"},
            "--n-min": {"type": int, "default": 3},
            "--n-max": {"type": int},
            # build_parser appends the rule names to this help
            "--rules": {"default": "default", "help": "'default' or a comma-separated rule list"},
            "--format": {"choices": _FORMATS, "default": "table"},
        },
    ),
    "verify": (
        _cmd_verify,
        "recompute a table and diff against a fixture",
        {
            "--table": {"required": True, "choices": TABLE_IDS},
            "--fixture": {"help": "fixture path (defaults to the bundled fixture)"},
            "--format": {"choices": _FORMATS, "default": "table"},
        },
    ),
    "oracle-selftest": (
        _cmd_selftest,
        "grid comparison of closed forms against the naive ring oracle",
        {"--format": {"choices": ("table", "json"), "default": "table"}},
    ),
}


def build_parser():
    """The ``argparse.ArgumentParser`` of ``COMMANDS``, which writes the CLI's help and
    usage errors."""
    import argparse  # loaded only for the command lines that _strict_args leaves to it

    from . import classify

    rule_names = ", ".join(sorted(rule.name for rule in classify.RULES))
    parser = argparse.ArgumentParser(
        prog="genus3",
        description=(
            "Exact numerical invariants and classification-table verification "
            "for polarized manifolds of sectional genus three."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, option in options.items():
            if flag == "--rules":
                option = option | {"help": f"{option['help']} ({rule_names})"}
            command.add_argument(flag, **option)
        command.set_defaults(func=func)
    return parser


def _strict_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives a well-formed ``argv``, else None.

    Well formed is a command's exact name, then options by their exact names,
    each at most once: a ``store_true`` flag bare, any other with a value that
    converts with its type, lies in its choices and starts with ``-`` only as
    a negative integer; every required option is given.  Any other argv, help
    and every usage error included, is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    given = {}
    words = iter(argv[1:])
    for flag in words:
        option = options.get(flag)
        if option is None or flag in given:
            return None
        if option.get("action") == "store_true":
            given[flag] = True
            continue
        word = next(words, "-")  # a missing value is malformed too
        if word[:1] == "-" and not (word[1:].isascii() and word[1:].isdigit()):
            return None
        try:
            value = option.get("type", str)(word)
        except ValueError:
            return None
        if value not in option.get("choices", (value,)):
            return None
        given[flag] = value
    if any(option.get("required") and flag not in given for flag, option in options.items()):
        return None
    values = {f[2:].replace("-", "_"): given.get(f, o.get("default")) for f, o in options.items()}
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI on ``argv`` and return its exit code.

    With ``argv`` None, ``main`` runs as the program, on ``sys.argv[1:]``, and
    registers ``gc.freeze`` with ``atexit``: the cyclic collections of the
    interpreter's exit then skip every object alive at that point, instead of
    walking the whole heap to free memory the OS reclaims anyway.  What is
    skipped is only the finalizers and the freeing of objects left in
    reference cycles at exit; stdout is flushed here, every fixture is read
    under ``with`` and no genus3 object has a finalizer, so the output and
    the exit code stay the same.  A caller that passes ``argv`` keeps its
    collector as it is.
    """
    if argv is None:
        argv = sys.argv[1:]
        atexit.register(gc.freeze)
    args = _strict_args(argv) or build_parser().parse_args(argv)
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
    except ValueError as exc:  # a FixtureError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in genus3 itself; exit 1 stays "unexpected verdict"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
