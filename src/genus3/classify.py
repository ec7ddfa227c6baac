"""Classification engines for polarized manifolds of sectional genus three.

Three pieces: the rule-based enumeration of splitting types for
hyperquadric fibrations over the projective line; the Veronese-fibration
parameter solver; and the reduction bookkeeping and nef-adjoint degree
window for the remaining branches.

The enumeration rules mix re-derived arithmetic (parameter consistency,
truncation positivity, cohomological obstructions) with cited bounds that
are carried as data; every cited bound stores its citation key into the
source classification's numbering.
"""

from __future__ import annotations

import gc
from collections.abc import Mapping, Sequence
from functools import lru_cache
from itertools import repeat

from . import chowcurve


class UnboundedEnumerationError(ValueError):
    """Raised when a rule set cannot bound the splitting enumeration."""


class QuadricParams(chowcurve.Record):
    """Genus-three parameter map d -> (e, b, s) for hyperquadric fibrations over a curve.

    2 g(C) + e + b = 4, d = 2e + b and s = 2e + (n+1)b.  The d_range is empty
    for g_C >= 2: s < 0 at every d >= 1, so only rational and elliptic bases occur.
    """

    __slots__ = ()
    g_C: int
    n: int

    def __new__(cls, g_C: int, n: int) -> QuadricParams:
        chowcurve.require_ints("base genus", (g_C,))
        chowcurve.require_ints("fibration dimension n", (n,))
        if n < 3:
            raise ValueError(f"fibration dimension n must be >= 3, got {n}")
        if g_C < 0:
            raise ValueError(f"base genus must be >= 0, got {g_C}")
        return tuple.__new__(cls, (g_C, n))

    def e(self, d: int) -> int:
        return d - 4 + 2 * self.g_C

    def b(self, d: int) -> int:
        return 8 - 4 * self.g_C - d

    def s(self, d: int) -> int:
        return 2 * self.e(d) + (self.n + 1) * self.b(d)

    @property
    def d_range(self) -> range:
        # s falls by s(0) - s(1) = n - 1 per degree; the range ends at the last d with s >= 0
        return range(1, max(self.s(0) // (self.s(0) - self.s(1)), 0) + 1)


class RuleResult(chowcurve.Record):
    """First violated rule for an excluded candidate."""

    __slots__ = ()
    rule: str
    detail: str
    citation: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail} [{self.citation}]"


class ParamConsistencyRule:
    """s = 2e + (n+1)b must be non-negative for an actual fibration."""

    name = "param-consistency"
    # the verdict reads only d, b and s, so the splitting argument may be None
    reads_splitting = False

    def check(self, splitting: tuple[int, ...], d: int, b: int, s: int) -> RuleResult | None:
        if s < 0:
            return RuleResult(self.name, f"s = {s} < 0", "(3.1)")
        return None


class TruncationPositivityRule:
    """Coordinate-truncation positivity for every applicable codimension.

    On a rational base with e_0 <= 0 and n >= 3, the k = n - 1 number is
    8 - d + 2(e_0 + e_1), so this rule proves two cited bounds: a repeated -1
    makes it at most 4 - d <= 0 once d >= 4 (3.11), and e_1 <= 0 at d = 8
    makes it at most 0 (3.20).

    A trace reads only the violation (k, number), so an instance builds one
    ``RuleResult`` per distinct violation and hands it to every candidate
    with it; a new instance starts with none (the d = 1..12, n = 3..14
    sweep's 2,332 truncation exclusions carry 7 distinct traces).
    """

    name = "truncation-positivity"

    def __init__(self) -> None:
        self._traces: dict[chowcurve.TruncationViolation, RuleResult] = {}

    def check(self, splitting: tuple[int, ...], d: int, b: int, s: int) -> RuleResult | None:
        violation = chowcurve.truncation_positivity(splitting, b)
        if violation is None:
            return None
        trace = self._traces.get(violation)
        if trace is None:
            k, number = violation
            detail = f"k={k}: d - 2*(top-{k} sum) = {number} <= 0"
            citation = "(3.7)" if k == 2 else "(3.17.1)"
            trace = self._traces[violation] = RuleResult(self.name, detail, citation)
        return trace


class FloorBoundRule:
    """Lower bounds on e_0 that switch on as d grows."""

    name = "floor-bound"
    _bounds = ((9, 1, "(3.15)"), (7, 0, "(3.14)"), (5, -1, "(3.13)"))

    def check(self, splitting: tuple[int, ...], d: int, b: int, s: int) -> RuleResult | None:
        e0 = splitting[0]
        for d_min, floor, citation in self._bounds:
            if d >= d_min:
                if e0 < floor:
                    return RuleResult(
                        self.name, f"e_0 = {e0} < {floor} for d >= {d_min}", citation
                    )
                return None
        return None


class NCap(chowcurve.Record):
    """Cited cap on the fibre dimension for one nonzero-degree pattern."""

    __slots__ = ()
    pattern: tuple[int, ...]  # sorted nonzero degrees; zeros pad freely
    n_max: int
    citation: str


class EntryBound(chowcurve.Record):
    """Cited lower bound on one sorted entry at a fixed degree."""

    __slots__ = ()
    d: int
    index: int
    minimum: int
    citation: str


N_CAPS: tuple[NCap, ...] = (
    NCap((-1, -1, -1), 4, "(3.8.1)"),
    NCap((-2, -1), 4, "(3.8.2)"),
    NCap((-3,), 4, "(3.8.3)"),
    NCap((-1, -1), 4, "(3.9.1)"),
    NCap((-2,), 4, "(3.9.2)"),
    NCap((-1,), 4, "(3.10.1)"),
    NCap((-1, -1, 1), 4, "(3.10.2)"),
    NCap((-2, 1), 4, "(3.10.3)"),
    NCap((-1, 1), 4, "(3.12.1)"),
    NCap((), 4, "(3.12.2)"),
    NCap((-1, 2), 3, "(3.16.1)"),
    NCap((-1, 1, 1), 4, "(3.16.2)"),
    NCap((1,), 4, "(3.16.3)"),
    NCap((1, 1), 4, "(3.17.2)"),
    NCap((2,), 3, "(3.17.3)"),
)

ENTRY_BOUNDS: tuple[EntryBound, ...] = (
    EntryBound(d=7, index=2, minimum=1, citation="(3.19)"),
)


class CitedCapRule:
    """Data-driven caps imported from the case analysis, never re-proved.

    (3.11) and (3.20) are not carried: truncation positivity proves them.
    """

    name = "cited-cap"

    def check(self, splitting: tuple[int, ...], d: int, b: int, s: int) -> RuleResult | None:
        n = len(splitting) - 1
        nonzero = tuple(a for a in splitting if a != 0)
        for cap in N_CAPS:
            if nonzero == cap.pattern and n > cap.n_max:
                return RuleResult(
                    self.name,
                    f"pattern {cap.pattern} caps n at {cap.n_max}, got n = {n}",
                    cap.citation,
                )
        for bound in ENTRY_BOUNDS:
            if d == bound.d and splitting[bound.index] < bound.minimum:
                return RuleResult(
                    self.name,
                    f"e_{bound.index} = {splitting[bound.index]} < {bound.minimum} at d = {d}",
                    bound.citation,
                )
        return None


class Corank1EmptyRule:
    """Empty restricted system on a corank-one coordinate locus."""

    name = "corank1-empty"

    def check(self, splitting: tuple[int, ...], d: int, b: int, s: int) -> RuleResult | None:
        witness = chowcurve.corank1_emptiness(splitting, b)
        if witness is None:
            return None
        return RuleResult(
            self.name,
            f"h^0 of the restricted system vanishes after removing index "
            f"{witness} (degree {splitting[witness]})",
            "(3.23.1)",
        )


class NormalObstructionRule:
    """Normal-bundle obstruction along a surface base locus (rank 4 only)."""

    name = "normal-obstruction"

    def check(self, splitting: tuple[int, ...], d: int, b: int, s: int) -> RuleResult | None:
        if len(splitting) != 4:
            return None
        detail = chowcurve.normal_obstruction(splitting, b)
        if detail is None or detail.branch == "none":
            return None
        if detail.branch == "pairing":
            text = f"sections share a zero: pairing c + p + q = {detail.pairing} >= 1"
        else:
            self_int = detail.self_q if detail.h0_p == 0 else detail.self_p
            text = (
                "one normal component has h^0 = 0 while the other has "
                f"self-intersection {self_int} != 0"
            )
        return RuleResult(self.name, text, "(3.23.2)")


# Every rule class, in default chain order: cheap numeric rules before
# h^0-based ones.  The order only shapes the traces; admitted/excluded
# status is order-independent because every rule is a monotone filter.
RULES = (
    ParamConsistencyRule,
    TruncationPositivityRule,
    FloorBoundRule,
    CitedCapRule,
    Corank1EmptyRule,
    NormalObstructionRule,
)


def default_rules() -> list:
    """The default rule chain: one instance of each class in ``RULES``."""
    return [rule() for rule in RULES]


# the first fibre dimension past every cited cap in ``N_CAPS``
DEFAULT_N_CAP = max(cap.n_max for cap in N_CAPS) + 1


def default_n_range(d: int) -> range:
    """Default fibre-dimension range for degree d.

    s changes by b per unit of n: where b < 0 (d >= 9) the range ends at
    the last n with s >= 0.  Elsewhere it ends at ``DEFAULT_N_CAP``, the
    first n at which every pattern cap in ``N_CAPS`` has fired; the admitted
    set does not grow past it (pinned by the tests up to n = 18, not
    re-proved here, since the caps are cited data).
    """
    chowcurve.require_ints("degree", (d,))
    p = QuadricParams(0, 3)
    if p.b(d) >= 0:
        return range(3, DEFAULT_N_CAP + 1)
    return range(3, 3 + p.s(d) // -p.b(d) + 1)


class Candidate(chowcurve.Record):
    """One splitting type at degree d, with its first-failed-rule trace.

    Only what the enumeration decided is stored; the fibre dimension n,
    the parameters e, b, s (rational base) and the status follow from it.
    """

    __slots__ = ()
    splitting: tuple[int, ...]
    d: int
    rule: RuleResult | None = None  # None: admitted
    paper_status: str | None = None
    beyond_paper: bool = False

    @property
    def n(self) -> int:
        return len(self.splitting) - 1

    e = property(lambda self: QuadricParams(0, self.n).e(self.d))
    b = property(lambda self: QuadricParams(0, self.n).b(self.d))
    s = property(lambda self: QuadricParams(0, self.n).s(self.d))

    @property
    def status(self) -> str:
        return "admitted" if self.rule is None else "excluded"


def _bounded_partitions(total: int, parts: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Nondecreasing tuples of ``parts`` integers in [lo, hi] summing to ``total``.

    The tuples come in lexicographic order.  The walk keeps an explicit
    stack of (prefix, sum left, entries left, least next entry) frames, so
    a long tuple costs no recursion depth.  Each entry's range holds exactly
    the values the later entries can complete, so no frame is a dead end.
    """
    out = []
    stack = [((), total, parts, lo)]
    while stack:
        prefix, rest, left, v = stack.pop()
        if not left:
            if not rest:
                out.append(prefix)
            continue
        low = rest - (left - 1) * hi
        if low < v:
            low = v
        up = rest // left
        if up > hi:
            up = hi
        # pushed from the top down, so the least value is walked first
        for w in range(up, low - 1, -1):
            stack.append((prefix + (w,), rest - w, left - 1, w))
    return out


def _tails(slots: int, cap2: int, most: int) -> dict[int, list[tuple[int, ...]]]:
    """Positive nondecreasing tuples whose top two sum to at most ``cap2``, keyed by sum.

    Every tuple has at most ``slots`` entries and sums to at most ``most``;
    a lone entry is at most ``cap2``, and the empty tuple sums to 0.  Each
    list is sorted by length, then lexicographically: the walk builds the
    entries below the top one length at a time, each length's in
    lexicographic order, and puts every top it allows on each.
    """
    half = cap2 // 2
    by_sum: dict[int, list[tuple[int, ...]]] = {0: [()]}
    level = [((), 0)]  # (entries below the top, their sum)
    for _ in range(slots):
        below = []
        for body, total in level:
            least = body[-1] if body else 1
            top = cap2 - least if body else cap2
            if top > most - total:
                top = most - total
            for x in range(least, top + 1):
                by_sum.setdefault(total + x, []).append(body + (x,))
            # one more entry w below a top x >= w with w + x <= cap2
            for w in range(least, min(half, (most - total) // 2) + 1):
                below.append((body + (w,), total + w))
        level = below
    return by_sum


# room for the 24 keys of the d = 1..12 sweep at n = 3..14 and of each degree's default range
_PATTERN_TABLES = 32


@lru_cache(maxsize=_PATTERN_TABLES)
def _patterns(
    d: int, e: int, width: int
) -> tuple[tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...], frozenset[int]]:
    """The sorted (head, size, tail) patterns of the e_0 <= 0 regime, and their sizes.

    The patterns, as ``_generate_splittings`` describes them, of tuples
    summing to e with at most ``width`` entries at degree d: a head of
    negative entries (or a lone 0), the number of entries in head and tail,
    and a tail of positive ones.  Heads come from an explicit-stack walk
    that drops a head leaving its tail more than the slots after it can
    carry; the walk is reversed at the end, so that each head follows
    every head extending it.  Tails come from one ``_tails`` call.

    The table depends only on its key (d, e, width), so the last
    ``_PATTERN_TABLES`` keys are kept for the process, least recently used
    first out, as immutable values.  The 24 tables that the d = 1..12
    sweep at n = 3..14 and each degree's default range use hold 9,238
    patterns, about 0.9 MiB (``sys.getsizeof``, each object once); the
    largest, at d = 11 and width 15, holds 2,744.  A table grows with its
    width (d = 11, width 23: 67,117 patterns, 5.6 MiB; d = 5, width 61:
    966,468 patterns, 175 MiB), so ``_PATTERN_TABLES`` tables of the
    widest a caller asks for is the most this keeps.  A call holds its
    table for its whole length in any case.  No padded tuple or candidate
    is kept: those grow with every fibre dimension of a call, and a
    listing must be able to drop them as it writes them.
    """
    cap2 = (d - 1) // 2
    half = cap2 // 2

    # heads as (head, sum), each walked before its extensions, and these
    # from a last entry of -1 down: reversed, that is the patterns' order.
    # The empty head stands as (0,), since a tuple without negatives needs a 0
    heads = []
    stack = [((), 0)]
    while stack:
        head, head_sum = stack.pop()
        heads.append((head or (0,), head_sum))
        slots = width - len(head) - 1  # tail slots once one more entry is taken
        if slots < 0:
            continue
        # one more entry v leaves the tail e - head_sum - v, at most what it can carry
        low = e - head_sum - (cap2 + max(slots - 2, 0) * half if slots else 0)
        if head and low < head[-1]:
            low = head[-1]
        for v in range(low, 0):
            stack.append((head + (v,), head_sum + v))
    heads.reverse()

    # patterns (head, entries in head and tail, tail), sorted
    tails = _tails(width - 1, cap2, e - min(head_sum for _, head_sum in heads))
    patterns = []
    for head, head_sum in heads:
        size = len(head)
        patterns += [
            (head, size + len(t), t) for t in tails.get(e - head_sum, ()) if size + len(t) <= width
        ]
    return tuple(patterns), frozenset(size for _, size, _ in patterns)


def _generate_splittings(d: int, e: int, dims: Sequence[int]) -> dict[int, list[tuple[int, ...]]]:
    """Ascending candidate tuples of length n+1 summing to e, sorted, for each n in ``dims``.

    ``dims`` holds distinct fibre dimensions n >= 3.  With cap2 =
    floor((d-1)/2), two disjoint regimes cover everything that any rule
    chain containing truncation positivity can admit:

      * e_0 <= 0: the codimension-2 truncation caps the top pair at cap2,
        so every entry below the top is at most cap2 // 2; every entry is
        at least e - (n-1)*cap2 and the top at most n*cap2 - e;
      * e_0 >= 1: every entry lies in [1, e - n].

    Tuples outside these bounds are excluded wholesale by the truncation
    rule, so omitting them keeps the enumeration finite without losing
    any admissible candidate.  Every tuple of the first regime sorts
    before every tuple of the second and neither repeats a tuple, so each
    list is sorted and duplicate-free.

    A first-regime tuple is a pattern padded with zeros: a head of
    negative entries, then the zeros, then a tail of positive ones (a
    tuple without negatives keeps one 0 as its head).  Two patterns sort
    the same way at every length that holds both: of two heads where one
    extends the other, the longer sorts first; then fewer positives sort
    first; then the tails decide.  So the patterns are built once, for
    the largest n, in that order, and each n pads the ones that fit in
    n + 1 entries.  Padding keeps every bound.  A tail's top pair sums
    to at most cap2 and a lone tail entry is at most cap2, so whatever
    precedes the tail, a 0 or a negative, keeps the top pair within cap2
    and the top at most cap2, below n*cap2 - e.  The lower bound never
    binds: a head of a entries starting at f leaves its tail at least
    e - f + a - 1, and s tail slots carry at most cap2 + max(s - 2, 0) *
    (cap2 // 2), which puts f at or above e - (n-1)*cap2.  So every
    tuple at n pads, with one more 0 in its sorted place, to a tuple at
    n + 1, except for the exact patterns, which hold no 0 and fit one
    length only:

      * a lone top x > cap2 paired with the last negative, which needs
        cap2 - e >= n - 1 and so occurs only at d <= 3 and n <= 4;
      * the second regime.

    The sorted patterns for the largest n come from ``_patterns``, which
    keeps the last ``_PATTERN_TABLES`` (d, e, width) tables for the
    process.  Each call pads them into lists of its own: what it returns
    shares no list with a later call, and no padded tuple outlives the
    result.
    """
    cap2 = (d - 1) // 2
    width = max(dims) + 1
    live, sizes = _patterns(d, e, width)
    result = {}
    for n in sorted(dims, reverse=True):
        length = n + 1
        if length < width:
            # descending n: the live patterns only ever shrink
            live = [pattern for pattern in live if pattern[1] <= length]
        pads = [(0,) * (length - size) if size in sizes else () for size in range(length + 1)]
        splittings = [head + pads[size] + tail for head, size, tail in live]
        # exact: a lone top x > cap2 above n negatives, the last at most cap2 - x
        exact = [
            head + (x,)
            for x in range(cap2 + 1, (n * cap2 - e) // (n - 1) + 1)
            for head in _bounded_partitions(e - x, n, e - (n - 1) * cap2, cap2 - x)
        ]
        if exact:
            splittings = sorted(splittings + exact)
        # e_0 >= 1 regime
        if e - n >= 1:
            splittings += _bounded_partitions(e, length, 1, e - n)
        result[n] = splittings
    return result


def _first_failure(
    checks: Sequence, splitting: tuple[int, ...] | None, d: int, b: int, s: int
) -> RuleResult | None:
    for check in checks:
        trace = check(splitting, d=d, b=b, s=s)
        if trace is not None:
            return trace
    return None


def enumerate_quadric_splittings(
    d: int,
    n_range: Sequence[int] | None = None,
    rules: Sequence | None = None,
    paper_rows: Mapping[tuple[int, ...], str] | None = None,
) -> list[Candidate]:
    """All candidate splitting types at degree d, with rule traces.

    Generates every sorted integer tuple within the derived finite bounds
    for each fibre dimension in ``n_range``, then applies the rules in
    order, recording either admission or the first excluding rule.  The
    output is canonically sorted by (n, splitting) and is deterministic.
    The base is rational: e, b and s at each n come from
    ``QuadricParams(0, n)``, which also rejects n < 3.  A degree past the
    window ``QuadricParams(0, 3).d_range`` (1..12) is a ValueError: there
    s < 0 at every n >= 3, so every tuple would be excluded.

    The leading run of rules whose verdict reads only (d, b, s), marked
    ``reads_splitting = False``, is checked once per fibre dimension.
    When one of them fires, every tuple at that n is excluded with that
    one shared trace; otherwise the remaining rules run per candidate, on
    the generator's plain tuples of exact ints.  Traces are the same as
    when every rule runs on every candidate.

    ``paper_rows`` optionally maps splitting tuples to the status text of
    the published table at this degree; admitted candidates found there
    get that text attached, all other admitted candidates are flagged
    beyond-paper.

    The cyclic garbage collector is off while the tuples are generated and
    the candidates built.  A ``Candidate`` is a tuple subclass, which the
    collector never untracks, so each collection would scan the growing
    list again, to free nothing: the enumeration makes no reference cycles
    (``gc.collect()`` after its results are dropped finds none), and
    reference counting frees all it allocates.  The switch is
    process-wide; on return or on an exception the collector is turned
    back on if it was on at entry.
    """
    chowcurve.require_ints("degree", (d,))
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {chowcurve.int_text(d)}")
    n_range = tuple(default_n_range(d) if n_range is None else n_range)
    chowcurve.require_ints("fibre dimensions", n_range)
    dims = sorted(set(n_range))
    if not dims:
        raise ValueError(f"empty fibre-dimension range at d = {chowcurve.int_text(d)}")
    window = QuadricParams(0, 3).d_range  # the widest: s falls with n once b < 0
    if d not in window:
        # every tuple would be a param-consistency exclusion, and there are too many to list
        raise ValueError(
            f"degree must be in {window.start}..{window.stop - 1}, got {chowcurve.int_text(d)}: "
            f"s < 0 at every fibre dimension n >= 3"
        )
    params = [QuadricParams(0, n) for n in dims]
    if rules is None:
        rules = default_rules()
    if not any(isinstance(rule, TruncationPositivityRule) for rule in rules):
        raise UnboundedEnumerationError(
            "rule set lacks truncation-positivity; enumeration bounds would not be finite"
        )
    lead = 0
    while lead < len(rules) and not getattr(rules[lead], "reads_splitting", True):
        lead += 1
    # each rule's check is bound once per call, not once per candidate
    checks = [rule.check for rule in rules]
    param_checks, splitting_checks = checks[:lead], checks[lead:]
    collecting = gc.isenabled()
    gc.disable()
    try:
        # on a rational base e = d - 4 at every n, so one call serves every n
        generated = _generate_splittings(d, params[0].e(d), dims)
        candidates = []
        for p in params:
            n, b, s = p.n, p.b(d), p.s(d)
            trace = _first_failure(param_checks, None, d, b, s)
            if trace is not None:
                # all five Candidate fields, built in C: no Python-level call per tuple
                fields = zip(generated[n], repeat(d), repeat(trace), repeat(None), repeat(False))
                candidates.extend(map(tuple.__new__, repeat(Candidate), fields))
                continue
            for degrees in generated[n]:
                trace = _first_failure(splitting_checks, degrees, d, b, s)
                if trace is not None:
                    candidates.append(tuple.__new__(Candidate, (degrees, d, trace, None, False)))
                    continue
                known = None if paper_rows is None else paper_rows.get(degrees)
                candidates.append(
                    Candidate(degrees, d, None, known, paper_rows is not None and known is None)
                )
    finally:
        if collecting:
            gc.enable()
    return candidates


def admitted_splittings(candidates: Sequence[Candidate]) -> list[tuple[int, ...]]:
    return [c.splitting for c in candidates if c.status == "admitted"]


class VeroneseSolution(chowcurve.Record):
    """One Veronese-fibration parameter solution (g(C), e, b, d)."""

    __slots__ = ()
    g_C: int
    e: int
    b: int
    d: int


def veronese_solutions() -> list[VeroneseSolution]:
    """Parameter solutions for Veronese fibrations of sectional genus three.

    Solves e >= 0, e + b = 1, 2 g(C) - 2 + e + 2b = 0 and d = 8e + 12b > 0
    over g(C) >= 0; each solution is re-verified through the ring to have
    genus three.  The system collapses to e = 2 g(C), d = 12 - 8 g(C), so
    only rational and elliptic bases survive.
    """
    solutions = []
    g_c = 0
    while True:
        e = 2 * g_c
        b = 1 - e
        d = 8 * e + 12 * b
        if d <= 0:
            break
        assert e >= 0 and e + b == 1 and 2 * g_c - 2 + e + 2 * b == 0
        bundle = chowcurve.ProjBundleModel(chowcurve.BaseCurve(g_c), rank=3, c1=e)
        invariants = chowcurve.veronese_invariants(bundle, b)
        if invariants.g != 3 or invariants.d != d:
            raise AssertionError(
                f"ring check failed for g_C={g_c}: got d={invariants.d}, g={invariants.g}"
            )
        solutions.append(VeroneseSolution(g_C=g_c, e=e, b=b, d=d))
        g_c += 1
    return solutions


class ReductionRecord(chowcurve.Record):
    """The (L^n, r, L'^n) reduction tuples and the Veronese blow-up bound on r."""

    __slots__ = ()
    general_type_tuples: tuple[tuple[int, int, int], ...]

    @property
    def veronese_blowup_bound(self) -> int:
        # the elliptic Veronese fibration's degree is L^3 + r with L^3 >= 1
        return next(v.d for v in veronese_solutions() if v.g_C == 1) - 1


# The (L^n, r, L'^n) system 2 <= L^n + r = L'^n <= 4 with L^n, r >= 1 has six
# solutions; the classification list (5.7) omits this one, and the paper
# text at hand gives no reason for the omission.
_OMITTED_5_7 = (2, 1, 3)


def reduction_tuples() -> ReductionRecord:
    """Degree bookkeeping for iterated simple blow-downs.

    Returns the (L^n, r, L'^n) list for reductions whose minimal model has
    nef adjoint, solved from L^n + r = L'^n with L^n, r >= 1 and L'^n in
    the ``delta_bounds`` window, sorted and without ``_OMITTED_5_7``.  The
    record reads its bound on r, for an elliptic Veronese minimal model,
    off ``veronese_solutions`` when asked.
    """
    window = delta_bounds().d_range
    solutions = sorted((ln, lpn - ln, lpn) for lpn in window for ln in range(1, lpn))
    return ReductionRecord(tuple(t for t in solutions if t != _OMITTED_5_7))


class DeltaRecord(chowcurve.Record):
    """The nef-adjoint degree window."""

    __slots__ = ()
    d_range: range


def delta_bounds() -> DeltaRecord:
    """Degree window 1 <= d <= 4 for the nef-adjoint branch.

    The adjoint pairing gives 0 <= (K + (n-2)L) L^(n-1) = 4 - d, and
    Delta = 0 would force genus zero, so Delta >= 1 throughout.
    """
    return DeltaRecord(d_range=range(1, 5))
