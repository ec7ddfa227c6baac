"""Classification engines for polarized manifolds of sectional genus three.

Four pieces: the structural branch map; the rule-based enumeration of
splitting types for hyperquadric fibrations over the projective line; the
Veronese-fibration parameter solver; and the reduction / Delta-genus
bookkeeping for the remaining branches.

The enumeration rules mix re-derived arithmetic (parameter consistency,
truncation positivity, cohomological obstructions) with cited bounds that
are carried as data; every cited bound stores its citation key into the
source classification's numbering.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from itertools import repeat

from . import chowcurve
from .chowcurve import SplittingType


class UnboundedEnumerationError(ValueError):
    """Raised when a rule set cannot bound the splitting enumeration."""


class BranchRecord(namedtuple("BranchRecord", "id citation description")):
    """One structural branch: its id, its citation and what it describes."""

    __slots__ = ()
    id: str
    citation: str
    description: str


_BRANCHES = (
    BranchRecord(
        "scroll-over-genus3-curve",
        "(1.3)",
        "scroll over a smooth curve of genus three (K + (n-1)L not nef)",
    ),
    BranchRecord(
        "simple-blowup",
        "(1.5.1)",
        "effective divisor E with (E, L_E) = (P^(n-1), O(1)) and [E]_E = O(-1)",
    ),
    BranchRecord(
        "veronese-fibration",
        "(1.5.2)",
        "fibration over a smooth curve with every fibre (P^2, O(2))",
    ),
    BranchRecord(
        "quadric-fibration",
        "(1.5.3)",
        "fibration over a smooth curve whose fibres are hyperquadrics with L = O(1)",
    ),
    BranchRecord("scroll-over-surface", "(1.5.4)", "scroll over a smooth surface"),
    BranchRecord("nef-adjoint", "(1.5.5)", "K + (n-2)L is nef"),
)


def branch_map() -> list[BranchRecord]:
    """The six structural branches for sectional genus three, n >= 3.

    The split depends on genus-specific adjunction results: the Del
    Pezzo-type sporadic cases only drop out because their genus differs
    from three.
    """
    return list(_BRANCHES)


class QuadricParams(namedtuple("QuadricParams", "g_C n")):
    """Parameter map d -> (e, b, s) for hyperquadric fibrations over a curve."""

    __slots__ = ()
    g_C: int
    n: int

    def e(self, d: int) -> int:
        return d - 4 + 2 * self.g_C

    def b(self, d: int) -> int:
        return 8 - 4 * self.g_C - d

    def s(self, d: int) -> int:
        return (1 - self.n) * d + 4 * self.n * (2 - self.g_C)

    @property
    def d_range(self) -> range:
        # s(d) decreases in d; top of the range is the last d with s >= 0
        d_max = 4 * self.n * (2 - self.g_C) // (self.n - 1)
        return range(1, max(d_max, 0) + 1)


def quadric_params(g_C: int, n: int) -> QuadricParams:
    """Genus-three parameter relations 2 g(C) + e + b = 4 and d = 2e + b.

    Empty d_range for g_C >= 2: the smoothness defect s goes negative for
    every positive degree, so only rational and elliptic bases occur.
    """
    if n < 3:
        raise ValueError(f"fibration dimension n must be >= 3, got {n}")
    if g_C < 0:
        raise ValueError(f"base genus must be >= 0, got {g_C}")
    return QuadricParams(g_C=g_C, n=n)


class RuleResult(namedtuple("RuleResult", "rule detail citation")):
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

    def check(self, splitting: SplittingType, d: int, b: int, s: int) -> RuleResult | None:
        if s < 0:
            return RuleResult(self.name, f"s = {s} < 0", "(3.1)")
        return None


class TruncationPositivityRule:
    """Coordinate-truncation positivity for every applicable codimension."""

    name = "truncation-positivity"

    def check(self, splitting: SplittingType, d: int, b: int, s: int) -> RuleResult | None:
        violation = chowcurve.truncation_positivity(splitting, b)
        if violation is None:
            return None
        k, number = violation
        return RuleResult(
            self.name,
            f"k={k}: d - 2*(top-{k} sum) = {number} <= 0",
            "(3.7)" if k == 2 else "(3.17.1)",
        )


class NoDoubleMinusOneRule:
    """-1 cannot repeat among the degrees once d >= 4."""

    name = "no-double-minus-one"

    def check(self, splitting: SplittingType, d: int, b: int, s: int) -> RuleResult | None:
        if d >= 4 and splitting.count(-1) >= 2:
            return RuleResult(self.name, "-1 appears twice", "(3.11)")
        return None


class FloorBoundRule:
    """Lower bounds on e_0 that switch on as d grows."""

    name = "floor-bound"
    _bounds = ((9, 1, "(3.15)"), (7, 0, "(3.14)"), (5, -1, "(3.13)"))

    def check(self, splitting: SplittingType, d: int, b: int, s: int) -> RuleResult | None:
        e0 = splitting[0]
        for d_min, floor, citation in self._bounds:
            if d >= d_min:
                if e0 < floor:
                    return RuleResult(
                        self.name, f"e_0 = {e0} < {floor} for d >= {d_min}", citation
                    )
                return None
        return None


class NCap(namedtuple("NCap", "pattern n_max citation")):
    """Cited cap on the fibre dimension for one nonzero-degree pattern."""

    __slots__ = ()
    pattern: tuple[int, ...]  # sorted nonzero degrees; zeros pad freely
    n_max: int
    citation: str


class EntryBound(namedtuple("EntryBound", "d index minimum citation")):
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
    EntryBound(d=8, index=1, minimum=1, citation="(3.20)"),
)


class CitedCapRule:
    """Data-driven caps imported from the case analysis, never re-proved."""

    name = "cited-cap"

    def check(self, splitting: SplittingType, d: int, b: int, s: int) -> RuleResult | None:
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

    def check(self, splitting: SplittingType, d: int, b: int, s: int) -> RuleResult | None:
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

    def check(self, splitting: SplittingType, d: int, b: int, s: int) -> RuleResult | None:
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
    NoDoubleMinusOneRule,
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

    For d >= 9 the defect s = d + n(8 - d) goes negative past d/(d - 8).
    Below that the range ends at ``DEFAULT_N_CAP``, the first n at which
    every pattern cap in ``N_CAPS`` has fired; the admitted set does not
    grow past it (pinned by the tests up to n = 18, not re-proved here,
    since the caps are cited data).
    """
    if d >= 9:
        return range(3, d // (d - 8) + 1)
    return range(3, DEFAULT_N_CAP + 1)


class Candidate(
    namedtuple(
        "Candidate", "splitting d rule paper_status beyond_paper", defaults=(None, None, False)
    )
):
    """One splitting type at degree d, with its first-failed-rule trace.

    Only what the enumeration decided is stored; the fibre dimension n,
    the parameters e, b, s (rational base) and the status follow from it.
    """

    __slots__ = ()
    splitting: tuple[int, ...]
    d: int
    rule: RuleResult | None  # None: admitted
    paper_status: str | None
    beyond_paper: bool

    @property
    def n(self) -> int:
        return len(self.splitting) - 1

    @property
    def e(self) -> int:
        return quadric_params(0, self.n).e(self.d)

    @property
    def b(self) -> int:
        return quadric_params(0, self.n).b(self.d)

    @property
    def s(self) -> int:
        return quadric_params(0, self.n).s(self.d)

    @property
    def status(self) -> str:
        return "admitted" if self.rule is None else "excluded"


def _ascending_sums(
    length: int, total: int, lo: int, first_hi: int, hi: int, top_hi: int, pair_max: int
) -> list[tuple[int, ...]]:
    """Nondecreasing integer tuples with a fixed sum, in lexicographic order.

    Every entry is at least ``lo``; the first is at most ``first_hi``,
    the others below the top at most ``hi``, the top at most ``top_hi``,
    and the top two sum to at most ``pair_max``.  Needs length >= 3 and
    2 * hi <= pair_max: then only the top can break the pair bound, and
    counting the top pair's room as min(pair_max, hi + top_hi) enforces it.

    The walk keeps an explicit stack of frames, each a plain
    (position, next value, last value) tuple for a range that still has
    values to try.  Taking a value pushes its range's frame only if a
    later value is left, so a range's last value is taken with its frame
    already popped, and a range of one value pushes nothing.  Each range
    starts where the later entries can still hold what is left.  Once
    the entries are at v, only the last (excess over v) positions can
    rise above v, so the positions before them are set to v in one step
    instead of one stack level each; the walk then descends by setting
    the position, value and last value in place.  The top pair is filled
    in a closed loop: with R left to place it is (x, R - x).
    """
    m = length - 1  # index of the top entry
    pair_room = min(pair_max, hi + top_hi)
    prefix = [0] * (m - 1)  # entries 0 .. m-2
    left = [0] * (m - 1)  # left[p]: sum still to place from position p on
    left[0] = total
    out = []
    frames = []
    i, v, up = 0, max(lo, total - (m - 2) * hi - pair_room), min(first_hi, hi, total // length)
    if v > up:
        return out
    # bounds are clamped with comparisons: max()/min() calls cost a third of this loop
    while True:
        if v < up:
            frames.append((i, v + 1, up))
        rest = left[i] - v
        # later entries below the top equal v up to position j
        if v == hi:
            j = m - 1
        else:
            j = m - (rest - (m - i) * v)
            if j < i:
                j = i
        if j < m - 2:
            prefix[i : j + 1] = [v] * (j + 1 - i)
            rest -= (j - i) * v
            i = j + 1
            left[i] = rest
            low = rest - (m - 2 - i) * hi - pair_room
            if low > v:
                v = low
            up = rest // (m + 1 - i)
            if up > hi:
                up = hi
            if v <= up:
                continue
        else:
            prefix[i:] = [v] * (m - 1 - i)
            rest -= (m - 2 - i) * v
            head = tuple(prefix)
            x, up = rest - top_hi, rest // 2
            if x < v:
                x = v
            if up > hi:
                up = hi
            while x <= up:
                out.append(head + (x, rest - x))
                x += 1
        if not frames:
            return out
        i, v, up = frames.pop()


def _generate_splittings(d: int, e: int, n: int) -> list[tuple[int, ...]]:
    """Ascending candidate tuples of length n+1 summing to e, in sorted order.

    Two disjoint regimes cover everything that any rule chain containing
    truncation positivity can admit:

      * e_0 <= 0: the codimension-2 truncation caps the top pair at
        floor((d-1)/2), which bounds every entry above and e_0 below;
      * e_0 >= 1: every entry lies in [1, e - n].

    Tuples outside these bounds are excluded wholesale by the truncation
    rule, so omitting them keeps the enumeration finite without losing
    any admissible candidate.  Every tuple of the first regime sorts
    before every tuple of the second and neither repeats a tuple, so the
    result is sorted and duplicate-free.
    """
    length = n + 1
    cap2 = (d - 1) // 2
    if cap2 < 0:
        raise UnboundedEnumerationError(f"no finite bounds for d = {d}")
    lo = e - (n - 1) * cap2
    hi = n * cap2 - e
    # e_0 <= 0 regime: every entry below the top is at most half the pair cap
    splittings = _ascending_sums(length, e, lo, 0, min(hi, cap2 // 2), hi, cap2)
    # e_0 >= 1 regime
    if e - n >= 1:
        top = e - n
        splittings += _ascending_sums(length, e, 1, top, top, top, 2 * top)
    return splittings


def _first_failure(
    rules: Sequence, splitting: SplittingType | None, d: int, b: int, s: int
) -> RuleResult | None:
    for rule in rules:
        trace = rule.check(splitting, d=d, b=b, s=s)
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
    ``quadric_params(0, n)``, which also rejects n < 3.

    The leading run of rules whose verdict reads only (d, b, s), marked
    ``reads_splitting = False``, is checked once per fibre dimension.
    When one of them fires, every tuple at that n is excluded with that
    one shared trace and no ``SplittingType`` is built for it; otherwise
    the remaining rules run per candidate.  Traces are the same as when
    every rule runs on every candidate.

    ``paper_rows`` optionally maps splitting tuples to the status text of
    the published table at this degree; admitted candidates found there
    get that text attached, all other admitted candidates are flagged
    beyond-paper.
    """
    chowcurve.require_ints("degree", (d,))
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    n_range = tuple(default_n_range(d) if n_range is None else n_range)
    chowcurve.require_ints("fibre dimensions", n_range)
    dims = sorted(set(n_range))
    if not dims:
        raise ValueError(f"empty fibre-dimension range at d = {d}")
    params = [quadric_params(0, n) for n in dims]
    if rules is None:
        rules = default_rules()
    if not any(isinstance(rule, TruncationPositivityRule) for rule in rules):
        raise UnboundedEnumerationError(
            "rule set lacks truncation-positivity; enumeration bounds would not be finite"
        )
    lead = 0
    while lead < len(rules) and not getattr(rules[lead], "reads_splitting", True):
        lead += 1
    param_rules, splitting_rules = rules[:lead], rules[lead:]
    candidates = []
    for p in params:
        n, e, b, s = p.n, p.e(d), p.b(d), p.s(d)
        trace = _first_failure(param_rules, None, d, b, s)
        if trace is not None:
            # all five Candidate fields, built in C: no Python-level call per tuple
            fields = zip(
                _generate_splittings(d, e, n), repeat(d), repeat(trace), repeat(None), repeat(False)
            )
            candidates.extend(map(tuple.__new__, repeat(Candidate), fields))
            continue
        for degrees in _generate_splittings(d, e, n):
            trace = _first_failure(splitting_rules, SplittingType(degrees), d, b, s)
            if trace is not None:
                candidates.append(Candidate(degrees, d, trace))
                continue
            known = None if paper_rows is None else paper_rows.get(degrees)
            candidates.append(
                Candidate(degrees, d, None, known, paper_rows is not None and known is None)
            )
    return candidates


def admitted_splittings(candidates: Sequence[Candidate]) -> list[tuple[int, ...]]:
    return [c.splitting for c in candidates if c.status == "admitted"]


def elliptic_ampleness_status(d: int) -> str:
    """Ampleness of the defining bundle over an elliptic base, by degree.

    d <= 2 forces c1 <= 0; d >= 5 is ample outright; in between, an
    indecomposable bundle of positive degree on an elliptic curve is
    ample, so decomposability is the only caveat.
    """
    window = quadric_params(1, 3).d_range
    if d not in window:
        raise ValueError(f"elliptic-base degrees lie in [{window[0]}, {window[-1]}], got {d}")
    if d <= 2:
        return "not-ample"
    if d <= 4:
        return "ample-if-indecomposable"
    return "ample"


class VeroneseSolution(namedtuple("VeroneseSolution", "g_C e b d")):
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


class ReductionRecord(namedtuple("ReductionRecord", "general_type_tuples veronese_blowup_bound")):
    """The (L^n, r, L'^n) reduction tuples and the Veronese blow-up bound on r."""

    __slots__ = ()
    general_type_tuples: tuple[tuple[int, int, int], ...]
    veronese_blowup_bound: int


# (L^n, r, L'^n) for reductions landing in the nef-adjoint branch.  The
# constraint system 2 <= L^n + r = L'^n <= 4 with L^n, r >= 1 also admits
# (2, 1, 3); the classification list (5.7) omits it, and the list is what
# is reproduced here.
_GENERAL_TYPE_TUPLES: tuple[tuple[int, int, int], ...] = (
    (1, 1, 2),
    (1, 2, 3),
    (1, 3, 4),
    (2, 2, 4),
    (3, 1, 4),
)


def reduction_tuples() -> ReductionRecord:
    """Degree bookkeeping for iterated simple blow-downs.

    Returns the (L^n, r, L'^n) list for reductions whose minimal model has
    nef adjoint, plus the bound r <= 3 when the minimal model is the
    elliptic Veronese fibration (there 4 = L^3 + r with L^3 >= 1).
    """
    for ln, r, lpn in _GENERAL_TYPE_TUPLES:
        assert 2 <= lpn <= 4 and r >= 1 and ln == lpn - r and ln >= 1
    return ReductionRecord(
        general_type_tuples=_GENERAL_TYPE_TUPLES,
        veronese_blowup_bound=3,
    )


class DeltaNote(namedtuple("DeltaNote", "d delta text citation")):
    """A cited structure note at degree d, for Delta-genus ``delta`` when one is named."""

    __slots__ = ()
    d: int
    delta: int | None
    text: str
    citation: str


class DeltaRecord(namedtuple("DeltaRecord", "d_range notes")):
    """The nef-adjoint degree window and its cited case notes."""

    __slots__ = ()
    d_range: range
    notes: tuple[DeltaNote, ...]


_DELTA_NOTES: tuple[DeltaNote, ...] = (
    DeltaNote(1, None, "not classified; no structure result recorded", "(5.1)"),
    DeltaNote(
        2,
        1,
        "|L| makes M a double covering of projective space with branch locus "
        "a smooth hypersurface of degree eight",
        "(5.2)",
    ),
    DeltaNote(2, 2, "Bs|L| is a finite set", "(5.2)"),
    DeltaNote(2, 3, "no structure result recorded for Delta >= 3", "(5.2)"),
    DeltaNote(3, 1, "Delta = 1 does not occur", "(5.3)"),
    DeltaNote(
        3,
        2,
        "dim Bs|L| <= 0; if Bs|L| is empty, |L| makes M a triple covering of "
        "projective space, otherwise Bs|L| is one simple point and blowing it "
        "up gives a degree-two morphism to projective space",
        "(5.3)",
    ),
    DeltaNote(
        4,
        2,
        "K + (n-2)L = 0 and Delta = 2, with dim Bs|L| <= 1; when Bs|L| is "
        "empty, M is a quartic hypersurface or a double covering of a "
        "hyperquadric",
        "(5.4)",
    ),
)


def delta_bounds() -> DeltaRecord:
    """Degree window 1 <= d <= 4 for the nef-adjoint branch, with case notes.

    The adjoint pairing gives 0 <= (K + (n-2)L) L^(n-1) = 4 - d, and
    Delta = 0 would force genus zero, so Delta >= 1 throughout.  The notes
    are carried data keyed by (d, Delta), cited, never recomputed.
    """
    return DeltaRecord(d_range=range(1, 5), notes=_DELTA_NOTES)
