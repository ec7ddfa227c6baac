import gc
import random
from itertools import combinations_with_replacement

import pytest

from genus3 import classify, tablecli
from genus3.classify import (
    CitedCapRule,
    Corank1EmptyRule,
    FloorBoundRule,
    NormalObstructionRule,
    ParamConsistencyRule,
    QuadricParams,
    RuleResult,
    TruncationPositivityRule,
    UnboundedEnumerationError,
    admitted_splittings,
    default_rules,
    default_n_range,
    delta_bounds,
    enumerate_quadric_splittings,
    reduction_tuples,
    veronese_solutions,
)
from genus3.chowcurve import BaseCurve, ProjBundleModel, SplittingType, quadric_invariants

# admitted splitting lists per degree, from the published table
TABLE_SPLITTINGS = {
    1: [(-3, 0, 0, 0), (-3, 0, 0, 0, 0), (-2, -1, 0, 0), (-2, -1, 0, 0, 0),
        (-1, -1, -1, 0), (-1, -1, -1, 0, 0)],
    2: [(-2, 0, 0, 0), (-2, 0, 0, 0, 0), (-1, -1, 0, 0), (-1, -1, 0, 0, 0)],
    3: [(-2, 0, 0, 1), (-2, 0, 0, 0, 1), (-1, -1, 0, 1), (-1, -1, 0, 0, 1),
        (-1, 0, 0, 0), (-1, 0, 0, 0, 0)],
    4: [(-1, 0, 0, 1), (-1, 0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0, 0)],
    5: [(-1, 0, 0, 2), (-1, 0, 1, 1), (-1, 0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 0, 0, 1)],
    6: [(-1, 1, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1, 1), (0, 0, 0, 2)],
    7: [(0, 0, 1, 2), (0, 1, 1, 1), (0, 0, 1, 1, 1)],
    8: [(0, 1, 1, 1, 1), (0, 1, 1, 2), (1, 1, 1, 1)],
    9: [(1, 1, 1, 1, 1), (1, 1, 1, 2)],
    10: [(1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 2), (1, 1, 2, 2), (1, 1, 1, 3)],
    11: [(1, 2, 2, 2)],
    12: [(1, 1, 3, 3), (1, 2, 2, 3), (2, 2, 2, 2)],
}


def exclusion(candidates, splitting):
    by_split = {c.splitting: c for c in candidates}
    cand = by_split[splitting]
    assert cand.status == "excluded"
    return cand.rule


class TestQuadricParams:
    def test_rational_base_window(self):
        params = QuadricParams(0, 3)
        assert params.d_range == range(1, 13)
        assert params.e(8) == 4 and params.b(8) == 0 and params.s(8) == 8
        assert params.e(12) == 8 and params.b(12) == -4 and params.s(12) == 0

    def test_elliptic_base_window(self):
        params = QuadricParams(1, 3)
        assert params.d_range == range(1, 7)
        assert params.e(2) == 0 and params.b(2) == 2

    def test_higher_genus_is_empty(self):
        for n in (3, 4, 5):
            assert len(QuadricParams(2, n).d_range) == 0
            assert len(QuadricParams(3, n).d_range) == 0

    def test_big_degrees_force_small_dimension(self):
        for d in (11, 12):
            assert all(QuadricParams(0, n).s(d) < 0 for n in (4, 5, 6))
            assert QuadricParams(0, 3).s(d) >= 0

    def test_smooth_fibration_degree(self):
        # s = 0 exactly at d = 8n/(n-1) for a rational base and
        # d = 4n/(n-1) for an elliptic one
        for n in range(3, 8):
            for g_c, num in ((0, 8 * n), (1, 4 * n)):
                params = QuadricParams(g_c, n)
                for d in range(1, 20):
                    assert (params.s(d) == 0) == (d * (n - 1) == num)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            QuadricParams(0, 2)
        with pytest.raises(ValueError):
            QuadricParams(-1, 3)

    def test_parameter_map_matches_the_ring(self):
        # e and b put into the ring's closed forms give back degree d, genus 3 and s
        for g_c in range(4):
            for n in range(3, 11):
                params = QuadricParams(g_c, n)
                for d in range(1, 41):
                    bundle = ProjBundleModel(BaseCurve(g_c), n + 1, params.e(d))
                    got = quadric_invariants(bundle, params.b(d))
                    assert got == (d, 3, params.s(d)), (g_c, n, d)

    def test_d_range_ends_at_the_last_degree_with_s_nonnegative(self):
        for g_c in range(4):
            for n in range(3, 41):
                params = QuadricParams(g_c, n)
                stop = 1
                while params.s(stop) >= 0:
                    stop += 1
                got = params.d_range
                assert (got.start, got.stop) == (1, stop), (g_c, n)

    def test_default_n_range_ends_at_the_last_n_with_s_nonnegative(self):
        # s = 2e + (n+1)b with e and b fixed by d, scanned from n = 1, where s = 8:
        # a degree with no n >= 3 left (d >= 17) gets the stop 2, below the start
        p = QuadricParams(0, 3)
        for d in range(1, 61):
            nonnegative = [n for n in range(1, 100) if 2 * p.e(d) + (n + 1) * p.b(d) >= 0]
            # where s never falls, the cited caps end the range
            last = classify.DEFAULT_N_CAP if nonnegative[-1] == 99 else nonnegative[-1]
            got = default_n_range(d)
            assert (got.start, got.stop) == (3, last + 1), d


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: QuadricParams(0, 3.5), "fibration dimension n must be of type int, got 3.5"),
        (lambda: QuadricParams(True, 3), "base genus must be of type int, got True"),
        (lambda: QuadricParams(0, "3"), "fibration dimension n must be of type int, got '3'"),
        (lambda: default_n_range(9.0), "degree must be of type int, got 9.0"),
        (lambda: default_n_range(True), "degree must be of type int, got True"),
    ],
    ids=["params-n-float", "params-genus-bool", "params-n-str", "n-range-float", "n-range-bool"],
)
def test_parameter_helpers_take_exact_ints(call, message):
    # the constructor rejects n = 3.5, and range() never sees a float
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


class TestEnumeration:
    def test_exact_reproduction_for_d_4_to_12(self):
        for d in range(4, 13):
            admitted = admitted_splittings(enumerate_quadric_splittings(d))
            assert sorted(admitted) == sorted(TABLE_SPLITTINGS[d]), f"d={d}"

    def test_superset_with_flags_for_small_d(self):
        expected_extras = {
            1: {(-2, -1, -1, 1), (-1, -1, -1, -1, 1)},
            2: {(-1, -1, -1, 1)},
            3: {(-1, -1, -1, 2)},
        }
        for d in (1, 2, 3):
            table = {s: "The existence is uncertain." for s in TABLE_SPLITTINGS[d]}
            candidates = enumerate_quadric_splittings(d, paper_rows=table)
            admitted = {c.splitting: c for c in candidates if c.status == "admitted"}
            assert set(TABLE_SPLITTINGS[d]) <= set(admitted)
            extras = {s for s, c in admitted.items() if c.beyond_paper}
            assert extras == expected_extras[d]
            for s in TABLE_SPLITTINGS[d]:
                assert not admitted[s].beyond_paper
                assert admitted[s].paper_status == "The existence is uncertain."

    def test_d10_example(self):
        admitted = admitted_splittings(enumerate_quadric_splittings(10, n_range=range(3, 6)))
        assert sorted(admitted) == sorted(
            [(1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 1)]
        )

    def test_d11_exclusion_traces(self):
        candidates = enumerate_quadric_splittings(11)
        assert exclusion(candidates, (1, 1, 1, 4)).rule == "corank1-empty"
        trace = exclusion(candidates, (1, 1, 2, 3))
        assert trace.rule == "normal-obstruction"
        assert "1" in trace.detail  # pairing value one
        assert admitted_splittings(candidates) == [(1, 2, 2, 2)]

    def test_d12_exclusion_traces(self):
        candidates = enumerate_quadric_splittings(12)
        assert exclusion(candidates, (1, 1, 1, 5)).rule == "corank1-empty"
        assert exclusion(candidates, (1, 1, 2, 4)).rule == "normal-obstruction"
        assert "self-intersection" in exclusion(candidates, (1, 1, 2, 4)).detail

    def test_d6_codim3_truncation(self):
        candidates = enumerate_quadric_splittings(6)
        trace = exclusion(candidates, (-1, 0, 1, 1, 1))
        assert trace.rule == "truncation-positivity" and "k=3" in trace.detail

    def test_cited_caps_fire_at_dimension_five(self):
        candidates = enumerate_quadric_splittings(5, n_range=range(3, 6))
        trace = exclusion(candidates, (-1, 0, 0, 0, 2))
        assert trace.rule == "cited-cap" and trace.citation == "(3.16.1)"
        trace = exclusion(candidates, (0, 0, 0, 0, 0, 1))
        assert trace.rule == "cited-cap" and trace.citation == "(3.16.3)"

    def test_floor_bounds_fire(self):
        candidates = enumerate_quadric_splittings(7)
        trace = exclusion(candidates, (-1, 1, 1, 2))
        assert trace.rule == "floor-bound" and trace.citation == "(3.14)"

    def test_every_excluded_candidate_names_a_rule(self):
        for d in range(1, 13):
            for cand in enumerate_quadric_splittings(d):
                if cand.status == "excluded":
                    assert cand.rule is not None and cand.rule.rule and cand.rule.citation
                else:
                    assert cand.rule is None

    def test_admitted_candidates_recompute_genus_three(self):
        # recomputed through the ring, not assumed
        for d in range(1, 13):
            for splitting in admitted_splittings(enumerate_quadric_splittings(d)):
                bundle = ProjBundleModel.split(splitting)
                invariants = quadric_invariants(bundle, 8 - d)
                assert invariants.g == 3 and invariants.d == d and invariants.s >= 0

    def test_determinism(self):
        first = enumerate_quadric_splittings(8)
        second = enumerate_quadric_splittings(8)
        assert first == second
        order = [(c.n, c.splitting) for c in first]
        assert order == sorted(order)

    def test_consistency_rule_excludes_high_dimension(self):
        candidates = enumerate_quadric_splittings(10, n_range=range(3, 7))
        by_split = {c.splitting: c for c in candidates}
        septuple = tuple(sorted((1, 1, 1, 1, 1, 1, 0)))
        assert by_split[septuple].status == "excluded"
        traces = {c.rule.rule for c in candidates if c.n == 6 and c.rule is not None}
        assert "param-consistency" in traces

    def test_rules_without_truncation_rejected(self):
        with pytest.raises(UnboundedEnumerationError):
            enumerate_quadric_splittings(6, rules=[ParamConsistencyRule()])

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            enumerate_quadric_splittings(0)

    @pytest.mark.parametrize(
        "d, n_range, bad",
        [
            (True, None, "True"),
            (9.0, None, "9.0"),
            ("9", None, "'9'"),
            (9, [3, 4.0], "4.0"),
            (9, (3, True), "True"),
            (9, ["3"], "'3'"),
        ],
        ids=["d-bool", "d-float", "d-str", "n-float", "n-bool", "n-str"],
    )
    def test_integer_inputs_must_be_ints(self, d, n_range, bad):
        # no listing with d=True, and no TypeError from range() on a float
        with pytest.raises(ValueError, match=f"got {bad}$"):
            enumerate_quadric_splittings(d, n_range=n_range)

    def test_empty_dimension_range_rejected(self):
        with pytest.raises(ValueError, match="empty fibre-dimension range"):
            enumerate_quadric_splittings(9, n_range=range(5, 4))
        with pytest.raises(ValueError, match="empty fibre-dimension range"):
            enumerate_quadric_splittings(9, n_range=[])

    def test_degree_past_the_rational_window_rejected(self):
        # s < 0 at every n >= 3 from d = 13 on: no listing of tuples that are all excluded
        message = "degree must be in 1..12, got 13: s < 0 at every fibre dimension n >= 3$"
        with pytest.raises(ValueError, match=message):
            enumerate_quadric_splittings(13, n_range=[3])

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            enumerate_quadric_splittings(6, n_range=range(2, 4))

    def test_default_n_range(self):
        assert default_n_range(8) == range(3, 6)
        assert default_n_range(9) == range(3, 10)
        assert default_n_range(10) == range(3, 6)
        assert default_n_range(11) == range(3, 4)
        assert default_n_range(12) == range(3, 4)
        # above degree 8 the range ends at the last n with s >= 0
        for d in range(9, 13):
            n_max = max(default_n_range(d))
            assert QuadricParams(0, n_max).s(d) >= 0
            assert QuadricParams(0, n_max + 1).s(d) < 0

    @pytest.mark.parametrize("d", range(1, 13))
    def test_admitted_set_is_stable_as_the_n_range_grows(self, d):
        # the default range ends where the admitted set stops changing
        default = admitted_splittings(enumerate_quadric_splittings(d))
        for n_max in (8, 10, 14, 18):
            wider = enumerate_quadric_splittings(d, n_range=range(3, n_max + 1))
            assert admitted_splittings(wider) == default, n_max


def reference_enumeration(d, n_range, rules):
    """Every rule on every candidate, first failure kept: (n, splitting, trace)."""
    e, b = d - 4, 8 - d
    rows = []
    for n in n_range:
        s = 2 * e + (n + 1) * b
        for degrees in classify._generate_splittings(d, e, [n])[n]:
            splitting = SplittingType(degrees)
            trace = None
            for rule in rules:
                trace = rule.check(splitting, d=d, b=b, s=s)
                if trace is not None:
                    break
            rows.append((n, degrees, trace))
    return rows


def within_generator_bounds(t, d):
    """The two regimes of the _generate_splittings docstring."""
    n, e, cap2 = len(t) - 1, d - 4, (d - 1) // 2
    lo, hi = e - (n - 1) * cap2, n * cap2 - e
    if t[0] <= 0:
        return t[0] >= lo and t[-1] <= hi and t[-2] + t[-1] <= cap2
    return t[-1] <= e - n


def reference_ascending_sums(
    length: int, total: int, lo: int, first_hi: int, hi: int, top_hi: int, pair_max: int
) -> list[tuple[int, ...]]:
    """The generator's earlier walk, one range iterator per stack level: the reference."""
    m = length - 1  # index of the top entry
    pair_room = min(pair_max, hi + top_hi)
    prefix = [0] * (m - 1)  # entries 0 .. m-2
    left = [0] * (m - 1)  # left[p]: sum still to place from position p on
    left[0] = total
    low = max(lo, total - (m - 2) * hi - pair_room)
    positions = [0]
    ranges = [iter(range(low, min(first_hi, hi, total // length) + 1))]
    out = []
    # bounds are clamped with comparisons: max()/min() calls cost a third of this loop
    while ranges:
        v = next(ranges[-1], None)
        if v is None:
            ranges.pop()
            positions.pop()
            continue
        i = positions[-1]
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
            left[j + 1] = rest
            low = rest - (m - 3 - j) * hi - pair_room
            if low < v:
                low = v
            up = rest // (m - j)
            if up > hi:
                up = hi
            positions.append(j + 1)
            ranges.append(iter(range(low, up + 1)))
            continue
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
    return out


def reference_splittings(d, n):
    """The reference walk over the two regimes of the _generate_splittings docstring."""
    e, length, cap2 = d - 4, n + 1, (d - 1) // 2
    lo, hi = e - (n - 1) * cap2, n * cap2 - e
    tuples = reference_ascending_sums(length, e, lo, 0, min(hi, cap2 // 2), hi, cap2)
    if e - n >= 1:
        top = e - n
        tuples += reference_ascending_sums(length, e, 1, top, top, top, 2 * top)
    return tuples


@pytest.fixture(scope="module")
def reference_tuples():
    """(d, n) -> the reference walk's tuples, for d = 1..12 and n = 3..22."""
    return {(d, n): reference_splittings(d, n) for d in range(1, 13) for n in range(3, 23)}


class TestGenerator:
    def test_generated_tuples_are_ascending_unique_and_sorted(self):
        for d in range(1, 13):
            for n in range(3, 15):
                tuples = classify._generate_splittings(d, d - 4, [n])[n]
                assert tuples == sorted(set(tuples)), (d, n)
                assert all(len(t) == n + 1 and sum(t) == d - 4 for t in tuples)
                assert all(list(t) == sorted(t) for t in tuples)
                assert all(within_generator_bounds(t, d) for t in tuples)

    def test_matches_reference_walk_exactly(self, reference_tuples):
        # the sweep's large regions sit at n = 11..14, with e_0 down to -23
        sweep_total = 0
        for d in range(1, 13):
            generated = classify._generate_splittings(d, d - 4, range(3, 23))
            for n in range(3, 23):
                tuples = generated[n]
                # the rules read these tuples as they are, with no SplittingType check
                assert all(
                    type(t) is tuple and {*map(type, t)} == {int} and list(t) == sorted(t)
                    for t in tuples
                ), (d, n)
                assert tuples == reference_tuples[d, n], (d, n)
                if n <= 14:
                    sweep_total += len(tuples)
        assert sweep_total == 24203

    @pytest.mark.parametrize(
        "n_range", [[14], [9, 3, 12, 12], range(7, 23, 5)], ids=["single", "unsorted", "stride-5"]
    )
    def test_every_range_shape_matches_reference_walk(self, reference_tuples, n_range):
        # the patterns are built for the largest n in the range and padded down to the others
        for d in range(1, 13):
            candidates = enumerate_quadric_splittings(d, n_range=n_range)
            expected = [(n, t) for n in sorted(set(n_range)) for t in reference_tuples[d, n]]
            assert [(c.n, c.splitting) for c in candidates] == expected, d

    def test_matches_reference_walk_beyond_the_table_degrees(self):
        for d in range(13, 25):
            generated = classify._generate_splittings(d, d - 4, range(3, 8))
            assert [generated[n] for n in range(3, 8)] == [
                reference_splittings(d, n) for n in range(3, 8)
            ], d

    def test_only_exact_patterns_do_not_pad(self, reference_tuples):
        # the docstring: a tuple at n pads, with one more 0 in its sorted place, to one at n + 1
        unpadded = []
        for d in range(1, 13):
            for n in range(3, 22):
                wider = set(reference_tuples[d, n + 1])
                unpadded += [
                    (d, n, t)
                    for t in reference_tuples[d, n]
                    if tuple(sorted(t + (0,))) not in wider
                ]
        assert unpadded == [
            (1, 3, (-2, -1, -1, 1)),
            (1, 4, (-1, -1, -1, -1, 1)),
            (2, 3, (-1, -1, -1, 1)),
            (3, 3, (-1, -1, -1, 2)),
            (12, 3, (1, 1, 1, 5)),
            (12, 3, (1, 1, 2, 4)),
            (12, 3, (1, 1, 3, 3)),
        ]

    def test_bounded_partitions_match_brute_force_on_random_bounds(self):
        # bounds beyond the generator's, where a range can be empty from the start
        rng = random.Random(0)
        for _ in range(2000):
            parts, hi = rng.randint(0, 6), rng.randint(-5, 6)
            lo = rng.randint(-8, hi + 1)
            total = rng.randint(parts * min(lo, hi) - 2, parts * hi + 2)
            args = (total, parts, lo, hi)
            box = combinations_with_replacement(range(lo, hi + 1), parts)
            expected = [t for t in box if sum(t) == total]
            assert classify._bounded_partitions(*args) == expected, args

    def test_tails_match_brute_force(self):
        for cap2 in range(7):
            for slots, most in ((0, 4), (1, 9), (5, 12)):
                expected = {}
                for length in range(slots + 1):
                    for t in combinations_with_replacement(range(1, cap2 + 1), length):
                        if sum(t) <= most and (length < 2 or t[-2] + t[-1] <= cap2):
                            expected.setdefault(sum(t), []).append(t)
                assert classify._tails(slots, cap2, most) == expected, (cap2, slots, most)

    def test_every_omitted_tuple_fails_truncation(self):
        # the docstring's claim: what the bounds leave out, truncation excludes
        rule = TruncationPositivityRule()
        for n in range(3, 6):
            by_sum = {}
            for t in combinations_with_replacement(range(-7, 8), n + 1):
                by_sum.setdefault(sum(t), []).append(t)
            for d in range(1, 13):
                e, b = d - 4, 8 - d
                generated = set(classify._generate_splittings(d, e, [n])[n])
                for t in by_sum[e]:
                    assert (t in generated) == within_generator_bounds(t, d), (d, t)
                    if t not in generated:
                        trace = rule.check(SplittingType(t), d=d, b=b, s=2 * e + (n + 1) * b)
                        assert trace is not None, (d, t)


class TestPatternCache:
    """``_patterns`` keeps each (d, e, width) table for the process, and nothing else."""

    # a narrower range follows a wider one; [14] shares the first range's table
    RANGES = [range(3, 15), range(3, 23), range(3, 8), [3, 5, 9], [3], [14]]

    def test_a_warm_table_gives_what_a_cold_one_gives(self):
        info = classify._patterns.cache_info
        # the collector would only rescan the growing lists: off, this takes half the time
        gc.disable()
        try:
            for d, e in [(d, e) for d in range(1, 13) for e in (d - 4, d - 2, d - 6)]:
                # every table cold but the last range's, which the first built
                classify._patterns.cache_clear()
                first = [classify._generate_splittings(d, e, dims) for dims in self.RANGES]
                assert info().misses == len(self.RANGES) - 1, (d, e)
                warm = [classify._generate_splittings(d, e, dims) for dims in self.RANGES]
                assert info().hits == len(self.RANGES) + 1, (d, e)
                assert warm == first, (d, e)
                classify._patterns.cache_clear()
                assert warm[-1] == classify._generate_splittings(d, e, self.RANGES[-1]), (d, e)
        finally:
            gc.enable()

    def test_the_cache_holds_immutable_tables_and_no_returned_list(self):
        table, sizes = classify._patterns(11, 7, 15)
        assert type(table) is tuple and type(sizes) is frozenset
        assert all(
            type(pattern) is tuple and type(pattern[0]) is tuple and type(pattern[2]) is tuple
            for pattern in table
        )
        classify._patterns.cache_clear()
        cold = classify._generate_splittings(11, 7, range(3, 15))
        expected = {n: list(tuples) for n, tuples in cold.items()}
        for _ in range(2):
            generated = classify._generate_splittings(11, 7, range(3, 15))
            assert generated == expected
            generated[14].clear()
            generated[13].append((0,) * 14)
            generated[12].reverse()
            del generated[3]

    def test_the_sweep_and_the_default_ranges_fit_without_eviction(self):
        info = classify._patterns.cache_info
        assert type(info().maxsize) is int
        classify._patterns.cache_clear()
        for _ in range(2):
            for d in range(1, 13):
                enumerate_quadric_splittings(d, n_range=range(3, 15))
                enumerate_quadric_splittings(d)
        # 24 keys: (d, d - 4, 15) for the sweep and one per degree's default range
        assert (info().misses, info().hits, info().currsize) == (24, 24, 24)


class TestTraceEquivalence:
    """Checking (d, n)-only rules once per n gives the per-candidate traces."""

    CHAINS = {
        "default": default_rules,
        "truncation-first": lambda: [TruncationPositivityRule(), ParamConsistencyRule()],
        "no-param-consistency": lambda: [
            r for r in default_rules() if not isinstance(r, ParamConsistencyRule)
        ],
    }

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_matches_per_candidate_reference(self, chain):
        n_range = range(3, 11)
        for d in range(1, 13):
            rules = self.CHAINS[chain]()
            expected = reference_enumeration(d, n_range, rules)
            candidates = enumerate_quadric_splittings(d, n_range=n_range, rules=rules)
            assert [(c.n, c.splitting, c.rule) for c in candidates] == expected, d
            for c in candidates:
                assert c.status == ("admitted" if c.rule is None else "excluded")
                assert (c.e, c.b, c.s) == (d - 4, 8 - d, 2 * (d - 4) + (c.n + 1) * (8 - d))

    def test_param_consistency_checked_once_per_dimension(self, monkeypatch):
        calls = []
        check = ParamConsistencyRule.check

        def counted(self, *args, **kwargs):
            calls.append(kwargs["s"])
            return check(self, *args, **kwargs)

        monkeypatch.setattr(ParamConsistencyRule, "check", counted)
        candidates = enumerate_quadric_splittings(10, n_range=range(3, 15))
        assert len(calls) == 12
        hoisted = [c for c in candidates if c.rule and c.rule.rule == "param-consistency"]
        assert len(hoisted) > len(calls)
        # one shared trace per fibre dimension
        assert len({id(c.rule) for c in hoisted}) == len({c.n for c in hoisted})


class TestRuleOrder:
    """The ``RULES`` comment: admitted/excluded status does not depend on chain order."""

    @staticmethod
    def statuses(d, n_range, rules):
        candidates = enumerate_quadric_splittings(d, n_range=n_range, rules=rules)
        admitted = {c.splitting for c in candidates if c.status == "admitted"}
        return admitted, {c.splitting for c in candidates} - admitted

    @pytest.mark.parametrize("n_range", [None, range(3, 11)], ids=["default", "n-3-to-10"])
    def test_status_is_order_independent(self, n_range):
        chains = [default_rules()[::-1]]
        for seed in (1, 2, 3):
            chain = default_rules()
            random.Random(seed).shuffle(chain)
            chains.append(chain)
        # the shuffles also take param-consistency out of the leading once-per-n run
        assert sum(isinstance(chain[0], ParamConsistencyRule) for chain in chains) <= 1
        for d in range(1, 13):
            expected = self.statuses(d, n_range, default_rules())
            for chain in chains:
                assert self.statuses(d, n_range, chain) == expected, (d, [r.name for r in chain])


@pytest.fixture(scope="module")
def truncation_box():
    """Every nondecreasing tuple with entries in [-4, 6] summing to e = d - 4, d = 1..12, n = 3..6."""
    box = []
    for d in range(1, 13):
        for n in range(3, 7):
            for degrees in combinations_with_replacement(range(-4, 7), n + 1):
                if sum(degrees) == d - 4:
                    box.append((d, degrees))
    return box


def truncation_excludes(d, degrees):
    p = QuadricParams(0, len(degrees) - 1)
    trace = TruncationPositivityRule().check(SplittingType(degrees), d=d, b=p.b(d), s=p.s(d))
    return trace is not None


class TestTruncationProvesCitedBounds:
    """The ``TruncationPositivityRule`` docstring: (3.11) and (3.20) need no rule of their own."""

    def test_repeated_minus_one_is_excluded_from_degree_four(self, truncation_box):
        # (3.11)
        tuples = [(d, t) for d, t in truncation_box if d >= 4 and t.count(-1) >= 2]
        assert len(tuples) == 1833
        assert all(truncation_excludes(d, t) for d, t in tuples)

    def test_entry_bound_3_20_is_implied_at_degree_eight(self, truncation_box):
        # (3.20): e_1 >= 1 at d = 8
        tuples = [(d, t) for d, t in truncation_box if d == 8 and t[1] <= 0]
        assert len(tuples) == 1196
        assert all(truncation_excludes(d, t) for d, t in tuples)


class TestRuleChecks:
    def test_floor_bound_citations(self):
        rule = FloorBoundRule()
        assert rule.check(SplittingType((-2, 1, 1, 1)), d=5, b=3, s=14).citation == "(3.13)"
        assert rule.check(SplittingType((-1, 1, 1, 2)), d=7, b=1, s=10).citation == "(3.14)"
        assert rule.check(SplittingType((0, 1, 2, 2)), d=9, b=-1, s=6).citation == "(3.15)"
        assert rule.check(SplittingType((-1, 0, 1, 1)), d=4, b=4, s=18) is None

    def test_cited_cap_pattern_match(self):
        rule = CitedCapRule()
        ok = SplittingType((-1, 0, 0, 0, 1))  # n = 4 is within the cap
        over = SplittingType((-1, 0, 0, 0, 0, 1))  # n = 5 is beyond it
        assert rule.check(ok, d=4, b=4, s=16) is None
        assert rule.check(over, d=4, b=4, s=20).citation == "(3.12.1)"

    def test_entry_bounds(self):
        rule = CitedCapRule()
        assert rule.check(SplittingType((0, 0, 0, 3)), d=7, b=1, s=10).citation == "(3.19)"
        assert [bound.citation for bound in classify.ENTRY_BOUNDS] == ["(3.19)"]

    def test_obstruction_rules_skip_other_ranks(self):
        assert NormalObstructionRule().check(SplittingType((1, 1, 1, 1, 1)), d=9, b=-1, s=5) is None
        assert Corank1EmptyRule().check((1, 2, 2, 2), d=11, b=-3, s=2) is None

    def test_truncation_rule_reports_smallest_k(self):
        trace = TruncationPositivityRule().check(SplittingType((-2, 0, 1, 2)), d=5, b=3, s=14)
        assert trace is not None and "k=2" in trace.detail

    def test_every_cited_bound_carries_a_citation(self):
        assert all(cap.citation for cap in classify.N_CAPS)
        assert all(bound.citation for bound in classify.ENTRY_BOUNDS)


def per_k_truncation_reference(splitting, b):
    """The rule before its one-pass form: one report per k, first violation kept."""
    degrees = tuple(splitting)
    n = len(degrees) - 1
    for k in range(2, n + 1):
        number = 2 * sum(degrees) + b - 2 * sum(degrees[-k:])
        applicable = degrees[0] <= 0 and (k == 2 or n >= k + 1)
        if applicable and number <= 0:
            citation = "(3.7)" if k == 2 else "(3.17.1)"
            return RuleResult(
                "truncation-positivity", f"k={k}: d - 2*(top-{k} sum) = {number} <= 0", citation
            )
    return None


class TestTruncationRule:
    def test_matches_per_k_reference_on_every_rule_reaching_tuple(self):
        rule = TruncationPositivityRule()
        checked = 0
        for d in range(1, 13):
            for n in range(3, 15):
                params = QuadricParams(0, n)
                e, b, s = params.e(d), params.b(d), params.s(d)
                if s < 0:
                    continue
                for degrees in classify._generate_splittings(d, e, [n])[n]:
                    expected = per_k_truncation_reference(degrees, b)
                    assert rule.check(SplittingType(degrees), d=d, b=b, s=s) == expected, (d, degrees)
                    checked += 1
        assert checked == 2580

    @pytest.mark.parametrize(
        "degrees, b, fires",
        [
            ((1, 1, 1, 5), -10, False),  # e_0 > 0: the top pair reads -6, yet nothing applies
            ((1, 1, 1, 1, 1), -1, False),
            ((-5, 9), -20, False),  # n = 1: no codimension in [2, n]
            ((0, 0), -3, False),
            ((-1, 2, 2), 1, True),  # n = 2: k = 2 = n applies
        ],
    )
    def test_hand_cases_match_per_k_reference(self, degrees, b, fires):
        d = 2 * sum(degrees) + b
        expected = per_k_truncation_reference(degrees, b)
        assert TruncationPositivityRule().check(SplittingType(degrees), d=d, b=b, s=0) == expected
        assert (expected is not None) == fires


class TestSharedTruncationTraces:
    """One ``RuleResult`` per distinct violation, held by the rule instance."""

    def test_a_new_rule_starts_with_no_traces(self):
        used = TruncationPositivityRule()
        assert used.check((-2, 0, 1, 2), d=5, b=3, s=14) is not None
        assert used._traces
        assert TruncationPositivityRule()._traces == {}

    def test_traces_match_per_k_reference_within_one_chain(self):
        shared, excluded = {}, 0
        for d in range(1, 13):
            candidates = enumerate_quadric_splittings(d, n_range=range(3, 15))
            truncated = [c for c in candidates if c.rule and c.rule.rule == "truncation-positivity"]
            excluded += len(truncated)
            for c in truncated:
                assert c.rule == per_k_truncation_reference(c.splitting, c.b), (d, c.splitting)
            ids = {id(c.rule) for c in truncated}
            assert len(ids) == len({c.rule for c in truncated})
            # a trace is shared only by candidates of the same call
            assert not ids & shared.keys()
            shared.update((id(c.rule), c.rule) for c in truncated)
        # 7 distinct traces by value, one record per violation in each call's chain
        assert (excluded, len(shared), len(set(shared.values()))) == (2332, 13, 7)


class TestDeepFibreDimension:
    @pytest.mark.parametrize("d, count", [(1, 3), (2, 2), (3, 3), (4, 2)])
    def test_generator_stays_iterative_at_n_1200(self, d, count):
        # a recursive generator would hit RecursionError at this depth
        candidates = enumerate_quadric_splittings(d, n_range=range(1200, 1201))
        assert len(candidates) == count
        assert all(len(c.splitting) == 1201 and sum(c.splitting) == d - 4 for c in candidates)


class TestCollectorSwitch:
    """The cyclic collector is off during an enumeration and the caller's setting holds."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_setting_holds(self, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        enumerate_quadric_splittings(9, n_range=range(3, 15))
        assert gc.isenabled() is enabled

    def test_a_rule_that_raises_partway_leaves_the_collector_on(self, collector):
        class Raises:
            name = "raises"
            calls = 0

            def check(self, splitting, d, b, s):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("raised by the third check")
                return None

        gc.enable()
        raises = Raises()
        rules = default_rules()
        rules.insert(3, raises)
        with pytest.raises(RuntimeError, match="third check"):
            enumerate_quadric_splittings(5, rules=rules)
        assert raises.calls == 3 and gc.isenabled()

    def test_an_enumeration_leaves_no_cycles(self):
        rows = tablecli.load_fixture(tablecli.packaged_fixture_path("3.25"), "3.25")
        gc.collect()
        for d in range(1, 13):
            paper_rows = {
                tuple(r.params["splitting"]): r.params["status"] for r in rows if r.params["d"] == d
            }
            results = [
                enumerate_quadric_splittings(d, n_range=range(3, 15)),
                enumerate_quadric_splittings(d, paper_rows=paper_rows),
            ]
            assert all(results)
            del results
        assert gc.collect() == 0


class TestVeroneseSolutions:
    def test_exact_solution_set(self):
        solutions = veronese_solutions()
        assert [(s.g_C, s.e, s.b, s.d) for s in solutions] == [(0, 0, 1, 12), (1, 2, -1, 4)]


class TestReductionTuples:
    def test_exact_tuples(self):
        record = reduction_tuples()
        assert record.general_type_tuples == (
            (1, 1, 2),
            (1, 2, 3),
            (1, 3, 4),
            (2, 2, 4),
            (3, 1, 4),
        )
        assert record.veronese_blowup_bound == 3

    def test_tuples_satisfy_the_constraint_system(self):
        for ln, r, lpn in reduction_tuples().general_type_tuples:
            assert ln >= 1 and r >= 1 and 2 <= lpn <= 4 and ln + r == lpn

    def test_the_list_is_every_solution_but_one(self):
        # every L^n, r >= 1 with L^n + r = L'^n <= 4 lies in this box
        box = range(1, 5)
        solutions = [
            (ln, r, lpn)
            for ln in box
            for r in box
            for lpn in box
            if 2 <= lpn and ln + r == lpn
        ]
        assert solutions == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
        published = reduction_tuples().general_type_tuples
        assert [t for t in solutions if t not in published] == [classify._OMITTED_5_7]
        assert classify._OMITTED_5_7 == (2, 1, 3)


class TestDeltaBounds:
    def test_degree_window(self):
        assert delta_bounds().d_range == range(1, 5)
