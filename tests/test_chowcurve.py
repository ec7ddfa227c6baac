import copy
import functools
import pickle
import random
from itertools import combinations_with_replacement

import pytest

from genus3 import chowcurve, classify
from genus3.chowcurve import (
    BaseCurve,
    ChowElement,
    DivisorClass,
    ProjBundleModel,
    QuadricInvariants,
    SplittingType,
    TruncationViolation,
    VeroneseInvariants,
    base_locus_index_set,
    canonical_class,
    corank1_emptiness,
    h0_line_bundle_sum_P1,
    h0_sym2_twist,
    multiply_classes,
    normal_obstruction,
    quadric_invariants,
    sectional_genus_divisor,
    top_degree,
    truncation_positivity,
    veronese_invariants,
)
from genus3.surflat import WeightSequence, make_plane
from genus3.tablecli import naive_expand, naive_reduce, naive_terms, naive_top_degree

H = DivisorClass(1, 0)
F = DivisorClass(0, 1)
RATIONAL_RANK3 = ProjBundleModel(BaseCurve(0), 3, 2)


def naive_product(rank, c1, factors):
    """The naive oracle's reduced product of ``factors``: expand, then reduce once."""
    return naive_reduce(rank, c1, naive_terms(naive_expand(factors)))


def split_bundle(*degrees):
    return ProjBundleModel.split(degrees)


def oracle_pair(oracle, degree):
    """(H^k, H^(k-1)*F) coefficients of a naive-oracle product of k classes."""
    assert set(oracle) <= {(degree, 0), (degree - 1, 1)}
    return oracle.get((degree, 0), 0), oracle.get((degree - 1, 1), 0)


class TestTypes:
    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            BaseCurve(-1)

    def test_splitting_must_be_sorted(self):
        with pytest.raises(ValueError):
            SplittingType((1, 0))

    def test_splitting_needs_two_summands(self):
        with pytest.raises(ValueError):
            SplittingType((2,))

    @pytest.mark.parametrize(
        "degrees, bad",
        [([0.5, 1.9], "0.5"), (["3", "4"], "'3'"), ([True, 2], "True")],
        ids=["float", "str", "bool"],
    )
    def test_splitting_degrees_must_be_ints(self, degrees, bad):
        # no silent int(): 0.5 would become 0, "3" would become 3, True would become 1
        with pytest.raises(ValueError, match=f"got {bad}$"):
            SplittingType(degrees)
        with pytest.raises(ValueError, match=f"got {bad}$"):
            ProjBundleModel.split(degrees)

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: BaseCurve(0.5), "0.5"),
            (lambda: BaseCurve(True), "True"),
            (lambda: BaseCurve("1"), "'1'"),
            (lambda: ProjBundleModel(BaseCurve(0), 3.5, True), "3.5"),
            (lambda: ProjBundleModel(BaseCurve(0), True, 2), "True"),
            (lambda: ProjBundleModel(BaseCurve(0), 3, True), "True"),
            (lambda: ProjBundleModel(BaseCurve(0), 3, 2.0), "2.0"),
            (lambda: WeightSequence((2.7, True, "3")), "2.7"),
            (lambda: WeightSequence((2, True)), "True"),
            (lambda: make_plane().with_polarization(("4",)), "'4'"),
            (lambda: quadric_invariants(ProjBundleModel(BaseCurve(0), 4, 6), 2.5), "2.5"),
            (lambda: quadric_invariants(ProjBundleModel(BaseCurve(0), 4, 6), True), "True"),
            (lambda: veronese_invariants(ProjBundleModel(BaseCurve(0), 3, 2), -1.0), "-1.0"),
            # a float coefficient once gave the float genus 1.0, and a bool passed as 1
            (lambda: sectional_genus_divisor(RATIONAL_RANK3, DivisorClass(2.0, 0), H), "2.0"),
            (lambda: sectional_genus_divisor(RATIONAL_RANK3, DivisorClass(2, True), H), "True"),
            (lambda: sectional_genus_divisor(RATIONAL_RANK3, (2, 0), ("1", 0)), "'1'"),
        ],
        ids=[
            "genus-float", "genus-bool", "genus-str", "rank-float", "rank-bool",
            "c1-bool", "c1-float", "weights-mixed", "weights-bool", "polarization-str",
            "quadric-b-float", "quadric-b-bool", "veronese-b-float",
            "member-float", "member-bool", "polarization-str-coefficient",
        ],
    )
    def test_integer_fields_must_be_ints(self, build, bad):
        # the splitting degrees' rule for every integer field of a record
        with pytest.raises(ValueError, match=f"got {bad}$"):
            build()

    @pytest.mark.parametrize("base", [0, None], ids=["int", "none"])
    def test_bundle_base_must_be_a_curve(self, base):
        # an int or None base would otherwise fail later, at its first .genus
        with pytest.raises(ValueError, match=f"base must be a BaseCurve, got {base!r}$"):
            ProjBundleModel(base, 4, 4)

    def test_bundle_rank_bound(self):
        with pytest.raises(ValueError):
            ProjBundleModel(BaseCurve(0), 1, 0)

    def test_divisor_arithmetic(self):
        assert 2 * (H - F) + F == DivisorClass(2, -1)
        assert -(H - F) == DivisorClass(-1, 1)
        # class arithmetic, never tuple concatenation or repetition
        results = (3 * (H - F), (H - F) * 3, H + F, H - F, -H)
        assert results[0] == results[1] == DivisorClass(3, -3)
        assert all(type(value) is DivisorClass for value in results)


class TestRecordTypes:
    # the ring builds these records with tuple.__new__, which skips any __new__ they
    # define; none defines one, and each record still behaves as its class built it
    RECORDS = (ChowElement, QuadricInvariants, DivisorClass, VeroneseInvariants, TruncationViolation)

    def records(self):
        """(expected class, record) for each record-building function on a small grid."""
        for g_c in (0, 1):
            for rank in (2, 3, 4):
                for c1 in (-2, 0, 3):
                    bundle = ProjBundleModel(BaseCurve(g_c), rank, c1)
                    yield DivisorClass, canonical_class(bundle)
                    # below, at and above the top degree
                    for k in (1, rank, rank + 1):
                        factors = [H + F, 2 * H - F, H][:k] + [F] * (k - 3)
                        yield ChowElement, multiply_classes(bundle, factors)
                    for b in (-2, 1):
                        yield QuadricInvariants, quadric_invariants(bundle, b)
                        if rank == 3:
                            yield VeroneseInvariants, veronese_invariants(bundle, b)
        for degrees, b in (((-1, 0, 1, 1, 1), 2), ((-1, 2, 2), 1), ((-2, 0, 0, 1), 0)):
            yield TruncationViolation, truncation_positivity(SplittingType(degrees), b)

    def test_no_record_validates_in_new(self):
        assert not any("__new__" in vars(cls) for cls in self.RECORDS)

    def test_records_keep_their_exact_types(self):
        seen = set()
        for cls, record in self.records():
            assert type(record) is cls, record
            seen.add(cls)
            assert record == cls(**record._asdict())
            rebuilt = copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))
            assert all(type(x) is cls and x == record for x in rebuilt)
        assert seen == set(self.RECORDS)

    def test_plain_pairs_give_the_same_genus(self):
        for g_c in (0, 1, 2):
            for rank in (2, 3, 4, 5):
                for c1 in (-3, 0, 2):
                    bundle = ProjBundleModel(BaseCurve(g_c), rank, c1)
                    for member in ((2, -1), (1, 3), (0, 1)):
                        for polarization in ((1, 0), (2, 1)):
                            genus = sectional_genus_divisor(bundle, member, polarization)
                            assert type(genus) is int
                            classes = DivisorClass(*member), DivisorClass(*polarization)
                            assert genus == sectional_genus_divisor(bundle, *classes)


class TestMultiply:
    def test_fibre_class_squares_to_zero(self):
        bundle = ProjBundleModel(BaseCurve(0), 4, 3)
        assert multiply_classes(bundle, [F, F]) == ChowElement(2, 0, 0)
        assert naive_product(4, 3, [(0, 1), (0, 1)]) == {}

    def test_top_product_matches_naive_oracle(self):
        # (H-F)^3 (2H-2F) on rank 4, c1 = 6: expansion gives 2H^4 - 8H^3F,
        # canonical (2*6 - 8) H^3 F
        bundle = ProjBundleModel(BaseCurve(0), 4, 6)
        product = multiply_classes(bundle, [H - F, H - F, H - F, 2 * H - 2 * F])
        oracle = naive_product(4, 6, [(1, -1), (1, -1), (1, -1), (2, -2)])
        assert oracle == {(3, 1): 4}
        assert (product.h, product.hf) == oracle_pair(oracle, 4) == (0, 4)

    def test_pure_h_power_reduces(self):
        bundle = ProjBundleModel(BaseCurve(0), 4, 4)
        product = multiply_classes(bundle, [H, H, H, 2 * H])
        assert product == ChowElement(4, 0, 8)
        oracle = naive_product(4, 4, [(1, 0), (1, 0), (1, 0), (2, 0)])
        assert (product.h, product.hf) == oracle_pair(oracle, 4)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError):
            multiply_classes(ProjBundleModel(BaseCurve(0), 4, 0), [])

    def test_order_independence(self):
        bundle = ProjBundleModel(BaseCurve(2), 5, -3)
        factors = [H - 2 * F, 3 * H + F, H, 2 * H - F, H + 5 * F]
        expected = multiply_classes(bundle, factors)
        assert multiply_classes(bundle, factors[::-1]) == expected
        assert multiply_classes(bundle, [factors[2], factors[0], factors[4], factors[3], factors[1]]) == expected

    def test_plain_pairs_multiply_as_divisor_classes(self):
        # the ring reads each factor as an (h, f) pair, whatever its type
        rng = random.Random(7)
        for rank in range(2, 7):
            for c1 in range(-3, 4):
                bundle = ProjBundleModel(BaseCurve(rank % 3), rank, c1)
                for k in range(1, rank + 2):
                    pairs = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(k)]
                    element = multiply_classes(bundle, pairs)
                    assert type(element) is ChowElement
                    assert element == multiply_classes(bundle, [DivisorClass(*p) for p in pairs])


class TestTopDegree:
    def test_fibre_point_normalisation(self):
        for rank in range(2, 7):
            bundle = ProjBundleModel(BaseCurve(0), rank, 17)
            assert top_degree(bundle, multiply_classes(bundle, [H] * (rank - 1) + [F])) == 1

    def test_degree_from_member_class(self):
        bundle = ProjBundleModel(BaseCurve(0), 4, 6)
        element = multiply_classes(bundle, [H, H, H, 2 * H - 2 * F])
        assert top_degree(bundle, element) == 10

    def test_pushforward_degree(self):
        bundle = ProjBundleModel(BaseCurve(0), 4, 6)
        element = multiply_classes(bundle, [H - F, H - F, H - F, 2 * H - 2 * F])
        assert top_degree(bundle, element) == 4

    def test_degree_mismatch_rejected(self):
        bundle = ProjBundleModel(BaseCurve(0), 4, 1)
        with pytest.raises(ValueError, match="homogeneous"):
            top_degree(bundle, multiply_classes(bundle, [H]))

    def test_reduces_noncanonical_input(self):
        # 2*H^4 rewrites to 2*c1*H^3*F; the ring applies the same rewrite
        bundle = ProjBundleModel(BaseCurve(0), 4, 5)
        assert naive_reduce(4, 5, [(4, 0, 2)]) == {(3, 1): 10}
        assert top_degree(bundle, multiply_classes(bundle, [H, H, H, 2 * H])) == 10

    def test_zero_element_integrates_to_zero(self):
        bundle = ProjBundleModel(BaseCurve(0), 4, 5)
        assert top_degree(bundle, multiply_classes(bundle, [F, F, H, H])) == 0


class TestCanonicalClass:
    def test_elliptic_rank3(self):
        assert canonical_class(ProjBundleModel(BaseCurve(1), 3, 2)) == DivisorClass(-3, 2)

    def test_trivial_ruled_surface(self):
        assert canonical_class(ProjBundleModel(BaseCurve(0), 2, 0)) == DivisorClass(-2, -2)

    def test_rank4_rational(self):
        assert canonical_class(ProjBundleModel(BaseCurve(0), 4, 0)) == DivisorClass(-4, -2)

    def test_rank3_adjoint_identity(self):
        # over an elliptic base, K + 2(2H + bF) = H exactly when c1 + 2b = 0;
        # over other bases the F-part shifts by 2g(C) - 2, so the identity
        # pins down both coefficients of the canonical formula
        for e in (-4, -2, 0, 2, 4):
            b = -e // 2
            adjoint = canonical_class(ProjBundleModel(BaseCurve(1), 3, e)) + 2 * DivisorClass(2, b)
            assert adjoint == DivisorClass(1, 0)
            shifted = canonical_class(ProjBundleModel(BaseCurve(0), 3, e)) + 2 * DivisorClass(2, b)
            assert shifted == DivisorClass(1, -2)

    def test_genus_cross_check_on_grid(self):
        # adjunction through the canonical class must match the closed form
        for g_c in (0, 1, 2):
            for rank in (3, 4, 5):
                for e in range(-3, 4):
                    bundle = ProjBundleModel(BaseCurve(g_c), rank, e)
                    for b in range(-3, 4):
                        member = DivisorClass(2, b)
                        assert (
                            sectional_genus_divisor(bundle, member, H)
                            == quadric_invariants(bundle, b).g
                        )


class TestQuadricInvariants:
    def test_degree8_case(self):
        inv = quadric_invariants(ProjBundleModel(BaseCurve(0), 4, 4), 0)
        assert (inv.d, inv.g, inv.s) == (8, 3, 8)

    def test_all_offsets_zero(self):
        inv = quadric_invariants(ProjBundleModel(BaseCurve(1), 4, 0), 0)
        assert (inv.d, inv.g, inv.s) == (0, 1, 0)

    def test_degree12_smooth_fibration(self):
        inv = quadric_invariants(ProjBundleModel(BaseCurve(0), 4, 8), -4)
        assert (inv.d, inv.g, inv.s) == (12, 3, 0)


def sectional_genus_reference(bundle, member, polarization):
    """``sectional_genus_divisor`` with its adjoint built by class arithmetic, as it was."""
    n = bundle.rank - 1
    adjoint = canonical_class(bundle) + member + (n - 1) * polarization
    value = chowcurve.top_degree(
        bundle,
        chowcurve.multiply_classes(bundle, [adjoint] + [polarization] * (n - 1) + [member]),
    )
    if value % 2 != 0:
        raise ValueError(f"odd adjoint number {value}: not of the form 2g - 2")
    return value // 2 + 1


class TestSectionalGenusDivisor:
    def test_matches_class_arithmetic_route_on_a_box(self):
        # 198,450 cases; entries in [-4, 4] for both classes would take about 10 s
        members = [DivisorClass(h, f) for h in range(-3, 4) for f in range(-3, 4)]
        polarizations = [DivisorClass(h, f) for h in range(-2, 3) for f in range(-2, 3)]
        for g_c in (0, 1, 2):
            for rank in range(2, 8):
                for c1 in range(-4, 5):
                    bundle = ProjBundleModel(BaseCurve(g_c), rank, c1)
                    for polarization in polarizations:
                        got = [sectional_genus_divisor(bundle, m, polarization) for m in members]
                        expected = [
                            sectional_genus_reference(bundle, m, polarization) for m in members
                        ]
                        assert got == expected, (bundle, polarization)

    def test_odd_adjoint_number_raises_as_before(self, monkeypatch):
        # no integer class gives an odd number (see the parity test), so break the ring
        real = chowcurve.multiply_classes

        def off_by_one(bundle, factors):
            element = real(bundle, factors)
            return element._replace(hf=element.hf + 1)

        monkeypatch.setattr(chowcurve, "multiply_classes", off_by_one)
        bundle = ProjBundleModel(BaseCurve(0), 4, 4)
        with pytest.raises(ValueError) as before:
            sectional_genus_reference(bundle, 2 * H, H)
        with pytest.raises(ValueError) as now:
            sectional_genus_divisor(bundle, 2 * H, H)
        assert str(now.value) == str(before.value) == "odd adjoint number 5: not of the form 2g - 2"

    def test_quadric_member_degree8(self):
        bundle = ProjBundleModel(BaseCurve(0), 4, 4)
        assert sectional_genus_divisor(bundle, 2 * H, H) == 3

    def test_elliptic_base_degree2_row(self):
        bundle = ProjBundleModel(BaseCurve(1), 4, 0)
        member = 2 * H + 2 * F
        assert sectional_genus_divisor(bundle, member, H) == 3
        assert quadric_invariants(bundle, 2).g == 3

    def test_rank3_closed_form(self):
        bundle = ProjBundleModel(BaseCurve(0), 3, 0)
        assert sectional_genus_divisor(bundle, 2 * H + 4 * F, H) == 3

    def test_adjoint_number_parity(self):
        # the canonical class is characteristic, so the adjoint pairing is
        # even for every integer member/polarization and the genus is
        # always an integer; the odd-adjoint guard is purely defensive
        for e in range(-3, 4):
            bundle = ProjBundleModel(BaseCurve(0), 3, e)
            for a in range(-2, 3):
                for b in range(-2, 3):
                    g = sectional_genus_divisor(bundle, DivisorClass(a, b), H + F)
                    assert isinstance(g, int)


class TestVeroneseInvariants:
    def test_rational_base(self):
        inv = veronese_invariants(ProjBundleModel(BaseCurve(0), 3, 0), 1)
        assert (inv.d, inv.g) == (12, 3)

    def test_elliptic_base(self):
        inv = veronese_invariants(ProjBundleModel(BaseCurve(1), 3, 2), -1)
        assert (inv.d, inv.g) == (4, 3)

    def test_higher_genus_value(self):
        inv = veronese_invariants(ProjBundleModel(BaseCurve(1), 3, 3), -1)
        assert (inv.d, inv.g) == (12, 7)

    def test_closed_form_oracle(self):
        # d = 8e + 12b and 2g - 2 = d + 8(g(C) - 1), independently of the ring
        for g_c in (0, 1, 2):
            for e in range(-4, 5):
                for b in range(-4, 5):
                    inv = veronese_invariants(ProjBundleModel(BaseCurve(g_c), 3, e), b)
                    assert inv.d == 8 * e + 12 * b
                    assert 2 * inv.g - 2 == inv.d + 8 * (g_c - 1)

    def test_rank_must_be_three(self):
        with pytest.raises(ValueError):
            veronese_invariants(ProjBundleModel(BaseCurve(0), 4, 0), 1)


class TestH0Counts:
    def test_single_degrees(self):
        assert h0_line_bundle_sum_P1([0]) == 1
        assert h0_line_bundle_sum_P1([-1]) == 0
        assert h0_line_bundle_sum_P1([5, -2, 0]) == 7

    def test_shifted_sym2_degree_list(self):
        degrees = [a - 3 for a in (2, 3, 3, 3, 4, 4, 4, 4, 4, 4)]
        assert h0_line_bundle_sum_P1(degrees) == 15

    def test_sym2_twists(self):
        assert h0_sym2_twist(SplittingType((1, 2, 2, 2)), -3) == 15
        assert h0_sym2_twist(SplittingType((1, 2, 2, 3)), -4) == 11
        assert h0_sym2_twist((0, 0), 0) == 3  # a plain tuple, as the enumerator passes


def ring_truncation_number(splitting, b, k):
    """H^(n-k) * (2H + bF) * prod(H - e_i F) over the k largest entries."""
    bundle = ProjBundleModel.split(splitting)
    n = len(splitting) - 1
    factors = [H] * (n - k) + [DivisorClass(2, b)] + [DivisorClass(1, -e) for e in splitting[-k:]]
    return top_degree(bundle, multiply_classes(bundle, factors))


def applicable_codims(splitting):
    """Codimensions k whose truncation number must be positive."""
    n = len(splitting) - 1
    if splitting[0] > 0:
        return []
    return [k for k in range(2, n + 1) if k == 2 or n >= k + 1]


class TestTruncationPositivity:
    def test_codim3_boundary_case(self):
        # k = 2 gives 2 > 0; k = 3 gives 0, the first violation
        assert truncation_positivity(SplittingType((-1, 0, 1, 1, 1)), 2) == (3, 0)

    def test_codim2_positive_case(self):
        assert truncation_positivity(SplittingType((0, 0, 1, 1)), 2) is None

    def test_positive_floor_disables(self):
        # k = 2 would read 6 - 12 = -6, but e_0 > 0 makes no truncation applicable
        assert truncation_positivity(SplittingType((1, 1, 1, 1)), 0) is None
        assert truncation_positivity(SplittingType((1, 1, 1, 5)), -10) is None

    def test_codim_equal_to_dimension_inapplicable(self):
        # at n = k the truncated locus may miss the member entirely: k = 3 reads 0
        assert ring_truncation_number((-1, 1, 1, 1), 2, 3) == 0
        assert truncation_positivity(SplittingType((-1, 1, 1, 1)), 2) is None

    def test_single_fibre_dimension_has_no_codimension(self):
        # n = 1 has no k in [2, n]; at n = 2 only k = 2 = n applies
        assert truncation_positivity(SplittingType((-5, 9)), -20) is None
        assert truncation_positivity(SplittingType((-1, 2, 2)), 1) == (2, -1)

    def test_number_matches_ring_product(self):
        cases = [
            ((-1, 0, 1, 1, 1), 2),
            ((0, 0, 1, 1), 2),
            ((-2, -1, 0, 0), 7),
            ((-1, -1, -1, 0, 0), 7),
            ((0, 0, 0, 1, 1), 2),
            ((-1, 0, 0, 2), 3),
            ((-2, 0, 1, 2), 3),
            ((-1, 0, 0, 0, 1, 2), -1),
            ((-2, 0, 1, 1, 1, 1), 3),  # first violated at k = 4
            ((-1, 2, 2), 1),
        ]
        for degrees, b in cases:
            violation = truncation_positivity(SplittingType(degrees), b)
            ring = {k: ring_truncation_number(degrees, b, k) for k in applicable_codims(degrees)}
            violated = [k for k, number in ring.items() if number <= 0]
            if violation is None:
                assert not violated, degrees
                continue
            k, number = violation
            assert (k, number) == (violated[0], ring[k]), degrees
            assert number <= 0 and all(ring[j] > 0 for j in ring if j < k)


class TestBaseLocus:
    def test_surface_base_locus(self):
        assert base_locus_index_set((1, 1, 2, 3), -3) == (0, 1)

    def test_curve_base_locus(self):
        assert base_locus_index_set(SplittingType((1, 2, 2, 2)), -3) == (0,)

    def test_free_system(self):
        assert base_locus_index_set(SplittingType((0, 0, 0, 0)), 4) == ()


def corank1_reference(splitting, b):
    """``corank1_emptiness`` by brute force: every removed index tried in turn."""
    for i in range(len(splitting)):
        if chowcurve.h0_sym2_twist(splitting[:i] + splitting[i + 1 :], b) == 0:
            return i
    return None


class TestCorank1:
    def test_matches_every_index_loop_on_every_rule_reaching_tuple(self, monkeypatch):
        # h^0 is a pure function; the reference loop reads one memo of it
        monkeypatch.setattr(chowcurve, "h0_sym2_twist", functools.cache(h0_sym2_twist))
        checked = 0
        for d in range(1, 13):
            for n in range(3, 15):
                params = classify.QuadricParams(0, n)
                if params.s(d) < 0:
                    continue
                b = params.b(d)
                for degrees in classify._generate_splittings(d, params.e(d), [n])[n]:
                    assert corank1_emptiness(degrees, b) == corank1_reference(degrees, b), (d, degrees)
                    checked += 1
        assert checked == 2580

    def test_matches_every_index_loop_on_a_box(self, monkeypatch):
        # lengths 0 to 6: 210,392 cases; length 7 as well would make 541,008 and
        # take about 7 s
        box = [
            degrees
            for length in range(7)
            for degrees in combinations_with_replacement(range(-4, 7), length)
        ]
        for b in range(-8, 9):
            # h^0 is a pure function; the reference loop reads one memo, fresh for each b
            monkeypatch.setattr(chowcurve, "h0_sym2_twist", functools.cache(h0_sym2_twist))
            got = [corank1_emptiness(degrees, b) for degrees in box]
            assert got == [corank1_reference(degrees, b) for degrees in box], b
        assert len(box) == 12376

    @pytest.mark.parametrize(
        "splitting, b, witness",
        [
            ((), 0, None),  # nothing to remove
            ((5,), 0, 0),  # removing the only summand leaves h^0 = 0
            ((0, 2, 2), -4, None),  # a repeated top survives every removal
            ((0, 1, 2), -3, 2),  # only removing the top leaves 2*1 - 3 < 0
        ],
    )
    def test_short_splittings(self, splitting, b, witness):
        assert corank1_emptiness(splitting, b) == witness
        assert corank1_reference(splitting, b) == witness

    def test_excluded_with_witness(self):
        assert corank1_emptiness((1, 1, 1, 4), -3) == 3

    def test_excluded_degree12(self):
        assert corank1_emptiness(SplittingType((1, 1, 1, 5)), -4) is not None

    def test_not_excluded(self):
        assert corank1_emptiness(SplittingType((1, 2, 2, 2)), -3) is None


class TestNormalObstruction:
    def test_pairing_branch(self):
        detail = normal_obstruction((1, 1, 2, 3), -3)
        assert detail.branch == "pairing"
        assert detail.pairing == 1

    def test_not_excluded_when_pairing_vanishes(self):
        detail = normal_obstruction(SplittingType((1, 1, 3, 3)), -4)
        assert detail.branch == "none"
        assert detail.pairing == 0

    def test_vanishing_section_branch(self):
        detail = normal_obstruction(SplittingType((1, 1, 2, 4)), -4)
        assert detail.branch == "vanishing-section"
        assert detail.h0_p == 0 and detail.self_q == 2

    def test_inapplicable_when_base_locus_is_not_a_surface(self):
        assert normal_obstruction(SplittingType((1, 1, 1, 4)), -3) is None
        assert normal_obstruction(SplittingType((1, 2, 2, 2)), -3) is None
        assert normal_obstruction(SplittingType((2, 2, 2, 2)), -4) is None

    def test_rank_must_be_four(self):
        with pytest.raises(ValueError):
            normal_obstruction(SplittingType((1, 1, 2, 3, 3)), -3)

    def test_numbers_match_ring_on_the_base_locus_surface(self):
        # on B = P(E_J), a rank-2 bundle with c1 = c, the three numbers are the
        # intersections (H + pF)^2, (H + qF)^2 and (H + pF)(H + qF)
        checked = 0
        for degrees in combinations_with_replacement(range(-5, 6), 4):
            for b in range(-8, 9):
                detail = normal_obstruction(SplittingType(degrees), b)
                if detail is None:
                    continue
                surface = ProjBundleModel(BaseCurve(0), 2, detail.c)
                sp, sq = DivisorClass(1, detail.p), DivisorClass(1, detail.q)
                ring = [
                    top_degree(surface, multiply_classes(surface, factors))
                    for factors in ([sp, sp], [sq, sq], [sp, sq])
                ]
                assert ring == [detail.self_p, detail.self_q, detail.pairing], (degrees, b)
                checked += 1
        assert checked == 3839


class TestReduceElement:
    """Reduction of raw monomials H^i * F^j, through the naive oracle."""

    def test_grothendieck_rewrite(self):
        assert naive_reduce(4, 7, [(4, 0, 1)]) == {(3, 1): 7}
        bundle = ProjBundleModel(BaseCurve(0), 4, 7)
        assert multiply_classes(bundle, [H] * 4) == ChowElement(4, 0, 7)

    def test_above_dimension_dies(self):
        assert naive_reduce(4, 7, [(5, 0, 1), (4, 1, 2), (2, 2, 3)]) == {}


def test_naive_oracle_agrees_with_ring_on_mixed_products():
    bundle = ProjBundleModel(BaseCurve(0), 5, 3)
    factors = [(2, -1), (1, 4), (0, 1), (3, 0), (1, -2)]
    ring = multiply_classes(bundle, [DivisorClass(h, f) for h, f in factors])
    assert (ring.h, ring.hf) == oracle_pair(naive_product(5, 3, factors), 5)
    assert top_degree(bundle, ring) == naive_product(5, 3, factors).get((4, 1), 0)
    assert top_degree(bundle, ring) == naive_top_degree(5, 3, naive_terms(naive_expand(factors)))
