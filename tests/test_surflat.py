import sys

import pytest

from genus3.chowcurve import int_text
from genus3.surflat import (
    FAMILIES,
    DegTRow,
    RuledModel,
    SurfaceLattice,
    WeightSequence,
    blow_up,
    deg_t_enumeration,
    make_plane,
    make_ruled,
    minimalization_invariants,
    pair,
    sectional_genus_surface,
    verify_row_2_3,
)


class TestLattices:
    def test_product_of_lines(self):
        lattice = make_ruled(RuledModel(base_genus=0, e=0))
        assert lattice.K == (-2, -2)
        assert pair(lattice, lattice.K, lattice.K) == 8

    def test_elliptic_ruled_canonical(self):
        lattice = make_ruled(RuledModel(base_genus=1, e=1))
        assert lattice.K == (-2, 1)
        assert pair(lattice, lattice.K, lattice.K) == 0
        # genus of A' = 5H - 2f must be three (the table's V-3 row)
        a_prime = (5, -2)
        g = sectional_genus_surface(
            pair(lattice, lattice.K, a_prime), pair(lattice, a_prime, a_prime)
        )
        assert g == 3

    def test_hirzebruch_two(self):
        lattice = make_ruled(RuledModel(base_genus=0, e=2))
        a = (2, 2)
        assert pair(lattice, lattice.K, a) + pair(lattice, a, a) == 4
        assert sectional_genus_surface(pair(lattice, lattice.K, a), pair(lattice, a, a)) == 3

    def test_gram_must_be_symmetric(self):
        with pytest.raises(ValueError):
            SurfaceLattice(gram=((0, 1), (2, 0)), K=(0, 0))

    def test_list_inputs_are_stored_as_tuples(self):
        lattice = SurfaceLattice([[1]], [-3], [3])
        assert lattice == make_plane().with_polarization((3,))
        assert all(type(part) is tuple for part in (*lattice, *lattice.gram))
        assert hash(lattice) == hash(make_plane().with_polarization((3,)))

    def test_list_polarization_blows_up(self):
        lattice = SurfaceLattice(((1,),), [-3], [3])
        blown = blow_up(lattice, WeightSequence((1,)))
        assert blown.K == (-3, 1) and blown.A == (3, -1)
        assert pair(blown, blown.A, blown.A) == 8

    def test_gram_rows_given_as_lists_cannot_be_changed(self):
        rows = [[1]]
        lattice = SurfaceLattice(rows, (-3,), (3,))
        rows[0][0] = 5
        with pytest.raises(TypeError):
            lattice.gram[0][0] = 5
        assert lattice.gram == ((1,),)

    def test_vector_length_checked(self):
        lattice = make_plane()
        with pytest.raises(ValueError):
            pair(lattice, (1, 2), (1,))
        with pytest.raises(ValueError, match="polarization vector length"):
            lattice.with_polarization((1, 2))


class TestPair:
    def test_plane_quartic(self):
        lattice = make_plane()
        assert pair(lattice, (4,), (4,)) == 16

    def test_zero_vector(self):
        lattice = make_ruled(RuledModel(0, 1))
        assert pair(lattice, (3, 5), (0, 0)) == 0

    def test_quadric_surface_polarization(self):
        lattice = make_ruled(RuledModel(0, 0))
        assert pair(lattice, (2, 4), (2, 4)) == 16


class TestSectionalGenus:
    def test_general_type_row(self):
        assert sectional_genus_surface(2, 2) == 3

    def test_plane_quartic(self):
        assert sectional_genus_surface(-12, 16) == 3

    def test_k_trivial_row(self):
        assert sectional_genus_surface(0, 4) == 3

    def test_parity_violation(self):
        with pytest.raises(ValueError, match="even"):
            sectional_genus_surface(1, 2)

    def test_pairing_data_parity(self):
        # the pairing data (K.A, A^2) of a polarized surface: odd K.A + A^2
        # is refused with the exact message, even data gives the genus
        with pytest.raises(ValueError, match=r"^KA \+ AA = 3 must be even$"):
            sectional_genus_surface(1, 2)
        assert sectional_genus_surface(2, 2) == 3


class TestIntText:
    def test_up_to_50_digits_prints_in_full(self):
        for value in (0, -7, 10**49, 10**50 - 1, -(10**50) + 1):
            assert int_text(value) == str(value)

    def test_past_50_digits_gives_the_digit_count(self):
        # around powers of ten and of two, up to twice the interpreter's digit limit;
        # a negative one also names its sign
        values = [v for k in range(50, 9000, 197) for v in (10**k - 1, 10**k, 2 ** (3 * k))]
        values += [-v for v in values]
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # so that str can count every digit
        try:
            digits = [len(str(abs(value))) for value in values]
        finally:
            sys.set_int_max_str_digits(previous)
        signs = ["a negative" if value < 0 else "an" for value in values]
        assert [int_text(value) for value in values] == [
            str(value) if n <= 50 else f"{sign} integer of {n} digits"
            for value, n, sign in zip(values, digits, signs)
        ]


class TestBlowUp:
    def test_elliptic_weight_two(self):
        lattice = make_ruled(RuledModel(base_genus=1, e=0)).with_polarization((4, 1))
        assert pair(lattice, lattice.A, lattice.A) == 8
        blown = blow_up(lattice, WeightSequence((2,)))
        assert pair(blown, blown.A, blown.A) == 4

    def test_empty_weights_identity(self):
        lattice = make_plane().with_polarization((4,))
        blown = blow_up(lattice, WeightSequence(()))
        assert blown == lattice

    def test_abstract_big_polarization(self):
        lattice = SurfaceLattice(gram=((50,),), K=(0,), A=(1,))
        blown = blow_up(lattice, WeightSequence((4, 4, 4)))
        assert pair(blown, blown.A, blown.A) == 2

    def test_requires_polarization(self):
        with pytest.raises(ValueError, match="polarization"):
            blow_up(make_plane(), WeightSequence((2,)))

    def test_pullbacks_keep_intersection_numbers(self):
        lattice = make_ruled(RuledModel(0, 1)).with_polarization((3, 2))
        blown = blow_up(lattice, WeightSequence((2, 3)))
        for d1 in ((1, 0), (0, 1), (2, -1)):
            for d2 in ((1, 1), (4, 0)):
                assert pair(blown, d1 + (0, 0), d2 + (0, 0)) == pair(lattice, d1, d2)

    def test_canonical_gains_exceptionals(self):
        lattice = make_plane().with_polarization((5,))
        blown = blow_up(lattice, WeightSequence((2, 2)))
        assert blown.K == (-3, 1, 1)
        assert pair(blown, blown.K, blown.K) == 9 - 2


class TestWeights:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightSequence((0,))

    def test_drop_and_square_sums(self):
        seq = WeightSequence((4, 3, 2))
        assert seq.genus_drop == 6 + 3 + 1
        assert seq.square_sum == 16 + 9 + 4


class TestMinimalization:
    def test_weight_four_contraction(self):
        result = minimalization_invariants(9, 18, 0, WeightSequence((4,)))
        assert (result.g, result.AA) == (3, 2)

    def test_empty_weights(self):
        result = minimalization_invariants(7, 11, 5, WeightSequence(()))
        assert (result.g, result.AA, result.KK) == (7, 11, 5)

    def test_nine_weight_two_contractions(self):
        result = minimalization_invariants(12, 40, 8, WeightSequence((2,) * 9))
        assert (result.g, result.AA, result.KK) == (3, 4, -1)


class TestDegT:
    def test_exact_rows(self):
        assert deg_t_enumeration() == (
            DegTRow(1, 0, 2, 4),
            DegTRow(2, -1, 3, 3),
            DegTRow(3, -2, 4, 2),
            DegTRow(4, -3, 5, 1),
        )


class TestVerifyRows:
    # verify_row_2_3 returns (g, A^2, K^2); a row verifies when (g, A^2) = (3, A2)
    def test_general_type_row(self):
        assert verify_row_2_3({"family": "I", "row": 1, "A2": 2})[:2] == (3, 2)

    def test_minimal_general_type_row(self):
        row = {"family": "II", "row": 1, "KK": 1, "KA": 2, "A2": 2}
        assert verify_row_2_3(row)[:2] == (3, row["A2"])

    def test_elliptic_surface_rows(self):
        assert verify_row_2_3({"family": "III", "row": 1, "KA": 2, "A2": 2})[:2] == (3, 2)
        assert verify_row_2_3({"family": "III", "row": 2, "KA": 1, "A2": 3})[:2] == (3, 3)

    def test_k_trivial_rows(self):
        row1 = {"family": "IV", "row": 1, "A2_min": 4, "weights": [], "A2": 4}
        row2 = {"family": "IV", "row": 2, "A2_min": 6, "weights": [2], "A2": 2}
        assert verify_row_2_3(row1)[:2] == (3, row1["A2"])
        assert verify_row_2_3(row2)[:2] == (3, row2["A2"])

    def test_elliptic_ruled_row(self):
        row = {"family": "V", "row": 1, "e": 0, "x": 2, "y": 2, "weights": [], "A2": 8}
        assert verify_row_2_3(row)[:2] == (3, 8)

    def test_plane_row(self):
        assert verify_row_2_3({"family": "VI", "row": 1, "degree": 4, "A2": 16})[:2] == (3, 16)

    def test_del_pezzo_row(self):
        row = {"family": "VIII", "row": 6, "KKj": 1, "a": 6, "weights": [5, 3], "A2": 2}
        assert verify_row_2_3(row)[:2] == (3, 2)

    def test_hirzebruch_discrepancy_row(self):
        row = {
            "family": "VII",
            "row": 3,
            "e": 1,
            "x": 6,
            "y": 5,
            "weights": [3] * 9,
            "A2": 3,
        }
        assert verify_row_2_3(row)[:2] == (8, 15)

    def test_malformed_row(self):
        with pytest.raises(ValueError, match="missing field"):
            verify_row_2_3({"family": "V", "row": 1})
        with pytest.raises(ValueError, match="family"):
            verify_row_2_3({"family": "IX", "row": 1, "A2": 2})

    def test_family_fields_are_all_a_family_reads(self):
        # one row per family, cut down to the keys the schema requires
        rows = [
            {"family": "I", "row": 1, "A2": 2},
            {"family": "II", "row": 1, "KK": 1, "KA": 2, "A2": 2},
            {"family": "III", "row": 1, "KA": 2, "A2": 2},
            {"family": "IV", "row": 2, "A2_min": 6, "weights": [2], "A2": 2},
            {"family": "V", "row": 1, "e": 0, "x": 2, "y": 2, "A2": 8},
            {"family": "VI", "row": 1, "degree": 4, "A2": 16},
            {"family": "VII", "row": 1, "e": 0, "x": 2, "y": 4, "A2": 16},
            {"family": "VIII", "row": 6, "KKj": 1, "a": 6, "weights": [5, 3], "A2": 2},
        ]
        assert [row["family"] for row in rows] == list(FAMILIES)
        for row in rows:
            fields = FAMILIES[row["family"]][0]
            assert set(row) - {"family", "row", "A2", "weights"} == set(fields) - {"A2"}
            assert verify_row_2_3(row)[:2] == (3, row["A2"])
            # the published A2 is a field only where the minimal model reads it
            unpublished = {name: value for name, value in row.items() if name != "A2"}
            if "A2" in fields:
                with pytest.raises(ValueError, match="missing field 'A2'"):
                    verify_row_2_3(unpublished)
            else:
                assert verify_row_2_3(unpublished) == verify_row_2_3(row)
