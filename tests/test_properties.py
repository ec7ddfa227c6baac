import subprocess
import sys
import types
from itertools import product
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from genus3 import chowcurve
from genus3.chowcurve import (
    BaseCurve,
    DivisorClass,
    ProjBundleModel,
    SplittingType,
    canonical_class,
    h0_sym2_twist,
    multiply_classes,
    quadric_invariants,
    top_degree,
    truncation_positivity,
)
from genus3.surflat import (
    RuledModel,
    WeightSequence,
    blow_up,
    make_ruled,
    minimalization_invariants,
    pair,
    sectional_genus_surface,
)
from genus3.tablecli import naive_expand, naive_reduce, naive_terms, naive_top_degree

bundles = st.builds(
    ProjBundleModel,
    base=st.builds(BaseCurve, genus=st.integers(0, 2)),
    rank=st.integers(2, 6),
    c1=st.integers(-6, 6),
)
divisors = st.builds(DivisorClass, h=st.integers(-5, 5), f=st.integers(-5, 5))

splittings = st.lists(st.integers(-4, 4), min_size=2, max_size=6).map(
    lambda xs: SplittingType(tuple(sorted(xs)))
)


def naive_product(rank, c1, factors, start=(1,)):
    """The naive oracle's reduced product of ``start`` and ``factors``: expand, then reduce once."""
    return naive_reduce(rank, c1, naive_terms(naive_expand(factors, start)))


def oracle_pair(oracle, degree):
    """(H^k, H^(k-1)*F) coefficients of a naive-oracle product of k classes."""
    assert set(oracle) <= {(degree, 0), (degree - 1, 1)}
    return oracle.get((degree, 0), 0), oracle.get((degree - 1, 1), 0)


@given(bundles, st.lists(divisors, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_multiply_is_permutation_invariant(bundle, factors, rng):
    shuffled = list(factors)
    rng.shuffle(shuffled)
    assert multiply_classes(bundle, shuffled) == multiply_classes(bundle, factors)


@given(bundles, st.lists(divisors, min_size=1, max_size=6))
def test_multiply_matches_naive_oracle(bundle, factors):
    ring = multiply_classes(bundle, factors)
    oracle = naive_product(bundle.rank, bundle.c1, [(d.h, d.f) for d in factors])
    assert (ring.h, ring.hf) == oracle_pair(oracle, len(factors))


@given(bundles, st.lists(divisors, min_size=2, max_size=5), st.integers(1, 4))
def test_multiply_is_associative(bundle, factors, cut):
    # multiplying the two reduced half-products agrees with the flat product
    cut = min(cut, len(factors) - 1)
    left = multiply_classes(bundle, factors[:cut])
    right = multiply_classes(bundle, factors[cut:])
    terms = [
        (i1 + i2, j1 + j2, c1 * c2)
        for i1, j1, c1 in ((left.degree, 0, left.h), (left.degree - 1, 1, left.hf))
        for i2, j2, c2 in ((right.degree, 0, right.h), (right.degree - 1, 1, right.hf))
    ]
    flat = multiply_classes(bundle, factors)
    combined = naive_reduce(bundle.rank, bundle.c1, terms)
    assert (flat.h, flat.hf) == oracle_pair(combined, len(factors))


def term_list_product(rank, c1, factors):
    """Reference expansion: one (i, j, c) term per monomial path, 2^k terms for k factors."""
    terms = [(0, 0, 1)]
    for h, f in factors:
        terms = [t for (i, j, c) in terms for t in ((i + 1, j, c * h), (i, j + 1, c * f))]
    return naive_reduce(rank, c1, terms)


@given(
    st.integers(2, 8),
    st.integers(-6, 6),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=7),
)
def test_naive_product_matches_term_list_expansion(rank, c1, factors):
    assert naive_product(rank, c1, factors) == term_list_product(rank, c1, factors)


@given(
    st.integers(2, 8),
    st.integers(-6, 6),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(-2, 2)), max_size=12),
)
def test_naive_reduce_keeps_only_nonzero_coefficients(rank, c1, terms):
    # terms may come as any iterable, and a bucket that cancels is dropped
    reduced = naive_reduce(rank, c1, iter(terms))
    assert reduced == naive_reduce(rank, c1, terms)
    assert 0 not in reduced.values()
    assert naive_reduce(rank, c1, [*terms, (0, 0, 1), (0, 0, -1)]) == reduced


@given(
    st.integers(2, 8),
    st.integers(-6, 6),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=7),
)
def test_naive_product_continues_an_earlier_expansion(rank, c1, factors):
    whole = naive_product(rank, c1, factors)
    for cut in range(len(factors) + 1):
        assert naive_product(rank, c1, factors[cut:], naive_expand(factors[:cut])) == whole


@given(
    st.integers(2, 8),
    st.integers(-6, 6),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=7),
    st.integers(-5, 5).filter(bool),
    st.integers(-5, 5).filter(bool),
)
def test_naive_product_is_linear_in_its_leading_factor(rank, c1, factors, h, f):
    # the self-test reads its oracle adjoint number as h*X_H + f*X_F
    start = naive_expand(factors)
    x_h = naive_product(rank, c1, [(1, 0)], start).get((rank - 1, 1), 0)
    x_f = naive_product(rank, c1, [(0, 1)], start).get((rank - 1, 1), 0)
    assert naive_product(rank, c1, [(h, f)], start).get((rank - 1, 1), 0) == h * x_h + f * x_f
    # and so is every coefficient of the reduced product, not only the top one
    whole = naive_product(rank, c1, [(h, f)], start)
    by_h = naive_product(rank, c1, [(1, 0)], start)
    by_f = naive_product(rank, c1, [(0, 1)], start)
    for key in whole.keys() | by_h.keys() | by_f.keys():
        assert whole.get(key, 0) == h * by_h.get(key, 0) + f * by_f.get(key, 0)


def test_ring_matches_oracle_on_self_test_products_with_an_h_part():
    # the self-test's product shape [DivisorClass(h, f), *H^(rank-2), DivisorClass(2, b)];
    # its grid's adjoint factor has h = 0, so a nonzero H part is compared here
    for rank in range(3, 8):
        for c1 in range(-6, 7):
            bundle = ProjBundleModel(BaseCurve(0), rank, c1)
            for b in range(-6, 7):
                tail = [(1, 0)] * (rank - 2) + [(2, b)]
                ring_tail = [DivisorClass(h, f) for h, f in tail]
                start = naive_expand(tail)
                for h in (-2, -1, 1, 2):
                    for f in range(-2, 3):
                        product = multiply_classes(bundle, [DivisorClass(h, f), *ring_tail])
                        oracle = naive_product(rank, c1, [(h, f)], start).get((rank - 1, 1), 0)
                        assert top_degree(bundle, product) == oracle, (rank, c1, b, h, f)


def self_test_routes(rank, g_c, c1, b):
    """The closed forms' (d, 2g - 2, s), then the ring's and the oracle's degree and adjoint number."""
    bundle = ProjBundleModel(BaseCurve(g_c), rank, c1)
    d, g, s = quadric_invariants(bundle, b)
    k_h, k_f = canonical_class(bundle)
    tail = [(1, 0)] * (rank - 2) + [(2, b)]
    # the degree H·tail and the adjoint number (K + (2H + bF) + (rank-2)·H)·tail
    firsts = ((1, 0), (k_h + rank, k_f + b))
    ring = [
        top_degree(bundle, multiply_classes(bundle, [DivisorClass(*f) for f in (first, *tail)]))
        for first in firsts
    ]
    oracle = [naive_product(rank, c1, [first, *tail]).get((rank - 1, 1), 0) for first in firsts]
    return d, 2 * g - 2, s, *ring, *oracle


def test_self_test_routes_agree_at_rank_8():
    # oracle_selftest's rank argument, pinned at a rank outside its grid's 3..7:
    # extra factors H leave the ring's fold as it is and shift the oracle's exponents
    mismatches = 0
    for g_c, c1, b in product(range(3), range(-6, 7), range(-6, 7)):
        d, g2, _, ring_d, ring_g2, oracle_d, oracle_g2 = self_test_routes(8, g_c, c1, b)
        mismatches += not (d == ring_d == oracle_d and g2 == ring_g2 == oracle_g2)
    assert mismatches == 0


def test_self_test_grid_routes_are_multi_affine():
    # oracle_selftest's proof argument: at every rank on its grid, each compared
    # quantity has zero second differences in g(C), in c1 and in b
    values = {}
    for rank, g_c, c1, b in product(range(3, 8), range(3), range(-6, 7), range(-6, 7)):
        values[rank, g_c, c1, b] = self_test_routes(rank, g_c, c1, b)
    differences = 0
    for (rank, *point), v0 in values.items():
        for axis in range(3):
            shifted = [tuple(p + k * (i == axis) for i, p in enumerate(point)) for k in (1, 2)]
            if (rank, *shifted[1]) in values:
                v1, v2 = (values[(rank, *p)] for p in shifted)
                assert [z - 2 * y + x for x, y, z in zip(v0, v1, v2)] == [0] * 7, (rank, point, axis)
                differences += 1
    assert differences == 5135


def _code_names(code):
    """Global and attribute names a code object uses, nested comprehensions included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def test_naive_oracle_names_nothing_from_the_ring():
    # the oracle stays independent of the code it checks: no call into chowcurve
    ring = {"multiply_classes", "top_degree", "ChowElement", "DivisorClass", "ProjBundleModel"}
    ring |= {
        name
        for name, obj in vars(chowcurve).items()
        if getattr(obj, "__module__", None) == chowcurve.__name__
    }
    for fn in (naive_expand, naive_reduce, naive_terms, naive_top_degree):
        assert ring.isdisjoint(_code_names(fn.__code__)), fn.__name__


@given(
    st.integers(0, 2),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(3, 7),
)
def test_quadric_closed_forms_match_ring(g_c, e, b, rank):
    bundle = ProjBundleModel(BaseCurve(g_c), rank, e)
    closed = quadric_invariants(bundle, b)
    member = [(2, b)]
    assert closed.d == naive_product(rank, e, [(1, 0)] * (rank - 1) + member).get((rank - 1, 1), 0)
    adjoint = (-rank + 2 + rank - 2, 2 * g_c - 2 + e + b)
    assert 2 * closed.g - 2 == naive_product(
        rank, e, [adjoint] + [(1, 0)] * (rank - 2) + member
    ).get((rank - 1, 1), 0)


@given(st.integers(0, 1), st.integers(3, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_corrected_relation_at_genus_three(g_c, n, e, b):
    bundle = ProjBundleModel(BaseCurve(g_c), n + 1, e)
    inv = quadric_invariants(bundle, b)
    if inv.g == 3:
        assert (n - 1) * inv.d + inv.s + 4 * n * g_c == 8 * n


def test_corrected_relation_is_an_identity():
    # (n-1)d + s + 4n g(C) - 8n = 2n (g - 3) everywhere, so the relation holds wherever g = 3
    for rank in range(4, 8):
        n = rank - 1
        for g_c in range(6):
            for e in range(-6, 7):
                bundle = ProjBundleModel(BaseCurve(g_c), rank, e)
                for b in range(-6, 7):
                    d, g, s = quadric_invariants(bundle, b)
                    lhs = (n - 1) * d + s + 4 * n * g_c - 8 * n
                    assert lhs == 2 * n * (g - 3), (rank, g_c, e, b)


@given(splittings, st.integers(-5, 5), st.integers(-2, 2))
def test_h0_sym2_twist_monotone(splitting, t, bump):
    base = h0_sym2_twist(splitting, t)
    assert h0_sym2_twist(splitting, t + 1) >= base
    index = len(splitting) - 1
    raised = SplittingType(splitting[:index] + (splitting[index] + abs(bump),))
    assert h0_sym2_twist(raised, t) >= base


@given(splittings, st.integers(-4, 4))
def test_truncation_number_matches_ring(splitting, b):
    # the first applicable violated k, by the ring product at every k
    n = len(splitting) - 1
    bundle = ProjBundleModel(BaseCurve(0), len(splitting), splitting.c1)
    ring = {}
    for k in range(2, n + 1):
        if splitting[0] <= 0 and (k == 2 or n >= k + 1):
            factors = (
                [DivisorClass(1, 0)] * (n - k)
                + [DivisorClass(2, b)]
                + [DivisorClass(1, -e) for e in splitting[-k:]]
            )
            ring[k] = top_degree(bundle, multiply_classes(bundle, factors))
    violation = truncation_positivity(splitting, b)
    if violation is None:
        assert all(number > 0 for number in ring.values())
    else:
        k, number = violation
        assert ring[k] == number <= 0
        assert all(ring[j] > 0 for j in ring if j < k)


ruled_instances = st.tuples(
    st.integers(0, 2),  # base genus
    st.integers(-3, 3),  # e
    st.integers(-6, 6),  # x
    st.integers(-6, 6),  # y
    st.lists(st.integers(1, 5), max_size=5),  # weights
)


@settings(max_examples=200)
@given(ruled_instances)
def test_minimalization_matches_lattice_route(instance):
    genus, e, x, y, weight_list = instance
    weights = WeightSequence(tuple(weight_list))
    lattice = make_ruled(RuledModel(genus, e)).with_polarization((x, y))
    aa_min = pair(lattice, lattice.A, lattice.A)
    ka_min = pair(lattice, lattice.K, lattice.A)
    kk_min = pair(lattice, lattice.K, lattice.K)
    closed = minimalization_invariants(
        sectional_genus_surface(ka_min, aa_min), aa_min, kk_min, weights
    )
    blown = blow_up(lattice, weights)
    assert pair(blown, blown.A, blown.A) == closed.AA
    assert pair(blown, blown.K, blown.K) == closed.KK
    assert (
        sectional_genus_surface(
            pair(blown, blown.K, blown.A), pair(blown, blown.A, blown.A)
        )
        == closed.g
    )


@given(st.integers(1, 7))
def test_genus_drop_of_single_contraction(m):
    result = minimalization_invariants(0, 0, 0, WeightSequence((m,)))
    assert -result.g == m * (m - 1) // 2
    assert -result.AA == m * m


@given(
    st.integers(0, 2),
    st.integers(-3, 3),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
)
def test_blow_up_preserves_pullback_pairing(genus, e, weight_list, d1, d2):
    lattice = make_ruled(RuledModel(genus, e)).with_polarization((1, 1))
    blown = blow_up(lattice, WeightSequence(tuple(weight_list)))
    pad = (0,) * len(weight_list)
    assert pair(blown, d1 + pad, d2 + pad) == pair(lattice, d1, d2)


FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis' report of a failure may import libcst, whose mypy_extensions
    # import warns inside a pytest hook; the project's warning filters must let
    # the run go on to the next test instead of stopping with INTERNALERROR
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "test_two.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
