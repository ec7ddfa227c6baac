"""Exact intersection arithmetic on projectivized bundles over a smooth curve.

A rank-r bundle E on a curve C gives P = P(E), whose Chow ring is generated
by the tautological class H and the fibre class F (pullback of a point)
subject to

    F^2 = 0    and    H^r = c1(E) * H^(r-1) * F,

normalised so that the integral of H^(r-1)*F over P is 1, hence the
integral of H^r is c1(E).  Everything here is exact integer arithmetic in
that quotient ring, plus the h^0 counts and positivity / obstruction
numbers on split bundles over the projective line that the genus-three
classification engines consume.

Python integers never wrap, so products of classes are exact for any
coefficient size.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence


def require_ints(what: str, values: Sequence) -> None:
    """Reject any value whose type is not exactly int: no silent int() of a float, str or bool."""
    if {*map(type, values)} - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} must be of type int, got {bad!r}")


class BaseCurve(namedtuple("BaseCurve", "genus")):
    """A smooth projective curve, carried only through its genus."""

    __slots__ = ()
    genus: int
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, genus: int) -> BaseCurve:
        require_ints("curve genus", (genus,))
        if genus < 0:
            raise ValueError(f"curve genus must be non-negative, got {genus}")
        return super().__new__(cls, genus)


class SplittingType(tuple):
    """Sorted degree list (e_0 <= ... <= e_n) of a split bundle on P^1.

    A tuple of the degrees themselves, so ``len``, iteration and indexing
    read the degrees.
    """

    __slots__ = ()

    def __new__(cls, degrees: Iterable[int]) -> SplittingType:
        degrees = tuple(degrees)
        if len(degrees) < 2:
            raise ValueError("a splitting type needs at least two summands")
        require_ints("degrees", degrees)
        if sorted(degrees) != list(degrees):
            raise ValueError(f"degrees must be nondecreasing, got {degrees}")
        return super().__new__(cls, degrees)

    def __repr__(self) -> str:
        return f"SplittingType(degrees={self.degrees!r})"

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def c1(self) -> int:
        return sum(self)

    def drop(self, index: int) -> tuple[int, ...]:
        """Degrees of the corank-one subbundle omitting ``index``."""
        return self[:index] + self[index + 1 :]


class ProjBundleModel(namedtuple("ProjBundleModel", "base rank c1")):
    """Numerical model of P(E) for a bundle E on a curve.

    ``rank`` is the rank of E (so dim P(E) = rank and the fibre dimension
    is n = rank - 1), ``c1`` its first Chern number.  With the base genus,
    that is all the Chow ring reads.
    """

    __slots__ = ()
    base: BaseCurve
    rank: int
    c1: int
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, base: BaseCurve, rank: int, c1: int) -> ProjBundleModel:
        if not isinstance(base, BaseCurve):
            raise ValueError(f"base must be a BaseCurve, got {base!r}")
        require_ints("rank and c1", (rank, c1))
        if rank < 2:
            raise ValueError(f"rank must be at least 2, got {rank}")
        return super().__new__(cls, base, rank, c1)

    @classmethod
    def split(cls, degrees: Sequence[int]) -> ProjBundleModel:
        """Model of a split bundle over the projective line."""
        st = SplittingType(degrees)
        return cls(BaseCurve(0), len(st), st.c1)


class DivisorClass(namedtuple("DivisorClass", "h f")):
    """Integer class h*H + f*F on P(E).

    ``+``, ``-``, unary ``-`` and scalar ``*`` act on classes, not as tuple
    concatenation and repetition.
    """

    __slots__ = ()
    h: int
    f: int

    def __add__(self, other: DivisorClass) -> DivisorClass:
        return DivisorClass(self.h + other.h, self.f + other.f)

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        return DivisorClass(self.h - other.h, self.f - other.f)

    def __neg__(self) -> DivisorClass:
        return DivisorClass(-self.h, -self.f)

    def __mul__(self, k: int) -> DivisorClass:
        return DivisorClass(self.h * k, self.f * k)

    __rmul__ = __mul__


H = DivisorClass(1, 0)
F = DivisorClass(0, 1)


class ChowElement(namedtuple("ChowElement", "degree h hf")):
    """Class h*H^degree + hf*H^(degree-1)*F of a product of divisor classes.

    Every product of k divisor classes has this normal form: F^2 = 0
    leaves at most one factor F, and at k = rank the relation
    H^rank = c1*H^(rank-1)*F folds the pure power into the F-term, so
    there h is 0.  Above degree rank the class is zero.
    """

    __slots__ = ()
    degree: int
    h: int
    hf: int


def multiply_classes(bundle: ProjBundleModel, factors: Sequence[DivisorClass]) -> ChowElement:
    """Product of divisor classes in the Chow ring of P(E), in normal form.

    Multiplying a*H^k + b*H^(k-1)*F by h*H + f*F gives
    a*h*H^(k+1) + (a*f + b*h)*H^k*F, so the factors fold into one pair of
    coefficients; the relation is applied once, at the end.
    """
    if not factors:
        raise ValueError("factors must be non-empty")
    a, b = 1, 0
    for cls in factors:
        a, b = a * cls.h, a * cls.f + b * cls.h
    degree = len(factors)
    if degree < bundle.rank:
        return ChowElement(degree, a, b)
    if degree == bundle.rank:
        return ChowElement(degree, 0, a * bundle.c1 + b)
    return ChowElement(degree, 0, 0)


def top_degree(bundle: ProjBundleModel, element: ChowElement) -> int:
    """Integral over P(E) of a class of top degree (= rank).

    In normal form such a class is a multiple of H^(rank-1)*F, whose
    integral is its coefficient.  A nonzero class of another degree is
    rejected.
    """
    if element.degree != bundle.rank and (element.h or element.hf):
        raise ValueError(
            f"element is not homogeneous of degree {bundle.rank}: degree {element.degree}"
        )
    return element.hf


def canonical_class(bundle: ProjBundleModel) -> DivisorClass:
    """Canonical class of P(E): -rank*H + (2*g(C) - 2 + c1)*F.

    The relative-canonical shape is pinned down by the rank-3 identity
    K + 2*(2H + bF) = H exactly when c1 + 2b = 0, which the tests enforce.
    """
    return DivisorClass(-bundle.rank, 2 * bundle.base.genus - 2 + bundle.c1)


class QuadricInvariants(namedtuple("QuadricInvariants", "d g s")):
    """Degree, sectional genus and smoothness defect of a member of |2H + bF|."""

    __slots__ = ()
    d: int
    g: int
    s: int


def quadric_invariants(bundle: ProjBundleModel, b: int) -> QuadricInvariants:
    """Closed forms for M in |2H + bF| with L = H restricted to M.

        d = 2e + b,   2g - 2 = 2*(2 g(C) - 2 + e + b),   s = 2e + rank*b,

    with e = c1(E).  s >= 0 for an actual fibration, with equality exactly
    when every fibre is smooth; callers filter.
    """
    e = bundle.c1
    g_c = bundle.base.genus
    return QuadricInvariants(
        d=2 * e + b,
        g=2 * g_c - 2 + e + b + 1,
        s=2 * e + bundle.rank * b,
    )


def sectional_genus_divisor(
    bundle: ProjBundleModel, member: DivisorClass, polarization: DivisorClass
) -> int:
    """Sectional genus of a divisor M in |member| polarized by ``polarization``.

    Computed by adjunction inside P(E):
        2g - 2 = (K_P + M + (n-1)L) * L^(n-1) * M,  n = rank - 1.
    Raises when the adjoint number is odd (no genus interpretation).
    """
    n = bundle.rank - 1
    adjoint = canonical_class(bundle) + member + (n - 1) * polarization
    value = top_degree(
        bundle, multiply_classes(bundle, [adjoint] + [polarization] * (n - 1) + [member])
    )
    if value % 2 != 0:
        raise ValueError(f"odd adjoint number {value}: not of the form 2g - 2")
    return value // 2 + 1


class VeroneseInvariants(namedtuple("VeroneseInvariants", "d g")):
    """Degree and sectional genus of the polarization 2H + bF of a Veronese fibration."""

    __slots__ = ()
    d: int
    g: int


def veronese_invariants(bundle: ProjBundleModel, b: int) -> VeroneseInvariants:
    """Degree and genus of L = 2H + bF on a rank-3 bundle's projectivization.

    Both numbers come out of the ring: d = L^3, and the genus is that of a
    member of |L|, a surface with the same sectional curve, so
    ``sectional_genus_divisor(bundle, L, L)`` gives 2g - 2 = (K + 2L)*L^2.
    The closed forms d = 8e + 12b and 2g - 2 = d + 8*(g(C) - 1) are kept
    as an independent oracle in the tests.
    """
    if bundle.rank != 3:
        raise ValueError(f"rank must be 3 for a Veronese fibration model, got {bundle.rank}")
    polarization = DivisorClass(2, b)
    d = top_degree(bundle, multiply_classes(bundle, [polarization] * 3))
    return VeroneseInvariants(d=d, g=sectional_genus_divisor(bundle, polarization, polarization))


def h0_line_bundle_sum_P1(degrees: Iterable[int]) -> int:
    """h^0 on P^1 of a direct sum of line bundles of the given degrees."""
    return sum(max(0, a + 1) for a in degrees)


def _sym2_degrees(degrees: Sequence[int], t: int) -> list[int]:
    n = len(degrees)
    return [degrees[i] + degrees[j] + t for i in range(n) for j in range(i, n)]


def h0_sym2_twist(splitting: SplittingType, t: int) -> int:
    """h^0 on P^1 of Sym^2 of the split bundle twisted by O(t)."""
    return h0_line_bundle_sum_P1(_sym2_degrees(splitting.degrees, t))


class TruncationViolation(namedtuple("TruncationViolation", "k number")):
    """The first violated truncation codimension k and its non-positive number."""

    __slots__ = ()
    k: int
    number: int


def truncation_positivity(splitting: SplittingType, b: int) -> TruncationViolation | None:
    """First violated codimension-k coordinate truncation, or None.

    For M in |2H + bF| and the subvariety W cut out by the k largest
    coordinate summands, the ring gives

        H^(n-k) * (2H + bF) * prod(H - e_i F  for the k largest e_i)
            = d - 2*(sum of the k largest degrees),   d = 2*sum(e) + b.

    When e_0 <= 0 the locus W avoids M, so the number must be positive as
    soon as dim(M cap W) = n - k is forced positive; that needs n >= 2 for
    k = 2 and n >= k + 1 for k >= 3 (at n = k the intersection may be
    empty, so nothing is asserted).  One pass over k = 2, 3, ... keeps
    the top-k sum running and returns the first applicable k whose
    number is <= 0, with that number.
    """
    n = len(splitting) - 1
    if splitting[0] > 0:
        return None
    d = 2 * sum(splitting) + b
    top = splitting[n]
    k_max = n - 1 if n >= 3 else n  # k = n applies only as k = 2; n = 1 has none
    for k in range(2, k_max + 1):
        top += splitting[n + 1 - k]
        number = d - 2 * top
        if number <= 0:
            return TruncationViolation(k, number)
    return None


def base_locus_index_set(splitting: SplittingType, b: int) -> tuple[int, ...]:
    """Indices of coordinate summands inside the base locus of |2H + bF|.

    A section of |2H + bF| is a b-twisted quadric in the fibre coordinates;
    the monomial sigma_i * sigma_j occurs only when e_i + e_j + b >= 0.
    The base locus therefore contains the coordinate subbundle P(E_J) for
    the largest lower set J with e_i + e_j + b < 0 on all pairs from J,
    i.e. J = {i : 2 e_i + b < 0} by sortedness.  Empty J means the system
    is free of coordinate-subbundle base components.
    """
    return tuple(i for i, a in enumerate(splitting.degrees) if 2 * a + b < 0)


def corank1_emptiness(splitting: SplittingType, b: int) -> int | None:
    """Non-existence via an empty restricted system on a corank-one locus.

    Removing one summand gives a divisor W = P(E_I) not contained in a
    member M of |2H + bF|, so M cap W must be effective in |2H_W + bF|.
    If h^0 of that restricted system vanishes for some removed index the
    candidate cannot exist.  Returns the first such index (the witness),
    or None when every restriction has sections.
    """
    for i in range(len(splitting)):
        if h0_line_bundle_sum_P1(_sym2_degrees(splitting.drop(i), b)) == 0:
            return i
    return None


class NormalObstructionDetail(
    namedtuple("NormalObstructionDetail", "index_set p q c h0_p h0_q pairing self_p self_q branch")
):
    """The numbers behind ``normal_obstruction``'s verdict; ``branch`` names the case."""

    __slots__ = ()
    index_set: tuple[int, ...]
    p: int
    q: int
    c: int
    h0_p: int
    h0_q: int
    pairing: int
    self_p: int
    self_q: int
    branch: str


def normal_obstruction(splitting: SplittingType, b: int) -> NormalObstructionDetail | None:
    """Non-existence via the normal-bundle sequence along a surface base locus.

    Defined for rank 4 only.  Returns None unless the base locus of
    |2H + bF| is the surface B = P(E_J) with |J| = 2.  Writing e_a, e_b
    for the two complementary degrees, p = b + e_a, q = b + e_b and
    c = c1(E_J), a smooth member would split the normal sequence of B
    through two sections, of classes H + pF and H + qF on B.  The
    candidate is excluded, and the detail's ``branch`` names the case, when

      * one class has no sections while the other has nonzero
        self-intersection (c + 2p resp. c + 2q), so the surviving section
        must vanish somewhere ("vanishing-section"); or
      * both classes have sections but the pairing c + p + q >= 1 forces a
        common zero ("pairing").

    Otherwise ``branch`` is "none".
    """
    degrees = splitting.degrees
    if len(degrees) != 4:
        raise ValueError("the normal-bundle obstruction is specific to rank-4 splittings")
    index_set = base_locus_index_set(splitting, b)
    if len(index_set) != 2:
        return None
    complement = [i for i in range(4) if i not in index_set]
    e_a, e_b = degrees[complement[0]], degrees[complement[1]]
    p, q = b + e_a, b + e_b
    c = sum(degrees[j] for j in index_set)
    h0_p = h0_line_bundle_sum_P1([degrees[j] + p for j in index_set])
    h0_q = h0_line_bundle_sum_P1([degrees[j] + q for j in index_set])
    pairing = c + p + q
    self_p, self_q = c + 2 * p, c + 2 * q

    if (h0_p == 0 and self_q != 0) or (h0_q == 0 and self_p != 0):
        branch = "vanishing-section"
    elif h0_p > 0 and h0_q > 0 and pairing >= 1:
        branch = "pairing"
    else:
        branch = "none"
    return NormalObstructionDetail(index_set, p, q, c, h0_p, h0_q, pairing, self_p, self_q, branch)
