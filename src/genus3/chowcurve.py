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

from collections import _tuplegetter
from collections.abc import Iterable, Sequence


def require_ints(what: str, values: Sequence) -> None:
    """Reject any value whose type is not exactly int: no silent int() of a float, str or bool."""
    if {*map(type, values)} - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} must be of type int, got {bad!r}")


_PRINTED_DIGITS = 50  # below the least digit limit an interpreter can set, 640


def int_text(value: int) -> str:
    """``str(value)`` up to ``_PRINTED_DIGITS`` digits; past that, only how many it has.

    An error message that names a value prints it with this, so its length is
    bounded, and an int past the interpreter's digit limit never reaches ``str``.
    """
    size = abs(value)
    if size < 10**_PRINTED_DIGITS:
        return str(value)
    # a lower bound on the digit count, as 0.30102 < log10(2); then count up exactly
    digits = (size.bit_length() - 1) * 30102 // 100000 + 1
    while size >= 10**digits:
        digits += 1
    return f"an integer of {digits} digits"


_tuple_new = tuple.__new__  # a module global: one lookup fewer on every record built


class Record(tuple):
    """Base of genus3's records: named tuples without ``collections``' per-class ``eval``.

    A subclass's fields are its own annotations, in order; a value given to
    a field in the class body is that field's default.  Each field reads
    through the stdlib named tuple's index accessor, and a record builds,
    compares, hashes, copies, pickles and reprs as that named tuple does.
    ``_make`` and ``_replace`` build through ``cls(...)``, so a subclass
    that validates in its own ``__new__`` validates on every path.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__annotations__)
        defaults = {}
        for index, name in enumerate(fields):
            if name in vars(cls):
                defaults[name] = vars(cls)[name]
            elif defaults:
                raise TypeError(f"{cls.__name__}: field {name!r} has no default but follows one")
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = defaults
        # for keyword-only calls: every field in order, with its default or None
        cls._keyword_fill = dict.fromkeys(fields) | defaults
        cls._required_fields = frozenset(fields) - defaults.keys()

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = _arguments(cls, args, kwargs)
        return _tuple_new(cls, args)

    @classmethod
    def _make(cls, iterable: Iterable) -> Record:
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)

    def _replace(self, /, **kwargs) -> Record:
        record = self._make(map(kwargs.pop, self._fields, self))
        if kwargs:
            raise ValueError(f"Got unexpected field names: {list(kwargs)!r}")
        return record

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


def _arguments(cls: type[Record], args: tuple, kwargs: dict) -> tuple | list:
    """The field values of ``cls(*args, **kwargs)``, or the named tuple's ``TypeError``.

    A keyword-only call that names every required field and no unknown
    one fills ``_keyword_fill`` in C: the fill keeps the fields' order,
    and an unknown name would grow it past them.  Every other call binds
    field by field, which also finds the error to raise.
    """
    if not args and kwargs.keys() >= cls._required_fields:
        filled = cls._keyword_fill | kwargs
        if len(filled) == len(cls._fields):
            return tuple(filled.values())
    fields = cls._fields
    rest, given = fields[len(args):], cls._field_defaults | kwargs
    if len(args) > len(fields):
        raise TypeError(
            f"{cls.__name__}() takes {len(fields)} positional arguments but {len(args)} were given"
        )
    for name in kwargs:
        if name not in rest:
            wrong = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {wrong} argument {name!r}")
    for name in rest:
        if name not in given:
            raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
    return [*args, *map(given.get, rest)]


class BaseCurve(Record):
    """A smooth projective curve, carried only through its genus."""

    __slots__ = ()
    genus: int

    def __new__(cls, genus: int) -> BaseCurve:
        require_ints("curve genus", (genus,))
        if genus < 0:
            raise ValueError(f"curve genus must be non-negative, got {genus}")
        return tuple.__new__(cls, (genus,))


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
        return f"SplittingType(degrees={tuple(self)!r})"

    @property
    def c1(self) -> int:
        return sum(self)


class ProjBundleModel(Record):
    """Numerical model of P(E) for a bundle E on a curve.

    ``rank`` is the rank of E (so dim P(E) = rank and the fibre dimension
    is n = rank - 1), ``c1`` its first Chern number.  With the base genus,
    that is all the Chow ring reads.
    """

    __slots__ = ()
    base: BaseCurve
    rank: int
    c1: int

    def __new__(cls, base: BaseCurve, rank: int, c1: int) -> ProjBundleModel:
        if not isinstance(base, BaseCurve):
            raise ValueError(f"base must be a BaseCurve, got {base!r}")
        require_ints("rank and c1", (rank, c1))
        if rank < 2:
            raise ValueError(f"rank must be at least 2, got {rank}")
        return tuple.__new__(cls, (base, rank, c1))

    @classmethod
    def split(cls, degrees: Sequence[int]) -> ProjBundleModel:
        """Model of a split bundle over the projective line."""
        st = SplittingType(degrees)
        return cls(BaseCurve(0), len(st), st.c1)


class DivisorClass(Record):
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


class ChowElement(Record):
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
    a*h*H^(k+1) + (a*f + b*h)*H^k*F, so the factors, each read as a pair
    (h, f), fold into one pair of coefficients; the relation is applied
    once, at the end.

    It does not type-check its factors: it is the ring's inner product, and
    its public callers (``sectional_genus_divisor``, ``veronese_invariants``)
    check theirs.  The element is built in C by ``tuple.__new__``, with no
    Python-level ``__new__`` frame; ``ChowElement`` validates nothing.
    """
    if not factors:
        raise ValueError("factors must be non-empty")
    a, b = 1, 0
    for h, f in factors:
        a, b = a * h, a * f + b * h
    degree = len(factors)
    if degree < bundle.rank:
        return tuple.__new__(ChowElement, (degree, a, b))
    if degree == bundle.rank:
        return tuple.__new__(ChowElement, (degree, 0, a * bundle.c1 + b))
    return tuple.__new__(ChowElement, (degree, 0, 0))


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
    return tuple.__new__(DivisorClass, (-bundle.rank, 2 * bundle.base.genus - 2 + bundle.c1))


class QuadricInvariants(Record):
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
    if type(b) is not int:
        require_ints("twist b", (b,))
    e = bundle.c1
    fields = (2 * e + b, 2 * bundle.base.genus - 1 + e + b, 2 * e + bundle.rank * b)
    # built in C, as classify's Candidate: QuadricInvariants has no checks to run
    return tuple.__new__(QuadricInvariants, fields)


def sectional_genus_divisor(
    bundle: ProjBundleModel, member: DivisorClass, polarization: DivisorClass
) -> int:
    """Sectional genus of a divisor M in |member| polarized by ``polarization``.

    Computed by adjunction inside P(E):
        2g - 2 = (K_P + M + (n-1)L) * L^(n-1) * M,  n = rank - 1.
    ``member`` and ``polarization`` are (h, f) pairs, a ``DivisorClass`` or
    a plain tuple; a coefficient whose type is not exactly int is rejected.
    Raises when the adjoint number is odd (no genus interpretation).
    """
    n = bundle.rank - 1
    k_h, k_f = canonical_class(bundle)
    (m_h, m_f), (l_h, l_f) = member, polarization
    if not type(m_h) is type(m_f) is type(l_h) is type(l_f) is int:
        require_ints("member and polarization coefficients", (m_h, m_f, l_h, l_f))
    adjoint = (k_h + m_h + (n - 1) * l_h, k_f + m_f + (n - 1) * l_f)
    factors = [adjoint, *[polarization] * (n - 1), member]
    value = top_degree(bundle, multiply_classes(bundle, factors))
    if value % 2 != 0:
        raise ValueError(f"odd adjoint number {value}: not of the form 2g - 2")
    return value // 2 + 1


class VeroneseInvariants(Record):
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
    if type(b) is not int:
        require_ints("twist b", (b,))
    polarization = (2, b)
    d = top_degree(bundle, multiply_classes(bundle, [polarization] * 3))
    g = sectional_genus_divisor(bundle, polarization, polarization)
    return tuple.__new__(VeroneseInvariants, (d, g))


def h0_line_bundle_sum_P1(degrees: Iterable[int]) -> int:
    """h^0 on P^1 of a direct sum of line bundles of the given degrees."""
    return sum(max(0, a + 1) for a in degrees)


def _sym2_degrees(degrees: Sequence[int], t: int) -> list[int]:
    n = len(degrees)
    return [degrees[i] + degrees[j] + t for i in range(n) for j in range(i, n)]


def h0_sym2_twist(degrees: Sequence[int], t: int) -> int:
    """h^0 on P^1 of Sym^2 of the split bundle twisted by O(t).

    The brute-force count, one term per pair of summands: the tests'
    ``corank1_reference`` runs ``corank1_emptiness``'s every-index loop on it.
    """
    return h0_line_bundle_sum_P1(_sym2_degrees(degrees, t))


class TruncationViolation(Record):
    """The first violated truncation codimension k and its non-positive number."""

    __slots__ = ()
    k: int
    number: int


def truncation_positivity(splitting: Sequence[int], b: int) -> TruncationViolation | None:
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
            return tuple.__new__(TruncationViolation, (k, number))
    return None


def base_locus_index_set(splitting: Sequence[int], b: int) -> tuple[int, ...]:
    """Indices of coordinate summands inside the base locus of |2H + bF|.

    A section of |2H + bF| is a b-twisted quadric in the fibre coordinates;
    the monomial sigma_i * sigma_j occurs only when e_i + e_j + b >= 0.
    The base locus therefore contains the coordinate subbundle P(E_J) for
    the largest lower set J with e_i + e_j + b < 0 on all pairs from J,
    i.e. J = {i : 2 e_i + b < 0} by sortedness.  Empty J means the system
    is free of coordinate-subbundle base components.
    """
    return tuple(i for i, a in enumerate(splitting) if 2 * a + b < 0)


def corank1_emptiness(splitting: Sequence[int], b: int) -> int | None:
    """Non-existence via an empty restricted system on a corank-one locus.

    Removing one summand gives a divisor W = P(E_I) not contained in a
    member M of |2H + bF|, so M cap W must be effective in |2H_W + bF|.
    If h^0 of that restricted system vanishes for some removed index the
    candidate cannot exist.  Returns the first such index (the witness),
    or None when every restriction has sections.

    h^0(Sym^2(E_I)(b)) sums max(0, e_i + e_j + b + 1) over pairs from I, so
    it vanishes exactly when 2*max(E_I) + b < 0, and when I is empty.  On a
    sorted splitting e_0 <= ... <= e_n, removing any index below n leaves
    e_n as the maximum, so index 0 is the witness when 2*e_n + b < 0, or
    when n = 0.  Otherwise only removing e_n leaves a smaller maximum,
    e_(n-1): n is the witness when 2*e_(n-1) + b < 0, which then forces
    e_(n-1) < e_n.
    """
    if len(splitting) < 2:
        return 0 if splitting else None
    if 2 * splitting[-1] + b < 0:
        return 0
    if 2 * splitting[-2] + b < 0:
        return len(splitting) - 1
    return None


class NormalObstructionDetail(Record):
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


def normal_obstruction(degrees: Sequence[int], b: int) -> NormalObstructionDetail | None:
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
    if len(degrees) != 4:
        raise ValueError("the normal-bundle obstruction is specific to rank-4 splittings")
    index_set = base_locus_index_set(degrees, b)
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
