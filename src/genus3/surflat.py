"""Integer intersection lattices for polarized surfaces.

Covers the surfaces that occur as bases of genus-three scrolls: the plane,
geometrically ruled surfaces with the tautological convention H^2 = e, and
blow-up chains with their weight-sequence arithmetic.  Verification of the
genus-three surface table is recomputation-based and report-shaped, never
assert-crashing, so a convention mismatch in one row cannot hide another.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence

from .chowcurve import require_ints


class RuledModel(namedtuple("RuledModel", "base_genus e")):
    """P^1-bundle over a curve of genus ``base_genus`` with c1(F) = e."""

    __slots__ = ()
    base_genus: int
    e: int


class WeightSequence(namedtuple("WeightSequence", "weights")):
    """Weights (m_r, ..., m_1) of a chain of (-1)-curve contractions."""

    __slots__ = ()
    weights: tuple[int, ...]
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, weights: Sequence[int]) -> WeightSequence:
        weights = tuple(weights)
        require_ints("weights", weights)
        if any(m < 1 for m in weights):
            raise ValueError(f"weights must be >= 1, got {weights}")
        return super().__new__(cls, weights)

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def genus_drop(self) -> int:
        return sum(m * (m - 1) // 2 for m in self.weights)

    @property
    def square_sum(self) -> int:
        return sum(m * m for m in self.weights)


class SurfaceLattice(namedtuple("SurfaceLattice", "labels gram K A")):
    """Basis, Gram matrix, canonical class and (optional) polarization.

    Every field is stored as a tuple (the Gram matrix as a tuple of tuple
    rows), whatever sequences it is given, so a lattice is immutable and
    hashable.
    """

    __slots__ = ()
    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    K: tuple[int, ...]
    A: tuple[int, ...] | None
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, labels, gram, K, A=None) -> SurfaceLattice:
        if isinstance(labels, str):  # tuple() would split it into one-letter labels
            raise ValueError(f"basis labels must be a sequence of str, got the str {labels!r}")
        labels, gram, K = tuple(labels), tuple(map(tuple, gram)), tuple(K)
        A = None if A is None else tuple(A)
        if not all(isinstance(label, str) for label in labels):
            bad = next(label for label in labels if not isinstance(label, str))
            raise ValueError(f"basis labels must be of type str, got {bad!r}")
        n = len(labels)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise ValueError("Gram matrix shape must match the basis")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix must be symmetric")
        if len(K) != n:
            raise ValueError("canonical vector length must match the basis")
        require_ints("Gram entries", [entry for row in gram for entry in row])
        require_ints("canonical entries", K)
        if A is not None:
            if len(A) != n:
                raise ValueError("polarization vector length must match the basis")
            require_ints("polarization entries", A)
        return super().__new__(cls, labels, gram, K, A)

    def with_polarization(self, A: Sequence[int]) -> SurfaceLattice:
        return SurfaceLattice(self.labels, self.gram, self.K, tuple(A))


def pair(lattice: SurfaceLattice, D1: Sequence[int], D2: Sequence[int]) -> int:
    """Bilinear pairing D1^T . gram . D2."""
    n = len(lattice.labels)
    if len(D1) != n or len(D2) != n:
        raise ValueError(f"vectors must have length {n}, got {len(D1)} and {len(D2)}")
    return sum(D1[i] * lattice.gram[i][j] * D2[j] for i in range(n) for j in range(n))


def make_ruled(model: RuledModel) -> SurfaceLattice:
    """Lattice of a ruled surface: basis {H, f}, H^2 = e, H.f = 1, f^2 = 0.

    K = -2H + (2*base_genus - 2 + e)*f.  The polarization slot is left for
    the caller.  The sign convention H^2 = +e is the one under which the
    minimal-model rows of the genus-three surface table recompute (the
    opposite sign already fails on the first Hirzebruch row with e = 1).
    """
    return SurfaceLattice(
        labels=("H", "f"),
        gram=((model.e, 1), (1, 0)),
        K=(-2, 2 * model.base_genus - 2 + model.e),
    )


def make_plane() -> SurfaceLattice:
    """Lattice of the projective plane: basis {h}, h^2 = 1, K = -3h."""
    return SurfaceLattice(labels=("h",), gram=((1,),), K=(-3,))


def blow_up(lattice: SurfaceLattice, weights: WeightSequence) -> SurfaceLattice:
    """Blow up one point per weight, pulling back K and A.

    The basis gains exceptional classes E_i with E_i^2 = -1, orthogonal to
    everything else; K gains +sum(E_i) and A loses sum(m_i * E_i).
    """
    if lattice.A is None:
        raise ValueError("set the polarization A before blowing up")
    r = len(weights)
    n = len(lattice.labels)
    labels = lattice.labels + tuple(f"E{i + 1}" for i in range(r))
    gram = [row + (0,) * r for row in lattice.gram]
    gram += [(0,) * (n + i) + (-1,) + (0,) * (r - 1 - i) for i in range(r)]
    return SurfaceLattice(
        labels=labels,
        gram=gram,
        K=lattice.K + (1,) * r,
        A=lattice.A + tuple(-m for m in weights.weights),
    )


def sectional_genus_surface(KA: int, AA: int) -> int:
    """g = (K.A + A^2)/2 + 1; raises on parity violation."""
    if (KA + AA) % 2 != 0:
        raise ValueError(f"KA + AA = {KA + AA} must be even")
    return (KA + AA) // 2 + 1


class MinimalizationResult(namedtuple("MinimalizationResult", "g AA KK genus_drop")):
    """Sectional genus, A^2 and K^2 of (S, A), and the genus lost to the blow-ups."""

    __slots__ = ()
    g: int
    AA: int
    KK: int
    genus_drop: int


def minimalization_invariants(
    g_min: int, AA_min: int, KK_min: int, weights: WeightSequence
) -> MinimalizationResult:
    """Invariants of (S, A) from its minimalization and weight sequence.

    Closed forms of the blow-up arithmetic:
        g = g' - sum m(m-1)/2,   A^2 = A'^2 - sum m^2,   K^2 = K'^2 - r.
    Must agree with blow_up + pair + sectional_genus_surface on every
    lattice-backed instance; the property tests enforce that.
    """
    drop = weights.genus_drop
    return MinimalizationResult(
        g=g_min - drop,
        AA=AA_min - weights.square_sum,
        KK=KK_min - len(weights),
        genus_drop=drop,
    )


class DegTRow(namedtuple("DegTRow", "degT degG c2 L3")):
    """One row of the quotient-degree bookkeeping: degT, degG = 1 - degT, c2 and L^3."""

    __slots__ = ()
    degT: int
    degG: int
    c2: int
    L3: int


def deg_t_enumeration() -> tuple[DegTRow, ...]:
    """Quotient-degree bookkeeping for the rank-2 case over an elliptic ruled base.

    An ample quotient forces degT > 0, the determinant constraint gives
    degG = 1 - degT, the Chern computation c2 = 1 + degT, and
    L^3 = 6 - c2 >= 1 caps degT at 4; exactly four rows survive.
    """
    rows = []
    deg_t = 1
    while 6 - (1 + deg_t) >= 1:
        rows.append(DegTRow(degT=deg_t, degG=1 - deg_t, c2=1 + deg_t, L3=6 - (1 + deg_t)))
        deg_t += 1
    return tuple(rows)


class RowCheck(
    namedtuple("RowCheck", "status expected_AA recomputed_AA recomputed_g note", defaults=("",))
):
    """Recomputation verdict for one surface-table row."""

    __slots__ = ()
    status: str  # "verified" | "discrepancy"
    expected_AA: int
    recomputed_AA: int
    recomputed_g: int
    note: str


# The integer parameters each family of the surface table reads from a row.
FAMILY_FIELDS = {
    "I": (),
    "II": ("KA", "KK"),
    "III": ("KA",),
    "IV": ("A2_min",),
    "V": ("e", "x", "y"),
    "VI": ("degree",),
    "VII": ("e", "x", "y"),
    "VIII": ("KKj", "a"),
}


def _minimal_model_invariants(row: Mapping) -> tuple[int, int, int]:
    """(g', A'^2, K'^2) of the minimal model encoded by a fixture row."""
    family = row["family"]
    if family == "I":
        # K numerically equal to A: all three pairings equal A^2.
        aa = row["A2"]
        return sectional_genus_surface(aa, aa), aa, aa
    if family == "II":
        return sectional_genus_surface(row["KA"], row["A2"]), row["A2"], row["KK"]
    if family == "III":
        # minimal elliptic surface: K^2 = 0
        return sectional_genus_surface(row["KA"], row["A2"]), row["A2"], 0
    if family == "IV":
        # K' numerically trivial
        return sectional_genus_surface(0, row["A2_min"]), row["A2_min"], 0
    if family in ("V", "VII"):
        base_genus = 1 if family == "V" else 0
        lattice = make_ruled(RuledModel(base_genus=base_genus, e=row["e"]))
        a_prime = (row["x"], row["y"])
        aa = pair(lattice, a_prime, a_prime)
        ka = pair(lattice, lattice.K, a_prime)
        kk = pair(lattice, lattice.K, lattice.K)
        return sectional_genus_surface(ka, aa), aa, kk
    if family == "VI":
        lattice = make_plane()
        a = (row["degree"],)
        aa = pair(lattice, a, a)
        ka = pair(lattice, lattice.K, a)
        return sectional_genus_surface(ka, aa), aa, 9
    if family == "VIII":
        # Del Pezzo stage j with A_j = -a * K_j
        kkj, a = row["KKj"], row["a"]
        aa = a * a * kkj
        ka = -a * kkj
        return sectional_genus_surface(ka, aa), aa, kkj
    raise ValueError(f"unknown family {family!r}")


def verify_row_2_3(row: Mapping) -> RowCheck:
    """Recompute (A^2, g) for a surface-table row and compare.

    The row is a mapping with a family tag I..VIII, the expected ``A2``,
    optional blow-up ``weights`` and the family's ``FAMILY_FIELDS``.
    Malformed rows raise ValueError.
    """
    try:
        expected_aa = row["A2"]
        weights = WeightSequence(tuple(row.get("weights", ())))
        g_min, aa_min, kk_min = _minimal_model_invariants(row)
    except KeyError as exc:
        raise ValueError(f"surface-table row is missing field {exc}") from exc
    result = minimalization_invariants(g_min, aa_min, kk_min, weights)
    note = ""
    if (result.AA, result.g) != (expected_aa, 3):
        note = f"recomputed (A^2, g) = ({result.AA}, {result.g}), table says ({expected_aa}, 3)"
    return RowCheck(
        status="discrepancy" if note else "verified",
        expected_AA=expected_aa,
        recomputed_AA=result.AA,
        recomputed_g=result.g,
        note=note,
    )
