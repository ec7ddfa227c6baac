"""Integer intersection lattices for polarized surfaces.

Covers the surfaces that occur as bases of genus-three scrolls: the plane,
geometrically ruled surfaces with the tautological convention H^2 = e, and
blow-up chains with their weight-sequence arithmetic.  A genus-three
surface-table row is recomputed here, never judged: the verdict is the
caller's.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from .chowcurve import Record, int_text, require_ints


class RuledModel(Record):
    """P^1-bundle over a curve of genus ``base_genus`` with c1(F) = e."""

    base_genus: int
    e: int


class WeightSequence(Record):
    """Weights (m_r, ..., m_1) of a chain of (-1)-curve contractions."""

    weights: tuple[int, ...]

    def __new__(cls, weights: Sequence[int]) -> WeightSequence:
        weights = tuple(weights)
        require_ints("weights", weights)
        if any(m < 1 for m in weights):
            raise ValueError(f"weights must be >= 1, got {weights}")
        return tuple.__new__(cls, (weights,))

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def genus_drop(self) -> int:
        return sum(m * (m - 1) // 2 for m in self.weights)

    @property
    def square_sum(self) -> int:
        return sum(m * m for m in self.weights)


class SurfaceLattice(Record):
    """Gram matrix, canonical class and (optional) polarization.

    Every field is stored as a tuple (the Gram matrix as a tuple of tuple
    rows), whatever sequences it is given, so a lattice is immutable and
    hashable.
    """

    gram: tuple[tuple[int, ...], ...]
    K: tuple[int, ...]
    A: tuple[int, ...] | None

    def __new__(cls, gram, K, A=None) -> SurfaceLattice:
        gram, K = tuple(map(tuple, gram)), tuple(K)
        A = None if A is None else tuple(A)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("Gram matrix must be square")
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
        return tuple.__new__(cls, (gram, K, A))

    def with_polarization(self, A: Sequence[int]) -> SurfaceLattice:
        return SurfaceLattice(self.gram, self.K, tuple(A))


def pair(lattice: SurfaceLattice, D1: Sequence[int], D2: Sequence[int]) -> int:
    """Bilinear pairing D1^T . gram . D2."""
    n = len(lattice.gram)
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
        gram=((model.e, 1), (1, 0)),
        K=(-2, 2 * model.base_genus - 2 + model.e),
    )


def make_plane() -> SurfaceLattice:
    """Lattice of the projective plane: basis {h}, h^2 = 1, K = -3h."""
    return SurfaceLattice(gram=((1,),), K=(-3,))


def blow_up(lattice: SurfaceLattice, weights: WeightSequence) -> SurfaceLattice:
    """Blow up one point per weight, pulling back K and A.

    The basis gains exceptional classes E_i with E_i^2 = -1, orthogonal to
    everything else; K gains +sum(E_i) and A loses sum(m_i * E_i).
    """
    if lattice.A is None:
        raise ValueError("set the polarization A before blowing up")
    r = len(weights)
    n = len(lattice.gram)
    gram = [row + (0,) * r for row in lattice.gram]
    gram += [(0,) * (n + i) + (-1,) + (0,) * (r - 1 - i) for i in range(r)]
    return SurfaceLattice(
        gram=gram,
        K=lattice.K + (1,) * r,
        A=lattice.A + tuple(-m for m in weights.weights),
    )


def sectional_genus_surface(KA: int, AA: int) -> int:
    """g = (K.A + A^2)/2 + 1; raises on parity violation."""
    if (KA + AA) % 2 != 0:
        raise ValueError(f"KA + AA = {int_text(KA + AA)} must be even")
    return (KA + AA) // 2 + 1


class MinimalizationResult(Record):
    """Sectional genus, A^2 and K^2 of (S, A)."""

    g: int
    AA: int
    KK: int


def minimalization_invariants(
    g_min: int, AA_min: int, KK_min: int, weights: WeightSequence
) -> MinimalizationResult:
    """Invariants of (S, A) from its minimalization and weight sequence.

    Closed forms of the blow-up arithmetic:
        g = g' - sum m(m-1)/2,   A^2 = A'^2 - sum m^2,   K^2 = K'^2 - r.
    Must agree with blow_up + pair + sectional_genus_surface on every
    lattice-backed instance; the property tests enforce that.
    """
    return MinimalizationResult(
        g=g_min - weights.genus_drop,
        AA=AA_min - weights.square_sum,
        KK=KK_min - len(weights),
    )


class DegTRow(Record):
    """One row of the quotient-degree bookkeeping: degT, degG = 1 - degT, c2 and L^3."""

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
    while (l3 := 6 - (c2 := 1 + deg_t)) >= 1:
        rows.append(DegTRow(degT=deg_t, degG=1 - deg_t, c2=c2, L3=l3))
        deg_t += 1
    return tuple(rows)


def _pairings(lattice: SurfaceLattice, a_prime: Sequence[int]) -> tuple[int, int, int]:
    """(K.A', A'^2, K^2) on ``lattice`` for the polarization ``a_prime``."""
    K = lattice.K
    return pair(lattice, K, a_prime), pair(lattice, a_prime, a_prime), pair(lattice, K, K)


# Each family of the surface table: the row fields its minimal model reads,
# and (K'.A', A'^2, K'^2) of that model from their values
FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., tuple[int, int, int]]]] = {
    "I": (("A2",), lambda aa: (aa, aa, aa)),  # K numerically equal to A
    "II": (("A2", "KA", "KK"), lambda aa, ka, kk: (ka, aa, kk)),
    "III": (("A2", "KA"), lambda aa, ka: (ka, aa, 0)),  # minimal elliptic surface
    "IV": (("A2_min",), lambda aa: (0, aa, 0)),  # K' numerically trivial
    "V": (("e", "x", "y"), lambda e, x, y: _pairings(make_ruled(RuledModel(1, e)), (x, y))),
    "VI": (("degree",), lambda degree: _pairings(make_plane(), (degree,))),
    "VII": (("e", "x", "y"), lambda e, x, y: _pairings(make_ruled(RuledModel(0, e)), (x, y))),
    # Del Pezzo stage j with A_j = -a * K_j
    "VIII": (("KKj", "a"), lambda kkj, a: (-a * kkj, a * a * kkj, kkj)),
}


def verify_row_2_3(row: Mapping) -> MinimalizationResult:
    """Recompute (g, A^2, K^2) for a surface-table row; the caller compares.

    The row is a mapping with a family tag I..VIII, optional blow-up
    ``weights`` and the fields ``FAMILIES`` lists for its family.  Malformed
    rows raise ValueError.
    """
    try:
        weights = WeightSequence(tuple(row.get("weights", ())))
        family = row["family"]
        if not isinstance(family, str) or family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        fields, minimal_model = FAMILIES[family]
        ka, aa, kk = minimal_model(*[row[name] for name in fields])
    except KeyError as exc:
        raise ValueError(f"surface-table row is missing field {exc}") from exc
    return minimalization_invariants(sectional_genus_surface(ka, aa), aa, kk, weights)
