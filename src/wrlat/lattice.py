"""The lattice data model: exact Gram matrices plus structural operations.

A lattice is stored as its rational Gram matrix, never as a basis matrix.
Families whose printed bases contain square roots still have exact rational
Grams, so this representation keeps every invariant computation exact.
Each Lattice also keeps the integer Gram s G that its validation computes,
and every layer and cache reads that form, so G becomes integers once.
Float input is only ever checked, within 1e-9 (BASIS_GRAM_TOLERANCE): a file's
optional "basis" against its authoritative Gram, and lattice_from_float_basis'
rationalization.  That is the one float comparison; it feeds no invariant or verdict.
Lattice files are written with the Gram only; a "basis" is read, never written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InputError, NotPositiveDefinite, NotSymmetric, RationalizationFailed
from .ratlinalg import (
    RatMatrix,
    block_diag,
    diagonal_pivots,
    format_rational,
    integer_scaled,
    parse_rational,
)

BASIS_GRAM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Lattice:
    """Rank-n lattice given by a symmetric positive-definite rational Gram matrix.

    Construction checks the shape, then the symmetry (A equals its transpose)
    and the positive definiteness (one elimination, `diagonal_pivots`) of the
    integer Gram A = s G, s the lcm of G's denominators (`integer_scaled`), so
    every Lattice has a positive-definite Gram.  It keeps, read-only and outside
    equality and hashing, the Gram's size `rank` n and what that elimination
    computed: `scale` s, `int_gram` A as a tuple of tuples, and
    `leading_minors` P_0 = 1, ..., P_n of A."""

    name: str
    gram: RatMatrix
    provenance: str = ""
    rank: int = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    int_gram: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    leading_minors: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.gram
        if g.rows != g.cols or g.rows < 1:
            raise ValueError("Gram matrix must be square and nonempty")
        scale, a = integer_scaled(g)
        int_gram = tuple(map(tuple, a))
        if tuple(zip(*a)) != int_gram:  # s > 0, so s G is symmetric iff G is
            raise NotSymmetric(f"Gram of {self.name!r} is not symmetric")
        pivots, _ = diagonal_pivots(a)
        if pivots[-1] <= 0:  # D_k = P_{k+1} / (s P_k) at the first P_{k+1} <= 0
            k = len(pivots) - 2
            raise NotPositiveDefinite(f"pivot {k} is {Fraction(pivots[-1], scale * pivots[-2])}")
        object.__setattr__(self, "rank", g.rows)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "int_gram", int_gram)
        object.__setattr__(self, "leading_minors", tuple(pivots))

    def det_gram(self) -> Fraction:
        """det G = P_n / s^n, the last leading minor of s G."""
        return Fraction(self.leading_minors[-1], self.scale**self.rank)

    def __repr__(self) -> str:
        return f"Lattice({self.name!r}, rank={self.rank})"


def lattice_from_gram(name: str, gram, provenance: str = "") -> Lattice:
    """Wrap a Gram matrix, given as a RatMatrix or as rows; Lattice validates it."""
    if not isinstance(gram, RatMatrix):
        gram = RatMatrix.from_rows(gram)
    return Lattice(name, gram, provenance)


@dataclass(frozen=True)
class FloatBasis:
    """Columns of a floating basis in some ambient dimension >= rank."""

    columns: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("empty basis")
        dim = len(self.columns[0])
        if any(len(c) != dim for c in self.columns):
            raise ValueError("ragged basis columns")
        if len(self.columns) > dim:
            raise ValueError("more columns than ambient dimension")
        if not all(math.isfinite(x) for c in self.columns for x in c):
            raise ValueError("basis entries must be finite")

    @property
    def rank(self) -> int:
        return len(self.columns)

    def float_gram(self) -> list[list[float]]:
        return [
            [sum(a * b for a, b in zip(ci, cj)) for cj in self.columns]
            for ci in self.columns
        ]


def lattice_from_float_basis(
    name: str, basis: FloatBasis | Sequence[Sequence[float]], max_denominator: int = 10**6
) -> Lattice:
    """Build an exact lattice from a floating basis.

    Each Gram entry is replaced by its best rational approximation with
    denominator at most max_denominator.  If that approximation is farther
    than 1e-9 from the floating value, the input is rejected rather than
    silently rounded.  The columns count as independent iff the rationalized
    Gram is positive definite.
    """
    if not isinstance(basis, FloatBasis):
        basis = FloatBasis(tuple(tuple(float(x) for x in col) for col in basis))
    g = basis.float_gram()
    n = basis.rank
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            approx = Fraction(g[i][j]).limit_denominator(max_denominator)
            if abs(float(approx) - g[i][j]) > BASIS_GRAM_TOLERANCE:
                raise RationalizationFailed(
                    f"Gram entry ({i},{j})={g[i][j]!r} has no denominator-{max_denominator} "
                    "approximation within 1e-9"
                )
            out[i][j] = out[j][i] = approx
    try:
        return lattice_from_gram(name, out, provenance="rationalized float basis")
    except NotPositiveDefinite as exc:
        raise ValueError("basis columns are not numerically independent") from exc


def direct_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Orthogonal direct sum: block-diagonal Gram."""
    return Lattice(f"{l1.name}(+){l2.name}", block_diag(l1.gram, l2.gram), "orthogonal direct sum")


def scale_gram(lat: Lattice, factor) -> Lattice:
    f = Fraction(factor)
    if f <= 0:
        raise ValueError("scale factor must be positive")
    return Lattice(lat.name, lat.gram.scaled(f), lat.provenance)


def normalize_min_norm(lat: Lattice) -> Lattice:
    """Rescale so the minimal norm squared is exactly 1."""
    from .minvec import minimal_norm_sq  # local import: minvec depends on this module

    m = minimal_norm_sq(lat)
    return lat if m == 1 else scale_gram(lat, 1 / m)


def principal_sublattice(lat: Lattice, indices: Sequence[int]) -> Lattice:
    """Restrict the Gram to an ordered subset of basis indices (0-based)."""
    idx = list(indices)
    if not idx:
        raise ValueError("index set must be nonempty")
    if len(set(idx)) != len(idx) or any(not (0 <= i < lat.rank) for i in idx):
        raise ValueError(f"bad index set {indices!r} for rank {lat.rank}")
    rows = [[lat.gram[i, j] for j in idx] for i in idx]
    return Lattice(f"{lat.name}|{tuple(idx)}", RatMatrix.from_rows(rows), "principal sublattice")


def reorder_basis(lat: Lattice, perm: Sequence[int]) -> Lattice:
    """Conjugate the Gram by a permutation of the basis (0-based)."""
    p = list(perm)
    if sorted(p) != list(range(lat.rank)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{lat.rank - 1}")
    rows = [[lat.gram[p[i], p[j]] for j in range(lat.rank)] for i in range(lat.rank)]
    return Lattice(lat.name, RatMatrix.from_rows(rows), lat.provenance)


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: { "name": str, "rank": int, "gram": [["p/q", ...], ...],
#           "basis": optional [[float, ...], ...] (columns), "provenance": str }
# The writer emits no "basis"; the reader checks one against the Gram.
# ---------------------------------------------------------------------------


def lattice_to_json_dict(lat: Lattice) -> dict:
    return {
        "name": lat.name,
        "rank": lat.rank,
        "gram": [[format_rational(e) for e in lat.gram.row(i)] for i in range(lat.rank)],
        "provenance": lat.provenance,
    }


def _list_of_lists(value, key: str) -> list:
    """value, when it is a JSON list of JSON lists; a string would be read
    character by character."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise InputError(f"{key} must be a JSON list of lists")
    return value


def lattice_from_json_dict(d: dict) -> Lattice:
    try:
        name = str(d["name"])
        rank = d["rank"]
        gram_rows = [[parse_rational(e) for e in row] for row in _list_of_lists(d["gram"], "gram")]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed lattice JSON: {exc}") from exc
    if type(rank) is not int:  # int() would round 2.9 down and read true as 1
        raise InputError(f"rank {rank!r} is not an integer")
    if rank < 1 or len(gram_rows) != rank or any(len(r) != rank for r in gram_rows):
        raise InputError("gram shape does not match rank")
    lat = lattice_from_gram(name, gram_rows, provenance=str(d.get("provenance", "")))
    if d.get("basis") is not None:
        try:
            fb = FloatBasis(tuple(tuple(float(x) for x in col) for col in _list_of_lists(d["basis"], "basis")))
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed basis: {exc}") from exc
        if fb.rank != rank:
            raise InputError("basis column count does not match rank")
        g = fb.float_gram()
        for i in range(rank):
            for j in range(rank):
                if abs(g[i][j] - float(lat.gram[i, j])) > BASIS_GRAM_TOLERANCE:
                    raise InputError(
                        f"basis does not reproduce gram at ({i},{j}): "
                        f"{g[i][j]!r} vs {lat.gram[i, j]}"
                    )
    return lat


def save_lattice(lat: Lattice, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lattice_to_json_dict(lat), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_lattice(path: str) -> Lattice:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return lattice_from_json_dict(data)
