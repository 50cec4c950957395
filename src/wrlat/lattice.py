"""The lattice data model: exact Gram matrices plus structural operations.

A lattice is stored as its rational Gram matrix, never as a basis matrix.
Families whose printed bases contain square roots still have exact rational
Grams, so this representation keeps every invariant computation exact.
The Gram is a `RatMatrix`, which keeps one form: the canonical scale s and
the integer Gram s G.  Every layer and cache reads that form, and Fractions
are made only where an entry is read (the JSON writer, `perturb`).
Float input is only ever checked, within 1e-9 (BASIS_GRAM_TOLERANCE): a file's
optional "basis" against its authoritative Gram, and lattice_from_float_basis'
rationalization.  That is the one float comparison; it feeds no invariant or verdict.
Lattice files are written with the Gram only; a "basis" is read, never written.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .errors import InputError, NotPositiveDefinite, NotSymmetric, RationalizationFailed
from .ratlinalg import (
    RatMatrix,
    block_diag,
    diagonal_pivots,
    format_rational,
    parse_rational,
)

BASIS_GRAM_TOLERANCE = 1e-9
FLOAT_MAX_DENOMINATOR = 10**6  # the largest denominator a rationalized float Gram entry may take


class Lattice:
    """Rank-n lattice given by a symmetric positive-definite rational Gram matrix.

    Construction checks the shape, then the symmetry (A equals its transpose)
    and the positive definiteness (one elimination, `diagonal_pivots`) of the
    integer Gram A = s G that the `RatMatrix` keeps, so every Lattice has a
    positive-definite Gram.  It keeps the `leading_minors` P_0 = 1, ..., P_n
    of A that the elimination computed; `rank` n, `scale` s and `int_gram` A
    are read off the Gram.  The attributes are read-only properties over
    private slots.  Equality and hashing run on (name, gram, provenance)."""

    __slots__ = ("_name", "_gram", "_provenance", "_leading_minors")
    name = property(attrgetter("_name"))
    gram = property(attrgetter("_gram"))
    provenance = property(attrgetter("_provenance"))
    leading_minors = property(attrgetter("_leading_minors"))
    rank = property(attrgetter("_gram.rows"))
    scale = property(attrgetter("_gram.scale"))
    int_gram = property(attrgetter("_gram.int_rows"))

    def __init__(self, name: str, gram: RatMatrix, provenance: str = ""):
        if not isinstance(gram, RatMatrix):
            raise TypeError(f"Lattice needs a RatMatrix, not {type(gram).__name__}: use lattice_from_gram for rows")
        if gram.rows != gram.cols or gram.rows < 1:
            raise ValueError("Gram matrix must be square and nonempty")
        a = gram.int_rows
        if tuple(zip(*a)) != a:  # s > 0, so s G is symmetric iff G is
            raise NotSymmetric(f"Gram of {name!r} is not symmetric")
        pivots, _ = diagonal_pivots(a)
        if pivots[-1] <= 0:  # D_k = P_{k+1} / (s P_k) at the first P_{k+1} <= 0
            k = len(pivots) - 2
            raise NotPositiveDefinite(f"pivot {k} is {Fraction(pivots[-1], gram.scale * pivots[-2])}")
        self._name, self._gram, self._provenance = name, gram, provenance
        self._leading_minors = tuple(pivots)

    def det_gram(self) -> Fraction:
        """det G = P_n / s^n, the last leading minor of s G."""
        return Fraction(self.leading_minors[-1], self.scale**self.rank)

    def __eq__(self, other) -> bool:
        if type(other) is not Lattice:
            return NotImplemented
        return (self.name, self.gram, self.provenance) == (other.name, other.gram, other.provenance)

    def __hash__(self) -> int:
        return hash((self.name, self.gram, self.provenance))

    def __repr__(self) -> str:
        return f"Lattice({self.name!r}, rank={self.rank})"


def lattice_from_gram(name: str, gram, provenance: str = "") -> Lattice:
    """Wrap a Gram matrix, given as a RatMatrix or as rows; Lattice validates it."""
    if not isinstance(gram, RatMatrix):
        gram = RatMatrix.from_rows(gram)
    return Lattice(name, gram, provenance)


def _float_gram(columns: Sequence[Sequence[float]]) -> list[list[float]]:
    """The float Gram of a basis given by its columns, in some ambient
    dimension >= their count.  Each entry must be an int or a float: a bool
    or a string is not read as a number."""
    if not columns:
        raise ValueError("empty basis")
    dim = len(columns[0])
    if any(len(c) != dim for c in columns):
        raise ValueError("ragged basis columns")
    if len(columns) > dim:
        raise ValueError("more columns than ambient dimension")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for c in columns for x in c):
        raise TypeError("basis entries must be ints or floats")
    if not all(math.isfinite(x) for c in columns for x in c):
        raise ValueError("basis entries must be finite")
    return [[sum(a * b for a, b in zip(ci, cj)) for cj in columns] for ci in columns]


def lattice_from_float_basis(name: str, columns: Sequence[Sequence[float]]) -> Lattice:
    """Build an exact lattice from the columns of a floating basis.

    Each Gram entry is replaced by its best rational approximation with
    denominator at most FLOAT_MAX_DENOMINATOR.  If that approximation is farther
    than 1e-9 from the floating value, the input is rejected rather than
    silently rounded.  The columns count as independent iff the rationalized
    Gram is positive definite.
    """
    g = _float_gram(columns)
    n = len(g)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            approx = Fraction(g[i][j]).limit_denominator(FLOAT_MAX_DENOMINATOR)
            if abs(float(approx) - g[i][j]) > BASIS_GRAM_TOLERANCE:
                raise RationalizationFailed(
                    f"Gram entry ({i},{j})={g[i][j]!r} has no denominator-{FLOAT_MAX_DENOMINATOR} "
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
    a = lat.int_gram
    gram = RatMatrix.from_scaled(lat.scale, [[a[i][j] for j in idx] for i in idx])
    return Lattice(f"{lat.name}|{tuple(idx)}", gram, "principal sublattice")


def reorder_basis(lat: Lattice, perm: Sequence[int]) -> Lattice:
    """Conjugate the Gram by a permutation of the basis (0-based)."""
    p = list(perm)
    if sorted(p) != list(range(lat.rank)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{lat.rank - 1}")
    a = lat.int_gram
    return Lattice(lat.name, RatMatrix.from_scaled(lat.scale, [[a[i][j] for j in p] for i in p]), lat.provenance)


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
    if type(d) is not dict:
        raise InputError("a lattice file holds one JSON object")
    try:
        name, rank, provenance = d["name"], d["rank"], d.get("provenance", "")
        gram_rows = [[parse_rational(e) for e in row] for row in _list_of_lists(d["gram"], "gram")]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed lattice JSON: {exc}") from exc
    for key, value in (("name", name), ("provenance", provenance)):
        if type(value) is not str:  # str() would load 5 as "5" and ["x"] as "['x']"
            raise InputError(f"{key} {'null' if value is None else repr(value)} is not a JSON string")
    if type(rank) is not int:  # int() would round 2.9 down and read true as 1
        raise InputError(f"rank {rank!r} is not an integer")
    if rank < 1 or len(gram_rows) != rank or any(len(r) != rank for r in gram_rows):
        raise InputError("gram shape does not match rank")
    lat = lattice_from_gram(name, gram_rows, provenance)
    if d.get("basis") is not None:
        try:
            g = _float_gram(_list_of_lists(d["basis"], "basis"))
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed basis: {exc}") from exc
        if len(g) != rank:
            raise InputError("basis column count does not match rank")
        a, s = lat.int_gram, lat.scale
        for i in range(rank):
            for j in range(rank):
                if abs(g[i][j] - a[i][j] / s) > BASIS_GRAM_TOLERANCE:
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
        except RecursionError as exc:
            raise InputError(f"{path} nests JSON too deeply") from exc
    return lattice_from_json_dict(data)
