"""Matrix algebra over finite rings.

Multiplication, big-exponent powers, general-linear-group cardinality, the
inverse by Gauss–Jordan elimination with unit pivots on each local summand,
the elimination determinant on each local summand, and the characteristic
polynomial over Galois rings by Berkowitz's division-free recursion.  Products
and the recursion sum rows through the carrier's ``row_sum``.

The paper defines invertibility through the power A^(|GL_n(R)|-1); that
construction is kept as the independent cross-check
``oracle.inverse_by_power``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InternalError, InvalidParameter, PreconditionViolation, UnsupportedRing
from .linsys import _Indexed, _hermite, _identity_grid
from .ring import FiniteRing, RingElement, unit_indices
from .structure import decompose_local, is_galois_ring, is_local, residue_field_size


def _positions(ids: list, order: list) -> list[int]:
    """The position in ``ids`` of each id of ``order``."""
    pos = dict(zip(ids, range(len(ids))))
    return [pos[i] for i in order]


def _product(ring: FiniteRing, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The grid product: (XY)(i,j) = sum_k X(i,k)·Y(k,j)."""
    return ring.row_sum(ring.mul(x[:, :, None], y[None, :, :]))


class Matrix(_Indexed):
    """A finitely indexed matrix over a ring, stored as the dense grid ``A``;
    the sparse ``entries`` are read from it on first use.  Results of matrix
    operations are built from grids and skip validation."""

    ring = property(lambda self: self.carrier)

    def __init__(self, ring: FiniteRing, rows: Sequence, cols: Sequence, entries: Mapping):
        self._set_ids(ring, rows, cols)
        self.A = self._coefficients(entries)

    @staticmethod
    def identity(ring: FiniteRing, ids: Sequence) -> "Matrix":
        matrix = Matrix.__new__(Matrix)
        matrix._set_ids(ring, ids, ids)
        matrix.A = _identity_grid(ring, len(matrix.rows))
        return matrix

    def _grid_in(self, rows: list, cols: list) -> np.ndarray:
        """The grid with rows and columns in the given orders of this
        matrix's row and column ids."""
        if rows == self.rows and cols == self.cols:
            return self.A
        return self.A[np.ix_(_positions(self.rows, rows), _positions(self.cols, cols))]

    def is_square(self) -> bool:
        return set(self.rows) == set(self.cols)

    def same_shape(self, other: "Matrix") -> bool:
        return set(self.rows) == set(other.rows) and set(self.cols) == set(other.cols)

    def equals(self, other: "Matrix") -> bool:
        if self.ring is not other.ring or not self.same_shape(other):
            return False
        return bool((self.A == other._grid_in(self.rows, self.cols)).all())

    def __repr__(self):
        return f"Matrix({self.ring.spec}, {len(self.rows)}x{len(self.cols)})"


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if a.ring is not b.ring or not a.same_shape(b):
        raise InvalidParameter("matrix addition requires matching index sets and ring")
    return Matrix._from_arrays(a.ring, a.rows, a.cols, A=a.ring.add(a.A, b._grid_in(a.rows, a.cols)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """(AB)(i,j) = sum_k A(i,k)·B(k,j); inner index sets must coincide."""
    if a.ring is not b.ring:
        raise InvalidParameter("matrix product requires a common ring")
    if set(a.cols) != set(b.rows):
        raise InvalidParameter("inner index sets do not match")
    return Matrix._from_arrays(a.ring, a.rows, b.cols, A=_product(a.ring, a.A, b._grid_in(a.cols, b.cols)))


def mat_pow(a: Matrix, e: int) -> Matrix:
    """A^e by repeated squaring; exponents are arbitrary-precision integers."""
    if not a.is_square():
        raise InvalidParameter("matrix power requires a square matrix")
    if e < 0:
        raise InvalidParameter("negative matrix exponent")
    ring = a.ring
    base = a._grid_in(a.rows, a.rows)
    result = _identity_grid(ring, len(a.rows))
    while e:
        if e & 1:
            result = _product(ring, result, base)
        e >>= 1
        if e:
            base = _product(ring, base, base)
    return _square_result(a, result)


def _square_result(a: Matrix, grid: np.ndarray) -> Matrix:
    """A matrix with the ids of the square matrix a, from a grid whose
    columns are in a's row order."""
    return Matrix._from_arrays(a.ring, a.rows, a.cols, A=grid[:, _positions(a.rows, a.cols)])


def mat_scale(c: RingElement, a: Matrix) -> Matrix:
    return Matrix._from_arrays(a.ring, a.rows, a.cols, A=a.ring.mul(c.index, a.A))


# ---------------------------------------------------------------------------
# general linear group cardinality


def gl_order_local(ring: FiniteRing, n: int) -> int:
    """|GL_n(R)| = |m|^(n^2) · prod_{i<n}(q^n - q^i) for a local ring."""
    if n < 1:
        raise InvalidParameter("matrix dimension must be >= 1")
    if not ring.commutative or not is_local(ring):
        raise PreconditionViolation(f"{ring.spec} is not a local ring")
    q = residue_field_size(ring)
    m_size = ring.size // q
    return m_size ** (n * n) * math.prod(q**n - q**i for i in range(n))


def gl_order(ring: FiniteRing, n: int) -> int:
    """|GL_n(R)| over a commutative ring: product over the local summands."""
    if not ring.commutative:
        raise PreconditionViolation("gl_order requires a commutative ring")
    return math.prod(gl_order_local(s.ring, n) for s in decompose_local(ring))


# ---------------------------------------------------------------------------
# inverse


def _invert_local(ring: FiniteRing, grid: np.ndarray) -> np.ndarray | None:
    """Gauss–Jordan on [A | I] over a local ring; None when A is singular.

    The pivot of column c is the first row at or below c holding a unit.  If
    there is none, A is singular modulo the maximal ideal, hence singular.
    """
    n = len(grid)
    is_unit = np.zeros(ring.size, dtype=bool)
    is_unit[list(unit_indices(ring))] = True
    unit_order = int(is_unit.sum())
    a = np.concatenate([grid, _identity_grid(ring, n)], axis=1)
    for c in range(n):
        candidates = np.flatnonzero(is_unit[a[c:, c]])
        if not candidates.size:
            return None
        pivot = c + int(candidates[0])
        if pivot != c:
            a[[c, pivot]] = a[[pivot, c]]
        # u^(|U|-1) = u^(-1) in the unit group; columns left of c are zero
        a[c] = ring.mul(ring.pow_idx(int(a[c, c]), unit_order - 1), a[c])
        factors = a[:, c].copy()
        factors[c] = ring.zero.index
        ring.sub_mul(a, factors[:, None], a[c])
    return a[:, n:]


def inverse(a: Matrix) -> Matrix | None:
    """A^(-1) by Gauss–Jordan with unit pivots on each local summand; None
    when singular.  The result is checked against A·A^(-1) = I."""
    if not a.ring.commutative:
        raise PreconditionViolation("inverse requires a commutative ring")
    if not a.is_square():
        raise InvalidParameter("inverse requires a square matrix")
    ring = a.ring
    grid = a._grid_in(a.rows, a.rows)
    combined = np.full(grid.shape, ring.zero.index, dtype=np.int64)
    for summand in decompose_local(ring):
        inv = _invert_local(summand.ring, summand.proj[grid])
        if inv is None:
            return None
        combined = ring.add(combined, summand.members[inv])
    result = _square_result(a, combined)
    if not mat_mul(a, result).equals(Matrix.identity(ring, a.rows)):
        raise InternalError("Gauss–Jordan inverse fails A·A^(-1) = I")
    return result


def is_invertible(a: Matrix) -> bool:
    """Whether A is invertible, decided by the elimination of ``inverse``."""
    return inverse(a) is not None


# ---------------------------------------------------------------------------
# characteristic polynomial


@dataclass
class CharPoly:
    """Monic characteristic polynomial; coefficients c_0..c_n, lowest first."""

    ring: FiniteRing
    coefficients: list[RingElement]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> RingElement:
        return self.coefficients[k]

    def evaluate_at_matrix(self, a: Matrix) -> Matrix:
        """chi(A), for Cayley-Hamilton checks, by Horner's rule."""
        ring, n = a.ring, len(a.rows)
        x = a._grid_in(a.rows, a.rows)
        result = np.full((n, n), ring.zero.index, dtype=np.int64)
        diag = np.arange(n)
        for c in reversed(self.coefficients):
            result = _product(ring, result, x)
            result[diag, diag] = ring.add(result[diag, diag], c.index)
        return _square_result(a, result)

    def equals(self, other: "CharPoly") -> bool:
        return self.ring is other.ring and [c.index for c in self.coefficients] == [
            c.index for c in other.coefficients
        ]

    def __repr__(self):
        names = [c.name for c in self.coefficients]
        return "CharPoly(" + ", ".join(f"c{k}={v}" for k, v in enumerate(names)) + ")"


def charpoly_galois(a: Matrix) -> CharPoly:
    """det(X·E - A) over a Galois ring, by Berkowitz's division-free
    recursion on the grid.

    Let B be the leading k x k block, a = A(k,k), R and C the rest of row
    k and column k left of and above the diagonal.  The coefficients of the
    leading (k+1) x (k+1) block, highest first, are T times those of B,
    where T is lower-triangular Toeplitz with first column 1, -a, -R·C,
    -R·B·C, ..., -R·B^(k-1)·C.  Each Krylov vector B^i·C, the dots with R
    and the Toeplitz product are one ``mul`` and one carrier ``row_sum``.
    The recursion is exact over every commutative ring.
    """
    ring = a.ring
    if is_galois_ring(ring) is None:
        raise PreconditionViolation(f"{ring.spec} is not a Galois ring")
    if not a.is_square():
        raise InvalidParameter("characteristic polynomial requires a square matrix")
    grid = a._grid_in(a.rows, a.rows)
    n = len(grid)
    # T(i,j) = column[i - j]: a negative i - j indexes the zero tail of column
    shift = np.subtract.outer(np.arange(n + 1), np.arange(n))
    column = np.full(2 * n + 1, ring.zero.index, dtype=np.int64)
    column[0] = ring.one.index
    poly = np.array([ring.one.index, ring.neg_idx(int(grid[0, 0]))])
    for k in range(1, n):
        block, krylov = grid[:k, :k], [grid[:k, k]]
        for _ in range(k - 1):
            krylov.append(ring.row_sum(ring.mul(block, krylov[-1])))
        column[1] = ring.neg_idx(int(grid[k, k]))
        column[2:k + 2] = ring.neg(ring.row_sum(ring.mul(np.array(krylov), grid[k, :k])))
        poly = ring.row_sum(ring.mul(column[shift[:k + 2, :k + 1]], poly))
    return CharPoly(ring=ring, coefficients=[ring.element(c) for c in reversed(poly.tolist())])


def _determinant_local(ring: FiniteRing, grid: np.ndarray) -> int:
    """det over a chain ring by Hermite elimination: row operations that add
    multiples of the pivot row keep det, each swap negates it, and the
    triangular result has det = prod diag, or 0 below full rank."""
    n = len(grid)
    a, _, _, rank, swaps = _hermite(ring, [grid], n)
    if rank < n:
        return ring.zero.index
    det = functools.reduce(ring.mul_idx, a.diagonal().tolist(), ring.one.index)
    return ring.neg_idx(det) if swaps else det


def determinant(a: Matrix) -> RingElement:
    """det(A) by elimination on each local summand, recombined.

    Every local summand must be a Galois ring (all Z/m qualify).
    """
    ring = a.ring
    if not ring.commutative:
        raise PreconditionViolation("determinant requires a commutative ring")
    if not a.is_square():
        raise InvalidParameter("determinant requires a square matrix")
    grid = a._grid_in(a.rows, a.rows)
    total = ring.zero.index
    for summand in decompose_local(ring):
        sub = summand.ring
        if is_galois_ring(sub) is None:
            raise UnsupportedRing(f"local summand {sub.spec} is not a Galois ring; determinant undefined here")
        total = ring.add_idx(total, summand.embed(_determinant_local(sub, summand.proj[grid])))
    return ring.element(total)
