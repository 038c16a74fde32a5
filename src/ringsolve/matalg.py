"""Matrix algebra over finite rings.

Multiplication, big-exponent powers, general-linear-group cardinality, the
inverse by Gauss–Jordan elimination with unit pivots on each local summand,
the elimination determinant on each local summand, and the bounded-precision
Newton charpoly over Galois rings.

The paper defines invertibility through the power A^(|GL_n(R)|-1); that
construction is kept as the independent cross-check
``oracle.inverse_by_power``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InternalError, InvalidParameter, PreconditionViolation, UnsupportedRing
from .linsys import _Indexed, _fold, _hermite, _identity_grid
from .ring import FiniteRing, RingElement, _memo, unit_indices
from .structure import (
    decompose_local,
    galois_representation,
    is_galois_ring,
    is_local,
    residue_field_size,
)


def _positions(ids: list, order: list) -> list[int]:
    """The position in ``ids`` of each id of ``order``."""
    pos = dict(zip(ids, range(len(ids))))
    return [pos[i] for i in order]


def _product(ring: FiniteRing, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The grid product: (XY)(i,j) = sum_k X(i,k)·Y(k,j)."""
    return _fold(ring, ring.mul(x[:, :, None], y[None, :, :]))


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
# characteristic polynomial over Galois rings


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


@_memo
def _galois_lift(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """(iota, table), cached per Galois ring: iota[:, x] holds the r integer
    coefficients of x, and table[:, s·r + t] those of X^(s+t) mod F over Z."""
    rep = galois_representation(ring)
    r, f = rep.r, [int(c) for c in rep.f.coeffs]
    iota = np.array([rep.iota[x] for x in range(ring.size)], dtype=object).reshape(ring.size, r).T
    powers = [[1] + [0] * (r - 1)]
    for _ in range(2 * r - 2):
        top = powers[-1][-1]
        powers.append([c - top * f[t] for t, c in enumerate([0] + powers[-1][:-1])])
    table = np.array([powers[s + t] for s in range(r) for t in range(r)], dtype=object).T
    return iota, table


def charpoly_galois(a: Matrix) -> CharPoly:
    """Characteristic polynomial over a Galois ring R = (Z/p^n)[X]/(F).

    The entries are lifted through the Galois representation to
    (Z/p^N)[X]/(F), a matrix as r coefficient matrices of Python ints, and
    the Newton trace recursion k·c_k = -(s_k + sum_{0<j<k} c_j s_{k-j})
    runs there with N = n + v_p(d!) for a d x d matrix.  Step k divides by
    k = p^v·u: it multiplies by u^(-1) mod p^N and divides exactly by p^v.
    Over the p-adic lift the right-hand side is k·c_k; ours agrees with it
    to N - v_p((k-1)!) >= n + v digits, so p^v divides it, and c_k is exact
    to N - v_p(k!) >= n digits.  The output is reduced mod p^n.
    """
    ring = a.ring
    if is_galois_ring(ring) is None:
        raise PreconditionViolation(f"{ring.spec} is not a Galois ring")
    if not a.is_square():
        raise InvalidParameter("characteristic polynomial requires a square matrix")
    rep = galois_representation(ring)
    iota, table = _galois_lift(ring)
    p, r, n = rep.p, rep.r, len(a.rows)
    # v_p(k) for k = 1..n; their sum is v_p(n!)
    vals = [next(v for v in range(k) if k % p ** (v + 1)) for k in range(1, n + 1)]
    modulus = p ** (rep.n + sum(vals))

    lifted = iota[:, a._grid_in(a.rows, a.rows)]
    power, traces = lifted, []
    for k in range(n):
        if k:
            # sum_{s,t} power_s·lifted_t·X^(s+t) mod (F, p^N)
            pairs = np.matmul(power[:, None], lifted).reshape(r * r, -1)
            power = (table @ pairs).reshape(lifted.shape) % modulus
        traces.append(power.trace(axis1=1, axis2=2).tolist())
    # Newton recursion on lists of r ints: by_drop[k] is the coefficient of X^(n-k)
    by_drop = [[1] + [0] * (r - 1)]
    for k in range(1, n + 1):
        # sum_{0<=j<k} c_j s_{k-j} with c_0 = 1: the X^s·X^t terms, then folded by the table
        terms = list(zip(by_drop, traces[k - 1::-1]))
        pairs = [sum(c[s] * t[u] for c, t in terms) for s in range(r) for u in range(r)]
        v = vals[k - 1]
        unit = pow(k // p**v, -1, modulus)
        rhs = [-sum(map(operator.mul, row, pairs)) * unit % modulus for row in table.tolist()]
        if any(c % p**v for c in rhs):
            raise InternalError(f"Newton recursion: p^{v} does not divide the right-hand side at step {k}")
        by_drop.append([c // p**v for c in rhs])
    return CharPoly(ring=ring, coefficients=[rep.from_poly(c) for c in reversed(by_drop)])


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
