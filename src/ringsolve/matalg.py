"""Matrix algebra over finite rings.

Multiplication, big-exponent powers, general-linear-group cardinality, the
inverse by Gauss–Jordan elimination with unit pivots on each local summand,
and an exact characteristic polynomial over Galois rings through the
Csanky/Newton recursion lifted to Z[X]/(F).

The paper defines invertibility through the power A^(|GL_n(R)|-1); that
construction is kept as the independent cross-check
``oracle.inverse_by_power``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import InternalError, InvalidParameter, PreconditionViolation, UnsupportedRing
from .linsys import _Indexed, _fold
from .ring import FiniteRing, RingElement, unit_indices
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


def _identity_grid(ring: FiniteRing, n: int) -> np.ndarray:
    grid = np.full((n, n), ring.zero.index, dtype=np.int64)
    np.fill_diagonal(grid, ring.one.index)
    return grid


def _product(ring: FiniteRing, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The grid product: (XY)(i,j) = sum_k X(i,k)·Y(k,j)."""
    return _fold(ring, ring.mul(x[:, :, None], y[None, :, :]))


class Matrix(_Indexed):
    """A finitely indexed matrix over a ring; entries stored sparsely, with
    the dense grid ``A`` derived on first use.  Results of matrix operations
    are built from grids and skip validation."""

    ring = property(lambda self: self.carrier)

    def __init__(self, ring: FiniteRing, rows: Sequence, cols: Sequence, entries: Mapping):
        self._set_ids(ring, rows, cols)
        self.entries = self._coefficients(entries)

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
        a = ring.sub(a, ring.mul(factors[:, None], a[c]))
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


def _int_poly_mul_mod(a: Sequence[int], b: Sequence[int], f: Sequence[int]) -> tuple[int, ...]:
    """Product in Z[X]/(F) with F monic; exact integer arithmetic."""
    r = len(f) - 1
    prod = [0] * (max(len(a) + len(b) - 1, r))
    for s, x in enumerate(a):
        if x:
            for t, y in enumerate(b):
                prod[s + t] += x * y
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        if c:
            for t in range(r):
                prod[k - r + t] -= c * f[t]
            prod[k] = 0
    return tuple(prod[:r])


def _int_poly_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def charpoly_galois(a: Matrix) -> CharPoly:
    """Characteristic polynomial over a Galois ring, exactly.

    Entries are lifted through the Galois representation to Z[X]/(F) with F
    the integer lift of the Galois polynomial, the Newton trace recursion
    c_k = -(1/k)(s_k + sum_{0<j<k} c_j s_{k-j}) runs over exact rationals
    (every division must clear its denominator), and the integer output is
    reduced mod p^n and mapped back through the representation.
    """
    ring = a.ring
    if is_galois_ring(ring) is None:
        raise PreconditionViolation(f"{ring.spec} is not a Galois ring")
    if not a.is_square():
        raise InvalidParameter("characteristic polynomial requires a square matrix")
    rep = galois_representation(ring)
    f = [int(c) for c in rep.f.coeffs]
    r = rep.r
    q = rep.q
    ids = list(a.rows)
    n = len(ids)
    zero_poly = (0,) * r
    lifted = [
        [tuple(int(c) for c in rep.iota[a.entry_idx(i, j)]) for j in ids]
        for i in ids
    ]

    def pmul(x, y):
        return _int_poly_mul_mod(x, y, f)

    def mat_product(m1, m2):
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero_poly
                for k in range(n):
                    if m1[i][k] != zero_poly and m2[k][j] != zero_poly:
                        acc = _int_poly_add(acc, pmul(m1[i][k], m2[k][j]))
                row.append(acc)
            out.append(row)
        return out

    traces = []
    power = lifted
    for _ in range(n):
        trace = zero_poly
        for i in range(n):
            trace = _int_poly_add(trace, power[i][i])
        traces.append(trace)
        power = mat_product(power, lifted)
    # Newton recursion: c[k] is the coefficient of X^(n-k)
    coeffs_by_drop: list[tuple[int, ...]] = [(1,) + (0,) * (r - 1)]
    for k in range(1, n + 1):
        acc = list(traces[k - 1])
        for j in range(1, k):
            term = pmul(coeffs_by_drop[j], traces[k - j - 1])
            acc = [x + y for x, y in zip(acc, term)]
        ck = []
        for v in acc:
            frac = Fraction(-v, k)
            if frac.denominator != 1:
                raise InternalError(
                    f"Newton recursion produced denominator {frac.denominator} at step {k}"
                )
            ck.append(int(frac))
        coeffs_by_drop.append(tuple(ck))
    coefficients = []
    for power_of_x in range(n + 1):
        ck = coeffs_by_drop[n - power_of_x]
        coefficients.append(rep.from_poly([c % q for c in ck]))
    return CharPoly(ring=ring, coefficients=coefficients)


def determinant(a: Matrix) -> RingElement:
    """det(A) = (-1)^|I| · chi_A(0), recombined over the local summands.

    Every local summand must be a Galois ring (all Z/m qualify).
    """
    ring = a.ring
    if not ring.commutative:
        raise PreconditionViolation("determinant requires a commutative ring")
    if not a.is_square():
        raise InvalidParameter("determinant requires a square matrix")
    n = len(a.rows)
    total = ring.zero.index
    for summand in decompose_local(ring):
        sub = summand.ring
        if is_galois_ring(sub) is None:
            raise UnsupportedRing(
                f"local summand {sub.spec} is not a Galois ring; determinant undefined here"
            )
        chi = charpoly_galois(Matrix._from_arrays(sub, a.rows, a.cols, A=summand.proj[a.A]))
        det_idx = chi.coefficients[0].index
        if n % 2 == 1:
            det_idx = sub.neg_idx(det_idx)
        total = ring.add_idx(total, summand.embed(det_idx))
    return ring.element(total)
