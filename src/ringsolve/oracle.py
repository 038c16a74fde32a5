"""Brute-force oracles: exhaustive, decomposition-free, independent of the solvers.

Nothing here calls into the solver pipeline; only element arithmetic is
shared with the rest of the package, and for the |GL|-power inverse also
the local decomposition, ``gl_order_local`` and matrix products.  Enumeration is exact and capacity
errors are hard, never silent sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InternalError, InvalidParameter, PreconditionViolation
from .linsys import GroupSystem, LinSystem, NumericalSystem, TwoSidedSystem
from .matalg import CharPoly, Matrix, gl_order_local, mat_mul, mat_pow
from .ring import AbelianGroup, FiniteRing
from .structure import decompose_local

SEARCH_CAP = 10**7
_VECTOR_THRESHOLD = 4096


@dataclass
class OracleReport:
    solvable: bool
    witness: dict | None
    instances_checked: int

    @property
    def verdict(self) -> str:
        return "SOLVABLE" if self.solvable else "UNSOLVABLE"


def _check_space(base: int, exponent: int) -> int:
    space = base**exponent
    if space > SEARCH_CAP:
        raise CapacityError(f"search space {base}^{exponent} exceeds {SEARCH_CAP}")
    return space


def _enumerate_assignments(size: int, nvars: int, space: int):
    """Yield (batch_matrix, offset) covering all mixed-radix assignments."""
    batch = 1 << 18
    radices = [size] * nvars
    for start in range(0, space, batch):
        stop = min(start + batch, space)
        idx = np.arange(start, stop, dtype=np.int64)
        cols = []
        div = 1
        for _ in range(nvars):
            cols.append((idx // div) % size)
            div *= size
        yield np.stack(cols, axis=1), start


def _solve_rows_vectorised(size, add, rows, nvars, space, zero_idx):
    """rows: list of (list of (var position, coeff combiner array), rhs index);
    ``add`` is the carrier's elementwise addition."""
    for assign, start in _enumerate_assignments(size, nvars, space):
        ok = np.ones(assign.shape[0], dtype=bool)
        for terms, rhs in rows:
            acc = np.full(assign.shape[0], zero_idx, dtype=np.int64)
            for pos, combine in terms:
                acc = add(acc, combine[assign[:, pos]])
            ok &= acc == rhs
            if not ok.any():
                break
        hits = np.nonzero(ok)[0]
        if hits.size:
            return int(hits[0]) + start
    return None


def brute_force_solve(system) -> OracleReport:
    """Decide solvability by enumerating every assignment."""
    if isinstance(system, LinSystem):
        return _brute_linsys(system)
    if isinstance(system, GroupSystem):
        return _brute_group(system)
    if isinstance(system, TwoSidedSystem):
        return _brute_twosided(system)
    if isinstance(system, NumericalSystem):
        return _brute_numerical(system)
    raise InvalidParameter(f"cannot solve object of type {type(system).__name__}")


def _decode_assignment(winner: int, size: int, cols):
    values = []
    for _ in cols:
        values.append(winner % size)
        winner //= size
    return dict(zip(cols, values))


def _brute_linsys(system: LinSystem) -> OracleReport:
    ring = system.ring
    cols = list(system.cols)
    space = _check_space(ring.size, len(cols))
    rows_data = [
        ([(cols.index(j), coeff) for (i2, j), coeff in system.entries.items() if i2 == i],
         system.rhs_idx(i))
        for i in system.rows
    ]
    if space > _VECTOR_THRESHOLD:
        elems = np.arange(ring.size)
        np_rows = [
            ([(pos, ring.mul(coeff, elems)) for pos, coeff in terms], rhs)
            for terms, rhs in rows_data
        ]
        winner = _solve_rows_vectorised(ring.size, ring.add, np_rows, len(cols), space, ring.zero.index)
        if winner is None:
            return OracleReport(False, None, space)
        assign = _decode_assignment(winner, ring.size, cols)
        return OracleReport(True, {j: ring.element(v) for j, v in assign.items()}, winner + 1)
    count = 0
    zero = ring.zero.index
    for combo in itertools.product(range(ring.size), repeat=len(cols)):
        count += 1
        if all(
            _fold_row(ring, terms, combo, zero) == rhs
            for terms, rhs in rows_data
        ):
            assign = {j: ring.element(v) for j, v in zip(cols, combo)}
            return OracleReport(True, assign, count)
    return OracleReport(False, None, count)


def _fold_row(ring, terms, combo, zero):
    acc = zero
    for pos, coeff in terms:
        acc = ring.add_idx(acc, ring.mul_idx(coeff, combo[pos]))
    return acc


def _brute_group(system: GroupSystem) -> OracleReport:
    group = system.group
    cols = list(system.cols)
    space = _check_space(group.size, len(cols))
    add = group.add_table()
    multiples: dict = {}  # c -> [c·x for every element x]
    for c in system.entries.values():
        if c not in multiples:
            multiples[c] = [group.scalar_idx(c, x) for x in range(group.size)]
    rows_data = [
        ([(cols.index(j), multiples[c]) for (i2, j), c in system.entries.items() if i2 == i],
         system.rhs_idx(i))
        for i in system.rows
    ]
    count = 0
    e = group.identity.index
    for combo in itertools.product(range(group.size), repeat=len(cols)):
        count += 1
        good = True
        for terms, rhs in rows_data:
            acc = e
            for pos, times_c in terms:
                acc = add[acc][times_c[combo[pos]]]
            if acc != rhs:
                good = False
                break
        if good:
            assign = {j: group.element(v) for j, v in zip(cols, combo)}
            return OracleReport(True, assign, count)
    return OracleReport(False, None, count)


def _brute_twosided(system: TwoSidedSystem) -> OracleReport:
    ring = system.ring
    cols = list(system.cols)
    space = _check_space(ring.size, len(cols))
    count = 0
    for combo in itertools.product(range(ring.size), repeat=len(cols)):
        count += 1
        assign = {j: ring.element(v) for j, v in zip(cols, combo)}
        if system.eval(assign):
            return OracleReport(True, assign, count)
    return OracleReport(False, None, count)


def _brute_numerical(system: NumericalSystem) -> OracleReport:
    group = system.group
    d = group.exponent()
    cols = list(system.cols)
    space = _check_space(d, len(cols))
    rows_data = [
        ([(cols.index(j), g) for (i2, j), g in system.entries.items() if i2 == i],
         system.rhs_idx(i))
        for i in system.rows
    ]
    count = 0
    e = group.identity.index
    for combo in itertools.product(range(d), repeat=len(cols)):
        count += 1
        good = True
        for terms, rhs in rows_data:
            acc = e
            for pos, g in terms:
                acc = group.add_idx(acc, group.scalar_idx(combo[pos], g))
            if acc != rhs:
                good = False
                break
        if good:
            return OracleReport(True, dict(zip(cols, combo)), count)
    return OracleReport(False, None, count)


def enumerate_witnesses(system: LinSystem, target_tail_idx: int):
    """All row combinations x with x·(A|b) = (0,...,0,tail); exhaustive."""
    ring = system.ring
    rows = list(system.rows)
    _check_space(ring.size, len(rows))
    zero = ring.zero.index
    found = []
    for combo in itertools.product(range(ring.size), repeat=len(rows)):
        col_ok = all(
            _fold_col(ring, system, j, rows, combo, zero) == zero
            for j in system.cols
        )
        if not col_ok:
            continue
        acc = zero
        for pos, i in enumerate(rows):
            acc = ring.add_idx(acc, ring.mul_idx(combo[pos], system.rhs_idx(i)))
        if acc == target_tail_idx:
            found.append({i: ring.element(v) for i, v in zip(rows, combo)})
    return found


def _fold_col(ring, system, j, rows, combo, zero):
    acc = zero
    for pos, i in enumerate(rows):
        c = system.entries.get((i, j))
        if c is not None:
            acc = ring.add_idx(acc, ring.mul_idx(combo[pos], c))
    return acc


# ---------------------------------------------------------------------------
# determinant / characteristic polynomial by cofactor expansion

MAX_COFACTOR = 6


def det_cofactor(matrix: Matrix):
    """Determinant by recursive Laplace expansion; commutative rings, |I| <= 6."""
    ring = matrix.ring
    if not ring.commutative:
        raise InvalidParameter("cofactor determinant requires a commutative ring")
    rows, cols = list(matrix.rows), list(matrix.cols)
    if len(rows) != len(cols):
        raise InvalidParameter("determinant of a non-square matrix")
    if len(rows) > MAX_COFACTOR:
        raise CapacityError(f"cofactor expansion capped at {MAX_COFACTOR}x{MAX_COFACTOR}")
    grid = [[matrix.entry_idx(i, j) for j in cols] for i in rows]
    return ring.element(_det_idx(ring, grid))


def _det_idx(ring: FiniteRing, grid: list[list[int]]) -> int:
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = ring.zero.index
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in grid[1:]]
        term = ring.mul_idx(grid[0][c], _det_idx(ring, minor))
        if c % 2:
            term = ring.neg_idx(term)
        acc = ring.add_idx(acc, term)
    return acc


def charpoly_cofactor(matrix: Matrix) -> CharPoly:
    """det(X·E - A) expanded over R[X] by cofactors."""
    ring = matrix.ring
    rows, cols = list(matrix.rows), list(matrix.cols)
    if set(rows) != set(cols):
        raise InvalidParameter("characteristic polynomial of a non-square matrix")
    if len(rows) > MAX_COFACTOR:
        raise CapacityError(f"cofactor expansion capped at {MAX_COFACTOR}x{MAX_COFACTOR}")
    # polynomial entries as coefficient lists over R, lowest degree first
    zero, one = ring.zero.index, ring.one.index
    grid = []
    for i in rows:
        row = []
        for j in rows:
            a = ring.neg_idx(matrix.entry_idx(i, j))
            row.append([a, one] if i == j else [a])
        grid.append(row)
    coeffs = _det_poly(ring, grid)
    n = len(rows)
    coeffs = coeffs + [zero] * (n + 1 - len(coeffs))
    return CharPoly(ring=ring, coefficients=[ring.element(c) for c in coeffs])


def _poly_add(ring, a, b):
    out = []
    for k in range(max(len(a), len(b))):
        x = a[k] if k < len(a) else ring.zero.index
        y = b[k] if k < len(b) else ring.zero.index
        out.append(ring.add_idx(x, y))
    return out


def _poly_mul(ring, a, b):
    out = [ring.zero.index] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        if x == ring.zero.index:
            continue
        for t, y in enumerate(b):
            out[s + t] = ring.add_idx(out[s + t], ring.mul_idx(x, y))
    return out


def _poly_neg(ring, a):
    return [ring.neg_idx(x) for x in a]


def _det_poly(ring, grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = [ring.zero.index]
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in grid[1:]]
        term = _poly_mul(ring, grid[0][c], _det_poly(ring, minor))
        if c % 2:
            term = _poly_neg(ring, term)
        acc = _poly_add(ring, acc, term)
    return acc


# ---------------------------------------------------------------------------
# general linear group enumeration


def enumerate_gl(ring: FiniteRing, n: int) -> int:
    """Count n x n matrices over R with a two-sided inverse, by enumeration.

    Invertibility of each candidate is decided by solving A·B = E column by
    column and C·A = E row by row over all |R|^n vectors.
    """
    if n < 1:
        raise InvalidParameter("matrix dimension must be >= 1")
    space = _check_space(ring.size, n * n)
    size = ring.size
    zero, one = ring.zero.index, ring.one.index
    unit_cols = [[one if r == c else zero for r in range(n)] for c in range(n)]
    vectors = list(itertools.product(range(size), repeat=n))
    count = 0
    for flat in itertools.product(range(size), repeat=n * n):
        a = [flat[r * n:(r + 1) * n] for r in range(n)]
        if _has_right_inverse(ring, a, n, vectors, unit_cols) and _has_left_inverse(
            ring, a, n, vectors, unit_cols
        ):
            count += 1
    if count > space:
        raise InternalError(f"counted {count} invertible matrices in a space of {space}")
    return count


def _has_right_inverse(ring, a, n, vectors, unit_cols):
    for c in range(n):
        target = unit_cols[c]
        if not any(
            all(_dot(ring, a[r], v) == target[r] for r in range(n)) for v in vectors
        ):
            return False
    return True


def _has_left_inverse(ring, a, n, vectors, unit_cols):
    cols = [[a[r][c] for r in range(n)] for c in range(n)]
    for r in range(n):
        target = unit_cols[r]
        if not any(
            all(_dot(ring, v, cols[c]) == target[c] for c in range(n)) for v in vectors
        ):
            return False
    return True


def _dot(ring, xs, ys):
    acc = ring.zero.index
    for x, y in zip(xs, ys):
        acc = ring.add_idx(acc, ring.mul_idx(x, y))
    return acc


# ---------------------------------------------------------------------------
# inverse by the |GL| power


def inverse_by_power(a: Matrix) -> Matrix | None:
    """A^(-1) as A^(|GL_n(eR)|-1) on each local summand eR; None when singular.

    This is the paper's definability construction: A^|GL| = E in the finite
    group GL_n(eR), so A is invertible iff A·A^(|GL|-1) = E.  It shares no
    code with the elimination of ``matalg.inverse`` and cross-checks it.
    """
    if not a.ring.commutative:
        raise PreconditionViolation("inverse requires a commutative ring")
    if not a.is_square():
        raise InvalidParameter("inverse requires a square matrix")
    ring = a.ring
    n = len(a.rows)
    combined: dict = {}
    for summand in decompose_local(ring):
        a_e = Matrix(summand.ring, a.rows, a.cols, {key: summand.project(v) for key, v in a.entries.items()})
        b_e = mat_pow(a_e, gl_order_local(summand.ring, n) - 1)
        if not mat_mul(a_e, b_e).equals(Matrix.identity(summand.ring, a.rows)):
            return None
        for key, v in b_e.entries.items():
            combined[key] = ring.add_idx(combined.get(key, ring.zero.index), summand.embed(v))
    return Matrix(ring, a.rows, a.cols, combined)


# ---------------------------------------------------------------------------
# axiom checkers


@dataclass
class AxiomReport:
    ok: bool
    failed_axiom: str | None = None
    detail: str = ""


def check_ring_axioms(ring: FiniteRing) -> AxiomReport:
    """Exhaustively verify the ring axioms through the public op interface."""
    n = ring.size
    rng = range(n)
    zero, one = ring.zero.index, ring.one.index
    for x in rng:
        if ring.add_idx(zero, x) != x or ring.add_idx(x, zero) != x:
            return AxiomReport(False, "additive identity", str(x))
        if ring.add_idx(x, ring.neg_idx(x)) != zero:
            return AxiomReport(False, "additive inverses", str(x))
        if ring.mul_idx(one, x) != x or ring.mul_idx(x, one) != x:
            return AxiomReport(False, "multiplicative identity", str(x))
    for x in rng:
        for y in rng:
            if ring.add_idx(x, y) != ring.add_idx(y, x):
                return AxiomReport(False, "addition commutativity", f"{x},{y}")
            if ring.commutative and ring.mul_idx(x, y) != ring.mul_idx(y, x):
                return AxiomReport(False, "multiplication commutativity", f"{x},{y}")
    for x in rng:
        for y in rng:
            axy = ring.add_idx(x, y)
            mxy = ring.mul_idx(x, y)
            for z in rng:
                if ring.add_idx(axy, z) != ring.add_idx(x, ring.add_idx(y, z)):
                    return AxiomReport(False, "addition associativity", f"{x},{y},{z}")
                if ring.mul_idx(mxy, z) != ring.mul_idx(x, ring.mul_idx(y, z)):
                    return AxiomReport(False, "multiplication associativity", f"{x},{y},{z}")
                if ring.mul_idx(x, ring.add_idx(y, z)) != ring.add_idx(
                    ring.mul_idx(x, y), ring.mul_idx(x, z)
                ):
                    return AxiomReport(False, "left distributivity", f"{x},{y},{z}")
                if ring.mul_idx(ring.add_idx(y, z), x) != ring.add_idx(
                    ring.mul_idx(y, x), ring.mul_idx(z, x)
                ):
                    return AxiomReport(False, "right distributivity", f"{x},{y},{z}")
    return AxiomReport(True)


def check_group_axioms(group: AbelianGroup) -> AxiomReport:
    n = group.size
    rng = range(n)
    e = group.identity.index
    for x in rng:
        if group.add_idx(e, x) != x:
            return AxiomReport(False, "group identity", str(x))
        if group.add_idx(x, group.neg_idx(x)) != e:
            return AxiomReport(False, "group inverses", str(x))
    for x in rng:
        for y in rng:
            if group.add_idx(x, y) != group.add_idx(y, x):
                return AxiomReport(False, "group commutativity", f"{x},{y}")
            axy = group.add_idx(x, y)
            for z in rng:
                if group.add_idx(axy, z) != group.add_idx(x, group.add_idx(y, z)):
                    return AxiomReport(False, "group associativity", f"{x},{y},{z}")
    return AxiomReport(True)
