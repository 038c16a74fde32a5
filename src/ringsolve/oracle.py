"""Brute-force oracles: exhaustive, decomposition-free, independent of the solvers.

Nothing here calls into the solver pipeline; only element arithmetic is
shared with the rest of the package, for the |GL|-power inverse also
the local decomposition, ``gl_order_local`` and matrix products, and for the
subset search of minimal generators the maximal ideal and ``ideal_generated``.
Enumeration is exact and capacity errors are hard, never silent sampling.

All four system kinds, and the row combinations of ``enumerate_witnesses``,
go through one search (``_search``).  Each equation becomes a list of
(variable position, lookup array) pairs, where the lookup maps a variable's
value to the element its term contributes, plus the right-hand side.  The
search meets in the middle (Horowitz and Sahni): it splits the variables
into the first half and the rest, tabulates the row sums of every
assignment of the rest through the carrier's elementwise ``add``, sorts
them, and looks up the right-hand sides minus the row sums of every
assignment of the first half (``sub``) among them.  That is about
2·radix**(ell/2) sums instead of radix**ell, and the hits come out in
``itertools.product`` order (first declared variable most significant, last
fastest), exactly the order of a walk over every assignment.  So
``instances_checked`` is still the position of the first satisfying
assignment in that order, plus one, or the whole search space when there is
none, and ``SEARCH_CAP`` still bounds that whole space."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InternalError, InvalidParameter, PreconditionViolation
from .linsys import GroupSystem, LinSystem, NumericalSystem, TwoSidedSystem
from .matalg import CharPoly, Matrix, gl_order_local, mat_mul, mat_pow
from .ring import AbelianGroup, FiniteRing, RingElement
from .structure import decompose_local, ideal_generated, maximal_ideal

SEARCH_CAP = 10**7


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


def _fold(op, acc: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``acc`` (rows, n) combined by ``op`` with each variable of ``table``
    (rows, variables, radix) in turn, the last fastest: (rows, n·radix**variables)."""
    for p in range(table.shape[1]):
        acc = op(acc[:, :, None], table[:, p, None, :]).reshape(len(acc), -1)
    return acc


def _search(carrier, zero: int, radix: int, nvars: int, rows):
    """Yield, in ``itertools.product(range(radix), repeat=nvars)`` order, the
    index of every assignment that satisfies all ``rows``.

    ``rows`` holds ``(terms, rhs)`` with ``terms`` a list of ``(variable
    position, lookup)``, at most one per variable: ``lookup[v]`` is the
    element the term contributes when that variable takes the value v.  A
    variable's value is the digit of the index at weight
    ``radix**(nvars-1-position)``.

    Meet in the middle: the index is ``high·radix**low + low`` for the
    assignments of the first ``nvars // 2`` variables (high) and of the rest
    (low).  Every low assignment's row sums form one key, sorted stably; each
    high assignment, in order, looks up its right-hand sides minus its row
    sums among them and yields its matching lows in ascending order.  Under
    ``SEARCH_CAP`` there are at most sqrt(SEARCH_CAP) high assignments, so
    they are looked up at once; the hits are expanded one high assignment at
    a time, so a caller that stops at the first one expands no more.
    """
    if any(not terms and rhs != zero for terms, rhs in rows):
        return
    rows = [(terms, rhs) for terms, rhs in rows if terms]
    if not rows:
        yield from range(radix**nvars)
        return
    # table[r, p, v]: what row r's term in variable p contributes at the value v
    table = np.full((len(rows), nvars, radix), zero, dtype=np.int64)
    for r, (terms, _) in enumerate(rows):
        for pos, lookup in terms:
            table[r, pos] = lookup
    rhs = np.array([rhs for _, rhs in rows])[:, None]
    high = nvars // 2
    nlow = radix ** (nvars - high)
    # A key packs a block of rows' sums in base |carrier|.  Past the first
    # block the keys so far are replaced by their rank among the low keys (a
    # high key that matches none becomes -1), so that every key stays below
    # nlow·|carrier|**block < 2^62 for any number of rows.
    block = max(1, (62 - nlow.bit_length()) // carrier.size.bit_length())
    weights = np.array([carrier.size**k for k in range(min(block, len(rows)))])
    low_key = high_key = None
    for start in range(0, len(rows), block):
        part = slice(start, start + block)
        w = weights[:len(rows) - start]
        low = w @ _fold(carrier.add, table[part, high], table[part, high + 1:])
        target = w @ _fold(carrier.sub, rhs[part], table[part, :high])
        if low_key is None:
            low_key, high_key = low, target
            continue
        seen, rank = np.unique(low_key, return_inverse=True)
        at = np.minimum(np.searchsorted(seen, high_key), len(seen) - 1)
        base = carrier.size ** len(w)
        low_key = rank * base + low
        high_key = np.where(seen[at] == high_key, at * base + target, -1)
    order = np.argsort(low_key, kind="stable")
    low_key = low_key[order]
    first = np.searchsorted(low_key, high_key, "left")
    last = np.searchsorted(low_key, high_key, "right")
    for h in (first < last).nonzero()[0].tolist():
        yield from (order[first[h]:last[h]] + h * nlow).tolist()


def _digits(index: int, radix: int, nvars: int) -> list[int]:
    """The assignment at ``index`` in product order, first variable first."""
    values = []
    for _ in range(nvars):
        index, v = divmod(index, radix)
        values.append(v)
    return values[::-1]


def _term_lookups(system) -> dict:
    """{(row, column): lookup} for every term of the system, where
    ``lookup[v]`` is the element the term contributes when the variable is v."""
    carrier = system.carrier
    elems = np.arange(carrier.size)
    if isinstance(system, TwoSidedSystem):
        lookups = {key: carrier.mul(c, elems) for key, c in system.left.items()}
        for (j, i), c in system.right.items():
            x_c = carrier.mul(elems, c)
            lookups[(i, j)] = carrier.add(lookups[(i, j)], x_c) if (i, j) in lookups else x_c
        return lookups
    if isinstance(system, LinSystem):
        return {key: carrier.mul(c, elems) for key, c in system.entries.items()}
    if isinstance(system, GroupSystem):
        d = carrier.exponent()
        return {key: carrier.scalar(c % d, elems) for key, c in system.entries.items()}
    # NumericalSystem: the variables are the integers below the group's exponent
    values = np.arange(carrier.exponent())
    return {key: carrier.scalar(values, g) for key, g in system.entries.items()}


def brute_force_solve(system) -> OracleReport:
    """Decide solvability by enumerating every assignment in product order."""
    if not isinstance(system, (LinSystem, GroupSystem, TwoSidedSystem, NumericalSystem)):
        raise InvalidParameter(f"cannot solve object of type {type(system).__name__}")
    carrier, cols = system.carrier, system.cols
    numerical = isinstance(system, NumericalSystem)
    radix = carrier.exponent() if numerical else carrier.size
    space = _check_space(radix, len(cols))
    lookups = _term_lookups(system)
    rows = [
        ([(pos, lookups[(i, j)]) for pos, j in enumerate(cols) if (i, j) in lookups], system.rhs_idx(i))
        for i in system.rows
    ]
    hit = next(_search(carrier, system._zero, radix, len(cols), rows), None)
    if hit is None:
        return OracleReport(False, None, space)
    values = _digits(hit, radix, len(cols))
    if not numerical:
        values = [carrier.element(v) for v in values]
    return OracleReport(True, dict(zip(cols, values)), hit + 1)


def enumerate_witnesses(system: LinSystem, target_tail_idx: int):
    """All row combinations x with x·(A|b) = (0,...,0,tail), in product order
    over the rows; exhaustive."""
    ring = system.ring
    rows = list(system.rows)
    _check_space(ring.size, len(rows))
    elems = np.arange(ring.size)
    zero, entries = ring.zero.index, system.entries
    equations = [
        ([(pos, ring.mul(elems, entries[(i, j)])) for pos, i in enumerate(rows) if (i, j) in entries], zero)
        for j in system.cols
    ]
    tail = [(pos, ring.mul(elems, system.b[i])) for pos, i in enumerate(rows) if i in system.b]
    equations.append((tail, target_tail_idx))
    return [
        {i: ring.element(v) for i, v in zip(rows, _digits(hit, ring.size, len(rows)))}
        for hit in _search(ring, zero, ring.size, len(rows), equations)
    ]


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
    grid = [[[matrix.entry_idx(i, j)] for j in cols] for i in rows]
    return ring.element(_det_poly(ring, grid)[0])


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


def charpoly_berkowitz(matrix: Matrix) -> CharPoly:
    """det(X·E - A) by Berkowitz's division-free recursion: commutative
    rings, any size, O(n^4) scalar ring operations.

    Let B be the leading (k-1) x (k-1) block of the leading k x k block, a
    its corner, R and C the rest of its last row and column.  The k x k
    block's coefficients, highest first, are T times B's, where T is
    lower-triangular Toeplitz with first column 1, -a, -R·C, -R·B·C, ...,
    -R·B^(k-2)·C.
    """
    ring = matrix.ring
    rows = list(matrix.rows)
    if not ring.commutative or set(rows) != set(matrix.cols):
        raise InvalidParameter("Berkowitz characteristic polynomial requires a square matrix over a commutative ring")
    grid = [[matrix.entry_idx(i, j) for j in rows] for i in rows]

    def dot(x, y):
        return functools.reduce(ring.add_idx, map(ring.mul_idx, x, y), ring.zero.index)

    poly = [ring.one.index]
    for k, row in enumerate(grid):
        toeplitz = [ring.one.index, ring.neg_idx(row[k])]
        column = [grid[i][k] for i in range(k)]
        for _ in range(k):
            toeplitz.append(ring.neg_idx(dot(row[:k], column)))
            column = [dot(grid[i][:k], column) for i in range(k)]
        poly = [dot(toeplitz[i::-1], poly) for i in range(k + 2)]
    return CharPoly(ring=ring, coefficients=[ring.element(c) for c in reversed(poly)])


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
    combined = np.full(a.A.shape, ring.zero.index, dtype=np.int64)
    for summand in decompose_local(ring):
        a_e = Matrix._from_arrays(summand.ring, a.rows, a.cols, A=summand.proj[a.A])
        b_e = mat_pow(a_e, gl_order_local(summand.ring, n) - 1)
        if not mat_mul(a_e, b_e).equals(Matrix.identity(summand.ring, a.rows)):
            return None
        combined = ring.add(combined, summand.members[b_e.A])
    return Matrix._from_arrays(ring, a.rows, a.cols, A=combined)


# ---------------------------------------------------------------------------
# minimal generators by subset search


def minimal_generators_by_search(ring: FiniteRing) -> tuple[RingElement, ...]:
    """The lexicographically first minimal generating tuple of the maximal ideal,
    smallest k first, by trying every subset; it cross-checks the Nakayama
    scan of ``structure.minimal_generators_maximal_ideal``."""
    m = maximal_ideal(ring)
    if m == {ring.zero.index}:
        return ()
    members = sorted(m)
    for k in range(1, len(members) + 1):
        for combo in itertools.combinations(members, k):
            if ideal_generated(ring, combo) == m:
                return tuple(ring.element(i) for i in combo)
    raise InternalError("maximal ideal admits no generating set")


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
