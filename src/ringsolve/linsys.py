"""Linear equation systems over rings and groups, with certified solvers.

Systems carry unordered row/column id sets; coefficients are element indices
held in a dense grid.  The chain-ring solver produces either a satisfying
assignment or a row-combination witness x with x·(A|b) = (0,...,0,pi^(n-1)),
and the composed solvers reduce arbitrary commutative rings, abelian groups
and two-sided non-commutative systems to that case.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InternalError,
    InvalidCertificate,
    InvalidParameter,
    PreconditionViolation,
    Unsupported,
    quote,
)
from .ring import (AbelianGroup, FiniteRing, GroupElement, RingElement, _index_dtype, _memo, cached_zmod, factorize,
                   group_decompose_cyclic)
from .structure import ChainData, chain_data, decompose_local, default_order


def _norm_idx(value, carrier) -> int:
    if isinstance(value, (RingElement, GroupElement)):
        owner = value.ring if isinstance(value, RingElement) else value.group
        if owner is not carrier:
            raise InvalidParameter("entry belongs to a different ring/group")
        return value.index
    if isinstance(value, int):
        if not 0 <= value < carrier.size:
            raise InvalidParameter(f"element index {value} out of range")
        return value
    raise InvalidParameter(f"cannot interpret {value!r} as an element")


def _identity_grid(ring: FiniteRing, n: int) -> np.ndarray:
    grid = np.full((n, n), ring.zero.index, dtype=np.int64)
    np.fill_diagonal(grid, ring.one.index)
    return grid


def _by_str(ids: list) -> list[int]:
    """Positions of ``ids`` in the order of their string forms (stable)."""
    return sorted(range(len(ids)), key=lambda n: str(ids[n]))


class _Indexed:
    """Row and column ids over a carrier and a dense grid of coefficients.

    Shared by systems and matrices, which are not modified after
    construction.  The grid ``A`` (rows x cols, in id order) is the one
    stored form: the public constructors write it while they check a sparse
    {(row, col): value} mapping (``_coefficients``); ``_from_arrays`` takes
    valid index arrays unchecked.  The sparse ``entries`` (zeros dropped,
    row-major) are read from the grid on first use.
    """

    def _set_ids(self, carrier, rows: Sequence, cols: Sequence):
        if not rows or not cols:
            raise InvalidParameter("row and column id sets must be non-empty")
        self.carrier = carrier
        self.rows = list(dict.fromkeys(rows))
        self.cols = list(dict.fromkeys(cols))
        self._zero = carrier.zero.index if isinstance(carrier, FiniteRing) else carrier.identity.index

    @classmethod
    def _from_arrays(cls, carrier, rows: list, cols: list, **grids):
        """An instance from distinct ids and grids of valid values (``A``,
        ``b_vec``, ``A_r``), unchecked."""
        self = cls.__new__(cls)
        self.carrier, self.rows, self.cols = carrier, rows, cols
        self._zero = carrier.zero.index if isinstance(carrier, FiniteRing) else carrier.identity.index
        self.__dict__.update(grids)
        return self

    def _zero_coef(self):
        """The coefficient that means "no term"."""
        return self._zero

    def _coerce(self, value) -> int:
        """A coefficient as stored: an element index of the carrier."""
        return _norm_idx(value, self.carrier)

    def _coefficients(self, mapping: Mapping, transposed: bool = False) -> np.ndarray:
        """The rows x cols grid of a validated {(row, col): value} mapping,
        keyed (col, row) if ``transposed``; absent keys are zero."""
        width = len(self.cols)
        row_at = dict(zip(self.rows, range(0, len(self.rows) * width, width)))
        col_at = dict(zip(self.cols, range(width)))
        coerce, bound = self._coerce, self._bound()
        flat = [self._zero_coef()] * (len(self.rows) * width)
        for (i, j), v in mapping.items():
            if transposed:
                i, j = j, i
            try:
                cell = row_at[i] + col_at[j]
            except KeyError:
                raise InvalidParameter(f"entry ({i!r},{j!r}) outside the index sets") from None
            flat[cell] = v if v.__class__ is int and 0 <= v < bound else coerce(v)
        return np.array(flat, dtype=self._dtype(flat)).reshape(len(self.rows), width)

    def _bound(self):
        """Plain ints below this bound are valid coefficients as they are."""
        return self.carrier.size

    def _dtype(self, values):
        return _index_dtype(self.carrier.size)

    def _sparse(self, grid: np.ndarray, transposed: bool = False) -> dict:
        """The nonzero cells of a grid as {(row, col): value}, keyed (col, row)
        if ``transposed``."""
        r, c = np.nonzero(grid != self._zero_coef())
        values = grid[r, c].tolist()
        rows, cols = map(self.rows.__getitem__, r.tolist()), map(self.cols.__getitem__, c.tolist())
        return dict(zip(zip(cols, rows) if transposed else zip(rows, cols), values))

    @functools.cached_property
    def entries(self) -> dict:
        return self._sparse(self.A)

    def entry_idx(self, i, j) -> int:
        return self.entries.get((i, j), self._zero_coef())

    def entry(self, i, j) -> RingElement:
        return self.carrier.element(self.entry_idx(i, j))

    def _row_texts(self, rpos: list, cpos: list, names: list) -> list[list[str]]:
        """The term texts of the rows at ``rpos``, columns in ``cpos`` order."""
        text, zero = self.carrier.names, self._zero_coef()
        return [[f"{text[c]}*{name}" for c, name in zip(row, names) if c != zero]
                for row in self.A[np.ix_(rpos, cpos)].tolist()]


class _System(_Indexed):
    """What every system kind shares: ids, right-hand side, evaluation, text.

    ``b_vec`` stores the right-hand side, one element index per row; ``b``
    (sparse, zeros dropped) is read from it on first use.  Subclasses supply
    the header ``keyword``, the coefficient coercion, the terms and the text.
    """

    keyword: str

    def __init__(self, carrier, rows: Sequence, cols: Sequence, b: Mapping):
        self._set_ids(carrier, rows, cols)
        row_at = dict(zip(self.rows, range(len(self.rows))))
        self.b_vec = np.full(len(self.rows), self._zero, dtype=_index_dtype(carrier.size))
        for i, v in b.items():
            if i not in row_at:
                raise InvalidParameter(f"rhs for unknown row {i!r}")
            self.b_vec[row_at[i]] = _norm_idx(v, carrier)

    @functools.cached_property
    def b(self) -> dict:
        nz = np.nonzero(self.b_vec != self._zero)[0]
        return dict(zip(map(self.rows.__getitem__, nz.tolist()), self.b_vec[nz].tolist()))

    def _values(self, assignment: Mapping) -> np.ndarray:
        """Variable values as carrier element indices, in column order."""
        carrier = self.carrier
        return np.array([_norm_idx(assignment[j], carrier) for j in self.cols], dtype=np.int64)

    def rhs_idx(self, i) -> int:
        return self.b.get(i, self._zero)

    def eval(self, assignment: Mapping) -> bool:
        missing = [j for j in self.cols if j not in assignment]
        if missing:
            raise InvalidParameter(f"assignment misses variables {sorted(missing, key=str)}")
        return bool((self._lhs(self._values(assignment)) == self.b_vec).all())

    def _lhs(self, x: np.ndarray) -> np.ndarray:
        """The left-hand side of every row at the value vector x."""
        return self.carrier.row_sum(self._terms(x))

    def _terms(self, x: np.ndarray) -> np.ndarray:
        """The grid of terms A(i,j)·x_j for the value vector x."""
        return self.carrier.mul(self.A, x)

    def eq_lines(self, row_name=str, col_name=str) -> list[str]:
        """One ``eq`` line per row, rows and columns sorted by their string
        form and named through ``row_name``/``col_name``."""
        rpos, cpos = _by_str(self.rows), _by_str(self.cols)
        names = [col_name(self.cols[n]) for n in cpos]
        fmt, rhs = self.carrier.names, self.b_vec.tolist()
        return [f"eq {row_name(self.rows[n])}: {' + '.join(terms) if terms else '0'} = {fmt[rhs[n]]}"
                for n, terms in zip(rpos, self._row_texts(rpos, cpos, names))]

    def canonical_text(self) -> str:
        return "\n".join([f"{self.keyword} {self.carrier.spec}", *self.eq_lines()])

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def __repr__(self):
        return f"{type(self).__name__}({self.carrier.spec}, {len(self.rows)}x{len(self.cols)})"


class LinSystem(_System):
    """A·x = b over a finite ring, with opaque row/column ids."""

    keyword = "ring"
    ring = property(lambda self: self.carrier)

    def __init__(self, ring: FiniteRing, rows: Sequence, cols: Sequence,
                 entries: Mapping, b: Mapping):
        super().__init__(ring, rows, cols, b)
        self.A = self._coefficients(entries)


class GroupSystem(_System):
    """A·x = b over an abelian group: integer coefficients, group-valued variables.

    The normal form has 0/1 coefficients; arbitrary non-negative integers are
    accepted and treated as repeated summands.
    """

    keyword = "group"

    def __init__(self, group: AbelianGroup, rows: Sequence, cols: Sequence,
                 entries: Mapping, b: Mapping):
        super().__init__(group, rows, cols, b)
        self.A = self._coefficients(entries)

    group = property(lambda self: self.carrier)

    def _coerce(self, value) -> int:
        if not isinstance(value, int) or value < 0:
            raise InvalidParameter("group-system coefficients are non-negative integers")
        return value

    def _zero_coef(self):
        return 0

    def _bound(self):
        return math.inf

    def _dtype(self, values):
        return np.int64 if max(values, default=0) < 2**63 else object

    def _terms(self, x: np.ndarray) -> np.ndarray:
        return self.carrier.scalar((self.A % self.carrier.size).astype(np.int64), x)

    def _row_texts(self, rpos: list, cpos: list, names: list) -> list[list[str]]:
        return [[f"{c}*{name}" for c, name in zip(row, names) if c]
                for row in self.A[np.ix_(rpos, cpos)].tolist()]


class TwoSidedSystem(_System):
    """A_l·x + (x^t·A_r)^t = b over a possibly non-commutative ring.

    It stores the grids ``A`` and ``A_r``, both rows x cols; ``left`` and
    ``right`` (keyed (column, row)) are read from them on first use.
    """

    keyword = "twosided"
    ring = property(lambda self: self.carrier)
    entries = property(doc="Two-sided systems keep ``left`` and ``right`` instead.")

    def __init__(self, ring: FiniteRing, rows: Sequence, cols: Sequence,
                 left: Mapping, right: Mapping, b: Mapping):
        super().__init__(ring, rows, cols, b)
        self.A = self._coefficients(left)
        self.A_r = self._coefficients(right, transposed=True)

    @functools.cached_property
    def left(self) -> dict:
        return self._sparse(self.A)

    @functools.cached_property
    def right(self) -> dict:
        return self._sparse(self.A_r, transposed=True)

    def _terms(self, x: np.ndarray) -> np.ndarray:
        ring = self.carrier
        return ring.add(ring.mul(self.A, x), ring.mul(x, self.A_r))

    def _row_texts(self, rpos: list, cpos: list, names: list) -> list[list[str]]:
        fmt, zero, cells = self.carrier.names, self._zero, np.ix_(rpos, cpos)
        texts = []
        for left, right in zip(self.A[cells].tolist(), self.A_r[cells].tolist()):
            terms = []
            for lc, rc, name in zip(left, right, names):
                if lc != zero:
                    terms.append(f"{fmt[lc]}*{name}")
                if rc != zero:
                    terms.append(f"{name}*{fmt[rc]}")
            texts.append(terms)
        return texts


class NumericalSystem(_System):
    """sum_j x_j·A(i,j) = b(i) with group-element coefficients and integer variables.

    This is the carrier produced by the two-sided reduction: variables take
    integer values acting on the additive group (R,+) as a Z-module.
    """

    keyword = "numerical"

    def __init__(self, group: AbelianGroup, rows: Sequence, cols: Sequence,
                 entries: Mapping, b: Mapping):
        super().__init__(group, rows, cols, b)
        self.A = self._coefficients(entries)

    group = property(lambda self: self.carrier)

    def _values(self, assignment: Mapping) -> np.ndarray:
        values = [assignment[j] for j in self.cols]
        if not all(isinstance(v, int) for v in values):
            raise InvalidParameter("numerical-system assignments are integers")
        # size·a = 0 for every group element a
        return np.array([v % self.carrier.size for v in values], dtype=np.int64)

    def _terms(self, x: np.ndarray) -> np.ndarray:
        return self.carrier.scalar(x, self.A)


def eval_system(system, assignment: Mapping) -> bool:
    """True iff the total assignment satisfies every equation."""
    return system.eval(assignment)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class UnsolvableWitness:
    """Replayable unsolvability evidence over a reduced chain system.

    ``summand`` identifies the failing component ("chain" when the system is
    already a chain system, the base idempotent's name for commutative rings,
    or "p=<prime>" for group/two-sided reductions).  ``digest`` pins the
    reduced system the row combination lives on.
    """

    summand: str
    chain_spec: str
    digest: str
    rows: dict


@dataclass
class Certificate:
    verdict: str  # "SOLVABLE" | "UNSOLVABLE"
    assignment: dict | None = None
    witness: UnsolvableWitness | None = None
    reduced: object = field(default=None, repr=False)  # convenience, not serialised

    @property
    def solvable(self) -> bool:
        return self.verdict == "SOLVABLE"


# ---------------------------------------------------------------------------
# chain-ring machinery


@_memo
def _chain_valuations(ring: FiniteRing) -> np.ndarray:
    """val[x] = largest t <= n with x in pi^t·R (val[0] = n), over a chain ring."""
    cd = chain_data(ring)
    elems = np.arange(ring.size)
    val = np.zeros(ring.size, dtype=np.int64)
    power = ring.one.index
    for t in range(1, cd.n + 1):
        power = ring.mul_idx(power, cd.pi.index)
        val[ring.mul(power, elems)] = t
    return val


@_memo
def _pivot_order(ring: FiniteRing) -> np.ndarray:
    """Pivot preference per element: valuation, then element index; zero
    gets (n + 1)·size and never pivots."""
    order = _chain_valuations(ring) * ring.size + np.arange(ring.size)
    order[ring.zero.index] = (chain_data(ring).n + 1) * ring.size
    return order


_DIVIDER_CELLS = 1 << 20  # table cells kept per ring by _divider


@_memo
def _divider(ring: FiniteRing):
    """divide(by, x): the least z with by·z = x, elementwise over x.

    One lookup table per divisor, built on first use and kept in the ring's
    one closure while its tables hold fewer than _DIVIDER_CELLS cells.
    """
    tables = {}

    def divide(by, x):
        by = int(by)
        table = tables.get(by)
        if table is None:
            elems = np.arange(ring.size)
            table = np.full(ring.size, ring.size, dtype=np.int64)
            np.minimum.at(table, ring.mul(by, elems), elems)
            if (len(tables) + 1) * ring.size <= _DIVIDER_CELLS:
                tables[by] = table
        z = table[x]
        if np.count_nonzero(z == ring.size):
            bad = int(np.extract(z == ring.size, x)[0])
            raise InternalError(f"{ring.format_element(by)} does not divide {ring.format_element(bad)}")
        return z

    return divide


@dataclass
class HermiteResult:
    """S·A·T = (Q over zero rows) with a divisibility chain on the diagonal."""

    ring: FiniteRing
    row_ids: list
    col_ids: list
    S: list[list[int]]
    col_perm: list[int]  # col_perm[new] = position in col_ids
    Q: list[list[int]]
    diag: list[int]

    @property
    def rank(self) -> int:
        return len(self.diag)


def _require_chain(ring: FiniteRing) -> ChainData:
    if not ring.commutative:
        raise PreconditionViolation("chain-ring operations require a commutative ring")
    cd = chain_data(ring)
    if cd is None:
        raise PreconditionViolation(f"{ring.spec} is not a chain ring")
    return cd


def _hermite(ring: FiniteRing, blocks: list[np.ndarray], ell: int):
    """Triangularise the first ``ell`` columns of the blocks side by side, in
    place and packed as by LAPACK's getrf; columns past ``ell`` ride along.

    The pivot of each step is the nonzero entry of the remaining block with
    the least (valuation, element index, row, column).  The rows below it
    with a nonzero entry in its column are cleared in one broadcast update
    right of it, each keeping its multiplier in the cleared cell, and row
    swaps move whole rows: the strict lower part of the first ``rank``
    columns is a unit lower triangular L with L·(the result) = the input
    rows in ``rows`` order.  Returns (a, rows, col_perm, rank, swap parity).
    """
    zero = ring.zero.index
    order, divide = _pivot_order(ring), _divider(ring)
    no_pivot = order[zero]
    k = blocks[0].shape[0]
    a = np.concatenate(blocks, axis=1, dtype=np.int64)
    rows, perm = list(range(k)), list(range(ell))
    t = swaps = 0
    for step in range(min(k, ell)):
        key = order[a[step:, step:ell]]
        r, c = divmod(int(key.argmin()), ell - step)
        if key[r, c] == no_pivot:
            break
        r, c = r + step, c + step
        if r != step:
            a[step], a[r] = a[r], a[step].copy()
            rows[step], rows[r] = rows[r], rows[step]
            swaps ^= 1
        if c != step:
            a[:, step], a[:, c] = a[:, c], a[:, step].copy()
            perm[step], perm[c] = perm[c], perm[step]
            swaps ^= 1
        below = (a[step + 1:, step] != zero).nonzero()[0] + (step + 1)
        if below.size:
            sub = a[below, step:]
            sub[:, 0] = divide(a[step, step], sub[:, 0])
            ring.sub_mul(sub[:, 1:], sub[:, :1], a[step, step + 1:])
            a[below, step:] = sub
        t += 1
    if np.count_nonzero(a[t:, t:ell] != zero):
        raise InternalError("elimination left a nonzero residual row")
    return a, rows, perm, t, swaps


def _solve_lower(ring: FiniteRing, a: np.ndarray, t: int, x: np.ndarray, steps) -> np.ndarray:
    """Solve y·L = x in place for one row x or a stack, L packed by _hermite:
    x[:c] -= x[i]·L[i, :c], c = min(i, t), for each row i of L in ``steps``,
    upward; rows of L whose entry of x is zero may be left out."""
    for i in steps:
        ring.sub_mul(x[..., :min(i, t)], x[..., i, None], a[i, :min(i, t)])
    return x


def hermite_normal_form(matrix) -> HermiteResult:
    """Triangularise a matrix (or a system's coefficients) over a chain
    ring: S·A·T = (Q ; 0), S = L^(-1)·P solved from the multipliers."""
    ring = matrix.ring
    _require_chain(ring)
    ell = len(matrix.cols)
    a, rows, perm, t, _ = _hermite(ring, [matrix.A], ell)
    s = np.empty((len(rows), len(rows)), dtype=np.int64)
    s[:, rows] = _solve_lower(ring, a, t, _identity_grid(ring, len(rows)), range(len(rows) - 1, 0, -1))
    q = np.where(np.tri(t, ell, -1, dtype=bool), ring.zero.index, a[:t, :ell])
    return HermiteResult(ring=ring, row_ids=list(matrix.rows), col_ids=list(matrix.cols), S=s.tolist(),
                         col_perm=perm, Q=q.tolist(), diag=a.diagonal()[:t].tolist())


def solve_chain(system: LinSystem) -> Certificate:
    """Solve over a chain ring via Hermite normal form.

    SOLVABLE certificates carry a back-substituted assignment (free
    variables 0); UNSOLVABLE ones a row combination x with
    x·(A|b) = (0,...,0,pi^(n-1)): the first failing row of S, scaled.
    """
    ring = system.ring
    cd = _require_chain(ring)
    rows, cols = system.rows, system.cols
    k, ell = len(rows), len(cols)
    divide = _divider(ring)
    # b rides along as column ell, so it ends up as S·b
    a, order, perm, t, _ = _hermite(ring, [system.A, system.b_vec[:, None]], ell)
    bprime, diag = a[:, ell], a.diagonal()[:t]
    val = _chain_valuations(ring)
    diag_val = np.full(k, cd.n)
    diag_val[:t] = val[diag]
    failing = (val[bprime] < diag_val).nonzero()[0]
    if failing.size:
        # the first failing transformed row is a certificate of unsolvability
        r = int(failing[0])
        # x·L = scaling·e_r: only row r and the rows above rank reach x
        x = np.full(k, ring.zero.index, dtype=np.int64)
        x[r] = divide(bprime[r], cd.tail)
        combo = np.empty_like(x)
        combo[order] = _solve_lower(ring, a, t, x, (r, *range(min(r, t) - 1, 0, -1)))
        names = map(ring.names.__getitem__, combo.tolist())
        witness = UnsolvableWitness("chain", ring.spec, system.digest(), dict(zip(rows, names)))
        _assert_witness(system, combo, cd.tail)
        return Certificate("UNSOLVABLE", witness=witness, reduced=system)
    values = np.full(ell, ring.zero.index, dtype=np.int64)
    rhs = bprime[:t].copy()
    for r in range(t - 1, -1, -1):
        values[r] = divide(diag[r], rhs[r])
        if r:
            ring.sub_mul(rhs[:r], values[r], a[:r, r])
    assignment = {cols[pos]: ring.element(v) for pos, v in zip(perm, values.tolist())}
    if not system.eval(assignment):
        raise InternalError("back-substituted assignment fails the system")
    return Certificate("SOLVABLE", assignment=assignment)


def _assert_witness(system: LinSystem, combo: np.ndarray, tail: int):
    """InternalError unless combo·(A|b) = (0,...,0,tail); combo in row order."""
    ring = system.ring
    ab = np.concatenate([system.A, system.b_vec[:, None]], axis=1)
    acc = ring.row_sum(ring.mul(np.asarray(combo)[:, None], ab).T)
    if (acc[:-1] != ring.zero.index).any():
        raise InternalError("witness does not annihilate the coefficient columns")
    if acc[-1] != tail:
        raise InternalError("witness misses the pi^(n-1) tail")


def check_witness(system: LinSystem, rows: Mapping) -> bool:
    """Does x·(A|b) = (0,...,0,pi^(n-1)) hold for the given row combination?"""
    ring = system.ring
    cd = _require_chain(ring)
    if set(rows) != set(system.rows):
        raise InvalidCertificate("witness rows do not match the system's rows")
    combo = [_norm_idx(rows[i], ring) for i in system.rows]
    try:
        _assert_witness(system, combo, cd.tail)
    except InternalError:
        return False
    return True


# ---------------------------------------------------------------------------
# composed solvers


def solve_commutative(system: LinSystem) -> Certificate:
    """Decide solvability over any finite commutative ring.

    Pipeline: local decomposition, canonical order per summand, reduction to
    the cyclic group Z_{p^a}, Hermite solve; assignments are mapped back
    through every reduction.
    """
    from . import reductions

    ring = system.ring
    if not ring.commutative:
        raise Unsupported("solve_commutative requires a commutative ring")
    total = {j: ring.zero.index for j in system.cols}
    for summand in decompose_local(ring):
        sub = reductions.project_to_local(system, summand.e)
        order = default_order(summand.ring)
        red = reductions.ring_to_cyclic(sub, order)
        cert = solve_chain(red.target)
        if not cert.solvable:
            witness = replace(cert.witness, summand=summand.e.name)
            return Certificate("UNSOLVABLE", witness=witness, reduced=red.target)
        back = red.backward(cert.assignment)
        for j, elem in back.items():
            total[j] = ring.add_idx(total[j], summand.embed(elem.index))
    assignment = {j: ring.element(v) for j, v in total.items()}
    if not system.eval(assignment):
        raise InternalError("recombined assignment fails the source system")
    return Certificate("SOLVABLE", assignment=assignment)


@dataclass
class _Congruences:
    """Rows sum_v c(r,v)·x_v = rhs(r) (mod mods(r)) over integer variables.

    ``grid`` holds the coefficients (rows x variables); ``present`` marks the
    pairs the source system mentions, which fixes the column order of the
    lifted chain systems also where a coefficient vanishes.
    """

    rows: list
    mods: np.ndarray
    grid: np.ndarray
    present: np.ndarray
    rhs: np.ndarray
    variables: list

    def primes(self) -> list[int]:
        return sorted({p for m in set(self.mods.tolist()) for p, _ in factorize(m)})


def _lift_prime_part(cong: _Congruences, p: int) -> LinSystem:
    """The rows whose modulus the prime p divides (at least one), lifted to one
    chain system over Z/p^cap.  A row mod p^a is multiplied by p^(cap-a).
    Columns are the variables in the order of their first mention, scanning
    those rows in order.
    """
    sel = np.flatnonzero(cong.mods % p == 0)
    exps = np.array([_pval(m, p) for m in cong.mods[sel].tolist()])
    cap = int(exps.max())
    q, lift = p**cap, p ** (cap - exps)
    present = cong.present[sel]
    order = np.argsort(present.argmax(axis=0), kind="stable")
    order = order[present.any(axis=0)[order]]
    if order.size:
        cols, grid = [cong.variables[v] for v in order.tolist()], cong.grid[sel][:, order] * lift[:, None] % q
    else:
        # rows constrain no variable; keep a placeholder column
        cols, grid = [("free", p)], np.zeros((sel.size, 1), dtype=np.int64)
    rows = [cong.rows[r] for r in sel.tolist()]
    return LinSystem._from_arrays(cached_zmod(q), rows, cols, A=grid, b_vec=cong.rhs[sel] * lift % q)


def _solve_congruences(cong: _Congruences) -> dict | Certificate:
    """Solve the congruences over the integers, one prime at a time.

    Returns the assignment var -> int, or the UNSOLVABLE certificate of the
    first prime whose lifted chain system is unsolvable.
    """
    assignment: dict = {}
    for p in cong.primes():
        chain_sys = _lift_prime_part(cong, p)
        cert = solve_chain(chain_sys)
        if not cert.solvable:
            witness = replace(cert.witness, summand=f"p={p}")
            return Certificate("UNSOLVABLE", witness=witness, reduced=chain_sys)
        for var, elem in cert.assignment.items():
            assignment.setdefault(var, {})[chain_sys.ring.size] = elem.index
    return {var: _crt(residues) for var, residues in assignment.items()}


def _pval(m: int, p: int) -> int:
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    return a


def _crt(residues: dict[int, int]) -> int:
    x, mod = 0, 1
    for m, r in sorted(residues.items()):
        if math.gcd(mod, m) != 1:
            raise InternalError(f"CRT moduli {mod} and {m} are not coprime")
        inv = pow(mod, -1, m)
        x = x + mod * ((r - x) * inv % m)
        mod *= m
    return x % mod


def _congruences(system) -> tuple:
    """Split a group or numerical system along the invariant-factor
    decomposition of its group: row (i, t) is coordinate t of equation i,
    modulo l_t; factors of order 1 give no rows.  A group system's variable j
    splits into one variable (j, t) per factor; a numerical system keeps its
    variables and splits its coefficients into their coordinates.
    """
    decomp = group_decompose_cyclic(system.group)
    ts = [t for t, order in enumerate(decomp.orders) if order != 1]
    orders = np.array([decomp.orders[t] for t in ts], dtype=np.int64)
    n, ell, k = len(system.rows), len(system.cols), len(ts)
    if isinstance(system, GroupSystem):
        diag = np.arange(k)
        grid = np.zeros((n, k, ell, k), dtype=np.int64)
        present = np.zeros((n, k, ell, k), dtype=bool)
        grid[:, diag, :, diag] = (system.A % orders[:, None, None]).astype(np.int64)
        present[:, diag, :, diag] = system.A != 0
        grid, present = grid.reshape(n * k, ell * k), present.reshape(n * k, ell * k)
        variables = [(j, t) for j in system.cols for t in ts]
    else:
        grid = decomp.coords[system.A][:, :, ts].transpose(0, 2, 1).reshape(n * k, ell)
        present, variables = grid != 0, system.cols
    rhs = decomp.coords[system.b_vec][:, ts].ravel()
    rows = [(i, t) for i in system.rows for t in ts]
    return decomp, _Congruences(rows, np.tile(orders, n), grid, present, rhs, variables)


def solve_group(system: GroupSystem) -> Certificate:
    """Decide solvability over an abelian group via its cyclic decomposition."""
    decomp, cong = _congruences(system)
    group = system.group
    if not cong.rows:
        assignment = {j: group.identity for j in system.cols}
        return Certificate("SOLVABLE", assignment=assignment)
    values = _solve_congruences(cong)
    if isinstance(values, Certificate):
        return values
    assignment = {}
    for j in system.cols:
        coords = [values.get((j, t), 0) for t in range(len(decomp.pairs))]
        assignment[j] = group.element(decomp.element_of(coords))
    if not system.eval(assignment):
        raise InternalError("group assignment fails the source system")
    return Certificate("SOLVABLE", assignment=assignment)


def solve_numerical(system: NumericalSystem) -> Certificate:
    """Solve an integer-variable system over a Z_d-module."""
    _, cong = _congruences(system)
    if not cong.rows:
        return Certificate("SOLVABLE", assignment={j: 0 for j in system.cols})
    values = _solve_congruences(cong)
    if isinstance(values, Certificate):
        return values
    assignment = {j: values.get(j, 0) for j in system.cols}
    if not system.eval(assignment):
        raise InternalError("numerical assignment fails the source system")
    return Certificate("SOLVABLE", assignment=assignment)


def solve_twosided(system: TwoSidedSystem) -> Certificate:
    """Decide a two-sided system by passing to its numerical form."""
    from . import reductions

    red = reductions.twosided_to_numerical(system)
    cert = solve_numerical(red.target)
    if not cert.solvable:
        return Certificate("UNSOLVABLE", witness=cert.witness, reduced=cert.reduced)
    assignment = red.backward(cert.assignment)
    if not system.eval(assignment):
        raise InternalError("mapped-back two-sided assignment fails the source system")
    return Certificate("SOLVABLE", assignment=assignment)


def solve(system) -> Certificate:
    """Dispatch to the solver matching the system type."""
    if isinstance(system, LinSystem):
        if system.ring.commutative:
            return solve_commutative(system)
        raise Unsupported("plain linear systems over non-commutative rings: use TwoSidedSystem")
    if isinstance(system, GroupSystem):
        return solve_group(system)
    if isinstance(system, TwoSidedSystem):
        return solve_twosided(system)
    if isinstance(system, NumericalSystem):
        return solve_numerical(system)
    raise InvalidParameter(f"cannot solve object of type {type(system).__name__}")


# ---------------------------------------------------------------------------
# certificate verification


def verify_certificate(system, cert: Certificate) -> bool:
    """Replay a certificate: evaluate a solution or re-run the reduction and
    check the witness identity on the reduced chain system."""
    if cert.verdict == "SOLVABLE":
        if cert.assignment is None:
            raise InvalidCertificate("solvable certificate without an assignment")
        if set(cert.assignment) != set(system.cols):
            raise InvalidCertificate("assignment variables do not match the system")
        try:
            return system.eval(cert.assignment)
        except InvalidParameter as exc:
            raise InvalidCertificate(str(exc))
    if cert.verdict != "UNSOLVABLE":
        raise InvalidCertificate(f"unknown verdict {cert.verdict!r}")
    if cert.witness is None:
        raise InvalidCertificate("unsolvable certificate without a witness")
    reduced = _replay_reduction(system, cert.witness)
    if reduced.ring.spec != cert.witness.chain_spec or reduced.digest() != cert.witness.digest:
        return False
    # file-parsed witnesses carry stringified ids; match rows on str()
    if {str(i) for i in cert.witness.rows} != {str(i) for i in reduced.rows}:
        raise InvalidCertificate("witness rows do not match the reduced system")
    ring = reduced.ring
    combo = {str(i): ring.parse_element(v).index if isinstance(v, str) else _norm_idx(v, ring)
             for i, v in cert.witness.rows.items()}
    try:
        _assert_witness(reduced, [combo[str(i)] for i in reduced.rows], chain_data(ring).tail)
    except InternalError:
        return False
    return True


def _replay_reduction(system, witness: UnsolvableWitness):
    from . import reductions

    if isinstance(system, LinSystem):
        if witness.summand == "chain":
            return system
        for summand in decompose_local(system.ring):
            if summand.e.name == witness.summand:
                sub = reductions.project_to_local(system, summand.e)
                order = default_order(summand.ring)
                return reductions.ring_to_cyclic(sub, order).target
        raise InvalidCertificate(f"no base idempotent named {quote(witness.summand)}")
    if isinstance(system, (GroupSystem, NumericalSystem, TwoSidedSystem)):
        if isinstance(system, TwoSidedSystem):
            system = reductions.twosided_to_numerical(system).target
        _, cong = _congruences(system)
        # the solver labels a prime part p=<p>, for a prime p dividing a congruence modulus
        primes = {f"p={p}": p for p in cong.primes()}
        if witness.summand not in primes:
            raise InvalidCertificate(f"summand {quote(witness.summand)} names no prime of the reduction")
        return _lift_prime_part(cong, primes[witness.summand])
    raise InvalidCertificate(f"cannot verify certificates for {type(system).__name__}")
