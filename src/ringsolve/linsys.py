"""Linear equation systems over rings and groups, with certified solvers.

Systems carry unordered row/column id sets; entries are stored sparsely as
element indices.  The chain-ring solver produces either a satisfying
assignment or a row-combination witness x with x·(A|b) = (0,...,0,pi^(n-1)),
and the composed solvers reduce arbitrary commutative rings, abelian groups
and two-sided non-commutative systems to that case.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InternalError,
    InvalidCertificate,
    InvalidParameter,
    PreconditionViolation,
    Unsupported,
)
from .ring import AbelianGroup, FiniteRing, GroupElement, RingElement, cached_zmod, group_decompose_cyclic
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


def _sort_key(x):
    return str(x)


class _System:
    """What every system kind shares: ids, right-hand side, evaluation, text.

    Row and column ids are deduplicated lists; coefficients and right-hand
    sides are stored sparsely, zeros dropped.  Subclasses supply the header
    ``keyword``, coefficient coercion, the per-row left-hand side and the
    term text.
    """

    keyword: str

    def __init__(self, carrier, rows: Sequence, cols: Sequence, b: Mapping):
        if not rows or not cols:
            raise InvalidParameter("row and column id sets must be non-empty")
        self.carrier = carrier
        self.rows = list(dict.fromkeys(rows))
        self.cols = list(dict.fromkeys(cols))
        self._zero = carrier.zero.index if isinstance(carrier, FiniteRing) else carrier.identity.index
        row_set = set(self.rows)
        self.b: dict = {}
        for i, v in b.items():
            if i not in row_set:
                raise InvalidParameter(f"rhs for unknown row {i!r}")
            idx = _norm_idx(v, carrier)
            if idx != self._zero:
                self.b[i] = idx

    def _coefficients(self, mapping: Mapping, zero, transposed: bool = False) -> dict:
        """Validated copy of {(row, col): value}, keyed (col, row) if ``transposed``."""
        row_set, col_set = set(self.rows), set(self.cols)
        coerce = self._coerce
        out: dict = {}
        for key, v in mapping.items():
            i, j = key
            if transposed:
                i, j = j, i
            if i not in row_set or j not in col_set:
                raise InvalidParameter(f"entry ({i!r},{j!r}) outside the index sets")
            c = coerce(v)
            if c != zero:
                out[key] = c
        return out

    def _coerce(self, value) -> int:
        """A coefficient as stored: an element index of the carrier."""
        return _norm_idx(value, self.carrier)

    def _values(self, assignment: Mapping) -> dict:
        """Variable values as carrier element indices."""
        carrier = self.carrier
        return {j: _norm_idx(assignment[j], carrier) for j in self.cols}

    def rhs_idx(self, i) -> int:
        return self.b.get(i, self._zero)

    def rhs(self, i):
        return self.carrier.element(self.rhs_idx(i))

    def eval(self, assignment: Mapping) -> bool:
        missing = [j for j in self.cols if j not in assignment]
        if missing:
            raise InvalidParameter(f"assignment misses variables {sorted(missing, key=_sort_key)}")
        values = self._values(assignment)
        lhs, b, zero = self._lhs, self.b, self._zero
        for i in self.rows:
            if lhs(i, values) != b.get(i, zero):
                return False
        return True

    def _terms(self, i, cols: list, col_name) -> list[str]:
        text, entries = self._coefficient_text, self.entries
        return [f"{text(entries[(i, j)])}*{col_name(j)}" for j in cols if (i, j) in entries]

    def _coefficient_text(self, c) -> str:
        return self.carrier.format_element(c)

    def eq_lines(self, row_name=str, col_name=str) -> list[str]:
        """One ``eq`` line per row, rows and columns sorted by their string
        form and named through ``row_name``/``col_name``."""
        fmt = self.carrier.format_element
        cols = sorted(self.cols, key=_sort_key)
        lines = []
        for i in sorted(self.rows, key=_sort_key):
            terms = self._terms(i, cols, col_name)
            lhs = " + ".join(terms) if terms else "0"
            lines.append(f"eq {row_name(i)}: {lhs} = {fmt(self.rhs_idx(i))}")
        return lines

    def canonical_text(self) -> str:
        return "\n".join([f"{self.keyword} {self.carrier.spec}", *self.eq_lines()])

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def __repr__(self):
        return f"{type(self).__name__}({self.carrier.spec}, {len(self.rows)}x{len(self.cols)})"


class LinSystem(_System):
    """A·x = b over a finite ring, with opaque row/column ids."""

    keyword = "ring"

    def __init__(self, ring: FiniteRing, rows: Sequence, cols: Sequence,
                 entries: Mapping, b: Mapping):
        super().__init__(ring, rows, cols, b)
        self.ring = ring
        self.entries = self._coefficients(entries, self._zero)

    def entry_idx(self, i, j) -> int:
        return self.entries.get((i, j), self._zero)

    def entry(self, i, j) -> RingElement:
        return self.ring.element(self.entry_idx(i, j))

    def _lhs(self, i, values) -> int:
        add, mul, entries = self.ring.add_idx, self.ring.mul_idx, self.entries
        acc = self._zero
        for j in self.cols:
            c = entries.get((i, j))
            if c is not None:
                acc = add(acc, mul(c, values[j]))
        return acc


class GroupSystem(_System):
    """A·x = b over an abelian group: integer coefficients, group-valued variables.

    The normal form has 0/1 coefficients; arbitrary non-negative integers are
    accepted and treated as repeated summands.
    """

    keyword = "group"

    def __init__(self, group: AbelianGroup, rows: Sequence, cols: Sequence,
                 entries: Mapping, b: Mapping):
        super().__init__(group, rows, cols, b)
        self.group = group
        self.entries = self._coefficients(entries, 0)

    def _coerce(self, value) -> int:
        if not isinstance(value, int) or value < 0:
            raise InvalidParameter("group-system coefficients are non-negative integers")
        return value

    def _coefficient_text(self, c) -> str:
        return str(c)

    def _lhs(self, i, values) -> int:
        add, scalar, entries = self.group.add_idx, self.group.scalar_idx, self.entries
        acc = self._zero
        for j in self.cols:
            c = entries.get((i, j))
            if c:
                acc = add(acc, scalar(c, values[j]))
        return acc


class TwoSidedSystem(_System):
    """A_l·x + (x^t·A_r)^t = b over a possibly non-commutative ring."""

    keyword = "twosided"

    def __init__(self, ring: FiniteRing, rows: Sequence, cols: Sequence,
                 left: Mapping, right: Mapping, b: Mapping):
        super().__init__(ring, rows, cols, b)
        self.ring = ring
        self.left = self._coefficients(left, self._zero)
        self.right = self._coefficients(right, self._zero, transposed=True)

    def _lhs(self, i, values) -> int:
        add, mul, left, right = self.ring.add_idx, self.ring.mul_idx, self.left, self.right
        acc = self._zero
        for j in self.cols:
            c = left.get((i, j))
            if c is not None:
                acc = add(acc, mul(c, values[j]))
            c = right.get((j, i))
            if c is not None:
                acc = add(acc, mul(values[j], c))
        return acc

    def _terms(self, i, cols: list, col_name) -> list[str]:
        fmt = self.ring.format_element
        terms = []
        for j in cols:
            if (i, j) in self.left:
                terms.append(f"{fmt(self.left[(i, j)])}*{col_name(j)}")
            if (j, i) in self.right:
                terms.append(f"{col_name(j)}*{fmt(self.right[(j, i)])}")
        return terms


class NumericalSystem(_System):
    """sum_j x_j·A(i,j) = b(i) with group-element coefficients and integer variables.

    This is the carrier produced by the two-sided reduction: variables take
    integer values acting on the additive group (R,+) as a Z-module.
    """

    keyword = "numerical"

    def __init__(self, group: AbelianGroup, rows: Sequence, cols: Sequence,
                 entries: Mapping, b: Mapping):
        super().__init__(group, rows, cols, b)
        self.group = group
        self.entries = self._coefficients(entries, self._zero)

    def _values(self, assignment: Mapping) -> dict:
        for j in self.cols:
            if not isinstance(assignment[j], int):
                raise InvalidParameter("numerical-system assignments are integers")
        return assignment

    def _lhs(self, i, values) -> int:
        add, scalar, entries = self.group.add_idx, self.group.scalar_idx, self.entries
        acc = self._zero
        for j in self.cols:
            a = entries.get((i, j))
            if a is not None:
                acc = add(acc, scalar(values[j], a))
        return acc


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


def _chain_valuations(ring: FiniteRing, cd: ChainData) -> list[int]:
    """val[x] = largest t <= n with x in pi^t·R (val[0] = n)."""
    if "chainval" not in ring._cache:
        elems = np.arange(ring.size)
        val = np.zeros(ring.size, dtype=np.int64)
        power = ring.one.index
        for t in range(1, cd.n + 1):
            power = ring.mul_idx(power, cd.pi.index)
            val[ring.mul(power, elems)] = t
        ring._cache["chainval"] = val.tolist()
    return ring._cache["chainval"]


def _divider(ring: FiniteRing):
    """divide(by, x): the least z with by·z = x, elementwise over x.

    One lookup table per divisor, built on first use and kept for the
    lifetime of the returned function (one elimination).
    """
    elems = np.arange(ring.size)
    tables: dict = {}

    def divide(by, x):
        by = int(by)
        if by not in tables:
            table = np.full(ring.size, ring.size, dtype=np.int64)
            np.minimum.at(table, ring.mul(by, elems), elems)
            tables[by] = table
        z = tables[by][x]
        if (z == ring.size).any():
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


def _dense(source, rows: list, cols: list, rhs: bool = False) -> np.ndarray:
    """The coefficient grid of a LinSystem or Matrix as an int64 array, with
    the right-hand side appended as a last column when ``rhs``."""
    zero = source.ring.zero.index
    grid = np.full((len(rows), len(cols) + rhs), zero, dtype=np.int64)
    if source.entries:
        pos_r = {i: n for n, i in enumerate(rows)}
        pos_c = {j: n for n, j in enumerate(cols)}
        keys = source.entries.keys()
        grid[[pos_r[i] for i, _ in keys], [pos_c[j] for _, j in keys]] = list(source.entries.values())
    if rhs:
        grid[:, -1] = [source.rhs_idx(i) for i in rows]
    return grid


def _hermite(ring: FiniteRing, a: np.ndarray, ell: int, cd: ChainData, divide):
    """Triangularise the first ``ell`` columns of ``a``.

    Columns past ``ell`` are carried through the row operations only, and
    so is an identity block appended on the right, which ends up as S.  The
    pivot of each step is the nonzero entry of the remaining block with the
    least (valuation, element index, row, column); every row below it is
    cleared in one broadcast update.  Returns (a | S, col_perm, rank).
    """
    size, zero = ring.size, ring.zero.index
    # pivot order: valuation, then element index; zero never pivots
    order = np.asarray(_chain_valuations(ring, cd)) * size + np.arange(size)
    order[zero] = no_pivot = (cd.n + 1) * size
    k = a.shape[0]
    s = np.full((k, k), zero, dtype=np.int64)
    np.fill_diagonal(s, ring.one.index)
    a = np.hstack([a, s])
    perm = np.arange(ell)
    t = 0
    for step in range(min(k, ell)):
        key = order[a[step:, step:ell]]
        r, c = divmod(int(key.argmin()), ell - step)
        if key[r, c] == no_pivot:
            break
        r, c = r + step, c + step
        if r != step:
            a[[step, r]] = a[[r, step]]
        if c != step:
            a[:, [step, c]] = a[:, [c, step]]
            perm[[step, c]] = perm[[c, step]]
        below = step + 1 + np.flatnonzero(a[step + 1:, step] != zero)
        if below.size:
            z = divide(a[step, step], a[below, step])[:, None]
            a[below] = ring.sub(a[below], ring.mul(z, a[step]))
        t += 1
    if (a[t:, :ell] != zero).any():
        raise InternalError("elimination left a nonzero residual row")
    return a, perm, t


def hermite_normal_form(matrix) -> HermiteResult:
    """Triangularise a matrix over a chain ring: S·A·T = (Q ; 0)."""
    ring = matrix.ring
    cd = _require_chain(ring)
    rows, cols = list(matrix.rows), list(matrix.cols)
    ell = len(cols)
    a, perm, t = _hermite(ring, _dense(matrix, rows, cols), ell, cd, _divider(ring))
    return HermiteResult(ring=ring, row_ids=rows, col_ids=cols, S=a[:, ell:].tolist(), col_perm=perm.tolist(),
                         Q=a[:t, :ell].tolist(), diag=a.diagonal()[:t].tolist())


def solve_chain(system: LinSystem) -> Certificate:
    """Solve over a chain ring via Hermite normal form.

    SOLVABLE certificates carry a back-substituted assignment (free
    variables 0); UNSOLVABLE ones a row combination x with
    x·(A|b) = (0,...,0,pi^(n-1)).
    """
    ring = system.ring
    cd = _require_chain(ring)
    rows, cols = list(system.rows), list(system.cols)
    k, ell = len(rows), len(cols)
    divide = _divider(ring)
    # b rides along as column ell, so it ends up as S·b
    a, perm, t = _hermite(ring, _dense(system, rows, cols, rhs=True), ell, cd, divide)
    bprime, diag = a[:, ell], a.diagonal()[:t]
    val = np.asarray(_chain_valuations(ring, cd))
    diag_val = np.full(k, cd.n)
    diag_val[:t] = val[diag]
    failing = np.flatnonzero(val[bprime] < diag_val)
    if failing.size:
        # the first failing transformed row is a certificate of unsolvability
        r = failing[0]
        tail = ring.pow_idx(cd.pi.index, cd.n - 1)
        scalings = np.flatnonzero(ring.mul(bprime[r], np.arange(ring.size)) == tail)
        if not scalings.size:
            raise InternalError("no scaling maps the failing row onto the witness tail")
        combo = dict(zip(rows, ring.mul(scalings[0], a[r, ell + 1:]).tolist()))
        witness = UnsolvableWitness(
            summand="chain",
            chain_spec=ring.spec,
            digest=system.digest(),
            rows={i: ring.format_element(x) for i, x in combo.items()},
        )
        _assert_witness(system, combo, tail)
        return Certificate("UNSOLVABLE", witness=witness, reduced=system)
    values = np.full(ell, ring.zero.index, dtype=np.int64)
    rhs = bprime[:t].copy()
    for r in range(t - 1, -1, -1):
        values[r] = divide(diag[r], rhs[r])
        rhs[:r] = ring.sub(rhs[:r], ring.mul(values[r], a[:r, r]))
    assignment = {cols[pos]: ring.element(v) for pos, v in zip(perm.tolist(), values.tolist())}
    if not system.eval(assignment):
        raise InternalError("back-substituted assignment fails the system")
    return Certificate("SOLVABLE", assignment=assignment)


def _assert_witness(system: LinSystem, combo: dict, tail: int):
    ring = system.ring
    rows, cols = list(system.rows), list(system.cols)
    a = _dense(system, rows, cols, rhs=True)
    acc = np.full(len(cols) + 1, ring.zero.index, dtype=np.int64)
    for i, row in zip(rows, a):
        acc = ring.add(acc, ring.mul(combo[i], row))
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
    combo = {i: _norm_idx(v, ring) for i, v in rows.items()}
    tail = ring.pow_idx(cd.pi.index, cd.n - 1)
    try:
        _assert_witness(system, combo, tail)
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
            witness = UnsolvableWitness(
                summand=summand.e.name,
                chain_spec=red.target.ring.spec,
                digest=cert.witness.digest,
                rows=cert.witness.rows,
            )
            return Certificate("UNSOLVABLE", witness=witness, reduced=red.target)
        back = red.backward(cert.assignment)
        for j, elem in back.items():
            total[j] = ring.add_idx(total[j], summand.embed(elem.index))
    assignment = {j: ring.element(v) for j, v in total.items()}
    if not system.eval(assignment):
        raise InternalError("recombined assignment fails the source system")
    return Certificate("SOLVABLE", assignment=assignment)


def _lift_prime_part(rows: list[tuple[object, int, dict, int]], p: int) -> LinSystem:
    """The rows whose modulus the prime p divides (at least one), lifted to one
    chain system over Z/p^cap.  A row mod p^a is multiplied by p^(cap-a).
    """
    p_rows = [(rid, _pval(m, p), coeffs, rhs) for rid, m, coeffs, rhs in rows if m % p == 0]
    cap = max(a for _, a, _, _ in p_rows)
    ring = cached_zmod(p**cap)
    entries, b, cols = {}, {}, {}
    for rid, a, coeffs, rhs in p_rows:
        lift = p ** (cap - a)
        for var, c in coeffs.items():
            cols[var] = True
            c_lift = (c * lift) % ring.size
            if c_lift:
                entries[(rid, var)] = c_lift
        r_lift = (rhs * lift) % ring.size
        if r_lift:
            b[rid] = r_lift
    if not cols:
        # rows constrain no variable; keep a placeholder column
        cols[("free", p)] = True
    return LinSystem(ring, [rid for rid, _, _, _ in p_rows], list(cols), entries, b)


def _solve_congruences(rows: list[tuple[object, int, dict, int]]) -> dict | Certificate:
    """Solve sum(c·x) = rhs (mod m_row) over the integers, row by row moduli.

    Returns the assignment var -> int, or the UNSOLVABLE certificate of the
    first prime whose lifted chain system is unsolvable.
    """
    primes = sorted({p for _, m, _, _ in rows for p in _prime_factors(m)})
    assignment: dict = {}
    for p in primes:
        chain_sys = _lift_prime_part(rows, p)
        cert = solve_chain(chain_sys)
        if not cert.solvable:
            witness = UnsolvableWitness(
                summand=f"p={p}",
                chain_spec=chain_sys.ring.spec,
                digest=chain_sys.digest(),
                rows=cert.witness.rows,
            )
            return Certificate("UNSOLVABLE", witness=witness, reduced=chain_sys)
        for var, elem in cert.assignment.items():
            assignment.setdefault(var, {})[chain_sys.ring.size] = elem.index
    return {var: _crt(residues) for var, residues in assignment.items()}


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


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


def _group_congruence_rows(system: GroupSystem):
    """Split a group system along the invariant-factor decomposition."""
    decomp = group_decompose_cyclic(system.group)
    rows = []
    for i in system.rows:
        b_coords = decomp.coords_of(system.rhs_idx(i))
        for t, (_, order) in enumerate(decomp.pairs):
            if order == 1:
                continue
            coeffs = {}
            for j in system.cols:
                c = system.entries.get((i, j))
                if c:
                    coeffs[(j, t)] = c % order
            rows.append(((i, t), order, coeffs, b_coords[t] % order))
    return decomp, rows


def solve_group(system: GroupSystem) -> Certificate:
    """Decide solvability over an abelian group via its cyclic decomposition."""
    decomp, rows = _group_congruence_rows(system)
    group = system.group
    if not rows:
        assignment = {j: group.identity for j in system.cols}
        return Certificate("SOLVABLE", assignment=assignment)
    values = _solve_congruences(rows)
    if isinstance(values, Certificate):
        return values
    assignment = {}
    for j in system.cols:
        coords = [values.get((j, t), 0) for t in range(len(decomp.pairs))]
        assignment[j] = group.element(decomp.element_of(coords))
    if not system.eval(assignment):
        raise InternalError("group assignment fails the source system")
    return Certificate("SOLVABLE", assignment=assignment)


def _numerical_congruence_rows(system: NumericalSystem):
    decomp = group_decompose_cyclic(system.group)
    rows = []
    for i in system.rows:
        b_coords = decomp.coords_of(system.rhs_idx(i))
        for t, (_, order) in enumerate(decomp.pairs):
            if order == 1:
                continue
            coeffs = {}
            for j in system.cols:
                a = system.entries.get((i, j))
                if a is not None:
                    c = decomp.coords_of(a)[t]
                    if c:
                        coeffs[j] = c
            rows.append(((i, t), order, coeffs, b_coords[t] % order))
    return decomp, rows


def solve_numerical(system: NumericalSystem) -> Certificate:
    """Solve an integer-variable system over a Z_d-module."""
    _, rows = _numerical_congruence_rows(system)
    if not rows:
        return Certificate("SOLVABLE", assignment={j: 0 for j in system.cols})
    values = _solve_congruences(rows)
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
    by_str = {str(i): i for i in reduced.rows}
    if {str(i) for i in cert.witness.rows} != set(by_str):
        raise InvalidCertificate("witness rows do not match the reduced system")
    combo = {}
    for key, v in cert.witness.rows.items():
        idx = reduced.ring.parse_element(v).index if isinstance(v, str) else _norm_idx(v, reduced.ring)
        combo[by_str[str(key)]] = idx
    cd = chain_data(reduced.ring)
    tail = reduced.ring.pow_idx(cd.pi.index, cd.n - 1)
    try:
        _assert_witness(reduced, combo, tail)
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
        raise InvalidCertificate(f"no base idempotent named {witness.summand!r}")
    if isinstance(system, (GroupSystem, NumericalSystem, TwoSidedSystem)):
        if isinstance(system, GroupSystem):
            _, rows = _group_congruence_rows(system)
        elif isinstance(system, NumericalSystem):
            _, rows = _numerical_congruence_rows(system)
        else:
            red = reductions.twosided_to_numerical(system)
            _, rows = _numerical_congruence_rows(red.target)
        # the solver labels a prime part p=<p>, for a prime p dividing a congruence modulus
        primes = {f"p={p}": p for _, m, _, _ in rows for p in _prime_factors(m)}
        if witness.summand not in primes:
            raise InvalidCertificate(f"summand {witness.summand!r} names no prime of the reduction")
        return _lift_prime_part(rows, primes[witness.summand])
    raise InvalidCertificate(f"cannot verify certificates for {type(system).__name__}")
