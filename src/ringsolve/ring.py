"""Finite commutative (and flagged non-commutative) rings and finite abelian groups.

Every structure carries an element table indexed 0..size-1; an element is
identified by (owning structure, index).  The operations are stored once,
as dense numpy tables built by the constructors (or, for Z/m, as arithmetic
on the residues, which are the indices).  They are exposed elementwise on
int arrays of indices (``add``/``mul``/``sub``/``neg``), on single indices
(the ``*_idx`` methods, lookups into the same data) and on element handles
(operator overloads).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InternalError, InvalidParameter, NotARing, quote, shown

DEFAULT_MAX_ELEMS = 4096
_CHUNK = 1 << 14  # entries computed per step of a row-chunked scan


def max_elems() -> int:
    """Element-count cap for constructed structures (env-overridable)."""
    value = os.environ.get("RINGSOLVE_MAX_ELEMS")
    if not value:
        return DEFAULT_MAX_ELEMS
    try:
        return int(value)
    except ValueError:
        raise InvalidParameter(f"RINGSOLVE_MAX_ELEMS must be an integer, got {quote(value)}") from None


def _check_size(size: int, what: str, spec: str | None = None):
    """CapacityError past the cap, naming ``what`` and its quoted ``spec``."""
    cap = max_elems()
    if size > cap:
        name = what if spec is None else f"{what} {quote(spec)}"
        raise CapacityError(f"{name} has {shown(str(size))} elements, exceeding the cap of {cap}")


def _check_power_size(q: int, r: int, what: str):
    """_check_size for q^r elements, q >= 2: q^r >= 2^(r·(bits of q - 1)), so
    a power r > 1 past 64 such bits and the cap's is over it, shown as q^r."""
    cap = max_elems()
    if r > 1 and r * (q.bit_length() - 1) > max(cap.bit_length(), 64):
        raise CapacityError(f"{what} has {shown(str(q))}^{shown(str(r))} elements, exceeding the cap of {cap}")
    _check_size(q**r, what)


def _memo(fn):
    """fn(obj), computed once per object and kept in ``obj._cache`` under
    fn's name: the one memo rule for data derived from an immutable ring,
    group or order.  A call that raises stores nothing."""
    key = fn.__name__

    @functools.wraps(fn)
    def memoised(obj):
        try:
            return obj._cache[key]
        except KeyError:
            value = obj._cache[key] = fn(obj)
            return value

    return memoised


@functools.cache
def _index_dtype(size: int):
    """The smallest signed integer type that holds every index below ``size``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= size - 1)


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive blocks of row indices covering range(n_rows), each of
    about _CHUNK entries of an n_cols-wide scan, so that temporaries stay small."""
    step = max(1, _CHUNK // n_cols)
    return (np.arange(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


def _op_table(size: int, op) -> np.ndarray:
    """The size x size table of ``op(rows, cols)`` on broadcast index arrays,
    filled a block of rows at a time."""
    table = np.empty((size, size), dtype=_index_dtype(size))
    cols = np.arange(size)
    for rows in _row_blocks(size, size):
        table[rows] = op(rows[:, None], cols)
    return table


def _reduce(values, m: int):
    """Residues modulo m, in place: no second array the size of ``values``."""
    values %= m
    return values


@dataclass(frozen=True)
class RingElement:
    """An element of a :class:`FiniteRing`, identified by (ring, index)."""

    ring: "FiniteRing"
    index: int

    def __add__(self, other: "RingElement") -> "RingElement":
        return self.ring.element(self.ring.add_idx(self.index, self._idx(other)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self.ring.element(self.ring.sub_idx(self.index, self._idx(other)))

    def __neg__(self) -> "RingElement":
        return self.ring.element(self.ring.neg_idx(self.index))

    def __mul__(self, other: "RingElement") -> "RingElement":
        return self.ring.element(self.ring.mul_idx(self.index, self._idx(other)))

    def __pow__(self, k: int) -> "RingElement":
        return self.ring.element(self.ring.pow_idx(self.index, k))

    def _idx(self, other: "RingElement") -> int:
        if not isinstance(other, RingElement) or other.ring is not self.ring:
            raise InvalidParameter("cannot combine elements of different rings")
        return other.index

    @property
    def name(self) -> str:
        return self.ring.format_element(self.index)

    def __repr__(self):
        return f"{self.name}"


@dataclass(frozen=True)
class GroupElement:
    group: "AbelianGroup"
    index: int

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement) or other.group is not self.group:
            raise InvalidParameter("cannot combine elements of different groups")
        return self.group.element(self.group.add_idx(self.index, other.index))

    def __neg__(self) -> "GroupElement":
        return self.group.element(self.group.neg_idx(self.index))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    @property
    def name(self) -> str:
        return self.group.format_element(self.index)

    def __repr__(self):
        return f"{self.name}"


class _Carrier:
    """Indices 0..size-1 with names and an addition: a dense table, or the
    residues modulo ``size`` when the table is None.

    Negation is derived from the table.  The scalar hooks ``_add``/``_neg``
    are lookups into the same data; the ``*_idx`` methods and ``scalar_idx``
    go through them.  Instances are immutable after construction;
    derived data is memoised in ``_cache`` by ``_memo``.
    """

    _handle: type

    def __init__(self, rep: str, size: int, add: np.ndarray | None, zero_idx: int,
                 names: Sequence[str], spec: str):
        self.rep = rep
        self.size = size
        self._zero_idx = zero_idx
        self._add_t = add
        if add is None:
            self._neg_t = None
            self._add = lambda i, j: (i + j) % size
            self._neg = lambda i: -i % size
        else:
            self._neg_t = (add == zero_idx).argmax(axis=1).astype(add.dtype)
            self._add = add.item
            self._neg = self._neg_t.item
        self.names = list(names)
        self.spec = spec
        self._name_to_idx = {n: i for i, n in enumerate(self.names)}
        self._cache: dict = {}

    # -- elementwise arithmetic on int arrays of indices ---------------------
    # Results have the table's dtype (int64 for residues): widen them before
    # arithmetic that could overflow it.

    def add(self, x, y):
        if self._add_t is None:
            return _reduce(np.add(x, y, dtype=np.int64), self.size)
        return self._add_t[x, y]

    def neg(self, x):
        if self._neg_t is None:
            return _reduce(np.negative(x, dtype=np.int64), self.size)
        return self._neg_t[x]

    def sub(self, x, y):
        if self._add_t is None:
            return _reduce(np.subtract(x, y, dtype=np.int64), self.size)
        return self._add_t[x, self._neg_t[y]]

    def row_sum(self, terms):
        """The sum along axis 1 (of each row) of an index array.  Residues
        are summed in int64 and reduced once: ``mul`` already needs
        m² < 2⁶³, so a row of n residues, below n·m, fits for any n that fits
        in memory.  A table is folded pairwise over column halves."""
        if self._add_t is None:
            return _reduce(terms.sum(axis=1, dtype=np.int64), self.size)
        while terms.shape[1] > 1:
            half = terms.shape[1] // 2
            head = self.add(terms[:, :half], terms[:, half:2 * half])
            if terms.shape[1] % 2:
                head[:, 0] = self.add(head[:, 0], terms[:, -1])
            terms = head
        return terms[:, 0]

    def scalar(self, k, x):
        """k·x for integers k >= 0 and element indices x, broadcast together,
        by binary doubling with the elementwise add: one doubling per bit of
        the largest k.  A Python-int k adds whole arrays, without masks, in
        about log2(k) adds; an array k selects its set bits by mask."""
        whole = isinstance(k, int)
        if not whole:
            k, x = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(x))
        acc, base = None, np.asarray(x)  # acc = (k mod 2^bit)·x, None while that is 0
        for bit in range((k if whole else int(k.max(initial=0))).bit_length()):
            if bit:
                base = self.add(base, base)
            odd = k >> bit & 1
            if whole and not odd:
                continue
            total = base if acc is None else self.add(acc, base)
            acc = total if whole else np.where(odd, total, self._zero_idx if acc is None else acc)
        return np.full(base.shape, self._zero_idx, dtype=np.int64) if acc is None else acc

    def add_table(self) -> list[list[int]]:
        """The addition table as lists, computed from the carrier on each call."""
        elems = np.arange(self.size)
        return self.add(elems[:, None], elems).tolist()

    # -- scalar arithmetic ----------------------------------------------------

    def add_idx(self, i: int, j: int) -> int:
        return self._add(i, j)

    def neg_idx(self, i: int) -> int:
        return self._neg(i)

    def sub_idx(self, i: int, j: int) -> int:
        return self._add(i, self._neg(j))

    def scalar_idx(self, k: int, i: int) -> int:
        """k·x for an integer k, by binary doubling."""
        if k < 0:
            return self._neg(self.scalar_idx(-k, i))
        acc, base = self._zero_idx, i
        while k:
            if k & 1:
                acc = self._add(acc, base)
            base = self._add(base, base)
            k >>= 1
        return acc

    def order_of(self, i: int) -> int:
        """The additive order of x: the least k > 0 with k·x = 0."""
        return int(_orders_modulo(self, np.arange(self.size) == self._zero_idx, [i])[0])

    # -- element handles ------------------------------------------------------

    def element(self, i: int):
        if not 0 <= i < self.size:
            raise InvalidParameter(f"element index {i} out of range for {self.spec}")
        return self._handle(self, i)

    def elements(self) -> list:
        return [self._handle(self, i) for i in range(self.size)]

    def format_element(self, i: int) -> str:
        return self.names[i]

    def parse_element(self, name: str):
        idx = self._name_to_idx.get(name.strip())
        if idx is None:
            raise InvalidParameter(f"{quote(name)} is not an element of {self.spec}")
        return self._handle(self, idx)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec})"


class FiniteRing(_Carrier):
    """A finite ring given by dense add/mul tables, or residue arithmetic
    when both tables are None (Z/m)."""

    _handle = RingElement

    def __init__(
        self,
        rep: str,
        size: int,
        add: np.ndarray | None,
        mul: np.ndarray | None,
        zero_idx: int,
        one_idx: int,
        commutative: bool,
        names: Sequence[str],
        spec: str,
    ):
        _check_size(size, "ring", spec)
        super().__init__(rep, size, add, zero_idx, names, spec)
        self._mul_t = mul
        self._mul = (lambda i, j: i * j % size) if mul is None else mul.item
        self.zero = RingElement(self, zero_idx)
        self.one = RingElement(self, one_idx)
        self.commutative = commutative

    def mul(self, x, y):
        if self._mul_t is None:
            return _reduce(np.multiply(x, y, dtype=np.int64), self.size)
        return self._mul_t[x, y]

    def sub_mul(self, x, z, y):
        """x -= z·y in place, z and y possibly views into x's own array."""
        if self._mul_t is None:
            np.remainder(np.subtract(x, np.multiply(z, y, dtype=np.int64)), self.size, out=x)
        else:
            x[...] = self._add_t[x, self._neg_t[self._mul_t[z, y]]]
        return x

    def mul_idx(self, i: int, j: int) -> int:
        return self._mul(i, j)

    def pow_idx(self, i: int, k: int) -> int:
        if k < 0:
            raise InvalidParameter("negative exponent")
        acc, base = self.one.index, i
        while k:
            if k & 1:
                acc = self._mul(acc, base)
            base = self._mul(base, base)
            k >>= 1
        return acc

    def from_int(self, k: int) -> RingElement:
        """The image of the integer k under the characteristic map k -> k·1."""
        return self.element(self.scalar_idx(k % self.characteristic(), self.one.index))

    @_memo
    def characteristic(self) -> int:
        """Additive order of 1."""
        return self.order_of(self.one.index)

    def op_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """(add, mul) as lists, computed from the carrier on each call; used by
        the oracle and table dumps."""
        elems = np.arange(self.size)
        return self.add_table(), self.mul(elems[:, None], elems).tolist()


# ---------------------------------------------------------------------------
# polynomials (integer coefficients, lowest degree first)


@dataclass(frozen=True)
class Poly:
    """A polynomial as a coefficient tuple, lowest degree first."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(seq: Iterable[int]) -> "Poly":
        coeffs = list(seq)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return Poly(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                x = "X" if k == 1 else f"X^{k}"
                terms.append(x if c == 1 else f"{c}*{x}")
        return "+".join(terms) if terms else "0"


def poly_mod_reduce(coeffs: list[int], f: Sequence[int], q: int) -> list[int]:
    """Reduce a coefficient list modulo the monic polynomial f, coefficients mod q."""
    r = len(f) - 1
    work = [c % q for c in coeffs]
    for k in range(len(work) - 1, r - 1, -1):
        c = work[k]
        if c:
            for t in range(r):
                work[k - r + t] = (work[k - r + t] - c * f[t]) % q
            work[k] = 0
    out = work[:r]
    out += [0] * (r - len(out))
    return out


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorisation of n as (p, e) pairs, p increasing, by trial
    division; empty for n < 2."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


# ---------------------------------------------------------------------------
# builders


def build_zmod(m: int) -> FiniteRing:
    """The ring of integers modulo m, computed on the residues (no tables)."""
    if not isinstance(m, int) or m < 2:
        raise InvalidParameter(f"modulus must be an integer >= 2, got {m}")
    _check_size(m, "ring", f"Z/{m}")
    ring = FiniteRing(
        rep="zmod",
        size=m,
        add=None,
        mul=None,
        zero_idx=0,
        one_idx=1,
        commutative=True,
        names=[str(i) for i in range(m)],
        spec=f"Z/{m}",
    )
    ring.modulus = m
    ring._cache["characteristic"] = m
    return ring


@functools.cache
def cached_zmod(m: int) -> FiniteRing:
    """The shared Z/m of the solvers and reductions: one ring per modulus, so
    per-ring caches (chain valuations, structure theory) are built once."""
    return build_zmod(m)


def build_poly_quotient(p: int, n: int, f: Poly) -> FiniteRing:
    """The ring Z_{p^n}[X]/(f(X)) with f monic of degree >= 1.

    Elements are residue polynomials of degree < deg f; the element with
    coefficients (c_0, ..., c_{r-1}) over Z_{p^n} has index sum(c_t * q^t),
    so table order is coefficient order with the constant term varying
    fastest and integers 0..p^n-1 keep their integer names.
    """
    if factorize(p) != [(p, 1)]:
        raise InvalidParameter(f"{p} is not prime")
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    if f.degree < 1:
        raise InvalidParameter("f must have degree >= 1")
    q = p**n
    fc = [c % q for c in f.coeffs]
    if fc[-1] != 1:
        raise InvalidParameter(f"f must be monic over Z/{q}, got {f}")
    r = f.degree
    _check_power_size(q, r, "polynomial quotient ring")
    size = q**r
    weights = [q**t for t in range(r)]
    digits = np.arange(size) // np.array(weights)[:, None] % q  # digits[t]: coefficient t of each element
    # x_times[s][t]: coefficient t of X^s·a for each element a, reduced modulo f
    x_times = [digits]
    for _ in range(r - 1):
        prev = x_times[-1]
        shifted = np.vstack([np.zeros((1, size), dtype=np.int64), prev[:-1]])
        x_times.append((shifted - prev[-1] * np.array(fc[:r])[:, None]) % q)

    def add(a, b):
        return sum((digits[t][a] + digits[t][b]) % q * w for t, w in enumerate(weights))

    def mul(a, b):
        # coefficient t of a·b is the sum over s of b_s·(X^s·a)_t
        return sum(sum(digits[s][b] * x_times[s][t][a] for s in range(r)) % q * w for t, w in enumerate(weights))

    ring = FiniteRing(
        rep="poly",
        size=size,
        add=_op_table(size, add),
        mul=_op_table(size, mul),
        zero_idx=0,
        one_idx=1,
        commutative=True,
        names=[str(cs[0]) if not any(cs[1:]) else "[" + ",".join(map(str, cs)) + "]" for cs in digits.T.tolist()],
        spec=f"Z/{q}[X]/({f})",
    )
    ring.p, ring.n, ring.f = p, n, Poly(tuple(fc))
    ring._cache["characteristic"] = q
    return ring


def _componentwise(ops: list, sizes: list[int]):
    """A product's operation on broadcast index arrays: each factor's
    elementwise op on its mixed-radix digit, the last factor fastest."""
    digits = np.unravel_index(np.arange(math.prod(sizes)), sizes)
    return lambda x, y: np.ravel_multi_index([op(d[x], d[y]) for op, d in zip(ops, digits)], sizes)


def _product_names(factors: list) -> list[str]:
    return ["(" + ",".join(parts) + ")" for parts in itertools.product(*(c.names for c in factors))]


def build_product(rings: list[FiniteRing]) -> FiniteRing:
    """The componentwise product ring; commutative when every factor is."""
    if not rings:
        raise InvalidParameter("product of an empty list of rings")
    sizes = [r.size for r in rings]
    size = math.prod(sizes)
    _check_size(size, "product ring")
    ring = FiniteRing(
        rep="product",
        size=size,
        add=_op_table(size, _componentwise([r.add for r in rings], sizes)),
        mul=_op_table(size, _componentwise([r.mul for r in rings], sizes)),
        zero_idx=int(np.ravel_multi_index([r.zero.index for r in rings], sizes)),
        one_idx=int(np.ravel_multi_index([r.one.index for r in rings], sizes)),
        commutative=all(r.commutative for r in rings),
        names=_product_names(rings),
        spec=" x ".join(r.spec for r in rings),
    )
    ring.factors = list(rings)
    ring._cache["characteristic"] = math.lcm(*(r.characteristic() for r in rings))
    return ring


def _table_size(table, label: str) -> int:
    """The row count of an explicit table; NotARing unless it is a non-empty list."""
    if not isinstance(table, (list, tuple)) or not table:
        raise NotARing("table shape", label)
    return len(table)


def _check_table(table, n: int, label: str):
    """NotARing unless ``table`` is an n x n list of element indices."""
    if (not isinstance(table, (list, tuple)) or len(table) != n
            or any(not isinstance(row, (list, tuple)) or len(row) != n for row in table)):
        raise NotARing("table shape", label)
    if any(not isinstance(v, int) or not 0 <= v < n for row in table for v in row):
        raise NotARing("table entries", label)


def _first_failure(bad: np.ndarray):
    """The row-major position of the first True of ``bad``, or None."""
    return np.unravel_index(int(bad.argmax()), bad.shape) if bad.any() else None


def _validate_ring_tables(add: list[list[int]], mul: list[list[int]], check_commutative: bool):
    """Exhaustive axiom check on explicit tables, by array masks; raises
    NotARing naming the axiom and its first failing element, pair or triple
    in lexicographic order.  The triples are checked a block of (x, y) pairs
    against every z at a time."""
    n = len(add)
    _check_table(add, n, "addition")
    _check_table(mul, n, "multiplication")
    a, m = (np.array(t, dtype=np.intp) for t in (add, mul))
    # t[r, c] is read as t_flat[r·n + c]: a gather along one axis is about
    # twice as fast as one with two broadcast index arrays
    a_flat, m_flat = a.ravel(), m.ravel()
    elems = np.arange(n)
    zeros = ((a == elems).all(axis=1) & (a.T == elems).all(axis=1)).nonzero()[0]
    if len(zeros) != 1:
        raise NotARing("additive identity")
    zero = int(zeros[0])
    lacking = (~(a == zero).any(axis=1)).nonzero()[0]
    if lacking.size:
        raise NotARing("additive inverses", f"element {lacking[0]}")
    if (pair := _first_failure(a != a.T)) is not None:
        raise NotARing("addition commutativity", "{},{}".format(*pair))
    blocks = [(pairs, *np.divmod(pairs, n)) for pairs in _row_blocks(n * n, n)]
    for pairs, x, y in blocks:
        if (at := _first_failure(a[a_flat[pairs]] != a_flat[(x * n)[:, None] + a[y]])) is not None:
            raise NotARing("addition associativity", f"{x[at[0]]},{y[at[0]]},{at[1]}")
    ones = ((m == elems).all(axis=1) & (m.T == elems).all(axis=1)).nonzero()[0]
    if len(ones) != 1:
        raise NotARing("multiplicative identity")
    one = int(ones[0])
    for pairs, x, y in blocks:
        xn, y_plus_z, xy, yx = (x * n)[:, None], a[y], m_flat[pairs], m_flat[y * n + x]
        checks = (  # [pair, z] is True where the law fails at (x, y, z)
            ("multiplication associativity", m[xy] != m_flat[xn + m[y]]),
            ("left distributivity", m_flat[xn + y_plus_z] != a_flat[(xy * n)[:, None] + m[x]]),
            ("right distributivity", m_flat[y_plus_z * n + x[:, None]] != a_flat[(yx * n)[:, None] + m.T[x]]),
        )
        if (at := _first_failure(np.logical_or.reduce([bad for _, bad in checks]))) is not None:
            axiom = next(name for name, bad in checks if bad[at])
            raise NotARing(axiom, f"{x[at[0]]},{y[at[0]]},{at[1]}")
    commutative = bool((m == m.T).all())
    if check_commutative and not commutative:
        raise NotARing("multiplication commutativity")
    return zero, one, commutative


def build_table_ring(
    add_table: list[list[int]],
    mul_table: list[list[int]],
    commutative: bool = True,
    names: Sequence[str] | None = None,
    spec: str | None = None,
) -> FiniteRing:
    """A ring from explicit size x size tables, validated exhaustively.

    ``commutative=True`` is verified; with ``commutative=False`` the actual
    commutativity is detected and stored (a commutative table is accepted).
    """
    n = _table_size(add_table, "addition")
    _check_size(n, "table ring")
    if names is not None and (not isinstance(names, (list, tuple)) or len(names) != n
                              or not all(isinstance(name, str) for name in names)):
        raise InvalidParameter(f"names must be a list of {n} strings")
    zero, one, commutative = _validate_ring_tables(add_table, mul_table, commutative)
    return FiniteRing(
        rep="table",
        size=n,
        add=np.asarray(add_table, dtype=_index_dtype(n)),
        mul=np.asarray(mul_table, dtype=_index_dtype(n)),
        zero_idx=zero,
        one_idx=one,
        commutative=commutative,
        names=names if names is not None else [str(i) for i in range(n)],
        spec=spec if spec is not None else f"table[{n}]",
    )


# ---------------------------------------------------------------------------
# elementwise queries


def units(ring: FiniteRing) -> set[RingElement]:
    """All elements with a two-sided multiplicative inverse.  A finite ring is
    Dedekind-finite (xy = 1 implies yx = 1): ``unit_indices`` scans x·R only."""
    return {ring.element(i) for i in unit_indices(ring)}


@_memo
def unit_indices(ring: FiniteRing) -> frozenset[int]:
    elems = np.arange(ring.size)
    found = [rows[(ring.mul(rows[:, None], elems) == ring.one.index).any(axis=1)]
             for rows in _row_blocks(ring.size, ring.size)]
    return frozenset(np.concatenate(found).tolist())


@_memo
def idempotent_indices(ring: FiniteRing) -> frozenset[int]:
    """The indices of all x with x^2 = x; memoised."""
    elems = np.arange(ring.size)
    return frozenset(np.flatnonzero(ring.mul(elems, elems) == elems).tolist())


def idempotents(ring: FiniteRing) -> set[RingElement]:
    """All x with x^2 = x."""
    return {ring.element(i) for i in idempotent_indices(ring)}


def nilpotency(ring: FiniteRing, x: RingElement) -> int | None:
    """Least n with x^n = 0, or None if x is not nilpotent."""
    if x.ring is not ring:
        raise InvalidParameter("element does not belong to this ring")
    zero = ring.zero.index
    acc = x.index
    seen = set()
    n = 1
    while acc != zero:
        if acc in seen:
            return None
        seen.add(acc)
        acc = ring.mul_idx(acc, x.index)
        n += 1
    return n


def characteristic(ring: FiniteRing) -> int:
    return ring.characteristic()


# ---------------------------------------------------------------------------
# finite abelian groups


class AbelianGroup(_Carrier):
    """A finite abelian group with table-indexed elements, written additively:
    a dense addition table, or residues modulo ``size`` when it is None."""

    _handle = GroupElement

    def __init__(self, rep: str, size: int, add: np.ndarray | None, identity_idx: int,
                 names: Sequence[str], spec: str):
        _check_size(size, "group", spec)
        super().__init__(rep, size, add, identity_idx, names, spec)
        self.identity = GroupElement(self, identity_idx)

    @_memo
    def exponent(self) -> int:
        """The least d > 0 with d·x = 0 for every x: the largest element order."""
        elems = np.arange(self.size)
        return int(_orders_modulo(self, elems == self.identity.index, elems).max())


def build_cyclic_group(m: int) -> AbelianGroup:
    """Z/m, computed on the residues (no table)."""
    if m < 1:
        raise InvalidParameter("cyclic group order must be >= 1")
    _check_size(m, "group", f"Z/{m}")
    return AbelianGroup(
        rep="cyclic",
        size=m,
        add=None,
        identity_idx=0,
        names=[str(i) for i in range(m)],
        spec=f"Z/{m}",
    )


def build_product_group(groups: list[AbelianGroup]) -> AbelianGroup:
    if not groups:
        raise InvalidParameter("product of an empty list of groups")
    sizes = [g.size for g in groups]
    size = math.prod(sizes)
    spec = " x ".join(g.spec for g in groups)
    _check_size(size, "group", spec)
    return AbelianGroup(
        rep="product",
        size=size,
        add=_op_table(size, _componentwise([g.add for g in groups], sizes)),
        identity_idx=int(np.ravel_multi_index([g.identity.index for g in groups], sizes)),
        names=_product_names(groups),
        spec=spec,
    )


def build_table_group(add_table: list[list[int]], names: Sequence[str] | None = None,
                      spec: str | None = None) -> AbelianGroup:
    """A group from an explicit addition table, validated exhaustively."""
    n = _table_size(add_table, "addition")
    _check_size(n, "table group")
    _check_table(add_table, n, "addition")
    rng = range(n)
    ids = [e for e in rng if all(add_table[e][x] == x and add_table[x][e] == x for x in rng)]
    if len(ids) != 1:
        raise NotARing("group identity")
    e = ids[0]
    for x in rng:
        if all(add_table[x][y] != e for y in rng):
            raise NotARing("group inverses", f"element {x}")
    for x in rng:
        for y in rng:
            if add_table[x][y] != add_table[y][x]:
                raise NotARing("group commutativity", f"{x},{y}")
            axy = add_table[x][y]
            for z in rng:
                if add_table[axy][z] != add_table[x][add_table[y][z]]:
                    raise NotARing("group associativity", f"{x},{y},{z}")
    return AbelianGroup(
        rep="table",
        size=n,
        add=np.asarray(add_table, dtype=_index_dtype(n)),
        identity_idx=e,
        names=list(names) if names is not None else [str(i) for i in rng],
        spec=spec if spec is not None else f"table[{n}]",
    )


@_memo
def additive_group(ring: FiniteRing) -> AbelianGroup:
    """The additive group (R, +) of a ring, sharing element indices and the
    addition table with R."""
    return AbelianGroup(
        rep="ring-additive",
        size=ring.size,
        add=ring._add_t,
        identity_idx=ring.zero.index,
        names=ring.names,
        spec=f"({ring.spec},+)",
    )


# ---------------------------------------------------------------------------
# subgroups as index arrays: orders modulo a subgroup, spans


def _orders_modulo(carrier: _Carrier, span: np.ndarray, x) -> np.ndarray:
    """The order modulo a subgroup H (``span``, its mask) of each element of x:
    the least k > 0 with k·x in H.

    The order divides the index n of H.  For each p^e exactly dividing n,
    y = (n/p^e)·x has order modulo H the p-part of the order of x: the least
    p^j with p^j·y in H, found by multiplying y by p at most e times."""
    x = np.asarray(x, dtype=np.int64).ravel()
    n = carrier.size // int(np.count_nonzero(span))
    orders = np.ones(x.size, dtype=np.int64)
    for p, e in factorize(n):
        y = carrier.scalar(n // p**e, x)
        for j in range(e + 1):
            inside = span[y]
            if inside.all():
                break
            if j == e:
                raise NotARing("element order", carrier.format_element(int(x[inside.argmin()])))
            orders = np.where(inside, orders, orders * p)
            y = carrier.scalar(p, y)
    return orders


def _extend_span(carrier: _Carrier, members: np.ndarray, span: np.ndarray, g: int) -> np.ndarray:
    """The subgroup H + <g> listed as the cosets H + k·g, k below the order t
    of g modulo H, member-major (k varies fastest); H is given by ``members``
    and by ``span``, its mask, which is updated in place."""
    multiples, step = np.array([carrier._zero_idx]), g  # k·g for k < len(multiples); step = len·g
    back = span[multiples[1:]]
    while not back.any():
        if multiples.size > carrier.size // members.size:  # t is at most the index of H
            raise NotARing("element order", carrier.format_element(int(g)))
        multiples = np.concatenate([multiples, carrier.add(multiples, step)])
        step = carrier.add_idx(step, step)
        back = span[multiples[1:]]
    members = carrier.add(members[:, None], multiples[:1 + int(back.argmax())]).ravel()
    span[members] = True
    return members


def _additive_span(carrier: _Carrier, seed, span: np.ndarray | None = None) -> np.ndarray:
    """The additive subgroup generated by the indices in ``seed`` and the
    subgroup masked by ``span`` (default {0}), extended by each seed element
    outside it in turn; a new mask."""
    seed = np.asarray(seed, dtype=np.int64).ravel()
    span = np.arange(carrier.size) == carrier._zero_idx if span is None else span.copy()
    members = np.flatnonzero(span)
    while not span[seed].all():
        members = _extend_span(carrier, members, span, seed[span[seed].argmin()])
    return span


# ---------------------------------------------------------------------------
# invariant-factor decomposition


@dataclass
class CyclicDecomposition:
    """G as an internal direct sum of cyclic subgroups with l_1 | l_2 | ... | l_k.

    ``pairs`` lists (generator index, order).  Element i has the unique
    coordinates (c_1, ..., c_k), 0 <= c_t < l_t, with i = sum(c_t·g_t).
    ``members[p]`` is the element whose coordinates are the mixed-radix digits
    of the position p, c_1 least significant; ``coords`` is its inverse, one
    row of coordinates per element, which ``coords_of(i)`` reads.
    """

    group: AbelianGroup
    pairs: list[tuple[int, int]]  # (generator index, order)
    members: list[int]  # the element at each coordinate position
    coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.orders = [order for _, order in self.pairs]
        self._weights = [math.prod(self.orders[:t]) for t in range(len(self.orders))]
        position = np.argsort(self.members)
        self.coords = position[:, None] // np.array(self._weights, dtype=np.int64) % self.orders

    def coords_of(self, i: int) -> tuple[int, ...]:
        return tuple(self.coords[i].tolist())

    def element_of(self, coords: Sequence[int]) -> int:
        return self.members[sum(c % order * w for c, order, w in zip(coords, self.orders, self._weights))]


def group_decompose_cyclic(group: AbelianGroup, scan_order: Sequence[int] | None = None) -> CyclicDecomposition:
    """Decompose a finite abelian group into cyclic factors of dividing orders.

    Greedy selection: repeatedly take the element x of maximal order t modulo
    the span H of the generators chosen so far (first such element in
    ``scan_order``, default table order), and subtract a combination of
    those generators so that its order becomes exactly t.  Generators are
    returned in increasing order, l_1 | l_2 | ... | l_k.  Memoised per scan
    order.

    The adjustment always succeeds.  Let o_j be the order chosen at step j:
    the exponent of G/H_{j-1}, so t divides o_j.  Write t·x = sum_i a_i·g_i
    with 0 <= a_i < o_i.  Then o_j·x = (o_j/t)·(t·x) lies in H_{j-1}, so its
    coordinate j vanishes: o_j divides (o_j/t)·a_j, hence t divides a_j.  So
    adj = x - sum_i (a_i/t)·g_i has t·adj = 0, and it is still of order t
    modulo H.  A failure raises InternalError.
    """
    g = group
    scan = tuple(scan_order) if scan_order is not None else tuple(range(g.size))
    key = ("cyclicdecomp", scan)
    if key in g._cache:
        return g._cache[key]
    scan_arr = np.array(scan, dtype=np.int64)
    # the span, listed in coordinate order: the first chosen generator most significant
    members = np.array([g.identity.index])
    span = np.arange(g.size) == g.identity.index
    chosen: list[tuple[int, int]] = []
    while members.size < g.size:
        rest = scan_arr[~span[scan_arr]]
        orders = _orders_modulo(g, span, rest)
        x, t = int(rest[orders.argmax()]), int(orders.max())
        position = int(np.flatnonzero(members == g.scalar_idx(t, x))[0])
        adj = x
        for gen, order in reversed(chosen):  # coordinates of t·x, last chosen generator first
            position, a = divmod(position, order)
            adj = g.sub_idx(adj, g.scalar_idx(a // t, gen))
        if g.scalar_idx(t, adj) != g.identity.index:
            raise InternalError(f"cyclic decomposition of {g.spec}: no exact order {t} for {g.format_element(x)}")
        chosen.append((adj, t))
        grown = members.size * t
        members = _extend_span(g, members, span, adj)
        if members.size != grown or np.count_nonzero(span) != grown:
            raise NotARing("cyclic decomposition", "span growth mismatch")
    pairs = list(reversed(chosen))
    orders = [order for _, order in pairs]
    for a, b in zip(orders, orders[1:]):
        if b % a != 0:
            raise NotARing("cyclic decomposition", "divisibility chain failed")
    g._cache[key] = CyclicDecomposition(group=g, pairs=pairs, members=members.tolist())
    return g._cache[key]
