"""Finite commutative (and flagged non-commutative) rings and finite abelian groups.

Every structure carries an element table indexed 0..size-1; an element is
identified by (owning structure, index).  Arithmetic is exposed both on
element handles (operator overloads) and on raw indices (the ``*_idx``
methods, used by the solvers' hot loops).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import CapacityError, InvalidParameter, NotARing

DEFAULT_MAX_ELEMS = 4096


def max_elems() -> int:
    """Element-count cap for constructed structures (env-overridable)."""
    value = os.environ.get("RINGSOLVE_MAX_ELEMS")
    return int(value) if value else DEFAULT_MAX_ELEMS


def _check_size(size: int, what: str):
    cap = max_elems()
    if size > cap:
        raise CapacityError(f"{what} has {size} elements, exceeding the cap of {cap}")


@dataclass(frozen=True)
class RingElement:
    """An element of a :class:`FiniteRing`, identified by (ring, index)."""

    ring: "FiniteRing"
    index: int

    def __add__(self, other: "RingElement") -> "RingElement":
        return self.ring.element(self.ring.add_idx(self.index, self._idx(other)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self.ring.element(self.ring.add_idx(self.index, self.ring.neg_idx(self._idx(other))))

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


class FiniteRing:
    """A finite ring given by index-level operation callables.

    Instances are immutable after construction; derived data (units, op
    tables, structure theory) is memoised in ``_cache``.
    """

    def __init__(
        self,
        rep: str,
        size: int,
        add: Callable[[int, int], int],
        mul: Callable[[int, int], int],
        neg: Callable[[int], int],
        zero_idx: int,
        one_idx: int,
        commutative: bool,
        names: Sequence[str],
        spec: str,
    ):
        _check_size(size, f"ring {spec!r}")
        self.rep = rep
        self.size = size
        self._add = add
        self._mul = mul
        self._neg = neg
        self.zero = RingElement(self, zero_idx)
        self.one = RingElement(self, one_idx)
        self.commutative = commutative
        self.names = list(names)
        self.spec = spec
        self._name_to_idx = {n: i for i, n in enumerate(self.names)}
        self._cache: dict = {}

    # -- index-level arithmetic -------------------------------------------

    def add_idx(self, i: int, j: int) -> int:
        return self._add(i, j)

    def mul_idx(self, i: int, j: int) -> int:
        return self._mul(i, j)

    def neg_idx(self, i: int) -> int:
        return self._neg(i)

    def sub_idx(self, i: int, j: int) -> int:
        return self._add(i, self._neg(j))

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

    def scalar_idx(self, k: int, i: int) -> int:
        """k·x for an integer k, by binary doubling."""
        k %= self.characteristic()
        acc, base = self.zero.index, i
        while k:
            if k & 1:
                acc = self._add(acc, base)
            base = self._add(base, base)
            k >>= 1
        return acc

    # -- element handles ----------------------------------------------------

    def element(self, i: int) -> RingElement:
        if not 0 <= i < self.size:
            raise InvalidParameter(f"element index {i} out of range for {self.spec}")
        return RingElement(self, i)

    def elements(self) -> list[RingElement]:
        return [RingElement(self, i) for i in range(self.size)]

    def from_int(self, k: int) -> RingElement:
        """The image of the integer k under the characteristic map k -> k·1."""
        return self.element(self.scalar_idx(k, self.one.index))

    def format_element(self, i: int) -> str:
        return self.names[i]

    def parse_element(self, name: str) -> RingElement:
        name = name.strip()
        idx = self._name_to_idx.get(name)
        if idx is None:
            raise InvalidParameter(f"{name!r} is not an element of {self.spec}")
        return RingElement(self, idx)

    # -- derived data ---------------------------------------------------------

    def characteristic(self) -> int:
        """Additive order of 1."""
        if "char" not in self._cache:
            self._cache["char"] = self.additive_order(self.one.index)
        return self._cache["char"]

    def additive_order(self, i: int) -> int:
        acc, order = i, 1
        zero = self.zero.index
        while acc != zero:
            acc = self._add(acc, i)
            order += 1
            if order > self.size:
                raise NotARing("additive order", self.format_element(i))
        return order

    def op_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """Materialised (add, mul) tables; used by the oracle and table dumps."""
        if "tables" not in self._cache:
            n = self.size
            add = [[self._add(i, j) for j in range(n)] for i in range(n)]
            mul = [[self._mul(i, j) for j in range(n)] for i in range(n)]
            self._cache["tables"] = (add, mul)
        return self._cache["tables"]

    def __repr__(self):
        return f"FiniteRing({self.spec})"


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

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# builders


def build_zmod(m: int) -> FiniteRing:
    """The ring of integers modulo m."""
    if not isinstance(m, int) or m < 2:
        raise InvalidParameter(f"modulus must be an integer >= 2, got {m}")
    ring = FiniteRing(
        rep="zmod",
        size=m,
        add=lambda i, j: (i + j) % m,
        mul=lambda i, j: (i * j) % m,
        neg=lambda i: (-i) % m,
        zero_idx=0,
        one_idx=1 % m,
        commutative=True,
        names=[str(i) for i in range(m)],
        spec=f"Z/{m}",
    )
    ring.modulus = m
    ring._cache["char"] = m
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
    if not _is_prime(p):
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
    size = q**r

    def decode(i: int) -> list[int]:
        return [(i // q**t) % q for t in range(r)]

    def encode(cs: Sequence[int]) -> int:
        return sum((c % q) * q**t for t, c in enumerate(cs))

    def add(i, j):
        a, b = decode(i), decode(j)
        return encode([(x + y) % q for x, y in zip(a, b)])

    def neg(i):
        return encode([(-x) % q for x in decode(i)])

    def mul(i, j):
        a, b = decode(i), decode(j)
        prod = [0] * (2 * r - 1)
        for s, x in enumerate(a):
            if x:
                for t, y in enumerate(b):
                    prod[s + t] += x * y
        return encode(poly_mod_reduce(prod, fc, q))

    def name(i: int) -> str:
        cs = decode(i)
        if all(c == 0 for c in cs[1:]):
            return str(cs[0])
        return "[" + ",".join(str(c) for c in cs) + "]"

    _check_size(size, "polynomial quotient ring")
    ring = FiniteRing(
        rep="poly",
        size=size,
        add=add,
        mul=mul,
        neg=neg,
        zero_idx=0,
        one_idx=1,
        commutative=True,
        names=[name(i) for i in range(size)],
        spec=f"Z/{q}[X]/({f})",
    )
    ring.p, ring.n, ring.f = p, n, Poly(tuple(fc))
    ring._cache["char"] = q
    return ring


def build_product(rings: list[FiniteRing]) -> FiniteRing:
    """The componentwise product ring."""
    if not rings:
        raise InvalidParameter("product of an empty list of rings")
    flags = {r.commutative for r in rings}
    if len(flags) != 1:
        raise InvalidParameter("product factors must agree on commutativity")
    sizes = [r.size for r in rings]
    size = math.prod(sizes)
    _check_size(size, "product ring")

    def decode(i: int) -> list[int]:
        out = []
        for s in reversed(sizes):
            out.append(i % s)
            i //= s
        return out[::-1]

    def encode(parts: Sequence[int]) -> int:
        i = 0
        for s, c in zip(sizes, parts):
            i = i * s + c
        return i

    def zipwise(op_name):
        def op(i, j):
            a, b = decode(i), decode(j)
            return encode([getattr(r, op_name)(x, y) for r, x, y in zip(rings, a, b)])

        return op

    def neg(i):
        return encode([r.neg_idx(x) for r, x in zip(rings, decode(i))])

    def name(i: int) -> str:
        return "(" + ",".join(r.format_element(c) for r, c in zip(rings, decode(i))) + ")"

    ring = FiniteRing(
        rep="product",
        size=size,
        add=zipwise("add_idx"),
        mul=zipwise("mul_idx"),
        neg=neg,
        zero_idx=encode([r.zero.index for r in rings]),
        one_idx=encode([r.one.index for r in rings]),
        commutative=flags.pop(),
        names=[name(i) for i in range(size)],
        spec=" x ".join(r.spec for r in rings),
    )
    ring.factors = list(rings)
    ring._cache["char"] = math.lcm(*(r.characteristic() for r in rings))
    return ring


def _validate_ring_tables(add: list[list[int]], mul: list[list[int]], check_commutative: bool):
    """Exhaustive axiom check on explicit tables; raises NotARing naming the axiom."""
    n = len(add)
    rng = range(n)
    for t, label in ((add, "addition"), (mul, "multiplication")):
        if len(t) != n or any(len(row) != n for row in t):
            raise NotARing("table shape", label)
        for row in t:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise NotARing("table entries", label)
    # additive identity
    zeros = [z for z in rng if all(add[z][x] == x and add[x][z] == x for x in rng)]
    if len(zeros) != 1:
        raise NotARing("additive identity")
    zero = zeros[0]
    for x in rng:
        if all(add[x][y] != zero for y in rng):
            raise NotARing("additive inverses", f"element {x}")
    for x in rng:
        for y in rng:
            if add[x][y] != add[y][x]:
                raise NotARing("addition commutativity", f"{x},{y}")
    for x in rng:
        for y in rng:
            axy = add[x][y]
            for z in rng:
                if add[axy][z] != add[x][add[y][z]]:
                    raise NotARing("addition associativity", f"{x},{y},{z}")
    ones = [o for o in rng if all(mul[o][x] == x and mul[x][o] == x for x in rng)]
    if len(ones) != 1:
        raise NotARing("multiplicative identity")
    one = ones[0]
    for x in rng:
        for y in rng:
            mxy = mul[x][y]
            for z in rng:
                if mul[mxy][z] != mul[x][mul[y][z]]:
                    raise NotARing("multiplication associativity", f"{x},{y},{z}")
                if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                    raise NotARing("left distributivity", f"{x},{y},{z}")
                if mul[add[y][z]][x] != add[mul[y][x]][mul[z][x]]:
                    raise NotARing("right distributivity", f"{x},{y},{z}")
    commutative = all(mul[x][y] == mul[y][x] for x in rng for y in rng)
    if check_commutative and not commutative:
        raise NotARing("multiplication commutativity")
    return zero, one, commutative


def build_table_ring(
    add_table: list[list[int]],
    mul_table: list[list[int]],
    commutative: bool = True,
    names: Sequence[str] | None = None,
    spec: str | None = None,
    _validate: bool = True,
) -> FiniteRing:
    """A ring from explicit size x size tables, validated exhaustively.

    ``commutative=True`` is verified; with ``commutative=False`` the actual
    commutativity is detected and stored (a commutative table is accepted).
    """
    n = len(add_table)
    if n == 0 or len(mul_table) != n:
        raise InvalidParameter("tables must be square and of equal size")
    _check_size(n, "table ring")
    if _validate:
        zero, one, actual_comm = _validate_ring_tables(add_table, mul_table, commutative)
    else:
        zero = next(z for z in range(n) if all(add_table[z][x] == x for x in range(n)))
        one = next(o for o in range(n) if all(mul_table[o][x] == x and mul_table[x][o] == x for x in range(n)))
        actual_comm = commutative
    add = [list(row) for row in add_table]
    mul = [list(row) for row in mul_table]
    neg = [0] * n
    for x in range(n):
        neg[x] = next(y for y in range(n) if add[x][y] == zero)
    ring = FiniteRing(
        rep="table",
        size=n,
        add=lambda i, j: add[i][j],
        mul=lambda i, j: mul[i][j],
        neg=lambda i: neg[i],
        zero_idx=zero,
        one_idx=one,
        commutative=actual_comm,
        names=list(names) if names is not None else [str(i) for i in range(n)],
        spec=spec if spec is not None else f"table[{n}]",
    )
    ring._cache["tables"] = (add, mul)
    return ring


# ---------------------------------------------------------------------------
# elementwise queries


def units(ring: FiniteRing) -> set[RingElement]:
    """All elements with a two-sided multiplicative inverse."""
    if "units" not in ring._cache:
        one = ring.one.index
        found = set()
        for x in range(ring.size):
            for y in range(ring.size):
                if ring.mul_idx(x, y) == one and ring.mul_idx(y, x) == one:
                    found.add(x)
                    break
        ring._cache["units"] = frozenset(found)
    return {ring.element(i) for i in ring._cache["units"]}


def unit_indices(ring: FiniteRing) -> frozenset[int]:
    units(ring)
    return ring._cache["units"]


def inverse_idx(ring: FiniteRing, i: int) -> int | None:
    one = ring.one.index
    for y in range(ring.size):
        if ring.mul_idx(i, y) == one and ring.mul_idx(y, i) == one:
            return y
    return None


def idempotents(ring: FiniteRing) -> set[RingElement]:
    """All x with x^2 = x."""
    if "idem" not in ring._cache:
        ring._cache["idem"] = frozenset(
            x for x in range(ring.size) if ring.mul_idx(x, x) == x
        )
    return {ring.element(i) for i in ring._cache["idem"]}


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


class AbelianGroup:
    """A finite abelian group with table-indexed elements, written additively."""

    def __init__(
        self,
        rep: str,
        size: int,
        add: Callable[[int, int], int],
        neg: Callable[[int], int],
        identity_idx: int,
        names: Sequence[str],
        spec: str,
    ):
        _check_size(size, f"group {spec!r}")
        self.rep = rep
        self.size = size
        self._add = add
        self._neg = neg
        self.identity = GroupElement(self, identity_idx)
        self.names = list(names)
        self.spec = spec
        self._name_to_idx = {n: i for i, n in enumerate(self.names)}
        self._cache: dict = {}

    def add_idx(self, i: int, j: int) -> int:
        return self._add(i, j)

    def neg_idx(self, i: int) -> int:
        return self._neg(i)

    def scalar_idx(self, k: int, i: int) -> int:
        if k < 0:
            return self.neg_idx(self.scalar_idx(-k, i))
        acc, base = self.identity.index, i
        while k:
            if k & 1:
                acc = self._add(acc, base)
            base = self._add(base, base)
            k >>= 1
        return acc

    def element(self, i: int) -> GroupElement:
        if not 0 <= i < self.size:
            raise InvalidParameter(f"element index {i} out of range for {self.spec}")
        return GroupElement(self, i)

    def elements(self) -> list[GroupElement]:
        return [GroupElement(self, i) for i in range(self.size)]

    def format_element(self, i: int) -> str:
        return self.names[i]

    def parse_element(self, name: str) -> GroupElement:
        idx = self._name_to_idx.get(name.strip())
        if idx is None:
            raise InvalidParameter(f"{name!r} is not an element of {self.spec}")
        return GroupElement(self, idx)

    def order_of(self, i: int) -> int:
        acc, order = i, 1
        e = self.identity.index
        while acc != e:
            acc = self._add(acc, i)
            order += 1
            if order > self.size:
                raise NotARing("element order", self.format_element(i))
        return order

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = math.lcm(*(self.order_of(i) for i in range(self.size)))
        return self._cache["exponent"]

    def add_table(self) -> list[list[int]]:
        if "table" not in self._cache:
            n = self.size
            self._cache["table"] = [[self._add(i, j) for j in range(n)] for i in range(n)]
        return self._cache["table"]

    def __repr__(self):
        return f"AbelianGroup({self.spec})"


def build_cyclic_group(m: int) -> AbelianGroup:
    if m < 1:
        raise InvalidParameter("cyclic group order must be >= 1")
    return AbelianGroup(
        rep="cyclic",
        size=m,
        add=lambda i, j: (i + j) % m,
        neg=lambda i: (-i) % m,
        identity_idx=0,
        names=[str(i) for i in range(m)],
        spec=f"Z/{m}",
    )


def build_product_group(groups: list[AbelianGroup]) -> AbelianGroup:
    if not groups:
        raise InvalidParameter("product of an empty list of groups")
    sizes = [g.size for g in groups]
    size = math.prod(sizes)

    def decode(i: int) -> list[int]:
        out = []
        for s in reversed(sizes):
            out.append(i % s)
            i //= s
        return out[::-1]

    def encode(parts: Sequence[int]) -> int:
        i = 0
        for s, c in zip(sizes, parts):
            i = i * s + c
        return i

    def add(i, j):
        return encode([g.add_idx(x, y) for g, x, y in zip(groups, decode(i), decode(j))])

    def neg(i):
        return encode([g.neg_idx(x) for g, x in zip(groups, decode(i))])

    def name(i):
        return "(" + ",".join(g.format_element(c) for g, c in zip(groups, decode(i))) + ")"

    return AbelianGroup(
        rep="product",
        size=size,
        add=add,
        neg=neg,
        identity_idx=encode([g.identity.index for g in groups]),
        names=[name(i) for i in range(size)],
        spec=" x ".join(g.spec for g in groups),
    )


def build_table_group(add_table: list[list[int]], names: Sequence[str] | None = None,
                      spec: str | None = None) -> AbelianGroup:
    """A group from an explicit addition table, validated exhaustively."""
    n = len(add_table)
    if n == 0 or any(len(row) != n for row in add_table):
        raise InvalidParameter("addition table must be square")
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
    table = [list(row) for row in add_table]
    neg = [next(y for y in rng if table[x][y] == e) for x in rng]
    group = AbelianGroup(
        rep="table",
        size=n,
        add=lambda i, j: table[i][j],
        neg=lambda i: neg[i],
        identity_idx=e,
        names=list(names) if names is not None else [str(i) for i in rng],
        spec=spec if spec is not None else f"table[{n}]",
    )
    group._cache["table"] = table
    return group


def additive_group(ring: FiniteRing) -> AbelianGroup:
    """The additive group (R, +) of a ring, sharing element indices with R."""
    if "addgroup" not in ring._cache:
        ring._cache["addgroup"] = AbelianGroup(
            rep="ring-additive",
            size=ring.size,
            add=ring.add_idx,
            neg=ring.neg_idx,
            identity_idx=ring.zero.index,
            names=ring.names,
            spec=f"({ring.spec},+)",
        )
    return ring._cache["addgroup"]


# ---------------------------------------------------------------------------
# invariant-factor decomposition


@dataclass
class CyclicDecomposition:
    """G as an internal direct sum of cyclic subgroups with l_1 | l_2 | ... | l_k.

    ``pairs`` lists (generator index, order); ``coords_of`` maps an element
    to its unique coordinate tuple (c_1, ..., c_k) with 0 <= c_t < l_t.
    """

    group: AbelianGroup
    pairs: list[tuple[int, int]]  # (generator index, order)
    _coords: dict[int, tuple[int, ...]] = field(repr=False, default_factory=dict)

    def as_elements(self) -> list[tuple[GroupElement, int]]:
        return [(self.group.element(g), order) for g, order in self.pairs]

    def __iter__(self):
        return iter(self.as_elements())

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, t):
        return self.as_elements()[t]

    @property
    def orders(self) -> list[int]:
        return [order for _, order in self.pairs]

    def coords_of(self, i: int) -> tuple[int, ...]:
        return self._coords[i]

    def element_of(self, coords: Sequence[int]) -> int:
        g = self.group
        acc = g.identity.index
        for (gen, order), c in zip(self.pairs, coords):
            acc = g.add_idx(acc, g.scalar_idx(c % order, gen))
        return acc


def group_decompose_cyclic(group: AbelianGroup, scan_order: Sequence[int] | None = None) -> CyclicDecomposition:
    """Decompose a finite abelian group into cyclic factors of dividing orders.

    Greedy selection: repeatedly take the element of maximal order modulo the
    subgroup generated so far (first such element in ``scan_order``, default
    table order), adjusted by a subgroup combination so its order is exact.
    Generators are returned in increasing order, l_1 | l_2 | ... | l_k.
    """
    g = group
    e = g.identity.index
    scan = list(scan_order) if scan_order is not None else list(range(g.size))
    # span: element -> coordinates w.r.t. chosen generators (decreasing order)
    span: dict[int, tuple[int, ...]] = {e: ()}
    chosen: list[tuple[int, int]] = []
    while len(span) < g.size:
        best, best_ord = None, 0
        for x in scan:
            if x in span:
                continue
            acc, t = x, 1
            while acc not in span:
                acc = g.add_idx(acc, x)
                t += 1
            if t > best_ord:
                best, best_ord = x, t
        x, t = best, best_ord
        # t*x lies in the span; subtract a combination so the order becomes exact
        tx = x
        for _ in range(t - 1):
            tx = g.add_idx(tx, x)
        coords = span[tx]
        adj = x
        if all(a % t == 0 for a in coords):
            for (gen, order), a in zip(chosen, coords):
                adj = g.add_idx(adj, g.neg_idx(g.scalar_idx(a // t, gen)))
        if g.order_of(adj) != t:
            # greedy shortcut failed; a shift into the span must exist
            adj = next(
                g.add_idx(x, g.neg_idx(s)) for s in span
                if g.order_of(g.add_idx(x, g.neg_idx(s))) == t
            )
        chosen.append((adj, t))
        # rebuild the span with the new generator
        new_span: dict[int, tuple[int, ...]] = {}
        for elem, cs in span.items():
            acc = elem
            for c in range(t):
                new_span[acc] = cs + (c,)
                acc = g.add_idx(acc, adj)
        if len(new_span) != len(span) * t:
            raise NotARing("cyclic decomposition", "span growth mismatch")
        span = new_span
    pairs = list(reversed(chosen))
    coords = {elem: tuple(reversed(cs)) for elem, cs in span.items()}
    orders = [order for _, order in pairs]
    for a, b in zip(orders, orders[1:]):
        if b % a != 0:
            raise NotARing("cyclic decomposition", "divisibility chain failed")
    return CyclicDecomposition(group=g, pairs=pairs, _coords=coords)
