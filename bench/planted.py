"""Independent arithmetic and planted instances for the benchmark.

Nothing here imports ringsolve.  Every ring and group is modelled with plain
Python values, so a check made with these models does not trust the
program's ring objects.  The two sides share only the canonical element
names (``3``, ``[1,2]``, ``(1,[0,1])``, ``((1,3),2)``), which is how inputs
are handed to the program and how its outputs are read back.

Planted facts:

* a SOLVABLE system carries a solution ``x`` with ``A·x = b``;
* an UNSOLVABLE system carries a row combination ``y`` with ``y·A = 0`` and
  ``y·b != 0``, checked when the instance is made;
* an invertible matrix is ``L·U`` (``L`` unit lower-triangular, ``U``
  upper-triangular with unit diagonal), so ``det = prod(diag U)``;
* a singular matrix carries a dependent last row, so ``det = 0``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


def split_top(text: str) -> list[str]:
    """Split at commas that are not nested in brackets or parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


# ---------------------------------------------------------------------------
# models


class Model:
    """Shared helpers; subclasses define zero, one, add, neg, mul, elements."""

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, k: int, a):
        """k·a for an integer k, by doubling."""
        if k < 0:
            return self.neg(self.scale(-k, a))
        acc = self.zero
        while k:
            if k & 1:
                acc = self.add(acc, a)
            a = self.add(a, a)
            k >>= 1
        return acc

    def additive_order(self, a) -> int:
        acc, k = a, 1
        while acc != self.zero:
            acc = self.add(acc, a)
            k += 1
        return k

    def total(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def elements_of_order(self, k: int) -> list:
        return [a for a in self.elements() if self.additive_order(a) == k]


class ZMod(Model):
    """Z/m, also used as the cyclic group of order m."""

    def __init__(self, m: int):
        self.m = m
        self.spec = f"Z/{m}"
        self.size = self.exponent = m
        self.zero, self.one = 0, 1 % m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def scale(self, k, a):
        return (k * a) % self.m

    def elements(self):
        return list(range(self.m))

    def is_unit(self, a) -> bool:
        return math.gcd(a, self.m) == 1

    def name(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        return int(text)

    def last(self):
        return self.m - 1


def least_irreducible(p: int, r: int) -> tuple[int, ...]:
    """The monic degree-r polynomial over Z/p, irreducible mod p, whose
    coefficient tail (c_0, ..., c_{r-1}) is least in lexicographic order."""

    def divides(div, poly):
        work = list(poly)
        d = len(div) - 1
        for k in range(len(work) - 1, d - 1, -1):
            c = work[k] % p
            if c:
                for t in range(d + 1):
                    work[k - d + t] = (work[k - d + t] - c * div[t]) % p
        return all(c % p == 0 for c in work)

    for tail in itertools.product(range(p), repeat=r):
        f = tail + (1,)
        if not any(
            divides(dt + (1,), f)
            for d in range(1, r // 2 + 1)
            for dt in itertools.product(range(p), repeat=d)
        ):
            return f
    raise ValueError(f"no irreducible polynomial of degree {r} mod {p}")


class GaloisModel(Model):
    """GR(p^n, r) = Z/p^n[X]/(f), f the least irreducible mod p; coefficient tuples."""

    def __init__(self, p: int, n: int, r: int):
        self.p, self.n, self.r = p, n, r
        self.q = p**n
        self.f = least_irreducible(p, r)
        self.spec = f"GR({self.q},{r})"
        self.size = self.q**r
        self.exponent = self.q
        self.zero = (0,) * r
        self.one = (1,) + (0,) * (r - 1)

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.q for x in a)

    def mul(self, a, b):
        r, q, f = self.r, self.q, self.f
        prod = [0] * (2 * r - 1)
        for s, x in enumerate(a):
            if x:
                for t, y in enumerate(b):
                    prod[s + t] += x * y
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k]
            if c:
                for t in range(r):
                    prod[k - r + t] -= c * f[t]
        return tuple(c % q for c in prod[:r])

    def elements(self):
        return [tuple(reversed(cs)) for cs in itertools.product(range(self.q), repeat=self.r)]

    def is_unit(self, a) -> bool:
        # f is irreducible mod p, so the residue ring is a field
        return any(c % self.p for c in a)

    def name(self, a) -> str:
        if all(c == 0 for c in a[1:]):
            return str(a[0])
        return "[" + ",".join(str(c) for c in a) + "]"

    def parse(self, text: str):
        if text.startswith("["):
            return tuple(int(c) for c in text[1:-1].split(","))
        return (int(text),) + (0,) * (self.r - 1)

    def last(self):
        return (self.q - 1,) * self.r


class ProductModel(Model):
    """Componentwise product of rings (or of groups)."""

    def __init__(self, factors: list):
        self.factors = factors
        self.spec = " x ".join(f.spec for f in factors)
        self.size = math.prod(f.size for f in factors)
        self.exponent = math.lcm(*(f.exponent for f in factors))
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def scale(self, k, a):
        return tuple(f.scale(k, x) for f, x in zip(self.factors, a))

    def elements(self):
        return list(itertools.product(*(f.elements() for f in self.factors)))

    def is_unit(self, a) -> bool:
        return all(f.is_unit(x) for f, x in zip(self.factors, a))

    def name(self, a) -> str:
        return "(" + ",".join(f.name(x) for f, x in zip(self.factors, a)) + ")"

    def parse(self, text: str):
        parts = split_top(text[1:-1])
        return tuple(f.parse(s) for f, s in zip(self.factors, parts))

    def last(self):
        return tuple(f.last() for f in self.factors)


class PhiModel(Model):
    """phi(G) on G x Z/d: (g1,m1)(g2,m2) = (m2·g1 + m1·g2, m1·m2)."""

    def __init__(self, group):
        self.group = group
        self.d = group.exponent
        self.spec = f"phi({group.spec})"
        self.size = group.size * self.d
        self.exponent = self.d
        self.zero = (group.zero, 0)
        self.one = (group.zero, 1 % self.d)

    def add(self, a, b):
        return (self.group.add(a[0], b[0]), (a[1] + b[1]) % self.d)

    def neg(self, a):
        return (self.group.neg(a[0]), (-a[1]) % self.d)

    def mul(self, a, b):
        g = self.group
        return (g.add(g.scale(b[1], a[0]), g.scale(a[1], b[0])), (a[1] * b[1]) % self.d)

    def elements(self):
        return [(g, m) for g in self.group.elements() for m in range(self.d)]

    def is_unit(self, a) -> bool:
        return math.gcd(a[1], self.d) == 1

    def name(self, a) -> str:
        return f"({self.group.name(a[0])},{a[1]})"

    def parse(self, text: str):
        g, m = split_top(text[1:-1])
        return (self.group.parse(g), int(m))

    def last(self):
        return (self.group.last(), self.d - 1)


class TableModel(Model):
    """A ring given by explicit tables; elements are table indices."""

    def __init__(self, add, mul, spec_name: str):
        self.add_t, self.mul_t = add, mul
        n = len(add)
        self.size = n
        self.names = [str(i) for i in range(n)]
        self.zero = next(z for z in range(n) if all(add[z][x] == x for x in range(n)))
        self.one = next(o for o in range(n) if all(mul[o][x] == x == mul[x][o] for x in range(n)))
        self.exponent = max(self.additive_order(a) for a in range(n))
        self.label = spec_name
        self.spec = None  # "table:<path>", set once the tables are written

    def add(self, a, b):
        return self.add_t[a][b]

    def neg(self, a):
        return next(y for y in range(self.size) if self.add_t[a][y] == self.zero)

    def mul(self, a, b):
        return self.mul_t[a][b]

    def elements(self):
        return list(range(self.size))

    def is_unit(self, a) -> bool:
        return any(self.mul_t[a][y] == self.one == self.mul_t[y][a] for y in range(self.size))

    def name(self, a) -> str:
        return self.names[a]

    def parse(self, text: str):
        return self.names.index(text)

    def last(self):
        return self.size - 1

    def json_tables(self, commutative: bool) -> dict:
        return {"add": self.add_t, "mul": self.mul_t, "commutative": commutative, "names": self.names}


def f2xy_model() -> TableModel:
    """F2[x,y]/(x^2,y^2): a + b·x + c·y + d·xy at index a + 2b + 4c + 8d."""

    def mul(i, j):
        a1, b1, c1, d1 = (i >> k & 1 for k in range(4))
        a2, b2, c2, d2 = (j >> k & 1 for k in range(4))
        return (a1 * a2 % 2) + 2 * ((a1 * b2 + b1 * a2) % 2) + 4 * ((a1 * c2 + c1 * a2) % 2) \
            + 8 * ((a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2) % 2)

    return TableModel([[i ^ j for j in range(16)] for i in range(16)],
                      [[mul(i, j) for j in range(16)] for i in range(16)], "F2[x,y]/(x^2,y^2)")


def ut2_model() -> TableModel:
    """Upper-triangular 2x2 matrices [[a,b],[0,c]] over F2 at index a + 2b + 4c."""

    def mul(i, j):
        a1, b1, c1 = (i >> k & 1 for k in range(3))
        a2, b2, c2 = (j >> k & 1 for k in range(3))
        return (a1 * a2 % 2) + 2 * ((a1 * b2 + b1 * c2) % 2) + 4 * (c1 * c2 % 2)

    return TableModel([[i ^ j for j in range(8)] for i in range(8)],
                      [[mul(i, j) for j in range(8)] for i in range(8)], "UT2(F2)")


def table_product(m1, m2) -> TableModel:
    """The product ring of two models as tables, (a, b) at index i·|m2| + j."""
    e1, e2 = m1.elements(), m2.elements()
    pairs = [(a, b) for a in e1 for b in e2]
    pos = {p: k for k, p in enumerate(pairs)}

    def table(op1, op2):
        return [[pos[(op1(a1, a2), op2(b1, b2))] for a2, b2 in pairs] for a1, b1 in pairs]

    return TableModel(table(m1.add, m2.add), table(m1.mul, m2.mul),
                      f"{getattr(m1, 'label', m1.spec)} x {getattr(m2, 'label', m2.spec)}")


def group_of(spec: str):
    """A product of cyclic groups from a spec like ``Z/4 x Z/8``."""
    factors = [ZMod(int(part.strip()[2:])) for part in spec.split(" x ")]
    return factors[0] if len(factors) == 1 else ProductModel(factors)


# ---------------------------------------------------------------------------
# planted systems

@dataclass
class Instance:
    """A ``rows x cols`` system with its planted fact.

    ``kind`` fixes how a row is read:

    * ring: ``sum A[i][j]·x_j`` over a commutative ring model;
    * group: ``sum A[i][j]·x_j`` with integer ``A`` and group-valued ``x``;
    * twosided: ``sum A[i][j]·x_j + x_j·R[i][j]`` over a ring model;
    * numerical: ``sum x_j·A[i][j]`` with integer ``x`` and group-valued ``A``.
    """

    kind: str
    model: object
    A: list
    b: list
    solvable: bool
    R: list | None = None
    planted: list | None = None
    proof: list | None = None

    @property
    def n_rows(self) -> int:
        return len(self.A)

    @property
    def n_cols(self) -> int:
        return len(self.A[0])

    def row_value(self, i: int, x) -> object:
        m, A = self.model, self.A
        if self.kind == "ring":
            if isinstance(m, ZMod):
                return sum(a * v for a, v in zip(A[i], x)) % m.m
            return m.total(m.mul(a, v) for a, v in zip(A[i], x))
        if self.kind == "group":
            return m.total(m.scale(a, v) for a, v in zip(A[i], x))
        if self.kind == "numerical":
            return m.total(m.scale(v, a) for a, v in zip(A[i], x))
        return m.total(m.add(m.mul(a, v), m.mul(v, r)) for a, r, v in zip(A[i], self.R[i], x))

    def satisfied_by(self, x) -> bool:
        return all(self.row_value(i, x) == self.b[i] for i in range(self.n_rows))

    def proves_unsolvable(self, y) -> bool:
        """y·A = 0 (and y·R = 0) while y·b != 0."""
        m = self.model
        if self.kind == "ring":
            comb = lambda col: m.total(m.mul(c, v) for c, v in zip(y, col))
        elif self.kind == "group":
            comb = lambda col: sum(c * v for c, v in zip(y, col)) % m.exponent
        else:
            comb = lambda col: m.total(m.scale(c, v) for c, v in zip(y, col))
        zero = 0 if self.kind == "group" else m.zero
        mats = [self.A] + ([self.R] if self.R is not None else [])
        for mat in mats:
            for j in range(self.n_cols):
                if comb([row[j] for row in mat]) != zero:
                    return False
        yb = m.total(m.scale(c, v) if self.kind != "ring" else m.mul(c, v) for c, v in zip(y, self.b))
        return yb != m.zero


def _pick(rnd, values):
    return values[rnd.randrange(len(values))]


class Planter:
    """Draws coefficients, scalars and planted facts for one kind of system."""

    def __init__(self, kind: str, model):
        self.kind, self.model = kind, model
        m = model
        self.elems = m.elements()
        if kind in ("ring", "twosided"):
            self.units = [a for a in self.elems if m.is_unit(a)]
        elif kind == "group":
            self.units = [k for k in range(1, m.exponent) if math.gcd(k, m.exponent) == 1]
        else:  # numerical: full additive order, so x -> x·a is injective on Z/exponent
            self.units = [a for a in self.elems if m.additive_order(a) == m.exponent]
        # a right-hand-side offset that fails every local summand (a unit) or,
        # for the congruence path, every prime part (full additive order)
        self.offsets = self.units if kind == "ring" else m.elements_of_order(m.exponent)
        self.pool = list(range(m.exponent)) if kind == "group" else self.elems

    def coeff_row(self, rnd, n: int) -> list:
        return rnd.choices(self.pool, k=n)

    def scalar(self, rnd):
        if self.kind == "ring":
            return _pick(rnd, self.elems)
        return rnd.randrange(self.model.exponent)

    def scaled_row(self, c, row):
        m = self.model
        if self.kind == "ring":
            return [m.mul(c, a) for a in row]
        if self.kind == "group":
            return [(c * a) % m.exponent for a in row]
        return [m.scale(c, a) for a in row]

    def add_rows(self, r1, r2):
        if self.kind == "group":
            return [(a + b) % self.model.exponent for a, b in zip(r1, r2)]
        return [self.model.add(a, b) for a, b in zip(r1, r2)]

    def zero_coeff(self):
        return 0 if self.kind == "group" else self.model.zero

    def neg_scalar(self, c):
        if self.kind == "ring":
            return self.model.neg(c)
        return (-c) % self.model.exponent

    def scaled_value(self, c, v):
        m = self.model
        return m.mul(c, v) if self.kind == "ring" else m.scale(c, v)


def make_system(pl: Planter, n: int, solvable: bool, rnd, unique: bool = False) -> Instance:
    """An ``n x n`` system with a planted solution or a planted proof.

    ``unique=False`` draws dense random rows.  ``unique=True`` builds
    ``M·T`` with ``T`` upper triangular and ``M`` unit lower triangular, so
    a SOLVABLE instance has exactly one solution; it is planted at the last
    assignment in table order, so a brute force visits its whole space.
    ``T`` draws its entries from the bijective coefficients (units) and has
    right coefficients only above the diagonal, so its first row, which
    ``M`` leaves alone, names every variable and every variable but the
    first on both sides: the shapes the program derives do not depend on
    the seed.  An UNSOLVABLE instance replaces the last row by a combination
    of the others and offsets its right-hand side by an element that is
    nonzero in every local summand and every prime part.
    """
    kind, model = pl.kind, pl.model
    two = kind == "twosided"
    if unique:
        zero = pl.zero_coeff()
        A = [[zero] * n for _ in range(n)]
        R = [[model.zero] * n for _ in range(n)] if two else None
        for i in range(n):
            A[i][i] = _pick(rnd, pl.units)
            for j in range(i + 1, n):
                A[i][j] = _pick(rnd, pl.units)
                if two:
                    R[i][j] = _pick(rnd, pl.units)
        for i in range(n - 1, 0, -1):  # rows mix only with earlier rows: M unit lower
            for k in range(i):
                c = pl.scalar(rnd)
                A[i] = pl.add_rows(A[i], pl.scaled_row(c, A[k]))
                if two:
                    R[i] = pl.add_rows(R[i], pl.scaled_row(c, R[k]))
    else:
        A = [pl.coeff_row(rnd, n) for _ in range(n)]
        R = [pl.coeff_row(rnd, n) for _ in range(n)] if two else None
    if unique:
        x = [model.exponent - 1 if kind == "numerical" else model.last()] * n
    elif kind == "numerical":
        x = [rnd.randrange(model.exponent) for _ in range(n)]
    else:
        x = rnd.choices(pl.elems, k=n)
    inst = Instance(kind, model, A, [None] * n, solvable, R=R)
    if solvable:
        inst.b = [inst.row_value(i, x) for i in range(n)]
        inst.planted = x
        return inst
    cs = [pl.scalar(rnd) for _ in range(n - 1)]
    dep = [pl.zero_coeff()] * n
    dep_r = [model.zero] * n if two else None
    for c, k in zip(cs, range(n - 1)):
        dep = pl.add_rows(dep, pl.scaled_row(c, A[k]))
        if two:
            dep_r = pl.add_rows(dep_r, pl.scaled_row(c, R[k]))
    A[n - 1] = dep
    if two:
        R[n - 1] = dep_r
    b = [inst.row_value(i, x) for i in range(n - 1)]
    rhs = model.total(pl.scaled_value(c, v) for c, v in zip(cs, b))
    b.append(model.add(rhs, _pick(rnd, pl.offsets)))
    inst.b = b
    minus_one = pl.neg_scalar(model.one if kind == "ring" else 1)
    inst.proof = cs + [minus_one]
    if not inst.proves_unsolvable(inst.proof):
        raise AssertionError("planted unsolvability proof does not hold")
    return inst


def system_text(inst: Instance, header_spec: str) -> str:
    """The system in the program's file format."""
    m = inst.model
    lines = [f"{inst.kind} {header_spec}", "vars " + " ".join(f"x{j}" for j in range(inst.n_cols))]
    for i in range(inst.n_rows):
        terms = []
        for j in range(inst.n_cols):
            a = inst.A[i][j]
            if inst.kind == "group":
                if a:
                    terms.append(f"{a}*x{j}")
            elif a != m.zero:
                terms.append(f"{m.name(a)}*x{j}")
            if inst.R is not None and inst.R[i][j] != m.zero:
                terms.append(f"x{j}*{m.name(inst.R[i][j])}")
        lines.append(f"eq e{i}: {' + '.join(terms) if terms else '0'} = {m.name(inst.b[i])}")
    return "\n".join(lines) + "\n"


def read_assignment(inst: Instance, names: dict) -> list:
    """Program output {"x0": name, ...} as model values."""
    if inst.kind == "numerical":
        return [int(names[f"x{j}"]) for j in range(inst.n_cols)]
    return [inst.model.parse(str(names[f"x{j}"])) for j in range(inst.n_cols)]


# ---------------------------------------------------------------------------
# planted matrices


@dataclass
class MatrixCase:
    model: object
    A: list
    invertible: bool
    det: object


def mat_mul(m, X, Y):
    n, k, p = len(X), len(Y), len(Y[0])
    return [[m.total(m.mul(X[i][t], Y[t][j]) for t in range(k)) for j in range(p)] for i in range(n)]


def identity(m, n):
    return [[m.one if i == j else m.zero for j in range(n)] for i in range(n)]


def make_matrix(model, n: int, invertible: bool, rnd) -> MatrixCase:
    elems = model.elements()
    units = [a for a in elems if model.is_unit(a)]
    L = [[model.one if i == j else (_pick(rnd, elems) if j < i else model.zero) for j in range(n)]
         for i in range(n)]
    U = [[_pick(rnd, units) if i == j else (_pick(rnd, elems) if j > i else model.zero) for j in range(n)]
         for i in range(n)]
    A = mat_mul(model, L, U)
    det = model.zero
    if invertible:
        det = model.one
        for i in range(n):
            det = model.mul(det, U[i][i])
    else:
        cs = [_pick(rnd, elems) for _ in range(n - 1)]
        A[n - 1] = [model.total(model.mul(c, A[k][j]) for c, k in zip(cs, range(n - 1))) for j in range(n)]
    return MatrixCase(model, A, invertible, det)


def inverse_ok(case: MatrixCase, inv) -> bool:
    m = case.model
    return inv is not None and mat_mul(m, case.A, inv) == identity(m, len(case.A))


def charpoly_ok(case: MatrixCase, coeffs: list) -> bool:
    """Monic, Cayley-Hamilton, c_{n-1} = -trace and c_0 = (-1)^n·det."""
    m, A = case.model, case.A
    n = len(A)
    if len(coeffs) != n + 1 or coeffs[n] != m.one:
        return False
    trace = m.total(A[i][i] for i in range(n))
    if coeffs[n - 1] != m.neg(trace):
        return False
    if coeffs[0] != (case.det if n % 2 == 0 else m.neg(case.det)):
        return False
    acc = [[m.zero] * n for _ in range(n)]
    power = identity(m, n)
    for k, c in enumerate(coeffs):
        acc = [[m.add(acc[i][j], m.mul(c, power[i][j])) for j in range(n)] for i in range(n)]
        if k < n:
            power = mat_mul(m, power, A)
    return all(v == m.zero for row in acc for v in row)
