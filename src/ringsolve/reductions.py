"""Solvability-preserving system transformations.

Each reduction maps an instance to an equi-solvable target (complement_chain
to an anti-solvable one) and, where the construction is constructive in that
direction, bundles a backward mapper taking target solutions to source
solutions.  Fresh variable and row ids are namespaced tuples, so repeated
application never collides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidParameter, PreconditionViolation
from .linsys import GroupSystem, LinSystem, NumericalSystem, TwoSidedSystem
from .ring import (
    AbelianGroup,
    FiniteRing,
    RingElement,
    _check_size,
    _op_table,
    additive_group,
    cached_zmod,
    group_decompose_cyclic,
)
from .structure import RingOrder, decompose_local, table_order


@dataclass
class ReductionOutput:
    """A target instance with an optional solution mapper and a build trace."""

    target: object
    backward: Callable[[Mapping], dict] | None = None
    trace: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# rings with a total order -> cyclic group Z_m


def _cyclic_structure(ring: FiniteRing, scan: tuple[int, ...]):
    """Additive decomposition and multiplication structure constants of R.

    Generators are chosen greedily along ``scan``; returns (decomposition, c,
    b_table, rows, rhs) where c[y][i][j] is coordinate y of g_i·g_j and
    b_table[r][y][t] is the Z_m coefficient of variable slot t in the
    y-component expansion of the term r·x (both nested lists).  The arrays
    rows[r, y, t] = b_table[r][y][t]·m/l_y and rhs[r, y] = (coordinate y of
    r)·m/l_y, mod m, are the target's coefficients and right-hand sides.
    """
    key = ("cyclic_structure", scan)
    if key in ring._cache:
        return ring._cache[key]
    m = ring.characteristic()
    decomp = group_decompose_cyclic(additive_group(ring), scan_order=scan)
    gens = np.array([g for g, _ in decomp.pairs], dtype=np.int64)
    c = np.moveaxis(decomp.coords[ring.mul(gens[:, None], gens)], 2, 0)
    b_table = np.einsum("ri,yij->ryj", decomp.coords, c) % m
    mult = m // np.array(decomp.orders, dtype=np.int64)
    rows, rhs = b_table * mult[:, None] % m, decomp.coords * mult % m
    ring._cache[key] = (decomp, c.tolist(), b_table.tolist(), rows, rhs)
    return ring._cache[key]


def ring_to_cyclic(system: LinSystem, order: RingOrder | None = None) -> ReductionOutput:
    """Translate a system over an ordered commutative ring to one over Z_m.

    Variables split into one Z_m variable per additive generator; each
    equation splits into one congruence per generator, enforced over Z_m by
    the multiplier m/l_y.  Row (i, y) and column (j, t) carry the
    coefficient b_table[A(i,j), y, t]·m/l_y.  The backward mapper
    reassembles x = sum(x_t·g_t).
    """
    ring = system.ring
    if not ring.commutative:
        raise PreconditionViolation("ring_to_cyclic requires a commutative ring")
    if order is None:
        order = table_order(ring)
    if order.ring is not ring:
        raise InvalidParameter("the order does not belong to the system's ring")
    m = ring.characteristic()
    decomp, c_table, b_table, row_table, rhs_table = _cyclic_structure(ring, tuple(order.sorted_elements))
    k = len(decomp.pairs)
    orders = decomp.orders
    n, ell = len(system.rows), len(system.cols)
    target = LinSystem._from_arrays(
        cached_zmod(m),
        [(i, y) for i in system.rows for y in range(k)],
        [(j, t) for j in system.cols for t in range(k)],
        # axes (row, y, column, t)
        A=row_table[system.A].transpose(0, 2, 1, 3).reshape(n * k, ell * k),
        b_vec=rhs_table[system.b_vec].ravel(),
    )

    def backward(assignment: Mapping) -> dict:
        out = {}
        for j in system.cols:
            values = (assignment[(j, t)] for t in range(k))
            coords = [v.index if isinstance(v, RingElement) else int(v) for v in values]
            out[j] = ring.element(decomp.element_of(coords))
        return out

    trace = {
        "generators": [(ring.format_element(g), order_) for g, order_ in decomp.pairs],
        "orders": orders,
        "modulus": m,
        "multipliers": [m // o for o in orders],
        "structure_constants": c_table,
        "term_coefficients": dict(zip(ring.names, b_table)),
    }
    return ReductionOutput(target=target, backward=backward, trace=trace)


# ---------------------------------------------------------------------------
# abelian groups -> commutative rings


def build_phi_ring(group: AbelianGroup) -> FiniteRing:
    """The commutative ring on G x Z_d with (g1,m1)·(g2,m2) = (m2·g1 + m1·g2, m1·m2)."""
    d = group.exponent()
    if group.size * d < 2:
        raise InvalidParameter("phi of the trivial group degenerates to the zero ring")
    size = group.size * d
    spec = f"phi({group.spec})"
    _check_size(size, f"ring {spec!r}")
    # element (g, m) has index g·d + m; times[m, g] = m·g
    g_of, m_of = np.divmod(np.arange(size), d)
    times = np.empty((d, group.size), dtype=np.int64)
    times[0] = group.identity.index
    for m in range(1, d):
        times[m] = group.add(times[m - 1], np.arange(group.size))
    shape = (group.size, d)

    def add(i, j):
        return np.ravel_multi_index((group.add(g_of[i], g_of[j]), (m_of[i] + m_of[j]) % d), shape)

    def mul(i, j):
        g = group.add(times[m_of[j], g_of[i]], times[m_of[i], g_of[j]])
        return np.ravel_multi_index((g, m_of[i] * m_of[j] % d), shape)

    ring = FiniteRing(
        rep="phi",
        size=size,
        add=_op_table(size, add),
        mul=_op_table(size, mul),
        zero_idx=group.identity.index * d,
        one_idx=group.identity.index * d + 1,
        commutative=True,
        names=[f"({name},{m})" for name in group.names for m in range(d)],
        spec=spec,
    )
    ring.phi_group = group
    ring.phi_d = d
    ring._cache["char"] = d
    return ring


def group_to_ring(system: GroupSystem) -> ReductionOutput:
    """Lift a group system to a linear system over phi(G).

    Integer coefficients c map to (e, c mod d) and right-hand sides g to
    (g, 0); the backward mapper projects a phi(G)-solution to its group part.
    """
    group = system.group
    phi = build_phi_ring(group)
    d = phi.phi_d
    e_idx = group.identity.index

    def num(c: int) -> int:
        return e_idx * d + (c % d)

    def grp(g: int) -> int:
        return g * d

    entries = {
        (i, j): num(c) for (i, j), c in system.entries.items() if c % d
    }
    b = {i: grp(v) for i, v in system.b.items()}
    target = LinSystem(phi, list(system.rows), list(system.cols), entries, b)

    def backward(assignment: Mapping) -> dict:
        out = {}
        for j in system.cols:
            val = assignment[j]
            idx = val.index if isinstance(val, RingElement) else int(val)
            out[j] = group.element(idx // d)
        return out

    return ReductionOutput(target=target, backward=backward, trace={"d": d, "phi": phi.spec})


# ---------------------------------------------------------------------------
# two-sided systems -> numerical systems


def twosided_to_numerical(system: TwoSidedSystem) -> ReductionOutput:
    """Replace ring-valued variables by integer indicator variables.

    Variables occurring with both left and right coefficients are first split
    into a left and a right copy tied by the equation x_L - x_R = 0 (legal:
    the coefficients 1 and -1 are central).  Every term r·x_j then becomes
    sum over s of (r·s)·x_j^s with integer variables x_j^s.
    """
    ring = system.ring
    g = additive_group(ring)
    zero = ring.zero.index
    left_occ = (system.A != zero).any(axis=0).tolist()
    right_occ = (system.A_r != zero).any(axis=0).tolist()
    # x_j becomes ("L", j), or ("R", j) if it has right coefficients only;
    # with both it becomes ("L", j) and ("R", j), tied by a row ("tie", j)
    split_vars, left_pos, right_pos, ties = [], [], [], []
    for j, on_left, on_right in zip(system.cols, left_occ, right_occ):
        left_pos.append(len(split_vars))
        split_vars.append(("R" if on_right and not on_left else "L", j))
        if on_left and on_right:
            ties.append((j, left_pos[-1], len(split_vars)))
            split_vars.append(("R", j))
        right_pos.append(len(split_vars) - 1)
    elems = np.arange(ring.size)
    n_rows = len(system.rows)
    # axes (row, split variable, s): the coefficient of x_v^s
    grid = np.full((n_rows + len(ties), len(split_vars), ring.size), zero, dtype=np.int64)
    on_left, on_right = np.flatnonzero(left_occ), np.flatnonzero(right_occ)
    grid[:n_rows, np.array(left_pos)[on_left]] = ring.mul(system.A[:, on_left, None], elems)
    grid[:n_rows, np.array(right_pos)[on_right]] = ring.mul(elems, system.A_r[:, on_right, None])
    minus_one = ring.neg_idx(ring.one.index)
    for row, (_, first, second) in enumerate(ties, start=n_rows):
        grid[row, first], grid[row, second] = elems, ring.mul(elems, minus_one)
    cols = [(sv, s) for sv in split_vars for s in range(ring.size)]
    rows = [*system.rows, *(("tie", j) for j, _, _ in ties)]
    b_vec = np.concatenate([system.b_vec, np.full(len(ties), zero, dtype=system.b_vec.dtype)])
    target = NumericalSystem._from_arrays(g, rows, cols, A=grid.reshape(len(rows), len(cols)), b_vec=b_vec)

    def backward(assignment: Mapping) -> dict:
        out = {}
        for j, pos in zip(system.cols, left_pos):
            first = split_vars[pos]
            acc = ring.zero.index
            for s in range(ring.size):
                count = assignment[(first, s)]
                acc = ring.add_idx(acc, g.scalar_idx(int(count), s))
            out[j] = ring.element(acc)
        return out

    trace = {"duplicated": [j for j, _, _ in ties], "variables": len(cols)}
    return ReductionOutput(target=target, backward=backward, trace=trace)


# ---------------------------------------------------------------------------
# projection onto a local summand


def project_to_local(system: LinSystem, e: RingElement) -> LinSystem:
    """The entrywise projection of a system onto the local summand eR; the
    system itself when R is local."""
    ring = system.ring
    summand = next(
        (s for s in decompose_local(ring) if s.e.index == e.index and e.ring is ring),
        None,
    )
    if summand is None:
        raise InvalidParameter(f"{e!r} is not a base idempotent of {ring.spec}")
    if summand.ring is ring:
        return system
    return LinSystem._from_arrays(summand.ring, system.rows, system.cols, A=summand.proj[system.A],
                                  b_vec=summand.proj[system.b_vec])


# ---------------------------------------------------------------------------
# normal form: {0,1} coefficients, all-ones right-hand side


def _rhs_normalize(system: LinSystem) -> LinSystem:
    """Equivalent system over the same Z_m with every right-hand side 1.

    Original variables are wrapped as ("x", v); auxiliary variables v_e per
    row and w_r per ring element satisfy (1-r)·w_1 + w_r = 1, pinning w_r = r.
    """
    zm = system.ring
    m = zm.size
    if zm.rep != "zmod":
        raise PreconditionViolation("rhs normalization expects a system over Z_m")
    rows, cols, entries, b = [], [], {}, {}
    for j in system.cols:
        cols.append(("x", j))
    for r in range(m):
        cols.append(("w", r))
    for r in range(m):
        rid = ("weq", r)
        rows.append(rid)
        acc = {("w", 1 % m): (1 - r) % m}
        acc[("w", r)] = (acc.get(("w", r), 0) + 1) % m
        for var, cf in acc.items():
            if cf:
                entries[(rid, var)] = cf
        b[rid] = 1 % m
    for i in system.rows:
        cols.append(("v", i))
        rid = ("veq", i)
        rows.append(rid)
        entries[(rid, ("v", i))] = 1 % m
        for j in system.cols:
            cf = system.entries.get((i, j))
            if cf:
                entries[(rid, ("x", j))] = cf
        b[rid] = 1 % m
        rid = ("vdef", i)
        rows.append(rid)
        acc = {("v", i): 1 % m}
        wv = ("w", system.rhs_idx(i))
        acc[wv] = (acc.get(wv, 0) + 1) % m
        for var, cf in acc.items():
            if cf:
                entries[(rid, var)] = cf
        b[rid] = 1 % m
    return LinSystem(zm, rows, cols, entries, b)


def _flatten_coefficients(system: LinSystem) -> LinSystem:
    """Equivalent all-ones system with {0,1} coefficients.

    Each variable v becomes m equal copies ("c", v, t); a term r·v is the sum
    of the first r copies.  Copy equality is enforced through negation
    variables: v_t + v_t^- + u = 1 and v_t + v_{t+1}^- + u = 1 with u pinned
    to 1 by its own normal-form equation.
    """
    zm = system.ring
    m = zm.size
    rows, cols, entries, b = [], [], {}, {}
    u = ("u",)
    cols.append(u)
    rows.append(("ueq",))
    entries[(("ueq",), u)] = 1
    b[("ueq",)] = 1 % m
    for j in system.cols:
        for t in range(m):
            cols.append(("c", j, t))
        for t in range(1, m):
            cols.append(("n", j, t))
    for i in system.rows:
        if system.rhs_idx(i) != 1 % m:
            raise PreconditionViolation("coefficient flattening expects all-ones right-hand sides")
        rid = ("f", i)
        rows.append(rid)
        for j in system.cols:
            cf = system.entries.get((i, j))
            if cf:
                for t in range(1, cf + 1):
                    entries[(rid, ("c", j, t % m))] = 1
        b[rid] = 1 % m
    for j in system.cols:
        for t in range(1, m):
            rid = ("ndef", j, t)
            rows.append(rid)
            entries[(rid, ("c", j, t))] = 1
            entries[(rid, ("n", j, t))] = 1
            entries[(rid, u)] = 1
            b[rid] = 1 % m
        for t in range(m - 1):
            rid = ("eqch", j, t)
            rows.append(rid)
            entries[(rid, ("c", j, t))] = 1
            entries[(rid, ("n", j, t + 1))] = 1
            entries[(rid, u)] = 1
            b[rid] = 1 % m
    return LinSystem(zm, rows, cols, entries, b)


def is_normal_form(system: LinSystem) -> bool:
    """{0,1} coefficients and right-hand sides all equal to 1."""
    if system.ring.rep != "zmod":
        return False
    one = 1 % system.ring.size
    return all(v == one for v in system.entries.values()) and all(
        system.rhs_idx(i) == one for i in system.rows
    )


def normal_form(system: LinSystem) -> ReductionOutput:
    """Three-stage reduction to a {0,1}-matrix, all-ones system over Z_m.

    Stage one rewrites the system over the cyclic group of the ring's
    characteristic (table order); stage two normalizes right-hand sides;
    stage three flattens coefficients to {0,1}.
    """
    stage1 = ring_to_cyclic(system, table_order(system.ring))
    t1 = stage1.target
    t2 = _rhs_normalize(t1)
    t3 = _flatten_coefficients(t2)
    if not is_normal_form(t3):
        raise PreconditionViolation("normal form construction produced a non-normal system")

    def backward(assignment: Mapping) -> dict:
        def val(v):
            x = assignment[v]
            return x.index if isinstance(x, RingElement) else int(x)

        # undo flattening: each variable equals its copy 0
        stage2_assign = {j: val(("c", j, 0)) for j in t2.cols}
        # undo rhs normalization: keep only the wrapped original variables
        stage1_assign = {j: stage2_assign[("x", j)] for j in t1.cols}
        return stage1.backward(stage1_assign)

    trace = {
        "modulus": t3.ring.size,
        "stage1": stage1.trace,
        "sizes": [(len(t1.rows), len(t1.cols)), (len(t2.rows), len(t2.cols)), (len(t3.rows), len(t3.cols))],
    }
    return ReductionOutput(target=t3, backward=backward, trace=trace)


# ---------------------------------------------------------------------------
# complementation and boolean combinations over Z_{p^k}


def _prime_power(m: int) -> tuple[int, int] | None:
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            v = m
            while v % p == 0:
                v //= p
                k += 1
            return (p, k) if v == 1 else None
        p += 1
    return (m, 1)


def complement_chain(system: LinSystem) -> ReductionOutput:
    """The transposed system ((A|b)^T, (0,...,0,p^(k-1))^T), solvable iff the
    source is unsolvable (chain-ring duality)."""
    zm = system.ring
    if zm.rep != "zmod":
        raise PreconditionViolation("complement_chain expects a system over some Z_m")
    pk = _prime_power(zm.size)
    if pk is None:
        raise PreconditionViolation(f"modulus {zm.size} is not a prime power")
    p, k = pk
    tail = p ** (k - 1) % zm.size
    rows, cols, entries, b = [], [], {}, {}
    for i in system.rows:
        cols.append(("y", i))
    for j in system.cols:
        rid = ("t", j)
        rows.append(rid)
        for i in system.rows:
            cf = system.entries.get((i, j))
            if cf:
                entries[(rid, ("y", i))] = cf
    rid = ("tail",)
    rows.append(rid)
    for i in system.rows:
        cf = system.rhs_idx(i)
        if cf:
            entries[(rid, ("y", i))] = cf
    b[rid] = tail
    target = LinSystem(zm, rows, cols, entries, b)
    return ReductionOutput(target=target, backward=None, trace={"pi": p, "n": k})


def _same_zmod(s1: LinSystem, s2: LinSystem) -> FiniteRing:
    if s1.ring.rep != "zmod" or s2.ring.rep != "zmod" or s1.ring.size != s2.ring.size:
        raise InvalidParameter("compositions require two systems over the same Z_m")
    return s1.ring if s1.ring is s2.ring else cached_zmod(s1.ring.size)


def and_compose(s1: LinSystem, s2: LinSystem) -> LinSystem:
    """Disjoint union: solvable iff both are."""
    zm = _same_zmod(s1, s2)
    rows, cols, entries, b = [], [], {}, {}
    for tag, s in ((1, s1), (2, s2)):
        for i in s.rows:
            rows.append((tag, i))
            rv = s.rhs_idx(i)
            if rv:
                b[(tag, i)] = rv
        for j in s.cols:
            cols.append((tag, j))
        for (i, j), v in s.entries.items():
            entries[((tag, i), (tag, j))] = v
    return LinSystem(zm, rows, cols, entries, b)


def or_compose(s1: LinSystem, s2: LinSystem) -> LinSystem:
    """De Morgan: complement(and(complement(s1), complement(s2)))."""
    zm = _same_zmod(s1, s2)
    if _prime_power(zm.size) is None:
        raise PreconditionViolation(f"modulus {zm.size} is not a prime power")
    c1 = complement_chain(s1).target
    c2 = complement_chain(s2).target
    return complement_chain(and_compose(c1, c2)).target


def or_compose_general(components: list[LinSystem]) -> ReductionOutput:
    """Disjunction gadget over Z_m for m a product of distinct prime powers.

    Experimental: each all-ones component is embedded into Z_m via the
    isomorphism (m/p^n)Z_m = Z_{p^n}, its right-hand sides are re-normalized
    to 1, every equation is extended by unit and selector variables y^i, z^i
    with right-hand side P = prod(p^(n-1)), pinned by P·y^i = P, and a global
    equation sum(z^i) = P forces at least one selector on.
    """
    if not components:
        raise InvalidParameter("or_compose_general requires at least one component")
    pks = []
    for s in components:
        if s.ring.rep != "zmod":
            raise PreconditionViolation("components must live over prime-power Z_m rings")
        pk = _prime_power(s.ring.size)
        if pk is None:
            raise PreconditionViolation(f"modulus {s.ring.size} is not a prime power")
        if not is_normal_form(s):
            raise InvalidParameter("components must be in all-ones normal form")
        pks.append(pk)
    primes = [p for p, _ in pks]
    if len(set(primes)) != len(primes):
        raise InvalidParameter("component moduli must use pairwise distinct primes")
    m = math.prod(s.ring.size for s in components)
    big_p = math.prod(p ** (k - 1) for p, k in pks)
    zm = cached_zmod(m)
    rows, cols, entries, b = [], [], {}, {}
    for idx, s in enumerate(components):
        scale = m // s.ring.size
        embedded = LinSystem(
            zm,
            [(idx, i) for i in s.rows],
            [(idx, j) for j in s.cols],
            {((idx, i), (idx, j)): (v * scale) % m for (i, j), v in s.entries.items()},
            {(idx, i): (s.rhs_idx(i) * scale) % m for i in s.rows},
        )
        normalized = _rhs_normalize(embedded)
        y, z = ("y", idx), ("z", idx)
        cols.extend([(idx, v) for v in normalized.cols])
        cols.extend([y, z])
        for i in normalized.rows:
            rid = (idx, i)
            rows.append(rid)
            for j in normalized.cols:
                cf = normalized.entries.get((i, j))
                if cf:
                    entries[(rid, (idx, j))] = cf
            entries[(rid, y)] = 1
            entries[(rid, z)] = 1
            b[rid] = big_p % m
        rid = ("ypin", idx)
        rows.append(rid)
        if big_p % m:
            entries[(rid, y)] = big_p % m
        b[rid] = big_p % m
    rid = ("zsum",)
    rows.append(rid)
    for idx in range(len(components)):
        entries[(rid, ("z", idx))] = 1
    b[rid] = big_p % m
    target = LinSystem(zm, rows, cols, entries, b)
    trace = {
        "status": "experimental",
        "modulus": m,
        "P": big_p % m,
        "component_moduli": [s.ring.size for s in components],
    }
    return ReductionOutput(target=target, backward=None, trace=trace)


# ---------------------------------------------------------------------------
# collapsing a nested solvability query over Z_p


def _xor_system(s1: LinSystem, s2: LinSystem) -> LinSystem:
    """(s1 and not s2) or (not s1 and s2), right-hand sides restored to 1."""
    c1 = complement_chain(s1).target
    c2 = complement_chain(s2).target
    left = and_compose(s1, c2)
    right = and_compose(c1, s2)
    return _rhs_normalize(or_compose(left, right))


def collapse_nested(outer_rows: list, outer_cols: list, inner: Mapping) -> LinSystem:
    """Collapse one level of solvability nesting into a single system over Z_p.

    ``inner`` maps each (outer row, outer column) pair to an all-ones
    normal-form system over a common prime field Z_p.  The result is solvable
    iff the boolean outer system M·v = 1 is, where M(a,b) records the
    solvability of inner(a,b).
    """
    if not outer_rows or not outer_cols:
        raise InvalidParameter("outer index sets must be non-empty")
    systems = {}
    ring = None
    for a in outer_rows:
        for bcol in outer_cols:
            s = inner.get((a, bcol))
            if s is None:
                raise InvalidParameter(f"missing inner system for ({a!r},{bcol!r})")
            if s.ring.rep != "zmod" or _prime_power(s.ring.size) != (s.ring.size, 1):
                raise PreconditionViolation("inner systems must live over a prime field Z_p")
            if ring is None:
                ring = cached_zmod(s.ring.size)
            elif s.ring.size != ring.size:
                raise InvalidParameter("inner systems disagree on the prime modulus")
            if not is_normal_form(s):
                raise InvalidParameter(f"inner system at ({a!r},{bcol!r}) is not in normal form")
            systems[(a, bcol)] = s
    p = ring.size
    rows, cols, entries, b = [], [], {}, {}
    for a in outer_rows:
        for bcol in outer_cols:
            cols.append(("v", a, bcol))
    for a in outer_rows:
        rid = ("outer", a)
        rows.append(rid)
        for bcol in outer_cols:
            entries[(rid, ("v", a, bcol))] = 1
        b[rid] = 1 % p
    # condition (1): a nonzero v_{a,b} forces inner(a,b) to be solvable
    for (a, bcol), s in systems.items():
        for j in s.cols:
            cols.append(("iv", a, bcol, j))
        for i in s.rows:
            rid = ("inner", a, bcol, i)
            rows.append(rid)
            for j in s.cols:
                if (i, j) in s.entries:
                    entries[(rid, ("iv", a, bcol, j))] = s.entries[(i, j)]
            entries[(rid, ("v", a, bcol))] = 1
            # rhs stays 0: the (v+1) extension moves the constant across
    # condition (2): differing v-values in a column force the XOR system
    for bcol in outer_cols:
        for pos_a in range(len(outer_rows)):
            for pos_c in range(pos_a + 1, len(outer_rows)):
                a, c = outer_rows[pos_a], outer_rows[pos_c]
                xor = _xor_system(systems[(a, bcol)], systems[(c, bcol)])
                for j in xor.cols:
                    cols.append(("xv", a, c, bcol, j))
                for i in xor.rows:
                    rid = ("xor", a, c, bcol, i)
                    rows.append(rid)
                    for j in xor.cols:
                        if (i, j) in xor.entries:
                            entries[(rid, ("xv", a, c, bcol, j))] = xor.entries[(i, j)]
                    entries[(rid, ("v", a, bcol))] = 1
                    entries[(rid, ("v", c, bcol))] = (p - 1) % p
    return LinSystem(ring, rows, cols, entries, b)
