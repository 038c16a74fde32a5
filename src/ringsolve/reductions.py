"""Solvability-preserving system transformations.

Each reduction maps an instance to an equi-solvable target (complement_chain
to an anti-solvable one) and, where the construction is constructive in that
direction, bundles a backward mapper taking target solutions to source
solutions.  Fresh variable and row ids are namespaced tuples, so repeated
application never collides.
"""

from __future__ import annotations

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
    _memo,
    _op_table,
    additive_group,
    cached_zmod,
    factorize,
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


@_memo
def _cyclic_structure(order: RingOrder):
    """Additive decomposition and multiplication structure constants of the
    order's ring R, memoised on the order.

    Generators are chosen greedily along the order; returns (decomposition,
    c, b_table, rows, rhs) where c[y][i][j] is coordinate y of g_i·g_j and
    b_table[r][y][t] is the Z_m coefficient of variable slot t in the
    y-component expansion of the term r·x (both nested lists).  The arrays
    rows[r, y, t] = b_table[r][y][t]·m/l_y and rhs[r, y] = (coordinate y of
    r)·m/l_y, mod m, are the target's coefficients and right-hand sides.
    """
    ring = order.ring
    m = ring.characteristic()
    decomp = group_decompose_cyclic(additive_group(ring), scan_order=order.sorted_elements)
    gens = np.array([g for g, _ in decomp.pairs], dtype=np.int64)
    c = np.moveaxis(decomp.coords[ring.mul(gens[:, None], gens)], 2, 0)
    b_table = np.einsum("ri,yij->ryj", decomp.coords, c) % m
    mult = m // np.array(decomp.orders, dtype=np.int64)
    rows, rhs = b_table * mult[:, None] % m, decomp.coords * mult % m
    return decomp, c.tolist(), b_table.tolist(), rows, rhs


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
    decomp, c_table, b_table, row_table, rhs_table = _cyclic_structure(order)
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
    _check_size(size, "ring", spec)
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
    ring._cache["characteristic"] = d
    return ring


def group_to_ring(system: GroupSystem) -> ReductionOutput:
    """Lift a group system to a linear system over phi(G).

    Integer coefficients c map to (e, c mod d) and right-hand sides g to
    (g, 0); the backward mapper projects a phi(G)-solution to its group part.
    """
    group = system.group
    phi = build_phi_ring(group)
    d = phi.phi_d
    target = LinSystem._from_arrays(phi, list(system.rows), list(system.cols),
                                    A=group.identity.index * d + (system.A % d).astype(np.int64),
                                    b_vec=system.b_vec.astype(np.int64) * d)

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
        # x_j = sum over s of count_s·s, with the counts reduced mod exp(R,+)
        exponent = g.exponent()
        counts = [[int(assignment[(split_vars[pos], s)]) % exponent for s in range(ring.size)] for pos in left_pos]
        values = g.row_sum(g.scalar(np.array(counts, dtype=np.int64), elems)).tolist()
        return {j: ring.element(v) for j, v in zip(system.cols, values)}

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
    Rows: every ("weq", r), then ("veq", e), ("vdef", e) per row e; columns:
    the ("x", v), the ("w", r), the ("v", e).
    """
    zm = system.ring
    m = zm.size
    if zm.rep != "zmod":
        raise PreconditionViolation("rhs normalization expects a system over Z_m")
    n, ell = len(system.rows), len(system.cols)
    a = np.zeros((m + 2 * n, ell + m + n), dtype=np.int64)
    r = np.arange(m)
    a[r, ell + 1] = (1 - r) % m
    a[r, ell + r] = (a[r, ell + r] + 1) % m
    veq, vdef, v = m + 2 * np.arange(n), m + 2 * np.arange(n) + 1, ell + m + np.arange(n)
    a[veq, :ell] = system.A
    a[veq, v] = a[vdef, v] = 1
    a[vdef, ell + system.b_vec] = 1
    rows = [("weq", r) for r in range(m)] + [(tag, i) for i in system.rows for tag in ("veq", "vdef")]
    cols = [("x", j) for j in system.cols] + [("w", r) for r in range(m)] + [("v", i) for i in system.rows]
    return LinSystem._from_arrays(zm, rows, cols, A=a, b_vec=np.ones(len(rows), dtype=np.int64))


def _flatten_coefficients(system: LinSystem) -> LinSystem:
    """Equivalent all-ones system with {0,1} coefficients.

    Each variable v becomes m equal copies ("c", v, t); a term r·v is the sum
    of the first r copies.  Copy equality is enforced through negation
    variables: v_t + v_t^- + u = 1 and v_t + v_{t+1}^- + u = 1 with u pinned
    to 1 by its own normal-form equation.  Columns: u, then per variable its
    copies and negations; rows: u's equation, the flattened rows, then per
    variable its ("ndef", v, t) and ("eqch", v, t) rows.
    """
    zm = system.ring
    m = zm.size
    if (system.b_vec != 1).any():
        raise PreconditionViolation("coefficient flattening expects all-ones right-hand sides")
    n, ell = len(system.rows), len(system.cols)
    # one variable's columns (copies 0..m-1, negations 1..m-1) in its ndef and eqch rows
    block = np.zeros((2 * m - 2, 2 * m - 1), dtype=np.int64)
    t = np.arange(1, m)
    block[t - 1, t] = block[t - 1, m + t - 1] = 1
    block[m + t - 2, t - 1] = block[m + t - 2, m + t - 1] = 1
    copies = (t <= system.A[:, :, None]).astype(np.int64)
    flat = np.concatenate([np.zeros((n, ell, 1), dtype=np.int64), copies, np.zeros((n, ell, m - 1), dtype=np.int64)],
                          axis=2).reshape(n, ell * (2 * m - 1))
    body = np.concatenate([flat, np.kron(np.eye(ell, dtype=np.int64), block)])
    a = np.concatenate([np.zeros((1, body.shape[1]), dtype=np.int64), body])
    u = np.ones((len(a), 1), dtype=np.int64)
    u[1:n + 1] = 0
    rows = [("ueq",), *(("f", i) for i in system.rows)]
    cols = [("u",)]
    for j in system.cols:
        rows += [("ndef", j, t) for t in range(1, m)] + [("eqch", j, t) for t in range(m - 1)]
        cols += [("c", j, t) for t in range(m)] + [("n", j, t) for t in range(1, m)]
    return LinSystem._from_arrays(zm, rows, cols, A=np.concatenate([u, a], axis=1),
                                  b_vec=np.ones(len(rows), dtype=np.int64))


def is_normal_form(system: LinSystem) -> bool:
    """{0,1} coefficients and right-hand sides all equal to 1."""
    if system.ring.rep != "zmod":
        return False
    return bool(((system.A == 0) | (system.A == 1)).all() and (system.b_vec == 1).all())


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


def complement_chain(system: LinSystem) -> ReductionOutput:
    """The transposed system ((A|b)^T, (0,...,0,p^(k-1))^T), solvable iff the
    source is unsolvable (chain-ring duality)."""
    zm = system.ring
    if zm.rep != "zmod":
        raise PreconditionViolation("complement_chain expects a system over some Z_m")
    factors = factorize(zm.size)
    if len(factors) != 1:
        raise PreconditionViolation(f"modulus {zm.size} is not a prime power")
    ((p, k),) = factors
    rows = [("t", j) for j in system.cols] + [("tail",)]
    b_vec = np.zeros(len(rows), dtype=np.int64)
    b_vec[-1] = p ** (k - 1) % zm.size
    target = LinSystem._from_arrays(zm, rows, [("y", i) for i in system.rows],
                                    A=np.concatenate([system.A.T, system.b_vec[None, :]]), b_vec=b_vec)
    return ReductionOutput(target=target, backward=None, trace={"pi": p, "n": k})


def _same_zmod(s1: LinSystem, s2: LinSystem) -> FiniteRing:
    if s1.ring.rep != "zmod" or s2.ring.rep != "zmod" or s1.ring.size != s2.ring.size:
        raise InvalidParameter("compositions require two systems over the same Z_m")
    return s1.ring if s1.ring is s2.ring else cached_zmod(s1.ring.size)


def and_compose(s1: LinSystem, s2: LinSystem) -> LinSystem:
    """Disjoint union: solvable iff both are."""
    zm = _same_zmod(s1, s2)
    return LinSystem._from_arrays(zm, [*((1, i) for i in s1.rows), *((2, i) for i in s2.rows)],
                                  [*((1, j) for j in s1.cols), *((2, j) for j in s2.cols)],
                                  A=_block_diagonal([s1.A, s2.A]), b_vec=np.concatenate([s1.b_vec, s2.b_vec]))


def _block_diagonal(grids: list[np.ndarray]) -> np.ndarray:
    """The grids along the diagonal of one zero grid."""
    out = np.zeros((sum(g.shape[0] for g in grids), sum(g.shape[1] for g in grids)), dtype=np.int64)
    r = c = 0
    for g in grids:
        out[r:r + g.shape[0], c:c + g.shape[1]] = g
        r, c = r + g.shape[0], c + g.shape[1]
    return out


def or_compose(s1: LinSystem, s2: LinSystem) -> LinSystem:
    """De Morgan: complement(and(complement(s1), complement(s2)))."""
    zm = _same_zmod(s1, s2)
    if len(factorize(zm.size)) != 1:
        raise PreconditionViolation(f"modulus {zm.size} is not a prime power")
    c1 = complement_chain(s1).target
    c2 = complement_chain(s2).target
    return complement_chain(and_compose(c1, c2)).target


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
    outer_rows, outer_cols = list(dict.fromkeys(outer_rows)), list(dict.fromkeys(outer_cols))
    systems = {}
    ring = None
    for a in outer_rows:
        for bcol in outer_cols:
            s = inner.get((a, bcol))
            if s is None:
                raise InvalidParameter(f"missing inner system for ({a!r},{bcol!r})")
            if s.ring.rep != "zmod" or factorize(s.ring.size) != [(s.ring.size, 1)]:
                raise PreconditionViolation("inner systems must live over a prime field Z_p")
            if ring is None:
                ring = cached_zmod(s.ring.size)
            elif s.ring.size != ring.size:
                raise InvalidParameter("inner systems disagree on the prime modulus")
            if not is_normal_form(s):
                raise InvalidParameter(f"inner system at ({a!r},{bcol!r}) is not in normal form")
            systems[(a, bcol)] = s
    p = ring.size
    v_pos = {key: k for k, key in enumerate(systems)}
    rows, cols = [("outer", a) for a in outer_rows], [("v", a, bcol) for a, bcol in systems]
    # the v columns and the other columns of each block of rows
    v_parts = [np.repeat(np.eye(len(outer_rows), dtype=np.int64), len(outer_cols), axis=1)]
    grids = [np.zeros((len(outer_rows), 0), dtype=np.int64)]

    def add_block(row_ids: list, col_ids: list, grid: np.ndarray, v_coefficients: dict):
        rows.extend(row_ids)
        cols.extend(col_ids)
        grids.append(grid)
        v_parts.append(np.zeros((len(row_ids), len(systems)), dtype=np.int64))
        for key, c in v_coefficients.items():
            v_parts[-1][:, v_pos[key]] = c

    # condition (1): a nonzero v_{a,b} forces inner(a,b) to be solvable;
    # rhs stays 0: the (v+1) extension moves the constant across
    for (a, bcol), s in systems.items():
        add_block([("inner", a, bcol, i) for i in s.rows], [("iv", a, bcol, j) for j in s.cols], s.A,
                  {(a, bcol): 1})
    # condition (2): differing v-values in a column force the XOR system
    for bcol in outer_cols:
        for pos_a in range(len(outer_rows)):
            for pos_c in range(pos_a + 1, len(outer_rows)):
                a, c = outer_rows[pos_a], outer_rows[pos_c]
                xor = _xor_system(systems[(a, bcol)], systems[(c, bcol)])
                add_block([("xor", a, c, bcol, i) for i in xor.rows], [("xv", a, c, bcol, j) for j in xor.cols],
                          xor.A, {(a, bcol): 1, (c, bcol): p - 1})
    b_vec = np.zeros(len(rows), dtype=np.int64)
    b_vec[:len(outer_rows)] = 1
    return LinSystem._from_arrays(ring, rows, cols, A=np.concatenate([np.concatenate(v_parts), _block_diagonal(grids)],
                                                                      axis=1), b_vec=b_vec)
