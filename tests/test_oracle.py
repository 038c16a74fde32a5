from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from conftest import (
    bivariate_nilpotent,
    count_scalar_calls,
    f4,
    gr42,
    random_linsystem,
    upper_triangular_f2,
    zmod,
)
from ringsolve import (
    CapacityError,
    GroupSystem,
    InvalidParameter,
    LinSystem,
    Matrix,
    NumericalSystem,
    TwoSidedSystem,
    build_phi_ring,
    build_cyclic_group,
    build_product_group,
    build_table_group,
    solve,
)
from ringsolve.oracle import (
    brute_force_solve,
    charpoly_berkowitz,
    charpoly_cofactor,
    check_group_axioms,
    check_ring_axioms,
    det_cofactor,
    enumerate_gl,
    enumerate_witnesses,
)
from ringsolve.ring import FiniteRing, units
from ringsolve.structure import decompose_local


def test_axioms_pass_on_fixture_rings():
    fixtures = [zmod(12), f4(), gr42(), bivariate_nilpotent(), upper_triangular_f2()]
    for ring in fixtures:
        report = check_ring_axioms(ring)
        assert report.ok, (ring.spec, report.failed_axiom)


def test_axioms_pass_on_local_summands():
    for ring in (zmod(6), zmod(12)):
        for summand in decompose_local(ring):
            assert check_ring_axioms(summand.ring).ok


def test_axioms_pass_on_phi_rings():
    for g in (build_cyclic_group(3), build_cyclic_group(4)):
        assert check_ring_axioms(build_phi_ring(g)).ok


def test_mangled_multiplication_fails_distributivity():
    z4 = zmod(4)
    add, mul = z4.op_tables()
    bad = [row[:] for row in mul]
    bad[2][3] = 1  # 2*3 := 1
    ring = FiniteRing("table", 4, np.array(add), np.array(bad), 0, 1, True, [str(i) for i in range(4)], "table[4]")
    report = check_ring_axioms(ring)
    assert not report.ok
    assert report.failed_axiom is not None


def test_group_axiom_checker():
    g = build_cyclic_group(6)
    assert check_group_axioms(g).ok


def test_brute_force_examples():
    z4 = zmod(4)
    unsat = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 1})
    rep = brute_force_solve(unsat)
    assert not rep.solvable and rep.instances_checked == 4
    sat = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 2})
    rep = brute_force_solve(sat)
    assert rep.solvable and rep.witness["x"].index == 1
    trivial = LinSystem(z4, ["e"], ["x"], {}, {})
    assert brute_force_solve(trivial).solvable


def test_brute_force_capacity():
    z4 = zmod(4)
    cols = [f"x{i}" for i in range(13)]  # 4^13 > 1e7
    system = LinSystem(z4, ["e"], cols, {("e", cols[0]): 1}, {"e": 1})
    with pytest.raises(CapacityError):
        brute_force_solve(system)


def test_vectorised_path_agrees_with_known_instances(rng):
    z2 = zmod(2)
    cols = [f"x{i}" for i in range(13)]  # 2^13 assignments
    rows = ["e1", "e2"]
    sat = LinSystem(
        z2, rows, cols,
        {("e1", c): 1 for c in cols} | {("e2", cols[0]): 1},
        {"e1": 1, "e2": 1},
    )
    rep = brute_force_solve(sat)
    assert rep.solvable
    assert sat.eval(rep.witness)
    unsat_entries = {("e1", c): 1 for c in cols} | {("e2", c): 1 for c in cols}
    unsat = LinSystem(z2, rows, cols, unsat_entries, {"e1": 1, "e2": 0})
    rep = brute_force_solve(unsat)
    assert not rep.solvable


def test_enumerate_gl_dimension_one_counts_units():
    for ring in (zmod(6), f4(), zmod(9)):
        assert enumerate_gl(ring, 1) == len(units(ring))


def test_det_cofactor_examples():
    z9 = zmod(9)
    assert det_cofactor(Matrix(z9, ["i"], ["i"], {("i", "i"): 7})).index == 7
    swap = Matrix(z9, [0, 1], [0, 1], {(0, 1): 1, (1, 0): 1})
    assert det_cofactor(swap).index == 8


def test_charpoly_cofactor_diag_over_z6():
    z6 = zmod(6)
    m = Matrix(z6, [0, 1], [0, 1], {(0, 0): 2, (1, 1): 3})
    chi = charpoly_cofactor(m)
    # (X-2)(X-3) = X^2 + X + 0 over Z/6
    assert [c.index for c in chi.coefficients] == [0, 1, 1]


@pytest.mark.parametrize("ring_factory", [f4, lambda: zmod(9), gr42], ids=["F4", "Z/9", "GR42"])
def test_charpoly_berkowitz_matches_cofactor(ring_factory, rng):
    ring = ring_factory()
    for n in range(1, 7):
        ids = list(range(n))
        for _ in range(3):
            a = Matrix(ring, ids, ids, {(i, j): rng.randrange(ring.size) for i in ids for j in ids})
            assert charpoly_berkowitz(a).equals(charpoly_cofactor(a)), (ring.spec, n)


def test_charpoly_berkowitz_examples():
    z6 = zmod(6)
    m = Matrix(z6, [0, 1], [0, 1], {(0, 0): 2, (1, 1): 3})
    assert [c.index for c in charpoly_berkowitz(m).coefficients] == [0, 1, 1]  # (X-2)(X-3)
    with pytest.raises(InvalidParameter):
        charpoly_berkowitz(Matrix(upper_triangular_f2(), [0], [0], {}))


def test_cofactor_capacity():
    z2 = zmod(2)
    ids = list(range(7))
    big = Matrix(z2, ids, ids, {(i, i): 1 for i in ids})
    with pytest.raises(CapacityError):
        det_cofactor(big)


def test_brute_force_random_cross_check_with_eval(rng):
    # every SOLVABLE report must carry a satisfying witness
    for ring in (zmod(6), gr42()):
        for _ in range(25):
            system = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
            rep = brute_force_solve(system)
            if rep.solvable:
                assert system.eval(rep.witness)


def test_brute_group_agrees_across_isomorphic_groups(rng):
    # Z/2 x Z/6 against a table group with its own addition table (same
    # indices), and Z/12 against Z/4 x Z/3 under x -> (x mod 4, x mod 3)
    z2z6 = build_product_group([build_cyclic_group(2), build_cyclic_group(6)])
    table = build_table_group(z2z6.add_table())
    z12 = build_cyclic_group(12)
    z4z3 = build_product_group([build_cyclic_group(4), build_cyclic_group(3)])
    crt = [z4z3.element(3 * (x % 4) + x % 3).index for x in range(12)]
    assert all(crt[z12.add_idx(x, y)] == z4z3.add_idx(crt[x], crt[y]) for x in range(12) for y in range(12))
    verdicts = set()
    for _ in range(40):
        k, ell = rng.randint(1, 3), rng.randint(1, 3)
        rows, cols = [f"e{i}" for i in range(k)], [f"x{j}" for j in range(ell)]
        entries = {(i, j): rng.randrange(7) for i in rows for j in cols}
        b = {i: rng.randrange(12) for i in rows}
        product_rep = brute_force_solve(GroupSystem(z2z6, rows, cols, entries, b))
        table_rep = brute_force_solve(GroupSystem(table, rows, cols, entries, b))
        assert (product_rep.solvable, product_rep.instances_checked) == (table_rep.solvable, table_rep.instances_checked)
        if product_rep.solvable:
            assert {j: v.index for j, v in product_rep.witness.items()} == \
                {j: v.index for j, v in table_rep.witness.items()}
        cyclic_rep = brute_force_solve(GroupSystem(z12, rows, cols, entries, b))
        crt_rep = brute_force_solve(GroupSystem(z4z3, rows, cols, entries, {i: crt[v] for i, v in b.items()}))
        assert cyclic_rep.solvable == crt_rep.solvable
        if not cyclic_rep.solvable:
            assert cyclic_rep.instances_checked == crt_rep.instances_checked == 12**ell
        verdicts.add(cyclic_rep.solvable)
    assert verdicts == {True, False}


def test_brute_group_reads_no_add_table(monkeypatch):
    # one variable over Z/64 x Z/64: the lookups come from the group's
    # elementwise add, so neither a |G|^2 list nor a multiples table is built
    z64 = build_cyclic_group(64)
    group = build_product_group([z64, z64])
    x0 = 64 * 5 + 7
    system = GroupSystem(group, ["e0", "e1"], ["x"], {("e0", "x"): 3, ("e1", "x"): 70},
                         {"e0": group.scalar_idx(3, x0), "e1": group.scalar_idx(70, x0)})

    def forbidden(*args):
        raise AssertionError("the oracle read a list table")

    monkeypatch.setattr(type(group), "add_table", forbidden)
    tracemalloc.start()
    try:
        rep = brute_force_solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.solvable and system.eval(rep.witness)
    assert rep.instances_checked == rep.witness["x"].index + 1
    assert peak < 16 * 2**20, peak


def _count_add_elements(monkeypatch, carrier) -> list[int]:
    """Wrap the carrier's elementwise ``add``; the returned list holds the
    number of elements of the (broadcast) operands passed to it."""
    count = [0]
    add = carrier.add

    def counted(x, y):
        count[0] += np.broadcast(x, y).size
        return add(x, y)

    monkeypatch.setattr(carrier, "add", counted)
    return count


def test_brute_force_adds_about_the_square_root_of_the_space(monkeypatch):
    # an UNSOLVABLE 6x6 system over Z/8 (even coefficients, one odd right-hand
    # side): meeting in the middle adds of order 6·8^3 elements, where a walk
    # over the 8^6 assignments adds of order 6·8^6
    rng = random.Random(11)
    z8 = zmod.__wrapped__(8)
    rows, cols = [f"e{i}" for i in range(6)], [f"x{j}" for j in range(6)]
    entries = {(i, j): 2 * rng.randrange(4) for i in rows for j in cols}
    system = LinSystem(z8, rows, cols, entries, {i: 2 * rng.randrange(4) + (i == "e5") for i in rows})
    count = _count_add_elements(monkeypatch, z8)
    rep = brute_force_solve(system)
    assert not rep.solvable and rep.instances_checked == 8**6
    assert count[0] < 4 * 6 * 8**3, count[0]


def test_enumerate_witnesses_adds_about_the_square_root_of_the_space(monkeypatch):
    # combinations of 6 rows over Z/8 against 2 columns and the tail
    rng = random.Random(12)
    z8 = zmod.__wrapped__(8)
    rows, cols = [f"e{i}" for i in range(6)], ["x0", "x1"]
    entries = {(i, j): rng.randrange(8) for i in rows for j in cols}
    b = {i: rng.randrange(8) for i in rows}
    system = LinSystem(z8, rows, cols, entries, b)
    count = _count_add_elements(monkeypatch, z8)
    found = enumerate_witnesses(system, 4)
    assert found
    for x in found:
        assert all(sum(x[i].index * entries[(i, j)] for i in rows) % 8 == 0 for j in cols)
        assert sum(x[i].index * b[i] for i in rows) % 8 == 4
    assert count[0] < 4 * (len(cols) + 1) * 8**3, count[0]


@pytest.mark.parametrize("rhs, first_hit", [(1, None), (2, (0, 1))])
def test_brute_force_rows_past_one_int64_key(rhs, first_hit):
    # 25 rows over Z/8 (8^25 > 2^63): 14 rows 2·x1 = rhs, then 11 rows x0 = 0.
    # With rhs = 1 the first rows fail for every x1 while the last ones hold
    # at x0 = 0: a key must not match on the last rows alone.
    z8 = zmod(8)
    rows = [f"e{i:02}" for i in range(25)]
    entries = {(i, "x1"): 2 for i in rows[:14]} | {(i, "x0"): 1 for i in rows[14:]}
    system = LinSystem(z8, rows, ["x0", "x1"], entries, {i: rhs for i in rows[:14]})
    rep = brute_force_solve(system)
    if first_hit is None:
        assert not rep.solvable and rep.instances_checked == 64
    else:
        assert rep.solvable and rep.instances_checked == first_hit[0] * 8 + first_hit[1] + 1
        assert (rep.witness["x0"].index, rep.witness["x1"].index) == first_hit


def test_brute_force_scalar_calls_bounded_by_lookups():
    # scalar ops may only build lookups, at most 4·|carrier| per term; they
    # must not evaluate the |carrier|^3 assignments one by one
    rng = random.Random(7)
    ring = upper_triangular_f2.__wrapped__()
    group = build_product_group([build_cyclic_group(2), build_cyclic_group(6)])
    rows, cols = ["e0", "e1"], ["x0", "x1", "x2"]
    cases = []
    for _ in range(3):
        left = {(i, j): rng.randrange(ring.size) for i in rows for j in cols}
        right = {(j, i): rng.randrange(ring.size) for i in rows for j in cols}
        b = {i: rng.randrange(ring.size) for i in rows}
        cases.append((TwoSidedSystem(ring, rows, cols, left, right, b), ring, ("_add", "_mul", "_neg")))
        entries = {(i, j): rng.randrange(group.size) for i in rows for j in cols}
        b = {i: rng.randrange(group.size) for i in rows}
        cases.append((NumericalSystem(group, rows, cols, entries, b), group, ("_add", "_neg")))
    verdicts = {}
    for system, carrier, ops in cases:
        expected = solve(system).solvable
        terms = sum(len(getattr(system, name, {})) for name in ("entries", "left", "right"))
        calls = count_scalar_calls(carrier, ops)
        rep = brute_force_solve(system)
        assert calls[0] <= 4 * carrier.size * terms, (system, calls[0])
        assert rep.solvable == expected
        if rep.solvable:
            assert system.eval(rep.witness)
        verdicts.setdefault(type(system), set()).add(rep.solvable)
    assert all(v == {True, False} for v in verdicts.values()), verdicts
