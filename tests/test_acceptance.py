"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget.  Run with `pytest -s` to see
the per-criterion lines."""

from __future__ import annotations

import itertools
import random
import time

from conftest import (
    all_small_systems,
    bivariate_nilpotent,
    f4,
    gr42,
    random_linsystem,
    same_inverse,
    upper_triangular_f2,
    zmod,
)
from ringsolve import (
    GroupSystem,
    LinSystem,
    Matrix,
    TwoSidedSystem,
    and_compose,
    base,
    build_cyclic_group,
    build_product_group,
    canonical_order,
    chain_data,
    collapse_nested,
    complement_chain,
    group_to_ring,
    hermite_normal_form,
    is_invertible,
    inverse,
    mat_mul,
    normal_form,
    or_compose,
    project_to_local,
    ring_to_cyclic,
    solve_commutative,
    twosided_to_numerical,
    verify_certificate,
)
from ringsolve.linsys import _chain_valuations
from ringsolve.matalg import charpoly_galois, gl_order_local
from ringsolve.oracle import (
    _has_left_inverse,
    _has_right_inverse,
    brute_force_solve,
    charpoly_cofactor,
    enumerate_gl,
    enumerate_witnesses,
    inverse_by_power,
)
from ringsolve.structure import (
    default_order,
    ideal_generated,
    local_data,
    maximal_ideal,
    minimal_generators_maximal_ideal,
    table_order,
)

SEED = 0x5EED


def _report(num, label, detail, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is None:
        print(f"PASS criterion {num} ({label}): {detail} [{elapsed:.1f}s]")
    else:
        print(f"PASS criterion {num} ({label}): {detail} [{elapsed:.1f}s < {budget}s]")
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def _exhaustive_fixtures():
    return [zmod(2), zmod(3), zmod(4), f4(), zmod(6)]


def _random_fixtures():
    return [zmod(8), zmod(9), zmod(12), gr42(), bivariate_nilpotent()]


def _criterion1_instances():
    """Deterministic instance stream: exhaustive small rings, random others."""
    for ring in _exhaustive_fixtures():
        for n_rows, n_cols in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for system in all_small_systems(ring, n_rows, n_cols):
                yield ring, system
    rng = random.Random(SEED)
    for ring in _random_fixtures():
        for _ in range(1000):
            yield ring, random_linsystem(rng, ring, rng.randint(1, 3), rng.randint(1, 3))


def test_criterion_1_pipeline_vs_oracle():
    t0 = time.perf_counter()
    checked = mismatches = 0
    for ring, system in _criterion1_instances():
        cert = solve_commutative(system)
        report = brute_force_solve(system)
        if cert.solvable != report.solvable:
            mismatches += 1
        checked += 1
    assert mismatches == 0
    _report(1, "pipeline-vs-oracle", f"{checked} instances, 0 mismatches", t0, 120)


def _random_normal_form(rng, ring, n_rows, n_cols):
    rows = [f"e{i}" for i in range(n_rows)]
    cols = [f"x{j}" for j in range(n_cols)]
    entries = {
        (i, j): 1 for i in rows for j in cols if rng.random() < 0.6
    }
    return LinSystem(ring, rows, cols, entries, {i: 1 for i in rows})


def test_criterion_2_reduction_equisolvability():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 2)
    counts = {}

    def bump(name):
        counts[name] = counts.get(name, 0) + 1

    def solvable(system):
        return brute_force_solve(system).solvable

    # ring_to_cyclic
    r2c_rings = [zmod(6), zmod(9), f4(), gr42(), bivariate_nilpotent()]
    for k in range(200):
        ring = r2c_rings[k % len(r2c_rings)]
        order = table_order(ring) if ring.spec == "Z/6" else default_order(ring)
        system = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
        red = ring_to_cyclic(system, order)
        tgt = brute_force_solve(red.target)
        assert solvable(system) == tgt.solvable
        if tgt.solvable:
            assert system.eval(red.backward(tgt.witness))
        bump("ring_to_cyclic")
    # group_to_ring
    groups = [
        build_cyclic_group(2), build_cyclic_group(3), build_cyclic_group(4),
        build_product_group([build_cyclic_group(2), build_cyclic_group(2)]),
        build_product_group([build_cyclic_group(2), build_cyclic_group(4)]),
    ]
    for k in range(200):
        group = groups[k % len(groups)]
        rows = [f"e{i}" for i in range(rng.randint(1, 2))]
        cols = ["x", "y"]
        gs = GroupSystem(
            group, rows, cols,
            {(i, j): rng.randrange(2) for i in rows for j in cols},
            {i: rng.randrange(group.size) for i in rows},
        )
        red = group_to_ring(gs)
        tgt = brute_force_solve(red.target)
        assert solvable(gs) == tgt.solvable
        if tgt.solvable:
            assert gs.eval(red.backward(tgt.witness))
        bump("group_to_ring")
    # twosided_to_numerical
    ut2 = upper_triangular_f2()
    for k in range(200):
        rows = [f"e{i}" for i in range(rng.randint(1, 2))]
        pattern = ("left", "right", "both")[k % 3]
        left, right = {}, {}
        for i in rows:
            if pattern in ("left", "both"):
                left[(i, "x")] = rng.randrange(8)
            if pattern in ("right", "both"):
                right[("x", i)] = rng.randrange(8)
        ts = TwoSidedSystem(ut2, rows, ["x"], left, right, {i: rng.randrange(8) for i in rows})
        red = twosided_to_numerical(ts)
        tgt = brute_force_solve(red.target)
        assert solvable(ts) == tgt.solvable
        if tgt.solvable:
            assert ts.eval(red.backward(tgt.witness))
        bump("twosided_to_numerical")
    # project_to_local, conjunction over the base
    proj_rings = [zmod(6), zmod(12)]
    for k in range(200):
        ring = proj_rings[k % len(proj_rings)]
        system = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
        conj = all(solvable(project_to_local(system, e)) for e in base(ring))
        assert solvable(system) == conj
        bump("project_to_local")
    # normal_form (oracle-checkable over Z/2; larger moduli are covered by
    # solver cross-checks in the unit suite)
    z2 = zmod(2)
    for k in range(200):
        n_rows, n_cols = ((1, 1), (1, 2), (2, 1), (2, 2))[k % 4]
        system = random_linsystem(rng, z2, n_rows, n_cols)
        out = normal_form(system)
        tgt = brute_force_solve(out.target)
        assert solvable(system) == tgt.solvable
        if tgt.solvable:
            assert system.eval(out.backward(tgt.witness))
        bump("normal_form")
    # complement_chain: verdicts must be opposite
    comp_rings = [zmod(2), zmod(3), zmod(4), zmod(8), zmod(9)]
    for k in range(200):
        ring = comp_rings[k % len(comp_rings)]
        system = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
        out = complement_chain(system)
        assert solvable(system) != solvable(out.target)
        bump("complement_chain")
    # and_compose / or_compose
    for k in range(200):
        ring = (zmod(2), zmod(4))[k % 2]
        s1 = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
        s2 = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
        v1, v2 = solvable(s1), solvable(s2)
        assert solvable(and_compose(s1, s2)) == (v1 and v2)
        bump("and_compose")
        assert solvable(or_compose(s1, s2)) == (v1 or v2)
        bump("or_compose")
    # collapse_nested: target must match the boolean outer system
    def inner_pool(key):
        if key == 0:
            return LinSystem(z2, ["e"], ["y"], {("e", "y"): 1}, {"e": 1})
        return LinSystem(z2, ["e"], ["y"], {}, {"e": 1})

    for k in range(200):
        shape = ((1, 1), (1, 2), (2, 1), (1, 2))[k % 4]
        outer_rows = [f"a{i}" for i in range(shape[0])]
        outer_cols = [f"b{j}" for j in range(shape[1])]
        inner = {
            (a, b): inner_pool(rng.randrange(2)) for a in outer_rows for b in outer_cols
        }
        target = collapse_nested(outer_rows, outer_cols, inner)
        m_outer = LinSystem(
            z2, outer_rows, outer_cols,
            {key: (1 if solvable(s) else 0) for key, s in inner.items()},
            {a: 1 for a in outer_rows},
        )
        assert solvable(target) == solvable(m_outer)
        bump("collapse_nested")
    assert all(c >= 200 for c in counts.values()), counts
    _report(2, "reduction equi-solvability",
            f"{sum(counts.values())} instances across {len(counts)} reductions, 0 mismatches",
            t0, 120)


def test_criterion_3_gl_cardinality():
    t0 = time.perf_counter()
    expected = [
        (zmod(2), 2, 6),
        (zmod(2), 3, 168),
        (zmod(4), 2, 96),
        (zmod(9), 2, 3888),
    ]
    for ring, n, value in expected:
        assert gl_order_local(ring, n) == value
        assert enumerate_gl(ring, n) == value
    _report(3, "GL cardinality", "4 closed-form values match enumeration", t0, 30)


def test_criterion_4_inverse():
    t0 = time.perf_counter()
    z4 = zmod(4)
    ids = [0, 1]
    e4 = Matrix.identity(z4, ids)
    invertible_count = 0
    for flat in itertools.product(range(4), repeat=4):
        a = Matrix(z4, ids, ids, dict(zip(((0, 0), (0, 1), (1, 0), (1, 1)), flat)))
        inv = inverse(a)
        assert same_inverse(inv, inverse_by_power(a))
        if inv is not None:
            invertible_count += 1
            assert mat_mul(a, inv).equals(e4) and mat_mul(inv, a).equals(e4)
        else:
            grid = [[a.entry_idx(i, j) for j in ids] for i in ids]
            vectors = list(itertools.product(range(4), repeat=2))
            unit_cols = [[1, 0], [0, 1]]
            assert not (
                _has_right_inverse(z4, grid, 2, vectors, unit_cols)
                and _has_left_inverse(z4, grid, 2, vectors, unit_cols)
            )
    assert invertible_count == 96
    rng = random.Random(SEED + 4)
    for ring in (zmod(6), gr42()):
        e = Matrix.identity(ring, ids)
        vectors = list(itertools.product(range(ring.size), repeat=2))
        unit_cols = [[ring.one.index, ring.zero.index], [ring.zero.index, ring.one.index]]
        for _ in range(200):
            a = Matrix(ring, ids, ids,
                       {(i, j): rng.randrange(ring.size) for i in ids for j in ids})
            inv = inverse(a)
            assert same_inverse(inv, inverse_by_power(a))
            if inv is not None:
                assert mat_mul(a, inv).equals(e) and mat_mul(inv, a).equals(e)
            else:
                grid = [[a.entry_idx(i, j) for j in ids] for i in ids]
                assert not (
                    _has_right_inverse(ring, grid, 2, vectors, unit_cols)
                    and _has_left_inverse(ring, grid, 2, vectors, unit_cols)
                )
    _report(4, "matrix inverse", "96 invertible Z/4 matrices + 400 random over Z/6, GR(4,2)", t0, 60)


def test_criterion_5_characteristic_polynomial():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 5)
    checked = 0
    for ring in (f4(), zmod(9), gr42()):
        ids = [0, 1]
        cells = [(i, j) for i in ids for j in ids]
        for flat in itertools.product(range(ring.size), repeat=4):
            a = Matrix(ring, ids, ids, dict(zip(cells, flat)))
            chi = charpoly_galois(a)
            assert chi.equals(charpoly_cofactor(a))
            ch = chi.evaluate_at_matrix(a)
            assert not ch.entries  # Cayley-Hamilton: the zero matrix is empty-sparse
            checked += 1
        for _ in range(100):
            n = rng.choice([3, 4])
            nid = list(range(n))
            a = Matrix(ring, nid, nid,
                       {(i, j): rng.randrange(ring.size) for i in nid for j in nid})
            chi = charpoly_galois(a)
            assert chi.equals(charpoly_cofactor(a))
            assert not chi.evaluate_at_matrix(a).entries
            checked += 1
    _report(5, "characteristic polynomial",
            f"{checked} matrices: cofactor agreement + Cayley-Hamilton + integral recursion",
            t0, 60)


def _chain_fixture_instances():
    """The criterion-1 instances whose ring is a chain ring."""
    for ring, system in _criterion1_instances():
        if chain_data(ring) is not None:
            yield ring, system


def test_criterion_6_chain_witness_duality():
    t0 = time.perf_counter()
    unsolvable = solvable_checked = 0
    for ring, system in _chain_fixture_instances():
        cert = solve_commutative(system)
        cd = chain_data(ring)
        tail = ring.pow_idx(cd.pi.index, cd.n - 1)
        if not cert.solvable:
            # the emitted witness must verify on the reduced system
            assert verify_certificate(system, cert)
            if len(system.rows) <= 2:
                assert enumerate_witnesses(system, tail)
            unsolvable += 1
        elif len(system.rows) <= 2:
            assert not enumerate_witnesses(system, tail)
            solvable_checked += 1
    _report(6, "chain witness duality",
            f"{unsolvable} unsolvable witnesses verified, {solvable_checked} solvable checked witness-free",
            t0)


def test_criterion_7_hermite_normal_form():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 7)
    rings = [zmod(8), zmod(9), gr42()]
    for k in range(500):
        ring = rings[k % 3]
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
        rows, cols = list(range(n_rows)), list(range(n_cols))
        m = Matrix(ring, rows, cols,
                   {(i, j): rng.randrange(ring.size) for i in rows for j in cols})
        res = hermite_normal_form(m)
        # S·A·T reproduces (Q ; 0) exactly
        grid = [[m.entry_idx(i, j) for j in cols] for i in rows]
        for r in range(n_rows):
            srow = res.S[r]
            for c in range(n_cols):
                acc = ring.zero.index
                for t in range(n_rows):
                    acc = ring.add_idx(acc, ring.mul_idx(srow[t], grid[t][res.col_perm[c]]))
                expect = res.Q[r][c] if r < len(res.Q) else ring.zero.index
                assert acc == expect
        val = _chain_valuations(ring)
        for a, b in zip(res.diag, res.diag[1:]):
            assert val[a] <= val[b]
        for r, row in enumerate(res.Q):
            for entry in row:
                assert entry == ring.zero.index or val[res.diag[r]] <= val[entry]
        s_mat = Matrix(ring, rows, rows,
                       {(r, c): res.S[r][c] for r in range(n_rows) for c in range(n_rows)})
        assert is_invertible(s_mat)
    _report(7, "Hermite normal form", "500 random chain-ring matrices", t0, 30)


def test_criterion_9_canonical_order():
    t0 = time.perf_counter()
    fixtures = [zmod(2), zmod(3), zmod(4), zmod(8), zmod(9), f4(), gr42(), bivariate_nilpotent()]
    orders_checked = 0
    for ring in fixtures:
        assert ring.size <= 16
        data = local_data(ring)
        from ringsolve.structure import _is_primitive_residue

        alphas = [
            r for r in range(ring.size)
            if _is_primitive_residue(data, data.projection[r])
        ]
        m = maximal_ideal(ring)
        k = len(minimal_generators_maximal_ideal(ring))
        if k == 0:
            tuples = [()]
        else:
            tuples = [
                combo for combo in itertools.permutations(sorted(m), k)
                if ideal_generated(ring, combo) == m
            ]
        for a in alphas:
            for pis in tuples:
                order = canonical_order(ring, ring.element(a), tuple(ring.element(p) for p in pis))
                keys = [order.key(i) for i in range(ring.size)]
                assert len(set(keys)) == ring.size  # strict total order
                reps = set()
                for i in range(ring.size):
                    rep = tuple(order.rep(i))
                    assert rep not in reps
                    reps.add(rep)
                    rebuilt = ring.zero.index
                    for exps, gamma in rep:
                        term = gamma
                        for p, e in zip(pis, exps):
                            term = ring.mul_idx(term, ring.pow_idx(p, e))
                        rebuilt = ring.add_idx(rebuilt, term)
                    assert rebuilt == i
                orders_checked += 1
    _report(9, "canonical order", f"{orders_checked} (alpha, pi) parameterisations", t0, 30)
