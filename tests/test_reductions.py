from __future__ import annotations

import itertools

import pytest

from conftest import bivariate_nilpotent, f4, gr42, random_linsystem, upper_triangular_f2, zmod
from ringsolve import (
    GroupSystem,
    InvalidParameter,
    LinSystem,
    PreconditionViolation,
    TwoSidedSystem,
    and_compose,
    base,
    build_cyclic_group,
    build_phi_ring,
    build_product_group,
    collapse_nested,
    complement_chain,
    group_to_ring,
    normal_form,
    or_compose,
    project_to_local,
    ring_to_cyclic,
    solve_commutative,
    twosided_to_numerical,
)
from ringsolve.oracle import brute_force_solve, check_ring_axioms
from ringsolve.reductions import _rhs_normalize, is_normal_form
from ringsolve.structure import default_order, table_order


def oracle_solvable(system) -> bool:
    return brute_force_solve(system).solvable


# ---------------------------------------------------------------------------
# ring_to_cyclic


def test_ring_to_cyclic_f4_spec_example():
    r = f4()
    omega = 2
    system = LinSystem(r, ["e"], ["x"], {("e", "x"): omega}, {"e": 1})
    red = ring_to_cyclic(system, default_order(r))
    target = red.target
    assert target.ring.spec == "Z/2"
    assert len(target.rows) == 2 and len(target.cols) == 2
    cert = brute_force_solve(target)
    assert cert.solvable
    back = red.backward(cert.witness)
    assert back["x"].index == 3  # 1 + omega = omega^2
    assert system.eval(back)


def test_ring_to_cyclic_cyclic_additive_is_identity_shape():
    z4 = zmod(4)
    system = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 2})
    red = ring_to_cyclic(system, table_order(z4))
    target = red.target
    assert target.ring.spec == "Z/4"
    assert len(target.rows) == 1 and len(target.cols) == 1
    ((key, value),) = target.entries.items()
    assert value == 2 and target.rhs_idx(target.rows[0]) == 2


def test_ring_to_cyclic_prime_field_unchanged():
    z5 = zmod(5)
    system = LinSystem(z5, ["e"], ["x", "y"], {("e", "x"): 3, ("e", "y"): 2}, {"e": 4})
    red = ring_to_cyclic(system, table_order(z5))
    t = red.target
    assert t.ring.spec == "Z/5" and len(t.rows) == 1 and len(t.cols) == 2
    assert sorted(t.entries.values()) == [2, 3]


@pytest.mark.parametrize("ring_factory", [lambda: zmod(6), f4, gr42, bivariate_nilpotent], ids=["Z/6", "F4", "GR42", "R22"])
def test_ring_to_cyclic_equisolvable_with_backward(ring_factory, rng):
    ring = ring_factory()
    order = default_order(ring) if ring.spec != "Z/6" else table_order(ring)
    for _ in range(40):
        system = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
        red = ring_to_cyclic(system, order)
        src = oracle_solvable(system)
        tgt = brute_force_solve(red.target)
        assert src == tgt.solvable
        if tgt.solvable:
            assert system.eval(red.backward(tgt.witness))


def test_ring_to_cyclic_rejects_noncommutative():
    ring = upper_triangular_f2()
    system = LinSystem(ring, ["e"], ["x"], {("e", "x"): 1}, {})
    with pytest.raises(PreconditionViolation):
        ring_to_cyclic(system, None)


# ---------------------------------------------------------------------------
# phi rings and group_to_ring


def test_build_phi_ring_examples():
    g2 = build_cyclic_group(2)
    phi = build_phi_ring(g2)
    assert phi.size == 4
    gbar = phi.parse_element("(1,0)")
    assert (gbar * gbar).index == phi.zero.index
    g3 = build_cyclic_group(3)
    phi3 = build_phi_ring(g3)
    assert phi3.size == 9
    assert phi3.one.name == "(0,1)"
    klein = build_product_group([build_cyclic_group(2), build_cyclic_group(2)])
    phik = build_phi_ring(klein)
    assert phik.size == 8 and phik.characteristic() == 2


def test_phi_ring_axioms_and_square_zero_ideal():
    for g in (build_cyclic_group(2), build_cyclic_group(4),
              build_product_group([build_cyclic_group(2), build_cyclic_group(2)])):
        phi = build_phi_ring(g)
        assert check_ring_axioms(phi).ok
        d = phi.phi_d
        bars = [gi * d for gi in range(g.size)]  # elements (g, 0)
        for a, b in itertools.product(bars, repeat=2):
            assert phi.mul_idx(a, b) == phi.zero.index
        # and the set is an ideal: closed under addition and ring multiplication
        bar_set = set(bars)
        for a in bars:
            for r in range(phi.size):
                assert phi.mul_idx(a, r) in bar_set


def test_group_to_ring_examples():
    z3 = build_cyclic_group(3)
    gs = GroupSystem(z3, ["e"], ["x"], {("e", "x"): 1}, {"e": 1})
    red = group_to_ring(gs)
    rep = brute_force_solve(red.target)
    assert rep.solvable
    assert red.backward(rep.witness)["x"].index == 1
    z2 = build_cyclic_group(2)
    gs2 = GroupSystem(z2, ["e"], ["x"], {("e", "x"): 2}, {"e": 1})
    assert not oracle_solvable(group_to_ring(gs2).target)


def test_group_to_ring_sweep(rng):
    z4 = build_cyclic_group(4)
    for _ in range(40):
        rows = [f"e{i}" for i in range(rng.randint(1, 2))]
        cols = ["x", "y"]
        gs = GroupSystem(
            z4, rows, cols,
            {(i, j): rng.randrange(2) for i in rows for j in cols},
            {i: rng.randrange(4) for i in rows},
        )
        red = group_to_ring(gs)
        src = oracle_solvable(gs)
        tgt = brute_force_solve(red.target)
        assert src == tgt.solvable
        if tgt.solvable:
            assert gs.eval(red.backward(tgt.witness))


# ---------------------------------------------------------------------------
# twosided_to_numerical


def test_twosided_numerical_examples():
    ring = upper_triangular_f2()
    sat = TwoSidedSystem(ring, ["e"], ["x"], {("e", "x"): 5}, {}, {"e": 5})
    red = twosided_to_numerical(sat)
    # forward mapping of x = 1: indicator on (var, 1)
    var = red.target.cols[0][0]
    forward = {col: (1 if col == (var, ring.one.index) else 0) for col in red.target.cols}
    assert red.target.eval(forward)
    nilp = TwoSidedSystem(ring, ["e"], ["x"], {}, {("x", "e"): 2}, {"e": ring.one.index})
    rednil = twosided_to_numerical(nilp)
    assert not oracle_solvable(rednil.target)
    zero = TwoSidedSystem(ring, ["e"], ["x"], {("e", "x"): 0}, {}, {})
    assert oracle_solvable(twosided_to_numerical(zero).target)


def test_twosided_numerical_sweep(rng):
    ring = upper_triangular_f2()
    for _ in range(60):
        rows = [f"e{i}" for i in range(rng.randint(1, 2))]
        pattern = rng.choice(["left", "right", "both"])
        left, right = {}, {}
        for i in rows:
            if pattern in ("left", "both"):
                left[(i, "x")] = rng.randrange(8)
            if pattern in ("right", "both"):
                right[("x", i)] = rng.randrange(8)
        system = TwoSidedSystem(ring, rows, ["x"], left, right,
                                {i: rng.randrange(8) for i in rows})
        red = twosided_to_numerical(system)
        src = oracle_solvable(system)
        tgt = brute_force_solve(red.target)
        assert src == tgt.solvable
        if tgt.solvable:
            assert system.eval(red.backward(tgt.witness))


# ---------------------------------------------------------------------------
# project_to_local


def test_project_to_local_examples():
    z6 = zmod(6)
    system = LinSystem(z6, ["e"], ["x"], {("e", "x"): 2}, {"e": 1})
    e3 = z6.element(3)
    e4 = z6.element(4)
    proj3 = project_to_local(system, e3)
    assert not oracle_solvable(proj3)  # 0*x = 3 over F2-side
    proj4 = project_to_local(system, e4)
    assert oracle_solvable(proj4)
    local = gr42()
    sys_local = LinSystem(local, ["e"], ["x"], {("e", "x"): 3}, {"e": 2})
    proj = project_to_local(sys_local, local.one)
    assert proj.entries == sys_local.entries and proj.b == sys_local.b


def test_project_to_local_conjunction(rng):
    for ring in (zmod(6), zmod(12)):
        for _ in range(40):
            system = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
            src = oracle_solvable(system)
            conj = all(
                oracle_solvable(project_to_local(system, e))
                for e in base(ring)
            )
            assert src == conj


def test_project_to_local_rejects_non_idempotent():
    z6 = zmod(6)
    system = LinSystem(z6, ["e"], ["x"], {("e", "x"): 1}, {})
    with pytest.raises(InvalidParameter):
        project_to_local(system, z6.element(2))


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_structure_across_moduli():
    for ring in (zmod(2), zmod(3), zmod(4), zmod(6)):
        system = LinSystem(ring, ["e"], ["x"], {("e", "x"): ring.size - 1}, {"e": 2 % ring.size})
        out = normal_form(system)
        assert is_normal_form(out.target)
        assert out.target.ring.size == ring.characteristic()


def test_normal_form_equisolvable_oracle_z2(rng):
    z2 = zmod(2)
    for _ in range(30):
        system = random_linsystem(rng, z2, rng.randint(1, 2), rng.randint(1, 2))
        out = normal_form(system)
        tgt = brute_force_solve(out.target)
        assert oracle_solvable(system) == tgt.solvable
        if tgt.solvable:
            assert system.eval(out.backward(tgt.witness))


def test_normal_form_solver_crosscheck(rng):
    # targets over m > 2 exceed the oracle cap; cross-check with the pipeline
    for ring in (zmod(3), zmod(4), zmod(6)):
        for _ in range(8):
            system = random_linsystem(rng, ring, 1, rng.randint(1, 2))
            out = normal_form(system)
            cert = solve_commutative(out.target)
            assert oracle_solvable(system) == cert.solvable
            if cert.solvable:
                assert system.eval(out.backward(cert.assignment))


def test_normal_form_of_contradiction():
    z2 = zmod(2)
    system = LinSystem(z2, ["e"], ["x"], {}, {"e": 1})
    assert not oracle_solvable(normal_form(system).target)


def test_normal_form_fixed_point_stays_equisolvable():
    z2 = zmod(2)
    system = LinSystem(z2, ["e"], ["x", "y"], {("e", "x"): 1, ("e", "y"): 1}, {"e": 1})
    assert is_normal_form(system)
    out = normal_form(system)
    assert is_normal_form(out.target)
    assert oracle_solvable(out.target) == oracle_solvable(system)


# ---------------------------------------------------------------------------
# complement / and / or


def test_complement_examples():
    z2 = zmod(2)
    sat = LinSystem(z2, ["e"], ["x"], {("e", "x"): 1}, {})
    assert not oracle_solvable(complement_chain(sat).target)
    z4 = zmod(4)
    unsat = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 1})
    rep = brute_force_solve(complement_chain(unsat).target)
    assert rep.solvable
    assert 2 in {v.index for v in rep.witness.values()}


def test_double_complement_round_trip(rng):
    z4 = zmod(4)
    for _ in range(200):
        system = random_linsystem(rng, z4, rng.randint(1, 2), rng.randint(1, 2))
        twice = complement_chain(complement_chain(system).target).target
        assert oracle_solvable(system) == oracle_solvable(twice)


def test_complement_rejects_non_prime_power():
    z6 = zmod(6)
    system = LinSystem(z6, ["e"], ["x"], {("e", "x"): 1}, {})
    with pytest.raises(PreconditionViolation):
        complement_chain(system)


def _sat_unsat_pair(ring):
    sat = LinSystem(ring, ["e"], ["x"], {("e", "x"): 1}, {"e": 1})
    unsat = LinSystem(ring, ["e"], ["x"], {}, {"e": 1})
    return sat, unsat


def test_and_or_truth_tables():
    z2 = zmod(2)
    sat, unsat = _sat_unsat_pair(z2)
    assert not oracle_solvable(and_compose(sat, unsat))
    assert oracle_solvable(and_compose(sat, sat))
    assert oracle_solvable(or_compose(sat, unsat))
    assert not oracle_solvable(or_compose(unsat, unsat))
    z4 = zmod(4)
    sat4, unsat4 = _sat_unsat_pair(z4)
    assert not oracle_solvable(or_compose(unsat4, unsat4))
    assert oracle_solvable(or_compose(unsat4, sat4))


def test_and_or_random_sweep(rng):
    for m in (2, 4):
        ring = zmod(m)
        for _ in range(40):
            s1 = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
            s2 = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
            v1, v2 = oracle_solvable(s1), oracle_solvable(s2)
            assert oracle_solvable(and_compose(s1, s2)) == (v1 and v2)
            assert oracle_solvable(or_compose(s1, s2)) == (v1 or v2)


def test_compose_rejects_mismatched_moduli():
    s1, _ = _sat_unsat_pair(zmod(2))
    s2, _ = _sat_unsat_pair(zmod(4))
    with pytest.raises(InvalidParameter):
        and_compose(s1, s2)


# ---------------------------------------------------------------------------
# collapse_nested


def _nf_solvable(ring):
    return LinSystem(ring, ["e"], ["y"], {("e", "y"): 1}, {"e": 1})


def _nf_unsolvable(ring):
    return LinSystem(ring, ["e"], ["y"], {}, {"e": 1})


def _nf_unsolvable3(ring):
    # {y=1, z=1, y+z=1}: unsolvable but not trivially so
    return LinSystem(
        ring, ["e1", "e2", "e3"], ["y", "z"],
        {("e1", "y"): 1, ("e2", "z"): 1, ("e3", "y"): 1, ("e3", "z"): 1},
        {"e1": 1, "e2": 1, "e3": 1},
    )


def test_collapse_spec_examples():
    z2 = zmod(2)
    assert oracle_solvable(collapse_nested(["a"], ["b"], {("a", "b"): _nf_solvable(z2)}))
    assert not oracle_solvable(
        collapse_nested(["a"], ["b"], {("a", "b"): _nf_unsolvable3(z2)})
    )
    k = collapse_nested(
        ["a"], ["b1", "b2"],
        {("a", "b1"): _nf_solvable(z2), ("a", "b2"): _nf_unsolvable(z2)},
    )
    assert oracle_solvable(k)


def test_collapse_matches_outer_boolean_system(rng):
    z2 = zmod(2)
    pool = [_nf_solvable, _nf_unsolvable]
    for _ in range(20):
        shape = rng.choice([(1, 1), (1, 2), (2, 1)])
        outer_rows = [f"a{i}" for i in range(shape[0])]
        outer_cols = [f"b{j}" for j in range(shape[1])]
        inner = {
            (a, b): rng.choice(pool)(z2) for a in outer_rows for b in outer_cols
        }
        k = collapse_nested(outer_rows, outer_cols, inner)
        m_outer = {
            (a, b): oracle_solvable(s) for (a, b), s in inner.items()
        }
        boolean = LinSystem(
            z2, outer_rows, outer_cols,
            {key: (1 if v else 0) for key, v in m_outer.items()},
            {a: 1 for a in outer_rows},
        )
        assert oracle_solvable(k) == oracle_solvable(boolean)


def test_collapse_two_by_two_with_solver():
    z2 = zmod(2)
    inner = {
        ("a1", "b1"): _nf_solvable(z2), ("a1", "b2"): _nf_unsolvable(z2),
        ("a2", "b1"): _nf_unsolvable(z2), ("a2", "b2"): _nf_solvable(z2),
    }
    k = collapse_nested(["a1", "a2"], ["b1", "b2"], inner)
    # M = [[1,0],[0,1]]: v = (1,1) solves the outer system
    assert solve_commutative(k).solvable


def test_collapse_treats_outer_ids_as_sets():
    z2 = zmod(2)
    inner = {("a1", "b"): _nf_solvable(z2), ("a2", "b"): _nf_unsolvable(z2)}
    once = collapse_nested(["a1", "a2"], ["b"], inner)
    repeated = collapse_nested(["a1", "a2", "a1"], ["b", "b"], inner)
    assert (repeated.rows, repeated.cols, repeated.digest()) == (once.rows, once.cols, once.digest())


def test_collapse_size_bound():
    z2 = zmod(2)
    cases = []
    for shape in ((1, 1), (1, 2), (2, 1), (2, 2)):
        outer_rows = [f"a{i}" for i in range(shape[0])]
        outer_cols = [f"b{j}" for j in range(shape[1])]
        inner = {
            (a, b): (_nf_solvable(z2) if (hash((a, b)) & 1) else _nf_unsolvable3(z2))
            for a in outer_rows for b in outer_cols
        }
        k = collapse_nested(outer_rows, outer_cols, inner)
        inner_size = sum(len(s.rows) + len(s.cols) for s in inner.values())
        base_size = shape[0] * shape[1] + inner_size
        k_size = len(k.rows) + len(k.cols)
        cases.append((k_size, base_size))
    for k_size, base_size in cases:
        assert k_size <= 8 * base_size**2


def test_collapse_rejects_bad_inner():
    z4 = zmod(4)
    with pytest.raises(PreconditionViolation):
        collapse_nested(["a"], ["b"], {("a", "b"): _nf_solvable(z4)})
    z2 = zmod(2)
    not_normal = LinSystem(z2, ["e"], ["y"], {("e", "y"): 1}, {})
    with pytest.raises(InvalidParameter):
        collapse_nested(["a"], ["b"], {("a", "b"): not_normal})


def test_rhs_normalize_helper_keeps_solvability(rng):
    z4 = zmod(4)
    for _ in range(30):
        system = random_linsystem(rng, z4, rng.randint(1, 2), rng.randint(1, 2))
        normalized = _rhs_normalize(system)
        assert all(normalized.rhs_idx(i) == 1 for i in normalized.rows)
        assert oracle_solvable(system) == oracle_solvable(normalized)
