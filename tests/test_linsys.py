from __future__ import annotations

import itertools
import random

import pytest

from conftest import (
    all_small_systems,
    bivariate_nilpotent,
    count_scalar_calls,
    count_validations,
    f4,
    gr42,
    random_linsystem,
    upper_triangular_f2,
    zmod,
)
from ringsolve import (
    GroupSystem,
    InvalidCertificate,
    InvalidParameter,
    LinSystem,
    Matrix,
    NumericalSystem,
    PreconditionViolation,
    TwoSidedSystem,
    build_cyclic_group,
    build_product_group,
    and_compose,
    build_zmod,
    charpoly_galois,
    collapse_nested,
    complement_chain,
    determinant,
    eval_system,
    group_to_ring,
    hermite_normal_form,
    inverse,
    is_invertible,
    mat_add,
    mat_mul,
    mat_pow,
    normal_form,
    or_compose,
    solve,
    solve_chain,
    solve_commutative,
    solve_group,
    solve_twosided,
    verify_certificate,
)
from ringsolve.linsys import check_witness, solve_numerical
from ringsolve.matalg import mat_scale
from ringsolve.oracle import brute_force_solve, enumerate_witnesses
from ringsolve.ring import additive_group
from ringsolve.structure import chain_data
from ringsolve.sysio import parse_ring_spec


def test_eval_examples():
    z4 = zmod(4)
    s = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 2})
    assert eval_system(s, {"x": z4.element(1)})
    s2 = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 1})
    assert not eval_system(s2, {"x": z4.element(3)})
    s3 = LinSystem(z4, ["e"], ["x"], {}, {})
    assert eval_system(s3, {"x": z4.element(3)})


def test_eval_rejects_partial_assignment():
    z4 = zmod(4)
    s = LinSystem(z4, ["e"], ["x", "y"], {("e", "x"): 1}, {"e": 1})
    with pytest.raises(InvalidParameter):
        eval_system(s, {"x": z4.element(1)})


@pytest.mark.parametrize("build", [
    lambda: LinSystem(zmod(4), ["r"], ["x"], {("r", "y"): 1}, {"r": 1}),
    lambda: LinSystem(zmod(4), ["r"], ["x"], {("r", "x"): 1}, {"s": 1}),
    lambda: GroupSystem(build_cyclic_group(4), ["r"], ["x"], {("r", "y"): 1}, {"r": 1}),
    lambda: GroupSystem(build_cyclic_group(4), ["r"], ["x"], {("r", "x"): 1}, {"s": 1}),
    lambda: TwoSidedSystem(upper_triangular_f2(), ["r"], ["x"], {("s", "x"): 1}, {}, {"r": 1}),
    lambda: TwoSidedSystem(upper_triangular_f2(), ["r"], ["x"], {}, {("r", "x"): 1}, {"r": 1}),
    lambda: TwoSidedSystem(upper_triangular_f2(), ["r"], ["x"], {}, {}, {"s": 1}),
    lambda: NumericalSystem(additive_group(zmod(4)), ["r"], ["x"], {("r", "y"): 1}, {"r": 1}),
    lambda: NumericalSystem(additive_group(zmod(4)), ["r"], ["x"], {("r", "x"): 1}, {"s": 1}),
], ids=[
    "ring-col", "ring-rhs", "group-col", "group-rhs",
    "twosided-left-row", "twosided-right-transposed", "twosided-rhs",
    "numerical-col", "numerical-rhs",
])
def test_undeclared_ids_are_rejected(build):
    with pytest.raises(InvalidParameter):
        build()


def _constructors() -> dict:
    """kind -> build(entries, b) over ids r0, r1 and x0, x1; a two-sided
    system gets the entries as ``left`` or, transposed keys, as ``right``."""
    z4, ut2, rows, cols = zmod(4), upper_triangular_f2(), ["r0", "r1"], ["x0", "x1"]
    return {
        "ring": lambda e, b: LinSystem(z4, rows, cols, e, b),
        "group": lambda e, b: GroupSystem(build_cyclic_group(4), rows, cols, e, b),
        "twosided-left": lambda e, b: TwoSidedSystem(ut2, rows, cols, e, {}, b),
        "twosided-right": lambda e, b: TwoSidedSystem(ut2, rows, cols, {}, {(j, i): v for (i, j), v in e.items()}, b),
        "numerical": lambda e, b: NumericalSystem(additive_group(z4), rows, cols, e, b),
        "matrix": lambda e, b: Matrix(z4, rows, cols, e),
    }


# case -> (entries, rhs); matrices take the entries alone and have no rhs case
_BAD_INPUTS = {
    "unknown-row": ({("r0", "x0"): 1, ("s", "x1"): 1}, {"r0": 1}),
    "unknown-col": ({("r0", "x0"): 1, ("r1", "y"): 1}, {"r0": 1}),
    "bad-value": ({("r0", "x0"): 1, ("r1", "x1"): 9, ("s", "x0"): 1}, {"r0": 1}),
    "negative-value": ({("r1", "x1"): -1}, {}),
    "foreign-value": ({("r1", "x1"): zmod(5).one}, {}),
    "text-value": ({("r1", "x1"): "1"}, {}),
    "unknown-rhs-row": ({("r0", "x0"): 9, ("s", "x0"): 1}, {"r0": 1, "s": 1}),
    "bad-rhs-value": ({("s", "x0"): 1}, {"r1": 9}),
}
_GROUP_VALUE = "group-system coefficients are non-negative integers"
_KINDS = ["ring", "group", "twosided-left", "twosided-right", "numerical", "matrix"]
_MESSAGES = {
    "unknown-row": dict.fromkeys(_KINDS, "entry ('s','x1') outside the index sets"),
    "unknown-col": dict.fromkeys(_KINDS, "entry ('r1','y') outside the index sets"),
    "bad-value": dict.fromkeys(_KINDS, "element index 9 out of range")
    | {"group": "entry ('s','x0') outside the index sets"},  # 9 is a valid group coefficient
    "negative-value": dict.fromkeys(_KINDS, "element index -1 out of range") | {"group": _GROUP_VALUE},
    "foreign-value": dict.fromkeys(_KINDS, "entry belongs to a different ring/group") | {"group": _GROUP_VALUE},
    "text-value": dict.fromkeys(_KINDS, "cannot interpret '1' as an element") | {"group": _GROUP_VALUE},
    "unknown-rhs-row": dict.fromkeys(_KINDS[:-1], "rhs for unknown row 's'"),
    "bad-rhs-value": dict.fromkeys(_KINDS[:-1], "element index 9 out of range"),
}


@pytest.mark.parametrize("case,kind", [(case, kind) for case, kinds in _MESSAGES.items() for kind in kinds])
def test_validation_errors_are_pinned(case, kind):
    """Type and message of each rejected input, and which bad entry is
    reported first: the right-hand side before the coefficients, entries in
    mapping order, an entry's ids before its value."""
    entries, b = _BAD_INPUTS[case]
    with pytest.raises(InvalidParameter) as info:
        _constructors()[kind](entries, b)
    assert type(info.value) is InvalidParameter
    assert str(info.value) == _MESSAGES[case][kind]


def test_crt_rejects_non_coprime_moduli():
    from ringsolve.errors import InternalError
    from ringsolve.linsys import _crt

    assert _crt({4: 3, 9: 5}) == 23
    with pytest.raises(InternalError):
        _crt({4: 1, 6: 3})


# ---------------------------------------------------------------------------
# Hermite normal form


def _check_hnf(matrix, res):
    ring = res.ring
    k, ell = len(res.row_ids), len(res.col_ids)
    grid = [[matrix.entry_idx(i, j) for j in res.col_ids] for i in res.row_ids]
    # S * A
    sa = [
        [
            _dot(ring, res.S[r], [grid[t][c] for t in range(k)])
            for c in range(ell)
        ]
        for r in range(k)
    ]
    sat = [[sa[r][res.col_perm[c]] for c in range(ell)] for r in range(k)]
    for r in range(k):
        expect = res.Q[r] if r < len(res.Q) else [ring.zero.index] * ell
        assert sat[r] == expect
    # upper triangular with the divisibility chain
    from ringsolve.linsys import _chain_valuations

    cd = chain_data(ring)
    val = _chain_valuations(ring)
    for r, row in enumerate(res.Q):
        assert all(v == ring.zero.index for v in row[:r])
        for entry in row[r:]:
            assert val[res.diag[r]] <= val[entry] or entry == ring.zero.index
    for a, b in zip(res.diag, res.diag[1:]):
        assert val[a] <= val[b]


def _dot(ring, coeffs, vec):
    acc = ring.zero.index
    for c, v in zip(coeffs, vec):
        acc = ring.add_idx(acc, ring.mul_idx(c, v))
    return acc


def test_hnf_example_z8():
    z8 = zmod(8)
    m = Matrix(z8, ["r1", "r2"], ["c1", "c2"],
               {("r1", "c1"): 2, ("r1", "c2"): 4, ("r2", "c1"): 4, ("r2", "c2"): 2})
    res = hermite_normal_form(m)
    assert res.Q == [[2, 4], [0, 2]]
    assert res.diag == [2, 2]
    _check_hnf(m, res)


def test_hnf_identity_and_1x1():
    z9 = zmod(9)
    ident = Matrix.identity(z9, ["a", "b"])
    res = hermite_normal_form(ident)
    assert res.Q == [[1, 0], [0, 1]] and res.col_perm == [0, 1]
    assert all(res.S[r][c] == (1 if r == c else 0) for r in range(2) for c in range(2))
    single = Matrix(z9, ["a"], ["a"], {("a", "a"): 3})
    assert hermite_normal_form(single).Q == [[3]]


def test_hnf_requires_chain_ring():
    z6 = zmod(6)
    with pytest.raises(PreconditionViolation):
        hermite_normal_form(Matrix.identity(z6, ["a"]))


def test_hnf_random_properties_with_invertible_s(rng):
    rings = [zmod(8), zmod(9), gr42()]
    for _ in range(60):
        ring = rng.choice(rings)
        k = rng.randint(1, 4)
        ell = rng.randint(1, 4)
        rows = list(range(k))
        cols = list(range(ell))
        m = Matrix(ring, rows, cols,
                   {(i, j): rng.randrange(ring.size) for i in rows for j in cols})
        res = hermite_normal_form(m)
        _check_hnf(m, res)
        s_mat = Matrix(ring, rows, rows,
                       {(rows[r], rows[c]): res.S[r][c] for r in range(k) for c in range(k)})
        assert is_invertible(s_mat)


# ---------------------------------------------------------------------------
# chain solver and witnesses


def test_solve_chain_examples():
    z4 = zmod(4)
    sat = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 2})
    cert = solve_chain(sat)
    assert cert.solvable and cert.assignment["x"].index in (1, 3)
    unsat = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 1})
    cert = solve_chain(unsat)
    assert not cert.solvable
    assert check_witness(unsat, {"e": 2})
    f2 = zmod(2)
    tiny = LinSystem(f2, ["e"], ["x"], {("e", "x"): 1}, {"e": 1})
    cert = solve_chain(tiny)
    assert cert.solvable and cert.assignment["x"].index == 1


@pytest.mark.parametrize("planted", [True, False])
def test_solve_chain_makes_few_scalar_ring_calls(planted):
    # elimination, back substitution and the witness search are array
    # operations; the scalar calls left are the final eval (2·k·ell at most)
    ring = build_zmod(8)
    chain_data(ring)
    k = ell = 48
    rnd = random.Random(48)
    rows, cols = [f"e{i}" for i in range(k)], [f"x{j}" for j in range(ell)]
    entries = {(i, j): rnd.randrange(8) for i in rows for j in cols}
    if planted:
        x0 = {j: rnd.randrange(8) for j in cols}
        b = {i: sum(entries[(i, j)] * x0[j] for j in cols) % 8 for i in rows}
    else:
        b = {i: rnd.randrange(8) for i in rows}
    system = LinSystem(ring, rows, cols, entries, b)
    calls = count_scalar_calls(ring)
    cert = solve_chain(system)
    assert cert.solvable == planted
    assert calls[0] < 4 * k * ell


def test_hnf_over_large_galois_ring_fills_few_table_rows():
    # elimination over rings other than Z/m reads the tables the ring's
    # constructor built: a 2x2 form must not compute products one by one
    ring = parse_ring_spec("GR(4,4)")
    chain_data(ring)
    calls = count_scalar_calls(ring)
    m = Matrix(ring, ["a", "b"], ["x", "y"], {("a", "x"): 2, ("a", "y"): 5, ("b", "x"): 7, ("b", "y"): 4})
    res = hermite_normal_form(m)
    assert res.Q == [[4, 7], [0, 254]]
    assert calls[0] < 16 * ring.size


def test_witness_duality_small(rng):
    # UNSOLVABLE <=> a witness row combination exists (systems with <= 2 rows)
    for ring in (zmod(4), zmod(9), f4()):
        cd = chain_data(ring)
        tail = ring.pow_idx(cd.pi.index, cd.n - 1)
        for _ in range(40):
            system = random_linsystem(rng, ring, rng.randint(1, 2), rng.randint(1, 2))
            cert = solve_chain(system)
            found = enumerate_witnesses(system, tail)
            if cert.solvable:
                assert not found
            else:
                assert found
                assert verify_certificate(system, cert)


def test_solve_commutative_matches_oracle_sampled(rng):
    for ring in (zmod(6), zmod(12), gr42(), bivariate_nilpotent()):
        for _ in range(60):
            system = random_linsystem(rng, ring, rng.randint(1, 3), rng.randint(1, 2))
            cert = solve_commutative(system)
            assert cert.solvable == brute_force_solve(system).solvable
            assert verify_certificate(system, cert)


def test_solve_commutative_exhaustive_z6_1x1():
    z6 = zmod(6)
    for system in all_small_systems(z6, 1, 1):
        cert = solve_commutative(system)
        assert cert.solvable == brute_force_solve(system).solvable


def test_solve_commutative_spec_examples():
    z6 = zmod(6)
    c = solve_commutative(LinSystem(z6, ["e"], ["x"], {("e", "x"): 3}, {"e": 3}))
    assert c.solvable
    c = solve_commutative(LinSystem(z6, ["e"], ["x"], {("e", "x"): 2}, {"e": 1}))
    assert not c.solvable
    assert c.witness.summand == "3"  # the F2-side idempotent
    r = f4()
    omega = r.element(2)
    c = solve_commutative(LinSystem(r, ["e"], ["x"], {("e", "x"): omega}, {"e": r.one}))
    assert c.solvable and c.assignment["x"].index == 3  # omega^2 = omega + 1


# ---------------------------------------------------------------------------
# groups


def test_solve_group_examples():
    z3 = build_cyclic_group(3)
    cert = solve_group(GroupSystem(z3, ["e"], ["x"], {("e", "x"): 2}, {"e": 1}))
    assert cert.solvable and cert.assignment["x"].index == 2
    z2 = build_cyclic_group(2)
    cert = solve_group(GroupSystem(z2, ["e"], ["x"], {("e", "x"): 2}, {"e": 1}))
    assert not cert.solvable
    cert = solve_group(GroupSystem(z2, ["e"], ["x"], {("e", "x"): 1}, {}))
    assert cert.solvable


GROUPS_UP_TO_16 = [
    [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2],
    [9], [3, 3], [10], [11], [12], [2, 6], [13], [14], [15],
    [16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2],
]


@pytest.mark.parametrize("shape", GROUPS_UP_TO_16, ids=str)
def test_solve_group_agrees_with_oracle(shape):
    group = (
        build_cyclic_group(shape[0])
        if len(shape) == 1
        else build_product_group([build_cyclic_group(m) for m in shape])
    )
    rows, cols = ["e1", "e2"], ["x", "y"]
    import random

    rng = random.Random(hash(tuple(shape)) & 0xFFFF)
    for a11, a12, a21, a22 in itertools.product((0, 1), repeat=4):
        b1 = rng.randrange(group.size)
        b2 = rng.randrange(group.size)
        system = GroupSystem(
            group, rows, cols,
            {("e1", "x"): a11, ("e1", "y"): a12, ("e2", "x"): a21, ("e2", "y"): a22},
            {"e1": b1, "e2": b2},
        )
        cert = solve_group(system)
        assert cert.solvable == brute_force_solve(system).solvable
        if cert.solvable:
            assert system.eval(cert.assignment)
        else:
            assert verify_certificate(system, cert)


def test_solve_group_with_repeated_summands(rng):
    # integer coefficients beyond {0,1}
    group = build_product_group([build_cyclic_group(2), build_cyclic_group(4)])
    for _ in range(40):
        system = GroupSystem(
            group, ["e1", "e2"], ["x", "y"],
            {(i, j): rng.randrange(5) for i in ("e1", "e2") for j in ("x", "y")},
            {i: rng.randrange(group.size) for i in ("e1", "e2")},
        )
        assert solve_group(system).solvable == brute_force_solve(system).solvable


# ---------------------------------------------------------------------------
# two-sided systems


def test_solve_twosided_examples():
    ring = upper_triangular_f2()
    unit = 7
    nilp = 2
    sat = TwoSidedSystem(ring, ["e"], ["x"], {}, {("x", "e"): unit}, {"e": ring.one.index})
    cert = solve_twosided(sat)
    assert cert.solvable and sat.eval(cert.assignment)
    unsat = TwoSidedSystem(ring, ["e"], ["x"], {}, {("x", "e"): nilp}, {"e": ring.one.index})
    cert = solve_twosided(unsat)
    assert not cert.solvable
    assert verify_certificate(unsat, cert)
    trivial = TwoSidedSystem(ring, ["e"], ["x"], {("e", "x"): 0}, {}, {})
    assert solve_twosided(trivial).solvable


def test_solve_twosided_random_agreement(rng):
    ring = upper_triangular_f2()
    for _ in range(120):
        n_rows = rng.randint(1, 2)
        rows = [f"e{i}" for i in range(n_rows)]
        # keep each variable single-sided or 1 two-sided variable (oracle cap)
        pattern = rng.choice(["left", "right", "both", "two-split"])
        left, right, cols = {}, {}, []
        if pattern in ("left", "right", "both"):
            cols = ["x"]
            for i in rows:
                if pattern in ("left", "both"):
                    left[(i, "x")] = rng.randrange(8)
                if pattern in ("right", "both"):
                    right[("x", i)] = rng.randrange(8)
        else:
            cols = ["x", "y"]
            for i in rows:
                left[(i, "x")] = rng.randrange(8)
                right[("y", i)] = rng.randrange(8)
        b = {i: rng.randrange(8) for i in rows}
        system = TwoSidedSystem(ring, rows, cols, left, right, b)
        cert = solve_twosided(system)
        assert cert.solvable == brute_force_solve(system).solvable
        if cert.solvable:
            assert system.eval(cert.assignment)
        else:
            assert verify_certificate(system, cert)


def test_internal_targets_skip_validation(rng):
    """Reductions build their targets from arrays: solving and verifying a
    prebuilt system never runs the validating constructor path."""
    z12, group, ut2 = zmod(12), build_product_group([build_cyclic_group(4), build_cyclic_group(6)]), upper_triangular_f2()
    systems = []
    for n, m in ((2, 3), (3, 2), (3, 4), (4, 3)):
        rows, cols = [f"e{i}" for i in range(n)], [f"x{j}" for j in range(m)]
        cells = [(i, j) for i in rows for j in cols]
        systems.append(random_linsystem(rng, z12, n, m))
        systems.append(GroupSystem(group, rows, cols, {c: rng.randrange(5) for c in cells},
                                   {i: rng.randrange(group.size) for i in rows}))
        systems.append(TwoSidedSystem(ut2, rows, cols, {c: rng.randrange(8) for c in cells},
                                      {(j, i): rng.randrange(8) for i, j in cells}, {i: rng.randrange(8) for i in rows}))
    verdicts = set()
    for system in systems:
        with count_validations() as calls:
            cert = solve(system)
            assert verify_certificate(system, cert)
        assert calls[0] == 0
        verdicts.add((type(system).__name__, cert.verdict))
    assert len(verdicts) == 6  # both verdicts of every kind


def test_matrix_algebra_and_closure_reductions_skip_validation(rng):
    """Matrix results and the targets of the closure reductions are built from
    arrays: only the prebuilt inputs below run the validating path."""
    z9, z12, group = zmod(9), zmod(12), build_product_group([build_cyclic_group(2), build_cyclic_group(4)])
    ids = [f"r{i}" for i in range(4)]

    def matrix(ring, cols):
        return Matrix(ring, ids, cols, {(i, j): rng.randrange(ring.size) for i in ids for j in cols})

    matrices = a9, a9_reversed, a12, a12_rotated = [matrix(z9, ids), matrix(z9, ids[::-1]), matrix(z12, ids),
                                                     matrix(z12, ids[1:] + ids[:1])]
    invertible = Matrix(z9, ids, ids[::-1], {(i, i): 1 for i in ids})
    z4, z3 = zmod(4), zmod(3)
    s4 = [random_linsystem(rng, z4, 2, 3) for _ in range(2)]
    normal = [LinSystem(z3, ["e"], ["y"], {("e", "y"): 1}, {"e": 1}), LinSystem(z3, ["e"], ["y"], {}, {"e": 1})]
    gs = GroupSystem(group, ["e0", "e1"], ["x0", "x1"], {("e0", "x0"): 3, ("e1", "x1"): 2}, {"e0": 5})
    ops = {
        "mat_mul": lambda: (mat_mul(a9_reversed, a9), mat_mul(a12_rotated, a12)),
        "mat_add": lambda: (mat_add(a9, a9_reversed), mat_add(a12_rotated, a12)),
        "mat_scale": lambda: mat_scale(z9.one, a9_reversed),
        "mat_pow": lambda: (mat_pow(a9_reversed, 5), mat_pow(a12, 7)),
        "inverse": lambda: [inverse(a) for a in [*matrices, invertible]],
        "determinant": lambda: [determinant(a) for a in matrices],
        "charpoly_galois": lambda: [charpoly_galois(a) for a in (a9, a9_reversed)],
        "evaluate_at_matrix": lambda: charpoly_galois(a9_reversed).evaluate_at_matrix(a9_reversed),
        "normal_form": lambda: normal_form(s4[0]),
        "complement_chain": lambda: complement_chain(s4[0]),
        "and_compose": lambda: and_compose(*s4),
        "or_compose": lambda: or_compose(*s4),
        "collapse_nested": lambda: collapse_nested(["a", "b"], ["c"], {("a", "c"): normal[0], ("b", "c"): normal[1]}),
        "group_to_ring": lambda: group_to_ring(gs),
    }
    counts = {}
    for name, op in ops.items():
        with count_validations() as calls:
            op()
        counts[name] = calls[0]
    assert counts == dict.fromkeys(ops, 0)


def test_numerical_system_solving(rng):
    ring = upper_triangular_f2()
    g = additive_group(ring)
    system = NumericalSystem(
        g, ["e"], ["u", "v"],
        {("e", "u"): 3, ("e", "v"): 5},
        {"e": 6},
    )
    cert = solve_numerical(system)
    assert cert.solvable == brute_force_solve(system).solvable
    if cert.solvable:
        assert system.eval(cert.assignment)


# ---------------------------------------------------------------------------
# certificates


def test_verify_rejects_malformed():
    z4 = zmod(4)
    s = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 2})
    cert = solve_chain(s)
    with pytest.raises(InvalidCertificate):
        bad = type(cert)("SOLVABLE", assignment={"wrong": z4.element(1)})
        verify_certificate(s, bad)
    with pytest.raises(InvalidCertificate):
        verify_certificate(s, type(cert)("MAYBE"))


def test_verify_detects_wrong_solution():
    z4 = zmod(4)
    s = LinSystem(z4, ["e"], ["x"], {("e", "x"): 2}, {"e": 2})
    cert = solve_chain(s)
    assert verify_certificate(s, cert)
    cert.assignment["x"] = z4.element(2)
    assert not verify_certificate(s, cert)


def test_verify_detects_corrupted_witness():
    z4 = zmod(4)
    s = LinSystem(z4, ["e1", "e2"], ["x"], {("e1", "x"): 2, ("e2", "x"): 0}, {"e1": 1})
    cert = solve_commutative(s)
    assert not cert.solvable
    assert verify_certificate(s, cert)
    cert.witness.rows = {k: "0" for k in cert.witness.rows}
    assert not verify_certificate(s, cert)
