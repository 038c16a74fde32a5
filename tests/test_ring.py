from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from conftest import bivariate_nilpotent, f4, f2x_x2, gr42, upper_triangular_f2, ut2_times_z3, zmod
from ringsolve import (
    CapacityError,
    InvalidParameter,
    NotARing,
    Poly,
    build_cyclic_group,
    build_poly_quotient,
    build_product,
    build_product_group,
    build_table_ring,
    build_zmod,
    characteristic,
    group_decompose_cyclic,
    idempotents,
    nilpotency,
    units,
)
from ringsolve.reductions import build_phi_ring
from ringsolve.ring import _validate_ring_tables, additive_group, max_elems, poly_mod_reduce
from ringsolve.structure import decompose_local, local_data
from ringsolve.sysio import parse_group_spec, parse_ring_spec


def names(elems):
    return sorted(e.name for e in elems)


def test_zmod_units_and_idempotents():
    z6 = zmod(6)
    assert names(units(z6)) == ["1", "5"]
    assert names(idempotents(z6)) == ["0", "1", "3", "4"]


def test_zmod_characteristic_two():
    z2 = zmod(2)
    assert (z2.one + z2.one).index == 0
    assert characteristic(z2) == 2


def test_zmod_nine_maximal_ideal_by_nonunits():
    z9 = zmod(9)
    non_units = {i for i in range(9)} - {u.index for u in units(z9)}
    assert non_units == {0, 3, 6}
    assert characteristic(z9) == 9


def test_zmod_rejects_small_modulus():
    with pytest.raises(InvalidParameter):
        build_zmod(1)


def test_poly_quotient_gr42():
    r = gr42()
    assert r.size == 16
    assert characteristic(r) == 4


def test_poly_quotient_f4_is_a_field():
    r = f4()
    assert len(units(r)) == 3  # every nonzero element


def test_poly_quotient_nilpotent_generator():
    r = f2x_x2()
    x = r.parse_element("[0,1]")
    assert (x * x).index == r.zero.index
    assert nilpotency(r, x) == 2


def test_poly_quotient_requires_monic():
    with pytest.raises(InvalidParameter):
        build_poly_quotient(2, 2, Poly((1, 2)))
    with pytest.raises(InvalidParameter):
        build_poly_quotient(4, 1, Poly((1, 1)))  # p must be prime


def test_product_isomorphic_to_z6():
    prod = build_product([zmod(2), zmod(3)])
    assert prod.size == 6 and characteristic(prod) == 6
    # additive group is cyclic generated by 1, so k -> k*1 is the isomorphism
    z6 = zmod(6)
    image = [prod.scalar_idx(k, prod.one.index) for k in range(6)]
    assert len(set(image)) == 6
    for a, b in itertools.product(range(6), repeat=2):
        assert image[z6.mul_idx(a, b)] == prod.mul_idx(image[a], image[b])
        assert image[z6.add_idx(a, b)] == prod.add_idx(image[a], image[b])


def test_ring_and_additive_group_share_scalar_and_order():
    # one doubling loop and one order loop serve rings and groups alike
    for ring in (zmod(12), gr42(), build_product([zmod(4), zmod(6)]), upper_triangular_f2()):
        group = additive_group(ring)
        for x in range(ring.size):
            naive = ring.zero.index
            for k in range(1, 2 * ring.size + 1):
                naive = ring.add_idx(naive, x)
                assert ring.scalar_idx(k, x) == group.scalar_idx(k, x) == naive
                assert ring.scalar_idx(-k, x) == group.scalar_idx(-k, x) == ring.neg_idx(naive)
            order = ring.order_of(x)
            assert order == group.order_of(x) and ring.scalar_idx(order, x) == ring.zero.index
            assert all(ring.scalar_idx(k, x) != ring.zero.index for k in range(1, order))
        assert characteristic(ring) == ring.order_of(ring.one.index)
        assert ring.from_int(-1).index == ring.neg_idx(ring.one.index)
        assert ring.from_int(characteristic(ring) * 10**20 + 5) == ring.from_int(5)


def test_product_singleton_and_lcm_characteristic():
    single = build_product([zmod(4)])
    assert single.size == 4 and characteristic(single) == 4
    mixed = build_product([zmod(2), zmod(4)])
    assert mixed.size == 8 and characteristic(mixed) == 4


def test_product_rejects_empty():
    with pytest.raises(InvalidParameter):
        build_product([])


def test_product_of_commutative_and_non_commutative_factors():
    prod = build_product([upper_triangular_f2(), build_zmod(3)])
    reference = ut2_times_z3()
    assert not prod.commutative
    assert prod.op_tables() == reference.op_tables()
    assert (prod.zero.index, prod.one.index) == (reference.zero.index, reference.one.index)
    assert build_product([zmod(2), zmod(3)]).commutative


def _scalar_validate_ring_tables(add, mul, check_commutative):
    """The element-by-element axiom check that the array validator replaced,
    kept as its reference: the same order of axioms and of elements."""
    n = len(add)
    rng = range(n)
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


def _validation_outcome(validate, add, mul, check_commutative):
    try:
        return validate(add, mul, check_commutative)
    except NotARing as exc:
        return str(exc)


def test_array_validator_agrees_with_the_scalar_reference():
    rng = random.Random(32)
    rings = [zmod(6), parse_ring_spec("Z/4[X]/(X^2)"), gr42(), parse_ring_spec("Z/2 x Z/4"), upper_triangular_f2()]
    seen = set()
    for ring in rings:
        for check_commutative in (True, False):
            for case in range(60):
                add, mul = ring.op_tables()
                for _ in range(0 if case == 0 else rng.choice((1, 2))):
                    table = rng.choice((add, mul))
                    # a random cell, or one that holds zero (a row may lose its inverse)
                    cells = [(x, y) for x in range(ring.size) for y in range(ring.size)]
                    if rng.random() < 0.5:
                        cells = [(x, y) for x, y in cells if table[x][y] == ring.zero.index]
                    x, y = rng.choice(cells)
                    table[x][y] = rng.randrange(ring.size)
                expected = _validation_outcome(_scalar_validate_ring_tables, add, mul, check_commutative)
                assert _validation_outcome(_validate_ring_tables, add, mul, check_commutative) == expected
                seen.add(expected.split(" fails")[0] if isinstance(expected, str) else "ring")
    assert seen == {"ring"} | {f"not a ring: {axiom}" for axiom in (
        "additive identity", "additive inverses", "addition commutativity", "addition associativity",
        "multiplicative identity", "multiplication associativity", "left distributivity",
        "right distributivity", "multiplication commutativity")}


def _pairwise_fold(carrier, terms):
    """Reference row sum: the pairwise fold over column halves with the
    carrier's elementwise add."""
    while terms.shape[1] > 1:
        half = terms.shape[1] // 2
        head = carrier.add(terms[:, :half], terms[:, half:2 * half])
        if terms.shape[1] % 2:
            head[:, 0] = carrier.add(head[:, 0], terms[:, -1])
        terms = head
    return terms[:, 0]


ROW_SUM_CARRIERS = {
    "Z/2": lambda: zmod(2),
    "Z/12": lambda: zmod(12),
    "Z/4096": lambda: zmod(4096),
    "cyclic Z/7": lambda: build_cyclic_group(7),
    "GR(4,2)": gr42,
}


@pytest.mark.parametrize("name", list(ROW_SUM_CARRIERS))
@pytest.mark.parametrize("width", [1, 2, 3, 72, 4096])
def test_row_sum_agrees_with_the_pairwise_fold(name, width):
    carrier = ROW_SUM_CARRIERS[name]()
    rng = np.random.default_rng(width)
    for dtype in (np.int8, np.int16, np.int64):
        if np.iinfo(dtype).max < carrier.size - 1:
            continue
        terms = rng.integers(0, carrier.size, size=(3, width)).astype(dtype)
        assert carrier.row_sum(terms).tolist() == _pairwise_fold(carrier, terms).tolist(), dtype
        # the worst case for an int64 sum: every term the largest index
        top = np.full((2, width), carrier.size - 1, dtype=dtype)
        assert carrier.row_sum(top).tolist() == _pairwise_fold(carrier, top).tolist(), dtype
    # axis 1 of a 3-d array, as in the matrix product
    cube = rng.integers(0, carrier.size, size=(2, width, 3))
    assert carrier.row_sum(cube).tolist() == _pairwise_fold(carrier, cube).tolist()


def test_table_ring_accepts_z3_tables():
    z3 = zmod(3)
    add, mul = z3.op_tables()
    r = build_table_ring(add, mul, commutative=True)
    assert r.size == 3 and r.commutative


def test_table_ring_noncommutative_fixture():
    r = upper_triangular_f2()
    assert r.size == 8
    assert not r.commutative
    assert names(units(r)) == ["5", "7"]


def test_table_ring_rejects_bad_addition():
    # a row without the identity: additive inverses fail
    add = [[0, 1], [1, 1]]
    mul = [[0, 0], [0, 1]]
    with pytest.raises(NotARing):
        build_table_ring(add, mul)


def test_table_ring_rejects_false_commutative_claim():
    r = upper_triangular_f2()
    add, mul = r.op_tables()
    with pytest.raises(NotARing) as exc:
        build_table_ring(add, mul, commutative=True)
    assert "commutativity" in str(exc.value)


def test_nilpotency_examples():
    z9 = zmod(9)
    assert nilpotency(z9, z9.element(3)) == 2
    assert nilpotency(z9, z9.element(2)) is None


def test_size_cap(monkeypatch):
    monkeypatch.setenv("RINGSOLVE_MAX_ELEMS", "100")
    assert max_elems() == 100
    with pytest.raises(CapacityError):
        build_zmod(101)
    monkeypatch.delenv("RINGSOLVE_MAX_ELEMS")
    assert max_elems() == 4096


@pytest.mark.parametrize("build", [
    lambda: build_zmod(10**9),
    lambda: build_cyclic_group(10**9),
    lambda: build_product_group([build_cyclic_group(10**4), build_cyclic_group(10**4)]),
    lambda: parse_group_spec("Z/200 x Z/200 x Z/20"),
    lambda: build_phi_ring(build_cyclic_group(4096)),
], ids=["zmod", "cyclic", "product group", "group spec", "phi"])
def test_builders_check_the_cap_before_allocating(build):
    # the cap is checked before any element name or table exists
    with pytest.raises(CapacityError):
        build()


# ---------------------------------------------------------------------------
# group decomposition


def test_decompose_cyclic_z6():
    d = group_decompose_cyclic(build_cyclic_group(6))
    assert d.orders == [6]


def test_decompose_f4_additive_is_klein():
    d = group_decompose_cyclic(additive_group(f4()))
    assert d.orders == [2, 2]


def test_decompose_z2_x_z4():
    g = build_product_group([build_cyclic_group(2), build_cyclic_group(4)])
    d = group_decompose_cyclic(g)
    assert d.orders == [2, 4]


GROUP_SHAPES = [
    [2], [3], [4], [5], [7], [8], [9], [16], [25], [27],
    [2, 2], [2, 4], [2, 6], [3, 3], [2, 2, 2], [2, 8], [4, 4],
    [2, 2, 4], [2, 2, 2, 2], [6], [12], [2, 2, 3], [6, 6], [3, 12], [2, 32],
]


@pytest.mark.parametrize("shape", GROUP_SHAPES, ids=str)
def test_decomposition_is_bijective_homomorphism(shape):
    g = (
        build_cyclic_group(shape[0])
        if len(shape) == 1
        else build_product_group([build_cyclic_group(m) for m in shape])
    )
    assert g.size <= 64
    d = group_decompose_cyclic(g)
    orders = d.orders
    assert math.prod(orders) == g.size
    for a, b in zip(orders, orders[1:]):
        assert b % a == 0
    seen = set()
    for i in range(g.size):
        coords = d.coords_of(i)
        assert all(0 <= c < o for c, o in zip(coords, orders))
        assert coords not in seen
        seen.add(coords)
        assert d.element_of(coords) == i
    for a, b in itertools.product(range(g.size), repeat=2):
        ca, cb = d.coords_of(a), d.coords_of(b)
        summed = tuple((x + y) % o for x, y, o in zip(ca, cb, orders))
        assert d.coords_of(g.add_idx(a, b)) == summed


def test_characteristic_divides_size_and_local_prime_power():
    for ring in (zmod(2), zmod(6), zmod(12), f4(), gr42(), bivariate_nilpotent()):
        assert ring.size % characteristic(ring) == 0
    for ring in (zmod(8), zmod(9), f4(), gr42(), bivariate_nilpotent()):
        c = characteristic(ring)
        p = min(q for q in range(2, c + 1) if c % q == 0)
        while c % p == 0:
            c //= p
        assert c == 1


# ---------------------------------------------------------------------------
# op tables against definitions written out here


def _digits(i, q, r):
    return [(i // q**t) % q for t in range(r)]


def _undigits(cs, q):
    return sum(c * q**t for t, c in enumerate(cs))


def _poly_quotient_tables(ring):
    q, f = ring.p**ring.n, list(ring.f.coeffs)
    r = len(f) - 1
    elems = [_digits(i, q, r) for i in range(ring.size)]
    add = [[_undigits([(x + y) % q for x, y in zip(a, b)], q) for b in elems] for a in elems]
    mul = []
    for a in elems:
        row = []
        for b in elems:
            conv = [0] * (2 * r - 1)
            for s, x in enumerate(a):
                for t, y in enumerate(b):
                    conv[s + t] += x * y
            row.append(_undigits(poly_mod_reduce(conv, f, q), q))
        mul.append(row)
    return add, mul


def _product_tables(factor_tables):
    """Componentwise tables, the last factor's index varying fastest."""
    add, mul = [[0]], [[0]]
    for fadd, fmul in factor_tables:
        s = len(fadd)
        add = [[x * s + fadd[a][b] for x in row for b in range(s)] for row in add for a in range(s)]
        mul = [[x * s + fmul[a][b] for x in row for b in range(s)] for row in mul for a in range(s)]
    return add, mul


def _residue_tables(m):
    return ([[(a + b) % m for b in range(m)] for a in range(m)],
            [[a * b % m for b in range(m)] for a in range(m)])


@pytest.mark.parametrize("spec", ["GR(4,2)", "GR(9,2)", "Z/4[X]/(X^2)"])
def test_poly_quotient_tables_match_definition(spec):
    ring = parse_ring_spec(spec)
    assert ring.op_tables() == _poly_quotient_tables(ring)


@pytest.mark.parametrize("spec", ["Z/2 x GR(4,2)", "Z/16 x GR(4,2)"])
def test_product_tables_match_definition(spec):
    ring = parse_ring_spec(spec)
    gr = parse_ring_spec("GR(4,2)")
    m = ring.factors[0].size
    assert ring.op_tables() == _product_tables([_residue_tables(m), _poly_quotient_tables(gr)])


def test_phi_tables_match_definition():
    # phi(G) on G x Z_d: (g1,m1)+(g2,m2) = (g1+g2, m1+m2), (g1,m1)·(g2,m2) = (m2·g1 + m1·g2, m1·m2)
    moduli = (2, 4)
    ring = parse_ring_spec("phi(Z/2 x Z/4)")
    d = 4
    group = list(itertools.product(*(range(m) for m in moduli)))
    g_index = {g: k for k, g in enumerate(group)}

    def g_add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

    def g_times(k, x):
        return tuple(k * a % m for a, m in zip(x, moduli))

    elems = [(g, mv) for g in group for mv in range(d)]
    add = [[g_index[g_add(g1, g2)] * d + (m1 + m2) % d for g2, m2 in elems] for g1, m1 in elems]
    mul = [[g_index[g_add(g_times(m2, g1), g_times(m1, g2))] * d + m1 * m2 % d for g2, m2 in elems]
           for g1, m1 in elems]
    assert ring.size == len(elems)
    assert ring.op_tables() == (add, mul)


def test_product_group_table_matches_definition():
    moduli = (4, 8, 9)
    group = parse_group_spec("Z/4 x Z/8 x Z/9")
    elems = list(itertools.product(*(range(m) for m in moduli)))
    index = {g: k for k, g in enumerate(elems)}
    expected = [[index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))] for y in elems] for x in elems]
    assert group.add_table() == expected


@pytest.mark.parametrize("spec", ["Z/12", "Z/2 x GR(4,2)", "GR(4,2)"])
def test_summand_and_residue_tables_follow_parent_ops(spec):
    parent = parse_ring_spec(spec)
    for summand in decompose_local(parent):
        sub = summand.ring
        embed = [summand.embed(i) for i in range(sub.size)]
        add, mul = sub.op_tables()
        for i, j in itertools.product(range(sub.size), repeat=2):
            assert embed[add[i][j]] == parent.add_idx(embed[i], embed[j])
            assert embed[mul[i][j]] == parent.mul_idx(embed[i], embed[j])
        data = local_data(sub)
        fadd, fmul = data.field.op_tables()
        proj = data.projection
        for x, y in itertools.product(range(sub.size), repeat=2):
            assert fadd[proj[x]][proj[y]] == proj[sub.add_idx(x, y)]
            assert fmul[proj[x]][proj[y]] == proj[sub.mul_idx(x, y)]


@pytest.mark.parametrize("spec", ["Z/12", "GR(4,2)", "Z/2 x Z/3", "phi(Z/4)", "group Z/6", "group Z/2 x Z/4"])
def test_elementwise_ops_match_scalar_ops(spec):
    carrier = parse_group_spec(spec[6:]) if spec.startswith("group ") else parse_ring_spec(spec)
    x, y = np.divmod(np.arange(carrier.size**2), carrier.size)
    pairs = list(zip(x.tolist(), y.tolist()))
    assert carrier.add(x, y).tolist() == [carrier.add_idx(i, j) for i, j in pairs]
    assert carrier.sub(x, y).tolist() == [carrier.sub_idx(i, j) for i, j in pairs]
    assert carrier.neg(x).tolist() == [carrier.neg_idx(i) for i, _ in pairs]
    if hasattr(carrier, "mul"):
        assert carrier.mul(x, y).tolist() == [carrier.mul_idx(i, j) for i, j in pairs]
