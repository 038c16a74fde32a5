from __future__ import annotations

import itertools
import random

import pytest

from conftest import bivariate_nilpotent, count_scalar_calls, f4, gr42, same_inverse, zmod
from ringsolve import (
    InvalidParameter,
    build_zmod,
    Matrix,
    UnsupportedRing,
    charpoly_galois,
    determinant,
    gl_order,
    gl_order_local,
    inverse,
    is_invertible,
    mat_add,
    mat_mul,
    mat_pow,
)
from ringsolve.oracle import charpoly_berkowitz, charpoly_cofactor, det_cofactor, enumerate_gl, inverse_by_power
from ringsolve.ring import unit_indices
from ringsolve.structure import decompose_local
from ringsolve.sysio import parse_ring_spec


def rand_matrix(rng, ring, ids):
    return Matrix(ring, ids, ids, {(i, j): rng.randrange(ring.size) for i in ids for j in ids})


def test_mat_mul_examples():
    z4 = zmod(4)
    a = Matrix(z4, [0, 1], [0, 1], {(0, 0): 1, (0, 1): 2, (1, 1): 1})
    e = Matrix.identity(z4, [0, 1])
    assert mat_mul(a, e).equals(a)
    assert mat_mul(a, a).equals(e)  # 2+2 = 0 mod 4
    r = f4()
    omega = Matrix(r, ["i"], ["i"], {("i", "i"): 2})
    prod = mat_mul(omega, omega)
    assert prod.entry_idx("i", "i") == 3  # omega^2 = omega + 1


def test_mat_mul_rejects_mismatch():
    z4 = zmod(4)
    a = Matrix(z4, [0], [0, 1], {})
    b = Matrix(z4, [5], [0], {})
    with pytest.raises(InvalidParameter):
        mat_mul(a, b)


def test_mat_add():
    z4 = zmod(4)
    a = Matrix(z4, [0], [0], {(0, 0): 3})
    b = Matrix(z4, [0], [0], {(0, 0): 2})
    assert mat_add(a, b).entry_idx(0, 0) == 1


def test_mat_pow_examples():
    z4 = zmod(4)
    b = Matrix(z4, [0, 1], [0, 1], {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert mat_pow(b, 0).equals(Matrix.identity(z4, [0, 1]))
    assert mat_pow(b, 5).equals(b)
    # A^(2^64) equals squaring 64 times
    a = rand_matrix_with_seed(z4)
    squared = a
    for _ in range(64):
        squared = mat_mul(squared, squared)
    assert mat_pow(a, 1 << 64).equals(squared)


def rand_matrix_with_seed(ring):
    import random

    rng = random.Random(7)
    ids = [0, 1]
    return rand_matrix(rng, ring, ids)


def test_mat_pow_additivity(rng):
    for ring in (zmod(9), gr42()):
        for _ in range(10):
            a = rand_matrix(rng, ring, [0, 1])
            e1, e2 = rng.randrange(0, 50), rng.randrange(0, 50)
            lhs = mat_pow(a, e1 + e2)
            rhs = mat_mul(mat_pow(a, e1), mat_pow(a, e2))
            assert lhs.equals(rhs)


# ---------------------------------------------------------------------------
# GL cardinality


def test_gl_order_local_matches_enumeration():
    f2, f3, z4, z9 = zmod(2), zmod(3), zmod(4), zmod(9)
    assert gl_order_local(f2, 1) == enumerate_gl(f2, 1) == 1
    assert gl_order_local(f2, 2) == enumerate_gl(f2, 2) == 6
    assert gl_order_local(f2, 3) == enumerate_gl(f2, 3) == 168
    assert gl_order_local(f3, 2) == enumerate_gl(f3, 2) == 48
    assert gl_order_local(z4, 2) == enumerate_gl(z4, 2) == 96
    assert gl_order_local(z9, 2) == enumerate_gl(z9, 2) == 3888


def test_gl_order_product_rule():
    z6 = zmod(6)
    assert gl_order(z6, 1) == 2
    assert gl_order(z6, 2) == 288
    assert gl_order(gr42(), 2) == gl_order_local(gr42(), 2)


# ---------------------------------------------------------------------------
# inverse


def test_inverse_spec_example():
    z4 = zmod(4)
    a = Matrix(z4, [0, 1], [0, 1], {(0, 0): 1, (0, 1): 2, (1, 1): 1})
    inv = inverse(a)
    assert inv is not None and inv.equals(a)


def test_singular_matrix_with_zero_row():
    z4 = zmod(4)
    a = Matrix(z4, [0, 1], [0, 1], {(0, 0): 2})  # nilpotent diag, zero row
    assert inverse(a) is None
    assert not is_invertible(a)


def test_inverse_brute_force_agreement_z4():
    z4 = zmod(4)
    e = Matrix.identity(z4, [0, 1])
    count = 0
    for flat in itertools.product(range(4), repeat=4):
        a = Matrix(z4, [0, 1], [0, 1],
                   {(0, 0): flat[0], (0, 1): flat[1], (1, 0): flat[2], (1, 1): flat[3]})
        inv = inverse(a)
        assert same_inverse(inv, inverse_by_power(a))
        brute = None
        for bflat in itertools.product(range(4), repeat=4):
            b = Matrix(z4, [0, 1], [0, 1],
                       {(0, 0): bflat[0], (0, 1): bflat[1], (1, 0): bflat[2], (1, 1): bflat[3]})
            if mat_mul(a, b).equals(e) and mat_mul(b, a).equals(e):
                brute = b
                break
        assert (inv is None) == (brute is None)
        if inv is not None:
            count += 1
            assert mat_mul(a, inv).equals(e) and mat_mul(inv, a).equals(e)
    assert count == 96


def test_inverse_makes_few_ring_calls():
    # Gauss–Jordan makes O(n^3) scalar products; the |GL|-1 power made
    # about 2n^2 full matrix squarings (some 5·10^5 products at n = 12)
    ring = build_zmod(4)
    unit_indices(ring)
    decompose_local(ring)
    n = 12
    rnd = random.Random(12)
    ids = list(range(n))
    lower = Matrix(ring, ids, ids, {(i, j): 1 if i == j else rnd.randrange(4) for i in ids for j in ids if j <= i})
    upper = Matrix(ring, ids, ids, {(i, j): rnd.choice([1, 3]) if i == j else rnd.randrange(4)
                                    for i in ids for j in ids if j >= i})
    a = mat_mul(lower, upper)
    calls = count_scalar_calls(ring, ops=("_mul",))
    inv = inverse(a)
    assert calls[0] < 8 * n**3
    assert inv is not None and mat_mul(inv, a).equals(Matrix.identity(ring, ids))
    # a zero first column has no unit pivot: singular before any product
    singular = Matrix(ring, ids, ids, {(i, j): v for (i, j), v in a.entries.items() if j != 0})
    calls[0] = 0
    assert inverse(singular) is None
    assert calls[0] < n * n


def test_inverse_over_z6_iff_both_projections(rng):
    z6 = zmod(6)
    from ringsolve.structure import decompose_local

    summands = decompose_local(z6)
    for _ in range(60):
        a = rand_matrix(rng, z6, [0, 1, 2])
        ok = is_invertible(a)
        per_side = []
        for s in summands:
            proj = Matrix(s.ring, a.rows, a.cols,
                          {k: s.project(v) for k, v in a.entries.items()})
            per_side.append(inverse(proj) is not None)
        assert ok == all(per_side)
        if ok:
            inv = inverse(a)
            assert mat_mul(a, inv).equals(Matrix.identity(z6, a.rows))
            assert mat_mul(inv, a).equals(Matrix.identity(z6, a.rows))


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_charpoly_identity_gr42():
    gr = gr42()
    chi = charpoly_galois(Matrix.identity(gr, [0, 1]))
    assert [c.name for c in chi.coefficients] == ["1", "2", "1"]


def test_charpoly_swap_z9():
    z9 = zmod(9)
    swap = Matrix(z9, [0, 1], [0, 1], {(0, 1): 1, (1, 0): 1})
    chi = charpoly_galois(swap)
    assert [c.index for c in chi.coefficients] == [8, 0, 1]
    assert chi.equals(charpoly_cofactor(swap))


def test_charpoly_diagonal_is_product_of_linear_factors():
    z9 = zmod(9)
    d1, d2 = 4, 7
    diag = Matrix(z9, [0, 1], [0, 1], {(0, 0): d1, (1, 1): d2})
    chi = charpoly_galois(diag)
    # (X-d1)(X-d2) = X^2 - (d1+d2)X + d1 d2
    assert [c.index for c in chi.coefficients] == [(d1 * d2) % 9, (-(d1 + d2)) % 9, 1]


@pytest.mark.parametrize("ring_factory", [f4, lambda: zmod(9), gr42], ids=["F4", "Z/9", "GR42"])
def test_charpoly_matches_cofactor_and_cayley_hamilton(ring_factory, rng):
    ring = ring_factory()
    for _ in range(25):
        n = rng.randint(1, 3)
        a = rand_matrix(rng, ring, list(range(n)))
        chi = charpoly_galois(a)
        assert chi.equals(charpoly_cofactor(a))
        zero = chi.evaluate_at_matrix(a)
        assert all(v == ring.zero.index for v in zero.entries.values())


def test_charpoly_requires_galois_ring():
    r22 = bivariate_nilpotent()
    from ringsolve.errors import PreconditionViolation

    with pytest.raises(PreconditionViolation):
        charpoly_galois(Matrix.identity(r22, [0]))


# ---------------------------------------------------------------------------
# determinant


def test_determinant_examples():
    z9 = zmod(9)
    assert determinant(Matrix.identity(z9, [0, 1, 2])).index == 1
    swap = Matrix(z9, [0, 1], [0, 1], {(0, 1): 1, (1, 0): 1})
    assert determinant(swap).index == 8
    z6 = zmod(6)
    diag = Matrix(z6, [0, 1], [0, 1], {(0, 0): 2, (1, 1): 3})
    assert determinant(diag).index == 0


def test_determinant_agrees_with_cofactor(rng):
    for ring in (zmod(6), zmod(12), zmod(9), gr42()):
        for _ in range(20):
            n = rng.randint(1, 3)
            a = rand_matrix(rng, ring, list(range(n)))
            assert determinant(a).index == det_cofactor(a).index


def lu_matrix(rng, ring, ids):
    """L·U with unit diagonals: invertible, unlike most random matrices."""
    units = sorted(unit_indices(ring))
    lower = Matrix(ring, ids, ids, {(i, j): rng.choice(units) if i == j else rng.randrange(ring.size)
                                    for i in ids for j in ids if j <= i})
    upper = Matrix(ring, ids, ids, {(i, j): rng.choice(units) if i == j else rng.randrange(ring.size)
                                    for i in ids for j in ids if j >= i})
    return mat_mul(lower, upper)


def test_determinant_multiplicative(rng):
    for ring in (zmod(9), gr42(), zmod(12)):
        for n in range(2, 12):
            ids = list(range(n))
            for a, b in ((rand_matrix(rng, ring, ids), rand_matrix(rng, ring, ids)),
                         (lu_matrix(rng, ring, ids), rand_matrix(rng, ring, ids)),
                         (lu_matrix(rng, ring, ids), lu_matrix(rng, ring, ids))):
                lhs = determinant(mat_mul(a, b)).index
                rhs = ring.mul_idx(determinant(a).index, determinant(b).index)
                assert lhs == rhs, (ring.spec, n)


@pytest.mark.parametrize("ring_factory", [lambda: zmod(4), lambda: zmod(8), lambda: zmod(9), gr42,
                                          lambda: parse_ring_spec("GR(8,3)"), lambda: zmod(4096)],
                         ids=["Z/4", "Z/8", "Z/9", "GR42", "GR83", "Z/4096"])
def test_charpoly_and_determinant_agree_with_berkowitz(ring_factory, rng):
    ring = ring_factory()
    for n in range(7, 13):
        ids = list(range(n))
        for a in (rand_matrix(rng, ring, ids), lu_matrix(rng, ring, ids)):
            chi = charpoly_berkowitz(a)
            assert charpoly_galois(a).equals(chi), (ring.spec, n)
            det = chi.coefficient(0).index
            assert determinant(a).index == (ring.neg_idx(det) if n % 2 else det), (ring.spec, n)


@pytest.mark.parametrize("spec", ["Z/12", "Z/2 x GR(4,2)"])
def test_determinant_agrees_with_berkowitz_over_non_local_rings(spec, rng):
    ring = parse_ring_spec(spec)
    for n in range(7, 13):
        ids = list(range(n))
        for a in (rand_matrix(rng, ring, ids), lu_matrix(rng, ring, ids)):
            det = charpoly_berkowitz(a).coefficient(0).index
            assert determinant(a).index == (ring.neg_idx(det) if n % 2 else det), (spec, n)


def test_determinant_unsupported_for_non_galois_summand():
    r22 = bivariate_nilpotent()
    with pytest.raises(UnsupportedRing):
        determinant(Matrix.identity(r22, [0, 1]))
