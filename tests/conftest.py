from __future__ import annotations

import contextlib
import functools
import itertools
import random

import numpy as np
import pytest

from ringsolve import (
    LinSystem,
    Poly,
    build_poly_quotient,
    build_table_ring,
    build_zmod,
)


@functools.cache
def zmod(m):
    return build_zmod(m)


@functools.cache
def f4():
    return build_poly_quotient(2, 1, Poly((1, 1, 1)))


@functools.cache
def gr42():
    return build_poly_quotient(2, 2, Poly((1, 1, 1)))


@functools.cache
def f2x_x2():
    # F2[X]/(X^2): nilpotent generator
    return build_poly_quotient(2, 1, Poly((0, 0, 1)))


@functools.cache
def bivariate_nilpotent():
    """F2[x,y]/(x^2, y^2): 16 elements a + bx + cy + dxy, 2-generated local."""

    def enc(a, b, c, d):
        return a + 2 * b + 4 * c + 8 * d

    def dec(i):
        return (i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 1)

    def mul(i, j):
        a1, b1, c1, d1 = dec(i)
        a2, b2, c2, d2 = dec(j)
        return enc(
            a1 * a2 % 2,
            (a1 * b2 + b1 * a2) % 2,
            (a1 * c2 + c1 * a2) % 2,
            (a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2) % 2,
        )

    add = [[i ^ j for j in range(16)] for i in range(16)]
    mul_t = [[mul(i, j) for j in range(16)] for i in range(16)]
    names = []
    for i in range(16):
        a, b, c, d = dec(i)
        parts = [s for s, on in (("1", a), ("x", b), ("y", c), ("xy", d)) if on]
        names.append("+".join(parts) if parts else "0")
    return build_table_ring(add, mul_t, commutative=True, names=names, spec="F2[x,y]/(x^2,y^2)")


@functools.cache
def upper_triangular_f2():
    """Upper-triangular 2x2 matrices over F2: 8 elements, non-commutative."""

    def dec(i):
        return ((i >> 2) & 1, (i >> 1) & 1, i & 1)

    def enc(a, b, d):
        return a * 4 + b * 2 + d

    def mul(i, j):
        a1, b1, d1 = dec(i)
        a2, b2, d2 = dec(j)
        return enc(a1 * a2 % 2, (a1 * b2 + b1 * d2) % 2, d1 * d2 % 2)

    add = [[i ^ j for j in range(8)] for i in range(8)]
    mul_t = [[mul(i, j) for j in range(8)] for i in range(8)]
    return build_table_ring(add, mul_t, commutative=False, spec="UT2(F2)")


def ut2_times_z3():
    """UT2(F2) x Z/3 as a table ring (the last factor fastest), the carrier of
    the two-sided ``oracle_check`` benchmark op."""
    ut2, z3 = upper_triangular_f2(), build_zmod(3)
    a, b = np.divmod(np.arange(ut2.size * 3), 3)
    add = ut2.add(a[:, None], a) * 3 + z3.add(b[:, None], b)
    mul = ut2.mul(a[:, None], a) * 3 + z3.mul(b[:, None], b)
    return build_table_ring(add.tolist(), mul.tolist(), commutative=False, spec="UT2(F2) x Z/3")


def commutative_fixture_rings():
    """The fixture set named by the acceptance criteria."""
    return [
        zmod(2), zmod(3), zmod(4), zmod(6), zmod(8), zmod(9), zmod(12),
        f4(), gr42(), bivariate_nilpotent(),
    ]


def local_fixture_rings():
    return [r for r in commutative_fixture_rings() if r.spec != "Z/6" and r.spec != "Z/12"]


def random_linsystem(rng: random.Random, ring, n_rows, n_cols):
    rows = [f"e{i}" for i in range(n_rows)]
    cols = [f"x{j}" for j in range(n_cols)]
    entries = {
        (i, j): rng.randrange(ring.size) for i in rows for j in cols
    }
    b = {i: rng.randrange(ring.size) for i in rows}
    return LinSystem(ring, rows, cols, entries, b)


def all_small_systems(ring, n_rows, n_cols):
    """Every system of the given shape, exhaustively."""
    rows = [f"e{i}" for i in range(n_rows)]
    cols = [f"x{j}" for j in range(n_cols)]
    cells = [(i, j) for i in rows for j in cols]
    for flat in itertools.product(range(ring.size), repeat=len(cells) + n_rows):
        entries = {cell: v for cell, v in zip(cells, flat)}
        b = {i: v for i, v in zip(rows, flat[len(cells):])}
        yield LinSystem(ring, rows, cols, entries, b)


def count_scalar_calls(ring, ops=("_add", "_mul", "_neg")) -> list[int]:
    """Wrap the ring's scalar ops (add/mul/neg by default); the returned list
    holds the number of calls.  Use a ring built for the test alone."""
    calls = [0]

    def counted(op):
        def wrapper(*args):
            calls[0] += 1
            return op(*args)
        return wrapper

    for name in ops:
        setattr(ring, name, counted(getattr(ring, name)))
    return calls


@contextlib.contextmanager
def count_validations():
    """Count the calls of the validating path of systems and matrices
    (``_Indexed._coefficients``) inside the block; yields the counter list."""
    from ringsolve.linsys import _Indexed

    calls = [0]
    real = _Indexed._coefficients

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    _Indexed._coefficients = counted
    try:
        yield calls
    finally:
        _Indexed._coefficients = real


def same_inverse(x, y) -> bool:
    """Two results of an inverse: both None, or equal matrices."""
    if x is None or y is None:
        return x is None and y is None
    return x.equals(y)


@pytest.fixture
def rng():
    return random.Random(0xB1A5)
