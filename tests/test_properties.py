"""Property tests for the chain-ring solver, Hermite normal form and inverse.

Random small systems and matrices over the chain rings Z/4, Z/8, Z/9, F4 and
GR(4,2): ``solve_chain`` must agree with the brute-force oracle and produce
certificates that replay, and ``hermite_normal_form`` must satisfy
S·A·T = (Q ; 0) with a valuation chain on its diagonal.  Random square
matrices over local and non-local commutative rings: ``inverse`` must agree
with the oracle's |GL|-power inverse and be a two-sided inverse.  Random
ring, group, two-sided and numerical systems and random matrices: writing,
parsing and writing again must give the same file text, and a system parsed
from its file must get the same verdict.  Examples are derandomized and
bounded so that every run checks the same cases.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import bivariate_nilpotent, f4, gr42, same_inverse, zmod
from ringsolve import (
    GroupSystem,
    LinSystem,
    Matrix,
    NumericalSystem,
    TwoSidedSystem,
    hermite_normal_form,
    inverse,
    mat_mul,
    solve,
    solve_chain,
    verify_certificate,
)
from ringsolve.linsys import _chain_valuations
from ringsolve.oracle import brute_force_solve, inverse_by_power
from ringsolve.ring import additive_group, unit_indices
from ringsolve.structure import chain_data
from ringsolve.sysio import parse_group_spec, parse_matrix, parse_ring_spec, parse_system, write_matrix, write_system

RINGS = {"Z/4": lambda: zmod(4), "Z/8": lambda: zmod(8), "Z/9": lambda: zmod(9), "F4": f4, "GR(4,2)": gr42}

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def grids(draw, max_rows: int, max_cols: int, rhs: bool):
    """(ring, k x ell grid of element indices, right-hand side or None)."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]()
    k = draw(st.integers(1, max_rows))
    ell = draw(st.integers(1, max_cols))
    element = st.integers(0, ring.size - 1)
    grid = draw(st.lists(st.lists(element, min_size=ell, max_size=ell), min_size=k, max_size=k))
    b = draw(st.lists(element, min_size=k, max_size=k)) if rhs else None
    return ring, grid, b


def _system(ring, grid, b) -> LinSystem:
    rows = [f"e{i}" for i in range(len(grid))]
    cols = [f"x{j}" for j in range(len(grid[0]))]
    entries = {(rows[r], cols[c]): v for r, row in enumerate(grid) for c, v in enumerate(row)}
    return LinSystem(ring, rows, cols, entries, dict(zip(rows, b)))


@PROPERTY_SETTINGS
@given(grids(max_rows=3, max_cols=3, rhs=True))
def test_solve_chain_agrees_with_oracle(case):
    ring, grid, b = case
    # GR(4,2) has 16 elements: keep its brute-force search at 16^2
    if ring.size == 16:
        grid = [row[:2] for row in grid]
    system = _system(ring, grid, b)
    cert = solve_chain(system)
    assert cert.solvable == brute_force_solve(system).solvable
    assert verify_certificate(system, cert)


@PROPERTY_SETTINGS
@given(grids(max_rows=5, max_cols=5, rhs=False))
def test_hermite_normal_form_properties(case):
    ring, grid, _ = case
    k, ell = len(grid), len(grid[0])
    m = Matrix(ring, range(k), range(ell), {(r, c): v for r, row in enumerate(grid) for c, v in enumerate(row)})
    res = hermite_normal_form(m)
    zero = ring.zero.index
    assert sorted(res.col_perm) == list(range(ell))
    for r in range(k):
        for c in range(ell):
            acc = zero
            for t in range(k):
                acc = ring.add_idx(acc, ring.mul_idx(res.S[r][t], grid[t][res.col_perm[c]]))
            assert acc == (res.Q[r][c] if r < res.rank else zero)
    val = _chain_valuations(ring, chain_data(ring))
    assert res.diag == [res.Q[r][r] for r in range(res.rank)]
    assert all(d != zero for d in res.diag)
    assert all(val[a] <= val[b] for a, b in zip(res.diag, res.diag[1:]))
    for r, row in enumerate(res.Q):
        assert all(v == zero for v in row[:r])
        assert all(v == zero or val[res.diag[r]] <= val[v] for v in row[r:])


INVERSE_RINGS = {
    "Z/4": lambda: zmod(4),
    "Z/8": lambda: zmod(8),
    "Z/6": lambda: zmod(6),
    "Z/12": lambda: zmod(12),
    "F4": f4,
    "GR(4,2)": gr42,
    "F2[x,y]/(x^2,y^2)": bivariate_nilpotent,
}


@st.composite
def square_matrices(draw, ring, max_n: int):
    """A random n x n matrix, or (half the time) L·U with unit diagonals,
    which is invertible; random matrices over these rings mostly are not."""
    n = draw(st.integers(1, max_n))
    element = st.integers(0, ring.size - 1)
    grid = draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n))
    ids = list(range(n))
    a = Matrix(ring, ids, ids, {(i, j): grid[i][j] for i in ids for j in ids})
    if draw(st.booleans()):
        units = sorted(unit_indices(ring))
        diag = draw(st.lists(st.sampled_from(units), min_size=2 * n, max_size=2 * n))
        lower = Matrix(ring, ids, ids, {(i, j): diag[i] if i == j else grid[i][j] for i in ids for j in ids if j <= i})
        upper = Matrix(ring, ids, ids, {(i, j): diag[n + i] if i == j else grid[i][j] for i in ids for j in ids if j >= i})
        a = mat_mul(lower, upper)
    return a


@pytest.mark.parametrize("ring_name", sorted(INVERSE_RINGS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_inverse_agrees_with_power_construction(ring_name, data):
    a = data.draw(square_matrices(INVERSE_RINGS[ring_name](), max_n=4))
    inv = inverse(a)
    assert same_inverse(inv, inverse_by_power(a))
    if inv is not None:
        identity = Matrix.identity(a.ring, a.rows)
        assert mat_mul(a, inv).equals(identity) and mat_mul(inv, a).equals(identity)


# ---------------------------------------------------------------------------
# file round trips

UT2_SPEC = f"table:{Path(__file__).resolve().parents[1] / 'corpus' / 'ut2_table.json'}"
# (header keyword, carrier spec) of the system files
FILE_CARRIERS = [
    ("ring", "Z/4"), ("ring", "Z/6"), ("ring", "GR(4,2)"), ("ring", "Z/2 x Z/4"),
    ("group", "Z/6"), ("group", "Z/2 x Z/4"), ("group", "Z/2 x Z/6"),
    ("twosided", UT2_SPEC), ("twosided", "Z/4"), ("twosided", "Z/2 x Z/3"),
    ("numerical", "Z/4"), ("numerical", "Z/6"), ("numerical", "GR(4,2)"), ("numerical", "Z/2 x Z/4"),
]
MATRIX_RINGS = ["Z/4", "Z/9", "GR(4,2)", "Z/2 x Z/3"]


@functools.cache
def _file_carrier(kind: str, spec: str):
    if kind == "group":
        return parse_group_spec(spec)
    ring = parse_ring_spec(spec)
    return additive_group(ring) if kind == "numerical" else ring


@st.composite
def _ids(draw, prefix: str):
    """1 to 12 ids, strings or tuples, so that written names reach two digits."""
    n = draw(st.integers(1, 12))
    return [(prefix, k) for k in range(n)] if draw(st.booleans()) else [f"{prefix}{k}" for k in range(n)]


@st.composite
def _sparse(draw, keys, value):
    """A dict over ``keys`` with about half of them drawn from ``value``."""
    values = draw(st.lists(st.one_of(st.none(), value), min_size=len(keys), max_size=len(keys)))
    return {key: v for key, v in zip(keys, values) if v is not None}


@st.composite
def file_systems(draw):
    kind, spec = draw(st.sampled_from(FILE_CARRIERS))
    carrier = _file_carrier(kind, spec)
    rows, cols = draw(_ids("r")), draw(_ids("v"))
    element = st.integers(0, carrier.size - 1)
    cells = [(i, j) for i in rows for j in cols]
    left = draw(_sparse(cells, st.integers(0, 8) if kind == "group" else element))
    b = draw(_sparse(rows, element))
    if kind == "ring":
        return LinSystem(carrier, rows, cols, left, b)
    if kind == "group":
        return GroupSystem(carrier, rows, cols, left, b)
    if kind == "numerical":
        return NumericalSystem(carrier, rows, cols, left, b)
    right = draw(_sparse([(j, i) for i, j in cells], element))
    return TwoSidedSystem(carrier, rows, cols, left, right, b)


@st.composite
def file_matrices(draw):
    ring = _file_carrier("ring", draw(st.sampled_from(MATRIX_RINGS)))
    rows, cols = draw(_ids("r")), draw(_ids("c"))
    return Matrix(ring, rows, cols, draw(_sparse([(i, j) for i in rows for j in cols], st.integers(0, ring.size - 1))))


@PROPERTY_SETTINGS
@given(file_systems())
def test_system_files_round_trip(system):
    text = write_system(system)
    parsed = parse_system(text)
    assert write_system(parsed) == text
    assert solve(parsed).verdict == solve(system).verdict


@PROPERTY_SETTINGS
@given(file_matrices())
def test_matrix_files_round_trip(matrix):
    text = write_matrix(matrix)
    assert write_matrix(parse_matrix(text)) == text
