"""Property tests for the chain-ring solver, Hermite normal form and inverse.

Random small systems and matrices over the chain rings Z/4, Z/8, Z/9, F4 and
GR(4,2): ``solve_chain`` must agree with the brute-force oracle and produce
certificates that replay, and ``hermite_normal_form`` must satisfy
S·A·T = (Q ; 0) with a valuation chain on its diagonal; on unsolvable tall
systems the witness of ``solve_chain`` is the failing row of that S, scaled
onto the tail.  ``FiniteRing.sub_mul`` must agree with ``sub(x, mul(z, y))``
over residue and table rings, also when z or y lies in x's own array.
Random square
matrices over local and non-local commutative rings: ``inverse`` must agree
with the oracle's |GL|-power inverse and be a two-sided inverse.  Random
ring, group, two-sided and numerical systems and random matrices: writing,
parsing and writing again must give the same file text, and a system parsed
from its file must get the same verdict.  The same systems: ``eval`` and
``canonical_text`` must agree with term-by-term definitions written here,
and a certificate with one tampered value or digest must be rejected, by
``verify_certificate`` and by ``ringsolve verify``, unless it still holds.
Random ring, group, two-sided and numerical systems of 1 to 6 variables,
also with rows that have no terms and with 25 rows over Z/8:
``brute_force_solve`` must give the verdict, witness and
``instances_checked`` of a walk over every assignment in
``itertools.product`` order, and ``enumerate_witnesses`` the hits of that
walk over the row combinations, in that order.
Random matrices whose operands list the same ids in different orders, also
over the non-commutative UT2(F2): ``mat_mul``, ``mat_add``, ``mat_scale`` and
``evaluate_at_matrix`` must agree with scalar definitions written here.
Random square matrices: ``determinant`` must be (-1)^n times the constant
term of ``charpoly_galois``, change sign under a row swap and vanish with a
zero row.
Ring and group specs built from the spec grammar (``Z/m``, ``GR(q,r)``,
``Z/q[X]/(f)``, products, ``phi(...)``, ``local(..., e)``, ``table:`` paths
and malformed pieces), with small numbers, 0, 1 and numbers of 50 and 4,400
digits: ``ringsolve ring info|decompose|order`` and ``ringsolve solve`` on a
group system must exit 0 or 2, without a traceback, within a second.
Random scan orders over product groups: the cyclic decomposition must give
a divisibility chain whose coordinates round-trip.  Random primitive alpha
and generating pi tuples over local rings: ``canonical_order`` must give the
words, keys and representations of the greedy recursion run one element at
a time here.  Random subgroups of product groups, ``Z/512`` and the additive
group of UT2(F2) x Z/3: ``_orders_modulo`` must agree with adding each
element once per step until it is back in the subgroup.  Random sparse
inputs of all five validating constructors (with explicit zeros, element
handles, keys in any order and group coefficients past 2^63): the grids must
equal those of the same object built from arrays, the sparse views the input
minus its zeros, in row-major id order, and the digests must agree.  Examples
are derandomized and bounded so that every run checks the same cases.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import bivariate_nilpotent, f4, gr42, same_inverse, upper_triangular_f2, ut2_times_z3, zmod
from ringsolve import (
    CharPoly,
    Certificate,
    GroupSystem,
    LinSystem,
    Matrix,
    NotARing,
    NumericalSystem,
    TwoSidedSystem,
    UnsolvableWitness,
    canonical_order,
    charpoly_galois,
    determinant,
    hermite_normal_form,
    inverse,
    mat_add,
    mat_mul,
    minimal_generators_maximal_ideal,
    nilpotency,
    solve,
    solve_chain,
    teichmuller_set,
    verify_certificate,
)
from ringsolve.cli import main
from ringsolve.linsys import _chain_valuations
from ringsolve.matalg import mat_scale
from ringsolve.oracle import brute_force_solve, enumerate_witnesses, inverse_by_power
from ringsolve.ring import (FiniteRing, _additive_span, _orders_modulo, additive_group, group_decompose_cyclic,
                            unit_indices)
from ringsolve.structure import (
    _is_primitive_residue,
    chain_data,
    ideal_generated,
    is_galois_ring,
    local_data,
    maximal_ideal,
)
from ringsolve.sysio import (
    parse_group_spec,
    parse_matrix,
    parse_ring_spec,
    parse_system,
    write_certificate,
    write_matrix,
    write_system,
)
from test_structure import _valid_param_pairs

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
    val = _chain_valuations(ring)
    assert res.diag == [res.Q[r][r] for r in range(res.rank)]
    assert all(d != zero for d in res.diag)
    assert all(val[a] <= val[b] for a, b in zip(res.diag, res.diag[1:]))
    for r, row in enumerate(res.Q):
        assert all(v == zero for v in row[:r])
        assert all(v == zero or val[res.diag[r]] <= val[v] for v in row[r:])


@st.composite
def tall_systems(draw):
    """A random system with more rows than columns, over a chain ring."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]()
    k = draw(st.integers(2, 6))
    ell = draw(st.integers(1, k - 1))
    element = st.integers(0, ring.size - 1)
    grid = draw(st.lists(st.lists(element, min_size=ell, max_size=ell), min_size=k, max_size=k))
    return ring, grid, draw(st.lists(element, min_size=k, max_size=k))


@PROPERTY_SETTINGS
@given(tall_systems())
def test_witness_is_the_scaled_failing_row_of_s(case):
    ring, grid, b = case
    system = _system(ring, grid, b)
    cert = solve_chain(system)
    assume(not cert.solvable)
    res = hermite_normal_form(system)
    cd = chain_data(ring)
    val = _chain_valuations(ring)
    k, zero = len(grid), ring.zero.index
    bprime = [functools.reduce(ring.add_idx, map(ring.mul_idx, res.S[r], b), zero) for r in range(k)]
    diag_val = [val[d] for d in res.diag] + [cd.n] * (k - res.rank)
    r = next(r for r in range(k) if val[bprime[r]] < diag_val[r])
    tail = ring.pow_idx(cd.pi.index, cd.n - 1)
    scaling = min(z for z in range(ring.size) if ring.mul_idx(bprime[r], z) == tail)
    witness = [ring.parse_element(cert.witness.rows[row]).index for row in system.rows]
    assert witness == [ring.mul_idx(scaling, v) for v in res.S[r]]


SUB_MUL_RINGS = {
    "Z/8": lambda: zmod(8),
    "Z/12": lambda: zmod(12),
    "Z/4096": lambda: zmod(4096),
    "GR(4,2)": gr42,
    "F2[x,y]/(x^2,y^2)": bivariate_nilpotent,
    "phi(Z/2 x Z/4)": lambda: parse_ring_spec("phi(Z/2 x Z/4)"),
}


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(SUB_MUL_RINGS)), st.sampled_from(["column", "scalar", "own column", "own row"]),
       st.integers(1, 4), st.integers(1, 5), st.data())
def test_sub_mul_agrees_with_sub_of_mul(name, form, m, n, data):
    """x -= z·y in place equals sub(x, mul(z, y)) on the values before the
    update, with z a column, a scalar, a column of x's own array, or with y
    a row of x's own array."""
    ring = SUB_MUL_RINGS[name]()
    cells = lambda count: data.draw(st.lists(st.integers(0, ring.size - 1), min_size=count, max_size=count))
    base = np.array(cells(m * (n + 1)), dtype=np.int64).reshape(m, n + 1)
    x = base[:, 1:]
    if form == "own row":
        z, y = np.array(cells(m), dtype=np.int64)[:, None], x[data.draw(st.integers(0, m - 1))]
    else:
        y = np.array(cells(n), dtype=np.int64)
        z = {"column": np.array(cells(m), dtype=np.int64)[:, None], "scalar": np.int64(cells(1)[0]),
             "own column": base[:, :1]}[form]
    expected = ring.sub(x.copy(), ring.mul(np.copy(z), y.copy()))
    before = base[:, 0].copy()
    assert ring.sub_mul(x, z, y) is x
    assert x.tolist() == expected.tolist()
    assert base[:, 0].tolist() == before.tolist()


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


MATRIX_OP_RINGS = {**INVERSE_RINGS, "UT2(F2)": upper_triangular_f2}


@st.composite
def _matrix_over(draw, ring, rows: list, cols: list) -> Matrix:
    element = st.integers(0, ring.size - 1)
    values = draw(st.lists(element, min_size=len(rows) * len(cols), max_size=len(rows) * len(cols)))
    return Matrix(ring, rows, cols, dict(zip([(i, j) for i in rows for j in cols], values)))


@st.composite
def matrix_operands(draw):
    """(ring, A, B, C): A is rows x inner, B inner x cols with the inner ids
    in another order, C the ids of A in other orders."""
    ring = MATRIX_OP_RINGS[draw(st.sampled_from(sorted(MATRIX_OP_RINGS)))]()
    rows, inner, cols = ([f"{p}{k}" for k in range(draw(st.integers(1, 4)))] for p in "rkc")
    a = draw(_matrix_over(ring, rows, inner))
    b = draw(_matrix_over(ring, draw(st.permutations(inner)), cols))
    c = draw(_matrix_over(ring, draw(st.permutations(rows)), draw(st.permutations(inner))))
    return ring, a, b, c


def _scalar_product(ring, a: Matrix, b: Matrix) -> dict:
    out = {}
    for i in a.rows:
        for j in b.cols:
            acc = ring.zero.index
            for k in a.cols:
                acc = ring.add_idx(acc, ring.mul_idx(a.entry_idx(i, k), b.entry_idx(k, j)))
            out[i, j] = acc
    return out


def _cells(m: Matrix) -> dict:
    return {(i, j): m.entry_idx(i, j) for i in m.rows for j in m.cols}


@PROPERTY_SETTINGS
@given(matrix_operands(), st.data())
def test_matrix_ops_agree_with_scalar_definitions(operands, data):
    ring, a, b, c = operands
    product = mat_mul(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert _cells(product) == _scalar_product(ring, a, b)
    total = mat_add(a, c)
    assert (total.rows, total.cols) == (a.rows, a.cols)
    assert _cells(total) == {(i, j): ring.add_idx(a.entry_idx(i, j), c.entry_idx(i, j)) for i in a.rows for j in a.cols}
    x = ring.element(data.draw(st.integers(0, ring.size - 1)))
    assert _cells(mat_scale(x, a)) == {key: ring.mul_idx(x.index, v) for key, v in _cells(a).items()}


@PROPERTY_SETTINGS
@given(matrix_operands(), st.data())
def test_evaluate_at_matrix_is_the_sum_of_scaled_powers(operands, data):
    ring, a, _, _ = operands
    square = data.draw(_matrix_over(ring, a.rows, data.draw(st.permutations(a.rows))))
    coefficients = data.draw(st.lists(st.integers(0, ring.size - 1), min_size=1, max_size=5))
    power = {(i, j): ring.one.index if i == j else ring.zero.index for i in square.rows for j in square.rows}
    expected = dict.fromkeys(power, ring.zero.index)
    for c in coefficients:
        for key, v in power.items():
            expected[key] = ring.add_idx(expected[key], ring.mul_idx(c, v))
        power = _scalar_product(ring, Matrix(ring, square.rows, square.rows, power), square)
    chi = CharPoly(ring, [ring.element(c) for c in coefficients])
    assert _cells(chi.evaluate_at_matrix(square)) == expected


DETERMINANT_RINGS = {**RINGS, "Z/12": lambda: zmod(12)}


@pytest.mark.parametrize("ring_name", sorted(DETERMINANT_RINGS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_determinant_under_row_operations(ring_name, data):
    """det(A) = (-1)^n·chi_A(0) over Galois rings; swapping two rows
    negates det and a zero row makes it 0, over Z/12 too."""
    ring = DETERMINANT_RINGS[ring_name]()
    a = data.draw(square_matrices(ring, max_n=6))
    ids, n = a.rows, len(a.rows)
    det = determinant(a).index
    if is_galois_ring(ring):
        c0 = charpoly_galois(a).coefficient(0).index
        assert det == (ring.neg_idx(c0) if n % 2 else c0)
    if n > 1:
        i, j = data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
        source = {i: j, j: i}
        swapped = Matrix(ring, ids, ids, {(r, c): a.entry_idx(source.get(r, r), c) for r in ids for c in ids})
        assert determinant(swapped).index == ring.neg_idx(det)
    k = data.draw(st.sampled_from(ids))
    zeroed = Matrix(ring, ids, ids, {(r, c): a.entry_idx(r, c) for r in ids for c in ids if r != k})
    assert determinant(zeroed).index == ring.zero.index


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


# ---------------------------------------------------------------------------
# validating constructors against objects built from arrays

CONSTRUCTED_KINDS = {"ring": LinSystem, "group": GroupSystem, "twosided": TwoSidedSystem,
                     "numerical": NumericalSystem, "matrix": Matrix}


@st.composite
def _constructor_inputs(draw):
    """(kind, carrier, rows, cols, {name: mapping}) for a validating
    constructor: index ints, explicit zeros, element handles and, for group
    coefficients, integers past 2^63."""
    kind, spec = draw(st.sampled_from(FILE_CARRIERS + [("matrix", spec) for spec in MATRIX_RINGS]))
    carrier = _file_carrier("ring" if kind == "matrix" else kind, spec)
    rows, cols = draw(_ids("r")), draw(_ids("v"))
    indices = st.integers(0, carrier.size - 1)
    element = st.one_of(indices, st.just(_zero_of(carrier)), st.builds(carrier.element, indices))
    cells = [(i, j) for i in rows for j in cols]
    coefficient = st.one_of(st.integers(0, 8), st.integers(2**63, 2**64)) if kind == "group" else element
    # keys in a drawn order, so that the input is not already row-major
    mappings = {"entries": dict(draw(st.permutations(list(draw(_sparse(cells, coefficient)).items()))))}
    if kind == "twosided":
        mappings = {"left": mappings["entries"], "right": draw(_sparse([(j, i) for i, j in cells], element))}
    if kind != "matrix":
        mappings["b"] = draw(_sparse(rows, element))
    return kind, carrier, rows, cols, mappings


def _zero_of(carrier) -> int:
    return (carrier.identity if hasattr(carrier, "identity") else carrier.zero).index


def _index(value) -> int:
    return value if isinstance(value, int) else value.index


def _reference_grid(rows, cols, mapping: dict, zero, transposed=False) -> np.ndarray:
    """The rows x cols grid of the mapping, cell by cell."""
    grid = [[zero] * len(cols) for _ in rows]
    for key, v in mapping.items():
        i, j = key[::-1] if transposed else key
        grid[rows.index(i)][cols.index(j)] = _index(v)
    return np.array(grid, dtype=object if any(v >= 2**63 for row in grid for v in row) else np.int64)


@PROPERTY_SETTINGS
@given(_constructor_inputs())
def test_validated_grid_agrees_with_the_array_built_object(inputs):
    kind, carrier, rows, cols, mappings = inputs
    cls = CONSTRUCTED_KINDS[kind]
    built = cls(carrier, rows, cols, *mappings.values())
    element_zero = _zero_of(carrier)
    zero = 0 if kind == "group" else element_zero  # of the coefficients
    grids = {"A": _reference_grid(rows, cols, mappings.get("entries", mappings.get("left")), zero)}
    if kind == "twosided":
        grids["A_r"] = _reference_grid(rows, cols, mappings["right"], zero, transposed=True)
    if kind != "matrix":
        b = mappings["b"]
        grids["b_vec"] = np.array([_index(b[i]) if i in b else element_zero for i in rows], dtype=np.int64)
    reference = cls._from_arrays(carrier, rows, cols, **grids)
    for name, grid in grids.items():
        assert np.array_equal(getattr(built, name), grid) and getattr(built, name).shape == grid.shape
    for name, mapping in mappings.items():
        nonzero = {key: _index(v) for key, v in mapping.items() if _index(v) != (element_zero if name == "b" else zero)}
        view = getattr(built, name)
        assert view == nonzero == getattr(reference, name)
        # the sparse views iterate row-major in id order, whatever the input order
        order = rows if name == "b" else list(itertools.product(rows, cols))
        keys = [key[::-1] if name == "right" else key for key in view]
        assert keys == sorted(keys, key=order.index)
    if kind == "matrix":
        assert built.equals(reference) and write_matrix(built) == write_matrix(reference)
    else:
        assert built.digest() == reference.digest() and built.canonical_text() == reference.canonical_text()


# ---------------------------------------------------------------------------
# eval and canonical text against definitions written here


def _scalar_lhs(system, assignment: dict, i) -> int:
    """The left-hand side of row i, term by term through the scalar ops."""
    c = system.carrier
    acc = c.zero.index if isinstance(system, (LinSystem, TwoSidedSystem)) else c.identity.index
    for j in system.cols:
        x = assignment[j]
        if isinstance(system, TwoSidedSystem):
            if (i, j) in system.left:
                acc = c.add_idx(acc, c.mul_idx(system.left[(i, j)], x.index))
            if (j, i) in system.right:
                acc = c.add_idx(acc, c.mul_idx(x.index, system.right[(j, i)]))
        elif (i, j) in system.entries:
            coef = system.entries[(i, j)]
            if isinstance(system, LinSystem):
                term = c.mul_idx(coef, x.index)
            elif isinstance(system, GroupSystem):
                term = c.scalar_idx(coef, x.index)
            else:
                term = c.scalar_idx(x, coef)
            acc = c.add_idx(acc, term)
    return acc


def _satisfies(system, assignment: dict) -> bool:
    return all(_scalar_lhs(system, assignment, i) == system.rhs_idx(i) for i in system.rows)


def _value(system, k: int):
    """A variable value of the system's kind from a drawn integer."""
    return k if isinstance(system, NumericalSystem) else system.carrier.element(k % system.carrier.size)


@PROPERTY_SETTINGS
@given(file_systems(), st.data())
def test_eval_agrees_with_scalar_sum(system, data):
    drawn = data.draw(st.lists(st.integers(-50, 50), min_size=len(system.cols), max_size=len(system.cols)))
    assignment = {j: _value(system, k) for j, k in zip(system.cols, drawn)}
    assert system.eval(assignment) == _satisfies(system, assignment)
    cert = solve(system)
    if cert.solvable:
        assert system.eval(cert.assignment) and _satisfies(system, cert.assignment)


def _rendered(system) -> str:
    """The canonical text, one row at a time from the sparse coefficients."""
    fmt = system.carrier.format_element
    lines = [f"{system.keyword} {system.carrier.spec}"]
    cols = sorted(system.cols, key=str)
    for i in sorted(system.rows, key=str):
        terms = []
        for j in cols:
            if isinstance(system, TwoSidedSystem):
                if (i, j) in system.left:
                    terms.append(f"{fmt(system.left[(i, j)])}*{j}")
                if (j, i) in system.right:
                    terms.append(f"{j}*{fmt(system.right[(j, i)])}")
            elif (i, j) in system.entries:
                c = system.entries[(i, j)]
                terms.append(f"{c if isinstance(system, GroupSystem) else fmt(c)}*{j}")
        lines.append(f"eq {i}: {' + '.join(terms) if terms else '0'} = {fmt(system.rhs_idx(i))}")
    return "\n".join(lines)


@PROPERTY_SETTINGS
@given(file_systems())
def test_canonical_text_agrees_with_rendering(system):
    parsed = parse_system(write_system(system))
    assert parsed.canonical_text() == _rendered(parsed)


# ---------------------------------------------------------------------------
# cyclic decomposition under any scan order

PRODUCT_GROUPS = ["Z/2 x Z/4", "Z/2 x Z/2 x Z/6", "Z/3 x Z/9", "Z/4 x Z/8 x Z/9", "Z/2 x Z/6 x Z/4", "Z/5 x Z/25"]


@PROPERTY_SETTINGS
@given(st.sampled_from(PRODUCT_GROUPS), st.data())
def test_cyclic_decomposition_under_random_scan_order(spec, data):
    group = parse_group_spec(spec)
    scan = data.draw(st.permutations(range(group.size)))
    decomp = group_decompose_cyclic(group, scan)
    orders = [order for _, order in decomp.pairs]
    assert all(b % a == 0 for a, b in zip(orders, orders[1:]))
    assert math.prod(orders) == group.size
    assert all(group.order_of(g) == order for g, order in decomp.pairs)
    assert all(decomp.element_of(decomp.coords_of(i)) == i for i in range(group.size))


# ---------------------------------------------------------------------------
# canonical order and element orders against their scalar definitions

ORDER_RINGS = ["Z/2", "Z/9", "Z/27", "Z/16", "GR(4,2)", "GR(9,2)", "Z/2[X]/(X^3)", "Z/4[X]/(X^2)",
               "Z/4[X]/(X^2+2)", "phi(Z/2 x Z/4)"]


def _greedy_order(ring, alpha: int, pis: tuple) -> tuple[list, list, list]:
    """(Gamma, exponent tuples, words) of the canonical order, one element at
    a time: at each exponent tuple t, the least Gamma coefficient a with
    s - a·M(t) in the ideal of the later monomials."""
    data = local_data(ring)
    lift = {data.projection[g.index]: g.index for g in teichmuller_set(ring)}
    gamma, residue = [lift[data.field.zero.index]], data.field.one.index
    for _ in range(data.q - 1):
        gamma.append(lift[residue])
        residue = data.field.mul_idx(residue, data.projection[alpha])
    tuples = sorted(itertools.product(*(range(nilpotency(ring, ring.element(p))) for p in pis)))
    mono = {t: functools.reduce(ring.mul_idx, map(ring.pow_idx, pis, t), ring.one.index) for t in tuples}
    tail = {t: ideal_generated(ring, [mono[u] for u in tuples if u > t]) for t in tuples}
    words = []
    for r in range(ring.size):
        s, word = r, []
        for t in tuples:
            pos = next(k for k, a in enumerate(gamma) if ring.sub_idx(s, ring.mul_idx(a, mono[t])) in tail[t])
            word.append(pos)
            s = ring.sub_idx(s, ring.mul_idx(gamma[pos], mono[t]))
        assert s == ring.zero.index
        words.append(word)
    return gamma, tuples, words


def _assert_greedy_order(ring, alpha: int, pis: tuple):
    order = canonical_order(ring, ring.element(alpha), tuple(ring.element(p) for p in pis))
    gamma, tuples, words = _greedy_order(ring, alpha, pis)
    assert order.words.tolist() == words
    assert [order.key(i) for i in range(ring.size)] == [tuple(w) for w in words]
    assert [order.rep(i) for i in range(ring.size)] == [
        [(t, gamma[pos]) for t, pos in zip(tuples, w) if gamma[pos] != ring.zero.index] for w in words]
    assert order.sorted_elements == sorted(range(ring.size), key=lambda i: words[i])


def test_canonical_order_agrees_with_the_greedy_recursion_on_the_fixtures():
    for ring in (zmod(2), zmod(3), zmod(4), zmod(8), zmod(9), f4(), gr42(), bivariate_nilpotent()):
        alphas, tuples = _valid_param_pairs(ring)
        for alpha in alphas:
            for pis in tuples:
                _assert_greedy_order(ring, alpha, pis)


@functools.cache
def _order_ring(spec: str):
    return parse_ring_spec(spec)


@PROPERTY_SETTINGS
@given(st.sampled_from(ORDER_RINGS), st.data())
def test_canonical_order_agrees_with_the_greedy_recursion(spec, data):
    ring = _order_ring(spec)
    local = local_data(ring)
    alpha = data.draw(st.sampled_from([r for r in range(ring.size) if _is_primitive_residue(local, local.projection[r])]))
    m, units = sorted(maximal_ideal(ring)), sorted(unit_indices(ring))
    # u·g + a·b with u a unit and a·b in m^2 still generate m, by Nakayama; an extra member of m may join
    pis = [ring.add_idx(ring.mul_idx(data.draw(st.sampled_from(units)), g.index),
                        ring.mul_idx(data.draw(st.sampled_from(m)), data.draw(st.sampled_from(m))))
           for g in minimal_generators_maximal_ideal(ring)]
    pis = data.draw(st.permutations(pis + data.draw(st.lists(st.sampled_from(m), max_size=1))))
    _assert_greedy_order(ring, alpha, tuple(pis))


ORDER_GROUPS = ["Z/2 x Z/6", "Z/4 x Z/8 x Z/9", "Z/512", "Z/4 x Z/4 x Z/4", "UT2(F2) x Z/3"]


@functools.cache
def _order_group(spec: str):
    return additive_group(ut2_times_z3()) if spec == "UT2(F2) x Z/3" else parse_group_spec(spec)


def _orders_by_walk(group, span, xs) -> list[int]:
    """The least k > 0 with k·x in H, adding x once per step."""
    orders = []
    for x in xs:
        acc, k = x, 1
        while not span[acc]:
            acc, k = group.add_idx(acc, x), k + 1
        orders.append(k)
    return orders


@PROPERTY_SETTINGS
@given(st.sampled_from(ORDER_GROUPS), st.data())
def test_orders_modulo_agree_with_the_linear_walk(spec, data):
    group = _order_group(spec)
    span = _additive_span(group, data.draw(st.lists(st.integers(0, group.size - 1), max_size=3)))
    xs = data.draw(st.lists(st.integers(0, group.size - 1), min_size=1, max_size=40))
    assert _orders_modulo(group, span, xs).tolist() == _orders_by_walk(group, span, xs)


def test_element_that_never_returns_to_the_subgroup_is_not_a_ring():
    # 1 + 1 = 1: the multiples of 1 never reach 0
    ring = FiniteRing("table", 2, np.array([[0, 1], [1, 1]]), np.array([[0, 0], [0, 1]]), 0, 1, True, ["0", "1"],
                      "table[2]")
    with pytest.raises(NotARing):
        ring.characteristic()


# ---------------------------------------------------------------------------
# tampered certificates


def _witness_holds(reduced, rows: dict) -> bool:
    """x·(A|b) = (0,...,0,pi^(n-1)) on the reduced chain system, term by term."""
    ring = reduced.ring
    cd = chain_data(ring)
    x = {i: ring.parse_element(v).index for i, v in rows.items()}

    def column(coef):
        acc = ring.zero.index
        for i in reduced.rows:
            acc = ring.add_idx(acc, ring.mul_idx(x[i], coef(i)))
        return acc

    if any(column(lambda i: reduced.entry_idx(i, j)) != ring.zero.index for j in reduced.cols):
        return False
    return column(reduced.rhs_idx) == ring.pow_idx(cd.pi.index, cd.n - 1)


def _verify_cli(system, cert) -> int:
    with tempfile.TemporaryDirectory() as work:
        system_path, cert_path = Path(work) / "system.rls", Path(work) / "cert.txt"
        system_path.write_text(write_system(system))
        cert_path.write_text(write_certificate(cert, system))
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["verify", str(system_path), str(cert_path)])


@PROPERTY_SETTINGS
@given(file_systems(), st.data())
def test_tampered_certificates_are_rejected(generated, data):
    system = parse_system(write_system(generated))
    cert = solve(system)
    what = data.draw(st.sampled_from(["value", "digest"]))
    if cert.solvable:
        j = data.draw(st.sampled_from(system.cols))
        old = cert.assignment[j]
        k = data.draw(st.integers(-50, 50).filter(lambda k: _value(system, k) != old))
        tampered = Certificate("SOLVABLE", assignment={**cert.assignment, j: _value(system, k)})
        valid = _satisfies(system, tampered.assignment)
    else:
        w = cert.witness
        if what == "digest":
            digest = data.draw(st.text("0123456789abcdef", min_size=16, max_size=16).filter(lambda d: d != w.digest))
            rows, valid = w.rows, False
        else:
            ring = cert.reduced.ring
            i = data.draw(st.sampled_from(sorted(w.rows, key=str)))
            name = ring.format_element(data.draw(st.integers(0, ring.size - 1)))
            assume(name != w.rows[i])
            digest, rows = w.digest, {**w.rows, i: name}
            valid = _witness_holds(cert.reduced, rows)
        tampered = Certificate("UNSOLVABLE", witness=UnsolvableWitness(w.summand, w.chain_spec, digest, rows))
    assert verify_certificate(system, tampered) == valid
    assert _verify_cli(system, tampered) == (0 if valid else 1)


# ---------------------------------------------------------------------------
# the oracle's search against a walk over every assignment

# (kind, carrier spec) of the searched systems: radix 2 to 8
SEARCH_CARRIERS = [
    ("ring", "Z/2"), ("ring", "Z/4"), ("ring", "Z/2 x Z/3"), ("group", "Z/4"), ("group", "Z/2 x Z/2"),
    ("twosided", UT2_SPEC), ("twosided", "Z/3"), ("numerical", "Z/4"), ("numerical", "Z/2 x Z/3"),
]


def _search_system(kind, carrier, rows, cols, left, right, b):
    if kind == "ring":
        return LinSystem(carrier, rows, cols, left, b)
    if kind == "group":
        return GroupSystem(carrier, rows, cols, left, b)
    if kind == "numerical":
        return NumericalSystem(carrier, rows, cols, left, b)
    return TwoSidedSystem(carrier, rows, cols, left, right, b)


def _assignment_values(system) -> list:
    if isinstance(system, NumericalSystem):
        return list(range(system.carrier.exponent()))
    return system.carrier.elements()


@st.composite
def searched_systems(draw, kinds=SEARCH_CARRIERS, min_rows=1, max_rows=4, max_space=4096):
    """A system with at most ``max_space`` assignments; some rows have no
    terms, and about half the systems have the right-hand sides of a drawn
    assignment."""
    kind, spec = draw(st.sampled_from(kinds))
    carrier = _file_carrier(kind, spec)
    radix = carrier.exponent() if kind == "numerical" else carrier.size
    ell = draw(st.integers(1, max(n for n in range(1, 7) if radix**n <= max_space)))
    rows = [f"r{i}" for i in range(draw(st.integers(min_rows, max_rows)))]
    cols = [f"v{j}" for j in range(ell)]
    empty = draw(st.sets(st.sampled_from(rows)))
    cells = [(i, j) for i in rows if i not in empty for j in cols]
    element = st.integers(0, carrier.size - 1)
    left = draw(_sparse(cells, st.integers(0, 8) if kind == "group" else element))
    right = draw(_sparse([(j, i) for i, j in cells], element)) if kind == "twosided" else {}
    system = _search_system(kind, carrier, rows, cols, left, right, draw(_sparse(rows, element)))
    if draw(st.booleans()):
        values = _assignment_values(system)
        planted = {j: values[draw(st.integers(0, len(values) - 1))] for j in cols}
        b = {i: _scalar_lhs(system, planted, i) for i in rows}
        system = _search_system(kind, carrier, rows, cols, left, right, b)
    return system


def _walk(system) -> list[tuple[int, dict]]:
    """(position, assignment) of every satisfying assignment, in product order."""
    assignments = itertools.product(_assignment_values(system), repeat=len(system.cols))
    return [(k, a) for k, a in enumerate(dict(zip(system.cols, v)) for v in assignments) if _satisfies(system, a)]


def _assert_search_agrees_with_the_walk(system):
    hits = _walk(system)
    report = brute_force_solve(system)
    assert report.solvable == bool(hits)
    if hits:
        position, assignment = hits[0]
        assert report.witness == assignment and report.instances_checked == position + 1
    else:
        assert report.witness is None
        assert report.instances_checked == len(_assignment_values(system)) ** len(system.cols)


@PROPERTY_SETTINGS
@given(searched_systems())
def test_brute_force_agrees_with_the_walk(system):
    _assert_search_agrees_with_the_walk(system)


@PROPERTY_SETTINGS
@given(searched_systems(kinds=[("ring", "Z/8")], min_rows=25, max_rows=25, max_space=512))
def test_brute_force_agrees_with_the_walk_past_one_int64_key(system):
    # 8^25 > 2^63: the row sums of one assignment do not fit one int64
    _assert_search_agrees_with_the_walk(system)


@PROPERTY_SETTINGS
@given(searched_systems(kinds=[("ring", "Z/2"), ("ring", "Z/4"), ("ring", "Z/2 x Z/3")], max_rows=6),
       st.data())
def test_enumerate_witnesses_agrees_with_the_walk(system, data):
    ring, rows = system.carrier, list(system.rows)
    assume(ring.size ** len(rows) <= 4096)
    tail = data.draw(st.integers(0, ring.size - 1))
    zero = ring.zero.index

    def combination(x, column):
        return functools.reduce(ring.add_idx, (ring.mul_idx(x[i].index, column.get(i, zero)) for i in rows), zero)

    columns = [{i: system.entries[(i, j)] for i in rows if (i, j) in system.entries} for j in system.cols]
    expected = [
        x for x in (dict(zip(rows, v)) for v in itertools.product(ring.elements(), repeat=len(rows)))
        if all(combination(x, column) == zero for column in columns) and combination(x, system.b) == tail
    ]
    assert enumerate_witnesses(system, tail) == expected


# ---------------------------------------------------------------------------
# the spec grammar through the CLI

SPEC_EDGES = st.sampled_from(["0", "1", "2" * 49 + "3", "7" * 4400])  # and 50 digits, past int()'s digit limit
SPEC_PRIME_POWERS = st.sampled_from(["2", "3", "4", "02"])  # every ring built from these stays small
SPEC_POLYS = st.sampled_from(["X", "X^2+1", "X^2+X+1", "X^2", "X^2+-1", "X+3"])
BAD_POLYS = st.sampled_from(["1", "0", "2*X+1", "X^", "X+Y", "", "X^" + "2" * 50, "X^2+" + "7" * 4400])
TABLE_PATHS = ["corpus/ut2_table.json", "corpus/z4_solvable.rls", "corpus", "corpus/no_such_file.json", ""]
MALFORMED_SPECS = st.sampled_from(["", "Z/", "Z/-3", "Z/+3", "GR(2)", "GR(,)", "GR(2,-1)", "Z/4[X]/()", "phi()",
                                   "local(Z/6)", "local(,1)", "Z/4 x", " x Z/4", "Z/3 x x Z/2", "(Z/4)",
                                   "GR(4,2)x Z/2", "Z/6[X]/(X)", "GR(6,2)"])


def group_specs():
    cyclic = st.builds("Z/{}".format, SPEC_PRIME_POWERS | st.sampled_from(["6", "12"]))
    bad = st.builds("Z/{}".format, SPEC_EDGES) | MALFORMED_SPECS
    return st.lists(cyclic | bad, min_size=1, max_size=2).map(" x ".join)


def ring_specs():
    """Well-formed atoms over small numbers half of the time; else an edge
    number, a bad polynomial, a bad table path or a malformed piece."""
    root = Path(__file__).resolve().parents[1]
    good = st.one_of(
        st.builds("Z/{}".format, SPEC_PRIME_POWERS | st.sampled_from(["5", "6", "9", "12"])),
        st.builds("GR({},{})".format, SPEC_PRIME_POWERS, st.sampled_from(["1", "2"])),
        st.builds("Z/{}[X]/({})".format, SPEC_PRIME_POWERS, SPEC_POLYS),
        st.just(f"table:{root / TABLE_PATHS[0]}"),
    )
    bad = st.one_of(
        st.builds("Z/{}".format, SPEC_EDGES),
        st.builds("GR({},{})".format, SPEC_EDGES, SPEC_EDGES | st.just("2")),
        st.builds("GR({},{})".format, SPEC_PRIME_POWERS, SPEC_EDGES),
        st.builds("Z/{}[X]/({})".format, SPEC_EDGES | SPEC_PRIME_POWERS, BAD_POLYS | SPEC_POLYS),
        st.sampled_from([f"table:{root / path}" if path else "table:" for path in TABLE_PATHS[1:]]),
        MALFORMED_SPECS,
    )
    products = st.lists(good | bad, min_size=1, max_size=2).map(" x ".join)
    return products | st.builds("phi({})".format, group_specs()) | st.builds(
        "local({}, {})".format, products, st.sampled_from(["0", "1", "3", "4", "(1,0)", "x"]))


def _cli_run(argv) -> tuple[int, float, str]:
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, time.perf_counter() - start, err.getvalue()


def _assert_clean_exit(code: int, seconds: float, err: str):
    assert code in (0, 2), err
    assert "Traceback" not in err and "internal error" not in err, err
    assert seconds < 1.0


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(ring_specs(), st.sampled_from(["info", "decompose", "order"]))
def test_ring_spec_grammar_exits_cleanly(spec, action):
    _assert_clean_exit(*_cli_run(["ring", action, spec]))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(group_specs())
def test_group_spec_grammar_exits_cleanly(spec):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "system.rls"
        path.write_text(f"group {spec}\nvars x\neq 1*x = 0\n")
        _assert_clean_exit(*_cli_run(["solve", str(path)]))
