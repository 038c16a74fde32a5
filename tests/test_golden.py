"""Golden outputs: verdicts, digests and written files pinned per system.

For every system file in ``corpus/`` and for a seeded set of group,
two-sided, numerical and ring systems, the expected verdict, ``digest()``,
``write_system`` text and ``write_certificate`` text are stored in
``golden_systems.json``; the certificate must also replay through
``verify_certificate``, both as solved and as re-parsed from its text.
The expected values were recorded once and are never regenerated to make a
change pass: a difference here is a behaviour change.

A second file, ``golden_large.json``, pins the chain path on systems large
enough for pivot tie-breaks and quotient choices to matter: seeded dense
systems of 8x8 to 40x40 over rings dense in zero divisors, a group and a
numerical system, direct ``solve_chain`` calls over non-``Z/m`` chain rings,
and ``hermite_normal_form`` (``Q``, ``S``, ``col_perm``, ``diag``) of about
10x12 matrices.  It also pins pivot columns that are mostly zero: two-sided
``UT2(F2)`` systems of 12 rows (UNSOLVABLE, the sparse 72x168 chain system
over ``Z/2``) and 13 rows (SOLVABLE, 78x182), and a tall and a planted
``solve_chain`` system and a 13x10 ``hermite_normal_form`` over the non-Galois
chain ring ``Z/4[X]/(X^2+2)``, a table ring whose chain has length 4.

A third file, ``golden_matrices.json``, pins matrix algebra: the inverse
(entry names, or ``null`` when singular) and the determinant (``null`` where
a local summand is not a Galois ring) of seeded 1x1 to 8x8 matrices over
commutative rings, local and not, and the standard output and exit code of
``ringsolve mat inverse|det|charpoly corpus/matrix_z9.rls``.

A fourth file, ``golden_oracle.json``, pins the brute-force oracle: the
verdict, ``instances_checked`` and witness of ``brute_force_solve`` on seeded
systems of all four kinds with at most 4096 assignments, the lists returned
by ``enumerate_witnesses`` on seeded chain systems, and the standard output
and exit code of ``ringsolve oracle solve`` on every corpus system file.

A fifth file, ``golden_structure.json``, pins the structure theory of every
conftest fixture ring, of the rings of the ``cold_structure`` benchmark panel,
and of ``Z/4096`` and ``GR(16,3)``: the unit indices, the idempotents and the
base, and per local summand ``chain_data``, the minimal generators of the
maximal ideal, ``canonical_params``, the canonical ``default_order``, the
Teichmueller set and ``is_galois_ring``.  Index lists longer than 64 are
stored as the sha256 of their JSON text.

A sixth file, ``golden_cyclic.json``, pins the invariant-factor decomposition
``group_decompose_cyclic``: its ``pairs`` and the sha256 of the JSON text of
``[coords_of(i) for i in range(size)]``, for every ``GROUP_SHAPES`` group of
``test_ring.py``, for ``Z/2 x Z/4``, ``Z/2 x Z/6`` and ``Z/4 x Z/8 x Z/9``,
for the additive group of every local summand of the commutative rings
pinned in ``golden_structure.json`` (in table order and in ``default_order``
scan order) and for the additive group of ``UT2(F2) x Z/3``.  It also pins,
for one seeded 2x3 system per such ring, the ``ring_to_cyclic`` trace
(``generators``, ``orders``, ``structure_constants`` and the sha256 of
``term_coefficients``) of the whole ring in table order and of every local
projection in ``default_order``.

A seventh file, ``golden_reductions.json``, pins the targets of the closure
reductions on seeded systems over ``Z/2``, ``Z/3``, ``Z/4``, ``Z/8`` and
``Z/9`` and seeded group systems over two product groups: for
``normal_form`` and its right-hand-side stage ``_rhs_normalize``,
``complement_chain``, ``and_compose``, ``or_compose``, ``collapse_nested``
and ``group_to_ring``, the target's row and column ids as strings in order
(the sha256 of their JSON text past 64 ids), its ``digest()``, its verdict
and the sha256 of its certificate text.  Row and column order fixes the
pivot ties of Hermite elimination, so it is pinned, not only the digest.
It also pins the standard output, exit code and written file of
``ringsolve reduce --trace`` on the corpus system files.

An eighth file, ``golden_charpoly.json``, pins ``charpoly_galois``
(coefficient names, lowest first) and ``determinant`` on seeded random,
invertible L·U and singular L·U matrices of 1x1 to 12x12 over ``Z/2``,
``Z/4``, ``Z/8``, ``Z/9``, ``Z/27``, ``F4``, ``GR(4,2)`` and ``Z/4096``, and
of 16x16 over ``Z/2`` and ``Z/4``, where 16! holds the largest power of 2
the Newton recursion divides by.  It also pins the determinant alone of
9x9 to 12x12 matrices over ``Z/12`` and ``Z/2 x GR(4,2)``, whose local
summands are Galois rings but which are not Galois rings themselves.

A ninth file, ``golden_order.json``, pins the canonical order itself: per
local summand of every commutative ring of ``golden_structure.json``, the
``[key(i), rep(i)]`` of each element i of ``default_order`` in table order
(the sha256 of its JSON text past 64 elements), and the standard output and
exit code of ``ringsolve ring order`` on ``Z/9``, ``GR(4,2)``, ``Z/8``,
``Z/4[X]/(X^2)`` and ``Z/512`` (the sha256 of the text past 64 lines).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import bivariate_nilpotent, f2x_x2, upper_triangular_f2, ut2_times_z3
from test_ring import GROUP_SHAPES
from ringsolve import (
    GroupSystem,
    LinSystem,
    Matrix,
    NumericalSystem,
    TwoSidedSystem,
    UnsupportedRing,
    base,
    build_cyclic_group,
    build_product_group,
    build_zmod,
    and_compose,
    charpoly_galois,
    canonical_params,
    collapse_nested,
    complement_chain,
    chain_data,
    decompose_local,
    determinant,
    group_decompose_cyclic,
    group_to_ring,
    hermite_normal_form,
    idempotents,
    inverse,
    is_galois_ring,
    mat_mul,
    minimal_generators_maximal_ideal,
    normal_form,
    or_compose,
    project_to_local,
    ring_to_cyclic,
    solve,
    solve_chain,
    teichmuller_set,
    verify_certificate,
)
from ringsolve.cli import main
from ringsolve.oracle import brute_force_solve, enumerate_witnesses
from ringsolve.reductions import _rhs_normalize
from ringsolve.ring import additive_group, unit_indices
from ringsolve.structure import default_order, table_order
from ringsolve.sysio import (
    parse_certificate,
    parse_group_spec,
    parse_ring_spec,
    parse_system,
    write_certificate,
    write_system,
)

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((Path(__file__).with_name("golden_systems.json")).read_text())
EXPECTED_LARGE = json.loads((Path(__file__).with_name("golden_large.json")).read_text())
EXPECTED_MATRICES = json.loads((Path(__file__).with_name("golden_matrices.json")).read_text())
EXPECTED_ORACLE = json.loads((Path(__file__).with_name("golden_oracle.json")).read_text())
EXPECTED_STRUCTURE = json.loads((Path(__file__).with_name("golden_structure.json")).read_text())
EXPECTED_CYCLIC = json.loads((Path(__file__).with_name("golden_cyclic.json")).read_text())
EXPECTED_REDUCTIONS = json.loads((Path(__file__).with_name("golden_reductions.json")).read_text())
EXPECTED_CHARPOLY = json.loads((Path(__file__).with_name("golden_charpoly.json")).read_text())
EXPECTED_ORDER = json.loads((Path(__file__).with_name("golden_order.json")).read_text())


def _pick(rng: random.Random, size: int, zero: int, density: float = 0.7) -> int:
    return rng.randrange(size) if rng.random() < density else zero


def _ids(rng: random.Random, tuples: bool):
    n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
    if tuples:
        return [("r", k) for k in range(n_rows)], [("v", k) for k in range(n_cols)]
    return [f"e{k}" for k in range(n_rows)], [f"x{k}" for k in range(n_cols)]


def _seeded_systems() -> dict:
    rng = random.Random(20121204)
    out = {}
    for label, spec in [("Z2xZ4", "Z/2 x Z/4"), ("Z6", "Z/6"), ("Z9", "Z/9"), ("Z2xZ6", "Z/2 x Z/6")]:
        group = parse_group_spec(spec)
        for k in range(6):
            rows, cols = _ids(rng, False)
            entries = {(i, j): _pick(rng, 5, 0) for i in rows for j in cols}
            b = {i: _pick(rng, group.size, group.identity.index) for i in rows}
            out[f"group-{label}-{k}"] = GroupSystem(group, rows, cols, entries, b)
    for label, spec in [("UT2", "table:corpus/ut2_table.json"), ("Z4", "Z/4"), ("Z2xZ3", "Z/2 x Z/3")]:
        ring = parse_ring_spec(spec)
        zero = ring.zero.index
        for k in range(6):
            rows, cols = _ids(rng, False)
            left = {(i, j): _pick(rng, ring.size, zero, 0.5) for i in rows for j in cols}
            right = {(j, i): _pick(rng, ring.size, zero, 0.5) for i in rows for j in cols}
            b = {i: _pick(rng, ring.size, zero) for i in rows}
            out[f"twosided-{label}-{k}"] = TwoSidedSystem(ring, rows, cols, left, right, b)
    for label, spec in [("Z4", "Z/4"), ("Z6", "Z/6"), ("Z2xZ4", "Z/2 x Z/4"), ("GR42", "GR(4,2)")]:
        group = additive_group(parse_ring_spec(spec))
        e = group.identity.index
        for k in range(6):
            rows, cols = _ids(rng, False)
            entries = {(i, j): _pick(rng, group.size, e) for i in rows for j in cols}
            b = {i: _pick(rng, group.size, e) for i in rows}
            out[f"numerical-{label}-{k}"] = NumericalSystem(group, rows, cols, entries, b)
    for label, spec in [("Z8", "Z/8"), ("Z12", "Z/12"), ("GR42", "GR(4,2)"), ("Z2xZ4", "Z/2 x Z/4")]:
        ring = parse_ring_spec(spec)
        zero = ring.zero.index
        for k in range(4):
            rows, cols = _ids(rng, True)
            entries = {(i, j): _pick(rng, ring.size, zero) for i in rows for j in cols}
            b = {i: _pick(rng, ring.size, zero) for i in rows}
            out[f"ring-{label}-{k}"] = LinSystem(ring, rows, cols, entries, b)
    return out


@functools.cache
def _all_systems() -> dict:
    """Built once, from the repository root (``table:`` paths are cwd-relative)."""
    systems = {
        f"corpus-{path.stem}": parse_system(path.read_text())
        for path in sorted((ROOT / "corpus").glob("*.rls"))
        if path.name != "matrix_z9.rls"
    }
    systems.update(_seeded_systems())
    return systems


def observe(system) -> dict:
    cert = solve(system)
    cert_text = write_certificate(cert, system)
    return {
        "verdict": cert.verdict,
        "digest": system.digest(),
        "system": write_system(system),
        "certificate": cert_text,
        "verified": verify_certificate(system, cert),
        "reparsed_verified": verify_certificate(system, parse_certificate(cert_text, system)),
    }


def test_golden_covers_every_system(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert sorted(_all_systems()) == sorted(EXPECTED)
    verdicts = {(name.split("-")[0], EXPECTED[name]["verdict"]) for name in EXPECTED}
    for kind in ("corpus", "group", "twosided", "numerical", "ring"):
        assert (kind, "SOLVABLE") in verdicts and (kind, "UNSOLVABLE") in verdicts, kind


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_outputs(monkeypatch, name):
    monkeypatch.chdir(ROOT)
    assert observe(_all_systems()[name]) == EXPECTED[name]


# ---------------------------------------------------------------------------
# large chain-path systems and Hermite forms


F4_SPEC = "Z/2[X]/(X^2+X+1)"


def _zero_divisor_heavy(rng: random.Random, ring, share: float = 0.6):
    """A sampler that draws a non-unit with probability ``share``, so that
    entries of equal valuation (and equal value) are common."""
    non_units = sorted(set(range(ring.size)) - unit_indices(ring))
    return lambda: rng.choice(non_units) if rng.random() < share else rng.randrange(ring.size)


def _ring_system(rng: random.Random, ring, k: int, ell: int, planted: bool) -> LinSystem:
    """Dense k x ell system; ``planted`` puts b in the column span, else b is random."""
    draw = _zero_divisor_heavy(rng, ring)
    rows, cols = [f"e{i}" for i in range(k)], [f"x{j}" for j in range(ell)]
    entries = {(i, j): draw() for i in rows for j in cols}
    if planted:
        x0 = {j: rng.randrange(ring.size) for j in cols}
        b = {}
        for i in rows:
            acc = ring.zero.index
            for j in cols:
                acc = ring.add_idx(acc, ring.mul_idx(entries[(i, j)], x0[j]))
            b[i] = acc
    else:
        b = {i: rng.randrange(ring.size) for i in rows}
    return LinSystem(ring, rows, cols, entries, b)


def _group_system(rng: random.Random, group, k: int, ell: int, planted: bool) -> GroupSystem:
    rows, cols = [f"e{i}" for i in range(k)], [f"x{j}" for j in range(ell)]
    entries = {(i, j): rng.choice([0, 0, 1, 2, 3, 4, 6, 8, 9, 12]) for i in rows for j in cols}
    if planted:
        x0 = {j: rng.randrange(group.size) for j in cols}
        b = {}
        for i in rows:
            acc = group.identity.index
            for j in cols:
                acc = group.add_idx(acc, group.scalar_idx(entries[(i, j)], x0[j]))
            b[i] = acc
    else:
        b = {i: rng.randrange(group.size) for i in rows}
    return GroupSystem(group, rows, cols, entries, b)


def _numerical_system(rng: random.Random, group, k: int, ell: int, planted: bool) -> NumericalSystem:
    rows, cols = [f"e{i}" for i in range(k)], [f"x{j}" for j in range(ell)]
    entries = {(i, j): rng.randrange(group.size) for i in rows for j in cols}
    if planted:
        x0 = {j: rng.randrange(group.exponent()) for j in cols}
        b = {}
        for i in rows:
            acc = group.identity.index
            for j in cols:
                acc = group.add_idx(acc, group.scalar_idx(x0[j], entries[(i, j)]))
            b[i] = acc
    else:
        b = {i: rng.randrange(group.size) for i in rows}
    return NumericalSystem(group, rows, cols, entries, b)


def _large_systems() -> dict:
    """name -> (solver, system); ``tall`` systems have three more rows than
    columns and a random right-hand side, so most are unsolvable."""
    rng = random.Random(19980908)
    out = {}
    for label, spec, sizes in [
        ("Z2", "Z/2", (8, 24, 40)),
        ("Z8", "Z/8", (8, 24, 40)),
        ("Z9", "Z/9", (8, 24, 40)),
        ("Z27", "Z/27", (8, 16, 32)),
        ("Z12", "Z/12", (8, 16, 32)),
        ("GR42", "GR(4,2)", (8, 12, 20)),
    ]:
        ring = parse_ring_spec(spec)
        for n in sizes:
            out[f"ring-{label}-{n}-planted"] = (solve, _ring_system(rng, ring, n, n, True))
            out[f"ring-{label}-{n}-tall"] = (solve, _ring_system(rng, ring, n, n - 3, False))
    for label, spec in [("GR42", "GR(4,2)"), ("F4", F4_SPEC)]:
        ring = parse_ring_spec(spec)
        for n in (8, 16):
            out[f"chain-{label}-{n}-planted"] = (solve_chain, _ring_system(rng, ring, n, n, True))
            out[f"chain-{label}-{n}-tall"] = (solve_chain, _ring_system(rng, ring, n, n - 3, False))
    group = parse_group_spec("Z/4 x Z/8 x Z/9")
    for n in (10, 20):
        out[f"group-Z4xZ8xZ9-{n}-planted"] = (solve, _group_system(rng, group, n, n, True))
        out[f"group-Z4xZ8xZ9-{n}-tall"] = (solve, _group_system(rng, group, n, n - 3, False))
    group = additive_group(parse_ring_spec("GR(4,2)"))
    for n in (8, 14):
        out[f"numerical-GR42-{n}-planted"] = (solve, _numerical_system(rng, group, n, n, True))
        out[f"numerical-GR42-{n}-tall"] = (solve, _numerical_system(rng, group, n, n - 3, False))
    return out


def _hermite_matrices() -> dict:
    rng = random.Random(19981208)
    out = {}
    for label, spec in [("Z8", "Z/8"), ("Z9", "Z/9"), ("GR42", "GR(4,2)"), ("F4", F4_SPEC)]:
        ring = parse_ring_spec(spec)
        for k, ell in [(10, 12), (12, 10), (11, 11)]:
            draw = _zero_divisor_heavy(rng, ring, 0.75)
            rows, cols = [f"r{i}" for i in range(k)], [f"c{j}" for j in range(ell)]
            out[f"hnf-{label}-{k}x{ell}"] = Matrix(ring, rows, cols, {(i, j): draw() for i in rows for j in cols})
    return out


def _twosided_system(rng: random.Random, ring, n: int, planted: bool) -> TwoSidedSystem:
    """Dense random n x n two-sided system; ``planted`` puts b in the image."""
    rows, cols = [f"e{i}" for i in range(n)], [f"x{j}" for j in range(n)]
    left = {(i, j): rng.randrange(ring.size) for i in rows for j in cols}
    right = {(j, i): rng.randrange(ring.size) for i in rows for j in cols}
    if planted:
        x0 = {j: rng.randrange(ring.size) for j in cols}
        b = {}
        for i in rows:
            acc = ring.zero.index
            for j in cols:
                term = ring.add_idx(ring.mul_idx(left[(i, j)], x0[j]), ring.mul_idx(x0[j], right[(j, i)]))
                acc = ring.add_idx(acc, term)
            b[i] = acc
    else:
        b = {i: rng.randrange(ring.size) for i in rows}
    return TwoSidedSystem(ring, rows, cols, left, right, b)


EISENSTEIN_SPEC = "Z/4[X]/(X^2+2)"


def _sparse_pivot_cases() -> dict:
    """Chain eliminations whose pivot columns are mostly zero."""
    rng = random.Random(20121219)
    ring = upper_triangular_f2()
    out = {
        "twosided-UT2-12-tall": (solve, _twosided_system(rng, ring, 12, False)),
        "twosided-UT2-13-planted": (solve, _twosided_system(rng, ring, 13, True)),
    }
    ring = parse_ring_spec(EISENSTEIN_SPEC)
    out["chain-Z4E-12-planted"] = (solve_chain, _ring_system(rng, ring, 12, 12, True))
    out["chain-Z4E-12-tall"] = (solve_chain, _ring_system(rng, ring, 12, 9, False))
    draw = _zero_divisor_heavy(rng, ring, 0.75)
    rows, cols = [f"r{i}" for i in range(13)], [f"c{j}" for j in range(10)]
    out["hnf-Z4E-13x10"] = Matrix(ring, rows, cols, {(i, j): draw() for i in rows for j in cols})
    return out


@functools.cache
def _all_large() -> dict:
    return {**_large_systems(), **_hermite_matrices(), **_sparse_pivot_cases()}


def observe_large(name: str) -> dict:
    if name.startswith("hnf-"):
        res = hermite_normal_form(_all_large()[name])
        return {"Q": res.Q, "S": res.S, "col_perm": res.col_perm, "diag": res.diag}
    solver, system = _all_large()[name]
    cert = solver(system)
    cert_text = write_certificate(cert, system)
    return {
        "verdict": cert.verdict,
        "digest": system.digest(),
        "certificate": cert_text,
        "verified": verify_certificate(system, cert),
    }


def test_golden_large_covers_every_system():
    assert sorted(_all_large()) == sorted(EXPECTED_LARGE)
    by_kind: dict = {}
    for name, expected in EXPECTED_LARGE.items():
        if "verdict" in expected:
            by_kind.setdefault(name.rsplit("-", 2)[0], set()).add(expected["verdict"])
    for kind, verdicts in by_kind.items():
        assert verdicts == {"SOLVABLE", "UNSOLVABLE"}, kind


@pytest.mark.parametrize("name", sorted(EXPECTED_LARGE))
def test_golden_large_outputs(name):
    assert observe_large(name) == EXPECTED_LARGE[name]


# ---------------------------------------------------------------------------
# matrix inverse and determinant


MATRIX_RINGS = [
    ("Z4", "Z/4"),
    ("Z6", "Z/6"),
    ("Z9", "Z/9"),
    ("Z12", "Z/12"),
    ("F4", F4_SPEC),
    ("GR42", "GR(4,2)"),
    ("F2xy", None),
    ("Z2xGR42", "Z/2 x GR(4,2)"),
]
MATRIX_CLI_ACTIONS = ("inverse", "det", "charpoly")


def _triangular(rng: random.Random, ring, n: int, lower: bool, diag: list[int]) -> list[list[int]]:
    zero = ring.zero.index
    return [
        [diag[i] if i == j else rng.randrange(ring.size) if (j < i) == lower else zero for j in range(n)]
        for i in range(n)
    ]


def _grid_product(ring, x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero.index
            for k in range(n):
                acc = ring.add_idx(acc, ring.mul_idx(x[i][k], y[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _seeded_matrices(rng: random.Random, label: str, ring, sizes) -> dict:
    """Per size n: a uniformly random matrix, an invertible L·U, and L·U with
    one non-unit on the diagonal of U (singular, yet every column may hold a
    unit)."""
    units = sorted(unit_indices(ring))
    non_units = sorted(set(range(ring.size)) - set(units))
    out = {}
    for n in sizes:
        ids = list(range(n))

        def matrix(grid):
            return Matrix(ring, ids, ids, {(i, j): grid[i][j] for i in ids for j in ids})

        out[f"{label}-{n}-random"] = matrix([[rng.randrange(ring.size) for _ in ids] for _ in ids])
        lower = _triangular(rng, ring, n, True, [rng.choice(units) for _ in ids])
        diag = [rng.choice(units) for _ in ids]
        out[f"{label}-{n}-lu"] = matrix(_grid_product(ring, lower, _triangular(rng, ring, n, False, diag)))
        diag[rng.randrange(n)] = rng.choice(non_units)
        out[f"{label}-{n}-lu-nonunit"] = matrix(_grid_product(ring, lower, _triangular(rng, ring, n, False, diag)))
    return out


def _golden_matrices() -> dict:
    """The seeded matrices of n = 1..8 per ring."""
    rng = random.Random(19980615)
    out = {}
    for label, spec in MATRIX_RINGS:
        ring = bivariate_nilpotent() if spec is None else parse_ring_spec(spec)
        out.update(_seeded_matrices(rng, label, ring, range(1, 9)))
    return out


@functools.cache
def _all_matrices() -> dict:
    return _golden_matrices()


def observe_matrix(a: Matrix) -> dict:
    inv = inverse(a)
    try:
        det = determinant(a).name
    except UnsupportedRing:
        det = None
    return {
        "inverse": None if inv is None else [[inv.entry(i, j).name for j in a.cols] for i in a.rows],
        "determinant": det,
    }


def observe_matrix_cli(action: str, capsys) -> dict:
    code = main(["mat", action, "corpus/matrix_z9.rls"])
    return {"exit": code, "stdout": capsys.readouterr().out}


def test_golden_matrices_cover_every_matrix():
    names = sorted(_all_matrices()) + [f"cli-matrix_z9-{action}" for action in MATRIX_CLI_ACTIONS]
    assert sorted(names) == sorted(EXPECTED_MATRICES)
    for label, _ in MATRIX_RINGS:
        outcomes = {
            EXPECTED_MATRICES[name]["inverse"] is None
            for name in EXPECTED_MATRICES
            if name.startswith(f"{label}-")
        }
        assert outcomes == {True, False}, label


@pytest.mark.parametrize("name", sorted(n for n in EXPECTED_MATRICES if not n.startswith("cli-")))
def test_golden_matrix_outputs(name):
    a = _all_matrices()[name]
    observed = observe_matrix(a)
    assert observed == EXPECTED_MATRICES[name]
    if observed["inverse"] is not None:
        by_name = {e.name: e.index for e in a.ring.elements()}
        inv = Matrix(a.ring, a.rows, a.cols, {
            (i, j): by_name[observed["inverse"][r][c]]
            for r, i in enumerate(a.rows) for c, j in enumerate(a.cols)
        })
        identity = Matrix.identity(a.ring, a.rows)
        assert mat_mul(a, inv).equals(identity) and mat_mul(inv, a).equals(identity)


@pytest.mark.parametrize("action", MATRIX_CLI_ACTIONS)
def test_golden_matrix_cli(monkeypatch, capsys, action):
    monkeypatch.chdir(ROOT)
    assert observe_matrix_cli(action, capsys) == EXPECTED_MATRICES[f"cli-matrix_z9-{action}"]


# ---------------------------------------------------------------------------
# characteristic polynomial and determinant up to 16x16


CHARPOLY_RINGS = [
    ("Z2", "Z/2", range(1, 13)),
    ("Z4", "Z/4", range(1, 13)),
    ("Z8", "Z/8", range(1, 13)),
    ("Z9", "Z/9", range(1, 13)),
    ("Z27", "Z/27", range(1, 13)),
    ("F4", F4_SPEC, range(1, 13)),
    ("GR42", "GR(4,2)", range(1, 13)),
    ("Z4096", "Z/4096", range(1, 13)),
    # 16! holds 2^15: the largest power of p the Newton recursion divides by
    ("Z2", "Z/2", [16]),
    ("Z4", "Z/4", [16]),
    # not Galois rings: the determinant only
    ("Z12", "Z/12", range(9, 13)),
    ("Z2xGR42", "Z/2 x GR(4,2)", range(9, 13)),
]


@functools.cache
def _golden_charpoly_matrices() -> dict:
    rng = random.Random(19840312)
    out = {}
    for label, spec, sizes in CHARPOLY_RINGS:
        out.update(_seeded_matrices(rng, label, parse_ring_spec(spec), sizes))
    return out


def observe_charpoly(a: Matrix) -> dict:
    chi = charpoly_galois(a) if is_galois_ring(a.ring) else None
    return {
        "charpoly": None if chi is None else [c.name for c in chi.coefficients],
        "determinant": determinant(a).name,
    }


def test_golden_charpoly_covers_every_matrix():
    assert sorted(_golden_charpoly_matrices()) == sorted(EXPECTED_CHARPOLY)
    for label, _, sizes in CHARPOLY_RINGS:
        for n in sizes:
            assert EXPECTED_CHARPOLY[f"{label}-{n}-lu-nonunit"]["determinant"] != "1", (label, n)
            assert EXPECTED_CHARPOLY[f"{label}-{n}-lu"]["determinant"] != "0", (label, n)


@pytest.mark.parametrize("name", sorted(EXPECTED_CHARPOLY))
def test_golden_charpoly_outputs(name):
    assert observe_charpoly(_golden_charpoly_matrices()[name]) == EXPECTED_CHARPOLY[name]


# ---------------------------------------------------------------------------
# brute-force oracle


ORACLE_SEARCH_LIMIT = 4096


def _max_cols(base: int) -> int:
    """The most variables whose search space base^n stays within the limit."""
    n = 1
    while base ** (n + 1) <= ORACLE_SEARCH_LIMIT:
        n += 1
    return n


def _oracle_ids(rng: random.Random, base: int):
    n_rows, n_cols = rng.randint(1, 3), rng.randint(1, _max_cols(base))
    return [f"e{k}" for k in range(n_rows)], [f"x{k}" for k in range(n_cols)]


def _planted_rhs(rng: random.Random, system, values: int) -> dict:
    """The left-hand side of ``system`` at random variable values below ``values``."""
    x0 = {j: rng.randrange(values) for j in system.cols}
    return dict(zip(system.rows, system._lhs(system._values(x0)).tolist()))


def _oracle_systems() -> dict:
    """Seeded systems of the four kinds, each with at most 4096 assignments;
    a third of the right-hand sides are planted so that witnesses appear
    away from the first assignment."""
    rng = random.Random(20121218)
    out = {}

    def add(name, k, make, b, values):
        system = make(b)
        out[f"{name}-{k}"] = make(_planted_rhs(rng, system, values)) if k % 3 == 0 else system

    for label, ring in [("Z4", parse_ring_spec("Z/4")), ("Z6", parse_ring_spec("Z/6")),
                        ("F4", parse_ring_spec(F4_SPEC)), ("GR42", parse_ring_spec("GR(4,2)")),
                        ("Z2xZ3", parse_ring_spec("Z/2 x Z/3"))]:
        for k in range(24):
            rows, cols = _oracle_ids(rng, ring.size)
            entries = {(i, j): _pick(rng, ring.size, ring.zero.index) for i in rows for j in cols}
            b = {i: rng.randrange(ring.size) for i in rows}
            add(f"ring-{label}", k, functools.partial(LinSystem, ring, rows, cols, entries), b, ring.size)
    for label, spec in [("Z2xZ6", "Z/2 x Z/6"), ("Z2xZ4", "Z/2 x Z/4"), ("Z9", "Z/9")]:
        group = parse_group_spec(spec)
        for k in range(24):
            rows, cols = _oracle_ids(rng, group.size)
            entries = {(i, j): _pick(rng, 14, 0) for i in rows for j in cols}
            b = {i: rng.randrange(group.size) for i in rows}
            add(f"group-{label}", k, functools.partial(GroupSystem, group, rows, cols, entries), b, group.size)
    for label, ring in [("UT2", upper_triangular_f2()), ("Z2xZ3", parse_ring_spec("Z/2 x Z/3"))]:
        zero = ring.zero.index
        for k in range(24):
            rows, cols = _oracle_ids(rng, ring.size)
            left = {(i, j): _pick(rng, ring.size, zero, 0.5) for i in rows for j in cols}
            right = {(j, i): _pick(rng, ring.size, zero, 0.5) for i in rows for j in cols}
            b = {i: rng.randrange(ring.size) for i in rows}
            add(f"twosided-{label}", k, functools.partial(TwoSidedSystem, ring, rows, cols, left, right), b, ring.size)
    for label, group in [("Z2xZ6", parse_group_spec("Z/2 x Z/6")), ("Z9", parse_group_spec("Z/9")),
                         ("GR42", additive_group(parse_ring_spec("GR(4,2)")))]:
        e = group.identity.index
        for k in range(24):
            rows, cols = _oracle_ids(rng, group.exponent())
            entries = {(i, j): _pick(rng, group.size, e) for i in rows for j in cols}
            b = {i: rng.randrange(group.size) for i in rows}
            add(f"numerical-{label}", k, functools.partial(NumericalSystem, group, rows, cols, entries), b,
                group.exponent())
    return out


def _witness_systems() -> dict:
    """Seeded 1-2 row chain systems with the tail pi^(n-1) of their ring."""
    rng = random.Random(20121219)
    out = {}
    for label, spec in [("Z4", "Z/4"), ("Z8", "Z/8"), ("Z9", "Z/9"), ("F4", F4_SPEC), ("GR42", "GR(4,2)")]:
        ring = parse_ring_spec(spec)
        cd = chain_data(ring)
        tail = ring.pow_idx(cd.pi.index, cd.n - 1)
        for k in range(16):
            rows = [f"e{i}" for i in range(rng.randint(1, 2))]
            cols = [f"x{j}" for j in range(rng.randint(1, 3))]
            entries = {(i, j): _pick(rng, ring.size, ring.zero.index) for i in rows for j in cols}
            b = {i: rng.randrange(ring.size) for i in rows}
            out[f"witnesses-{label}-{k}"] = (LinSystem(ring, rows, cols, entries, b), tail)
    return out


def _oracle_corpus_files() -> list[Path]:
    return [path for path in sorted((ROOT / "corpus").glob("*.rls")) if path.name != "matrix_z9.rls"]


@functools.cache
def _all_oracle() -> dict:
    return {**_oracle_systems(), **_witness_systems()}


def observe_oracle(name: str, capsys=None) -> dict:
    if name.startswith("cli-"):
        code = main(["oracle", "solve", f"corpus/{name[4:]}.rls"])
        return {"exit": code, "stdout": capsys.readouterr().out}
    if name.startswith("witnesses-"):
        system, tail = _all_oracle()[name]
        found = enumerate_witnesses(system, tail)
        return {"witnesses": [[w[i].index for i in system.rows] for w in found]}
    system = _all_oracle()[name]
    report = brute_force_solve(system)
    witness = None
    if report.solvable:
        witness = [v if isinstance(v, int) else v.index for v in (report.witness[j] for j in system.cols)]
    return {"solvable": report.solvable, "instances_checked": report.instances_checked, "witness": witness}


def test_golden_oracle_covers_every_system():
    names = sorted(_all_oracle()) + [f"cli-{path.stem}" for path in _oracle_corpus_files()]
    assert sorted(names) == sorted(EXPECTED_ORACLE)
    by_kind: dict = {}
    for name, expected in EXPECTED_ORACLE.items():
        if "solvable" in expected:
            by_kind.setdefault(name.rsplit("-", 1)[0], set()).add(expected["solvable"])
    for kind, verdicts in by_kind.items():
        assert verdicts == {True, False}, kind
    assert {bool(EXPECTED_ORACLE[n]["witnesses"]) for n in EXPECTED_ORACLE if n.startswith("witnesses-")} == {True, False}


@pytest.mark.parametrize("name", sorted(EXPECTED_ORACLE))
def test_golden_oracle_outputs(monkeypatch, capsys, name):
    monkeypatch.chdir(ROOT)
    assert observe_oracle(name, capsys) == EXPECTED_ORACLE[name]


def _large_oracle_systems() -> list:
    """Seeded ring systems with more than 4096 assignments: a third planted,
    a third with non-unit coefficients only (mostly unsolvable)."""
    rng = random.Random(20121220)
    out = []
    for spec, n_cols in [("Z/2", 13), ("Z/4", 7), ("Z/6", 5), (F4_SPEC, 7), ("GR(4,2)", 4)]:
        ring = parse_ring_spec(spec)
        for k in range(6):
            rows, cols = [f"e{i}" for i in range(rng.randint(1, 3))], [f"x{j}" for j in range(n_cols)]
            draw = _zero_divisor_heavy(rng, ring, 1.0) if k % 3 == 1 else lambda: _pick(rng, ring.size, ring.zero.index)
            entries = {(i, j): draw() for i in rows for j in cols}
            b = {i: rng.randrange(ring.size) for i in rows}
            if k % 3 == 0:
                b = _planted_rhs(rng, LinSystem(ring, rows, cols, entries, {}), ring.size)
            out.append(LinSystem(ring, rows, cols, entries, b))
    return out


def test_oracle_large_ring_systems_in_product_order():
    # above 4096 assignments nothing is pinned: the verdict must match the
    # solver and the count must be the witness's position in product order
    verdicts = set()
    for system in _large_oracle_systems():
        report = brute_force_solve(system)
        size, n = system.ring.size, len(system.cols)
        assert report.solvable == solve(system).solvable
        verdicts.add(report.solvable)
        if not report.solvable:
            assert report.instances_checked == size**n
            continue
        assert system.eval(report.witness)
        position = 0
        for j in system.cols:
            position = position * size + report.witness[j].index
        assert report.instances_checked == position + 1
        if position <= 2000:
            earlier = itertools.islice(itertools.product(system.ring.elements(), repeat=n), position)
            assert not any(system.eval(dict(zip(system.cols, combo))) for combo in earlier)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# structure theory


def _structure_rings() -> dict:
    """Name -> builder.  Spec strings are built afresh, so the cold path runs."""
    specs = ["Z/2", "Z/3", "Z/4", "Z/6", "Z/8", "Z/9", "Z/12", F4_SPEC, "GR(4,2)",
             # the cold_structure benchmark panel
             "phi(Z/2 x Z/4)", "Z/512", "GR(4,3)", "Z/256", "GR(9,2)", "Z/8 x Z/27",
             "Z/16 x GR(4,2)", "Z/3 x GR(4,3)",
             "Z/4096", "GR(16,3)"]
    rings = {spec: functools.partial(parse_ring_spec, spec) for spec in specs}
    for builder in (bivariate_nilpotent, f2x_x2, upper_triangular_f2):
        rings[builder().spec] = builder
    return rings


def _pinned(indices) -> list[int] | str:
    values = sorted(indices) if isinstance(indices, (set, frozenset)) else list(indices)
    if len(values) <= 64:
        return values
    return "sha256:" + hashlib.sha256(json.dumps(values).encode()).hexdigest()


def observe_structure(ring) -> dict:
    out = {
        "units": _pinned(unit_indices(ring)),
        "idempotents": _pinned({e.index for e in idempotents(ring)}),
    }
    if not ring.commutative:
        return out
    out["base"] = _pinned({e.index for e in base(ring)})
    out["summands"] = []
    for s in decompose_local(ring):
        local = s.ring
        cd = chain_data(local)
        alpha, pis = canonical_params(local)
        out["summands"].append({
            "e": s.e.index,
            "chain_data": None if cd is None else [cd.pi.index, cd.n, cd.q],
            "min_generators": [g.index for g in minimal_generators_maximal_ideal(local)],
            "canonical_params": [alpha.index, [p.index for p in pis]],
            "default_order": _pinned(default_order(local).sorted_elements),
            "teichmuller": _pinned({g.index for g in teichmuller_set(local)}),
            "galois": None if is_galois_ring(local) is None else list(is_galois_ring(local)),
        })
    return out


def test_golden_structure_covers_every_ring():
    assert sorted(_structure_rings()) == sorted(EXPECTED_STRUCTURE)


@pytest.mark.parametrize("name", sorted(EXPECTED_STRUCTURE))
def test_golden_structure_outputs(name):
    assert observe_structure(_structure_rings()[name]()) == EXPECTED_STRUCTURE[name]


# ---------------------------------------------------------------------------
# cyclic decomposition


def _digest(value) -> str:
    return "sha256:" + hashlib.sha256(json.dumps(value).encode()).hexdigest()


@functools.cache
def _commutative_structure_rings() -> dict:
    """Name -> (ring, its local summands), built once for the whole module."""
    rings = {name: build() for name, build in _structure_rings().items()}
    return {name: (ring, decompose_local(ring)) for name, ring in rings.items() if ring.commutative}


@functools.cache
def _cyclic_cases() -> dict:
    """Name -> builder of (group, scan order or None)."""
    cases = {}
    for shape in GROUP_SHAPES:
        factors = [build_cyclic_group(m) for m in shape]
        cases[f"group {shape}"] = functools.partial(
            lambda fs: (fs[0] if len(fs) == 1 else build_product_group(fs), None), factors)
    for spec in ["Z/2 x Z/4", "Z/2 x Z/6", "Z/4 x Z/8 x Z/9"]:
        cases[f"spec {spec}"] = functools.partial(lambda s: (parse_group_spec(s), None), spec)
    for name, (_, summands) in _commutative_structure_rings().items():
        for s in summands:
            label = f"summand {name} e={s.e.index}"
            cases[f"{label} table"] = functools.partial(lambda r: (additive_group(r), None), s.ring)
            cases[f"{label} default"] = functools.partial(
                lambda r: (additive_group(r), default_order(r).sorted_elements), s.ring)
    cases["UT2(F2) x Z/3 table"] = lambda: (additive_group(ut2_times_z3()), None)
    return cases


def observe_cyclic(group, scan) -> dict:
    d = group_decompose_cyclic(group, scan_order=scan)
    return {"pairs": [list(p) for p in d.pairs],
            "coords": _digest([d.coords_of(i) for i in range(group.size)])}


def _trace_pins(trace: dict) -> dict:
    return {
        "generators": [list(g) for g in trace["generators"]],
        "orders": list(trace["orders"]),
        "structure_constants": trace["structure_constants"],
        "term_coefficients": _digest(trace["term_coefficients"]),
    }


def observe_cyclic_trace(ring, summands) -> dict:
    rng = random.Random(f"cyclic trace {ring.spec}")
    rows, cols = ["e0", "e1"], ["x0", "x1", "x2"]
    entries = {(i, j): rng.randrange(ring.size) for i in rows for j in cols}
    system = LinSystem(ring, rows, cols, entries, {i: rng.randrange(ring.size) for i in rows})
    out = {"table": _trace_pins(ring_to_cyclic(system).trace)}
    for s in summands:
        sub = project_to_local(system, s.e)
        out[f"e={s.e.index}"] = _trace_pins(ring_to_cyclic(sub, default_order(s.ring)).trace)
    return out


def test_golden_cyclic_covers_every_case():
    names = list(_cyclic_cases()) + [f"trace {name}" for name in _commutative_structure_rings()]
    assert sorted(names) == sorted(EXPECTED_CYCLIC)


@pytest.mark.parametrize("name", sorted(EXPECTED_CYCLIC))
def test_golden_cyclic_outputs(name):
    if name.startswith("trace "):
        observed = observe_cyclic_trace(*_commutative_structure_rings()[name[len("trace "):]])
    else:
        observed = observe_cyclic(*_cyclic_cases()[name]())
    assert json.loads(json.dumps(observed)) == EXPECTED_CYCLIC[name]


# ---------------------------------------------------------------------------
# canonical order: keys, representations and ``ring order``


ORDER_CLI_SPECS = ("Z/9", "GR(4,2)", "Z/8", "Z/4[X]/(X^2)", "Z/512")


def observe_order(local) -> list | str:
    order = default_order(local)
    return _pinned([[list(order.key(i)), [[list(t), a] for t, a in order.rep(i)]] for i in range(local.size)])


def observe_order_cli(spec: str, capsys) -> dict:
    code = main(["ring", "order", spec])
    out = capsys.readouterr().out
    return {"exit": code, "stdout": out if out.count("\n") <= 64 else _digest(out)}


def _order_cases() -> list[str]:
    return ([f"{name} e={s.e.index}" for name, (_, summands) in _commutative_structure_rings().items()
             for s in summands] + [f"cli {spec}" for spec in ORDER_CLI_SPECS])


def test_golden_order_covers_every_case():
    assert sorted(_order_cases()) == sorted(EXPECTED_ORDER)


@pytest.mark.parametrize("name", sorted(EXPECTED_ORDER))
def test_golden_order_outputs(capsys, name):
    if name.startswith("cli "):
        observed = observe_order_cli(name[len("cli "):], capsys)
    else:
        ring_name, e = name.rsplit(" e=", 1)
        summand = next(s for s in _commutative_structure_rings()[ring_name][1] if s.e.index == int(e))
        observed = observe_order(summand.ring)
    assert json.loads(json.dumps(observed)) == EXPECTED_ORDER[name]


# ---------------------------------------------------------------------------
# closure reductions


REDUCTION_MODULI = (2, 3, 4, 8, 9)
REDUCTION_GROUPS = ("Z/2 x Z/4", "Z/3 x Z/3")


def _reduction_ids(rng: random.Random, n: int, prefix: str) -> list:
    """n distinct ids whose order differs from their string order, as
    strings, tuples or ints."""
    kind = rng.randrange(3)
    ids = [f"{prefix}{k}" if kind == 0 else (prefix, k) if kind == 1 else 10 * k + 3 for k in range(n)]
    rng.shuffle(ids)
    return ids


def _reduction_system(rng: random.Random, ring, max_rows: int, max_cols: int) -> LinSystem:
    rows = _reduction_ids(rng, rng.randint(1, max_rows), "e")
    cols = _reduction_ids(rng, rng.randint(1, max_cols), "x")
    zero = ring.zero.index
    entries = {(i, j): _pick(rng, ring.size, zero) for i in rows for j in cols}
    return LinSystem(ring, rows, cols, entries, {i: _pick(rng, ring.size, zero) for i in rows})


def _reduction_normal(rng: random.Random, ring) -> LinSystem:
    """An all-ones system with {0,1} coefficients over a prime field."""
    rows = _reduction_ids(rng, rng.randint(1, 2), "e")
    cols = _reduction_ids(rng, rng.randint(1, 2), "x")
    entries = {(i, j): 1 for i in rows for j in cols if rng.random() < 0.6}
    return LinSystem(ring, rows, cols, entries, {i: 1 for i in rows})


@functools.cache
def _reduction_targets() -> dict:
    """Name -> builder of a reduction target, from seeded sources."""
    rng = random.Random(20120514)
    cases = {}
    for m in REDUCTION_MODULI:
        ring = build_zmod(m)
        small = 3 if m < 8 else 2
        sources = [_reduction_system(rng, ring, small, small) for _ in range(6)]
        for k, s in enumerate(sources):
            label = f"Z{m}-{k}"
            cases[f"normal_form {label}"] = functools.partial(lambda s: normal_form(s).target, s)
            cases[f"rhs_normalize {label}"] = functools.partial(
                lambda s: _rhs_normalize(ring_to_cyclic(s, table_order(s.ring)).target), s)
            cases[f"complement_chain {label}"] = functools.partial(lambda s: complement_chain(s).target, s)
            other = sources[(k + 1) % len(sources)]
            cases[f"and_compose {label}"] = functools.partial(and_compose, s, other)
            cases[f"or_compose {label}"] = functools.partial(or_compose, s, other)
    for p in (2, 3):
        ring = build_zmod(p)
        for k in range(4):
            outer_rows = _reduction_ids(rng, rng.randint(1, 2), "a")
            outer_cols = _reduction_ids(rng, rng.randint(1, 2), "b")
            inner = {(a, c): _reduction_normal(rng, ring) for a in outer_rows for c in outer_cols}
            cases[f"collapse_nested Z{p}-{k}"] = functools.partial(collapse_nested, outer_rows, outer_cols, inner)
    for spec in REDUCTION_GROUPS:
        group = parse_group_spec(spec)
        for k in range(6):
            rows = _reduction_ids(rng, rng.randint(1, 3), "e")
            cols = _reduction_ids(rng, rng.randint(1, 3), "x")
            entries = {(i, j): _pick(rng, 7, 0) for i in rows for j in cols}
            b = {i: _pick(rng, group.size, group.identity.index) for i in rows}
            source = GroupSystem(group, rows, cols, entries, b)
            cases[f"group_to_ring {spec}-{k}"] = functools.partial(lambda s: group_to_ring(s).target, source)
    return cases


def _id_list(ids: list) -> list[str] | str:
    names = [str(i) for i in ids]
    if len(names) <= 64:
        return names
    return "sha256:" + hashlib.sha256(json.dumps(names).encode()).hexdigest()


def observe_reduction(target: LinSystem) -> dict:
    cert = solve(target)
    return {
        "rows": _id_list(target.rows),
        "cols": _id_list(target.cols),
        "digest": target.digest(),
        "verdict": cert.verdict,
        "certificate": hashlib.sha256(write_certificate(cert, target).encode()).hexdigest()[:16],
    }


REDUCE_SINGLE = ("ring-to-cyclic", "group-to-ring", "twosided-numerical", "normal-form", "complement")


def _reduce_cli_cases() -> dict:
    """Name -> argument list (without ``-o``) of a ``ringsolve reduce`` run on
    corpus files: every single-input reduction on every system file, and
    ``and``/``or`` on every ordered pair of ring files over one ring."""
    files = sorted(p for p in (ROOT / "corpus").glob("*.rls") if p.name != "matrix_z9.rls")
    cases = {}
    for path in files:
        for name in REDUCE_SINGLE:
            cases[f"cli {name} {path.stem}"] = [name, f"corpus/{path.name}"]
    headers = {p: next(line for line in p.read_text().splitlines() if line and not line.startswith("#"))
               for p in files}
    for first, second in itertools.product(files, repeat=2):
        if headers[first].startswith("ring ") and headers[first] == headers[second]:
            for name in ("and", "or"):
                cases[f"cli {name} {first.stem} {second.stem}"] = [name, f"corpus/{first.name}",
                                                                   f"corpus/{second.name}"]
    return cases


def observe_reduce_cli(args: list, tmp_path: Path, capsys) -> dict:
    out = tmp_path / "target.rls"
    code = main(["reduce", *args, "-o", str(out), "--trace"])
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "file": out.read_text() if out.exists() else None}


def test_golden_reductions_cover_every_case():
    names = list(_reduction_targets()) + list(_reduce_cli_cases())
    assert sorted(names) == sorted(EXPECTED_REDUCTIONS)
    verdicts = {(name.split()[0], EXPECTED_REDUCTIONS[name]["verdict"])
                for name in EXPECTED_REDUCTIONS if not name.startswith("cli ")}
    for kind in ("normal_form", "complement_chain", "and_compose", "or_compose", "collapse_nested"):
        assert (kind, "SOLVABLE") in verdicts and (kind, "UNSOLVABLE") in verdicts, kind


@pytest.mark.parametrize("name", sorted(EXPECTED_REDUCTIONS))
def test_golden_reduction_outputs(monkeypatch, tmp_path, capsys, name):
    if name.startswith("cli "):
        monkeypatch.chdir(ROOT)
        observed = observe_reduce_cli(_reduce_cli_cases()[name], tmp_path, capsys)
    else:
        observed = observe_reduction(_reduction_targets()[name]())
    assert observed == EXPECTED_REDUCTIONS[name]
