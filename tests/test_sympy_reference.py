"""sympy as an algebraic reference past the reach of the cofactor oracle:
characteristic polynomials and determinants of large matrices over Z/m,
computed by sympy over the integers and reduced mod m, and the verdicts of
large systems over Z/m, read off integer invariant factors.  Two source
guards ride along: the package never imports sympy, and no private helper
outlives its last caller."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from conftest import zmod
from ringsolve import LinSystem, Matrix, charpoly_galois, determinant, solve

SRC = Path(__file__).resolve().parent.parent / "src" / "ringsolve"

# (modulus, size): a fixed handful, since sympy's integer charpoly grows fast with size
CASES = [(4, 40), (8, 24), (9, 32), (97, 16), (2048, 20), (4096, 36)]


@pytest.mark.parametrize("m,n", CASES, ids=[f"Z/{m}-{n}x{n}" for m, n in CASES])
def test_charpoly_and_determinant_agree_with_sympy(m, n):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(1000 * m + n)
    ring = zmod(m)
    rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
    a = Matrix(ring, range(n), range(n), {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})
    integral = DomainMatrix([[sympy.ZZ(v) for v in row] for row in rows], (n, n), sympy.ZZ)
    expected = [int(c) % m for c in reversed(integral.charpoly())]
    assert [c.index for c in charpoly_galois(a).coefficients] == expected
    assert determinant(a).index == int(integral.det()) % m


def _solvable_by_invariant_factors(sympy, rows: list[list[int]], b: list[int], m: int) -> bool:
    """Ax = b (mod m) is solvable exactly when b lies in the integer lattice
    spanned by the columns of [A | mI], that is, when [A | mI] and
    [A | mI | b] have the same invariant factors."""
    from sympy.matrices.normalforms import invariant_factors

    lattice = [row + [m if i == j else 0 for j in range(len(rows))] for i, row in enumerate(rows)]
    with_b = [row + [v] for row, v in zip(lattice, b)]
    return invariant_factors(sympy.Matrix(lattice), domain=sympy.ZZ) == invariant_factors(
        sympy.Matrix(with_b), domain=sympy.ZZ)


# moduli with repeated prime factors, so chains longer than a field's occur
SOLVE_MODULI = [12, 36, 360, 900, 2048]


@pytest.mark.parametrize("m", SOLVE_MODULI, ids=[f"Z/{m}" for m in SOLVE_MODULI])
def test_solve_verdicts_agree_with_invariant_factors(m):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(m)
    verdicts = set()
    for k in range(8):
        n_rows, n_cols = rng.randint(1, 20), rng.randint(1, 20)
        rows = [[rng.randrange(m) for _ in range(n_cols)] for _ in range(n_rows)]
        if k % 2:  # planted: b = A x0, so half the cases are solvable by construction
            x0 = [rng.randrange(m) for _ in range(n_cols)]
            b = [sum(a * x for a, x in zip(row, x0)) % m for row in rows]
        else:
            b = [rng.randrange(m) for _ in range(n_rows)]
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
        system = LinSystem(zmod(m), range(n_rows), range(n_cols), entries, dict(enumerate(b)))
        expected = _solvable_by_invariant_factors(sympy, rows, b, m)
        assert solve(system).solvable == expected, (k, n_rows, n_cols)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_the_package_never_imports_sympy():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "sympy"]
    assert offenders == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_has_a_caller():
    """Every module-level private function, class or assignment, and every
    private method, is read somewhere in the package: by name, or as an
    attribute."""
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            if isinstance(node, ast.ClassDef):
                names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
            defined += [(path.name, name) for name in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [f"{file}:{name}" for file, name in defined if name not in read] == []
