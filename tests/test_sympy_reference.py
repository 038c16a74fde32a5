"""sympy as an algebraic reference past the reach of the cofactor oracle:
characteristic polynomials and determinants of large matrices over Z/m,
computed by sympy over the integers and reduced mod m."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from conftest import zmod
from ringsolve import Matrix, charpoly_galois, determinant

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
