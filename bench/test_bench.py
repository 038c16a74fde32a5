"""Tests for the benchmark's generators and checkers.

    python3 -m pytest bench/test_bench.py -q

The planted facts are confirmed by exhaustive enumeration written here, and
every checker must reject a tampered output.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import planted as pt  # noqa: E402

TINY = [
    ("ring", pt.ZMod(4)),
    ("ring", pt.ZMod(6)),
    ("ring", pt.GaloisModel(2, 2, 2)),
    ("ring", pt.ProductModel([pt.ZMod(2), pt.ZMod(3)])),
    ("ring", pt.PhiModel(pt.group_of("Z/2 x Z/2"))),
    ("ring", pt.f2xy_model()),
    ("group", pt.group_of("Z/2 x Z/4")),
    ("group", pt.ZMod(6)),
    ("twosided", pt.ut2_model()),
    ("numerical", pt.ZMod(4)),
    ("numerical", pt.group_of("Z/2 x Z/4")),
]


def domain(inst):
    """The values one variable ranges over."""
    if inst.kind == "numerical":
        return list(range(inst.model.exponent))
    return inst.model.elements()


def solutions(inst):
    """Every solution, by exhaustive enumeration."""
    return [x for x in itertools.product(domain(inst), repeat=inst.n_cols) if inst.satisfied_by(list(x))]


@pytest.mark.parametrize("kind,model", TINY, ids=lambda v: getattr(v, "spec", None) or getattr(v, "label", str(v)))
@pytest.mark.parametrize("unique", [False, True])
def test_planted_verdicts_hold_exhaustively(kind, model, unique):
    rnd = random.Random(5)
    pl = pt.Planter(kind, model)
    for solvable in (True, False):
        for _ in range(3):
            inst = pt.make_system(pl, 2, solvable, rnd, unique=unique)
            assert bool(solutions(inst)) == solvable
            if solvable:
                assert inst.satisfied_by(inst.planted)
            else:
                assert inst.proves_unsolvable(inst.proof)


@pytest.mark.parametrize("kind,model", TINY, ids=lambda v: getattr(v, "spec", None) or getattr(v, "label", str(v)))
def test_unique_instances_have_one_solution_at_the_last_assignment(kind, model):
    inst = pt.make_system(pt.Planter(kind, model), 2, True, random.Random(9), unique=True)
    assert solutions(inst) == [tuple(inst.planted)]
    last = model.exponent - 1 if kind == "numerical" else model.last()
    assert inst.planted == [last, last]


def test_tampered_assignment_is_rejected():
    for kind, model in TINY:
        inst = pt.make_system(pt.Planter(kind, model), 3, True, random.Random(2), unique=True)
        for j in range(inst.n_cols):
            for v in domain(inst):
                x = list(inst.planted)
                if v != x[j]:
                    x[j] = v
                    assert not inst.satisfied_by(x)


def test_tampered_proof_is_rejected():
    inst = pt.make_system(pt.Planter("ring", pt.ZMod(8)), 4, False, random.Random(3))
    assert inst.proves_unsolvable(inst.proof)
    y = list(inst.proof)
    y[-1] = inst.model.add(y[-1], 1)
    assert not inst.proves_unsolvable(y)


def test_least_irreducible_matches_known_polynomials():
    assert pt.least_irreducible(2, 2) == (1, 1, 1)
    assert pt.least_irreducible(2, 3) == (1, 0, 1, 1)  # tail (1,0,1) precedes (1,1,0)
    assert pt.least_irreducible(3, 2) == (1, 0, 1)


def test_galois_model_is_a_field_mod_p():
    m = pt.GaloisModel(2, 1, 3)
    nonzero = [a for a in m.elements() if a != m.zero]
    assert all(any(m.mul(a, b) == m.one for b in nonzero) for a in nonzero)


def test_names_round_trip():
    models = [pt.ZMod(12), pt.GaloisModel(3, 2, 2), pt.PhiModel(pt.group_of("Z/2 x Z/4")),
              pt.ProductModel([pt.ZMod(16), pt.GaloisModel(2, 2, 2)]), pt.f2xy_model()]
    for m in models:
        assert all(m.parse(m.name(a)) == a for a in m.elements())


@pytest.mark.parametrize("model,n", [(pt.ZMod(4), 4), (pt.ZMod(12), 3), (pt.GaloisModel(2, 2, 2), 3)])
def test_planted_matrices_and_tampered_inverse(model, n):
    rnd = random.Random(4)
    case = pt.make_matrix(model, n, True, rnd)
    inv = _inverse_by_search(model, case.A)
    assert pt.inverse_ok(case, inv)
    bad = [row[:] for row in inv]
    bad[0][0] = model.add(bad[0][0], model.one)
    assert not pt.inverse_ok(case, bad)
    assert not pt.inverse_ok(case, None)
    singular = pt.make_matrix(model, n, False, rnd)
    assert singular.det == model.zero
    assert _det_by_cofactors(model, singular.A) == model.zero
    assert _det_by_cofactors(model, case.A) == case.det


def _det_by_cofactors(m, A):
    if len(A) == 1:
        return A[0][0]
    acc = m.zero
    for c in range(len(A)):
        minor = [row[:c] + row[c + 1:] for row in A[1:]]
        term = m.mul(A[0][c], _det_by_cofactors(m, minor))
        acc = m.add(acc, m.neg(term) if c % 2 else term)
    return acc


def _inverse_by_search(m, A):
    """Columns of A^-1 found one by one by exhaustive search."""
    n = len(A)
    cols = []
    for c in range(n):
        target = [m.one if r == c else m.zero for r in range(n)]
        col = next(v for v in itertools.product(m.elements(), repeat=n)
                   if all(m.total(m.mul(A[r][k], v[k]) for k in range(n)) == target[r] for r in range(n)))
        cols.append(col)
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def _charpoly_by_cofactors(m, A):
    """det(X·E - A) over polynomials with model coefficients, lowest degree first."""

    def padd(a, b):
        k = max(len(a), len(b))
        a, b = a + [m.zero] * (k - len(a)), b + [m.zero] * (k - len(b))
        return [m.add(x, y) for x, y in zip(a, b)]

    def pmul(a, b):
        out = [m.zero] * (len(a) + len(b) - 1)
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                out[s + t] = m.add(out[s + t], m.mul(x, y))
        return out

    def det(grid):
        if len(grid) == 1:
            return grid[0][0]
        acc = [m.zero]
        for c in range(len(grid)):
            term = pmul(grid[0][c], det([row[:c] + row[c + 1:] for row in grid[1:]]))
            acc = padd(acc, [m.neg(v) for v in term] if c % 2 else term)
        return acc

    n = len(A)
    return det([[[m.neg(A[i][j]), m.one] if i == j else [m.neg(A[i][j])] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("model", [pt.ZMod(4), pt.ZMod(9), pt.GaloisModel(2, 2, 2)])
def test_charpoly_checker_accepts_truth_and_rejects_tampering(model):
    rnd = random.Random(6)
    for invertible in (True, False):
        case = pt.make_matrix(model, 3, invertible, rnd)
        chi = _charpoly_by_cofactors(model, case.A)
        assert pt.charpoly_ok(case, chi)
        for k in range(len(chi)):
            bad = list(chi)
            bad[k] = model.add(bad[k], model.one)
            assert not pt.charpoly_ok(case, bad)


def test_workload_ops_pass_their_checks(tmp_path):
    import workloads as W

    for wl in W.WORKLOADS.values():
        ops = wl.setup(random.Random(1), 1, tmp_path, W.Tracer())
        assert len(ops) >= 6
        for op in ops[:8]:
            out = op.run()
            assert op.check(out)
            t = W.Tracer()
            with W.chain_probe(t):
                assert op.same(out, op.trace(t))


def test_program_outputs_that_break_the_plant_are_rejected(tmp_path):
    import workloads as W

    ops = W.WORKLOADS["warm_solve"].setup(random.Random(2), 1, tmp_path, W.Tracer())
    solvable = next(op for op in ops if op.inst.solvable)
    verdict, names, witness, verified = solvable.run()
    wrong = dict(names)
    wrong["x0"] = solvable.inst.model.name(solvable.inst.model.add(
        solvable.inst.model.parse(wrong["x0"]), solvable.inst.model.one))
    assert not solvable.check((verdict, wrong, witness, verified))
    assert not solvable.check(("UNSOLVABLE", None, witness, verified))
    assert not solvable.check((verdict, names, witness, False))


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    import workloads as W

    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "warm_solve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
