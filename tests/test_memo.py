"""The memo rule: every datum derived from an immutable ring, group or order
is computed once, by ``ring._memo``, and a second call returns the very same
object.  A source guard keeps hand-written caches out of the package."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import bivariate_nilpotent
from ringsolve import parse_ring_spec
from ringsolve.linsys import _chain_valuations, _divider, _pivot_order
from ringsolve.reductions import _cyclic_structure
from ringsolve.ring import additive_group, idempotent_indices, unit_indices
from ringsolve.structure import (
    base,
    canonical_params,
    chain_data,
    decompose_local,
    default_order,
    galois_representation,
    is_galois_ring,
    local_data,
    maximal_ideal,
    minimal_generators_maximal_ideal,
    table_order,
    teichmuller_set,
)

MEMO_RINGS = {
    "Z/12": lambda: parse_ring_spec("Z/12"),
    "GR(4,2)": lambda: parse_ring_spec("GR(4,2)"),
    "Z/2 x Z/4[X]/(X^2)": lambda: parse_ring_spec("Z/2 x Z/4[X]/(X^2)"),
    "F2[x,y]/(x^2,y^2)": bivariate_nilpotent,
    "phi(Z/2 x Z/4)": lambda: parse_ring_spec("phi(Z/2 x Z/4)"),
}

RING_MEMOS = [lambda r: r.characteristic(), unit_indices, idempotent_indices, additive_group,
              lambda r: additive_group(r).exponent(), decompose_local, chain_data, is_galois_ring, table_order]
LOCAL_MEMOS = [maximal_ideal, local_data, minimal_generators_maximal_ideal, canonical_params, default_order,
               lambda r: _cyclic_structure(default_order(r)), lambda r: _cyclic_structure(table_order(r))]
CHAIN_MEMOS = [_chain_valuations, _pivot_order, _divider]
GALOIS_MEMOS = [galois_representation]


def _assert_memoised(ring, functions):
    for fn in functions:
        first = fn(ring)
        assert fn(ring) is first, (ring.spec, fn)


@pytest.mark.parametrize("name", list(MEMO_RINGS))
def test_memoised_functions_return_the_identical_object(name):
    ring = MEMO_RINGS[name]()
    _assert_memoised(ring, RING_MEMOS)
    summands = decompose_local(ring)
    assert len(summands) > 1 or summands[0].ring is ring
    for summand in summands:
        local = summand.ring
        _assert_memoised(local, RING_MEMOS + LOCAL_MEMOS)
        if chain_data(local) is not None:
            _assert_memoised(local, CHAIN_MEMOS)
        if is_galois_ring(local) is not None:
            _assert_memoised(local, GALOIS_MEMOS)
        # the handle sets stay fresh sets over one memoised index set
        assert teichmuller_set(local) == teichmuller_set(local)
        assert teichmuller_set(local) is not teichmuller_set(local)
    assert base(ring) == base(ring) and base(ring) is not base(ring)


def test_chain_data_tail_is_the_last_nonzero_power_of_pi():
    for spec in ("Z/8", "GR(4,2)", "Z/9", "Z/2[X]/(X^3)", "Z/5"):
        ring = parse_ring_spec(spec)
        cd = chain_data(ring)
        assert cd.tail == ring.pow_idx(cd.pi.index, cd.n - 1) != ring.zero.index


def test_image_rings_are_the_rings_on_the_images_of_their_maps():
    ring = parse_ring_spec("Z/2 x Z/4[X]/(X^2)")
    for summand in decompose_local(ring):
        local = summand.ring
        image = summand.members[summand.proj]  # r -> e·r
        assert (image == ring.mul(summand.e.index, np.arange(ring.size))).all()
        assert summand.members[local.zero.index] == ring.zero.index
        assert summand.members[local.one.index] == summand.e.index
        for x in range(local.size):
            for y in range(local.size):
                assert summand.embed(local.mul_idx(x, y)) == ring.mul_idx(summand.embed(x), summand.embed(y))
                assert summand.embed(local.add_idx(x, y)) == ring.add_idx(summand.embed(x), summand.embed(y))
        data = local_data(local)
        assert data.field.size == data.q and data.field.names[data.field.one.index].endswith("+m")


# ---------------------------------------------------------------------------
# source guard

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ringsolve"
# the rule itself, and the one cache keyed by an argument
ALLOWED_FUNCTIONS = {"_memo", "memoised", "group_decompose_cyclic"}


def _cache_uses_outside_the_rule(tree: ast.Module) -> list[int]:
    """Lines that read or write ``<x>._cache[...]`` or call ``_cache.setdefault``
    outside the allowed functions, except the builders' seeds of the
    characteristic."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        is_cache = isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.value, ast.Attribute) \
            and node.value.attr == "_cache"
        if is_cache and (isinstance(node, ast.Subscript) or node.attr == "setdefault") \
                and function not in ALLOWED_FUNCTIONS:
            seed = (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.slice, ast.Constant) and node.slice.value == "characteristic")
            if not seed:
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_hand_written_caches_outside_the_memo_rule():
    offenders = {path.name: lines for path in sorted(SOURCE.glob("*.py"))
                 if (lines := _cache_uses_outside_the_rule(ast.parse(path.read_text())))}
    assert offenders == {}


def test_the_source_guard_sees_a_hand_written_cache():
    tree = ast.parse('def f(ring):\n    if "x" not in ring._cache:\n        ring._cache["x"] = 1\n'
                     '    return ring._cache.setdefault("y", 2)\n')
    assert _cache_uses_outside_the_rule(tree) == [3, 4]
