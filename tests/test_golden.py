"""Golden outputs: verdicts, digests and written files pinned per system.

For every system file in ``corpus/`` and for a seeded set of group,
two-sided, numerical and ring systems, the expected verdict, ``digest()``,
``write_system`` text and ``write_certificate`` text are stored in
``golden_systems.json``; the certificate must also replay through
``verify_certificate``, both as solved and as re-parsed from its text.
The expected values were recorded once and are never regenerated to make a
change pass: a difference here is a behaviour change.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import pytest

from ringsolve import GroupSystem, LinSystem, NumericalSystem, TwoSidedSystem, solve, verify_certificate
from ringsolve.ring import additive_group
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
