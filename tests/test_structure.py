from __future__ import annotations

import itertools
import tracemalloc

import pytest

from conftest import (
    bivariate_nilpotent,
    commutative_fixture_rings,
    f4,
    gr42,
    local_fixture_rings,
    upper_triangular_f2,
    zmod,
)
from ringsolve import (
    InvalidParameter,
    PreconditionViolation,
    Unsupported,
    base,
    build_product,
    build_zmod,
    canonical_order,
    canonical_params,
    chain_data,
    decompose_local,
    galois_representation,
    idempotents,
    is_galois_ring,
    is_local,
    minimal_generators_maximal_ideal,
    teichmuller_set,
)
from ringsolve.oracle import minimal_generators_by_search
from ringsolve.ring import unit_indices
from ringsolve.structure import default_order, galois_mul_polys, local_data, residue_field_size
from ringsolve.sysio import parse_ring_spec


def names(elems):
    return sorted(e.name for e in elems)


def test_is_local_examples():
    assert is_local(zmod(9))
    assert not is_local(zmod(6))
    assert is_local(f4())
    with pytest.raises(Unsupported):
        is_local(upper_triangular_f2())


def test_base_examples():
    assert names(base(zmod(6))) == ["3", "4"]
    assert names(base(zmod(9))) == ["1"]
    z30 = zmod(30)
    sizes = sorted(len({z30.mul_idx(e.index, r) for r in range(30)}) for e in base(z30))
    assert sizes == [2, 3, 5]


def test_base_properties_on_fixtures():
    for ring in (zmod(6), zmod(12), zmod(30), build_product([zmod(2), zmod(9)]), gr42()):
        b = sorted(e.index for e in base(ring))
        for e in b:
            assert ring.mul_idx(e, e) == e
        for e1, e2 in itertools.combinations(b, 2):
            assert ring.mul_idx(e1, e2) == ring.zero.index
        total = ring.zero.index
        for e in b:
            total = ring.add_idx(total, e)
        assert total == ring.one.index
        for summand in decompose_local(ring):
            assert is_local(summand.ring)


def test_decompose_local_examples():
    sizes = sorted(s.ring.size for s in decompose_local(zmod(6)))
    assert sizes == [2, 3]
    g = gr42()
    summands = decompose_local(g)
    assert len(summands) == 1 and summands[0].ring is g
    prod = build_product([zmod(2), zmod(9)])
    assert sorted(s.ring.size for s in decompose_local(prod)) == [2, 9]


def test_decompose_local_reconstruction_and_homomorphism():
    for ring in (zmod(6), zmod(12), build_product([zmod(2), zmod(9)])):
        summands = decompose_local(ring)
        for r in range(ring.size):
            total = ring.zero.index
            for s in summands:
                total = ring.add_idx(total, s.embed(s.project(r)))
            assert total == r
        for s in summands:
            for a, b_ in itertools.product(range(ring.size), repeat=2):
                assert s.project(ring.add_idx(a, b_)) == s.ring.add_idx(s.project(a), s.project(b_))
                assert s.project(ring.mul_idx(a, b_)) == s.ring.mul_idx(s.project(a), s.project(b_))
            assert s.project(ring.one.index) == s.ring.one.index


def test_product_then_decompose_recovers_local_factor_sizes():
    prod = build_product([zmod(4), zmod(9), zmod(5)])
    sizes = sorted(s.ring.size for s in decompose_local(prod))
    assert sizes == [4, 5, 9]
    # a non-local factor is refined into its own local parts
    refined = build_product([zmod(6), zmod(4)])
    assert sorted(s.ring.size for s in decompose_local(refined)) == [2, 3, 4]


def test_chain_data_examples():
    cd = chain_data(zmod(8))
    assert (cd.pi.index, cd.n, cd.q) == (2, 3, 2)
    assert chain_data(bivariate_nilpotent()) is None
    cd4 = chain_data(f4())
    assert cd4 is not None and cd4.pi.index == 0 and cd4.n == 1 and cd4.q == 4
    assert chain_data(zmod(6)) is None  # not local


def test_chain_data_element_form():
    # every element of a chain ring is pi^t * unit
    ring = zmod(8)
    cd = chain_data(ring)
    from ringsolve.ring import unit_indices

    us = unit_indices(ring)
    for x in range(ring.size):
        assert any(
            ring.mul_idx(ring.pow_idx(cd.pi.index, t), u) == x
            for t in range(cd.n + 1)
            for u in us
        )


def test_minimal_generators_examples():
    assert [g.index for g in minimal_generators_maximal_ideal(zmod(8))] == [2]
    r22 = bivariate_nilpotent()
    gens = minimal_generators_maximal_ideal(r22)
    assert [g.name for g in gens] == ["x", "y"]
    assert minimal_generators_maximal_ideal(zmod(5)) == ()
    with pytest.raises(PreconditionViolation):
        minimal_generators_maximal_ideal(zmod(6))


def test_teichmuller_examples():
    assert names(teichmuller_set(zmod(9))) == ["0", "1", "8"]
    assert len(teichmuller_set(f4())) == 4
    assert names(teichmuller_set(zmod(4))) == ["0", "1"]


def test_teichmuller_properties():
    for ring in local_fixture_rings():
        gamma = {t.index for t in teichmuller_set(ring)}
        assert len(gamma) == residue_field_size(ring)
        nonzero = gamma - {ring.zero.index}
        for a, b in itertools.product(nonzero, repeat=2):
            assert ring.mul_idx(a, b) in nonzero
        data = local_data(ring)
        residues = {data.projection[t] for t in gamma}
        assert len(residues) == len(gamma)


def test_canonical_order_f5():
    f5 = zmod(5)
    order = canonical_order(f5, f5.element(2), ())
    assert [f5.format_element(i) for i in order.sorted_elements] == ["0", "1", "2", "4", "3"]


def test_canonical_order_z9_representation():
    z9 = zmod(9)
    alpha, pis = canonical_params(z9)
    assert alpha.index == 2 and [p.index for p in pis] == [3]
    order = canonical_order(z9, alpha, pis)
    # 6 = gamma * 3 where gamma is the Gamma element in position 2 (= 8)
    assert order.rep(6) == [((1,), 8)]


def test_canonical_order_z2():
    z2 = zmod(2)
    order = canonical_order(z2, z2.element(1), ())
    assert order.sorted_elements == [0, 1]


def test_canonical_order_rejects_bad_params():
    z9 = zmod(9)
    with pytest.raises(InvalidParameter):
        canonical_order(z9, z9.element(1), (z9.element(3),))  # 1 is not primitive mod 3
    with pytest.raises(InvalidParameter):
        canonical_order(z9, z9.element(2), ())  # empty tuple does not generate m


def _valid_param_pairs(ring):
    from ringsolve.structure import _is_primitive_residue, ideal_generated, maximal_ideal

    data = local_data(ring)
    alphas = [r for r in range(ring.size) if _is_primitive_residue(data, data.projection[r])]
    m = maximal_ideal(ring)
    k = len(minimal_generators_maximal_ideal(ring))
    if k == 0:
        tuples = [()]
    else:
        members = sorted(m)
        tuples = [
            combo
            for combo in itertools.permutations(members, k)
            if ideal_generated(ring, combo) == m
        ]
    return alphas, tuples


def test_canonical_order_total_and_bijective_small():
    for ring in (zmod(4), zmod(9), f4()):
        alphas, tuples = _valid_param_pairs(ring)
        for a in alphas:
            for pis in tuples:
                order = canonical_order(ring, ring.element(a), tuple(ring.element(p) for p in pis))
                keys = [order.key(i) for i in range(ring.size)]
                assert len(set(keys)) == ring.size
                for i in range(ring.size):
                    rebuilt = ring.zero.index
                    for exps, gamma in order.rep(i):
                        term = gamma
                        for p, e in zip(pis, exps):
                            term = ring.mul_idx(term, ring.pow_idx(p, e))
                        rebuilt = ring.add_idx(rebuilt, term)
                    assert rebuilt == i


def test_canonical_params_examples():
    alpha, pis = canonical_params(f4())
    assert alpha.index == 2  # first element outside {0,1}
    assert pis == ()
    alpha, pis = canonical_params(zmod(8))
    assert [p.index for p in pis] == [2]
    alpha, _ = canonical_params(zmod(3))
    assert alpha.index == 2


def test_is_galois_examples():
    assert is_galois_ring(zmod(9)) == (3, 2, 1)
    assert is_galois_ring(gr42()) == (2, 2, 2)
    assert is_galois_ring(bivariate_nilpotent()) is None
    assert is_galois_ring(zmod(6)) is None  # not local


def test_galois_representation_z9():
    rep = galois_representation(zmod(9))
    assert (rep.p, rep.n, rep.r) == (3, 2, 1)
    assert rep.f.degree == 1
    # iota identifies residues with themselves
    for a in range(9):
        assert rep.iota_inv[rep.iota[a]] == a


def test_galois_representation_invariants():
    for ring in (zmod(9), zmod(4), f4(), gr42(), zmod(25)):
        rep = galois_representation(ring)
        q = rep.q
        # f reduces to g mod p and b_i = p^n - p + a_i
        assert [c % rep.p for c in rep.f.coeffs] == list(rep.g.coeffs)
        assert all(
            (rep.f.coeffs[i] - rep.g.coeffs[i]) % q == (q - rep.p) % q
            for i in range(rep.r)
        )
        # f(beta) = 0 in R
        acc = ring.zero.index
        for t, c in enumerate(rep.f.coeffs):
            acc = ring.add_idx(acc, ring.scalar_idx(c, ring.pow_idx(rep.beta.index, t)))
        assert acc == ring.zero.index
        # g(alpha-bar) = 0 in the residue field
        data = local_data(ring)
        field = data.field
        abar = data.projection[rep.alpha.index]
        acc = field.zero.index
        for t, c in enumerate(rep.g.coeffs):
            acc = field.add_idx(acc, field.scalar_idx(c, field.pow_idx(abar, t)))
        assert acc == field.zero.index


def test_galois_representation_is_ring_isomorphism():
    for ring in (zmod(9), f4(), gr42(), zmod(8), zmod(81)):
        assert ring.size <= 81
        rep = galois_representation(ring)
        q = rep.q
        for a, b in itertools.product(range(ring.size), repeat=2):
            pa, pb = rep.iota[a], rep.iota[b]
            added = tuple((x + y) % q for x, y in zip(pa, pb))
            assert rep.iota[ring.add_idx(a, b)] == added
            mulled = tuple(galois_mul_polys(rep, pa, pb))
            assert tuple(rep.iota[ring.mul_idx(a, b)]) == mulled


def test_galois_representation_requires_galois_ring():
    with pytest.raises(PreconditionViolation):
        galois_representation(bivariate_nilpotent())


def test_f4_galois_polynomial_is_irreducible():
    rep = galois_representation(f4())
    assert rep.n == 1 and rep.r == 2
    from ringsolve.sysio import _is_irreducible_mod_p

    assert _is_irreducible_mod_p(list(rep.g.coeffs), 2)


def _mobius(d: int) -> int:
    sign, k = 1, 2
    while d > 1:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return 0
            sign = -sign
        k += 1
    return sign


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducible_count_mod_p_is_gauss_count(p):
    """Among the monic degree-r polynomials over Z/p, the helper accepts
    (1/r) * sum over d | r of mu(d) * p^(r/d), Gauss's count of irreducibles."""
    from ringsolve.sysio import _is_irreducible_mod_p

    for r in range(1, 5):
        accepted = sum(_is_irreducible_mod_p([*tail, 1], p) for tail in itertools.product(range(p), repeat=r))
        assert r * accepted == sum(_mobius(d) * p ** (r // d) for d in range(1, r + 1) if r % d == 0), r


@pytest.mark.parametrize("q, r, pnr", [(2, 3, (2, 1, 3)), (3, 3, (3, 1, 3)), (4, 2, (2, 2, 2)),
                                       (8, 2, (2, 3, 2)), (9, 2, (3, 2, 2)), (25, 1, (5, 2, 1))])
def test_gr_spec_is_a_galois_ring(q, r, pnr):
    assert is_galois_ring(parse_ring_spec(f"GR({q},{r})")) == pnr


# ---------------------------------------------------------------------------
# array scans and Nakayama generators against their definitions


def _small_local_rings() -> dict:
    """Every local fixture ring or local summand of a fixture ring with at most
    64 elements, and further local rings with non-principal maximal ideals."""
    rings = {s.ring.spec: s.ring for r in commutative_fixture_rings() for s in decompose_local(r) if s.ring.size <= 64}
    for spec in ("phi(Z/2 x Z/4)", "phi(Z/4 x Z/4)", "phi(Z/2 x Z/2 x Z/2)", "Z/27", "Z/4[X]/(X^2)", "Z/2[X]/(X^3)"):
        rings[spec] = parse_ring_spec(spec)
    return rings


SMALL_LOCAL_RINGS = _small_local_rings()


@pytest.mark.parametrize("name", sorted(SMALL_LOCAL_RINGS))
def test_nakayama_generators_match_subset_search(name):
    ring = SMALL_LOCAL_RINGS[name]
    assert minimal_generators_maximal_ideal(ring) == minimal_generators_by_search(ring)


def test_nakayama_generators_cover_non_principal_ideals():
    # the cross-check must include rings that need more than one generator
    assert max(len(minimal_generators_maximal_ideal(r)) for r in SMALL_LOCAL_RINGS.values()) == 3


@pytest.mark.parametrize("build", [
    lambda: build_zmod(12),
    lambda: build_zmod(27),
    lambda: build_product([build_zmod(4), build_zmod(6)]),
    lambda: parse_ring_spec("GR(4,2) x Z/3"),
    bivariate_nilpotent.__wrapped__,
    upper_triangular_f2.__wrapped__,
], ids=["Z/12", "Z/27", "Z/4 x Z/6", "GR(4,2) x Z/3", "F2[x,y]/(x^2,y^2)", "UT2(F2)"])
def test_array_scans_match_definitions(build):
    ring = build()
    one, elems = ring.one.index, range(ring.size)
    # units are two-sided by definition; the array scan looks at x·R only
    two_sided = {x for x in elems if any(ring.mul_idx(x, y) == one == ring.mul_idx(y, x) for y in elems)}
    assert unit_indices(ring) == two_sided
    assert {e.index for e in idempotents(ring)} == {x for x in elems if ring.mul_idx(x, x) == x}
    if not ring.commutative:
        return
    for summand in decompose_local(ring):
        local = summand.ring
        q = residue_field_size(local)
        gamma = {r for r in range(local.size) if local.pow_idx(r, q) == r}
        assert {g.index for g in teichmuller_set(local)} == gamma


def test_cold_structure_of_z4096_builds_no_square_array():
    # a |R|^2 residue array of Z/4096 alone would take 128 MiB
    ring = build_zmod(4096)
    tracemalloc.start()
    try:
        unit_indices(ring)
        order = default_order(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(unit_indices(ring)) == 2048 and sorted(order.sorted_elements) == list(range(4096))
    assert peak < 16 * 2**20, peak
