"""Structure theory of finite commutative rings.

Locality, the idempotent base, local decomposition, chain-ring data,
Teichmueller sets, canonical total orders on k-generated local rings, and
the explicit Galois-ring representation.  All results are memoised on the
ring object by ``_memo``; rings are immutable so the caches are sound.  The
local summands and the residue field are the rings on the images of their
maps (``_image_ring``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InternalError, InvalidParameter, PreconditionViolation, Unsupported
from .ring import (
    FiniteRing,
    Poly,
    RingElement,
    _additive_span,
    _index_dtype,
    _memo,
    _row_blocks,
    factorize,
    idempotent_indices,
    nilpotency,
    poly_mod_reduce,
    unit_indices,
)


def _require_commutative(ring: FiniteRing, what: str):
    if not ring.commutative:
        raise Unsupported(f"{what} requires a commutative ring")


def is_local(ring: FiniteRing) -> bool:
    """A finite commutative ring is local iff its only idempotents are 0 and 1."""
    _require_commutative(ring, "is_local")
    return idempotent_indices(ring) == {ring.zero.index, ring.one.index}


def base(ring: FiniteRing) -> set[RingElement]:
    """The unique orthogonal idempotent set splitting R into local summands.

    These are the non-trivial idempotents not expressible as a sum of two
    orthogonal non-trivial idempotents; for a local ring the base is {1}.
    """
    return {ring.element(i) for i in _base_indices(ring)}


@_memo
def _base_indices(ring: FiniteRing) -> frozenset[int]:
    _require_commutative(ring, "base")
    if is_local(ring):
        return frozenset({ring.one.index})
    cand = np.array(sorted(idempotent_indices(ring) - {ring.zero.index, ring.one.index}))
    # drop the sums x + y of orthogonal pairs
    orthogonal = ring.mul(cand[:, None], cand) == ring.zero.index
    return frozenset(cand.tolist()) - frozenset(ring.add(cand[:, None], cand)[orthogonal].tolist())


@dataclass
class LocalSummand:
    """One local summand eR of a decomposition, with its transfer maps.

    ``members[k]`` is the R index of summand element k, and ``proj[r]`` the
    summand index of e·r.
    """

    e: RingElement
    ring: FiniteRing
    members: np.ndarray
    proj: np.ndarray

    def embed(self, i: int) -> int:
        """Summand index -> R index."""
        return int(self.members[i])

    def project(self, r: int) -> int:
        """R index -> summand index."""
        return int(self.proj[r])


def _image_ring(ring: FiniteRing, image: np.ndarray, spec: str, suffix: str = ""):
    """The ring on the image of a ring homomorphism r -> image[r] of R that
    fixes exactly its image: the fixed points reps, named as in R plus
    ``suffix``, under R's operations followed by the map.  Returns (ring,
    reps, proj), proj[r] the element that r maps to."""
    reps = np.flatnonzero(image == np.arange(ring.size))
    pos = np.zeros(ring.size, dtype=np.int64)
    pos[reps] = np.arange(reps.size)
    add, mul = (pos[image[op(reps[:, None], reps)]].astype(_index_dtype(reps.size)) for op in (ring.add, ring.mul))
    names = [ring.format_element(r) + suffix for r in reps.tolist()]
    sub = FiniteRing("table", reps.size, add, mul, int(pos[image[ring.zero.index]]), int(pos[image[ring.one.index]]),
                     commutative=True, names=names, spec=spec)
    return sub, reps, pos[image]


@_memo
def decompose_local(ring: FiniteRing) -> list[LocalSummand]:
    """R as a direct sum of local rings eR over the base idempotents."""
    _require_commutative(ring, "decompose_local")
    base_set = sorted(_base_indices(ring))
    elems = np.arange(ring.size)
    if base_set == [ring.one.index]:
        return [LocalSummand(ring.one, ring, elems, elems)]
    return [LocalSummand(ring.element(e), *_image_ring(ring, ring.mul(e, elems),
                                                       f"local({ring.spec},{ring.format_element(e)})"))
            for e in base_set]


@_memo
def maximal_ideal(ring: FiniteRing) -> frozenset[int]:
    """Non-units of a local ring (indices)."""
    if not is_local(ring):
        raise PreconditionViolation(f"{ring.spec} is not local")
    return frozenset(range(ring.size)) - unit_indices(ring)


def residue_field_size(ring: FiniteRing) -> int:
    return ring.size // len(maximal_ideal(ring))


@dataclass
class LocalData:
    """Residue-field data of a local ring."""

    maximal_ideal: frozenset[int]
    q: int
    field: FiniteRing
    projection: list[int]  # R index -> field index


@_memo
def local_data(ring: FiniteRing) -> LocalData:
    """Residue field R/m as a table ring with the coset projection map."""
    m = maximal_ideal(ring)
    # cosets r + m are labelled by their least member, the first element not yet labelled
    members = np.array(sorted(m))
    label = np.full(ring.size, -1)
    while (unlabelled := label < 0).any():
        r = int(unlabelled.argmax())
        label[ring.add(r, members)] = r
    field, reps, projection = _image_ring(ring, label, f"residue({ring.spec})", suffix="+m")
    return LocalData(maximal_ideal=m, q=len(reps), field=field, projection=projection.tolist())


def ideal_generated(ring: FiniteRing, gens: Sequence[int]) -> frozenset[int]:
    """The ideal sum(g*R) over the generators, as an index set."""
    multiples = ring.mul(np.asarray(gens, dtype=np.int64)[:, None], np.arange(ring.size))
    return frozenset(np.flatnonzero(_additive_span(ring, np.unique(multiples))).tolist())


@dataclass
class ChainData:
    """Chain-ring parameters: m = pi*R, pi^n = 0, residue field of size q,
    and ``tail``, the index of pi^(n-1)."""

    pi: RingElement
    n: int
    q: int
    tail: int


@_memo
def chain_data(ring: FiniteRing) -> ChainData | None:
    """Present iff the ring is local with a principal maximal ideal.

    Fields use pi = 0 with nilpotency 1, so pi^(n-1) = 0^0 = 1 and the
    generic witness tail (0,...,0,pi^(n-1)) degenerates to (0,...,0,1).
    """
    _require_commutative(ring, "chain_data")
    result = None
    if is_local(ring):
        # m is principal iff m/m^2 has dimension <= 1; pi is then the first element outside m^2
        gens = minimal_generators_maximal_ideal(ring)
        if len(gens) <= 1:
            pi = gens[0] if gens else ring.zero
            n = nilpotency(ring, pi)
            if n is None:
                raise InternalError("maximal-ideal generator is not nilpotent")
            result = ChainData(pi=pi, n=n, q=residue_field_size(ring), tail=ring.pow_idx(pi.index, n - 1))
    return result


@_memo
def minimal_generators_maximal_ideal(ring: FiniteRing) -> tuple[RingElement, ...]:
    """Lexicographically first minimal generating tuple of m, smallest k first.

    By Nakayama a tuple generates m iff it spans m/m^2, so this is the greedy
    (lexicographically first) basis of m/m^2: walk m in index order and keep
    x when it lies outside (kept)R + m^2.
    """
    if not is_local(ring):
        raise PreconditionViolation(f"{ring.spec} is not local")
    m = maximal_ideal(ring)
    members = np.array(sorted(m))
    products = np.zeros(ring.size, dtype=bool)
    for rows in _row_blocks(members.size, members.size):
        products[ring.mul(members[rows, None], members)] = True
    kept: list[int] = []
    covered = _additive_span(ring, np.flatnonzero(products))  # the products are closed under R·: m^2
    for x in members.tolist():
        if not covered[x]:
            kept.append(x)
            covered = _additive_span(ring, ring.mul(x, np.arange(ring.size)), covered)
    if ideal_generated(ring, kept) != m:
        raise InternalError("maximal ideal admits no generating set")
    return tuple(ring.element(i) for i in kept)


def teichmuller_set(ring: FiniteRing) -> set[RingElement]:
    """Gamma(R) = { r : r^q = r }, a section of the residue field; memoised."""
    return {ring.element(r) for r in _teichmuller_indices(ring)}


@_memo
def _teichmuller_indices(ring: FiniteRing) -> frozenset[int]:
    if not is_local(ring):
        raise PreconditionViolation(f"{ring.spec} is not local")
    elems = np.arange(ring.size)
    power, base, k = np.full(ring.size, ring.one.index), elems, residue_field_size(ring)
    while k:  # r^q for every r at once, by binary powering
        if k & 1:
            power = ring.mul(power, base)
        base, k = ring.mul(base, base), k >> 1
    return frozenset(np.flatnonzero(power == elems).tolist())


# ---------------------------------------------------------------------------
# canonical order


@dataclass
class RingOrder:
    """A strict total order on a ring's elements with canonical representations.

    Row i of ``words`` is the coefficient word of element i: one Gamma
    position per exponent tuple of ``tuples``, Gamma listed in ``gamma``.
    Both accessors read that row when called: ``key(i)`` is the word as a
    tuple, the sort key, and ``rep(i)`` the canonical coefficient list
    [(exponent tuple, Gamma element index), ...] without its zero
    coefficients.  The table order has the index itself as its one-letter
    word, and no representations.  ``_cache`` memoises data derived from it.
    """

    ring: FiniteRing
    params: tuple[RingElement, tuple[RingElement, ...]] | None
    sorted_elements: list[int]
    words: np.ndarray
    tuples: list[tuple[int, ...]] | None = None
    gamma: list[int] | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def key(self, i: int) -> tuple:
        return tuple(self.words[i].tolist())

    def rep(self, i: int) -> list[tuple[tuple[int, ...], int]]:
        if self.gamma is None:
            raise Unsupported("this order carries no canonical representations")
        coefficients = (self.gamma[pos] for pos in self.words[i].tolist())
        return [(t, a) for t, a in zip(self.tuples, coefficients) if a != self.ring.zero.index]


@_memo
def table_order(ring: FiniteRing) -> RingOrder:
    """The trivial order by element table index, memoised."""
    elems = np.arange(ring.size)
    return RingOrder(ring, None, sorted_elements=elems.tolist(), words=elems[:, None])


def _gamma_order(ring: FiniteRing, alpha_idx: int) -> list[int]:
    """Gamma(R) listed as [0, g(alpha^0), g(alpha^1), ...] via residue powers."""
    data = local_data(ring)
    field = data.field
    q = data.q
    by_residue = {}
    for r in sorted(g.index for g in teichmuller_set(ring)):
        res = data.projection[r]
        if res in by_residue:
            raise InternalError("Teichmuller section is not injective on residues")
        by_residue[res] = r
    abar = data.projection[alpha_idx]
    order = [by_residue[field.zero.index]]
    acc = field.one.index
    for _ in range(q - 1):
        order.append(by_residue[acc])
        acc = field.mul_idx(acc, abar)
    if len(set(order)) != q:
        raise InvalidParameter("alpha does not project to a primitive residue")
    return order


def _is_primitive_residue(data: LocalData, residue_idx: int) -> bool:
    field = data.field
    if residue_idx == field.zero.index:
        return False
    acc = residue_idx
    order = 1
    while acc != field.one.index:
        acc = field.mul_idx(acc, residue_idx)
        order += 1
    return order == data.q - 1


def canonical_order(ring: FiniteRing, alpha: RingElement, pis: Sequence[RingElement]) -> RingOrder:
    """The total order induced by canonical polynomial expressions.

    Every element is written uniquely as a Gamma-combination of monomials
    pi_1^{i_1}...pi_k^{i_k} (exponents below each nilpotency, tuples in lex
    order), via the greedy recursion that picks, at each exponent tuple, the
    least Gamma coefficient whose subtraction lands in the ideal spanned by
    the later monomials.  Elements are compared by their coefficient words,
    with Gamma ordered 0 < alpha^0 < alpha^1 < ...

    The recursion runs on every element at once, one exponent tuple at a
    time: all Gamma candidates are subtracted from the residuals of a block
    of elements, and each element takes the first candidate that lands in
    the tail span, held as a mask.
    """
    if not is_local(ring):
        raise PreconditionViolation(f"{ring.spec} is not local")
    data = local_data(ring)
    if not _is_primitive_residue(data, data.projection[alpha.index]):
        raise InvalidParameter("alpha must project to a primitive residue element")
    m = maximal_ideal(ring)
    pi_idx = [p.index for p in pis]
    if ideal_generated(ring, pi_idx) != m:
        raise InvalidParameter("the pi tuple must generate the maximal ideal")
    gamma = _gamma_order(ring, alpha.index)
    nilps = [nilpotency(ring, p) for p in pis]
    if any(n is None for n in nilps):
        raise InvalidParameter("maximal-ideal generators must be nilpotent")
    tuples = list(itertools.product(*(range(n) for n in nilps))) or [()]
    tuples.sort()
    monomials = [functools.reduce(ring.mul_idx, map(ring.pow_idx, pi_idx, t), ring.one.index) for t in tuples]
    # allowed[k] masks the additive span of { M(t')*r : t' > tuples[k], r in R }
    elems = np.arange(ring.size)
    allowed = [elems == ring.zero.index]
    for mono in reversed(monomials[1:]):
        allowed.insert(0, _additive_span(ring, ring.mul(mono, elems), allowed[0]))
    words = np.empty((ring.size, len(tuples)), dtype=np.int64)
    residual = elems.copy()
    for k, mono in enumerate(monomials):
        multiples = ring.mul(np.array(gamma), mono)  # a*M(t) for each Gamma element a, in Gamma order
        for rows in _row_blocks(ring.size, len(gamma)):
            diff = ring.sub(residual[rows, None], multiples)
            fits = allowed[k][diff]
            chosen = (np.arange(rows.size), fits.argmax(axis=1))  # the least fitting Gamma position
            found = fits[chosen]
            if not found.all():
                r = int(rows[found.argmin()])
                raise InternalError(f"no canonical coefficient at {tuples[k]} for element {r}")
            words[rows, k] = chosen[1]
            residual[rows] = diff[chosen]
    if (residual != ring.zero.index).any():
        raise InternalError("canonical representation did not terminate at zero")
    order = np.lexsort(words.T[::-1])  # the first column is the primary key
    if not (words[order[1:]] != words[order[:-1]]).any(axis=1).all():
        raise InternalError("canonical keys are not distinct")
    return RingOrder(
        ring=ring,
        params=(alpha, tuple(pis)),
        sorted_elements=order.tolist(),
        words=words,
        tuples=tuples,
        gamma=gamma,
    )


@_memo
def canonical_params(ring: FiniteRing) -> tuple[RingElement, tuple[RingElement, ...]]:
    """Deterministic default parameters for canonical_order.

    alpha: the first element in table order projecting to a primitive
    residue; pi: the lexicographically first minimal generating tuple of m.
    """
    if not is_local(ring):
        raise PreconditionViolation(f"{ring.spec} is not local")
    data = local_data(ring)
    alpha = None
    for r in range(ring.size):
        if _is_primitive_residue(data, data.projection[r]):
            alpha = ring.element(r)
            break
    if alpha is None:
        raise InternalError("no element projects to a primitive residue")
    return alpha, minimal_generators_maximal_ideal(ring)


@_memo
def default_order(ring: FiniteRing) -> RingOrder:
    """canonical_order at canonical_params, memoised."""
    return canonical_order(ring, *canonical_params(ring))


# ---------------------------------------------------------------------------
# Galois rings


@_memo
def is_galois_ring(ring: FiniteRing) -> tuple[int, int, int] | None:
    """(p, n, r) iff the ring is local with maximal ideal p*R; else None."""
    _require_commutative(ring, "is_galois_ring")
    result = None
    if is_local(ring):
        char = factorize(ring.characteristic())
        if len(char) == 1:
            ((p, n),) = char
            m = maximal_ideal(ring)
            p_elem = ring.from_int(p).index
            p_ideal = frozenset(ring.mul(p_elem, np.arange(ring.size)).tolist())
            if p_ideal == m:
                size_log = dict(factorize(ring.size)).get(p, 0)
                if p**size_log == ring.size and size_log % n == 0:
                    result = (p, n, size_log // n)
    return result


@dataclass
class GaloisRep:
    """The explicit isomorphism R = Z_{p^n}[X]/(f(X)).

    ``g`` is the minimal polynomial over Z_p of the primitive residue
    alpha-bar; ``f`` lifts g coefficientwise by b_i = p^n - p + a_i;
    ``beta`` is a root of f in R and ``iota`` maps each element to the
    unique coefficient tuple h with h(beta) = a.
    """

    p: int
    n: int
    r: int
    f: Poly
    g: Poly
    alpha: RingElement
    beta: RingElement
    iota: dict[int, tuple[int, ...]]
    iota_inv: dict[tuple[int, ...], int]

    @property
    def q(self) -> int:
        return self.p**self.n


def _minpoly_over_prime(field: FiniteRing, p: int, alpha_idx: int, r: int) -> Poly:
    """Monic degree-r polynomial over Z_p vanishing at alpha in the residue field."""
    powers = [field.one.index]
    for _ in range(r):
        powers.append(field.mul_idx(powers[-1], alpha_idx))
    # find c_0..c_{r-1} over Z_p with sum(c_t * alpha^t) = alpha^r
    for combo in itertools.product(range(p), repeat=r):
        acc = field.zero.index
        for c, pw in zip(combo, powers):
            acc = field.add_idx(acc, field.scalar_idx(c, pw))
        if acc == powers[r]:
            coeffs = [(-c) % p for c in combo] + [1]
            return Poly(tuple(coeffs))
    raise InternalError("primitive residue has no degree-r minimal polynomial")


@_memo
def galois_representation(ring: FiniteRing) -> GaloisRep:
    """Compute the GaloisRep of a Galois ring; exhaustive root/coefficient search."""
    pnr = is_galois_ring(ring)
    if pnr is None:
        raise PreconditionViolation(f"{ring.spec} is not a Galois ring")
    p, n, r = pnr
    q = p**n
    data = local_data(ring)
    alpha, _ = canonical_params(ring)
    g = _minpoly_over_prime(data.field, p, data.projection[alpha.index], r)
    f_coeffs = [(q - p + a) % q for a in g.coeffs[:-1]] + [1]
    f = Poly(tuple(f_coeffs))
    beta_idx = None
    for b in range(ring.size):
        acc = ring.zero.index
        for t, c in enumerate(f.coeffs):
            acc = ring.add_idx(acc, ring.scalar_idx(c, ring.pow_idx(b, t)))
        if acc == ring.zero.index:
            beta_idx = b
            break
    if beta_idx is None:
        raise InternalError(f"the Galois polynomial {f} has no root in {ring.spec}")
    beta = ring.element(beta_idx)
    beta_powers = [ring.one.index]
    for _ in range(r - 1):
        beta_powers.append(ring.mul_idx(beta_powers[-1], beta_idx))
    iota: dict[int, tuple[int, ...]] = {}
    iota_inv: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(range(q), repeat=r):
        acc = ring.zero.index
        for c, pw in zip(combo, beta_powers):
            acc = ring.add_idx(acc, ring.scalar_idx(c, pw))
        if acc in iota:
            raise InternalError("beta powers do not form a basis")
        iota[acc] = combo
        iota_inv[combo] = acc
    if len(iota) != ring.size:
        raise InternalError("iota is not a bijection")
    return GaloisRep(
        p=p, n=n, r=r, f=f, g=g, alpha=alpha, beta=beta, iota=iota, iota_inv=iota_inv
    )


def galois_mul_polys(rep: GaloisRep, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Multiply coefficient tuples mod (f, p^n); helper for isomorphism tests."""
    prod = [0] * (2 * rep.r - 1)
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            prod[s + t] += x * y
    return poly_mod_reduce(prod, rep.f.coeffs, rep.q)
