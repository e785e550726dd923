"""Exact generators for the non-CI map families and the featured CI maps.

Each constructor returns the map together with the claimed subgroup of
its automorphism group and the regular rival subgroup, so the objects
can be revalidated bit for bit instead of rediscovered by search. The
witnesses are built from the library's own machinery: subgroups are
``closure``s of explicit generators, orbits are ``cycles_of`` a
permutation, and Q_16's rotation automorphism is read off
``automorphisms`` of its quaternion subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidOrderError, PreconditionError
from .groups import (
    FiniteGroup,
    GroupIsomorphism,
    Subgroup,
    action_powers,
    automorphisms,
    closure_of,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
    make_semidirect,
)
from .maps import CayleyMap, make_map
from .mapiso import MapMorphism, map_automorphism_group, map_iso_exists
from .perms import (
    Perm,
    PermutationGroup,
    closure,
    compose,
    cycles_of,
    inverse_perm,
    is_regular,
    left_regular_representation,
    _perm_group_isomorphic,
    _search_generators,
    perm_order,
)

ODD_SQUARE_CAP = 7  # largest p for odd_square_map
TWO_POWER_CAP = 6  # largest n for cyclic_2power_map


@dataclass(frozen=True, eq=False)
class WitnessedMap:
    """A map together with a subgroup of its automorphism group and a
    regular rival subgroup distinct from the left translations."""

    map: CayleyMap
    ambient: PermutationGroup
    rival: PermutationGroup
    notes: str = ""

    def revalidate(self) -> None:
        aut = map_automorphism_group(self.map)
        if not self.ambient.is_subgroup_of(aut):
            raise ValueError("ambient is not contained in Aut(map)")
        if not self.rival.is_subgroup_of(self.ambient):
            raise ValueError("rival is not contained in the ambient group")
        if not is_regular(self.rival):
            raise ValueError("rival is not regular")
        if not _perm_group_isomorphic(self.rival, self.map.group):
            raise ValueError("rival is not isomorphic to the map's group")
        hhat = left_regular_representation(self.map.group)
        if self.rival.element_set() == hhat.element_set():
            raise ValueError("rival equals the left-regular copy")


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(p ** 0.5) + 1, 2))


def _perm_of(h: FiniteGroup, fn) -> Perm:
    return tuple(fn(x) for x in h.elements())


def odd_square_map(p: int, kind: str = "cyclic") -> WitnessedMap:
    """Balanced non-CI map over a group of order p^2, p an odd prime.

    kind="cyclic": K = Z_(p^2), beta(x) = (1+p) x, rival = <gamma> with
    gamma(x) = (1+p) x + 1. kind="elementary": K = Z_p x Z_p,
    beta(x, y) = (x+y, y), rival = all (x, y) -> (x+ay+b, y+a).
    In both cases the connection set is a 2p-element orbit of
    alpha(x) = -beta(x) and the rotation is alpha itself.
    """
    if not _is_odd_prime(p):
        raise InvalidOrderError(f"p must be an odd prime, got {p}")
    if p > ODD_SQUARE_CAP:
        raise InvalidOrderError(f"p capped at {ODD_SQUARE_CAP}")
    if kind == "cyclic":
        k_group = make_cyclic(p * p)
        alpha = _perm_of(k_group, lambda x: (-(1 + p) * x) % (p * p))
        rival_gens = [_perm_of(k_group, lambda x: ((1 + p) * x + 1) % (p * p))]
    elif kind == "elementary":
        k_group = make_abelian([p, p])
        # index = x * p + y

        def beta_neg(i: int) -> int:
            x, y = divmod(i, p)
            return ((-x - y) % p) * p + ((-y) % p)

        alpha = _perm_of(k_group, beta_neg)

        def tau(a: int, b: int) -> Perm:
            return _perm_of(
                k_group,
                lambda i: ((i // p + a * (i % p) + b) % p) * p + ((i % p) + a) % p,
            )

        rival_gens = [tau(1, 0), tau(0, 1)]  # the full tau family
    else:
        raise ValueError(f"unknown kind {kind!r}")

    if perm_order(alpha) != 2 * p:
        raise RuntimeError("alpha does not have order 2p")
    # the connection set is the 2p-element alpha-orbit with the least seed
    rotation = next(c for c in cycles_of(alpha) if len(c) == 2 * p)
    m = make_map(k_group, rotation)
    # the map is connected, so the translations by S generate all of them
    ambient = closure([tuple(k_group.table[a]) for a in rotation] + [alpha])
    return WitnessedMap(
        map=m,
        ambient=ambient,
        rival=closure(rival_gens),
        notes=f"order-{p * p} {kind} witness; balanced orbit map of valency {2 * p}",
    )


def cyclic_2power_map(n: int) -> WitnessedMap:
    """Antibalanced non-CI map over Z_(2^n), n >= 4, of valency 8.

    With a = 1 + 2^(n-1), the connection set is
    {1, -1, 3, -3a, a, -a, 3a, -3} in that rotation order; the rival is
    the cyclic regular subgroup generated by x -> a x + 1. At n = 4,
    a = 9 and S is the full odd class mod 16, so the underlying graph is
    K_{8,8}.
    """
    if n < 4:
        raise InvalidOrderError(f"n must be at least 4, got {n}")
    if n > TWO_POWER_CAP:
        raise InvalidOrderError(f"n capped at {TWO_POWER_CAP}")
    order = 2 ** n
    a = 1 + 2 ** (n - 1)
    h = make_cyclic(order)
    rotation = tuple(
        v % order for v in (1, -1, 3, -3 * a, a, -a, 3 * a, -3)
    )
    m = make_map(h, rotation)
    alpha = _perm_of(h, lambda x: a * x % order)
    ambient = closure([tuple(h.table[1]), alpha])
    rival_gen = _perm_of(h, lambda x: (a * x + 1) % order)
    rival = closure([rival_gen])
    if rival.order != order:
        raise RuntimeError("rival is not regular cyclic of full order")
    return WitnessedMap(
        map=m,
        ambient=ambient,
        rival=rival,
        notes=f"antibalanced valency-8 witness over Z_{order}",
    )


def overlap_set(m: CayleyMap, overlap: int) -> frozenset[int]:
    """Elements x with |S intersect (S + x)| equal to ``overlap``.

    Only meaningful for maps over cyclic groups written additively; used
    to pin down the two-step neighbourhood structure of the valency-8
    witness maps. For ``cyclic_2power_map(n)`` with n >= 5 the six-overlap
    set is {2, -2, 2 + 2^(n-1), -2 + 2^(n-1)} mod 2^n; at n = 4 the
    connection set is the full odd class, every even x has overlap 8 and
    the six-overlap set is empty.
    """
    n = m.group.order
    s = m.connection_set
    return frozenset(
        x
        for x in range(n)
        if len(s & {(v + x) % n for v in s}) == overlap
    )


@dataclass(frozen=True, eq=False)
class QuaternionCyclicWitness:
    """Isomorphic but not Cayley-isomorphic maps over the two subgroups of
    order 8 of the generalized quaternion group of order 16."""

    q16: FiniteGroup
    quaternion_subgroup: Subgroup
    cyclic_subgroup: Subgroup
    map_quaternion: CayleyMap
    map_cyclic: CayleyMap
    isomorphism: MapMorphism


def quaternion16_witness() -> QuaternionCyclicWitness:
    """The balanced quaternion map and its cyclic relabelling inside Q_16.

    In Q_16 = <c, a>, the subgroup <a, c^2> is quaternion of order 8 and
    carries the balanced map with rotation (a, c^2, a^-1, c^-2). Its
    rotation automorphism alpha is the member of ``automorphisms`` of that
    subgroup with a -> c^2 and c^2 -> a^-1; {a, c^2} generates it, so
    there is exactly one. The composite of translation by a with alpha is
    a single 8-cycle, and relabelling the vertices along it produces an
    isomorphic map over the cyclic subgroup <c>.
    """
    q16 = make_generalized_quaternion(16)
    half = 8
    c, a = 1, half  # c = c^1 a^0, a = c^0 a^1
    c2 = 2
    q8_members = closure_of(q16, [a, c2])
    q8_sub = Subgroup(q16, q8_members)
    q8 = q8_sub.as_group("Q8<a,c2>")
    rank = {m: i for i, m in enumerate(q8_members)}
    a_i, c2_i = rank[a], rank[c2]
    a_inv_i, c2_inv_i = q8.inverse[a_i], q8.inverse[c2_i]
    m_q = make_map(q8, (a_i, c2_i, a_inv_i, c2_inv_i))

    # alpha: a -> c^2 -> a^-1 -> c^-2 -> a
    alpha = next(f for f in automorphisms(q8) if f(a_i) == c2_i and f(c2_i) == a_inv_i)
    regular_gen = compose(tuple(q8.table[a_i]), alpha.images)

    cyc_members = closure_of(q16, [c])
    cyc_sub = Subgroup(q16, cyc_members)

    # relabel the quaternion map along the regular orbit of the composite
    lam = cycles_of(regular_gen)[0]
    if len(lam) != 8:
        raise RuntimeError("composite does not act regularly")
    lam_inv = {v: k for k, v in enumerate(lam)}
    z8 = cyc_sub.as_group("Z8<c>")
    m_c = make_map(z8, tuple(lam_inv[v] for v in m_q.rotation))
    iso_images = map_iso_exists(m_c, m_q)
    if iso_images is None:
        raise RuntimeError("relabelled map is not isomorphic to the original")
    morphism = MapMorphism(m_c, m_q, lam)
    morphism.validate()
    return QuaternionCyclicWitness(
        q16=q16,
        quaternion_subgroup=q8_sub,
        cyclic_subgroup=cyc_sub,
        map_quaternion=m_q,
        map_cyclic=m_c,
        isomorphism=morphism,
    )


def frobenius_map(
    c_order: int,
    k_group: FiniteGroup,
    action: GroupIsomorphism,
    seed: int,
) -> WitnessedMap:
    """Non-CI map over K x| Z_m from a faithful orbit of the complement.

    The connection set is cO together with its inverses, where O is the
    conjugation orbit of the seed, the cycle of sigma (conjugation by c)
    through it; the rotation interleaves cO with the inverses at offset
    (m+1)/2, which makes its square equal conjugation by c on the
    connection set. The rival is the set of permutations hat(g) sigma^(-j),
    where c^j is g's complement part: sigma^(-j) carries translations to
    translations and j adds up along the quotient by K, so the set is a
    group, generated by K's translations and hat(c) sigma^(-1). It carries
    the generators the regular-subgroup search gives every regular
    subgroup (``_search_generators``).
    """
    m_ord = c_order
    if m_ord < 3 or m_ord % 2 == 0:
        raise InvalidOrderError(f"complement order must be odd and >= 3, got {m_ord}")
    action_powers(k_group, m_ord, action)  # make_semidirect's checks, before the seed's
    nk = k_group.order
    if not (1 <= seed < nk):
        raise PreconditionError("orbit-not-faithful", "seed must be a nontrivial element of K")
    # sigma is the action's inverse on K, so its cycle through the seed has
    # the length of the action's: a rejected seed builds no table
    size = len(next(cyc for cyc in cycles_of(action.images) if seed in cyc))
    if size != m_ord:
        raise PreconditionError(
            "orbit-not-faithful",
            f"conjugation orbit of seed has size {size}, expected {m_ord}",
        )
    h = make_semidirect(k_group, m_ord, action)
    n = h.order
    c = nk  # the element (0, c^1)
    c_inv = h.inverse[c]
    sigma = _perm_of(h, lambda x: h.table[h.table[c_inv][x]][c])

    # the conjugation orbit of the seed, inside K
    cycle = next(cyc for cyc in cycles_of(sigma) if seed in cyc)
    start = cycle.index(seed)
    orbit = cycle[start:] + cycle[:start]
    s_fwd = [h.table[c][k] for k in orbit]
    s_inv = [h.inverse[v] for v in s_fwd]
    if set(s_fwd) & set(s_inv):
        raise RuntimeError("cO meets its inverses; complement order must be odd")
    ell = (m_ord + 1) // 2
    rotation = []
    for i in range(m_ord):
        rotation.append(s_fwd[i])
        rotation.append(s_inv[(ell + i) % m_ord])
    if len(closure_of(h, rotation)) != n:
        raise PreconditionError(
            "generation-fails",
            "the connection set does not generate the group, the map is disconnected",
        )
    m = make_map(h, tuple(rotation))
    ambient = closure([tuple(h.table[g]) for g in rotation] + [sigma])
    rival_elems = closure(
        [tuple(h.table[k]) for k in range(1, nk)]
        + [compose(tuple(h.table[c]), inverse_perm(sigma))]
    ).elements
    return WitnessedMap(
        map=m,
        ambient=ambient,
        rival=PermutationGroup.listed(n, rival_elems, _search_generators(rival_elems)),
        notes=(
            f"frobenius-style witness over {h.name}: rotation squares to "
            "conjugation by the complement generator"
        ),
    )


def z8_cim_maps() -> list[CayleyMap]:
    """The two antibalanced valency-4 maps over Z_8 with full connection set
    of units; both are CI-maps and their shared automorphism group has
    order 32."""
    z8 = make_cyclic(8)
    return [make_map(z8, (1, 3, 5, 7)), make_map(z8, (1, 7, 5, 3))]
