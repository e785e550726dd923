"""Skew-morphism enumeration.

The identity-vertex stabilizer of a connected Cayley map is generated by
a skew-morphism of the underlying group: the automorphism group is the
product of the left translations with the cyclic vertex stabilizer, so
commuting a stabilizer generator past a translation exhibits the power
function. Enumerating skew-morphisms first therefore finds every
connected map with a nontrivial stabilizer without touching the
factorially many maps whose stabilizer is trivial.

For a cyclic group the defining law collapses to a recurrence: with
``w_i = psi^i(1)`` and ``pi`` the power function,

    psi(g+1) = psi(g) + w[pi(g)],      pi(g+1) = sum(pi(w_i) for i < pi(g)),

so pi(g+1) depends on pi(g) alone. The pi-sequence is therefore purely
periodic with period q dividing n, and the increment sequence
``psi(g+1) - psi(g)`` repeats with period q as well. Enumerating the
q-long increment vectors for every proper divisor q of n is complete.
The recurrence also puts every increment in psi's orbit of 1 (it is some
w_i), so a candidate with an increment outside that orbit is dropped at
once; each one left is admitted only after the verbatim skew-morphism
check.
Exponent arithmetic above is modulo the orbit length of 1, which equals
the order of the skew-morphism; the test suite checks the resulting
lists against a full Sym(H) scan at small orders, and the CI pipeline
re-verifies at runtime that every map stabilizer it meets lies in the
enumerated list.
"""

from __future__ import annotations

import functools
from itertools import permutations
from math import gcd

from .errors import CapacityError
from .groups import FiniteGroup, make_cyclic
from .maps import is_skew_morphism
from .perms import Perm

BRUTE_FORCE_CAP = 9
DEFAULT_LEAF_BUDGET = 5_000_000
SKEW_CACHE_SIZE = 32


def brute_force_skew_morphisms(h: FiniteGroup) -> list[Perm]:
    """Scan all of Sym(H) fixing the identity; oracle for the fast search."""
    n = h.order
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute-force skew enumeration capped at order {BRUTE_FORCE_CAP}")
    out = []
    for rest in permutations(range(1, n)):
        phi = (0,) + rest
        if is_skew_morphism(h, phi):
            out.append(phi)
    return sorted(out)


def _proper_divisors(n: int) -> list[int]:
    return [q for q in range(1, n) if n % q == 0]


def _increment_vectors(n: int, q: int):
    """Length-q increment vectors whose partial sums hit q distinct classes mod q
    and whose total D satisfies gcd(D, n) == q.

    The period-q thread structure psi(g + q) = psi(g) + D makes psi a
    bijection exactly when the q partial sums lie in distinct cosets of
    <D> = <q> and D has additive order n/q, which is what these two
    filters say.
    """
    totals = [d for d in range(1, n) if gcd(d, n) == q]
    prefix: list[int] = []

    def grow(s: int, used_residues: int):
        depth = len(prefix)
        if depth == q - 1:
            for d in totals:
                u_last = (d - s) % n
                if u_last:
                    yield prefix + [u_last]
            return
        for u in range(1, n):
            s2 = (s + u) % n
            bit = 1 << (s2 % q)
            if used_residues & bit:
                continue
            prefix.append(u)
            yield from grow(s2, used_residues | bit)
            prefix.pop()

    yield from grow(0, 1 << 0)


def _leaf_count_estimate(n: int, q: int) -> int:
    out = 1
    for j in range(1, q):
        out *= max(1, n * (q - j) // q)
    return out


@functools.lru_cache(maxsize=SKEW_CACHE_SIZE)
def cyclic_skew_morphisms(n: int) -> tuple[Perm, ...]:
    """All skew-morphisms of Z_n (identity included), sorted. Cached per
    order; the tuple is shared, so no caller can change the cached value."""
    h = make_cyclic(n)
    results: set[Perm] = {tuple(range(n))}
    periods = _proper_divisors(n)
    # refuse before searching anything, naming the least period over budget
    for q in periods:
        if _leaf_count_estimate(n, q) > DEFAULT_LEAF_BUDGET:
            raise CapacityError(
                f"skew enumeration for Z_{n} needs more than {DEFAULT_LEAF_BUDGET} "
                f"leaves at period {q}"
            )
    for q in periods:
        for u in _increment_vectors(n, q):
            psi = [0] * n
            acc = 0
            ok = True
            for g in range(1, n):
                acc = (acc + u[(g - 1) % q]) % n
                if acc == 0:
                    ok = False
                    break
                psi[g] = acc
            if not ok or len(set(psi)) != n:
                continue
            # the skew law at y = 1: psi(g+1) - psi(g) = psi^pi(g)(1), so
            # every increment lies in psi's orbit of 1
            orbit, x = {1}, psi[1]
            while x != 1:
                orbit.add(x)
                x = psi[x]
            if not orbit.issuperset(u):
                continue
            phi = tuple(psi)
            if phi not in results and is_skew_morphism(h, phi):
                results.add(phi)
    return tuple(sorted(results))
