"""Finite matrix groups: full general-linear enumeration, closure of a
generating set, and the subgroup generated by commutators.

Groups store their elements in one canonical order (lexicographic on the
residue 4-tuple) so every report and enumeration is deterministic and
trivially partitionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Iterator

from .errors import SingularMatrixError
from .fields import PrimeField, is_prime
from .matrices import Mat2

__all__ = [
    "DEFAULT_PRIME_CAP",
    "FiniteGroup",
    "gl2_order",
    "enumerate_gl2",
    "subgroup_closure",
    "commutator",
    "commutator_subgroup",
    "distinct_commutators",
]

# |GL2(F7)| = 2016 keeps every exhaustive job in this package tractable.
DEFAULT_PRIME_CAP = 7


def gl2_order(p: int) -> int:
    """Number of invertible 2x2 matrices over F_p."""
    return (p * p - 1) * (p * p - p)


@dataclass(frozen=True)
class FiniteGroup:
    """An explicit finite group of invertible prime-field matrices.

    ``elements`` is deduplicated and sorted by residue 4-tuple; the
    recorded generators are provenance only (empty means the group was
    enumerated as a whole family).
    """

    elements: tuple[Mat2, ...]
    identity_index: int
    generators: tuple[Mat2, ...] = ()

    @staticmethod
    def from_elements(mats: Iterable[Mat2], generators: tuple[Mat2, ...] = ()) -> "FiniteGroup":
        unique = {m: None for m in mats}
        if not unique:
            raise ValueError("a group needs at least one element")
        domains = {m.domain for m in unique}
        if len(domains) != 1:
            raise ValueError("group elements must share one scalar domain")
        domain = domains.pop()
        if not isinstance(domain, PrimeField):
            raise ValueError("finite groups are supported over prime fields only")
        ordered = tuple(sorted(unique, key=Mat2.residues))
        index = {m: i for i, m in enumerate(ordered)}
        ident = Mat2.identity(domain)
        if ident not in index:
            raise ValueError("group must contain the identity matrix")
        for m in ordered:
            if not m.is_invertible:
                raise SingularMatrixError(f"group element {m} is singular")
            if m.inverse() not in index:
                raise ValueError(f"group is not closed under inversion at {m}")
        return FiniteGroup(ordered, index[ident], generators)

    @property
    def domain(self) -> PrimeField:
        return self.elements[0].domain

    @property
    def identity(self) -> Mat2:
        return self.elements[self.identity_index]

    @cached_property
    def _index_map(self) -> dict[Mat2, int]:
        return {m: i for i, m in enumerate(self.elements)}

    @cached_property
    def inverse_indices(self) -> tuple[int, ...]:
        return tuple(self._index_map[m.inverse()] for m in self.elements)

    @cached_property
    def is_abelian(self) -> bool:
        elems = self.elements
        for i, g in enumerate(elems):
            for h in elems[i + 1 :]:
                if g @ h != h @ g:
                    return False
        return True

    def index(self, m: Mat2) -> int:
        try:
            return self._index_map[m]
        except KeyError:
            raise ValueError(f"{m} is not an element of this group") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Mat2]:
        return iter(self.elements)

    def __contains__(self, m: object) -> bool:
        return m in self._index_map

    @cached_property
    def multiplication_table(self) -> tuple[tuple[int, ...], ...]:
        """Index table for g*h; quadratic, so only built for small groups."""
        if len(self) ** 2 > 1_000_000:
            raise RuntimeError(f"multiplication table too large for order {len(self)}")
        index = self._index_map
        return tuple(
            tuple(index[g @ h] for h in self.elements) for g in self.elements
        )

    def validate_closure(self) -> None:
        """Full quadratic closure check; used by tests on small groups."""
        index = self._index_map
        for g in self.elements:
            for h in self.elements:
                if g @ h not in index:
                    raise ValueError(f"not closed: {g} * {h} escapes the element set")


def enumerate_gl2(p: int, cap: int = DEFAULT_PRIME_CAP) -> FiniteGroup:
    """All invertible 2x2 matrices over F_p, built by determinant filter.

    Refuses primes above ``cap``: the group grows like p^4 and every
    consumer here enumerates it exhaustively.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > cap:
        raise ValueError(
            f"prime {p} exceeds enumeration cap {cap}"
            f" (|GL2(F{p})| = {gl2_order(p)})"
        )
    fp = PrimeField(p)
    scalars = fp.elements()
    mats = [
        Mat2(scalars[a], scalars[b], scalars[c], scalars[d])
        for a, b, c, d in product(range(p), repeat=4)
        if (a * d - b * c) % p != 0
    ]
    group = FiniteGroup.from_elements(mats)
    if len(group) != gl2_order(p):
        raise AssertionError(f"found {len(group)} invertible matrices, not {gl2_order(p)}")
    return group


def subgroup_closure(generators: Iterable[Mat2]) -> FiniteGroup:
    """Smallest subgroup containing the generators.

    Breadth-first orbit of the identity under right multiplication by the
    generators; in a finite setting this already contains all inverses,
    which ``from_elements`` re-verifies.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    domains = {g.domain for g in gens}
    if len(domains) != 1:
        raise ValueError("generators must share one scalar domain")
    domain = domains.pop()
    if not isinstance(domain, PrimeField):
        raise ValueError("closure requires finite domain")
    for g in gens:
        if not g.is_invertible:
            raise SingularMatrixError(f"generator {g} is singular")

    ident = Mat2.identity(domain)
    seen: dict[Mat2, None] = {ident: None}
    frontier = [ident]
    bound = gl2_order(domain.p)
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = x @ g
                if y not in seen:
                    seen[y] = None
                    grown.append(y)
        frontier = grown
        if len(seen) > bound:
            raise AssertionError(f"closure outgrew |GL2(F{domain.p})| = {bound}")
    unique_gens = tuple(sorted({g: None for g in gens}, key=Mat2.residues))
    return FiniteGroup.from_elements(seen, generators=unique_gens)


def commutator(g: Mat2, h: Mat2) -> Mat2:
    """The product h^-1 * g^-1 * h * g; identity exactly when g, h commute."""
    return ((h.inverse() @ g.inverse()) @ h) @ g


@lru_cache(maxsize=None)
def distinct_commutators(group: FiniteGroup) -> tuple[Mat2, ...]:
    """Deduplicated commutators over all ordered element pairs, sorted."""
    inv = {g: g.inverse() for g in group}
    out: dict[Mat2, None] = {}
    for g in group:
        for h in group:
            out[((inv[h] @ inv[g]) @ h) @ g] = None
    return tuple(sorted(out, key=Mat2.residues))


@lru_cache(maxsize=None)
def commutator_subgroup(group: FiniteGroup) -> FiniteGroup:
    """Subgroup generated by all pairwise commutators.

    The generated subgroup is normal by construction, but normality is
    re-verified on the output rather than assumed, to guard the closure
    implementation itself.
    """
    sub = subgroup_closure(distinct_commutators(group))
    for x in group:
        x_inv = x.inverse()
        for c in sub:
            if (x_inv @ c) @ x not in sub:
                raise AssertionError(
                    "commutator closure failed its normality check; closure is buggy"
                )
    return sub
