"""Finite matrix groups: full general-linear enumeration, closure of a
generating set, and the subgroup generated by commutators.

Every group operation here runs on residue 4-tuples ``(a, b, c, d)``
with integer arithmetic mod p. A group holds residue tuples; its
``Mat2`` elements, the public boundary, are built the first time
``FiniteGroup.elements`` is read.
Groups store their elements in one canonical order (lexicographic on the
residue 4-tuple) so every report and enumeration is deterministic and
trivially partitionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional

from .errors import SingularMatrixError, WorkCapExceeded
from .fields import PrimeField, is_prime
from .matrices import Mat2

__all__ = [
    "DEFAULT_PRIME_CAP",
    "FiniteGroup",
    "gl2_order",
    "enumerate_gl2",
    "subgroup_closure",
    "residue_closure",
    "commutator",
    "commutator_subgroup",
    "distinct_commutators",
]

# |GL2(F7)| = 2016 keeps every exhaustive job in this package tractable.
DEFAULT_PRIME_CAP = 7

Residues = tuple[int, int, int, int]


def gl2_order(p: int) -> int:
    """Number of invertible 2x2 matrices over F_p."""
    return (p * p - 1) * (p * p - p)


def _mul(p: int, x: Residues, y: Residues) -> Residues:
    """Product x * y of residue matrices."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _inv(p: int, x: Residues) -> Residues:
    """Inverse of an invertible residue matrix."""
    a, b, c, d = x
    di = pow((a * d - b * c) % p, -1, p)
    return (d * di % p, -b * di % p, -c * di % p, a * di % p)


def residue_closure(
    p: int, gens: list[Residues], max_order: Optional[int] = None
) -> dict[Residues, None]:
    """Breadth-first orbit of the identity under right multiplication by
    ``gens``, which must be invertible; in a finite group this already
    contains every inverse. A closure that outgrows ``max_order``
    elements is refused with ``WorkCapExceeded``."""
    ident = (1, 0, 0, 1)
    seen = {ident: None}
    frontier = [ident]
    bound = gl2_order(p)
    while frontier:
        grown = []
        for a, b, c, d in frontier:
            for e, f, g, h in gens:
                y = ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)
                if y not in seen:
                    seen[y] = None
                    grown.append(y)
        frontier = grown
        if len(seen) > bound:
            raise AssertionError(f"closure outgrew |GL2(F{p})| = {bound}")
        if max_order is not None and len(seen) > max_order:
            raise WorkCapExceeded("subgroup-closure", len(seen), max_order)
    return seen


@dataclass(frozen=True)
class FiniteGroup:
    """An explicit finite group of invertible prime-field matrices.

    ``residues`` holds the elements as residue 4-tuples, deduplicated and
    sorted; ``elements`` is their ``Mat2`` view, built on first use. The
    recorded generators are provenance only (empty means the group was
    enumerated as a whole family). Build groups with ``from_residues`` or
    ``from_elements``, which validate them.
    """

    domain: PrimeField
    residues: tuple[Residues, ...]
    generators: tuple[Mat2, ...] = ()

    @staticmethod
    def from_elements(mats: Iterable[Mat2], generators: tuple[Mat2, ...] = ()) -> "FiniteGroup":
        unique = list({m: None for m in mats})
        if not unique:
            raise ValueError("a group needs at least one element")
        domains = {m.domain for m in unique}
        if len(domains) != 1:
            raise ValueError("group elements must share one scalar domain")
        domain = domains.pop()
        if not isinstance(domain, PrimeField):
            raise ValueError("finite groups are supported over prime fields only")
        return FiniteGroup.from_residues(domain, (m.residues() for m in unique), generators)

    @staticmethod
    def from_residues(
        field: PrimeField, residues: Iterable[Residues], generators: tuple[Mat2, ...] = ()
    ) -> "FiniteGroup":
        """Validate residue 4-tuples as a group over ``field``: residues
        in [0, p), the identity, nonzero determinants and closure under
        inversion are checked here, closure under products only by
        ``validate_closure``."""
        p = field.p
        ordered = tuple(sorted(set(residues)))
        if not ordered:
            raise ValueError("a group needs at least one element")
        if not all(0 <= v < p for r in ordered for v in r):
            raise ValueError(f"group element residues must lie in [0, {p})")
        members = set(ordered)
        if (1, 0, 0, 1) not in members:
            raise ValueError("group must contain the identity matrix")
        for r in ordered:
            a, b, c, d = r
            if (a * d - b * c) % p == 0:
                raise SingularMatrixError(f"group element {Mat2.from_values(field, *r)} is singular")
            if _inv(p, r) not in members:
                raise ValueError(
                    f"group is not closed under inversion at {Mat2.from_values(field, *r)}"
                )
        return FiniteGroup(field, ordered, generators)

    @cached_property
    def elements(self) -> tuple[Mat2, ...]:
        """The elements as ``Mat2``, in residue order."""
        scalars = self.domain.elements()
        return tuple(Mat2(*(scalars[v] for v in r)) for r in self.residues)

    @property
    def p(self) -> int:
        return self.domain.p

    @property
    def identity_index(self) -> int:
        return self._residue_index[(1, 0, 0, 1)]

    @property
    def identity(self) -> Mat2:
        return self.elements[self.identity_index]

    @cached_property
    def _residue_index(self) -> dict[Residues, int]:
        return {r: i for i, r in enumerate(self.residues)}

    def index_of(self, m: Mat2) -> Optional[int]:
        """Position of ``m`` in ``residues``, or None for a non-member."""
        if m.domain != self.domain:
            return None
        return self._residue_index.get(m.residues())

    @cached_property
    def inverse_indices(self) -> tuple[int, ...]:
        p, index = self.p, self._residue_index
        return tuple(index[_inv(p, r)] for r in self.residues)

    @cached_property
    def is_abelian(self) -> bool:
        p, res = self.p, self.residues
        for i, g in enumerate(res):
            for h in res[i + 1 :]:
                if _mul(p, g, h) != _mul(p, h, g):
                    return False
        return True

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self) -> Iterator[Mat2]:
        return iter(self.elements)

    @cached_property
    def multiplication_table(self) -> tuple[tuple[int, ...], ...]:
        """Index table for g*h; quadratic, so only built for small groups."""
        if len(self) ** 2 > 1_000_000:
            raise RuntimeError(f"multiplication table too large for order {len(self)}")
        p, res, index = self.p, self.residues, self._residue_index
        return tuple(tuple(index[_mul(p, g, h)] for h in res) for g in res)

    def validate_closure(self) -> None:
        """Full quadratic closure check; used by tests on small groups."""
        p, res, index = self.p, self.residues, self._residue_index
        for g in res:
            for h in res:
                if _mul(p, g, h) not in index:
                    raise ValueError(
                        f"not closed: {self.elements[index[g]]} * {self.elements[index[h]]}"
                        " escapes the element set"
                    )


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
    group = FiniteGroup.from_residues(
        PrimeField(p),
        (m for m in product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p != 0),
    )
    if len(group) != gl2_order(p):
        raise AssertionError(f"found {len(group)} invertible matrices, not {gl2_order(p)}")
    return group


def subgroup_closure(
    generators: Iterable[Mat2], *, max_order: Optional[int] = None
) -> FiniteGroup:
    """Smallest subgroup containing the generators.

    Breadth-first orbit of the identity under right multiplication by the
    generators; in a finite setting this already contains all inverses,
    which ``from_residues`` re-verifies. With ``max_order``, a closure
    that grows past that many elements is refused with
    ``WorkCapExceeded`` while it runs.
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
    unique_gens = tuple(sorted({g: None for g in gens}, key=Mat2.residues))
    seen = residue_closure(domain.p, [g.residues() for g in unique_gens], max_order)
    return FiniteGroup.from_residues(domain, seen, generators=unique_gens)


def commutator(g: Mat2, h: Mat2) -> Mat2:
    """The product h^-1 * g^-1 * h * g; identity exactly when g, h commute."""
    return ((h.inverse() @ g.inverse()) @ h) @ g


def _commutator_residues(group: FiniteGroup) -> list[Residues]:
    """Sorted distinct h^-1 g^-1 h g over all ordered element pairs."""
    p, res = group.p, group.residues
    pairs = list(zip(res, (res[j] for j in group.inverse_indices)))
    out = set()
    for (g0, g1, g2, g3), (j0, j1, j2, j3) in pairs:  # g and g^-1
        for (h0, h1, h2, h3), (k0, k1, k2, k3) in pairs:  # h and h^-1
            # x = h^-1 g^-1, then y = x h, then y g.
            x0 = (k0 * j0 + k1 * j2) % p
            x1 = (k0 * j1 + k1 * j3) % p
            x2 = (k2 * j0 + k3 * j2) % p
            x3 = (k2 * j1 + k3 * j3) % p
            y0 = (x0 * h0 + x1 * h2) % p
            y1 = (x0 * h1 + x1 * h3) % p
            y2 = (x2 * h0 + x3 * h2) % p
            y3 = (x2 * h1 + x3 * h3) % p
            out.add(
                (
                    (y0 * g0 + y1 * g2) % p,
                    (y0 * g1 + y1 * g3) % p,
                    (y2 * g0 + y3 * g2) % p,
                    (y2 * g1 + y3 * g3) % p,
                )
            )
    return sorted(out)


@lru_cache(maxsize=None)
def distinct_commutators(group: FiniteGroup) -> tuple[Mat2, ...]:
    """Deduplicated commutators over all ordered element pairs, sorted."""
    scalars = group.domain.elements()
    return tuple(Mat2(*(scalars[v] for v in r)) for r in _commutator_residues(group))


@lru_cache(maxsize=None)
def commutator_subgroup(group: FiniteGroup) -> FiniteGroup:
    """Subgroup generated by all pairwise commutators.

    The generated subgroup is normal by construction, but normality is
    re-verified on the output rather than assumed, to guard the closure
    implementation itself.
    """
    sub = subgroup_closure(distinct_commutators(group))
    p, members = group.p, sub._residue_index
    for x, xi in zip(group.residues, group.inverse_indices):
        x_inv = group.residues[xi]
        for c in sub.residues:
            if _mul(p, _mul(p, x_inv, c), x) not in members:
                raise AssertionError(
                    "commutator closure failed its normality check; closure is buggy"
                )
    return sub
