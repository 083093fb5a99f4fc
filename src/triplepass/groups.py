"""Finite matrix groups: full general-linear enumeration, closure of a
generating set, commutators and the commutator subgroup.

Every group operation here runs on residue 4-tuples ``(a, b, c, d)``
with integer arithmetic mod p. A group holds residue tuples; its
``Mat2`` elements, the public boundary, are built the first time
``FiniteGroup.elements`` is read.
Groups store their elements in one canonical order (lexicographic on the
residue 4-tuple) so every report and enumeration is deterministic and
trivially partitionable.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from operator import add
from typing import Iterable, Iterator, Optional

from .errors import SingularMatrixError, TriplePassError, WorkCapExceeded
from .fields import PrimeField, is_prime
from .matrices import Mat2
from .records import Frozen, setfield

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


def _column_table(p: int, u: int, w: int, scale: int) -> list[int]:
    """((x*u + y*w) mod p) * scale at index x*p + y. With w != 0 each
    x-block is the line y -> y*w rotated by x*u/w; with w = 0 it is
    constant."""
    table: list[int] = []
    if w:
        line = [y * w % p * scale for y in range(p)] * 2
        step = u * pow(w, -1, p) % p
        for x in range(p):
            k = x * step % p
            table += line[k:k + p]
    else:
        for x in range(p):
            table += [x * u % p * scale] * p
    return table


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


class FiniteGroup(Frozen):
    """An explicit finite group of invertible prime-field matrices.

    The constructor is the one way to build a group, and it validates
    what it is given. ``residues`` may be any iterable of residue
    4-tuples; the group holds them deduplicated and sorted, and
    ``elements`` is their ``Mat2`` view, built on first use. Residues in
    [0, p), the identity, nonzero determinants and closure under
    inversion are checked; closure under products is not. The inversion
    check records ``inverse_indices``, the position of each element's
    inverse. The recorded generators are provenance (empty means the
    group was enumerated as a whole family); each must be an element,
    and the generating set starts from them. The hash, the key of the
    cached commutator helpers, is computed once, on construction.
    """

    _fields = ("domain", "residues", "generators")

    def __init__(self, domain: PrimeField, residues: Iterable[Residues],
                 generators: tuple[Mat2, ...] = ()) -> None:
        p = domain.p
        ordered = tuple(sorted(set(residues)))
        if not ordered:
            raise ValueError("a group needs at least one element")
        if not all(0 <= v < p for r in ordered for v in r):
            raise ValueError(f"group element residues must lie in [0, {p})")
        index = {r: i for i, r in enumerate(ordered)}
        if (1, 0, 0, 1) not in index:
            raise ValueError("group must contain the identity matrix")
        inverse = []
        for r in ordered:
            a, b, c, d = r
            if (a * d - b * c) % p == 0:
                raise SingularMatrixError(f"group element {Mat2.from_values(domain, *r)} is singular")
            j = index.get(_inv(p, r))
            if j is None:
                raise ValueError(
                    f"group is not closed under inversion at {Mat2.from_values(domain, *r)}"
                )
            inverse.append(j)
        for g in generators:
            if g.domain != domain or g.residues() not in index:
                raise ValueError(f"generator {g} is not a group element")
        self._assign(domain, ordered, generators)
        setfield(self, "_hash", hash((domain, ordered, generators)))
        setfield(self, "_residue_index", index)
        setfield(self, "inverse_indices", tuple(inverse))

    def __hash__(self) -> int:
        return self._hash

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

    def index_of(self, m: Mat2) -> Optional[int]:
        """Position of ``m`` in ``residues``, or None for a non-member."""
        if m.domain != self.domain:
            return None
        return self._residue_index.get(m.residues())

    @cached_property
    def _point_rows(self) -> list[list[int]]:
        """The action on the plane F_p^2: row g lists, for each point
        (x, y) by index x*p + y, the index of the point (x, y) * g. Each
        row is checked to permute the points.

        The image of (x, y) under [[a, b], [c, d]] is (x*a + y*c,
        x*b + y*d), so its index is a sum of one table of the column
        (a, c), scaled by p, and one of the column (b, d); each distinct
        column's table is built once."""
        p = self.p
        x_tables: dict[tuple[int, int], list[int]] = {}
        y_tables: dict[tuple[int, int], list[int]] = {}
        rows = []
        for g, (a, b, c, d) in enumerate(self.residues):
            xs = x_tables.get((a, c))
            if xs is None:
                xs = x_tables[a, c] = _column_table(p, a, c, p)
            ys = y_tables.get((b, d))
            if ys is None:
                ys = y_tables[b, d] = _column_table(p, b, d, 1)
            row = list(map(add, xs, ys))
            if len(set(row)) != p * p:
                raise TriplePassError(f"group element {self.elements[g]} does not act bijectively")
            rows.append(row)
        return rows

    @cached_property
    def _generating_set(self) -> list[Residues]:
        """A generating set: the recorded generators, then each element,
        in residue order, that the elements kept so far do not reach."""
        gens = [g.residues() for g in self.generators]
        reached = residue_closure(self.p, gens)
        for g in self.residues:
            if g not in reached:
                gens.append(g)
                reached = residue_closure(self.p, gens)
        return gens

    def _subgroup(self, positions: list[int], generators: tuple[Mat2, ...]) -> "FiniteGroup":
        """The subgroup on the sorted element ``positions``, which the
        caller closed from ``generators``; it shares this group's point
        rows."""
        rows = self._point_rows
        sub = FiniteGroup(self.domain, (self.residues[i] for i in positions), generators)
        setfield(sub, "_point_rows", [rows[i] for i in positions])
        return sub

    @cached_property
    def is_abelian(self) -> bool:
        return len(commutator_subgroup(self)) == 1

    def __len__(self) -> int:
        return len(self.residues)

    def __iter__(self) -> Iterator[Mat2]:
        return iter(self.elements)


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
    group = FiniteGroup(
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
    which the constructor re-verifies. With ``max_order``, a closure
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
    gens_res = [g.residues() for g in unique_gens]
    return FiniteGroup(domain, residue_closure(domain.p, gens_res, max_order), unique_gens)


def commutator(g: Mat2, h: Mat2) -> Mat2:
    """The product h^-1 * g^-1 * h * g; identity exactly when g, h commute."""
    return ((h.inverse() @ g.inverse()) @ h) @ g


@lru_cache(maxsize=None)
def distinct_commutators(group: FiniteGroup) -> tuple[Mat2, ...]:
    """Deduplicated commutators over all ordered element pairs, sorted."""
    p, res = group.p, group.residues
    pairs = list(zip(res, (res[j] for j in group.inverse_indices)))  # g and g^-1
    out = {_mul(p, _mul(p, _mul(p, hi, gi), h), g) for g, gi in pairs for h, hi in pairs}
    scalars = group.domain.elements()
    return tuple(Mat2(*(scalars[v] for v in r)) for r in sorted(out))


@lru_cache(maxsize=None)
def commutator_subgroup(group: FiniteGroup) -> FiniteGroup:
    """The commutator subgroup [G, G], as the normal closure of the
    commutators of a generating set S of G (``G._generating_set``).

    That closure lies in [G, G], and G modulo it is generated by the
    commuting images of S, so it is abelian and the closure also
    contains [G, G]. A subgroup N is normal exactly when x^-1 * n * x
    lies in N for every x in S and every n in N; the closure adds the
    conjugates that fail this and closes again until none does, so the
    result is checked to be normal rather than assumed. A re-closure
    that does not grow means the closure itself is buggy.
    """
    p = group.p
    gens = group._generating_set
    inv = {g: _inv(p, g) for g in gens}
    comms = {_mul(p, _mul(p, _mul(p, inv[h], inv[g]), h), g) for g in gens for h in gens}
    normal_gens = sorted(comms)
    members = residue_closure(p, normal_gens)
    while True:
        missing = {
            c for x in gens for n in members if (c := _mul(p, _mul(p, inv[x], n), x)) not in members
        }
        if not missing:
            return FiniteGroup(group.domain, members)
        normal_gens += sorted(missing)
        grown = residue_closure(p, normal_gens)
        if len(grown) <= len(members):
            raise AssertionError("commutator closure failed its normality check; closure is buggy")
        members = grown
