"""The subgroup census: every instance on a subgroup of GL2(F_p) that a
few of its elements generate, run through every checker and the exact
leakage. ``analysis`` forwards ``search_instances``, so only ``search``
compiles this module.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

from . import actions, analysis
from .actions import ActionInstance, DEFAULT_WORK_CAP, _instance_on, instance_to_descriptor
from .checks import ConditionReport, commutator_fixed_carrier_points, secret_square_points
from .errors import WorkCapExceeded
from .groups import FiniteGroup, commutator_subgroup, enumerate_gl2
from .matrices import Mat2
from .records import Frozen

__all__ = ["SearchEntry", "SearchReport", "search_instances"]


class SearchEntry(Frozen):
    """One examined instance: its rebuildable descriptor and verdicts."""

    __slots__ = _fields = ("descriptor", "group_order", "abelian", "reports", "leakage", "skipped",
                           "candidate")

    def __init__(self, descriptor: dict, group_order: int, abelian: bool,
                 reports: tuple[ConditionReport, ...], leakage: Optional[analysis.LeakageReport],
                 skipped: dict[str, int], candidate: bool) -> None:
        self._assign(descriptor, group_order, abelian, reports, leakage, skipped, candidate)


class SearchReport(Frozen):
    """Census of instances built from small generating sets."""

    __slots__ = _fields = ("p", "max_generators", "entries", "candidates", "complete",
                           "subgroups_examined")

    def __init__(self, p: int, max_generators: int, entries: tuple[SearchEntry, ...],
                 candidates: tuple[str, ...], complete: bool, subgroups_examined: int) -> None:
        self._assign(p, max_generators, entries, candidates, complete, subgroups_examined)


def _entry_for_instance(
    instance: ActionInstance, cap: int, with_leakage: bool
) -> SearchEntry:
    reports = []
    skipped: dict[str, int] = {}
    group = instance.group

    # The checkers and the leakage are read from ``actions`` and
    # ``analysis`` when they run, so a traced run wraps these calls.
    fixed = actions.is_commutator_fixed_set(secret_square_points(instance), group, instance.name)
    reports.append(fixed)
    for checker in (actions.check_masking_coverage, actions.check_transcript_equivalence):
        try:
            reports.append(checker(instance, cap=cap))
        except WorkCapExceeded as exc:
            skipped[exc.job] = exc.estimate

    leakage = None
    if with_leakage:
        try:
            leakage = analysis.exact_mutual_information(instance, cap=cap)
        except WorkCapExceeded as exc:
            skipped[exc.job] = exc.estimate

    candidate = (
        len(instance.secret_domain) > 1
        and not skipped
        and all(r.passed for r in reports)
        and leakage is not None
        and leakage.zero_leakage
    )
    return SearchEntry(
        descriptor=instance_to_descriptor(instance),
        group_order=len(group),
        abelian=group.is_abelian,
        reports=tuple(reports),
        leakage=leakage,
        skipped=skipped,
        candidate=candidate,
    )


def _census_subgroups(
    ambient: FiniteGroup, max_generators: int, budget: int
) -> tuple[dict[frozenset, tuple[int, ...]], bool]:
    """Every subgroup of ``ambient`` that at most ``max_generators`` of
    its elements generate, as its set of ambient indices, mapped to the
    first combination of ambient indices, size by size in
    ``combinations`` order, that generates it.

    <g, h, ...> depends only on <g>, <h>, ...: each element is closed
    into its cyclic subgroup once, by powers, and only tuples of the
    least generators of cyclic subgroups are joined. The first
    combination is always such a tuple: trading an element for a smaller
    generator of its cyclic subgroup gives an earlier combination, or,
    when that generator is already in it, a smaller one. A tuple in which
    one cyclic subgroup contains another generates what a smaller tuple
    does, so it is skipped. Joins close by the right-multiplication rows
    of their least generators only.

    ``budget`` pays one unit per group product: a power, an entry of a
    right-multiplication row, and k per element of a k-generator join.
    The first charge that overdraws it ends the census, which returns the
    subgroups found so far and False.
    """
    p, residues = ambient.p, ambient.residues
    n, q = len(residues), p * p
    # Ambient index of each matrix code ((a*p + b)*p + c)*p + d, and of
    # each element its two rows as vector codes a*p + b and c*p + d.
    position = [-1] * (q * q)
    for i, (a, b, c, d) in enumerate(residues):
        position[((a * p + b) * p + c) * p + d] = i
    rows_of = [(a * p + b, c * p + d) for a, b, c, d in residues]
    # act[g][v]: vector code of v * g; a product x * g is the element of
    # the images of x's two rows.
    act = ambient._point_rows
    identity = position[p * q + 1]

    subgroups: dict[frozenset, tuple[int, ...]] = {}
    for g in range(n):
        moved = act[g]
        powers = [g]
        x = g
        while x != identity:
            top, bottom = rows_of[x]
            x = position[moved[top] * q + moved[bottom]]
            powers.append(x)
        budget -= len(powers)
        if budget < 0:
            return subgroups, False
        subgroups.setdefault(frozenset(powers), (g,))
    cyclic = list(subgroups)
    least = [combo[0] for combo in subgroups.values()]
    if max_generators == 1:
        return subgroups, True

    right_rows = []
    for g in least:
        budget -= n
        if budget < 0:
            return subgroups, False
        moved = act[g]
        right_rows.append([position[moved[top] * q + moved[bottom]] for top, bottom in rows_of])
    inside = [{j for j, g in enumerate(least) if g in sub and j != i} for i, sub in enumerate(cyclic)]
    whole = frozenset(range(n))
    # A generating set never needs more cyclic subgroups than there are.
    for size in range(2, min(max_generators, len(least)) + 1):
        for combo in combinations(range(len(least)), size):
            if any(not inside[i].isdisjoint(combo) for i in combo):
                continue
            first = combo[0]
            key = _join(cyclic[first], right_rows[first], [right_rows[i] for i in combo[1:]], whole)
            budget -= len(key) * size
            if budget < 0:
                return subgroups, False
            subgroups.setdefault(key, tuple(least[i] for i in combo))
    return subgroups, True


def _join(base: frozenset, walk: list[int], others: list[list[int]], whole: frozenset) -> frozenset:
    """The subgroup of the ambient group ``whole`` generated by the
    cyclic subgroup ``base`` and the elements whose right-multiplication
    rows are ``others``.

    The subgroup is a union of cosets x.base: a new element brings its
    whole coset, walked by ``walk``, the row of base's generator. A
    subgroup holding more than half of the ambient group is all of it
    (its order divides |G|), so the closure stops there.
    """
    order, half = len(base), len(whole) // 2
    seen = set(base)
    todo = list(base)
    for x in todo:
        for row in others:
            y = row[x]
            if y not in seen:
                for _ in range(order):
                    seen.add(y)
                    todo.append(y)
                    y = walk[y]
                if len(seen) > half:
                    return whole
    return frozenset(seen)


def search_instances(
    p: int,
    max_generators: int = 2,
    *,
    cap: Optional[int] = None,
    with_leakage: bool = True,
) -> SearchReport:
    """Enumerate subgroup closures of small generator subsets and test
    every resulting instance.

    Subgroups are deduplicated by element set (``_census_subgroups``),
    and each entry is built on the element set its join closed, without
    closing it again. Each subgroup yields a full-plane instance;
    when its commutators fix at least four nonzero carrier points, an
    embedded variant on the same group places a secret square on those
    fixed points. A candidate would pass every check, leak nothing, and
    have more than one secret. None can exist: transcript equivalence
    passes only when |S| = 1, because a reply that fixes v1 sends v3
    back to v. A candidate therefore raises AssertionError, an internal
    error rather than a finding. The census spends ``cap`` one unit per
    group product; a cap-exhausted run returns the entries finished so
    far, flagged incomplete.
    """
    if max_generators < 1:
        raise ValueError(f"max_generators must be at least 1, got {max_generators}")
    cap = DEFAULT_WORK_CAP if cap is None else cap
    ambient = enumerate_gl2(p)
    residues = ambient.residues
    subgroups, complete = _census_subgroups(ambient, max_generators, cap)

    order = sorted(subgroups, key=lambda key: (len(key), sorted(key)))
    entries: list[SearchEntry] = []
    for seq, key in enumerate(order):
        generators = tuple(Mat2.from_values(ambient.domain, *residues[i]) for i in subgroups[key])
        group = ambient._subgroup(sorted(key), generators)
        name = f"subgroup-f{p}-o{len(key)}-{seq}"
        variants = [_instance_on(group, "custom", name=name)]

        if len(commutator_subgroup(group)) > 1:
            fixed = [pt for pt in commutator_fixed_carrier_points(group) if not pt.is_zero]
            k = math.isqrt(len(fixed))
            if k >= 2:
                secrets = range(1, k + 1)
                square = [(s, t) for s in secrets for t in secrets]
                embedding = [(pair, (pt.x.value, pt.y.value)) for pair, pt in zip(square, fixed)]
                variants.append(
                    _instance_on(group, "custom", secrets, secrets, embedding, name=name + "-embedded")
                )

        for instance in variants:
            entries.append(_entry_for_instance(instance, cap, with_leakage))

    candidates = tuple(e.descriptor["name"] for e in entries if e.candidate)
    if candidates:
        raise AssertionError(f"search entry {candidates[0]} is a zero-leakage candidate")

    return SearchReport(
        p=p,
        max_generators=max_generators,
        entries=tuple(entries),
        candidates=candidates,
        complete=complete,
        subgroups_examined=len(order),
    )
