"""Exhaustive condition checkers. A failing report carries the first
counterexample in lexicographic order, re-checkable from it alone."""

from __future__ import annotations

from typing import Literal, Optional, Sequence

from .actions import (ActionInstance, Point, _require_finite, _within_cap, act, format_point,
                      parse_point)
from .errors import TriplePassError
from .fields import parse_scalar
from .groups import FiniteGroup, Residues, commutator_subgroup, distinct_commutators
from .matrices import format_residues, parse_matrix
from .records import Frozen

__all__ = ["ConditionReport", "is_commutator_fixed_point", "is_commutator_fixed_set",
           "commutator_fixed_carrier_points", "secret_square_points", "check_masking_coverage",
           "check_transcript_equivalence", "recheck_counterexample"]

CONDITION_MASKING = "masking-coverage"
CONDITION_TRANSCRIPT = "transcript-equivalence"
CONDITION_COMM_FIXED = "comm-fixed-set"


class ConditionReport(Frozen):
    """Outcome of one exhaustive condition check.

    ``counterexample`` holds the lexicographically smallest violating
    tuple as literal strings, so a failing report is re-checkable
    without the original in-memory objects. ``work`` counts the inner
    evaluations of a direct lexicographic scan up to the verdict, which
    a checker may derive instead of performing.
    """

    __slots__ = _fields = ("instance", "condition", "passed", "counterexample", "work", "detail")

    def __init__(self, instance: str, condition: str, passed: bool,
                 counterexample: Optional[dict[str, str]], work: int,
                 detail: Optional[dict] = None) -> None:
        self._assign(instance, condition, passed, counterexample, work, detail)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "condition": self.condition,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "work": self.work,
            "detail": self.detail,
        }


def _first_mover(group: FiniteGroup, movers: Sequence[Residues], pt: Point) -> Optional[int]:
    """Index of the first residue matrix in ``movers`` that moves ``pt``,
    or None when all of them fix it."""
    if pt.domain != group.domain:
        raise TriplePassError("matrix and point domains differ")
    p, x, y = group.p, pt.x.value, pt.y.value
    for i, (a, b, c, d) in enumerate(movers):
        if (x * a + y * c) % p != x or (x * b + y * d) % p != y:
            return i
    return None


def is_commutator_fixed_point(
    x: Point,
    group: FiniteGroup,
    mode: Literal["subgroup", "pairwise"] = "subgroup",
) -> bool:
    """Whether x is fixed by every commutator of the group.

    ``subgroup`` mode quantifies over the full subgroup the commutators
    generate; ``pairwise`` mode over single commutators only. The two
    agree because the stabilizer of a point is itself a subgroup; both
    are provided so that agreement is checked, not assumed.
    """
    if not isinstance(group, FiniteGroup):
        raise TriplePassError("commutator-fixed checks require finite group")
    if mode == "subgroup":
        movers = commutator_subgroup(group).residues
    elif mode == "pairwise":
        movers = [c.residues() for c in distinct_commutators(group)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _first_mover(group, movers, x) is None


def is_commutator_fixed_set(
    points: Sequence[Point],
    group: FiniteGroup,
    instance_name: str = "",
) -> ConditionReport:
    """Check every point; a failure carries the first violating pair."""
    if not isinstance(group, FiniteGroup):
        raise TriplePassError("commutator-fixed checks require finite group")
    sub = commutator_subgroup(group)
    work = 0
    for pt in points:
        i = _first_mover(group, sub.residues, pt)
        if i is not None:
            return ConditionReport(
                instance=instance_name,
                condition=CONDITION_COMM_FIXED,
                passed=False,
                counterexample={
                    "point": format_point(pt),
                    "element": format_residues(group.p, sub.residues[i]),
                },
                work=work + i + 1,
            )
        work += len(sub)
    return ConditionReport(
        instance=instance_name,
        condition=CONDITION_COMM_FIXED,
        passed=True,
        counterexample=None,
        work=work,
    )


def commutator_fixed_carrier_points(group: FiniteGroup) -> tuple[Point, ...]:
    """All carrier points fixed by the group's commutator subgroup, in
    lexicographic order."""
    fp, p = group.domain, group.p
    movers = commutator_subgroup(group).residues
    carrier = (Point(fp.scalar(x), fp.scalar(y)) for x in range(p) for y in range(p))
    return tuple(pt for pt in carrier if _first_mover(group, movers, pt) is None)


def secret_square_points(instance: ActionInstance) -> tuple[Point, ...]:
    """The embedded secret square, in lexicographic pair order."""
    _require_finite(instance, "the secret square")
    return tuple(
        instance.secret_pair_point(s, t)
        for s in instance.secret_domain
        for t in instance.secret_domain
    )


def check_masking_coverage(
    instance: ActionInstance, *, cap: Optional[int] = None
) -> ConditionReport:
    """Can one masked point be explained by every candidate secret?

    Passes when for every secret pair, mask, and candidate secret s'
    there are a blinding value t' (drawn from the secret domain) and a
    mask g' landing (s', t') on the same carrier point.

    A masked point (s, t).g lies in the orbit of (s, t), so s' explains
    it exactly when that orbit holds a square point of s', whatever g
    is. ``work`` keeps the direct scan's units: |G| per square point,
    then one per (square point, g, s') test up to the first violation,
    whose g is therefore the first group element.
    """
    idx = _require_finite(instance, CONDITION_MASKING)
    n_s, n_g = len(idx.s_res), idx.n_group
    _within_cap(CONDITION_MASKING, n_s**2 * n_g, cap)

    orbit_of = {start: min(idx.fibres(start)) for start in idx.square.values()}
    seen: dict[int, set[int]] = {}
    for (s, _t), start in idx.square.items():
        seen.setdefault(orbit_of[start], set()).add(s)
    work = len(idx.square) * n_g
    for i, ((s, t), start) in enumerate(idx.square.items()):
        got = seen[orbit_of[start]]
        for j, s_prime in enumerate(idx.s_res):
            if s_prime not in got:
                return ConditionReport(
                    instance.name,
                    CONDITION_MASKING,
                    False,
                    {
                        "s": str(s),
                        "t": str(t),
                        "g": format_residues(idx.p, idx.group.residues[0]),
                        "s_prime": str(s_prime),
                    },
                    work + i * n_g * n_s + j + 1,
                )
    return ConditionReport(instance.name, CONDITION_MASKING, True, None, work)


def check_transcript_equivalence(
    instance: ActionInstance, *, cap: Optional[int] = None
) -> ConditionReport:
    """Can a full three-message exchange be explained by every candidate?

    For each secret pair and mask pair (A, B), the three masked points
    are computed; the check passes when every candidate secret s' admits
    a blinding value t' (from the secret domain) and masks A', B'
    reproducing the same three points exactly.

    A reply B that fixes v1 (the identity always does) sends v3 = v,
    which only the secret of v explains, so the check passes exactly
    when |S| = 1. Else the first failure has the first start point v and
    A the first group element, as (v, A, B) and (v, 1, A.B.A^-1) have
    the same explaining secrets. ``work`` keeps the direct scan's units:
    |G| per distinct transcript plus one per (session, s') test. A pass
    has |G| * R + |G|^2, where R = sum over x in orbit(v) of
    |G| / |Stab(v) & Stab(x)| counts the transcripts (v.A, x.A, x).
    """
    idx = _require_finite(instance, CONDITION_TRANSCRIPT)
    n_s, n_g = len(idx.s_res), idx.n_group
    # One fibre table per orbit point, then at worst one stabilizer pass
    # and n_s candidate tests per reply.
    _within_cap(CONDITION_TRANSCRIPT, n_g * (n_g + n_s + idx.n_points), cap)

    table = idx.act_table
    (s, t), v = next(iter(idx.square.items()))
    if n_s == 1:
        orbit = idx.fibres(v)
        stab = orbit[v]
        reachable = sum(n_g // sum(1 for h in stab if table[h][x] == x) for x in orbit)
        return ConditionReport(
            instance.name, CONDITION_TRANSCRIPT, True, None, n_g * reachable + n_g**2
        )

    v1 = table[0][v]
    square = idx.secret_pair_of_point
    work = 0
    seen: set[int] = set()
    for b_i, row in enumerate(table):
        v2 = row[v1]
        if v2 not in seen:
            seen.add(v2)
            work += n_g
        v3 = idx.inv_rows[0][v2]
        # Each A' with v3.A' == v2 unmasks v1 onto v1.A'^-1; B' exists.
        starts = (idx.inv_rows[a_i][v1] for a_i in idx.fibres(v3)[v2])
        got = {square[u][0] for u in starts if u in square}
        for s_prime in idx.s_res:
            work += 1
            if s_prime not in got:
                return ConditionReport(
                    instance.name,
                    CONDITION_TRANSCRIPT,
                    False,
                    {
                        "s": str(s),
                        "t": str(t),
                        "A": format_residues(idx.p, idx.group.residues[0]),
                        "B": format_residues(idx.p, idx.group.residues[b_i]),
                        "s_prime": str(s_prime),
                    },
                    work,
                )
    raise AssertionError("a reply fixing v1 leaves one secret, yet no session failed")


def recheck_counterexample(instance: ActionInstance, report: ConditionReport) -> bool:
    """Re-run the inner existence search on a failing report's
    counterexample alone; True means the violation is confirmed."""
    if report.passed or report.counterexample is None:
        raise ValueError("only failing reports carry a counterexample")
    ce = report.counterexample
    fp = instance.field

    if report.condition == CONDITION_COMM_FIXED:
        pt = parse_point(ce["point"])
        elem = parse_matrix(ce["element"])
        return act(elem, pt) != pt

    if not instance.is_finite:  # not _require_finite: this check stays off the index
        raise TriplePassError(f"re-checking {report.condition} requires finite group")
    if report.condition == CONDITION_MASKING:
        s = parse_scalar(ce["s"], fp)
        t = parse_scalar(ce["t"], fp)
        g = parse_matrix(ce["g"])
        s_prime = parse_scalar(ce["s_prime"], fp)
        target = act(g, instance.secret_pair_point(s, t))
        for t_prime in instance.secret_domain:
            start = instance.secret_pair_point(s_prime, t_prime)
            for g_prime in instance.group:
                if act(g_prime, start) == target:
                    return False
        return True

    if report.condition == CONDITION_TRANSCRIPT:
        s = parse_scalar(ce["s"], fp)
        t = parse_scalar(ce["t"], fp)
        a = parse_matrix(ce["A"])
        b = parse_matrix(ce["B"])
        s_prime = parse_scalar(ce["s_prime"], fp)
        v = instance.secret_pair_point(s, t)
        v1 = act(a, v)
        v2 = act(b, v1)
        v3 = act(a.inverse(), v2)
        for t_prime in instance.secret_domain:
            start = instance.secret_pair_point(s_prime, t_prime)
            for a_prime in instance.group:
                if act(a_prime, start) != v1:
                    continue
                if act(a_prime.inverse(), v2) != v3:
                    continue
                for b_prime in instance.group:
                    if act(b_prime, v1) == v2:
                        return False
        return True

    raise ValueError(f"cannot recheck condition {report.condition!r}")
