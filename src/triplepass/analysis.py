"""The passive adversary, made exact.

Given a transcript and a known instance, the witness enumerator lists
every (secret, blinding, mask, mask) assignment that reproduces the
three wire messages exactly, as the product of Alice's and Bob's
factors; posteriors count that product without listing it. Posteriors
are exact Fractions; mutual information is reduced from integer-scaled
counts, with one Fraction per distinct probability ratio. A zero-leakage
verdict is an exact comparison of posterior against prior, never a float
test. Logarithms enter only at presentation, grouped by exact ratio, so
an instance that leaks nothing reports exactly 0.0 bits and a total
break on a uniform prior over 2^k secrets reports exactly k bits.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .actions import (
    ActionInstance,
    ConditionReport,
    DEFAULT_WORK_CAP,
    InstanceIndex,
    Point,
    WireTranscript,
    _instance_on,
    _require_finite,
    check_masking_coverage,
    check_transcript_equivalence,
    commutator_fixed_carrier_points,
    instance_index,
    instance_to_descriptor,
    is_commutator_fixed_set,
    secret_square_points,
)
from .errors import (
    AttackInapplicableError,
    InconsistentTranscriptError,
    TriplePassError,
    WorkCapExceeded,
)
from .fields import Scalar
from .groups import (
    FiniteGroup,
    commutator_subgroup,
    enumerate_gl2,
)
from .matrices import Mat2
from .records import Frozen

if TYPE_CHECKING:
    from .protocol import Transcript

__all__ = [
    "WitnessSet",
    "PosteriorReport",
    "PosteriorPrior",
    "BayesStep",
    "LeakageReport",
    "SearchEntry",
    "SearchReport",
    "uniform_prior",
    "enumerate_consistent",
    "find_witness",
    "posterior_from_transcript",
    "posterior_prior",
    "exact_mutual_information",
    "mutual_information_bits",
    "quotient_attack",
    "search_instances",
]


def uniform_prior(instance: ActionInstance) -> dict[Scalar, Fraction]:
    """The default prior: equal exact mass on every secret."""
    assert instance.secret_domain is not None
    mass = Fraction(1, len(instance.secret_domain))
    return dict.fromkeys(instance.secret_domain, mass)


def _validate_prior(instance: ActionInstance, prior: Mapping[Scalar, Fraction]) -> dict[Scalar, Fraction]:
    assert instance.secret_domain is not None
    domain = set(instance.secret_domain)
    out = {}
    for s, mass in prior.items():
        if s not in domain:
            raise ValueError(f"prior mass on {s}, which is not a valid secret")
        frac = Fraction(mass)
        if frac < 0:
            raise ValueError("prior masses must be nonnegative")
        out[s] = frac
    if sum(out.values()) != 1:
        raise ValueError("prior masses must sum to exactly 1")
    return out


class WitnessSet(Frozen):
    """All assignments consistent with one transcript, grouped by secret."""

    __slots__ = _fields = ("transcript", "witnesses", "counts_by_secret")

    def __init__(self, transcript: Transcript,
                 witnesses: tuple[tuple[Scalar, Scalar, Mat2, Mat2], ...],
                 counts_by_secret: dict[Scalar, int]) -> None:
        self._assign(transcript, witnesses, counts_by_secret)


def _indexed(
    transcript: Transcript, instance: ActionInstance, what: str
) -> tuple[InstanceIndex, WireTranscript]:
    """The instance's index and the transcript in the form
    ``transcript_from_dict`` reads a wire transcript into it: messages as
    point indices, the ground truth's masks located by residues."""
    _require_finite(instance, what)
    idx = instance_index(instance)
    if transcript.instance != idx.name:
        raise TriplePassError(f"transcript is for {transcript.instance!r}, not {idx.name!r}")
    truth = transcript.ground_truth
    if truth is not None:
        group = idx.group
        truth = (truth.s.value, truth.t.value, group.index_of(truth.mask_a), group.index_of(truth.mask_b))
    wire = WireTranscript(
        idx.point_index(transcript.v1),
        idx.point_index(transcript.v2),
        idx.point_index(transcript.v3),
        truth,
        transcript.session_id,
    )
    return idx, wire


def _factors(
    idx: InstanceIndex, wire: WireTranscript, cap: Optional[int] = None
) -> tuple[list[tuple[int, tuple[int, int]]], list[int]]:
    """The two factors of a transcript's witnesses, each re-validated.

    v1 and v3 constrain (s, t, A) alone and, given v1, v2 constrains B
    alone, so the witnesses (s, t, A, B) are exactly the product of
    Alice's factor ``unmaskings`` and Bob's factor ``replies``. Every
    factor entry re-derives its messages from the action tables; a
    mismatch raises. With ``cap``, a scan of the two fibre tables,
    2 * |G| steps, is refused first when that exceeds it.
    """
    if cap is not None:
        estimate = 2 * idx.n_group
        if estimate > cap:
            raise WorkCapExceeded("witness-enumeration", estimate, cap)
    v1, v2, v3 = wire.v1, wire.v2, wire.v3
    alice = idx.unmaskings(v1, v2, v3)
    bob = idx.replies(v1, v2)
    table, inv_rows = idx.act_table, idx.inv_rows
    for a_i, pair in alice:
        if table[a_i][idx.point_of_pair[pair]] != v1 or inv_rows[a_i][v2] != v3:
            raise AssertionError("Alice's witness factor failed direct re-validation")
    for b_i in bob:
        if table[b_i][v1] != v2:
            raise AssertionError("Bob's witness factor failed direct re-validation")
    return alice, bob


def _require_truth(wire: WireTranscript, alice: list, bob: list) -> None:
    """A recorded ground truth must be a witness whenever there is one:
    its (s, t, A) must be in Alice's factor and its B in Bob's."""
    if wire.truth is None or not alice or not bob:
        return
    s, t, a_i, b_i = wire.truth
    if (a_i, (s, t)) not in alice or b_i not in bob:
        raise InconsistentTranscriptError(
            "inconsistent transcript: its recorded ground truth is not among the witnesses"
            f" (session {wire.session_id})"
        )


def enumerate_consistent(
    transcript: Transcript, instance: ActionInstance, *, cap: Optional[int] = None
) -> WitnessSet:
    """Exactly the (s, t, A, B) tuples reproducing the transcript.

    The witnesses are the product of two re-validated factors (see
    ``_factors``): Alice's (A, (s, t)) candidates and Bob's B replies,
    listed A-major in group order. The factored set equals the naive
    four-deep scan. A recorded ground truth outside a nonempty witness
    set raises ``InconsistentTranscriptError``. A product of more than
    ``cap`` witnesses is refused before it is listed.
    """
    cap = DEFAULT_WORK_CAP if cap is None else cap
    idx, wire = _indexed(transcript, instance, "witness enumeration")
    alice, bob = _factors(idx, wire, cap)
    if len(alice) * len(bob) > cap:
        raise WorkCapExceeded("witness-enumeration", len(alice) * len(bob), cap)
    _require_truth(wire, alice, bob)
    elements = idx.group.elements
    witnesses = tuple(
        (idx.field.scalar(s), idx.field.scalar(t), elements[a_i], elements[b_i])
        for a_i, (s, t) in alice
        for b_i in bob
    )
    per_secret = Counter(s for _, (s, _) in alice) if bob else Counter()
    counts = {idx.field.scalar(s): n * len(bob) for s, n in per_secret.items()}
    return WitnessSet(transcript, witnesses, counts)


def find_witness(
    transcript: Transcript, instance: ActionInstance, s_prime: Scalar
) -> Optional[tuple[Scalar, Mat2, Mat2]]:
    """One (t', A', B') explaining the transcript with secret s_prime,
    or None after an exhaustive search finds nothing."""
    idx, wire = _indexed(transcript, instance, "witness search")
    alice, bob = _factors(idx, wire)
    a_cands = [(a_i, t) for a_i, (s, t) in alice if s == s_prime.value]
    # Bob's candidates do not depend on A, so any reply completes any A.
    if not a_cands or not bob:
        return None
    a_i, t_res = a_cands[0]
    return idx.field.scalar(t_res), idx.group.elements[a_i], idx.group.elements[bob[0]]


class PosteriorReport(Frozen):
    """Exact conditional distribution over secrets given one transcript."""

    __slots__ = _fields = ("transcript", "prior", "posterior", "support", "uniform",
                           "witness_count")

    def __init__(self, transcript: Transcript, prior: dict[Scalar, Fraction],
                 posterior: dict[Scalar, Fraction], support: tuple[Scalar, ...], uniform: bool,
                 witness_count: int) -> None:
        self._assign(transcript, prior, posterior, support, uniform, witness_count)


class PosteriorPrior:
    """A prior validated for posteriors on one finite instance: its index,
    the masses as given, the same masses keyed by residue in residue
    order, and their key in the index's ``bayes_memo``."""

    __slots__ = ("index", "masses", "by_residue", "key")

    def __init__(self, index: InstanceIndex, masses: dict[Scalar, Fraction]):
        self.index = index
        self.masses = masses
        self.by_residue: dict[int, Fraction] = dict(sorted((s.value, m) for s, m in masses.items()))
        self.key = tuple((s, m.numerator, m.denominator) for s, m in self.by_residue.items())


def posterior_prior(
    instance: ActionInstance, prior: Optional[Mapping[Scalar, Fraction]] = None
) -> PosteriorPrior:
    """Validate ``prior`` (uniform when None) for posteriors on a finite
    instance, once for any number of transcripts."""
    _require_finite(instance, "witness enumeration")
    masses = uniform_prior(instance) if prior is None else _validate_prior(instance, prior)
    return PosteriorPrior(instance_index(instance), masses)


class BayesStep:
    """The exact posterior of one prior and count signature, over
    residues, with the witness count the signature fixes. Each is
    computed once and kept in the index's ``bayes_memo``, so equal steps
    are one object, and steps compare and hash by identity."""

    __slots__ = ("posterior", "support", "uniform", "witness_count")

    def __init__(self, posterior: tuple, support: tuple, uniform: bool, witness_count: int):
        self.posterior = posterior  # (s, mass) pairs in residue order
        self.support = support
        self.uniform = uniform
        self.witness_count = witness_count


def posterior_from_transcript(
    transcript: Union[Transcript, WireTranscript],
    instance: ActionInstance,
    prior: Union[None, Mapping[Scalar, Fraction], PosteriorPrior] = None,
    *,
    cap: Optional[int] = None,
) -> Union[PosteriorReport, BayesStep]:
    """Bayes over exact witness counts: posterior(s) is proportional to
    prior(s) times the number of (t, A, B) completions.

    The count for s is its entries in Alice's factor times Bob's, so no
    witness is materialised. The factors are re-validated under the
    witness-scan cap and checked against a recorded ground truth, for
    every transcript (see ``_factors``). The Bayes step depends only on
    the prior and the count signature (the per-secret counts of Alice's
    factor and the size of Bob's), so it is computed once per signature.

    A ``Transcript`` gets a ``PosteriorReport`` with its own dicts. A
    ``WireTranscript``, read by ``transcript_from_dict`` into this
    instance's index, gets the shared ``BayesStep`` itself, and no
    object is built. ``prior`` may be a ``posterior_prior`` of this
    instance, validated once for many transcripts.
    """
    if not isinstance(prior, PosteriorPrior):
        prior = posterior_prior(instance, prior)
    elif getattr(instance, "_index", None) is not prior.index:
        raise ValueError("the prior was validated for another instance")
    cap = DEFAULT_WORK_CAP if cap is None else cap
    idx = prior.index
    if isinstance(transcript, WireTranscript):
        wire = transcript
    else:
        _, wire = _indexed(transcript, instance, "witness enumeration")
    alice, bob = _factors(idx, wire, cap)
    _require_truth(wire, alice, bob)
    per_secret = Counter(s for _, (s, _) in alice)
    key = (prior.key, tuple(sorted(per_secret.items())), len(bob))
    step = idx.bayes_memo.get(key)
    if step is None:
        step = idx.bayes_memo[key] = _bayes(prior.by_residue, per_secret, len(bob), idx.s_res)
    if wire is transcript:
        return step
    scalars = {s.value: s for s in prior.masses}
    return PosteriorReport(
        transcript=transcript,
        prior=dict(prior.masses),
        posterior={scalars[s]: mass for s, mass in step.posterior},
        support=tuple(scalars[s] for s in step.support),
        uniform=step.uniform,
        witness_count=step.witness_count,
    )


def _bayes(
    prior: Mapping[int, Fraction], per_secret: Counter, n_bob: int, secrets: list[int]
) -> BayesStep:
    """The Bayes step from a residue-keyed prior in residue order and a
    transcript's count signature."""
    weights = {s: mass * (per_secret[s] * n_bob) for s, mass in prior.items()}
    total = sum(weights.values(), Fraction(0))
    if total == 0:
        raise InconsistentTranscriptError(
            "inconsistent transcript: no witness reproduces it under this prior"
        )
    posterior = tuple((s, weight / total) for s, weight in weights.items())
    support = tuple(s for s, mass in posterior if mass > 0)
    masses = {mass for _, mass in posterior if mass > 0}
    uniform = len(masses) == 1 and set(support) == set(secrets)
    return BayesStep(posterior, support, uniform, sum(per_secret.values()) * n_bob)


class LeakageReport(Frozen):
    """Exact-count leakage summary for a whole instance."""

    __slots__ = _fields = ("instance", "mutual_information_bits", "zero_leakage",
                           "transcripts_examined", "prior")

    def __init__(self, instance: str, mutual_information_bits: float, zero_leakage: bool,
                 transcripts_examined: int, prior: dict[Scalar, Fraction]) -> None:
        self._assign(instance, mutual_information_bits, zero_leakage, transcripts_examined, prior)


def mutual_information_bits(
    joint_counts: Mapping[tuple, int],
    prior: Mapping[object, Fraction],
    completions_per_secret: int,
    multiplicity: Optional[Mapping[object, int]] = None,
) -> tuple[float, bool, int]:
    """Mutual information in bits from exact joint counts.

    ``joint_counts`` maps (transcript key, secret key) to the number of
    nuisance completions; every secret has exactly
    ``completions_per_secret`` of them in total. A transcript key may
    stand for several transcripts with the same counts: ``multiplicity``
    maps it to how many (default 1), which weighs the key's counts and
    transcripts as if each were listed separately. Terms are grouped by
    the exact rational ratio p(s,v)/(p(s)p(v)) and logs are taken only
    per distinct ratio, so zero leakage yields exactly 0.0 and a total
    break on a uniform prior over 2^k secrets yields exactly k.

    Prior masses are scaled to integers n_s over their common
    denominator D. With T = sum of n_s * c_s at a transcript, a cell with
    count c has ratio c*D / T and weight n_s*c / (D * completions).

    Returns (bits, zero_leakage, transcripts_examined). Raises
    ValueError on a count or multiplicity that is not a nonnegative
    (positive) int, a prior that is not a distribution, or a secret
    whose counts do not total ``completions_per_secret``.
    """
    masses = {s: m if type(m) is Fraction else Fraction(m) for s, m in prior.items()}
    denom = math.lcm(*(m.denominator for m in masses.values()))
    scaled = {s: m.numerator * (denom // m.denominator) for s, m in masses.items()}
    if any(n < 0 for n in scaled.values()) or sum(scaled.values()) != denom:
        raise ValueError("prior masses must be nonnegative and sum to exactly 1")
    multiplicity = {} if multiplicity is None else multiplicity

    totals = dict.fromkeys(scaled, 0)
    t_mass: dict[tuple, int] = {}
    for (t_key, s_key), count in joint_counts.items():
        if type(count) is not int or count < 0:
            raise ValueError(f"joint count {count!r} is not a nonnegative int")
        if s_key not in totals:
            raise ValueError(f"joint counts name secret {s_key!r}, which has no prior mass")
        size = multiplicity.get(t_key, 1)
        if type(size) is not int or size < 1:
            raise ValueError(f"multiplicity {size!r} is not a positive int")
        totals[s_key] += count * size
        t_mass[t_key] = t_mass.get(t_key, 0) + scaled[s_key] * count
    if any(total != completions_per_secret for total in totals.values()):
        raise ValueError(f"each secret's counts must total {completions_per_secret}")

    # A positive-mass secret with no completion at a transcript has
    # posterior 0 there. When T > 0 the per-cell test c*D == T catches
    # it: cells that all pass carry all of T, so their masses sum to D
    # and no positive mass is left for a missing secret. T == 0 means no
    # positive-mass completion at all.
    zero_leakage = all(t_mass.values())
    # Weights by unreduced ratio (c*D, T) first: cells repeat few of them.
    raw_weights: dict[tuple[int, int], int] = {}
    for (t_key, s_key), count in joint_counts.items():
        n_s = scaled[s_key]
        if n_s == 0:
            continue
        num, den = count * denom, t_mass[t_key]
        if num != den:
            zero_leakage = False
        if count == 0:
            continue  # zero-probability cell: contributes nothing
        weight = n_s * count * multiplicity.get(t_key, 1)
        raw_weights[num, den] = raw_weights.get((num, den), 0) + weight
    ratio_weights: dict[tuple[int, int], int] = {}
    for (num, den), weight in raw_weights.items():
        g = math.gcd(num, den)
        ratio = (num // g, den // g)
        ratio_weights[ratio] = ratio_weights.get(ratio, 0) + weight

    # Ascending exact ratio; int / int is the correctly rounded float of
    # the weight's Fraction.
    scale = denom * completions_per_secret
    bits = 0.0
    for num, den in sorted(ratio_weights, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])):
        bits += ratio_weights[(num, den)] / scale * (math.log2(num) - math.log2(den))
    return bits, zero_leakage, sum(multiplicity.get(t_key, 1) for t_key in t_mass)


def exact_mutual_information(
    instance: ActionInstance,
    prior: Optional[Mapping[Scalar, Fraction]] = None,
    *,
    cap: Optional[int] = None,
) -> LeakageReport:
    """I(secret; transcript) from a full exact joint enumeration.

    The blinding value and both masks are uniform; the secret follows
    the prior. Only realizable transcripts carry weight. For each v3 the
    per-secret count is constant on a G-orbit of (v1, v2), so transcripts
    are counted once per class of ``InstanceIndex.pair_classes``: at the
    class representative (r, w), mask A unmasks r onto u = r.A^-1 and
    sends v3 = w.A^-1; when u encodes (s, t), that adds the |Stab(r)|
    replies B with r.B == w to the cell ((class, v3), s). The reduction
    weighs each key by its class size, which counts every (t, A, B)
    exactly once in one pass over G per class.
    """
    _require_finite(instance, "leakage analysis")
    prior = uniform_prior(instance) if prior is None else _validate_prior(instance, prior)
    cap = DEFAULT_WORK_CAP if cap is None else cap
    idx = instance_index(instance)
    # Steps of the pair-class kernel, bounded before it runs. Each of the
    # at most p^2 orbits costs one fibre scan of |G|, its pairs number
    # |orbit|^2 <= |orbit| * |G|, and each of the at most p^2 classes
    # costs one pass over G.
    estimate = 3 * idx.n_group * idx.n_points
    if estimate > cap:
        raise WorkCapExceeded("leakage-analysis", estimate, cap)

    prior_by_res = {s.value: mass for s, mass in prior.items() if mass > 0}
    secret_at = {u: s for u, (s, _) in idx.pair_of_point.items() if s in prior_by_res}
    classes = idx.pair_classes
    counts: dict[tuple, int] = {}
    for c, cls in enumerate(classes):
        for u, v3 in idx.class_unmaskings(cls):
            s = secret_at.get(u)
            if s is not None:
                cell = ((c, v3), s)
                counts[cell] = counts.get(cell, 0) + cls.stab
    sizes = {key: classes[key[0]].size for key, _ in counts}

    completions = len(idx.t_res) * idx.n_group**2
    bits, zero_leakage, examined = mutual_information_bits(
        counts, prior_by_res, completions, multiplicity=sizes
    )
    return LeakageReport(
        instance=instance.name,
        mutual_information_bits=bits,
        zero_leakage=zero_leakage,
        transcripts_examined=examined,
        prior=dict(prior),
    )


def quotient_attack(transcript: Transcript) -> Scalar:
    """Componentwise-division attack for diagonal-style masks.

    Dividing the second message by the first recovers Bob's mask when
    masks are diagonal; dividing the third message by it returns the
    secret. Requires both components of the first message nonzero.
    """
    v1, v2, v3 = transcript.v1, transcript.v2, transcript.v3
    if v1.x.is_zero or v1.y.is_zero:
        raise AttackInapplicableError("attack inapplicable: zero component in v1")
    mask_estimate = Point(v2.x / v1.x, v2.y / v1.y)
    if mask_estimate.x.is_zero:
        raise AttackInapplicableError("attack inapplicable: estimated mask component is zero")
    return v3.x / mask_estimate.x


class SearchEntry(Frozen):
    """One examined instance: its rebuildable descriptor and verdicts."""

    __slots__ = _fields = ("descriptor", "group_order", "abelian", "reports", "leakage", "skipped",
                           "candidate")

    def __init__(self, descriptor: dict, group_order: int, abelian: bool,
                 reports: tuple[ConditionReport, ...], leakage: Optional[LeakageReport],
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
    assert isinstance(group, FiniteGroup)

    fixed = is_commutator_fixed_set(secret_square_points(instance), group, instance.name)
    reports.append(fixed)
    for checker in (check_masking_coverage, check_transcript_equivalence):
        try:
            reports.append(checker(instance, cap=cap))
        except WorkCapExceeded as exc:
            skipped[exc.job] = exc.estimate

    leakage = None
    if with_leakage:
        try:
            leakage = exact_mutual_information(instance, cap=cap)
        except WorkCapExceeded as exc:
            skipped[exc.job] = exc.estimate

    assert instance.secret_domain is not None
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
