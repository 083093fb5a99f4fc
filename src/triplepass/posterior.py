"""Witnesses and exact posteriors of single transcripts.

Given a transcript and a known instance, the witness enumerator lists
every (secret, blinding, mask, mask) assignment that reproduces the
three wire messages exactly, as the product of Alice's and Bob's
factors; posteriors count that product without listing it, as exact
Fractions. ``analysis`` forwards the traced entry points, so
``analyze --instance`` does not compile this module.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .actions import ActionInstance, InstanceIndex, WireTranscript, _require_finite, _within_cap
from .analysis import _validate_prior, uniform_prior
from .errors import InconsistentTranscriptError, TriplePassError
from .fields import Scalar
from .matrices import Mat2
from .records import Frozen

if TYPE_CHECKING:
    from .protocol import Transcript

__all__ = ["WitnessSet", "PosteriorReport", "PosteriorPrior", "BayesStep", "enumerate_consistent",
           "find_witness", "posterior_from_transcript", "posterior_prior"]


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
    idx = _require_finite(instance, what)
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
        idx,
    )
    return idx, wire


def _factors(
    idx: InstanceIndex, wire: WireTranscript, cap: Optional[int] = None
) -> tuple[list[tuple[int, tuple[int, int]]], list[int]]:
    """The two factors of a transcript's witnesses, each re-validated.

    v1 and v3 constrain (s, t, A) alone and, given v1, v2 constrains B
    alone, so the witnesses (s, t, A, B) are exactly the product of two
    factors, each one fibre lookup. Alice's factor lists every (A, (s, t))
    with v3.A == v2 and v1.A^-1 encoding a pair of S x T; Bob's lists
    every B with v1.B == v2. Both are in group order. Every factor entry
    re-derives its messages from the action tables; a mismatch raises.
    A recorded ground truth must be a witness whenever there is one: its
    (s, t, A) in Alice's factor and its B in Bob's, or
    ``InconsistentTranscriptError`` is raised. A scan of the two fibre
    tables, 2 * |G| steps, is refused first when that exceeds ``cap``.
    """
    _within_cap("witness-enumeration", 2 * idx.n_group, cap)
    v1, v2, v3 = wire.v1, wire.v2, wire.v3
    table, inv_rows, pairs = idx.act_table, idx.inv_rows, idx.pair_of_point
    alice = [(a_i, pairs[u]) for a_i in idx.fibres(v3).get(v2, ())
             if (u := inv_rows[a_i][v1]) in pairs]
    bob = list(idx.fibres(v1).get(v2, ()))
    for a_i, pair in alice:
        if table[a_i][idx.point_of_pair[pair]] != v1 or inv_rows[a_i][v2] != v3:
            raise AssertionError("Alice's witness factor failed direct re-validation")
    for b_i in bob:
        if table[b_i][v1] != v2:
            raise AssertionError("Bob's witness factor failed direct re-validation")
    if wire.truth is not None and alice and bob:
        s, t, a_i, b_i = wire.truth
        if (a_i, (s, t)) not in alice or b_i not in bob:
            raise InconsistentTranscriptError(
                "inconsistent transcript: its recorded ground truth is not among the witnesses"
                f" (session {wire.session_id})"
            )
    return alice, bob


def enumerate_consistent(
    transcript: Transcript, instance: ActionInstance, *, cap: Optional[int] = None
) -> WitnessSet:
    """Exactly the (s, t, A, B) tuples reproducing the transcript.

    The witnesses are the product of two re-validated factors (see
    ``_factors``): Alice's (A, (s, t)) candidates and Bob's B replies,
    listed A-major in group order. The factored set equals the naive
    four-deep scan. A product of more than ``cap`` witnesses is refused
    before it is listed.
    """
    idx, wire = _indexed(transcript, instance, "witness enumeration")
    alice, bob = _factors(idx, wire, cap)
    _within_cap("witness-enumeration", len(alice) * len(bob), cap)
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
    or None after an exhaustive search finds nothing. The search runs
    on the checked factors of ``_factors``, under the default
    witness-scan cap."""
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
    order, and its Bayes ``steps`` so far, keyed by count signature."""

    __slots__ = ("index", "masses", "by_residue", "steps")

    def __init__(self, index: InstanceIndex, masses: dict[Scalar, Fraction]):
        self.index = index
        self.masses = masses
        self.by_residue: dict[int, Fraction] = dict(sorted((s.value, m) for s, m in masses.items()))
        self.steps: dict[tuple, BayesStep] = {}


def posterior_prior(
    instance: ActionInstance, prior: Optional[Mapping[Scalar, Fraction]] = None
) -> PosteriorPrior:
    """Validate ``prior`` (uniform when None) for posteriors on a finite
    instance, once for any number of transcripts."""
    idx = _require_finite(instance, "witness enumeration")
    masses = uniform_prior(instance) if prior is None else _validate_prior(instance, prior)
    return PosteriorPrior(idx, masses)


class BayesStep:
    """The exact posterior of one prior and count signature, over
    residues, with the witness count the signature fixes. Each is
    computed once and kept in its prior's ``steps``, so equal steps are
    one object, and steps compare and hash by identity."""

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
    the prior and the count signature (the secrets of Alice's factor,
    sorted, and the size of Bob's), so it is computed once per signature.

    A ``Transcript`` gets a ``PosteriorReport`` with its own dicts. A
    ``WireTranscript``, read by ``transcript_from_dict`` into this
    instance's index, gets the shared ``BayesStep`` itself, and no
    object is built; one read into another index, even of the same
    instance, is refused. ``prior`` may be a ``posterior_prior`` of this
    instance, validated once for many transcripts.
    """
    if not isinstance(prior, PosteriorPrior):
        prior = posterior_prior(instance, prior)
    elif getattr(instance, "_index", None) is not prior.index:
        raise ValueError("the prior was validated for another instance")
    idx = prior.index
    if isinstance(transcript, WireTranscript):
        wire = transcript
        if wire.index is not idx:
            name = getattr(wire.index, "name", None)
            raise TriplePassError(
                f"transcript was read into another index of {idx.name!r}" if name == idx.name
                else f"transcript is for {name!r}, not {idx.name!r}")
    else:
        _, wire = _indexed(transcript, instance, "witness enumeration")
    alice, bob = _factors(idx, wire, cap)
    key = (tuple(sorted([pair[0] for _, pair in alice])), len(bob))
    step = prior.steps.get(key)
    if step is None:
        step = prior.steps[key] = _bayes(prior.by_residue, *key, idx.s_res)
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
    prior: Mapping[int, Fraction], alice: tuple[int, ...], n_bob: int, secrets: list[int]
) -> BayesStep:
    """The Bayes step from a residue-keyed prior in residue order and a
    transcript's count signature (see ``posterior_from_transcript``)."""
    weights = {s: mass * (alice.count(s) * n_bob) for s, mass in prior.items()}
    total = sum(weights.values(), Fraction(0))
    if total == 0:
        raise InconsistentTranscriptError(
            "inconsistent transcript: no witness reproduces it under this prior"
        )
    posterior = tuple((s, weight / total) for s, weight in weights.items())
    support = tuple(s for s, mass in posterior if mass > 0)
    masses = {mass for _, mass in posterior if mass > 0}
    uniform = len(masses) == 1 and set(support) == set(secrets)
    return BayesStep(posterior, support, uniform, len(alice) * n_bob)
