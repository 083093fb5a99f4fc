"""Differential guard: the enumeration kernel against plain-integer oracles.

Small random custom instances (p in {2, 3, 5}, one or two random
generators, random secret and blinding domains that need not nest) are
analysed by the package and by brute force from ``tests/oracles.py``,
which imports nothing from the package. Three things must agree exactly:

- mutual information, zero-leakage verdict and transcript count, from
  joint counts over every session;
- for sampled transcripts, the witness set, its per-secret counts, the
  posterior, ``witness_count`` and ``find_witness``;
- both condition checkers' verdicts, counterexamples and ``work``, which
  the package derives from orbit identities and the oracles count by a
  direct scan over every session.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from triplepass.actions import Point, build_instance
from triplepass.analysis import exact_mutual_information
from triplepass.checks import check_masking_coverage, check_transcript_equivalence
from triplepass.matrices import Mat2, parse_matrix
from triplepass.posterior import enumerate_consistent, find_witness, posterior_from_transcript
from triplepass.protocol import GroundTruth, Transcript, exhaustive_roundtrip

# Sessions |S| * |T| * |G|^2 per example stay at or below this.
SESSION_BUDGET = 20_000


@lru_cache(maxsize=None)
def _gl2(p: int) -> tuple:
    return tuple(oracles.gl2(p))


def _literal(p: int, m) -> str:
    return "[[{},{}],[{},{}]]@F{}".format(*m, p)


@st.composite
def small_instances(draw):
    """(p, sorted group residues, sorted S, sorted T, generator literals)."""
    p = draw(st.sampled_from([2, 3, 5]))
    gens = draw(st.lists(st.sampled_from(_gl2(p)), min_size=1, max_size=2))
    secrets = sorted(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=3)))
    t_values = sorted(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p)))
    elems = oracles.closure(p, gens)
    if len(secrets) * len(t_values) * len(elems) ** 2 > SESSION_BUDGET:
        # One generator of GL2(F5) closes to at most 24 elements.
        gens = gens[:1]
        elems = oracles.closure(p, gens)
    return p, sorted(elems), secrets, t_values, [_literal(p, g) for g in gens]


def _build(p, secrets, t_values, literals):
    return build_instance(
        "custom", p, generators=literals, secret_domain=secrets, t_domain=t_values, name="guard"
    )


def _transcript(instance, p, s, t, a, b) -> Transcript:
    fp = instance.field
    point = lambda v: Point(fp.scalar(v[0]), fp.scalar(v[1]))  # noqa: E731
    v1, v2, v3, _ = oracles.session(p, (s, t), a, b)
    truth = GroundTruth(
        fp.scalar(s), fp.scalar(t), Mat2.from_values(fp, *a), Mat2.from_values(fp, *b)
    )
    return Transcript("guard", point(v1), point(v2), point(v3), ground_truth=truth)


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.data())
def test_kernel_matches_brute_force_oracles(case, data):
    p, elems, secrets, t_values, literals = case
    instance = _build(p, secrets, t_values, literals)
    assert sorted(m.residues() for m in instance.group) == elems

    # Mutual information from every session, counted by the oracle.
    joint: Counter = Counter()
    for s in secrets:
        for t in t_values:
            for a in elems:
                for b in elems:
                    joint[(oracles.session(p, (s, t), a, b)[:3], s)] += 1
    prior = {s: Fraction(1, len(secrets)) for s in secrets}
    expected = oracles.mutual_information(joint, prior, len(t_values) * len(elems) ** 2)
    report = exact_mutual_information(instance)
    assert (
        report.mutual_information_bits, report.zero_leakage, report.transcripts_examined
    ) == expected

    # Witnesses and posteriors of sampled sessions.
    session = st.tuples(
        st.sampled_from(secrets), st.sampled_from(t_values),
        st.sampled_from(elems), st.sampled_from(elems),
    )
    for s, t, a, b in data.draw(st.lists(session, min_size=1, max_size=3)):
        transcript = _transcript(instance, p, s, t, a, b)
        tau = tuple((v.x.value, v.y.value) for v in (transcript.v1, transcript.v2, transcript.v3))
        brute = sorted(oracles.witnesses(p, secrets, t_values, elems, tau))
        by_secret = Counter(w[0] for w in brute)

        ws = enumerate_consistent(transcript, instance)
        got = [(w[0].value, w[1].value, w[2].residues(), w[3].residues()) for w in ws.witnesses]
        # Witnesses come A-major, then B, both in sorted-residue order.
        assert got == sorted(brute, key=lambda w: (w[2], w[3]))
        assert {k.value: n for k, n in ws.counts_by_secret.items()} == by_secret

        post = posterior_from_transcript(transcript, instance)
        assert post.witness_count == len(brute)
        assert {k.value: m for k, m in post.posterior.items()} == {
            x: Fraction(by_secret[x], len(brute)) for x in secrets
        }
        for x in secrets:
            found = find_witness(transcript, instance, instance.field.scalar(x))
            if by_secret[x] == 0:
                assert found is None
            else:
                # The first witness for x in (A, B) order.
                t2, a2, b2 = found
                earliest = min((w for w in brute if w[0] == x), key=lambda w: (w[2], w[3]))
                assert (x, t2.value, a2.residues(), b2.residues()) == earliest

    _assert_checkers_match_oracles(instance, p, secrets, elems)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_identity_replies_bound_the_leak_from_below(case):
    # A reply that fixes v1 (v2 = v1) makes the third message the start
    # point, so that transcript names its secret: a point mass. Under a
    # uniform prior, I(S; V1V2V3) >= Pr[v2 = v1] * log2 |S|, met with
    # equality by some instances, hence the tolerance.
    p, elems, secrets, t_values, literals = case
    sessions = [oracles.session(p, (s, t), a, b)
                for s in secrets for t in t_values for a in elems for b in elems]
    bound = sum(v2 == v1 for v1, v2, _, _ in sessions) / len(sessions) * math.log2(len(secrets))
    report = exact_mutual_information(_build(p, secrets, t_values, literals))
    assert report.mutual_information_bits >= bound - 1e-12


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_scalar_replies_bound_the_leak_from_below(case):
    # A reply that scales v1 (v2 = c.v1 with c != 0) makes the third
    # message c times the start point, since masks are linear: (v1, v2)
    # names c, and v3 / c names the start point and so its secret. A v1
    # of (0, 0) counts, as only the start point (0, 0) sends it. Under a
    # uniform prior, I(S; V1V2V3) >= Pr[v2 in F*.v1] * log2 |S|, met with
    # equality by some instances, hence the tolerance.
    p, elems, secrets, t_values, literals = case
    sessions = [oracles.session(p, (s, t), a, b)
                for s in secrets for t in t_values for a in elems for b in elems]
    scaled = sum(any(v2 == (c * v1[0] % p, c * v1[1] % p) for c in range(1, p))
                 for v1, v2, _, _ in sessions)
    bound = scaled / len(sessions) * math.log2(len(secrets))
    report = exact_mutual_information(_build(p, secrets, t_values, literals))
    assert report.mutual_information_bits >= bound - 1e-12


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.data())
def test_a_reliable_instance_is_a_total_break(case, data):
    # When every round trip on the carrier succeeds, every commutator
    # fixes every start point, so each transcript has exactly one start
    # point that explains it (README, "Reliability is a total break"):
    # I(S; V1V2V3) = log2 |S| and every posterior is a point mass.
    p, elems, secrets, t_values, literals = case
    assume(len(secrets) >= 2)
    instance = _build(p, secrets, t_values, literals)
    assume(exhaustive_roundtrip(instance, "carrier")[0] == 0)
    assert exact_mutual_information(instance).mutual_information_bits == math.log2(len(secrets))
    session = st.tuples(
        st.sampled_from(secrets), st.sampled_from(t_values),
        st.sampled_from(elems), st.sampled_from(elems),
    )
    for s, t, a, b in data.draw(st.lists(session, min_size=1, max_size=3)):
        tau = oracles.session(p, (s, t), a, b)[:3]
        assert {w[0] for w in oracles.witnesses(p, secrets, t_values, elems, tau)} == {s}


@pytest.mark.parametrize(
    "p, literals, secrets, t_values",
    [
        # The masking violation is at the second square point, (1, 2).
        (3, ["[[0,2],[2,0]]@F3"], [1, 2], [1, 2]),
        # Replies repeat a v2 before the first failing session, so the
        # scan charges |G| per distinct transcript, not per session.
        (5, ["[[0,4],[4,3]]@F5", "[[1,2],[4,2]]@F5"], [1, 3], [1]),
    ],
)
def test_checkers_match_oracles_on_pinned_instances(p, literals, secrets, t_values):
    instance = _build(p, secrets, t_values, literals)
    elems = sorted(m.residues() for m in instance.group)
    _assert_checkers_match_oracles(instance, p, secrets, elems)


def _assert_checkers_match_oracles(instance, p, secrets, elems):
    """Both checkers: verdict, the lex-first counterexample and work."""
    check = check_masking_coverage(instance)
    first, work = oracles.first_masking_violation(p, secrets, elems)
    assert (check.passed, check.work) == (first is None, work)
    if first is not None:
        ce = check.counterexample
        reported = (int(ce["s"]), int(ce["t"]), parse_matrix(ce["g"]).residues(), int(ce["s_prime"]))
        assert reported == first

    check = check_transcript_equivalence(instance)
    first, work = oracles.first_transcript_violation(p, secrets, elems)
    assert (check.passed, check.work) == (first is None, work)
    if first is not None:
        ce = check.counterexample
        reported = (
            int(ce["s"]), int(ce["t"]),
            parse_matrix(ce["A"]).residues(), parse_matrix(ce["B"]).residues(),
            int(ce["s_prime"]),
        )
        assert reported == first
