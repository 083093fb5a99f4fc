import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles
from triplepass import analysis, census, posterior
from triplepass.actions import Point, build_instance, instance_from_descriptor
from triplepass.analysis import exact_mutual_information, mutual_information_bits, quotient_attack
from triplepass.census import search_instances
from triplepass.checks import check_transcript_equivalence
from triplepass.errors import (
    AttackInapplicableError,
    InconsistentTranscriptError,
    TriplePassError,
    WorkCapExceeded,
)
from triplepass.fields import PrimeField
from triplepass.matrices import Mat2, parse_matrix
from triplepass.posterior import enumerate_consistent, find_witness, posterior_from_transcript
from triplepass.protocol import (
    GroundTruth,
    SecretEncoding,
    Transcript,
    run_session,
    run_session_with,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def pt(field, x, y):
    return Point(field.scalar(x), field.scalar(y))


def lab_transcript(instance, s, t, a, b):
    fp = instance.field
    enc = SecretEncoding(fp.scalar(s), fp.scalar(t), instance.secret_pair_point(fp.scalar(s), fp.scalar(t)))
    return run_session_with(instance, enc, Mat2.from_values(fp, *a), Mat2.from_values(fp, *b)).transcript


def oracle_witnesses(instance, transcript):
    p = instance.field.p
    elems = [m.residues() for m in instance.group]
    tau = tuple((v.x.value, v.y.value) for v in (transcript.v1, transcript.v2, transcript.v3))
    secrets = [s.value for s in instance.secret_domain]
    t_values = [t.value for t in instance.t_domain]
    if instance.embedding is None:
        return oracles.witnesses(p, secrets, t_values, elems, tau)
    # Embedded variant: enumerate pairs through the embedding table.
    found = []
    for (s, t), point in instance.embedding.items():
        v = (point.x.value, point.y.value)
        for a in elems:
            if oracles.act(p, v, a) != tau[0]:
                continue
            if oracles.act(p, tau[1], oracles.minv(p, a)) != tau[2]:
                continue
            for b in elems:
                if oracles.act(p, tau[0], b) == tau[1]:
                    found.append((s.value, t.value, a, b))
    return found


class TestEnumerateConsistent:
    def test_ground_truth_is_always_a_witness(self, diag5, gl2f3):
        for inst in (diag5, gl2f3):
            rng = random.Random(17)
            for i in range(20):
                s = inst.secret_domain[rng.randrange(len(inst.secret_domain))]
                out = run_session(inst, s, rng, session_id=i)
                ws = enumerate_consistent(out.transcript, inst)
                truth = out.transcript.ground_truth
                assert (truth.s, truth.t, truth.mask_a, truth.mask_b) in ws.witnesses

    def test_trivial_instance_has_exactly_one_witness(self, trivial5):
        out = run_session(trivial5, F5.scalar(1), random.Random(1))
        ws = enumerate_consistent(out.transcript, trivial5)
        assert len(ws.witnesses) == 1

    def test_diagonal_witnesses_all_share_the_true_secret(self, diag5):
        transcript = lab_transcript(diag5, 2, 3, (2, 0, 0, 1), (3, 0, 0, 4))
        ws = enumerate_consistent(transcript, diag5)
        assert {w[0].value for w in ws.witnesses} == {2}
        assert sum(ws.counts_by_secret.values()) == len(ws.witnesses)

    def test_matches_four_deep_oracle(self, diag5, gl2f2, rot7):
        rng = random.Random(23)
        for inst in (diag5, gl2f2, rot7):
            for i in range(5):
                s = inst.secret_domain[rng.randrange(len(inst.secret_domain))]
                out = run_session(inst, s, rng, session_id=i)
                ws = enumerate_consistent(out.transcript, inst)
                got = sorted(
                    (w[0].value, w[1].value, w[2].residues(), w[3].residues())
                    for w in ws.witnesses
                )
                assert got == sorted(oracle_witnesses(inst, out.transcript))

    def test_instance_mismatch_rejected(self, diag5, rot7):
        out = run_session(diag5, F5.scalar(2), random.Random(1))
        with pytest.raises(TriplePassError, match="transcript is for"):
            enumerate_consistent(out.transcript, rot7)

    def test_cap(self, diag5):
        out = run_session(diag5, F5.scalar(2), random.Random(1))
        with pytest.raises(WorkCapExceeded):
            enumerate_consistent(out.transcript, diag5, cap=10)


def test_every_entry_point_refuses_a_truth_that_is_not_a_witness(diag5):
    genuine = run_session(diag5, F5.scalar(2), random.Random(1)).transcript
    truth = genuine.ground_truth
    tampered = Transcript(
        genuine.instance, genuine.v1, genuine.v2, genuine.v3, genuine.session_id,
        GroundTruth(F5.scalar(3), truth.t, truth.mask_a, truth.mask_b),
    )
    # diagonal-f5 witnesses all share the true secret, so s = 3 explains nothing.
    assert find_witness(genuine, diag5, F5.scalar(2)) is not None
    for entry_point in (enumerate_consistent, posterior_from_transcript,
                        lambda t, inst: find_witness(t, inst, F5.scalar(2))):
        with pytest.raises(InconsistentTranscriptError, match="ground truth"):
            entry_point(tampered, diag5)


class TestFindWitness:
    def test_true_secret_always_has_a_witness(self, diag5):
        rng = random.Random(3)
        for i in range(10):
            s = diag5.secret_domain[rng.randrange(4)]
            out = run_session(diag5, s, rng, session_id=i)
            found = find_witness(out.transcript, diag5, s)
            assert found is not None
            t_prime, a_prime, b_prime = found
            v = Point(s, t_prime)
            assert out.transcript.v1 == Point(
                v.x * a_prime.a + v.y * a_prime.c, v.x * a_prime.b + v.y * a_prime.d
            )

    def test_wrong_secret_has_no_witness_on_diagonal(self, diag5):
        transcript = lab_transcript(diag5, 2, 3, (2, 0, 0, 1), (3, 0, 0, 4))
        for s in (1, 3, 4):
            assert find_witness(transcript, diag5, F5.scalar(s)) is None

    def test_agrees_with_enumeration_everywhere_on_gl2_f2(self, gl2f2):
        fp = gl2f2.field
        for s in gl2f2.secret_domain:
            for t in gl2f2.t_domain:
                for a in gl2f2.group:
                    for b in gl2f2.group:
                        enc = SecretEncoding(s, t, Point(s, t))
                        out = run_session_with(gl2f2, enc, a, b)
                        ws = enumerate_consistent(out.transcript, gl2f2)
                        for candidate in gl2f2.secret_domain:
                            found = find_witness(out.transcript, gl2f2, candidate)
                            expected = candidate in ws.counts_by_secret
                            assert (found is not None) == expected

    def test_every_witness_re_derives_the_transcript_on_gl2_f3(self, gl2f3):
        # Independent of the enumeration engine: each answer is replayed
        # through the plain-integer oracle, and a None must mean that the
        # four-deep oracle scan finds no witness for that secret.
        fp = gl2f3.field
        p = fp.p
        elems = oracles.gl2(p)
        taus = {
            oracles.session(p, (s, t), a, b)[:3]
            for s in (1, 2)
            for t in range(p)
            for a in elems
            for b in elems
        }
        nones = 0
        for v1, v2, v3 in sorted(taus):
            tr = Transcript(gl2f3.name, *(pt(fp, *v) for v in (v1, v2, v3)))
            oracle_secrets = {w[0] for w in oracle_witnesses(gl2f3, tr)}
            for candidate in gl2f3.secret_domain:
                found = find_witness(tr, gl2f3, candidate)
                if found is None:
                    nones += 1
                    assert candidate.value not in oracle_secrets
                    continue
                t_prime, a_prime, b_prime = found
                a_res, b_res = a_prime.residues(), b_prime.residues()
                assert oracles.act(p, (candidate.value, t_prime.value), a_res) == v1
                assert oracles.act(p, v1, b_res) == v2
                assert oracles.act(p, v2, oracles.minv(p, a_res)) == v3
        assert len(taus) > 1 and nones > 0


class TestPosterior:
    def test_diagonal_is_a_point_mass(self, diag5):
        transcript = lab_transcript(diag5, 2, 3, (2, 0, 0, 1), (3, 0, 0, 4))
        report = posterior_from_transcript(transcript, diag5)
        assert report.posterior[F5.scalar(2)] == 1
        assert report.support == (F5.scalar(2),)
        assert not report.uniform

    def test_trivial_instance_is_uniform_on_its_single_secret(self, trivial5):
        out = run_session(trivial5, F5.scalar(1), random.Random(1))
        report = posterior_from_transcript(out.transcript, trivial5)
        assert report.uniform
        assert report.posterior[F5.scalar(1)] == 1

    def test_rotation_transcript_pins_the_secret(self, rot7):
        # The rotation action is free away from the origin, so the third
        # message pins the unmasking rotation and with it the encoded
        # point: the posterior collapses to the true secret. The in-test
        # four-deep oracle agrees, and the support is strictly inside the
        # norm circle whenever that circle holds more than one secret.
        transcript = lab_transcript(rot7, 1, 2, (0, 1, 6, 0), (2, 2, 5, 2))
        report = posterior_from_transcript(transcript, rot7)
        assert [s.value for s in report.support] == [1]

        oracle_support = sorted({w[0] for w in oracle_witnesses(rot7, transcript)})
        assert oracle_support == [1]

        circle = oracles.norm_circle(7, 5, range(1, 7), range(7))
        assert circle == {1, 2, 5, 6}
        assert set(oracle_support) < circle

    def test_prior_reweights_witness_counts(self, diag5):
        # t = 0 transcripts keep sixteen witnesses, all sharing the true
        # secret, so any full-support prior still yields a point mass.
        transcript = lab_transcript(diag5, 2, 0, (2, 0, 0, 1), (3, 0, 0, 4))
        prior = {
            F5.scalar(1): Fraction(1, 2),
            F5.scalar(2): Fraction(1, 6),
            F5.scalar(3): Fraction(1, 6),
            F5.scalar(4): Fraction(1, 6),
        }
        report = posterior_from_transcript(transcript, diag5, prior)
        assert report.posterior[F5.scalar(2)] == 1

    def test_prior_validation(self, diag5):
        with pytest.raises(ValueError, match="sum"):
            posterior_from_transcript(
                lab_transcript(diag5, 2, 3, (2, 0, 0, 1), (3, 0, 0, 4)),
                diag5,
                {F5.scalar(2): Fraction(1, 2)},
            )
        with pytest.raises(ValueError, match="not a valid secret"):
            posterior_from_transcript(
                lab_transcript(diag5, 2, 3, (2, 0, 0, 1), (3, 0, 0, 4)),
                diag5,
                {F5.scalar(0): Fraction(1)},
            )

    def test_impossible_transcript_raises(self, diag5):
        # Diagonal masks never zero the first coordinate of a nonzero secret.
        fake = Transcript("diagonal-f5", pt(F5, 0, 1), pt(F5, 0, 1), pt(F5, 0, 1))
        with pytest.raises(InconsistentTranscriptError, match="inconsistent transcript"):
            posterior_from_transcript(fake, diag5)

    def test_posterior_is_order_independent(self, diag5):
        out = run_session(diag5, F5.scalar(3), random.Random(8))
        report = posterior_from_transcript(out.transcript, diag5)
        ws = enumerate_consistent(out.transcript, diag5)
        shuffled = list(ws.witnesses)
        random.Random(0).shuffle(shuffled)
        counts: dict = {}
        for w in shuffled:
            counts[w[0]] = counts.get(w[0], 0) + 1
        total = sum(counts.values())
        recomputed = {s: Fraction(c, total) for s, c in counts.items()}
        for s, mass in report.posterior.items():
            assert mass == recomputed.get(s, Fraction(0))


class TestBayesMemo:
    """The exact Bayes step is computed once per prior and count
    signature; the per-transcript checks still run every time."""

    @staticmethod
    def _oracle_posterior(instance, transcript, prior):
        counts = {}
        for s, *_ in oracle_witnesses(instance, transcript):
            counts[s] = counts.get(s, 0) + 1
        total = sum(mass * counts.get(s.value, 0) for s, mass in prior.items())
        return {s: mass * counts.get(s.value, 0) / total for s, mass in prior.items()}

    def test_each_prior_gets_its_own_posterior(self):
        inst = build_instance("general-linear", 3)
        out = run_session(inst, F3.scalar(1), random.Random(2))
        uniform = {F3.scalar(1): Fraction(1, 2), F3.scalar(2): Fraction(1, 2)}
        skewed = {F3.scalar(1): Fraction(1, 5), F3.scalar(2): Fraction(4, 5)}
        expected = {
            name: self._oracle_posterior(inst, out.transcript, prior)
            for name, prior in (("uniform", uniform), ("skewed", skewed))
        }
        assert expected["uniform"] != expected["skewed"]
        for name, prior in (("uniform", uniform), ("skewed", skewed), ("uniform", uniform)):
            report = posterior_from_transcript(out.transcript, inst, prior)
            assert report.posterior == expected[name]
            assert report.prior == prior
        assert posterior_from_transcript(out.transcript, inst).posterior == expected["uniform"]

    def test_reports_share_no_mutable_object(self, diag5):
        transcript = lab_transcript(diag5, 2, 3, (2, 0, 0, 1), (3, 0, 0, 4))
        first = posterior_from_transcript(transcript, diag5)
        second = posterior_from_transcript(transcript, diag5)
        assert first.posterior == second.posterior
        assert first.posterior is not second.posterior
        assert first.prior is not second.prior
        first.posterior.clear()
        first.prior.clear()
        third = posterior_from_transcript(transcript, diag5)
        assert third.posterior == second.posterior and third.posterior[F5.scalar(2)] == 1
        assert third.prior == second.prior

    def test_a_prior_validated_once_serves_only_its_own_instance(self, diag5, rot7):
        transcript = lab_transcript(diag5, 2, 3, (2, 0, 0, 1), (3, 0, 0, 4))
        validated = posterior.posterior_prior(diag5)
        report = posterior_from_transcript(transcript, diag5, validated)
        assert report.posterior == posterior_from_transcript(transcript, diag5).posterior
        with pytest.raises(ValueError, match="another instance"):
            posterior_from_transcript(transcript, rot7, validated)

    def test_a_tampered_truth_is_refused_after_its_signature_is_memoized(self):
        inst = build_instance("diagonal", 7)
        genuine = run_session(inst, F7.scalar(3), random.Random(4)).transcript
        validated = posterior.posterior_prior(inst)
        posterior_from_transcript(genuine, inst, validated)
        assert len(validated.steps) == 1
        truth = genuine.ground_truth
        a, b, c, d = truth.mask_b.residues()
        doubled = Mat2.from_values(F7, 2 * a, b, c, 2 * d)  # v1.B' = 2.v2, never v2
        tampered = Transcript(
            genuine.instance, genuine.v1, genuine.v2, genuine.v3, genuine.session_id,
            GroundTruth(truth.s, truth.t, truth.mask_a, doubled),
        )
        with pytest.raises(InconsistentTranscriptError, match="ground truth"):
            posterior_from_transcript(tampered, inst, validated)
        assert len(validated.steps) == 1


class TestExactMutualInformation:
    def test_diagonal_f5_total_break_is_exactly_two_bits(self, diag5):
        report = exact_mutual_information(diag5)
        assert report.mutual_information_bits == 2.0
        assert not report.zero_leakage

    def test_identity_group_reveals_everything(self):
        inst = build_instance(
            "custom", 3, generators=[Mat2.identity(PrimeField(3))], name="identity-f3"
        )
        report = exact_mutual_information(inst)
        # Two equally likely secrets, fully revealed: exactly one bit.
        assert report.mutual_information_bits == 1.0
        assert not report.zero_leakage

    def test_trivial_instance_leaks_nothing(self, trivial5):
        report = exact_mutual_information(trivial5)
        assert report.mutual_information_bits == 0.0
        assert report.zero_leakage

    def test_rotation_f7_is_a_total_break(self, rot7):
        report = exact_mutual_information(rot7)
        assert report.mutual_information_bits == math.log2(6)
        assert not report.zero_leakage

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_general_linear_leaks_log2_p_minus_1_over_p_plus_1(self, p):
        # A reply scales v1 with probability 1/(p+1), and that transcript
        # names its secret; every other one leaves the posterior uniform.
        report = exact_mutual_information(build_instance("general-linear", p))
        assert report.mutual_information_bits == math.log2(p - 1) / (p + 1)

    def test_bounds_hold_across_instances(self, diag5, diag3, rot3, rot7, gl2f2, gl2f3, trivial5):
        for inst in (diag5, diag3, rot3, rot7, gl2f2, gl2f3, trivial5):
            report = exact_mutual_information(inst)
            assert 0.0 <= report.mutual_information_bits
            assert report.mutual_information_bits <= math.log2(len(inst.secret_domain)) + 1e-9
            if report.zero_leakage:
                assert report.mutual_information_bits == 0.0

    def test_zero_leakage_iff_transcript_equivalence(
        self, trivial5, diag3, diag5, rot3, rot7, gl2f2, gl2f3, borel3_embedded, borel5_embedded
    ):
        for inst in (
            trivial5, diag3, diag5, rot3, rot7, gl2f2, gl2f3, borel3_embedded, borel5_embedded,
        ):
            leak = exact_mutual_information(inst)
            equiv = check_transcript_equivalence(inst)
            assert leak.zero_leakage == equiv.passed, inst.name

    def test_cap(self, gl2f3):
        with pytest.raises(WorkCapExceeded):
            exact_mutual_information(gl2f3, cap=100)


def _naive_mi_bits(joint, prior, completions):
    """Independent float reference for the grouped-ratio computation."""
    p_t: dict = {}
    for (t_key, s_key), count in joint.items():
        p_t[t_key] = p_t.get(t_key, Fraction(0)) + prior[s_key] * Fraction(count, completions)
    bits = 0.0
    for (t_key, s_key), count in joint.items():
        p_joint = prior[s_key] * Fraction(count, completions)
        if p_joint == 0:
            continue
        bits += float(p_joint) * math.log2(float(p_joint / (prior[s_key] * p_t[t_key])))
    return bits


class TestMutualInformationHelper:
    def test_matches_naive_reference(self):
        joint = {("t0", "a"): 3, ("t1", "a"): 1, ("t0", "b"): 1, ("t1", "b"): 3}
        prior = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        bits, zero, examined = mutual_information_bits(joint, prior, 4)
        assert examined == 2
        assert not zero
        assert abs(bits - _naive_mi_bits(joint, prior, 4)) < 1e-12

    def test_additivity_on_independent_product(self):
        j1 = {("t0", "a"): 3, ("t1", "a"): 1, ("t0", "b"): 1, ("t1", "b"): 3}
        j2 = {("u0", "x"): 2, ("u1", "x"): 2, ("u0", "y"): 4, ("u1", "y"): 0}
        p1 = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        p2 = {"x": Fraction(1, 3), "y": Fraction(2, 3)}
        product = {
            ((t1, t2), (s1, s2)): c1 * c2
            for (t1, s1), c1 in j1.items()
            for (t2, s2), c2 in j2.items()
        }
        prior = {(s1, s2): p1[s1] * p2[s2] for s1 in p1 for s2 in p2}
        bits1, _, _ = mutual_information_bits(j1, p1, 4)
        bits2, _, _ = mutual_information_bits(j2, p2, 4)
        bits, _, _ = mutual_information_bits(product, prior, 16)
        assert abs(bits - (bits1 + bits2)) < 1e-9

    @pytest.mark.parametrize(
        "joint, prior",
        [
            ({("t0", "a"): 5, ("t1", "a"): -1, ("t0", "b"): 4}, None),
            ({("t0", "a"): 4.0, ("t0", "b"): 4}, None),
            ({("t0", "a"): True, ("t1", "a"): 3, ("t0", "b"): 4}, None),
            ({("t0", "a"): 3, ("t1", "a"): 2, ("t0", "b"): 4}, None),
            ({("t0", "a"): 4}, None),
            ({("t0", "a"): 4, ("t0", "c"): 4}, None),
            (None, {"a": Fraction(3, 2), "b": Fraction(-1, 2)}),
            (None, {"a": Fraction(1, 2), "b": Fraction(1, 4)}),
        ],
        ids=["negative-count", "float-count", "bool-count", "short-total", "missing-secret",
             "secret-without-prior", "negative-mass", "masses-sum-below-one"],
    )
    def test_rejects_malformed_input(self, joint, prior):
        joint = joint or {("t0", "a"): 4, ("t0", "b"): 4}
        prior = prior or {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        with pytest.raises(ValueError):
            mutual_information_bits(joint, prior, 4)

    def test_explicit_zero_cell_reads_like_an_absent_one(self):
        # t1 is reached only by the zero-mass secret b, so its mass T is 0.
        prior = {"a": Fraction(1), "b": Fraction(0)}
        absent = {("t0", "a"): 4, ("t1", "b"): 4}
        explicit = {**absent, ("t1", "a"): 0}
        assert mutual_information_bits(explicit, prior, 4) == (0.0, False, 2)
        assert mutual_information_bits(absent, prior, 4) == (0.0, False, 2)

    def test_flat_joint_is_exactly_zero(self):
        joint = {(t, s): 2 for t in ("t0", "t1") for s in ("a", "b")}
        prior = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        bits, zero, _ = mutual_information_bits(joint, prior, 4)
        assert bits == 0.0
        assert zero


def _captured_reduction(monkeypatch, instance, prior=None):
    """The report of exact_mutual_information and the (joint, prior,
    completions) of the one call it made to mutual_information_bits,
    with every key of multiplicity m listed as m separate transcripts."""
    calls = []
    reduce = analysis.mutual_information_bits

    def spy(joint, prior, completions, multiplicity=None):
        calls.append((joint, prior, completions, multiplicity or {}))
        return reduce(joint, prior, completions, multiplicity)

    monkeypatch.setattr(analysis, "mutual_information_bits", spy)
    report = exact_mutual_information(instance, prior)
    monkeypatch.undo()
    assert len(calls) == 1
    joint, prior, completions, multiplicity = calls[0]
    listed = {
        ((t_key, i), s_key): count
        for (t_key, s_key), count in joint.items()
        for i in range(multiplicity.get(t_key, 1))
    }
    return report, (listed, prior, completions)


def _test_priors(secrets):
    """Uniform, skewed (mass proportional to 1, 2, ..., n) and, with two
    or more secrets, one that puts zero mass on the first secret."""
    n = len(secrets)
    priors = [
        {s: Fraction(1, n) for s in secrets},
        {s: Fraction(2 * (i + 1), n * (n + 1)) for i, s in enumerate(secrets)},
    ]
    if n > 1:
        rest = n * (n - 1) // 2
        priors.append({s: Fraction(i, rest) for i, s in enumerate(secrets)})
    return priors


@st.composite
def _random_joints(draw):
    """A small joint in which each secret's counts total the completions,
    with some explicit zero cells, under a prior that may hold zero masses."""
    n_secrets = draw(st.integers(1, 4))
    n_transcripts = draw(st.integers(1, 5))
    completions = draw(st.integers(1, 12))
    joint = {}
    for s in range(n_secrets):
        cuts = sorted(draw(st.lists(
            st.integers(0, completions), min_size=n_transcripts - 1, max_size=n_transcripts - 1
        )))
        for t, (lo, hi) in enumerate(zip([0] + cuts, cuts + [completions])):
            if hi > lo or draw(st.booleans()):
                joint[(t, s)] = hi - lo
    weights = draw(st.lists(st.integers(0, 6), min_size=n_secrets, max_size=n_secrets).filter(any))
    prior = {s: Fraction(w, sum(weights)) for s, w in enumerate(weights)}
    return joint, prior, completions


class TestMutualInformationOracle:
    """The reduction against the Fraction reference in tests/oracles.py,
    compared under == on bits, the zero-leakage verdict and the count."""

    @pytest.mark.parametrize(
        "name", ["diag5", "rot7", "gl2f3", "borel5_embedded", "identity3", "trivial5"]
    )
    def test_instance_joints_match_the_reference(self, request, monkeypatch, name):
        instance = request.getfixturevalue(name)
        report, (joint, prior, completions) = _captured_reduction(monkeypatch, instance)
        expected = oracles.mutual_information(joint, prior, completions)
        assert (
            report.mutual_information_bits, report.zero_leakage, report.transcripts_examined
        ) == expected
        for other in _test_priors(sorted(prior)):
            assert mutual_information_bits(joint, other, completions) == (
                oracles.mutual_information(joint, other, completions)
            )

    @pytest.mark.parametrize("name", ["diag5", "rot7", "borel5_embedded"])
    def test_nonuniform_priors_through_the_instance_path(self, request, monkeypatch, name):
        instance = request.getfixturevalue(name)
        for prior in _test_priors(sorted(instance.secret_domain, key=lambda s: s.value))[1:]:
            report, args = _captured_reduction(monkeypatch, instance, prior)
            assert (
                report.mutual_information_bits, report.zero_leakage, report.transcripts_examined
            ) == oracles.mutual_information(*args)

    @settings(max_examples=300, deadline=None)
    @given(_random_joints())
    def test_random_joints_match_the_reference(self, case):
        joint, prior, completions = case
        try:
            expected = oracles.mutual_information(joint, prior, completions)
        except ZeroDivisionError:
            # A zero cell at a transcript only zero-mass secrets produce
            # has no defined posterior; the reference divides by zero there.
            reject()
        assert mutual_information_bits(joint, prior, completions) == expected

    @settings(max_examples=100, deadline=None)
    @given(_random_joints(), st.data())
    def test_a_multiplicity_reads_like_repeated_transcripts(self, case, data):
        joint, prior, completions = case
        mult = {t: data.draw(st.integers(1, 3)) for t, _ in joint}
        # Each count is scaled by L / m so every secret still totals L * completions.
        lcm = math.lcm(*mult.values())
        weighted = {(t, s): c * (lcm // mult[t]) for (t, s), c in joint.items()}
        listed = {((t, i), s): c for (t, s), c in weighted.items() for i in range(mult[t])}
        total = lcm * completions
        try:
            expected = oracles.mutual_information(listed, prior, total)
        except ZeroDivisionError:
            reject()
        assert mutual_information_bits(weighted, prior, total, multiplicity=mult) == expected

    @pytest.mark.parametrize("size", [0, -1, True, 2.0])
    def test_rejects_a_malformed_multiplicity(self, size):
        joint = {("t0", "a"): 2, ("t0", "b"): 2}
        prior = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        with pytest.raises(ValueError, match="multiplicity"):
            mutual_information_bits(joint, prior, 4, multiplicity={"t0": size})


class TestQuotientAttack:
    def test_recovers_secret_from_the_worked_example(self, diag5):
        transcript = lab_transcript(diag5, 2, 3, (2, 0, 0, 1), (3, 0, 0, 4))
        assert transcript.v2 == pt(F5, 2, 2)
        estimate = quotient_attack(transcript)
        assert estimate == F5.scalar(2)

    def test_identity_masks_reveal_directly(self, diag5):
        transcript = lab_transcript(diag5, 3, 1, (1, 0, 0, 1), (1, 0, 0, 1))
        assert quotient_attack(transcript) == F5.scalar(3)

    def test_recovers_on_all_applicable_diagonal_transcripts(self, diag5):
        rng = random.Random(12)
        applicable = 0
        for i in range(200):
            s = diag5.secret_domain[rng.randrange(4)]
            out = run_session(diag5, s, rng, session_id=i)
            if out.transcript.v1.x.is_zero or out.transcript.v1.y.is_zero:
                continue
            applicable += 1
            assert quotient_attack(out.transcript) == s
        assert applicable > 100

    def test_zero_component_is_inapplicable(self, diag5):
        transcript = lab_transcript(diag5, 2, 0, (2, 0, 0, 1), (3, 0, 0, 4))
        with pytest.raises(AttackInapplicableError, match="inapplicable"):
            quotient_attack(transcript)

    def test_disagrees_on_rotation_instances(self, rot7):
        rng = random.Random(5)
        disagreements = 0
        for i in range(50):
            s = rot7.secret_domain[rng.randrange(6)]
            out = run_session(rot7, s, rng, session_id=i)
            v1 = out.transcript.v1
            if v1.x.is_zero or v1.y.is_zero:
                continue
            try:
                disagreements += quotient_attack(out.transcript) != s
            except AttackInapplicableError:
                continue
        assert disagreements > 0


class TestSearch:
    def test_p2_census_is_complete(self):
        report = search_instances(2)
        assert report.complete
        assert report.subgroups_examined == 6
        assert sorted(e.group_order for e in report.entries) == [1, 2, 2, 2, 3, 6]
        assert report.candidates == ()
        # The only non-abelian subgroup is the full group, whose secret
        # square is not commutator-fixed.
        big = [e for e in report.entries if e.group_order == 6][0]
        assert not big.abelian
        fixed = [r for r in big.reports if r.condition == "comm-fixed-set"][0]
        assert not fixed.passed

    def test_p2_entries_revalidate_from_descriptors(self):
        report = search_instances(2)
        for entry in report.entries:
            inst = instance_from_descriptor(entry.descriptor)
            for original in entry.reports:
                if original.condition == "comm-fixed-set":
                    from triplepass.checks import is_commutator_fixed_set, secret_square_points

                    fresh = is_commutator_fixed_set(
                        secret_square_points(inst), inst.group, inst.name
                    )
                elif original.condition == "masking-coverage":
                    from triplepass.checks import check_masking_coverage

                    fresh = check_masking_coverage(inst)
                else:
                    fresh = check_transcript_equivalence(inst)
                assert fresh.passed == original.passed
                assert fresh.counterexample == original.counterexample
            if entry.leakage is not None:
                fresh_leak = exact_mutual_information(inst)
                assert fresh_leak.mutual_information_bits == entry.leakage.mutual_information_bits
                assert fresh_leak.zero_leakage == entry.leakage.zero_leakage

    def test_p3_abelian_instances_with_multiple_secrets_all_leak(self):
        report = search_instances(3)
        assert report.complete
        assert report.subgroups_examined == 55
        checked = 0
        for entry in report.entries:
            if entry.abelian and len(entry.descriptor["secret_domain"]) > 1:
                equivalence = [
                    r for r in entry.reports if r.condition == "transcript-equivalence"
                ][0]
                assert (not equivalence.passed) or entry.leakage.zero_leakage is False
                checked += 1
        assert checked > 10
        assert report.candidates == ()

    @pytest.mark.parametrize("p, reliable_of_all, sizes, least, least_order, least_bits", [
        (3, (34, 55), {2}, "subgroup-f3-o48-54", 48, 0.25),
        (5, (323, 533), {2, 4}, "subgroup-f5-o480-460", 480, 1 / 3),
    ])
    def test_p3_reliable_entries_leak_their_whole_secret(
        self, p, reliable_of_all, sizes, least, least_order, least_bits
    ):
        # A reliable entry (every commutator fixes the secret square) is a
        # total break: its MI is log2 |S|. A large subgroup leaks least.
        report = search_instances(p)
        reliable = [e for e in report.entries if e.reports[0].condition == "comm-fixed-set"
                    and e.reports[0].passed]
        assert (len(reliable), len(report.entries)) == reliable_of_all
        assert {len(e.descriptor["secret_domain"]) for e in reliable} == sizes
        for e in reliable:
            assert e.leakage.mutual_information_bits == math.log2(len(e.descriptor["secret_domain"]))
        entry = min(report.entries, key=lambda e: e.leakage.mutual_information_bits)
        assert (entry.descriptor["name"], entry.group_order) == (least, least_order)
        assert entry.leakage.mutual_information_bits == least_bits

    def test_cap_produces_incomplete_report(self):
        report = search_instances(3, cap=500)
        assert not report.complete

    def test_generator_sets_stop_at_the_group_order(self, monkeypatch):
        # |GL2(F2)| = 6: larger sets would repeat elements, so they are not drawn.
        calls = []

        def counted(pool, size):
            calls.append(size)
            return combinations(pool, size)

        monkeypatch.setattr(census, "combinations", counted)
        report = search_instances(2, 1000)
        assert len(calls) <= 6
        assert report.max_generators == 1000
        assert report.entries == search_instances(2, 6).entries


def test_p3_census_subgroups_match_oracle_closures():
    """Every subgroup of the p=3 census is the oracle closure of its
    recorded generators, and the census finds exactly the distinct
    closures of all one- and two-element generator sets."""
    report = search_instances(3, with_leakage=False)
    element_sets = set()
    for entry in report.entries:
        desc = entry.descriptor
        if desc["name"].endswith("-embedded"):
            continue
        gens = [parse_matrix(g).residues() for g in desc["generators"]]
        expected = oracles.closure(3, gens)
        group = instance_from_descriptor(desc).group
        assert {m.residues() for m in group} == expected
        assert entry.group_order == len(expected)
        element_sets.add(expected)
    assert len(element_sets) == report.subgroups_examined == 55
    gl2 = oracles.gl2(3)
    combos = [[g] for g in gl2] + [list(pair) for pair in combinations(gl2, 2)]
    assert element_sets == {oracles.closure(3, combo) for combo in combos}


@pytest.mark.parametrize("p, max_generators", [(3, 2), (2, 3)])
def test_census_records_the_first_generating_combination(p, max_generators):
    """Each full-plane entry records, as its generators, the first
    combination of GL2(F_p) elements, size by size in oracle order,
    whose oracle closure is its subgroup."""
    first = {}
    gl2 = oracles.gl2(p)
    for size in range(1, max_generators + 1):
        for combo in combinations(gl2, size):
            first.setdefault(oracles.closure(p, combo), combo)
    report = search_instances(p, max_generators, with_leakage=False)
    assert report.complete
    full_plane = [e for e in report.entries if not e.descriptor["name"].endswith("-embedded")]
    assert len(full_plane) == report.subgroups_examined == len(first)
    for entry in full_plane:
        gens = tuple(parse_matrix(g).residues() for g in entry.descriptor["generators"])
        assert gens == first[oracles.closure(p, gens)]


def test_census_work_cap_counts_closure_steps():
    """The census spends one unit of the cap per group product, so the
    p = 3 census completes exactly from 17,067 units on; a run that stops
    early keeps the subgroups it found, each with its entry."""
    assert search_instances(3, cap=17067, with_leakage=False).complete
    short = search_instances(3, cap=17066, with_leakage=False)
    assert not short.complete
    assert len(short.entries) >= short.subgroups_examined > 0
