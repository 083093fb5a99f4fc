import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import oracles
import triplepass
from triplepass.actions import Point, act, build_instance, instance_index, rational_demo_instance
from triplepass.errors import TriplePassError
from triplepass.fields import PrimeField, RATIONALS
from triplepass.matrices import Mat2
from triplepass.protocol import (
    GroundTruth,
    SecretEncoding,
    check_roundtrip_commutator_fixed,
    encode_secret,
    exhaustive_roundtrip,
    run_session,
    run_session_with,
    sample_rational_matrix,
    sample_rational_scalar,
    transcript_from_dict,
    transcript_to_dict,
)

F2 = PrimeField(2)
F5 = PrimeField(5)


@pytest.fixture(scope="module")
def diag5_with_zero():
    return build_instance("diagonal", 5, secret_domain=[0, 1, 2, 3, 4])


def pt(field, x, y):
    return Point(field.scalar(x), field.scalar(y))


def encoding(field, s, t):
    return SecretEncoding(field.scalar(s), field.scalar(t), pt(field, s, t))


class TestPasses:
    def test_identity_masks_round_trip(self):
        ident = Mat2.identity(F5)
        v = pt(F5, 2, 3)
        v1 = act(ident, v)
        v2 = act(ident, v1)
        v3 = act(ident.inverse(), v2)
        v4 = act(ident.inverse(), v3)
        assert (v1, v2, v3, v4) == (v, v, v, v)

    def test_f2_failure_sequence(self, gl2f2):
        # Oracle: plain-int session over F2.
        assert oracles.session(2, (1, 0), (1, 1, 0, 1), (1, 0, 1, 1)) == (
            (1, 1),
            (0, 1),
            (0, 1),
            (1, 1),
        )
        out = run_session_with(
            gl2f2,
            encoding(F2, 1, 0),
            Mat2.from_values(F2, 1, 1, 0, 1),
            Mat2.from_values(F2, 1, 0, 1, 1),
        )
        assert out.transcript.v1 == pt(F2, 1, 1)
        assert out.transcript.v2 == pt(F2, 0, 1)
        assert out.transcript.v3 == pt(F2, 0, 1)
        assert out.v4 == pt(F2, 1, 1)
        assert not out.success

    def test_f5_diagonal_success_sequence(self, diag5):
        assert oracles.session(5, (2, 3), (2, 0, 0, 1), (3, 0, 0, 4)) == (
            (4, 3),
            (2, 2),
            (1, 2),
            (2, 3),
        )
        out = run_session_with(
            diag5,
            encoding(F5, 2, 3),
            Mat2.from_values(F5, 2, 0, 0, 1),
            Mat2.from_values(F5, 3, 0, 0, 4),
        )
        assert out.transcript.v1 == pt(F5, 4, 3)
        assert out.transcript.v2 == pt(F5, 2, 2)
        assert out.transcript.v3 == pt(F5, 1, 2)
        assert out.v4 == pt(F5, 2, 3)
        assert out.success

    def test_mask_unmask_inverse_exhaustive_small(self, gl2f3):
        fp = gl2f3.field
        for x in range(3):
            for y in range(3):
                v = pt(fp, x, y)
                for mask in gl2f3.group:
                    assert act(mask.inverse(), act(mask, v)) == v

    def test_mask_unmask_inverse_sampled_larger_primes(self):
        rng = random.Random(11)
        for p in (5, 7):
            inst = build_instance("general-linear", p)
            fp = inst.field
            for _ in range(50):
                v = pt(fp, rng.randrange(p), rng.randrange(p))
                mask = inst.group.elements[rng.randrange(len(inst.group))]
                assert act(mask.inverse(), act(mask, v)) == v


class TestEncodeSecret:
    def test_seeded_encoding_is_reproducible(self, diag5):
        s = F5.scalar(2)
        first = encode_secret(diag5, s, random.Random(42))
        second = encode_secret(diag5, s, random.Random(42))
        assert first == second
        assert first.v == Point(first.s, first.t)

    def test_zero_secret_rejected_on_multiplicative_instance(self, diag5):
        with pytest.raises(ValueError, match="nonzero"):
            encode_secret(diag5, F5.zero, random.Random(1))

    def test_secret_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            encode_secret(
                build_instance("diagonal", 5, secret_domain=[1, 2]),
                F5.scalar(3),
                random.Random(1),
            )

    def test_rational_sampler_bounds(self):
        rng = random.Random(7)
        inst = rational_demo_instance()
        for _ in range(50):
            enc = encode_secret(inst, RATIONALS.scalar(3, 2), rng)
            assert abs(enc.t.value.numerator) <= 9
            assert 1 <= enc.t.value.denominator <= 9

    def test_rational_zero_secret_rejected(self):
        with pytest.raises(ValueError):
            encode_secret(rational_demo_instance(), RATIONALS.zero, random.Random(1))


class TestRunSession:
    def test_abelian_instances_always_succeed(self, diag5, rot7):
        for inst in (diag5, rot7):
            rng = random.Random(5)
            for i in range(100):
                s = inst.secret_domain[rng.randrange(len(inst.secret_domain))]
                assert run_session(inst, s, rng, session_id=i).success

    def test_seeded_sessions_reproduce_exactly(self, diag5):
        def transcripts(seed):
            rng = random.Random(seed)
            return [
                transcript_to_dict(run_session(diag5, F5.scalar(2), rng).transcript, lab_view=True)
                for _ in range(10)
            ]

        assert transcripts(42) == transcripts(42)
        assert transcripts(42) != transcripts(43)

    def test_general_linear_f3_fails_sometimes(self, gl2f3):
        rng = random.Random(0)
        outcomes = []
        for i in range(1000):
            s = gl2f3.secret_domain[rng.randrange(len(gl2f3.secret_domain))]
            outcomes.append(run_session(gl2f3, s, rng, session_id=i).success)
        monte_carlo = sum(outcomes) / len(outcomes)
        assert monte_carlo < 1.0

        # Exact rate over all (v, A, B) with v drawn from S x T.
        idx = instance_index(gl2f3)
        starts = [idx.point_of_pair[(s, t)] for s in idx.s_res for t in idx.t_res]
        table, inverse = idx.act_table, idx.inverse
        hits = total = 0
        for v in starts:
            for a_i in range(idx.n_group):
                v1 = table[a_i][v]
                inv_a = table[inverse[a_i]]
                for b_i in range(idx.n_group):
                    v4 = table[inverse[b_i]][inv_a[table[b_i][v1]]]
                    hits += v4 == v
                    total += 1
        exact = hits / total
        assert exact < 1.0
        assert abs(monte_carlo - exact) < 0.1

    def test_rational_sessions_match_commutation(self):
        inst = rational_demo_instance()
        rng = random.Random(9)
        commuted = 0
        for i in range(30):
            s = sample_rational_scalar(rng, nonzero=True)
            out = run_session(inst, s, rng, session_id=i)
            truth = out.transcript.ground_truth
            commute = truth.mask_a.commutes_with(truth.mask_b)
            commuted += commute
            v = Point(truth.s, truth.t)
            # Success is exactly "the applied commutator fixes v"; commuting
            # masks are the typical reason, and for these seeds the only one.
            assert out.success == (act(out.commutator_applied, v) == v)
            assert out.success == commute
        assert commuted < 30

    def test_v4_is_commutator_action_exhaustively_on_f2(self, gl2f2):
        fp = gl2f2.field
        for x in range(2):
            for y in range(2):
                for mask_a in gl2f2.group:
                    for mask_b in gl2f2.group:
                        enc = SecretEncoding(fp.scalar(x), fp.scalar(y), pt(fp, x, y))
                        out = run_session_with(gl2f2, enc, mask_a, mask_b)
                        assert out.v4 == act(out.commutator_applied, enc.v)


# Corrupts the row of A = diag(2, 1) at v = (1, 1) in a diagonal-f5 index,
# then runs one session (v, A, identity) through it.
CORRUPTED_ROW_SESSION = textwrap.dedent(
    """
    from triplepass import Mat2, build_instance
    from triplepass.actions import instance_index
    from triplepass.fields import PrimeField
    from triplepass.protocol import SecretEncoding, run_session_with

    F5 = PrimeField(5)
    inst = build_instance("diagonal", 5)
    idx = instance_index(inst)
    mask_a = Mat2.from_values(F5, 2, 0, 0, 1)
    a_i = inst.group.index_of(mask_a)
    row = list(idx.act_table[a_i])
    row[1 * 5 + 1] = 3 * 5 + 1  # (1, 1).A now reads (3, 1), not (2, 1)
    idx.act_table[a_i] = row
    enc = SecretEncoding(F5.scalar(1), F5.scalar(1), idx.points[1 * 5 + 1])
    try:
        run_session_with(inst, enc, mask_a, Mat2.identity(F5))
    except AssertionError as exc:
        print("refused:", exc)
    else:
        print("accepted")
    """
)


class TestIndexedSessionCore:
    """Finite sessions run on the index tables; plain integers check them."""

    @pytest.mark.parametrize("name", ["gl2f3", "diag5", "borel5_embedded"])
    def test_every_session_matches_the_oracle(self, request, name):
        inst = request.getfixturevalue(name)
        fp, p = inst.field, inst.field.p
        if inst.embedding is None:
            starts = [(fp.scalar(x), fp.scalar(y), pt(fp, x, y)) for x in range(p) for y in range(p)]
        else:
            starts = [(s, t, v) for (s, t), v in inst.embedding.items()]
        masks = list(zip(inst.group.residues, inst.group.elements))
        for s, t, v in starts:
            enc = SecretEncoding(s, t, v)
            start = (v.x.value, v.y.value)
            for a, mask_a in masks:
                a_inv = oracles.minv(p, a)
                for b, mask_b in masks:
                    out = run_session_with(inst, enc, mask_a, mask_b)
                    tr = out.transcript
                    expected = oracles.session(p, start, a, b)
                    got = tuple((q.x.value, q.y.value) for q in (tr.v1, tr.v2, tr.v3, out.v4))
                    assert got == expected, (start, a, b)
                    assert out.success == (expected[3] == start)
                    comm = oracles.mmul(
                        p, oracles.mmul(p, oracles.mmul(p, a, b), a_inv), oracles.minv(p, b)
                    )
                    assert out.commutator_applied.residues() == comm
                    assert tr.ground_truth == GroundTruth(s, t, mask_a, mask_b)

    @pytest.mark.parametrize("name", ["gl2f3", "diag5", "diag5_with_zero", "borel5_embedded"])
    def test_run_session_draws_t_then_a_then_b(self, request, name):
        # t is uniform over the t-domain for every secret, 0 included:
        # the distribution that the leakage analysis counts.
        inst = request.getfixturevalue(name)
        rng, replay = random.Random(21), random.Random(21)
        n = len(inst.group)
        for i in range(60):
            s = inst.secret_domain[i % len(inst.secret_domain)]
            out = run_session(inst, s, rng, session_id=i)
            t = inst.t_domain[replay.randrange(len(inst.t_domain))]
            mask_a = inst.group.elements[replay.randrange(n)]
            mask_b = inst.group.elements[replay.randrange(n)]
            assert out.transcript.ground_truth == GroundTruth(s, t, mask_a, mask_b)
            assert rng.getstate() == replay.getstate()

    @pytest.mark.parametrize("python_flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_a_corrupted_action_row_breaks_the_composition_check(self, python_flags):
        src = str(Path(triplepass.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, *python_flags, "-c", CORRUPTED_ROW_SESSION],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "refused: the four passes do not compose to the mask commutator\n"

    def test_a_mask_outside_the_group_is_refused(self, diag5):
        enc = encoding(F5, 2, 3)
        inside = Mat2.from_values(F5, 2, 0, 0, 1)
        for outside in (Mat2.from_values(F5, 1, 1, 0, 1), Mat2.from_values(F5, 1, 0, 0, 0)):
            for mask_a, mask_b in ((outside, inside), (inside, outside)):
                with pytest.raises(TriplePassError, match="elements of the diagonal-f5 group"):
                    run_session_with(diag5, enc, mask_a, mask_b)
        with pytest.raises(TriplePassError):
            run_session_with(diag5, enc, Mat2.from_values(F2, 1, 0, 0, 1), inside)
        # The rational passes are plain ``act`` calls, which refuse a
        # singular mask and a mask from another domain.
        rational, q = rational_demo_instance(), Mat2.identity(RATIONALS)
        enc_q = SecretEncoding(RATIONALS.one, RATIONALS.one, Point(RATIONALS.one, RATIONALS.one))
        singular = Mat2(RATIONALS.one, RATIONALS.one, RATIONALS.one, RATIONALS.one)
        for mask_a, mask_b in ((singular, q), (q, singular), (inside, q), (q, inside)):
            with pytest.raises(TriplePassError):
                run_session_with(rational, enc_q, mask_a, mask_b)


class TestRoundtripVsCommutatorFixed:
    def test_diagonal_both_true(self, diag5):
        report = check_roundtrip_commutator_fixed(diag5)
        assert report.passed
        assert report.detail["all_sessions_succeed"]
        assert report.detail["secret_square_commutator_fixed"]

    def test_gl2_f2_both_false(self, gl2f2):
        report = check_roundtrip_commutator_fixed(gl2f2)
        assert report.passed
        assert not report.detail["all_sessions_succeed"]
        assert not report.detail["secret_square_commutator_fixed"]

    def test_borel_embedded_both_true(self, borel3_embedded):
        report = check_roundtrip_commutator_fixed(borel3_embedded)
        assert report.passed
        assert report.detail["all_sessions_succeed"]
        assert report.detail["secret_square_commutator_fixed"]

    def test_borel_full_plane_both_false(self, borel3_plane):
        report = check_roundtrip_commutator_fixed(borel3_plane)
        assert report.passed
        assert not report.detail["all_sessions_succeed"]
        assert not report.detail["secret_square_commutator_fixed"]

    def test_commutative_kinds_round_trip_everywhere(self):
        for kind in ("diagonal", "rotation", "scalar"):
            for p in (3, 5):
                failures, _, first = exhaustive_roundtrip(build_instance(kind, p), "carrier")
                assert failures == 0, (kind, p, first)


@pytest.mark.parametrize("over", ["secret-square", "carrier"])
@pytest.mark.parametrize("fixture", ["gl2f2", "gl2f3", "borel3_plane", "borel3_embedded", "rot7"])
def test_exhaustive_roundtrip_matches_the_session_oracle(request, fixture, over):
    inst = request.getfixturevalue(fixture)
    p = inst.field.p
    if over == "carrier":
        starts = [(x, y) for x in range(p) for y in range(p)]
    else:
        square = [inst.secret_pair_point(s, t) for s in inst.secret_domain for t in inst.secret_domain]
        starts = [(pt.x.value, pt.y.value) for pt in square]
    masks = [m.residues() for m in inst.group.elements]
    failures, first = 0, None
    for v in starts:
        for a in masks:
            for b in masks:
                if oracles.session(p, v, a, b)[3] != v:
                    failures += 1
                    first = first or (v, a, b)
    got_failures, total, got_first = exhaustive_roundtrip(inst, over)
    if got_first is not None:
        pt, mask_a, mask_b = got_first
        got_first = ((pt.x.value, pt.y.value), mask_a.residues(), mask_b.residues())
    assert (got_failures, total, got_first) == (failures, len(starts) * len(masks) ** 2, first)


class TestTranscriptWireFormat:
    def test_adversary_view_has_no_secret_fields(self, diag5):
        out = run_session(diag5, F5.scalar(2), random.Random(1))
        d = transcript_to_dict(out.transcript)
        assert list(d.keys()) == ["instance", "p", "v1", "v2", "v3"]
        assert d["p"] == 5
        text = str(d)
        assert "truth" not in d
        assert "'s'" not in text and "'A'" not in text and "'B'" not in text

    def test_lab_view_round_trip(self, diag5):
        out = run_session(diag5, F5.scalar(2), random.Random(1))
        d = transcript_to_dict(out.transcript, lab_view=True)
        assert list(d.keys()) == ["instance", "p", "v1", "v2", "v3", "truth"]
        assert sorted(d["truth"].keys()) == ["A", "B", "s", "t"]
        back = transcript_from_dict(d)
        assert back.v1 == out.transcript.v1
        assert back.ground_truth == out.transcript.ground_truth

    def test_one_prime_field_per_modulus(self, diag5, monkeypatch):
        # A transcript and each of its matrix literals name their modulus;
        # the field of a modulus is built, and tested for primality, once.
        out = run_session(diag5, F5.scalar(2), random.Random(1))
        d = transcript_to_dict(out.transcript, lab_view=True)
        first = transcript_from_dict(d)

        def refuse(n):
            raise AssertionError(f"primality of {n} tested again")

        monkeypatch.setattr(triplepass.fields, "is_prime", refuse)
        again = transcript_from_dict(d, 1)
        truth = again.ground_truth
        assert again.v1.domain is first.v1.domain is truth.mask_a.domain is truth.mask_b.domain

    def test_lab_view_requires_truth(self, diag5):
        out = run_session(diag5, F5.scalar(2), random.Random(1))
        bare = transcript_from_dict(transcript_to_dict(out.transcript))
        with pytest.raises(ValueError):
            transcript_to_dict(bare, lab_view=True)

    def test_rational_transcript_serializes_fractions(self):
        inst = rational_demo_instance()
        out = run_session(inst, RATIONALS.scalar(3, 2), random.Random(2))
        d = transcript_to_dict(out.transcript, lab_view=True)
        assert d["p"] == "Q"
        assert all(isinstance(coord, str) for coord in d["v1"] + d["v2"] + d["v3"])
        back = transcript_from_dict(d)
        assert back.v2 == out.transcript.v2

    def test_rational_matrix_sampler_rejects_singular(self):
        rng = random.Random(4)
        for _ in range(20):
            assert sample_rational_matrix(rng).is_invertible
