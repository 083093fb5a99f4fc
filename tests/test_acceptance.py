"""Acceptance suite: the lab's exit criteria, one test per criterion.

Each test prints a single pass line when it completes; a failing test is
a failing criterion. Criterion 7 pins down where a rotation-masked
exchange leaks: the first message alone leaks exactly the norm circle of
the encoded point, while the three messages together pin the masks (the
action is free away from the origin), so the full-transcript posterior
is the true secret with mass 1. Independent plain-integer oracles check
both halves.
"""

import math
from itertools import combinations

import oracles
from triplepass.actions import (
    ActionInstance,
    Point,
    build_instance,
    instance_from_descriptor,
    instance_index,
)
from triplepass.analysis import exact_mutual_information, quotient_attack
from triplepass.census import search_instances
from triplepass.checks import (
    check_masking_coverage,
    check_transcript_equivalence,
    is_commutator_fixed_point,
    is_commutator_fixed_set,
    secret_square_points,
)
from triplepass.cli import main
from triplepass.fields import PrimeField
from triplepass.groups import enumerate_gl2, subgroup_closure
from triplepass.matrices import Mat2
from triplepass.posterior import enumerate_consistent, find_witness, posterior_from_transcript
from triplepass.protocol import (
    SecretEncoding,
    check_roundtrip_commutator_fixed,
    exhaustive_roundtrip,
    run_session_with,
)

F2 = PrimeField(2)
F5 = PrimeField(5)


def _ok(number: int, summary: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {summary}")


def _pt(field, x, y):
    return Point(field.scalar(x), field.scalar(y))


def _gl2_f2_subgroups():
    ambient = enumerate_gl2(2)
    subs = {}
    for size in (1, 2):
        for combo in combinations(ambient.elements, size):
            group = subgroup_closure(list(combo))
            subs[frozenset(m.residues() for m in group)] = group
    return sorted(subs.values(), key=len)


def _plane_instance(group, name):
    fp = group.domain
    instance = ActionInstance(
        name=name,
        field=fp,
        group=group,
        secret_domain=fp.nonzero_elements(),
        t_domain=fp.elements(),
        embedding=None,
        multiplicative=True,
        kind="custom",
    )
    instance_index(instance)
    return instance


def _all_transcripts(instance):
    """Every realizable transcript, one representative (v, A, B) each."""
    seen = {}
    for s in instance.secret_domain:
        for t in instance.t_domain:
            enc = SecretEncoding(s, t, instance.secret_pair_point(s, t))
            for mask_a in instance.group:
                for mask_b in instance.group:
                    out = run_session_with(instance, enc, mask_a, mask_b)
                    tr = out.transcript
                    key = tuple(
                        (v.x.value, v.y.value) for v in (tr.v1, tr.v2, tr.v3)
                    )
                    if key not in seen:
                        seen[key] = tr
    return list(seen.values())


def test_criterion_01_general_linear_f2_failure_reproduction(gl2f2):
    enc = SecretEncoding(F2.one, F2.zero, _pt(F2, 1, 0))
    out = run_session_with(
        gl2f2, enc, Mat2.from_values(F2, 1, 1, 0, 1), Mat2.from_values(F2, 1, 0, 1, 1)
    )
    assert out.transcript.v1 == _pt(F2, 1, 1)
    assert out.transcript.v2 == _pt(F2, 0, 1)
    assert out.transcript.v3 == _pt(F2, 0, 1)
    assert out.v4 == _pt(F2, 1, 1)
    assert out.v4 != enc.v
    assert not out.success
    _ok(1, "shear masks over F2 break the round trip exactly as scripted")


def test_criterion_02_commutative_masks_round_trip_everywhere():
    total = 0
    for kind in ("diagonal", "rotation", "scalar"):
        for p in (3, 5, 7):
            instance = build_instance(kind, p)
            failures, count, first = exhaustive_roundtrip(instance, "carrier")
            assert failures == 0, (kind, p, first)
            total += count
    _ok(2, f"100% round-trip success over {total} exhaustive commutative sessions")


def test_criterion_03_roundtrip_matches_commutator_fixedness(borel3_embedded, borel3_plane):
    instances = []
    for i, group in enumerate(_gl2_f2_subgroups()):
        instances.append(_plane_instance(group, f"gl2f2-subgroup-{i}"))
    assert len(instances) == 6
    instances += [
        build_instance("diagonal", 3),
        build_instance("rotation", 3),
        borel3_plane,
        borel3_embedded,
    ]
    agreements = []
    for instance in instances:
        report = check_roundtrip_commutator_fixed(instance)
        assert report.passed, (instance.name, report.detail)
        agreements.append(report.detail["all_sessions_succeed"])
    # Both agreement polarities are exercised.
    assert True in agreements and False in agreements
    _ok(3, f"round-trip success matched commutator-fixedness on {len(instances)} instances")


def test_criterion_04_fixed_point_definitions_agree(gl2f3, borel3_plane):
    groups = [g for g in _gl2_f2_subgroups()]
    for kind in ("diagonal", "rotation", "scalar"):
        for p in (3, 5):
            groups.append(build_instance(kind, p).group)
    groups.append(borel3_plane.group)
    groups.append(gl2f3.group)  # order 48, the largest admitted

    pairs = 0
    for group in groups:
        assert len(group) <= 48
        fp = group.domain
        for x in range(fp.p):
            for y in range(fp.p):
                point = _pt(fp, x, y)
                assert is_commutator_fixed_point(point, group, "subgroup") == (
                    is_commutator_fixed_point(point, group, "pairwise")
                )
                pairs += 1
    _ok(4, f"subgroup and pairwise fixed-point definitions agree on {pairs} point/group pairs")


def test_criterion_05_zero_leakage_iff_transcript_equivalence(trivial5, diag5, rot7):
    expectations = {trivial5.name: True, diag5.name: False, rot7.name: False}
    for instance in (trivial5, diag5, rot7):
        leak = exact_mutual_information(instance)
        equivalence = check_transcript_equivalence(instance)
        assert leak.zero_leakage == equivalence.passed == expectations[instance.name], (
            instance.name
        )
    _ok(5, "zero leakage and transcript equivalence agree on all three reference instances")


def test_criterion_06_diagonal_f5_quantified_leakage(diag5):
    report = exact_mutual_information(diag5)
    assert report.mutual_information_bits == 2.0  # log2(4): the break is total
    assert not report.zero_leakage

    recovered = attempted = 0
    for s in diag5.secret_domain:
        for t in diag5.t_domain:
            enc = SecretEncoding(s, t, Point(s, t))
            for mask_a in diag5.group:
                for mask_b in diag5.group:
                    out = run_session_with(diag5, enc, mask_a, mask_b)
                    v1 = out.transcript.v1
                    if v1.x.is_zero or v1.y.is_zero:
                        continue
                    attempted += 1
                    assert quotient_attack(out.transcript) == s
                    recovered += 1
    assert attempted == recovered > 0
    _ok(6, f"MI is exactly 2.0 bits and the quotient attack recovered {recovered}/{attempted}")


def test_criterion_07_rotation_f7_posterior_support_is_the_norm_circle(rot7):
    """The norm circle is what the first message leaks; the full
    transcript pins the secret.

    For every first message v1, the secrets that some (t, A) carries to
    v1 through the package's action tables are exactly the norm circle
    of v1, checked against two plain-integer oracles. The second and
    third messages then pin Alice's mask, so every full-transcript
    posterior, checked against an independent four-deep brute force, is
    the true secret with mass 1, and MI is the whole secret entropy.
    """
    report = exact_mutual_information(rot7)
    assert report.mutual_information_bits > 0
    assert report.mutual_information_bits == math.log2(len(rot7.secret_domain))

    secrets = [s.value for s in rot7.secret_domain]
    t_values = [t.value for t in rot7.t_domain]
    elems = [m.residues() for m in rot7.group]

    # First message alone: the secrets that can produce v1 form its norm circle.
    idx = instance_index(rot7)
    first_support = {}
    for (s, _t), v in idx.point_of_pair.items():
        for row in idx.act_table:
            first_support.setdefault(divmod(row[v], 7), set()).add(s)
    assert len(first_support) == 48  # every nonzero point: -1 is a non-square mod 7
    for v1, support in first_support.items():
        norm = (v1[0] ** 2 + v1[1] ** 2) % 7
        assert support == oracles.norm_circle(7, norm, secrets, t_values), v1
        assert support == oracles.first_message_secrets(7, secrets, t_values, elems, v1), v1

    # Full transcript: the posterior collapses to the true secret.
    transcripts = _all_transcripts(rot7)
    seen_first = set()
    for tr in transcripts:
        posterior = posterior_from_transcript(tr, rot7)
        support = {s.value for s in posterior.support}

        tau = tuple((v.x.value, v.y.value) for v in (tr.v1, tr.v2, tr.v3))
        brute = {w[0] for w in oracles.witnesses(7, secrets, t_values, elems, tau)}
        assert support == brute, "enumeration disagrees with the brute-force oracle"

        norm = (tau[0][0] ** 2 + tau[0][1] ** 2) % 7
        assert support <= oracles.norm_circle(7, norm, secrets, t_values)
        seen_first.add(tau[0])

        truth = tr.ground_truth.s
        assert posterior.support == (truth,), (tau, sorted(support), truth.value)
        assert posterior.posterior[truth] == 1
    assert seen_first == set(first_support)
    _ok(
        7,
        f"first message leaks exactly the norm circle on all {len(first_support)} v1; "
        f"the full transcript pins the secret on all {len(transcripts)} transcripts",
    )


def test_criterion_08_witness_finder_agrees_with_enumeration(gl2f2, diag5):
    checked = 0
    for instance in (gl2f2, diag5):
        for tr in _all_transcripts(instance):
            witness_set = enumerate_consistent(tr, instance)
            for candidate in instance.secret_domain:
                found = find_witness(tr, instance, candidate)
                present = candidate in witness_set.counts_by_secret
                assert (found is not None) == present, (instance.name, candidate)
                if found is not None:
                    t_prime, mask_a, mask_b = found
                    assert (candidate, t_prime, mask_a, mask_b) in witness_set.witnesses
                checked += 1
    _ok(8, f"witness finder matched exhaustive enumeration on {checked} (transcript, secret) queries")


def test_criterion_09_search_census_over_f2():
    report = search_instances(2, 2)
    assert report.complete
    assert report.subgroups_examined == 6
    assert sorted(e.group_order for e in report.entries) == [1, 2, 2, 2, 3, 6]

    # Every verdict re-validates from a fresh rebuild of its descriptor.
    for entry in report.entries:
        instance = instance_from_descriptor(entry.descriptor)
        for original in entry.reports:
            if original.condition == "comm-fixed-set":
                fresh = is_commutator_fixed_set(
                    secret_square_points(instance), instance.group, instance.name
                )
            elif original.condition == "masking-coverage":
                fresh = check_masking_coverage(instance)
            else:
                fresh = check_transcript_equivalence(instance)
            assert (fresh.passed, fresh.counterexample) == (
                original.passed,
                original.counterexample,
            )
        if entry.leakage is not None:
            fresh_leak = exact_mutual_information(instance)
            assert fresh_leak.zero_leakage == entry.leakage.zero_leakage
            assert (
                fresh_leak.mutual_information_bits
                == entry.leakage.mutual_information_bits
            )

    # Any nontrivial candidate must survive criteria 3 and 5 standalone.
    for entry in report.entries:
        if entry.candidate:
            instance = instance_from_descriptor(entry.descriptor)
            assert check_roundtrip_commutator_fixed(instance).passed
            leak = exact_mutual_information(instance)
            assert leak.zero_leakage == check_transcript_equivalence(instance).passed
    assert report.candidates == ()
    _ok(9, "complete subgroup census over F2: 6 subgroups, all verdicts re-validated")


def test_criterion_10_seeded_artifacts_are_byte_identical(tmp_path, capsys):
    run_args = [
        "run", "--instance", "diagonal", "--p", "5", "--sessions", "4",
        "--seed", "314", "--lab-view",
    ]
    analyze_args = ["analyze", "--instance", "rotation", "--p", "7", "--seed", "314"]

    artifacts: dict[str, set[bytes]] = {"run": set(), "analyze": set()}
    for attempt in range(2):
        for workers in (1, 4):
            run_out = tmp_path / f"run-{attempt}-{workers}.json"
            assert main(run_args + ["--workers", str(workers), "--out", str(run_out)]) == 0
            artifacts["run"].add(run_out.read_bytes())

            analyze_out = tmp_path / f"analyze-{attempt}-{workers}.json"
            assert (
                main(analyze_args + ["--workers", str(workers), "--out", str(analyze_out)])
                == 0
            )
            artifacts["analyze"].add(analyze_out.read_bytes())
    capsys.readouterr()
    assert len(artifacts["run"]) == 1
    assert len(artifacts["analyze"]) == 1
    _ok(10, "run and analyze artifacts identical across repeats and worker counts 1 and 4")
