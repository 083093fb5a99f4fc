"""Differential test of the residue path of ``analyze --transcripts``.

The command reads each wire transcript straight into the instance's
index tables (``transcript_from_dict(d, i, index=...)``) and writes its
report from the shared Bayes step. The object path reads the same
transcript into ``Transcript`` objects and runs ``posterior_from_transcript``
on them. On the seed-0 files of four instances and on corrupted copies,
under a uniform and a non-uniform prior, both must give the same exit
code, the same one-line message and, on success, the same reports.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

from triplepass import cli, posterior
from triplepass.actions import Point, build_instance, instance_from_descriptor, instance_index
from triplepass.cli import main
from triplepass.errors import TriplePassError, WorkCapExceeded
from triplepass.fields import Scalar
from triplepass.matrices import Mat2
from triplepass.posterior import (BayesStep, PosteriorReport, posterior_from_transcript,
                                  posterior_prior)
from triplepass.protocol import Transcript, WireWriter, transcript_from_dict, transcript_to_dict

INSTANCES = [("diagonal", 7), ("general-linear", 5), ("borel-embedded", 7), ("rotation", 7)]
# Corruptions go into the last transcript of this prefix of each file.
PREFIX = 20


def _run_file(tmp_path_factory, kind: str, p: int) -> dict:
    path = tmp_path_factory.mktemp("runs") / f"{kind}-{p}.json"
    assert main(["run", "--instance", kind, "--p", str(p), "--sessions", "300", "--seed", "0",
                 "--lab-view", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    return {(kind, p): _run_file(tmp_path_factory, kind, p) for kind, p in INSTANCES}


def _outside_group(instance) -> str:
    """The first matrix literal, in residue order, that is not in the
    group: an invertible one if there is one, else the zero matrix."""
    p = instance.field.p
    members = set(instance.group.residues)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p and (a, b, c, d) not in members:
                        return f"[[{a},{b}],[{c},{d}]]@F{p}"
    return f"[[0,0],[0,0]]@F{p}"


def _wrong_p(d, instance):
    d["p"] = 5 if d["p"] == 7 else 7


def _non_prime_p(d, instance):
    d["p"] = d["p"] ** 2


def _residue_at_p(d, instance):
    d["v1"][0] = d["p"]


def _bool_residue(d, instance):
    d["v2"][1] = True


def _three_element_point(d, instance):
    d["v3"].append(0)


def _wrong_name(d, instance):
    d["instance"] = "someone-else"


def _mask_outside_group(d, instance):
    d["truth"]["A"] = _outside_group(instance)


def _mask_over_another_field(d, instance):
    d["truth"]["B"] = d["truth"]["B"].replace(f"@F{d['p']}", "@F11")


def _v3_without_witnesses(d, instance):
    # v2 is nonzero and v3 = v2.A^-1, so no mask A sends v3 to the origin.
    d["v3"] = [0, 0]


# Each of these leaves the reader's fast path for its full checks.
def _bool_truth_secret(d, instance):
    d["truth"]["s"] = True


def _truth_blinding_at_p(d, instance):
    d["truth"]["t"] = d["p"]


def _float_residue(d, instance):
    d["v1"] = [1.0, 0]


def _string_residue(d, instance):
    d["v2"] = ["3", 0]


def _negative_residue(d, instance):
    d["v3"] = [-1, 0]


def _point_not_a_list(d, instance):
    d["v1"] = 5


CORRUPTIONS = [None, _wrong_p, _non_prime_p, _residue_at_p, _bool_residue, _three_element_point,
               _wrong_name, _mask_outside_group, _mask_over_another_field, _v3_without_witnesses,
               _bool_truth_secret, _truth_blinding_at_p, _float_residue, _string_residue,
               _negative_residue, _point_not_a_list]
# The residue path refuses a transcript over another prime modulus with
# its own message; the object path reports the first scalar or carrier
# mismatch it meets.
CHANGED_MESSAGES = {"_wrong_p": "error: transcript p {p} is not the instance modulus {q}\n"}


def _prior(instance, uniform: bool):
    """Residue-keyed masses: uniform, or proportional to 1, 2, ..., n."""
    secrets = [s.value for s in instance.secret_domain]
    weights = [1] * len(secrets) if uniform else list(range(1, len(secrets) + 1))
    return {str(s): str(Fraction(w, sum(weights))) for s, w in zip(secrets, weights)}


def _report_dict(r: PosteriorReport) -> dict:
    """The report layout of the artifact, from a report object."""
    posterior = sorted(r.posterior.items(), key=lambda kv: kv[0].value)
    prior = sorted(r.prior.items(), key=lambda kv: kv[0].value)
    return {
        "transcript": transcript_to_dict(r.transcript),
        "prior": {str(s.value): str(mass) for s, mass in prior},
        "posterior": {str(s.value): str(mass) for s, mass in posterior},
        "posterior_float": {str(s.value): float(mass) for s, mass in posterior},
        "support": [s.value for s in r.support],
        "uniform": r.uniform,
        "witness_count": r.witness_count,
    }


def _object_path(data: dict, prior_masses: dict, cap: int):
    """(exit code, stderr, reports) of the object path, exiting as
    ``cli.main`` does."""
    instance = instance_from_descriptor(data["config"]["descriptor"])
    field = instance.field
    prior = {field.scalar(int(s)): Fraction(mass) for s, mass in prior_masses.items()}
    try:
        reports = [
            posterior_from_transcript(transcript_from_dict(d, i), instance, prior, cap=cap)
            for i, d in enumerate(data["transcripts"])
        ]
    except WorkCapExceeded as exc:
        return 3, f"error: {exc}\n", None
    except (ValueError, TriplePassError) as exc:
        return 2, f"error: {exc}\n", None
    return 0, "", [_report_dict(r) for r in reports]


def _residue_path(tmp_path, data: dict, prior_masses: dict, cap: int, fmt: str = "json"):
    """(exit code, stderr, output text) of ``analyze --transcripts``."""
    runs_file, prior_file, out = tmp_path / "runs.json", tmp_path / "prior.json", tmp_path / "out"
    runs_file.write_text(json.dumps(data))
    prior_file.write_text(json.dumps(prior_masses))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["analyze", "--transcripts", str(runs_file), "--prior", str(prior_file),
                     "--cap", str(cap), "--format", fmt, "--out", str(out)])
    return code, err.getvalue(), out.read_text() if code == 0 else None


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "weighted"])
@pytest.mark.parametrize("corrupt", CORRUPTIONS,
                         ids=[c.__name__.strip("_") if c else "intact" for c in CORRUPTIONS])
@pytest.mark.parametrize("kind,p", INSTANCES, ids=[f"{k}-f{p}" for k, p in INSTANCES])
def test_residue_path_agrees_with_the_object_path(runs, tmp_path, kind, p, corrupt, uniform):
    data = copy.deepcopy(runs[(kind, p)])
    instance = instance_from_descriptor(data["config"]["descriptor"])
    if corrupt is not None:
        data["transcripts"] = data["transcripts"][:PREFIX]
        corrupt(data["transcripts"][-1], instance)
    prior = _prior(instance, uniform)
    cap = cli.DEFAULT_WORK_CAP

    got = _residue_path(tmp_path, data, prior, cap)
    want = _object_path(data, prior, cap)
    assert got[0] == want[0]
    changed = CHANGED_MESSAGES.get(corrupt.__name__ if corrupt else "")
    if changed is not None:
        assert got[1] == changed.format(p=data["transcripts"][-1]["p"], q=p)
    else:
        assert got[1] == want[1]
    assert (got[0] == 0) == (corrupt is None)
    if got[2] is None:
        return
    # Same reports, key order and float bits included, in the stdlib's
    # bytes, though each is joined from its step's tail and every file
    # has several steps; the human lines print the same reports.
    assert len({json.dumps(r["posterior"]) for r in want[2]}) > 1
    assert got[2] == json.dumps(json.loads(got[2]), indent=2) + "\n"
    assert json.dumps(json.loads(got[2])["reports"]) == json.dumps(want[2])
    assert _residue_path(tmp_path, data, prior, cap, "human")[2] == "".join(
        f"transcript {r['transcript']}: support {{{','.join(map(str, r['support']))}}},"
        f" uniform={r['uniform']}, witnesses={r['witness_count']}\n" for r in want[2])


@pytest.mark.parametrize("kind,p", INSTANCES[:2], ids=[f"{k}-f{p}" for k, p in INSTANCES[:2]])
def test_a_witness_scan_above_the_cap_is_refused_on_both_paths(runs, kind, p):
    # Through the command, building the instance (|G| * p^2 table entries)
    # is refused first under any cap the two fibre tables (2 * |G|) pass;
    # so both paths run in process on an instance built under the default.
    data = runs[(kind, p)]
    instance = instance_from_descriptor(data["config"]["descriptor"])
    cap = 2 * len(instance.group) - 1
    with pytest.raises(WorkCapExceeded) as residue:
        cli._posterior_reports(data["transcripts"], instance, posterior_prior(instance), cap)
    assert _object_path(data, _prior(instance, True), cap) == (3, f"error: {residue.value}\n", None)


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_analyze_builds_no_object_per_transcript(runs, tmp_path, monkeypatch, fmt):
    # Once the instance and the prior exist, the command builds no scalar,
    # point, matrix, transcript or report object, in either format.
    runs_file = tmp_path / "runs.json"
    runs_file.write_text(json.dumps(runs[("general-linear", 5)]))
    validate = posterior.posterior_prior

    def refuse(self, *args, **kwargs):
        raise RuntimeError(f"{type(self).__name__} built on the residue path")

    def guarded(*args, **kwargs):
        validated = validate(*args, **kwargs)
        for cls in (Scalar, Point, Mat2, Transcript, PosteriorReport):
            monkeypatch.setattr(cls, "__init__", refuse)
        return validated

    monkeypatch.setattr(posterior, "posterior_prior", guarded)
    out = tmp_path / "out.txt"
    assert main(["analyze", "--transcripts", str(runs_file), "--format", fmt,
                 "--out", str(out)]) == 0
    assert out.read_text().count("witness") == 300


@pytest.mark.parametrize("validated", [False, True], ids=["no-prior", "posterior-prior"])
def test_a_wire_transcript_read_for_another_instance_is_refused(validated):
    # Read into diagonal-f5's tables, its point and mask numbers mean
    # nothing to general-linear-f5; both forms refuse it the same way.
    diagonal, general = build_instance("diagonal", 5), build_instance("general-linear", 5)
    d = {"instance": "diagonal-f5", "p": 5, "v1": [4, 3], "v2": [2, 2], "v3": [1, 2]}
    prior = posterior_prior(general) if validated else None
    with pytest.raises(TriplePassError) as objects:
        posterior_from_transcript(transcript_from_dict(d), general, prior)
    wire = transcript_from_dict(d, index=instance_index(diagonal))
    assert wire.index is instance_index(diagonal)
    with pytest.raises(TriplePassError) as residues:
        posterior_from_transcript(wire, general, prior)
    assert str(residues.value) == str(objects.value) == \
        "transcript is for 'diagonal-f5', not 'general-linear-f5'"
    assert posterior_from_transcript(wire, diagonal).support == (2,)


@pytest.mark.parametrize("validated", [False, True], ids=["no-prior", "posterior-prior"])
def test_a_wire_transcript_read_for_another_build_of_its_instance_is_refused(validated):
    # Equal instances built twice have two indices; the names alone
    # cannot tell them apart, so the message says which index it was.
    first, second = build_instance("diagonal", 5), build_instance("diagonal", 5)
    d = {"instance": "diagonal-f5", "p": 5, "v1": [4, 3], "v2": [2, 2], "v3": [1, 2]}
    wire = transcript_from_dict(d, index=instance_index(first))
    prior = posterior_prior(second) if validated else None
    with pytest.raises(TriplePassError) as refused:
        posterior_from_transcript(wire, second, prior)
    assert str(refused.value) == "transcript was read into another index of 'diagonal-f5'"


def test_a_mask_literal_in_another_form_is_read_as_its_element():
    # Each element's own literal is known to the index before any is read;
    # spaces or entries outside [0, p) still name the element they reduce to.
    instance = build_instance("diagonal", 5)
    wire, _, _ = WireWriter(instance).session(2, 3, 4, 7)
    other = {**wire, "truth": {**wire["truth"], "A": " " + wire["truth"]["A"].replace("[[", "[[ ")}}
    a, b, c, d = (int(x) + 5 for x in wire["truth"]["B"][2:-5].replace("],[", ",").split(","))
    other["truth"]["B"] = f"[[{a},{b}],[{c},{d}]]@F5"
    idx = instance_index(instance)
    assert transcript_from_dict(other, index=idx).truth == transcript_from_dict(wire, index=idx).truth \
        == (2, 3, 4, 7)
    assert transcript_from_dict(other).ground_truth == transcript_from_dict(wire).ground_truth


@pytest.mark.parametrize("distinct", [2, 3])
def test_interleaved_steps_are_each_rendered_once(monkeypatch, distinct):
    # Reports A, B, A, B (then A, B, C, A, B, C): each step's tail is
    # rendered once and reused, and none is mistaken for another's, even
    # when a step's dicts are freed before the next step's are made.
    instance = build_instance("diagonal", 5)
    prior = posterior_prior(instance, {instance.field.scalar(s): Fraction(s, 10) for s in (1, 2, 3, 4)})
    steps = [BayesStep(tuple((s, Fraction(s == k)) for s in (1, 2, 3, 4)), (k,), False, k)
             for k in range(1, distinct + 1)]
    writer = WireWriter(instance)
    reports = [(writer.transcript(i, 2 * i, 3 * i), steps[i % distinct]) for i in range(2 * distinct)]
    rendered = []
    render = cli._json_value

    def counting(obj, nl, memo):
        if isinstance(obj, dict) and "witness_count" in obj:
            rendered.append(obj["witness_count"])
        return render(obj, nl, memo)

    monkeypatch.setattr(cli, "_json_value", counting)
    text = cli._json_text({"reports": cli._report_texts(reports, prior)})
    assert sorted(rendered) == list(range(1, distinct + 1))
    want = [{"transcript": wire, "prior": {"1": "1/10", "2": "1/5", "3": "3/10", "4": "2/5"},
             "posterior": {str(s): str(m) for s, m in step.posterior},
             "posterior_float": {str(s): float(m) for s, m in step.posterior},
             "support": list(step.support), "uniform": step.uniform,
             "witness_count": step.witness_count} for wire, step in reports]
    assert text == json.dumps({"reports": want}, indent=2) + "\n"
