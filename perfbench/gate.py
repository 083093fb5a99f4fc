"""Correctness gate: compare each command's semantic output to references.

Only semantic fields are compared, never artifact bytes, so a change to
how descriptors or configs are written does not count as a failure:

- leakage: the exact MI bits (float equality), the zero-leakage verdict
  and the number of distinct transcripts;
- search: the census counts, the candidates and a digest of every
  entry's verdicts, counterexamples and leakage;
- check: the verdicts and a digest of the counterexamples;
- run and posterior: at the reference seed, digests of the transcripts
  and of the posterior fractions, supports and witness counts.

At every seed, run transcripts are re-derived from their ground truth
with independent modular arithmetic, and every posterior must keep the
true secret in its support and have masses that sum to exactly 1.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from spec import Command

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# Kinds whose output depends on the seed; their references hold at the
# recorded seed only.
SEEDED_KINDS = ("run", "posterior")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verdicts(reports: list) -> list:
    return [[r["condition"], r["verdict"], r["counterexample"]] for r in reports]


def summary(kind: str, artifact: dict) -> dict:
    """The semantic projection of one artifact that references record."""
    if kind == "leakage":
        r = artifact["report"]
        return {
            "instance": r["instance"],
            "bits": r["mutual_information_bits"],
            "zero_leakage": r["zero_leakage"],
            "transcripts_examined": r["transcripts_examined"],
        }
    if kind == "search":
        r = artifact["report"]
        entries = [
            [
                e["descriptor"]["name"],
                e["group_order"],
                e["abelian"],
                _verdicts(e["reports"]),
                e["leakage"] and [e["leakage"]["mutual_information_bits"],
                                  e["leakage"]["zero_leakage"]],
                e["skipped"],
                e["candidate"],
            ]
            for e in r["entries"]
        ]
        return {
            "complete": r["complete"],
            "subgroups_examined": r["subgroups_examined"],
            "entries": len(entries),
            "candidates": r["candidates"],
            "digest": digest(entries),
        }
    if kind == "check":
        reports = artifact["reports"]
        return {
            "verdicts": [[r["condition"], r["verdict"]] for r in reports],
            "digest": digest(_verdicts(reports)),
        }
    if kind == "run":
        return {
            "sessions": len(artifact["transcripts"]),
            "digest": digest([artifact["transcripts"], artifact["successes"]]),
        }
    if kind == "posterior":
        reports = [
            [r["posterior"], r["support"], r["witness_count"], r["uniform"]]
            for r in artifact["reports"]
        ]
        return {"reports": len(reports), "digest": digest(reports)}
    raise ValueError(f"unknown command kind {kind!r}")


def _matrix(literal: str) -> tuple[int, int, int, int]:
    body, _ = literal.split("@")
    (a, b), (c, d) = json.loads(body)
    return a, b, c, d


def _apply(v: tuple[int, int], m: tuple[int, int, int, int], p: int) -> tuple[int, int]:
    a, b, c, d = m
    return (v[0] * a + v[1] * c) % p, (v[0] * b + v[1] * d) % p


def _inverse(m: tuple[int, int, int, int], p: int) -> tuple[int, int, int, int]:
    a, b, c, d = m
    k = pow((a * d - b * c) % p, -1, p)
    return (d * k) % p, (-b * k) % p, (-c * k) % p, (a * k) % p


def _run_invariants(label: str, artifact: dict) -> list[str]:
    """Re-derive each lab-view transcript from its truth. The run
    workloads use plain instances, where the encoded point is (s, t)."""
    transcripts, successes = artifact["transcripts"], artifact["successes"]
    if not transcripts or len(transcripts) != len(successes):
        return [f"{label}: {len(transcripts)} transcripts for {len(successes)} sessions"]
    for i, (t, ok) in enumerate(zip(transcripts, successes)):
        p, truth = t["p"], t["truth"]
        a, b = _matrix(truth["A"]), _matrix(truth["B"])
        v = (truth["s"], truth["t"])
        v1 = _apply(v, a, p)
        v2 = _apply(v1, b, p)
        v3 = _apply(v2, _inverse(a, p), p)
        v4 = _apply(v3, _inverse(b, p), p)
        if [list(v1), list(v2), list(v3)] != [t["v1"], t["v2"], t["v3"]]:
            return [f"{label}: transcript {i} does not follow from its ground truth"]
        if ok != (v4 == v):
            return [f"{label}: session {i} reports success={ok}, round trip says {v4 == v}"]
    return []


def _posterior_invariants(label: str, artifact: dict, run: Optional[dict]) -> list[str]:
    if run is None:
        return [f"{label}: the run artifact it analyses is missing"]
    reports, transcripts = artifact["reports"], run["transcripts"]
    if len(reports) != len(transcripts):
        return [f"{label}: {len(reports)} posteriors for {len(transcripts)} transcripts"]
    for i, (r, t) in enumerate(zip(reports, transcripts)):
        wire = {k: t[k] for k in ("instance", "p", "v1", "v2", "v3")}
        if r["transcript"] != wire:
            return [f"{label}: report {i} is not about transcript {i}"]
        if sum(Fraction(m) for m in r["posterior"].values()) != 1:
            return [f"{label}: posterior {i} does not sum to exactly 1"]
        s = t["truth"]["s"]
        if s not in r["support"] or Fraction(r["posterior"][str(s)]) <= 0:
            return [f"{label}: true secret {s} is outside the support of posterior {i}"]
        if r["witness_count"] < 1:
            return [f"{label}: posterior {i} has no witness"]
    return []


def check(
    cmd: Command, artifact: dict, refs: dict, seed: int, source: Optional[dict] = None
) -> list[str]:
    """Problems found in one command's artifact; empty means it passed.

    ``source`` is the artifact of ``cmd.input_of``, if any.
    """
    try:
        problems = []
        if cmd.kind == "run":
            problems += _run_invariants(cmd.label, artifact)
        elif cmd.kind == "posterior":
            problems += _posterior_invariants(cmd.label, artifact, source)
        if cmd.kind in SEEDED_KINDS and seed != refs["seed"]:
            return problems
        expected = refs["summaries"].get(cmd.label)
        if expected is None:
            return problems + [f"{cmd.label}: no reference recorded"]
        got = summary(cmd.kind, artifact)
        diff = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
        if diff:
            problems.append(f"{cmd.label}: differs from the reference in {', '.join(diff)}")
        return problems
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"{cmd.label}: malformed artifact ({type(exc).__name__}: {exc})"]


def load_refs(path: Path = REFS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
