"""Self-tests of the benchmark: inputs that follow from the seed, tracing
that leaves outputs unchanged, and a gate that counts a bad reference.

They run a small workload with one command of every gate kind, so they
take seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402
import tracer  # noqa: E402
from run import HERE, Bench, child_env, spawn  # noqa: E402
from spec import (  # noqa: E402
    DEFAULT_SEED,
    Command,
    Workload,
    leakage_command,
    session_commands,
)

SMALL = Workload(
    "small",
    (
        leakage_command("diagonal", 3, 24),
        Command("search-p2", "search", ("search", "--p", "2"), units=1),
        Command("check-diagonal-f3", "check",
                ("check", "--instance", "diagonal", "--p", "3"), expect_exit=1),
        *session_commands("diagonal", 5, 20),
    ),
    (("diagonal", 5),),
    "units_per_s",
    "units",
)


def _run_all(workload: Workload, seed: int, workdir: Path, traced: bool = False) -> dict:
    """Run each command once; returns label -> semantic summary."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    for cmd in workload.commands:
        runner = [str(HERE / "tracer.py"), str(workdir / "trace.json")] if traced else [
            "-m", "triplepass"]
        done = spawn([sys.executable, *runner, *cmd.argv(seed, workdir)], child_env(),
                     workdir / "stderr")
        assert done.code == cmd.expect_exit, (workdir / "stderr").read_text()
        artifact = json.loads((workdir / f"{cmd.label}.json").read_text())
        out[cmd.label] = gate.summary(cmd.kind, artifact)
    return out


@pytest.fixture(scope="module")
def small_refs(tmp_path_factory) -> dict:
    summaries = _run_all(SMALL, DEFAULT_SEED, tmp_path_factory.mktemp("refs"))
    return {"seed": DEFAULT_SEED, "summaries": summaries}


def test_workload_commands_follow_from_the_seed(tmp_path):
    sessions = Workload("s", session_commands("diagonal", 5, 20), (), "u", "u")
    first = _run_all(sessions, 3, tmp_path / "a")
    again = _run_all(sessions, 3, tmp_path / "b")
    other = _run_all(sessions, 4, tmp_path / "c")
    assert first == again
    assert first["run-diagonal-f5"] != other["run-diagonal-f5"]


def test_traced_run_gives_the_untraced_outputs(tmp_path, small_refs):
    assert _run_all(SMALL, DEFAULT_SEED, tmp_path, traced=True) == small_refs["summaries"]
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["calls"]["cli.main"] == 1
    assert trace["calls"]["protocol.transcript_from_dict"] == 20
    metrics = tracer.pass_metrics([trace], [1.0], [1.0], 0)
    assert metrics["analysis.enumerate_consistent.witnesses"] >= 20


def test_gate_checks_invariants_at_other_seeds(tmp_path, small_refs):
    bench = Bench(SMALL, DEFAULT_SEED + 9, tmp_path, small_refs)
    bench.run_pass(traced=False)
    assert (bench.attempted, bench.failed) == (len(SMALL.commands), 0), bench.problems


def test_corrupted_reference_counts_a_failure(tmp_path, small_refs):
    refs = json.loads(json.dumps(small_refs))
    refs["summaries"]["analyze-diagonal-f3"]["bits"] += 1e-12
    refs["summaries"]["posterior-diagonal-f5"]["digest"] = "0" * 64
    bench = Bench(SMALL, DEFAULT_SEED, tmp_path, refs)
    bench.run_pass(traced=False)
    assert (bench.attempted, bench.failed) == (len(SMALL.commands), 2)
    assert {p.split(":")[0] for p in bench.problems} == {
        "analyze-diagonal-f3", "posterior-diagonal-f5"}


def test_invariants_catch_a_tampered_transcript():
    cmd, _ = session_commands("diagonal", 5, 1)
    artifact = {
        "transcripts": [{"instance": "diagonal-f5", "p": 5, "v1": [2, 3], "v2": [4, 3],
                         "v3": [2, 1],
                         "truth": {"s": 1, "t": 1, "A": "[[2,0],[0,3]]@F5",
                                   "B": "[[2,0],[0,1]]@F5"}}],
        "successes": [True],
    }
    refs = {"seed": DEFAULT_SEED + 1, "summaries": {}}
    assert gate.check(cmd, artifact, refs, DEFAULT_SEED) == []
    artifact["transcripts"][0]["v3"] = [2, 4]
    assert gate.check(cmd, artifact, refs, DEFAULT_SEED) != []
