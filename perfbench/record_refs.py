"""Record the correctness gate's references from the current program.

    python3 perfbench/record_refs.py

Runs every workload command once at ``spec.DEFAULT_SEED`` and writes the
semantic summary of each artifact to ``perfbench/refs.json``. Re-record
only when a change is meant to alter what the program outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
from run import ROOT, child_env, spawn
from spec import DEFAULT_SEED, WORKLOADS


def main() -> int:
    base = ROOT / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=base))
    summaries = {}
    try:
        for workload in WORKLOADS.values():
            for cmd in workload.commands:
                argv = [sys.executable, "-m", "triplepass", *cmd.argv(DEFAULT_SEED, workdir)]
                done = spawn(argv, child_env(), workdir / "stderr")
                if done.code != cmd.expect_exit:
                    print(f"{cmd.label} exited {done.code}, expected {cmd.expect_exit}",
                          file=sys.stderr)
                    return 1
                artifact = json.loads((workdir / f"{cmd.label}.json").read_text(encoding="utf-8"))
                summaries[cmd.label] = gate.summary(cmd.kind, artifact)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs = {"seed": DEFAULT_SEED, "summaries": summaries}
    gate.REFS_PATH.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
