"""Workload definitions: which CLI commands a pass runs, and their set-up.

A workload is a fixed list of ``python -m triplepass`` commands run one
after another, each in a fresh process (a closed loop with one client).
The seed only reaches the program through the commands' ``--seed`` flag:
it picks the sessions that ``run`` draws and is otherwise recorded in the
artifacts. Every command writes its artifact with ``--out`` into the
pass's work directory, where the correctness gate reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# References for seed-dependent outputs (``run`` transcripts and their
# posteriors) are recorded at this seed; other seeds get invariant checks.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``label`` names the artifact file and the reference entry. ``kind``
    selects the gate. ``units`` is the command's nominal input size for
    the workload throughput (0 when the command is not part of it).
    ``input_of`` names the command whose artifact this one reads.
    """

    label: str
    kind: str
    args: tuple[str, ...]
    expect_exit: int = 0
    units: int = 0
    input_of: Optional[str] = None

    def argv(self, seed: int, workdir: Path) -> list[str]:
        args = list(self.args)
        if self.input_of is not None:
            args += ["--transcripts", str(workdir / f"{self.input_of}.json")]
        return args + ["--seed", str(seed), "--out", str(workdir / f"{self.label}.json")]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # (kind, p) pairs that set-up builds with ``build_instance``.
    instances: tuple[tuple[str, int], ...]
    # What the workload's throughput counts, per second of the commands
    # that have units.
    throughput: str
    unit: str

    def setup_code(self) -> str:
        """Program for one fresh set-up process: import and build only."""
        return (
            "from triplepass import build_instance\n"
            f"for kind, p in {list(self.instances)!r}:\n"
            "    build_instance(kind, p)\n"
        )


def leakage_command(kind: str, p: int, tuples: int) -> Command:
    return Command(f"analyze-{kind}-f{p}", "leakage",
                   ("analyze", "--instance", kind, "--p", str(p)), units=tuples)


def session_commands(kind: str, p: int, sessions: int) -> tuple[Command, Command]:
    run = Command(f"run-{kind}-f{p}", "run",
                  ("run", "--instance", kind, "--p", str(p),
                   "--sessions", str(sessions), "--lab-view"))
    analyze = Command(f"posterior-{kind}-f{p}", "posterior", ("analyze",),
                      units=sessions, input_of=run.label)
    return run, analyze


WORKLOADS = {
    w.name: w
    for w in (
        # Nominal tuples are |S|*|T|*|G|^2: 4*5*480^2 and 6*7*36^2.
        # general-linear-f5 is bound by accumulation, diagonal-f7 by the
        # exact reduction (nearly every tuple gives a distinct transcript).
        Workload(
            "leakage",
            (
                leakage_command("general-linear", 5, 4_608_000),
                leakage_command("diagonal", 7, 54_432),
            ),
            (("general-linear", 5), ("diagonal", 7)),
            "leak_tuples_per_s",
            "tuples",
        ),
        # search --p 3 is bound by subgroup closure; check on the Borel
        # group by its commutator subgroup. check exits 1 on purpose: the
        # instance fails transcript equivalence.
        Workload(
            "census",
            (
                Command("search-p3", "search", ("search", "--p", "3"), units=55),
                Command("check-borel-embedded-f7", "check",
                        ("check", "--instance", "borel-embedded", "--p", "7"),
                        expect_exit=1),
            ),
            (("general-linear", 3), ("borel-embedded", 7)),
            "census_instances_per_s",
            "entries",
        ),
        # The per-transcript path: many witnesses per transcript on
        # general-linear-f7, one on diagonal-f7. Whole-instance MI is not
        # run here.
        Workload(
            "posterior",
            session_commands("general-linear", 7, 500) + session_commands("diagonal", 7, 2000),
            (("general-linear", 7), ("diagonal", 7)),
            "transcripts_per_s",
            "transcripts",
        ),
    )
}
