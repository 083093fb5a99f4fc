"""Benchmark of the triplepass command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs ``src/triplepass`` there and
builds nothing. Each pass runs the workload's commands (see ``spec.py``)
one after another, each in a fresh ``python -m triplepass`` process, and
the correctness gate (``gate.py``) checks every artifact. Passes repeat
in a closed loop with one client until the next one would end after
``--seconds``; every reported time is a median over the run.

Times are scaled to nominal speed (see ``Bench._spawn``); the raw
medians are printed beside them. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``. Three fresh set-up processes (import plus
``build_instance``) run before each pass. ``--trace 1`` alternates
untraced passes with passes whose commands run under ``tracer.py``, and
reports the per-layer metrics and the tracing overhead. The last line
of standard output is the JSON result; the full record, with the
machine it ran on, is written under ``.bench_build/perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gate
import tracer
from spec import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_PASS = 3
COMMAND_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for every child: this checkout's ``src`` first on the
    path, and the program's default work cap."""
    env = dict(os.environ)
    env.pop("TRIPLEPASS_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Exit:
    code: int
    wall: float
    rss_mb: float


def spawn(argv: list[str], env: dict, stderr_path: Path) -> Exit:
    """Run one child to completion; wall time is spawn to exit, and the
    peak RSS comes from the child's own rusage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_maxrss / 1024)


# Seconds the reference work takes at nominal speed; see Bench._spawn.
REFERENCE_S = 0.05


@dataclass(frozen=True)
class _Residues:
    x: int
    y: int


def reference_work() -> int:
    """Fixed pure-Python work like the program's hot loops: tuple-keyed
    dict counting, frozen value objects in sets, and exact fractions."""
    counts: dict = {}
    for i in range(100_000):
        key = (i % 97, (i * 7) % 89)
        counts[key] = counts.get(key, 0) + 1
    seen = set()
    for i in range(25_000):
        seen.add(_Residues(i % 101, (i * 3) % 103))
    acc = Fraction(0)
    for i in range(1, 3_000):
        acc += Fraction(1, i % 13 + 1)
    return len(counts) + len(seen) + acc.denominator


def reference_time() -> float:
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@dataclass
class Pass:
    # Scaled and raw wall time of each command, by label.
    walls: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)
    artifact_bytes: int = 0

    @property
    def total(self) -> float:
        return sum(self.walls.values())


class Bench:
    """Runs passes of one workload and tallies what the gate finds."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, refs: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.refs = refs
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.reference = None

    def _tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def _stderr_tail(self, path: Path) -> str:
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else "no stderr"

    def _spawn(self, argv: list[str], err: Path) -> tuple[Exit, float]:
        """Run a child; also returns its wall time scaled to nominal speed.

        On shared hardware the effective CPU speed can drift by tens of
        percent within a minute, so the reference work is timed right
        before and after each child, and the child's wall time is scaled
        by REFERENCE_S over their mean.
        """
        before = self.reference or reference_time()
        done = spawn(argv, self.env, err)
        self.reference = reference_time()
        return done, done.wall * REFERENCE_S * 2 / (before + self.reference)

    def setup(self) -> tuple[float, float]:
        """One set-up process; returns its scaled and raw wall time."""
        err = self.workdir / "setup.err"
        done, scaled = self._spawn([sys.executable, "-c", self.workload.setup_code()], err)
        self._tally([] if done.code == 0 else
                    [f"set-up exited {done.code}: {self._stderr_tail(err)}"])
        return scaled, done.wall

    def run_pass(self, traced: bool) -> Pass:
        result = Pass()
        artifacts: dict[str, dict] = {}
        for cmd in self.workload.commands:
            out = self.workdir / f"{cmd.label}.json"
            err = self.workdir / f"{cmd.label}.err"
            trace_path = self.workdir / f"{cmd.label}.trace.json"
            out.unlink(missing_ok=True)
            trace_path.unlink(missing_ok=True)
            runner = [str(HERE / "tracer.py"), str(trace_path)] if traced else ["-m", "triplepass"]
            argv = [sys.executable, *runner, *cmd.argv(self.seed, self.workdir)]
            done, scaled = self._spawn(argv, err)
            result.walls[cmd.label] = scaled
            result.raw[cmd.label] = done.wall
            if not traced:
                self.peak_rss_mb = max(self.peak_rss_mb, done.rss_mb)

            problems = []
            if done.code != cmd.expect_exit:
                problems.append(f"{cmd.label}: exit {done.code}, expected {cmd.expect_exit}:"
                                f" {self._stderr_tail(err)}")
            else:
                try:
                    artifact = json.loads(out.read_text(encoding="utf-8"))
                    result.artifact_bytes += out.stat().st_size
                except (OSError, ValueError) as exc:
                    problems.append(f"{cmd.label}: unreadable artifact ({exc})")
                else:
                    artifacts[cmd.label] = artifact
                    problems += gate.check(cmd, artifact, self.refs, self.seed,
                                           artifacts.get(cmd.input_of))
            if traced:
                try:
                    result.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
                except (OSError, ValueError) as exc:
                    problems.append(f"{cmd.label}: unreadable trace ({exc})")
            self._tally(problems)
        return result

    def throughput(self, p: Pass) -> float:
        units = [c for c in self.workload.commands if c.units]
        return sum(c.units for c in units) / sum(p.walls[c.label] for c in units)


def tail(samples: list[float]):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    for q in range(99, 49, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q, tracer.percentile(samples, q)
    return None


def describe(samples: list[float], what: str) -> str:
    t = tail(samples)
    spread = f"p{t[0]} {t[1]:.6g}" if t else "no tail percentile below 20 samples"
    return f"median of {len(samples)} {what}; {spread}"


def closed_loop(seconds: float, step) -> None:
    """Call step() until the next call would likely end after ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def measure_end_to_end(bench: Bench, seconds: float, lines: list[str]) -> dict:
    setups: list[tuple[float, float]] = []
    passes: list[Pass] = []

    def step():
        setups.extend(bench.setup() for _ in range(SETUPS_PER_PASS))
        passes.append(bench.run_pass(traced=False))

    closed_loop(seconds, step)
    w = bench.workload
    med = statistics.median
    walls = [p.total for p in passes]
    setup = [scaled for scaled, _ in setups]
    rates = [bench.throughput(p) for p in passes]
    size = sum(c.units for c in w.commands)
    lines += [
        "times are scaled to nominal speed; raw = unscaled median",
        f"wall_s       {med(walls):.6g} s    {describe(walls, 'passes')};"
        f" raw {med(sum(p.raw.values()) for p in passes):.6g}",
        f"setup_s      {med(setup):.6g} s    {describe(setup, 'set-ups')};"
        f" raw {med(raw for _, raw in setups):.6g}",
        f"peak_rss_mb  {bench.peak_rss_mb:.6g} MB   highest child max RSS",
        f"throughput   {med(rates):.6g} 1/s  = {w.throughput},"
        f" {size} {w.unit} per pass; {describe(rates, 'passes')}",
    ]
    for cmd in w.commands:
        samples = [p.walls[cmd.label] for p in passes]
        lines.append(f"  {cmd.label:<34} {med(samples):.6g} s  {describe(samples, 'runs')};"
                     f" raw {med(p.raw[cmd.label] for p in passes):.6g}")
    return {
        "wall_s": med(walls),
        "setup_s": med(setup),
        "peak_rss_mb": bench.peak_rss_mb,
        "throughput": med(rates),
    }


def measure_traced(bench: Bench, seconds: float, lines: list[str]) -> dict:
    plain: list[Pass] = []
    traced: list[Pass] = []

    def step():
        plain.append(bench.run_pass(traced=False))
        traced.append(bench.run_pass(traced=True))

    closed_loop(seconds, step)
    per_pass = [
        tracer.pass_metrics(p.traces, list(p.raw.values()),
                            [p.walls[k] / p.raw[k] for k in p.raw], p.artifact_bytes)
        for p in traced if len(p.traces) == len(p.walls)
    ]
    metrics = {
        name: statistics.median(m[name] for m in per_pass) if per_pass else 0.0
        for name in tracer.pass_metrics([], [], [], 0)
    }
    # Each traced pass runs right after an untraced one; the median of the
    # pairwise differences cancels most of any slow drift in speed.
    metrics["trace.overhead_s"] = statistics.median(
        t.total - u.total for u, t in zip(plain, traced))
    lines.append(f"traced passes {len(traced)}, untraced passes {len(plain)};"
                 " per-layer values are medians over traced passes")
    refusals = [r for p in traced for t in p.traces for r in t["refusals"]]
    lines.append(f"work-cap refusals: {refusals or 'none'}")
    return metrics


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "triplepass" / "__init__.py").is_file():
        print(f"error: no triplepass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    machine = machine_record()
    base = ROOT / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    bench = Bench(WORKLOADS[args.workload], args.seed, workdir, gate.load_refs())
    lines = [
        f"machine {json.dumps(machine)}",
        f"workload {args.workload}, seed {args.seed}, {args.seconds} s,"
        f" trace {args.trace}; closed loop, one client",
    ]
    try:
        measure = measure_traced if args.trace else measure_end_to_end
        values = measure(bench, args.seconds, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if args.trace:
        lines += [f"{name:<42} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    rate = bench.failed / bench.attempted
    lines.append(f"error_rate   {rate:.6g}  ({bench.failed} failed / {bench.attempted} attempted)")
    lines += [f"FAILED {p}" for p in bench.problems[:20]]

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"machine": machine, "args": vars(args), "log": lines,
                                  "problems": bench.problems, **result}, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
