"""Each entry point loads only the modules its work needs.

Start-up is most of a short command's time, and without cached bytecode
every module loaded is compiled. So importing the package loads no
submodule, building an instance loads no checker, ``check`` loads
neither ``protocol`` nor ``analysis``, ``run`` loads no ``analysis``,
``analyze --instance`` loads only ``analysis`` beyond the core,
``analyze --transcripts`` no checker or census, ``search`` no
``protocol`` or ``posterior``, and nothing loads ``dataclasses`` (whose
import pulls in ``inspect``). Each case runs a fresh interpreter under
``-X importtime``, which names every module the process imports. The
names that moved out of ``actions`` and ``analysis`` stay readable there
for ``perfbench/tracer.py``, which must still wrap their calls.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triplepass

SRC = str(Path(triplepass.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# The console script of [project.scripts]: triplepass.cli:main.
SCRIPT = "import sys; from triplepass.cli import main; sys.exit(main())"
HEAVY = {"dataclasses", "inspect"}


def loaded(args: list, exit_code: int = 0) -> set:
    """The modules a fresh ``python -X importtime ARGS...`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert proc.returncode == exit_code, proc.stderr[-2000:]
    lines = [line.split("|") for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {fields[-1].strip() for fields in lines[1:]}  # the first line is the header


def package_modules(modules: set) -> set:
    return {m.split(".", 1)[1] for m in modules if m.startswith("triplepass.")}


# What building an instance needs; every command needs it too.
CORE = {"errors", "records", "fields", "matrices", "groups", "actions"}


def test_importing_a_name_loads_only_its_modules():
    modules = loaded(["-c", "from triplepass import build_instance"])
    assert package_modules(modules) == CORE
    assert not modules & HEAVY


@pytest.mark.parametrize("entry", [["-m", "triplepass"], ["-c", SCRIPT]], ids=["module", "script"])
def test_check_loads_neither_protocol_nor_analysis(tmp_path, entry):
    # diagonal fails transcript equivalence, so check exits 1.
    modules = loaded([*entry, "check", "--instance", "diagonal", "--p", "3",
                      "--out", str(tmp_path / "check.json")], exit_code=1)
    assert package_modules(modules) == CORE | {"cli", "checks"}
    assert not modules & HEAVY


def test_run_loads_no_analysis(tmp_path):
    modules = loaded(["-m", "triplepass", "run", "--instance", "diagonal", "--p", "3",
                      "--out", str(tmp_path / "run.json")])
    assert package_modules(modules) == CORE | {"cli", "protocol"}
    assert not modules & HEAVY


@pytest.mark.parametrize("argv", [
    ["analyze", "--instance", "diagonal", "--p", "3"],
    ["search", "--p", "2"],
], ids=" ".join)
def test_analysis_without_transcripts_loads_no_protocol(tmp_path, argv):
    modules = loaded(["-m", "triplepass", *argv, "--out", str(tmp_path / "out.json")])
    extra = {"analyze": set(), "search": {"census", "checks"}}[argv[0]]
    assert package_modules(modules) == CORE | {"cli", "analysis"} | extra
    assert not modules & HEAVY


def _diagonal_run(tmp_path) -> str:
    """A lab-view file of three diagonal-f3 sessions."""
    from triplepass.cli import main

    run_file = tmp_path / "run.json"
    assert main(["run", "--instance", "diagonal", "--p", "3", "--sessions", "3",
                 "--lab-view", "--out", str(run_file)]) == 0
    return str(run_file)


def test_analyze_transcripts_loads_no_checker_or_census(tmp_path):
    modules = loaded(["-m", "triplepass", "analyze", "--transcripts", _diagonal_run(tmp_path),
                      "--out", str(tmp_path / "out.json")])
    assert package_modules(modules) == CORE | {"cli", "protocol", "analysis", "posterior"}
    assert not modules & HEAVY


CHECKERS = ("actions.is_commutator_fixed_set", "actions.check_masking_coverage",
            "actions.check_transcript_equivalence")


@pytest.mark.parametrize("argv,exit_code,traced", [
    (["check", "--instance", "diagonal", "--p", "3"], 1, CHECKERS),
    (["search", "--p", "2"], 0,
     ("analysis.search_instances", "analysis.exact_mutual_information", *CHECKERS)),
    (["analyze", "--transcripts", "RUN"], 0, ("analysis.posterior_from_transcript",)),
], ids=["check", "search", "analyze --transcripts"])
def test_the_tracer_still_wraps_the_moved_names(tmp_path, argv, exit_code, traced):
    # perfbench/tracer.py reads each traced name from the module it lists
    # and wraps it there; the command must call it through that module.
    argv = [_diagonal_run(tmp_path) if a == "RUN" else a for a in argv]
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(trace), *argv, "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert proc.returncode == exit_code, proc.stderr[-2000:]
    calls = json.loads(trace.read_text())["calls"]
    for name in traced:
        assert calls.get(name, 0) > 0, name


def test_the_index_reader_type_lives_beside_the_index():
    from triplepass import actions, posterior, protocol

    assert "WireTranscript" in actions.__all__
    assert "WireTranscript" not in protocol.__all__
    assert "WireTranscript" not in triplepass.__all__
    assert posterior.WireTranscript is actions.WireTranscript


@pytest.mark.parametrize("argv,exit_code", [
    (["demo"], 0),
    (["demo", "--rational"], 0),
    (["run", "--instance", "rational", "--sessions", "2"], 0),
    (["analyze", "--instance", "diagonal", "--p", "3"], 0),
    (["analyze", "--transcripts", "RUN"], 0),
    (["check", "--instance", "general-linear", "--p", "3"], 1),
    (["search", "--p", "2"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_no_command_loads_dataclasses(tmp_path, argv, exit_code):
    if "RUN" in argv:
        argv = [_diagonal_run(tmp_path) if a == "RUN" else a for a in argv]
    modules = loaded(["-m", "triplepass", *argv], exit_code)
    assert not modules & HEAVY


def test_every_public_name_is_its_defining_modules_object():
    namespace: dict = {}
    exec("from triplepass import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(triplepass.__all__)
    constants = {"RATIONALS": "fields", "DEFAULT_PRIME_CAP": "groups", "DEFAULT_WORK_CAP": "actions"}
    for name in triplepass.__all__:
        obj = namespace[name]
        home = importlib.import_module(
            f"triplepass.{constants[name]}" if name in constants else obj.__module__
        )
        assert getattr(home, name) is obj is getattr(triplepass, name), name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        triplepass.nonexistent  # noqa: B018
