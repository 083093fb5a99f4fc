"""Golden text output: the ``--format human`` lines of ``check``,
``analyze --instance``, ``search``, ``run`` and ``analyze --transcripts``,
and ``run``'s csv table, byte for byte.

Each command runs once to stdout and once with ``--out``; both must give
the same text, and the exit code must not change with the destination.
"""

import pytest

from triplepass import __version__
from triplepass.cli import main

CHECK_DIAGONAL_F3 = (
    "comm-fixed-set: pass (work 4)\n"
    "masking-coverage: pass (work 16)\n"
    "transcript-equivalence: fail (work 6)\n"
)
CHECK_TRIVIAL = (
    "comm-fixed-set: pass (work 1)\n"
    "masking-coverage: pass (work 1)\n"
    "transcript-equivalence: pass (work 2)\n"
)
ANALYZE_DIAGONAL_F3 = "instance diagonal-f3: MI = 1.0 bits, zero_leakage=False, transcripts=72\n"
_PASSING = "comm-fixed-set=pass, masking-coverage=pass, transcript-equivalence=pass, MI=0.0"
SEARCH_P2 = (
    "p=2: 6 subgroups, 6 instances, complete=True\n"
    f"  subgroup-f2-o1-0 (order 1): {_PASSING}\n"
    f"  subgroup-f2-o2-1 (order 2): {_PASSING}\n"
    f"  subgroup-f2-o2-2 (order 2): {_PASSING}\n"
    f"  subgroup-f2-o2-3 (order 2): {_PASSING}\n"
    f"  subgroup-f2-o3-4 (order 3): {_PASSING}\n"
    "  subgroup-f2-o6-5 (order 6): comm-fixed-set=fail, masking-coverage=pass,"
    " transcript-equivalence=pass, MI=0.0\n"
    "candidates: []\n"
)
RUN_DIAGONAL_F3 = (
    "instance diagonal-f3, seed 0\n"
    "session 0:\n"
    "  v  = (s=2, t=1)\n"
    "  A  = [[1,0],[0,1]]@F3\n"
    "  B  = [[2,0],[0,1]]@F3\n"
    "  pass 1  alice -> bob    v1 = [2,1]@F3\n"
    "  pass 2  bob   -> alice  v2 = [1,1]@F3\n"
    "  pass 3  alice -> bob    v3 = [1,1]@F3\n"
    "  pass 4  bob unmasks     v4 = [2,1]@F3\n"
    "  round trip: OK (v4 = v)\n"
    "session 1:\n"
    "  v  = (s=2, t=1)\n"
    "  A  = [[2,0],[0,1]]@F3\n"
    "  B  = [[2,0],[0,2]]@F3\n"
    "  pass 1  alice -> bob    v1 = [1,1]@F3\n"
    "  pass 2  bob   -> alice  v2 = [2,2]@F3\n"
    "  pass 3  alice -> bob    v3 = [1,2]@F3\n"
    "  pass 4  bob unmasks     v4 = [2,1]@F3\n"
    "  round trip: OK (v4 = v)\n"
    "session 2:\n"
    "  v  = (s=2, t=2)\n"
    "  A  = [[1,0],[0,2]]@F3\n"
    "  B  = [[1,0],[0,2]]@F3\n"
    "  pass 1  alice -> bob    v1 = [2,1]@F3\n"
    "  pass 2  bob   -> alice  v2 = [2,2]@F3\n"
    "  pass 3  alice -> bob    v3 = [2,1]@F3\n"
    "  pass 4  bob unmasks     v4 = [2,2]@F3\n"
    "  round trip: OK (v4 = v)\n"
)
RUN_DIAGONAL_F3_CSV = (
    "# schema: triplepass/run-success/v1\n"
    f"# tool: triplepass {__version__}\n"
    "# seed: 0\n"
    "# instance: diagonal-f3\n"
    "session,success\n"
    "0,true\n"
    "1,true\n"
    "2,true\n"
)
POSTERIORS_DIAGONAL_F3 = "".join(
    f"transcript {{'instance': 'diagonal-f3', 'p': 3, 'v1': {v1}, 'v2': {v2}, 'v3': {v3}}}:"
    " support {2}, uniform=False, witnesses=1\n"
    for v1, v2, v3 in (([2, 1], [1, 1], [1, 1]), ([1, 1], [2, 2], [1, 2]), ([2, 1], [2, 2], [2, 1]))
)

DIAGONAL_F3 = ("--instance", "diagonal", "--p", "3")
CASES = {
    "check-diagonal-f3": (("check", *DIAGONAL_F3), 1, CHECK_DIAGONAL_F3),
    "check-trivial": (("check", "--instance", "trivial"), 0, CHECK_TRIVIAL),
    "analyze-diagonal-f3": (("analyze", *DIAGONAL_F3), 0, ANALYZE_DIAGONAL_F3),
    "search-p2": (("search", "--p", "2"), 0, SEARCH_P2),
    "run-diagonal-f3": (("run", *DIAGONAL_F3, "--sessions", "3"), 0, RUN_DIAGONAL_F3),
}


def _both_ways(capsys, tmp_path, argv, fmt):
    """(exit code, stdout text) and (exit code, --out file text); the
    --out run must print nothing."""
    code = main([*argv, "--format", fmt])
    printed = capsys.readouterr()
    assert printed.err == ""
    out = tmp_path / "out.txt"
    code_out = main([*argv, "--format", fmt, "--out", str(out)])
    written = capsys.readouterr()
    assert (written.out, written.err) == ("", "")
    return (code, printed.out), (code_out, out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_human_text_is_pinned(capsys, tmp_path, case):
    argv, code, text = CASES[case]
    assert _both_ways(capsys, tmp_path, argv, "human") == ((code, text), (code, text))


def test_run_csv_table_is_pinned(capsys, tmp_path):
    argv = ("run", *DIAGONAL_F3, "--sessions", "3")
    assert _both_ways(capsys, tmp_path, argv, "csv") == ((0, RUN_DIAGONAL_F3_CSV),) * 2


def test_posterior_text_of_a_lab_view_run_is_pinned(capsys, tmp_path):
    run = tmp_path / "run.json"
    assert main(["run", *DIAGONAL_F3, "--sessions", "3", "--lab-view", "--out", str(run)]) == 0
    argv = ("analyze", "--transcripts", str(run))
    assert _both_ways(capsys, tmp_path, argv, "human") == ((0, POSTERIORS_DIAGONAL_F3),) * 2
