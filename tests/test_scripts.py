import os
import subprocess
import sys
from pathlib import Path

import triplepass

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(triplepass.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_leakage_survey_rows_for_p3():
    stdout = run_script("leakage_survey.py", "--primes", "3")
    rows = [line.split() for line in stdout.splitlines()[2:]]
    assert rows == [
        ["trivial-f3", "1", "1", "0.000000", "0.000000", "True", "pass"],
        ["scalar-f3", "2", "2", "1.000000", "1.000000", "False", "fail"],
        ["diagonal-f3", "2", "4", "1.000000", "1.000000", "False", "fail"],
        ["rotation-f3", "2", "4", "1.000000", "1.000000", "False", "fail"],
        ["general-linear-f2", "1", "6", "0.000000", "0.000000", "True", "pass"],
        ["general-linear-f3", "2", "48", "0.250000", "1.000000", "False", "fail"],
    ]


def test_reachable_sets_rotation_f7_histogram():
    stdout = run_script("reachable_sets.py", "--kind", "rotation", "--p", "7")
    assert stdout.splitlines()[-1] == "image-size histogram: {8: 42}"
