import os
import subprocess
import sys
from pathlib import Path

import triplepass

ROOT = Path(__file__).resolve().parents[1]


def test_leakage_survey_rows_for_p3():
    src = str(Path(triplepass.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "leakage_survey.py"), "--primes", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert rows == [
        ["trivial-f3", "1", "1", "0.000000", "0.000000", "True", "pass"],
        ["scalar-f3", "2", "2", "1.000000", "1.000000", "False", "fail"],
        ["diagonal-f3", "2", "4", "1.000000", "1.000000", "False", "fail"],
        ["rotation-f3", "2", "4", "1.000000", "1.000000", "False", "fail"],
        ["general-linear-f2", "1", "6", "0.000000", "0.000000", "True", "pass"],
        ["general-linear-f3", "2", "48", "0.250000", "1.000000", "False", "fail"],
    ]
