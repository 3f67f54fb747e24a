"""Each demo's standard output, byte for byte, against its golden file.

The goldens in tests/golden/demos/ were written by running the demos;
regenerate one with `PYTHONPATH=src python demos/<name>.py >
tests/golden/demos/<name>.txt` only for an intended change of output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    names = {p.stem for p in DEMOS}
    goldens = {p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.txt")}
    assert names and names == goldens


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_byte_identical(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    golden = ROOT / "tests" / "golden" / "demos" / (demo.stem + ".txt")
    assert proc.stdout == golden.read_bytes()
