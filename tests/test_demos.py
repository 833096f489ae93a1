"""Every demo in ``demos/`` runs to completion in a fresh interpreter and
prints, byte for byte, the stdout frozen in ``tests/golden/``.

The demos call library entry points directly (``build_section2``,
``build_profile_rep``, ``carry_min_table``, ``consistency_check``), so a
signature change there must show up here; a change in what they print
shows up as a diff of the golden file.  Demo 04 writes the paper's
six-term section-2 carry function out itself and prints the package's
carry minimum at the basic family's shape beside it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import betaforms

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"
# the directory holding the package under test, so the child imports it too
PACKAGE_ROOT = str(Path(betaforms.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT + (
        os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
