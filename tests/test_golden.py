"""The preset reports, byte for byte against the frozen files in
``tests/golden/``.

A change that means to keep every report (a refactor, a speed-up) must
leave these bytes alone; one that changes a report updates its file, so
the diff shows what moved.  The demos' stdout is held to the same
directory by ``tests/test_demos.py``.
"""

from pathlib import Path

import pytest

from betaforms.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("golden, args", [
    ("run_section2-s17.json", ["--profile", "section2-s17"]),
    ("run_theorem1_n2.json", ["--profile", "theorem1", "--n", "2"]),
], ids=["section2-s17", "theorem1-n2"])
def test_run_report_is_byte_identical(tmp_path, golden, args):
    out = tmp_path / "report.json"
    assert main(["run", *args, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
