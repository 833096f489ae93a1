"""The identity corpus: reports byte for byte against the frozen files in
``tests/golden/``.

A change that means to keep every report (a refactor, a speed-up) must
leave these bytes alone; one that changes a report reruns
``tools/freeze_golden.py``, so the diff shows what moved.  No test
rewrites the corpus.  The demos' stdout is held to the same directory by
``tests/test_demos.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "freeze_golden", ROOT / "tools" / "freeze_golden.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

PROFILES = json.loads(freeze.PROFILES.read_text())


@pytest.mark.parametrize("golden", sorted(freeze.CASES),
                         ids=lambda name: name.removesuffix(".json"))
def test_report_is_byte_identical(tmp_path, golden):
    code, text = freeze.report(freeze.CASES[golden], tmp_path)
    assert code == 0
    assert text == (freeze.GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_random_profile_report_is_byte_identical(tmp_path, name):
    code, text = freeze.random_report(PROFILES[name], tmp_path)
    assert code == 0
    assert text == (freeze.RANDOM / f"{name}.json").read_bytes()


def test_corpus_covers_both_seeds_in_full():
    assert len(PROFILES) == 16 * len(freeze.SEEDS)
    assert {path.stem for path in freeze.RANDOM.glob("seed*.json")} == set(
        PROFILES)
