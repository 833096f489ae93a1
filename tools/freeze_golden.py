"""Rewrite the identity corpus in ``tests/golden/`` from the current tree.

Usage (from the repository root)::

    PYTHONPATH=src python tools/freeze_golden.py

The corpus is the report of every command in ``CASES`` and the ``run``
report of each ``random-profiles`` benchmark profile at seeds 1 and 2
(``perfbench/workloads.py::random_profiles``).  Those profiles are frozen
too, in ``tests/golden/random/profiles.json``, so the corpus does not move
when the benchmark's generator does.  Every command runs in-process through
``betaforms.cli.main``.

``tests/test_golden.py`` compares the current tree against these bytes
through ``report``; it never rewrites them.  A change that means to alter
a report reruns this script, and the diff of ``tests/golden/`` shows what
moved.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from betaforms import profile_violations
from betaforms.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RANDOM = GOLDEN / "random"
PROFILES = RANDOM / "profiles.json"
SEEDS = (1, 2)

# golden file -> command line, less ``--out``
CASES = {
    "run_section2-s17.json": ["run", "--profile", "section2-s17"],
    "run_theorem1_n2.json": ["run", "--profile", "theorem1", "--n", "2"],
    "run_theorem1.json": ["run", "--profile", "theorem1"],
    "run_theorem1_n6.json": ["run", "--profile", "theorem1", "--n", "6"],
    "asymptotics_section2-s17.json": ["asymptotics", "--profile",
                                      "section2-s17"],
    "phi-table_theorem1.json": ["phi-table", "--profile", "theorem1"],
}


def report(argv: list[str], scratch: Path) -> tuple[int, bytes]:
    """The exit code and report bytes of ``betaforms ARGV``."""
    out = scratch / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def random_report(profile: dict, scratch: Path) -> tuple[int, bytes]:
    """``report`` of ``run`` on one profile JSON object."""
    path = scratch / "profile.json"
    path.write_text(json.dumps(profile))
    return report(["run", "--profile", str(path)], scratch)


def random_profiles() -> dict[str, dict]:
    """The benchmark's profiles, keyed ``seed<S>-<index>``."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {f"seed{seed}-{i:02d}": profile
            for seed in SEEDS
            for i, profile in enumerate(
                workloads.random_profiles(seed, profile_violations))}


def main_freeze() -> int:
    RANDOM.mkdir(parents=True, exist_ok=True)
    profiles = random_profiles()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        outputs = {GOLDEN / name: report(argv, scratch)
                   for name, argv in CASES.items()}
        outputs.update({RANDOM / f"{name}.json": random_report(p, scratch)
                        for name, p in profiles.items()})
    failed = [path.name for path, (code, _) in outputs.items() if code]
    if failed:
        print("nonzero exit, nothing written: " + ", ".join(failed),
              file=sys.stderr)
        return 1
    PROFILES.write_text(json.dumps(profiles, indent=2, sort_keys=True) + "\n")
    for path, (_, text) in outputs.items():
        path.write_bytes(text)
    print(f"wrote {len(outputs)} reports and {PROFILES.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main_freeze())
