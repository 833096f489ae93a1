"""Write the references the gate compares against.

    python3 perfbench/freeze.py

``reference/theorem1.json``: runs the ``theorem1-preset`` and
``exact-forms`` units once, untraced, and keeps their exact fields, balls
and ``gap_bits``.  ``reference/section2.json``: runs the fixed section-2
profiles of ``random-profiles`` and keeps ``r`` and ``gap_bits`` of each.
The committed references were made with the seed code; regenerate them
only when a change is meant to alter these certificates or their
accuracy.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import gate
import run
import workloads


def run_unit(spec: dict) -> None:
    res = run.run_unit(spec)
    if not res["ok"]:
        raise SystemExit(f"unit failed: {res}")


def run_cli(argv: list, out: Path) -> dict:
    run_unit({"kind": "cli", "trace": None, "argv": argv})
    return json.loads(out.read_text())


def accuracy(entry: dict) -> dict:
    """The part of a per-n report entry that fixes its accuracy."""
    return {"r": entry["r"], "gap_bits": entry["consistency"]["gap_bits"]}


def write(name: str, reference: dict) -> None:
    (gate.REFERENCE_DIR / f"{name}.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        preset, exact = tmp / "preset.json", tmp / "exact.json"
        ns = workloads.THEOREM1_PRESET_NS
        report = run_cli(["run", "--profile", "theorem1",
                          "--n", *map(str, ns), "--out", str(preset)], preset)
        run_unit({"kind": "exact", "trace": None,
                  "ns": list(workloads.EXACT_FORMS_NS), "out": str(exact)})
        per_n = {str(e["n"]): gate.exact_fields(e)
                 for e in json.loads(exact.read_text())}
        for e in report["per_n"]:
            if gate.exact_fields(e) != per_n[str(e["n"])]:
                raise SystemExit(f"CLI and library disagree at n={e['n']}")
            per_n[str(e["n"])].update(accuracy(e))
        precision = report["profile"]["precision"]
        ledger = report["asymptotics"]
        section2 = {}
        for s, n in workloads.BASIC_PROFILES:
            profile, out = tmp / "profile.json", tmp / "report.json"
            profile.write_text(json.dumps(workloads.section2_profile(s, n)))
            report = run_cli(["run", "--profile", str(profile),
                              "--out", str(out)], out)
            section2[gate.section2_key(s, n)] = accuracy(report["per_n"][0])
    reference = {
        "profile": "theorem1",
        "precision": precision,
        "per_n": per_n,
        "ledger": {k: ledger[k] for k in ("d_exponent", "verdict",
                                          *gate.LEDGER_BALLS)},
    }
    write("theorem1", reference)
    write("section2", section2)


if __name__ == "__main__":
    main()
