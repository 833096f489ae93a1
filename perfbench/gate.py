"""Correctness gate: every certificate a workload produces is checked here.

One certificate is one (profile, n) entry of a report, plus one ledger per
profile.  Each ``check_*`` function returns ``{certificate: [problems]}``;
a certificate with any problem counts as failed.

For theorem1 the exact fields (``a``, ``d``, ``phi``, inclusion verdicts,
integer forms, ``d_exponent``, ledger verdict) are frozen in
``reference/theorem1.json`` from the seed code and must be reproduced
exactly; reported balls must overlap the frozen balls.  Random profiles
have no exact reference: they must pass every check the program makes
itself, and the ledger must decide (``satisfied`` or ``fails``).

Every consistency check also has an accuracy floor, so that a faster
series oracle cannot be a less accurate one.  Where a reference froze the
seed's ``gap_bits`` (theorem1, and the fixed section-2 profiles in
``reference/section2.json``), a run may fall at most ``GAP_SLACK_BITS``
below it and ``r`` must overlap the frozen ball.  Elsewhere ``gap_bits``
must reach the oracle's own stopping rule (see ``oracle_gap_floor``) and
``r`` must exclude zero.
"""

from __future__ import annotations

import json
from pathlib import Path

from mpmath import mag, mp, mpf

REFERENCE_DIR = Path(__file__).with_name("reference")

EXACT_FIELDS = ("a", "d", "phi", "inclusions", "integer_form")
LEDGER_BALLS = ("r_exponent", "phi_exponent", "total")
# How far gap_bits may fall below a frozen reference: the radius of r may
# grow by at most 2**8.
GAP_SLACK_BITS = 8
DECIDED = ("satisfied", "fails")


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def section2_key(s: int, n: int) -> str:
    return f"s={s},n={n}"


def oracle_gap_floor(precision: int, r: dict) -> int:
    """The smallest gap_bits the seed's series oracle can report for r.

    ``numerics.alternating_series_tail`` stops once the radius of its sum
    is within 2**-(precision + 8) * max(1, |r|), plus four times a tail
    bound of at most 2**-(precision + 16); the decomposition's radius and
    the midpoint distance cost at most a few bits more.
    """
    with mp.workprec(512):
        return precision + 4 - max(0, mag(mpf(r["mid"])))


def accuracy_problems(entry: dict, precision: int,
                      ref: dict | None) -> list[str]:
    """Consistency and accuracy of one per-n entry against ``ref`` (a
    frozen ``{"r", "gap_bits"}``), or against the oracle's stopping rule
    when ``ref`` is None."""
    check = entry.get("consistency") or {}
    if not check.get("passed"):
        return ["consistency check failed"]
    problems = []
    if ref is not None:
        floor = ref["gap_bits"] - GAP_SLACK_BITS
        if not balls_overlap(entry["r"], ref["r"]):
            problems.append("r does not overlap the reference ball")
    else:
        floor = oracle_gap_floor(precision, entry["r"])
        if not excludes_zero(entry["r"]):
            problems.append("r does not certify its sign")
    if check["gap_bits"] < floor:
        problems.append(f"gap_bits {check['gap_bits']} below {floor}")
    return problems


def inclusion_verdict(report: dict) -> dict:
    """An inclusion report reduced to its verdict: entries checked, ok,
    number of violations."""
    return {"checked": report["checked"], "ok": report["ok"],
            "violations": len(report["violations"])}


def exact_fields(entry: dict) -> dict:
    """The exact part of one per-n report entry, as frozen in the reference."""
    out = {k: entry.get(k) for k in EXACT_FIELDS}
    if out["inclusions"] is not None:
        out["inclusions"] = {k: inclusion_verdict(v)
                             for k, v in out["inclusions"].items()}
    return out


def balls_overlap(x: dict, y: dict) -> bool:
    """Whether two printed balls ``{mid, rad}`` can enclose the same real.

    Each printed ball is first widened by its own print rounding: the
    midpoint carries 40 significant digits and the radius 8.
    """
    with mp.workprec(512):
        mx, my = mpf(x["mid"]), mpf(y["mid"])
        rx = mpf(x["rad"]) * (1 + mpf("1e-7")) + abs(mx) * mpf("1e-39")
        ry = mpf(y["rad"]) * (1 + mpf("1e-7")) + abs(my) * mpf("1e-39")
        return abs(mx - my) <= rx + ry


def excludes_zero(x: dict) -> bool:
    """Whether a printed ball ``{mid, rad}`` certifies the sign of its real."""
    with mp.workprec(512):
        return mpf(x["rad"]) * (1 + mpf("1e-7")) < abs(mpf(x["mid"]))


def _compare_exact(entry: dict, ref: dict) -> list[str]:
    got = exact_fields(entry)
    return [f"{k} differs from the reference" for k in EXACT_FIELDS
            if got[k] != ref[k]]


def check_theorem1_report(report: dict | None, reference: dict,
                          ns) -> dict[str, list[str]]:
    """Gate for a ``betaforms run --profile theorem1`` report."""
    certs = {f"n={n}": [] for n in ns}
    certs["ledger"] = []
    if report is None:
        return {c: ["no report"] for c in certs}
    entries = {e["n"]: e for e in report["per_n"]}
    precision = report["profile"]["precision"]
    for n in ns:
        problems = certs[f"n={n}"]
        entry = entries.get(n)
        if entry is None:
            problems.append("missing from the report")
            continue
        ref = reference["per_n"][str(n)]
        problems += _compare_exact(entry, ref)
        problems += accuracy_problems(entry, precision, ref)
    ledger = report.get("asymptotics")
    ref = reference["ledger"]
    if ledger is None:
        certs["ledger"].append("missing from the report")
    else:
        for key in ("d_exponent", "verdict"):
            if ledger[key] != ref[key]:
                certs["ledger"].append(f"{key} differs from the reference")
        for key in LEDGER_BALLS:
            if not balls_overlap(ledger[key], ref[key]):
                certs["ledger"].append(
                    f"{key} does not overlap the reference ball")
    return certs


def check_profile_report(report: dict | None, ns,
                         section2: dict) -> dict[str, list[str]]:
    """Gate for a report on a generated profile.  ``section2`` holds the
    frozen accuracy of the fixed section-2 profiles."""
    certs = {f"n={n}": [] for n in ns}
    certs["ledger"] = []
    if report is None:
        return {c: ["no report"] for c in certs}
    entries = {e["n"]: e for e in report["per_n"]}
    profile = report["profile"]
    precision = profile["precision"]
    for n in ns:
        problems = certs[f"n={n}"]
        entry = entries.get(n)
        if entry is None:
            problems.append("missing from the report")
            continue
        for kind, inc in (entry.get("inclusions") or {}).items():
            if not inc["ok"]:
                problems.append(f"{kind} inclusions violated")
        if "integer_form" not in entry:
            problems.append("no integer form")
        ref = None
        if profile["family"] == "section2":
            ref = section2[section2_key(profile["s"], n)]
        problems += accuracy_problems(entry, precision, ref)
    ledger = report.get("asymptotics")
    if ledger is None or ledger["verdict"] not in DECIDED:
        certs["ledger"].append("ledger verdict is not decided")
    return certs


def check_exact_forms(entries: list | None, reference: dict,
                      ns) -> dict[str, list[str]]:
    """Gate for the exact-forms unit: every exact field as frozen."""
    certs = {f"n={n}": [] for n in ns}
    if entries is None:
        return {c: ["no report"] for c in certs}
    by_n = {e["n"]: e for e in entries}
    for n in ns:
        entry = by_n.get(n)
        if entry is None:
            certs[f"n={n}"].append("missing from the report")
        else:
            certs[f"n={n}"] += _compare_exact(entry, reference["per_n"][str(n)])
    return certs
