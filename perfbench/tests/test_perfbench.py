"""Tests of the benchmark itself (not of betaforms).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from betaforms import profile_violations  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return gate.load_reference("theorem1")


@pytest.fixture(scope="module")
def section2():
    return gate.load_reference("section2")


def _entry(reference, n) -> dict:
    """A report entry at n that reproduces the reference exactly."""
    entry = copy.deepcopy(reference["per_n"][str(n)])
    entry["n"] = n
    entry["inclusions"] = {
        k: {"checked": v["checked"], "ok": v["ok"], "violations": []}
        for k, v in entry["inclusions"].items()}
    return entry


def _preset_report(reference) -> dict:
    """A theorem1 report that reproduces the reference exactly."""
    per_n = []
    for n in workloads.THEOREM1_PRESET_NS:
        entry = _entry(reference, n)
        entry["consistency"] = {"passed": True,
                                "gap_bits": entry.pop("gap_bits")}
        per_n.append(entry)
    return {"profile": {"precision": reference["precision"]},
            "per_n": per_n, "asymptotics": copy.deepcopy(reference["ledger"])}


def _failed(certs: dict) -> int:
    return sum(1 for problems in certs.values() if problems)


@pytest.mark.parametrize("seed", range(20))
def test_generator_yields_admissible_profiles(seed):
    profiles = workloads.random_profiles(seed, profile_violations)
    assert len(profiles) == 16
    for cfg in profiles:
        for n in cfg["n"]:
            assert not profile_violations(cfg["family"], cfg["s"], n,
                                          cfg.get("eta"))
        if cfg["family"] == "general":
            assert list(cfg["eta"][1:]) == sorted(cfg["eta"][1:])
            assert cfg["s"] in (5, 7) and 8 <= cfg["eta"][0] <= 22
    assert profiles == workloads.random_profiles(seed, profile_violations)


def test_generator_depends_on_seed():
    assert (workloads.random_profiles(1, profile_violations)
            != workloads.random_profiles(2, profile_violations))


def test_gate_passes_the_reference(reference):
    ns = workloads.THEOREM1_PRESET_NS
    certs = gate.check_theorem1_report(_preset_report(reference), reference, ns)
    assert _failed(certs) == 0 and len(certs) == len(ns) + 1


def test_gate_counts_a_perturbed_coefficient(reference):
    report = _preset_report(reference)
    a = report["per_n"][0]["a"]
    num, den = a["2"].split("/")
    a["2"] = f"{int(num) + 1}/{den}"
    certs = gate.check_theorem1_report(report, reference,
                                       workloads.THEOREM1_PRESET_NS)
    assert _failed(certs) == 1
    assert certs["n=2"] == ["a differs from the reference"]


def test_gate_counts_a_perturbed_integer_form(reference):
    entries = [_entry(reference, n) for n in workloads.EXACT_FORMS_NS]
    assert _failed(gate.check_exact_forms(entries, reference,
                                          workloads.EXACT_FORMS_NS)) == 0
    coeffs = entries[-1]["integer_form"]["coefficients"]
    coeffs[0] = str(int(coeffs[0]) - 1)
    certs = gate.check_exact_forms(entries, reference, workloads.EXACT_FORMS_NS)
    assert _failed(certs) == 1


def test_gate_counts_a_ball_that_does_not_overlap(reference):
    report = _preset_report(reference)
    ball = report["asymptotics"]["total"]
    # shift the midpoint by far more than its radius and print rounding
    from mpmath import mp, mpf, nstr
    with mp.workprec(512):
        mid = mpf(ball["mid"])
        ball["mid"] = nstr(mid + abs(mid) * mpf("1e-30"), 40)
    certs = gate.check_theorem1_report(report, reference,
                                       workloads.THEOREM1_PRESET_NS)
    assert _failed(certs) == 1
    assert certs["ledger"] == ["total does not overlap the reference ball"]


def test_ball_overlap_allows_print_rounding():
    x = {"mid": "1.000000000000000000000000000000000000000", "rad": "1e-80"}
    y = {"mid": "1.0000000000000000000000000000000000000004", "rad": "1e-80"}
    far = {"mid": "1.000000000000000000000000000000000001", "rad": "1e-80"}
    assert gate.balls_overlap(x, y)
    assert not gate.balls_overlap(x, far)


def test_gate_counts_a_less_accurate_oracle(reference):
    # r is about 2**-316, so 300 bits do not even certify its sign; the
    # seed reaches 615
    report = _preset_report(reference)
    report["per_n"][0]["consistency"]["gap_bits"] = 300
    certs = gate.check_theorem1_report(report, reference,
                                       workloads.THEOREM1_PRESET_NS)
    assert _failed(certs) == 1
    assert certs["n=2"] == ["gap_bits 300 below 607"]


def _profile_report(family: str, s: int, n: int, r: dict,
                    gap_bits: int, verdict: str = "satisfied") -> dict:
    return {"profile": {"family": family, "s": s, "precision": 256},
            "per_n": [{"n": n, "inclusions": {"form": {"ok": True}},
                       "integer_form": {}, "r": r,
                       "consistency": {"passed": True,
                                       "gap_bits": gap_bits}}],
            "asymptotics": {"verdict": verdict}}


def test_gate_requires_a_decided_ledger(section2):
    report = _profile_report("general", 5, 2, {"mid": "0.5", "rad": "1e-90"},
                             290, verdict="inconclusive")
    certs = gate.check_profile_report(report, [2], section2)
    assert certs == {"n=2": [], "ledger": ["ledger verdict is not decided"]}
    assert _failed(gate.check_profile_report(None, [2], section2)) == 2


def test_gate_holds_generated_profiles_to_the_oracle_target(section2):
    # |r| < 2**10: the oracle stops within 2**-(256 + 8 - 10)
    r = {"mid": "1000", "rad": "1e-75"}
    ok = _profile_report("general", 5, 2, r, 250)
    assert _failed(gate.check_profile_report(ok, [2], section2)) == 0
    weak = _profile_report("general", 5, 2, r, 200)
    assert gate.check_profile_report(weak, [2], section2)["n=2"] == [
        "gap_bits 200 below 250"]
    straddle = _profile_report("general", 5, 2, {"mid": "1e-80", "rad": "1e-78"},
                               260)
    assert gate.check_profile_report(straddle, [2], section2)["n=2"] == [
        "r does not certify its sign"]


def test_gate_holds_section2_profiles_to_the_frozen_accuracy(section2):
    s, n = workloads.BASIC_PROFILES[-1]
    ref = section2[gate.section2_key(s, n)]
    report = _profile_report("section2", s, n, ref["r"], ref["gap_bits"])
    assert _failed(gate.check_profile_report(report, [n], section2)) == 0
    report["per_n"][0]["consistency"]["gap_bits"] = ref["gap_bits"] - 20
    certs = gate.check_profile_report(report, [n], section2)
    assert certs[f"n={n}"] == [
        f"gap_bits {ref['gap_bits'] - 20} below {ref['gap_bits'] - 8}"]


def test_metrics_are_empty_when_no_unit_succeeds():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failed = {"units": [{"ok": False, "wall_s": 1.0, "raw_wall_s": 1.0}],
              "wall_s": 1.0, "raw_wall_s": 1.0}
    assert run.metrics([failed, failed], False, spec) == {}
    assert run.metrics([failed], True, spec) == {}


def test_traced_self_times_fit_in_the_traced_wall_time(tmp_path):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"family": "section2", "s": 3, "n": [2]}))
    out = tmp_path / "r.json"
    res = run.run_unit({"kind": "cli", "trace": str(tmp_path / "s.jsonl"),
                        "argv": ["run", "--profile", str(profile),
                                 "--out", str(out)]})
    assert res["ok"]
    self_s = res["trace"]["self_s"]
    assert set(self_s) == set(spans.SPAN_NAMES)
    assert all(v >= 0 for v in self_s.values())
    # self times are raw perf_counter readings: compare with the raw wall
    assert 0 < sum(self_s.values()) <= res["raw_wall_s"]
    assert res["trace"]["counts"]["numerics.tail_calls"] >= 1
    lines = (tmp_path / "s.jsonl").read_text().splitlines()
    assert {json.loads(line)["name"] for line in lines} <= set(spans.SPAN_NAMES)


def test_tracing_restores_the_original_names():
    from betaforms import cli, numerics

    before = (cli.r_n_series, numerics.r_n_series, numerics.divide_trunc)
    with spans.installed(spans.Tracer()):
        assert cli.r_n_series is not before[0]
    assert (cli.r_n_series, numerics.r_n_series,
            numerics.divide_trunc) == before
