import dataclasses
import importlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from betaforms import cli, numerics
from betaforms.balls import BallReal
from betaforms.cli import main
from betaforms.decomposition import InclusionReport, Violation

from tests.test_numerics import beta_oracle, full_power_enclosure


def run_cli(*args) -> int:
    return main(list(args))


S3 = {"family": "section2", "s": 3, "n": [2]}

# (profile JSON, a phrase its violation list must contain); every value
# here is outside input that must end in exit code 2, never a traceback.
MALFORMED = [
    pytest.param({"family": "section2", "s": 2, "n": [2]}, "s must be odd",
                 id="even-s"),
    pytest.param([S3], "must be a JSON object", id="top-level-list"),
    pytest.param({**S3, "precison": 256}, "unknown key 'precison'",
                 id="unknown-key"),
    pytest.param({**S3, "n": "24"}, "n must be an integer", id="string-n"),
    pytest.param({**S3, "n": [2.0]}, "n must be an integer", id="float-n"),
    pytest.param({**S3, "n": [True]}, "n must be an integer", id="bool-n"),
    pytest.param({"family": "general", "eta": [9.9, 1, 1, 1, 1, 1],
                  "n": [2]}, "eta must be a list", id="float-eta"),
    pytest.param({"family": "general", "eta": ["5", 1, 1, 1, 1, 1],
                  "n": [2]}, "eta must be a list", id="string-eta"),
    pytest.param({**S3, "precision": "256"}, "precision must be an integer",
                 id="string-precision"),
    pytest.param({**S3, "precision": True}, "precision must be an integer",
                 id="bool-precision"),
    # run always does every check: a profile that names a removed switch
    # must not pass as if it had been obeyed
    *[pytest.param({**S3, key: value}, f"unknown key {key!r}",
                   id=f"removed-{key}")
      for key, value in [("verify_inclusions", False), ("consistency", False),
                         ("asymptotics", False), ("mc_samples", 1000),
                         ("seed", 7)]],
    pytest.param({"family": "general", "eta": [], "n": [2]},
                 "missing key 's'", id="empty-eta"),
    pytest.param({"family": "section2", "n": [2]}, "missing key 's'",
                 id="section2-no-s"),
    pytest.param({"s": 5, "eta": [9, 1, 1, 1, 1, 1], "n": [2]},
                 "missing key 'family'", id="no-family"),
]


class TestValidate:
    def test_presets_pass(self, capsys):
        assert run_cli("validate", "--profile", "theorem1") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] and out["violations"] == []
        assert run_cli("validate", "--profile", "section2-s17") == 0

    def test_boundary_eta_rejected(self, tmp_path, capsys):
        cfg = {"family": "general", "s": 5,
               "eta": [4, 2, 1, 1, 1, 1], "n": [2]}  # eta_1 = eta_0/2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("validate", "--profile", str(path)) == 2
        out = json.loads(capsys.readouterr().out)
        assert not out["valid"]
        assert any("eta_1" in v for v in out["violations"])

    def test_odd_n_rejected(self, tmp_path, capsys):
        cfg = {"family": "section2", "s": 3, "n": [3]}
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("validate", "--profile", str(path)) == 2
        out = json.loads(capsys.readouterr().out)
        assert any("even" in v for v in out["violations"])

    def test_unreadable_file(self, capsys):
        assert run_cli("validate", "--profile", "/nonexistent/prof.json") == 2

    @pytest.mark.parametrize("cfg, phrase", [
        pytest.param(None, None, id="not-json"), *MALFORMED])
    def test_bad_json(self, tmp_path, capsys, cfg, phrase):
        path = tmp_path / "broken.json"
        path.write_text("{not json" if cfg is None else json.dumps(cfg))
        assert run_cli("validate", "--profile", str(path)) == 2
        if phrase is not None:
            out = json.loads(capsys.readouterr().out)
            assert not out["valid"]
            assert any(phrase in v for v in out["violations"])


class TestRun:
    def test_section2_s17(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("run", "--profile", "section2-s17", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] and report["failures"] == []
        entry = report["per_n"][0]
        coeffs = entry["integer_form"]["coefficients"]
        # the constant plus one coefficient per even index 2..16
        assert len(coeffs) == 9
        assert all(Fraction(c).denominator == 1 for c in coeffs)
        assert entry["consistency"]["passed"]
        assert report["asymptotics"]["verdict"] == "satisfied"
        total = mpmath.mpf(report["asymptotics"]["total"]["mid"])
        assert abs(total - mpmath.mpf("-0.0534195517")) < 1e-8

    def test_theorem1_n2(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("run", "--profile", "theorem1", "--n", "2",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"]
        assert report["per_n"][0]["phi"] == "13^2*17^4*19^4"
        total = mpmath.mpf(report["asymptotics"]["total"]["mid"])
        assert abs(total - mpmath.mpf("-0.50611968")) < 1e-6

    def test_theorem1_full_preset(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("run", "--profile", "theorem1", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert [e["n"] for e in report["per_n"]] == [2, 4]
        assert report["ok"]
        assert all(e["consistency"]["passed"] for e in report["per_n"])

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", "--profile", "section2-s17", "--n", "2",
                "--precision", "128"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("error", [
        ArithmeticError("tail order limit exceeded; raise the target radius"),
        ValueError("tail cutoff does not clear the poles")])
    def test_escaping_numerical_error_is_exit_2(self, tmp_path, capsys,
                                                monkeypatch, error):
        # exit 1 means a certificate failed; a routine giving up is not that
        def give_up(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "consistency_check", give_up)
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(S3))
        assert run_cli("run", "--profile", str(path)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("name, spoil, failure", [
        ("verify_form_inclusions",
         lambda rep: InclusionReport(rep.checked, (
             Violation(0, None, Fraction(1, 7), {7: 1}),)),
         "n=2: form inclusions violated"),
        ("consistency_check",
         lambda check: dataclasses.replace(check, passed=False),
         "n=2: series/decomposition mismatch"),
        ("exponent_ledger",
         lambda ledger: dataclasses.replace(ledger,
                                            total=BallReal(0, radius=1)),
         "criterion enclosure straddles zero")])
    def test_failed_check_is_exit_1(self, tmp_path, monkeypatch, name, spoil,
                                    failure):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *args, **kw: spoil(real(*args, **kw)))
        out = tmp_path / "r.json"
        assert run_cli("run", "--profile", "section2-s17", "--n", "2",
                       "--precision", "64", "--out", str(out)) == 1
        report = json.loads(out.read_text())
        assert report["failures"] == [failure] and report["ok"] is False
        entry = report["per_n"][0]
        assert ("integer_form" in entry) == (name != "verify_form_inclusions")

    def test_large_general_n_runs(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--profile", "theorem1", "--n", "6",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["ok"] and report["per_n"][0]["consistency"]["passed"]

    @pytest.mark.parametrize("command", ["run", "asymptotics", "phi-table"])
    @pytest.mark.parametrize("cfg, phrase", MALFORMED)
    def test_invalid_profile_is_usage_error(self, tmp_path, capsys, cfg,
                                            phrase, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, "--profile", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid profile: ") and phrase in err

    @pytest.mark.parametrize("command, bits", [
        ("run", 0), ("asymptotics", 0), ("beta", 0), ("beta", 31)])
    def test_precision_below_floor_is_usage_error(self, capsys, command,
                                                  bits):
        where = ["--index", "2"] if command == "beta" else [
            "--profile", "theorem1"]
        assert run_cli(command, *where, "--precision", str(bits)) == 2
        assert "precision must be >= 32 bits" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        # the table and the factors are exact, so there is nothing to set
        ("phi-table", "--precision"),
        # run has no Monte Carlo; the estimate is numerics.mc_integral
        ("run", "--seed")])
    def test_rejects_flag(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--profile", "theorem1", flag, "64")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestOtherCommands:
    def test_asymptotics_only(self, tmp_path):
        out = tmp_path / "asy.json"
        code = run_cli("asymptotics", "--profile", "section2-s17",
                       "--precision", "128", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["asymptotics"]["verdict"] == "satisfied"
        assert report["asymptotics"]["d_exponent"] == "17"

    def test_phi_table(self, tmp_path):
        out = tmp_path / "phi.json"
        code = run_cli("phi-table", "--profile", "theorem1", "--n", "2",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        pieces = {(p["from"], p["to"]): p["value"]
                  for p in report["carry_minimum"]}
        assert pieces[("7/24", "3/10")] == 8
        assert report["per_n"][0]["phi"] == "13^2*17^4*19^4"

    def test_beta_command(self, capsys):
        assert run_cli("beta", "--index", "2", "--precision", "64") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["beta"]["mid"].startswith("0.915965594")

    @pytest.mark.parametrize("index", [1, 2, 12, 16])
    @pytest.mark.parametrize("precision", [64, 256, 1024])
    def test_beta_prints_only_certified_digits(self, capsys, index, precision):
        assert run_cli("beta", "--index", str(index),
                       "--precision", str(precision)) == 0
        report = json.loads(capsys.readouterr().out)
        digits = report["digits"]
        # the radius is at most 2**(1 - precision): about 0.3 digits a bit
        assert digits >= precision * 3 // 10 - 2
        reference = beta_oracle(index, precision + 200)
        assert report["beta"]["mid"] == mpmath.nstr(reference, digits)

    @pytest.mark.parametrize("index", [1, 2, 5, 12, 16])
    @pytest.mark.parametrize("precision", [64, 256, 1024])
    def test_beta_output_matches_full_powers(self, capsys, monkeypatch,
                                             index, precision):
        argv = ("beta", "--index", str(index), "--precision", str(precision))
        numerics.beta_value.cache_clear()
        assert run_cli(*argv) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(numerics, "_beta_enclosure", full_power_enclosure)
        numerics.beta_value.cache_clear()
        assert run_cli(*argv) == 0
        numerics.beta_value.cache_clear()
        assert capsys.readouterr().out == out

    def test_beta_rejects_zero(self, capsys):
        assert run_cli("beta", "--index", "0") == 2
        assert capsys.readouterr().err == "error: beta index must be >= 1\n"


class TestBenchmarkContract:
    """``perfbench`` patches package functions by the names their callers
    look them up by; a rename in ``src`` must fail here, not in a run."""

    @staticmethod
    def spans():
        path = Path(__file__).resolve().parent.parent / "perfbench/spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_traced_name_resolves(self):
        spans = self.spans()
        for _, sites, _ in spans.TARGETS:
            for mod, attr in sites:
                module = importlib.import_module("betaforms." + mod)
                assert callable(getattr(module, attr)), (mod, attr)
        for mod, attr, _ in spans.CACHES:
            module = importlib.import_module("betaforms." + mod)
            assert hasattr(getattr(module, attr), "cache_info"), (mod, attr)

    def test_run_builds_through_cli_once_per_n(self, tmp_path, monkeypatch):
        # the benchmark marks start-up at the first cli.build_profile_rep call
        seen = []
        build = cli.build_profile_rep

        def counted(profile):
            seen.append(profile.n)
            return build(profile)

        monkeypatch.setattr(cli, "build_profile_rep", counted)
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(S3))
        assert run_cli("run", "--profile", str(path), "--n", "2", "4",
                       "--out", str(tmp_path / "r.json")) == 0
        assert seen == [2, 4]
