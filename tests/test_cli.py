import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from betaforms import cli, numerics
from betaforms.asymptotics import ExponentLedger
from betaforms.balls import BallReal, floor_log2
from betaforms.cli import main
from betaforms.decomposition import InclusionReport, Violation
from betaforms.numerics import ConsistencyReport, build_profile_rep
from betaforms.profiles import preset
from betaforms.rationalfn import partial_fractions

from tests.reference import build_parser
from tests.test_balls import run_fresh
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
             Violation(0, None, Fraction(1, 7), ((7, 1),)),)),
         "n=2: form inclusions violated"),
        ("consistency_check",
         lambda check: ConsistencyReport(check.profile, check.series,
                                         check.decomposition, False,
                                         check.gap_bits),
         "n=2: series/decomposition mismatch"),
        ("exponent_ledger",
         lambda ledger: ExponentLedger(ledger.profile, ledger.r_exponent,
                                       ledger.d_exponent, ledger.phi_exponent,
                                       BallReal(0, radius=1)),
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
        if name == "verify_form_inclusions":
            violation, = entry["inclusions"]["form"]["violations"]
            assert violation["deficits"] == {"7": 1}

    def test_theorem1_n48_writes_a_past_the_digit_cap(self, tmp_path,
                                                      monkeypatch):
        # from n = 48 an a_i has more digits than CPython's default cap on
        # int-to-str (4300); the caller keeps its own cap.  The two sides
        # of the oracle agree to 256 bits relative to r ~ 2.6e-2117, with
        # a decomposition ball that excludes zero
        checks, check = [], cli.consistency_check

        def recording(*args):
            checks.append(check(*args))
            return checks[-1]

        monkeypatch.setattr(cli, "consistency_check", recording)
        out = tmp_path / "r.json"
        cap = sys.get_int_max_str_digits()
        assert run_cli("run", "--profile", "theorem1", "--n", "48",
                       "--out", str(out)) == 0
        assert sys.get_int_max_str_digits() == cap
        report = json.loads(out.read_text())
        entry = report["per_n"][0]
        assert report["ok"] and entry["consistency"]["passed"]
        r = Fraction(entry["r"]["mid"])
        assert entry["consistency"]["gap_bits"] + floor_log2(r) >= 256
        assert not checks[0].decomposition.contains_zero()
        a = report["per_n"][0]["a"].values()
        assert max(len(part.lstrip("-")) for ai in a
                   for part in ai.split("/")) > 4300

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
        # run has no Monte Carlo; the estimate is a test reference
        ("run", "--seed")])
    def test_rejects_flag(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--profile", "theorem1", flag, "64")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


COMMAND_NAMES = [name for name in cli.COMMANDS if name]
# every flag and each prefix of it past "--" (--p, --pr, ..., --profile),
# -h, a flag that no command has, "--" (no option reads it or what follows
# it) and the clusters -hh (-h twice) and -hx (-h, then a flag no level has)
FLAGS = sorted({flag[:end] for flag in ("--profile", "--n", "--precision",
                                         "--out", "--index", "--help",
                                         "--version")
                for end in range(3, len(flag) + 1)}) + [
    "-h", "--seed", "--", "-hh", "-hx"]
VALUES = st.one_of(st.integers(-20, 300).map(str), st.sampled_from(
    ["theorem1", "x", "1.5", "-1.5", "-.5", "-5.", "", "-", "2 4", "-x y"]))
WORD = st.one_of(st.sampled_from(COMMAND_NAMES + FLAGS), VALUES,
                 st.builds("{}={}".format, st.sampled_from(FLAGS), VALUES))


def option_pairs(command):
    """``command`` and pairs of one of its flags (or a prefix of one) and
    an int: mostly lines that parse, often with a repeated option."""
    flags = sorted({flag[:end] for option in cli.COMMANDS[command][2]
                    for flag in option[0] for end in range(3, len(flag) + 1)})
    pairs = st.lists(st.tuples(st.sampled_from(flags),
                               st.integers(-20, 300).map(str)), max_size=6)
    return pairs.map(lambda pairs: [command, *(w for pair in pairs
                                               for w in pair)])


ARGV = st.one_of(st.lists(WORD, max_size=3), st.builds(
    lambda command, rest: [command, *rest], st.sampled_from(COMMAND_NAMES),
    st.lists(WORD, max_size=8)),
    st.sampled_from(COMMAND_NAMES).flatmap(option_pairs))

# one command line per usage error
USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["frobnicate", "--profile", "theorem1"],
    "unknown flag": ["run", "--profile", "theorem1", "--seed", "1"],
    "unknown flag before the command": ["--seed", "run", "--profile", "x"],
    "stray word": ["run", "--profile", "theorem1", "extra"],
    "ambiguous prefix": ["run", "--p", "theorem1"],
    "missing value": ["run", "--profile"],
    "missing list": ["run", "--profile", "theorem1", "--n", "--out", "f"],
    "non-int value": ["beta", "--index", "two"],
    "non-int in a list": ["run", "--profile", "theorem1", "--n", "2", "4.0"],
    "missing required option": ["beta", "--precision", "64"],
    "value given to a flag": ["run", "--help=yes"],
}


def parse_outcome(parse, argv) -> tuple:
    """``("ok", attributes)``, or ``("exit", code)`` with what was written
    to stderr (exit 2) or stdout (exit 0)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("ok", vars(parse(list(argv)))), ""
        except SystemExit as exc:
            return ("exit", exc.code), (err if exc.code else out).getvalue()


class TestParser:
    """``cli._parse_args`` reads every command line as the argparse parser
    it replaced (``tests.reference.build_parser``) did."""

    @settings(max_examples=300, deadline=None)
    @given(argv=ARGV)
    @example(argv=["run", "--prof=theorem1", "--n", "2", "-4", "--n", "6"])
    @example(argv=["beta", "--n", "3", "--i", "5", "--pre", "64"])
    @example(argv=["run", "--pro", "a", "--profile", "b", "--o", "f"])
    @example(argv=["validate", "--p", "theorem1", "--n=4"])
    @example(argv=["--seed", "run", "-h"])
    @example(argv=["run", "-h", "--p"])
    @example(argv=["run", "-h=x"])
    @example(argv=["--vers"])
    @example(argv=["run", "--profile", "-x y", "--precision", "-64"])
    @example(argv=["run", "--profile", "theorem1", "--", "x"])
    @example(argv=["run", "-hh"])
    @example(argv=["run", "-hx"])
    def test_same_reading_as_argparse(self, argv):
        expected, _ = parse_outcome(build_parser().parse_args, argv)
        got, said = parse_outcome(cli._parse_args, argv)
        assert got == expected, argv
        # help or the version on stdout, an error on stderr
        assert got[0] == "ok" or said and (got[1] == 0 or ": error: " in said)

    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_exits_2_with_a_message(self, argv):
        expected, _ = parse_outcome(build_parser().parse_args, argv)
        assert expected == ("exit", 2)
        got, said = parse_outcome(cli.main, argv)
        assert got == ("exit", 2)
        message = said.splitlines()[-1]
        assert message.startswith("betaforms") and ": error: " in message

    @pytest.mark.parametrize("argv, message", [
        (["run", "--profile", "theorem1", "--"], "unrecognized arguments: --"),
        (["run", "--profile", "theorem1", "--", "x"],
         "unrecognized arguments: -- x"),
        (["run", "-hhx"], "ignored explicit argument 'x'")])
    def test_message_names_only_what_was_typed(self, argv, message):
        got, said = parse_outcome(cli.main, argv)
        assert got == ("exit", 2) and said.splitlines()[-1].endswith(message)

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["run", "--help"], ["run", "-hh"], ["-hh"],
        *([name, "-h"] for name in COMMAND_NAMES)])
    def test_help_exits_0(self, argv):
        got, said = parse_outcome(cli.main, argv)
        assert got == ("exit", 0)
        usage, _, text, _, *rows = said.splitlines()
        command = argv[0] if argv[0] in cli.COMMANDS else None
        _, help, options = cli.COMMANDS[command]
        assert usage.startswith(f"usage: betaforms {command or ''}".strip())
        assert text == help and len(rows) == 1 + len(options) + (
            0 if command else len(COMMAND_NAMES))

    def test_version(self):
        assert parse_outcome(cli.main, ["--version"]) == (
            ("exit", 0), f"{cli.__version__}\n")

    def test_bare_command_line_exits_2_without_a_traceback(self):
        root = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "betaforms.cli"],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": root})
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.splitlines()[-1] == (
            "betaforms: error: the following arguments are required: command")

    def test_run_loads_no_parser_pathlib_or_record_generator(self,
                                                            tmp_path):
        """Neither importing ``betaforms.cli`` nor a theorem1 run loads
        ``argparse``, its ``gettext`` and ``locale``, ``pathlib``,
        ``dataclasses`` or ``inspect``: measured against what the
        interpreter had loaded before, without the site hook, which on
        some hosts loads some of them."""
        run_fresh(tmp_path,
                  "before = set(sys.modules)",
                  "new = lambda: {'argparse', 'gettext', 'locale', 'pathlib',"
                  " 'dataclasses', 'inspect'} & (set(sys.modules) - before)",
                  "import betaforms.cli",
                  "assert not new(), ('loaded by the import', new())",
                  "run_theorem1()",
                  "assert not new(), ('loaded by the run', new())",
                  site=False)


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
        monkeypatch.setattr(numerics, "_beta_enclosures", lambda indices, p: [
            full_power_enclosure(i, p) for i in indices])
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
    def load(name: str):
        """``perfbench/NAME.py`` as the module ``perfbench_NAME``."""
        path = Path(__file__).resolve().parent.parent / f"perfbench/{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @classmethod
    def spans(cls):
        return cls.load("spans")

    def test_exact_forms_library_path_passes_the_gate(self, monkeypatch):
        # the worker's own library calls, not entries built from the
        # frozen reference; the worker imports spans by its bare name
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "perfbench"))
        worker, gate, spans = (self.load(name)
                               for name in ("worker", "gate", "spans"))
        entries = worker._exact_forms([2, 4], lambda: None)
        problems = gate.check_exact_forms(
            entries, gate.load_reference("theorem1"), [2, 4])
        assert problems == {"n=2": [], "n=4": []}
        tracer = SimpleNamespace(counts=Counter())
        spans._table_counts(tracer, partial_fractions(
            build_profile_rep(preset("theorem1", 2))))
        assert tracer.counts == {"rationalfn.table_entries": 299,
                                 "rationalfn.max_coeff_bits": 447}

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


class TestPackageSurface:
    """Every top-level public function and class in ``src/betaforms``, and
    every public method of a public class (dunders are exempt), has a
    caller outside ``tests/``; what only the tests call belongs in
    ``tests/reference.py``.

    A use is a name or attribute read in ``src`` outside the definition's
    own body and outside ``__init__.py`` (re-exports are not uses), in
    ``demos/``, ``tools/`` or ``perfbench/``, or a site that
    ``perfbench/spans.py`` traces by name.  Names are matched, not types,
    so a method counts as used where any attribute of its name is read.
    A use inside an unused definition, or inside a method of an unused
    class, does not count, so a dead chain is found whole."""

    ROOT = Path(__file__).resolve().parent.parent

    @staticmethod
    def reads(tree, owner):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id, owner.get(node, ())
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner.get(node, ())

    def test_every_public_definition_has_a_caller_outside_tests(self):
        defs, uses = {}, []
        for path in sorted((self.ROOT / "src/betaforms").glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            # node -> the keys of the definitions it lies in, outermost first
            owner = {}
            for top in tree.body:
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                    key = f"{path.stem}.{top.name}"
                    owner.update(dict.fromkeys(ast.walk(top), (key,)))
                    if top.name.startswith("_"):
                        continue
                    defs[key] = top.name
                    for method in (top.body if isinstance(top, ast.ClassDef)
                                   else ()):
                        if (isinstance(method, ast.FunctionDef)
                                and not method.name.startswith("_")):
                            inner = f"{key}.{method.name}"
                            defs[inner] = method.name
                            owner.update(dict.fromkeys(ast.walk(method),
                                                       (key, inner)))
            uses += self.reads(tree, owner)
        for folder in ("demos", "tools", "perfbench"):
            for path in sorted((self.ROOT / folder).glob("*.py")):
                uses += self.reads(ast.parse(path.read_text()), {})
        spans = TestBenchmarkContract.spans()
        uses += [(attr, ()) for _, sites, _ in spans.TARGETS
                 for _, attr in sites]
        uses += [(attr, ()) for _, attr, _ in spans.CACHES]
        assert {"numerics.r_n_series", "profiles.Profile",
                "balls.BallReal.overlaps"} <= defs.keys()
        unused = set()
        while new := {key for key, name in defs.items() if key not in unused
                      and not any(n == name and key not in at
                                  and unused.isdisjoint(at)
                                  for n, at in uses)}:
            unused |= new
        assert not unused, "only tests use: " + ", ".join(sorted(unused))


class TestLayering:
    """The exact certificate is built with no ball arithmetic: ``profiles``,
    ``numtheory``, ``rationalfn`` and ``decomposition`` import nothing
    from ``balls``, ``numerics`` or ``asymptotics``.  The private kernels
    of ``balls`` stay private: no other module imports a ``_`` name from
    it."""

    EXACT = {"profiles", "numtheory", "rationalfn", "decomposition"}
    BALL = {"balls", "numerics", "asymptotics"}

    @staticmethod
    def imports(tree):
        """(submodule, imported names) for each import of a ``betaforms``
        submodule; ``from . import x`` imports the submodule x whole."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from ((alias.name.split(".")[1], ()) for alias in
                            node.names if alias.name.startswith("betaforms."))
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(["betaforms"] * bool(node.level)
                                + [node.module] * bool(node.module))
                names = tuple(alias.name for alias in node.names)
                if base == "betaforms":
                    yield from ((name, ()) for name in names)
                elif base.startswith("betaforms."):
                    yield base.split(".")[1], names

    def test_exact_layer_imports_no_ball_arithmetic(self):
        found = []
        for path in sorted((TestPackageSurface.ROOT / "src/betaforms").glob(
                "*.py")):
            for module, names in self.imports(ast.parse(path.read_text())):
                if path.stem in self.EXACT and module in self.BALL:
                    found.append(f"{path.stem} imports {module}")
                if module == "balls" and path.stem != "balls":
                    found += [f"{path.stem} imports balls.{name}"
                              for name in names if name.startswith("_")]
        assert not found, found
