"""Command-line driver: profile validation, full verification runs, and
machine-readable reports.

``run`` does the whole certificate for each n: the inclusions, the
integer form when they hold, the series-vs-decomposition oracle, and then
the exponent ledger.  Exit codes: 0 every check ran and decided (the
report's ``ok``; whether the criterion holds is ``asymptotics.verdict``,
which may be ``"fails"``), 1 a mathematical verification failed
(inclusion violation, consistency mismatch, or an inconclusive criterion
enclosure), 2 usage / profile / I-O errors, and any ``ArithmeticError``
or ``ValueError`` that escapes a command.

Every profile command reads ``--profile`` (a ``profiles.PRESETS`` name or
a JSON object) through ``_config``, which type-checks each field, rejects
unknown keys, applies the overrides and lists every violation.  Every
command that takes ``--precision`` (all but ``validate`` and the exact
``phi-table``), ``beta`` included, rejects precision below
``MIN_PRECISION``.

Reports are deterministic for fixed inputs: exact rationals serialize as
decimal-free "p/q" strings, balls as {mid, rad, prec} decimal strings.

The command line is read from one table, ``COMMANDS``, not by argparse.
Every certificate is one process, and argparse took about 2.7 ms of each
(1.2 ms to import it and gettext, 1.4 ms to build the six parsers, 0.2 ms
to parse; CPython 3.11) against 6-12.5 ms of arithmetic in a theorem1
certificate.  The table and its reader cost about 0.6 ms to compile when
no bytecode is cached.  ``_parse_args`` reads a command line as that
parser did, which ``tests/test_cli.py`` checks against it.  Files go
through ``open``, not pathlib, whose import takes another 2.7 ms where
the interpreter has not loaded it already.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import __version__
from .asymptotics import exponent_ledger
from .balls import BallReal, floor_log2, nstr
from .decomposition import (ArithmeticFactors, beta_coefficients,
                            integer_linear_form, verify_coefficient_inclusions,
                            verify_form_inclusions)
# r_n_series is unused here: the benchmark traces cli.r_n_series by name.
from .numerics import (beta_value, build_profile_rep, consistency_check,
                       r_n_series)
from .numtheory import capital_phi, carry_min_table
from .profiles import (PRESETS, ProfileError, profile_from_spec,
                       profile_violations)
from .rationalfn import partial_fractions

DEFAULT_PRECISION = 256


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    # tuples come from the preset table, never from JSON
    return (isinstance(value, (list, tuple))
            and all(_is_int(v) for v in value))


# Every profile field: the JSON type it must have, and its test.
_FIELDS = {
    "family": ("a string", lambda v: isinstance(v, str)),
    "s": ("an integer", _is_int),
    "n": ("an integer or a list of integers",
          lambda v: _is_int(v) or _is_int_list(v)),
    "eta": ("a list of integers or null",
            lambda v: v is None or _is_int_list(v)),
    "precision": ("an integer", _is_int),
}

MIN_PRECISION = 32
PRECISION_RULE = f"precision must be >= {MIN_PRECISION} bits"


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _config(args) -> tuple[dict, list[str]]:
    """Load ``--profile``, apply the command-line overrides, and check it.

    Returns the configuration and every violated condition: the field
    types first, then the construction conditions for each n.
    """
    spec = args.profile
    if spec in PRESETS:
        raw = PRESETS[spec]
    else:
        try:
            with open(spec) as file:
                raw = json.load(file)
        except OSError as exc:
            raise CliError(f"cannot read profile {spec!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"profile {spec!r} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            return {}, [f"profile must be a JSON object, "
                        f"got {type(raw).__name__}"]
    cfg = {"precision": DEFAULT_PRECISION, **raw}
    for key in ("n", "precision"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    bad = [f"unknown key {key!r}" for key in cfg if key not in _FIELDS]
    bad += [f"{key} must be {kind}, got {json.dumps(cfg[key])}"
            for key, (kind, test) in _FIELDS.items()
            if key in cfg and not test(cfg[key])]
    if bad:
        return cfg, bad
    n = cfg.get("n", [])
    cfg["n"] = [n] if _is_int(n) else n
    if cfg.get("eta"):
        cfg.setdefault("s", len(cfg["eta"]) - 1)
    if not cfg["n"]:
        bad.append("no n values given")
    # the construction conditions need both; never check a made-up value
    missing = [f"missing key {key!r}" for key in ("family", "s")
               if key not in cfg]
    bad += missing
    for n in [] if missing else cfg["n"]:
        bad += [f"n={n}: {v}" for v in profile_violations(
            cfg["family"], cfg["s"], n, cfg.get("eta"))]
    if cfg["precision"] < MIN_PRECISION:
        bad.append(PRECISION_RULE)
    return cfg, bad


def _valid_config(args) -> dict:
    cfg, bad = _config(args)
    if bad:
        raise CliError("invalid profile: " + "; ".join(bad))
    return cfg


def _ball(b: BallReal, precision: int, digits: int = 40) -> dict:
    return {"mid": nstr(b.mid, digits), "rad": nstr(b.rad, 8),
            "prec": precision}


def _certified_digits(b: BallReal) -> int:
    """The most significant digits (at least 1) that both ends of a ball
    print alike.  Rounding is monotone, so every real in the ball prints
    the same, and no printed digit is finer than the radius."""
    lo, hi = b.lower, b.upper
    if not lo or not hi or (lo < 0) != (hi < 0):
        return 1
    # log10(|mid| / rad) from below, plus 2: a start at or above the count
    bits = floor_log2(abs(b.mid)) - floor_log2(b.rad)
    digits = 2 + bits * 30103 // 100000
    while digits > 1 and nstr(lo, digits) != nstr(hi, digits):
        digits -= 1
    return digits


def _inclusion_json(report) -> dict:
    return {
        "checked": report.checked,
        "ok": report.ok,
        "violations": [
            {"i": v.i, "k": v.k, "denominator": str(v.value.denominator),
             "deficits": {str(p): e for p, e in v.deficits}}
            for v in report.violations
        ],
    }


def _run_one_n(cfg: dict, n: int, failures: list[str]) -> dict:
    precision = cfg["precision"]
    profile = profile_from_spec(cfg, n)
    rep = build_profile_rep(profile)
    table = partial_fractions(rep)
    dec = beta_coefficients(table, profile)
    factors = ArithmeticFactors.for_profile(profile)
    entry: dict = {
        "n": n,
        "a": {str(i): str(ai) for i, ai in enumerate(dec.a) if ai},
        "d": {"index": profile.d_index, "factorization": str(factors.d)},
        "phi": str(factors.phi),
    }
    coeff_rep = verify_coefficient_inclusions(table, factors)
    form_rep = verify_form_inclusions(dec, factors)
    entry["inclusions"] = {
        "coefficients": _inclusion_json(coeff_rep),
        "form": _inclusion_json(form_rep),
    }
    if not coeff_rep.ok:
        failures.append(f"n={n}: coefficient inclusions violated")
    if not form_rep.ok:
        failures.append(f"n={n}: form inclusions violated")
    if coeff_rep.ok and form_rep.ok:
        ints, scale = integer_linear_form(dec, factors)
        entry["integer_form"] = {
            "scale": scale,
            "coefficients": [str(v) for v in ints],
        }
    check = consistency_check(dec, rep, precision)
    entry["r"] = _ball(check.series, precision)
    entry["consistency"] = {"passed": check.passed,
                            "gap_bits": check.gap_bits}
    if not check.passed:
        failures.append(f"n={n}: series/decomposition mismatch")
    return entry


def _asymptotics_json(cfg: dict, failures: list[str]) -> dict:
    precision = cfg["precision"]
    profile = profile_from_spec(cfg, cfg["n"][0])
    ledger = exponent_ledger(profile, precision)
    if ledger.verdict == "inconclusive":
        failures.append("criterion enclosure straddles zero")
    return {
        "r_exponent": _ball(ledger.r_exponent, precision),
        "phi_exponent": _ball(ledger.phi_exponent, precision),
        "d_exponent": str(ledger.d_exponent),
        "total": _ball(ledger.total, precision),
        "verdict": ledger.verdict,
    }


def _write_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w") as file:
                file.write(text)
        except OSError as exc:
            raise CliError(f"cannot write report: {exc}")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    _, bad = _config(args)
    _write_report({"profile": args.profile, "valid": not bad,
                   "violations": bad}, None)
    return 0 if not bad else 2


def _cmd_run(args) -> int:
    cfg = _valid_config(args)
    failures: list[str] = []
    report = {
        "tool": {"name": "betaforms", "version": __version__},
        "profile": cfg,
        "per_n": [_run_one_n(cfg, n, failures) for n in cfg["n"]],
        "asymptotics": _asymptotics_json(cfg, failures),
        "failures": failures,
        "ok": not failures,
    }
    _write_report(report, args.out)
    return 0 if not failures else 1


def _cmd_asymptotics(args) -> int:
    cfg = _valid_config(args)
    failures: list[str] = []
    report = {"profile": args.profile,
              "asymptotics": _asymptotics_json(cfg, failures),
              "failures": failures, "ok": not failures}
    _write_report(report, args.out)
    return 0 if not failures else 1


def _cmd_phi_table(args) -> int:
    cfg = _valid_config(args)
    profile = profile_from_spec(cfg, cfg["n"][0])
    table = carry_min_table(profile.shape)
    report = {
        "profile": args.profile,
        "carry_minimum": [
            {"from": str(lo), "to": str(hi), "value": v}
            for lo, hi, v in table.intervals()
        ],
        "per_n": [
            {"n": n, "phi": str(capital_phi(profile_from_spec(cfg, n)))}
            for n in cfg["n"]
        ],
    }
    _write_report(report, args.out)
    return 0


def _cmd_beta(args) -> int:
    precision = (DEFAULT_PRECISION if args.precision is None
                 else args.precision)
    if precision < MIN_PRECISION:
        raise CliError(PRECISION_RULE)
    value = beta_value(args.index, precision)
    digits = _certified_digits(value)
    report = {"index": args.index, "digits": digits,
              "beta": _ball(value, precision, digits)}
    _write_report(report, args.out)
    return 0


# An option: its flags (the first, less its dashes, names the attribute),
# its type (None: it takes no value), whether it takes a list of one or
# more values, whether it is required, and its help line.
_HELP = (("-h", "--help"), None, False, False, "show this help and exit")
_PROFILE = (("--profile",), str, False, True, "profile JSON path or preset "
            f"name ({', '.join(sorted(PRESETS))})")
_N = (("--n",), int, True, False, "override the profile's n list")
_PRECISION = (("--precision",), int, False, False, "working precision, bits")
_OUT = (("--out",), str, False, False, "write the JSON report here")
_VERSION = (("--version",), None, False, False, "show the version and exit")

# Each command (None: the top level) with its handler, its help line and
# its options besides -h.  Parsing, help and dispatch all read this table.
COMMANDS = {
    None: (None, "Exact linear forms in even beta values: construction, "
           "verification, and asymptotic certificates.", (_VERSION,)),
    "validate": (_cmd_validate, "check profile conditions", (_PROFILE, _N)),
    "run": (_cmd_run, "full verification run + report; exit 0 means every "
            "check ran and decided, and asymptotics.verdict says whether "
            "the criterion holds", (_PROFILE, _N, _PRECISION, _OUT)),
    "asymptotics": (_cmd_asymptotics, "exponent ledger only",
                    (_PROFILE, _N, _PRECISION, _OUT)),
    # the table and the factors are exact: no precision to set
    "phi-table": (_cmd_phi_table, "carry-minimum table and factors",
                  (_PROFILE, _N, _OUT)),
    "beta": (_cmd_beta, "one beta value as a ball",
             ((("--index", "--n"), int, False, True, "which beta value"),
              _PRECISION, _OUT)),
}


def _help(command) -> str:
    """The help of ``command`` (None: the top level); line 1 is the usage."""
    _, text, options = COMMANDS[command]
    usage, rows = [f"usage: betaforms {command or ''}".rstrip()], []
    for flags, kind, many, required, help in (_HELP, *options):
        word = flags[0] if kind is None else (
            f"{flags[0]} {flags[0][2:].upper()}" + " ..." * many)
        usage.append(word if required else f"[{word}]")
        rows.append(f"  {', '.join(flags):<13} {help}")
    if not command:
        usage.append("COMMAND ...")
        rows += [f"  {name:<13} {COMMANDS[name][1]}" for name in COMMANDS
                 if name]
    return "\n".join([" ".join(usage), "", text, "", *rows])


def _fail(command, message: str):
    """A usage error: the usage line and ``message`` on stderr, exit 2."""
    prog = f"betaforms {command or ''}".rstrip()
    usage = _help(command).partition("\n")[0]
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _words(args: list[str], command) -> list:
    """How argparse reads each of ``args`` at the level of ``command``:
    None for a value, else (option, the text after "=" or None), with
    option None for an unknown flag.  A long flag may be cut to a unique
    prefix.  No option reads "--" or a word after it, so they are unknown,
    except that at the top level "--" with words after it is the command."""
    flags = {flag: o for o in (_HELP, *COMMANDS[command][2]) for flag in o[0]}
    words = []
    for k, arg in enumerate(args):
        if arg == "--":
            rest = len(args) - k - 1
            head = None if command is None and rest else (None, None)
            return words + [head] + [(None, None)] * rest
        name, eq, value = arg.partition("=")
        if name not in flags and arg[:2] in flags:  # -hx is -h=x
            name, eq, value = arg[:2], "=", arg[2:]
        if name == "-h" and value:  # -hhx is -h -h -x: x is the value
            value = value.lstrip("h") or None
        hits = [name] if name in flags else [flag for flag in flags if (
            name[:2] == "--" and flag.startswith(name))]
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {arg} could match "
                           + ", ".join(hits))
        if hits:
            words.append((flags[hits[0]], value if eq else None))
        elif arg[:1] != "-" or arg == "-" or " " in arg or (
                arg[-1] != "." and arg[1:].replace(".", "", 1).isdecimal()):
            words.append(None)  # a value, also -, -5, -.5, -1.5 or "-a b"
        else:
            words.append((None, None))
    return words


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` as argparse did: all words of a level are read before
    any acts, an option takes the values after it or after "=", the last
    of a repeated option wins, and an unknown word fails last."""
    command, values, stray, i = None, {}, [], 0
    words = _words(argv, None)
    while i < len(argv):
        word, arg = words[i], argv[i]
        i += 1
        if word is None and command is None:  # the rest is the command's
            if arg not in COMMANDS:
                _fail(None, f"invalid command {arg!r} (choose from "
                            f"{', '.join(filter(None, COMMANDS))})")
            command, words[i:] = arg, _words(argv[i:], arg)
            values = {o[0][0][2:]: None for o in COMMANDS[command][2]}
        elif word is None or word[0] is None:
            stray.append(arg)
        else:
            (flags, kind, many, _, _), value = word
            where = f"argument {'/'.join(flags)}: "
            if kind is None and value is not None:
                _fail(command, f"{where}ignored explicit argument {value!r}")
            if kind is None:
                print(_help(command) if "-h" in flags else __version__)
                raise SystemExit(0)
            end = i
            while value is None and end < len(argv) and words[end] is None \
                    and (many or end == i):
                end += 1
            texts, i = argv[i:end] or [value], end
            if texts == [None]:
                _fail(command, where + "expected a value")
            try:
                got = [kind(text) for text in texts]
            except ValueError as exc:
                _fail(command, where + str(exc))
            values[flags[0][2:]] = got if many else got[0]
    missing = ["command"] if command is None else [
        "/".join(o[0]) for o in COMMANDS[command][2]
        if o[3] and values[o[0][0][2:]] is None]
    if missing:
        _fail(command, "the following arguments are required: "
                       + ", ".join(missing))
    if stray:
        _fail(None, "unrecognized arguments: " + " ".join(stray))
    return SimpleNamespace(command=command, func=COMMANDS[command][0],
                           **values)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # CPython caps int-to-decimal conversion (4300 digits by default, no
    # cap before 3.10.7), and an a_i passes it from theorem1 n = 48: lift
    # the cap while the command runs, and give the caller its own back
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ProfileError as exc:
        print(f"error: invalid profile: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        # a numerical routine gave up (e.g. the tail order limit): not a
        # mathematical failure of the certificate, so not exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
