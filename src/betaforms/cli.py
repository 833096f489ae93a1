"""Command-line driver: profile validation, full verification runs, and
machine-readable reports.

``run`` does the whole certificate for each n: the inclusions, the
integer form when they hold, the series-vs-decomposition oracle, and then
the exponent ledger.  Exit codes: 0 every check passes, 1 a mathematical
verification failed (inclusion violation, consistency mismatch, or an
inconclusive criterion enclosure), 2 usage / profile / I-O errors, and any
``ArithmeticError`` or ``ValueError`` that escapes a command.

Every profile command reads ``--profile`` (a ``profiles.PRESETS`` name or
a JSON object) through ``_config``, which type-checks each field, rejects
unknown keys, applies the overrides and lists every violation.  Every
command that takes ``--precision`` (all but ``validate`` and the exact
``phi-table``), ``beta`` included, rejects precision below
``MIN_PRECISION``.

Reports are deterministic for fixed inputs: exact rationals serialize as
decimal-free "p/q" strings, balls as {mid, rad, prec} decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .asymptotics import exponent_ledger
from .balls import BallReal, floor_log2, nstr
from .decomposition import (ArithmeticFactors, beta_coefficients,
                            integer_linear_form, verify_coefficient_inclusions,
                            verify_form_inclusions)
# r_n_series is unused here: the benchmark traces cli.r_n_series by name.
from .numerics import (beta_value, build_profile_rep, consistency_check,
                       r_n_series)
from .numtheory import carry_min_table
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
            raw = json.loads(Path(spec).read_text())
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
             "deficits": {str(p): e for p, e in sorted(v.deficits.items())}}
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
    check = consistency_check(profile, precision, rep=rep, table=table,
                              decomposition=dec)
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
            Path(out).write_text(text)
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
    table = carry_min_table(profile.carry_spec)
    report = {
        "profile": args.profile,
        "carry_minimum": [
            {"from": str(lo), "to": str(hi), "value": v}
            for lo, hi, v in table.intervals()
        ],
        "per_n": [
            {"n": n, "phi": str(ArithmeticFactors.for_profile(
                profile_from_spec(cfg, n)).phi)}
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betaforms",
        description="Exact linear forms in even beta values: construction, "
                    "verification, and asymptotic certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, profile=True, precision=True):
        if profile:
            p.add_argument("--profile", required=True,
                           help="profile JSON path or preset name "
                                f"({', '.join(sorted(PRESETS))})")
            p.add_argument("--n", nargs="+", type=int,
                           help="override the profile's n list")
        if precision:
            p.add_argument("--precision", type=int,
                           help="working precision, bits")
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("validate", help="check profile conditions")
    p.add_argument("--profile", required=True)
    p.add_argument("--n", nargs="+", type=int)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="full verification run + report")
    add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("asymptotics", help="exponent ledger only")
    add_common(p)
    p.set_defaults(func=_cmd_asymptotics)

    # the table and the factors are exact: no precision to set
    p = sub.add_parser("phi-table", help="carry-minimum table and factors")
    add_common(p, precision=False)
    p.set_defaults(func=_cmd_phi_table)

    p = sub.add_parser("beta", help="one beta value as a ball")
    p.add_argument("--index", "--n", dest="index", type=int, required=True)
    add_common(p, profile=False)
    p.set_defaults(func=_cmd_beta)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
