"""Per-layer tracing from outside the package.

``installed(tracer)`` replaces each public function listed in ``TARGETS``
at the name its caller looks it up by (``cli`` and ``numerics`` import
names directly, so a module attribute is patched wherever a caller
resolves it) and restores the originals on exit.  Spans stay in memory
with their parent links; ``Tracer.summary`` turns them into the per-layer
metrics and ``Tracer.write`` writes them out as JSON lines.

Nothing under ``src/`` is changed.  Private internals (the remainder
bound search, ``_taylor_interval``, ``_min_over_y``, ``_assemble``) are
not visible from outside and count toward their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter


def _tail_counts(tracer, ev) -> None:
    counts = tracer.counts
    counts["numerics.tail_calls"] += 1
    counts["numerics.direct_terms"] += ev.direct_terms
    counts["numerics.tail_order"] += ev.tail_order


def _consistency_counts(tracer, report) -> None:
    counts = tracer.counts
    counts["numerics.consistency_checks"] += 1
    gap = report.gap_bits
    old = counts.get("numerics.min_gap_bits")
    counts["numerics.min_gap_bits"] = gap if old is None else min(old, gap)


def _table_counts(tracer, table) -> None:
    counts = tracer.counts
    bits = 0
    for _, _, c in table.entries():
        counts["rationalfn.table_entries"] += 1
        bits = max(bits, abs(c.numerator).bit_length(),
                   c.denominator.bit_length())
    counts["rationalfn.max_coeff_bits"] = max(
        counts["rationalfn.max_coeff_bits"], bits)


def _inclusion_counts(tracer, report) -> None:
    counts = tracer.counts
    counts["decomposition.inclusions_checked"] += report.checked
    counts["decomposition.violations"] += len(report.violations)


def _carry_counts(tracer, table) -> None:
    # a cache hit returns a table already counted
    if id(table) not in tracer.tables_seen:
        tracer.tables_seen.add(id(table))
        tracer.counts["numtheory.carry_table_pieces"] += len(table.values)


def _count(key):
    def add(tracer, _result) -> None:
        tracer.counts[key] += 1
    return add


# (span name, [(module, attribute), ...], counter).  A span is named after
# the layer it measures; every (module, attribute) is a name some caller
# looks the function up by.
TARGETS = (
    ("numerics.consistency_check", [("cli", "consistency_check")],
     _consistency_counts),
    ("numerics.r_n_series", [("cli", "r_n_series"), ("numerics", "r_n_series")],
     _count("numerics.r_n_series_calls")),
    ("numerics.tail", [("numerics", "alternating_series_tail")], _tail_counts),
    ("numerics.decomposition_value", [("numerics", "decomposition_value")],
     None),
    ("numerics.beta_value", [("cli", "beta_value"), ("numerics", "beta_value")],
     None),
    ("series.divide_trunc", [("numerics", "divide_trunc")],
     _count("series.divide_trunc_calls")),
    ("series.euler_numbers", [("numerics", "euler_numbers_at_zero")], None),
    ("numtheory.carry_min_table", [("cli", "carry_min_table"),
                                   ("numtheory", "carry_min_table")],
     _carry_counts),
    ("numtheory.capital_phi", [("decomposition", "capital_phi")], None),
    ("numtheory.lcm_up_to", [("decomposition", "lcm_up_to")], None),
    ("numtheory.phi_exponent", [("asymptotics", "phi_exponent")], None),
    ("rationalfn.build", [("numerics", "build_general"),
                          ("numerics", "build_section2")], None),
    ("rationalfn.partial_fractions", [("cli", "partial_fractions"),
                                      ("numerics", "partial_fractions"),
                                      ("rationalfn", "partial_fractions")],
     _table_counts),
    ("decomposition.beta_coefficients", [("cli", "beta_coefficients"),
                                         ("numerics", "beta_coefficients"),
                                         ("decomposition", "beta_coefficients")],
     None),
    ("decomposition.inclusions", [
        ("cli", "verify_coefficient_inclusions"),
        ("cli", "verify_form_inclusions"),
        ("decomposition", "verify_coefficient_inclusions"),
        ("decomposition", "verify_form_inclusions")], _inclusion_counts),
    ("asymptotics.exponent_ledger", [("cli", "exponent_ledger")], None),
    ("asymptotics.r_exponent", [("asymptotics", "r_exponent")], None),
    ("asymptotics.lemma3_solve", [("asymptotics", "lemma3_solve")], None),
)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# lru_cache objects whose cache_info() gives hit and miss counts.
CACHES = (("numtheory", "carry_min_table", "numtheory.carry_table"),
          ("numerics", "beta_value", "numerics.beta_cache"))


class Tracer:
    """In-memory span recorder for one single-threaded unit of work."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.counts: Counter = Counter()
        self.tables_seen: set[int] = set()
        self.overhead_s = 0.0

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            span = {"id": len(self.spans), "name": name,
                    "parent": parent["id"] if parent else None,
                    "child_s": 0.0}
            self.spans.append(span)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["start"], span["end"] = start, end
                if parent is not None:
                    parent["child_s"] += end - start
            if counter is not None:
                counter(self, result)
            self.overhead_s += time.perf_counter() - entered - (end - start)
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        """Span name -> summed (duration - duration of direct children)."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"] - span["child_s"]
        return out

    def summary(self) -> dict:
        return {"self_s": self.self_times(), "counts": dict(self.counts),
                "overhead_s": self.overhead_s}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every target name with a tracing wrapper; restore on exit.

    Cache hit and miss counts are read from the original ``lru_cache``
    objects, as differences over the block.
    """
    t0 = time.perf_counter()

    def module(name):
        return importlib.import_module("betaforms." + name)

    caches = [(getattr(module(m), attr), key) for m, attr, key in CACHES]
    before = [fn.cache_info() for fn, _ in caches]
    saved = []
    for name, sites, counter in TARGETS:
        for mod, attr in sites:
            original = getattr(module(mod), attr)
            saved.append((module(mod), attr, original))
            setattr(module(mod), attr, tracer.wrap(name, original, counter))
    tracer.overhead_s += time.perf_counter() - t0
    try:
        yield tracer
    finally:
        t1 = time.perf_counter()
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
        for (fn, key), old in zip(caches, before):
            new = fn.cache_info()
            tracer.counts[key + "_hits"] += new.hits - old.hits
            tracer.counts[key + "_misses"] += new.misses - old.misses
        tracer.overhead_s += time.perf_counter() - t1
