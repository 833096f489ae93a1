"""Assembly of the rational linear form from a partial-fraction table, and
exact verification of every divisibility claim.

Resumming the alternating series termwise over the table turns each pole
into a multiple of the alternating odd-power sum, leaving a rational
constant from the finitely many shifted terms.  Pole k carries the sign
(-1)**k in every family.  The function vanishes at nu = -1, ..., -(h_0 - 1),
so the series may start at nu = -m for any 0 <= m < h_0, pole k's inner
sum then starting at k - m, and give the same form.  The table rule takes
m at the centre (k_first + k_last)/2 = (h_0 - 1)/2 of the table's pole
window, which keeps |k - m|, and so the lcm of the tail sums, smallest.

Every integrality claim, phi**-1 d**e v in Z, goes through one kernel,
``_scaled``.  Divisibility violations are data, not exceptions: the
verifiers return structured reports with per-prime deficits so that
deliberately weakened exponents can be probed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._records import frozen
from .numtheory import FactoredInteger, capital_phi, lcm_up_to
from .profiles import Profile
from .rationalfn import PartialFractionTable


def _dot(pairs) -> Fraction:
    """sum of w * x over (Fraction w, int x) pairs, exactly: one integer sum
    over the lcm of the denominators and one division, not a Fraction sum."""
    pairs = list(pairs)
    den = math.lcm(*(w.denominator for w, _ in pairs))
    return Fraction(sum(w.numerator * (den // w.denominator) * x
                        for w, x in pairs), den)


def _tail_correction_sum(i: int, terms) -> Fraction:
    """sum of w * c_o over the pairs (o, w), where c_o rewrites sum_{l>=o}
    as the full alternating sum plus c_o: minus the terms l = 0..o-1 for
    o > 0, plus the terms l = o..-1 for o < 0, each (-1)**l / (l + 1/2)**i.

    Term l = m - 1 is (2/D)**i u_m with u_m = (-1)**(m-1) (D/(2m-1))**i,
    and term l = -m is (-1)**(i+1) times it, where D is the lcm of the odd
    numbers up to 2 max|o| - 1.  So both sides share one running integer
    sum U_m = u_1 + ... + u_m, and the total is
    -(2/D)**i (sum_{o>0} w U_o + (-1)**i sum_{o<0} w U_{-o}).
    """
    terms = [(o, w) for o, w in terms if o]
    if not terms:
        return Fraction(0)
    top = max(abs(o) for o, _ in terms)
    d = math.lcm(*range(1, 2 * top, 2))
    running = [0]
    for m in range(1, top + 1):
        u = (d // (2 * m - 1)) ** i
        running.append(running[-1] + u if m % 2 else running[-1] - u)
    flip = -1 if i % 2 else 1
    total = _dot((w, running[o] if o > 0 else flip * running[-o])
                 for o, w in terms)
    return -total * Fraction(2 ** i, d ** i)


@frozen
class DecompositionResult:
    """Exact coefficients a_0..a_s of r = a_0 + sum a_i beta(i)."""

    profile: Profile
    a: tuple[Fraction, ...]

    @property
    def beta_indices(self) -> list[int]:
        return [i for i in range(2, self.profile.s + 1, 2)]


@frozen
class ArithmeticFactors:
    """The lcm power base d and the prime-power factor, kept factored."""

    d: FactoredInteger
    phi: FactoredInteger
    s: int

    @classmethod
    def for_profile(cls, profile: Profile) -> "ArithmeticFactors":
        return cls(lcm_up_to(profile.d_index), capital_phi(profile), profile.s)


def _assemble(table: PartialFractionTable, s: int,
              origins) -> tuple[Fraction, ...]:
    """a_0..a_s from the table; ``origins`` holds each pole's inner-sum
    start, in the order of ``table.pole_ks``.

    Pole k enters with the sign (-1)**k.  That fixes r_n to match the
    (positive) integral representation r_n = sum_{nu >= 0} (-1)**nu f(nu):
    at index nu, pole k's part is a power of 1/(ell + 1/2) with
    ell = nu + k + j, j = 0 for both families, so (-1)**nu lands on
    (-1)**k (-1)**ell at pole k.
    """
    rows = [row if k % 2 == 0 else [-c for c in row]
            for k, row in zip(table.pole_ks, table.rows)]
    a = [Fraction(0)] * (s + 1)
    for i in range(1, s + 1):
        a[i] = 2 ** i * _dot((row[i - 1], 1) for row in rows)
        a[0] += _tail_correction_sum(i, [
            (origin, row[i - 1]) for origin, row in zip(origins, rows)
            if row[i - 1]])
    return tuple(a)


def beta_coefficients(table: PartialFractionTable, profile: Profile) -> DecompositionResult:
    """Exact linear-form coefficients, each pole's inner sum starting at
    k minus the centre of the table's pole window."""
    if tuple(profile.pole_ks) != table.pole_ks:
        raise ValueError("table poles do not match profile")
    if table.pole_offset != Fraction(1, 2):
        raise ValueError("table poles are not at half-integers")
    centre = (table.pole_ks[0] + table.pole_ks[-1]) // 2
    origins = [k - centre for k in table.pole_ks]
    return DecompositionResult(profile, _assemble(table, profile.s, origins))


# ---------------------------------------------------------------------------
# Divisibility verification
# ---------------------------------------------------------------------------

@frozen
class Violation:
    i: int
    k: int | None
    value: Fraction
    deficits: tuple[tuple[int, int], ...]  # (prime, exponent), ascending

    def __str__(self):
        where = f"i={self.i}" + ("" if self.k is None else f", k={self.k}")
        defs = ", ".join(f"p={p}: short {e}" for p, e in self.deficits)
        return f"[{where}] denominator {self.value.denominator} ({defs})"


@frozen
class InclusionReport:
    checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"all {self.checked} inclusions hold"
        lines = [f"{len(self.violations)} of {self.checked} inclusions fail:"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _prime_deficits(denominator: int) -> tuple[tuple[int, int], ...]:
    out = {}
    d = denominator
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1 if p == 2 else 2
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return tuple(out.items())  # found in ascending order


def _scaled(factors: ArithmeticFactors, pairs) -> list[Fraction]:
    """phi**-1 d**e v for each (e, v) pair, exactly: the one integrality
    kernel.  Each power d**e is taken once, however many pairs share it."""
    d, phi = factors.d.value(), factors.phi.value()
    scales = {e: Fraction(d) ** e / phi for e in {e for e, _ in pairs}}
    return [v * scales[e] for e, v in pairs]


def _inclusion_report(factors: ArithmeticFactors, entries) -> InclusionReport:
    """Check phi**-1 d**(s-i) v in Z for each (i, k, v) entry; zero
    entries count as checked and hold."""
    entries = list(entries)
    nonzero = [t for t in entries if t[2]]
    scaled = _scaled(factors, [(factors.s - i, v) for i, _, v in nonzero])
    return InclusionReport(len(entries), tuple(
        Violation(i, k, v, _prime_deficits(v.denominator))
        for (i, k, _), v in zip(nonzero, scaled) if v.denominator != 1))


def verify_coefficient_inclusions(table: PartialFractionTable,
                                  factors: ArithmeticFactors) -> InclusionReport:
    """Check phi**-1 d**(s-i) a_{i,k} in Z for every table entry."""
    return _inclusion_report(factors, table.entries())


def verify_form_inclusions(result: DecompositionResult,
                           factors: ArithmeticFactors) -> InclusionReport:
    """Check phi**-1 d**(s-i) a_i in Z for i = 0..s.

    Odd i are vacuous (a_i = 0 exactly) and are recorded as passing.
    """
    return _inclusion_report(
        factors, ((i, None, ai) for i, ai in enumerate(result.a)))


class InclusionError(ArithmeticError):
    """An integrality precondition failed where an integer result was required."""


def integer_linear_form(result: DecompositionResult,
                        factors: ArithmeticFactors) -> tuple[tuple[int, ...], str]:
    """Integer tuple (A_0, A_2, ..., A_{s-1}) with
    phi**-1 d**s r = A_0 + sum A_i beta(i), plus a description of the scale.
    """
    s = factors.s
    indices = [0] + result.beta_indices
    scaled = _scaled(factors, [(s, result.a[i]) for i in indices])
    out = []
    for i, v in zip(indices, scaled):
        if v.denominator != 1:
            raise InclusionError(f"a_{i} does not scale to an integer")
        out.append(int(v))
    desc = f"phi^-1 d_{result.profile.d_index}^{s} r_n with phi={factors.phi}"
    return tuple(out), desc
