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

The table's entries are integers over denominators known in factored
form, so assembly sums each column over the lcm of its denominators,
taken from their exponents, and reduces only the s + 1 values a_i.
Every profile's table is mirrored, a_{i,c-k} = (-1)**(i+gap) a_{i,k}
(``PartialFractionTable.reflection``), so its poles fall into orbits
{k, c - k}: assembly forms one product of weight and row per orbit and
column, the mirror's value being that product times (-1)**(c+i+gap), and
the coefficient inclusions run one integrality check per orbit.  The
middle pole, and every pole of a table without a reflection, is an orbit
of one.  The tail sums share one lcm D and one list of powers
(D/(2m - 1))**i, raised by one factor per column.
Every integrality claim, phi**-1 d**e v in Z, goes through one kernel,
``_scaled``, which decides it from exponents and touches the numerator
only at the primes where d**e cannot cover the denominator and phi.
Divisibility violations are data, not exceptions: the verifiers return
structured reports with per-prime deficits, each violation's value
reduced, so that deliberately weakened exponents can be probed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from ._records import frozen
from .numtheory import FactoredInteger, capital_phi, lcm_up_to, valuation
from .profiles import Profile
from .rationalfn import PartialFractionTable


def _tail_coefficients(i: int, origins, powers) -> list[int]:
    """e_o per origin o with c_o = e_o (2/D)**i, where c_o rewrites
    sum_{l>=o} as the full alternating sum plus c_o: minus the terms
    l = 0..o-1 for o > 0, plus the terms l = o..-1 for o < 0, each
    (-1)**l / (l + 1/2)**i.  ``powers`` holds u_m = (-1)**(m-1) (D/(2m-1))**i
    for m = 1..max|o|, D the lcm of the odd numbers up to 2 max|o| - 1.

    Term l = m - 1 is (2/D)**i u_m, and term l = -m is (-1)**(i+1) times
    it.  So both sides share one running integer sum U_m = u_1 + ... + u_m
    (U_0 = 0): e_o = -U_o for o >= 0 and (-1)**(i+1) U_-o for o < 0.
    """
    running = [0, *accumulate(powers)]
    flip = 1 if i % 2 else -1
    return [-running[o] if o > 0 else flip * running[-o] for o in origins]


@frozen
class DecompositionResult:
    """Exact coefficients a_0..a_s of r = a_0 + sum a_i beta(i), and each
    a_i's denominator as ascending (prime, exponent) pairs."""

    profile: Profile
    a: tuple[Fraction, ...]
    denominators: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def beta_indices(self) -> list[int]:
        return list(range(2, self.profile.s + 1, 2))


@frozen
class ArithmeticFactors:
    """The lcm power base d and the prime-power factor, kept factored."""

    d: FactoredInteger
    phi: FactoredInteger
    s: int

    @classmethod
    def for_profile(cls, profile: Profile) -> "ArithmeticFactors":
        return cls(lcm_up_to(profile.d_index), capital_phi(profile), profile.s)


def _factored(den: int, primes) -> tuple[tuple[int, int], ...]:
    """den > 0 as ascending (prime, exponent) pairs over ``primes``."""
    out = []
    for p in primes:
        if den % p == 0:
            out.append((p, v := valuation(den, p)))
            den //= p ** v
    if den != 1:
        raise ArithmeticError(f"{den} has a prime factor off the table's")
    return tuple(out)


def _assemble(table: PartialFractionTable, s: int,
              origins) -> tuple[Fraction, ...]:
    """a_0..a_s from the table; ``origins`` holds each pole's inner-sum
    start, in the order of ``table.pole_ks``.

    Pole k enters with the sign (-1)**k.  That fixes r_n to match the
    (positive) integral representation r_n = sum_{nu >= 0} (-1)**nu f(nu):
    at index nu, pole k's part is a power of 1/(ell + 1/2) with
    ell = nu + k + j, j = 0 for both families, so (-1)**nu lands on
    (-1)**k (-1)**ell at pole k.

    Column i of the table is one integer sum over C L**(top - i) 2**i,
    with C the lcm of the cofactors (from their exponents) and top the
    largest order: pole k's rows enter with the integer weight
    (-1)**k scale_k (C / cofactor_k) L**(top - order_k), and a_i's factor
    2**i cancels the 2**i.  Poles k and c - k of a reflected table share
    the scale, cofactor and order, so the weight of c - k is (-1)**c times
    that of k, and its column value is (-1)**(c+i+gap) times the product
    of k's weight and row: one product per orbit and column.  The tail
    corrections meet over one denominator D**top too, D and the powers
    (D/(2m - 1))**i built once for all columns, so the s + 1 values a_i
    are the only fractions reduced.
    """
    a = [Fraction(0)] * (s + 1)
    top = max(table.orders)
    powers = table.lcm_powers
    lcm = math.prod(p ** -v for p, v in zip(
        table.primes, map(min, zip(*table.valuations))) if v < 0)
    quotients = {c: lcm // c for c in set(table.cofactors)}
    weights = [(-scale if k % 2 else scale) * quotients[cofactor]
               * powers[top - order]
               for k, scale, cofactor, order in zip(
                   table.pole_ks, table.scales, table.cofactors, table.orders)]
    c, gap = table.reflection or (0, 0)
    extent = max(map(abs, origins))
    d = math.lcm(*range(1, 2 * extent, 2))
    bases = [d // (2 * m + 1) for m in range(extent)]
    odd_powers = [1, -1] * extent  # (-1)**(m-1), cut to extent by zip
    tail_num = 0
    for i in range(1, top + 1):
        odd_powers = [p * b for p, b in zip(odd_powers, bases)]
        tail = _tail_coefficients(i, origins, odd_powers)
        sign = -1 if (c + i + gap) % 2 else 1
        column = u = 0
        for idx, mirror in table.orbits:
            v = weights[idx] * table.rows[idx][i - 1]
            twin = sign * (mirror != idx)
            column += v * (1 + twin)
            u += v * (tail[idx] + twin * tail[mirror])
        a[i] = Fraction(column, lcm * powers[top - i])
        # u / (d**i lcm L**(top - i)), over the denominator at i = top
        tail_num += u * d ** (top - i) * powers[i - 1] << top
    a[0] = Fraction(tail_num, d ** top * lcm * powers[top - 1] << top)
    return tuple(a)


def beta_coefficients(table: PartialFractionTable, profile: Profile) -> DecompositionResult:
    """Exact linear-form coefficients, each pole's inner sum starting at
    k minus the centre of the table's pole window.  The denominators' primes
    (of C, L and d in ``_assemble``) are among the table's primes."""
    if tuple(profile.pole_ks) != table.pole_ks:
        raise ValueError("table poles do not match profile")
    if table.pole_offset != Fraction(1, 2):
        raise ValueError("table poles are not at half-integers")
    centre = (table.pole_ks[0] + table.pole_ks[-1]) // 2
    a = _assemble(table, profile.s, [k - centre for k in table.pole_ks])
    return DecompositionResult(profile, a, tuple(
        _factored(x.denominator, table.primes) for x in a))


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


@lru_cache(maxsize=16)
def _prime_groups(factors: ArithmeticFactors, primes: tuple[int, ...],
                  lcm: FactoredInteger | None):
    """The primes of ``primes``, d, phi and ``lcm``, grouped by
    (L_p, d_p, p = 2); each member is (its place in ``primes``, or
    len(primes) if absent, p, phi_p).  d's primes count because an
    exponent e < 0 puts them in the denominator."""
    d, phi = dict(factors.d.factors), dict(factors.phi.factors)
    lcm = dict(lcm.factors) if lcm else {}
    place = {p: k for k, p in enumerate(primes)}
    groups: dict[tuple[int, int, bool], list] = {}
    for p in sorted(place.keys() | d.keys() | phi.keys() | lcm.keys()):
        groups.setdefault((lcm.get(p, 0), d.get(p, 0), p == 2), []).append(
            (place.get(p, len(primes)), p, phi.get(p, 0)))
    return tuple(groups.items())


def _scaled(factors: ArithmeticFactors, primes: tuple[int, ...], known,
            lcm: FactoredInteger | None,
            items) -> list[tuple[tuple[int, int], ...]]:
    """For each item (e, j, x, n): the primes p at which
    phi**-1 d**e V n / (L**j 2**x) misses Z, each with how short it falls,
    ascending; empty where it is an integer.  The one integrality kernel.

    V is a rational known by its exponents ``known`` at ``primes`` (no
    other prime divides its denominator), and L is ``lcm`` (None for 1).
    Item by item n must cover the exponent
    t_p = phi_p + j L_p + x [p = 2] - e d_p - V_p at each prime; n is
    touched only where t_p > 0, by one remainder n mod prod p**t_p, and is
    factored further only where that fails.  t_p depends on the item only
    through (L_p, d_p, p = 2), so the primes are grouped by that and each
    group's part of the modulus is formed once per value.
    """
    exps = [*known, 0]
    moduli = [1] * len(items)
    needs: list[list] = [[] for _ in items]
    for (lp, dp, two), members in _prime_groups(factors, primes, lcm):
        shifts = [j * lp - e * dp + (x if two else 0) for e, j, x, _ in items]
        most = max(shifts, default=0)
        live = [(p, c) for k, p, f in members if (c := f - exps[k]) + most > 0]
        if not live:
            continue
        parts = {}
        for idx, v in enumerate(shifts):
            if v not in parts:
                need = [(p, c + v) for p, c in live if c + v > 0]
                parts[v] = need, math.prod(p ** t for p, t in need)
            need, modulus = parts[v]
            needs[idx] += need
            moduli[idx] *= modulus
    return [() if n % m == 0 else tuple(sorted(
        (p, t - v) for p, t in need if (v := valuation(n, p)) < t))
        for (_, _, _, n), m, need in zip(items, moduli, needs)]


def _violation(factors, i, k, value, e, deficits) -> Violation:
    """The violation of phi**-1 d**e value in Z, its value reduced."""
    return Violation(i, k, value * Fraction(factors.d.value()) ** e
                     / factors.phi.value(), deficits)


def verify_coefficient_inclusions(table: PartialFractionTable,
                                  factors: ArithmeticFactors) -> InclusionReport:
    """Check phi**-1 d**(s-i) a_{i,k} in Z for every table entry; zero
    entries count as checked and hold.

    Orbit by orbit (``table.orbits``), V is the scale over the cofactor,
    known by the pole's valuations (and, at a prime of d or phi outside
    them, by the scale's own exponent), and n runs over the pole's rows.
    A mirrored pole has the same V and |n|, so its deficits are the
    pole's; violations are reported pole by pole in table order."""
    known = set(table.primes)
    beyond = tuple(sorted({p for p, _ in factors.d.factors + factors.phi.factors
                           if p not in known}))
    primes = table.primes + beyond
    found = [()] * len(table.pole_ks)  # (item, deficits) per pole
    for idx, mirror in table.orbits:
        order, row = table.orders[idx], table.rows[idx]
        exps = table.valuations[idx]
        if beyond:
            exps += tuple(valuation(table.scales[idx], p) for p in beyond)
        items = [(factors.s - i, order - i, i, n)
                 for i, n in enumerate(row, 1) if n]
        found[idx] = found[mirror] = list(zip(items, _scaled(
            factors, primes, exps, table.lcm, items)))
    return InclusionReport(len(table.pole_ks) * table.s, tuple(
        _violation(factors, i, k, table.a(i, k), e, deficits)
        for k, pairs in zip(table.pole_ks, found)
        for (e, _, i, _), deficits in pairs if deficits))


def _form_deficits(factors: ArithmeticFactors, e: int, value: Fraction,
                   den: tuple[tuple[int, int], ...]):
    """``_scaled`` of phi**-1 d**e value for a nonzero Fraction value whose
    denominator factors as ``den``."""
    return _scaled(factors, tuple(p for p, _ in den), tuple(-k for _, k in den),
                   None, [(e, 0, 0, value.numerator)])[0]


def verify_form_inclusions(result: DecompositionResult,
                           factors: ArithmeticFactors) -> InclusionReport:
    """Check phi**-1 d**(s-i) a_i in Z for i = 0..s.

    Odd i are vacuous (a_i = 0 exactly) and are recorded as passing.
    """
    return InclusionReport(len(result.a), tuple(
        _violation(factors, i, None, ai, factors.s - i, deficits)
        for i, (ai, den) in enumerate(zip(result.a, result.denominators))
        if ai and (deficits := _form_deficits(factors, factors.s - i, ai, den))))


class InclusionError(ArithmeticError):
    """An integrality precondition failed where an integer result was required."""


def integer_linear_form(result: DecompositionResult,
                        factors: ArithmeticFactors) -> tuple[tuple[int, ...], str]:
    """Integer tuple (A_0, A_2, ..., A_{s-1}) with
    phi**-1 d**s r = A_0 + sum A_i beta(i), plus a description of the scale.

    d**s / phi = top / bottom in lowest terms, from exponents.  Once the
    inclusion holds, a_i = num/den in lowest terms has den bottom dividing
    num top; num is prime to den and top to bottom, so den divides top and
    bottom divides num, and A_i = (num / bottom) (top / den): two exact
    divisions, each with a small quotient or divisor, and one product."""
    s = factors.s
    exps = {p: s * e for p, e in factors.d.factors}
    for p, e in factors.phi.factors:
        exps[p] = exps.get(p, 0) - e
    top = math.prod([p ** e for p, e in exps.items() if e > 0])
    bottom = math.prod([p ** -e for p, e in exps.items() if e < 0])
    out = []
    for i in [0] + result.beta_indices:
        ai = result.a[i]
        if ai and _form_deficits(factors, s, ai, result.denominators[i]):
            raise InclusionError(f"a_{i} does not scale to an integer")
        out.append(ai.numerator // bottom * (top // ai.denominator))
    desc = f"phi^-1 d_{result.profile.d_index}^{s} r_n with phi={factors.phi}"
    return tuple(out), desc
