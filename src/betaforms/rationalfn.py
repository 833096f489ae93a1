"""Rational functions as products of linear factors, and their exact
partial-fraction tables.

Every profile's rational function comes from one builder,
``build_general``: a proper ``scalar * prod (t - r)**m / prod (t - r')**m'``
with integer numerator roots, one half-integer numerator root and
half-integer poles (the basic family is the case eta = (3, 1, ..., 1)).
Roots are kept doubled, as integers.  The expansion takes any such
product whose roots are integers or half-integers and whose poles are all
integers or all half-integers.  Partial-fraction coefficients are
extracted per pole from the co-factor's Taylor series, split by root
class.  The roots not in the poles' class are numerator roots, and their
part is an integer polynomial.  The roots in the poles' class give the
rest as the exponential of its logarithm: the power sums of the
reciprocal root distances, scaled to integers by twice the lcm up to half
their span, feed an integer recurrence.  The two parts meet in one
integer convolution.  No coefficient is reduced: each is an integer over
a denominator known in factored form, because the pole's rational scale
(the scalar times the product of the root distances, less the content
known to divide the polynomial) is kept as exponents over the primes up to
the roots' span and slides from pole to pole with them.  Everything is
built once, at the highest pole, and slides down the grid one position at
a time, gaps included, changing only at the ends of each run of
consecutive roots: the power sums and the scale's exponents at the
boundary terms, the polynomial, kept scaled and over its known content,
by exact multiplications and low-end divisions by linear factors.  Every
profile's function is well-poised: a reflection of t maps both root sets
onto themselves, so the sweep stops at the middle pole and the other half
of the table is its mirror image.
No floating point enters this module, and no gcd outside the reduced
views of a table.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property

from ._records import frozen
from .numtheory import FactoredInteger, factorize, lcm_up_to, valuation
from .profiles import Profile, section2


@frozen
class LinearProductRep:
    """scalar * prod (t - R/2)**mult / prod (t - R'/2)**mult'.

    Roots are kept doubled, as the integers R = 2r: every root is an
    integer or a half-integer.  Equal roots are merged; numerator and
    denominator are *not* cross-cancelled, so a pole's nominal multiplicity
    can exceed its true order (the leading expansion coefficients are then
    exact zeros).
    """

    scalar: Fraction
    num_roots: tuple[tuple[int, int], ...]
    den_roots: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for roots in (self.num_roots, self.den_roots):
            seen = set()
            for r, m in roots:
                if type(r) is not int:
                    raise ValueError(f"doubled root {r!r} is not an integer")
                if m < 1 or r in seen:
                    raise ValueError("roots must be distinct with mult >= 1")
                seen.add(r)

    @property
    def num_degree(self) -> int:
        return sum(m for _, m in self.num_roots)

    @property
    def den_degree(self) -> int:
        return sum(m for _, m in self.den_roots)

    @property
    def degree_gap(self) -> int:
        return self.den_degree - self.num_degree

    def evaluate(self, t) -> Fraction:
        """Exact value at a non-pole rational t (ZeroDivisionError at poles)."""
        t = Fraction(t)
        p, q, q2 = t.numerator, t.denominator, 2 * t.denominator
        num = 1
        for r, m in self.num_roots:
            num *= (2 * p - r * q) ** m
        den = 1
        for r, m in self.den_roots:
            den *= (2 * p - r * q) ** m
        gap = self.degree_gap
        if gap >= 0:
            return self.scalar * Fraction(num * q2 ** gap, den)
        return self.scalar * Fraction(num, den * q2 ** (-gap))

    def step_ratio(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Doubled roots (P, Q), as many of each, with
        f(t+1)/f(t) = prod(t - P/2)/prod(t - Q/2).

        A run lo..hi of consecutive doubled roots (``_layers``) telescopes
        to (t + 1 - lo/2)/(t - hi/2).
        """
        sides = ([], [])
        for roots, flip in ((self.num_roots, 0), (self.den_roots, 1)):
            for lo, hi in _layers(dict(roots)):
                sides[flip].append(lo - 2)
                sides[1 - flip].append(hi)
        return tuple(sides[0]), tuple(sides[1])


@frozen
class PartialFractionTable:
    """Exact coefficients a[i][k] of (t + k + pole_offset)**(-i), each an
    integer over a denominator known in factored form.

    Pole ``pole_ks[idx]`` has true order ``orders[idx]`` and the scale
    ``scales[idx] / cofactors[idx]``, a fraction in lowest terms whose
    exponent at each prime of ``primes`` is ``valuations[idx]`` (the
    cofactor has no other prime).  For i up to the order,
    a_{i,k} = scale rows[idx][i-1] / (cofactor L**j 2**i) with
    j = order - i and L = ``lcm``, whose primes are among ``primes``.
    Entries above the order are exact zeros, so sums may run uniformly to
    s.  ``fraction`` gives an entry unreduced, ``a`` and ``entries``
    reduced.

    ``reflection`` is (c, gap mod 2) when ``partial_fractions`` found the
    table mirrored, a_{i,c-k} = (-1)**(i+gap) a_{i,k} with c the sum of
    the first and last k, and None otherwise.  The mirror's scale,
    cofactor, order and valuations are the pole's own.  ``orbits`` pairs
    the index of pole k with that of pole c - k, the lower first; the
    middle pole, and every pole of a table without a reflection, pairs
    with itself.
    """

    s: int
    pole_ks: tuple[int, ...]
    pole_offset: Fraction
    lcm: FactoredInteger
    primes: tuple[int, ...]
    orders: tuple[int, ...]
    scales: tuple[int, ...]
    cofactors: tuple[int, ...]
    valuations: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    reflection: tuple[int, int] | None = None

    @cached_property
    def orbits(self) -> list[tuple[int, int]]:
        last = len(self.pole_ks) - 1
        return [(idx, last - idx if self.reflection else idx) for idx in
                range(last // 2 + 1 if self.reflection else last + 1)]

    @cached_property
    def lcm_powers(self) -> list[int]:
        """L**j for j = 0..s."""
        lcm = self.lcm.value()
        return [lcm ** j for j in range(self.s + 1)]

    def fraction(self, idx: int, i: int) -> tuple[int, int]:
        """(N, D), entry i at pole ``pole_ks[idx]`` as N/D, not reduced;
        D = 1 above the pole's order."""
        n = self.scales[idx] * self.rows[idx][i - 1]
        j = self.orders[idx] - i
        if j < 0:
            return n, 1
        return n, self.cofactors[idx] * self.lcm_powers[j] << i

    def a(self, i: int, k: int) -> Fraction:
        return Fraction(*self.fraction(self.pole_ks.index(k), i))

    def entries(self):
        """(i, k, a_{i,k}) for every entry, each a reduced Fraction."""
        for idx, k in enumerate(self.pole_ks):
            for i in range(1, self.s + 1):
                yield i, k, Fraction(*self.fraction(idx, i))


def _layers(mult: dict[int, int]) -> list[tuple[int, int]]:
    """Runs ``(lo, hi)`` of doubled roots ``lo, lo + 2, ..., hi`` whose
    indicators sum to ``mult``.

    A run starts at R where mult(R) > mult(R - 2) and ends where
    mult(R) > mult(R + 2); starts and ends are paired in order within each
    parity class, so no run mixes integer and half-integer roots.
    """
    starts: tuple[list, list] = ([], [])
    ends: tuple[list, list] = ([], [])
    for r in sorted(mult):
        starts[r % 2].extend([r] * (mult[r] - mult.get(r - 2, 0)))
        ends[r % 2].extend([r] * (mult[r] - mult.get(r + 2, 0)))
    return [run for parity in (0, 1) for run in zip(starts[parity], ends[parity])]


class _FactoredRatio:
    """A nonzero rational ``num/den`` in lowest terms with its exponent
    ``exps[p]`` at every prime p up to ``len(lpf) - 1`` (and at the primes
    of ``den``), multiplied by powers of integers up to that bound without
    a gcd: ``lpf`` is a least-prime-factor table that factors each one.
    """

    def __init__(self, num: int, den: int, exps: dict[int, int], lpf):
        self.num, self.den, self.exps, self.lpf = num, den, exps, lpf

    @classmethod
    def of(cls, value: Fraction, lpf) -> "_FactoredRatio":
        """``value`` factored over the primes up to ``len(lpf) - 1`` and
        every prime of its denominator."""
        num, den = value.numerator, value.denominator
        exps = {p: valuation(num, p)
                for p in range(2, len(lpf)) if lpf[p] == p}
        for p, e in factorize(den).items():
            exps[p] = exps.get(p, 0) - e
        return cls(num, den, exps, lpf)

    def copy(self) -> "_FactoredRatio":
        return _FactoredRatio(self.num, self.den, dict(self.exps), self.lpf)

    def times(self, a: int, w: int) -> None:
        """Multiply by a**w for an integer 0 < |a| < len(lpf)."""
        if a < 0 and w % 2:
            self.num = -self.num
        for p, e in _prime_powers(a, self.lpf):
            self.shift(p, e * w)

    def shift(self, p: int, e: int) -> None:
        """Multiply by p**e for a prime p of ``exps``."""
        old = self.exps[p]
        new = self.exps[p] = old + e
        up = max(new, 0) - max(old, 0)
        down = max(-new, 0) - max(-old, 0)
        if up > 0:
            self.num *= p ** up
        elif up < 0:
            self.num //= p ** -up
        if down > 0:
            self.den *= p ** down
        elif down < 0:
            self.den //= p ** -down


def _prime_powers(a: int, lpf):
    """(p, e) for each prime power p**e exactly dividing |a|, 0 < |a| <
    len(lpf), by the least-prime-factor table ``lpf``."""
    a = abs(a)
    while a > 1:
        p, e = lpf[a], 0
        while a % p == 0:
            a //= p
            e += 1
        yield p, e


def _least_prime_factors(limit: int) -> list[int]:
    """lpf[m] = the least prime factor of m, for 2 <= m <= limit."""
    lpf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if lpf[p] == p:
            for m in range(p * p, limit + 1, p):
                if lpf[m] == m:
                    lpf[m] = p
    return lpf


def _add_power_sums(sums: list[int], pole: int, weights, lcm: int,
                    ratio: _FactoredRatio) -> None:
    """``sums[k] += w (lcm / (pole - R))**k`` for k >= 1 and every ``(R, w)``
    with ``R != pole``, and ``ratio`` times ``prod (pole - R)**w`` over the
    same terms."""
    for r, w in weights:
        a = pole - r
        if a == 0 or w == 0:
            continue
        q = lcm // a
        power = w
        for k in range(1, len(sums)):
            power *= q
            sums[k] += power
        ratio.times(a, w)


def _reflection(num: dict[int, int], den: dict[int, int]) -> int | None:
    """C = min + max of the doubled poles if R -> C - R maps the doubled
    numerator roots and the doubled poles each onto themselves, with
    multiplicity; None otherwise."""
    c = min(den) + max(den)
    if all(side.get(c - r) == m for side in (num, den) for r, m in side.items()):
        return c
    return None


def _times_linear(poly: list[int], a: int, w: int, scale: int) -> list[int]:
    """``poly * (a + v)**w`` truncated to ``len(poly)`` terms, for an
    integer ``a != 0`` and any integer ``w``, with the coefficient of v**j
    kept as ``scale**j`` times its value.

    Each factor maps q_j to ``a q_j + scale q_{j-1}``.  A negative ``w``
    divides from the low end, ``q_0 = p_0/a`` and
    ``q_j = (p_j - scale q_{j-1})/a``, which is exact when the untruncated
    polynomial holds the factor; a step that leaves a remainder raises
    ArithmeticError.
    """
    for _ in range(w):
        poly = [a * p + scale * q for p, q in zip(poly, [0] + poly)]
    for _ in range(-w):
        out = []
        q = 0
        for p in poly:
            q, rem = divmod(p - scale * q, a)
            if rem:
                raise ArithmeticError(f"v + {a} does not divide the polynomial")
            out.append(q)
        poly = out
    return poly


def _divide_exactly(poly: list[int], d: int) -> list[int]:
    """``poly / d`` for a rise d of G; a remainder raises ArithmeticError."""
    if any(h % d for h in poly):
        raise ArithmeticError("g_odd lost its known content")
    return [h // d for h in poly]


def partial_fractions(rep: LinearProductRep) -> PartialFractionTable:
    """Expand a proper linear-product representation into partial fractions.

    In doubled units (pole P = 2p, roots R = 2r, v = 2(t - p)) every factor
    off the pole is ``(A + v)/2`` with the integer ``A = P - R``, so the
    co-factor (the function times the pole's power) is
    ``scalar * 2**gap * v**z * g(v)``: z numerator roots sit on the pole,
    gap is the co-factor's degree gap and ``g = prod (A + v)**c`` over the
    other roots, c the numerator minus the denominator multiplicity.  The
    order-(j + z) coefficient in ``t - p`` is ``scalar 2**(gap + j + z) g_j``.

    Every pole has one parity, so every root of the other parity is a
    numerator root, and g splits by the parity of its roots:

    * ``g_odd``, over the other-parity roots (A odd, c > 0), is an integer
      polynomial, kept truncated to degree s - 1 (``_times_linear``);
    * ``g_even``, over the same-parity roots (the poles and the numerator
      roots among them, A even), has negative exponents.  With the power
      sums ``S_k = sum c A**-k``,
      ``g_even = g_even(0) exp(sum_k (-1)**(k+1) S_k v**k / k)`` (Brent &
      Zimmermann, *Modern Computer Arithmetic*, section 4.2).  For
      ``L = 2 lcm(1..span/2)``, span the distance between the extreme
      same-parity roots, the ``T_k = L**k S_k`` are integers, and so are
      ``E_j = L**j g_even_j / g_even(0)``, by
      ``j E_j = sum_{k=1..j} (-1)**(k+1) T_k E_{j-k}``.

    With ``X_j = sum_{a+b=j} (L**a g_odd_a) E_b`` the order-(j + z)
    coefficient, entry i = order - j, is
    ``scalar g_even(0) 2**(gap + j + z) X_j / L**j``, and
    gap + j + z = degree_gap - i.  L covers only the same-parity distances,
    so it is far smaller than the lcm over all of them (91 bits against 532
    at theorem1 n = 6).  No entry is reduced.  A product g of factors
    (A + v) with |A| at most the span of all roots has
    v_p(g_a) >= v_p(g(0)) - a lambda_p, p**lambda_p <= that span, so the
    content G, of exponent max(excess_p, 0) at p with excess_p =
    v_p(g_odd(0)) - (s - 1)(lambda_p - v_p(L)), divides every
    ``L**a g_odd_a``, a < s: the sweep keeps ``H_a = L**a g_odd_a / G``
    and the table stores ``X_j / G``.  The pole's scale
    ``scalar 2**degree_gap g_even(0) G`` is kept as a fraction in lowest
    terms with its exponent at every prime up to that span, which a
    least-prime-factor table reads off each distance (``_FactoredRatio``);
    its denominator is the entry's cofactor, and the entry is
    ``scale (X_j / G) / (cofactor L**j 2**i)``.

    The state is built once, at the top pole, over every root: g_odd
    unscaled, then divided by G.  It then slides down the grid one
    position at a time, gaps included, and each pole takes its row.  The
    step from P + 2 to P moves every root one place, so the T_k, the
    exponents of g_even(0) and g_odd(0) and g_odd change only at the roots
    of f(t + 1)/f(t) (``rep.step_ratio()``), within the span of P, as P
    lies between two poles.  An entering factor A + v maps H_a to
    ``A H_a + L H_(a-1)``, a leaving one to ``(H_a - L H_(a-1)) / A``,
    exactly from the low end.  excess_p rises right after a multiplication
    and falls right before a division, so the bound holds for every
    intermediate product and every step is exact.  The top build stays
    unscaled: scaled steps from the empty product give the same table
    8-25 % slower at theorem1 n = 4 to 24, as the top multiplies 186 odd
    factors at n = 6, against 66 odd steps in the whole sweep.

    Before the sweep the reflection R -> C - R, C = min + max of the
    doubled poles, is checked exactly (``_reflection``).  If it maps the
    numerator roots and the poles each onto themselves, with multiplicity,
    then f(C/2 - t) = (-1)**gap f(t), so a_{i,C-P} = (-1)**(i+gap) a_{i,P}
    (in pole indices a_{i,c-k} = (-1)**(i+gap) a_{i,k}, c the sum of the
    first and last k): the sweep stops at the middle pole and the lower
    half is mirrored.  Every profile's function passes, with c = h_0 - 1
    and the even gap (s - 1) h_0 - 2n sum_{j>=1} eta_j; any other rep is
    swept in full.
    """
    degree_gap = rep.degree_gap
    if degree_gap < 1:
        raise ValueError("representation must be proper (gap >= 1)")
    if not rep.scalar:
        raise ValueError("the scalar must be nonzero")
    num, den = dict(rep.num_roots), dict(rep.den_roots)
    poles = sorted(den, reverse=True)
    parity = poles[0] % 2
    if any(pole % 2 != parity for pole in den):
        raise ValueError("pole grid mixes integer and half-integer roots")
    mirror = _reflection(num, den)
    net = dict(num)
    for r, m in den.items():
        net[r] = net.get(r, 0) - m
    # c(R) - c(R + 2), the window's change from pole P + 2 to P at the term R
    ups, downs = rep.step_ratio()
    steps = Counter(downs)
    steps.subtract(ups)
    even = [(r, c) for r, c in net.items() if r % 2 == parity]
    odd = [(r, c) for r, c in net.items() if r % 2 != parity]
    even_steps = [(r, c) for r, c in steps.items() if r % 2 == parity]
    odd_steps = [(r, c) for r, c in steps.items() if r % 2 != parity]
    span = max(r for r, _ in even) - min(r for r, _ in even)
    lcm_exps = dict(lcm_up_to(max(span // 2, 1)).factors)
    lcm_exps[2] = lcm_exps.get(2, 0) + 1
    lcm = FactoredInteger.from_dict(lcm_exps)
    lcm_value = lcm.value()
    s = max(den.values())
    # every |P - R| is at most the full span of the roots
    lpf = _least_prime_factors(max(max(net) - min(net), 2))
    scalar = _FactoredRatio.of(rep.scalar, lpf)
    scalar.shift(2, degree_gap)
    primes = tuple(p for p in scalar.exps if p < len(lpf))
    # G's exponent at p is max(excess[p], 0), with excess[p] =
    # v_p(g_odd(0)) - (s - 1)(floor(log_p span) - v_p(L))
    excess = {}
    for p in primes:
        power, excess[p] = p, (s - 1) * lcm_exps.get(p, 0)
        while power < len(lpf):
            power, excess[p] = power * p, excess[p] - s + 1
    top = poles[0]
    sums = [0] * s  # sums[k] = T_k for k = 1..s-1
    g0 = scalar.copy()
    _add_power_sums(sums, top, even, lcm_value, g0)
    g_odd = [1] + [0] * (s - 1)
    for r, c in odd:
        g_odd = _times_linear(g_odd, top - r, c, 1)
        for p, e in _prime_powers(top - r, lpf):
            excess[p] += c * e
    # the content G moves from g_odd to g0
    common = 1
    for p in primes:
        g0.shift(p, max(excess[p], 0))
        common *= p ** max(excess[p], 0)
    odd_scaled = _divide_exactly(
        [g * lcm_value ** a for a, g in enumerate(g_odd)], common)
    found = {}
    bottom = poles[-1] if mirror is None else mirror // 2
    for pole in range(top, bottom - 1, -2):
        if pole != top:
            # P lies between two poles, so every |P - R| <= span
            _add_power_sums(sums, pole, even_steps, lcm_value, g0)
            for r, c in odd_steps:
                # G rises after a factor enters, falls before one leaves
                rise = 1
                for p, e in _prime_powers(pole - r, lpf):
                    old, excess[p] = excess[p], excess[p] + c * e
                    step = max(excess[p], 0) - max(old, 0)
                    if step:
                        g0.shift(p, step)
                        rise *= p ** abs(step)
                if c < 0 and rise > 1:
                    odd_scaled = [h * rise for h in odd_scaled]
                odd_scaled = _times_linear(odd_scaled, pole - r, c, lcm_value)
                if c > 0 and rise > 1:
                    odd_scaled = _divide_exactly(odd_scaled, rise)
        if pole not in den:
            continue
        z = num.get(pole, 0)
        # the nonzero coefficients at this pole: none where a numerator root
        # of higher multiplicity cancels it
        order = max(den[pole] - z, 0)
        e = [1]
        for j in range(1, order):
            acc = 0
            for i in range(1, j + 1):
                term = sums[i] * e[j - i]
                acc += term if i % 2 else -term
            e.append(acc // j)
        row = [0] * s
        for j in range(order):
            row[order - j - 1] = sum(odd_scaled[i] * e[j - i]
                                     for i in range(j + 1))
        found[pole] = (order, g0.num, g0.den, tuple(g0.exps.values()),
                       tuple(row))
    for pole in poles[len(found):]:
        # i = idx + 1; entry i changes sign when i + gap is odd
        *same, row = found[mirror - pole]
        found[pole] = (*same, tuple(-c if (idx + degree_gap) % 2 == 0 else c
                                    for idx, c in enumerate(row)))
    columns = zip(*(found[pole] for pole in poles))
    return PartialFractionTable(
        s, tuple(-(pole + parity) // 2 for pole in poles),
        Fraction(parity, 2), lcm, tuple(scalar.exps), *columns,
        None if mirror is None else (-mirror // 2 - parity, degree_gap % 2))


# ---------------------------------------------------------------------------
# The construction
# ---------------------------------------------------------------------------

def build_section2(s: int, n: int) -> LinearProductRep:
    """Odd s >= 3, even n: the basic construction, the general family's
    function at eta = (3, 1, ..., 1)."""
    return build_general(section2(s, n))


def build_general(profile: Profile) -> LinearProductRep:
    """Shifted factorial quotient with half-integer poles, from the
    profile's shape data, in doubled roots."""
    h0 = profile.h0
    num = Counter(range(2 - 2 * h0, 0, 2))  # t = -1, ..., -(h0 - 1)
    num[-h0] += 1
    poles = Counter()  # pole k, at t = -(k + 1/2): its multiplicity
    for ej in profile.shape[1:]:
        poles.update(range(ej * profile.n, h0 - ej * profile.n))
    return LinearProductRep(2 * profile.gamma, tuple(sorted(num.items())),
                            tuple(sorted((-2 * k - 1, m)
                                         for k, m in poles.items())))
