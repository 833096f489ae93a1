"""Rational functions as products of linear factors, and their exact
partial-fraction tables.

Every profile's rational function comes from one builder,
``build_general``: a proper ``scalar * prod (t - r)**m / prod (t - r')**m'``
with integer numerator roots, one half-integer numerator root and
half-integer poles (the basic family is the case eta = (3, 1, ..., 1)).
The expansion takes any such product whose roots are integers or
half-integers and whose poles are all integers or all half-integers.
Partial-fraction coefficients are extracted per pole from the co-factor's
Taylor series, split by root class.  The roots not in the poles' class
are numerator roots, and their part is an integer polynomial.  The roots
in the poles' class give the rest as the exponential of its logarithm:
the power sums of the reciprocal root distances, scaled to integers by
twice the lcm up to half their span, feed an integer recurrence.  The two
parts meet in one integer convolution, and each coefficient costs one
exact division at the end.  Poles are swept from the highest down, and
moving from one pole to the next changes both parts only at the ends of
each run of consecutive roots, so they are updated, not rebuilt: the
power sums at the boundary terms, the polynomial by exact multiplications
and low-end divisions by linear factors.  Every profile's function is
well-poised: a reflection of t maps both root sets onto themselves, so
the sweep stops at the middle pole and the other half of the table is its
mirror image.  No floating point enters this module.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from ._records import frozen
from .profiles import Profile, section2

_HALF = Fraction(1, 2)


@frozen
class LinearProductRep:
    """scalar * prod (t - r)**mult / prod (t - r')**mult'.

    Roots are exact rationals with denominator 1 or 2.  Equal roots are
    merged; numerator and denominator are *not* cross-cancelled, so a pole's
    nominal multiplicity can exceed its true order (the leading expansion
    coefficients are then exact zeros).
    """

    scalar: Fraction
    num_roots: tuple[tuple[Fraction, int], ...]
    den_roots: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        for roots in (self.num_roots, self.den_roots):
            seen = set()
            for r, m in roots:
                if (2 * r).denominator != 1:
                    raise ValueError(f"root {r} is not a half-integer")
                if m < 1 or r in seen:
                    raise ValueError("roots must be distinct with mult >= 1")
                seen.add(r)

    @classmethod
    def build(cls, scalar, num_roots, den_roots) -> "LinearProductRep":
        def merge(pairs):
            acc: dict[Fraction, int] = {}
            for r, m in pairs:
                r = Fraction(r)
                acc[r] = acc.get(r, 0) + m
            return tuple(sorted(acc.items()))
        return cls(Fraction(scalar), merge(num_roots), merge(den_roots))

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
        p, q2 = t.numerator, 2 * t.denominator
        num = 1
        for r, m in self.num_roots:
            num *= (2 * p - int(2 * r) * t.denominator) ** m
        den = 1
        for r, m in self.den_roots:
            den *= (2 * p - int(2 * r) * t.denominator) ** m
        gap = self.degree_gap
        if gap >= 0:
            return self.scalar * Fraction(num * q2 ** gap, den)
        return self.scalar * Fraction(num, den * q2 ** (-gap))

    def step_ratio(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Roots (p, q), as many of each, with f(t+1)/f(t) = prod(t-p)/prod(t-q).

        A run lo..hi of consecutive roots (``_layers``) telescopes to
        (t+1-lo)/(t-hi).
        """
        sides = ([], [])
        for roots, flip in ((self.num_roots, 0), (self.den_roots, 1)):
            for lo, hi in _layers({int(2 * r): m for r, m in roots}):
                sides[flip].append(Fraction(lo - 2, 2))
                sides[1 - flip].append(Fraction(hi, 2))
        return tuple(sides[0]), tuple(sides[1])


@frozen
class PartialFractionTable:
    """Exact coefficients a[i][k] of (t + k + pole_offset)**(-i).

    ``rows[idx][i-1]`` is a_{i, pole_ks[idx]} for i = 1..s; entries above a
    pole's true order are exact zeros, so sums may run uniformly to s.
    """

    s: int
    pole_ks: tuple[int, ...]
    pole_offset: Fraction
    rows: tuple[tuple[Fraction, ...], ...]

    def a(self, i: int, k: int) -> Fraction:
        return self.rows[self.pole_ks.index(k)][i - 1]

    def entries(self):
        for idx, k in enumerate(self.pole_ks):
            for i in range(1, self.s + 1):
                yield i, k, self.rows[idx][i - 1]


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


def _add_power_sums(sums: list[int], pole: int, weights, lcm: int) -> Fraction:
    """``sums[k] += w (lcm / (pole - R))**k`` for k >= 1 and every ``(R, w)``
    with ``R != pole``; returns ``prod (pole - R)**w`` over the same terms."""
    up = down = 1
    for r, w in weights:
        a = pole - r
        if a == 0 or w == 0:
            continue
        q = lcm // a
        power = w
        for k in range(1, len(sums)):
            power *= q
            sums[k] += power
        if w > 0:
            up *= a ** w
        else:
            down *= a ** -w
    return Fraction(up, down)


def _reflection(num: dict[int, int], den: dict[int, int]) -> int | None:
    """C = min + max of the doubled poles if R -> C - R maps the doubled
    numerator roots and the doubled poles each onto themselves, with
    multiplicity; None otherwise."""
    c = min(den) + max(den)
    if all(side.get(c - r) == m for side in (num, den) for r, m in side.items()):
        return c
    return None


def _times_linear(poly: list[int], a: int, w: int) -> list[int]:
    """``poly * (a + v)**w`` truncated to ``len(poly)`` terms, for an
    integer ``a != 0`` and any integer ``w``.

    A negative ``w`` divides from the low end, ``q_0 = p_0/a`` and
    ``q_j = (p_j - q_{j-1})/a``, which is exact when the untruncated
    polynomial holds the factor; a step that leaves a remainder raises
    ArithmeticError.
    """
    for _ in range(w):
        poly = [a * p + q for p, q in zip(poly, [0] + poly)]
    for _ in range(-w):
        out = []
        q = 0
        for p in poly:
            q, rem = divmod(p - q, a)
            if rem:
                raise ArithmeticError(f"v + {a} does not divide the polynomial")
            out.append(q)
        poly = out
    return poly


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
    coefficient is ``scalar g_even(0) 2**(gap + j + z) X_j / L**j``, one
    exact division.  L covers only the same-parity distances, so it is far
    smaller than the lcm over all of them (91 bits against 532 at theorem1
    n = 6), and the integers carry that much less content that the final
    gcd would throw away.

    Poles are visited from the highest down.  The step from P + 2 to P
    moves every root one place, so the T_k, g_even(0) and g_odd change only
    at the roots of f(t + 1)/f(t) (``rep.step_ratio()``): g_odd is
    multiplied by each factor that enters and divided, exactly from the low
    end, by each that leaves (the untruncated product holds it).  Where the
    pole grid has a gap both parts are built afresh over all roots.

    Before the sweep, at a cost of O(roots), the reflection R -> C - R
    with C = min + max of the doubled poles is checked exactly
    (``_reflection``).
    If it maps the numerator roots and the poles each onto themselves, with
    multiplicity, then f(C/2 - t) = (-1)**gap f(t) for the degree gap of
    f, so pole P and pole C - P carry a_{i,C-P} = (-1)**(i+gap) a_{i,P}:
    the sweep stops at the middle pole and the lower half is mirrored.  In
    pole indices that is a_{i,c-k} = (-1)**(i+gap) a_{i,k} with c the sum
    of the first and last k.  Every profile's function passes the check,
    with c = h_0 - 1 and the even gap (s - 1) h_0 - 2n sum_{j>=1} eta_j;
    any other rep that fails it is swept in full.
    """
    degree_gap = rep.degree_gap
    if degree_gap < 1:
        raise ValueError("representation must be proper (gap >= 1)")
    offset = _HALF if any(r.denominator == 2 for r, _ in rep.den_roots) else Fraction(0)
    num = {int(2 * r): m for r, m in rep.num_roots}
    den = {int(2 * r): m for r, m in rep.den_roots}
    poles = sorted(den.items(), reverse=True)
    pole_ks = [-Fraction(pole, 2) - offset for pole, _ in poles]
    if any(k.denominator != 1 for k in pole_ks):
        raise ValueError("pole grid mixes integer and half-integer roots")
    mirror = _reflection(num, den)
    parity = poles[0][0] % 2
    net = dict(num)
    for r, m in den.items():
        net[r] = net.get(r, 0) - m
    # c(R) - c(R + 2), the window's change from pole P + 2 to P at the term R
    ups, downs = rep.step_ratio()
    steps = Counter(int(2 * q) for q in downs)
    steps.subtract(int(2 * p) for p in ups)
    even = [(r, c) for r, c in net.items() if r % 2 == parity]
    odd = [(r, c) for r, c in net.items() if r % 2 != parity]
    even_steps = [(r, c) for r, c in steps.items() if r % 2 == parity]
    odd_steps = [(r, c) for r, c in steps.items() if r % 2 != parity]
    span = max(r for r, _ in even) - min(r for r, _ in even)
    lcm = 2 * math.lcm(*range(1, span // 2 + 1))
    s = max(den.values())
    lcm_powers = [1]
    for _ in range(1, s):
        lcm_powers.append(lcm_powers[-1] * lcm)
    rows = {}
    prev = None
    for pole, mult in poles:
        if mirror is not None and 2 * pole < mirror:
            break
        if prev is not None and pole == prev - 2:
            # P + 2 is a root, so each boundary term has |P - R| <= span
            scaled_g0 *= _add_power_sums(sums, pole, even_steps, lcm)
            for r, c in odd_steps:
                g_odd = _times_linear(g_odd, pole - r, c)
        else:
            sums = [0] * s  # sums[k] = T_k for k = 1..s-1
            scaled_g0 = rep.scalar * _add_power_sums(sums, pole, even, lcm)
            g_odd = [1] + [0] * (s - 1)
            for r, c in odd:
                g_odd = _times_linear(g_odd, pole - r, c)
        prev = pole
        z = num.get(pole, 0)
        order = mult - z  # the nonzero coefficients at this pole
        e = [1]
        for j in range(1, order):
            acc = 0
            for i in range(1, j + 1):
                term = sums[i] * e[j - i]
                acc += term if i % 2 else -term
            e.append(acc // j)
        odd_scaled = [g * p for g, p in zip(g_odd[:order], lcm_powers)]
        gap = degree_gap - mult
        coeffs = [Fraction(0)] * s
        for j in range(order):
            x = sum(odd_scaled[i] * e[j - i] for i in range(j + 1))
            shift = gap + j + z  # the power of 2; a negative one divides
            coeffs[mult - 1 - j - z] = Fraction(
                scaled_g0.numerator * x << max(shift, 0),
                lcm_powers[j] * scaled_g0.denominator << max(-shift, 0))
        rows[pole] = tuple(coeffs)
    for pole, _ in poles[len(rows):]:
        # i = idx + 1; entry i changes sign when i + gap is odd
        rows[pole] = tuple(-c if (idx + degree_gap) % 2 == 0 else c
                           for idx, c in enumerate(rows[mirror - pole]))
    return PartialFractionTable(s, tuple(int(k) for k in pole_ks), offset,
                                tuple(rows[pole] for pole, _ in poles))


# ---------------------------------------------------------------------------
# The construction
# ---------------------------------------------------------------------------

def build_section2(s: int, n: int) -> LinearProductRep:
    """Odd s >= 3, even n: the basic construction, the general family's
    function at eta = (3, 1, ..., 1)."""
    return build_general(section2(s, n))


def build_general(profile: Profile) -> LinearProductRep:
    """Shifted factorial quotient with half-integer poles, from the
    profile's shape data."""
    h0 = profile.h0
    scalar = 2 * profile.gamma
    num = [(Fraction(-h0, 2), 1)]
    num += [(Fraction(-j), 1) for j in range(1, h0)]
    poles = Counter()  # pole k, at t = -(k + 1/2): its multiplicity
    for ej in profile.shape[1:]:
        poles.update(range(ej * profile.n, h0 - ej * profile.n))
    den = [(-(k + _HALF), m) for k, m in poles.items()]
    return LinearProductRep.build(scalar, num, den)
