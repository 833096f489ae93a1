import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from betaforms import balls, numtheory
from betaforms.asymptotics import phi_exponent, phi_exponent_from_table
from betaforms.balls import BallReal, working_precision
from betaforms.numtheory import (FactoredInteger, StepFunction,
                                 _breakpoint_candidates, _merged_terms,
                                 _min_over_y, _sweep_plan, _terms,
                                 capital_phi, carry_min_table,
                                 carry_min_value, lcm_up_to,
                                 phi_exponent_sieved, sieve_primes)
from betaforms.profiles import (THEOREM1_ETA, Profile, ProfileError, general,
                                profile_violations, section2)

from tests.reference import (SIX_TERMS, ball_cos, ball_pi, carry_value,
                             digamma_rational, digamma_sum, euler_gamma,
                             floor_sum, full_breakpoint_candidates)

# the basic family's shape at s = 3
SECTION2_SHAPE = section2(3, 2).shape


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


class TestSieve:
    def test_small(self):
        assert sieve_primes(10) == [2, 3, 5, 7]
        assert sieve_primes(1) == []
        assert sieve_primes(0) == []

    def test_against_trial_division(self):
        got = sieve_primes(30)
        assert got == trial_division_primes(30)
        assert len(got) == 10 and got[-1] == 29

    def test_larger_range(self):
        assert sieve_primes(541)[-1] == 541
        assert len(sieve_primes(10 ** 4)) == 1229


class TestLcm:
    def test_values(self):
        assert int(lcm_up_to(1)) == 1
        assert int(lcm_up_to(6)) == 60
        assert int(lcm_up_to(12)) == 27720

    def test_gcd_fold_oracle(self):
        acc = 1
        for k in range(1, 13):
            acc = acc * k // math.gcd(acc, k)
        assert int(lcm_up_to(12)) == acc

    def test_ratio_is_one_or_prime(self):
        prev = int(lcm_up_to(1))
        primes = set(sieve_primes(80))
        for m in range(2, 81):
            cur = int(lcm_up_to(m))
            assert cur % prev == 0
            ratio = cur // prev
            assert ratio == 1 or ratio in primes
            prev = cur

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lcm_up_to(0)


class TestFactoredInteger:
    def test_requires_primes(self):
        with pytest.raises(ValueError):
            FactoredInteger(((4, 1),))
        with pytest.raises(ValueError):
            FactoredInteger(((3, 0),))

    def test_str_and_value(self):
        f = FactoredInteger.from_dict({13: 2, 17: 4, 19: 4})
        assert int(f) == 13 ** 2 * 17 ** 4 * 19 ** 4
        assert str(f) == "13^2*17^4*19^4"
        assert str(FactoredInteger(())) == "1"


def textbook_section2_carry(x, y):
    # the six-floor sum, written out directly (independent of the term table)
    fl = math.floor
    return (fl(2 * x + 2 * y) + fl(4 * x - 2 * y) - fl(x + y)
            - fl(2 * x - y) - 3 * fl(y) - 3 * fl(x - y))


def textbook_general_carry(eta, x, y):
    fl = math.floor
    e0, e1 = eta[0], eta[1]
    val = (fl(2 * (e0 * x - y)) + fl(2 * y) - fl(e0 * x - y) - fl(y)
           - 2 * fl(e1 * x) - fl((e0 - 2 * e1) * x))
    for ej in eta[1:]:
        val += (fl((e0 - 2 * ej) * x) - fl(y - ej * x)
                - fl((e0 - ej) * x - y))
    return val


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=60)


class TestCarryValue:
    def test_section2_example(self):
        assert floor_sum(SIX_TERMS, Fraction(2, 5), Fraction(1, 5)) == 2

    def test_section2_periodicity_example(self):
        x, y = Fraction(2, 5), Fraction(1, 5)
        assert floor_sum(SIX_TERMS, x + 1, y) == floor_sum(SIX_TERMS, x, y)

    @settings(max_examples=120, deadline=None)
    @given(rationals, rationals)
    def test_periodic_both_arguments(self, x, y):
        for terms in (SIX_TERMS, _terms(SECTION2_SHAPE), _terms(THEOREM1_ETA)):
            base = floor_sum(terms, x, y)
            assert floor_sum(terms, x + 1, y) == base
            assert floor_sum(terms, x, y + 1) == base

    @settings(max_examples=120, deadline=None)
    @given(rationals, rationals)
    def test_matches_textbook_evaluator(self, x, y):
        assert floor_sum(SIX_TERMS, x, y) == textbook_section2_carry(x, y)
        for eta in (SECTION2_SHAPE, THEOREM1_ETA):
            assert carry_value(eta, x, y) == textbook_general_carry(eta, x, y)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            carry_min_table((4, 2, 2, 2, 2, 2))  # eta_j = eta_0/2
        with pytest.raises(ValueError):
            carry_min_value((5, 1), 0)  # no eta_2
        with pytest.raises(ProfileError):
            Profile("nope", 5, 2)  # the families live in ``profiles``


# profile_violations messages that are not about the shape of eta itself
NOT_ETA_SHAPE = ("s must be", "n must be", "eta_0 * n must be")


@st.composite
def near_admissible_eta(draw):
    """eta of length 6-8 with every eta_j near eta_0/2, where each rule,
    the sum rule included, can fail on its own."""
    e0 = draw(st.integers(0, 20))
    size = draw(st.integers(5, 7))
    near = st.integers(max(0, e0 // 2 - 2), e0 // 2 + 1)
    return (e0, *draw(st.lists(near, min_size=size, max_size=size)))


@st.composite
def admissible_general(draw, sizes=(5, 7, 9), max_eta0=20):
    """(s, n, eta) meeting every general-family condition."""
    s = draw(st.sampled_from(sizes))
    e0 = draw(st.integers(3, max_eta0))
    rest = draw(st.lists(st.integers(1, (e0 - 1) // 2), min_size=s,
                         max_size=s).filter(
        lambda r: 2 * sum(r) <= (s - 1) * e0))
    n = draw(st.integers(1, 4)) * (2 if e0 % 2 else 1)
    return s, n, (e0, *rest)


class TestEtaShapeRule:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 20), min_size=6, max_size=8).map(tuple),
        near_admissible_eta()))
    @example((5, 1, 1, 1, 1, 1))
    @example(THEOREM1_ETA[:8])
    def test_carry_table_raises_iff_profile_reports(self, eta):
        shape = [v for v in profile_violations("general", len(eta) - 1, 2, eta)
                 if not v.startswith(NOT_ETA_SHAPE)]
        if shape:
            with pytest.raises(ValueError):
                carry_min_table(eta)
        else:
            assert isinstance(carry_min_table(eta), StepFunction)

    @settings(max_examples=200, deadline=None)
    @given(admissible_general())
    def test_admissible_profiles_build(self, case):
        s, n, eta = case
        profile = Profile("general", s, n, eta)
        assert profile.shape == eta and _terms(profile.shape)


def enumerated_min_over_y(terms, x):
    """min over y in [0, 1) of the floor sum at x, by evaluating every jump
    point in y and the midpoint of every gap between them."""
    cands = {Fraction(0)}
    for _, a, e in terms:
        for j in range(abs(e)):
            v = (j - a * x) / e
            cands.add(v - math.floor(v))
    cs = sorted(cands) + [Fraction(1)]
    points = cs[:-1] + [(lo + hi) / 2 for lo, hi in zip(cs, cs[1:])]
    p, q = x.numerator, x.denominator
    best = None
    for y in points:
        c, d = y.numerator, y.denominator
        value = sum(sign * ((a * p * d + e * c * q) // (q * d))
                    for sign, a, e in terms)
        best = value if best is None else min(best, value)
    return best


def farey_scan_table(terms, order):
    """The carry-minimum table from a scan of all Farey fractions of the
    given order, each interval sampled at its left end and midpoint."""
    grid = sorted({Fraction(0)} | {Fraction(a, b) for b in range(2, order + 1)
                                   for a in range(1, b)})
    values = []
    for lo, hi in zip(grid, grid[1:] + [Fraction(1)]):
        value = enumerated_min_over_y(terms, lo)
        assert enumerated_min_over_y(terms, (lo + hi) / 2) == value
        values.append(value)
    return StepFunction.build(grid, values)


def unmerged_min_over_y(terms, x):
    """Reference: min over y at x by the sweep over every term as given,
    with no merging, Fraction arithmetic and a reduced x."""
    p, q = x.numerator, x.denominator
    period = math.lcm(*(abs(e) for _, _, e in terms if e)) * q
    total = 0
    steps = {}
    for sign, a, e in terms:
        total += sign * (a * p // q)
        if e == 0:
            continue
        spacing = period // abs(e)
        first = -(period // q // e) * a * p % spacing
        key, delta = (2 * first, sign) if e > 0 else (2 * first + 1, -sign)
        for k in range(key or 2 * spacing, 2 * period, 2 * spacing):
            steps[k] = steps.get(k, 0) + delta
    best = total
    for k in sorted(steps):
        total += steps[k]
        best = min(best, total)
    return best


def unmerged_table(terms):
    """Reference: the carry-minimum table from the terms as given, every
    point of (1/D)Z and every gap midpoint evaluated as a Fraction."""
    sloped = {(a, e) for _, a, e in terms if e}
    dens = {abs(a) for _, a, e in terms if not e and a}
    dens |= {abs(a1 * e2 - a2 * e1) for a1, e1 in sloped for a2, e2 in sloped}
    dens.discard(0)
    grid = sorted({Fraction(0)} | {Fraction(j, d) for d in dens
                                   for j in range(1, d)})
    values = []
    for lo, hi in zip(grid, grid[1:] + [Fraction(1)]):
        value = unmerged_min_over_y(terms, lo)
        assert unmerged_min_over_y(terms, (lo + hi) / 2) == value
        values.append(value)
    return StepFunction.build(grid, values)


@st.composite
def periodic_floor_sums(draw):
    """Random floor sums sum sign*floor(a x + e y), made periodic in both
    arguments by one balancing term; y-free terms are frequent.  Some
    (a, e) pairs repeat, and some repeats cancel to a net sign of 0."""
    terms = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 2]),
                                    st.integers(-7, 7),
                                    st.sampled_from([-2, -1, 0, 0, 1, 2])),
                          min_size=2, max_size=5))
    for sign, a, e in draw(st.lists(st.sampled_from(terms), max_size=3)):
        terms.append((draw(st.sampled_from([-sign, -1, 1])), a, e))
    sum_a = sum(sign * a for sign, a, _ in terms)
    sum_e = sum(sign * e for sign, _, e in terms)
    return (*terms, (1, -sum_a, -sum_e))


unit_fractions = st.fractions(min_value=0, max_value=1,
                              max_denominator=500).filter(lambda f: 0 < f < 1)


class TestCarryMinTable:
    def test_section2_table(self):
        table = carry_min_table(SECTION2_SHAPE)
        assert table.breakpoints == (Fraction(0), Fraction(1, 3), Fraction(1, 2))
        assert table.values == (0, 1, 2)
        # the paper's six-term sum has the same minimum over y
        assert unmerged_table(SIX_TERMS) == table

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=500),
           st.randoms(use_true_random=False))
    def test_table_is_min_over_random_y(self, x, rnd):
        if x == 1:
            x = Fraction(0)
        ys = [Fraction(rnd.randrange(997), 997) for _ in range(50)]
        # the paper's six-term sum never falls below the basic family's table
        assert (min(floor_sum(SIX_TERMS, x, y) for y in ys)
                >= carry_min_table(SECTION2_SHAPE).value_at(x))
        for eta in (SECTION2_SHAPE, THEOREM1_ETA):
            table_val = carry_min_table(eta).value_at(x)
            assert min(carry_value(eta, x, y) for y in ys) >= table_val
            exact, witness = carry_min_value(eta, x)
            assert exact == table_val
            assert carry_value(eta, x, witness) == table_val

    @settings(max_examples=25, deadline=None)
    @given(admissible_general((5, 7), 14).map(lambda case: case[2]),
           st.lists(unit_fractions, min_size=1, max_size=5),
           st.randoms(use_true_random=False))
    @example((5, 1, 1, 1, 1, 1), [Fraction(1, 2)], random.Random(0))
    def test_matches_farey_scan(self, eta, xs, rnd):
        table = carry_min_table(eta)
        order = 2 * eta[0] + 2 * max(eta[1:])
        assert table == farey_scan_table(_terms(eta), order)
        for x in xs:
            value, witness = carry_min_value(eta, x)
            assert value == table.value_at(x)
            assert carry_value(eta, x, witness) == value
            assert all(carry_value(eta, x, Fraction(rnd.randrange(997), 997))
                       >= value for _ in range(30))

    @settings(max_examples=150, deadline=None)
    @given(periodic_floor_sums(), unit_fractions)
    @example(((1, 2, 1), (-1, 2, 1), (1, 3, 0), (-1, 3, 0), (1, 1, -1),
              (-1, 1, 1), (1, 0, 2)), Fraction(1, 3))
    def test_candidates_complete_for_any_periodic_sum(self, terms, r):
        # the sweep over the merged terms equals enumeration over the terms
        # as given at every candidate, and min over y does not change
        # inside any gap between consecutive candidates of the merged sum
        merged = _merged_terms(terms)
        assert all(sign for sign, _, _ in merged)
        plan = _sweep_plan(merged)
        grid = [Fraction(p, q) for p, q in _breakpoint_candidates(merged)]
        assert grid == sorted(set(grid)) and grid[0] == 0
        for lo, hi in zip(grid, grid[1:] + [Fraction(1)]):
            p1, q1, p2, q2 = *lo.as_integer_ratio(), *hi.as_integer_ratio()
            assert (_min_over_y(plan, p1, q1)[0]
                    == enumerated_min_over_y(terms, lo))
            inside = enumerated_min_over_y(terms, lo + r * (hi - lo))
            # the midpoint as an unreduced p/q
            assert _min_over_y(plan, p1 * q2 + p2 * q1, 2 * q1 * q2)[0] == inside

    @settings(max_examples=20, deadline=None)
    @given(admissible_general((3, 5, 7), 14).map(lambda case: case[2]))
    @example(THEOREM1_ETA)
    # y-free terms whose signs cancel: (3, 0) and (1, 0), then (5, 0)
    @example((5, 1, 2, 2))
    @example((9, 2, 3, 3))
    def test_merged_table_equals_the_unmerged_one(self, eta):
        assert carry_min_table(eta) == unmerged_table(_terms(eta))

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(st.just(SECTION2_SHAPE), admissible_general(
        (3, 5, 7), 14).map(lambda case: case[2])))
    @example(THEOREM1_ETA)
    def test_pruned_candidates_give_the_same_table(self, eta):
        # crossings lie in (g/D)Z, g = gcd(e1, e2): the candidates over D/g
        # are a subset of those over D, and the table built on them is the
        # one built on all of them
        terms = _merged_terms(_terms(eta))
        assert (set(_breakpoint_candidates(terms))
                <= set(full_breakpoint_candidates(terms)))
        with mock.patch.object(numtheory, "_breakpoint_candidates",
                               full_breakpoint_candidates):
            reference = carry_min_table.__wrapped__(eta)
        assert carry_min_table.__wrapped__(eta) == reference

    def test_candidate_counts(self):
        for terms, count in ((_terms(THEOREM1_ETA), 214), (SIX_TERMS, 8),
                             (_terms(SECTION2_SHAPE), 8)):
            assert len(_breakpoint_candidates(_merged_terms(terms))) == count

    def test_a_candidate_unlike_its_right_gap_raises(self, monkeypatch):
        # floor(x) + floor(-x) is 0 at x = 0 and -1 on (0, 1): a table of
        # right-continuous pieces cannot hold it
        monkeypatch.setattr(numtheory, "_terms",
                            lambda eta: ((1, 1, 0), (1, -1, 0)))
        with pytest.raises(ValueError, match=r"minimum 0 at 0 differs from "
                           r"its value -1 on \(0, 1\)"):
            carry_min_table.__wrapped__(SECTION2_SHAPE)

    def test_step_function_validation(self):
        with pytest.raises(ValueError):
            StepFunction((Fraction(1, 3),), (1,))  # must start at 0
        with pytest.raises(ValueError):
            StepFunction((Fraction(0), Fraction(1, 2)), (1, 1))  # unmerged
        merged = StepFunction.build([0, Fraction(1, 3), Fraction(1, 2)], [0, 0, 2])
        assert merged.breakpoints == (Fraction(0), Fraction(1, 2))


class TestCapitalPhi:
    def test_section2_n20(self):
        phi = capital_phi(section2(3, 20))
        assert int(phi) == 11 ** 2 * 13 ** 2 == 20449

    def test_section2_n4_empty(self):
        assert int(capital_phi(section2(3, 4))) == 1

    def test_theorem1_n2(self):
        phi = capital_phi(general(THEOREM1_ETA, 2))
        assert dict(phi.factors) == {13: 2, 17: 4, 19: 4}

    def test_matches_pointwise_minimum(self):
        profile = section2(3, 36)
        table_version = capital_phi(profile)
        direct = {}
        for p in sieve_primes(profile.d_index):
            if p * p <= profile.phi_lower_sq:
                continue
            e, _ = carry_min_value(profile.shape, Fraction(profile.n, p))
            if e:
                direct[p] = e
        assert dict(table_version.factors) == direct


def assert_window_reads_the_table(profile):
    """Every exponent of the prime window, taken pointwise, is the carry
    table's value at n/p, and the window is every p <= d_index with
    p*p > phi_lower_sq."""
    table = carry_min_table(profile.shape)
    window = list(numtheory._prime_window(profile))
    assert [p for p, _ in window] == [
        p for p in sieve_primes(profile.d_index) if p * p > profile.phi_lower_sq]
    for p, e in window:
        assert e == table.value_at(Fraction(profile.n, p)), p


class TestPointwiseWindow:
    """``_prime_window`` sweeps y at each n/p instead of reading the carry
    table; both must give the same exponents."""

    @pytest.mark.parametrize("n", [2, 4, 6, 12, 24, 48])
    def test_theorem1(self, n):
        assert_window_reads_the_table(general(THEOREM1_ETA, n))

    # (5, 22) and (3, 22): the window prime 11 divides n, so x = 0
    @pytest.mark.parametrize("s,n", [(3, 2), (3, 20), (5, 22), (3, 22),
                                     (17, 16)])
    def test_section2(self, s, n):
        assert_window_reads_the_table(section2(s, n))

    @settings(max_examples=40, deadline=None)
    @given(admissible_general(), st.integers(1, 6))
    def test_general(self, case, scale):
        s, n, eta = case
        assert_window_reads_the_table(Profile("general", s, n * scale, eta))


def euler_maclaurin_digamma(x: Fraction, terms: int = 20, shift: int = 60):
    """Series oracle for the digamma comparison, in plain mpf arithmetic;
    the mpf it ends with, converted to a Fraction exactly."""
    import mpmath
    from mpmath.libmp import to_rational

    with mpmath.workdps(90):
        t = mpmath.mpf(x.numerator) / x.denominator
        acc = mpmath.mpf(0)
        while t < shift:
            acc -= 1 / t
            t += 1
        # asymptotic expansion at large argument
        acc += mpmath.log(t) - 1 / (2 * t)
        t2 = 1 / (t * t)
        power = t2
        for j in range(1, terms + 1):
            b = mpmath.bernoulli(2 * j)
            acc -= b / (2 * j) * power
            power *= t2
        return Fraction(*to_rational(acc._mpf_))


class TestDigamma:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (1, 3), (2, 3), (7, 5), (31, 24)])
    def test_against_series_oracle(self, p, q):
        val = digamma_rational(p, q, 128)
        oracle = euler_maclaurin_digamma(Fraction(p, q))
        assert abs(val.mid - oracle) < 1e-45

    def test_known_decimals(self):
        assert abs(digamma_rational(1, 1, 96).mid - (-0.5772156649)) < 1e-9
        assert abs(digamma_rational(1, 2, 96).mid - (-1.9635100260)) < 1e-9

    def test_kappa_combination(self):
        with working_precision(160):
            k = ((digamma_rational(1, 2, 160) - digamma_rational(1, 3, 160) - 1)
                 + 2 * (digamma_rational(1, 1, 160) - digamma_rational(1, 2, 160) - 1))
        assert abs(k.mid - Fraction("0.9411124762")) < 1e-10

    def test_precision_doubling_agrees(self):
        for (p, q) in [(1, 3), (5, 7), (3, 2)]:
            lo = digamma_rational(p, q, 64)
            hi = digamma_rational(p, q, 128)
            assert abs(lo.mid - hi.mid) <= lo.rad + hi.rad

    @given(st.integers(1, 300), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_against_series_oracle_random(self, p, q):
        val = digamma_rational(p, q, 128)
        oracle = euler_maclaurin_digamma(Fraction(p, q))
        assert abs(val.mid - oracle) < 1e-45
        assert val.rad <= Fraction(2) ** -127 * abs(val.mid)

    def test_second_pass_adds_the_missing_bits(self, monkeypatch):
        # psi(19/13) = -9.07e-5 >= 2**-14 in size: a first pass 60 bits short
        # misses the relative radius, and the second asks for 14 + 1 more
        real, calls = balls.digamma_sum, []

        def short_first(weights, precision, *rest):
            calls.append(precision)
            return real(weights, precision - 60 * (len(calls) == 1), *rest)

        monkeypatch.setattr(balls, "digamma_sum", short_first)
        val = digamma_rational(19, 13, 128)
        assert calls == [128, 128 + 2 + 13]
        assert val.rad <= Fraction(2) ** -127 * abs(val.mid)
        assert abs(val.mid - euler_maclaurin_digamma(Fraction(19, 13))) < 1e-45

    def test_radius_contract(self):
        v = digamma_rational(22, 7, 200)
        assert v.rad <= Fraction(2) ** -199 * abs(v.mid)

    def test_errors(self):
        with pytest.raises(ZeroDivisionError):
            digamma_rational(1, 0, 64)
        with pytest.raises(ValueError):
            digamma_rational(0, 3, 64)


class TestPhiExponent:
    def test_section2_is_kappa(self):
        val = phi_exponent(section2(17, 2), 160)
        assert abs(val.mid - Fraction("0.9411124762")) < 1e-10

    def test_zero_table_gives_zero(self):
        table = StepFunction((Fraction(0),), (0,))
        val = phi_exponent_from_table(table, Fraction(1), 64)
        assert val.mid == 0 and val.rad == 0

    def test_theorem1_value(self):
        val = phi_exponent(general(THEOREM1_ETA, 2), 192)
        assert abs((143 - val.mid) - Fraction("100.23354349")) < 1e-6

    def test_sieved_anchor_small(self):
        # quick version of the large-n anchor (prime-counting converges ~1/log n)
        profile = section2(3, 10 ** 5)
        approx = phi_exponent_sieved(profile)
        exact = phi_exponent(section2(3, 2), 64)
        assert abs(approx - float(exact.mid)) < 1.5e-2


def reference_digamma(x: Fraction, precision: int) -> BallReal:
    """Reference: the per-point digamma that ``digamma_sum`` replaced, one
    Gauss sum per point with its own sines, cosines and logs, at growing
    guard bits until the relative radius is met."""
    tol = Fraction(2) ** (1 - precision)
    for attempt in range(6):
        bits = precision + 48 + 64 * attempt
        with working_precision(bits):
            k = math.floor(x)
            frac = x - k
            if frac == 0:
                val = -euler_gamma(bits + 32) + BallReal(
                    sum((Fraction(1, j) for j in range(1, k)), Fraction(0)))
            else:
                shift = sum((1 / (frac + j) for j in range(k)), Fraction(0))
                a, b = frac.numerator, frac.denominator
                pi = ball_pi()
                val = -euler_gamma(bits + 32) - BallReal(Fraction(2 * b)).log()
                # sin(pi a/b) = cos(pi (b - 2a)/(2b))
                if 2 * a != b:
                    val = val - pi / 2 * (ball_cos(pi * Fraction(a, b))
                                          / ball_cos(pi * Fraction(b - 2 * a, 2 * b)))
                for m in range(1, (b - 1) // 2 + 1):
                    c = ball_cos(pi * Fraction(2 * m * a, b))
                    val = val + 2 * c * ball_cos(pi * Fraction(b - 2 * m, 2 * b)).log()
                val = val + BallReal(shift)
        if val.rad <= tol * abs(val.mid) or (
                val.rad <= Fraction(2) ** -precision and val.contains_zero()):
            return val
    raise ArithmeticError("reference digamma failed to reach target radius")


def reference_phi_exponent_from_table(table, mu, precision):
    """Reference: the growth rate as a loop over ``reference_digamma``."""
    mu, clipped, cache = Fraction(mu), Fraction(0), {}

    def psi1(x):
        if x not in cache:
            cache[x] = reference_digamma(1 + x, precision + 16)
        return cache[x]

    with working_precision(precision + 32):
        acc = BallReal(0)
        for lo, hi, c in table.intervals():
            if c == 0:
                continue
            acc = acc + c * (psi1(hi) - psi1(lo))
            top = mu if lo == 0 else min(1 / lo, mu)
            if top - 1 / hi > 0:
                clipped += c * (top - 1 / hi)
        return acc + BallReal(clipped)


breakpoint_fractions = st.integers(2, 40).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q)))


@st.composite
def step_tables(draw):
    """Step functions with breakpoints of denominator <= 40, values -3..5."""
    points = sorted(set(draw(st.lists(breakpoint_fractions, max_size=8))))
    values = draw(st.lists(st.integers(-3, 5), min_size=len(points) + 1,
                           max_size=len(points) + 1))
    return StepFunction.build([Fraction(0)] + points, values)


@contextlib.contextmanager
def pushed_kernels(signs: dict[str, int]):
    """``balls``' fixed-point kernels, each value moved by its sign in
    ``signs`` times 255 times its error bound, and the bound made 256 times
    as large so that it still holds: the value then sits near the end of
    its bound, where an error term the pass leaves out shows."""
    saved = {name: getattr(balls, name) for name in signs}

    def pushed(kernel, sign):
        def run(*args):
            value, err = kernel(*args)
            return value + sign * 255 * err, 256 * err
        return run

    try:
        for name, sign in signs.items():
            if sign:
                setattr(balls, name, pushed(saved[name], sign))
        yield
    finally:
        for name, kernel in saved.items():
            setattr(balls, name, kernel)


@st.composite
def digamma_weights(draw):
    """Zero-sum weights, |w| <= 5, at up to 8 points k + a/b with b <= 40
    and k <= 3: up to four pairs of points carrying +w and -w."""
    point = st.builds(lambda k, b, a: k + Fraction(a % b, b),
                      st.integers(0, 3), st.integers(1, 40),
                      st.integers(0, 39)).filter(bool)
    weights = {}
    for x, y, w in draw(st.lists(st.tuples(point, point, st.integers(1, 5)),
                                 max_size=4)):
        weights[x] = weights.get(x, 0) + w
        weights[y] = weights.get(y, 0) - w
    assume(all(abs(w) <= 5 for w in weights.values()))
    return {x: w for x, w in weights.items() if w}


class TestDigammaSum:
    @given(step_tables(), st.fractions(1, 3, max_denominator=12),
           st.sampled_from([64, 128, 256]))
    @settings(max_examples=60, deadline=None)
    @example(carry_min_table(THEOREM1_ETA), Fraction(1), 256)
    @example(carry_min_table(SECTION2_SHAPE), Fraction(3, 2), 128)
    def test_table_sum_matches_per_point_loop(self, table, mu, precision):
        new = phi_exponent_from_table(table, mu, precision)
        ref = reference_phi_exponent_from_table(table, mu, precision)
        assert new.overlaps(ref)
        assert new.rad <= ref.rad

    def test_theorem1_folds_into_thirteen_denominators(self):
        # 50 points with sum of denominators 828 share 13 denominators (the
        # integer points 0 and 1 count as b = 1) with sum 154
        table = carry_min_table(THEOREM1_ETA)
        points = {x for lo, hi, c in table.intervals() if c for x in (lo, hi)}
        dens = {x.denominator for x in points}
        assert len(points) == 50
        assert sum(x.denominator for x in points) == 828
        assert (len(dens), sum(dens)) == (13, 154)

    def test_one_point_is_digamma_rational(self):
        psi2 = reference_digamma(Fraction(2), 128)
        for x in (Fraction(1), Fraction(7, 3), Fraction(50, 41)):
            val = digamma_rational(x.numerator, x.denominator, 128)
            ref = reference_digamma(x, 128)
            assert val.overlaps(ref)
            with working_precision(160):
                assert (ref - psi2).overlaps(balls.digamma_sum(
                    {x: 1, Fraction(2): -1}, 128, Fraction(0)))

    @settings(max_examples=100, deadline=None)
    @given(digamma_weights(), st.sampled_from([32, 64, 256]),
           st.fixed_dictionaries(dict.fromkeys(
               ("_cos_sin_fixed", "_log_fixed", "_pi"),
               st.sampled_from([0, 1, -1]))))
    @example({}, 64, {})
    @example({Fraction(1): 2, Fraction(2): -3, Fraction(4): 1}, 32, {})
    # the cot of pi/40; then, the cots cancelled, the logs near c = 1, whose
    # coefficients c_(m a) - 1 are near -2 for a/b = 19/40 and 21/40
    @example({Fraction(1, 40): 5, Fraction(1): -5}, 64, {"_cos_sin_fixed": 1})
    @example({Fraction(19, 40): 5, Fraction(21, 40): 5, Fraction(1): -5,
              Fraction(2): -5}, 64, {"_cos_sin_fixed": 1})
    def test_fixed_point_pass_encloses_the_sum(self, weights, precision, push):
        """The ball overlaps the ball-operation pass, holds mpmath's sum at
        twice the precision (up to that sum's own rounding) and has radius
        at most 2**-precision, also with the kernels' values pushed to the
        ends of their error bounds (``pushed_kernels``): the pass must hold
        for any kernel values within their bounds.
        """
        import mpmath
        from mpmath.libmp import to_rational

        with pushed_kernels(push):
            val = balls.digamma_sum(weights, precision, Fraction(0))
        assert val.overlaps(digamma_sum(weights, precision, Fraction(0)))
        with mpmath.workprec(2 * precision):
            ref = mpmath.fsum(w * mpmath.digamma(mpmath.mpf(x.numerator)
                                                 / x.denominator)
                              for x, w in weights.items())
        slack = Fraction(2) ** (12 - 2 * precision)
        assert abs(Fraction(*to_rational(ref._mpf_)) - val.mid) <= val.rad + slack
        assert val.rad <= Fraction(2) ** -precision

    @pytest.mark.parametrize("weights", [
        {Fraction(1): 1}, {Fraction(7, 3): 2, Fraction(1, 2): -1}])
    def test_nonzero_weight_sum_raises(self, weights):
        with pytest.raises(ValueError, match="sum to 0"):
            balls.digamma_sum(weights, 64, Fraction(0))
