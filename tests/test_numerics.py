import importlib.util
import math
import operator
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import to_rational

from betaforms import cli, numerics
from betaforms.balls import BallReal, ball_pi, floor_log2, working_precision
from betaforms.decomposition import beta_coefficients
from betaforms.numerics import (_beta_enclosure, _chebyshev_pass,
                                _chebyshev_weights, _least_size,
                                _moment_bound, _term_ratios,
                                SeriesEvaluation, alternating_series_tail, beta_value,
                                consistency_check, decomposition_value,
                                mc_integral, r_n_series)
from betaforms.profiles import THEOREM1_ETA, general, section2
from betaforms.rationalfn import (LinearProductRep, build_general,
                                  build_section2, partial_fractions)

from tests.conftest import suite_profiles
from tests.test_numtheory import admissible_general
from tests.test_rationalfn import any_rep


def truncation_oracle(i, terms=40):
    """Direct alternating truncation with the first-omitted-term bound."""
    with mpmath.workdps(60):
        acc = mpmath.mpf(0)
        for k in range(terms):
            acc += mpmath.mpf(-1) ** k / (2 * k + 1) ** i
        return acc, mpmath.mpf(1) / (2 * terms + 1) ** i


class TestBetaValue:
    def test_catalan(self):
        v = beta_value(2, 256)
        with mpmath.workdps(90):
            assert abs(v.mid - exact(+mpmath.catalan)) < Fraction(2) ** -250

    def test_leibniz_anchor(self):
        v = beta_value(1, 128)
        with working_precision(140):
            quarter_pi = ball_pi() / 4
        assert v.overlaps(quarter_pi)

    def test_high_index_truncation_oracle(self):
        v = beta_value(12, 64)
        est, err = truncation_oracle(12)
        assert abs(v.mid - exact(est)) < exact(err) + v.rad
        assert abs(float(v.mid) - 0.99999812) < 1e-8

    def test_radius_contract(self):
        for i, prec in [(1, 64), (2, 256), (6, 128)]:
            v = beta_value(i, prec)
            assert v.rad <= Fraction(2) ** (1 - prec)

    @pytest.mark.parametrize("i", [1, 2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("prec", [64, 256])
    def test_doubled_precision_overlaps(self, i, prec):
        assert beta_value(i, prec).overlaps(beta_value(i, 2 * prec))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            beta_value(0, 64)


def chebyshev_t3(n):
    """T_n(3) by its recurrence T_{k+1} = 6 T_k - T_{k-1}."""
    a, b = 1, 3
    for _ in range(n):
        a, b = b, 6 * b - a
    return a


def beta_size(precision):
    """The least n with T_n(3) >= 2**(precision + 8): the size of the beta
    sum, so that its bound 1/d is at most 2**-(precision + 8)."""
    n = 1
    while chebyshev_t3(n) < 2 ** (precision + 8):
        n += 1
    return n


def reference_beta_enclosure(i, precision):
    """Reference: the exact-Fraction Chebyshev sum that the fixed-point one
    replaced, as its (mid, radius) = (sum/d, 1/d)."""
    n = beta_size(precision)
    d = chebyshev_t3(n)
    b, c, s = Fraction(-1), Fraction(-d), Fraction(0)
    for k in range(n):
        c = b - c
        s += c / Fraction(2 * k + 1) ** i
        b *= Fraction(2 * (k + n) * (k - n), (2 * k + 1) * (k + 1))
    return s / d, Fraction(1, d)


def full_power_enclosure(i, precision):
    """Reference: ``_beta_enclosure`` with every power (2k+1)**i formed,
    as it was before large powers were skipped."""
    n = beta_size(precision)
    d = chebyshev_t3(n)
    p = precision + 16 + n.bit_length()
    b, c, s = -1, -d, 0
    for k in range(n):
        c = b - c
        s += (c << p) // (2 * k + 1) ** i
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return (Fraction(2 * s + n, d << (p + 1)),
            Fraction((1 << (p + 1)) + n, d << (p + 1)))


def beta_oracle(i, bits):
    """beta(i) = 4**-i (zeta(i, 1/4) - zeta(i, 3/4)), pi/4 at i = 1."""
    with mpmath.workprec(bits):
        if i == 1:
            return +mpmath.pi / 4
        quarter = mpmath.mpf(1) / 4
        return (mpmath.zeta(i, quarter) - mpmath.zeta(i, 3 * quarter)) / 4 ** i


BETA_PRECISIONS = (32, 64, 256, 768, 1024)


class TestBetaFixedPoint:
    # 52..169: the least size is one term below what the old float rule
    # gave, so the reference's 1/d pins the size as well
    @pytest.mark.parametrize("precision", BETA_PRECISIONS
                             + (52, 80, 113, 141, 169))
    def test_rounding_bound_covers_the_exact_sum(self, precision):
        for i in range(1, 17):
            mid, rad = _beta_enclosure(i, precision)
            ref_mid, ref_rad = reference_beta_enclosure(i, precision)
            # what the radius adds to 1/d covers the floors' loss, and is
            # under 2**-16 of 1/d
            assert abs(mid - ref_mid) <= rad - ref_rad
            assert rad - ref_rad <= ref_rad / 2 ** 16

    def test_size_is_the_least_that_meets_the_bound(self):
        t3 = [chebyshev_t3(0), chebyshev_t3(1)]
        for precision in range(32, 2001):
            n, d = _least_size(1, 0, Fraction(1, 2 ** (precision + 7)))
            while len(t3) <= n:
                t3.append(6 * t3[-1] - t3[-2])
            assert d == t3[n]
            assert t3[n - 1] < 2 ** (precision + 8) <= d
            if precision == 64 or precision % 256 == 0:
                # the float rule that sized the sum before
                assert n == int((precision + 4) / 2.5431) + 3

    @pytest.mark.parametrize("precision", BETA_PRECISIONS)
    def test_ball_against_exact_sum_and_mpmath(self, precision):
        slack = Fraction(2) ** (8 - 2 * precision)  # the oracle's own error
        for i in range(1, 17):
            v = beta_value(i, precision)
            ref_mid, ref_rad = reference_beta_enclosure(i, precision)
            with working_precision(precision + 16):
                assert v.overlaps(BallReal(ref_mid, radius=ref_rad))
            assert v.rad <= Fraction(2) ** (1 - precision)
            ref = exact(beta_oracle(i, 2 * precision))
            assert v.lower - slack <= ref <= v.upper + slack


class TestBetaLargeIndex:
    @pytest.mark.parametrize("i", [40, 100, 1000, 10 ** 4])
    @pytest.mark.parametrize("precision", [64, 256, 1024])
    def test_skipped_powers_keep_every_floor(self, i, precision):
        # a power above |c| 2**p floors to 0 or -1 whether formed or not;
        # below i = 17 no power is skipped at these precisions
        assert _beta_enclosure(i, precision) == full_power_enclosure(i, precision)

    def test_index_one_million_is_fast(self):
        t0 = time.perf_counter()
        mid, rad = _beta_enclosure(10 ** 6, 64)
        assert time.perf_counter() - t0 < 1.0
        assert abs(mid - 1) <= rad


def first_start(rep, shift):
    """The least start whose terms lie right of every root of ``rep``."""
    roots = [r for r, _ in rep.num_roots + rep.den_roots]
    return math.floor(max(roots) - shift) + 1


def series_reference(table, shift, start, bits):
    """sum_{nu >= start} (-1)**nu f(nu + shift) from the pole table by
    mpmath: with X = start + shift + k + pole_offset, each entry adds
    c 2**-i (zeta(i, X/2) - zeta(i, (X+1)/2)), or c (psi((X+1)/2) -
    psi(X/2))/2 at i = 1."""
    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for i, k, c in table.entries():
            if not c:
                continue
            x = start + shift + k + table.pole_offset
            x = mpmath.mpf(x.numerator) / x.denominator
            if i == 1:
                term = (mpmath.digamma((x + 1) / 2) - mpmath.digamma(x / 2)) / 2
            else:
                term = (mpmath.zeta(i, x / 2) - mpmath.zeta(i, (x + 1) / 2)) / 2 ** i
            total += mpmath.mpf(c.numerator) / c.denominator * term
        return total if start % 2 == 0 else -total


def exact_moment_bound(table, x0):
    """B = sum |c_ik| / (x0 + k)**i in Fractions."""
    return sum(abs(c) / (x0 + k) ** i for i, k, c in table.entries() if c)


def dyadic(b, e):
    return Fraction(b, 2 ** e) if e >= 0 else Fraction(b * 2 ** -e)


shifts = st.sampled_from([Fraction(0), Fraction(-1, 2)])
# t(t-1)...(t-19) / (t+1/2)**22: from t = 20 the terms grow by about 2**18
GROWING = LinearProductRep.build(1, [(j, 1) for j in range(20)],
                                 [(Fraction(-1, 2), 22)])


class TestSeriesKernel:
    def test_toy_against_beta(self):
        # sum_{nu>=0} (-1)^nu (nu+1/2)^-2 = 4 beta(2)
        toy = LinearProductRep.build(1, [], [(Fraction(-1, 2), 2)])
        table = partial_fractions(toy)
        ev = alternating_series_tail(toy, table, Fraction(0), 0,
                                     Fraction(2) ** -180, 160)
        four_g = beta_value(2, 200) * 4
        assert ev.value.overlaps(four_g)
        assert ev.tail_bound <= Fraction(2) ** -181
        assert ev.value.rad <= Fraction(2) ** -180

    @settings(max_examples=40, deadline=None)
    @given(any_rep, shifts, st.integers(0, 30))
    def test_moment_bound_is_tight_from_above(self, rep, shift, offset):
        table = partial_fractions(rep)
        x0 = first_start(rep, shift) + offset + shift + table.pole_offset
        exact_b = exact_moment_bound(table, x0)
        assert exact_b <= dyadic(*_moment_bound(table, x0)) \
            <= exact_b * (1 + Fraction(1, 2 ** 40))

    @pytest.mark.parametrize("tbits", [64, 200, 600])
    def test_size_is_the_least_that_meets_half_the_target(self, bundle, tbits):
        b = bundle(section2(5, 2))
        target = Fraction(1, 2 ** tbits)
        ev = alternating_series_tail(b.rep, b.table, Fraction(-1, 2),
                                     b.profile.series_start, target, 64)
        n = ev.direct_terms
        bound = ev.tail_bound * chebyshev_t3(n)  # B
        assert ev.tail_bound <= target / 2 < bound / chebyshev_t3(n - 1)

    @settings(max_examples=40, deadline=None)
    @given(any_rep, shifts, st.integers(0, 6), st.integers(1, 60),
           st.integers(0, 48))
    @example(build_section2(7, 6), Fraction(-1, 2), 0, 60, 0)
    @example(GROWING, Fraction(0), 0, 60, 36)
    def test_fixed_point_error_bound_holds(self, rep, shift, offset, n, p):
        start = first_start(rep, shift) + offset
        weights = list(_chebyshev_weights(n, chebyshev_t3(n)))
        ratios, error = _term_ratios(rep, shift, start, weights)
        terms = [rep.evaluate(start + j + shift) for j in range(n)]
        got = _chebyshev_pass(terms[0], ratios, weights, p)
        assert abs(got - sum(map(operator.mul, weights, terms)) * 2 ** p) <= error
        # a unit lost on the first term grows with the terms: a_k / a_0
        assert error >= sum(abs(c) * a / terms[0] for c, a in zip(weights, terms))

    @settings(max_examples=25, deadline=None)
    @given(any_rep, shifts, st.integers(0, 20), st.sampled_from([64, 96, 160]))
    def test_ball_contains_the_zeta_reference(self, rep, shift, offset, tbits):
        table = partial_fractions(rep)
        start = first_start(rep, shift) + offset
        target = Fraction(1, 2 ** tbits)
        ev = alternating_series_tail(rep, table, shift, start, target, 64)
        assert ev.value.rad <= target
        size = exact_moment_bound(table, start + shift + table.pole_offset)
        bits = 2 * tbits + max(0, floor_log2(size)) + 32
        ref = exact(series_reference(table, shift, start, bits))
        slack = size * Fraction(2) ** (16 - bits)  # the reference's own error
        assert ev.value.lower - slack <= ref <= ev.value.upper + slack

    @pytest.mark.parametrize("profile", suite_profiles(), ids=lambda p: p.label())
    def test_radius_covers_truncation_and_fixed_point_error(
            self, bundle, monkeypatch, profile):
        b = bundle(profile)
        seen = {}
        term_ratios, chebyshev_pass = numerics._term_ratios, numerics._chebyshev_pass

        def recording_ratios(*args):
            ratios, seen["error"] = term_ratios(*args)
            return ratios, seen["error"]

        def recording_pass(first, ratios, weights, p):
            seen["p"] = p
            return chebyshev_pass(first, ratios, weights, p)

        monkeypatch.setattr(numerics, "_term_ratios", recording_ratios)
        monkeypatch.setattr(numerics, "_chebyshev_pass", recording_pass)
        target = Fraction(1, 2 ** 300)
        ev = alternating_series_tail(b.rep, b.table,
                                     profile.series_argument_shift,
                                     profile.series_start, target, 64)
        d = chebyshev_t3(ev.direct_terms)
        fixed = Fraction(seen["error"], d << seen["p"])
        assert fixed <= target / 4
        assert ev.tail_bound + fixed <= ev.value.rad <= target

    def test_zero_of_q_in_range_raises(self):
        # f vanishes at t = 3/2 (nu = 2) and not at t = 5/2: q(2) = 0
        rep = build_section2(3, 2)
        ratios, _ = _term_ratios(rep, Fraction(-1, 2), 3, [1] * 40)
        assert len(ratios) == 39
        with pytest.raises(ValueError):
            _term_ratios(rep, Fraction(-1, 2), 2, [1] * 5)

    def test_cutoff_inside_poles_raises(self, bundle):
        b = bundle(general(THEOREM1_ETA, 2))
        start = -max(b.table.pole_ks) - 1
        with pytest.raises(ValueError):
            _moment_bound(b.table, start + b.table.pole_offset)
        with pytest.raises(ValueError):
            alternating_series_tail(b.rep, b.table, Fraction(0), start,
                                    Fraction(1, 2 ** 64), 64)


def exact(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def test_exact_keeps_the_sign():
    # mpf.man holds the magnitude; the sign lives in the first _mpf_ field
    assert exact(mpmath.mpf(-3.25)) == Fraction(-13, 4)
    assert exact(mpmath.mpf(3.25)) == Fraction(13, 4)


def record_tail_calls(monkeypatch):
    """(target, working precision, evaluation) of every series pass."""
    calls = []
    original = numerics.alternating_series_tail

    def recording(*args, **kwargs):
        ev = original(*args, **kwargs)
        calls.append((args[4], args[5], ev))
        return ev

    monkeypatch.setattr(numerics, "alternating_series_tail", recording)
    return calls


def meets_relative_radius(ball, precision):
    """rad <= 2**-(precision + 64) min(1, |x|) for every x in the ball."""
    least = min(abs(ball.lower), abs(ball.upper))
    return (not ball.contains_zero()
            and ball.rad * 2 ** (precision + 64) <= min(1, least))


def assert_hint_matches_plain_descent(monkeypatch, profile, precision, rep,
                                      table, decomposition):
    """``consistency_check`` makes one series pass, at the target the
    decomposition's bound on |r| picks; its ball meets the relative radius
    and agrees with the ball of ``r_n_series`` alone, the plain descent."""
    calls = record_tail_calls(monkeypatch)
    plain = r_n_series(profile, precision, rep=rep, table=table)
    calls.clear()
    report = consistency_check(profile, precision, rep=rep, table=table,
                               decomposition=decomposition)
    assert len(calls) == 1
    for ball in (plain, report.series):
        assert meets_relative_radius(ball, precision)
    assert report.series.overlaps(plain)
    assert report.series.strictly_positive() == plain.strictly_positive()


class TestRnSeries:
    @pytest.mark.parametrize("profile", [
        general(THEOREM1_ETA, 2), general(THEOREM1_ETA, 4), section2(17, 2)],
        ids=["theorem1-2", "theorem1-4", "section2-s17"])
    def test_every_tail_radius_is_at_most_its_target(
            self, bundle, monkeypatch, profile):
        calls = record_tail_calls(monkeypatch)
        b = bundle(profile)
        r_n_series(profile, 256, rep=b.rep, table=b.table)
        assert calls
        for target, _, ev in calls:
            assert ev.tail_bound <= target / 2
            assert ev.value.rad <= target

    def test_consistency_check_makes_one_tail_call_on_theorem1_n2(
            self, bundle, monkeypatch):
        # the decomposition puts |r| in [2**-316, 2**-315), so its one pass
        # aims at 2**-(256 + 64 + 316)
        calls = record_tail_calls(monkeypatch)
        b = bundle(general(THEOREM1_ETA, 2))
        consistency_check(b.profile, 256, rep=b.rep, table=b.table,
                          decomposition=b.decomposition)
        assert [target for target, _, _ in calls] == [Fraction(1, 2 ** 636)]

    @pytest.mark.parametrize("precision", [128, 256])
    @pytest.mark.parametrize("profile", suite_profiles(), ids=lambda p: p.label())
    def test_deciding_call_matches_plain_descent(self, bundle, monkeypatch,
                                                 profile, precision):
        b = bundle(profile)
        assert_hint_matches_plain_descent(monkeypatch, b.profile, precision,
                                          b.rep, b.table, b.decomposition)

    @settings(max_examples=6, deadline=None)
    @given(admissible_general((5, 7), 12).filter(lambda case: case[1] <= 2))
    def test_deciding_call_matches_on_random_profiles(self, case):
        _, n, eta = case
        profile = general(eta, n)
        rep = build_general(profile)
        table = partial_fractions(rep)
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_hint_matches_plain_descent(
                monkeypatch, profile, 128, rep, table,
                beta_coefficients(table, profile))

    @pytest.mark.parametrize("precision", [64, 256])
    @pytest.mark.parametrize("profile", suite_profiles(), ids=lambda p: p.label())
    def test_meets_the_relative_radius(self, bundle, profile, precision):
        b = bundle(profile)
        v = r_n_series(profile, precision, rep=b.rep, table=b.table)
        assert meets_relative_radius(v, precision)

    @pytest.mark.parametrize("scale", [Fraction(2) ** 40, Fraction(2) ** -300])
    def test_a_wrong_lower_bound_only_picks_the_target(self, bundle, scale):
        # too large a bound aims too high and falls back to the descent;
        # too small a one aims lower than needed
        b = bundle(section2(5, 2))
        plain = r_n_series(b.profile, 128, rep=b.rep, table=b.table)
        hinted = r_n_series(b.profile, 128, rep=b.rep, table=b.table,
                            lower_bound=abs(plain.mid) * scale)
        assert meets_relative_radius(hinted, 128)
        assert hinted.overlaps(plain)

    def test_descent_gives_up_without_a_sign(self, bundle, monkeypatch):
        b = bundle(section2(3, 2))
        targets = []

        def straddling(rep, table, shift, start, target, precision):
            targets.append(target)
            with working_precision(precision):
                return SeriesEvaluation(BallReal(0, radius=target), 1, 0, target)

        monkeypatch.setattr(numerics, "alternating_series_tail", straddling)
        with pytest.raises(ArithmeticError):
            r_n_series(b.profile, 64, rep=b.rep, table=b.table)
        assert targets[-1] == Fraction(1, 2 ** (80 << 9))

    def test_positive_for_all_suite_profiles(self, bundle):
        for profile in suite_profiles():
            b = bundle(profile)
            v = r_n_series(profile, 128, rep=b.rep, table=b.table)
            assert v.strictly_positive(), profile.label()

    def test_section2_start_index_is_free(self):
        from betaforms.rationalfn import build_section2

        # the function vanishes at the skipped half-integer arguments,
        # so summation may start from 1, n+1, or below without changing r_n
        for (s, n) in [(3, 2), (5, 2)]:
            rep = build_section2(s, n)
            for nu in range(-(n // 2) - 1, n + 1):
                assert rep.evaluate(Fraction(nu) - Fraction(1, 2)) == 0

    def test_general_start_index_is_free(self):
        from betaforms.numerics import build_profile_rep

        profile = general((5, 1, 1, 1, 1, 1), 2)
        rep = build_profile_rep(profile)
        for nu in range(-(profile.h0 - 1) // 2, 0):
            assert rep.evaluate(Fraction(nu)) == 0

    def test_radius_shrinks_with_precision(self, bundle):
        b = bundle(section2(5, 2))
        lo = r_n_series(b.profile, 64, rep=b.rep, table=b.table)
        hi = r_n_series(b.profile, 128, rep=b.rep, table=b.table)
        assert hi.rad * 2 <= lo.rad
        assert lo.overlaps(hi)

    def test_theorem1_value_range(self, bundle):
        b = bundle(general(THEOREM1_ETA, 2))
        v = r_n_series(b.profile, 128, rep=b.rep, table=b.table)
        assert v.strictly_positive()
        assert v.upper < 1


class TestConsistency:
    def test_section2_3_2_gap(self, bundle):
        b = bundle(section2(3, 2))
        report = consistency_check(b.profile, 128, rep=b.rep, table=b.table,
                                   decomposition=b.decomposition)
        assert report.passed
        assert report.gap_bits >= 100

    def test_section2_5_4(self, bundle):
        b = bundle(section2(5, 4))
        report = consistency_check(b.profile, 256, rep=b.rep, table=b.table,
                                   decomposition=b.decomposition)
        assert report.passed

    def test_perturbation_detected(self, bundle):
        from betaforms.decomposition import DecompositionResult

        b = bundle(section2(3, 2))
        perturbed = DecompositionResult(
            b.profile,
            (b.decomposition.a[0] + Fraction(1, 10 ** 10),)
            + b.decomposition.a[1:])
        report = consistency_check(b.profile, 128, rep=b.rep, table=b.table,
                                   decomposition=perturbed)
        assert not report.passed

    @pytest.mark.parametrize("disc, zero_bits", [
        (Fraction(1, 2 ** 100), 99), (Fraction(3, 2 ** 101), 99),
        (Fraction(1, 2 ** 4000), 3999),
        (Fraction(2 ** 4000 - 1, 2 ** 8000), 4000)])
    def test_gap_bits_counts_the_zero_bits_exactly(self, monkeypatch, disc,
                                                   zero_bits):
        # gap_bits = -floor(log2 disc) - 1: the zero bits after the binary
        # point before disc's first 1, exact also at a power of 2
        with working_precision(4100):
            series, direct = BallReal(disc), BallReal(0)
        monkeypatch.setattr(numerics, "r_n_series", lambda *a, **k: series)
        monkeypatch.setattr(numerics, "decomposition_value",
                            lambda *a, **k: direct)
        report = consistency_check(section2(3, 2), 64, rep=object(),
                                   table=object(), decomposition=object())
        assert report.gap_bits == zero_bits

    def test_scaled_form_lands_in_unit_interval(self, bundle):
        # the normalized integer form of the large instance is small but positive
        b = bundle(section2(17, 2))
        v = r_n_series(b.profile, 128, rep=b.rep, table=b.table)
        scale = Fraction(b.factors.d.value()) ** 17 / b.factors.phi.value()
        with working_precision(160):
            scaled = v * scale
        assert scaled.strictly_positive() and scaled.upper < 1


def perfbench_gate():
    """``perfbench/gate.py``, the benchmark's correctness gate, loaded from
    its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gate.py"
    spec = importlib.util.spec_from_file_location("perfbench_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE_PROFILES = [general(THEOREM1_ETA, 2)] + [section2(s, s - 1)
                                               for s in range(3, 18, 2)]


class TestGateAccuracyFloor:
    """The benchmark gate's accuracy rule on its frozen references: the
    consistency check passes, r overlaps the frozen ball, and gap_bits is
    at most ``GAP_SLACK_BITS`` below the frozen value."""

    @pytest.mark.parametrize("profile", GATE_PROFILES, ids=lambda p: p.label())
    def test_meets_the_frozen_floor(self, bundle, profile):
        gate = perfbench_gate()
        if profile.is_section2:
            ref = gate.load_reference("section2")[
                gate.section2_key(profile.s, profile.n)]
        else:
            ref = gate.load_reference("theorem1")["per_n"][str(profile.n)]
        b = bundle(profile)
        check = consistency_check(profile, 256, rep=b.rep, table=b.table,
                                  decomposition=b.decomposition)
        entry = {"r": cli._ball(check.series, 256),
                 "consistency": {"passed": check.passed,
                                 "gap_bits": check.gap_bits}}
        assert gate.accuracy_problems(entry, 256, ref) == []


class TestDecompositionValue:
    def test_matches_series_within_radii(self, bundle):
        b = bundle(section2(5, 2))
        series = r_n_series(b.profile, 192, rep=b.rep, table=b.table)
        direct = decomposition_value(b.decomposition, 192)
        assert series.overlaps(direct)


class TestMonteCarlo:
    def test_agreement_and_positivity(self):
        profile = general((5, 1, 1, 1, 1, 1), 2)
        est = mc_integral(profile, 120_000, seed=99)
        series = r_n_series(profile, 96)
        assert est.mid > 0
        assert est.overlaps(series)

    def test_seed_determinism(self):
        a = mc_integral(general((5, 1, 1, 1, 1, 1), 2), 40_000, seed=7)
        b = mc_integral(general((5, 1, 1, 1, 1, 1), 2), 40_000, seed=7)
        assert a.mid == b.mid and a.rad == b.rad

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            mc_integral(general((5, 1, 1, 1, 1, 1), 2), 0, seed=1)


small_fracs = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


class TestBallArithmetic:
    @settings(max_examples=600, deadline=None)
    @given(small_fracs, small_fracs)
    def test_add_sub_roundtrip_contains(self, x, y):
        with working_precision(64):
            bx, by = BallReal(x), BallReal(y)
            assert ((bx + by) - by).contains(x)

    @settings(max_examples=400, deadline=None)
    @given(small_fracs, small_fracs)
    def test_products_contain(self, x, y):
        with working_precision(64):
            assert (BallReal(x) * BallReal(y)).contains(x * y)
            if y:
                assert (BallReal(x) / BallReal(y)).contains(x / y)

    def test_exact_constructor_and_views(self):
        with working_precision(80):
            b = BallReal(Fraction(1, 3), radius=Fraction(1, 2 ** 90))
        assert b.contains(Fraction(1, 3))
        assert b.rad >= Fraction(2) ** -90
        assert not b.contains_zero()
        assert (-b).strictly_negative()
