import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import to_rational

from betaforms import numerics
from betaforms.balls import BallReal, ball_pi, working_precision
from betaforms.decomposition import beta_coefficients
from betaforms.numerics import (_LOG2_ACCEL, _PI_LOWER, _beta_enclosure,
                                _boole_sum, _chebyshev_normalizer,
                                _choose_tail_parameters,
                                _direct_sum, _tail_remainder_bound,
                                alternating_series_tail, beta_value,
                                consistency_check, decomposition_value,
                                mc_integral, r_n_series)
from betaforms.profiles import THEOREM1_ETA, general, section2
from betaforms.rationalfn import (LinearProductRep, build_general,
                                  build_section2, partial_fractions)
from betaforms.series import divide_trunc, euler_numbers_at_zero, mul_linear

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


def reference_beta_enclosure(i, precision):
    """Reference: the exact-Fraction Chebyshev sum that the fixed-point one
    replaced, as its (mid, radius) = (sum/d, 1/d)."""
    n = int((precision + 4) / _LOG2_ACCEL) + 3
    d = _chebyshev_normalizer(n)
    b, c, s = Fraction(-1), Fraction(-d), Fraction(0)
    for k in range(n):
        c = b - c
        s += c / Fraction(2 * k + 1) ** i
        b *= Fraction(2 * (k + n) * (k - n), (2 * k + 1) * (k + 1))
    return s / d, Fraction(1, d)


def beta_oracle(i, bits):
    """beta(i) = 4**-i (zeta(i, 1/4) - zeta(i, 3/4)), pi/4 at i = 1."""
    with mpmath.workprec(bits):
        if i == 1:
            return +mpmath.pi / 4
        quarter = mpmath.mpf(1) / 4
        return (mpmath.zeta(i, quarter) - mpmath.zeta(i, 3 * quarter)) / 4 ** i


BETA_PRECISIONS = (32, 64, 256, 768, 1024)


class TestBetaFixedPoint:
    @pytest.mark.parametrize("precision", BETA_PRECISIONS)
    def test_rounding_bound_covers_the_exact_sum(self, precision):
        for i in range(1, 17):
            mid, rad = _beta_enclosure(i, precision)
            ref_mid, ref_rad = reference_beta_enclosure(i, precision)
            # what the radius adds to 1/d covers the floors' loss, and is
            # under 2**-16 of 1/d
            assert abs(mid - ref_mid) <= rad - ref_rad
            assert rad - ref_rad <= ref_rad / 2 ** 16

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


class TestBooleTail:
    def test_toy_against_beta(self):
        # sum_{nu>=0} (-1)^nu (nu+1/2)^-2 = 4 beta(2)
        toy = LinearProductRep.build(1, [], [(Fraction(-1, 2), 2)])
        table = partial_fractions(toy)
        ev = alternating_series_tail(toy, table, Fraction(0), 0,
                                     Fraction(2) ** -180, 160)
        four_g = beta_value(2, 200) * 4
        assert ev.value.overlaps(four_g)
        assert ev.tail_bound <= Fraction(2) ** -180


def per_entry_remainder_bound(table, shift, a, m):
    """The Boole remainder bound summed entry by entry in Fractions."""
    total = Fraction(0)
    for i, k, c in table.entries():
        if not c:
            continue
        dist = a + shift + k + table.pole_offset
        if dist <= 0:
            raise ValueError("tail cutoff does not clear the poles")
        rising = Fraction(1)
        for j in range(m):
            rising *= i + j
        total += abs(c) * rising / ((i + m - 1) * dist ** (i + m - 1))
    return 3 * total / _PI_LOWER ** m


class TestRemainderBound:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([section2(5, 2), section2(17, 2),
                            general(THEOREM1_ETA, 2)]),
           st.integers(1, 400), st.integers(1, 260))
    def test_matches_per_entry_sum(self, bundle, profile, a, m):
        b = bundle(profile)
        shift = profile.series_argument_shift
        a = max(profile.series_start, 1) + a
        assert (_tail_remainder_bound(b.table, shift, a, m)
                == per_entry_remainder_bound(b.table, shift, a, m))

    def test_cutoff_inside_poles_raises(self, bundle):
        b = bundle(general(THEOREM1_ETA, 2))
        with pytest.raises(ValueError):
            _tail_remainder_bound(b.table, Fraction(0),
                                  -max(b.table.pole_ks) - 1, 32)

    @pytest.mark.parametrize("profile", suite_profiles(), ids=lambda p: p.label())
    def test_resumed_search_matches_full_ladder(self, bundle, profile):
        b = bundle(profile)
        shift, start = profile.series_argument_shift, profile.series_start
        bounds = {}  # the exact bound on each ladder rung, as it is needed

        def full_ladder(target):
            m = 32
            while True:
                a = max(start, 1) + 2 * m
                if m not in bounds:
                    bounds[m] = _tail_remainder_bound(b.table, shift, a, m)
                if bounds[m] <= target:
                    return a, m, bounds[m]
                m = m * 3 // 2

        m = 32
        for tbits in (64, 128, 256, 512, 1024, 2048):
            target = Fraction(2) ** -tbits
            found = _choose_tail_parameters(b.table, shift, start, target, m)
            assert found == full_ladder(target)
            m = found[1]

    def test_search_returns_the_bound_it_accepted(self, bundle):
        b = bundle(section2(5, 2))
        shift = b.profile.series_argument_shift
        target = Fraction(2) ** -200
        a, m, bound = _choose_tail_parameters(
            b.table, shift, b.profile.series_start, target)
        assert bound == per_entry_remainder_bound(b.table, shift, a, m)
        assert bound <= target


def loop_direct_sum(rep, shift, start, stop):
    """The term-by-term alternating sum the binary splitting replaced."""
    direct = Fraction(0)
    for nu in range(start, stop):
        v = rep.evaluate(nu + shift)
        direct += v if nu % 2 == 0 else -v
    return direct


class TestDirectSum:
    @settings(max_examples=60, deadline=None)
    @given(any_rep, st.sampled_from([Fraction(0), Fraction(-1, 2)]),
           st.integers(0, 30), st.integers(1, 150))
    @example(build_general(general(THEOREM1_ETA, 2)), Fraction(0), 0, 487)
    @example(build_section2(17, 2), Fraction(-1, 2), 0, 216)
    def test_matches_loop(self, rep, shift, offset, length):
        # start past the last root, as every profile's series does
        roots = [r for r, _ in rep.num_roots + rep.den_roots]
        start = math.floor(max(roots) - shift) + 1 + offset
        stop = start + length
        assert (_direct_sum(rep, shift, start, stop)
                == loop_direct_sum(rep, shift, start, stop))

    def test_zero_of_q_in_range_raises(self):
        # f vanishes at t = 3/2 (nu = 2) and not at t = 5/2: q(2) = 0
        rep = build_section2(3, 2)
        assert _direct_sum(rep, Fraction(-1, 2), 0, 2) == 0
        with pytest.raises(ValueError):
            _direct_sum(rep, Fraction(-1, 2), 0, 5)


def exact_boole_sum(rep, x0, m):
    """sum_{k<m} E_k(0) s_k from Fraction products and series division."""
    num = [rep.scalar]
    for r, mult in rep.num_roots:
        for _ in range(mult):
            num = mul_linear(num, x0 - r, m)
    den = [Fraction(1)]
    for r, mult in rep.den_roots:
        for _ in range(mult):
            den = mul_linear(den, x0 - r, m)
    taylor = divide_trunc(num, den, m)
    return sum(e * c for e, c in zip(euler_numbers_at_zero(m), taylor))


class TestBooleSum:
    @settings(max_examples=60, deadline=None)
    @given(any_rep, st.integers(0, 80), st.integers(1, 60),
           st.integers(1, 1000), st.integers(-20, 400))
    def test_error_bound_holds(self, rep, steps, m, c, t):
        x0 = max(r for r, _ in rep.den_roots) + 1 + Fraction(steps, 2)
        tolerance = Fraction(c, 2 ** t) if t >= 0 else Fraction(c << -t)
        value, error = _boole_sum(rep, x0, m, tolerance)
        assert abs(exact_boole_sum(rep, x0, m) - value) <= error <= tolerance

    def test_cutoff_inside_poles_raises(self):
        rep = build_section2(5, 2)
        with pytest.raises(ValueError):
            _boole_sum(rep, Fraction(1, 2), 8, Fraction(1, 2 ** 64))


def exact(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def test_exact_keeps_the_sign():
    # mpf.man holds the magnitude; the sign lives in the first _mpf_ field
    assert exact(mpmath.mpf(-3.25)) == Fraction(-13, 4)
    assert exact(mpmath.mpf(3.25)) == Fraction(13, 4)


def record_tail_calls(monkeypatch):
    """(target, working precision, evaluation) of every tail call."""
    calls = []
    original = numerics.alternating_series_tail

    def recording(*args, **kwargs):
        ev = original(*args, **kwargs)
        calls.append((args[4], args[5], ev))
        return ev

    monkeypatch.setattr(numerics, "alternating_series_tail", recording)
    return calls


def plain_descent(profile, precision, rep, table):
    """The descent that evaluates every rung: the reference for which call
    decides."""
    shift, start = profile.series_argument_shift, profile.series_start
    tbits = precision + 16
    ev = numerics.alternating_series_tail(rep, table, shift, start,
                                          Fraction(2) ** -tbits, precision)
    while ev.value.contains_zero():
        tbits *= 2
        ev = numerics.alternating_series_tail(rep, table, shift, start,
                                              Fraction(2) ** -tbits, tbits - 16)


def assert_same_deciding_call(monkeypatch, profile, precision, rep, table,
                              decomposition):
    """The deciding (target, precision, cutoff, order, bound, ball) of
    ``consistency_check`` and of ``r_n_series`` alone equal the plain
    descent's."""
    calls = record_tail_calls(monkeypatch)

    def deciding():
        target, work, ev = calls[-1]
        calls.clear()
        return (target, work, ev.direct_terms, ev.tail_order, ev.tail_bound,
                ev.value.lower, ev.value.upper)

    plain_descent(profile, precision, rep, table)
    expected = deciding()
    consistency_check(profile, precision, rep=rep, table=table,
                      decomposition=decomposition)
    assert deciding() == expected
    r_n_series(profile, precision, rep=rep, table=table)
    assert deciding() == expected


class TestRnSeries:
    @pytest.mark.parametrize("profile, precisions", [
        (general(THEOREM1_ETA, 2), [256, 528]),
        (general(THEOREM1_ETA, 4), [256, 528]),
        (section2(17, 2), [256])],
        ids=["theorem1-2", "theorem1-4", "section2-s17"])
    def test_every_tail_radius_is_at_most_twice_its_bound(
            self, bundle, monkeypatch, profile, precisions):
        calls = record_tail_calls(monkeypatch)
        b = bundle(profile)
        r_n_series(profile, 256, rep=b.rep, table=b.table)
        assert [precision for _, precision, _ in calls] == precisions
        assert all(ev.value.rad <= 2 * ev.tail_bound
                   for _, _, ev in calls)

    def test_consistency_check_makes_one_tail_call_on_theorem1_n2(
            self, bundle, monkeypatch):
        # the decomposition bounds |r| by about 2**-316, below the first
        # rung's bound, so the 2**-272 rung is skipped
        calls = record_tail_calls(monkeypatch)
        b = bundle(general(THEOREM1_ETA, 2))
        consistency_check(b.profile, 256, rep=b.rep, table=b.table,
                          decomposition=b.decomposition)
        assert [precision for _, precision, _ in calls] == [528]

    def test_repeated_cutoff_and_order_are_skipped(self, monkeypatch):
        # at n = 6 the bound accepted for 2**-80 already meets 2**-320
        calls = record_tail_calls(monkeypatch)
        r_n_series(general(THEOREM1_ETA, 6), 64)
        assert [(ev.direct_terms, ev.tail_order) for _, _, ev in calls] == [
            (729, 364), (1093, 546)]

    @pytest.mark.parametrize("precision", [128, 256])
    @pytest.mark.parametrize("profile", suite_profiles(), ids=lambda p: p.label())
    def test_deciding_call_matches_plain_descent(self, bundle, monkeypatch,
                                                 profile, precision):
        b = bundle(profile)
        assert_same_deciding_call(monkeypatch, b.profile, precision, b.rep,
                                  b.table, b.decomposition)

    @settings(max_examples=6, deadline=None)
    @given(admissible_general((5, 7), 12).filter(lambda case: case[1] <= 2))
    def test_deciding_call_matches_on_random_profiles(self, case):
        _, n, eta = case
        profile = general(eta, n)
        rep = build_general(profile)
        table = partial_fractions(rep)
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_same_deciding_call(monkeypatch, profile, 128, rep, table,
                                      beta_coefficients(table, profile))

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
