import importlib.util
import math
import operator
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import to_rational

from betaforms import cli, numerics
from betaforms.balls import BallReal, floor_log2, working_precision
from betaforms.decomposition import beta_coefficients
from betaforms import rationalfn
from betaforms.numerics import (_beta_enclosures, _cauchy_products,
                                _chebyshev_pass, _chebyshev_weights,
                                _least_size, _moment_bound, _term_ratios,
                                SeriesEvaluation, alternating_series_tail, beta_value,
                                consistency_check, decomposition_value,
                                r_n_series)
from betaforms.profiles import THEOREM1_ETA, general, section2
from betaforms.rationalfn import (build_general, build_section2,
                                  partial_fractions)

from tests.conftest import suite_profiles
from tests import reference
from tests.reference import (ball_pi, contains, decomposition,
                             linear_product_rep, mc_integral,
                             paper_section2_rep, shifted)
from tests.test_numtheory import admissible_general
from tests.test_rationalfn import any_rep, linear_product_reps


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
    """Reference: ``beta_value``'s (mid, radius) with every power
    (2k+1)**i formed, as it was before large powers were skipped."""
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
            (mid, rad), = _beta_enclosures([i], precision)
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
        assert _beta_enclosures([i], precision) == [
            full_power_enclosure(i, precision)]

    def test_index_one_million_is_fast(self):
        t0 = time.perf_counter()
        (mid, rad), = _beta_enclosures([10 ** 6], 64)
        assert time.perf_counter() - t0 < 1.0
        assert abs(mid - 1) <= rad


class TestBetaSharedPass:
    @pytest.mark.parametrize("precision", [64, 256])
    def test_even_rows_and_chains_that_stop(self, precision):
        # the row decomposition_value asks for; at 64 bits, chains that
        # reach the fixed points 0 and -1 before the last index, and a
        # first index whose large powers are skipped
        for row in ([2, 4, 6, 8, 10, 12], [3, 40, 41, 1000],
                    list(range(1, 41)), [40, 41, 100]):
            assert _beta_enclosures(row, precision) == [
                full_power_enclosure(i, precision) for i in row]

    @staticmethod
    def counted_passes(monkeypatch):
        """(indices, precision) of every ``_beta_enclosures`` pass."""
        calls = []
        shared = numerics._beta_enclosures

        def counting(indices, precision):
            calls.append((list(indices), precision))
            return shared(indices, precision)

        monkeypatch.setattr(numerics, "_beta_enclosures", counting)
        return calls

    def test_decomposition_value_makes_one_pass(self, bundle, monkeypatch):
        # theorem1 n = 2 at the target consistency_check gives it at 256
        # bits, 2**-652; warm beta_value balls are neither used nor added to
        dec = bundle(general(THEOREM1_ETA, 2)).decomposition
        row = [2, 4, 6, 8, 10, 12]
        beta_value.cache_clear()
        calls = self.counted_passes(monkeypatch)
        value = decomposition_value(dec, 652)
        (indices, w), = calls
        assert indices == row and value.rad <= Fraction(1, 2 ** 652)
        for i in row[1:]:
            beta_value(i, w)
        info = beta_value.cache_info()
        calls.clear()
        again = decomposition_value(dec, 652)
        assert calls == [(row, w)] and beta_value.cache_info() == info
        # bit for bit the sum over beta_value's own balls
        with working_precision(w + 16):
            ref = BallReal(dec.a[0])
            for i in row:
                ref = ref + BallReal(dec.a[i]) * beta_value(i, w)
        assert [(v.lower, v.upper) for v in (value, again)] == [
            (ref.lower, ref.upper)] * 2
        beta_value.cache_clear()

    def test_a_form_without_beta_terms_is_its_constant(self, monkeypatch):
        a0 = Fraction(-3, 7)
        dec = decomposition(section2(5, 2), (a0,) + (Fraction(0),) * 5)
        calls = self.counted_passes(monkeypatch)
        value = decomposition_value(dec, 64)
        # w = 64 + max(0, floor log2 3/7) + 2 (len([]) + 1).bit_length()
        with working_precision(66 + 16):
            ref = BallReal(a0)
        assert (value.lower, value.upper) == (ref.lower, ref.upper)
        assert value.lower <= a0 <= value.upper and calls == []
        assert value.rad <= Fraction(1, 2 ** 64)


def first_start(rep, shift):
    """The least start whose terms lie right of every root of ``rep``."""
    roots = [Fraction(r, 2) for r, _ in rep.num_roots + rep.den_roots]
    return math.floor(max(roots) - shift) + 1


def started(rep, shift, offset):
    """The rep of nu -> f(nu + start + shift), start the ``first_start``
    plus ``offset``: the series sum_{nu >= start} (-1)**nu f(nu + shift)
    is (-1)**start times its series from nu = 0."""
    return shifted(rep, first_start(rep, shift) + offset + shift)


def series_reference(table, bits):
    """sum_{nu >= 0} (-1)**nu f(nu) from the pole table by mpmath: with
    X = k + pole_offset, each entry adds c 2**-i (zeta(i, X/2) -
    zeta(i, (X+1)/2)), or c (psi((X+1)/2) - psi(X/2))/2 at i = 1."""
    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for i, k, c in table.entries():
            if not c:
                continue
            x = k + table.pole_offset
            x = mpmath.mpf(x.numerator) / x.denominator
            if i == 1:
                term = (mpmath.digamma((x + 1) / 2) - mpmath.digamma(x / 2)) / 2
            else:
                term = (mpmath.zeta(i, x / 2) - mpmath.zeta(i, (x + 1) / 2)) / 2 ** i
            total += mpmath.mpf(c.numerator) / c.denominator * term
        return total


def exact_moment_bound(table, x0):
    """B = sum |c_ik| / (x0 + k)**i in Fractions."""
    return sum(abs(c) / (x0 + k) ** i for i, k, c in table.entries() if c)


def dyadic(b, e):
    return Fraction(b, 2 ** e) if e >= 0 else Fraction(b * 2 ** -e)


shifts = st.sampled_from([Fraction(0), Fraction(-1, 2)])
# t(t-1)...(t-19) / (t+1/2)**22: from t = 20 the terms grow by about 2**18
GROWING = linear_product_rep(1, [(j, 1) for j in range(20)],
                             [(Fraction(-1, 2), 22)])


class TestSeriesKernel:
    def test_toy_against_beta(self):
        # sum_{nu>=0} (-1)^nu (nu+1/2)^-2 = 4 beta(2)
        toy = linear_product_rep(1, [], [(Fraction(-1, 2), 2)])
        ev = alternating_series_tail(toy, Fraction(2) ** -180, 160)
        four_g = beta_value(2, 200) * 4
        assert ev.value.overlaps(four_g)
        assert ev.tail_bound <= Fraction(2) ** -181
        assert ev.value.rad <= Fraction(2) ** -180

    @pytest.mark.parametrize("tbits", [64, 200, 600])
    def test_size_is_the_least_that_meets_half_the_target(self, bundle, tbits):
        b = bundle(section2(5, 2))
        target = Fraction(1, 2 ** tbits)
        ev = alternating_series_tail(b.rep, target, 64)
        n = ev.direct_terms
        bound = ev.tail_bound * chebyshev_t3(n)  # B
        assert ev.tail_bound <= target / 2 < bound / chebyshev_t3(n - 1)

    @settings(max_examples=40, deadline=None)
    @given(any_rep, shifts, st.integers(0, 6), st.integers(1, 60),
           st.integers(0, 48))
    @example(paper_section2_rep(7, 6), Fraction(-1, 2), 0, 60, 0)
    @example(GROWING, Fraction(0), 0, 60, 36)
    def test_fixed_point_error_bound_holds(self, rep, shift, offset, n, p):
        rep = started(rep, shift, offset)
        weights = list(_chebyshev_weights(n, chebyshev_t3(n)))
        ratios, error = _term_ratios(rep, weights)
        terms = [rep.evaluate(j) for j in range(n)]
        got = _chebyshev_pass(terms[0], ratios, weights, p)
        assert abs(got - sum(map(operator.mul, weights, terms)) * 2 ** p) <= error
        # a unit lost on the first term grows with the terms: a_k / a_0
        assert error >= sum(abs(c) * a / terms[0] for c, a in zip(weights, terms))

    @settings(max_examples=25, deadline=None)
    @given(any_rep, shifts, st.integers(0, 20), st.sampled_from([64, 96, 160]))
    def test_ball_contains_the_zeta_reference(self, rep, shift, offset, tbits):
        rep = started(rep, shift, offset)
        table = partial_fractions(rep)
        target = Fraction(1, 2 ** tbits)
        ev = alternating_series_tail(rep, target, 64)
        assert ev.value.rad <= target
        size = exact_moment_bound(table, table.pole_offset)
        bits = 2 * tbits + max(0, floor_log2(size)) + 32
        ref = exact(series_reference(table, bits))
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
        ev = alternating_series_tail(b.rep, target, 64)
        d = chebyshev_t3(ev.direct_terms)
        fixed = Fraction(seen["error"], d << seen["p"])
        assert fixed <= target / 4
        assert ev.tail_bound + fixed <= ev.value.rad <= target

    def test_zero_of_q_in_range_raises(self):
        # f vanishes at t = -1 and not at t = 0: q(-1) = 0
        rep = build_section2(3, 2)
        ratios, _ = _term_ratios(rep, [1] * 40)
        assert len(ratios) == 39
        with pytest.raises(ValueError):
            _term_ratios(shifted(rep, -1), [1] * 5)

    def test_cutoff_inside_poles_raises(self, bundle):
        # every pole of f(t + start) lies at t >= 1/2
        b = bundle(general(THEOREM1_ETA, 2))
        rep = shifted(b.rep, -max(b.table.pole_ks) - 1)
        with pytest.raises(ValueError):
            _moment_bound(rep)
        with pytest.raises(ValueError):
            alternating_series_tail(rep, Fraction(1, 2 ** 64), 64)


def left_of_zero(rep, extra):
    """``rep`` shifted so that its highest pole lies at t = -1/2 or t = -1
    (doubled -1 or -2), and ``extra`` further left."""
    top = max(r for r, _ in rep.den_roots)
    return shifted(rep, Fraction(top + 2 - top % 2 + 2 * extra, 2))


# the reps of test_rationalfn's TestParitySplit, poles left of the start
left_reps = st.builds(left_of_zero, linear_product_reps(), st.integers(0, 3))
# 1/(t + 1/2)**3: Cauchy's 2**-3 max |f| = 1 is c_3 itself
CUBE = linear_product_rep(1, [], [(Fraction(-1, 2), 3)])
# 1/((t + 1/2)(t + 3/2))**3: exact B is 37.6; with |P - Q| for
# |P - Q| - 1 the bound would be 27.9
CUBES = linear_product_rep(1, [], [(Fraction(-1, 2), 3),
                                   (Fraction(-3, 2), 3)])
# a gapped grid of integer poles, a numerator root on one (order 1 left)
GAPPED = linear_product_rep(Fraction(-5, 8),
                            [(-3, 1), (Fraction(-7, 2), 2)],
                            [(-1, 2), (-3, 2), (-6, 3)])
# a numerator root cancels the pole at t = 1/2: no pole right of the start
CANCELLED = linear_product_rep(Fraction(7, 3), [(Fraction(1, 2), 2)],
                               [(Fraction(1, 2), 1), (Fraction(-1, 2), 2),
                                (Fraction(-5, 2), 1)])


class TestCauchyMomentBound:
    """``_moment_bound`` reads B off the rep by Cauchy's estimate; the exact
    B = sum |c_ik| / X_k**i of the partial-fraction table must lie below."""

    @settings(max_examples=150, deadline=None)
    @given(left_reps)
    @example(CUBE)
    @example(CUBES)
    @example(GAPPED)
    @example(CANCELLED)
    @example(build_general(general(THEOREM1_ETA, 2)))
    def test_bounds_the_exact_moment_sum(self, rep):
        table = partial_fractions(rep)
        exact_b = exact_moment_bound(table, table.pole_offset)
        assert exact_b <= dyadic(*_moment_bound(rep))

    def test_cube_takes_cauchy_at_every_order(self):
        # |c_i| <= 2**-i 2**3 = 1 for i = 1, 2, 3 over X**i = 2**-i: B <= 24
        assert dyadic(*_moment_bound(CUBE)) == 24

    @settings(max_examples=150, deadline=None)
    @given(left_reps)
    @example(GAPPED)
    @example(CANCELLED)
    @example(build_general(general(THEOREM1_ETA, 4)))
    @example(build_section2(5, 2))
    def test_slid_products_are_the_direct_ones(self, rep):
        assert list(_cauchy_products(rep)) == reference.cauchy_products(rep)

    @pytest.mark.parametrize("rep", [
        linear_product_rep(1, [(0, 1)], [(Fraction(-1, 2), 1)]),
        linear_product_rep(0, [], [(Fraction(-1, 2), 1)]),
        linear_product_rep(1, [], [(Fraction(-1, 2), 1), (-1, 1)]),
        linear_product_rep(1, [], [(0, 2), (-1, 1)]),
        linear_product_rep(1, [(Fraction(1, 2), 1)],
                           [(Fraction(1, 2), 2), (Fraction(-1, 2), 1)])],
        ids=["improper", "zero", "mixed-parity", "pole-at-0", "pole-right"])
    def test_rejects(self, rep):
        with pytest.raises(ValueError):
            _moment_bound(rep)

    def test_theorem1_n64_without_a_table(self, monkeypatch):
        # (1/64) ln r_64 as certified through the partial-fraction table,
        # now from the series alone
        def no_table(rep):
            raise AssertionError("the series built a partial-fraction table")

        for module in (rationalfn, numerics):
            monkeypatch.setattr(module, "partial_fractions", no_table)
        r = r_n_series(build_general(general(THEOREM1_ETA, 64)), 256)
        assert r.strictly_positive()
        mid = r.mid
        rate = (math.log(mid.numerator) - math.log(mid.denominator)) / 64
        assert abs(rate - (-101.3643124)) < 1e-7


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
        calls.append((args[1], args[2], ev))
        return ev

    monkeypatch.setattr(numerics, "alternating_series_tail", recording)
    return calls


def meets_relative_radius(ball, precision):
    """rad <= 2**-(precision + 64) min(1, |x|) for every x in the ball."""
    least = min(abs(ball.lower), abs(ball.upper))
    return (not ball.contains_zero()
            and ball.rad * 2 ** (precision + 64) <= min(1, least))


def assert_oracle_series_is_the_plain_descent(monkeypatch, precision, rep,
                                              decomposition):
    """``consistency_check`` makes one series pass, at the rung of |f(0)|;
    its ball meets the relative radius and is, bit for bit, the ball of
    ``r_n_series(rep, precision)``: the decomposition enters neither."""
    calls = record_tail_calls(monkeypatch)
    plain = r_n_series(rep, precision)
    calls.clear()
    report = consistency_check(decomposition, rep, precision)
    assert len(calls) == 1
    assert meets_relative_radius(report.series, precision)
    assert (report.series.lower, report.series.upper) == (plain.lower,
                                                          plain.upper)


def fake_series(monkeypatch, value, first_sign_bits):
    """Replace the series pass by one whose ball has radius equal to its
    target, about 0 (straddling) while the target is above
    2**-first_sign_bits and about ``value`` from there; the targets it was
    asked for are returned."""
    targets = []

    def fake(rep, target, precision):
        targets.append(target)
        mid = value if target <= Fraction(1, 2 ** first_sign_bits) else 0
        with working_precision(4096):  # the ball kept exact
            return SeriesEvaluation(BallReal(mid, radius=target), 1, 0, target)

    monkeypatch.setattr(numerics, "alternating_series_tail", fake)
    return targets


class TestRnSeries:
    @pytest.mark.parametrize("profile", [
        general(THEOREM1_ETA, 2), general(THEOREM1_ETA, 4), section2(17, 2)],
        ids=["theorem1-2", "theorem1-4", "section2-s17"])
    def test_every_tail_radius_is_at_most_its_target(
            self, bundle, monkeypatch, profile):
        calls = record_tail_calls(monkeypatch)
        b = bundle(profile)
        r_n_series(b.rep, 256)
        assert calls
        for target, _, ev in calls:
            assert ev.tail_bound <= target / 2
            assert ev.value.rad <= target

    def test_consistency_check_makes_one_tail_call_on_theorem1_n2(
            self, bundle, monkeypatch):
        # f(0) lies in [2**-316, 2**-315), so the one pass aims at
        # 2**-(256 + 64 + 316)
        calls = record_tail_calls(monkeypatch)
        b = bundle(general(THEOREM1_ETA, 2))
        consistency_check(b.decomposition, b.rep, 256)
        assert [target for target, _, _ in calls] == [Fraction(1, 2 ** 636)]

    @pytest.mark.parametrize("precision", [128, 256])
    @pytest.mark.parametrize("profile", suite_profiles(), ids=lambda p: p.label())
    def test_deciding_call_matches_plain_descent(self, bundle, monkeypatch,
                                                 profile, precision):
        b = bundle(profile)
        assert_oracle_series_is_the_plain_descent(monkeypatch, precision,
                                                  b.rep, b.decomposition)

    @settings(max_examples=6, deadline=None)
    @given(admissible_general((5, 7), 12).filter(lambda case: case[1] <= 2))
    def test_deciding_call_matches_on_random_profiles(self, case):
        _, n, eta = case
        profile = general(eta, n)
        rep = build_general(profile)
        table = partial_fractions(rep)
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_oracle_series_is_the_plain_descent(
                monkeypatch, 128, rep, beta_coefficients(table, profile))

    @pytest.mark.parametrize("precision", [64, 256])
    @pytest.mark.parametrize("profile", suite_profiles(), ids=lambda p: p.label())
    def test_meets_the_relative_radius(self, bundle, profile, precision):
        b = bundle(profile)
        v = r_n_series(b.rep, precision)
        assert meets_relative_radius(v, precision)

    def test_first_rung_is_that_of_the_first_term(self, bundle, monkeypatch):
        # theorem1 n = 2: f(0) in [2**-316, 2**-315) aims at 2**-(128 + 64 +
        # 316); section2 (3, 2): f(0) >= 1 aims at 2**-(128 + 64)
        for profile, tbits in ((general(THEOREM1_ETA, 2), 508),
                               (section2(3, 2), 192)):
            calls = record_tail_calls(monkeypatch)
            r_n_series(bundle(profile).rep, 128)
            assert calls[0][0] == Fraction(1, 2 ** tbits)
            monkeypatch.undo()

    def test_descent_doubles_from_a_straddling_first_rung(self, bundle,
                                                          monkeypatch):
        # the balls straddle zero above 2**-2000: rungs 508, 1016, 2032, and
        # the ball at 2**-2032 meets the radius 2**-192 2**-900
        value = Fraction(1, 2 ** 900)
        targets = fake_series(monkeypatch, value, 2000)
        r = r_n_series(bundle(general(THEOREM1_ETA, 2)).rep, 128)
        assert targets == [Fraction(1, 2 ** t) for t in (508, 1016, 2032)]
        assert r.lower <= value <= r.upper and r.rad <= Fraction(1, 2 ** 2032)

    def test_a_miss_takes_one_pass_at_the_balls_own_rung(self, bundle,
                                                         monkeypatch):
        # |r| = 2**-400 is far below f(0): the first ball, of radius
        # 2**-508, excludes zero but misses 2**-192 |r|, and its least |x|
        # in [2**-401, 2**-400) aims the one more pass at 2**-(192 + 401)
        value = Fraction(1, 2 ** 400)
        targets = fake_series(monkeypatch, value, 0)
        r = r_n_series(bundle(general(THEOREM1_ETA, 2)).rep, 128)
        assert targets == [Fraction(1, 2 ** t) for t in (508, 593)]
        assert r.lower <= value <= r.upper and r.rad <= Fraction(1, 2 ** 593)

    def test_a_root_at_the_first_term_is_named(self):
        rep = linear_product_rep(1, [(0, 1)], [(Fraction(-1, 2), 3)])
        with pytest.raises(ValueError, match="root of f near nu = 0"):
            r_n_series(rep, 64)

    def test_descent_gives_up_without_a_sign(self, bundle, monkeypatch):
        b = bundle(section2(3, 2))
        targets = []

        def straddling(rep, target, precision):
            targets.append(target)
            with working_precision(precision):
                return SeriesEvaluation(BallReal(0, radius=target), 1, 0, target)

        monkeypatch.setattr(numerics, "alternating_series_tail", straddling)
        with pytest.raises(ArithmeticError):
            r_n_series(b.rep, 64)
        # f(0) >= 1: rungs 128, 256, ..., 128 << 9 = _MAX_SERIES_BITS
        assert targets[-1] == Fraction(1, 2 ** (128 << 9))

    def test_positive_for_all_suite_profiles(self, bundle):
        for profile in suite_profiles():
            b = bundle(profile)
            v = r_n_series(b.rep, 128)
            assert v.strictly_positive(), profile.label()

    def test_radius_shrinks_with_precision(self, bundle):
        b = bundle(section2(5, 2))
        lo = r_n_series(b.rep, 64)
        hi = r_n_series(b.rep, 128)
        assert hi.rad * 2 <= lo.rad
        assert lo.overlaps(hi)

    def test_theorem1_value_range(self, bundle):
        b = bundle(general(THEOREM1_ETA, 2))
        v = r_n_series(b.rep, 128)
        assert v.strictly_positive()
        assert v.upper < 1


class TestConsistency:
    def test_section2_3_2_gap(self, bundle):
        b = bundle(section2(3, 2))
        report = consistency_check(b.decomposition, b.rep, 128)
        assert report.passed
        assert report.gap_bits >= 100

    def test_section2_5_4(self, bundle):
        b = bundle(section2(5, 4))
        report = consistency_check(b.decomposition, b.rep, 256)
        assert report.passed

    def test_perturbation_detected(self, bundle):
        b = bundle(section2(3, 2))
        perturbed = decomposition(
            b.profile,
            (b.decomposition.a[0] + Fraction(1, 10 ** 10),)
            + b.decomposition.a[1:])
        report = consistency_check(perturbed, b.rep, 128)
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
        report = consistency_check(SimpleNamespace(profile=section2(3, 2)),
                                   object(), 64)
        assert report.gap_bits == zero_bits

    def test_theorem1_n36_resolves_r_to_the_precision(self, bundle):
        # sized from bit lengths, the decomposition ball held 0 here and
        # gap_bits was 5221 against floor log2 r = -5285
        b = bundle(general(THEOREM1_ETA, 36))
        report = consistency_check(b.decomposition, b.rep, 256)
        assert report.passed and not report.decomposition.contains_zero()
        assert report.gap_bits + floor_log2(abs(report.series.mid)) >= 256

    def test_scaled_form_lands_in_unit_interval(self, bundle):
        # the normalized integer form of the large instance is small but positive
        b = bundle(section2(17, 2))
        v = r_n_series(b.rep, 128)
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
        check = consistency_check(b.decomposition, b.rep, 256)
        entry = {"r": cli._ball(check.series, 256),
                 "consistency": {"passed": check.passed,
                                 "gap_bits": check.gap_bits}}
        assert gate.accuracy_problems(entry, 256, ref) == []


class TestDecompositionValue:
    def test_matches_series_within_radii(self, bundle):
        b = bundle(section2(5, 2))
        series = r_n_series(b.rep, 192)
        direct = decomposition_value(b.decomposition, 192)
        assert series.overlaps(direct)

    @staticmethod
    def assert_meets_its_target(dec, tbits):
        value = decomposition_value(dec, tbits)
        assert value.rad <= Fraction(1, 2 ** tbits)
        assert value.overlaps(decomposition_value(dec, 2 * tbits))

    @pytest.mark.parametrize("tbits", [33, 400, 3000])
    @pytest.mark.parametrize("profile", suite_profiles(), ids=lambda p: p.label())
    def test_meets_its_target_on_the_suite(self, bundle, profile, tbits):
        self.assert_meets_its_target(bundle(profile).decomposition, tbits)

    @settings(max_examples=10, deadline=None)
    @given(admissible_general((5, 7), 12).filter(lambda case: case[1] <= 2),
           st.integers(1, 2000))
    def test_meets_its_target_on_random_profiles(self, case, tbits):
        _, n, eta = case
        profile = general(eta, n)
        table = partial_fractions(build_general(profile))
        self.assert_meets_its_target(beta_coefficients(table, profile), tbits)


class TestMonteCarlo:
    def test_agreement_and_positivity(self, bundle):
        profile = general((5, 1, 1, 1, 1, 1), 2)
        est = mc_integral(profile, 120_000, seed=99)
        b = bundle(profile)
        series = r_n_series(b.rep, 96)
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
            assert contains((bx + by) - by, x)

    @settings(max_examples=400, deadline=None)
    @given(small_fracs, small_fracs)
    def test_products_contain(self, x, y):
        with working_precision(64):
            assert contains(BallReal(x) * BallReal(y), x * y)
            if y:
                assert contains(BallReal(x) / BallReal(y), x / y)

    def test_exact_constructor_and_views(self):
        with working_precision(80):
            b = BallReal(Fraction(1, 3), radius=Fraction(1, 2 ** 90))
        assert contains(b, Fraction(1, 3))
        assert b.rad >= Fraction(2) ** -90
        assert not b.contains_zero()
        assert (-b).strictly_negative()
