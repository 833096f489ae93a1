import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from betaforms import asymptotics, numtheory
from betaforms.asymptotics import (ExponentLedger, Lemma3Data,
                                   RootCertificationError, _integer_poly,
                                   _maximizer_polynomial, _sign_at,
                                   _sturm_chain, exponent_ledger,
                                   isolate_root, lemma3_solve, r_exponent)
from betaforms.balls import BallReal, working_precision
from betaforms.numerics import r_n_series
from betaforms.profiles import THEOREM1_ETA, general, section2

from tests.reference import count_roots
from tests.test_numtheory import admissible_general


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
        lo, hi = isolate_root(p, Fraction(1), Fraction(2),
                              Fraction(1, 2 ** 40))
        assert hi - lo <= Fraction(1, 2 ** 40)
        assert lo ** 2 < 2 < hi ** 2

    def test_bisect_requires_bracket(self):
        # (x - 1/2)**2: one root in (0, 1), and no sign change there
        p = [Fraction(1, 4), Fraction(-1), Fraction(1)]
        with pytest.raises(ValueError, match="not a sign-change bracket"):
            isolate_root(p, Fraction(0), Fraction(1), Fraction(1, 4))

    @pytest.mark.parametrize("s", range(3, 200, 2))
    def test_section2_polynomial_has_one_root(self, s):
        # t**(s+1) - 2 t**s - 2 t + 1, the one-dimensional stationarity
        poly = [1, -2] + [0] * (s - 2) + [-2, 1]
        assert count_roots(poly, Fraction(1, 10 ** 6),
                           1 - Fraction(1, 10 ** 6)) == 1

    @settings(max_examples=100, deadline=None)
    @given(admissible_general((5, 7, 9, 11, 13), 40).map(lambda case: case[2]))
    def test_maximizer_polynomial_has_one_root(self, eta):
        assert count_roots(_maximizer_polynomial(eta), Fraction(0),
                           Fraction(1)) == 1


class TestLemma3:
    def test_equal_parameters_give_equal_coordinates(self):
        data = lemma3_solve((3, 1, 1, 1, 1, 1), 128)
        mids = [x.mid for x in data.xj]
        assert max(mids) - min(mids) < Fraction(2) ** -100
        assert all(0 < float(x.mid) < 1 for x in data.xj)

    def test_root_interval_has_sign_change(self):
        data = lemma3_solve(THEOREM1_ETA, 128)
        poly = _integer_poly(data.poly)
        lo, hi = data.x0_lo, data.x0_hi
        assert (_sign_at(poly, lo.numerator, lo.denominator)
                * _sign_at(poly, hi.numerator, hi.denominator)) <= 0
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
                assert abs(grad.mid) < Fraction(10) ** -20

    def test_nonunique_root_is_an_error(self, monkeypatch):
        # no admissible eta gives its polynomial other than one root
        for poly, count in (([3, -16, 16], 2),  # 16 (x - 1/4)(x - 3/4)
                            ([1, 0, 1], 0)):    # 1 + x**2
            monkeypatch.setattr(asymptotics, "_maximizer_polynomial",
                                lambda eta: poly)
            with pytest.raises(RootCertificationError,
                               match=f"Sturm count gives {count}$"):
                lemma3_solve(THEOREM1_ETA)


class TestRExponent:
    def test_section2_17(self):
        val = r_exponent(section2(17, 2), 192)
        assert abs(val.mid - Fraction("-16.1123070755")) < 1e-9

    def test_theorem1(self):
        val = r_exponent(general(THEOREM1_ETA, 2), 192)
        assert abs(val.mid - Fraction("-100.73966317")) < 1e-7

    def test_section2_small_s_positive(self):
        # log(12^3 max ...) for s=3 is ~ log 20.2: no decay, no conclusion
        val = r_exponent(section2(3, 2), 96)
        assert val.strictly_positive()
        assert math.log(20.1) < val.mid < math.log(20.3)

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
            assert abs(ledger.total.mid - Fraction(expected_total)) < 1e-6

    def test_nested_precisions(self):
        lo = exponent_ledger(section2(17, 2), 96)
        hi = exponent_ledger(section2(17, 2), 192)
        assert lo.total.overlaps(hi.total)
        assert hi.total.rad <= lo.total.rad
        assert lo.verdict == hi.verdict == "satisfied"

    def test_d_exponent_is_exact_rational(self):
        assert exponent_ledger(general(THEOREM1_ETA, 2), 64).d_exponent == 143
        assert exponent_ledger(section2(3, 2), 64).d_exponent == 3

    def test_cold_ledger_builds_its_table_through_numtheory(self, monkeypatch):
        # perfbench counts carry tables where it patches them, at
        # numtheory.carry_min_table; a from-import would hide the call
        calls, table = [], numtheory.carry_min_table
        monkeypatch.setattr(numtheory, "carry_min_table",
                            lambda shape: calls.append(shape) or table(shape))
        table.cache_clear()
        exponent_ledger(section2(5, 2), 64)
        assert calls == [section2(5, 2).shape]


class TestEmpiricalTrend:
    def test_theorem1_rate_monotone_toward_limit(self, bundle):
        # (1/n) log r_n should approach the certified rate from below
        limit = r_exponent(general(THEOREM1_ETA, 2), 96)
        rates = []
        for n in (2, 4, 6):
            b = bundle(general(THEOREM1_ETA, n))
            v = r_n_series(b.rep, 64)
            assert v.strictly_positive()
            with working_precision(96):
                rates.append(float((v.log() / n).mid))
        assert rates[0] < rates[1] < rates[2] < float(limit.mid)


# Reference: the exact-rational root isolation that the integer-sign
# helpers replaced, kept to check that every bracket is the same.

def ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p or [Fraction(0)]


def ref_rem(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while True:
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        if not a or (len(a) == 1 and a[0] == 0) or len(a) - 1 < db:
            return a or [Fraction(0)]
        f = a[-1] / lb
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()


def ref_sturm_chain(p):
    p0 = ref_trim(p)
    if len(p0) == 1:
        return [p0]
    chain = [p0, ref_trim([i * c for i, c in enumerate(p0)][1:])]
    while not (len(chain[-1]) == 1 and chain[-1][0] == 0):
        r = ref_rem(chain[-2], chain[-1])
        if len(r) == 1 and r[0] == 0:
            break
        chain.append([-c for c in r])
    return chain


def ref_variations(chain, x):
    signs = [1 if v > 0 else -1 for v in (ref_eval(p, x) for p in chain) if v]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def ref_count(chain, lo, hi):
    """Distinct roots of ``chain[0]`` in (lo, hi), on a chain already built."""
    if ref_eval(chain[0], lo) == 0 or ref_eval(chain[0], hi) == 0:
        raise ValueError("endpoint is a root; perturb the interval")
    return ref_variations(chain, lo) - ref_variations(chain, hi)


def ref_bisect_root(p, lo, hi, width):
    flo, fhi = ref_eval(p, lo), ref_eval(p, hi)
    if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
        raise ValueError("interval is not a sign-change bracket")
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = ref_eval(p, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo, hi


def ref_isolate(chain, lo, hi):
    """One bracket per distinct root of ``chain[0]`` in (lo, hi)."""
    total = ref_count(chain, lo, hi)
    if total == 0:
        return []
    if total == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    while ref_eval(chain[0], mid) == 0:
        mid = (mid + hi) / 2
    return ref_isolate(chain, lo, mid) + ref_isolate(chain, mid, hi)


def ref_refined_roots(p, lo, hi, width):
    """Reference: every root's bracket in (lo, hi), bisected below width."""
    return [ref_bisect_root(p, a, b, width)
            for a, b in ref_isolate(ref_sturm_chain(p), lo, hi)]


def ref_lemma3_solve(eta, precision):
    """Reference: ``lemma3_solve`` on the exact-rational helpers."""
    e0 = eta[0]
    left, right = [Fraction(0), Fraction(1)], [Fraction(1)]
    for ej in eta[1:]:
        left = [(e0 - ej) * u - ej * v for u, v in zip(left + [0], [0] + left)]
        right = [ej * u - (e0 - ej) * v
                 for u, v in zip(right + [0], [0] + right)]
    poly = ref_trim([u - v for u, v in zip(left, right + [0])])
    assert ref_count(ref_sturm_chain(poly), Fraction(0), Fraction(1)) == 1
    lo, hi = ref_bisect_root(poly, Fraction(0), Fraction(1),
                             Fraction(2) ** (-(precision + 8)))
    with working_precision(precision + 16):
        x0 = BallReal.from_interval(BallReal(lo), BallReal(hi))
        xj = [(ej - (e0 - ej) * x0) / ((e0 - ej) - ej * x0) for ej in eta[1:]]
        prod, log_max = BallReal(1), BallReal(0)
        for ej, x in zip(eta[1:], xj):
            log_max = log_max + ej * x.log() + (e0 - 2 * ej) * (1 - x).log()
            prod = prod * x
        log_max = log_max - e0 * (1 + prod).log()
        return Lemma3Data(tuple(poly), lo, hi, tuple(xj), log_max)


def outcome(fn, *args):
    """fn(*args), or the exception type it raised."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@st.composite
def planted_polynomials(draw):
    """Integer polynomials with planted dyadic, rational and irrational
    roots (factors x**2 - c, c not a square) and multiplicities."""
    factors = draw(st.lists(st.one_of(
        st.tuples(st.integers(1, 63), st.sampled_from([64, 32, 16, 8, 4, 2]))
        .map(lambda t: [-t[0], t[1]]),                   # t1 x - t0
        st.tuples(st.integers(-20, 20), st.integers(1, 12))
        .map(lambda t: [-t[0], t[1]]),
        st.sampled_from([2, 3, 5, 7, 10]).flatmap(
            lambda c: st.integers(1, 5).map(lambda d: [-c, 0, d * d])),
    ), min_size=1, max_size=5))
    p = [draw(st.sampled_from([-3, -1, 1, 2]))]
    for f in factors:
        for _ in range(draw(st.integers(1, 2))):
            out = [0] * (len(p) + len(f) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(f):
                    out[i + j] += a * b
            p = out
    return [Fraction(c, draw(st.sampled_from([1, 1, 3, 16]))) for c in p]


def from_roots(*roots):
    """The monic polynomial with these roots, ascending coefficients."""
    p = [Fraction(1)]
    for r in roots:
        p = [u - r * v for u, v in zip([Fraction(0)] + p, p + [Fraction(0)])]
    return p


class TestIntegerSigns:
    @given(planted_polynomials(),
           st.sampled_from([(Fraction(0), Fraction(1)),
                            (Fraction(-3), Fraction(5, 2)),
                            (Fraction(1, 3), Fraction(7, 8))]))
    @settings(max_examples=300, deadline=None)
    @example([Fraction(-1), Fraction(2)], (Fraction(0), Fraction(1)))
    @example([Fraction(0), Fraction(1)], (Fraction(0), Fraction(1)))
    @example([Fraction(-2), Fraction(0), Fraction(1)],
             (Fraction(-3), Fraction(5, 2)))
    # three roots, two of them 2**-40 apart: the reference splits (0, 9/10)
    # down to brackets of one root each, refined before any Newton step
    @example(from_roots(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2 ** 40),
                        Fraction(3, 4)), (Fraction(0), Fraction(9, 10)))
    # three roots where a Newton step from 9/20 would land next to 1/21:
    # each isolated bracket is refined on its own
    @example(from_roots(Fraction(1, 21), Fraction(5, 21), Fraction(2, 3)),
             (Fraction(0), Fraction(9, 10)))
    # x**15 - 1/3: one root, and the first Newton steps leave (0, 1)
    @example([Fraction(-1, 3)] + [Fraction(0)] * 14 + [Fraction(1)],
             (Fraction(0), Fraction(1)))
    # a Newton step lands on the cell whose left end is the root 5/16
    @example(from_roots(Fraction(5, 16), Fraction(-3)),
             (Fraction(0), Fraction(1)))
    def test_brackets_match_the_fraction_helpers(self, p, ends):
        # one reference chain and one isolation serve the count and both
        # widths: each reference bracket refines as the reference does, and
        # the whole interval refines only when it holds exactly one root
        lo, hi = ends
        chain = ref_sturm_chain(p)
        assert outcome(count_roots, p, lo, hi) == outcome(ref_count,
                                                          chain, lo, hi)
        brackets = outcome(ref_isolate, chain, lo, hi)
        for width in (Fraction(1, 2 ** 12), Fraction(1, 3 * 10 ** 20)):
            if brackets is ValueError:
                assert outcome(isolate_root, p, lo, hi, width) is ValueError
                continue
            assert [outcome(isolate_root, p, a, b, width)
                    for a, b in brackets] == [
                outcome(ref_bisect_root, p, a, b, width) for a, b in brackets]
            if len(brackets) != 1:
                with pytest.raises(RootCertificationError):
                    isolate_root(p, lo, hi, width)

    def test_planted_dyadic_root_is_hit(self):
        # (x - 5/16)(x - 3/4): bisection from (0, 1/2) lands on 5/16
        p = [Fraction(15, 64), Fraction(-17, 16), Fraction(1)]
        got = isolate_root(p, Fraction(0), Fraction(1, 2),
                           Fraction(1, 2 ** 30))
        assert got == (Fraction(5, 16), Fraction(5, 16))
        with pytest.raises(ValueError):
            isolate_root(p, Fraction(0), Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            isolate_root(p, Fraction(5, 16), Fraction(1, 2), Fraction(1, 4))

    def test_newton_jumps_replace_most_halvings(self, monkeypatch):
        # theorem1's root to 2**-264: bisection alone takes 264 halvings,
        # and the Sturm count at 0 and 1 takes a sign per chain member
        calls = []
        sign_at = asymptotics._sign_at
        monkeypatch.setattr(asymptotics, "_sign_at",
                            lambda *args: calls.append(1) or sign_at(*args))
        got = lemma3_solve(THEOREM1_ETA)
        poly = list(got.poly)
        assert (got.x0_lo, got.x0_hi) == ref_bisect_root(
            poly, Fraction(0), Fraction(1), Fraction(2) ** -264)
        assert len(calls) < 70

    def test_chain_members_are_positive_multiples(self):
        p = [Fraction(3, 16), Fraction(-1), Fraction(0), Fraction(2, 3),
             Fraction(1)]
        ref = ref_sturm_chain(p)
        got = _sturm_chain(_integer_poly(p))
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            ratio = {Fraction(x) / y for x, y in zip(a, b) if y}
            assert len(ratio) == 1 and ratio.pop() > 0
            assert all(x == 0 for x, y in zip(a, b) if y == 0)

    @pytest.mark.parametrize("eta", [THEOREM1_ETA] + [
        (3,) + (1,) * s for s in range(3, 18, 2)])
    def test_lemma3_data_is_unchanged(self, eta):
        got, ref = lemma3_solve(eta, 256), ref_lemma3_solve(eta, 256)
        assert (got.poly, got.x0_lo, got.x0_hi) == (ref.poly, ref.x0_lo,
                                                    ref.x0_hi)
        for a, b in zip(got.xj + (got.log_max,), ref.xj + (ref.log_max,)):
            assert (a.lower, a.upper) == (b.lower, b.upper)

    @pytest.mark.parametrize("s", range(3, 18, 2))
    def test_section2_brackets_are_unchanged(self, s):
        poly = [Fraction(c) for c in [1, -2] + [0] * (s - 2) + [-2, 1]]
        lo, hi = Fraction(1, 10 ** 6), 1 - Fraction(1, 10 ** 6)
        width = Fraction(2) ** -264
        assert [isolate_root(poly, lo, hi, width)] == ref_refined_roots(
            poly, lo, hi, width)
