"""The integer ball layer against mpmath, used here only as an independent
reference.  Every mpmath value is an interval (``mpmath.iv``) at four
times the precision under test, and its ends are converted to Fractions
exactly, so each containment below is a rigorous statement.

Radius bounds are stated for exact (dyadic) inputs, as
rad <= 2**(c - p) * size with p the working precision (bits +
GUARD_BITS) and c per kernel:

* + and -: c = 1 over |x| + |y| (one rounding of the exact sum);
* *: c = 1 and /: c = 2 over |value| (one rounding; the quotient's floor
  adds a unit at p + 2 bits before it);
* **k: c = 1 + bit length of 2k over |value| (one rounding per product);
* log and cos: c = 2 over max(1, |value|) (fixed point at scale 2**-wp,
  wp >= p + 8 + bit length of p, kernel error far below 2**-p, then one
  rounding);
* sqrt: c = 2 over |value| (fixed point relative to the value);
* pi: c = 1 over the value.

sqrt, cos and pi as balls are ``tests.reference.ball_sqrt``, ``ball_cos``
and ``ball_pi``: only the reference digamma pass uses them now.
"""

import contextlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv
from mpmath.libmp import from_man_exp, to_rational

from betaforms import balls, cli
from betaforms.balls import (GUARD_BITS, BallReal, floor_log2, nstr,
                             working_precision)

from tests.reference import ball_cos, ball_pi, ball_sqrt, contains


def exact(raw) -> Fraction:
    return Fraction(*to_rational(raw))


@contextlib.contextmanager
def iv_precision(bits: int):
    old, iv.prec = iv.prec, bits
    try:
        yield
    finally:
        iv.prec = old


def ends(v) -> tuple[Fraction, Fraction]:
    """The ends of an ``mpmath.iv`` interval as exact Fractions."""
    return tuple(exact(raw) for raw in v._mpi_)


def enclosure(f, bits, *args) -> tuple[Fraction, Fraction]:
    """[lo, hi] from ``mpmath.iv`` at ``bits`` for f at exact rationals."""
    with iv_precision(bits):
        return ends(f(*(iv.mpf(q.numerator) / q.denominator for q in args)))


def assert_contains(ball: BallReal, lo: Fraction, hi: Fraction):
    assert ball.lower <= lo and hi <= ball.upper, (ball, lo, hi)


precisions = st.integers(32, 512)
centers = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                       max_denominator=10 ** 12)


@st.composite
def rational_balls(draw, positive=False):
    """(center, radius): a rational center, radius 0 or a dyadic fraction
    of it down to 2**-600, so the input radius is sometimes far above and
    sometimes far below the working precision."""
    c = draw(centers)
    if positive:
        c = abs(c) + Fraction(1, draw(st.integers(1, 10 ** 9)))
    if draw(st.booleans()):
        return c, Fraction(0)
    scale = max(abs(c), Fraction(1, 10 ** 6))
    rho = scale * Fraction(draw(st.integers(1, 2 ** 20)),
                           2 ** draw(st.integers(21, 600)))
    if positive:
        rho = min(rho, c / 2)
    return c, rho


def points(c, rho):
    return (c - rho, c, c + rho)


@st.composite
def dyadics(draw, bits):
    """An exact dyadic m 2**e with |m| < 2**bits."""
    m = draw(st.integers(-(2 ** bits) + 1, 2 ** bits - 1))
    return Fraction(m) * Fraction(2) ** draw(st.integers(-bits - 40, 40))


def fits(ball, value, c, prec, size=None):
    size = abs(value) if size is None else size
    return ball.rad <= Fraction(2) ** (c - prec - GUARD_BITS) * size


class TestArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(precisions, rational_balls(), rational_balls(),
           st.integers(0, 12))
    def test_ops_contain_every_corner(self, prec, x, y, k):
        with working_precision(prec):
            bx, by = BallReal(x[0], radius=x[1]), BallReal(y[0], radius=y[1])
            results = [(bx + by, lambda a, b: a + b),
                       (bx - by, lambda a, b: a - b),
                       (by - bx, lambda a, b: b - a),
                       (bx * by, lambda a, b: a * b)]
            if not by.contains_zero():
                results.append((bx / by, lambda a, b: a / b))
            if not bx.contains_zero():
                results.append((3 / bx, lambda a, b: 3 / a))
            power, absolute, negative = bx ** k, abs(bx), -bx
        for ball, f in results:
            for a in points(*x):
                for b in points(*y):
                    assert contains(ball, f(a, b))
        for a in points(*x):
            assert contains(power, a ** k)
            assert contains(absolute, abs(a)) and contains(negative, -a)
        if x[0] - x[1] <= 0 <= x[0] + x[1]:
            assert contains(absolute, 0)

    @settings(max_examples=200, deadline=None)
    @given(precisions, st.data())
    def test_radius_on_exact_inputs(self, prec, data):
        x = data.draw(dyadics(prec + GUARD_BITS))
        y = data.draw(dyadics(prec + GUARD_BITS))
        k = data.draw(st.integers(1, 12))
        with working_precision(prec):
            bx, by = BallReal(x), BallReal(y)
            assert bx.rad == 0 and bx.mid == x
            assert fits(bx + by, x + y, 1, prec, abs(x) + abs(y))
            assert fits(bx - by, x - y, 1, prec, abs(x) + abs(y))
            assert fits(bx * by, x * y, 1, prec)
            if y:
                assert fits(bx / by, x / y, 2, prec)
            assert fits(bx ** k, x ** k, 1 + (2 * k).bit_length(), prec)
            assert (-bx).rad == 0 and abs(bx).rad == 0

    @settings(max_examples=200, deadline=None)
    @given(precisions, centers)
    def test_rational_conversion(self, prec, q):
        with working_precision(prec):
            b = BallReal(q)
        assert contains(b, q)
        assert fits(b, q, 2, prec)

    def test_views_are_exact(self):
        with working_precision(120):
            b = BallReal(Fraction(3, 8), radius=Fraction(1, 2 ** 100))
        assert b.mid == Fraction(3, 8) and b.rad == Fraction(1, 2 ** 100)
        assert b.lower == Fraction(3, 8) - b.rad
        # a radius below the midpoint's last bit grows to that bit
        with working_precision(80):
            b = BallReal(Fraction(3, 8), radius=Fraction(1, 2 ** 100))
        assert b.lower < Fraction(3, 8) - Fraction(1, 2 ** 100)
        assert b.rad <= Fraction(1, 2 ** 96)

    def test_predicates_compare_exactly(self):
        tiny = Fraction(1, 2 ** 3000)
        with working_precision(64):
            b = BallReal(tiny, radius=tiny / 2)
        assert b.strictly_positive() and not b.contains_zero()
        assert contains(b, tiny) and not contains(b, 2 * tiny)
        assert not b.overlaps(-b)
        assert b.overlaps(BallReal(tiny * 3 / 2))

    def test_from_interval_hull(self):
        with working_precision(64):
            b = BallReal.from_interval(Fraction(1, 3), Fraction(1, 2))
        assert contains(b, Fraction(1, 3)) and contains(b, Fraction(1, 2))
        with pytest.raises(ValueError):
            BallReal.from_interval(1, 0)

    def test_division_by_a_ball_around_zero_raises(self):
        with working_precision(64):
            with pytest.raises(ZeroDivisionError):
                BallReal(1) / BallReal(0, radius=Fraction(1, 4))

    @pytest.mark.parametrize("q, expected", [
        (Fraction(1), 0), (Fraction(1, 2 ** 100), -100),
        (Fraction(3, 2 ** 101), -100), (Fraction(2 ** 100 - 1), 99),
        (Fraction(2 ** 4000 - 1, 2 ** 8000), -4001), (Fraction(7, 3), 1)])
    def test_floor_log2(self, q, expected):
        assert floor_log2(q) == expected


# (name, mpmath reference, positive inputs only, the ball function); sqrt
# and cos live in ``tests.reference`` since only its digamma pass uses them
TRANSCENDENTALS = [
    ("log", iv.log, True, BallReal.log), ("sqrt", iv.sqrt, True, ball_sqrt),
    ("cos", iv.cos, False, ball_cos)]


class TestTranscendentals:
    @pytest.mark.parametrize("name, ref, positive, fn", TRANSCENDENTALS,
                             ids=[t[0] for t in TRANSCENDENTALS])
    @settings(max_examples=120, deadline=None)
    @given(prec=precisions, data=st.data())
    def test_contains_the_value_over_the_whole_ball(self, name, ref, positive,
                                                    fn, prec, data):
        c, rho = data.draw(rational_balls(positive=positive))
        with working_precision(prec):
            ball = fn(BallReal(c, radius=rho))
        for y in points(c, rho):
            assert_contains(ball, *enclosure(ref, 4 * (prec + GUARD_BITS), y))

    @pytest.mark.parametrize("name, ref, positive, fn", TRANSCENDENTALS,
                             ids=[t[0] for t in TRANSCENDENTALS])
    @settings(max_examples=120, deadline=None)
    @given(prec=precisions, data=st.data())
    def test_radius_on_exact_inputs(self, name, ref, positive, fn, prec,
                                    data):
        x = data.draw(dyadics(prec + GUARD_BITS))
        if positive:
            x = abs(x) or Fraction(1)
        with working_precision(prec):
            ball = fn(BallReal(x))
        lo, hi = enclosure(ref, 4 * (prec + GUARD_BITS), x)
        assert_contains(ball, lo, hi)
        size = abs(lo) if name == "sqrt" else max(1, abs(lo))
        assert fits(ball, lo, 2, prec, size)

    @settings(max_examples=60, deadline=None)
    @given(precisions)
    def test_constants(self, prec):
        with working_precision(prec):
            pi = ball_pi()
        with iv_precision(4 * (prec + GUARD_BITS)):
            lo, hi = ends(iv.pi)
        assert_contains(pi, lo, hi)
        assert fits(pi, lo, 1, prec)

    def test_wide_and_edge_balls(self):
        with working_precision(64):
            assert contains(ball_cos(BallReal(0, radius=3)), 1)
            root = ball_sqrt(BallReal(Fraction(1, 4), radius=Fraction(1, 2)))
            assert contains(root, 0)
            assert_contains(root, *enclosure(iv.sqrt, 256, Fraction(3, 4)))
            assert ball_sqrt(BallReal(0)).rad == 0
            with pytest.raises(ValueError):
                BallReal(0, radius=1).log()
            with pytest.raises(ValueError):
                ball_sqrt(BallReal(-1))


class TestKernelBounds:
    """Each fixed-point kernel's value is within its stated error of the
    exact value times 2**wp."""

    @staticmethod
    def within(value, err, lo, hi, wp):
        scale = 2 ** wp
        assert lo * scale - err <= value <= hi * scale + err

    @settings(max_examples=150, deadline=None)
    @given(st.integers(40, 600), st.data())
    def test_log(self, wp, data):
        m = data.draw(st.integers(1, 2 ** min(wp, 200)))
        e = data.draw(st.integers(-3000, 3000))
        value, err = balls._log_fixed(m, e, wp)
        self.within(value, err, *enclosure(iv.log, 4 * wp,
                                           Fraction(m) * Fraction(2) ** e), wp)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(40, 600), st.integers(0, 1), st.data())
    def test_cos_sin(self, wp, odd, data):
        bound = (8 << wp) // 10
        s = data.draw(st.integers(-bound, bound))
        value, err = balls._cos_sin_fixed(s, wp, odd)
        self.within(value, err, *enclosure(iv.sin if odd else iv.cos, 4 * wp,
                                           Fraction(s, 2 ** wp)), wp)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(40, 600), st.data())
    def test_atanh(self, wp, data):
        bound = (18 << wp) // 100
        t = data.draw(st.integers(-bound, bound))
        value, terms = balls._atanh_fixed(t, wp)
        err = Fraction(9, 4) * terms + Fraction(13, 10)
        self.within(value, err, *enclosure(
            lambda x: (iv.log(1 + x) - iv.log(1 - x)) / 2, 4 * wp,
            Fraction(t, 2 ** wp)), wp)

    @pytest.mark.parametrize("wp", [20, 64, 200, 531, 1100])
    def test_constants(self, wp):
        with iv_precision(4 * wp):
            refs = ends(iv.ln2), ends(iv.pi)
        for kernel, ref in zip((balls._ln2, balls._pi), refs):
            self.within(*kernel(wp), *ref, wp)


def mpmath_nstr(q: Fraction, digits: int) -> str:
    man, exp = q.numerator, 1 - q.denominator.bit_length()
    return mpmath.nstr(mpmath.mp.make_mpf(from_man_exp(man, exp)), digits)


class TestNstr:
    # beyond 2**+-3500 mpmath divides by a rounded power of ten first (see
    # ``balls.nstr``), so a fixed example set keeps the test reproducible
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(-2 ** 400, 2 ** 400).filter(bool),
           st.integers(-5000, 5000), st.sampled_from([3, 8, 12, 40]))
    def test_matches_mpmath_on_random_dyadics(self, m, e, digits):
        q = Fraction(m) * Fraction(2) ** e
        assert nstr(q, digits) == mpmath_nstr(q, digits)

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(1), Fraction(-5, 2),
                                   Fraction(999999, 2 ** 20), Fraction(10 ** 45),
                                   Fraction(1, 2 ** 4000)])
    @pytest.mark.parametrize("digits", [1, 3, 8, 12, 40])
    def test_edge_values(self, q, digits):
        assert nstr(q, digits) == mpmath_nstr(q, digits)

    def test_rejects_a_non_dyadic(self):
        with pytest.raises(ValueError):
            nstr(Fraction(1, 3), 8)

    @pytest.mark.parametrize("argv", [
        ["run", "--profile", "theorem1"],
        ["run", "--profile", "section2-s17"],
        ["asymptotics", "--profile", "theorem1", "--precision", "192"]],
        ids=["theorem1", "section2-s17", "asymptotics"])
    def test_matches_mpmath_on_every_preset_ball(self, monkeypatch, tmp_path,
                                                 argv):
        seen, original = [], cli._ball

        def recording(b, precision, digits=40):
            out = original(b, precision, digits)
            seen.append((b, digits, out))
            return out

        monkeypatch.setattr(cli, "_ball", recording)
        assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        assert seen
        for b, digits, out in seen:
            assert out["mid"] == mpmath_nstr(b.mid, digits)
            assert out["rad"] == mpmath_nstr(b.rad, 8)


def run_fresh(tmp_path, *lines, site=True):
    """Run ``lines`` in a fresh interpreter, after ``import sys`` and
    with ``run_theorem1()`` defined; it must exit 0.  With ``site``
    false the interpreter skips the site hook (``-S``), which on some
    hosts loads modules such as ``pathlib`` before any code runs."""
    code = "\n".join([
        "import sys",
        "def run_theorem1():",
        "    import betaforms.cli",
        "    rc = betaforms.cli.main(['run', '--profile', 'theorem1',"
        f" '--n', '2', '--out', {str(tmp_path / 'report.json')!r}])",
        "    assert rc == 0, rc",
        *lines])
    root = str(Path(balls.__file__).resolve().parents[1])
    flags = [] if site else ["-S"]
    done = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": root})
    assert done.returncode == 0, done.stderr


def test_no_mpmath_or_numpy_on_the_import_path_or_in_a_run(tmp_path):
    """``betaforms.cli`` imports neither mpmath nor numpy, and a theorem1
    run loads neither."""
    run_fresh(tmp_path,
              "loaded = lambda: {'mpmath', 'numpy'} & set(sys.modules)",
              "import betaforms.cli",
              "assert not loaded(), ('loaded by the import', loaded())",
              "run_theorem1()",
              "assert not loaded(), ('loaded by the run', loaded())")
