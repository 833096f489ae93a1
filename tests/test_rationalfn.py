import importlib.util
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from betaforms import profile_violations, rationalfn
from betaforms.decomposition import _assemble
from betaforms.numerics import build_profile_rep
from betaforms.numtheory import carry_min_table
from betaforms.profiles import (ProfileError, THEOREM1_ETA, general,
                                profile_from_spec, section2)
from betaforms.rationalfn import (LinearProductRep,
                                  _layers, _reflection, _times_linear,
                                  build_general, build_section2,
                                  partial_fractions)
from betaforms.series import divide_trunc

from betaforms.numtheory import valuation
from tests.reference import (SIX_TERMS, FractionTable,
                             binomial_block_coefficients,
                             binomial_block_product, build_remark1,
                             fraction_table, full_sweep_partial_fractions,
                             hypergeometric_parameters, linear_product_rep,
                             paper_section2_rep, reconstruct,
                             remark1_identity_check, scaled,
                             section2_top_coefficient, shifted,
                             symmetry_check)
from tests.test_numtheory import admissible_general, unmerged_table

TOP_COEFF_CASES = [(3, 2), (5, 2), (5, 4), (17, 2)]


def mul_linear(coeffs: list, c, order: int) -> list:
    """Multiply a series by the linear factor ``(c + u)``, truncated."""
    out = [0] * min(len(coeffs) + 1, order)
    for j, a in enumerate(coeffs):
        if j < order:
            out[j] = out[j] + a * c
        if j + 1 < order:
            out[j + 1] = out[j + 1] + a
    return out


def roots(pairs):
    """(root, multiplicity) pairs from a rep's doubled roots."""
    return [(Fraction(r, 2), m) for r, m in pairs]


def fraction_partial_fractions(rep):
    """The table by series division in Fraction arithmetic throughout: the
    reference the integer kernel must reproduce entry for entry."""
    half = Fraction(1, 2)
    offset = half if any(r % 2 for r, _ in rep.den_roots) else Fraction(0)
    poles = sorted(roots(rep.den_roots), key=lambda rm: -rm[0] - offset)
    s = max(m for _, m in rep.den_roots)
    pole_ks, rows = [], []
    for pole_root, mult in poles:
        num = [rep.scalar]
        for r, m in roots(rep.num_roots):
            for _ in range(m):
                num = mul_linear(num, pole_root - r, mult)
        den = [Fraction(1)]
        for r, m in roots(rep.den_roots):
            if r == pole_root:
                continue
            for _ in range(m):
                den = mul_linear(den, pole_root - r, mult)
        g = divide_trunc(num, den, mult)
        coeffs = [Fraction(0)] * s
        for i in range(1, mult + 1):
            coeffs[i - 1] = g[mult - i]
        pole_ks.append(int(-pole_root - offset))
        rows.append(tuple(coeffs))
    return FractionTable(s, tuple(pole_ks), offset, tuple(rows))


def divide_fraction_free(num, den, order):
    """Scaled quotient of integer series, ``O_j = (num/den)_j * b0**(j+1)``
    with ``b0 = den[0]``, by
    ``O_j = num_j b0**j - sum_{k>=1} den_k O_{j-k} b0**(k-1)``."""
    powers = [1]
    for _ in range(order):
        powers.append(powers[-1] * den[0])
    scaled = [0] + [d * p for d, p in zip(den[1:order], powers)]
    out = []
    for j in range(order):
        acc = num[j] * powers[j] if j < len(num) else 0
        for k in range(1, min(j, len(scaled) - 1) + 1):
            acc -= scaled[k] * out[j - k]
        out.append(acc)
    return out


def fraction_free_partial_fractions(rep):
    """The table from both co-factor products, built in integers at every
    pole and divided fraction-free: an independent reference fast enough
    for theorem1 at n = 4 and 6, where the Fraction one is not."""
    offset = Fraction(any(r % 2 for r, _ in rep.den_roots), 2)
    poles = sorted(rep.den_roots, key=lambda rm: -rm[0])
    s = max(m for _, m in rep.den_roots)
    pole_ks, rows = [], []
    for pole2, mult in poles:
        num = [1]
        for r, m in rep.num_roots:
            for _ in range(m):
                num = mul_linear(num, pole2 - r, mult)
        den = [1]
        for r, m in rep.den_roots:
            if r == pole2:
                continue
            for _ in range(m):
                den = mul_linear(den, pole2 - r, mult)
        gap = rep.den_degree - mult - rep.num_degree
        coeffs = [Fraction(0)] * s
        for j, scaled in enumerate(divide_fraction_free(num, den, mult)):
            coeffs[mult - 1 - j] = (rep.scalar * scaled * Fraction(2) ** (gap + j)
                                    / den[0] ** (j + 1))
        pole_ks.append(int(-Fraction(pole2, 2) - offset))
        rows.append(tuple(coeffs))
    return FractionTable(s, tuple(pole_ks), offset, tuple(rows))


def assert_factored(table):
    """Each pole's scale and cofactor have the exponents its valuations
    claim, and each entry's denominator, multiplied out from its factors
    2**x L**j cofactor, is the stored one."""
    lcm = dict(table.lcm.factors)
    assert lcm.keys() <= set(table.primes)
    for idx, values in enumerate(table.valuations):
        exps = dict(zip(table.primes, values))
        assert table.cofactors[idx] == math.prod(
            p ** -v for p, v in exps.items() if v < 0)
        assert all(valuation(table.scales[idx], p) == max(v, 0)
                   for p, v in exps.items())
        order = table.orders[idx]
        assert not any(table.rows[idx][order:])
        for i in range(1, order + 1):
            j, x = order - i, i
            factored = math.prod(
                p ** (max(-v, 0) + j * lcm.get(p, 0) + (x if p == 2 else 0))
                for p, v in exps.items())
            assert factored == table.fraction(idx, i)[1]


# Every kind of representation the package builds, kept small enough for
# the Fraction reference: general profiles (s in {5, 7}, eta_0 <= 14,
# n <= 2), the basic family (also in the paper's integer-pole coordinates),
# the binomial blocks and the remark-1 variant.
any_rep = st.one_of(
    admissible_general((5, 7), 14).filter(lambda case: case[1] <= 2).map(
        lambda case: build_general(general(case[2], case[1]))),
    st.builds(build_section2, st.sampled_from([3, 5, 7]),
              st.sampled_from([2, 4])),
    st.builds(paper_section2_rep, st.sampled_from([3, 5, 7]),
              st.sampled_from([2, 4])),
    st.builds(binomial_block_product, st.integers(1, 4), st.integers(1, 5)),
    st.builds(build_remark1, st.sampled_from([3, 5, 7]),
              st.sampled_from([2, 4, 6])),
)


def product_eval_oracle(s, n, t):
    """Straight product evaluation of the basic construction in the paper's
    coordinates (poles at 0..-n), no shared code; ``build_section2`` at t
    is this at t + n + 1/2."""
    t = Fraction(t)
    val = Fraction(2 ** (6 * n) * math.factorial(n) ** (s - 3)) * (2 * t + n)
    for j in range(1, 3 * n + 1):
        val *= t - n + j - Fraction(1, 2)
    for j in range(n + 1):
        val /= (t + j) ** s
    return val


class TestBuildSection2:
    """The package's basic construction, in the shared coordinates: the
    paper's t is t + n + 1/2 here."""

    def test_structure_3_2(self):
        rep = build_section2(3, 2)
        assert rep.den_roots == ((-9, 3), (-7, 3), (-5, 3))
        assert rep.num_degree == 7
        assert rep.degree_gap == 2

    def test_symmetry_at_point(self):
        # t -> -t - h0, h0 = 3n + 1
        rep = build_section2(5, 2)
        t = Fraction(1, 3)
        assert rep.evaluate(-t - 7) == rep.evaluate(t)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=30))
    def test_matches_product_oracle(self, t):
        rep = build_section2(3, 2)
        assert rep.evaluate(t - Fraction(5, 2)) == product_eval_oracle(3, 2, t)

    def test_value_at_half(self):
        rep = build_section2(5, 4)
        assert rep.evaluate(-4) == product_eval_oracle(5, 4, Fraction(1, 2))

    def test_parameter_validation(self):
        with pytest.raises(ProfileError):
            build_section2(4, 2)
        with pytest.raises(ProfileError):
            build_section2(3, 3)

    def test_pole_evaluation_raises(self):
        with pytest.raises(ZeroDivisionError):
            build_section2(3, 2).evaluate(Fraction(-7, 2))


SHAPE_CASES = [(s, n) for s in range(3, 18, 2) for n in (2, 4, 6, 8)]


class TestSection2IsTheGeneralFamily:
    """The paper's section-2 function, shifted by n + 1/2, is the general
    construction at eta = (3, 1, ..., 1), and its six-term carry function
    has the carry minimum of the general sum at that shape."""

    @pytest.mark.parametrize("s,n", SHAPE_CASES)
    def test_shifted_paper_function_is_the_package_rep(self, s, n):
        paper = shifted(paper_section2_rep(s, n), n + Fraction(1, 2))
        rep = build_section2(s, n)
        assert paper == rep
        assert rep.scalar == 2 ** (6 * n + 1) * math.factorial(n) ** (s - 3)

    @pytest.mark.parametrize("s,n", [(3, 2), (3, 4), (5, 2), (5, 4), (17, 2)])
    def test_paper_origins_give_the_same_form(self, bundle, s, n):
        # the paper's pole k = 0..n has inner-sum origin k - n/2
        table = partial_fractions(paper_section2_rep(s, n))
        a = _assemble(table, s, [k - n // 2 for k in table.pole_ks])
        assert a == bundle(section2(s, n)).decomposition.a

    def test_carry_minimum_is_the_six_term_sums(self):
        # the s = 3 table is the six-term sum's, and the s = 5 table is the
        # s = 3 one, which makes it the same at every s (``numtheory``)
        assert carry_min_table((3, 1, 1, 1)) == unmerged_table(SIX_TERMS)
        assert carry_min_table((3, 1, 1, 1, 1, 1)) == carry_min_table(
            (3, 1, 1, 1))

    @pytest.mark.parametrize("s,n", SHAPE_CASES)
    def test_profile_keeps_its_arithmetic_and_shares_the_shape(self, s, n):
        profile = section2(s, n)
        assert profile.shape == (3,) + (1,) * s
        assert profile.d_index == n
        assert profile.phi_lower_sq == 4 * n
        assert carry_min_table(profile.shape) == carry_min_table((3, 1, 1, 1))
        assert profile.pole_ks == range(n, 2 * n + 1)
        assert [r for r, _ in build_section2(s, n).den_roots] == sorted(
            -(2 * k + 1) for k in profile.pole_ks)
        if s < 5:
            return  # the general family starts at s = 5
        twin = general(profile.shape, n)
        for name in ("h0", "N", "d_index", "gamma", "pole_ks"):
            assert getattr(profile, name) == getattr(twin, name), name
        assert build_general(twin) == build_section2(s, n)


class TestBuildGeneral:
    def test_gamma_example(self):
        profile = general((5, 1, 1, 1, 1, 1), 2)
        assert profile.gamma == Fraction(4 ** 10 * math.factorial(6) ** 4,
                                         math.factorial(2) ** 2)

    def test_symmetry(self):
        profile = general((5, 1, 1, 1, 1, 1), 2)
        rep = build_general(profile)
        t = Fraction(1, 5)
        assert rep.evaluate(-t - profile.h0) == rep.evaluate(t)

    def test_pole_multiplicity_at_edge(self):
        # multiplicity at the lowest pole = number of minimal eta entries
        profile = general(THEOREM1_ETA, 2)
        rep = build_general(profile)
        table = partial_fractions(rep)
        k_min = min(table.pole_ks)
        assert k_min == profile.N
        n_min = sum(1 for e in THEOREM1_ETA[1:] if e == min(THEOREM1_ETA[1:]))
        assert dict(rep.den_roots)[-(2 * k_min + 1)] == n_min == 5

    def test_degree_gap_positive(self):
        for eta, n in [((5, 1, 1, 1, 1, 1), 2), (THEOREM1_ETA, 2)]:
            assert build_general(general(eta, n)).degree_gap >= 2


@st.composite
def linear_product_reps(draw):
    """A proper rep with poles on a possibly gapped grid of integers or of
    half-integers and numerator roots of both kinds (some on poles) with
    multiplicity up to 3; in about half the draws both root sets are made
    symmetric under the reflection that lets the sweep stop halfway."""
    parity = draw(st.integers(0, 1))  # 1: half-integer poles
    den = Counter({2 * k + parity: m for k, m in draw(
        st.dictionaries(st.integers(-4, 4), st.integers(1, 3),
                        min_size=1, max_size=5)).items()})
    num = Counter()
    room = sum(den.values()) - 1
    for r, m in draw(st.lists(st.tuples(st.integers(-12, 12),
                                        st.integers(1, 3)), max_size=8)):
        m = min(m, room - sum(num.values()))
        if m > 0:
            num[r] += m
    if draw(st.booleans()):
        c = min(den) + max(den)
        num += Counter({c - r: m for r, m in num.items()})
        den += Counter({c - r: m for r, m in den.items()})
    scalar = draw(st.sampled_from([1, -2, Fraction(7, 3), Fraction(-5, 8)]))
    return linear_product_rep(scalar,
                              [(Fraction(r, 2), m) for r, m in num.items()],
                              [(Fraction(r, 2), m) for r, m in den.items()])


class TestParitySplit:
    """Each pole's co-factor splits into an integer polynomial over the
    roots of the other parity and scaled power sums over those of the
    pole's parity; the table must not depend on the split."""

    @settings(max_examples=150, deadline=None)
    @given(linear_product_reps())
    # no root of the other parity
    @example(linear_product_rep(
        Fraction(5, 3), [(Fraction(-1, 2), 2), (Fraction(7, 2), 1)],
        [(Fraction(1, 2), 3), (Fraction(3, 2), 1), (Fraction(-5, 2), 2)]))
    # only poles have the poles' parity
    @example(linear_product_rep(
        -2, [(Fraction(1, 2), 3), (Fraction(-5, 2), 1)],
        [(0, 2), (1, 3), (3, 1)]))
    # a numerator root on a pole, integer poles
    @example(linear_product_rep(
        1, [(1, 2), (Fraction(1, 2), 1)], [(1, 3), (0, 1), (2, 1)]))
    def test_matches_the_references(self, rep):
        table = partial_fractions(rep)
        assert_factored(table)
        reduced = fraction_table(table)
        assert reduced == full_sweep_partial_fractions(rep)
        assert reduced == fraction_partial_fractions(rep)

    def test_a_gapped_grid_is_built_once(self, monkeypatch):
        # poles at t = -1/2, -3/2, -9/2, -11/2, and no reflection: the sweep
        # slides across the gap, past the numerator root t = -5/2 in it,
        # instead of building the state again
        rep = linear_product_rep(
            Fraction(7, 3), [(0, 1), (-1, 2), (Fraction(-5, 2), 1)],
            [(Fraction(-1, 2), 2), (Fraction(-3, 2), 1),
             (Fraction(-9, 2), 1), (Fraction(-11, 2), 2)])
        assert reflection(rep) is None
        copies = []
        copy = rationalfn._FactoredRatio.copy
        monkeypatch.setattr(rationalfn._FactoredRatio, "copy",
                            lambda ratio: copies.append(ratio) or copy(ratio))
        reduced = fraction_table(partial_fractions(rep))
        assert len(copies) == 1
        assert reduced == full_sweep_partial_fractions(rep)
        assert reduced == fraction_partial_fractions(rep)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_theorem1_denominators_are_factored(self, n):
        assert_factored(partial_fractions(
            build_general(general(THEOREM1_ETA, n))))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8),
           st.integers(-40, 40).filter(bool), st.integers(0, 4),
           st.integers(1, 10 ** 12))
    @example([3, -1, 4], 7, 2, 12)
    def test_division_undoes_multiplication(self, poly, a, w, scale):
        assert (_times_linear(_times_linear(poly, a, w, scale), a, -w, scale)
                == poly)
        # the scale keeps coefficient j as scale**j times its value
        def lift(coeffs):
            return [c * scale ** j for j, c in enumerate(coeffs)]

        assert (_times_linear(lift(poly), a, w, scale)
                == lift(_times_linear(poly, a, w, 1)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8),
           st.integers(2, 40), st.sampled_from([1, -1]))
    def test_absent_factor_raises(self, poly, a, sign):
        # a constant term prime to a leaves a remainder at the first step
        poly[0] = poly[0] * a + 1
        with pytest.raises(ArithmeticError):
            _times_linear(poly, sign * a, -1, 1)

    def test_absent_factor_raises_past_the_constant_term(self):
        # (5 + v)**2 holds 5 + v but not -5 + v: dividing by the latter
        # passes q_0 = -5 and q_1 = -3, then leaves a remainder at q_2
        assert _times_linear([25, 10, 1], 5, -1, 1) == [5, 1, 0]
        with pytest.raises(ArithmeticError):
            _times_linear([25, 10, 1], -5, -1, 1)


class TestLayers:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(-15, 15), st.integers(1, 4), min_size=1))
    @example({0: 1, 1: 2, 2: 1, 3: 1, -1: 1})
    def test_layers_cover_the_multiplicities(self, mult):
        runs = _layers(mult)
        cover = Counter()
        for lo, hi in runs:
            # one parity class per run
            assert lo <= hi and (hi - lo) % 2 == 0
            cover.update(range(lo, hi + 1, 2))
        assert cover == Counter(mult)
        # one run per start: as few runs as the multiplicities allow
        assert len(runs) == sum(max(m - mult.get(r - 2, 0), 0)
                                for r, m in mult.items())


class TestPartialFractions:
    def test_reconstruction_suite(self, bundle):
        from tests.conftest import suite_profiles

        rng = random.Random(7)
        for profile in suite_profiles():
            b = bundle(profile)
            # the big table is exact too, just slower per point
            points = 5 if b.rep.den_degree > 300 else 20
            for _ in range(points):
                t = Fraction(rng.randrange(1, 400), rng.choice([7, 9, 11, 13]))
                assert reconstruct(b.table, t) == b.rep.evaluate(t)

    @settings(max_examples=60, deadline=None)
    @given(any_rep)
    @example(build_general(general(THEOREM1_ETA, 2)))
    @example(build_section2(17, 2))
    # the numerator root -(3n + 1)/2 sits on a pole
    @example(build_section2(5, 2))
    @example(paper_section2_rep(5, 2))
    # gapped pole grids: the power sums are rebuilt at the second pole
    @example(linear_product_rep(1, [], [(0, 2), (3, 1)]))
    @example(linear_product_rep(Fraction(7, 3), [(Fraction(1, 2), 1), (0, 1)],
                                [(0, 3), (-3, 3)]))
    @example(build_remark1(7, 6))
    def test_matches_fraction_reference(self, rep):
        table = partial_fractions(rep)
        assert fraction_table(table) == fraction_partial_fractions(rep)
        # the reduced view
        assert all(type(c) is Fraction for _, _, c in table.entries())

    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_fraction_free_kernel_on_theorem1(self, n):
        # 45 and 67 poles of multiplicity up to 13: too slow for the
        # Fraction reference
        rep = build_general(general(THEOREM1_ETA, n))
        assert (fraction_table(partial_fractions(rep))
                == fraction_free_partial_fractions(rep))

    def test_improper_rejected(self):
        rep = linear_product_rep(1, [(Fraction(5), 1)], [(Fraction(0), 1)])
        with pytest.raises(ValueError):
            partial_fractions(rep)

    @settings(max_examples=10, deadline=None)
    @given(st.fractions(min_value=Fraction(-50), max_value=50,
                        max_denominator=90).filter(bool))
    def test_linearity(self, bundle, c):
        b = bundle(section2(3, 2))
        table = partial_fractions(scaled(b.rep, c))
        for i, k, coeff in b.table.entries():
            assert table.a(i, k) == c * coeff

    def test_section2_properness_formula(self):
        for s, n in [(3, 2), (3, 4), (5, 2), (5, 4), (17, 2)]:
            rep = build_section2(s, n)
            assert rep.degree_gap == (n + 1) * s - (3 * n + 1) >= 2

    def test_residues_sum_to_zero(self, bundle):
        # gap >= 2 forces a zero residue sum at infinity
        from tests.conftest import suite_profiles

        for profile in suite_profiles():
            b = bundle(profile)
            assert b.rep.degree_gap >= 2
            assert sum(b.table.a(1, k) for k in b.table.pole_ks) == 0

    @pytest.mark.parametrize("s,n", TOP_COEFF_CASES)
    def test_top_coefficient_closed_form(self, bundle, s, n):
        # the paper's pole k is pole k + n here
        table = bundle(section2(s, n)).table
        for k in range(n + 1):
            assert table.a(s, k + n) == section2_top_coefficient(s, n, k)

    def test_reflection_identity(self, bundle):
        # on the full sweep: a mirrored table holds it by construction
        from tests.conftest import suite_profiles

        for profile in suite_profiles():
            table = full_sweep_partial_fractions(bundle(profile).rep)
            assert symmetry_check(table, profile.h0 - 1)

    def test_mutated_table_fails_symmetry(self, bundle):
        b = bundle(section2(3, 2))
        table, c = fraction_table(b.table), b.profile.h0 - 1
        rows = [list(r) for r in table.rows]
        rows[0][0] += 1
        bad = FractionTable(table.s, table.pole_ks, table.pole_offset,
                            tuple(tuple(r) for r in rows))
        assert symmetry_check(table, c)
        assert not symmetry_check(bad, c)


def reflection(rep):
    """``rationalfn._reflection`` of a rep: the doubled mirror constant, or
    None when the sweep must run in full."""
    return _reflection(dict(rep.num_roots), dict(rep.den_roots))


def random_profile_reps():
    """The reps of the benchmark's 16 seed-1 ``random-profiles`` profiles."""
    path = Path(__file__).resolve().parent.parent / "perfbench/workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [build_profile_rep(profile_from_spec(profile, n))
            for profile in workloads.random_profiles(1, profile_violations)
            for n in profile["n"]]


class TestMirroredPartialFractions:
    """The sweep stops at the middle pole when the reflection fixes the
    rep, and runs in full otherwise; both must give the full sweep's
    table."""

    @staticmethod
    def assert_same_table(rep):
        assert (fraction_table(partial_fractions(rep))
                == full_sweep_partial_fractions(rep))

    def test_profiles_take_the_mirror_and_match_the_full_sweep(self, bundle):
        from tests.conftest import suite_profiles

        reps = [bundle(profile).rep for profile in suite_profiles()]
        reps.append(build_general(general(THEOREM1_ETA, 6)))
        for rep in reps:
            assert reflection(rep) is not None
            self.assert_same_table(rep)

    def test_theorem1_n12(self):
        # the sweep moves G by powers (7**3, 19**2) and at primes (107 to
        # 131) that no n <= 6 reaches
        rep = build_general(general(THEOREM1_ETA, 12))
        assert reflection(rep) is not None
        self.assert_same_table(rep)

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_binomial_blocks(self, kind, n):
        # kinds 1 and 3 are fixed by the reflection, 2 and 4 are not
        rep = binomial_block_product(kind, n)
        assert (reflection(rep) is None) == (kind in (2, 4))
        self.assert_same_table(rep)

    @pytest.mark.parametrize("s,n", [(5, 2), (17, 2)])
    def test_one_numerator_multiplicity_bumped(self, s, n):
        rep = build_section2(s, n)
        assert reflection(rep) is not None
        (r, m), *rest = rep.num_roots  # the lowest root, off the centre
        bumped = LinearProductRep(rep.scalar, ((r, m + 1), *rest),
                                  rep.den_roots)
        assert reflection(bumped) is None
        self.assert_same_table(bumped)

    def test_profile_degree_gaps_are_even(self, bundle):
        # so the mirror's sign (-1)**(i + gap) is (-1)**i on every profile
        from tests.conftest import suite_profiles

        reps = [bundle(profile).rep for profile in suite_profiles()]
        reps += random_profile_reps()
        assert len(reps) == len(suite_profiles()) + 16
        for rep in reps:
            assert rep.degree_gap % 2 == 0
            assert reflection(rep) is not None


class TestBinomialBlocks:
    def test_kind1_small(self):
        assert binomial_block_coefficients(1, 2) == [1, -2, 1]

    def test_kind3_example(self):
        assert binomial_block_coefficients(3, 1)[0] == 2

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    def test_closed_form_equals_partial_fractions(self, kind):
        table = partial_fractions(binomial_block_product(kind, 3))
        closed = binomial_block_coefficients(kind, 3)
        assert [table.a(1, k) for k in table.pole_ks] == closed

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            binomial_block_coefficients(5, 3)
        with pytest.raises(ValueError):
            binomial_block_coefficients(1, 0)


class TestRemark1:
    def test_identity_examples(self):
        assert remark1_identity_check(3, 2, Fraction(1, 3))
        assert remark1_identity_check(5, 2, Fraction(7, 2))

    def test_both_proper(self):
        main = build_section2(3, 2)
        variant = build_remark1(3, 2)
        assert main.degree_gap >= 1 and variant.degree_gap >= 1
        # the completing factor has degree n, matching the gap difference
        assert variant.degree_gap - main.degree_gap == 2

    @settings(max_examples=25, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=40))
    def test_identity_random_points(self, t):
        assert remark1_identity_check(3, 2, t)


class TestHypergeometricParameters:
    def test_counts(self):
        up, low, arg = hypergeometric_parameters(
            general((5, 1, 1, 1, 1, 1), 2))
        assert len(up) == 7 and len(low) == 6 and arg == -1

    def test_well_poised_pairing(self):
        up, low, _ = hypergeometric_parameters(general(THEOREM1_ETA, 2))
        for j in range(2, len(up)):
            assert up[0] + 1 == up[j] + low[j - 1]
        # the convergence-accelerating pair
        assert up[1] == 1 + up[0] / 2 and low[0] == up[0] / 2

    @settings(max_examples=40, deadline=None)
    @given(admissible_general())
    @example((13, 2, THEOREM1_ETA))
    @example((13, 4, THEOREM1_ETA))
    @example((5, 2, (5, 1, 1, 1, 1, 1)))
    @example((5, 4, (5, 1, 1, 1, 1, 1)))
    @example((5, 2, (8, 2, 2, 2, 3, 3)))
    @example((5, 4, (8, 2, 2, 2, 3, 3)))
    # no eta: the basic family
    @example((3, 2, None))
    @example((5, 4, None))
    @example((17, 2, None))
    @example((7, 6, None))
    def test_step_ratio_is_the_series_term_ratio(self, case):
        # the series term at nu = k is (-1)**k f(k), so -f(k+1)/f(k) must be
        # z prod (k + u) / ((k + 1) prod (k + l)); compare roots after cancelling
        s, n, eta = case
        profile = general(eta, n) if eta else section2(s, n)
        ups, downs = ([Fraction(r, 2) for r in side]
                      for side in build_profile_rep(profile).step_ratio())
        upper, lower, z = hypergeometric_parameters(profile)

        def reduced(num, den):
            num, den = Counter(num), Counter(den)
            return num - den, den - num

        assert len(ups) == len(downs) and z == -1
        assert reduced(ups, downs) == reduced([-u for u in upper],
                                              [-1] + [-v for v in lower])

    def test_direct_substitution(self):
        up, _, _ = hypergeometric_parameters(general((5, 1, 1, 1, 1, 1), 2))
        assert up[1] == 1 + Fraction(11, 2)
