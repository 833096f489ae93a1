import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from betaforms.profiles import ProfileError, THEOREM1_ETA, general
from betaforms.rationalfn import (LinearProductRep, PartialFractionTable,
                                  _layers, binomial_block_coefficients,
                                  binomial_block_product, build_general,
                                  build_remark1, build_section2,
                                  hypergeometric_parameters, partial_fractions,
                                  remark1_identity_check,
                                  section2_top_coefficient, symmetry_check)
from betaforms.series import divide_trunc

from tests.test_numtheory import admissible_general

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


def fraction_partial_fractions(rep):
    """The table by series division in Fraction arithmetic throughout: the
    reference the integer kernel must reproduce entry for entry."""
    half = Fraction(1, 2)
    offset = half if any(r.denominator == 2 for r, _ in rep.den_roots) else Fraction(0)
    poles = sorted(rep.den_roots, key=lambda rm: -rm[0] - offset)
    s = max(m for _, m in rep.den_roots)
    pole_ks, mults, rows = [], [], []
    for pole_root, mult in poles:
        num = [rep.scalar]
        for r, m in rep.num_roots:
            for _ in range(m):
                num = mul_linear(num, pole_root - r, mult)
        den = [Fraction(1)]
        for r, m in rep.den_roots:
            if r == pole_root:
                continue
            for _ in range(m):
                den = mul_linear(den, pole_root - r, mult)
        g = divide_trunc(num, den, mult)
        coeffs = [Fraction(0)] * s
        for i in range(1, mult + 1):
            coeffs[i - 1] = g[mult - i]
        pole_ks.append(int(-pole_root - offset))
        mults.append(mult)
        rows.append(tuple(coeffs))
    return PartialFractionTable(s, tuple(pole_ks), offset, tuple(mults),
                                tuple(rows))


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
    offset = (Fraction(1, 2) if any(r.denominator == 2 for r, _ in rep.den_roots)
              else Fraction(0))
    poles = sorted(rep.den_roots, key=lambda rm: -rm[0] - offset)
    s = max(m for _, m in rep.den_roots)
    pole_ks, mults, rows = [], [], []
    for pole_root, mult in poles:
        pole2 = int(2 * pole_root)
        num = [1]
        for r, m in rep.num_roots:
            for _ in range(m):
                num = mul_linear(num, pole2 - int(2 * r), mult)
        den = [1]
        for r, m in rep.den_roots:
            if r == pole_root:
                continue
            for _ in range(m):
                den = mul_linear(den, pole2 - int(2 * r), mult)
        gap = rep.den_degree - mult - rep.num_degree
        coeffs = [Fraction(0)] * s
        for j, scaled in enumerate(divide_fraction_free(num, den, mult)):
            coeffs[mult - 1 - j] = (rep.scalar * scaled * Fraction(2) ** (gap + j)
                                    / den[0] ** (j + 1))
        pole_ks.append(int(-pole_root - offset))
        mults.append(mult)
        rows.append(tuple(coeffs))
    return PartialFractionTable(s, tuple(pole_ks), offset, tuple(mults),
                                tuple(rows))


# Every kind of representation the package builds, kept small enough for
# the Fraction reference: general profiles (s in {5, 7}, eta_0 <= 14,
# n <= 2), the basic family, the binomial blocks and the remark-1 variant.
any_rep = st.one_of(
    admissible_general((5, 7), 14).filter(lambda case: case[1] <= 2).map(
        lambda case: build_general(general(case[2], case[1]))),
    st.builds(build_section2, st.sampled_from([3, 5, 7]),
              st.sampled_from([2, 4])),
    st.builds(binomial_block_product, st.integers(1, 4), st.integers(1, 5)),
    st.builds(build_remark1, st.sampled_from([3, 5, 7]),
              st.sampled_from([2, 4, 6])),
)


def product_eval_oracle(s, n, t):
    """Straight product evaluation of the basic construction, no shared code."""
    t = Fraction(t)
    val = Fraction(2 ** (6 * n) * math.factorial(n) ** (s - 3)) * (2 * t + n)
    for j in range(1, 3 * n + 1):
        val *= t - n + j - Fraction(1, 2)
    for j in range(n + 1):
        val /= (t + j) ** s
    return val


class TestBuildSection2:
    def test_structure_3_2(self):
        rep = build_section2(3, 2)
        assert rep.den_roots == ((Fraction(-2), 3), (Fraction(-1), 3), (Fraction(0), 3))
        assert rep.num_degree == 7
        assert rep.degree_gap == 2

    def test_symmetry_at_point(self):
        rep = build_section2(5, 2)
        t = Fraction(1, 3)
        assert rep.evaluate(-t - 2) == rep.evaluate(t)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=30))
    def test_matches_product_oracle(self, t):
        rep = build_section2(3, 2)
        assert rep.evaluate(t) == product_eval_oracle(3, 2, t)

    def test_value_at_half(self):
        rep = build_section2(5, 4)
        assert rep.evaluate(Fraction(1, 2)) == product_eval_oracle(5, 4, Fraction(1, 2))

    def test_parameter_validation(self):
        with pytest.raises(ProfileError):
            build_section2(4, 2)
        with pytest.raises(ProfileError):
            build_section2(3, 3)

    def test_pole_evaluation_raises(self):
        with pytest.raises(ZeroDivisionError):
            build_section2(3, 2).evaluate(-1)


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
        table = partial_fractions(build_general(profile))
        k_min = min(table.pole_ks)
        assert k_min == profile.N
        idx = table.pole_ks.index(k_min)
        n_min = sum(1 for e in THEOREM1_ETA[1:] if e == min(THEOREM1_ETA[1:]))
        assert table.multiplicities[idx] == n_min == 5

    def test_degree_gap_positive(self):
        for eta, n in [((5, 1, 1, 1, 1, 1), 2), (THEOREM1_ETA, 2)]:
            assert build_general(general(eta, n)).degree_gap >= 2


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
                assert b.table.reconstruct(t) == b.rep.evaluate(t)

    @settings(max_examples=60, deadline=None)
    @given(any_rep)
    @example(build_general(general(THEOREM1_ETA, 2)))
    @example(build_section2(17, 2))
    # the numerator root -n/2 sits on a pole
    @example(build_section2(5, 2))
    # gapped pole grids: the power sums are rebuilt at the second pole
    @example(LinearProductRep.build(1, [], [(0, 2), (3, 1)]))
    @example(LinearProductRep.build(Fraction(7, 3), [(Fraction(1, 2), 1), (0, 1)],
                                    [(0, 3), (-3, 3)]))
    @example(build_remark1(7, 6))
    def test_matches_fraction_reference(self, rep):
        table = partial_fractions(rep)
        assert table == fraction_partial_fractions(rep)
        assert all(type(c) is Fraction for _, _, c in table.entries())

    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_fraction_free_kernel_on_theorem1(self, n):
        # the scaled power sums reach thousands of bits here
        rep = build_general(general(THEOREM1_ETA, n))
        assert partial_fractions(rep) == fraction_free_partial_fractions(rep)

    def test_improper_rejected(self):
        rep = LinearProductRep.build(1, [(Fraction(5), 1)], [(Fraction(0), 1)])
        with pytest.raises(ValueError):
            partial_fractions(rep)

    @settings(max_examples=10, deadline=None)
    @given(st.fractions(min_value=Fraction(-50), max_value=50,
                        max_denominator=90).filter(bool))
    def test_linearity(self, bundle, c):
        from betaforms.profiles import section2

        b = bundle(section2(3, 2))
        scaled = partial_fractions(b.rep.scaled(c))
        for i, k, coeff in b.table.entries():
            assert scaled.a(i, k) == c * coeff

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
        from betaforms.profiles import section2

        table = bundle(section2(s, n)).table
        for k in range(n + 1):
            assert table.a(s, k) == section2_top_coefficient(s, n, k)

    def test_reflection_identity(self, bundle):
        from tests.conftest import suite_profiles

        for profile in suite_profiles():
            b = bundle(profile)
            assert symmetry_check(b.table, profile.reflection_constant)

    def test_mutated_table_fails_symmetry(self, bundle):
        from betaforms.profiles import section2
        from betaforms.rationalfn import PartialFractionTable

        table = bundle(section2(3, 2)).table
        rows = [list(r) for r in table.rows]
        rows[0][0] += 1
        bad = PartialFractionTable(table.s, table.pole_ks, table.pole_offset,
                                   table.multiplicities,
                                   tuple(tuple(r) for r in rows))
        assert not symmetry_check(bad, 2)


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
    def test_step_ratio_is_the_series_term_ratio(self, case):
        # the series term at nu = k is (-1)**k f(k), so -f(k+1)/f(k) must be
        # z prod (k + u) / ((k + 1) prod (k + l)); compare roots after cancelling
        _, n, eta = case
        profile = general(eta, n)
        assert (profile.series_start, profile.series_argument_shift) == (0, 0)
        ups, downs = build_general(profile).step_ratio()
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
