import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from betaforms.decomposition import (ArithmeticFactors, DecompositionResult,
                                     InclusionError, _assemble,
                                     _tail_coefficients,
                                     beta_coefficients,
                                     integer_linear_form,
                                     verify_coefficient_inclusions,
                                     verify_form_inclusions)
from betaforms import numtheory
from betaforms.numtheory import FactoredInteger, lcm_up_to
from betaforms.profiles import THEOREM1_ETA, general, section2
from betaforms.rationalfn import (LinearProductRep, build_general,
                                  build_section2, partial_fractions)

from tests.conftest import SECTION2_SUITE, THEOREM1_NS, suite_profiles
from tests.reference import (fraction_inclusion_report,
                             inner_sum, linear_product_rep, per_pole_assemble,
                             per_pole_coefficient_inclusions,
                             remark1_denominator_probe)
from tests.test_numtheory import admissible_general
from tests.test_rationalfn import linear_product_reps


class TestInnerSum:
    def test_two_negative_terms(self):
        v = inner_sum(1, -2, -1)
        assert v == Fraction(4, 3)
        assert 6 * v == 8  # d_3 = 6 clears the denominator

    def test_single_term(self):
        assert inner_sum(2, 0, 0) == 4

    def test_empty_range(self):
        assert inner_sum(1, 3, 2) == 0

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            inner_sum(0, 0, 1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=-9, max_value=-1))
    def test_lcm_clears_negative_ranges(self, i, start):
        # denominators are odd numbers below 2|start|, so d_(2|start|-1)^i clears
        v = inner_sum(i, start, -1)
        d = lcm_up_to(2 * abs(start) - 1).value()
        assert (v * d ** i).denominator == 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=9))
    def test_lcm_clears_nonnegative_ranges(self, i, stop):
        v = inner_sum(i, 0, stop)
        d = lcm_up_to(2 * stop + 1).value()
        assert (v * d ** i).denominator == 1


def fraction_tail_correction_sum(i, terms):
    """The tail correction in Fraction arithmetic, one ``inner_sum`` per
    origin: the reference the integer running sums must reproduce."""
    total = Fraction(0)
    partial, stop = Fraction(0), 0
    for o, w in sorted((t for t in terms if t[0] > 0), key=lambda t: t[0]):
        partial += inner_sum(i, stop, o - 1)
        stop = o
        total -= w * partial
    partial, start = Fraction(0), 0
    for o, w in sorted((t for t in terms if t[0] < 0), key=lambda t: -t[0]):
        partial += inner_sum(i, o, start - 1)
        start = o
        total += w * partial
    return total


def tail_correction(i, terms) -> Fraction:
    """``_tail_coefficients`` summed against the weights, with the D and
    the signed powers (-1)**(m-1) (D/(2m - 1))**i that ``_assemble``
    hands it."""
    extent = max((abs(o) for o, _ in terms), default=0)
    d = math.lcm(*range(1, 2 * extent, 2))
    powers = [(-1) ** m * (d // (2 * m + 1)) ** i for m in range(extent)]
    e = _tail_coefficients(i, [o for o, _ in terms], powers)
    return sum((w * e_o for (_, w), e_o in zip(terms, e)),
               Fraction(0)) * Fraction(2, d) ** i


class TestTailCorrectionSum:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=14),
           st.lists(st.tuples(st.integers(min_value=-25, max_value=25),
                              st.fractions(max_denominator=10 ** 6)),
                    max_size=12))
    @example(2, [])
    @example(1, [(0, Fraction(3))])
    @example(3, [(4, Fraction(1, 3)), (4, Fraction(-2, 7)), (-4, Fraction(5))])
    @example(2, [(-1, Fraction(1)), (1, Fraction(1))])
    def test_matches_the_fraction_inner_sums(self, i, terms):
        assert (tail_correction(i, terms)
                == fraction_tail_correction_sum(i, terms))

    def test_single_origins(self):
        # c_1 = -2**i, c_-1 = -(-2)**i
        assert tail_correction(2, [(1, Fraction(1))]) == -4
        assert tail_correction(3, [(-1, Fraction(1))]) == 8
        assert tail_correction(2, [(-2, Fraction(1, 2))]) == Fraction(-16, 9)


class TestBetaCoefficients:
    def test_odd_coefficients_vanish(self, bundle):
        for profile in suite_profiles():
            a = bundle(profile).decomposition.a
            assert all(a[i] == 0 for i in range(1, profile.s + 1, 2))

    def test_even_coefficient_formula(self, bundle):
        # a_2 carries the 2^i = 4 factor over the signed column sum
        b = bundle(section2(3, 2))
        signed = sum((1 if k % 2 == 0 else -1) * b.table.a(2, k)
                     for k in b.table.pole_ks)
        assert b.decomposition.a[2] == 4 * signed

    def test_known_exact_values(self, bundle):
        a = bundle(section2(3, 2)).decomposition.a
        assert a[0] == 209632 and a[2] == -228672

    def test_profile_table_mismatch_rejected(self, bundle):
        b = bundle(section2(3, 2))
        with pytest.raises(ValueError):
            beta_coefficients(b.table, section2(3, 4))

    def test_deterministic_rebuild(self, bundle):
        profile = general(THEOREM1_ETA, 2)
        fresh = beta_coefficients(
            partial_fractions(bundle(profile).rep), profile)
        assert fresh.a == bundle(profile).decomposition.a


class TestInnerSumOrigins:
    """f vanishes at nu = -1, ..., -(h_0 - 1) and not at -h_0, so the series
    may start at nu = -m for any 0 <= m <= h_0 - 1: the origins k - m all
    give the form ``beta_coefficients`` takes at the window's centre, and
    m = h_0 adds the term (-1)**h_0 f(-h_0) to a_0."""

    @staticmethod
    def check_origins(profile, rep, table, a):
        h0 = profile.h0
        assert all(rep.evaluate(-j) == 0 for j in range(1, h0))
        assert rep.evaluate(-h0) != 0

        def form(m):
            return _assemble(table, profile.s, [k - m for k in table.pole_ks])

        for m in (0, (h0 - 1) // 2, h0 - 1):
            assert form(m) == a, m
        assert form(h0) == (a[0] + (-1) ** h0 * rep.evaluate(-h0),) + a[1:]

    @pytest.mark.parametrize("profile", suite_profiles(),
                             ids=lambda p: p.label())
    def test_suite_profiles(self, bundle, profile):
        b = bundle(profile)
        # the table rule's centre is (h_0 - 1)/2
        assert b.table.pole_ks[0] + b.table.pole_ks[-1] == profile.h0 - 1
        self.check_origins(profile, b.rep, b.table, b.decomposition.a)

    @settings(max_examples=12, deadline=None)
    @given(admissible_general((5, 7), 12).filter(lambda case: case[1] <= 2))
    @example((5, 2, (5, 1, 1, 1, 1, 1)))
    def test_random_profiles(self, case):
        _, n, eta = case
        profile = general(eta, n)
        rep = build_general(profile)
        table = partial_fractions(rep)
        self.check_origins(profile, rep, table,
                           beta_coefficients(table, profile).a)


def slackened(factors: ArithmeticFactors, slack: int) -> ArithmeticFactors:
    """The factors with the lcm exponent s - i lowered to s - i - slack."""
    return ArithmeticFactors(factors.d, factors.phi, factors.s - slack)


class TestCoefficientInclusions:
    @pytest.mark.parametrize("s,n", SECTION2_SUITE)
    def test_section2_suite(self, bundle, s, n):
        b = bundle(section2(s, n))
        assert verify_coefficient_inclusions(b.table, b.factors).ok

    @pytest.mark.parametrize("n", THEOREM1_NS)
    def test_theorem1(self, bundle, n):
        b = bundle(general(THEOREM1_ETA, n))
        assert verify_coefficient_inclusions(b.table, b.factors).ok
        if n == 2:
            assert dict(b.factors.phi.factors) == {13: 2, 17: 4, 19: 4}

    def test_weakened_exponent_fails(self, bundle):
        # the lcm exponent is tight up to slack 1 here; slack 2 must break,
        # and the report carries the exact offending denominators
        b = bundle(section2(5, 4))
        weak = verify_coefficient_inclusions(b.table, slackened(b.factors, 2))
        assert not weak.ok
        assert all(v.value.denominator > 1 for v in weak.violations)
        for v in weak.violations:
            primes = [p for p, _ in v.deficits]
            assert primes and primes == sorted(set(primes))
            assert (math.prod(p ** e for p, e in v.deficits)
                    == v.value.denominator)
        assert "short" in str(weak.violations[0])

    def test_report_is_data_not_exception(self, bundle):
        b = bundle(section2(5, 4))
        report = verify_coefficient_inclusions(b.table,
                                               slackened(b.factors, 3))
        assert report.checked == len(b.table.pole_ks) * b.table.s
        assert isinstance(str(report), str)


def without_top_phi_power(factors: ArithmeticFactors) -> ArithmeticFactors:
    """The factors with phi's largest prime power removed."""
    return ArithmeticFactors(factors.d,
                             FactoredInteger(factors.phi.factors[:-1]),
                             factors.s)


class TestExponentKernel:
    """The inclusion checks decide from exponents; on theorem1 they must
    give the report the Fraction kernel gives: the checked count, each
    violation and its deficits."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("weaken", [
        lambda f: f, lambda f: slackened(f, 1), without_top_phi_power],
        ids=["true", "d-exponent-less-one", "phi-top-power-removed"])
    def test_matches_the_fraction_kernel(self, bundle, n, weaken):
        b = bundle(general(THEOREM1_ETA, n))
        factors = weaken(b.factors)
        assert (verify_coefficient_inclusions(b.table, factors)
                == fraction_inclusion_report(factors, b.table.entries()))
        assert (verify_form_inclusions(b.decomposition, factors)
                == fraction_inclusion_report(
                    factors, ((i, None, ai)
                              for i, ai in enumerate(b.decomposition.a))))

    def test_weakened_factors_fail(self, bundle):
        # the comparison above must see violations, not only passes
        b = bundle(general(THEOREM1_ETA, 2))
        weak = slackened(b.factors, 1)
        assert not verify_coefficient_inclusions(b.table, weak).ok
        assert not verify_form_inclusions(b.decomposition, weak).ok

    @settings(max_examples=150, deadline=None)
    @given(linear_product_reps(), st.integers(1, 30),
           st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13, 37, 53]),
                           st.integers(1, 4), max_size=4),
           st.integers(0, 8),
           st.lists(st.fractions(max_denominator=10 ** 6), min_size=4,
                    max_size=4))
    # e = s - i < 0 puts d's primes in the denominator, and 5 is a prime
    # of d and of the scale beyond the table's primes
    @example(linear_product_rep(Fraction(-5, 8), [], [(0, 1)]), 5, {}, 0,
             [Fraction(0)] * 4)
    # a_0's denominator prime 1000003 is off d, phi and the table
    @example(linear_product_rep(Fraction(-5, 8), [], [(0, 1)]), 5, {3: 1}, 2,
             [Fraction(7, 1000003), Fraction(0), Fraction(5, 3), Fraction(0)])
    def test_matches_the_fraction_kernel_anywhere(self, rep, index, phi, s,
                                                  a):
        factors = ArithmeticFactors(lcm_up_to(index),
                                    FactoredInteger.from_dict(phi), s)
        table = partial_fractions(rep)
        assert (verify_coefficient_inclusions(table, factors)
                == fraction_inclusion_report(factors, table.entries()))
        assert (verify_form_inclusions(
            DecompositionResult(section2(3, 2), tuple(a)), factors)
                == fraction_inclusion_report(
                    factors, ((i, None, ai) for i, ai in enumerate(a))))


class TestFormInclusions:
    @pytest.mark.parametrize("s,n", SECTION2_SUITE)
    def test_section2_suite(self, bundle, s, n):
        b = bundle(section2(s, n))
        assert verify_form_inclusions(b.decomposition, b.factors).ok

    @pytest.mark.parametrize("n", THEOREM1_NS)
    def test_theorem1(self, bundle, n):
        b = bundle(general(THEOREM1_ETA, n))
        report = verify_form_inclusions(b.decomposition, b.factors)
        assert report.ok
        assert report.checked == 14  # i = 0..13, odd ones vacuous


class TestIntegerLinearForm:
    def test_section2_3_2_numeric(self, bundle):
        import mpmath

        b = bundle(section2(3, 2))
        ints, desc = integer_linear_form(b.decomposition, b.factors)
        assert len(ints) == 2 and "d_2" in desc
        with mpmath.workdps(40):
            val = ints[0] + ints[1] * mpmath.catalan
            d = b.factors.d.value()
            direct = (mpmath.mpf(209632) - 228672 * mpmath.catalan) * d ** 3
            assert abs(val - direct) < 1e-20

    def test_scaling_identity(self, bundle):
        b = bundle(section2(5, 2))
        ints, _ = integer_linear_form(b.decomposition, b.factors)
        d = b.factors.d.value()
        phi = b.factors.phi.value()
        for pos, i in enumerate([0, 2, 4]):
            lhs = Fraction(ints[pos])
            rhs = (b.decomposition.a[i] * Fraction(d) ** (5 - i) / phi) * d ** i
            assert lhs == rhs

    def test_theorem1_count(self, bundle):
        b = bundle(general(THEOREM1_ETA, 2))
        ints, _ = integer_linear_form(b.decomposition, b.factors)
        assert len(ints) == 7  # constant plus beta(2), ..., beta(12)

    def test_inclusion_failure_raises(self, bundle):
        b = bundle(section2(3, 2))
        broken = DecompositionResult(
            b.profile, tuple(a + Fraction(1, 7) for a in b.decomposition.a))
        with pytest.raises(InclusionError):
            integer_linear_form(broken, b.factors)


def weakened(factors: ArithmeticFactors, how: int,
             pick: int) -> ArithmeticFactors:
    """The factors as they are (how 0), with one power of d's prime number
    ``pick`` (mod their count) taken out (1), or with one more power of it
    put into phi (2)."""
    d, phi = dict(factors.d.factors), dict(factors.phi.factors)
    p = sorted(d)[pick % len(d)]
    if how == 1:
        d[p] -= 1
    elif how == 2:
        phi[p] = phi.get(p, 0) + 1
    return ArithmeticFactors(FactoredInteger.from_dict(d),
                             FactoredInteger.from_dict(phi), factors.s)


class TestExactDivision:
    """``integer_linear_form`` decides each A_i = phi**-1 d**s a_i by two
    exact divisions.  On every suite profile, with its factors as they are,
    with every ``weakened`` variant of them and with phi times a prime
    that d lacks (so that d**s/phi has a denominator), it must return the
    A_i that Fractions give when each is an integer, and raise otherwise."""

    def test_matches_the_fractions(self, bundle):
        outcomes = []
        for profile in suite_profiles():
            b = bundle(profile)
            dec, true = b.decomposition, b.factors
            beyond_d = FactoredInteger.from_dict(
                {**dict(true.phi.factors), 1000003: 1})
            variants = [weakened(true, how, pick) for how in (1, 2)
                        for pick in range(len(true.d.factors))]
            variants.append(ArithmeticFactors(true.d, beyond_d, true.s))
            for factors in [true, *variants]:
                scale = Fraction(factors.d.value()) ** factors.s
                scaled = [dec.a[i] * scale / factors.phi.value()
                          for i in [0] + dec.beta_indices]
                whole = all(x.denominator == 1 for x in scaled)
                outcomes.append(whole)
                assert whole or factors is not true
                if whole:
                    assert integer_linear_form(dec, factors)[0] == tuple(
                        x.numerator for x in scaled)
                else:
                    with pytest.raises(InclusionError):
                        integer_linear_form(dec, factors)
        # both branches are taken
        assert True in outcomes and False in outcomes


class TestDeficits:
    """A violation keeps only its scaled value, and its deficits are read
    from that value's denominator.  On every suite profile, with every
    ``weakened`` variant of its factors and with the lcm exponent two
    short, both reports' deficits must factor each denominator exactly."""

    def test_deficits_factor_the_denominator(self, bundle):
        seen = 0
        for profile in suite_profiles():
            b = bundle(profile)
            true = b.factors
            variants = [weakened(true, how, pick) for how in (1, 2)
                        for pick in range(len(true.d.factors))]
            variants.append(slackened(true, 2))
            for factors in variants:
                for report in (
                        verify_coefficient_inclusions(b.table, factors),
                        verify_form_inclusions(b.decomposition, factors)):
                    for v in report.violations:
                        den = v.value.denominator
                        primes = [p for p, _ in v.deficits]
                        assert primes and primes == sorted(set(primes))
                        for p, e in v.deficits:
                            assert e > 0 and den % p ** e == 0
                            assert den % p ** (e + 1)
                        assert math.prod(p ** e for p, e in v.deficits) == den
                        seen += 1
        assert seen


def small_profiles():
    """Admissible profiles of both families, small enough for a few
    milliseconds of partial fractions."""
    return st.one_of(
        st.tuples(st.sampled_from([3, 5, 7]), st.sampled_from([2, 4])).map(
            lambda case: section2(*case)),
        admissible_general((5, 7), 12).filter(
            lambda case: case[1] <= 2).map(
            lambda case: general(case[2], case[1])))


def bumped(rep: LinearProductRep) -> LinearProductRep:
    """``rep`` with its lowest numerator root's multiplicity raised by 1,
    so that the reflection no longer fixes it."""
    (r, m), *rest = rep.num_roots
    return LinearProductRep(rep.scalar, ((r, m + 1), *rest), rep.den_roots)


class TestOrbitwiseAssembly:
    """Assembly and the coefficient inclusions take one product and one
    integrality check per orbit {k, c - k} of the table's reflection; they
    must give what the per-pole versions give: the a_i, their
    denominators and every violation, at mirrored poles too, in order."""

    @settings(max_examples=25, deadline=None)
    @given(small_profiles(), st.integers(0, 2), st.integers(0, 99))
    @example(general(THEOREM1_ETA, 2), 1, 5)
    def test_profiles(self, profile, how, pick):
        table = partial_fractions(build_general(profile))
        assert table.reflection == (profile.h0 - 1, 0)
        centre = (profile.h0 - 1) // 2
        a = per_pole_assemble(table, profile.s,
                              [k - centre for k in table.pole_ks])
        dec = beta_coefficients(table, profile)
        assert dec.a == a
        factors = weakened(ArithmeticFactors.for_profile(profile), how, pick)
        assert (verify_coefficient_inclusions(table, factors)
                == per_pole_coefficient_inclusions(table, factors))
        if how == 0:
            d, phi, s = factors.d.value(), factors.phi.value(), profile.s
            assert integer_linear_form(dec, factors)[0] == tuple(
                a[i].numerator * d ** s // (a[i].denominator * phi)
                for i in [0] + dec.beta_indices)

    @settings(max_examples=25, deadline=None)
    @given(linear_product_reps(), st.integers(-3, 6), st.integers(1, 30),
           st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]),
                           st.integers(1, 3), max_size=3),
           st.integers(0, 8))
    @example(bumped(build_section2(5, 2)), 3, 4, {}, 3)
    @example(bumped(build_section2(3, 2)), 0, 2, {3: 1}, 1)
    # the numerator's double root cancels the simple pole at 0: order 0
    @example(LinearProductRep(1, ((0, 2),), ((0, 1), (2, 1), (4, 1))),
             0, 4, {}, 2)
    def test_any_rep(self, rep, m, index, phi, s):
        table = partial_fractions(rep)
        origins = [k - m for k in table.pole_ks]
        assert (_assemble(table, table.s, origins)
                == per_pole_assemble(table, table.s, origins))
        factors = ArithmeticFactors(lcm_up_to(index),
                                    FactoredInteger.from_dict(phi), s)
        assert (verify_coefficient_inclusions(table, factors)
                == per_pole_coefficient_inclusions(table, factors))

    def test_inputs_reach_violations_at_mirrored_poles(self):
        # the comparison above must see violations at both poles of an
        # orbit, and tables the reflection does not fix
        profile = general(THEOREM1_ETA, 2)
        table = partial_fractions(build_general(profile))
        report = verify_coefficient_inclusions(
            table, weakened(ArithmeticFactors.for_profile(profile), 1, 5))
        c = table.reflection[0]
        poles = {v.k for v in report.violations}
        assert poles and all(c - k in poles for k in poles)
        assert partial_fractions(bumped(build_section2(5, 2))).reflection is None


class TestRandomProfiles:
    @settings(max_examples=6, deadline=None)
    @given(admissible_general((5, 7), 12).filter(lambda case: case[1] <= 2))
    def test_inclusions_and_integer_form(self, case):
        _, n, eta = case
        profile = general(eta, n)
        table = partial_fractions(build_general(profile))
        dec = beta_coefficients(table, profile)
        factors = ArithmeticFactors.for_profile(profile)
        assert verify_coefficient_inclusions(table, factors).ok
        assert verify_form_inclusions(dec, factors).ok
        ints, _ = integer_linear_form(dec, factors)
        d = math.lcm(*range(1, profile.d_index + 1))
        scale = Fraction(d) ** profile.s / factors.phi.value()
        assert all(type(v) is int for v in ints)
        assert list(ints) == [dec.a[i] * scale
                              for i in [0] + dec.beta_indices]


class TestCertificateWithoutCarryTable:
    """The exact certificate takes Phi_n pointwise: from rep to integer
    form, nothing builds the carry-minimum table."""

    @pytest.mark.parametrize("profile", [
        general(THEOREM1_ETA, 4), general((8, 2, 3, 3, 2, 1), 2)],
        ids=["theorem1-n4", "general-s5"])
    def test_certificate(self, monkeypatch, profile):
        def no_table(spec):
            raise AssertionError("the certificate built a carry table")

        monkeypatch.setattr(numtheory, "carry_min_table", no_table)
        table = partial_fractions(build_general(profile))
        dec = beta_coefficients(table, profile)
        factors = ArithmeticFactors.for_profile(profile)
        assert verify_coefficient_inclusions(table, factors).ok
        assert verify_form_inclusions(dec, factors).ok
        ints, _ = integer_linear_form(dec, factors)
        assert all(type(v) is int for v in ints)


class TestRemark1Probe:
    def test_needs_doubled_index_3_2(self, bundle):
        report = remark1_denominator_probe(3, 2)
        assert report.d_2n_clears
        assert not report.d_n_clears
        assert report.smallest_clearing_index == 4
        # the main construction clears already at index n
        b = bundle(section2(3, 2))
        assert verify_form_inclusions(b.decomposition, b.factors).ok

    def test_deterministic(self):
        assert remark1_denominator_probe(5, 2) == remark1_denominator_probe(5, 2)

    def test_5_2(self):
        report = remark1_denominator_probe(5, 2)
        assert report.d_2n_clears and not report.d_n_clears
