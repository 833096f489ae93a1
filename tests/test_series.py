from fractions import Fraction

from betaforms import series
from betaforms.series import divide_trunc, euler_numbers_at_zero


def euler_by_series_division(count):
    """E_k(0) = k! [t^k] 2/(e^t + 1), by Fraction series division."""
    den = [Fraction(1)]
    fact = 1
    for j in range(1, count):
        fact *= j
        den.append(Fraction(1, 2 * fact))
    coeffs = divide_trunc([Fraction(1)], den, count)
    out = []
    fact = 1
    for k, c in enumerate(coeffs):
        if k >= 1:
            fact *= k
        out.append(c * fact)
    return out


class TestEulerNumbers:
    def test_literal_values(self):
        assert euler_numbers_at_zero(8) == [
            1, Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-1, 2), 0,
            Fraction(17, 8)]

    def test_matches_series_division_up_to_400(self):
        series._EULER.clear()
        reference = euler_by_series_division(400)
        assert euler_numbers_at_zero(400) == reference
        # every smaller count is a prefix of the same values
        for count in (0, 1, 2, 3, 57, 243, 399):
            assert euler_numbers_at_zero(count) == reference[:count]
        assert all(type(e) is Fraction for e in euler_numbers_at_zero(400))

    def test_small_then_large_count(self):
        series._EULER.clear()
        assert euler_numbers_at_zero(5) == euler_by_series_division(5)
        assert euler_numbers_at_zero(37) == euler_by_series_division(37)

    def test_result_is_a_copy(self):
        values = euler_numbers_at_zero(10)
        values[1] = Fraction(99)
        assert euler_numbers_at_zero(10)[1] == Fraction(-1, 2)
