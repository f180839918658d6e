from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torcycle.algebra import (
    BERNOULLI_CAP,
    CapMismatchError,
    DegreeCapError,
    NonInvertibleError,
    TruncatedSeries,
    bernoulli_number,
    bernoulli_polynomial,
    ch_from_chern,
    chern_from_ch,
    line_bundle_series,
    power,
    render_sum,
)

F = Fraction


def brute_bernoulli_poly(m, x):
    # generating-function recurrence: B_m(x+1) - B_m(x) = m x^(m-1),
    # anchored at B_m(0) = bernoulli_number(m); only used for integer x >= 0.
    val = bernoulli_number(m)
    for j in range(x):
        val += m * F(j) ** (m - 1) if m >= 1 else 0
    return val


class TestBernoulli:
    def test_convention_b1(self):
        assert bernoulli_polynomial(1, 1) == F(1, 2)

    def test_b2_at_2(self):
        # recurrence oracle: B_2(x) = x^2 - x + 1/6
        assert brute_bernoulli_poly(2, 2) == F(13, 6)
        assert bernoulli_polynomial(2, 2) == F(13, 6)

    def test_b3_at_2(self):
        assert brute_bernoulli_poly(3, 2) == F(3)
        assert bernoulli_polynomial(3, 2) == F(3)

    def test_kappa_coefficients(self):
        # B_{m+1}(2)/(m+1)! drives the kappa_m coefficients downstream
        assert bernoulli_polynomial(2, 2) / 2 == F(13, 12)
        assert bernoulli_polynomial(3, 2) / 6 == F(1, 2)
        assert bernoulli_polynomial(4, 2) / 24 == F(119, 720)

    def test_cap(self):
        with pytest.raises(DegreeCapError):
            bernoulli_polynomial(BERNOULLI_CAP + 1, 0)

    @given(st.integers(min_value=2, max_value=20))
    def test_classical_identity(self, m):
        assert bernoulli_polynomial(m, 1) == bernoulli_polynomial(m, 0)


class TestSeries:
    def test_mul_trivial(self):
        a = TruncatedSeries.from_list([1, 1], 2)
        b = TruncatedSeries.from_list([1, -1], 2)
        assert a * b == TruncatedSeries.from_list([1, 0, -1], 2)

    def test_cube_of_degree_two(self):
        cube = TruncatedSeries.from_list([1, 2], 3) ** 3
        assert cube == TruncatedSeries.from_list([1, 6, 12, 8], 3)
        assert cube * cube == TruncatedSeries.from_list(
            [1, 12, 60, 160], 3
        )

    def test_linear_coefficient_by_hand(self):
        a = TruncatedSeries.from_list([1, 4, 4], 2)
        b = TruncatedSeries.from_list([1, -2, 3], 2)
        assert (a * b).coefficient(1) == F(2)

    def test_cap_mismatch(self):
        with pytest.raises(CapMismatchError):
            TruncatedSeries.one(2) * TruncatedSeries.one(3)

    def test_inv_geometric(self):
        inv = TruncatedSeries.from_list([1, 1], 3).inverse()
        assert inv == TruncatedSeries.from_list([1, -1, 1, -1], 3)

    def test_inv_binomial(self):
        # (1+H)^-3 = sum C(-3,k) H^k = 1 - 3H + 6H^2 - 10H^3
        cube = TruncatedSeries.from_list([1, 1], 3) ** 3
        assert cube.inverse() == TruncatedSeries.from_list([1, -3, 6, -10], 3)

    def test_inv_identity(self):
        one = TruncatedSeries.one(4)
        assert one.inverse() == one

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleError):
            TruncatedSeries.from_list([0, 1], 2).inverse()

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=8),
            min_size=1,
            max_size=7,
        )
    )
    @settings(max_examples=150)
    def test_inverse_law(self, coeffs):
        if coeffs[0] == 0:
            coeffs[0] = F(1)
        cap = len(coeffs) - 1
        a = TruncatedSeries.from_list(coeffs, cap)
        assert a * a.inverse() == TruncatedSeries.one(cap)

    def test_line_bundle_series(self):
        assert line_bundle_series((2, 2, 2), 3) == TruncatedSeries.from_list(
            [1, 6, 12, 8], 3
        )


class TestNewton:
    def test_zero(self):
        assert chern_from_ch([F(0)] * 4, 4) == [F(0)] * 4

    def test_line_bundle(self):
        t = F(5, 3)
        cs = chern_from_ch([t, t**2 / 2, t**3 / 6], 3)
        assert cs == [t, F(0), F(0)]

    def test_degree_two(self):
        a, b = F(7), F(-3, 2)
        cs = chern_from_ch([a, b], 2)
        assert cs[1] == (a**2 - 2 * b) / 2

    def test_degree_three_closed_form(self):
        a, b, c = F(2), F(5, 7), F(-1, 3)
        cs = chern_from_ch([a, b, c], 3)
        assert cs[2] == a**3 / 6 - a * b + 2 * c

    def test_missing_entries(self):
        with pytest.raises(DegreeCapError):
            chern_from_ch([F(1)], 3)

    @given(
        st.lists(
            st.fractions(min_value=-12, max_value=12, max_denominator=6),
            min_size=5,
            max_size=5,
        )
    )
    @settings(max_examples=150)
    def test_roundtrip_through_degree_5(self, ch):
        assert ch_from_chern(chern_from_ch(ch, 5), 5) == ch


class TestRenderSum:
    def test_empty_sum(self):
        assert render_sum([]) == "0"

    def test_unit_monomial_prints_coefficient(self):
        assert render_sum([(F(1), "")]) == "1"
        assert render_sum([(F(-1), ""), (F(3, 2), "")]) == "-1 + 3/2"

    def test_unit_coefficients_elided(self):
        assert render_sum([(F(1), "kappa3"), (F(-1), "lambda5")]) == "kappa3 - lambda5"
        assert render_sum([(F(-1), "lambda5")]) == "-lambda5"
        assert render_sum([(F(2), "lambda1"), (F(-1, 2), "")]) == "2*lambda1 - 1/2"

    def test_minus_folds(self):
        terms = [(F(16), "lambda1"), (F(-2), "D"), (F(-3, 5), "kappa1*kappa2")]
        assert render_sum(terms) == "16*lambda1 - 2*D - 3/5*kappa1*kappa2"

    def test_power(self):
        assert [power("lambda1", e) for e in (1, 2, 11)] == ["lambda1", "lambda1^2", "lambda1^11"]
