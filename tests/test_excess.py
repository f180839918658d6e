from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from torcycle.excess import (
    BUILTIN_MODELS,
    ExcessDims,
    LocalModel,
    binomial_identity_check,
    chern_quotient_degree,
    multiplicity,
    multiplicity_shifted,
    oracle_multiplicity,
    verify_residual_model,
)


# Reference oracle for chern_quotient_degree, independent of Newton's
# identities: truncated power series in H as lists, multiplied and
# inverted term by term.

def series_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            out[i + j] += x * y
    return out


def series_inverse(a):
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def line_bundles(degrees, cap):
    """prod_i (1 + d_i H), truncated at H^cap."""
    out = [Fraction(1)] + [Fraction(0)] * cap
    for d in degrees:
        out = series_mul(out, [1, d])
    return out


def reference_quotient_degree(model, sub, k):
    den = line_bundles({"A": model.sub_a, "B": model.sub_b}[sub], model.ambient)
    return series_mul(line_bundles(model.bundle, model.ambient), series_inverse(den))[k]


@st.composite
def split_models(draw):
    ambient = draw(st.integers(1, 6))
    degrees = st.lists(st.integers(-3, 3), max_size=ambient).map(tuple)
    return LocalModel(ambient, draw(degrees), draw(degrees), draw(degrees), ExcessDims(1, 1))


class TestMultiplicity:
    def test_two_lines(self):
        assert multiplicity(ExcessDims(1, 1)) == -2

    def test_plane_and_line(self):
        assert multiplicity(ExcessDims(2, 1)) == -3

    def test_two_threefolds(self):
        assert multiplicity(ExcessDims(3, 3)) == -20

    def test_symmetry(self):
        for a, b in product(range(1, 9), repeat=2):
            assert multiplicity(ExcessDims(a, b)) == multiplicity(ExcessDims(b, a))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            ExcessDims(0, 1)

    @given(st.integers(1, 10), st.integers(1, 10))
    def test_symmetry_property(self, a, b):
        assert multiplicity(ExcessDims(a, b)) == multiplicity(ExcessDims(b, a))

    @given(st.integers(2, 10), st.integers(2, 10), st.integers(0, 1))
    def test_shift_property(self, a, b, k):
        assert multiplicity_shifted(a, b, k) == multiplicity(
            ExcessDims(a - k, b - k)
        )


class TestShift:
    def test_zero_shift(self):
        assert multiplicity_shifted(3, 3, 0) == -20

    def test_unit_shift(self):
        assert multiplicity_shifted(3, 3, 1) == multiplicity(ExcessDims(2, 2))

    def test_bad_shift(self):
        with pytest.raises(ValueError):
            multiplicity_shifted(2, 1, 1)

    @pytest.mark.parametrize("d_a, d_b, k, message", [
        (3, 3, -1, "shift -1 is negative"),
        (0, 3, -1, "component dimensions"),
        (0, 3, 0, "component dimensions"),
        (3, 0, 1, "component dimensions"),
    ])
    def test_invalid_input(self, d_a, d_b, k, message):
        # before the check, (3, 3, -1) gave m(4, 4) and (0, 3, -1) gave -5
        with pytest.raises(ValueError, match=message):
            multiplicity_shifted(d_a, d_b, k)

    def test_pure_function_of_differences(self):
        for a, b, k in [(4, 5, 2), (6, 3, 1), (5, 5, 3)]:
            assert multiplicity_shifted(a, b, k) == multiplicity(
                ExcessDims(a - k, b - k)
            )


class TestOracle:
    def test_quotient_degrees_b2(self):
        m = BUILTIN_MODELS["b2"]
        assert chern_quotient_degree(m, "A", 3) == Fraction(42)

    def test_quotient_degrees_b3(self):
        m = BUILTIN_MODELS["b3"]
        assert chern_quotient_degree(m, "A", 2) == Fraction(1)
        assert chern_quotient_degree(m, "B", 1) == Fraction(2)

    def test_trivial_quotient(self):
        m = BUILTIN_MODELS["b2"]
        full = m.__class__(m.ambient, m.bundle, m.bundle, m.bundle, m.dims)
        for k in range(1, 4):
            assert chern_quotient_degree(full, "A", k) == 0

    @given(split_models(), st.sampled_from("AB"))
    @example(BUILTIN_MODELS["b2"], "A")
    def test_quotient_matches_series_reference(self, model, sub):
        for k in range(model.ambient + 1):
            assert chern_quotient_degree(model, sub, k) == reference_quotient_degree(
                model, sub, k
            )

    @pytest.mark.parametrize("k, message", [
        (-1, "degree -1 is negative"),
        (7, "degree beyond the ambient dimension"),
    ], ids=["negative", "beyond-ambient"])
    def test_degree_out_of_range(self, k, message):
        # before the check, k = -1 read the last coefficient: 4 on b2
        with pytest.raises(ValueError, match=message):
            chern_quotient_degree(BUILTIN_MODELS["b2"], "A", k)

    def test_oracle_values(self):
        assert oracle_multiplicity(BUILTIN_MODELS["b2"]) == -20
        assert oracle_multiplicity(BUILTIN_MODELS["b3"]) == -3
        assert oracle_multiplicity(BUILTIN_MODELS["b4"]) == -2

    def test_oracle_agrees_with_formula(self):
        for model in BUILTIN_MODELS.values():
            assert oracle_multiplicity(model) == multiplicity(model.dims)


class TestIdentity:
    def test_small(self):
        # 3*1 + 3*2 = 9 = 3*C(3,1)
        assert binomial_identity_check(3, 1)

    def test_edge(self):
        for d in range(2, 10):
            assert binomial_identity_check(d, d - 1)

    def test_exhaustive(self):
        for d in range(1, 13):
            for k in range(d):
                assert binomial_identity_check(d, k)

    def test_brute_sum_matches(self):
        # independent restatement: sum over subsets
        d, k = 7, 3
        lhs = sum(comb(d, j) * comb(j, k) for j in range(k, d))
        assert lhs == (2 ** (d - k) - 1) * comb(d, k)


class TestResidualModel:
    def test_decomposition(self):
        total, divisor_part, residual_part = verify_residual_model()
        assert (total, divisor_part, residual_part) == (8, 7, 1)

    def test_total_is_top_class(self):
        total, _, _ = verify_residual_model()
        assert total == 2**3

    def test_residual_certifies_unit_multiplicity(self):
        _, _, residual_part = verify_residual_model()
        assert residual_part == 1
