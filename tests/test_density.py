"""Property-based tests of the dense-stream lemmas (Lemmas 3.6-3.8)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.density import (
    batch_density_bound,
    cartesian_product,
    concat_density_bound,
    concatenate,
    density,
    is_dense,
    label_items,
    pad_with_dummies,
    padding_density_bound,
    product_density_bound,
    real_prefix_counts,
)

labelled_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.booleans()), max_size=40
)
nonempty_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.booleans()), min_size=1, max_size=40
)


class TestDensityMeasure:
    def test_empty_stream_is_fully_dense(self):
        assert density([]) == 1.0

    def test_all_real(self):
        stream = [(i, True) for i in range(10)]
        assert density(stream) == 1.0
        assert is_dense(stream, 1.0)

    def test_all_dummy(self):
        stream = [(i, False) for i in range(10)]
        assert density(stream) == 0.0
        assert is_dense(stream, 0.0)
        assert not is_dense(stream, 0.1)

    def test_alternating(self):
        stream = [(i, i % 2 == 1) for i in range(10)]  # dummy first
        assert abs(density(stream) - 0.0) < 1e-9 or density(stream) <= 0.5

    def test_real_prefix_counts(self):
        stream = [(0, True), (1, False), (2, True)]
        assert real_prefix_counts(stream) == [0, 1, 1]

    def test_label_items(self):
        assert label_items([1, 2, 3], lambda value: value > 1) == [
            (1, False), (2, True), (3, True),
        ]

    @given(nonempty_streams)
    def test_density_is_the_tightest_phi(self, stream):
        phi = density(stream)
        assert is_dense(stream, phi)
        if phi < 1.0:
            assert not is_dense(stream, min(1.0, phi + 0.05))


class TestLemma36Concatenation:
    @given(labelled_streams, labelled_streams)
    @settings(max_examples=200)
    def test_concatenation_preserves_min_density(self, first, second):
        merged = concatenate(first, second)
        bound = concat_density_bound(density(first), density(second))
        assert is_dense(merged, bound)

    def test_exact_example(self):
        first = [(0, True), (1, True)]
        second = [(2, True), (3, False)]
        merged = concatenate(first, second)
        assert is_dense(merged, 0.5)


class TestLemma37CartesianProduct:
    @given(nonempty_streams, nonempty_streams)
    @settings(max_examples=150)
    def test_product_preserves_half_product_density(self, first, second):
        product = cartesian_product(first, second)
        bound = product_density_bound(density(first), density(second))
        assert is_dense(product, bound)

    def test_product_realness_is_conjunction(self):
        first = [("a", True), ("b", False)]
        second = [("c", True)]
        product = cartesian_product(first, second)
        assert product == [((("a"), ("c")), True), ((("b"), ("c")), False)]

    def test_product_size(self):
        first = [(i, True) for i in range(3)]
        second = [(i, False) for i in range(4)]
        assert len(cartesian_product(first, second)) == 12


class TestLemma38Padding:
    @given(nonempty_streams, st.integers(min_value=0, max_value=60))
    @settings(max_examples=200)
    def test_padding_bound(self, stream, padding):
        padded = pad_with_dummies(stream, padding)
        bound = padding_density_bound(density(stream), len(stream), padding)
        assert is_dense(padded, bound)

    def test_padding_negative_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            pad_with_dummies([], -1)

    def test_padding_zero_keeps_stream(self):
        stream = [(1, True)]
        assert pad_with_dummies(stream, 0) == stream


class TestBatchDensityBound:
    def test_monotone_in_subtree_size(self):
        bounds = [batch_density_bound(size, full_tuple=True) for size in range(1, 6)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_two_table_case_is_one(self):
        # |T_e| = 1 and a full tuple: exponent 0, density 1 (no dummies).
        assert batch_density_bound(1, full_tuple=True) == 1.0

    def test_key_tuple_is_half_of_full(self):
        assert batch_density_bound(2, full_tuple=False) == batch_density_bound(2, True) / 2

    def test_invalid_size(self):
        import pytest

        with pytest.raises(ValueError):
            batch_density_bound(0, True)
