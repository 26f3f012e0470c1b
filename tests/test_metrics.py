"""Unit and property tests for pearson, jsd, and k-agreement."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsa_metaphor.errors import ZeroVarianceError
from rsa_metaphor.metrics import (
    jsd,
    jsd_rows,
    k_agreement,
    k_agreement_rows,
    pearson,
    pearson_rows,
    top_k_indices,
    top_k_rows,
)


def distributions(min_size=2, max_size=12):
    """Strategy: normalized probability vectors with strictly positive mass."""
    return st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=min_size, max_size=max_size
    ).map(lambda xs: np.array(xs) / np.sum(xs))


class TestPearson:
    def test_self_correlation_is_one(self):
        assert pearson([0.5, 0.3, 0.2], [0.5, 0.3, 0.2]) == pytest.approx(1.0)

    def test_reversed_simplex_vector(self):
        # hand computation: centered products give -39/900 over 42/900 -> -13/14
        r = pearson([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])
        assert r == pytest.approx(-13 / 14, abs=1e-12)

    def test_zero_variance_raises(self):
        with pytest.raises(ZeroVarianceError):
            pearson([0.5, 0.5], [0.9, 0.1])
        with pytest.raises(ZeroVarianceError):
            pearson([0.9, 0.1], [0.5, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([0.5, 0.5], [0.5, 0.3, 0.2])

    def test_nan_entry_gives_nan_not_a_clamped_value(self):
        assert math.isnan(pearson([np.nan, 0.3, 0.2], [0.5, 0.3, 0.2]))

    @given(distributions(min_size=3), st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    def test_affine_invariance(self, q, a, b):
        assume(float(np.ptp(q)) > 1e-9)
        p = np.linspace(0.0, 1.0, q.size)
        assert pearson(a * p + b, q) == pytest.approx(pearson(p, q), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert -1.0 <= pearson(p, q) <= 1.0


class TestJsd:
    def test_identical_is_zero(self):
        assert jsd([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_is_one(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_half_vs_point_mass(self):
        # hand computation: 1 - (3/4) log2 3 + (1/2) log2 2 ... = 0.311278124459133
        assert jsd([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.311278124459133, abs=1e-12)

    def test_natural_log_base(self):
        value = jsd([0.5, 0.5], [1.0, 0.0], base=np.e)
        assert value == pytest.approx(0.311278124459133 * np.log(2.0), abs=1e-12)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            jsd([0.5, 0.6], [0.5, 0.5])

    @settings(max_examples=200)
    @given(distributions(), distributions())
    def test_symmetric_and_bounded(self, p, q):
        if p.size != q.size:
            q = np.full(p.size, 1.0 / p.size)
        left = jsd(p, q)
        right = jsd(q, p)
        assert left == pytest.approx(right, abs=1e-12)
        assert 0.0 <= left <= 1.0

    @given(distributions())
    def test_self_divergence_zero(self, p):
        assert jsd(p, p) == pytest.approx(0.0, abs=1e-12)


class TestKAgreement:
    def test_identical_gives_k(self):
        p = [0.4, 0.3, 0.2, 0.1]
        for k in range(1, 5):
            assert k_agreement(p, p, k) == k

    def test_full_k_equals_n(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(7))
        q = rng.dirichlet(np.ones(7))
        assert k_agreement(p, q, 7) == 7

    def test_disjoint_top_sets(self):
        p = [0.5, 0.3, 0.2, 0.0, 0.0, 0.0]
        q = [0.0, 0.0, 0.0, 0.5, 0.3, 0.2]
        assert k_agreement(p, q, 3) == 0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            for k in (1, 3, 5):
                assert k_agreement(p, q, k) == k_agreement(q, p, k)

    def test_tie_break_prefers_lower_index(self):
        # indices 1 and 2 tie; the lower index enters the top-1 set
        p = [0.2, 0.4, 0.4]
        assert top_k_indices(p, 1).tolist() == [1]
        assert top_k_indices(p, 2).tolist() == [1, 2]
        # ties make agreement deterministic as well
        q = [0.4, 0.4, 0.2]
        assert k_agreement(p, q, 1) == 0  # top-1: index 1 vs index 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            k_agreement([0.5, 0.5], [0.5, 0.5], 3)
        with pytest.raises(ValueError):
            k_agreement([0.5, 0.5], [0.5, 0.5], 0)


class TestSubnormalJsd:
    def test_subnormal_entry_gives_finite_divergence(self):
        # (p + q) / 2 underflows to 0 at the first entry while p > 0
        value = jsd([5e-324, 1 - 5e-324], [0.0, 1.0])
        assert math.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-300)

    def test_subnormal_entry_in_q(self):
        value = jsd([0.0, 1.0], [5e-324, 1 - 5e-324], base=np.e)
        assert math.isfinite(value)
        assert value == jsd([5e-324, 1 - 5e-324], [0.0, 1.0], base=np.e)
        assert jsd_rows([[0.0, 1.0], [0.5, 0.5]], [[5e-324, 1.0], [0.5, 0.5]]).tolist() == [
            jsd([0.0, 1.0], [5e-324, 1.0]), 0.0]


class TestRowWiseForms:
    """The row-wise forms; the scalar functions are their one-row case."""

    @settings(max_examples=100)
    @given(st.integers(1, 5), st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_each_row_equals_its_scalar_call(self, n_rows, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n), size=n_rows)
        # small counts repeat, so ties are exercised; the 4 keeps each row non-constant
        q = rng.integers(0, 4, size=(n_rows, n)).astype(float)
        q[:, 0] = 4.0
        q /= q.sum(axis=1, keepdims=True)
        r = pearson_rows(p, q)
        d = jsd_rows(p, q)
        for i in range(n_rows):
            assert r[i] == pearson(p[i], q[i])
            assert d[i] == jsd(p[i], q[i])
        for k in (1, n // 2 + 1, n):
            top = top_k_rows(q, k)
            agreement = k_agreement_rows(p, q, k)
            assert top.shape == (n_rows, k)
            for i in range(n_rows):
                assert top[i].tolist() == top_k_indices(q[i], k).tolist()
                assert agreement[i] == k_agreement(p[i], q[i], k)

    def test_top_k_is_a_stable_descending_order(self):
        rows = np.array([[0.2, 0.4, 0.4, 0.0], [0.25, 0.25, 0.25, 0.25]])
        assert top_k_rows(rows, 4).tolist() == [[1, 2, 0, 3], [0, 1, 2, 3]]
        assert k_agreement_rows(rows, rows[::-1], 2).tolist() == [1, 1]

    def test_constant_row_raises_like_the_scalar_call(self):
        p = np.array([[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]])
        q = np.array([[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
        with pytest.raises(ZeroVarianceError) as scalar:
            pearson(p[1], q[1])
        with pytest.raises(ZeroVarianceError) as rows:
            pearson_rows(p, q)
        assert str(rows.value) == str(scalar.value)

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [0.5, -0.5], [np.nan, 1.0]])
    def test_non_distribution_row_raises_like_the_scalar_call(self, bad):
        good = [0.5, 0.5]
        for args in (([good, bad], [good, good]), ([good, good], [good, bad])):
            p, q = (np.array(a) for a in args)
            with pytest.raises(ValueError) as scalar:
                jsd(p[1], q[1])
            with pytest.raises(ValueError) as rows:
                jsd_rows(p, q)
            assert str(rows.value) == str(scalar.value)

    def test_shape_and_k_checks(self):
        with pytest.raises(ValueError, match=r"length mismatch: \(2,\) vs \(3,\)"):
            pearson([0.5, 0.5], [0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match=r"length mismatch: \(2,\) vs \(3,\)"):
            jsd([0.5, 0.5], [0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="pearson needs at least 2 entries"):
            pearson([1.0], [1.0])
        with pytest.raises(ValueError, match=r"k must be in \[1, 2\], got 3"):
            top_k_rows(np.full((3, 2), 0.5), 3)
        with pytest.raises(ValueError, match="expected a 1-D vector"):
            pearson(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="got a scalar"):
            jsd_rows(1.0, 1.0)
