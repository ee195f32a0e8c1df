import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from framekit import (
    Field,
    GFrame,
    IndexOutOfRange,
    NotAFrame,
    ShapeMismatch,
    adjoint,
    operator_norm,
    random_gframe,
    random_parseval_gframe,
    sample_vectors,
)
from framekit.gframe import parseval_partition_identity, partition_identity
from framekit.linops import complement_identity_residual, inner


def all_subsets(n):
    import itertools

    return [tuple(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]


class TestConstruction:
    def test_frame_operator_2x2_sum(self):
        f = GFrame([
            np.array([[1.0, 0.0]]),
            np.array([[0.0, 1.0]]),
            np.array([[2**-0.5, 2**-0.5]]),
        ])
        assert_allclose(f.frame_operator, np.array([[1.5, 0.5], [0.5, 1.5]]), atol=1e-15)
        assert f.bounds == pytest.approx((1.0, 2.0))

    def test_single_identity_block(self):
        f = GFrame([np.eye(3)])
        assert_allclose(f.frame_operator, np.eye(3))
        assert f.is_parseval

    def test_diagonal_block(self):
        f = GFrame([np.diag([1.0, 2.0])])
        assert_allclose(f.frame_operator, np.diag([1.0, 4.0]))
        assert f.bounds == pytest.approx((1.0, 4.0))

    def test_mismatched_domains_rejected(self):
        with pytest.raises(ShapeMismatch):
            GFrame([np.eye(2), np.eye(3)])

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            GFrame([])

    def test_overflowing_terms_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="block 1 has a frame-operator term"):
                GFrame([np.eye(2), [[1e200, 0.0], [0.0, 1e200]]])
            with pytest.raises(ValueError, match="frame operator"):
                GFrame([1e154 * np.eye(2)] * 2)

    def test_non_frame_reported_not_raised(self):
        f = GFrame([np.array([[1.0, 0.0]])])  # one functional cannot span R^2
        assert not f.is_frame
        assert f.lower_bound == pytest.approx(0.0, abs=1e-15)


class TestAnalysisSynthesis:
    def test_identity_frame(self):
        f = GFrame([np.eye(2)])
        assert_allclose(f.analysis([1.0, 2.0])[0], [1.0, 2.0])
        assert_allclose(f.synthesis([[1.0, 2.0]]), [1.0, 2.0])

    def test_coordinate_functionals(self, coordinate_gframe):
        blocks = coordinate_gframe.analysis([3.0, 4.0])
        assert_allclose(blocks[0], [3.0])
        assert_allclose(blocks[1], [4.0])
        assert_allclose(coordinate_gframe.synthesis([[3.0], [4.0]]), [3.0, 4.0])

    def test_analysis_extracts_columns(self):
        f = random_gframe(4, [2, 3, 1], Field.COMPLEX, 1)
        e0 = np.zeros(4)
        e0[0] = 1.0
        for blk, out in zip(f.blocks, f.analysis(e0)):
            assert_allclose(out, blk[:, 0])

    def test_synthesis_of_analysis_is_frame_operator(self):
        f = random_gframe(4, [2, 3, 1], Field.COMPLEX, 2)
        x = sample_vectors(4, Field.COMPLEX, 5, 1)[0]
        assert_allclose(f.synthesis(f.analysis(x)), f.frame_operator @ x, atol=1e-12)

    @pytest.mark.parametrize("field", list(Field))
    def test_adjointness(self, field):
        f = random_gframe(5, [2, 3, 2], field, 8)
        for k in range(5):
            x = sample_vectors(5, field, 100 + k, 1)[0]
            g = f.analysis(sample_vectors(5, field, 200 + k, 1)[0])
            lhs = inner(f.synthesis(g), x)
            rhs = inner(np.concatenate(g), np.concatenate(f.analysis(x)))
            assert abs(lhs - rhs) <= 1e-9 * np.linalg.norm(np.concatenate(g)) * np.linalg.norm(x)

    @pytest.mark.parametrize("field", list(Field))
    def test_frame_inequality_with_cached_bounds(self, field):
        f = random_gframe(4, [2, 2, 3], field, 3)
        a, b = f.bounds
        for k in range(8):
            x = sample_vectors(4, field, 300 + k, 1)[0]
            energy = sum(np.vdot(y, y).real for y in f.analysis(x))
            n2 = float(np.vdot(x, x).real)
            assert a * n2 - 1e-9 <= energy <= b * n2 + 1e-9

    def test_oracle_stacked_product(self):
        for seed in range(5):
            f = random_gframe(4, [2, 3, 1, 2], Field.COMPLEX, seed)
            t_star = f.analysis_matrix()
            assert operator_norm(f.frame_operator - adjoint(t_star) @ t_star) <= 1e-10 * operator_norm(
                f.frame_operator
            )


class TestCanonicalDual:
    def test_parseval_dual_is_itself(self, coordinate_gframe):
        dual = coordinate_gframe.canonical_dual
        for b, d in zip(coordinate_gframe.blocks, dual.blocks):
            assert_allclose(b, d, atol=1e-14)

    def test_diagonal_dual(self):
        f = GFrame([np.diag([1.0, 2.0])])
        assert_allclose(f.canonical_dual.blocks[0], np.diag([1.0, 0.5]), atol=1e-14)

    def test_dual_bounds_are_reciprocal(self):
        f = random_gframe(4, [2, 3, 2], Field.COMPLEX, 4)
        a, b = f.bounds
        da, db = f.canonical_dual.bounds
        assert da == pytest.approx(1.0 / b, rel=1e-9)
        assert db == pytest.approx(1.0 / a, rel=1e-9)

    def test_reconstruction(self):
        f = random_gframe(6, [2, 3, 2, 4], Field.COMPLEX, 3)
        dual = f.canonical_dual
        for k in range(4):
            x = sample_vectors(6, Field.COMPLEX, 400 + k, 1)[0]
            via_dual_synthesis = f.synthesis(dual.analysis(x))
            via_dual_analysis = dual.synthesis(f.analysis(x))
            assert np.linalg.norm(via_dual_synthesis - x) <= 1e-10 * np.linalg.norm(x)
            assert np.linalg.norm(via_dual_analysis - x) <= 1e-10 * np.linalg.norm(x)

    def test_dual_of_dual_recovers_frame(self):
        f = random_gframe(4, [2, 2, 3], Field.COMPLEX, 6)
        again = f.canonical_dual.canonical_dual
        for b, d in zip(f.blocks, again.blocks):
            assert operator_norm(b - d) <= 1e-9 * operator_norm(b)

    def test_not_a_frame_raises(self):
        f = GFrame([np.array([[1.0, 0.0]])])
        with pytest.raises(NotAFrame):
            f.canonical_dual


class TestPartialSums:
    def test_full_subset_is_identity(self):
        f = random_gframe(4, [2, 3, 2], Field.COMPLEX, 5)
        assert operator_norm(f.partial_sum(range(3)) - np.eye(4)) <= 1e-10

    def test_empty_subset_is_zero(self):
        f = random_gframe(4, [2, 3, 2], Field.COMPLEX, 5)
        assert operator_norm(f.partial_sum([])) == 0.0

    def test_coordinate_rank_one(self, coordinate_gframe):
        assert_allclose(coordinate_gframe.partial_sum([0]), np.diag([1.0, 0.0]), atol=1e-14)

    def test_subset_plus_complement_is_identity(self):
        f = random_gframe(5, [2, 3, 1, 2], Field.COMPLEX, 7)
        for subset in all_subsets(4):
            total = f.partial_sum(subset) + f.partial_sum(f.complement(subset))
            assert operator_norm(total - np.eye(5)) <= 1e-10

    def test_norm_bound(self):
        f = random_gframe(4, [2, 3, 2], Field.COMPLEX, 9)
        a, b = f.bounds
        for subset in all_subsets(3):
            assert operator_norm(f.partial_sum(subset)) <= np.sqrt(b / a) + 1e-9

    def test_index_out_of_range(self):
        f = random_gframe(4, [2, 3], Field.COMPLEX, 5)
        with pytest.raises(IndexOutOfRange):
            f.partial_sum([0, 2])
        with pytest.raises(IndexOutOfRange):
            f.partial_sum([-1])

    def test_complement_square_identity(self):
        f = random_gframe(5, [2, 3, 1, 2], Field.COMPLEX, 12)
        for subset in all_subsets(4):
            assert complement_identity_residual(f.partial_sum(subset)) <= 1e-10


class TestPartitionIdentity:
    def test_empty_subset(self):
        f = random_gframe(4, [2, 3, 2], Field.COMPLEX, 10)
        x = sample_vectors(4, Field.COMPLEX, 500, 1)[0]
        terms = partition_identity(f, [], x)
        assert terms.lhs == 0
        n2 = float(np.vdot(x, x).real)
        assert terms.residual <= 1e-9 * n2

    def test_coordinate_parseval_both_sides_zero(self, coordinate_gframe):
        terms = partition_identity(coordinate_gframe, [0], np.array([3.0, 4.0]))
        assert terms.lhs == pytest.approx(0.0, abs=1e-12)
        assert terms.rhs == pytest.approx(0.0, abs=1e-12)

    def test_all_subsets_random_complex(self):
        f = random_gframe(5, [2, 3, 1, 2], Field.COMPLEX, 11)
        for k in range(3):
            x = sample_vectors(5, Field.COMPLEX, 600 + k, 1)[0]
            n2 = float(np.vdot(x, x).real)
            for subset in all_subsets(4):
                terms = partition_identity(f, subset, x)
                assert terms.residual <= 1e-9 * max(1.0, n2)
                assert abs((terms.lhs - terms.rhs).imag) <= 1e-9 * max(1.0, n2)

    def test_parseval_variant(self):
        f = random_parseval_gframe(4, [2, 3, 2], Field.COMPLEX, 13)
        x = sample_vectors(4, Field.COMPLEX, 700, 1)[0]
        for subset in all_subsets(3):
            terms = parseval_partition_identity(f, subset, x)
            assert terms.residual <= 1e-9 * max(1.0, float(np.vdot(x, x).real))
