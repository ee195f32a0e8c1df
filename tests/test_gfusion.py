import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from framekit import (
    ComponentSpec,
    Field,
    GenSpec,
    GFusionFrame,
    IndexOutOfRange,
    NotAFrame,
    NotOrthonormal,
    ShapeMismatch,
    adjoint,
    loewner_check,
    operator_norm,
    projection,
    random_gfusion,
    random_parseval_gfusion,
    sample_vectors,
    substream,
)
from framekit import gframe, gfusion
from framekit.gen import random_operator, random_subspace_basis, random_vector
from framekit.gfusion import (
    block_energies,
    frame_partition_identity,
    inverse_quadratic_residual,
    parseval_partition_identity,
    partition_identity,
    whitened_partition_identity,
)


def all_subsets(n):
    return [tuple(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]


def spec(dim, n_comp, field=Field.COMPLEX, seed=0, w=(0.5, 2.0)):
    comps = tuple(
        ComponentSpec(1 + (i % dim), 1 + ((i + 1) % dim), w[0], w[1]) for i in range(n_comp)
    )
    return GenSpec(dim, comps, field, seed)


class TestConstruction:
    def test_coordinate_example_is_parseval(self, coordinate_gfusion):
        assert_allclose(coordinate_gfusion.frame_operator, np.eye(2), atol=1e-15)
        assert coordinate_gfusion.is_parseval

    def test_single_diagonal_component(self, diagonal_gfusion):
        assert_allclose(diagonal_gfusion.frame_operator, np.diag([1.0, 4.0]))
        assert diagonal_gfusion.bounds == pytest.approx((1.0, 4.0))

    def test_weight_scaling(self):
        base = GFusionFrame([(np.eye(2), np.diag([1.0, 2.0]), 1.0)])
        doubled = GFusionFrame([(np.eye(2), np.diag([1.0, 2.0]), 2.0)])
        assert_allclose(doubled.frame_operator, 4.0 * base.frame_operator)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            GFusionFrame([(np.eye(2), np.eye(2), 0.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GFusionFrame([(np.eye(2), np.eye(2), -1.0)])

    def test_weight_without_finite_square_rejected(self):
        with pytest.raises(ValueError, match="finite square"):
            GFusionFrame([(np.eye(2), np.eye(2), 1e160)])

    def test_overflowing_terms_rejected(self):
        with pytest.raises(ValueError, match="component 1 with weight 1e"):
            GFusionFrame([(np.eye(2), np.eye(2), 1.0), (np.eye(2), 2 * np.eye(2), 1e154)])
        with pytest.raises(ValueError, match="frame operator"):
            GFusionFrame([(np.eye(2), np.eye(2), 1e154)] * 2)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(NotOrthonormal):
            GFusionFrame([(np.array([[1.0], [1.0]]), np.eye(2), 1.0)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            GFusionFrame([(np.eye(2), np.eye(3), 1.0)])

    def test_repeated_line_is_not_a_frame(self):
        e1 = np.array([[1.0], [0.0]])
        f = GFusionFrame([(e1, np.eye(2), 1.0), (e1, np.eye(2), 1.0)])
        assert_allclose(f.frame_operator, np.diag([2.0, 0.0]), atol=1e-15)
        assert not f.is_frame
        assert f.lower_bound == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(NotAFrame):
            f.canonical_dual


class TestAnalysisSynthesis:
    def test_full_space_identity_component(self):
        f = GFusionFrame([(np.eye(2), np.eye(2), 1.0)])
        assert_allclose(f.analysis([1.0, 2.0]).blocks[0], [1.0, 2.0])
        assert_allclose(f.synthesis([[1.0, 2.0]]), [1.0, 2.0])

    def test_coordinate_blocks(self, coordinate_gfusion):
        blocks = coordinate_gfusion.analysis([3.0, 4.0]).blocks
        assert_allclose(blocks[0], [3.0, 0.0])
        assert_allclose(blocks[1], [0.0, 4.0])
        assert_allclose(coordinate_gfusion.synthesis([[3.0, 0.0], [0.0, 4.0]]), [3.0, 4.0])

    def test_analysis_extracts_weighted_columns(self):
        f = random_gfusion(spec(4, 3, seed=5))
        e2 = np.zeros(4)
        e2[2] = 1.0
        for c, p, out in zip(f.components, f.projections, f.analysis(e2).blocks):
            assert_allclose(out, c.weight * (c.block @ p)[:, 2], atol=1e-13)

    def test_synthesis_of_analysis_is_frame_operator(self):
        f = random_gfusion(spec(4, 3, seed=6))
        x = sample_vectors(4, Field.COMPLEX, 42, 1)[0]
        assert_allclose(f.synthesis(f.analysis(x)), f.frame_operator @ x, atol=1e-12)

    @pytest.mark.parametrize("field", list(Field))
    def test_frame_inequality(self, field):
        f = random_gfusion(spec(5, 4, field, seed=2))
        a, b = f.bounds
        for k in range(8):
            x = sample_vectors(5, field, 800 + k, 1)[0]
            energy = f.analysis(x).norm_sq()
            n2 = float(np.vdot(x, x).real)
            assert a * n2 - 1e-9 * max(1, n2) <= energy <= b * n2 + 1e-9 * max(1, n2)

    def test_oracle_stacked_product(self):
        for seed in range(5):
            f = random_gfusion(spec(5, 4, seed=seed))
            t_star = f.analysis_matrix()
            rel = operator_norm(f.frame_operator - adjoint(t_star) @ t_star)
            assert rel <= 1e-10 * operator_norm(f.frame_operator)


class TestCanonicalDual:
    def test_parseval_dual_matches_projected_blocks(self):
        f = random_parseval_gfusion(spec(4, 3, seed=9))
        dual = f.canonical_dual
        for c, p, dc in zip(f.components, f.projections, dual.components):
            assert operator_norm(dc.block - c.block @ p) <= 1e-7
            assert operator_norm(projection(dc.basis) - p) <= 1e-7

    def test_diagonal_dual_block(self, diagonal_gfusion):
        dual = diagonal_gfusion.canonical_dual
        assert_allclose(dual.components[0].block, np.diag([1.0, 0.5]), atol=1e-13)

    def test_dual_frame_operator_is_inverse(self):
        f = random_gfusion(spec(5, 4, seed=9))
        assert operator_norm(f.canonical_dual.frame_operator - f.inverse) <= 1e-9 * operator_norm(
            f.inverse
        )

    def test_inverse_bounds_sandwich(self):
        f = random_gfusion(spec(4, 4, seed=14))
        a, b = f.bounds
        lm = loewner_check(f.inverse, np.eye(4) / b, np.eye(4) / a, tol=1e-9)
        assert lm.passed

    def test_dual_reconstruction_both_orders(self):
        f = random_gfusion(spec(6, 4, seed=9))
        s_full = f.partial_sum(range(4))
        for k in range(4):
            x = sample_vectors(6, Field.COMPLEX, 900 + k, 1)[0]
            nx = np.linalg.norm(x)
            assert np.linalg.norm(s_full @ x - x) <= 1e-9 * nx
            assert np.linalg.norm(adjoint(s_full) @ x - x) <= 1e-9 * nx

    def test_frame_operator_reconstruction_both_orders(self):
        f = random_gfusion(spec(6, 4, seed=10))
        s, si = f.frame_operator, f.inverse
        for k in range(4):
            x = sample_vectors(6, Field.COMPLEX, 950 + k, 1)[0]
            nx = np.linalg.norm(x)
            assert np.linalg.norm(s @ (si @ x) - x) <= 1e-9 * nx
            assert np.linalg.norm(si @ (s @ x) - x) <= 1e-9 * nx

    def test_dual_of_dual_behaves_like_primal(self):
        f = random_gfusion(spec(4, 3, seed=11))
        again = f.canonical_dual.canonical_dual
        assert operator_norm(again.frame_operator - f.frame_operator) <= 1e-8 * operator_norm(
            f.frame_operator
        )
        x = sample_vectors(4, Field.COMPLEX, 1000, 1)[0]
        for mine, theirs in zip(f.analysis(x).blocks, again.analysis(x).blocks):
            assert np.linalg.norm(mine - theirs) <= 1e-8 * max(1.0, np.linalg.norm(mine))

    def test_projection_absorption_for_dual_subspaces(self):
        f = random_gfusion(spec(5, 4, seed=13))
        si = f.inverse
        dual = f.canonical_dual
        for p, dp in zip(f.projections, dual.projections):
            # applying the inverse then projecting onto the image subspace
            # changes nothing that started inside the original subspace
            assert operator_norm(dp @ si @ p - si @ p) <= 1e-10 * operator_norm(si)


class TestPartialOperators:
    def test_full_and_empty(self):
        f = random_gfusion(spec(4, 3, seed=15))
        assert operator_norm(f.partial_sum(range(3)) - np.eye(4)) <= 1e-10
        assert operator_norm(f.partial_sum([])) == 0.0
        assert operator_norm(f.partial_frame_operator(range(3)) - f.frame_operator) == 0.0
        assert operator_norm(f.partial_frame_operator([])) == 0.0

    def test_coordinate_partials(self, coordinate_gfusion):
        assert_allclose(coordinate_gfusion.partial_sum([0]), np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(coordinate_gfusion.partial_frame_operator([1]), np.diag([0.0, 1.0]), atol=1e-14)

    def test_partition_sums(self):
        f = random_gfusion(spec(5, 4, seed=16))
        for subset in all_subsets(4):
            comp = f.complement(subset)
            assert operator_norm(f.partial_sum(subset) + f.partial_sum(comp) - np.eye(5)) <= 1e-10
            total = f.partial_frame_operator(subset) + f.partial_frame_operator(comp)
            assert operator_norm(total - f.frame_operator) <= 1e-12 * operator_norm(f.frame_operator)

    def test_parseval_partials_agree(self):
        f = random_parseval_gfusion(spec(5, 4, seed=17))
        for subset in all_subsets(4):
            gap = operator_norm(f.partial_sum(subset) - f.partial_frame_operator(subset))
            assert gap <= 1e-9

    def test_parseval_spectrum_in_unit_interval(self):
        f = random_parseval_gfusion(spec(5, 4, seed=18))
        for subset in all_subsets(4):
            vals = np.linalg.eigvals(f.partial_sum(subset))
            assert vals.real.min() >= -1e-9
            assert vals.real.max() <= 1 + 1e-9
            assert np.abs(vals.imag).max() <= 1e-9

    def test_index_out_of_range(self):
        f = random_gfusion(spec(4, 3, seed=15))
        with pytest.raises(IndexOutOfRange):
            f.partial_sum([3])
        with pytest.raises(IndexOutOfRange):
            f.partial_frame_operator([-1])


class TestParsevalize:
    def test_already_parseval_is_fixed_point(self, coordinate_gfusion):
        again = coordinate_gfusion.parsevalize()
        assert operator_norm(again.frame_operator - np.eye(2)) <= 1e-12
        for c, p, nc in zip(
            coordinate_gfusion.components, coordinate_gfusion.projections, again.components
        ):
            assert operator_norm(nc.block - c.block @ p) <= 1e-9

    def test_diagonal_component_whitens(self, diagonal_gfusion):
        white = diagonal_gfusion.parsevalize()
        assert_allclose(white.components[0].block, np.eye(2), atol=1e-12)
        assert operator_norm(white.frame_operator - np.eye(2)) <= 1e-12

    def test_random_frame_whitens(self):
        f = random_gfusion(spec(5, 3, seed=21))
        white = f.parsevalize()
        assert operator_norm(white.frame_operator - np.eye(5)) <= 1e-9

    def test_whitening_conjugates_partial_frame_operators(self):
        # truncated operators of the whitened frame are the originals
        # conjugated by the inverse square root
        f = random_gfusion(spec(5, 4, seed=22))
        white = f.parsevalize()
        r = f.inverse_sqrt
        for subset in all_subsets(4):
            lhs = white.partial_frame_operator(subset)
            rhs = r @ f.partial_frame_operator(subset) @ r
            assert operator_norm(lhs - rhs) <= 1e-9 * max(1.0, operator_norm(rhs))

    def test_idempotent_up_to_tolerance(self):
        f = random_parseval_gfusion(spec(4, 3, seed=7))
        again = f.parsevalize()
        assert operator_norm(again.frame_operator - np.eye(4)) <= 1e-9


class TestIdentities:
    def test_partition_identity_all_subsets(self):
        f = random_gfusion(spec(5, 4, seed=23))
        for k in range(3):
            x = sample_vectors(5, Field.COMPLEX, 1100 + k, 1)[0]
            scale = max(1.0, float(np.vdot(x, x).real))
            for subset in all_subsets(4):
                terms = partition_identity(f, subset, x)
                assert terms.residual <= 1e-9 * scale

    def test_parseval_partition_identity(self):
        f = random_parseval_gfusion(spec(4, 4, seed=24))
        x = sample_vectors(4, Field.COMPLEX, 1200, 1)[0]
        scale = max(1.0, float(np.vdot(x, x).real))
        for subset in all_subsets(4):
            terms = parseval_partition_identity(f, subset, x)
            assert terms.residual <= 1e-9 * scale

    def test_whitened_partition_identity(self):
        f = random_gfusion(spec(5, 4, seed=25))
        x = sample_vectors(5, Field.COMPLEX, 1300, 1)[0]
        scale = max(1.0, float(np.vdot(x, x).real))
        for subset in all_subsets(4):
            terms = whitened_partition_identity(f, subset, x)
            assert terms.residual <= 1e-9 * scale

    def test_frame_partition_identity(self):
        f = random_gfusion(spec(5, 4, seed=26))
        x = sample_vectors(5, Field.COMPLEX, 1400, 1)[0]
        scale = max(1.0, float(np.vdot(x, x).real))
        for subset in all_subsets(4):
            terms = frame_partition_identity(f, subset, x)
            assert terms.residual <= 1e-9 * scale

    def test_inverse_quadratic_form(self):
        f = random_gfusion(spec(5, 4, seed=13))
        for k in range(4):
            x = sample_vectors(5, Field.COMPLEX, 1500 + k, 1)[0]
            n2 = float(np.vdot(x, x).real)
            assert inverse_quadratic_residual(f, x) <= 1e-9 * max(1.0, n2)

    def test_inverse_quadratic_zero_vector(self):
        f = random_gfusion(spec(4, 3, seed=13))
        assert inverse_quadratic_residual(f, np.zeros(4)) == pytest.approx(0.0, abs=1e-15)

    def test_parseval_quadratic_form_is_energy(self):
        f = random_parseval_gfusion(spec(4, 3, seed=27))
        x = sample_vectors(4, Field.COMPLEX, 1600, 1)[0]
        energies = block_energies(f.canonical_dual, x)
        n2 = float(np.vdot(x, x).real)
        assert energies.sum() == pytest.approx(n2, rel=1e-7)


def _random_frame(dim, shapes, field, seed):
    """Frame with one component per (subspace dim, codomain dim) pair."""
    rng = substream(seed, 41)
    return GFusionFrame(
        [
            (random_subspace_basis(dim, min(k, dim), field, rng),
             random_operator(rows, dim, field, rng),
             float(rng.uniform(0.5, 2.0)))
            for k, rows in shapes
        ]
    )


class TestBlockEnergies:
    """The stacked route gives the per-block energies of ``analysis``."""

    # complex vector on a real frame with 1-row and rectangular blocks
    @example(dim=3, shapes=[(1, 1), (2, 4), (3, 2)], frame_field=Field.REAL,
             vector_field=Field.COMPLEX, seed=0, dual=False)
    @example(dim=3, shapes=[(1, 1), (2, 4), (3, 2)], frame_field=Field.REAL,
             vector_field=Field.COMPLEX, seed=0, dual=True)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 6),
           shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 5)), min_size=1, max_size=5),
           frame_field=st.sampled_from(list(Field)), vector_field=st.sampled_from(list(Field)),
           seed=st.integers(0, 10_000), dual=st.booleans())
    def test_matches_per_block_route(self, dim, shapes, frame_field, vector_field, seed, dual):
        frame = _random_frame(dim, shapes, frame_field, seed)
        if dual:
            assume(frame.is_frame)
            frame = frame.canonical_dual
        x = random_vector(dim, vector_field, substream(seed, 42))
        expected = [np.vdot(b, b).real for b in frame.analysis(x).blocks]
        assert_allclose(block_energies(frame, x), expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("route", ["stacked", "per-block"])
    def test_errors_match_the_per_block_route(self, route):
        frame = _random_frame(3, [(2, 2), (3, 1)], Field.COMPLEX, 5)
        energies = block_energies if route == "stacked" else GFusionFrame.analysis
        with pytest.raises(ValueError, match="finite"):
            energies(frame, np.array([1.0, np.nan, 0.0]))
        with pytest.raises(ShapeMismatch):
            energies(frame, np.ones(4))
        huge = GFusionFrame([(np.eye(2), np.ones((2, 2)), 1e150)])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            energies(huge, np.full(2, 1e300))

    def test_validates_the_vector_once(self, monkeypatch):
        frame = _random_frame(4, [(1, 2), (2, 3), (4, 1)], Field.COMPLEX, 6)
        calls = []
        as_vector = gfusion.as_vector
        assert gframe.as_vector is as_vector

        def counting(*args, **kwargs):
            calls.append(args)
            return as_vector(*args, **kwargs)

        for module in (gfusion, gframe):
            monkeypatch.setattr(module, "as_vector", counting)
        block_energies(frame, np.ones(4))
        assert len(calls) == 1

    def test_analysis_matrix_cannot_change_later_energies(self):
        frame = _random_frame(4, [(1, 2), (2, 3), (4, 1)], Field.REAL, 7)
        x = np.arange(1.0, 5.0)
        before = block_energies(frame, x)
        a = frame.analysis_matrix()
        with pytest.raises(ValueError):
            a[0, 0] = 1e6
        with pytest.raises(ValueError):
            a.setflags(write=True)
        assert np.array_equal(block_energies(frame, x), before)
