import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from framekit import (
    ComponentSpec,
    Field,
    GenerationFailed,
    GenSpec,
    GFusionFrame,
    operator_norm,
    random_gframe,
    random_gfusion,
    random_parseval_gframe,
    random_parseval_gfusion,
    sample_vectors,
    substream,
)
from framekit.linops import PDTOL


def spec(seed=42, field=Field.COMPLEX):
    comps = (
        ComponentSpec(2, 2, 0.5, 2.0),
        ComponentSpec(1, 3, 0.5, 2.0),
        ComponentSpec(3, 2, 0.5, 2.0),
    )
    return GenSpec(4, comps, field, seed)


class TestGenSpecValidation:
    def test_subspace_dim_too_large(self):
        with pytest.raises(ValueError):
            GenSpec(2, (ComponentSpec(3, 2),), Field.REAL, 0)

    def test_bad_weight_range(self):
        with pytest.raises(ValueError):
            ComponentSpec(1, 1, 2.0, 1.0)
        with pytest.raises(ValueError):
            ComponentSpec(1, 1, 0.0, 1.0)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            GenSpec(2, (ComponentSpec(1, 1),), Field.REAL, -1)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            ComponentSpec(0, 1)
        with pytest.raises(ValueError):
            GenSpec(0, (ComponentSpec(1, 1),))


class TestDeterminism:
    def test_substream_repeats_bit_exactly(self):
        a = substream(123, 5).standard_normal(16)
        b = substream(123, 5).standard_normal(16)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = substream(123, 5).standard_normal(16)
        b = substream(123, 6).standard_normal(16)
        c = substream(124, 5).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gfusion_bit_identical(self):
        f1 = random_gfusion(spec(seed=42))
        f2 = random_gfusion(spec(seed=42))
        for c1, c2 in zip(f1.components, f2.components):
            assert np.array_equal(c1.basis, c2.basis)
            assert np.array_equal(c1.block, c2.block)
            assert c1.weight == c2.weight

    def test_gframe_bit_identical(self):
        f1 = random_gframe(4, [2, 3, 2], Field.REAL, 7)
        f2 = random_gframe(4, [2, 3, 2], Field.REAL, 7)
        for b1, b2 in zip(f1.blocks, f2.blocks):
            assert np.array_equal(b1, b2)

    def test_seeds_change_output(self):
        f1 = random_gfusion(spec(seed=1))
        f2 = random_gfusion(spec(seed=2))
        assert not np.array_equal(f1.components[0].block, f2.components[0].block)

    def test_sample_vectors_deterministic(self):
        a = sample_vectors(5, Field.COMPLEX, 9, 3)
        b = sample_vectors(5, Field.COMPLEX, 9, 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _digest(arrays) -> str:
    """sha256 of the arrays' entries as little-endian bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


# Raw seeded draws are Philox and ziggurat output alone, with no SVD or
# eigensolver in between, so these digests hold on every BLAS build; they
# change only if the draws themselves, or their order, change.
_DRAW_DIGESTS = {
    (Field.REAL, "vectors"): "935cf65a0a3221ab99fc6c2a5e5e0d5b42581c1ea8eafd42b5857033f69db654",
    (Field.REAL, "blocks"): "af3dca8a15d86737f51f11438e3ee6e22b87b0aaad138208ec160c5b4eb21cf7",
    (Field.COMPLEX, "vectors"): "e329ba6fee597624761b0506e29306da82ef18e6748ce4d16f9f0ae61e523d22",
    (Field.COMPLEX, "blocks"): "60b45d04a9ad884a2271debfe0ab803c93a4ec60cc27c1dd2fe330e8316e0eb5",
}


class TestPinnedDraws:
    @pytest.mark.parametrize("field", list(Field))
    def test_sample_vectors(self, field):
        vectors = sample_vectors(8, field, 0, 8)
        assert all(v.dtype == field.dtype for v in vectors)
        assert _digest(vectors) == _DRAW_DIGESTS[field, "vectors"]

    @pytest.mark.parametrize("field", list(Field))
    def test_gframe_blocks(self, field):
        blocks = random_gframe(8, [2, 3, 4, 5], field, 0).blocks
        assert [b.shape for b in blocks] == [(2, 8), (3, 8), (4, 8), (5, 8)]
        assert all(b.dtype == field.dtype for b in blocks)
        assert _digest(blocks) == _DRAW_DIGESTS[field, "blocks"]


class TestRandomFrames:
    @pytest.mark.parametrize("field", list(Field))
    def test_generated_gfusion_is_frame(self, field):
        for seed in range(6):
            f = random_gfusion(spec(seed=seed, field=field))
            assert f.lower_bound > PDTOL
            assert f.dtype == field.dtype

    def test_full_space_single_component(self):
        s = GenSpec(2, (ComponentSpec(2, 2),), Field.COMPLEX, 0)
        f = random_gfusion(s)
        assert f.is_frame

    def test_undersized_spec_fails(self):
        # a single line cannot span R^3, whatever the block does
        s = GenSpec(3, (ComponentSpec(1, 1),), Field.REAL, 1)
        with pytest.raises(GenerationFailed):
            random_gfusion(s)

    def test_undersized_gframe_fails(self):
        with pytest.raises(GenerationFailed):
            random_gframe(3, [1], Field.REAL, 1)

    def test_complex_gaussian_unit_variance(self):
        rng = substream(0, 99)
        from framekit.gen import random_vector

        z = np.concatenate([random_vector(512, Field.COMPLEX, rng) for _ in range(8)])
        # var(re) = var(im) = 1/2 so E|z|^2 = 1
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.05)


class TestParsevalGeneration:
    @pytest.mark.parametrize("field", list(Field))
    def test_parseval_threshold(self, field):
        f = random_parseval_gfusion(spec(seed=7, field=field))
        assert operator_norm(f.frame_operator - np.eye(4)) <= 1e-8
        assert f.is_parseval

    def test_parseval_gframe_threshold(self):
        f = random_parseval_gframe(4, [2, 3, 2], Field.COMPLEX, 7)
        assert f.is_parseval

    def test_parsevalize_idempotent(self):
        f = random_parseval_gfusion(spec(seed=7))
        again = f.parsevalize()
        assert operator_norm(again.frame_operator - np.eye(4)) <= 1e-9


class TestFusionSpecialCase:
    def test_orthogonal_lines_give_identity(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        f = GFusionFrame([(e1, np.eye(2), 1.0), (e2, np.eye(2), 1.0)])
        assert_allclose(f.frame_operator, np.eye(2))

    def test_repeated_line_reports_zero_bound(self):
        e1 = np.array([[1.0], [0.0]])
        f = GFusionFrame([(e1, np.eye(2), 1.0), (e1, np.eye(2), 1.0)])
        assert f.bounds[0] == pytest.approx(0.0, abs=1e-15)
        assert f.bounds[1] == pytest.approx(2.0)

    def test_three_coordinate_planes(self):
        planes = [
            np.eye(3)[:, [0, 1]],
            np.eye(3)[:, [0, 2]],
            np.eye(3)[:, [1, 2]],
        ]
        f = GFusionFrame([(b, np.eye(3), 1.0) for b in planes])
        assert_allclose(f.frame_operator, 2.0 * np.eye(3), atol=1e-15)
