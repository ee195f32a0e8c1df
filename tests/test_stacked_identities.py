"""The stacked partition identities against their per-block reference routes.

``gframe`` and ``gfusion`` evaluate every partition identity from the
stacked analysis operators of the frame and of its canonical dual.  The
routes below are the per-block loops they replaced: one block product, one
inner product and one adjoint image per index, and the truncated frame
operators ``partial_frame_operator`` for the identities built on M_I f.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from framekit import (
    ComponentSpec,
    Field,
    GFrame,
    GFusionFrame,
    GenSpec,
    IndexOutOfRange,
    ShapeMismatch,
    adjoint,
    as_vector,
    inner,
    random_parseval_gfusion,
    run_check,
    sample_vectors,
    substream,
)
from framekit import gframe, gfusion
from framekit.gen import random_operator, random_subspace_basis, random_vector

# |stacked - reference| <= TOL * max(1, ||f||^2) on each side of each identity
TOL = 1e-11
# the forward error of the dual routes grows with the condition number of S
MAX_CONDITION = 100.0


def _side_gframe(frame, dual_blocks, ids, f, conjugate):
    acc = 0j
    s_f = np.zeros(frame.dim_h, dtype=np.promote_types(frame.dtype, f.dtype))
    for j in ids:
        df = dual_blocks[j] @ f
        ip = inner(df, frame.blocks[j] @ f)
        acc += np.conjugate(ip) if conjugate else ip
        s_f = s_f + adjoint(frame.blocks[j]) @ df
    return acc - np.vdot(s_f, s_f).real


def ref_gframe_partition(frame, subset, f):
    f = as_vector(f, frame.dim_h)
    js = frame._validate_subset(subset)
    dual = frame.canonical_dual.blocks
    return (_side_gframe(frame, dual, js, f, False),
            _side_gframe(frame, dual, frame.complement(js), f, True))


def ref_gframe_parseval(frame, subset, f):
    f = as_vector(f, frame.dim_h)
    js = frame._validate_subset(subset)
    return (_side_gframe(frame, frame.blocks, js, f, False),
            _side_gframe(frame, frame.blocks, frame.complement(js), f, False))


def ref_gfusion_partition(frame, subset, f):
    f = as_vector(f, frame.dim_h)
    dual = frame.canonical_dual
    js = frame._validate_subset(subset)

    def side(ids, conjugate):
        acc = 0j
        s_f = np.zeros(frame.dim_h, dtype=np.promote_types(frame.dtype, f.dtype))
        for j in ids:
            c, p = frame.components[j], frame.projections[j]
            dc, dp = dual.components[j], dual.projections[j]
            dy = dc.block @ (dp @ f)
            ip = (c.weight**2) * inner(dy, c.block @ (p @ f))
            acc += np.conjugate(ip) if conjugate else ip
            s_f = s_f + (c.weight**2) * (p @ (adjoint(c.block) @ dy))
        return acc - np.vdot(s_f, s_f).real

    return side(js, False), side(frame.complement(js), True)


def _images(frame, f):
    """The block images w_j B_j (P_j f), computed from the triples."""
    return [c.weight * (c.block @ (p @ f)) for c, p in zip(frame.components, frame.projections)]


def _energy(frame, ids, f):
    blocks = _images(frame, f)
    return sum(np.vdot(blocks[j], blocks[j]).real for j in ids)


def _split(frame, subset, f):
    f = as_vector(f, frame.dim_h)
    js = frame._validate_subset(subset)
    return js, frame.complement(js)


def ref_gfusion_parseval(frame, subset, f):
    js, ks = _split(frame, subset, f)

    def side(ids):
        m_f = frame.partial_frame_operator(ids) @ f
        return _energy(frame, ids, f) - np.vdot(m_f, m_f).real

    return side(js), side(ks)


def ref_gfusion_whitened(frame, subset, f):
    js, ks = _split(frame, subset, f)

    def side(ids, others):
        w = frame.inverse_sqrt @ (frame.partial_frame_operator(others) @ f)
        return _energy(frame, ids, f) + np.vdot(w, w).real

    return side(js, ks), side(ks, js)


def ref_gfusion_frame(frame, subset, f):
    js, ks = _split(frame, subset, f)
    dual = frame.canonical_dual

    def side(ids):
        m_f = frame.partial_frame_operator(ids) @ f
        return _energy(frame, ids, f) - _energy(dual, range(len(dual)), m_f)

    return side(js), side(ks)


GFRAME_ROUTES = [
    (gframe.partition_identity, ref_gframe_partition),
    (gframe.parseval_partition_identity, ref_gframe_parseval),
]
GFUSION_ROUTES = [
    (gfusion.partition_identity, ref_gfusion_partition),
    (gfusion.parseval_partition_identity, ref_gfusion_parseval),
    (gfusion.whitened_partition_identity, ref_gfusion_whitened),
    (gfusion.frame_partition_identity, ref_gfusion_frame),
]


def _random_gframe(dim, rows, field, seed):
    rng = substream(seed, 43)
    return GFrame([random_operator(r, dim, field, rng) for r in rows])


def _random_gfusion(dim, shapes, field, seed):
    rng = substream(seed, 44)
    return GFusionFrame(
        [
            (random_subspace_basis(dim, min(k, dim), field, rng),
             random_operator(rows, dim, field, rng),
             float(rng.uniform(0.5, 2.0)))
            for k, rows in shapes
        ]
    )


def _subset(bits, count):
    return [j for j in range(count) if bits >> j & 1]


def _assert_routes_agree(routes, frame, subset, f):
    scale = max(1.0, np.vdot(f, f).real)
    for stacked, reference in routes:
        terms = stacked(frame, subset, f)
        lhs, rhs = reference(frame, subset, f)
        assert abs(terms.lhs - lhs) <= TOL * scale, stacked.__qualname__
        assert abs(terms.rhs - rhs) <= TOL * scale, stacked.__qualname__
        assert terms.residual == pytest.approx(abs(terms.lhs - terms.rhs))


def _well_conditioned(frame):
    return frame.is_frame and frame.upper_bound <= MAX_CONDITION * frame.lower_bound


# complex vector on a real frame with 1-row and rectangular blocks, at the
# empty and at the full subset
_CASES = dict(dim=3, frame_field=Field.REAL, vector_field=Field.COMPLEX, seed=0)


class TestStackedMatchesReference:
    @example(rows=[1, 4, 2, 1], bits=0, **_CASES)
    @example(rows=[1, 4, 2, 1], bits=15, **_CASES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5), rows=st.lists(st.integers(1, 5), min_size=1, max_size=5),
           frame_field=st.sampled_from(list(Field)), vector_field=st.sampled_from(list(Field)),
           seed=st.integers(0, 10_000), bits=st.integers(0, 31))
    def test_gframe_identities(self, dim, rows, frame_field, vector_field, seed, bits):
        frame = _random_gframe(dim, rows, frame_field, seed)
        assume(_well_conditioned(frame))
        f = 3.0 * random_vector(dim, vector_field, substream(seed, 45))
        _assert_routes_agree(GFRAME_ROUTES, frame, _subset(bits, len(rows)), f)

    @example(shapes=[(1, 1), (2, 4), (3, 2), (3, 1)], bits=0, **_CASES)
    @example(shapes=[(1, 1), (2, 4), (3, 2), (3, 1)], bits=15, **_CASES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5),
           shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=5),
           frame_field=st.sampled_from(list(Field)), vector_field=st.sampled_from(list(Field)),
           seed=st.integers(0, 10_000), bits=st.integers(0, 31))
    def test_gfusion_identities(self, dim, shapes, frame_field, vector_field, seed, bits):
        frame = _random_gfusion(dim, shapes, frame_field, seed)
        assume(_well_conditioned(frame))
        f = 3.0 * random_vector(dim, vector_field, substream(seed, 45))
        subset = _subset(bits, len(shapes))
        _assert_routes_agree(GFUSION_ROUTES, frame, subset, f)
        # the sums behind the three identities on M_I f, with no truncated
        # frame operator built
        js, ks = _split(frame, subset, f)
        stack = frame._stacked_analysis
        sides = gframe.subset_masks(len(frame), [js])
        energies, images = gframe.subset_sums(stack, stack, sides, [f])
        scale = max(1.0, np.vdot(f, f).real)
        for side, ids in enumerate((js, ks)):
            assert abs(energies[0, 0, side] - _energy(frame, ids, f)) <= TOL * scale
            m_f = frame.partial_frame_operator(ids) @ f
            assert np.abs(images[0, 0, :, side] - m_f).max() <= TOL * scale


@pytest.fixture(scope="module")
def frames():
    rng = substream(3, 46)
    return {
        "gframe": GFrame([random_operator(r, 3, Field.COMPLEX, rng) for r in (2, 1, 3)]),
        "gfusion": _random_gfusion(3, [(2, 2), (3, 1), (1, 3)], Field.COMPLEX, 3),
    }


ALL_ROUTES = [("gframe", *route) for route in GFRAME_ROUTES] + [
    ("gfusion", *route) for route in GFUSION_ROUTES
]


class TestErrorParity:
    @pytest.mark.parametrize(
        "vector,subset,error",
        [
            (np.array([1.0, np.nan, 0.0]), [0], ValueError),
            (np.ones(4), [0], ShapeMismatch),
            (np.ones(3), [0, 3], IndexOutOfRange),
            (np.ones(3), [-1], IndexOutOfRange),
        ],
        ids=["nan-vector", "wrong-length", "index-past-end", "negative-index"],
    )
    @pytest.mark.parametrize("kind,stacked,reference", ALL_ROUTES,
                             ids=[f"{kind}.{stacked.__name__}" for kind, stacked, _ in ALL_ROUTES])
    def test_same_error_as_reference(self, frames, kind, stacked, reference, vector, subset, error):
        frame = frames[kind]
        with pytest.raises(error):
            stacked(frame, subset, vector)
        with pytest.raises(error):
            reference(frame, subset, vector)

    def test_non_finite_stacked_image_raises(self):
        huge = GFusionFrame([(np.eye(2), np.ones((2, 2)), 1e150)])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            gfusion.parseval_partition_identity(huge, [0], np.full(2, 1e300))
        for identity in (gfusion.whitened_partition_identity, gfusion.frame_partition_identity):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
                identity(huge, [], np.full(2, 1e300))

    @pytest.mark.parametrize("check,weight,entry", [
        ("THM_T33", 1e150, 1e300),
        ("THM_TG1", 1e150, 1e300),
        # finite images whose inner products overflow
        ("THM_T33", 1e100, 1e60),
    ], ids=["own-stack", "dual-stack", "own-stack-inner-products"])
    def test_non_finite_chunk_sums_raise_through_run_check(self, check, weight, entry):
        huge = GFusionFrame([(np.eye(2), np.eye(2), weight)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="finite"):
                run_check(check, huge, [0], [np.full(2, entry)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestSubsetSumsChunk:
    """``subset_sums`` on a chunk of k subsets and V vectors gives every
    (subset, vector) pair what the 1 x 1 call on that pair gives."""

    SHAPES = [(1, 2), (2, 3), (3, 1), (4, 2), (2, 2), (1, 4), (3, 3)]

    @pytest.mark.parametrize("count", [1, 8])
    @pytest.mark.parametrize("k", [1, 63, 64, 65])
    @pytest.mark.parametrize("field", list(Field))
    def test_each_entry_equals_its_one_by_one_call(self, field, k, count):
        frame = _random_gfusion(4, self.SHAPES, field, 5)
        subsets = [tuple(_subset(bits, len(frame))) for bits in range(k)]
        vectors = sample_vectors(4, field, 5, count)
        stack = frame._stacked_analysis
        for dual in (stack, frame.canonical_dual._stacked_analysis):
            sums, images = gframe.subset_sums(stack, dual, gframe.subset_masks(len(frame), subsets),
                                              vectors)
            assert sums.shape == (k, count, 2) and images.shape == (k, count, 4, 2)
            for i, js in enumerate(subsets):
                sides = gframe.subset_masks(len(frame), [js])
                for v, f in enumerate(vectors):
                    one_sums, one_images = gframe.subset_sums(stack, dual, sides, [f])
                    assert np.array_equal(sums[i, v], one_sums[0, 0])
                    assert np.array_equal(images[i, v], one_images[0, 0])

    @pytest.mark.parametrize("weight,entry", [(1e150, 1e300), (1e100, 1e60)],
                             ids=["stacked-image", "inner-products"])
    def test_an_overflow_raises_and_warns_nothing(self, weight, entry):
        # no np.errstate here: subset_sums sets its own
        huge = GFusionFrame([(np.eye(2), np.eye(2), weight)])
        stack = huge._stacked_analysis
        sides = gframe.subset_masks(1, [(), (0,)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="subset sums are not finite at this frame's scale"):
                gframe.subset_sums(stack, stack, sides, [np.ones(2), np.full(2, entry)])


class TestNoTruncatedFrameOperators:
    def test_identities_and_checks_skip_partial_frame_operator(self, monkeypatch):
        comps = tuple(ComponentSpec(k, r, 0.5, 2.0) for k, r in ((1, 2), (2, 3), (3, 1), (1, 2)))
        spec = GenSpec(3, comps, Field.COMPLEX, 0)
        frame = random_parseval_gfusion(spec)
        vectors = sample_vectors(3, Field.COMPLEX, 0, 4)
        calls = []
        original = GFusionFrame.partial_frame_operator

        def counting(self, subset):
            calls.append(subset)
            return original(self, subset)

        monkeypatch.setattr(GFusionFrame, "partial_frame_operator", counting)
        for subset in ([], [1, 3], range(4)):
            for f in vectors:
                for stacked, _ in GFUSION_ROUTES:
                    stacked(frame, subset, f)
            for check in ("COR1_34BOUND", "COR_34_SINV"):
                assert run_check(check, frame, subset, vectors).passed
        assert calls == []


def test_canonical_dual_holds_no_reference_to_its_frame():
    frame = _random_gfusion(3, [(2, 2), (3, 1), (1, 3)], Field.REAL, 8)
    dual = frame.canonical_dual
    frame_ref, dual_ref = weakref.ref(frame), weakref.ref(dual)
    del dual
    gc.disable()
    try:
        del frame
        assert frame_ref() is None
        assert dual_ref() is None
    finally:
        gc.enable()
