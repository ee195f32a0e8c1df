"""The stacked partition identities against their per-block reference routes.

``gframe`` and ``gfusion`` evaluate every partition identity from the
frame's stacked analysis operator and its dual matrix ``_dual_stack``.  The
routes below are the per-block loops they replaced: one block product, one
inner product and one adjoint image per index, and the truncated frame
operators ``partial_frame_operator`` for the identities built on M_I f.
"""

import functools
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
    orthonormal_basis,
    random_parseval_gfusion,
    run_check,
    sample_vectors,
    substream,
)
from framekit import gframe, gfusion
from framekit.gen import random_operator, random_subspace_basis, random_vector
from framekit.verify import _block_dims

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
    dual = [b @ frame.inverse for b in frame.blocks]
    return (_side_gframe(frame, dual, js, f, False),
            _side_gframe(frame, dual, frame.complement(js), f, True))


def ref_gframe_parseval(frame, subset, f):
    f = as_vector(f, frame.dim_h)
    js = frame._validate_subset(subset)
    return (_side_gframe(frame, frame.blocks, js, f, False),
            _side_gframe(frame, frame.blocks, frame.complement(js), f, False))


def dual_triples(frame):
    """The canonical dual in triple form, (span of S^-1 U_j, B_j P_j S^-1, w_j),
    so the references read neither ``blocks``, the stack nor ``canonical_dual``."""
    si = frame.inverse
    return GFusionFrame([(orthonormal_basis(si @ c.basis), c.block @ p @ si, c.weight)
                         for c, p in zip(frame.components, frame.projections)])


def ref_gfusion_partition(frame, subset, f):
    f = as_vector(f, frame.dim_h)
    dual = dual_triples(frame)
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
    dual = dual_triples(frame)

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
# a Parseval-form side on a general frame is of order ||S||^2 ||f||^2 and its
# rounding error grows with it, so these routes also scale TOL by |reference|
# (the d = 64 benchmark frame needs it; every other route keeps the bound above)
PARSEVAL_FORM_ROUTES = {gframe.parseval_partition_identity, gfusion.parseval_partition_identity}


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
    for stacked, reference in routes:
        terms = stacked(frame, subset, f)
        lhs, rhs = reference(frame, subset, f)
        scale = max(1.0, np.vdot(f, f).real)
        if stacked in PARSEVAL_FORM_ROUTES:
            scale = max(scale, abs(lhs), abs(rhs))
        assert abs(terms.lhs - lhs) <= TOL * scale, stacked.__qualname__
        assert abs(terms.rhs - rhs) <= TOL * scale, stacked.__qualname__
        assert terms.residual == pytest.approx(abs(terms.lhs - terms.rhs))


def _well_conditioned(frame):
    return frame.is_frame and frame.upper_bound <= MAX_CONDITION * frame.lower_bound


# complex vector on a real frame with 1-row and rectangular blocks, at the
# empty and at the full subset
_CASES = dict(dim=3, frame_field=Field.REAL, vector_field=Field.COMPLEX, seed=0)

# the benchmark's frames: wide-subsets (d = 8, the 10 block heights of the
# sweep, R = 41, with the sweep's subspace dimensions 1 + i % 8) and
# large-frames (d = 64, R = 176, the components of its gen call)
WIDE_ROWS = _block_dims(8, 10)
BENCHMARK_FRAMES = {
    "wide-subsets": dict(dim=8, rows=WIDE_ROWS,
                         shapes=[(1 + i % 8, r) for i, r in enumerate(WIDE_ROWS)]),
    "large-frames": dict(dim=64, rows=[64, 40, 64, 8],
                         shapes=[(64, 64), (48, 40), (32, 64), (16, 8)]),
}


def _benchmark_examples(blocks):
    """An @example per benchmark frame and field, its ``blocks`` argument
    ("rows" or "shapes") read from ``BENCHMARK_FRAMES``, at a subset that
    mixes blocks of every height."""
    def decorate(test):
        for frame in BENCHMARK_FRAMES.values():
            for field in Field:
                test = example(dim=frame["dim"], frame_field=field, vector_field=field, seed=0,
                               bits=0b1010110011, **{blocks: frame[blocks]})(test)
        return test
    return decorate


class TestStackedMatchesReference:
    @example(rows=[1, 4, 2, 1], bits=0, **_CASES)
    @example(rows=[1, 4, 2, 1], bits=15, **_CASES)
    @_benchmark_examples("rows")
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
    @_benchmark_examples("shapes")
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
        # the own sums behind the three identities on M_I f, from the
        # subset's one-row [M_I, M_K]
        js, ks = _split(frame, subset, f)
        sides = gframe.subset_masks(len(frame), [js])
        energies, images = gframe.operator_sums(gframe.side_sums(frame._term_stack, sides), [f])
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


class _CountingMatrix(np.ndarray):
    """A matrix that counts the products (``@`` or ``*``) it is the left
    operand of; each product is a plain ``ndarray``."""

    @classmethod
    def of(cls, matrix):
        counting = matrix.view(cls)
        counting.products = 0
        return counting

    def __matmul__(self, other):
        self.products += 1
        return self.view(np.ndarray) @ other

    def __mul__(self, other):
        self.products += 1
        return self.view(np.ndarray) * other


class TestSubsetSumsChunk:
    """``subset_sums`` of the dual on a chunk of k subsets and V vectors
    gives every (subset, vector) pair what the 1 x 1 call on that pair
    gives."""

    SHAPES = [(1, 2), (2, 3), (3, 1), (4, 2), (2, 2), (1, 4), (3, 3)]
    FRAMES = {"d4": (4, SHAPES)} | {
        name: (frame["dim"], frame["shapes"]) for name, frame in BENCHMARK_FRAMES.items()}

    @pytest.mark.parametrize("count", [1, 8])
    @pytest.mark.parametrize("k", [1, 63, 64, 65])
    @pytest.mark.parametrize("field", list(Field))
    @pytest.mark.parametrize("dim,shapes", FRAMES.values(), ids=FRAMES.keys())
    def test_each_entry_equals_its_one_by_one_call(self, dim, shapes, field, k, count):
        frame = _random_gfusion(dim, shapes, field, 5)
        subsets = [tuple(_subset(bits, len(frame))) for bits in range(k)]
        vectors = sample_vectors(dim, field, 5, count)
        stack, dual = frame._stacked_analysis, frame._dual_stack
        sums, images = gframe.subset_sums(stack, dual, gframe.subset_masks(len(frame), subsets),
                                          vectors)
        assert sums.shape == (k, count, 2) and images.shape == (k, count, dim, 2)
        for i, js in enumerate(subsets):
            sides = gframe.subset_masks(len(frame), [js])
            for v, f in enumerate(vectors):
                one_sums, one_images = gframe.subset_sums(stack, dual, sides, [f])
                assert np.array_equal(sums[i, v], one_sums[0, 0])
                assert np.array_equal(images[i, v], one_images[0, 0])

    @pytest.mark.parametrize("field", list(Field))
    def test_each_vector_is_applied_once_per_call(self, field):
        # Lambda f, Gamma f and the inner products do not depend on the
        # subset, nor the row mask on the vector: for 64 subsets and V
        # vectors, V products with each matrix and 64 with Lambda*, not 64 V
        frame = _random_gfusion(4, self.SHAPES, field, 5)
        subsets = [tuple(_subset(bits, len(frame))) for bits in range(64)]
        vectors = sample_vectors(4, field, 5, 3)
        stack = frame._stacked_analysis
        sides = gframe.subset_masks(len(frame), subsets)
        matrix = _CountingMatrix.of(stack.matrix)
        dual = _CountingMatrix.of(frame._dual_stack)
        adjoint = _CountingMatrix.of(stack.adjoint)
        sums, images = gframe.subset_sums(stack._replace(matrix=matrix, adjoint=adjoint), dual,
                                          sides, vectors)
        assert ((matrix.products, dual.products, adjoint.products)
                == (len(vectors), len(vectors), len(subsets)))
        expected_sums, expected_images = gframe.subset_sums(stack, frame._dual_stack, sides,
                                                            vectors)
        assert np.array_equal(sums, expected_sums) and np.array_equal(images, expected_images)


def _own_sums(frame, subsets, vectors):
    """``operator_sums`` of the [M_I, M_K] of ``subsets``, as a chunk takes
    them."""
    sides = gframe.subset_masks(len(frame), subsets)
    return gframe.operator_sums(gframe.side_sums(frame._term_stack, sides), vectors)


class TestOperatorSums:
    """``operator_sums`` of a chunk's [M_I, M_K]: the own sums <M_I f, f> and
    M_I f of every (subset, vector) pair, each what the pair's 1 x 1 call
    gives."""

    # the default plan's block heights at d = 2, 3, 5 and 8 with 7 blocks
    # (128 subsets), the wide-subsets frame and the d = 64 g-frame of CI
    FRAMES = {f"d{dim}": (dim, _block_dims(dim, 7)) for dim in (2, 3, 5, 8)} | {
        "wide-subsets": (8, WIDE_ROWS), "d64": (64, [64, 40, 64, 8])}

    @pytest.mark.parametrize("count", [1, 8])
    @pytest.mark.parametrize("field", list(Field))
    @pytest.mark.parametrize("dim,rows", FRAMES.values(), ids=FRAMES.keys())
    def test_each_entry_equals_its_one_by_one_call(self, dim, rows, field, count):
        frame = _random_gframe(dim, rows, field, 5)
        # a whole chunk of the sweep and one subset more, or every subset
        k = min(max(4, 4096 // dim**2) + 1, 2**len(frame))
        subsets = [tuple(_subset(bits, len(frame))) for bits in range(2**len(frame) - k,
                                                                      2**len(frame))]
        vectors = sample_vectors(dim, field, 5, count)
        sums, images = _own_sums(frame, subsets, vectors)
        assert sums.shape == (k, count, 2) and images.shape == (k, count, dim, 2)
        for i, js in enumerate(subsets):
            for v, f in enumerate(vectors):
                one_sums, one_images = _own_sums(frame, [js], [f])
                assert np.array_equal(sums[i, v], one_sums[0, 0])
                assert np.array_equal(images[i, v], one_images[0, 0])

    @pytest.mark.parametrize("field", list(Field))
    @pytest.mark.parametrize("dim,rows", FRAMES.values(), ids=FRAMES.keys())
    def test_sums_and_images_are_the_block_energies_and_adjoint_images(self, dim, rows, field):
        # <M_I f, f> = sum_{j in I} ||Lambda_j f||^2 and
        # M_I f = sum_{j in I} Lambda_j* (Lambda_j f), both from the blocks,
        # relative to the size of the summed terms, sum_{j in I} ||Lambda_j||^2
        # times ||f||^2 and ||f||: an energy far below it (2.2e-5 against
        # about 1 on the real wide-subsets frame) keeps only an absolute error
        frame = _random_gframe(dim, rows, field, 5)
        subsets = [tuple(_subset(bits, len(frame))) for bits in range(0, 2**len(frame), 5)]
        vectors = sample_vectors(dim, field, 5, 4)
        sums, images = _own_sums(frame, subsets, vectors)
        block_norms_sq = [np.linalg.norm(b, 2)**2 for b in frame.blocks]
        for i, js in enumerate(subsets):
            for side, ids in enumerate((js, frame.complement(js))):
                size = sum(block_norms_sq[j] for j in ids)
                for v, f in enumerate(vectors):
                    norm = np.linalg.norm(f)
                    parts = [b @ f for b in frame.blocks]
                    energy = sum(np.vdot(parts[j], parts[j]).real for j in ids)
                    image = sum((adjoint(frame.blocks[j]) @ parts[j] for j in ids),
                                np.zeros(dim))
                    assert abs(sums[i, v, side] - energy) <= 1e-12 * size * norm**2
                    assert abs(sums[i, v, side].imag) <= 1e-12 * size * norm**2
                    assert (np.linalg.norm(images[i, v, :, side] - image)
                            <= 1e-12 * size * norm)

    @pytest.mark.parametrize("weight,entry", [(1e150, 1e300), (1e100, 1e60)],
                             ids=["stacked-image", "inner-products"])
    def test_an_overflow_raises_and_warns_nothing(self, weight, entry):
        # no np.errstate here: operator_sums sets its own
        huge = GFusionFrame([(np.eye(2), np.eye(2), weight)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="subset sums are not finite at this frame's scale"):
                _own_sums(huge, [(), (0,)], [np.ones(2), np.full(2, entry)])

    def test_the_near_overflow_frame_raises_once_and_warns_nothing(self):
        # S = (2.5e307 + 1) I is finite, but <M_I f, f> of f = (1, ..., 1)
        # is 8 * 2.5e307: the sums of a chunk and of each module function raise
        # the one ValueError, with every warning an error
        eye = np.eye(8)
        frame = GFusionFrame([(eye, eye, 5e153), (eye, eye, 1.0)])
        f = np.ones(8)
        routes = [lambda: _own_sums(frame, [(), (0,), (1,), (0, 1)], [f]),
                  lambda: run_check("THM_T33", frame, [0], [f])] + [
            functools.partial(identity, frame, [0], f)
            for identity in (gfusion.parseval_partition_identity,
                             gfusion.whitened_partition_identity,
                             gfusion.frame_partition_identity)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in routes:
                with pytest.raises(ValueError,
                                   match="^subset sums are not finite at this frame's scale$"):
                    route()


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
