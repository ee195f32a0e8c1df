"""The core both frame kinds share, and how ``verify`` reaches the identities.

A weighted subspace frame is the g-frame with blocks w_j B_j P_j: a
``GFrame`` of its ``blocks`` must give the same frame operator, bounds,
partial sums, complements and partition identity.  Both kinds give their
blocks, analysis and synthesis, count, validate and complement their
indices, and word their errors, through the one ``GFrame`` core.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from framekit import (
    CheckId,
    Field,
    GFrame,
    GFusionFrame,
    IndexOutOfRange,
    NotAFrame,
    ShapeMismatch,
    Tolerances,
    operator_norm,
    orthonormal_basis,
    random_gframe,
    random_gfusion,
    random_parseval_gframe,
    random_parseval_gfusion,
    run_check,
    sample_vectors,
    substream,
)
from framekit import gframe, gfusion
from framekit.gen import ComponentSpec, GenSpec, random_operator, random_subspace_basis

# |dual block - dual triple block| <= TOL * max(1, ||S^-1||), fixed before running
TOL = 1e-12
# the two dual routes agree to rounding amplified by the condition number of S
MAX_CONDITION = 100.0


def _random_gfusion(dim, shapes, field, seed):
    rng = substream(seed, 55)
    return GFusionFrame(
        [
            (random_subspace_basis(dim, min(k, dim), field, rng),
             random_operator(rows, dim, field, rng),
             float(rng.uniform(0.5, 2.0)))
            for k, rows in shapes
        ]
    )


def _as_gframe(frame):
    """The g-frame whose blocks are the blocks w_j B_j P_j of ``frame``."""
    return GFrame(frame.blocks)


def _dual_triples(frame):
    """The canonical dual in triple form, (span of S^-1 U_j, B_j P_j S^-1, w_j)."""
    si = frame.inverse
    return GFusionFrame([(orthonormal_basis(si @ c.basis), c.block @ p @ si, c.weight)
                         for c, p in zip(frame.components, frame.projections)])


def _all_subsets(count):
    return [c for k in range(count + 1) for c in itertools.combinations(range(count), k)]


def _assert_same_frame(weighted, vectors):
    # both kinds take S, its bounds, the partial sums and the identity from
    # the blocks by the same expressions, so they agree bit for bit
    plain = _as_gframe(weighted)
    assert isinstance(weighted, GFrame)
    assert len(plain) == len(weighted)
    assert np.array_equal(plain.frame_operator, weighted.frame_operator)
    assert plain.bounds == weighted.bounds
    for subset in _all_subsets(len(weighted)):
        assert plain.complement(subset) == weighted.complement(subset)
        assert np.array_equal(plain.partial_sum(subset), weighted.partial_sum(subset))
        for f in vectors:
            assert (gframe.partition_identity(plain, subset, f)
                    == gfusion.partition_identity(weighted, subset, f)), subset
    # the dual is the g-frame of the blocks w_j B_j P_j S^-1, which equal the
    # blocks of the dual triples by the absorption identity LEMMA_L0 checks
    dual = weighted.canonical_dual
    assert type(dual) is GFrame
    dual_bound = TOL * max(1.0, operator_norm(weighted.inverse))
    for mine, theirs in zip(dual.blocks, _dual_triples(weighted).blocks, strict=True):
        assert operator_norm(mine - theirs) <= dual_bound


# 1-row and rectangular blocks; every subset, so the empty and the full one too
_SHAPES = [(1, 1), (2, 4), (3, 2), (3, 1)]


class TestWeightedFrameIsAGFrame:
    @example(dim=3, shapes=_SHAPES, field=Field.REAL, seed=0)
    @example(dim=3, shapes=_SHAPES, field=Field.COMPLEX, seed=0)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5),
           shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=4),
           field=st.sampled_from(list(Field)), seed=st.integers(0, 10_000))
    def test_blocks_w_b_p_give_the_same_frame(self, dim, shapes, field, seed):
        frame = _random_gfusion(dim, shapes, field, seed)
        assume(frame.is_frame and frame.upper_bound <= MAX_CONDITION * frame.lower_bound)
        # unit vectors, so the identity's sides are on the scale of ||S||
        vectors = [f / np.linalg.norm(f) for f in sample_vectors(dim, field, seed, 3)]
        _assert_same_frame(frame, vectors)
        parseval = frame.parsevalize()
        assert parseval.is_parseval
        _assert_same_frame(parseval, vectors)


def _make(kind, blocks):
    """A frame of ``kind`` whose j-th frame-operator term is blocks[j]* blocks[j]:
    a g-frame, or full-space subspaces with weight 1."""
    if kind == "gframe":
        return GFrame(blocks)
    return GFusionFrame([(np.eye(np.shape(b)[1]), b, 1.0) for b in blocks])


# how each kind names index 1 in a non-finite-term error, and its terms
_INDEX_ONE = {"gframe": "block 1", "gfusion": "component 1 with weight 1.0"}
_NOUN = {"gframe": "block", "gfusion": "component"}


@pytest.mark.parametrize("kind", ["gframe", "gfusion"])
class TestSharedCore:
    def test_index_count_and_complement(self, kind):
        frame = _make(kind, [np.eye(2), [[1.0, 2.0]], np.ones((3, 2))])
        assert len(frame) == 3
        assert frame.complement([0, 2]) == (1,)
        assert frame.complement([]) == (0, 1, 2)
        assert frame.complement(range(3)) == ()
        assert f"{_NOUN[kind]}s=3" in repr(frame)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_out_of_range(self, kind, index):
        frame = _make(kind, [np.eye(2), [[1.0, 2.0]], np.ones((3, 2))])
        with pytest.raises(IndexOutOfRange, match="outside index range 0..2"):
            frame.complement([index])
        with pytest.raises(IndexOutOfRange):
            frame.partial_sum([0, index])

    @pytest.mark.parametrize("subset, bad", [([0.7], "0.7"), ("12", "'1'"), ([1, 2.0], "2.0"),
                                             ([None], "None")])
    def test_subset_entries_must_be_integers(self, kind, subset, bad):
        frame = _make(kind, [np.eye(2), [[1.0, 2.0]], np.ones((3, 2))])
        message = f"^subset entry {re.escape(bad)} is not an integer index$"
        for take in (frame.partial_sum, frame.complement):
            with pytest.raises(IndexOutOfRange, match=message):
                take(subset)
        check = CheckId.THM_T1 if kind == "gframe" else CheckId.THM_TG1
        with pytest.raises(IndexOutOfRange, match=message):
            run_check(check, frame, subset, [np.ones(2)])

    def test_numpy_integer_indices_work(self, kind):
        frame = _make(kind, [np.eye(2), [[1.0, 2.0]], np.ones((3, 2))])
        assert frame.complement([np.int64(2), np.intp(0)]) == (1,)
        assert np.array_equal(frame.partial_sum(np.array([0, 2])), frame.partial_sum([0, 2]))

    def test_blocks_stack_into_the_analysis_matrix(self, kind):
        if kind == "gframe":
            frame = _make(kind, [np.eye(3), [[1.0, 2.0, 0.5]], np.ones((2, 3))])
        else:  # proper subspaces and weights, so P_j and w_j matter
            frame = _random_gfusion(3, _SHAPES, Field.COMPLEX, 1)
        assert np.array_equal(np.vstack(frame.blocks), frame.analysis_matrix())
        x = np.arange(1.0, 4.0)
        images = frame.analysis(x)
        assert isinstance(images, tuple) and len(images) == len(frame)
        assert all(np.array_equal(y, b @ x) for y, b in zip(images, frame.blocks, strict=True))
        assert np.allclose(frame.synthesis(images), frame.frame_operator @ x, atol=1e-12)
        with pytest.raises(ShapeMismatch, match="block count"):
            frame.synthesis(images[:-1])

    def test_not_a_frame_message(self, kind):
        frame = _make(kind, [[[1.0, 0.0]]])  # one functional cannot span R^2
        assert not frame.is_frame
        with pytest.raises(NotAFrame, match=r"lower bound .* is not above 1\.0e-"):
            frame.inverse
        with pytest.raises(NotAFrame):
            frame.canonical_dual

    def test_non_finite_term_names_its_index(self, kind):
        with pytest.raises(ValueError, match=f"^{_INDEX_ONE[kind]} has a frame-operator term"):
            _make(kind, [np.eye(2), 1e200 * np.eye(2)])

    def test_non_finite_sum(self, kind):
        noun = _NOUN[kind]
        with pytest.raises(ValueError, match=rf"sum of the {noun} terms\) is not finite"):
            _make(kind, [1e154 * np.eye(2)] * 2)

    def test_finite_sum_whose_spectrum_overflows(self, kind):
        # S = (1e308 + 1) I is finite, but symmetrizing it for its spectrum
        # overflows: refused, with no warning and no NaN bounds
        with pytest.raises(ValueError, match="bounds that are not finite"):
            _make(kind, [1e154 * np.eye(2), np.eye(2)])


def test_analysis_and_synthesis_read_the_cached_stack():
    # every frame keeps one copy of its blocks: the stack behind
    # analysis_matrix, analysis, synthesis and the identities
    weighted = _random_gfusion(3, _SHAPES, Field.COMPLEX, 1)
    plain = random_gframe(3, [2, 2, 1], Field.REAL, 0)
    for frame in (weighted, weighted.canonical_dual, weighted.parsevalize(),
                  plain, plain.canonical_dual):
        stacked = frame.analysis_matrix()
        assert not stacked.flags.writeable
        for block in frame.blocks:
            assert np.shares_memory(block, stacked)
            assert not block.flags.writeable
        x = np.arange(1.0, 4.0)
        images = frame.analysis(x)
        assert np.allclose(np.concatenate(images), stacked @ x, atol=1e-12)
        assert np.allclose(frame.synthesis(images), frame.frame_operator @ x, atol=1e-12)


def _gfusion_spec(seed):
    comps = tuple(ComponentSpec(1 + (i % 3), 1 + ((i + 1) % 3), 0.5, 2.0) for i in range(3))
    return GenSpec(3, comps, Field.COMPLEX, seed)


_IDENTITY_CHECKS = [
    (CheckId.THM_T1, gframe, "partition_identity",
     lambda: random_gframe(3, [2, 2, 1], Field.COMPLEX, 0)),
    (CheckId.FAMOUS_PARSEVAL, gframe, "parseval_partition_identity",
     lambda: random_parseval_gframe(3, [2, 2, 1], Field.COMPLEX, 0)),
    (CheckId.THM_TG1, gfusion, "partition_identity",
     lambda: random_gfusion(_gfusion_spec(0))),
    (CheckId.COR1_IDENTITY, gfusion, "parseval_partition_identity",
     lambda: random_parseval_gfusion(_gfusion_spec(0))),
    (CheckId.THM_T33, gfusion, "whitened_partition_identity",
     lambda: random_gfusion(_gfusion_spec(0))),
    (CheckId.THM_FINAL_MI, gfusion, "frame_partition_identity",
     lambda: random_gfusion(_gfusion_spec(0))),
]


@pytest.mark.parametrize("check, module, name, make", _IDENTITY_CHECKS,
                         ids=[c.value for c, *_ in _IDENTITY_CHECKS])
def test_identity_check_matches_the_module_function(check, module, name, make):
    # the check reads its chunk's shared sums; the module function is the
    # reference route, and both must give the same residuals bit for bit
    frame = make()
    vectors = sample_vectors(3, Field.COMPLEX, 0, 4)
    result = run_check(check, frame, [2, 0, 2], vectors, Tolerances(0.0, 0.0))
    want = []
    for f in vectors:
        terms = getattr(module, name)(frame, [0, 2], f)
        scale = max(1.0, float(np.vdot(f, f).real))
        want += [terms.residual / scale, abs((terms.lhs - terms.rhs).imag) / scale]
    assert result.residuals == want
