"""The chunked checks against their per-subset reference routes.

``verify`` evaluates COR2_SANDWICH, THM38_I, THM38_II, COR3_SANDWICH,
COR39_PLUS, COR39_MINUS_PROBE, SPECTRUM_REMARK and LEMMA_L2 over chunks of
subsets: partial sums from 0/1 masks over the frame's cached term stacks,
margins from one stacked ``loewner_check`` or one stacked spectrum per
chunk.  The routes below are the per-subset bodies they replaced: one
``partial_sum`` (P = M_I S^-1) or ``partial_frame_operator`` per subset and
one ``loewner_check``, ``eigvals`` or ``complement_identity_residual`` per
matrix.  The chunks read X_I = S^(-1/2) M_I S^(-1/2) where these read P,
which is similar to it.  Each returns (residuals, margins, stats, X), X
being the operator whose margins, spectrum or residual are taken.

Every check, the twelve per-vector ones too, goes through the same chunked
route, so a sequence of subsets gives what one call per subset gives,
witnesses and their worst vectors included.
"""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from framekit import (
    CATALOG,
    CheckId,
    ComponentSpec,
    Field,
    GFrame,
    GFusionFrame,
    GenSpec,
    HTOL,
    NotHermitian,
    SuitePlan,
    Tolerances,
    complement_identity_residual,
    loewner_check,
    operator_norm,
    random_gframe,
    random_gfusion,
    random_parseval_gframe,
    random_parseval_gfusion,
    run_check,
    run_suite,
    sample_vectors,
    substream,
)
from framekit import cli, gen, gframe, gfusion, linops, verify
from framekit.gen import random_operator, random_subspace_basis
from framekit.verify import inapplicable, subsets_for

# |batched - reference| <= TOL * max(1, ||X||) for every residual, margin and stat
TOL = 1e-12
# the S-weighted checks go through the inverse frame operator
MAX_CONDITION = 100.0


def ref_cor2_sandwich(frame, subset):
    p = frame.partial_sum(subset)
    x = p - p @ p
    lm = loewner_check(x, 0.0, 0.25, tol=0.0)
    return [], [lm.lower_margin, lm.upper_margin], None, x


def ref_thm38_ii(frame, subset):
    p = frame.partial_sum(subset)
    q = frame.partial_sum(frame.complement(subset))
    x = p @ p + q @ q
    lm = loewner_check(x, 0.5, 1.5, tol=0.0)
    return [], [lm.lower_margin, lm.upper_margin], None, x


def _s_scale(frame):
    return max(1.0, frame.upper_bound)


def ref_cor3_sandwich(frame, subset):
    m = frame.partial_frame_operator(subset)
    x = m - m @ frame.inverse @ m
    lm = loewner_check(x, 0.0, 0.25 * frame.frame_operator, tol=0.0)
    scale = _s_scale(frame)
    return [], [lm.lower_margin / scale, lm.upper_margin / scale], None, x


def cor39_operator(frame, subset, sign):
    m = frame.partial_frame_operator(subset)
    mc = frame.partial_frame_operator(frame.complement(subset))
    si = frame.inverse
    return m @ si @ m + sign * (mc @ si @ mc)


def _ref_cor39(sign):
    def route(frame, subset):
        x = cor39_operator(frame, subset, sign)
        s = frame.frame_operator
        lm = loewner_check(x, 0.5 * s, 1.5 * s, tol=0.0)
        scale = _s_scale(frame)
        return [], [lm.lower_margin / scale, lm.upper_margin / scale], None, x

    return route


def ref_spectrum_remark(frame, subset):
    p = frame.partial_sum(subset)
    vals = np.linalg.eigvals(p)
    margins = [float(vals.real.min()), float(1.0 - vals.real.max())]
    residuals = [float(np.abs(vals.imag).max())]
    return residuals, margins, {"spectral_radius": float(np.abs(vals).max())}, p


def ref_lemma_l2(frame, subset):
    u = frame.partial_sum(subset)
    return [complement_identity_residual(u)], [], None, u


REFERENCE = {
    CheckId.COR2_SANDWICH: ref_cor2_sandwich,
    CheckId.THM38_I: ref_cor2_sandwich,
    CheckId.THM38_II: ref_thm38_ii,
    CheckId.COR3_SANDWICH: ref_cor3_sandwich,
    CheckId.COR39_PLUS: _ref_cor39(+1.0),
    CheckId.COR39_MINUS_PROBE: _ref_cor39(-1.0),
    CheckId.SPECTRUM_REMARK: ref_spectrum_remark,
    CheckId.LEMMA_L2: ref_lemma_l2,
}
OPERATOR_CHECKS = tuple(REFERENCE)
LOEWNER_CHECKS = tuple(c for c in OPERATOR_CHECKS
                       if c not in (CheckId.SPECTRUM_REMARK, CheckId.LEMMA_L2))
PARSEVAL_CHECKS = OPERATOR_CHECKS
GENERAL_CHECKS = (CheckId.COR3_SANDWICH, CheckId.COR39_PLUS, CheckId.COR39_MINUS_PROBE,
                  CheckId.LEMMA_L2)


def _random_gframe(dim, rows, field, seed):
    rng = substream(seed, 53)
    return GFrame([random_operator(r, dim, field, rng) for r in rows])


def _random_gfusion(dim, shapes, field, seed):
    rng = substream(seed, 54)
    return GFusionFrame(
        [
            (random_subspace_basis(dim, min(k, dim), field, rng),
             random_operator(rows, dim, field, rng),
             float(rng.uniform(0.5, 2.0)))
            for k, rows in shapes
        ]
    )


def _well_conditioned(frame):
    return frame.is_frame and frame.upper_bound <= MAX_CONDITION * frame.lower_bound


def _all_subsets(count):
    return [[j for j in range(count) if bits >> j & 1] for bits in range(2**count)]


def _assert_matches(check, frame, subsets, results):
    assert len(results) == len(subsets)
    for subset, result in zip(subsets, results):
        residuals, margins, stats, x = REFERENCE[check](frame, subset)
        bound = TOL * max(1.0, operator_norm(x))
        assert result.check is check
        assert len(result.residuals) == len(residuals)
        assert len(result.margins) == len(margins)
        for got, want in zip(result.residuals + result.margins, residuals + margins):
            assert abs(got - want) <= bound, (check, subset)
        assert (result.stats is None) == (stats is None)
        for key, want in (stats or {}).items():
            assert abs(result.stats[key] - want) <= bound, (check, subset, key)


def _run_and_compare(checks, frame, subsets, vectors=(), tol=None):
    for check in checks:
        results = run_check(check, frame, vectors=vectors, tol=tol, subsets=subsets)
        if check in REFERENCE:
            _assert_matches(check, frame, subsets, results)
        # a single subset is a chunk of one and gives the same result
        assert [run_check(check, frame, s, vectors, tol) for s in subsets] == results, check


# 1-row and rectangular blocks on a real frame; every subset of the four
# indices, so the empty and the full one too
_SHAPES = [(1, 1), (2, 4), (3, 2), (3, 1)]


class TestBatchedMatchesReference:
    @example(dim=3, shapes=_SHAPES, field=Field.REAL, seed=0)
    @example(dim=3, shapes=_SHAPES, field=Field.COMPLEX, seed=0)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5),
           shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=5),
           field=st.sampled_from(list(Field)), seed=st.integers(0, 10_000))
    def test_gfusion_frames(self, dim, shapes, field, seed):
        frame = _random_gfusion(dim, shapes, field, seed)
        assume(_well_conditioned(frame))
        subsets = _all_subsets(len(shapes))
        _run_and_compare(GENERAL_CHECKS, frame, subsets)
        parseval = frame.parsevalize()
        assert parseval.is_parseval
        _run_and_compare(PARSEVAL_CHECKS, parseval, subsets)

    @example(dim=3, rows=[1, 4, 2, 1], field=Field.REAL, seed=0)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5), rows=st.lists(st.integers(1, 5), min_size=1, max_size=5),
           field=st.sampled_from(list(Field)), seed=st.integers(0, 10_000))
    def test_gframes_for_lemma_l2(self, dim, rows, field, seed):
        frame = _random_gframe(dim, rows, field, seed)
        assume(_well_conditioned(frame))
        _run_and_compare([CheckId.LEMMA_L2], frame, _all_subsets(len(rows)))

    @example(dim=3, shapes=_SHAPES, field=Field.COMPLEX, seed=0)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5),
           shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=5),
           field=st.sampled_from(list(Field)), seed=st.integers(0, 10_000))
    def test_masked_sums_equal_the_partial_sums_exactly(self, dim, shapes, field, seed):
        # both routes take the one-row masked sum M_I, and partial_sum takes
        # it times the inverse, so no tolerance is needed
        frame = _random_gfusion(dim, shapes, field, seed)
        assume(frame.is_frame)
        subsets = _all_subsets(len(shapes))
        inside, outside = gframe.subset_masks(len(shapes), subsets)
        stack = frame._term_stack
        assert not stack.flags.writeable
        for rows, routed in ((inside, subsets), (outside, map(frame.complement, subsets))):
            sums = gframe.masked_sums(stack, rows)
            for subset, m, p in zip(routed, sums, sums @ frame.inverse):
                assert np.array_equal(m, frame.partial_frame_operator(subset))
                assert np.array_equal(p, frame.partial_sum(subset))

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
    def test_masked_sums_rows_equal_their_one_row_calls(self, field):
        # an all-ones column (0), an all-zeros one (3), entries near 1e+-300
        # and signed zeros: each row is its one-row call, zero signs included
        values = [1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0, 1.5, -2.25, 3e299]
        terms = np.resize(values, (5, 2, 2))
        if field is Field.COMPLEX:
            terms = terms.astype(complex)
            terms.imag = np.resize(values[::-1], (5, 2, 2))
        stack = gframe.term_stack(terms)
        masks = np.array([[1, 0, 1, 0, 1], [1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [1, 1, 1, 0, 1]],
                         dtype=float)
        sums = gframe.masked_sums(stack, masks)
        assert sums.shape == (4, 2, 2) and sums.dtype == stack.dtype
        for row, total in zip(masks, sums):
            assert total.tobytes() == gframe.masked_sums(stack, row[None])[0].tobytes()
        # the first row of the all-ones column alone is its term
        assert sums[2].tobytes() == (terms[0] + 0.0).tobytes()

    def test_empty_subset_list_gives_no_results(self):
        frame = _random_gfusion(3, _SHAPES, Field.REAL, 0)
        assert run_check(CheckId.COR3_SANDWICH, frame, subsets=[]) == []

    def test_subset_and_subsets_are_exclusive(self):
        frame = _random_gfusion(3, _SHAPES, Field.REAL, 0)
        with pytest.raises(ValueError):
            run_check(CheckId.COR3_SANDWICH, frame, [0], subsets=[[0]])
        with pytest.raises(ValueError):
            run_check(CheckId.EQ4_RECON, frame, vectors=[np.ones(3)], subsets=[[0]])


def loop_masked_sums(stack, masks):
    """The per-term loop that ``masked_sums`` replaced, kept as the oracle of
    its order: each term times its 0/1 column, added in index order to a
    +0 start, complex terms as pairs of reals."""
    dim = math.isqrt(stack.shape[1])
    flat = stack.view(np.float64) if np.iscomplexobj(stack) else stack
    out = np.zeros((masks.shape[0], flat.shape[1]))
    for term, column in zip(flat, masks.T):
        out += column[:, None] * term
    return out.view(stack.dtype).reshape(-1, dim, dim)


def _random_subsets(count, k, rng):
    return [tuple(j for j in range(count) if rng.random() < 0.5) for _ in range(k)]


class TestMaskedSumsOracle:
    """``masked_sums`` is one contraction that adds the terms in index order
    to a zero start: every row equals the per-term loop's bit for bit, at
    the shapes the workloads give it (n terms at d, a full chunk of 2k rows
    [K, 1 - K]), and at one row (``_truncated``) and two (one subset's
    ``side_sums``).  A numpy release that reorders einsum's loop, or sends
    it to BLAS, fails here; the fix is in ``masked_sums``, not in these
    tests."""

    # (terms, d, chunk subsets): the wide-subsets frames, the dim-64
    # large-frames ones, and 16 terms, one chunk each
    SHAPES = [(10, 8, 64), (4, 64, 4), (16, 8, 64)]

    @pytest.mark.parametrize("rows", [1, 2, "chunk"], ids=["1-row", "2-rows", "chunk"])
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
    @pytest.mark.parametrize("terms,dim,subsets", SHAPES,
                             ids=[f"n{n}-d{d}" for n, d, _ in SHAPES])
    def test_random_terms_equal_the_loop(self, terms, dim, subsets, field, rows):
        # magnitudes from 1e-8 to 1e8 and both signs, so any other order of
        # the additions rounds differently
        rng = np.random.default_rng([terms, dim, len(field.value)])
        values = rng.standard_normal((terms, dim, dim))
        if field is Field.COMPLEX:
            values = values + 1j * rng.standard_normal((terms, dim, dim))
        stack = gframe.term_stack(values * 10.0 ** rng.integers(-8, 9, (terms, 1, 1)))
        chunk = _random_subsets(terms, subsets, rng)
        masks = gframe.subset_masks(terms, chunk).reshape(-1, terms)
        if rows != "chunk":
            masks = masks[[0, subsets]][:rows]
        sums = gframe.masked_sums(stack, masks)
        assert sums.dtype == stack.dtype and sums.shape == (len(masks), dim, dim)
        assert sums.tobytes() == loop_masked_sums(stack, masks).tobytes()

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
    def test_frame_term_stacks_equal_the_loop(self, field):
        # both term stacks of every instance of the wide-subsets plan, over
        # all 1024 subsets in the chunks verify takes
        plan = SuitePlan(dims=(8,), fields=(field,), seeds=(0,), components=10)
        subsets = subsets_for(10, plan, 0)
        for instance in verify.build_instances(plan):
            frame = instance.frame
            for stack in (frame._term_stack, frame._whitened_term_stack):
                for chunk in verify._chunks(subsets, 8):
                    masks = gframe.subset_masks(10, chunk).reshape(-1, 10)
                    assert (gframe.masked_sums(stack, masks).tobytes()
                            == loop_masked_sums(stack, masks).tobytes()), instance.label

    def test_frame_operator_is_the_one_row_sum(self):
        # S is the all-ones row's sum of the frame's own terms, which the
        # per-term loop gives too: on every instance of the default plan
        # and on the dim-64 g-frames of both fields
        frames = [instance.frame for instance in verify.build_instances(SuitePlan())]
        frames += [random_gframe(64, [64, 40, 64, 8], field, 3) for field in Field]
        for frame in frames:
            ones = np.ones((1, len(frame)))
            s = frame.frame_operator.tobytes()
            assert s == gframe.masked_sums(frame._term_stack, ones)[0].tobytes()
            assert s == loop_masked_sums(frame._term_stack, ones)[0].tobytes()

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
    def test_empty_subset_of_negative_terms_is_positive_zero(self, field):
        # every term entry negative, so each masked-out term adds -0.0: the
        # empty subset's row, and the full subset's complement, stay +0.0
        rng = np.random.default_rng(16)
        values = -1.0 - rng.random((16, 8, 8))
        if field is Field.COMPLEX:
            values = values - 1j * (1.0 + rng.random((16, 8, 8)))
        stack = gframe.term_stack(values)
        sums = gframe.side_sums(stack, gframe.subset_masks(16, [(), tuple(range(16)), (3,)]))
        for empty in (sums[0, 0], sums[1, 1]):
            assert not np.signbit(empty.view(np.float64)).any()
            assert not np.any(empty)
        one_row = gframe.masked_sums(stack, np.zeros((1, 16)))
        assert not np.signbit(one_row.view(np.float64)).any()


@pytest.fixture(scope="module")
def wide_parseval():
    # n = 12 at d = 8: every subset count up to 4096 is available
    frame = _random_gfusion(8, [(1 + j % 8, 1 + (j + 1) % 8) for j in range(12)], Field.COMPLEX, 1)
    return frame.parsevalize()


# the components of the dim-64 frames the large-frames benchmark generates
LARGE_COMPONENTS = (ComponentSpec(64, 64, 1.0, 1.0), ComponentSpec(48, 40, 1.5, 1.5),
                    ComponentSpec(32, 64, 0.75, 0.75), ComponentSpec(16, 8, 2.0, 2.0))


def _large_frame(field, parseval):
    spec = GenSpec(64, LARGE_COMPONENTS, field, 3)
    return random_parseval_gfusion(spec) if parseval else random_gfusion(spec)


class TestChunks:
    def test_chunk_budget(self):
        assert (verify._CHUNK_ENTRIES, verify._CHUNK_SUBSETS) == (4096, 4)
        # 4096 matrix entries a chunk up to d = 32, and never fewer than 4 subsets
        subsets = list(range(5000))
        sizes = {d: [len(c) for c in verify._chunks(subsets, d)] for d in (1, 2, 8, 32, 33, 64)}
        assert {d: s[0] for d, s in sizes.items()} == {1: 4096, 2: 1024, 8: 64, 32: 4, 33: 4,
                                                       64: 4}
        assert all(sum(s) == 5000 for s in sizes.values())
        assert sizes[64][-1] == 4 and sizes[1][-1] == 5000 - 4096

    @pytest.mark.parametrize("count", [1, 63, 64, 65])
    def test_chunk_boundaries(self, wide_parseval, count):
        subsets = subsets_for(12, SuitePlan(), 0)[-count:]
        _run_and_compare(OPERATOR_CHECKS, wide_parseval, subsets)

    def test_4096_subsets(self, wide_parseval, monkeypatch):
        subsets = subsets_for(12, SuitePlan(), 0)
        assert len(subsets) == 4096
        shapes = _record_stack_shapes(monkeypatch)
        for check in (CheckId.THM38_II, CheckId.SPECTRUM_REMARK):
            _assert_matches(check, wide_parseval, subsets,
                            run_check(check, wide_parseval, subsets=subsets))
        # THM38_II: 64 chunks of 64 subsets at d = 8
        assert shapes == [(64, 8, 8)] * 64

    def test_dim_64_runs_chunks_of_four(self, monkeypatch):
        frame = _random_gfusion(64, [(64, 64), (48, 40), (32, 64), (16, 8)], Field.REAL, 2)
        assert _well_conditioned(frame)
        subsets = _all_subsets(4)
        shapes = _record_stack_shapes(monkeypatch)
        _run_and_compare(GENERAL_CHECKS, frame, subsets[:4] + subsets[-3:])
        # COR3_SANDWICH and the two COR39 checks: chunks of 4 and 3 subsets,
        # then one chunk per subset
        assert shapes == ([(4, 64, 64), (3, 64, 64)] + [(1, 64, 64)] * 7) * 3

    @pytest.mark.parametrize("parseval", [False, True], ids=["general", "parseval"])
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
    def test_dim_64_summaries_equal_a_fold_of_single_subsets(self, monkeypatch, field, parseval):
        # 16 subsets in 4 chunks of 4; each check subset by subset through
        # run_check must fold into the same summary, field for field, and
        # zero tolerances make every margin and residual a witness
        frame = _large_frame(field, parseval)
        assert frame.is_parseval == parseval
        plan = SuitePlan(tol=Tolerances(0.0, 0.0), witness_limit=3)
        shapes = _record_stack_shapes(monkeypatch)
        report = run_suite(plan, frame=frame)
        # the two sandwiches read the chunk's spectrum of X_I instead
        loewner = [c for c in LOEWNER_CHECKS if c in plan.checks
                   and c not in (CheckId.COR2_SANDWICH, CheckId.THM38_I)
                   and inapplicable(CATALOG[c], frame) is None]
        assert len(loewner) == (4 if parseval else 3)
        assert shapes == [(4, 64, 64)] * (4 * len(loewner))
        instance = verify.FrameInstance(frame, None, "loaded-frame")
        vectors = sample_vectors(64, field, 0, plan.vectors_per_instance)
        subsets = subsets_for(4, plan, 0)
        assert len(subsets) == 16
        checked = 0
        for check in plan.checks:
            info = CATALOG[check]
            if inapplicable(info, frame) is not None:
                continue
            want = verify.CheckSummary(check)
            want.instances = 1
            if info.subsets:
                results = [run_check(check, frame, s, vectors, plan.tol) for s in subsets]
            else:
                results = [run_check(check, frame, None, vectors, plan.tol)]
            for result in results:
                want.add(result, instance, plan.witness_limit)
            assert report.summary(check).to_dict() == want.to_dict(), check
            checked += 1
        assert checked == len(report.checks)
        assert any(s.witness_count > plan.witness_limit for s in report.checks)

    def test_dim_64_peak_allocation(self):
        # one pass over the complex Parseval large frame allocates about
        # 3 MiB with chunks of one subset, 5 MiB with chunks of 4 and 14 MiB
        # with chunks of 16 (tracemalloc): a larger chunk floor at d = 64
        # shows here before it shows in the benchmark's peak memory
        frame = _large_frame(Field.COMPLEX, True)
        tracemalloc.start()
        try:
            assert run_suite(SuitePlan(), frame=frame).overall_pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


def _record_stack_shapes(monkeypatch):
    """Shapes of the stacks ``verify`` hands to ``loewner_check``."""
    shapes = []
    original = verify.loewner_check

    def recording(t, *args, **kwargs):
        if np.ndim(t) == 3:
            shapes.append(np.shape(t))
        return original(t, *args, **kwargs)

    monkeypatch.setattr(verify, "loewner_check", recording)
    return shapes


def _first(values, pick):
    return values.index(pick(values))


# how each per-vector check picks its witness vector from a result: the
# first vector with the largest residual or the smallest margin
WORST_VECTOR = {
    **dict.fromkeys(
        (CheckId.THM_T1, CheckId.FAMOUS_PARSEVAL, CheckId.THM_TG1, CheckId.COR1_IDENTITY,
         CheckId.THM_T33, CheckId.THM_FINAL_MI),
        lambda r: _first(r.residuals[::2], max)),  # |lhs - rhs|, then its imaginary part
    **dict.fromkeys(
        (CheckId.EQ4_RECON, CheckId.EQ5_DUAL_RECON),
        lambda r: _first([max(pair) for pair in zip(r.residuals[::2], r.residuals[1::2])], max)),
    CheckId.EQ6_QUADFORM: lambda r: _first(r.residuals, max),
    CheckId.COR1_34BOUND: lambda r: _first(r.margins, min),
    CheckId.COR_34_SINV: lambda r: _first(r.margins, min),
    CheckId.LEMMA_L0: None,
}
VECTOR_CHECKS = tuple(WORST_VECTOR)


@pytest.fixture(scope="module")
def wide_frames(wide_parseval):
    """A general and a Parseval weighted frame and a Parseval g-frame, each
    with 12 indices at d = 8, so every one of the 20 checks applies to one."""
    general = _random_gfusion(8, [(1 + j % 8, 1 + (j + 1) % 8) for j in range(12)],
                              Field.COMPLEX, 1)
    return [general, wide_parseval,
            random_parseval_gframe(8, [1 + (j + 1) % 8 for j in range(12)], Field.COMPLEX, 1)]


def _applicable(checks, frame):
    return [c for c in checks if inapplicable(CATALOG[c], frame) is None]


class TestSingleRoute:
    def test_every_check_is_covered(self, wide_frames):
        assert set(VECTOR_CHECKS) | set(OPERATOR_CHECKS) == set(CheckId)
        assert {c for frame in wide_frames for c in _applicable(CheckId, frame)} == set(CheckId)

    @pytest.mark.parametrize("count", [1, 63, 64, 65])
    def test_chunk_boundaries_of_the_per_vector_checks(self, wide_frames, count):
        # zero tolerances, so the witnesses and their vectors are compared too
        subsets = subsets_for(12, SuitePlan(), 0)[-count:]
        vectors = sample_vectors(8, Field.COMPLEX, 0, 3)
        for frame in wide_frames:
            checks = [c for c in _applicable(VECTOR_CHECKS, frame) if CATALOG[c].subsets]
            _run_and_compare(checks, frame, subsets, vectors, Tolerances(0.0, 0.0))

    def test_witness_is_the_first_worst_vector(self, wide_frames):
        vectors = sample_vectors(8, Field.COMPLEX, 2, 8)
        witnessed = set()
        for frame in wide_frames:
            for check in _applicable(VECTOR_CHECKS, frame):
                subset = [0, 3, 4] if CATALOG[check].subsets else None
                result = run_check(check, frame, subset, vectors, Tolerances(0.0, 0.0))
                if result.witness is None:
                    continue
                witnessed.add(check)
                worst = WORST_VECTOR[check]
                want = None if worst is None else verify._json_vector(vectors[worst(result)])
                assert result.witness["vector"] == want, check
        # the pointwise bounds hold with room to spare, so they carry none
        assert witnessed == set(VECTOR_CHECKS) - {CheckId.COR1_34BOUND, CheckId.COR_34_SINV}


class TestErrorParity:
    def _skewed_parseval(self, magnitude):
        frame = _random_gfusion(4, [(2, 3), (3, 2), (1, 4)], Field.COMPLEX, 3).parsevalize()
        rng = substream(4, 55)
        g = random_operator(4, 4, Field.COMPLEX, rng)
        skew = g - g.conj().T
        # the reference reads the term stack and the chunks the whitened one
        for name in ("_term_stack", "_whitened_term_stack"):
            stack = getattr(frame, name).copy()
            stack[1] = stack[1] + (magnitude / operator_norm(skew)) * skew.reshape(-1)
            frame.__dict__[name] = stack
        return frame

    @pytest.mark.parametrize("magnitude, raises", [(1e-6, True), (1e-13, False)])
    def test_hermitian_gate_matches_the_reference(self, magnitude, raises):
        frame = self._skewed_parseval(magnitude)
        subsets = _all_subsets(3)
        for check in (CheckId.COR2_SANDWICH, CheckId.THM38_II):
            reference_raises = False
            for subset in subsets:
                try:
                    REFERENCE[check](frame, subset)
                except NotHermitian:
                    reference_raises = True
            assert reference_raises == raises
            if raises:
                with pytest.raises(NotHermitian):
                    run_check(check, frame, subsets=subsets)
            else:
                _assert_matches(check, frame, subsets, run_check(check, frame, subsets=subsets))

    def test_inconclusive_certificate_decided_per_matrix(self, monkeypatch):
        # a rank-1 Hermitian part of norm 100 at d = 64 leaves the certificate
        # inconclusive (||X||_F / 8 = 12.5); the spectral test then compares
        # ||X - X*|| with 100 * HTOL, and runs on that matrix alone
        def operand(ratio):
            x = np.zeros((64, 64))
            x[0, 0] = 100.0
            x[0, 1], x[1, 0] = ratio * 50.0 * HTOL, -ratio * 50.0 * HTOL
            return x

        svd_shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            svd_shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", recording_svd)
        clean = np.diag(np.linspace(1.0, 100.0, 64))
        accepted = np.stack([clean, operand(0.5), clean])
        lm = loewner_check(accepted, 0.0, 0.0, tol=0.0)
        # the operand and its skew part, each a stack of the one open matrix
        assert [shape for shape in svd_shapes if len(shape) == 3] == [(1, 64, 64)] * 2
        for i, x in enumerate(accepted):
            single = loewner_check(x, 0.0, 0.0, tol=0.0)
            assert (lm.lower_margin[i], lm.upper_margin[i], lm.passed[i]) == single
        for rejected in (np.stack([clean, operand(2.0), clean]), operand(2.0)):
            with pytest.raises(NotHermitian):
                loewner_check(rejected, 0.0, 0.0, tol=0.0)

    def test_non_finite_stack_raises_value_error(self):
        stack = np.stack([np.eye(3), np.eye(3)])
        stack[1, 0, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            loewner_check(stack, 0.0, 2.0, tol=0.0)
        with pytest.raises(ValueError, match="finite"):
            loewner_check(np.stack([np.eye(3)] * 2), 0.0, stack, tol=0.0)
        stack[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            complement_identity_residual(stack)

    def test_stacked_bound_shape_must_match(self):
        with pytest.raises(ValueError):
            loewner_check(np.stack([np.eye(3)] * 2), 0.0, np.stack([np.eye(3)] * 3), tol=0.0)


class TestWitnesses:
    def test_plan_order_and_limit(self):
        frame = _random_gfusion(4, [(1 + j % 4, 1 + (j + 1) % 4) for j in range(7)], Field.REAL, 5)
        assert _well_conditioned(frame)
        subsets = subsets_for(7, SuitePlan(), 0)
        violated = [
            list(s) for s in subsets
            if min(REFERENCE[CheckId.COR39_MINUS_PROBE](frame, s)[1]) < -SuitePlan().tol.margin
        ]
        # d = 4 fits every subset in one chunk; d = 8 below crosses chunks
        assert len(violated) > 5
        plan = SuitePlan(checks=(CheckId.COR39_MINUS_PROBE,), witness_limit=5)
        summary = run_suite(plan, frame=frame).summary(CheckId.COR39_MINUS_PROBE)
        assert summary.witness_count == len(violated)
        assert [w["subset"] for w in summary.witnesses] == violated[:5]

    def test_plan_order_across_chunks(self):
        frame = _random_gfusion(8, [(1 + j % 8, 1 + (j + 1) % 8) for j in range(7)], Field.REAL, 6)
        assert _well_conditioned(frame)
        subsets = subsets_for(7, SuitePlan(), 0)
        assert len(subsets) == 128  # two chunks at d = 8
        violated = [
            list(s) for s in subsets
            if min(REFERENCE[CheckId.COR39_MINUS_PROBE](frame, s)[1]) < -SuitePlan().tol.margin
        ]
        plan = SuitePlan(checks=(CheckId.COR39_MINUS_PROBE,), witness_limit=len(subsets))
        summary = run_suite(plan, frame=frame).summary(CheckId.COR39_MINUS_PROBE)
        assert summary.witness_count == len(violated)
        assert [w["subset"] for w in summary.witnesses] == violated


def _count_calls(monkeypatch, name):
    """Count calls of ``linops.<name>`` through every framekit module binding it."""
    calls = [0]
    original = getattr(linops, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in (linops, gframe, gfusion, gen, verify, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class TestCallCounts:
    @pytest.mark.parametrize("dim, chunks", [(2, 1), (8, 2)])
    def test_one_eigvalsh_per_instance_loewner_operand_chunk_and_side(self, monkeypatch, dim,
                                                                       chunks):
        eigvalsh_calls, svd_calls = [0], [0]
        eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd

        def counting_eigvalsh(*args, **kwargs):
            eigvalsh_calls[0] += 1
            return eigvalsh(*args, **kwargs)

        def counting_svd(*args, **kwargs):
            svd_calls[0] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counting_svd)
        norms = _count_calls(monkeypatch, "operator_norm")
        bases = _count_calls(monkeypatch, "orthonormal_basis")

        # n = 7 gives 128 subsets: one chunk at d = 2, two at d = 8
        plan = SuitePlan(dims=(dim,), seeds=(0,), components=7, checks=OPERATOR_CHECKS)
        report = run_suite(plan)
        # THM38_I reads the spectrum of X_I that COR2_SANDWICH takes (and
        # SPECTRUM_REMARK too); THM38_II's scalar bounds take one spectrum
        # for both sides
        sides = {CheckId.COR2_SANDWICH: 1, CheckId.THM38_I: 0, CheckId.THM38_II: 1}
        want = sum(sides.get(c, 2) * chunks * report.summary(c).instances
                   for c in LOEWNER_CHECKS)
        assert report.summary(CheckId.COR2_SANDWICH).evaluations == 2 * 128 * report.summary(
            CheckId.COR2_SANDWICH).instances
        assert eigvalsh_calls[0] == want
        assert svd_calls[0] == norms[0] + bases[0] > 0

    def test_one_eigvalsh_of_x_per_parseval_chunk_and_no_eigvals(self, monkeypatch):
        # COR2_SANDWICH, THM38_I and SPECTRUM_REMARK read one spectrum of the
        # chunk's X_I, alone or together, and no check takes a general eigvals
        eigvals_calls, shapes = [0], []
        eigvals, eigvalsh = np.linalg.eigvals, np.linalg.eigvalsh

        def counting_eigvals(*args, **kwargs):
            eigvals_calls[0] += 1
            return eigvals(*args, **kwargs)

        def recording_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        # n = 7 at d = 8: two chunks of 64 subsets per instance
        plan = SuitePlan(dims=(8,), seeds=(0,), components=7)
        spectral = (CheckId.COR2_SANDWICH, CheckId.THM38_I, CheckId.SPECTRUM_REMARK)
        for checks in [(c,) for c in spectral] + [spectral]:
            shapes.clear()
            report = run_suite(dataclasses.replace(plan, checks=checks))
            # the Parseval weighted frame of each field
            assert report.summary(checks[0]).instances == 2
            assert shapes == [(64, 8, 8)] * 2 * 2
        assert run_suite(plan).overall_pass
        assert eigvals_calls[0] == 0
