import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from framekit import (
    CATALOG,
    CheckId,
    ComponentSpec,
    Field,
    GFrame,
    GFusionFrame,
    GenSpec,
    ShapeMismatch,
    SuitePlan,
    Tolerances,
    WrongFrameKind,
    hermitian_eigvalsh,
    random_gframe,
    random_gfusion,
    random_parseval_gfusion,
    run_check,
    run_suite,
    sample_vectors,
)
from framekit.verify import CheckSummary, build_instances, inapplicable, subsets_for


def gfusion_spec(seed=0, dim=4, field=Field.COMPLEX):
    comps = tuple(
        ComponentSpec(1 + (i % dim), 1 + ((i + 1) % dim), 0.5, 2.0) for i in range(3)
    )
    return GenSpec(dim, comps, field, seed)


@pytest.fixture(scope="module")
def general_gfusion():
    return random_gfusion(gfusion_spec(seed=1))


@pytest.fixture(scope="module")
def parseval_gfusion():
    return random_parseval_gfusion(gfusion_spec(seed=2))


@pytest.fixture(scope="module")
def small_plan():
    return SuitePlan(dims=(2, 3), fields=(Field.COMPLEX,), seeds=(0, 1), components=3)


class TestCatalog:
    def test_catalog_covers_every_check_id(self):
        assert set(CATALOG) == set(CheckId)

    def test_exactly_one_probe(self):
        probes = [c for c, info in CATALOG.items() if info.probe]
        assert probes == [CheckId.COR39_MINUS_PROBE]

    def test_parseval_only_set(self):
        parseval_only = {c for c, info in CATALOG.items() if info.parseval_only}
        assert parseval_only == {
            CheckId.FAMOUS_PARSEVAL,
            CheckId.COR1_IDENTITY,
            CheckId.COR1_34BOUND,
            CheckId.COR2_SANDWICH,
            CheckId.THM38_I,
            CheckId.THM38_II,
            CheckId.SPECTRUM_REMARK,
        }


class TestRunCheck:
    def test_cor2_on_coordinate_parseval(self, coordinate_gfusion):
        result = run_check(CheckId.COR2_SANDWICH, coordinate_gfusion, subset=[0])
        assert result.passed
        assert result.margins[0] == pytest.approx(0.0, abs=1e-14)
        assert result.margins[1] == pytest.approx(0.25, abs=1e-14)

    def test_cor1_bound_degenerate_empty_subset(self, coordinate_gfusion):
        # empty subset: the complement operator is the whole frame operator,
        # so the bound reduces to ||f||^2 >= (3/4) ||f||^2
        vectors = sample_vectors(2, Field.REAL, 0, 4)
        result = run_check(CheckId.COR1_34BOUND, coordinate_gfusion, subset=[], vectors=vectors)
        assert result.passed
        assert min(result.margins) >= 0.25 - 1e-12

    def test_cor39_probe_records_witness_on_empty_subset(self, general_gfusion):
        result = run_check(CheckId.COR39_MINUS_PROBE, general_gfusion, subset=[])
        assert result.passed  # probes never fail the run
        assert result.witness is not None
        assert min(result.margins) < 0

    def test_wrong_kind_rejected(self, general_gfusion):
        gframe = random_gframe(3, [2, 2], Field.COMPLEX, 0)
        with pytest.raises(WrongFrameKind):
            run_check(CheckId.THM_T1, general_gfusion, subset=[0], vectors=[np.ones(4)])
        with pytest.raises(WrongFrameKind):
            run_check(CheckId.THM_TG1, gframe, subset=[0], vectors=[np.ones(3)])

    def test_parseval_only_rejected_on_general_frame(self, general_gfusion):
        with pytest.raises(WrongFrameKind):
            run_check(CheckId.COR2_SANDWICH, general_gfusion, subset=[0])

    @pytest.mark.parametrize("subset", [[99], [0], []])
    @pytest.mark.parametrize("check", [CheckId.EQ4_RECON, CheckId.EQ5_DUAL_RECON,
                                       CheckId.EQ6_QUADFORM, CheckId.LEMMA_L0])
    def test_subset_refused_where_none_is_taken(self, general_gfusion, check, subset):
        # as ``subsets=`` is refused, so is a single subset, even an empty one
        vectors = sample_vectors(general_gfusion.dim_h, Field.COMPLEX, 0, 2)
        with pytest.raises(ValueError, match=f"^{check.value} takes no index subsets$"):
            run_check(check, general_gfusion, subset, vectors)
        assert run_check(check, general_gfusion, None, vectors).passed

    def test_subset_required(self, parseval_gfusion):
        with pytest.raises(ValueError):
            run_check(CheckId.COR2_SANDWICH, parseval_gfusion)

    def test_vectors_required(self, general_gfusion):
        with pytest.raises(ValueError):
            run_check(CheckId.THM_TG1, general_gfusion, subset=[0], vectors=[])

    def test_spectrum_stats(self, parseval_gfusion):
        result = run_check(CheckId.SPECTRUM_REMARK, parseval_gfusion, subset=[0, 1])
        assert result.passed
        assert 0.0 <= result.stats["spectral_radius"] <= 1.0 + 1e-9

    def test_lemma_l2_works_for_both_kinds(self, general_gfusion):
        gframe = random_gframe(3, [2, 2], Field.COMPLEX, 0)
        assert run_check(CheckId.LEMMA_L2, general_gfusion, subset=[0]).passed
        assert run_check(CheckId.LEMMA_L2, gframe, subset=[0]).passed

    def test_zero_tolerance_fails_on_rounding(self, general_gfusion):
        # exact equality is unattainable in floating point
        vectors = sample_vectors(4, Field.COMPLEX, 0, 8)
        tol = Tolerances(residual=0.0, margin=0.0)
        results = [
            run_check(CheckId.THM_TG1, general_gfusion, subset=s, vectors=vectors, tol=tol)
            for s in subsets_for(3, SuitePlan(), 0)
        ]
        assert any(not r.passed for r in results)

    def test_identity_checks_all_pass_defaults(self, general_gfusion):
        vectors = sample_vectors(4, Field.COMPLEX, 3, 8)
        for check in (CheckId.THM_TG1, CheckId.THM_T33, CheckId.THM_FINAL_MI):
            for subset in subsets_for(3, SuitePlan(), 0):
                assert run_check(check, general_gfusion, subset, vectors).passed


class TestSubsets:
    def test_exhaustive_when_small(self):
        subsets = subsets_for(3, SuitePlan(), 0)
        assert len(subsets) == 8
        assert () in subsets and (0, 1, 2) in subsets

    def test_sampled_when_large(self):
        plan = SuitePlan(exhaustive_subset_limit=4, subset_samples=32)
        subsets = subsets_for(20, plan, 7)
        assert len(subsets) == 32
        assert () in subsets and tuple(range(20)) in subsets
        assert subsets == subsets_for(20, plan, 7)  # deterministic

    def test_every_subset_when_the_sample_would_hold_them_all(self):
        plan = SuitePlan(exhaustive_subset_limit=2, subset_samples=256)
        assert subsets_for(3, plan, 0) == [
            (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
        ]


class TestSuitePlan:
    def test_defaults(self):
        plan = SuitePlan()
        assert plan.dims == (2, 3, 5, 8)
        assert plan.fields == (Field.REAL, Field.COMPLEX)
        assert len(plan.seeds) == 10
        assert set(plan.checks) == set(CheckId)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            Tolerances(residual=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_tolerance_that_is_not_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            Tolerances(residual=value)
        with pytest.raises(ValueError, match="finite"):
            Tolerances(margin=value)

    def test_zero_tolerance_is_legal(self):
        assert Tolerances(residual=0.0, margin=0.0).residual == 0.0

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            SuitePlan(dims=())

    def test_rejects_negative_witness_limit(self):
        # a slice of the failing rows would read -1 as "all but the last"
        with pytest.raises(ValueError, match="witness_limit"):
            SuitePlan(witness_limit=-1)
        assert SuitePlan(witness_limit=0).witness_limit == 0

    @pytest.mark.parametrize("samples", [0, 1])
    def test_rejects_fewer_than_two_subset_samples(self, samples):
        # a sample always holds the empty and the full subset
        with pytest.raises(ValueError, match="subset_samples"):
            SuitePlan(subset_samples=samples)
        assert len(subsets_for(20, SuitePlan(exhaustive_subset_limit=4, subset_samples=2), 0)) == 2

    @pytest.mark.parametrize("weights", [
        (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (-1.0, 1.0), (2.0, 1.0),
    ], ids=["inf", "nan-lo", "nan-hi", "zero", "negative", "reversed"])
    def test_rejects_a_weight_range_that_is_not_two_finite_numbers(self, weights):
        # refused with the plan, not deep inside build_instances
        with pytest.raises(ValueError, match="^weight_range must be two finite numbers"):
            SuitePlan(weight_range=weights)

    @pytest.mark.parametrize("weights", [(1.0,), (1.0, 2.0, 3.0)], ids=["one", "three"])
    def test_rejects_a_weight_range_that_is_not_a_pair(self, weights):
        with pytest.raises(ValueError):
            SuitePlan(weight_range=weights)

    def test_accepts_an_equal_finite_pair(self):
        plan = SuitePlan(dims=(2,), seeds=(0,), weight_range=(3.0, 3.0), checks=("LEMMA_L0",))
        assert run_suite(plan).overall_pass

    def test_plan_round_trips_through_dict(self):
        d = SuitePlan().to_dict()
        assert d == json.loads(json.dumps(d))

    def test_repeated_checks_run_once_in_first_seen_order(self):
        plan = SuitePlan(checks=(CheckId.LEMMA_L2, "THM_T1", "LEMMA_L2", CheckId.THM_T1))
        assert plan.checks == (CheckId.LEMMA_L2, CheckId.THM_T1)
        once = dict(dims=(2,), seeds=(0,), checks=("LEMMA_L2",))
        twice = dict(once, checks=("LEMMA_L2", "LEMMA_L2"))
        (s1,), (s2,) = run_suite(SuitePlan(**once)).checks, run_suite(SuitePlan(**twice)).checks
        assert (s2.instances, s2.evaluations) == (s1.instances, s1.evaluations) == (8, 128)
        assert s2.to_dict() == s1.to_dict()


class TestBuildInstances:
    def test_grid_shape(self, small_plan):
        instances = build_instances(small_plan)
        # 2 dims x 1 field x 2 seeds x 4 instance kinds
        assert len(instances) == 16
        kinds = {(i.frame.kind, i.frame.is_parseval) for i in instances}
        assert kinds == {
            ("gframe", False),
            ("gframe", True),
            ("gfusion", False),
            ("gfusion", True),
        }

    def test_instances_deterministic(self, small_plan):
        a = build_instances(small_plan)
        b = build_instances(small_plan)
        for x, y in zip(a, b):
            assert x.label == y.label
            assert np.array_equal(x.frame.frame_operator, y.frame.frame_operator)


@pytest.fixture(scope="module")
def report(small_plan):
    return run_suite(small_plan)


class TestRunSuite:
    def test_overall_pass(self, report):
        assert report.overall_pass

    def test_every_check_present(self, report):
        assert {s.check for s in report.checks} == set(CheckId)

    def test_summaries_sorted_by_id(self, report):
        values = [s.check.value for s in report.checks]
        assert values == sorted(values)

    def test_probe_reports_witnesses_without_failing(self, report):
        probe = report.summary(CheckId.COR39_MINUS_PROBE)
        assert probe.passed
        assert probe.witness_count >= 1
        assert len(probe.witnesses) >= 1
        witness = probe.witnesses[0]
        assert witness["seed"] is not None
        assert witness["subset"] is not None

    def test_spectrum_stats_aggregated(self, report):
        s = report.summary(CheckId.SPECTRUM_REMARK)
        assert s.stats is not None
        assert s.stats["spectral_radius"] <= 1.0 + 1e-9

    def test_report_dict_round_trips_through_json(self, report):
        d = report.to_dict()
        assert d == json.loads(json.dumps(d))

    def test_single_check_plan(self):
        plan = SuitePlan(
            dims=(2,), fields=(Field.COMPLEX,), seeds=(0,), components=3,
            checks=(CheckId.LEMMA_L2,),
        )
        report = run_suite(plan)
        assert [s.check for s in report.checks] == [CheckId.LEMMA_L2]
        assert report.overall_pass

    def test_numerics_deterministic_across_runs(self, small_plan, report):
        again = run_suite(small_plan)
        for s1, s2 in zip(report.checks, again.checks):
            assert s1.check == s2.check
            assert s1.max_residual == s2.max_residual
            assert s1.min_margin == s2.min_margin
            assert s1.witness_count == s2.witness_count

    def test_loaded_frame_mode(self, parseval_gfusion):
        plan = SuitePlan(checks=(CheckId.SPECTRUM_REMARK, CheckId.COR2_SANDWICH))
        report = run_suite(plan, frame=parseval_gfusion)
        assert report.overall_pass
        assert all(s.instances == 1 for s in report.checks)

    @pytest.mark.parametrize("witness_limit", [3, 0, 70])
    def test_summaries_equal_a_fold_of_run_check(self, witness_limit):
        # run_suite shares one context per chunk across checks and folds its
        # arrays; each check on its own, chunk by chunk through run_check,
        # must fold into the same summary.  Zero tolerances record witnesses
        # and cut them: 70 inside the second chunk of 64 subsets.
        plan = SuitePlan(dims=(8,), seeds=(0,), components=7, tol=Tolerances(0.0, 0.0),
                         witness_limit=witness_limit)
        report = run_suite(plan)
        subsets = subsets_for(7, plan, 0)
        assert len(subsets) == 128  # two chunks at d = 8
        instances = build_instances(plan)
        assert {(i.frame.kind, i.frame.field) for i in instances} == {
            (kind, fld) for kind in ("gframe", "gfusion") for fld in (Field.REAL, Field.COMPLEX)}
        for check in CheckId:
            info = CATALOG[check]
            want = CheckSummary(check)
            for instance in instances:
                if inapplicable(info, instance.frame) is not None:
                    continue
                want.instances += 1
                vectors = sample_vectors(8, instance.frame.field, 0, plan.vectors_per_instance)
                if info.subsets:
                    results = [result for chunk in (subsets[:64], subsets[64:])
                               for result in run_check(check, instance.frame, vectors=vectors,
                                                       tol=plan.tol, subsets=chunk)]
                else:
                    results = [run_check(check, instance.frame, None, vectors, plan.tol)]
                for result in results:
                    want.add(result, instance, plan.witness_limit)
            assert report.summary(check).to_dict() == want.to_dict()
        assert all(len(s.witnesses) == min(s.witness_count, plan.witness_limit)
                   for s in report.checks)
        cut = [s for s in report.checks if s.witness_count > plan.witness_limit]
        assert cut
        if plan.witness_limit:
            assert any(s.witnesses[0]["vector"] is not None for s in cut)
            assert any(s.witnesses[0]["subset"] is not None for s in cut)

    def test_zero_residual_tolerance_fails_suite(self):
        plan = SuitePlan(
            dims=(3,), fields=(Field.COMPLEX,), seeds=(0,), components=3,
            checks=(CheckId.THM_TG1,), tol=Tolerances(residual=0.0, margin=0.0),
        )
        assert not run_suite(plan).overall_pass


def _recording(monkeypatch, module, name):
    """The argument tuples of every call of ``module.<name>``."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


# per-vector checks, the ones that read no subset masks
VECTOR_CHECKS = (
    CheckId.THM_T1, CheckId.FAMOUS_PARSEVAL, CheckId.THM_TG1, CheckId.COR1_IDENTITY,
    CheckId.COR1_34BOUND, CheckId.THM_T33, CheckId.COR_34_SINV, CheckId.THM_FINAL_MI,
    CheckId.EQ4_RECON, CheckId.EQ5_DUAL_RECON, CheckId.EQ6_QUADFORM,
)
# the checks of a scalar identity, read from the chunk's subset sums
IDENTITY_CHECKS = (
    CheckId.THM_T1, CheckId.FAMOUS_PARSEVAL, CheckId.THM_TG1, CheckId.COR1_IDENTITY,
    CheckId.THM_T33, CheckId.THM_FINAL_MI,
)


@pytest.fixture(scope="module")
def two_chunk_instances():
    # n = 7 gives 128 subsets, two chunks at d = 8
    return build_instances(SuitePlan(dims=(8,), fields=(Field.COMPLEX,), seeds=(0,),
                                     components=7))


def _weighted_gfusion(low, high, field=Field.REAL, parseval=False):
    # the frame of framekit gen --dim 8 --field FIELD --seed 0
    # --components 4:4:LOW 4:4:1 4:4:HIGH 8:8:1 (with --parseval)
    comps = tuple(ComponentSpec(k, r, w, w)
                  for k, r, w in ((4, 4, low), (4, 4, 1.0), (4, 4, high), (8, 8, 1.0)))
    spec = GenSpec(8, comps, field, 0)
    return random_parseval_gfusion(spec) if parseval else random_gfusion(spec)


class TestConditioningFaults:
    """Verdicts that do not yet survive the conditioning or the scale of S."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: a scalar residual is divided only by max(1, ||f||^2), so "
        "THM_FINAL_MI fails at 2.49e-8 where kappa(S) is about 2.2e4"))
    def test_final_mi_passes_at_weights_1e_2_to_1e2(self):
        report = run_suite(SuitePlan(checks=(CheckId.THM_FINAL_MI,)),
                           frame=_weighted_gfusion(1e-2, 1e2))
        assert report.summary(CheckId.THM_FINAL_MI).passed

    def test_suite_reports_at_weights_1e_3_to_1e3(self):
        assert run_suite(SuitePlan(), frame=_weighted_gfusion(1e-3, 1e3)).checks

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
    def test_s_relative_sandwiches_pass_at_weights_1e_4_to_1e4(self, field):
        # kappa(S) is about 2.2e8; M S^-1 M, taken as G G* with G = M S^(-1/2),
        # stays Hermitian to rounding, so the Hermitian gate does not raise
        report = run_suite(SuitePlan(), frame=_weighted_gfusion(1e-4, 1e4, field))
        for check in (CheckId.COR3_SANDWICH, CheckId.COR39_PLUS):
            assert report.summary(check).passed, check

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
    def test_whitened_partials_pass_the_gate_at_weights_1e_4_to_1e4(self, field):
        # X_I and X_K are sums of the terms G_j* G_j of the whitened blocks
        # G_j = Lambda_j S^(-1/2), so they stay Hermitian to rounding where
        # kappa(S) is about 2.2e8, on the weighted frame and on the g-frame of
        # its blocks, and every check evaluates
        from framekit import verify

        fusion = _weighted_gfusion(1e-4, 1e4, field)
        assert fusion.upper_bound > 1e8 * fusion.lower_bound
        for frame in (fusion, GFrame(fusion.blocks)):
            chunk = verify._Chunk(frame, subsets_for(len(frame), SuitePlan(), 0), [])
            for x in chunk.whitened:
                assert hermitian_eigvalsh(x, 1.0).shape == (16, 8)
            report = run_suite(SuitePlan(), frame=frame)
            assert report.summary(CheckId.LEMMA_L2).passed

    def test_parseval_checks_pass_on_the_complex_whitening_at_weights_1e_4_to_1e4(self):
        # gen --field complex --parseval whitens this frame within
        # PARSEVAL_TOL; P = M_I S^-1 failed the Hermitian gate of its
        # sandwich here, and X_I from the whitened terms passes it
        frame = _weighted_gfusion(1e-4, 1e4, Field.COMPLEX, parseval=True)
        assert frame.is_parseval
        report = run_suite(SuitePlan(), frame=frame)
        assert report.overall_pass
        assert report.summary(CheckId.SPECTRUM_REMARK).max_residual == 0.0

    @pytest.mark.parametrize("weight", [1e3, pytest.param(1e4, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "ROADMAP item 4: with S = 2e8 I, so kappa(S) = 1, THM_T33 fails at 4.4e-8, "
            "THM_FINAL_MI at 3.8e-8 and COR_34_SINV at margin -1.9e-8")))])
    def test_verdicts_do_not_depend_on_units(self, weight):
        eye = np.eye(4)
        frame = GFusionFrame([(eye, eye, weight), (eye, eye, weight)])
        assert run_suite(SuitePlan(), frame=frame).overall_pass


class TestSharedChunk:
    """Each chunk computes once what several checks read."""

    CHUNKS = 2

    def test_one_subset_sums_per_chunk_for_the_dual(self, monkeypatch, two_chunk_instances):
        # one call per chunk covers each (subset, vector) once, and only the
        # dual sums take it: the own sums come from the chunk's [M_I, M_K]
        import framekit.gframe as gframe

        calls = _recording(monkeypatch, gframe, "subset_sums")
        for instance in two_chunk_instances:
            calls.clear()
            frame = instance.frame
            run_suite(SuitePlan(), frame=frame)
            assert len(calls) == self.CHUNKS
            assert len({sides.tobytes() for _, _, sides, _ in calls}) == self.CHUNKS
            # each call covers its chunk's 64 subsets and all the vectors
            for stack, dual, sides, vectors in calls:
                assert stack is frame._stacked_analysis and dual is frame._dual_stack
                assert sides.shape == (2, 64, len(frame))
                assert len(vectors) == SuitePlan().vectors_per_instance

    def test_stacked_images_do_not_grow_with_the_vectors(self, monkeypatch):
        import framekit.gframe as gframe
        import framekit.gfusion as gfusion

        calls = _recording(monkeypatch, gframe, "stacked_image")
        # gfusion's own binding, behind THM_FINAL_MI's dual energies
        monkeypatch.setattr(gfusion, "stacked_image", gframe.stacked_image)
        counts = []
        for vectors in (2, 4):
            calls.clear()
            run_suite(SuitePlan(dims=(8,), fields=(Field.COMPLEX,), seeds=(0,), components=7,
                                checks=IDENTITY_CHECKS, vectors_per_instance=vectors))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_one_masked_sum_per_chunk_and_term_stack(self, monkeypatch, two_chunk_instances):
        # M_I and M_K of a chunk's 64 subsets from one call over its 128 rows
        # of the term stack, which the own sums and the S-relative checks
        # share, and X_I and X_K from one over the whitened term stack, which
        # the Parseval checks and LEMMA_L2 read; a general g-frame reads no
        # own sums (its identity goes through the dual) and no S-relative
        # check, so it sums only the whitened terms
        import framekit.gframe as gframe

        calls = _recording(monkeypatch, gframe, "masked_sums")
        masks = _recording(monkeypatch, gframe, "subset_masks")
        sums_of = _recording(monkeypatch, gframe, "operator_sums")
        for instance in two_chunk_instances:
            calls.clear()
            masks.clear()
            sums_of.clear()
            frame = instance.frame
            run_suite(SuitePlan(), frame=frame)
            stacks = [frame._whitened_term_stack]
            if frame.kind == "gfusion" or frame.is_parseval:
                stacks.append(frame._term_stack)
            assert len(masks) == self.CHUNKS
            assert len(calls) == self.CHUNKS * len(stacks), instance.label
            for stack in stacks:
                assert sum(summed is stack for summed, _ in calls) == self.CHUNKS
            for _, rows in calls:
                assert rows.shape == (2 * 64, len(frame))
            # the own sums, once per chunk, read the chunk's [M_I, M_K]
            assert len(sums_of) == (self.CHUNKS if len(stacks) == 2 else 0), instance.label
            for m, vectors in sums_of:
                assert m.shape == (2, 64, 8, 8)
                assert len(vectors) == SuitePlan().vectors_per_instance

    @pytest.mark.parametrize("check", [
        CheckId.COR2_SANDWICH, CheckId.THM38_I, CheckId.COR3_SANDWICH,
        CheckId.SPECTRUM_REMARK, CheckId.LEMMA_L2,
        CheckId.THM38_II, CheckId.COR39_PLUS, CheckId.COR39_MINUS_PROBE,
    ], ids=lambda v: v.value)
    def test_a_single_check_takes_one_masked_sum_per_chunk(self, monkeypatch,
                                                           two_chunk_instances, check):
        # a sandwich reads A alone and a square sum A and B, all from one call
        import framekit.gframe as gframe

        frame = next(i.frame for i in two_chunk_instances
                     if i.frame.kind == "gfusion" and i.frame.is_parseval)
        calls = _recording(monkeypatch, gframe, "masked_sums")
        run_suite(SuitePlan(checks=(check,)), frame=frame)
        assert len(calls) == self.CHUNKS
        assert all(rows.shape == (2 * 64, len(frame)) for _, rows in calls)

    def test_one_spectrum_per_chunk_for_both_sandwiches(self, monkeypatch,
                                                       two_chunk_instances):
        # both sandwiches and SPECTRUM_REMARK read the chunk's one gated
        # spectrum of X_I, and none of them a loewner_check
        import framekit.verify as verify

        frame = next(i.frame for i in two_chunk_instances
                     if i.frame.kind == "gfusion" and i.frame.is_parseval)
        spectra = _recording(monkeypatch, verify, "hermitian_eigvalsh")
        intervals = _recording(monkeypatch, verify, "loewner_check")
        report = run_suite(SuitePlan(checks=(CheckId.COR2_SANDWICH, CheckId.THM38_I,
                                             CheckId.SPECTRUM_REMARK)), frame=frame)
        assert len(spectra) == self.CHUNKS and not intervals
        assert all(np.shape(x) == (64, 8, 8) for x, _ in spectra)
        cor2, thm38 = (report.summary(c).to_dict() for c in (CheckId.COR2_SANDWICH,
                                                               CheckId.THM38_I))
        assert {**cor2, "id": None} == {**thm38, "id": None}

    @pytest.mark.parametrize("checks", [
        VECTOR_CHECKS,
        (CheckId.THM_T1, CheckId.LEMMA_L2),
        tuple(CheckId),
        (CheckId.EQ4_RECON, CheckId.LEMMA_L0),
    ], ids=["per-vector", "mixed", "all", "no-subsets"])
    def test_one_subset_masks_per_chunk_that_takes_subsets(self, monkeypatch,
                                                          two_chunk_instances, checks):
        # the chunk's [K, 1 - K] rows feed its subset sums and partial sums alike
        import framekit.gframe as gframe

        masks = _recording(monkeypatch, gframe, "subset_masks")
        for instance in two_chunk_instances:
            masks.clear()
            applicable = [c for c in checks if inapplicable(CATALOG[c], instance.frame) is None]
            if not applicable:
                continue
            run_suite(SuitePlan(checks=tuple(applicable)), frame=instance.frame)
            chunks = self.CHUNKS if any(CATALOG[c].subsets for c in applicable) else 0
            assert len(masks) == chunks, instance.label
        masks.clear()
        assert run_suite(SuitePlan(dims=(2, 8), seeds=(0,), checks=VECTOR_CHECKS)).overall_pass
        # one chunk on each of the sixteen instances
        assert len(masks) == 16

    def test_one_identity_expression_per_chunk_and_check(self, monkeypatch,
                                                         two_chunk_instances):
        # the identities take the chunk's (subset, vector) stack at once
        import framekit.gframe as gframe
        import framekit.gfusion as gfusion

        users = {
            (gframe, "identity_terms"): {CheckId.THM_T1, CheckId.FAMOUS_PARSEVAL,
                                         CheckId.THM_TG1, CheckId.COR1_IDENTITY},
            (gfusion, "whitened_terms"): {CheckId.THM_T33},
            (gfusion, "dual_energy_terms"): {CheckId.THM_FINAL_MI},
        }
        calls = {key: _recording(monkeypatch, *key) for key in users}
        for instance in two_chunk_instances:
            for recorded in calls.values():
                recorded.clear()
            run_suite(SuitePlan(), frame=instance.frame)
            for key, checks in users.items():
                applicable = [c for c in checks
                              if inapplicable(CATALOG[c], instance.frame) is None]
                assert len(calls[key]) == self.CHUNKS * len(applicable), (instance.label, key)


class TestArrayFold:
    """``run_suite`` folds each chunk's arrays into the summaries: it builds
    no per-subset result, validates no generated subset and makes a witness
    vector only for a witness it keeps."""

    def test_no_check_result_and_no_subset_validation(self, monkeypatch,
                                                      two_chunk_instances):
        import framekit.gframe as gframe
        import framekit.verify as verify

        results = _recording(monkeypatch, verify, "CheckResult")
        validated = _recording(monkeypatch, gframe.GFrame, "_validate_subset")
        for instance in two_chunk_instances:
            frame = instance.frame
            validated.clear()
            assert run_suite(SuitePlan(), frame=frame).overall_pass
            assert results == []
            # EQ5_DUAL_RECON takes Lambda* Gamma, not a partial sum, so no
            # subset is validated on either kind
            assert validated == []
        # run_check still validates what its caller passes and cuts rows
        subsets = subsets_for(7, SuitePlan(), 0)
        validated.clear()
        frame = two_chunk_instances[0].frame
        assert len(run_check(CheckId.LEMMA_L2, frame, subsets=subsets)) == 128
        assert len(validated) == len(results) == 128

    def test_witness_vectors_only_for_kept_witnesses(self, monkeypatch, two_chunk_instances):
        import framekit.verify as verify

        frame = next(i.frame for i in two_chunk_instances
                     if i.frame.kind == "gfusion" and not i.frame.is_parseval)
        calls = _recording(monkeypatch, verify, "_json_vector")
        cut = []
        for check in [c for c in VECTOR_CHECKS if inapplicable(CATALOG[c], frame) is None]:
            plan = SuitePlan(checks=(check,), tol=Tolerances(0.0, 0.0), witness_limit=3)
            calls.clear()
            summary = run_suite(plan, frame=frame).summary(check)
            assert len(calls) <= plan.witness_limit, check
            assert len(calls) == sum(w["vector"] is not None for w in summary.witnesses)
            if summary.witness_count > plan.witness_limit:
                cut.append(check)
        assert len(cut) > 1


class TestDualMatrix:
    """The dual checks read the dual matrix ``_dual_stack``: scaled by
    1 + 1e-6 before any check reads it, it fails them, while EQ4_RECON,
    which reads S S^-1, still passes, so EQ5_DUAL_RECON is not EQ4_RECON."""

    @staticmethod
    def _verdicts(frame, scaled):
        if scaled:
            frame.__dict__["_dual_stack"] = frame._dual_stack * (1 + 1e-6)
        return {s.check: s.passed for s in run_suite(SuitePlan(), frame=frame).checks}

    @pytest.mark.parametrize("scaled", [False, True], ids=["as-built", "scaled"])
    def test_weighted_frame(self, scaled):
        verdicts = self._verdicts(random_gfusion(gfusion_spec(seed=1)), scaled)
        for check in (CheckId.EQ5_DUAL_RECON, CheckId.EQ6_QUADFORM, CheckId.THM_TG1):
            assert verdicts[check] is not scaled, check
        assert verdicts[CheckId.EQ4_RECON]

    @pytest.mark.parametrize("scaled", [False, True], ids=["as-built", "scaled"])
    def test_gframe(self, scaled):
        verdicts = self._verdicts(random_gframe(4, [2, 3, 1], Field.COMPLEX, 1), scaled)
        assert verdicts[CheckId.THM_T1] is not scaled


class TestNaNFails:
    """A NaN residual or margin fails its row through both routes and reaches
    the extreme it would set, wherever it sits in the row and the plan."""

    @pytest.mark.parametrize("row", [0, 100], ids=["first-row", "second-chunk"])
    @pytest.mark.parametrize("check, side", [(CheckId.LEMMA_L2, 0), (CheckId.THM38_II, 1)],
                             ids=["residual", "margin"])
    def test_run_check_and_run_suite(self, monkeypatch, two_chunk_instances, check, side, row):
        import framekit.verify as verify

        frame = next(i.frame for i in two_chunk_instances if i.frame.kind == "gfusion" and i.frame.is_parseval)
        subsets = subsets_for(len(frame), SuitePlan(), 0)
        target = subsets[row]
        info = CATALOG[check]

        def with_nan(chunk):
            # the last entry of the row, so it is not the first value the
            # row's extreme reads (THM38_II's upper margin)
            out = list(info.evaluate(chunk))
            out[side] = out[side].copy()
            for i, subset in enumerate(chunk.subsets):
                if subset == target:
                    out[side][i, -1] = np.nan
            return tuple(out)

        monkeypatch.setitem(verify.CATALOG, check, dataclasses.replace(info, evaluate=with_nan))
        key = ("max_residual", "min_margin")[side]
        results = run_check(check, frame, subsets=subsets)
        assert [i for i, r in enumerate(results) if not r.passed] == [row]
        assert np.isnan(results[row].witness[key])
        report = run_suite(SuitePlan(checks=(check,)), frame=frame)
        summary = report.summary(check)
        assert not summary.passed and not report.overall_pass
        assert np.isnan(getattr(summary, key))
        assert summary.witness_count == 1
        assert summary.witnesses[0]["subset"] == list(target)
        assert np.isnan(summary.witnesses[0][key])


@pytest.fixture(scope="module")
def small_instances():
    return build_instances(SuitePlan(dims=(3,), fields=(Field.COMPLEX,), seeds=(0,),
                                     components=3))


def _vector_check_runs(instances):
    """(check, frame, subset) for every per-vector check on every frame it
    applies to."""
    return [(check, i.frame, [0, 2] if CATALOG[check].subsets else None)
            for check in VECTOR_CHECKS for i in instances
            if inapplicable(CATALOG[check], i.frame) is None]


class TestSampleVectors:
    """Every per-vector check reads the validated vectors and gives a zero
    vector the value 0."""

    def test_every_check_runs_on_some_frame(self, small_instances):
        assert {check for check, *_ in _vector_check_runs(small_instances)} == set(VECTOR_CHECKS)

    @pytest.mark.parametrize("bad, error", [
        (np.array([np.nan, 0.0, 0.0]), ValueError),
        (np.array([np.inf, 1.0, 0.0]), ValueError),
        (np.ones(2), ShapeMismatch),
        (np.ones(4), ShapeMismatch),
    ], ids=["nan", "inf", "short", "long"])
    def test_invalid_vector_is_refused(self, small_instances, bad, error):
        good = sample_vectors(3, Field.COMPLEX, 0, 2)
        for check, frame, subset in _vector_check_runs(small_instances):
            with pytest.raises(error):
                run_check(check, frame, subset, [good[0], bad, good[1]])

    def test_zero_vector_gets_zero(self, small_instances):
        vectors = [np.zeros(3), *sample_vectors(3, Field.COMPLEX, 1, 3)]
        for check, frame, subset in _vector_check_runs(small_instances):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = run_check(check, frame, subset, vectors)
            assert result.passed, check
            values = result.residuals or result.margins
            per_vector = len(values) // len(vectors)
            # the zero vector's entries come first
            assert values[:per_vector] == [0.0] * per_vector, check


@pytest.fixture(scope="module")
def doubled_basis():
    """Parseval weighted frame of two copies of the coordinate lines of R^4:
    identity blocks and weights 1/sqrt(2)."""
    eye = np.eye(4)
    lines = [eye[:, [i]] for i in range(4)]
    return GFusionFrame([(line, eye, 1.0 / np.sqrt(2.0)) for line in lines * 2])


def _rows_frame(rows):
    """The weighted frame of the rows Lambda_j of ``rows``, each on W_j = H
    with weight 1: GFusionFrame([(I, Lambda_j, 1)])."""
    eye = np.eye(rows.shape[1])
    return GFusionFrame([(eye, row[None], 1.0) for row in rows])


# Parseval frames whose blocks do not commute, d = 4 and n = 8: the
# identity and the unitary DFT, both times 1/sqrt(2), and the harmonic
# frame.  The first basis, and the even rows of the harmonic frame, give
# P = I/2, where every sandwich and square-sum bound is met.
NAMED_PARSEVAL = {
    "identity-dft": lambda: _rows_frame(
        np.vstack([np.eye(4), np.fft.fft(np.eye(4)) / 2.0]) / np.sqrt(2.0)),
    "harmonic": lambda: _rows_frame(
        np.exp(2j * np.pi * np.outer(np.arange(8), np.arange(4)) / 8) / np.sqrt(8.0)),
}
NAMED_SHARP = (CheckId.COR1_34BOUND, CheckId.COR2_SANDWICH, CheckId.THM38_II,
               CheckId.COR39_PLUS)

ONE_COPY = (0, 1, 2, 3)
# check -> the side (0 lower, 1 upper) of its bound met with equality on ONE_COPY
SHARP_SIDES = {
    CheckId.COR2_SANDWICH: 1,
    CheckId.THM38_I: 1,
    CheckId.THM38_II: 0,
    CheckId.COR3_SANDWICH: 1,
    CheckId.COR39_PLUS: 0,
}
POINTWISE_BOUNDS = (CheckId.COR1_34BOUND, CheckId.COR_34_SINV)


class TestSharpness:
    """On the subset holding one copy, P = M = I/2 and Q = M' = I/2 with S = I,
    which meets each bound with equality: P - P^2 = I/4, P^2 + Q^2 = I/2,
    M S^-1 M + M' S^-1 M' = S/2, and e_I(f) + ||M_K f||^2 = 3/4 ||f||^2.
    The named frames of ``NAMED_PARSEVAL`` meet them where the doubled
    basis's blocks, which all commute, cannot show a wrong operand order."""

    def test_frame_is_parseval(self, doubled_basis):
        assert doubled_basis.is_parseval
        assert np.array_equal(doubled_basis.partial_sum(ONE_COPY), 0.5 * np.eye(4))

    @pytest.mark.parametrize("check, side", list(SHARP_SIDES.items()),
                             ids=[c.value for c in SHARP_SIDES])
    def test_operator_bounds_are_met(self, doubled_basis, check, side):
        result = run_check(check, doubled_basis, ONE_COPY)
        assert result.passed
        assert abs(result.margins[side]) <= 1e-12

    @pytest.mark.parametrize("check", POINTWISE_BOUNDS, ids=[c.value for c in POINTWISE_BOUNDS])
    def test_pointwise_bounds_are_met(self, doubled_basis, check):
        vectors = sample_vectors(4, Field.REAL, 0, 8)
        result = run_check(check, doubled_basis, ONE_COPY, vectors)
        assert result.passed
        assert max(abs(m) for m in result.margins) <= 1e-12

    def test_suite_meets_the_bounds(self, doubled_basis):
        # through the shared chunk, over all 256 subsets
        report = run_suite(SuitePlan(), frame=doubled_basis)
        assert report.overall_pass
        for check in (*SHARP_SIDES, *POINTWISE_BOUNDS):
            assert abs(report.summary(check).min_margin) <= 1e-12

    @pytest.mark.parametrize("make", NAMED_PARSEVAL.values(), ids=NAMED_PARSEVAL.keys())
    def test_suite_meets_the_bounds_where_blocks_do_not_commute(self, make):
        frame = make()
        assert frame.is_parseval and frame.field is Field.COMPLEX
        report = run_suite(SuitePlan(), frame=frame)
        assert report.overall_pass
        for check in NAMED_SHARP:
            assert abs(report.summary(check).min_margin) <= 1e-12, check
