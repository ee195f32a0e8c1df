import json

import numpy as np
import pytest

from framekit import (
    CATALOG,
    CheckId,
    ComponentSpec,
    Field,
    GenSpec,
    SuitePlan,
    Tolerances,
    WrongFrameKind,
    random_gframe,
    random_gfusion,
    random_parseval_gfusion,
    run_check,
    run_suite,
    sample_vectors,
)
from framekit.verify import build_instances, subsets_for


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

    def test_plan_round_trips_through_dict(self):
        d = SuitePlan().to_dict()
        assert d == json.loads(json.dumps(d))


class TestBuildInstances:
    def test_grid_shape(self, small_plan):
        instances = build_instances(small_plan)
        # 2 dims x 1 field x 2 seeds x 4 instance kinds
        assert len(instances) == 16
        kinds = {(i.kind, i.parseval) for i in instances}
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

    def test_every_check_goes_through_run_check(self, monkeypatch):
        # per-check traces attribute time by run_check's first argument
        import framekit.verify as verify

        seen = set()
        original = verify.run_check

        def recording(check, *args, **kwargs):
            seen.add(CheckId(check))
            return original(check, *args, **kwargs)

        monkeypatch.setattr(verify, "run_check", recording)
        report = run_suite(SuitePlan(seeds=(0,)))
        assert seen == set(CheckId) == {s.check for s in report.checks}
        assert len(CheckId) == 20

    def test_zero_residual_tolerance_fails_suite(self):
        plan = SuitePlan(
            dims=(3,), fields=(Field.COMPLEX,), seeds=(0,), components=3,
            checks=(CheckId.THM_TG1,), tol=Tolerances(residual=0.0, margin=0.0),
        )
        assert not run_suite(plan).overall_pass
