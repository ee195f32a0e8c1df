"""Each instance's set-up is decided once.

A frame decomposes its frame operator S once, at construction, and takes
S^-1, S^(-1/2) and the whitening from that decomposition; ``build_instances``
generates each general frame once and whitens its Parseval instance from
it; ``run_suite`` draws the sample vectors of a (dim, field, seed) once.
Every frame stays the one the generators give on their own, bit for bit.
"""

import numpy as np
import pytest

from framekit import (
    Field,
    GenSpec,
    GFrame,
    GFusionFrame,
    SuitePlan,
    psd_power,
    random_gframe,
    random_gfusion,
    random_parseval_gframe,
    random_parseval_gfusion,
    run_suite,
)
from framekit import gframe, linops, verify
from framekit.verify import build_instances


def _arrays(frame) -> list[np.ndarray]:
    """Every array that defines ``frame``, in a fixed order."""
    if isinstance(frame, GFusionFrame):
        parts = [x for c in frame.components for x in (c.basis, c.block, np.float64(c.weight))]
    else:
        parts = list(frame.blocks)
    return parts + [frame.frame_operator]


def _same(a, b) -> bool:
    return type(a) is type(b) and len(_arrays(a)) == len(_arrays(b)) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))


def _frame_inits(monkeypatch) -> list:
    """The class of every frame constructed from here on."""
    built = []
    for cls in (GFrame, GFusionFrame):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def _spec(plan: SuitePlan, dim: int, fld: Field, seed: int) -> GenSpec:
    return GenSpec(dim, verify._component_specs(dim, plan.components, plan.weight_range),
                   fld, seed)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_instances_are_the_four_generators_frames_built_once(monkeypatch, dim):
    plan = SuitePlan(dims=(dim,), seeds=(0, 1, 2))
    built = _frame_inits(monkeypatch)
    instances = build_instances(plan)
    inits = len(built)
    expected, general_inits = [], 0
    for fld in plan.fields:
        for seed in plan.seeds:
            block_dims = verify._block_dims(dim, plan.components)
            spec = _spec(plan, dim, fld, seed)
            before = len(built)
            blocks, fusion = random_gframe(dim, block_dims, fld, seed), random_gfusion(spec)
            general_inits += len(built) - before
            expected += [blocks, random_parseval_gframe(dim, block_dims, fld, seed),
                         fusion, random_parseval_gfusion(spec)]
    assert len(instances) == len(expected)
    for instance, frame in zip(instances, expected):
        assert _same(instance.frame, frame), instance.label
    # the general frames' attempts once, and one whitened frame per Parseval instance
    assert inits == general_inits + len(expected) // 2


def test_a_missed_whitening_leaves_the_parseval_instance_to_the_later_attempts(monkeypatch):
    plan = SuitePlan(dims=(3,), fields=(Field.REAL,), seeds=(0,))
    spec = _spec(plan, 3, Field.REAL, 0)
    first = random_gfusion(spec)
    whiten = GFusionFrame.parsevalize

    def missing(self):
        # the first attempt's whitening misses PARSEVAL_TOL: it stays unwhitened
        if np.array_equal(self.frame_operator, first.frame_operator):
            return self
        return whiten(self)

    monkeypatch.setattr(GFusionFrame, "parsevalize", missing)
    expected = random_parseval_gfusion(spec)
    assert not _same(expected, whiten(first))
    instance = build_instances(plan)[3]
    assert (instance.frame.kind, instance.frame.is_parseval) == ("gfusion", True)
    assert _same(instance.frame, expected)


def _eig_inputs(monkeypatch) -> list:
    """A copy of every operator ``hermitian_eig`` decomposes from here on."""
    seen = []
    original = linops.hermitian_eig

    def recording(a):
        seen.append(np.array(a))
        return original(a)

    for module in (linops, gframe):
        monkeypatch.setattr(module, "hermitian_eig", recording)
    return seen


@pytest.mark.parametrize("field", list(Field))
def test_powers_of_s_come_from_the_decomposition_made_at_construction(monkeypatch, field):
    from framekit.gen import whitened_gframe

    plan = SuitePlan()
    seen = _eig_inputs(monkeypatch)
    blocks = random_gframe(5, verify._block_dims(5, 4), field, 1)
    fusion = random_gfusion(_spec(plan, 5, field, 1))

    def decompositions(frame):
        return sum(np.array_equal(a, frame.frame_operator) for a in seen)

    assert decompositions(blocks) == decompositions(fusion) == 1
    for power in (lambda: blocks.inverse, lambda: whitened_gframe(blocks),
                  lambda: fusion.inverse, lambda: fusion.inverse_sqrt, fusion.parsevalize):
        power()
    assert decompositions(blocks) == decompositions(fusion) == 1
    monkeypatch.undo()
    # the kept decomposition is read-only and gives psd_power's bits
    for frame in (blocks, fusion):
        assert not any(x.flags.writeable for x in frame._spectrum)
        assert np.array_equal(frame.inverse, psd_power(frame.frame_operator, -1.0))
    assert np.array_equal(fusion.inverse_sqrt, psd_power(fusion.frame_operator, -0.5))


def test_run_suite_draws_the_vectors_of_each_seed_once(monkeypatch):
    draws = []
    original = verify.sample_vectors

    def recording(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(verify, "sample_vectors", recording)
    monkeypatch.setattr(verify, "_walk", lambda *args: iter(()))
    run_suite(SuitePlan())
    # 4 dims x 2 fields x 10 seeds, each shared by its four instances
    assert len(draws) == len(set(draws)) == 80
