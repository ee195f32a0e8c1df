"""Metamorphic relations as a second oracle: the same frame seen another way
must give the same check values.

The frames are the sweep's own (``build_instances``) at dims 2-5, both
fields, both kinds, general and Parseval, with kappa(S) <= 100 and n = dim
or dim + 1 components, so every subset is swept.  A wrong operand, such as
M for M', can still give a PSD result and pass; it cannot also keep these
relations:

* swapping a subset with its complement leaves the margins of the sandwich
  and square-sum checks unchanged (M - M S^-1 M and M S^-1 M + M' S^-1 M'
  are symmetric in M, M' = S - M), and swaps SPECTRUM_REMARK's two margins
  (the spectrum of Q = I - P is 1 minus that of P);
* permuting the components, with the subsets relabelled, changes no value
  (LEMMA_L0's per-component values are permuted with them);
* a unitary change of basis U (blocks Lambda_j U*, subspaces U W_j, vectors
  U f) changes no value.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from framekit import (
    CATALOG,
    CheckId,
    Field,
    GFrame,
    GFusionFrame,
    SuitePlan,
    adjoint,
    orthonormal_basis,
    run_check,
    sample_vectors,
    substream,
)
from framekit.gen import random_operator
from framekit.verify import build_instances, inapplicable, subsets_for

TOL = 1e-10  # absolute, on normalized residuals and margins
KINDS = ("gframe", "gfusion")

# checks whose margins a complement swap leaves unchanged
SWAP_INVARIANT = (CheckId.COR2_SANDWICH, CheckId.THM38_I, CheckId.THM38_II,
                  CheckId.COR3_SANDWICH, CheckId.COR39_PLUS)


@st.composite
def instances(draw, kinds=KINDS):
    """(frame, subsets, vectors): one sweep instance with kappa(S) <= 100,
    every subset of its indices and its eight sample vectors."""
    dim = draw(st.integers(2, 5))
    field = draw(st.sampled_from(list(Field)))
    seed = draw(st.integers(0, 2**16))
    plan = SuitePlan(dims=(dim,), fields=(field,), seeds=(seed,),
                     components=dim + draw(st.integers(0, 1)))
    # build_instances gives [gframe, gframe Parseval, gfusion, gfusion Parseval]
    kind = draw(st.sampled_from(kinds))
    parseval = draw(st.booleans())
    frame = build_instances(plan)[2 * KINDS.index(kind) + parseval].frame
    assert (frame.kind, frame.is_parseval) == (kind, parseval)
    assume(frame.upper_bound <= 100.0 * frame.lower_bound)
    return frame, subsets_for(len(frame), plan, seed), sample_vectors(dim, field, seed, 8)


def _values(frame, subsets, vectors) -> dict:
    """Every applicable check's residuals and margins: check -> array of
    one row per subset (one row for a check without subsets)."""
    out = {}
    for check, info in CATALOG.items():
        if inapplicable(info, frame) is not None:
            continue
        results = (run_check(check, frame, vectors=vectors, subsets=subsets) if info.subsets
                   else [run_check(check, frame, vectors=vectors)])
        out[check] = np.array([r.residuals + r.margins for r in results])
    return out


def _margins(check, frame, subsets) -> np.ndarray:
    return np.array([r.margins for r in run_check(check, frame, subsets=subsets)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=instances(kinds=("gfusion",)))  # no subset margin check takes a g-frame
def test_complement_swap_keeps_the_margins(case):
    frame, subsets, _ = case
    complements = [frame.complement(s) for s in subsets]
    checks = [c for c in SWAP_INVARIANT if inapplicable(CATALOG[c], frame) is None]
    assert len(checks) == (5 if frame.is_parseval else 2)
    for check in checks:
        assert_allclose(_margins(check, frame, complements), _margins(check, frame, subsets),
                        rtol=0, atol=TOL, err_msg=check.value)
    if frame.is_parseval:
        spectrum = _margins(CheckId.SPECTRUM_REMARK, frame, subsets)
        assert_allclose(_margins(CheckId.SPECTRUM_REMARK, frame, complements),
                        spectrum[:, ::-1], rtol=0, atol=TOL)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=instances(), data=st.data())
def test_permuting_the_components_keeps_every_value(case, data):
    frame, subsets, vectors = case
    perm = data.draw(st.permutations(range(len(frame))))
    if frame.kind == "gfusion":
        permuted = GFusionFrame([frame.components[j] for j in perm])
    else:
        permuted = GFrame([frame.blocks[j] for j in perm])
    assert permuted.is_parseval == frame.is_parseval
    # index i of the permuted frame is index perm[i] of the frame
    position = {j: i for i, j in enumerate(perm)}
    relabelled = [tuple(sorted(position[j] for j in s)) for s in subsets]
    want = _values(frame, subsets, vectors)
    got = _values(permuted, relabelled, vectors)
    assert got.keys() == want.keys()
    if CheckId.LEMMA_L0 in want:
        want[CheckId.LEMMA_L0] = want[CheckId.LEMMA_L0][:, list(perm)]
    for check, values in want.items():
        assert_allclose(got[check], values, rtol=0, atol=TOL, err_msg=check.value)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=instances(), seed=st.integers(0, 2**16))
def test_a_unitary_change_of_basis_keeps_every_value(case, seed):
    frame, subsets, vectors = case
    field = frame.field
    u = orthonormal_basis(random_operator(frame.dim_h, frame.dim_h, field, substream(seed)))
    assume(u.shape[1] == frame.dim_h)
    if frame.kind == "gfusion":
        moved = GFusionFrame([(u @ c.basis, c.block @ adjoint(u), c.weight)
                              for c in frame.components])
    else:
        moved = GFrame([b @ adjoint(u) for b in frame.blocks])
    assert moved.is_parseval == frame.is_parseval
    want = _values(frame, subsets, vectors)
    got = _values(moved, subsets, [u @ f for f in vectors])
    assert got.keys() == want.keys()
    for check, values in want.items():
        assert_allclose(got[check], values, rtol=0, atol=TOL, err_msg=check.value)
