"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-8 read the report of one full default verification run (executed
once per session through the CLI so the exit-code contract is exercised
too); the remaining criteria recompute their properties directly.  Identity
residual entries in reports include both the modulus and the imaginary part
of lhs - rhs, so a single max_residual bound covers both assertions.

Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines.
"""

import json

import numpy as np
import pytest

from framekit import (
    Field,
    GenSpec,
    SuitePlan,
    adjoint,
    inner,
    load_frame,
    operator_norm,
    projected_adjoint_residual,
    quad_bound,
    random_gframe,
    random_gfusion,
    sample_vectors,
    save_frame,
    substream,
)
from framekit.cli import main
from framekit.gen import random_operator, random_subspace_basis, random_vector
from framekit.verify import build_instances


def criterion(number, ok, description):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """Exit code and parsed report of one full default `verify` run."""
    path = tmp_path_factory.mktemp("acceptance") / "report.json"
    code = main(["verify", "--report", str(path), "--format", "json"])
    return code, json.loads(path.read_text())


@pytest.fixture(scope="session")
def default_instances():
    """The default plan's frame grid, regenerated for direct-path criteria."""
    return build_instances(SuitePlan())


def summary(report, check_id):
    return next(c for c in report["checks"] if c["id"] == check_id)


def test_criterion_01_partition_identity_gframes(default_run):
    _, report = default_run
    s = summary(report, "THM_T1")
    ok = s["pass"] and s["max_residual"] <= 1e-8
    criterion(1, ok, "operator-frame partition identity residual <= 1e-8 (incl. imaginary part)")


def test_criterion_02_partition_identities_gfusion(default_run):
    _, report = default_run
    ok = True
    for check_id in ("THM_TG1", "THM_FINAL_MI"):
        s = summary(report, check_id)
        ok = ok and s["pass"] and s["max_residual"] <= 1e-8
    criterion(2, ok, "weighted-subspace partition identities residual <= 1e-8")


def test_criterion_03_reconstruction(default_run, default_instances):
    _, report = default_run
    ok = summary(report, "EQ4_RECON")["max_residual"] <= 1e-9
    ok = ok and summary(report, "EQ5_DUAL_RECON")["max_residual"] <= 1e-9
    ok = ok and summary(report, "EQ6_QUADFORM")["max_residual"] <= 1e-8
    # dual reconstruction for operator frames, both orderings
    for inst in default_instances:
        if inst.frame.kind != "gframe":
            continue
        frame, dual = inst.frame, inst.frame.canonical_dual
        for f in sample_vectors(frame.dim_h, frame.field, inst.seed, 8):
            nf = np.linalg.norm(f)
            e1 = np.linalg.norm(frame.synthesis(dual.analysis(f)) - f) / nf
            e2 = np.linalg.norm(dual.synthesis(frame.analysis(f)) - f) / nf
            ok = ok and e1 <= 1e-9 and e2 <= 1e-9
    criterion(3, ok, "reconstruction errors <= 1e-9; inverse quadratic form residual <= 1e-8")


def test_criterion_04_parseval_inequalities(default_run):
    _, report = default_run
    ok = True
    for check_id in ("COR2_SANDWICH", "THM38_I", "THM38_II", "COR1_34BOUND"):
        s = summary(report, check_id)
        ok = ok and s["pass"] and s["min_margin"] >= -1e-8
    criterion(4, ok, "Parseval sandwich, two-sided, and 3/4 bounds with margins >= -1e-8")


def test_criterion_05_general_frame_inequalities(default_run):
    _, report = default_run
    cor3 = summary(report, "COR3_SANDWICH")
    t33 = summary(report, "THM_T33")
    sinv = summary(report, "COR_34_SINV")
    ok = cor3["pass"] and cor3["min_margin"] >= -1e-8
    ok = ok and t33["pass"] and t33["max_residual"] <= 1e-8
    ok = ok and sinv["pass"] and sinv["min_margin"] >= -1e-8
    criterion(5, ok, "general-frame sandwich, whitened identity, and weighted 3/4 lower bound")


def test_criterion_06_sum_and_difference_forms(default_run):
    _, report = default_run
    plus = summary(report, "COR39_PLUS")
    probe = summary(report, "COR39_MINUS_PROBE")
    ok = plus["pass"] and plus["min_margin"] >= -1e-8
    ok = ok and probe["pass"] and probe["witness_count"] >= 1
    criterion(6, ok, "sum form passes everywhere; printed difference form has recorded witnesses")


def test_criterion_07_frame_operator_oracle(default_instances):
    ok = True
    for inst in default_instances:
        s = inst.frame.frame_operator
        t_star = inst.frame.analysis_matrix()
        rel = operator_norm(s - adjoint(t_star) @ t_star) / operator_norm(s)
        ok = ok and rel <= 1e-10
    criterion(7, ok, "summed frame operators match dense stacked products within 1e-10")


def test_criterion_08_spectrum_containment(default_run):
    _, report = default_run
    s = summary(report, "SPECTRUM_REMARK")
    ok = s["pass"] and s["min_margin"] >= -1e-8 and s["max_residual"] <= 1e-8
    ok = ok and s["stats"]["spectral_radius"] <= 1.0 + 1e-8
    criterion(8, ok, "Parseval partial-reconstruction spectra inside [-1e-8, 1 + 1e-8]")


def test_criterion_09_lemmas(default_run):
    _, report = default_run
    ok = summary(report, "LEMMA_L2")["max_residual"] <= 1e-10
    # projection absorption on 100 seeded (V, T) pairs per field
    for field in Field:
        rng = substream(314159, 63)
        for _ in range(100):
            t = random_operator(6, 6, field, rng)
            v = random_subspace_basis(6, int(rng.integers(1, 6)), field, rng)
            ok = ok and projected_adjoint_residual(v, t) <= 1e-10 * operator_norm(t)
    # scalar quadratic bound over 1000 seeded samples
    rng = substream(271828, 64)
    for _ in range(1000):
        a = float(rng.uniform(0.1, 3.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        b = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(-3.0, 3.0))
        g = random_operator(4, 4, Field.COMPLEX, rng)
        u = g + adjoint(g)
        u *= 10.0 / max(operator_norm(u), 10.0)
        f = random_vector(4, Field.COMPLEX, rng)
        f /= np.linalg.norm(f)
        value = inner((a * (u @ u) + b * u + c * np.eye(4)) @ f, f).real
        bound = quad_bound(a, b, c)
        ok = ok and (value >= bound - 1e-10 if a > 0 else value <= bound + 1e-10)
    criterion(9, ok, "projection absorption <= 1e-10, complement-square <= 1e-10, quadratic bound holds")


def test_criterion_10_determinism_and_round_trip(default_run, tmp_path):
    code, report = default_run
    ok = code == 0 and report["overall_pass"] is True

    from framekit import ComponentSpec

    spec = GenSpec(4, (ComponentSpec(2, 3, 0.5, 2.0), ComponentSpec(3, 2, 0.5, 2.0)),
                   Field.COMPLEX, 77)
    f1, f2 = random_gfusion(spec), random_gfusion(spec)
    for c1, c2 in zip(f1.components, f2.components):
        ok = ok and np.array_equal(c1.basis, c2.basis)
        ok = ok and np.array_equal(c1.block, c2.block)
        ok = ok and c1.weight == c2.weight
    g1 = random_gframe(4, [2, 3], Field.REAL, 77)
    g2 = random_gframe(4, [2, 3], Field.REAL, 77)
    ok = ok and all(np.array_equal(a, b) for a, b in zip(g1.blocks, g2.blocks))

    path = tmp_path / "roundtrip.frame"
    save_frame(f1, str(path))
    reloaded = load_frame(str(path))
    for c1, c2 in zip(f1.components, reloaded.components):
        ok = ok and np.array_equal(c1.basis, c2.basis)
        ok = ok and np.array_equal(c1.block, c2.block)
        ok = ok and c1.weight == c2.weight

    criterion(10, ok, "bit-identical regeneration, bit-exact frame files, default verify exits 0")
