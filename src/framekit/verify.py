"""Named verification checks and the suite runner.

Each check evaluates one target identity or inequality on a frame instance
and reports residuals and/or Loewner margins; ``run_suite`` sweeps seeded
random instances, aggregates per-check extremes into a report, and renders
an overall verdict.  Probe checks record counterexample witnesses without
affecting the verdict.

Subsets are handled in chunks of at most ``_CHUNK_ENTRIES`` matrix
entries; ``run_suite`` hands each (instance, check) its subsets one chunk
at a time through ``run_check(..., subsets=chunk)``.  The eight operator
checks (COR2_SANDWICH, THM38_I, THM38_II, COR3_SANDWICH, COR39_PLUS,
COR39_MINUS_PROBE, SPECTRUM_REMARK, LEMMA_L2) evaluate a whole chunk at
once: its partial sums come from a 0/1 mask over the frame's cached term
stack, and its margins, spectra and complement residuals from one stacked
``linops`` call each.  A single subset is a chunk of one.  The per-vector
checks keep one evaluation per subset.

Normalization conventions (so a single pair of tolerances applies):

* scalar identity residuals are divided by max(1, ||f||^2);
* reconstruction errors are relative, ||recon - f|| / ||f||;
* pointwise lower-bound margins are divided by ||f||^2;
* margins of inequalities whose bounds are multiples of the frame operator
  are divided by max(1, ||S||); identity-scaled margins stay raw;
* operator-identity residuals (projection absorption is divided by the
  operator norm; the complement-square identity stays raw).
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import gframe as gf
from . import gfusion as gfu
from .gen import (
    ComponentSpec,
    GenerationFailed,
    GenSpec,
    random_gframe,
    random_gfusion,
    random_parseval_gframe,
    random_parseval_gfusion,
    sample_vectors,
    substream,
)
from .linops import (
    Field,
    adjoint,
    complement_identity_residual,
    loewner_check,
    operator_norm,
    projected_adjoint_residual,
)

__all__ = [
    "WrongFrameKind",
    "CheckId",
    "CheckInfo",
    "CATALOG",
    "Tolerances",
    "CheckResult",
    "run_check",
    "FrameInstance",
    "SuitePlan",
    "CheckSummary",
    "RunReport",
    "build_instances",
    "subsets_for",
    "run_suite",
]

_SUBSET_STREAM = 1025  # substream index for sampled subsets (outside gen's range)


class WrongFrameKind(ValueError):
    """Check is not applicable to this frame kind or Parseval class."""


class CheckId(str, enum.Enum):
    """Stable identifiers for the verification catalog."""

    THM_T1 = "THM_T1"
    FAMOUS_PARSEVAL = "FAMOUS_PARSEVAL"
    THM_TG1 = "THM_TG1"
    COR1_IDENTITY = "COR1_IDENTITY"
    COR1_34BOUND = "COR1_34BOUND"
    COR2_SANDWICH = "COR2_SANDWICH"
    THM_T33 = "THM_T33"
    COR3_SANDWICH = "COR3_SANDWICH"
    COR_34_SINV = "COR_34_SINV"
    THM38_I = "THM38_I"
    THM38_II = "THM38_II"
    COR39_PLUS = "COR39_PLUS"
    COR39_MINUS_PROBE = "COR39_MINUS_PROBE"
    EQ4_RECON = "EQ4_RECON"
    EQ5_DUAL_RECON = "EQ5_DUAL_RECON"
    EQ6_QUADFORM = "EQ6_QUADFORM"
    SPECTRUM_REMARK = "SPECTRUM_REMARK"
    LEMMA_L0 = "LEMMA_L0"
    LEMMA_L2 = "LEMMA_L2"
    THM_FINAL_MI = "THM_FINAL_MI"


@dataclass(frozen=True)
class CheckInfo:
    """Routing metadata for one catalog entry."""

    check: "CheckId"
    kind: str  # "gframe" | "gfusion" | "any"
    parseval_only: bool
    subsets: bool
    vectors: bool
    probe: bool
    summary: str


def _info(check, kind, parseval_only, subsets, vectors, summary, probe=False):
    return CheckInfo(check, kind, parseval_only, subsets, vectors, probe, summary)


CATALOG: dict[CheckId, CheckInfo] = {
    info.check: info
    for info in [
        _info(CheckId.THM_T1, "gframe", False, True, True,
              "subset/complement energy identity for operator frames"),
        _info(CheckId.FAMOUS_PARSEVAL, "gframe", True, True, True,
              "Parseval special case of the energy identity"),
        _info(CheckId.THM_TG1, "gfusion", False, True, True,
              "subset/complement energy identity for weighted subspace frames"),
        _info(CheckId.COR1_IDENTITY, "gfusion", True, True, True,
              "Parseval identity linking block energies and truncated operator norms"),
        _info(CheckId.COR1_34BOUND, "gfusion", True, True, True,
              "subset energy plus complement operator energy is at least 3/4 of the input energy"),
        _info(CheckId.COR2_SANDWICH, "gfusion", True, True, False,
              "0 <= P - P^2 <= I/4 for Parseval partial reconstructions"),
        _info(CheckId.THM_T33, "gfusion", False, True, True,
              "whitened subset/complement energy identity for general frames"),
        _info(CheckId.COR3_SANDWICH, "gfusion", False, True, False,
              "0 <= M - M S^-1 M <= S/4 for truncated frame operators"),
        _info(CheckId.COR_34_SINV, "gfusion", False, True, True,
              "lower bound (3/4) * A on subset energy plus whitened complement energy"),
        _info(CheckId.THM38_I, "gfusion", True, True, False,
              "first part of the two-sided Parseval bound: 0 <= P - P^2 <= I/4"),
        _info(CheckId.THM38_II, "gfusion", True, True, False,
              "second part: I/2 <= P^2 + Q^2 <= 3I/2 for complementary partials"),
        _info(CheckId.COR39_PLUS, "gfusion", False, True, False,
              "S/2 <= M S^-1 M + M' S^-1 M' <= 3S/2 (sum form)"),
        _info(CheckId.COR39_MINUS_PROBE, "gfusion", False, True, False,
              "difference form as printed, probed for counterexamples", probe=True),
        _info(CheckId.EQ4_RECON, "gfusion", False, False, True,
              "frame-operator reconstruction, both orderings"),
        _info(CheckId.EQ5_DUAL_RECON, "gfusion", False, False, True,
              "canonical-dual reconstruction, both orderings"),
        _info(CheckId.EQ6_QUADFORM, "gfusion", False, False, True,
              "inverse-operator quadratic form equals the dual analysis energy"),
        _info(CheckId.SPECTRUM_REMARK, "gfusion", True, True, False,
              "Parseval partial reconstructions have spectrum inside [0, 1]"),
        _info(CheckId.LEMMA_L0, "gfusion", False, False, False,
              "projection absorption along subspace images under the inverse operator"),
        _info(CheckId.LEMMA_L2, "any", False, True, False,
              "complementary partials satisfy u - v = u^2 - v^2"),
        _info(CheckId.THM_FINAL_MI, "gfusion", False, True, True,
              "partition identity for truncated frame operators through the dual energy"),
    ]
}


@dataclass(frozen=True)
class Tolerances:
    """Residual / margin tolerances for check verdicts (normalized scales)."""

    residual: float = 1e-8
    margin: float = 1e-8

    def __post_init__(self):
        if self.residual < 0 or self.margin < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclass
class CheckResult:
    """Outcome of one check invocation on one frame (and subset)."""

    check: CheckId
    residuals: list[float]
    margins: list[float]
    passed: bool
    witness: dict | None = None
    stats: dict | None = None


def _norm_sq(f) -> float:
    return float(np.vdot(f, f).real)


def _json_vector(f: np.ndarray) -> list:
    if np.iscomplexobj(f):
        return [[float(z.real), float(z.imag)] for z in f]
    return [float(x) for x in f]


def _identity_residuals(fn, frame, subset, vectors):
    """Normalized |lhs - rhs| and |Im(lhs - rhs)| per sample vector."""
    residuals = []
    worst, worst_val = None, -1.0
    for f in vectors:
        terms = fn(frame, subset, f)
        scale = max(1.0, _norm_sq(f))
        r = terms.residual / scale
        residuals.append(r)
        residuals.append(abs((terms.lhs - terms.rhs).imag) / scale)
        if r > worst_val:
            worst_val, worst = r, f
    return residuals, worst


def _margins_of(lm, scale=1.0):
    return [lm.lower_margin / scale, lm.upper_margin / scale]


def _s_scale(frame) -> float:
    return max(1.0, frame.upper_bound)


def _run_thm_t1(frame, subset, vectors):
    res, worst = _identity_residuals(gf.partition_identity, frame, subset, vectors)
    return res, [], None, worst


def _run_famous_parseval(frame, subset, vectors):
    res, worst = _identity_residuals(gf.parseval_partition_identity, frame, subset, vectors)
    return res, [], None, worst


def _run_thm_tg1(frame, subset, vectors):
    res, worst = _identity_residuals(gfu.partition_identity, frame, subset, vectors)
    return res, [], None, worst


def _run_cor1_identity(frame, subset, vectors):
    res, worst = _identity_residuals(gfu.parseval_partition_identity, frame, subset, vectors)
    return res, [], None, worst


def _run_cor1_34bound(frame, subset, vectors):
    margins = []
    worst, worst_val = None, np.inf
    frame._validate_subset(subset)
    for f in vectors:
        n2 = _norm_sq(f)
        if n2 == 0.0:
            margins.append(0.0)
            continue
        e, m = gfu.truncated_images(frame, subset, f)
        lhs = float(e[0]) + _norm_sq(m[:, 1])
        margin = (lhs - 0.75 * n2) / n2
        margins.append(margin)
        if margin < worst_val:
            worst_val, worst = margin, f
    return [], margins, None, worst


def _run_thm_t33(frame, subset, vectors):
    res, worst = _identity_residuals(gfu.whitened_partition_identity, frame, subset, vectors)
    return res, [], None, worst


def _run_cor_34_sinv(frame, subset, vectors):
    margins = []
    worst, worst_val = None, np.inf
    r = frame.inverse_sqrt
    floor = 0.75 * frame.lower_bound
    frame._validate_subset(subset)
    for f in vectors:
        n2 = _norm_sq(f)
        if n2 == 0.0:
            margins.append(0.0)
            continue
        e, m = gfu.truncated_images(frame, subset, f)
        lhs = float(e[0]) + _norm_sq(r @ m[:, 1])
        margin = (lhs - floor * n2) / n2
        margins.append(margin)
        if margin < worst_val:
            worst_val, worst = margin, f
    return [], margins, None, worst


def _run_eq4_recon(frame, subset, vectors):
    residuals = []
    worst, worst_val = None, -1.0
    s, si = frame.frame_operator, frame.inverse
    for f in vectors:
        nf = float(np.sqrt(_norm_sq(f)))
        if nf == 0.0:
            residuals += [0.0, 0.0]
            continue
        r1 = float(np.linalg.norm(s @ (si @ f) - f)) / nf
        r2 = float(np.linalg.norm(si @ (s @ f) - f)) / nf
        residuals += [r1, r2]
        if max(r1, r2) > worst_val:
            worst_val, worst = max(r1, r2), f
    return residuals, [], None, worst


def _run_eq5_dual_recon(frame, subset, vectors):
    residuals = []
    worst, worst_val = None, -1.0
    s_full = frame.partial_sum(range(len(frame.components)))
    s_full_adj = adjoint(s_full)
    for f in vectors:
        nf = float(np.sqrt(_norm_sq(f)))
        if nf == 0.0:
            residuals += [0.0, 0.0]
            continue
        r1 = float(np.linalg.norm(s_full @ f - f)) / nf
        r2 = float(np.linalg.norm(s_full_adj @ f - f)) / nf
        residuals += [r1, r2]
        if max(r1, r2) > worst_val:
            worst_val, worst = max(r1, r2), f
    return residuals, [], None, worst


def _run_eq6_quadform(frame, subset, vectors):
    residuals = []
    worst, worst_val = None, -1.0
    for f in vectors:
        n2 = _norm_sq(f)
        r = 0.0 if n2 == 0.0 else gfu.inverse_quadratic_residual(frame, f) / n2
        residuals.append(r)
        if r > worst_val:
            worst_val, worst = r, f
    return residuals, [], None, worst


def _run_lemma_l0(frame, subset, vectors):
    t = frame.inverse
    tn = operator_norm(t)
    residuals = [
        projected_adjoint_residual(c.basis, t) / tn for c in frame.components
    ]
    return residuals, [], None, None


def _run_thm_final_mi(frame, subset, vectors):
    res, worst = _identity_residuals(gfu.frame_partition_identity, frame, subset, vectors)
    return res, [], None, worst


_DISPATCH = {
    CheckId.THM_T1: _run_thm_t1,
    CheckId.FAMOUS_PARSEVAL: _run_famous_parseval,
    CheckId.THM_TG1: _run_thm_tg1,
    CheckId.COR1_IDENTITY: _run_cor1_identity,
    CheckId.COR1_34BOUND: _run_cor1_34bound,
    CheckId.THM_T33: _run_thm_t33,
    CheckId.COR_34_SINV: _run_cor_34_sinv,
    CheckId.EQ4_RECON: _run_eq4_recon,
    CheckId.EQ5_DUAL_RECON: _run_eq5_dual_recon,
    CheckId.EQ6_QUADFORM: _run_eq6_quadform,
    CheckId.LEMMA_L0: _run_lemma_l0,
    CheckId.THM_FINAL_MI: _run_thm_final_mi,
}


# The operator checks run over a chunk of subsets at once.  Each evaluator
# takes the chunk's (k, n) 0/1 subset masks and returns its residual and
# margin columns and its stats, each a length-k array per entry.  A chunk
# holds at most this many matrix entries: 64 subsets at d = 8, one at d = 64.
# Larger chunks gain no speed and raise peak memory.
_CHUNK_ENTRIES = 4096


def _partials(frame, masks):
    return gf.masked_sums(frame._dual_term_stack, masks)


def _frame_partials(frame, masks):
    return gf.masked_sums(frame._component_term_stack, masks)


def _batch_sandwich(frame, masks):
    p = _partials(frame, masks)
    lm = loewner_check(p - p @ p, 0.0, 0.25, tol=0.0)
    return [], _margins_of(lm), None


def _batch_thm38_ii(frame, masks):
    p = _partials(frame, masks)
    q = _partials(frame, 1.0 - masks)
    lm = loewner_check(p @ p + q @ q, 0.5, 1.5, tol=0.0)
    return [], _margins_of(lm), None


def _batch_cor3_sandwich(frame, masks):
    m = _frame_partials(frame, masks)
    x = m - m @ frame.inverse @ m
    lm = loewner_check(x, 0.0, 0.25 * frame.frame_operator, tol=0.0)
    return [], _margins_of(lm, _s_scale(frame)), None


def _batch_cor39(sign):
    def evaluate(frame, masks):
        m = _frame_partials(frame, masks)
        mc = _frame_partials(frame, 1.0 - masks)
        si = frame.inverse
        x = m @ si @ m + sign * (mc @ si @ mc)
        s = frame.frame_operator
        lm = loewner_check(x, 0.5 * s, 1.5 * s, tol=0.0)
        return [], _margins_of(lm, _s_scale(frame)), None

    return evaluate


def _batch_spectrum_remark(frame, masks):
    vals = np.linalg.eigvals(_partials(frame, masks))
    margins = [vals.real.min(axis=-1), 1.0 - vals.real.max(axis=-1)]
    residuals = [np.abs(vals.imag).max(axis=-1)]
    return residuals, margins, {"spectral_radius": np.abs(vals).max(axis=-1)}


def _batch_lemma_l2(frame, masks):
    return [complement_identity_residual(_partials(frame, masks))], [], None


_BATCHED = {
    CheckId.COR2_SANDWICH: _batch_sandwich,
    CheckId.THM38_I: _batch_sandwich,
    CheckId.THM38_II: _batch_thm38_ii,
    CheckId.COR3_SANDWICH: _batch_cor3_sandwich,
    CheckId.COR39_PLUS: _batch_cor39(+1.0),
    CheckId.COR39_MINUS_PROBE: _batch_cor39(-1.0),
    CheckId.SPECTRUM_REMARK: _batch_spectrum_remark,
    CheckId.LEMMA_L2: _batch_lemma_l2,
}


def _chunks(subsets, dim: int) -> list:
    """Consecutive runs of at most ``_CHUNK_ENTRIES // dim**2`` subsets (at least one)."""
    size = max(1, _CHUNK_ENTRIES // dim**2)
    return [subsets[start:start + size] for start in range(0, len(subsets), size)]


def _columns(cols, k):
    return np.column_stack(cols).tolist() if cols else [[] for _ in range(k)]


def _evaluate(check, frame, subsets, vectors):
    """(residuals, margins, stats, worst vector) for each subset, in order."""
    batch = _BATCHED.get(check)
    if batch is None:
        return [_DISPATCH[check](frame, subset, vectors) for subset in subsets]
    js = [frame._validate_subset(subset) for subset in subsets]
    rows = []
    for chunk in _chunks(js, frame.dim_h):
        masks = gf.subset_masks(_index_count(frame), chunk)
        residuals, margins, stats = batch(frame, masks)
        k = len(masks)
        for i, (res, mar) in enumerate(zip(_columns(residuals, k), _columns(margins, k))):
            row_stats = {key: float(v[i]) for key, v in stats.items()} if stats else None
            rows.append((res, mar, row_stats, None))
    return rows


def frame_kind(frame) -> str:
    if isinstance(frame, gfu.GFusionFrame):
        return "gfusion"
    if isinstance(frame, gf.GFrame):
        return "gframe"
    raise TypeError(f"not a frame: {type(frame).__name__}")


def _index_count(frame) -> int:
    return len(frame.components) if frame_kind(frame) == "gfusion" else len(frame.blocks)


def _require_applicable(info: CheckInfo, frame, subsets, vectors):
    kind = frame_kind(frame)
    if info.kind != "any" and info.kind != kind:
        raise WrongFrameKind(f"{info.check.value} expects a {info.kind} frame, got {kind}")
    if info.parseval_only and not frame.is_parseval:
        raise WrongFrameKind(f"{info.check.value} requires a Parseval frame")
    if info.subsets and any(subset is None for subset in subsets):
        raise ValueError(f"{info.check.value} needs an index subset")
    if info.vectors and not vectors:
        raise ValueError(f"{info.check.value} needs sample vectors")


def _result(info: CheckInfo, frame, subset, evaluation, tol: Tolerances) -> CheckResult:
    residuals, margins, stats, worst = evaluation
    violated = any(r > tol.residual for r in residuals) or any(
        m < -tol.margin for m in margins
    )
    witness = None
    if violated:
        witness = {
            "subset": list(frame._validate_subset(subset)) if subset is not None else None,
            "vector": _json_vector(worst) if worst is not None else None,
            "max_residual": max(residuals, default=None),
            "min_margin": min(margins, default=None),
        }
    passed = True if info.probe else not violated
    return CheckResult(info.check, residuals, margins, passed, witness, stats)


def run_check(check, frame, subset=None, vectors=(), tol: Tolerances | None = None, *,
              subsets=None):
    """Run one catalog check on one frame (and one subset, where used).

    Residuals and margins come back normalized per the module conventions;
    the verdict compares them against ``tol``.  Probe checks always pass but
    carry a witness when the printed inequality is violated.

    With ``subsets`` (a sequence of index subsets, for a check that uses
    them) it returns one ``CheckResult`` per subset, in the given order.
    The operator checks evaluate those subsets in chunks; a single
    ``subset`` is a chunk of one, so both calls give the same results.
    """
    check = CheckId(check)
    info = CATALOG[check]
    tol = tol if tol is not None else Tolerances()
    vectors = list(vectors)
    if subsets is None:
        group = [subset]
    elif subset is not None:
        raise ValueError("give one subset or a sequence of subsets, not both")
    elif not info.subsets:
        raise ValueError(f"{check.value} takes no index subsets")
    else:
        group = list(subsets)
    _require_applicable(info, frame, group, vectors)
    results = [
        _result(info, frame, s, evaluation, tol)
        for s, evaluation in zip(group, _evaluate(check, frame, group, vectors))
    ]
    return results if subsets is not None else results[0]


@dataclass(frozen=True)
class FrameInstance:
    """One generated (or loaded) frame plus its provenance tag."""

    kind: str
    parseval: bool
    dim: int
    field: Field
    seed: int | None
    label: str
    frame: object


def _default_checks() -> tuple[CheckId, ...]:
    return tuple(CheckId)


@dataclass(frozen=True)
class SuitePlan:
    """Sweep description: instance grid, sampling policy, and tolerances."""

    dims: tuple[int, ...] = (2, 3, 5, 8)
    fields: tuple[Field, ...] = (Field.REAL, Field.COMPLEX)
    seeds: tuple[int, ...] = tuple(range(10))
    components: int = 4
    vectors_per_instance: int = 8
    weight_range: tuple[float, float] = (0.5, 2.0)
    checks: tuple[CheckId, ...] = field(default_factory=_default_checks)
    tol: Tolerances = field(default_factory=Tolerances)
    exhaustive_subset_limit: int = 12
    subset_samples: int = 256
    witness_limit: int = 8
    frame_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "fields", tuple(Field(f) for f in self.fields))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "checks", tuple(CheckId(c) for c in self.checks))
        if not self.dims or min(self.dims) < 1:
            raise ValueError("dims must be positive")
        if not self.fields:
            raise ValueError("need at least one scalar field")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.components < 1:
            raise ValueError("components must be at least 1")
        if self.vectors_per_instance < 1:
            raise ValueError("need at least one sample vector")
        if not (0.0 < self.weight_range[0] <= self.weight_range[1]):
            raise ValueError("weight range must satisfy 0 < lo <= hi")
        if not self.checks:
            raise ValueError("need at least one check")

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "fields": [f.value for f in self.fields],
            "seeds": list(self.seeds),
            "components": self.components,
            "vectors_per_instance": self.vectors_per_instance,
            "weight_range": list(self.weight_range),
            "checks": [c.value for c in self.checks],
            "tol_residual": self.tol.residual,
            "tol_margin": self.tol.margin,
            "exhaustive_subset_limit": self.exhaustive_subset_limit,
            "subset_samples": self.subset_samples,
            "witness_limit": self.witness_limit,
            "frame_path": self.frame_path,
        }


@dataclass
class CheckSummary:
    """Aggregate of one check across all instances and subsets."""

    check: CheckId
    instances: int
    evaluations: int
    max_residual: float | None
    min_margin: float | None
    passed: bool
    witness_count: int
    witnesses: list[dict]
    stats: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "id": self.check.value,
            "instances": self.instances,
            "evaluations": self.evaluations,
            "max_residual": self.max_residual,
            "min_margin": self.min_margin,
            "pass": self.passed,
            "witness_count": self.witness_count,
            "witnesses": self.witnesses,
        }
        if self.stats is not None:
            out["stats"] = self.stats
        return out


@dataclass
class RunReport:
    """Plan echo, per-check summaries, overall verdict, wall time."""

    plan: SuitePlan
    checks: list[CheckSummary]
    overall_pass: bool
    wall_time_s: float

    def summary(self, check) -> CheckSummary:
        check = CheckId(check)
        for s in self.checks:
            if s.check == check:
                return s
        raise KeyError(f"no summary for {check.value}")

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "plan": self.plan.to_dict(),
            "checks": [s.to_dict() for s in self.checks],
            "overall_pass": self.overall_pass,
            "wall_time_s": self.wall_time_s,
        }


def _component_specs(dim: int, count: int, weight_range) -> tuple[ComponentSpec, ...]:
    # cycle subspace and codomain dimensions through 1..dim, offset by one,
    # so small plans still mix square and rectangular blocks
    return tuple(
        ComponentSpec(1 + (i % dim), 1 + ((i + 1) % dim), weight_range[0], weight_range[1])
        for i in range(count)
    )


def _block_dims(dim: int, count: int) -> list[int]:
    return [1 + ((i + 1) % dim) for i in range(count)]


def build_instances(plan: SuitePlan) -> list[FrameInstance]:
    """Generate the plan's frame grid: for every (dim, field, seed), one
    general and one Parseval instance of each frame kind."""
    instances = []
    for dim in plan.dims:
        for fld in plan.fields:
            for seed in plan.seeds:
                tag = f"dim={dim},field={fld.value},seed={seed}"
                block_dims = _block_dims(dim, plan.components)
                spec = GenSpec(dim, _component_specs(dim, plan.components, plan.weight_range), fld, seed)
                try:
                    frames = [
                        ("gframe", random_gframe(dim, block_dims, fld, seed)),
                        ("gframe", random_parseval_gframe(dim, block_dims, fld, seed)),
                        ("gfusion", random_gfusion(spec)),
                        ("gfusion", random_parseval_gfusion(spec)),
                    ]
                except GenerationFailed as exc:
                    raise GenerationFailed(
                        f"cannot generate instances at dim {dim} with block dims "
                        f"{block_dims} ({fld.value}, seed {seed}): {exc}"
                    ) from exc
                for kind, frame in frames:
                    parseval = frame.is_parseval
                    label = f"{kind}{'-parseval' if parseval else ''}[{tag}]"
                    instances.append(
                        FrameInstance(kind, parseval, dim, fld, seed, label, frame)
                    )
    return instances


def subsets_for(count: int, plan: SuitePlan, seed: int) -> list[tuple[int, ...]]:
    """Every subset when feasible or when the sample would be as large,
    otherwise a seeded sample always containing the empty and the full
    subset."""
    if count <= plan.exhaustive_subset_limit or 2**count <= plan.subset_samples:
        return [
            tuple(c)
            for k in range(count + 1)
            for c in itertools.combinations(range(count), k)
        ]
    rng = substream(seed, _SUBSET_STREAM)
    picks = {(), tuple(range(count))}
    while len(picks) < plan.subset_samples:
        mask = rng.integers(0, 2, size=count)
        picks.add(tuple(int(j) for j in np.nonzero(mask)[0]))
    return sorted(picks, key=lambda s: (len(s), s))


class _Accumulator:
    def __init__(self):
        self.instances = 0
        self.evaluations = 0
        self.max_residual = None
        self.min_margin = None
        self.passed = True
        self.witnesses = []
        self.witness_count = 0
        self.stats = None

    def add(self, result: CheckResult, instance: FrameInstance, plan: SuitePlan):
        self.evaluations += len(result.residuals) + len(result.margins)
        if result.residuals:
            top = max(result.residuals)
            self.max_residual = top if self.max_residual is None else max(self.max_residual, top)
        if result.margins:
            low = min(result.margins)
            self.min_margin = low if self.min_margin is None else min(self.min_margin, low)
        self.passed = self.passed and result.passed
        if result.witness is not None:
            self.witness_count += 1
            if len(self.witnesses) < plan.witness_limit:
                enriched = {
                    "kind": instance.kind,
                    "parseval": instance.parseval,
                    "dim": instance.dim,
                    "field": instance.field.value,
                    "seed": instance.seed,
                    "label": instance.label,
                }
                enriched.update(result.witness)
                self.witnesses.append(enriched)
        if result.stats:
            if self.stats is None:
                self.stats = dict(result.stats)
            else:
                for key, value in result.stats.items():
                    self.stats[key] = max(self.stats.get(key, value), value)

    def summary(self, check: CheckId) -> CheckSummary:
        return CheckSummary(
            check,
            self.instances,
            self.evaluations,
            self.max_residual,
            self.min_margin,
            self.passed,
            self.witness_count,
            self.witnesses,
            self.stats,
        )


def _applicable(info: CheckInfo, instance: FrameInstance) -> bool:
    if info.kind != "any" and info.kind != instance.kind:
        return False
    if info.parseval_only and not instance.parseval:
        return False
    return True


def run_suite(plan: SuitePlan, frame=None) -> RunReport:
    """Run the plan's checks over generated instances (or one given frame).

    Aggregation is deterministic: instances are visited in plan order and
    summaries are sorted by check id.  The overall verdict is the
    conjunction of all non-probe check verdicts.
    """
    start = time.perf_counter()
    if frame is not None:
        instances = [
            FrameInstance(
                frame_kind(frame),
                frame.is_parseval,
                frame.dim_h,
                Field.COMPLEX if np.iscomplexobj(frame.frame_operator) else Field.REAL,
                None,
                plan.frame_path or "loaded-frame",
                frame,
            )
        ]
    else:
        instances = build_instances(plan)
    accumulators: dict[CheckId, _Accumulator] = {}
    for instance in instances:
        seed = instance.seed if instance.seed is not None else 0
        vectors = sample_vectors(
            instance.frame.dim_h, instance.field, seed, plan.vectors_per_instance
        )
        subsets = subsets_for(_index_count(instance.frame), plan, seed)
        for check in plan.checks:
            info = CATALOG[check]
            if not _applicable(info, instance):
                continue
            acc = accumulators.setdefault(check, _Accumulator())
            acc.instances += 1
            if not info.subsets:
                acc.add(run_check(check, instance.frame, None, vectors, plan.tol), instance, plan)
                continue
            # one call per chunk keeps the results held at once to a chunk's worth
            for chunk in _chunks(subsets, instance.frame.dim_h):
                for result in run_check(check, instance.frame, vectors=vectors, tol=plan.tol,
                                        subsets=chunk):
                    acc.add(result, instance, plan)
    summaries = [
        accumulators[check].summary(check)
        for check in sorted(accumulators, key=lambda c: c.value)
    ]
    overall = all(s.passed for s in summaries)
    return RunReport(plan, summaries, overall, time.perf_counter() - start)
