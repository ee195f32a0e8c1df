"""Named verification checks and the suite runner.

Each check evaluates one target identity or inequality on a frame instance
and reports residuals and/or Loewner margins; ``run_suite`` sweeps seeded
random instances, aggregates per-check extremes into a report, and renders
an overall verdict.  Probe checks record counterexample witnesses without
affecting the verdict.

Every check takes its subsets in chunks of at most ``_CHUNK_ENTRIES``
matrix entries, through one contract: ``_evaluate`` validates each subset
once, cuts the chunks, builds each chunk's 0/1 subset masks and hands
(frame, chunk, masks, vectors) to the check's entry in ``_EVALUATORS``.  A
check that takes no subsets (EQ4_RECON, EQ5_DUAL_RECON, EQ6_QUADFORM,
LEMMA_L0) gets the one chunk [None].  ``run_suite`` calls
``run_check(..., subsets=chunk)`` once per chunk; a single subset is a
chunk of one.  The eight operator checks evaluate a chunk at once: partial
sums from the masks over the frame's term stacks, then one stacked
``linops`` call for the margins, spectra or complement residuals.  The
other twelve loop over the chunk's (subset, vector) pairs, the identities
through the functions ``_IDENTITIES`` looks up at call time; LEMMA_L0 loops
over the components.  ``inapplicable`` is the one rule for which checks
apply to which frame.

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
import functools
import itertools
import math
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
    "inapplicable",
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
        # NaN fails both comparisons, so it is refused too
        if not (0 <= self.residual < math.inf and 0 <= self.margin < math.inf):
            raise ValueError("tolerances must be finite and nonnegative")


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


# The identity checks: check id -> (module, function name).  The function is
# looked up when the check runs, so a module attribute replaced later (a
# tracing or counting wrapper) is the one called.
_IDENTITIES = {
    CheckId.THM_T1: (gf, "partition_identity"),
    CheckId.FAMOUS_PARSEVAL: (gf, "parseval_partition_identity"),
    CheckId.THM_TG1: (gfu, "partition_identity"),
    CheckId.COR1_IDENTITY: (gfu, "parseval_partition_identity"),
    CheckId.THM_T33: (gfu, "whitened_partition_identity"),
    CheckId.THM_FINAL_MI: (gfu, "frame_partition_identity"),
}


# Every check is one evaluator (frame, chunk, masks, vectors) -> (residuals,
# margins, stats, worst): (k, r) and (k, m) arrays, a dict of length-k arrays
# and each row's index into ``vectors`` of its worst vector (the first, where
# tied), each None where the check has none.  A chunk holds at most this many
# matrix entries: 64 subsets at d = 8, one at d = 64.  Larger chunks gain no
# speed and raise peak memory.
_CHUNK_ENTRIES = 4096


def _identity_residuals(source, frame, chunk, masks, vectors):
    """Normalized |lhs - rhs| and |Im(lhs - rhs)| per sample vector."""
    fn = getattr(*source)
    # (lhs, rhs, residual) per (subset, vector)
    terms = np.array([[fn(frame, js, f) for f in vectors] for js in chunk], dtype=complex)
    scales = np.array([max(1.0, _norm_sq(f)) for f in vectors])
    r = terms[..., 2].real / scales
    imag = np.abs((terms[..., 0] - terms[..., 1]).imag) / scales
    return np.stack([r, imag], axis=-1).reshape(len(chunk), -1), None, None, r.argmax(axis=1)


def _margins_of(lm, scale=1.0):
    return np.column_stack([lm.lower_margin, lm.upper_margin]) / scale


def _s_scale(frame) -> float:
    return max(1.0, frame.upper_bound)


def _pointwise_bound(whitened, frame, chunk, masks, vectors):
    """Margins of e_I(f) + ||R M_K f||^2 >= c ||f||^2 over ||f||^2, with K the
    complement: R = I and c = 3/4 (COR1_34BOUND), or R = S^(-1/2) and
    c = (3/4) A when ``whitened`` (COR_34_SINV).  A zero vector's margin is 0."""
    r = frame.inverse_sqrt if whitened else None
    floor = 0.75 * frame.lower_bound if whitened else 0.75
    norms = [_norm_sq(f) for f in vectors]
    margins = np.zeros((len(chunk), len(vectors)))
    for i, js in enumerate(chunk):
        for v, (f, n2) in enumerate(zip(vectors, norms)):
            if n2 != 0.0:
                e, m = gfu.truncated_images(frame, js, f)
                tail = m[:, 1] if r is None else r @ m[:, 1]
                margins[i, v] = (float(e[0]) + _norm_sq(tail) - floor * n2) / n2
    return None, margins, None, margins.argmin(axis=1)


def _operator_maps(frame):
    s, si = frame.frame_operator, frame.inverse
    return (lambda f: s @ (si @ f)), (lambda f: si @ (s @ f))


def _dual_maps(frame):
    s_full = frame.partial_sum(range(len(frame)))
    s_full_adj = adjoint(s_full)
    return (lambda f: s_full @ f), (lambda f: s_full_adj @ f)


def _reconstruction(maps, frame, chunk, masks, vectors):
    """Relative errors ||g(f) - f|| / ||f|| of the two maps g in ``maps(frame)``,
    0 for a zero vector."""
    first, second = maps(frame)
    errors = np.zeros((len(vectors), 2))
    for v, f in enumerate(vectors):
        nf = float(np.sqrt(_norm_sq(f)))
        if nf != 0.0:
            errors[v] = (float(np.linalg.norm(first(f) - f)) / nf,
                         float(np.linalg.norm(second(f) - f)) / nf)
    return errors.reshape(1, -1), None, None, errors.max(axis=1).argmax(keepdims=True)


def _eq6_quadform(frame, chunk, masks, vectors):
    residuals = np.zeros((1, len(vectors)))
    for v, f in enumerate(vectors):
        n2 = _norm_sq(f)
        if n2 != 0.0:
            residuals[0, v] = gfu.inverse_quadratic_residual(frame, f) / n2
    return residuals, None, None, residuals.argmax(axis=1)


def _lemma_l0(frame, chunk, masks, vectors):
    t = frame.inverse
    tn = operator_norm(t)
    residuals = [projected_adjoint_residual(c.basis, t) / tn for c in frame.components]
    return np.array([residuals]), None, None, None


# The operator checks take a chunk's partial sums from 0/1 masks over the
# frame's term stacks, and its margins, spectra and complement residuals
# from one stacked ``linops`` call each.
def _partials(frame, masks):
    return gf.masked_sums(frame._dual_term_stack, masks)


def _frame_partials(frame, masks):
    return gf.masked_sums(frame._component_term_stack, masks)


def _sandwich(frame, chunk, masks, vectors):
    p = _partials(frame, masks)
    lm = loewner_check(p - p @ p, 0.0, 0.25, tol=0.0)
    return None, _margins_of(lm), None, None


def _thm38_ii(frame, chunk, masks, vectors):
    p = _partials(frame, masks)
    q = _partials(frame, 1.0 - masks)
    lm = loewner_check(p @ p + q @ q, 0.5, 1.5, tol=0.0)
    return None, _margins_of(lm), None, None


def _cor3_sandwich(frame, chunk, masks, vectors):
    m = _frame_partials(frame, masks)
    x = m - m @ frame.inverse @ m
    lm = loewner_check(x, 0.0, 0.25 * frame.frame_operator, tol=0.0)
    return None, _margins_of(lm, _s_scale(frame)), None, None


def _cor39(sign):
    def evaluate(frame, chunk, masks, vectors):
        m = _frame_partials(frame, masks)
        mc = _frame_partials(frame, 1.0 - masks)
        si = frame.inverse
        x = m @ si @ m + sign * (mc @ si @ mc)
        s = frame.frame_operator
        lm = loewner_check(x, 0.5 * s, 1.5 * s, tol=0.0)
        return None, _margins_of(lm, _s_scale(frame)), None, None

    return evaluate


def _spectrum_remark(frame, chunk, masks, vectors):
    vals = np.linalg.eigvals(_partials(frame, masks))
    margins = np.column_stack([vals.real.min(axis=-1), 1.0 - vals.real.max(axis=-1)])
    residuals = np.abs(vals.imag).max(axis=-1)[:, None]
    return residuals, margins, {"spectral_radius": np.abs(vals).max(axis=-1)}, None


def _lemma_l2(frame, chunk, masks, vectors):
    return complement_identity_residual(_partials(frame, masks))[:, None], None, None, None


_EVALUATORS = {
    **{check: functools.partial(_identity_residuals, source)
       for check, source in _IDENTITIES.items()},
    CheckId.COR1_34BOUND: functools.partial(_pointwise_bound, False),
    CheckId.COR_34_SINV: functools.partial(_pointwise_bound, True),
    CheckId.EQ4_RECON: functools.partial(_reconstruction, _operator_maps),
    CheckId.EQ5_DUAL_RECON: functools.partial(_reconstruction, _dual_maps),
    CheckId.EQ6_QUADFORM: _eq6_quadform,
    CheckId.LEMMA_L0: _lemma_l0,
    CheckId.COR2_SANDWICH: _sandwich,
    CheckId.THM38_I: _sandwich,
    CheckId.THM38_II: _thm38_ii,
    CheckId.COR3_SANDWICH: _cor3_sandwich,
    CheckId.COR39_PLUS: _cor39(+1.0),
    CheckId.COR39_MINUS_PROBE: _cor39(-1.0),
    CheckId.SPECTRUM_REMARK: _spectrum_remark,
    CheckId.LEMMA_L2: _lemma_l2,
}


def _chunks(subsets, dim: int) -> list:
    """Consecutive runs of at most ``_CHUNK_ENTRIES // dim**2`` subsets (at least one)."""
    size = max(1, _CHUNK_ENTRIES // dim**2)
    return [subsets[start:start + size] for start in range(0, len(subsets), size)]


def _evaluate(info: CheckInfo, frame, subsets, vectors, tol: Tolerances) -> list[CheckResult]:
    """One result per subset, in order; a check that takes no subsets gives one."""
    js = [frame._validate_subset(s) for s in subsets] if info.subsets else [None]
    results = []
    for chunk in _chunks(js, frame.dim_h):
        masks = gf.subset_masks(len(frame), chunk) if info.subsets else None
        residuals, margins, stats, worst = _EVALUATORS[info.check](frame, chunk, masks, vectors)
        for i, subset in enumerate(chunk):
            res = [] if residuals is None else residuals[i].tolist()
            mar = [] if margins is None else margins[i].tolist()
            witness = None
            if any(r > tol.residual for r in res) or any(m < -tol.margin for m in mar):
                witness = {
                    "subset": None if subset is None else list(subset),
                    "vector": None if worst is None else _json_vector(vectors[worst[i]]),
                    "max_residual": max(res, default=None),
                    "min_margin": min(mar, default=None),
                }
            row_stats = None if stats is None else {key: float(v[i]) for key, v in stats.items()}
            # a probe passes even when its printed inequality is violated
            results.append(CheckResult(info.check, res, mar, info.probe or witness is None,
                                       witness, row_stats))
    return results


def frame_kind(frame) -> str:
    if isinstance(frame, gfu.GFusionFrame):
        return "gfusion"
    if isinstance(frame, gf.GFrame):
        return "gframe"
    raise TypeError(f"not a frame: {type(frame).__name__}")


def inapplicable(info: CheckInfo, frame) -> str | None:
    """Why ``info``'s check does not apply to ``frame``, or None when it does."""
    kind = frame_kind(frame)
    if info.kind != "any" and info.kind != kind:
        return f"{info.check.value} expects a {info.kind} frame, got {kind}"
    if info.parseval_only and not frame.is_parseval:
        return f"{info.check.value} requires a Parseval frame"
    return None


def run_check(check, frame, subset=None, vectors=(), tol: Tolerances | None = None, *,
              subsets=None):
    """Run one catalog check on one frame (and one subset, where used).

    Residuals and margins come back normalized per the module conventions;
    the verdict compares them against ``tol``.  Probe checks always pass but
    carry a witness when the printed inequality is violated.

    With ``subsets`` (a sequence of index subsets, for a check that uses
    them) it returns one ``CheckResult`` per subset, in the given order.
    Every check evaluates its subsets in chunks; a single ``subset`` is a
    chunk of one, so both calls give the same results.
    """
    check = CheckId(check)
    info = CATALOG[check]
    tol = tol if tol is not None else Tolerances()
    vectors = list(vectors)
    if subset is not None and subsets is not None:
        raise ValueError("give one subset or a sequence of subsets, not both")
    if not info.subsets and (subset is not None or subsets is not None):
        raise ValueError(f"{check.value} takes no index subsets")
    group = [subset] if subsets is None else list(subsets)
    reason = inapplicable(info, frame)
    if reason is not None:
        raise WrongFrameKind(reason)
    if info.subsets and any(s is None for s in group):
        raise ValueError(f"{check.value} needs an index subset")
    if info.vectors and not vectors:
        raise ValueError(f"{check.value} needs sample vectors")
    results = _evaluate(info, frame, group, vectors, tol)
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
    instances: int = 0
    evaluations: int = 0
    max_residual: float | None = None
    min_margin: float | None = None
    passed: bool = True
    witness_count: int = 0
    witnesses: list[dict] = field(default_factory=list)
    stats: dict | None = None

    def add(self, result: CheckResult, instance: FrameInstance, witness_limit: int):
        """Fold one result in: extremes, verdict, witnesses (the first
        ``witness_limit``, tagged with the instance) and the largest stats."""
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
            if len(self.witnesses) < witness_limit:
                self.witnesses.append({
                    "kind": instance.kind,
                    "parseval": instance.parseval,
                    "dim": instance.dim,
                    "field": instance.field.value,
                    "seed": instance.seed,
                    "label": instance.label,
                    **result.witness,
                })
        if result.stats:
            if self.stats is None:
                self.stats = dict(result.stats)
            else:
                for key, value in result.stats.items():
                    self.stats[key] = max(self.stats.get(key, value), value)

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
    summaries: dict[CheckId, CheckSummary] = {}
    for instance in instances:
        seed = instance.seed if instance.seed is not None else 0
        vectors = sample_vectors(
            instance.frame.dim_h, instance.field, seed, plan.vectors_per_instance
        )
        subsets = subsets_for(len(instance.frame), plan, seed)
        for check in plan.checks:
            info = CATALOG[check]
            if inapplicable(info, instance.frame) is not None:
                continue
            summary = summaries.setdefault(check, CheckSummary(check))
            summary.instances += 1
            if not info.subsets:
                summary.add(run_check(check, instance.frame, None, vectors, plan.tol), instance,
                            plan.witness_limit)
                continue
            # one call per chunk keeps the results held at once to a chunk's worth
            for chunk in _chunks(subsets, instance.frame.dim_h):
                for result in run_check(check, instance.frame, vectors=vectors, tol=plan.tol,
                                        subsets=chunk):
                    summary.add(result, instance, plan.witness_limit)
    ordered = [summaries[check] for check in sorted(summaries, key=lambda c: c.value)]
    overall = all(s.passed for s in ordered)
    return RunReport(plan, ordered, overall, time.perf_counter() - start)
