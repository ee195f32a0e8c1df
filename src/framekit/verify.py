"""Named verification checks and the suite runner.

Each check evaluates one target identity or inequality on a frame instance
and reports residuals and/or Loewner margins; ``run_suite`` sweeps seeded
random instances, aggregates per-check extremes into a report, and renders
an overall verdict.  Probe checks record counterexample witnesses without
affecting the verdict.

Every check takes its subsets in chunks of at most ``_CHUNK_ENTRIES``
matrix entries (64 subsets at d = 8), but of no fewer than
``_CHUNK_SUBSETS`` subsets (4 at d = 32 and d = 64), through one contract:
its entry in ``_EVALUATORS``, the one table from check id to evaluator,
takes a chunk context (``_Chunk``: the frame, the chunk's subsets and the
sample vectors) and returns the chunk's residual and margin rows.
``_evaluate`` decides which rows fail by one rule, for both routes: a row
fails when a residual is not <= the residual tolerance or a margin is not
>= minus the margin tolerance, so a NaN fails.  ``run_suite`` walks
instance -> chunk -> check: it cuts an instance's generated subsets into
chunks, hands each chunk's one context to every check in turn, and folds
each check's arrays straight into its ``CheckSummary``; no per-subset
result is built.  What several checks read is computed once per chunk, on
first read, by the expression a single check would use, so sharing changes
no bit of a report: the 0/1 rows [K, 1 - K] of the chunk's subsets and
their complements, one ``subset_sums`` call per stack pair, whose
(k, V, ...) arrays cover the chunk's k subsets and V vectors, the partial
sums, their squares and the sandwich margins that THM38_I shares.  A check
that takes no subsets (EQ4_RECON, EQ5_DUAL_RECON, EQ6_QUADFORM, LEMMA_L0)
gets the one chunk [None].  ``run_check`` builds one context per chunk for
its one check and cuts the same rows into one ``CheckResult`` per subset; a
single subset is a chunk of one.  Inputs are validated at the API
boundary: ``run_check`` validates the subsets and vectors its caller
passes, and ``run_suite`` the sample vectors once per instance, while the
subsets of ``subsets_for`` are sorted, distinct and in range by
construction.  A finite vector can still overflow in its stacked images
or their inner products: ``subset_sums`` then raises ``ValueError`` for
the chunk, and no warning.
The eight operator checks take partial sums from the rows over the frame's
term stacks, then one stacked ``linops`` call for the margins, spectra or
complement residuals.  The six interval checks among them share two
evaluators, 0 <= A - A^2 <= U/4 and U/2 <= A^2 +- B^2 <= 3U/2, over the
chunk's two operand families (``_Family``): P, Q in units of I, and M, M'
in units of S.  The eleven per-vector checks are each one array expression
over the chunk; the identity functions of ``gframe`` and ``gfusion`` use
the same expressions on a 1 x 1 stack.  LEMMA_L0 loops over the components.
``inapplicable`` is the one rule for which checks apply to which frame.

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
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

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
    as_vector,
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


def _json_vector(f: np.ndarray) -> list:
    if np.iscomplexobj(f):
        return [[float(z.real), float(z.imag)] for z in f]
    return [float(x) for x in f]


# Every check is one evaluator taking a chunk's ``_Chunk`` and returning
# (residuals, margins, stats, worst): (k, r) and (k, m) arrays, a dict of
# length-k arrays and each row's index into the chunk's vectors of its worst
# vector (the first, where tied), each None where the check has none.  A
# chunk holds at most this many matrix entries, 64 subsets at d = 8, but
# never fewer than _CHUNK_SUBSETS subsets: 4 at d = 32 and at d = 64.  Up to
# d = 32 larger chunks gain no speed and raise peak memory; at d = 64 a
# chunk of one pays the chunk's fixed cost per subset, and chunks of 16 were
# no faster than chunks of 4 but raised the peak allocation of one pass over
# a complex dim-64 frame from about 5 to 14 MiB.
_CHUNK_ENTRIES = 4096
_CHUNK_SUBSETS = 4


class _Chunk:
    """One chunk of subsets on one frame, and what its checks share.

    ``subsets`` are sorted tuples of distinct indices in range ([None] for
    the checks that take none) and ``vectors`` the validated sample vectors,
    which a witness records; the caller validates both.  Every other member
    is computed on first read, by the expression a single check would use,
    and then read by every check of the chunk: the vectors' squared norms,
    the 0/1 rows of the subsets and of their complements, the chunk's
    ``subset_sums`` over the frame's own stack and over the stack and its
    canonical dual, one call each, and the interval checks' two operand
    families, P and Q = P_{I^c}, and M and M' = M_{I^c}; SPECTRUM_REMARK
    and LEMMA_L2 read the Parseval family's P.
    """

    def __init__(self, frame, subsets, vectors):
        self.frame = frame
        self.subsets = subsets
        self.vectors = vectors

    @functools.cached_property
    def norms_sq(self) -> np.ndarray:
        """||f||^2 of each validated vector, shape (V,)."""
        return np.array([np.vdot(f, f).real for f in self.vectors])

    @functools.cached_property
    def sides(self) -> np.ndarray:
        """[K, 1 - K], shape (2, k, n): ``subset_masks`` of the chunk."""
        return gf.subset_masks(len(self.frame), self.subsets)

    @functools.cached_property
    def own_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per subset I and vector f, the subset and complement energies
        (k, V, 2) and M_I f, M_K f (k, V, d, 2): ``subset_sums`` of the
        frame's stack with itself."""
        stack = self.frame._stacked_analysis
        return gf.subset_sums(stack, stack, self.sides, self.vectors)

    @functools.cached_property
    def dual_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """``subset_sums`` of the frame's stack with its canonical dual's."""
        return gf.subset_sums(self.frame._stacked_analysis,
                              self.frame.canonical_dual._stacked_analysis, self.sides, self.vectors)

    @functools.cached_property
    def parseval(self) -> _Family:
        return _Family(self.frame._dual_term_stack, self.sides, 1.0, 1.0)

    @functools.cached_property
    def relative(self) -> _Family:
        frame = self.frame
        return _Family(frame._component_term_stack, self.sides, frame.frame_operator,
                       max(1.0, frame.upper_bound), frame.inverse_sqrt)


class _Family:
    """One operand family of the six interval checks, and their two
    evaluators: the partial sums A and B = U - A of a chunk's subsets and of
    their complements (``masked_sums`` of ``stack`` over the two rows of
    ``sides``), the unit U of the bounds and the divisor of the margins.  The
    Parseval family is P, Q with U = I and margins unscaled; the S-relative
    one is M, M' with U = S and margins over max(1, ||S||).  A, B, A^2 and
    B^2 are each computed on first read, the squares as A A without
    ``root``; with ``root`` = S^(-1/2), M S^-1 M is taken as G G* with
    G = M S^(-1/2), which is Hermitian to rounding at any condition number."""

    def __init__(self, stack, sides, unit, scale, root=None):
        self._stack, self._sides = stack, sides
        self.unit, self.scale, self._root = unit, scale, root

    @functools.cached_property
    def a(self) -> np.ndarray:
        return gf.masked_sums(self._stack, self._sides[0])

    @functools.cached_property
    def b(self) -> np.ndarray:
        return gf.masked_sums(self._stack, self._sides[1])

    def _square(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            return x @ x
        g = x @ self._root
        return g @ adjoint(g)

    @functools.cached_property
    def a_sq(self) -> np.ndarray:
        return self._square(self.a)

    @functools.cached_property
    def b_sq(self) -> np.ndarray:
        return self._square(self.b)

    def _interval(self, t, lower, upper):
        lm = loewner_check(t, lower, upper, tol=0.0)
        return None, np.column_stack([lm.lower_margin, lm.upper_margin]) / self.scale, None, None

    @functools.cached_property
    def sandwich(self):
        """0 <= A - A^2 <= U/4, which COR2_SANDWICH and THM38_I share."""
        return self._interval(self.a - self.a_sq, 0.0, 0.25 * self.unit)

    def square_sum(self, sign: float):
        """U/2 <= A^2 + sign B^2 <= 3U/2."""
        return self._interval(self.a_sq + sign * self.b_sq, 0.5 * self.unit, 1.5 * self.unit)


def _per_norm(values, norms):
    """``values`` over ``norms`` (broadcast against them), 0 where a norm is
    0, so a zero vector divides nothing."""
    return np.divide(values, norms, out=np.zeros(np.shape(values)), where=norms != 0.0)


def _identity_residuals(t, chunk):
    """Normalized |lhs - rhs| and |Im(lhs - rhs)| per (subset, vector), from
    the chunk's (k, V) ``IdentityTerms`` stack ``t``."""
    scales = np.maximum(1.0, chunk.norms_sq)
    r = t.residual / scales
    imag = np.abs(np.imag(t.lhs - t.rhs)) / scales
    rows = np.stack([r, imag], axis=-1).reshape(len(chunk.subsets), -1)
    return rows, None, None, r.argmax(axis=1)


def _pointwise_bound(whitened, chunk):
    """Margins of e_I(f) + ||R M_K f||^2 >= c ||f||^2 over ||f||^2, with K the
    complement: R = I and c = 3/4 (COR1_34BOUND), or R = S^(-1/2) and
    c = (3/4) A when ``whitened`` (COR_34_SINV).  A zero vector's margin is 0."""
    frame = chunk.frame
    sums, images = chunk.own_sums
    floor = 0.75 * frame.lower_bound if whitened else 0.75
    m_k = images[..., 1:]
    tails = gf._norms_sq(frame.inverse_sqrt @ m_k if whitened else m_k)[..., 0]
    n2 = chunk.norms_sq
    margins = _per_norm(sums[..., 0].real + tails - floor * n2, n2)
    return None, margins, None, margins.argmin(axis=1)


def _operator_maps(frame):
    s, si = frame.frame_operator, frame.inverse
    return (lambda f: s @ (si @ f)), (lambda f: si @ (s @ f))


def _dual_maps(frame):
    s_full = frame.partial_sum(range(len(frame)))
    s_full_adj = adjoint(s_full)
    return (lambda f: s_full @ f), (lambda f: s_full_adj @ f)


def _reconstruction(maps, chunk):
    """Relative errors ||g(f) - f|| / ||f|| of the two maps g in ``maps(frame)``,
    0 for a zero vector."""
    x = np.array(chunk.vectors).T
    errors = np.stack([np.linalg.norm(g(x) - x, axis=0) for g in maps(chunk.frame)], axis=-1)
    errors = _per_norm(errors, np.sqrt(chunk.norms_sq)[:, None])
    return errors.reshape(1, -1), None, None, errors.max(axis=1).argmax(keepdims=True)


def _eq6_quadform(chunk):
    gaps = gfu.inverse_quadratic_residual(chunk.frame, np.array(chunk.vectors))
    residuals = _per_norm(gaps, chunk.norms_sq)[None]
    return residuals, None, None, residuals.argmax(axis=1)


def _lemma_l0(chunk):
    t = chunk.frame.inverse
    tn = operator_norm(t)
    residuals = [projected_adjoint_residual(c.basis, t) / tn for c in chunk.frame.components]
    return np.array([residuals]), None, None, None


def _spectrum_remark(chunk):
    vals = np.linalg.eigvals(chunk.parseval.a)
    margins = np.column_stack([vals.real.min(axis=-1), 1.0 - vals.real.max(axis=-1)])
    residuals = np.abs(vals.imag).max(axis=-1)[:, None]
    return residuals, margins, {"spectral_radius": np.abs(vals).max(axis=-1)}, None


def _lemma_l2(chunk):
    return complement_identity_residual(chunk.parseval.a)[:, None], None, None, None


# The identity checks take their (k, V) ``IdentityTerms`` stack from the
# chunk's shared sums, by the expression their module function
# (``gframe.partition_identity`` and the like) uses on one pair.
_EVALUATORS = {
    CheckId.THM_T1: lambda c: _identity_residuals(gf.identity_terms(*c.dual_sums), c),
    CheckId.FAMOUS_PARSEVAL: lambda c: _identity_residuals(gf.identity_terms(*c.own_sums), c),
    CheckId.THM_TG1: lambda c: _identity_residuals(gf.identity_terms(*c.dual_sums), c),
    CheckId.COR1_IDENTITY: lambda c: _identity_residuals(gf.identity_terms(*c.own_sums), c),
    CheckId.THM_T33: lambda c: _identity_residuals(
        gfu.whitened_terms(c.frame.inverse_sqrt, *c.own_sums), c),
    CheckId.THM_FINAL_MI: lambda c: _identity_residuals(
        gfu.dual_energy_terms(c.frame.canonical_dual._stacked_analysis, *c.own_sums), c),
    CheckId.COR1_34BOUND: functools.partial(_pointwise_bound, False),
    CheckId.COR_34_SINV: functools.partial(_pointwise_bound, True),
    CheckId.EQ4_RECON: functools.partial(_reconstruction, _operator_maps),
    CheckId.EQ5_DUAL_RECON: functools.partial(_reconstruction, _dual_maps),
    CheckId.EQ6_QUADFORM: _eq6_quadform,
    CheckId.LEMMA_L0: _lemma_l0,
    CheckId.COR2_SANDWICH: lambda c: c.parseval.sandwich,
    CheckId.THM38_I: lambda c: c.parseval.sandwich,
    CheckId.THM38_II: lambda c: c.parseval.square_sum(1.0),
    CheckId.COR3_SANDWICH: lambda c: c.relative.sandwich,
    CheckId.COR39_PLUS: lambda c: c.relative.square_sum(1.0),
    CheckId.COR39_MINUS_PROBE: lambda c: c.relative.square_sum(-1.0),
    CheckId.SPECTRUM_REMARK: _spectrum_remark,
    CheckId.LEMMA_L2: _lemma_l2,
}


def _chunks(subsets, dim: int) -> list:
    """Consecutive runs of ``max(_CHUNK_SUBSETS, _CHUNK_ENTRIES // dim**2)``
    subsets (the last may be shorter)."""
    size = max(_CHUNK_SUBSETS, _CHUNK_ENTRIES // dim**2)
    return [subsets[start:start + size] for start in range(0, len(subsets), size)]


def _contexts(frame, subsets, vectors):
    """One ``_Chunk`` per chunk of the validated ``subsets``, made as the
    caller reaches it; ``subsets`` None gives the one chunk [None]."""
    for chunk in [[None]] if subsets is None else _chunks(subsets, frame.dim_h):
        yield _Chunk(frame, chunk, vectors)


class _Rows(NamedTuple):
    """One check's values on the k rows of one chunk, as both routes read
    them: ``run_suite`` folds them into a ``CheckSummary`` and ``run_check``
    cuts them into one ``CheckResult`` per row."""

    residuals: np.ndarray  # (k, r); r is 0 for a check without residuals
    margins: np.ndarray  # (k, m); m is 0 for a check without margins
    stats: dict | None  # stat name -> (k,) values
    failing: np.ndarray  # the indices of the failing rows, in order
    passed: bool
    witness: Callable[[int], dict]  # a failing row's witness, made on request


def _evaluate(check: CheckId, chunk: _Chunk, tol: Tolerances) -> _Rows:
    """One check on one chunk, and its failing rows by the one rule both
    routes share: a row fails when a residual is not <= ``tol.residual`` or
    a margin is not >= ``-tol.margin``, so a NaN fails.  A probe passes even
    when its printed inequality is violated."""
    residuals, margins, stats, worst = _EVALUATORS[check](chunk)
    k = len(chunk.subsets)
    residuals = np.empty((k, 0)) if residuals is None else residuals
    margins = np.empty((k, 0)) if margins is None else margins
    failing = np.flatnonzero(~(residuals <= tol.residual).all(axis=1)
                             | ~(margins >= -tol.margin).all(axis=1))

    def witness(i: int) -> dict:
        subset = chunk.subsets[i]
        return {
            "subset": None if subset is None else list(subset),
            "vector": None if worst is None else _json_vector(chunk.vectors[worst[i]]),
            # np.max and np.min keep a NaN where max and min may drop it
            "max_residual": float(residuals[i].max()) if residuals.size else None,
            "min_margin": float(margins[i].min()) if margins.size else None,
        }

    return _Rows(residuals, margins, stats, failing,
                 CATALOG[check].probe or not failing.size, witness)


def _run_chunk(check: CheckId, chunk: _Chunk, tol: Tolerances) -> list[CheckResult]:
    """One check on one chunk: one result per subset, in order."""
    rows = _evaluate(check, chunk, tol)
    failing = set(rows.failing.tolist())
    probe = CATALOG[check].probe
    return [
        CheckResult(check, rows.residuals[i].tolist(), rows.margins[i].tolist(),
                    probe or i not in failing, rows.witness(i) if i in failing else None,
                    None if rows.stats is None
                    else {key: float(v[i]) for key, v in rows.stats.items()})
        for i in range(len(chunk.subsets))
    ]


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
    chunk of one, so both calls give the same results.  The subsets and
    vectors are validated here, once, before any chunk is evaluated.
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
    js = [frame._validate_subset(s) for s in group] if info.subsets else None
    chunks = _contexts(frame, js, [as_vector(f, frame.dim_h) for f in vectors])
    results = [result for chunk in chunks for result in _run_chunk(check, chunk, tol)]
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


@dataclass(frozen=True)
class SuitePlan:
    """Sweep description: instance grid, sampling policy, and tolerances."""

    dims: tuple[int, ...] = (2, 3, 5, 8)
    fields: tuple[Field, ...] = (Field.REAL, Field.COMPLEX)
    seeds: tuple[int, ...] = tuple(range(10))
    components: int = 4
    vectors_per_instance: int = 8
    weight_range: tuple[float, float] = (0.5, 2.0)
    checks: tuple[CheckId, ...] = tuple(CheckId)
    tol: Tolerances = field(default_factory=Tolerances)
    exhaustive_subset_limit: int = 12
    subset_samples: int = 256
    witness_limit: int = 8
    frame_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "fields", tuple(Field(f) for f in self.fields))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        # a repeated check runs once, where it first appears
        checks = dict.fromkeys(CheckId(c) for c in self.checks)
        object.__setattr__(self, "checks", tuple(checks))
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
        if self.subset_samples < 2:
            raise ValueError("subset_samples must be at least 2: the empty and the full subset")
        if self.witness_limit < 0:
            raise ValueError("witness_limit must be nonnegative")

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


def _fold(old: float | None, new: float, pick) -> float:
    """``new`` folded into the running extreme ``old`` by ``pick``
    (np.maximum or np.minimum, which keep a NaN)."""
    return float(new) if old is None else float(pick(old, new))


@dataclass
class CheckSummary:
    """Aggregate of one check across all instances and subsets.

    ``run_suite`` folds each chunk's residual and margin arrays straight in
    (``fold``): the evaluations grow by the array sizes, the extremes come
    from one max or min per array, and a witness is built only for the
    first ``witness_limit`` failing rows, in plan order.  ``add`` folds one
    ``CheckResult`` by the same code, as a chunk of one row.  A NaN residual
    or margin fails its row and reaches ``max_residual`` or ``min_margin``.
    """

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
        """Fold one result in, as a chunk of one row."""
        stats = result.stats and {key: np.array([v]) for key, v in result.stats.items()}
        rows = _Rows(np.array([result.residuals], dtype=float),
                     np.array([result.margins], dtype=float), stats,
                     np.flatnonzero([result.witness is not None]), result.passed,
                     lambda i: result.witness)
        self.fold(rows, instance, witness_limit)

    def fold(self, rows: _Rows, instance: FrameInstance, witness_limit: int):
        """Fold one chunk's rows in: extremes, verdict, witnesses (the first
        ``witness_limit``, tagged with the instance) and the largest stats."""
        self.evaluations += rows.residuals.size + rows.margins.size
        if rows.residuals.size:
            self.max_residual = _fold(self.max_residual, rows.residuals.max(), np.maximum)
        if rows.margins.size:
            self.min_margin = _fold(self.min_margin, rows.margins.min(), np.minimum)
        self.passed = self.passed and rows.passed
        for i in rows.failing[:witness_limit - len(self.witnesses)].tolist():
            self.witnesses.append({
                "kind": instance.kind,
                "parseval": instance.parseval,
                "dim": instance.dim,
                "field": instance.field.value,
                "seed": instance.seed,
                "label": instance.label,
                **rows.witness(i),
            })
        self.witness_count += rows.failing.size
        if rows.stats:
            self.stats = self.stats or {}
            for key, values in rows.stats.items():
                self.stats[key] = _fold(self.stats.get(key), values.max(), np.maximum)

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


def _block_dims(dim: int, count: int) -> list[int]:
    return [1 + ((i + 1) % dim) for i in range(count)]


def _component_specs(dim: int, count: int, weight_range) -> tuple[ComponentSpec, ...]:
    # cycle subspace dimensions through 1..dim and codomain dimensions one
    # ahead (the g-frames' block dimensions), so small plans still mix
    # square and rectangular blocks
    return tuple(
        ComponentSpec(1 + (i % dim), rows, weight_range[0], weight_range[1])
        for i, rows in enumerate(_block_dims(dim, count))
    )


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
    subset.  Each subset is a sorted tuple of distinct indices in range, so
    ``run_suite`` hands them to the checks without validating them again."""
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
        instances = [FrameInstance(frame_kind(frame), frame.is_parseval, frame.dim_h, frame.field,
                                   None, plan.frame_path or "loaded-frame", frame)]
    else:
        instances = build_instances(plan)
    summaries: dict[CheckId, CheckSummary] = {}
    for instance in instances:
        frame = instance.frame
        seed = instance.seed if instance.seed is not None else 0
        vectors = [as_vector(f, frame.dim_h) for f in
                   sample_vectors(frame.dim_h, instance.field, seed, plan.vectors_per_instance)]
        subsets = subsets_for(len(frame), plan, seed)
        checks = [check for check in plan.checks if inapplicable(CATALOG[check], frame) is None]
        for check in checks:
            summaries.setdefault(check, CheckSummary(check)).instances += 1
        # the checks that take no subsets share one chunk, the others each
        # chunk of the instance's subsets; one chunk is held at a time
        for takes_subsets in (False, True):
            group = [check for check in checks if CATALOG[check].subsets == takes_subsets]
            if not group:
                continue
            chunks = _contexts(frame, subsets if takes_subsets else None, vectors)
            for chunk in chunks:
                for check in group:
                    summaries[check].fold(_evaluate(check, chunk, plan.tol), instance,
                                          plan.witness_limit)
    ordered = [summaries[check] for check in sorted(summaries, key=lambda c: c.value)]
    overall = all(s.passed for s in ordered)
    return RunReport(plan, ordered, overall, time.perf_counter() - start)
