"""Named verification checks and the suite runner.

Each check evaluates one target identity or inequality on a frame instance
and reports residuals and/or Loewner margins; ``run_suite`` sweeps seeded
random instances, aggregates per-check extremes into a report, and renders
an overall verdict.  Probe checks record counterexample witnesses without
affecting the verdict.

Every check is one ``CATALOG`` entry, which carries its evaluator: it takes
a chunk context (``_Chunk``: the frame, the chunk's subsets and the sample
vectors) and returns the chunk's (residuals, margins, stats) rows.  A chunk
holds at most ``_CHUNK_ENTRIES`` matrix entries (64 subsets at d = 8), but
no fewer than ``_CHUNK_SUBSETS`` subsets (4 at d = 32 and d = 64).
``_evaluate`` decides which rows fail by one rule, for both routes: a row
fails when a residual is not <= the residual tolerance or a margin is not
>= minus the margin tolerance, so a NaN fails.  It also picks every
per-vector check's witness vector: such a row holds its V vectors side by
side, and the witness is the first vector with the largest residual or the
smallest margin.  ``_walk`` is the one traversal from chunk to rows: it
yields (check, chunk, rows) over a frame's chunks, one chunk held at a
time, the checks that take no subsets (EQ4_RECON, EQ5_DUAL_RECON,
EQ6_QUADFORM, LEMMA_L0) first, on the one chunk [None].  ``run_suite``
folds what it yields straight into each check's ``CheckSummary``, with no
per-subset result, and ``run_check`` cuts it into one ``CheckResult`` per
subset; a single subset is a chunk of one.  What several checks read is
computed once per chunk (``_Chunk``), on first read, by the expression a
single check would use, so sharing changes no bit of a report.  Every dual
operand reads the frame's dual matrix ``_dual_stack`` = Lambda S^-1,
EQ5_DUAL_RECON's Lambda* Gamma too: no check builds the canonical dual
frame.  Inputs are validated at the API boundary:
``run_check`` validates the subsets and vectors its caller passes, and
``run_suite`` the sample vectors once per (dim, field, seed), while the
subsets of ``subsets_for`` are sorted, distinct and in range by
construction.  The six per-vector checks on the frame's own sums read
<M_I f, f> and M_I f from ``operator_sums`` of the chunk's [M_I, M_K], and
THM_T1 and THM_TG1 their dual sums from ``subset_sums``.  A finite vector
can still overflow in its images or their inner products: either function
then raises ``ValueError`` for the chunk, and no warning.  The eight
operator checks take their operands from one ``masked_sums`` call per term
stack over the chunk's 2k rows, then one stacked ``linops`` call for the
margins, spectra or complement residuals.  COR3_SANDWICH, COR39_PLUS and
COR39_MINUS_PROBE read M_I and M_K from the frame's term stack and their
squares M S^-1 M from the chunk, in units of S: 0 <= M - M S^-1 M <= S/4
(``_relative_sandwich``) and S/2 <= M S^-1 M +- M' S^-1 M' <= 3S/2
(``_relative_square_sum``).  The Parseval checks and LEMMA_L2
read X_I and X_K from the whitened term stack, X_I = S^(-1/2) M_I S^(-1/2)
being self-adjoint and similar to the partial reconstruction M_I S^-1.
COR2_SANDWICH, THM38_I and SPECTRUM_REMARK are scalar functions of x, the
eigenvalues of X_I, which one gated ``hermitian_eigvalsh`` per chunk gives:
x - x^2 in [0, 1/4], and x in [0, 1] with a residual of 0, since the gate
bounds the skew part.  THM38_II takes X_I^2 + X_K^2, the complement's own
sum, through ``loewner_check``, and LEMMA_L2 the complement residual of
X_I.  The eleven per-vector checks are each one array expression over the
chunk; the identity functions of ``gframe`` and ``gfusion`` use the same
expressions on a 1 x 1 stack.  LEMMA_L0 loops over the components.
``inapplicable`` is the one rule for which checks apply to which frame; it
reads the frame's ``kind``.

Normalization conventions (so a single pair of tolerances applies):

* scalar identity residuals are divided by max(1, ||f||^2);
* reconstruction errors are relative, ||recon - f|| / ||f||;
* pointwise lower-bound margins are divided by ||f||^2;
* margins of inequalities whose bounds are multiples of the frame operator
  are divided by max(1, ||S||); identity-scaled margins stay raw;
* operator-identity residuals: projection absorption is divided by
  ||S^-1|| = 1/A, so multiplied by the lower bound A; the complement-square
  identity stays raw.
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
    sample_vectors,
    substream,
    whitened_gframe,
    whitened_gfusion,
)
from .linops import (
    Field,
    adjoint,
    as_vector,
    complement_identity_residual,
    hermitian_eigvalsh,
    loewner_check,
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
    """One catalog entry: routing metadata and the check's evaluator, which
    takes a ``_Chunk`` and returns its (residuals, margins, stats)."""

    check: "CheckId"
    kind: str  # "gframe" | "gfusion" | "any"
    parseval_only: bool
    subsets: bool
    vectors: bool
    evaluate: Callable
    summary: str
    probe: bool = False


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


# A chunk holds at most this many matrix entries, 64 subsets at d = 8, but
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
    the 0/1 rows of the subsets and of their complements, M_I and M_K from
    one ``masked_sums`` of the term stack, with the own sums
    (``operator_sums``) and the S-relative squares M_I S^-1 M_I and
    M_K S^-1 M_K over them, the dual sums from one ``subset_sums`` of the
    frame's stack and its ``_dual_stack``, and X_I and X_K from one
    ``masked_sums`` of the whitened term stack, with x, the gated
    eigenvalues of X_I.  Every frame is a ``GFrame``, so both
    kinds give these from the same members.
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
        <M_I f, f>, <M_K f, f> (k, V, 2) and M_I f, M_K f (k, V, d, 2):
        ``operator_sums`` of the chunk's ``truncated``."""
        return gf.operator_sums(self.truncated, self.vectors)

    @functools.cached_property
    def dual_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """``subset_sums`` of the frame's stack with its ``_dual_stack``."""
        return gf.subset_sums(self.frame._stacked_analysis, self.frame._dual_stack,
                              self.sides, self.vectors)

    @functools.cached_property
    def truncated(self) -> np.ndarray:
        """M_I and M_K, the ``side_sums`` of the frame's term stack."""
        return gf.side_sums(self.frame._term_stack, self.sides)

    @functools.cached_property
    def whitened(self) -> np.ndarray:
        """X_I and X_K, the ``side_sums`` of the frame's whitened term stack."""
        return gf.side_sums(self.frame._whitened_term_stack, self.sides)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """x, the ascending eigenvalues of each X_I, shape (k, d), from one
        ``hermitian_eigvalsh`` gated with the floor 1 of the unit bounds."""
        return hermitian_eigvalsh(self.whitened[0], 1.0)

    @functools.cached_property
    def squares(self) -> np.ndarray:
        """M_I S^-1 M_I and M_K S^-1 M_K, shape (2, k, d, d): G G* with
        G = [M_I, M_K] S^(-1/2) from one stacked product, which is Hermitian
        to rounding at any condition number."""
        g = self.truncated @ self.frame.inverse_sqrt
        return g @ adjoint(g)


def _interval(t, lower, upper, scale=1.0):
    """The margins of lower <= t <= upper from one stacked ``loewner_check``,
    over ``scale``."""
    lm = loewner_check(t, lower, upper, tol=0.0)
    return None, np.column_stack([lm.lower_margin, lm.upper_margin]) / scale, None


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
    return np.stack([r, imag], axis=-1).reshape(len(chunk.subsets), -1), None, None


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
    return None, _per_norm(sums[..., 0].real + tails - floor * n2, n2), None


def _operator_maps(frame):
    s, si = frame.frame_operator, frame.inverse
    return (lambda f: s @ (si @ f)), (lambda f: si @ (s @ f))


def _dual_maps(frame):
    s_full = frame._stacked_analysis.adjoint @ frame._dual_stack
    s_full_adj = adjoint(s_full)
    return (lambda f: s_full @ f), (lambda f: s_full_adj @ f)


def _reconstruction(maps, chunk):
    """Relative errors ||g(f) - f|| / ||f|| of the two maps g in ``maps(frame)``,
    0 for a zero vector."""
    x = np.array(chunk.vectors).T
    errors = np.stack([np.linalg.norm(g(x) - x, axis=0) for g in maps(chunk.frame)], axis=-1)
    return _per_norm(errors, np.sqrt(chunk.norms_sq)[:, None]).reshape(1, -1), None, None


def _eq6_quadform(chunk):
    gaps = gfu.inverse_quadratic_residual(chunk.frame, np.array(chunk.vectors))
    return _per_norm(gaps, chunk.norms_sq)[None], None, None


def _lemma_l0(chunk):
    frame = chunk.frame  # residuals over ||S^-1|| = 1/A
    residuals = [projected_adjoint_residual(c.basis, frame.inverse) * frame.lower_bound
                 for c in frame.components]
    return np.array([residuals]), None, None


def _relative_sandwich(chunk):
    """0 <= M_I - M_I S^-1 M_I <= S/4 (COR3_SANDWICH), over max(1, ||S||)."""
    frame = chunk.frame
    return _interval(chunk.truncated[0] - chunk.squares[0], 0.0, 0.25 * frame.frame_operator,
                     max(1.0, frame.upper_bound))


def _relative_square_sum(sign, chunk):
    """S/2 <= M_I S^-1 M_I + sign M_K S^-1 M_K <= 3S/2 (COR39_PLUS,
    COR39_MINUS_PROBE), over max(1, ||S||)."""
    frame, (a_sq, b_sq) = chunk.frame, chunk.squares
    return _interval(a_sq + sign * b_sq, 0.5 * frame.frame_operator,
                     1.5 * frame.frame_operator, max(1.0, frame.upper_bound))


def _parseval_sandwich(chunk):
    """0 <= X_I - X_I^2 <= I/4, whose spectrum is x - x^2 (COR2_SANDWICH,
    THM38_I)."""
    t = chunk.spectrum - chunk.spectrum**2
    return None, np.column_stack([t.min(axis=-1), 0.25 - t.max(axis=-1)]), None


def _parseval_square_sum(chunk):
    """I/2 <= X_I^2 + X_K^2 <= 3I/2, with X_K the complement's own sum."""
    x_i, x_k = chunk.whitened
    return _interval(x_i @ x_i + x_k @ x_k, 0.5, 1.5)


def _spectrum_remark(chunk):
    """x in [0, 1]; x is real, so the residual (the largest imaginary part)
    is 0, and the Hermitian gate bounds the skew part of X_I."""
    x = chunk.spectrum
    margins = np.column_stack([x[:, 0], 1.0 - x[:, -1]])
    return np.zeros((len(x), 1)), margins, {"spectral_radius": np.abs(x).max(axis=-1)}


def _lemma_l2(chunk):
    return complement_identity_residual(chunk.whitened[0])[:, None], None, None


# The identity checks take their (k, V) ``IdentityTerms`` stack from the
# chunk's shared sums, by the expression their module function
# (``gframe.partition_identity`` and the like) uses on one pair.
def _dual_identity(c):
    return _identity_residuals(gf.identity_terms(*c.dual_sums), c)


def _own_identity(c):
    return _identity_residuals(gf.identity_terms(*c.own_sums), c)


CATALOG: dict[CheckId, CheckInfo] = {
    info.check: info
    for info in [
        CheckInfo(CheckId.THM_T1, "gframe", False, True, True, _dual_identity,
                  "subset/complement energy identity for operator frames"),
        CheckInfo(CheckId.FAMOUS_PARSEVAL, "gframe", True, True, True, _own_identity,
                  "Parseval special case of the energy identity"),
        CheckInfo(CheckId.THM_TG1, "gfusion", False, True, True, _dual_identity,
                  "subset/complement energy identity for weighted subspace frames"),
        CheckInfo(CheckId.COR1_IDENTITY, "gfusion", True, True, True, _own_identity,
                  "Parseval identity linking block energies and truncated operator norms"),
        CheckInfo(CheckId.COR1_34BOUND, "gfusion", True, True, True,
                  functools.partial(_pointwise_bound, False),
                  "subset energy plus complement operator energy is at least 3/4"
                  " of the input energy"),
        CheckInfo(CheckId.COR2_SANDWICH, "gfusion", True, True, False, _parseval_sandwich,
                  "0 <= P - P^2 <= I/4 for Parseval partial reconstructions"),
        CheckInfo(CheckId.THM_T33, "gfusion", False, True, True,
                  lambda c: _identity_residuals(
                      gfu.whitened_terms(c.frame.inverse_sqrt, *c.own_sums), c),
                  "whitened subset/complement energy identity for general frames"),
        CheckInfo(CheckId.COR3_SANDWICH, "gfusion", False, True, False, _relative_sandwich,
                  "0 <= M - M S^-1 M <= S/4 for truncated frame operators"),
        CheckInfo(CheckId.COR_34_SINV, "gfusion", False, True, True,
                  functools.partial(_pointwise_bound, True),
                  "lower bound (3/4) * A on subset energy plus whitened complement energy"),
        CheckInfo(CheckId.THM38_I, "gfusion", True, True, False, _parseval_sandwich,
                  "first part of the two-sided Parseval bound: 0 <= P - P^2 <= I/4"),
        CheckInfo(CheckId.THM38_II, "gfusion", True, True, False, _parseval_square_sum,
                  "second part: I/2 <= P^2 + Q^2 <= 3I/2 for complementary partials"),
        CheckInfo(CheckId.COR39_PLUS, "gfusion", False, True, False,
                  functools.partial(_relative_square_sum, 1.0),
                  "S/2 <= M S^-1 M + M' S^-1 M' <= 3S/2 (sum form)"),
        CheckInfo(CheckId.COR39_MINUS_PROBE, "gfusion", False, True, False,
                  functools.partial(_relative_square_sum, -1.0),
                  "difference form as printed, probed for counterexamples", probe=True),
        CheckInfo(CheckId.EQ4_RECON, "gfusion", False, False, True,
                  functools.partial(_reconstruction, _operator_maps),
                  "frame-operator reconstruction, both orderings"),
        CheckInfo(CheckId.EQ5_DUAL_RECON, "gfusion", False, False, True,
                  functools.partial(_reconstruction, _dual_maps),
                  "canonical-dual reconstruction, both orderings"),
        CheckInfo(CheckId.EQ6_QUADFORM, "gfusion", False, False, True, _eq6_quadform,
                  "inverse-operator quadratic form equals the dual analysis energy"),
        CheckInfo(CheckId.SPECTRUM_REMARK, "gfusion", True, True, False, _spectrum_remark,
                  "Parseval partial reconstructions have spectrum inside [0, 1]"),
        CheckInfo(CheckId.LEMMA_L0, "gfusion", False, False, False, _lemma_l0,
                  "projection absorption along subspace images under the inverse operator"),
        CheckInfo(CheckId.LEMMA_L2, "any", False, True, False, _lemma_l2,
                  "complementary partials satisfy u - v = u^2 - v^2"),
        CheckInfo(CheckId.THM_FINAL_MI, "gfusion", False, True, True,
                  lambda c: _identity_residuals(
                      gfu.dual_energy_terms(c.frame._dual_stack, *c.own_sums), c),
                  "partition identity for truncated frame operators through the dual energy"),
    ]
}


def _chunks(subsets, dim: int) -> list:
    """Consecutive runs of ``max(_CHUNK_SUBSETS, _CHUNK_ENTRIES // dim**2)``
    subsets (the last may be shorter)."""
    size = max(_CHUNK_SUBSETS, _CHUNK_ENTRIES // dim**2)
    return [subsets[start:start + size] for start in range(0, len(subsets), size)]


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
    when its printed inequality is violated.  A per-vector check's row holds
    its V vectors side by side; its witness vector is the one with the
    largest residual, or the smallest margin, the first where tied."""
    info = CATALOG[check]
    residuals, margins, stats = info.evaluate(chunk)
    k = len(chunk.subsets)
    residuals = np.empty((k, 0)) if residuals is None else residuals
    margins = np.empty((k, 0)) if margins is None else margins
    failing = np.flatnonzero(~(residuals <= tol.residual).all(axis=1)
                             | ~(margins >= -tol.margin).all(axis=1))

    def witness(i: int) -> dict:
        # np.max and np.min keep a NaN where max and min may drop it, and
        # argmax and argmin pick the first NaN
        subset, vector = chunk.subsets[i], None
        if info.vectors:
            per_vector = len(chunk.vectors), -1
            worst = (residuals[i].reshape(per_vector).max(axis=1).argmax() if residuals.size
                     else margins[i].reshape(per_vector).min(axis=1).argmin())
            vector = _json_vector(chunk.vectors[worst])
        return {
            "subset": None if subset is None else list(subset),
            "vector": vector,
            "max_residual": float(residuals[i].max()) if residuals.size else None,
            "min_margin": float(margins[i].min()) if margins.size else None,
        }

    return _Rows(residuals, margins, stats, failing, info.probe or not failing.size, witness)


def _walk(frame, checks, subsets, vectors, tol: Tolerances):
    """(check, chunk, rows) for ``checks`` on ``frame``: the checks that take
    no subsets first, on the one chunk [None], then the others on each chunk
    of the validated ``subsets`` in turn, so one chunk is held at a time."""
    for takes_subsets in (False, True):
        group = [check for check in checks if CATALOG[check].subsets == takes_subsets]
        if not group:
            continue
        for js in _chunks(subsets, frame.dim_h) if takes_subsets else [[None]]:
            chunk = _Chunk(frame, js, vectors)
            for check in group:
                yield check, chunk, _evaluate(check, chunk, tol)


def inapplicable(info: CheckInfo, frame) -> str | None:
    """Why ``info``'s check does not apply to ``frame``, or None when it does."""
    if info.kind != "any" and info.kind != frame.kind:
        return f"{info.check.value} expects a {info.kind} frame, got {frame.kind}"
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
    results = []
    for _, chunk, rows in _walk(frame, [check], js,
                                [as_vector(f, frame.dim_h) for f in vectors], tol):
        failing = set(rows.failing.tolist())
        results += [
            CheckResult(check, rows.residuals[i].tolist(), rows.margins[i].tolist(),
                        info.probe or i not in failing, rows.witness(i) if i in failing else None,
                        None if rows.stats is None
                        else {key: float(v[i]) for key, v in rows.stats.items()})
            for i in range(len(chunk.subsets))
        ]
    return results if subsets is not None else results[0]


@dataclass(frozen=True)
class FrameInstance:
    """One generated (or loaded) frame plus its provenance: the seed (None
    for a loaded frame) and the label.  Its kind, Parseval class, dimension
    and field are read from the frame."""

    frame: gf.GFrame
    seed: int | None
    label: str


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
        lo, hi = self.weight_range
        if not (0.0 < lo <= hi < math.inf):  # NaN fails too
            raise ValueError("weight_range must be two finite numbers with 0 < lo <= hi")
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
            frame = instance.frame
            self.witnesses.append({
                "kind": frame.kind,
                "parseval": frame.is_parseval,
                "dim": frame.dim_h,
                "field": frame.field.value,
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
    general and one Parseval instance of each frame kind.

    Each kind's general frame is generated once, and its Parseval instance
    whitened from it (``whitened_gframe``, ``whitened_gfusion``): the same
    frames, bit for bit, as the four generators give on their own."""
    instances = []
    for dim in plan.dims:
        for fld in plan.fields:
            for seed in plan.seeds:
                tag = f"dim={dim},field={fld.value},seed={seed}"
                block_dims = _block_dims(dim, plan.components)
                spec = GenSpec(dim, _component_specs(dim, plan.components, plan.weight_range), fld, seed)
                try:
                    blocks = random_gframe(dim, block_dims, fld, seed)
                    fusion = random_gfusion(spec)
                    frames = [blocks, whitened_gframe(blocks), fusion, whitened_gfusion(spec, fusion)]
                except GenerationFailed as exc:
                    raise GenerationFailed(
                        f"cannot generate instances at dim {dim} with block dims "
                        f"{block_dims} ({fld.value}, seed {seed}): {exc}"
                    ) from exc
                for frame in frames:
                    label = f"{frame.kind}{'-parseval' if frame.is_parseval else ''}[{tag}]"
                    instances.append(FrameInstance(frame, seed, label))
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
    conjunction of all non-probe check verdicts.  The sample vectors depend
    only on (dim, field, seed), so they are drawn and validated once for
    the four consecutive instances that share them.
    """
    start = time.perf_counter()
    if frame is not None:
        instances = [FrameInstance(frame, None, plan.frame_path or "loaded-frame")]
    else:
        instances = build_instances(plan)
    summaries: dict[CheckId, CheckSummary] = {}
    drawn = None  # (dim, field, seed) of ``vectors``
    for instance in instances:
        frame = instance.frame
        seed = instance.seed if instance.seed is not None else 0
        if drawn != (frame.dim_h, frame.field, seed):
            drawn = (frame.dim_h, frame.field, seed)
            vectors = [as_vector(f, frame.dim_h) for f in
                       sample_vectors(*drawn, plan.vectors_per_instance)]
        subsets = subsets_for(len(frame), plan, seed)
        checks = [check for check in plan.checks if inapplicable(CATALOG[check], frame) is None]
        for check in checks:
            summaries.setdefault(check, CheckSummary(check)).instances += 1
        for check, _, rows in _walk(frame, checks, subsets, vectors, plan.tol):
            summaries[check].fold(rows, instance, plan.witness_limit)
    ordered = [summaries[check] for check in sorted(summaries, key=lambda c: c.value)]
    overall = all(s.passed for s in ordered)
    return RunReport(plan, ordered, overall, time.perf_counter() - start)
