"""Operator-valued frames over a finite-dimensional space.

A frame here is a finite family of block operators mapping the common space
H into per-index codomains.  Frames are immutable; the frame operator S, its
one spectral decomposition and its extreme eigenvalues (the optimal bounds,
which ``is_parseval`` also reads) are computed at construction, the dual
matrix, its factor and the whitened term stack lazily.  Every power of S
a frame needs, ``inverse`` and ``inverse_sqrt`` (which ``gen`` whitens by
and the whitened term stack reads), comes from that decomposition, by
``_power``, so S is diagonalised once per frame.

One frame model: ``GFrame``.  A weighted subspace frame
(``gfusion.GFusionFrame``) is the ``GFrame`` of its blocks w_j B_j P_j and
differs only in how it is built and in the triples it keeps as provenance.
A frame stacks its blocks once into the read-only analysis operator
Lambda = [Lambda_1; ...; Lambda_n] (``stack_blocks``) and keeps ``blocks``
as read-only views of that stack, from which ``analysis`` and
``synthesis`` read.  It keeps the terms Lambda_j* Lambda_j as a read-only
stack, sums them into S, and counts, validates and complements indices and
takes partial sums.  Every dual operand reads the dual matrix
``_dual_stack`` = Gamma = Lambda S^-1, and the dual energies ||Gamma m||
its d x d triangular factor ``_dual_factor``; ``canonical_dual`` is built
on request.

A subset becomes 0/1 rows over the blocks in one place, ``subset_masks``,
which gives a chunk of subsets its rows K and their complements 1 - K.
``masked_sums`` is the one code that adds a frame's term stacks, each a
read-only (n, d*d) array, by one contraction with the rows that adds the
terms in index order: over ``_term_stack``, the terms Lambda_j* Lambda_j,
it gives a (k, d, d) stack of truncated frame operators M_I, and over
``_whitened_term_stack``, the terms W_j of the whitened blocks
Lambda_j S^(-1/2), the self-adjoint X_I = S^(-1/2) M_I S^(-1/2), similar
to M_I S^-1.  ``side_sums`` takes it over a chunk's rows [K, 1 - K] at
once, as a (2, k, d, d) stack.  S itself is the all-ones row's sum of the
first, ``partial_frame_operator`` its one-row sum over a subset and
``partial_sum`` is M_I S^-1.

The per-vector sums are sums <image, f> of a chunk's images
(``_image_sums``): the own sums <M_I f, f> = sum_{j in I} ||Lambda_j f||^2
from ``operator_sums``, and the dual sums sum_{j in I} <Gamma_j f,
Lambda_j f>, which by the adjoint are <u, f> of the truncated image
u = sum_{j in I} Lambda_j* Gamma_j f, from ``subset_sums``.  Both give
every entry independently of the chunk around it and refuse the whole
chunk, once, by a ``ValueError`` when an entry is not finite.
``identity_terms`` turns their (k, V) stacks into the two sides of the
identity; each public per-(subset, f) identity takes a 1 x 1 chunk.
"""

from __future__ import annotations

import functools
import math
from operator import index
from typing import NamedTuple, Sequence

import numpy as np

from .linops import (
    PARSEVAL_TOL,
    PDTOL,
    Field,
    ShapeMismatch,
    adjoint,
    as_operator,
    as_vector,
    hermitian_eig,
    spectral_power,
)

__all__ = [
    "NotAFrame",
    "IndexOutOfRange",
    "GFrame",
    "IdentityTerms",
    "StackedAnalysis",
    "stack_blocks",
    "stacked_image",
    "subset_sums",
    "operator_sums",
    "identity_terms",
    "term_stack",
    "subset_masks",
    "masked_sums",
    "side_sums",
    "partition_identity",
    "parseval_partition_identity",
]


class NotAFrame(ValueError):
    """The family has no positive lower frame bound."""


class IndexOutOfRange(ValueError):
    """Subset refers to indices outside the frame's index set."""


class IdentityTerms(NamedTuple):
    """Two sides of a checked scalar identity and their absolute gap: scalars
    for one (subset, vector), arrays of shape (k, V) for a stack of them."""

    lhs: complex
    rhs: complex
    residual: float


class StackedAnalysis(NamedTuple):
    """Read-only stacked analysis operator and the row layout of its blocks."""

    matrix: np.ndarray  # [Lambda_1; ...; Lambda_n]
    adjoint: np.ndarray  # its conjugate transpose
    starts: np.ndarray  # first row of each block
    owners: np.ndarray  # block index of each row


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def stack_blocks(blocks) -> StackedAnalysis:
    """Stack the block operators into one read-only analysis operator."""
    matrix = _read_only(np.vstack(blocks))
    adj = _read_only(matrix.conj().T)
    rows = [b.shape[0] for b in blocks]
    starts = np.cumsum([0] + rows[:-1])
    owners = np.repeat(np.arange(len(rows)), rows)
    return StackedAnalysis(matrix, adj, starts, owners)


def stacked_image(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A stacked matrix applied to a vector or to each column of ``x``;
    raises ``ValueError`` when the image is not finite."""
    y = matrix @ x
    if not np.isfinite(y).all():
        raise ValueError("vector entries must be finite")
    return y


def subset_sums(frame_stack: StackedAnalysis, dual: np.ndarray, sides, vectors):
    """Subset and complement sums of the per-block dual terms of each vector,
    for one chunk of subsets.

    ``sides`` is the chunk's (2, k, n) rows [K, 1 - K] of ``subset_masks``
    and ``vectors`` a sequence of V validated vectors, where Lambda is
    ``frame_stack`` and Gamma the matrix ``dual`` (``_dual_stack``).
    Returns the sums of <Gamma_j f, Lambda_j f> over each row, shape
    (k, V, 2), and the truncated images u = sum_j Lambda_j* Gamma_j f over
    the same rows, shape (k, V, dim, 2), from ``_image_sums``: by the
    adjoint, each sum is <u, f>.  Gamma f is taken once per vector, and
    Lambda* masked to the subset's two rows, shape (2, dim, R), once per
    subset; each (subset, f) pair then takes only one product of that
    masked adjoint with Gamma f, so an entry does not depend on the chunk
    around it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        duals = [dual @ f for f in vectors]
        images = []
        for rows in np.moveaxis(sides, 1, 0):
            masked = frame_stack.adjoint * rows.take(frame_stack.owners, axis=1)[:, None, :]
            images.append([masked @ z for z in duals])
    return _image_sums(np.moveaxis(np.array(images), 2, 0), vectors)  # (2, k, V, dim)


def operator_sums(m: np.ndarray, vectors):
    """The own sums of each vector from a chunk's truncated frame operators.

    ``m`` is the (2, k, d, d) stack [M_I, M_K] of ``side_sums`` over the
    term stack and ``vectors`` a sequence of V validated vectors.  Returns
    what ``subset_sums`` returns with Gamma = Lambda: the sums <M f, f> =
    sum_j ||Lambda_j f||^2 over each row, shape (k, V, 2), and the images
    M f, shape (k, V, d, 2), from ``_image_sums``.  Each image is one stacked
    product of ``m`` with f, which multiplies every matrix of the stack
    with f on its own, so an entry does not depend on the chunk around it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        images = np.stack([m @ f for f in vectors], axis=-2)
    return _image_sums(images, vectors)


def _image_sums(images: np.ndarray, vectors):
    """The sums <image, f> of a chunk's (2, k, V, d) ``images`` of the V
    ``vectors``, each the row sum of conj(f) times its image, as (k, V, 2),
    and the images as contiguous (k, V, d, 2).  An entry that is not finite
    raises one ``ValueError`` for the chunk ("subset sums are not finite at
    this frame's scale"), and no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = (np.conjugate(vectors) * images).sum(axis=-1)
    if not (np.isfinite(sums).all() and np.isfinite(images).all()):
        raise ValueError("subset sums are not finite at this frame's scale")
    return np.moveaxis(sums, 0, -1), np.ascontiguousarray(np.moveaxis(images, 0, -1))


def _norms_sq(columns: np.ndarray) -> np.ndarray:
    return (columns.conj() * columns).real.sum(axis=-2)


def identity_terms(sums, images) -> IdentityTerms:
    """The partition identity's two sides from a (k, V) stack of
    ``subset_sums`` or ``operator_sums`` results: sums (k, V, 2) and images
    (k, V, dim, 2)."""
    norms = _norms_sq(images)
    lhs = sums[..., 0] - norms[..., 0]
    rhs = np.conjugate(sums[..., 1]) - norms[..., 1]
    return IdentityTerms(lhs, rhs, np.abs(lhs - rhs))


def term_stack(terms) -> np.ndarray:
    """Per-index d x d terms flattened into one read-only (n, d*d) array."""
    return _read_only(np.stack([t.reshape(-1) for t in terms]))


def subset_masks(count: int, subsets) -> np.ndarray:
    """[K, 1 - K], shape (2, k, count): the 0/1 rows K over ``count``
    indices, one row per validated subset, and their complements."""
    masks = np.zeros((len(subsets), count))
    rows = [i for i, js in enumerate(subsets) for _ in js]
    masks[rows, [j for js in subsets for j in js]] = 1.0
    return np.stack((masks, 1.0 - masks))


def masked_sums(stack: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Partial sums sum_j masks[i, j] * term_j for every mask row i.

    ``stack`` is a ``term_stack`` and ``masks`` a (k, n) 0/1 array; the
    result is a (k, d, d) stack from one ``np.einsum`` contraction, which
    adds the terms in index order to a zero start, each times its 0 or 1.
    So a row's sum does not depend on the other rows: 1 * t = t, and a
    masked-out term adds a signed zero, which leaves a running sum that
    starts at +0 unchanged.  Complex terms are summed as pairs of reals,
    which keeps that exact.  ``masks @`` would not: its BLAS kernel, and so
    its order, varies with the row count and the CPU.
    """
    dim = math.isqrt(stack.shape[1])
    flat = stack.view(np.float64) if np.iscomplexobj(stack) else stack
    return np.einsum("rj,jf->rf", masks, flat).view(stack.dtype).reshape(-1, dim, dim)


def side_sums(stack: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """``masked_sums`` of a term stack over the 2k rows of ``sides``, the
    (2, k, n) rows [K, 1 - K] of a chunk: [M_I, M_K], shape (2, k, d, d)."""
    m = masked_sums(stack, sides.reshape(-1, sides.shape[-1]))
    return m.reshape(sides.shape[:2] + m.shape[1:])


class GFrame:
    """Finite family of block operators with cached frame operator and bounds.

    ``blocks[j]`` maps H (dimension ``dim_h``) into the j-th codomain.  The
    family may fail to be a frame; ``lower_bound`` then sits at (numerical)
    zero and operations needing the inverse frame operator raise
    ``NotAFrame``.

    The weighted subspace frame ``gfusion.GFusionFrame`` is the ``GFrame``
    of its blocks w_j B_j P_j: it hands them to the same ``_set_blocks``, so
    both kinds take the frame operator, its decomposition, the dual matrix
    and the partial sums from the same expressions.  ``kind`` names
    the kind in frame files and reports.
    """

    kind = "gframe"
    _noun = "block"  # what one index holds, in messages and the repr

    def __init__(self, blocks: Sequence):
        blocks = tuple(as_operator(b) for b in blocks)
        if not blocks:
            raise ShapeMismatch("a frame needs at least one block operator")
        for b in blocks:
            if b.shape[1] != blocks[0].shape[1]:
                raise ShapeMismatch("all blocks must share the domain dimension")
        self._set_blocks(blocks, lambda j: f"block {j}")

    def _set_blocks(self, blocks, name):
        """Stack the validated ``blocks`` once, read-only, keep ``blocks`` as
        views of that stack, and sum the terms Lambda_j* Lambda_j into the
        frame operator, the one-row ``masked_sums``, decomposed once, and its
        bounds.

        ``blocks`` may be a generator.  It is consumed and the spectrum taken
        under ``np.errstate``: an overflow raises this ``ValueError`` (naming
        the first index j whose term is not finite by ``name(j)``) and no
        warning.  The checks add operators of the size of S (S = M_I + M_K,
        up to 3S/2), so bounds that overflow when doubled are refused too.
        The terms are kept as the read-only ``_term_stack``, and the
        decomposition read-only, for ``_power``.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            self._stacked_analysis = stacked = stack_blocks(tuple(blocks))
            self.blocks = tuple(np.split(stacked.matrix, stacked.starts[1:]))
            self.dim_h = stacked.matrix.shape[1]
            self.dtype = stacked.matrix.dtype
            terms = term_stack([adjoint(b) @ b for b in self.blocks])
            bad = ~np.isfinite(terms).all(axis=1)
            if bad.any():
                raise ValueError(
                    f"{name(int(bad.argmax()))} has a frame-operator term that is not finite")
            s = masked_sums(terms, np.ones((1, len(terms))))[0]
            if not np.isfinite(s).all():
                raise ValueError(f"the frame operator (sum of the {self._noun} terms) is not finite")
            spectrum = hermitian_eig(s)
            if not np.isfinite(2.0 * spectrum.eigenvalues).all():
                raise ValueError("the frame operator has bounds that are not finite when doubled")
        for x in spectrum:
            _read_only(x)
        self._term_stack = terms
        self.frame_operator = s
        self._spectrum = spectrum
        self.lower_bound = float(spectrum.eigenvalues[0])
        self.upper_bound = float(spectrum.eigenvalues[-1])

    def __len__(self) -> int:
        """The number of indices j."""
        return len(self.blocks)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dim_h={self.dim_h}, {self._noun}s={len(self)}, "
            f"bounds=({self.lower_bound:.4g}, {self.upper_bound:.4g}))"
        )

    @property
    def bounds(self) -> tuple[float, float]:
        """Optimal frame bounds: the extreme eigenvalues of the frame operator."""
        return (self.lower_bound, self.upper_bound)

    @property
    def field(self) -> Field:
        """The scalar field of the frame operator, and so of the frame."""
        return Field.COMPLEX if np.iscomplexobj(self.frame_operator) else Field.REAL

    @property
    def is_frame(self) -> bool:
        return self.lower_bound > PDTOL

    @functools.cached_property
    def is_parseval(self) -> bool:
        """S = I to ``PARSEVAL_TOL``, read from the kept spectrum's extremes."""
        return max(abs(self.lower_bound - 1.0), abs(self.upper_bound - 1.0)) <= PARSEVAL_TOL

    def _require_frame(self):
        if not self.is_frame:
            raise NotAFrame(
                f"lower bound {self.lower_bound:.3e} is not above {PDTOL:.1e}"
            )

    def _power(self, p: float) -> np.ndarray:
        """S**p (-1 for the inverse, -1/2 for the whitening), from the
        decomposition of S made at construction."""
        self._require_frame()
        return spectral_power(self._spectrum, p)

    def analysis(self, f) -> tuple[np.ndarray, ...]:
        """Block images Lambda_j f, each from its rows of the stacked analysis
        operator; ``ValueError`` when one is not finite."""
        f = as_vector(f, self.dim_h)
        return tuple(as_vector(b @ f) for b in self.blocks)

    def synthesis(self, g) -> np.ndarray:
        """Adjoint of analysis: the sum of Lambda_j* g_j, one product with the
        adjoint of the stacked analysis operator."""
        parts = list(g)
        if len(parts) != len(self):
            raise ShapeMismatch("block count does not match the frame")
        return self._stacked_analysis.adjoint @ np.concatenate(
            [as_vector(gj, b.shape[0]) for gj, b in zip(parts, self.blocks)])

    def analysis_matrix(self) -> np.ndarray:
        """Dense stacked analysis operator; its Gram matrix is the oracle
        route to the frame operator.

        Returned as a read-only view of the stack behind ``blocks`` and the
        partition identities, so callers cannot change it.
        """
        return self._stacked_analysis.matrix.view()

    def _validate_subset(self, subset) -> tuple[int, ...]:
        """Sorted distinct indices; each entry must pass ``operator.index``."""
        found = set()
        for j in subset:
            try:
                found.add(index(j))
            except TypeError:
                raise IndexOutOfRange(f"subset entry {j!r} is not an integer index") from None
        js = sorted(found)
        if js and (js[0] < 0 or js[-1] >= len(self)):
            raise IndexOutOfRange(
                f"subset {js} outside index range 0..{len(self) - 1}"
            )
        return tuple(js)

    def complement(self, subset) -> tuple[int, ...]:
        js = set(self._validate_subset(subset))
        return tuple(j for j in range(len(self)) if j not in js)

    def _truncated(self, subset) -> np.ndarray:
        """M_I = sum_{j in I} Lambda_j* Lambda_j, the one-row ``masked_sums``
        of the term stack over the validated ``subset``."""
        mask = subset_masks(len(self), [self._validate_subset(subset)])[0]
        return masked_sums(self._term_stack, mask)[0]

    @functools.cached_property
    def _dual_stack(self) -> np.ndarray:
        """Gamma = Lambda S^-1, read-only; its row blocks are the dual blocks."""
        return _read_only(self._stacked_analysis.matrix @ self.inverse)

    @functools.cached_property
    def _dual_factor(self) -> np.ndarray:
        """R of Gamma = QR, the read-only d x d triangle with ||R m|| =
        ||Gamma m||: a factor, as the Gram matrix Gamma* Gamma would square
        Gamma's condition number in the dual energies."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _read_only(np.linalg.qr(self._dual_stack, mode="r"))

    @functools.cached_property
    def _whitened_term_stack(self) -> np.ndarray:
        """The whitened terms W_j = G_j* G_j with G_j = Lambda_j S^(-1/2), a
        read-only ``term_stack`` that sums to I.  Each term is taken from its
        whitened block, never as S^(-1/2) (Lambda_j* Lambda_j) S^(-1/2), so
        it is Hermitian to rounding at any condition number of S."""
        stacked = self._stacked_analysis
        g = stacked.matrix @ self.inverse_sqrt
        return term_stack(adjoint(b) @ b for b in np.split(g, stacked.starts[1:]))

    def _dual(self) -> "GFrame":
        """The g-frame of the row blocks of ``_dual_stack``.  It holds no
        reference back to this frame, so the pair is freed without the cyclic
        garbage collector."""
        return GFrame(np.split(self._dual_stack, self._stacked_analysis.starts[1:]))

    # The benchmark tracer (perfbench/tracer.py) times the members below
    # where ``vars(cls)`` finds them, and its self-test matches calls per
    # code object, so each class defines its own, as one line over the core,
    # until the tracer resolves members through the MRO (ROADMAP item 1b).
    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """Inverse of the frame operator."""
        return self._power(-1.0)

    @functools.cached_property
    def inverse_sqrt(self) -> np.ndarray:
        """Inverse square root of the frame operator."""
        return self._power(-0.5)

    @functools.cached_property
    def canonical_dual(self) -> "GFrame":
        """Frame composed with the inverse frame operator, built on request;
        no check reads it.  Together with the original family it reconstructs
        every vector; its bounds are the reciprocals of the original bounds."""
        return self._dual()

    def partial_sum(self, subset) -> np.ndarray:
        """Reconstruction operator truncated to ``subset``: sum over j in the
        subset of blocks[j]* composed with the canonical dual blocks, taken
        as M_I S^-1.

        Summed with the complement's partial sum this gives the identity.
        """
        return self._truncated(subset) @ self.inverse


def _one_pair(frame: GFrame, subset, f):
    """``f``, validated first, and the (2, 1, n) rows of the validated
    ``subset``: a 1 x 1 chunk."""
    f = as_vector(f, frame.dim_h)
    return f, subset_masks(len(frame), [frame._validate_subset(subset)])


def _scalars(t: IdentityTerms) -> IdentityTerms:
    return IdentityTerms(complex(t.lhs[0, 0]), complex(t.rhs[0, 0]), float(t.residual[0, 0]))


def _pair_identity(frame: GFrame, subset, f, terms_of) -> IdentityTerms:
    """One (subset, vector) pair of an identity on the frame's own sums:
    ``terms_of`` on the ``operator_sums`` of the subset's one-row
    ``side_sums`` of the term stack, so it gives the scalars, and raises the
    errors, a check's chunk gives that pair."""
    f, sides = _one_pair(frame, subset, f)
    return _scalars(terms_of(*operator_sums(side_sums(frame._term_stack, sides), [f])))


def partition_identity(frame: GFrame, subset, f) -> IdentityTerms:
    """Subset/complement energy identity through the canonical dual, for
    either frame kind (``gfusion`` binds this function too).

    lhs sums <dual_j f, block_j f> over the subset, which is <u, f> of the
    truncated reconstruction u = sum_{j in I} block_j* dual_j f, and
    subtracts ||u||^2; rhs mirrors it over the complement with conjugated
    inner products.  The sums are the ``subset_sums`` of a 1 x 1 chunk, as
    a check's chunk takes them.
    """
    f, sides = _one_pair(frame, subset, f)
    return _scalars(identity_terms(*subset_sums(frame._stacked_analysis, frame._dual_stack,
                                                sides, [f])))


def parseval_partition_identity(frame: GFrame, subset, f) -> IdentityTerms:
    """Parseval special case of the partition identity, for either frame kind.

    Uses the frame's own blocks on both sides (the canonical dual of a
    Parseval frame is the frame itself): block energies <M_I f, f> minus the
    squared norm of the truncated frame-operator image M_I f.
    """
    return _pair_identity(frame, subset, f, identity_terms)
