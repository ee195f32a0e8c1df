"""Operator-valued frames over a finite-dimensional space.

A frame here is a finite family of block operators mapping the common space
H into per-index codomains.  Frames are immutable; the frame operator and
its extreme eigenvalues (the optimal bounds) are computed at construction,
the canonical dual and per-index partial-sum terms lazily and cached.

``GFrame`` and the weighted subspace frame ``gfusion.GFusionFrame`` derive
from one core, ``_Frame``: it sums the per-index terms into the frame
operator and its bounds, builds the stacked analysis operator
Lambda = [Lambda_1; ...; Lambda_n] once from ``blocks`` (``stack_blocks``,
read-only), takes ``analysis`` and ``synthesis`` from that stack, counts and
validates indices, and takes complements and partial sums.  Each class
keeps its own dual term stack, inverse, canonical dual and ``partial_sum``.

A subset becomes 0/1 rows over the blocks in one place, ``subset_masks``,
which gives a chunk of subsets its rows K and their complements 1 - K.
``subset_sums`` is the one home of the subset sums: it takes those rows, a
sequence of validated vectors f and the canonical dual stack Gamma, and
gives for every (subset, f) of the chunk the per-block inner products
<Gamma_j f, Lambda_j f> summed over each row, from one segmented sum over
the block row starts, and the truncated images sum_{j in I} Lambda_j*
Gamma_j f, from one product of Lambda* with Gamma f masked to each row.  It
runs its pairs under ``np.errstate`` and refuses the whole chunk, once,
by a ``ValueError`` naming the subset sums and the frame's scale when an
entry is not finite.  ``identity_terms`` turns its (k, V) stacks
(k subsets, V vectors) into the two sides of the identity; with the
frame's own stack as the dual it is the Parseval case.  Each public
per-(subset, f) identity evaluates its pair through ``_pair_identity`` as a
1 x 1 chunk.

The operator checks take many partial sums at once: each frame keeps the
per-index terms behind ``partial_sum`` only as a read-only (n, d*d)
``term_stack``, and ``masked_sums`` turns 0/1 rows into a (k, d, d) stack
of partial sums, each equal bit for bit to the ``partial_sum`` of its subset.
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
    identity_like,
    operator_norm,
    psd_power,
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
    "identity_terms",
    "term_stack",
    "subset_masks",
    "masked_sums",
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


def stack_blocks(blocks) -> StackedAnalysis:
    """Stack the block operators into one read-only analysis operator."""
    matrix = np.vstack(blocks)
    matrix.setflags(write=False)
    adj = matrix.conj().T
    adj.setflags(write=False)
    rows = [b.shape[0] for b in blocks]
    starts = np.cumsum([0] + rows[:-1])
    owners = np.repeat(np.arange(len(rows)), rows)
    return StackedAnalysis(matrix, adj, starts, owners)


def stacked_image(stacked: StackedAnalysis, x: np.ndarray) -> np.ndarray:
    """The stacked operator applied to a vector or to each column of ``x``;
    raises ``ValueError`` when the image is not finite."""
    y = stacked.matrix @ x
    if not np.isfinite(y).all():
        raise ValueError("vector entries must be finite")
    return y


def subset_sums(frame_stack: StackedAnalysis, dual_stack: StackedAnalysis, sides, vectors):
    """Subset and complement sums of the per-block terms of each vector, for
    one chunk of subsets.

    ``sides`` is the chunk's (2, k, n) rows [K, 1 - K] of ``subset_masks``
    and ``vectors`` a sequence of V validated vectors, where Lambda is
    ``frame_stack`` and Gamma ``dual_stack``.  Returns the sums of
    <Gamma_j f, Lambda_j f> over each row, shape (k, V, 2), and the
    truncated images sum_j Lambda_j* Gamma_j f over the same rows, shape
    (k, V, dim, 2).  Each (subset, f) pair takes its own products, so an entry
    does not depend on the chunk around it.  An overflow raises one
    ``ValueError`` for the chunk ("subset sums are not finite at this
    frame's scale"), and no warning.
    """
    k, dim = sides.shape[1], frame_stack.matrix.shape[1]
    sums, images = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            rows = sides[:, i]
            for f in vectors:
                y = frame_stack.matrix @ f
                z = y if dual_stack is frame_stack else dual_stack.matrix @ f
                inner_products = np.add.reduceat(y.conj() * z, frame_stack.starts)
                sums.append(rows @ inner_products)
                images.append(frame_stack.adjoint @ (rows.take(frame_stack.owners, axis=1) * z).T)
    sums = np.array(sums).reshape(k, len(vectors), 2)
    images = np.array(images).reshape(k, len(vectors), dim, 2)
    if not (np.isfinite(sums).all() and np.isfinite(images).all()):
        raise ValueError("subset sums are not finite at this frame's scale")
    return sums, images


def _norms_sq(columns: np.ndarray) -> np.ndarray:
    return (columns.conj() * columns).real.sum(axis=-2)


def identity_terms(sums, images) -> IdentityTerms:
    """The partition identity's two sides from a (k, V) stack of
    ``subset_sums`` results: sums (k, V, 2) and images (k, V, dim, 2)."""
    norms = _norms_sq(images)
    lhs = sums[..., 0] - norms[..., 0]
    rhs = np.conjugate(sums[..., 1]) - norms[..., 1]
    return IdentityTerms(lhs, rhs, np.abs(lhs - rhs))


def term_stack(terms) -> np.ndarray:
    """Per-index d x d terms flattened into one read-only (n, d*d) array."""
    stack = np.stack([t.reshape(-1) for t in terms])
    stack.setflags(write=False)
    return stack


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
    result is a (k, d, d) stack.  The terms are added in index order to a
    zero start, and a masked-out term adds an exact zero or nothing, so
    each matrix equals the ``_sum_terms`` partial sum of its subset bit for
    bit.  Complex terms are summed as pairs of reals, which keeps that
    exact.  A term in every subset of the chunk, or in none, costs one
    addition or none, so a chunk of one subset adds only its own terms.
    """
    dim = math.isqrt(stack.shape[1])
    flat = stack.view(np.float64) if np.iscomplexobj(stack) else stack
    k = masks.shape[0]
    out = np.zeros((k, flat.shape[1]))
    for term, column, count in zip(flat, masks.T, masks.sum(axis=0).tolist()):
        if count == k:
            out += term
        elif count:
            out += column[:, None] * term
    return out.view(stack.dtype).reshape(-1, dim, dim)


class _Frame:
    """What g-frames and weighted subspace frames share.

    A subclass hands its per-index terms to ``_set_frame_operator`` in
    ``__init__`` and defines ``blocks`` (the g-frame blocks Lambda_j) and
    ``_dual_term_stack`` (the ``term_stack`` behind ``partial_sum``).  The
    members the benchmark tracer times (``perfbench/tracer.py``) stay in
    each class, which is where it looks them up.
    """

    _noun = "block"  # what one index holds, in messages and the repr

    def _set_frame_operator(self, terms, name) -> tuple[np.ndarray, ...]:
        """Sum the per-index ``terms`` into the frame operator and its bounds.

        ``terms`` may be a generator.  It is consumed and the spectrum taken
        under ``np.errstate``: an overflow raises this ``ValueError`` (naming
        index j by ``name(j)``) and no warning.  Returns the terms as a tuple.
        """
        out = []
        s = np.zeros((self.dim_h, self.dim_h), dtype=self.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, term in enumerate(terms):
                if not np.isfinite(term).all():
                    raise ValueError(f"{name(j)} has a frame-operator term that is not finite")
                out.append(term)
                s = s + term
            if not np.isfinite(s).all():
                raise ValueError(f"the frame operator (sum of the {self._noun} terms) is not finite")
            # a finite S can still overflow in symmetrize
            eigenvalues = hermitian_eig(s).eigenvalues
        if not np.isfinite(eigenvalues).all():
            raise ValueError("the frame operator has bounds that are not finite")
        self._count = len(out)
        self.frame_operator = s
        self.lower_bound = float(eigenvalues[0])
        self.upper_bound = float(eigenvalues[-1])
        return tuple(out)

    def __len__(self) -> int:
        """The number of indices j."""
        return self._count

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
        return operator_norm(self.frame_operator - identity_like(self.frame_operator)) <= PARSEVAL_TOL

    def _require_frame(self):
        if not self.is_frame:
            raise NotAFrame(
                f"lower bound {self.lower_bound:.3e} is not above {PDTOL:.1e}"
            )

    def analysis(self, f) -> tuple[np.ndarray, ...]:
        """Block images Lambda_j f, each from its rows of the stacked analysis
        operator; ``ValueError`` when one is not finite."""
        f = as_vector(f, self.dim_h)
        stacked = self._stacked_analysis
        return tuple(as_vector(b @ f) for b in np.split(stacked.matrix, stacked.starts[1:]))

    def synthesis(self, g) -> np.ndarray:
        """Adjoint of analysis: the sum of Lambda_j* g_j, one product with the
        adjoint of the stacked analysis operator."""
        stacked = self._stacked_analysis
        parts = list(g)
        if len(parts) != len(self):
            raise ShapeMismatch("block count does not match the frame")
        rows = np.diff(stacked.starts, append=stacked.matrix.shape[0]).tolist()
        return stacked.adjoint @ np.concatenate([as_vector(gj, r) for gj, r in zip(parts, rows)])

    @functools.cached_property
    def _stacked_analysis(self) -> StackedAnalysis:
        """[Lambda_1; ...; Lambda_n], behind ``analysis_matrix`` and the identities."""
        return stack_blocks(self.blocks)

    def analysis_matrix(self) -> np.ndarray:
        """Dense stacked analysis operator; its Gram matrix is the oracle
        route to the frame operator.

        Returned as a read-only view of the stack behind the partition
        identities, so callers cannot change it.
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

    def _sum_terms(self, stack, subset) -> np.ndarray:
        """The rows of a ``term_stack`` over ``subset``, added in index order."""
        js = self._validate_subset(subset)
        out = np.zeros((self.dim_h, self.dim_h), dtype=self.dtype)
        for j in js:
            out = out + stack[j].reshape(out.shape)
        return out


class GFrame(_Frame):
    """Finite family of block operators with cached frame operator and bounds.

    ``blocks[j]`` maps H (dimension ``dim_h``) into the j-th codomain.  The
    family may fail to be a frame; ``lower_bound`` then sits at (numerical)
    zero and operations needing the inverse frame operator raise
    ``NotAFrame``.
    """

    def __init__(self, blocks: Sequence):
        blocks = tuple(as_operator(b) for b in blocks)
        if not blocks:
            raise ShapeMismatch("a frame needs at least one block operator")
        dim = blocks[0].shape[1]
        for b in blocks:
            if b.shape[1] != dim:
                raise ShapeMismatch("all blocks must share the domain dimension")
        self.blocks = blocks
        self.dim_h = int(dim)
        self.dtype = np.result_type(*blocks)
        self._set_frame_operator((adjoint(b) @ b for b in blocks), lambda j: f"block {j}")

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """Inverse of the frame operator."""
        self._require_frame()
        return psd_power(self.frame_operator, -1.0)

    @functools.cached_property
    def canonical_dual(self) -> "GFrame":
        """Frame composed with the inverse frame operator.

        Together with the original family it reconstructs every vector; its
        bounds are the reciprocals of the original bounds.
        """
        s_inv = self.inverse
        return GFrame([b @ s_inv for b in self.blocks])

    @functools.cached_property
    def _dual_term_stack(self) -> np.ndarray:
        """The terms blocks[j]* dual_j behind ``partial_sum``."""
        dual = self.canonical_dual
        return term_stack(adjoint(b) @ d for b, d in zip(self.blocks, dual.blocks))

    def partial_sum(self, subset) -> np.ndarray:
        """Reconstruction operator truncated to ``subset``: sum over j in the
        subset of blocks[j]* composed with the canonical dual blocks.

        Summed with the complement's partial sum this gives the identity.
        """
        return self._sum_terms(self._dual_term_stack, subset)


def _pair_identity(frame: _Frame, subset, f, through_dual: bool, terms_of) -> IdentityTerms:
    """One (subset, vector) pair of an identity: ``terms_of`` on the
    ``subset_sums`` of the frame's stack with its canonical dual's (or with
    its own) over a 1 x 1 chunk, so it gives the scalars, and raises the
    errors, a check's chunk gives that pair.  ``f`` is validated first, then
    the subset."""
    f = as_vector(f, frame.dim_h)
    sides = subset_masks(len(frame), [frame._validate_subset(subset)])
    dual = frame.canonical_dual if through_dual else frame
    t = terms_of(*subset_sums(frame._stacked_analysis, dual._stacked_analysis, sides, [f]))
    return IdentityTerms(complex(t.lhs[0, 0]), complex(t.rhs[0, 0]), float(t.residual[0, 0]))


def partition_identity(frame: GFrame, subset, f) -> IdentityTerms:
    """Subset/complement energy identity through the canonical dual.

    lhs sums <dual_j f, block_j f> over the subset and subtracts the squared
    norm of the truncated reconstruction of f; rhs mirrors it over the
    complement with conjugated inner products.
    """
    return _pair_identity(frame, subset, f, True, identity_terms)


def parseval_partition_identity(frame: GFrame, subset, f) -> IdentityTerms:
    """Parseval special case of the partition identity.

    Uses the frame's own blocks on both sides (the canonical dual of a
    Parseval frame is the frame itself): block energies minus the squared
    norm of the truncated frame-operator image.
    """
    return _pair_identity(frame, subset, f, False, identity_terms)
