"""Operator-valued frames over a finite-dimensional space.

A frame here is a finite family of block operators mapping the common space
H into per-index codomains.  Frames are immutable; the frame operator and
its extreme eigenvalues (the optimal bounds) are computed at construction,
the canonical dual and per-index partial-sum terms lazily and cached.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .linops import (
    PARSEVAL_TOL,
    PDTOL,
    ShapeMismatch,
    adjoint,
    as_operator,
    as_vector,
    hermitian_eig,
    identity_like,
    inner,
    operator_norm,
    psd_power,
)

__all__ = [
    "NotAFrame",
    "IndexOutOfRange",
    "BlockVector",
    "GFrame",
    "IdentityTerms",
    "partition_identity",
    "parseval_partition_identity",
]


class NotAFrame(ValueError):
    """The family has no positive lower frame bound."""


class IndexOutOfRange(ValueError):
    """Subset refers to indices outside the frame's index set."""


class BlockVector:
    """Element of the direct sum of the block codomains, one block per index."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(as_vector(b) for b in blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, j: int) -> np.ndarray:
        return self.blocks[j]

    def norm_sq(self) -> float:
        """Squared norm: the sum of the squared block norms."""
        return float(sum(np.vdot(b, b).real for b in self.blocks))

    def inner(self, other: "BlockVector") -> complex:
        if len(self) != len(other):
            raise ShapeMismatch("block counts differ")
        acc = 0j
        for mine, theirs in zip(self.blocks, other.blocks):
            if mine.shape != theirs.shape:
                raise ShapeMismatch("block shapes differ")
            acc += inner(mine, theirs)
        return acc

    def __repr__(self) -> str:
        return f"BlockVector(blocks={len(self.blocks)})"


class IdentityTerms(NamedTuple):
    """Two sides of a checked scalar identity and their absolute gap."""

    lhs: complex
    rhs: complex
    residual: float


class GFrame:
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
        self._gram_terms = tuple(adjoint(b) @ b for b in blocks)
        s = np.zeros((dim, dim), dtype=self.dtype)
        for term in self._gram_terms:
            s = s + term
        self.frame_operator = s
        dec = hermitian_eig(s)
        self._spectrum = dec
        self.lower_bound = float(dec.eigenvalues[0])
        self.upper_bound = float(dec.eigenvalues[-1])

    def __repr__(self) -> str:
        return (
            f"GFrame(dim_h={self.dim_h}, blocks={len(self.blocks)}, "
            f"bounds=({self.lower_bound:.4g}, {self.upper_bound:.4g}))"
        )

    @property
    def bounds(self) -> tuple[float, float]:
        """Optimal frame bounds: the extreme eigenvalues of the frame operator."""
        return (self.lower_bound, self.upper_bound)

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

    def analysis(self, f) -> BlockVector:
        """Block coefficients {blocks[j] @ f}."""
        f = as_vector(f, self.dim_h)
        return BlockVector(b @ f for b in self.blocks)

    def synthesis(self, g) -> np.ndarray:
        """Adjoint of analysis: sum of blocks[j]* applied to the j-th block."""
        parts = list(g)
        if len(parts) != len(self.blocks):
            raise ShapeMismatch("block count does not match the frame")
        out = np.zeros(self.dim_h, dtype=self.dtype)
        for b, gj in zip(self.blocks, parts):
            gj = as_vector(gj, b.shape[0])
            out = out + adjoint(b) @ gj
        return out

    def analysis_matrix(self) -> np.ndarray:
        """Dense stacked analysis operator; its Gram matrix is the oracle
        route to the frame operator."""
        return np.vstack(self.blocks)

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
    def _dual_terms(self) -> tuple[np.ndarray, ...]:
        dual = self.canonical_dual
        return tuple(adjoint(b) @ d for b, d in zip(self.blocks, dual.blocks))

    def _validate_subset(self, subset) -> tuple[int, ...]:
        js = sorted({int(j) for j in subset})
        if js and (js[0] < 0 or js[-1] >= len(self.blocks)):
            raise IndexOutOfRange(
                f"subset {js} outside index range 0..{len(self.blocks) - 1}"
            )
        return tuple(js)

    def complement(self, subset) -> tuple[int, ...]:
        js = set(self._validate_subset(subset))
        return tuple(j for j in range(len(self.blocks)) if j not in js)

    def _sum_terms(self, terms, subset) -> np.ndarray:
        js = self._validate_subset(subset)
        out = np.zeros((self.dim_h, self.dim_h), dtype=self.dtype)
        for j in js:
            out = out + terms[j]
        return out

    def partial_sum(self, subset) -> np.ndarray:
        """Reconstruction operator truncated to ``subset``: sum over j in the
        subset of blocks[j]* composed with the canonical dual blocks.

        Summed with the complement's partial sum this gives the identity.
        """
        return self._sum_terms(self._dual_terms, subset)

    def partial_frame_operator(self, subset) -> np.ndarray:
        """Frame operator truncated to ``subset``: sum of blocks[j]* blocks[j]."""
        return self._sum_terms(self._gram_terms, subset)


def partition_identity(frame: GFrame, subset, f) -> IdentityTerms:
    """Subset/complement energy identity through the canonical dual.

    lhs sums <dual_j f, block_j f> over the subset and subtracts the squared
    norm of the truncated reconstruction of f; rhs mirrors it over the
    complement with conjugated inner products.
    """
    f = as_vector(f, frame.dim_h)
    dual = frame.canonical_dual
    js = frame._validate_subset(subset)
    ks = frame.complement(js)

    def side(ids, conjugate):
        acc = 0j
        s_f = np.zeros(frame.dim_h, dtype=np.promote_types(frame.dtype, f.dtype))
        for j in ids:
            df = dual.blocks[j] @ f
            ip = inner(df, frame.blocks[j] @ f)
            acc += np.conjugate(ip) if conjugate else ip
            s_f = s_f + adjoint(frame.blocks[j]) @ df
        return acc - np.vdot(s_f, s_f).real

    lhs = side(js, False)
    rhs = side(ks, True)
    return IdentityTerms(complex(lhs), complex(rhs), float(abs(lhs - rhs)))


def parseval_partition_identity(frame: GFrame, subset, f) -> IdentityTerms:
    """Parseval special case of the partition identity.

    Uses the frame's own blocks on both sides (the canonical dual of a
    Parseval frame is the frame itself): block energies minus the squared
    norm of the truncated frame-operator image.
    """
    f = as_vector(f, frame.dim_h)
    js = frame._validate_subset(subset)
    ks = frame.complement(js)

    def side(ids):
        energy = 0.0
        s_f = np.zeros(frame.dim_h, dtype=np.promote_types(frame.dtype, f.dtype))
        for j in ids:
            bf = frame.blocks[j] @ f
            energy += np.vdot(bf, bf).real
            s_f = s_f + adjoint(frame.blocks[j]) @ bf
        return energy - np.vdot(s_f, s_f).real

    lhs = side(js)
    rhs = side(ks)
    return IdentityTerms(complex(lhs), complex(rhs), float(abs(lhs - rhs)))
