"""Weighted subspace frames: triples of (subspace, block operator, weight).

Each component carries an orthonormal basis of a closed subspace W_j of H,
a block operator acting on H, and a positive weight.  The frame operator
sums the weighted, projected block Gram terms.  Subspaces are stored as
orthonormal column bases, never as projection matrices; projections are derived.

A weighted subspace frame is the g-frame with blocks Lambda_j = w_j B_j P_j:
``GFusionFrame.blocks`` computes them on access, and the core of
``gframe.GFrame`` gives ``analysis``, ``synthesis`` and the stack
[w_1 B_1 P_1; ...; w_n B_n P_n], built once per frame and kept read-only,
the only copy of the blocks a frame keeps.  The triples stay in frame files,
LEMMA_L0, and the canonical dual and whitened (Parseval) frames, which are
the triples composed with S^-1 and S^(-1/2) (``_composed``).  The
frame-operator and dual terms stay in triple form, w_j^2 P_j (B_j* B_j) P_j,
which rounds differently from Lambda_j* Lambda_j.
``block_energies`` takes all energies weight_j^2 ||block_j P_j f||^2 from
one product with the stack and one segmented sum over the block row ranges;
``truncated_images`` takes the subset and complement energies and the
truncated frame-operator images M_I f = sum_{j in I} Lambda_j* Lambda_j f
from ``subset_sums``, with no truncated frame operator built.  Both raise the
same errors as ``analysis``.

The frame keeps the terms behind ``partial_sum`` and
``partial_frame_operator`` only as read-only (n, d*d) stacks
(``_dual_term_stack``, cached, and ``_component_term_stack``, built with
the frame operator), from which ``gframe.masked_sums`` takes a whole chunk
of partial sums at once.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .gframe import (
    IdentityTerms,
    _Frame,
    _partition_identity,
    stacked_image,
    subset_sums,
    term_stack,
)
from .linops import (
    ShapeMismatch,
    adjoint,
    as_operator,
    as_vector,
    inner,
    orthonormal_basis,
    projection,
    psd_power,
)

__all__ = [
    "GFusionComponent",
    "GFusionFrame",
    "block_energies",
    "truncated_images",
    "partition_identity",
    "parseval_partition_identity",
    "whitened_partition_identity",
    "frame_partition_identity",
    "inverse_quadratic_residual",
]


class GFusionComponent(NamedTuple):
    """One (subspace basis, block operator, weight) component."""

    basis: np.ndarray
    block: np.ndarray
    weight: float


class GFusionFrame(_Frame):
    """Weighted subspace frame with cached frame operator and optimal bounds.

    Components whose subspace is numerically zero, or whose weight is not
    strictly positive, are rejected at construction.  The family itself may
    fail to be a frame (lower bound at numerical zero); operations that need
    the inverse frame operator then raise ``NotAFrame``.
    """

    _noun = "component"

    def __init__(self, components: Sequence):
        comps = []
        for item in components:
            basis, block, weight = item
            basis = as_operator(basis)
            block = as_operator(block)
            weight = float(weight)
            if not np.isfinite(weight) or weight <= 0.0:
                raise ValueError("component weights must be positive and finite")
            if not np.isfinite(weight * weight):
                raise ValueError(f"component weight {weight!r} has no finite square")
            comps.append(GFusionComponent(basis, block, weight))
        if not comps:
            raise ShapeMismatch("a frame needs at least one component")
        dim = comps[0].basis.shape[0]
        for c in comps:
            if c.basis.shape[0] != dim:
                raise ShapeMismatch("all subspace bases must live in the same space")
            if c.block.shape[1] != dim:
                raise ShapeMismatch("all blocks must share the domain dimension")
        self.components = tuple(comps)
        self.dim_h = int(dim)
        self.dtype = np.result_type(*(c.basis for c in comps), *(c.block for c in comps))
        # projection() also validates orthonormality of each stored basis
        self.projections = tuple(projection(c.basis) for c in comps)
        terms = ((c.weight**2) * (p @ (adjoint(c.block) @ c.block) @ p)
                 for c, p in zip(comps, self.projections))
        self._component_term_stack = term_stack(self._set_frame_operator(
            terms, lambda j: f"component {j} with weight {comps[j].weight!r}"))

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The g-frame blocks w_j B_j P_j, computed on each access, so the
        cached stack behind ``analysis_matrix`` stays their only copy."""
        return tuple(c.weight * (c.block @ p) for c, p in zip(self.components, self.projections))

    def _composed(self, t: np.ndarray) -> "GFusionFrame":
        """The triples (span of T U_j, B_j P_j T, w_j): every block composed
        with T.  The result holds no reference back to this frame."""
        return GFusionFrame([
            (orthonormal_basis(t @ c.basis), c.block @ p @ t, c.weight)
            for c, p in zip(self.components, self.projections)
        ])

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """Inverse of the frame operator."""
        self._require_frame()
        return psd_power(self.frame_operator, -1.0)

    @functools.cached_property
    def inverse_sqrt(self) -> np.ndarray:
        """Inverse square root of the frame operator."""
        self._require_frame()
        return psd_power(self.frame_operator, -0.5)

    @functools.cached_property
    def canonical_dual(self) -> "GFusionFrame":
        """Canonical dual triple: subspaces pushed through the inverse frame
        operator (re-orthonormalized), blocks composed with it, same weights.

        It holds no reference back to this frame, which caches it, so the
        pair is freed without the cyclic garbage collector.
        """
        return self._composed(self.inverse)

    @functools.cached_property
    def _dual_term_stack(self) -> np.ndarray:
        """The terms w_j^2 P_j B_j* (dual B_j dual P_j) behind ``partial_sum``."""
        dual = self.canonical_dual
        return term_stack(
            (c.weight**2) * (p @ adjoint(c.block) @ (dc.block @ dp))
            for c, p, dc, dp in zip(
                self.components, self.projections, dual.components, dual.projections
            )
        )

    def partial_sum(self, subset) -> np.ndarray:
        """Reconstruction operator truncated to ``subset``, built through the
        canonical dual; summed with the complement's it gives the identity."""
        return self._sum_terms(self._dual_term_stack, subset)

    def partial_frame_operator(self, subset) -> np.ndarray:
        """Frame operator truncated to ``subset``; summed with the
        complement's it gives the full frame operator."""
        return self._sum_terms(self._component_term_stack, subset)

    def parsevalize(self) -> "GFusionFrame":
        """Whiten by the inverse square root of the frame operator.

        The returned frame has frame operator (numerically) equal to the
        identity; its truncated frame operators are the originals conjugated
        by the inverse square root.
        """
        return self._composed(self.inverse_sqrt)


def block_energies(frame: GFusionFrame, f) -> np.ndarray:
    """Per-component energies weight_j^2 ||block_j P_j f||^2.

    One product with the stacked analysis operator and one segmented sum of
    its squared moduli over the block row ranges.  ``f`` is validated once
    and the stacked image once, raising what ``analysis`` raises: ``ShapeMismatch`` for a
    wrong shape and ``ValueError`` when ``f`` or its image is not finite.
    """
    f = as_vector(f, frame.dim_h)
    stacked = frame._stacked_analysis
    y = stacked_image(stacked, f)
    return np.add.reduceat((y.conj() * y).real, stacked.starts)


def truncated_images(frame: GFusionFrame, subset, f) -> tuple[np.ndarray, np.ndarray]:
    """Block energies and truncated frame-operator images, subset side first.

    Returns the summed energies weight_j^2 ||block_j P_j f||^2 over the
    subset and over its complement (shape (2,)), and M_I f and M_K f, the
    truncated frame operators of the subset and of its complement applied
    to f, as the columns of a (dim_h, 2) array.  Both come from the stacked
    analysis operator; ``partial_frame_operator`` is the reference route.
    """
    f = as_vector(f, frame.dim_h)
    js = frame._validate_subset(subset)
    stacked = frame._stacked_analysis
    energies, images = subset_sums(stacked, stacked, js, f)
    return energies.real, images


def _norms_sq(columns: np.ndarray) -> np.ndarray:
    return (columns.conj() * columns).real.sum(axis=0)


def partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Subset/complement energy identity through the canonical dual triple.

    lhs sums the weighted inner products of dual and primal block images over
    the subset and subtracts the squared norm of the truncated reconstruction
    of f; rhs mirrors it over the complement with conjugated inner products.
    """
    return _partition_identity(frame, subset, f, True)


def parseval_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Parseval special case: block energies minus the squared norms of the
    truncated frame-operator images, subset side versus complement side."""
    return _partition_identity(frame, subset, f, False)


def whitened_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Partition identity for general frames after whitening.

    Each side adds the subset's block energy to the squared norm of the
    complement's truncated frame-operator image mapped through the inverse
    square root of the frame operator.
    """
    e, m = truncated_images(frame, subset, f)
    w = _norms_sq(frame.inverse_sqrt @ m)
    lhs = e[0] + w[1]
    rhs = e[1] + w[0]
    return IdentityTerms(complex(lhs), complex(rhs), float(abs(lhs - rhs)))


def frame_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Partition identity for truncated frame operators, evaluated through
    the canonical dual's analysis energy.

    Each side subtracts from the subset's block energy the full dual analysis
    energy of the truncated frame-operator image of f.
    """
    e, m = truncated_images(frame, subset, f)
    d = _norms_sq(stacked_image(frame.canonical_dual._stacked_analysis, m))
    lhs = e[0] - d[0]
    rhs = e[1] - d[1]
    return IdentityTerms(complex(lhs), complex(rhs), float(abs(lhs - rhs)))


def inverse_quadratic_residual(frame: GFusionFrame, f) -> float:
    """Gap between the quadratic form of the inverse frame operator at f and
    the dual frame's analysis energy of f."""
    f = as_vector(f, frame.dim_h)
    lhs = inner(frame.inverse @ f, f)
    rhs = block_energies(frame.canonical_dual, f).sum()
    return float(abs(lhs - rhs))
