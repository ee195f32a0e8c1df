"""Weighted subspace frames: triples of (subspace, block operator, weight).

Each component carries an orthonormal basis of a closed subspace W_j of H,
a block operator acting on H, and a positive weight.  Subspaces are stored
as orthonormal column bases, never as projection matrices; projections are
derived.

A weighted subspace frame is the g-frame with blocks Lambda_j = w_j B_j P_j,
and ``GFusionFrame`` is a ``gframe.GFrame`` built from them: its frame
operator, bounds, stack, term stacks, dual matrix Gamma = Lambda S^-1 and
its factor, canonical dual and partial sums are the g-frame's.  The triples
stay only as provenance, for frame files, LEMMA_L0 and ``parsevalize``,
which whitens them into the triples (span of S^(-1/2) U_j,
B_j P_j S^(-1/2), w_j).  ``block_energies`` takes all energies
weight_j^2 ||block_j P_j f||^2 from one product with the stack and one
segmented sum over the block row ranges.

The identities take (k, V) stacks over k subsets and V vectors: energies
<M_I f, f> and truncated frame-operator images M_I f from
``gframe.operator_sums`` of the chunk's [M_I, M_K], and dual energies
||Gamma M_I f||^2 as ||R M_I f||^2, R the d x d factor ``_dual_factor``;
the per-(subset, f) functions take 1 x 1 chunks.  The energy identity and
its Parseval case are the g-frame ones on these blocks, so
``partition_identity`` and ``parseval_partition_identity`` are
``gframe``'s, bound here by name.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .gframe import (
    GFrame,
    IdentityTerms,
    _norms_sq,
    _pair_identity,
    parseval_partition_identity,
    partition_identity,
    stacked_image,
)
from .linops import (
    ShapeMismatch,
    as_operator,
    as_vector,
    orthonormal_basis,
    projection,
)

__all__ = [
    "GFusionComponent",
    "GFusionFrame",
    "block_energies",
    "partition_identity",
    "parseval_partition_identity",
    "whitened_partition_identity",
    "frame_partition_identity",
    "whitened_terms",
    "dual_energy_terms",
    "inverse_quadratic_residual",
]


class GFusionComponent(NamedTuple):
    """One (subspace basis, block operator, weight) component."""

    basis: np.ndarray
    block: np.ndarray
    weight: float


class GFusionFrame(GFrame):
    """Weighted subspace frame with cached frame operator and optimal bounds:
    the ``GFrame`` of its blocks w_j B_j P_j.

    Components whose subspace is numerically zero, or whose weight is not
    strictly positive, are rejected at construction.  The family itself may
    fail to be a frame (lower bound at numerical zero); operations that need
    the inverse frame operator then raise ``NotAFrame``.
    """

    kind = "gfusion"
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
        # projection() also validates orthonormality of each stored basis
        self.projections = tuple(projection(c.basis) for c in comps)
        # the core, not GFrame.__init__, so the tracer counts no g-frame here
        self._set_blocks((c.weight * (c.block @ p) for c, p in zip(comps, self.projections)),
                         lambda j: f"component {j} with weight {comps[j].weight!r}")

    # One line each over the core, for the tracer (see GFrame).
    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """Inverse of the frame operator."""
        return self._power(-1.0)

    @functools.cached_property
    def inverse_sqrt(self) -> np.ndarray:
        """Inverse square root of the frame operator."""
        return self._power(-0.5)

    @functools.cached_property
    def canonical_dual(self) -> GFrame:
        """The g-frame with blocks w_j B_j P_j S^-1, the row blocks of
        ``_dual_stack``: by the absorption that LEMMA_L0 checks, the blocks of
        the dual triples (S^-1 W_j, B_j P_j S^-1, w_j)."""
        return self._dual()

    def partial_sum(self, subset) -> np.ndarray:
        """Reconstruction operator truncated to ``subset``, M_I S^-1; summed
        with the complement's it gives the identity."""
        return self._truncated(subset) @ self.inverse

    def partial_frame_operator(self, subset) -> np.ndarray:
        """Frame operator M_I truncated to ``subset``; summed with the
        complement's it gives the full frame operator."""
        return self._truncated(subset)

    def parsevalize(self) -> "GFusionFrame":
        """Whiten by the inverse square root of the frame operator: the
        triples (span of S^(-1/2) U_j, B_j P_j S^(-1/2), w_j).

        The returned frame has frame operator (numerically) equal to the
        identity; its truncated frame operators are the originals conjugated
        by the inverse square root.
        """
        r = self.inverse_sqrt
        return GFusionFrame([(orthonormal_basis(r @ c.basis), c.block @ p @ r, c.weight)
                             for c, p in zip(self.components, self.projections)])


def block_energies(frame: GFusionFrame, f) -> np.ndarray:
    """Per-component energies weight_j^2 ||block_j P_j f||^2.

    One product with the stacked analysis operator and one segmented sum of
    its squared moduli over the block row ranges.  ``f`` is validated once
    and the stacked image once, raising what ``analysis`` raises: ``ShapeMismatch`` for a
    wrong shape and ``ValueError`` when ``f`` or its image is not finite.
    """
    f = as_vector(f, frame.dim_h)
    stacked = frame._stacked_analysis
    y = stacked_image(stacked.matrix, f)
    return np.add.reduceat((y.conj() * y).real, stacked.starts)


def whitened_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Partition identity for general frames after whitening.

    Each side adds the subset's block energy to the squared norm of the
    complement's truncated frame-operator image mapped through the inverse
    square root of the frame operator.
    """
    return _pair_identity(frame, subset, f, lambda e, m: whitened_terms(frame.inverse_sqrt, e, m))


def whitened_terms(r: np.ndarray, energies, images) -> IdentityTerms:
    """The whitened identity's two sides from a (k, V) stack of
    ``gframe.operator_sums`` of [M_I, M_K]: the energies <M_I f, f> (their
    real parts) and the images M_I f, M_K f, with ``r`` the inverse square
    root of S."""
    w = _norms_sq(r @ images)
    lhs = energies[..., 0].real + w[..., 1]
    rhs = energies[..., 1].real + w[..., 0]
    return IdentityTerms(lhs, rhs, np.abs(lhs - rhs))


def frame_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Partition identity for truncated frame operators, evaluated through
    the canonical dual's analysis energy.

    Each side subtracts from the subset's block energy the full dual analysis
    energy of the truncated frame-operator image of f.
    """
    return _pair_identity(frame, subset, f,
                          lambda e, m: dual_energy_terms(frame._dual_factor, e, m))


def dual_energy_terms(dual_factor: np.ndarray, energies, images) -> IdentityTerms:
    """The truncated-operator identity's two sides from a (k, V) stack of
    energies and images as ``whitened_terms`` takes them, with
    ``dual_factor`` the frame's ``_dual_factor`` R: the dual energy
    ||Gamma m||^2 of each image m, Gamma = Lambda S^-1, is ||R m||^2."""
    d = _norms_sq(stacked_image(dual_factor, images))
    lhs = energies[..., 0].real - d[..., 0]
    rhs = energies[..., 1].real - d[..., 1]
    return IdentityTerms(lhs, rhs, np.abs(lhs - rhs))


def inverse_quadratic_residual(frame: GFusionFrame, f):
    """Gap between the quadratic form of the inverse frame operator at f and
    the dual frame's analysis energy of f.

    ``f`` is one vector, or validated vectors along the last axis of a
    (..., dim) array, whose gaps come back over its leading axes.
    """
    x = (as_vector(f, frame.dim_h) if np.ndim(f) == 1 else f)[..., None]
    lhs = (x.conj() * (frame.inverse @ x)).sum(axis=(-2, -1))
    rhs = _norms_sq(stacked_image(frame._dual_stack, x))[..., 0]
    return np.abs(lhs - rhs)
