"""Weighted subspace frames: triples of (subspace, block operator, weight).

Each component carries an orthonormal basis of a closed subspace W_j of H,
a block operator acting on H, and a positive weight.  The frame operator
sums the weighted, projected block Gram terms.  Subspaces are stored as
orthonormal column bases, never as projection matrices; projections are derived.

A weighted subspace frame is the g-frame with blocks Lambda_j = w_j B_j P_j:
``GFusionFrame.blocks`` computes them on access, and the core of
``gframe.GFrame`` keeps the stack [w_1 B_1 P_1; ...; w_n B_n P_n], built
once per frame and kept read-only, as the only copy of the blocks, and
gives ``analysis`` and ``synthesis`` from it.  The triples stay in frame
files, LEMMA_L0, and the canonical dual and whitened (Parseval) frames,
which are the triples composed with S^-1 and S^(-1/2) (``_composed``).  The
frame-operator and dual terms stay in triple form, w_j^2 P_j (B_j* B_j) P_j,
which rounds differently from Lambda_j* Lambda_j.

``block_energies`` takes all energies weight_j^2 ||block_j P_j f||^2 from
one product with the stack and one segmented sum over the block row ranges.
The identities take (k, V) stacks of ``gframe.subset_sums`` over k subsets
and V vectors: energies and truncated frame-operator images
M_I f = sum_{j in I} Lambda_j* Lambda_j f, with no truncated frame operator
built; the per-(subset, f) functions take 1 x 1 ones.  The frame keeps the
terms behind ``partial_sum`` and ``partial_frame_operator`` only as
read-only (n, d*d) stacks, from which ``gframe.masked_sums`` takes a whole
chunk of partial sums at once.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .gframe import (
    IdentityTerms,
    _Frame,
    _norms_sq,
    _pair_identity,
    identity_terms,
    stacked_image,
    term_stack,
)
from .linops import (
    ShapeMismatch,
    adjoint,
    as_operator,
    as_vector,
    orthonormal_basis,
    projection,
    psd_power,
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


def partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Subset/complement energy identity through the canonical dual triple.

    lhs sums the weighted inner products of dual and primal block images over
    the subset and subtracts the squared norm of the truncated reconstruction
    of f; rhs mirrors it over the complement with conjugated inner products.
    """
    return _pair_identity(frame, subset, f, True, identity_terms)


def parseval_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Parseval special case: block energies minus the squared norms of the
    truncated frame-operator images, subset side versus complement side."""
    return _pair_identity(frame, subset, f, False, identity_terms)


def whitened_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Partition identity for general frames after whitening.

    Each side adds the subset's block energy to the squared norm of the
    complement's truncated frame-operator image mapped through the inverse
    square root of the frame operator.
    """
    return _pair_identity(frame, subset, f, False,
                          lambda e, m: whitened_terms(frame.inverse_sqrt, e, m))


def whitened_terms(r: np.ndarray, energies, images) -> IdentityTerms:
    """The whitened identity's two sides from a (k, V) stack of
    ``subset_sums`` of the frame's stack with itself: the energies (their
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
    return _pair_identity(frame, subset, f, False, lambda e, m: dual_energy_terms(
        frame.canonical_dual._stacked_analysis, e, m))


def dual_energy_terms(dual_stack, energies, images) -> IdentityTerms:
    """The truncated-operator identity's two sides from a (k, V) stack of
    energies and images as ``whitened_terms`` takes them, with
    ``dual_stack`` the canonical dual's stacked analysis operator."""
    d = _norms_sq(stacked_image(dual_stack, images))
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
    rhs = _norms_sq(stacked_image(frame.canonical_dual._stacked_analysis, x))[..., 0]
    return np.abs(lhs - rhs)
