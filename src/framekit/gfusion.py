"""Weighted subspace frames: triples of (subspace, block operator, weight).

Each component carries an orthonormal basis of a closed subspace W_j of H,
a block operator acting on H, and a positive weight.  The frame operator
sums the weighted, projected block Gram terms.  The canonical dual maps the
subspaces through the inverse frame operator; whitening by the inverse
square root yields a Parseval frame.  Subspaces are stored as orthonormal
column bases, never as projection matrices; projections are derived.

A weighted subspace frame is the g-frame with blocks Lambda_j = w_j B_j P_j,
so the identities and bounds use the stacked analysis operators of
``gframe``: [w_1 B_1 P_1; ...; w_n B_n P_n], built once per frame and kept
read-only, and the same stack of the canonical dual.  ``block_energies``
takes all energies weight_j^2 ||block_j P_j f||^2 from one product with the
stack and one segmented sum over the block row ranges; ``truncated_images``
takes the subset and complement energies and the truncated frame-operator
images M_I f = sum_{j in I} Lambda_j* Lambda_j f from ``subset_sums``, with
no truncated frame operator built.  Both raise the same errors as the
per-block ``analysis`` route, which stays the reference.

For the operator checks the frame caches the terms behind ``partial_sum``
and ``partial_frame_operator`` as read-only (n, d*d) stacks
(``_dual_term_stack``, ``_component_term_stack``), from which
``gframe.masked_sums`` takes a whole chunk of partial sums at once.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .gframe import (
    BlockVector,
    IdentityTerms,
    IndexOutOfRange,
    NotAFrame,
    StackedAnalysis,
    stack_blocks,
    stacked_image,
    stacked_partition_identity,
    subset_sums,
    term_stack,
)
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
    orthonormal_basis,
    projection,
    psd_power,
)

__all__ = [
    "GFusionComponent",
    "GFusionFrame",
    "DualGFusionFrame",
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


class GFusionFrame:
    """Weighted subspace frame with cached frame operator and optimal bounds.

    Components whose subspace is numerically zero, or whose weight is not
    strictly positive, are rejected at construction.  The family itself may
    fail to be a frame (lower bound at numerical zero); operations that need
    the inverse frame operator then raise ``NotAFrame``.
    """

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
        terms = []
        s = np.zeros((dim, dim), dtype=self.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (c, p) in enumerate(zip(self.components, self.projections)):
                term = (c.weight**2) * (p @ (adjoint(c.block) @ c.block) @ p)
                if not np.isfinite(term).all():
                    raise ValueError(
                        f"component {j} with weight {c.weight!r} has a frame-operator "
                        "term that is not finite"
                    )
                terms.append(term)
                s = s + term
        if not np.isfinite(s).all():
            raise ValueError("the frame operator (sum of the component terms) is not finite")
        self._component_terms = tuple(terms)
        self.frame_operator = s
        dec = hermitian_eig(s)
        self._spectrum = dec
        self.lower_bound = float(dec.eigenvalues[0])
        self.upper_bound = float(dec.eigenvalues[-1])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dim_h={self.dim_h}, "
            f"components={len(self.components)}, "
            f"bounds=({self.lower_bound:.4g}, {self.upper_bound:.4g}))"
        )

    @property
    def bounds(self) -> tuple[float, float]:
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
        """Block coefficients {weight_j * block_j @ (P_j @ f)}."""
        f = as_vector(f, self.dim_h)
        return BlockVector(
            c.weight * (c.block @ (p @ f))
            for c, p in zip(self.components, self.projections)
        )

    def synthesis(self, g) -> np.ndarray:
        """Adjoint of analysis: weighted projected block adjoints, summed."""
        parts = list(g)
        if len(parts) != len(self.components):
            raise ShapeMismatch("block count does not match the frame")
        out = np.zeros(self.dim_h, dtype=self.dtype)
        for c, p, gj in zip(self.components, self.projections, parts):
            gj = as_vector(gj, c.block.shape[0])
            out = out + c.weight * (p @ (adjoint(c.block) @ gj))
        return out

    def analysis_matrix(self) -> np.ndarray:
        """Dense stacked analysis operator [w_1 B_1 P_1; ...; w_n B_n P_n].

        Built once per frame and returned as a read-only view that cannot be
        made writeable, so callers cannot change the operator behind
        ``block_energies``.  Its Gram matrix is the oracle route to the
        frame operator.
        """
        return self._stacked_analysis.matrix.view()

    @functools.cached_property
    def _stacked_analysis(self) -> StackedAnalysis:
        return stack_blocks(
            [c.weight * (c.block @ p) for c, p in zip(self.components, self.projections)]
        )

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
    def canonical_dual(self) -> "DualGFusionFrame":
        """Canonical dual triple: subspaces pushed through the inverse frame
        operator (re-orthonormalized), blocks composed with it, same weights."""
        s_inv = self.inverse
        comps = []
        for c, p in zip(self.components, self.projections):
            comps.append(
                (orthonormal_basis(s_inv @ c.basis), c.block @ p @ s_inv, c.weight)
            )
        return DualGFusionFrame(comps)

    @functools.cached_property
    def _dual_terms(self) -> tuple[np.ndarray, ...]:
        dual = self.canonical_dual
        out = []
        for c, p, dc, dp in zip(
            self.components, self.projections, dual.components, dual.projections
        ):
            out.append((c.weight**2) * (p @ adjoint(c.block) @ (dc.block @ dp)))
        return tuple(out)

    @functools.cached_property
    def _dual_term_stack(self) -> np.ndarray:
        """The terms behind ``partial_sum`` as one read-only (n, d*d) array."""
        return term_stack(self._dual_terms)

    @functools.cached_property
    def _component_term_stack(self) -> np.ndarray:
        """The terms behind ``partial_frame_operator`` as one read-only
        (n, d*d) array."""
        return term_stack(self._component_terms)

    def _validate_subset(self, subset) -> tuple[int, ...]:
        js = sorted({int(j) for j in subset})
        if js and (js[0] < 0 or js[-1] >= len(self.components)):
            raise IndexOutOfRange(
                f"subset {js} outside index range 0..{len(self.components) - 1}"
            )
        return tuple(js)

    def complement(self, subset) -> tuple[int, ...]:
        js = set(self._validate_subset(subset))
        return tuple(j for j in range(len(self.components)) if j not in js)

    def _sum_terms(self, terms, subset) -> np.ndarray:
        js = self._validate_subset(subset)
        out = np.zeros((self.dim_h, self.dim_h), dtype=self.dtype)
        for j in js:
            out = out + terms[j]
        return out

    def partial_sum(self, subset) -> np.ndarray:
        """Reconstruction operator truncated to ``subset``, built through the
        canonical dual; summed with the complement's it gives the identity."""
        return self._sum_terms(self._dual_terms, subset)

    def partial_frame_operator(self, subset) -> np.ndarray:
        """Frame operator truncated to ``subset``; summed with the
        complement's it gives the full frame operator."""
        return self._sum_terms(self._component_terms, subset)

    def parsevalize(self) -> "GFusionFrame":
        """Whiten by the inverse square root of the frame operator.

        The returned frame has frame operator (numerically) equal to the
        identity; its truncated frame operators are the originals conjugated
        by the inverse square root.
        """
        r = self.inverse_sqrt
        comps = []
        for c, p in zip(self.components, self.projections):
            comps.append((orthonormal_basis(r @ c.basis), c.block @ p @ r, c.weight))
        return GFusionFrame(comps)


class DualGFusionFrame(GFusionFrame):
    """Canonical dual of a weighted subspace frame.

    It holds no reference back to its primal frame, which caches it, so
    the pair is freed without the cyclic garbage collector.
    """


def block_energies(frame: GFusionFrame, f) -> np.ndarray:
    """Per-component energies weight_j^2 ||block_j P_j f||^2.

    One product with the stacked analysis operator and one segmented sum of
    its squared moduli over the block row ranges; ``analysis`` is the
    per-block reference route.  ``f`` is validated once and the stacked
    image once, raising what ``analysis`` raises: ``ShapeMismatch`` for a
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
    f = as_vector(f, frame.dim_h)
    dual = frame.canonical_dual
    js = frame._validate_subset(subset)
    return stacked_partition_identity(frame._stacked_analysis, dual._stacked_analysis, js, f)


def parseval_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Parseval special case: block energies minus the squared norms of the
    truncated frame-operator images, subset side versus complement side."""
    f = as_vector(f, frame.dim_h)
    js = frame._validate_subset(subset)
    stacked = frame._stacked_analysis
    return stacked_partition_identity(stacked, stacked, js, f)


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
