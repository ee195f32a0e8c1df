"""Weighted subspace frames: triples of (subspace, block operator, weight).

Each component carries an orthonormal basis of a closed subspace W_j of H,
a block operator acting on H, and a positive weight.  The frame operator
sums the weighted, projected block Gram terms.  The canonical dual maps the
subspaces through the inverse frame operator; whitening by the inverse
square root yields a Parseval frame.  Subspaces are stored as orthonormal
column bases, never as projection matrices; projections are derived.

The identities and bounds are sums of block energies
weight_j^2 ||block_j P_j f||^2.  ``block_energies`` computes all of them
with one product by the stacked analysis operator
[w_1 B_1 P_1; ...; w_n B_n P_n], built once per frame and kept read-only,
and one segmented sum over the block row ranges.  It raises the same errors
as the per-block ``analysis`` route, which stays the reference.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .gframe import BlockVector, IdentityTerms, IndexOutOfRange, NotAFrame
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
        for c, p in zip(self.components, self.projections):
            terms.append((c.weight**2) * (p @ (adjoint(c.block) @ c.block) @ p))
        self._component_terms = tuple(terms)
        s = np.zeros((dim, dim), dtype=self.dtype)
        for term in terms:
            s = s + term
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
        return self._stacked_analysis[0].view()

    @functools.cached_property
    def _stacked_analysis(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked analysis operator and the first row of each block in it."""
        rows = [c.weight * (c.block @ p) for c, p in zip(self.components, self.projections)]
        stack = np.vstack(rows)
        stack.setflags(write=False)
        starts = np.cumsum([0] + [r.shape[0] for r in rows[:-1]])
        return stack, starts

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
        return DualGFusionFrame(comps, primal=self)

    @functools.cached_property
    def _dual_terms(self) -> tuple[np.ndarray, ...]:
        dual = self.canonical_dual
        out = []
        for c, p, dc, dp in zip(
            self.components, self.projections, dual.components, dual.projections
        ):
            out.append((c.weight**2) * (p @ adjoint(c.block) @ (dc.block @ dp)))
        return tuple(out)

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
    """Canonical dual of a weighted subspace frame; keeps a primal reference."""

    def __init__(self, components, primal: GFusionFrame):
        super().__init__(components)
        self.primal = primal


def block_energies(frame: GFusionFrame, f) -> np.ndarray:
    """Per-component energies weight_j^2 ||block_j P_j f||^2.

    One product with the stacked analysis operator and one segmented sum of
    its squared moduli over the block row ranges; ``analysis`` is the
    per-block reference route.  ``f`` is validated once and the stacked
    image once, raising what ``analysis`` raises: ``ShapeMismatch`` for a
    wrong shape and ``ValueError`` when ``f`` or its image is not finite.
    """
    f = as_vector(f, frame.dim_h)
    stack, starts = frame._stacked_analysis
    y = stack @ f
    if not np.isfinite(y).all():
        raise ValueError("vector entries must be finite")
    return np.add.reduceat((y.conj() * y).real, starts)


def partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Subset/complement energy identity through the canonical dual triple.

    lhs sums the weighted inner products of dual and primal block images over
    the subset and subtracts the squared norm of the truncated reconstruction
    of f; rhs mirrors it over the complement with conjugated inner products.
    """
    f = as_vector(f, frame.dim_h)
    dual = frame.canonical_dual
    js = frame._validate_subset(subset)
    ks = frame.complement(js)

    def side(ids, conjugate):
        acc = 0j
        s_f = np.zeros(frame.dim_h, dtype=np.promote_types(frame.dtype, f.dtype))
        for j in ids:
            c, p = frame.components[j], frame.projections[j]
            dc, dp = dual.components[j], dual.projections[j]
            dy = dc.block @ (dp @ f)
            ip = (c.weight**2) * inner(dy, c.block @ (p @ f))
            acc += np.conjugate(ip) if conjugate else ip
            s_f = s_f + (c.weight**2) * (p @ (adjoint(c.block) @ dy))
        return acc - np.vdot(s_f, s_f).real

    lhs = side(js, False)
    rhs = side(ks, True)
    return IdentityTerms(complex(lhs), complex(rhs), float(abs(lhs - rhs)))


def parseval_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Parseval special case: block energies minus the squared norms of the
    truncated frame-operator images, subset side versus complement side."""
    f = as_vector(f, frame.dim_h)
    js = frame._validate_subset(subset)
    ks = frame.complement(js)
    e = block_energies(frame, f)

    def side(ids):
        m_f = frame.partial_frame_operator(ids) @ f
        return float(e[list(ids)].sum()) - np.vdot(m_f, m_f).real

    lhs = side(js)
    rhs = side(ks)
    return IdentityTerms(complex(lhs), complex(rhs), float(abs(lhs - rhs)))


def whitened_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Partition identity for general frames after whitening.

    Each side adds the subset's block energy to the squared norm of the
    complement's truncated frame-operator image mapped through the inverse
    square root of the frame operator.
    """
    f = as_vector(f, frame.dim_h)
    r = frame.inverse_sqrt
    js = frame._validate_subset(subset)
    ks = frame.complement(js)
    e = block_energies(frame, f)

    def side(ids, others):
        w = r @ (frame.partial_frame_operator(others) @ f)
        return float(e[list(ids)].sum()) + np.vdot(w, w).real

    lhs = side(js, ks)
    rhs = side(ks, js)
    return IdentityTerms(complex(lhs), complex(rhs), float(abs(lhs - rhs)))


def frame_partition_identity(frame: GFusionFrame, subset, f) -> IdentityTerms:
    """Partition identity for truncated frame operators, evaluated through
    the canonical dual's analysis energy.

    Each side subtracts from the subset's block energy the full dual analysis
    energy of the truncated frame-operator image of f.
    """
    f = as_vector(f, frame.dim_h)
    dual = frame.canonical_dual
    js = frame._validate_subset(subset)
    ks = frame.complement(js)
    e = block_energies(frame, f)

    def side(ids):
        m_f = frame.partial_frame_operator(ids) @ f
        return float(e[list(ids)].sum()) - block_energies(dual, m_f).sum()

    lhs = side(js)
    rhs = side(ks)
    return IdentityTerms(complex(lhs), complex(rhs), float(abs(lhs - rhs)))


def inverse_quadratic_residual(frame: GFusionFrame, f) -> float:
    """Gap between the quadratic form of the inverse frame operator at f and
    the dual frame's analysis energy of f."""
    f = as_vector(f, frame.dim_h)
    lhs = inner(frame.inverse @ f, f)
    rhs = block_energies(frame.canonical_dual, f).sum()
    return float(abs(lhs - rhs))
