"""Seeded, reproducible generators for vectors, subspaces, and frames.

All randomness flows through numpy's Philox counter-based bit generator.
The 128-bit Philox key packs a 64-bit user seed in the low word and a
substream index in the high word, so retries and independent sampling
purposes each get their own stream without consuming from any other.
Gaussian variates use numpy's ziggurat ``standard_normal``; complex entries
take independent real and imaginary parts, each N(0, 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gframe import GFrame
from .gfusion import GFusionFrame
from .linops import Field, PDTOL, orthonormal_basis, psd_power

__all__ = [
    "MAX_RETRIES",
    "GenerationFailed",
    "ComponentSpec",
    "GenSpec",
    "substream",
    "random_vector",
    "random_operator",
    "random_subspace_basis",
    "sample_vectors",
    "random_gframe",
    "random_parseval_gframe",
    "random_gfusion",
    "random_parseval_gfusion",
    "fusion_special_case",
]

MAX_RETRIES = 16

_MASK64 = (1 << 64) - 1

# Substream purposes; retry attempt a of purpose p uses index 8 * a + p.
_GFUSION = 0
_GFRAME = 1
_FUSION = 2
_VECTORS = 3


class GenerationFailed(RuntimeError):
    """No frame produced within the retry budget; the spec cannot yield one."""


@dataclass(frozen=True)
class ComponentSpec:
    """Dimensions and weight range for one generated component."""

    subspace_dim: int
    codomain_dim: int
    weight_lo: float = 1.0
    weight_hi: float = 1.0

    def __post_init__(self):
        if self.subspace_dim < 1 or self.codomain_dim < 1:
            raise ValueError("component dimensions must be at least 1")
        if not (0.0 < self.weight_lo <= self.weight_hi < math.inf):
            raise ValueError("weight range must satisfy 0 < lo <= hi < inf")


@dataclass(frozen=True)
class GenSpec:
    """Full recipe for one random weighted subspace frame."""

    dim_h: int
    components: tuple[ComponentSpec, ...]
    field: Field = Field.COMPLEX
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.dim_h < 1:
            raise ValueError("dim_h must be at least 1")
        if not self.components:
            raise ValueError("need at least one component spec")
        for c in self.components:
            if c.subspace_dim > self.dim_h:
                raise ValueError("subspace dimension exceeds dim_h")
        if not (0 <= int(self.seed) <= _MASK64):
            raise ValueError("seed must be a 64-bit unsigned integer")


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, substream index)."""
    key = (int(index) << 64) | (int(seed) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _attempt_stream(seed: int, purpose: int, attempt: int) -> np.random.Generator:
    return substream(seed, 8 * attempt + purpose)


def random_vector(dim: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    if field is Field.REAL:
        return rng.standard_normal(dim)
    return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * np.sqrt(0.5)


def random_operator(rows: int, cols: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    if field is Field.REAL:
        return rng.standard_normal((rows, cols))
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) * np.sqrt(0.5)


def random_subspace_basis(dim: int, subspace_dim: int, field: Field, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis of a random subspace of the given dimension."""
    if subspace_dim > dim:
        raise ValueError("subspace dimension exceeds the ambient dimension")
    for _ in range(MAX_RETRIES):
        b = orthonormal_basis(random_operator(dim, subspace_dim, field, rng))
        if b.shape[1] == subspace_dim:
            return b
    raise GenerationFailed("could not draw a full-rank spanning set")


def sample_vectors(dim: int, field: Field, seed: int, count: int) -> list[np.ndarray]:
    """Deterministic test vectors from the seed's vector substream."""
    rng = _attempt_stream(seed, _VECTORS, 0)
    return [random_vector(dim, field, rng) for _ in range(count)]


def random_gframe(dim_h: int, block_dims, field: Field = Field.COMPLEX, seed: int = 0) -> GFrame:
    """Random operator-valued frame with Gaussian blocks.

    Retries on a fresh substream until the family has a positive lower
    bound; raises ``GenerationFailed`` when the block dimensions cannot
    cover the space.
    """
    block_dims = [int(d) for d in block_dims]
    if not block_dims or min(block_dims) < 1:
        raise ValueError("block dimensions must be positive")
    for attempt in range(MAX_RETRIES):
        rng = _attempt_stream(seed, _GFRAME, attempt)
        frame = GFrame([random_operator(d, dim_h, field, rng) for d in block_dims])
        if frame.lower_bound > PDTOL:
            return frame
    raise GenerationFailed(
        f"no frame after {MAX_RETRIES} attempts (block dims {block_dims}, dim {dim_h})"
    )


def random_parseval_gframe(dim_h: int, block_dims, field: Field = Field.COMPLEX, seed: int = 0) -> GFrame:
    """Random operator-valued frame whitened to a Parseval frame."""
    frame = random_gframe(dim_h, block_dims, field, seed)
    w = psd_power(frame.frame_operator, -0.5)
    parseval = GFrame([b @ w for b in frame.blocks])
    if not parseval.is_parseval:
        raise GenerationFailed("whitened family missed the Parseval threshold")
    return parseval


def _gfusion_attempt(spec: GenSpec, attempt: int) -> GFusionFrame:
    rng = _attempt_stream(spec.seed, _GFUSION, attempt)
    comps = []
    for cs in spec.components:
        basis = random_subspace_basis(spec.dim_h, cs.subspace_dim, spec.field, rng)
        block = random_operator(cs.codomain_dim, spec.dim_h, spec.field, rng)
        weight = float(rng.uniform(cs.weight_lo, cs.weight_hi))
        comps.append((basis, block, weight))
    return GFusionFrame(comps)


def random_gfusion(spec: GenSpec) -> GFusionFrame:
    """Random weighted subspace frame drawn from the spec.

    Entries are i.i.d. standard Gaussian per scalar component, subspace
    bases are orthonormalized Gaussian draws, and weights are uniform in the
    component's range.  Construction retries on a fresh substream until the
    frame operator is positive definite, up to ``MAX_RETRIES`` attempts.
    """
    for attempt in range(MAX_RETRIES):
        frame = _gfusion_attempt(spec, attempt)
        if frame.lower_bound > PDTOL:
            return frame
    raise GenerationFailed(
        f"no frame after {MAX_RETRIES} attempts for seed {spec.seed}; "
        "the spec likely cannot cover the space"
    )


def random_parseval_gfusion(spec: GenSpec) -> GFusionFrame:
    """Random weighted subspace frame, whitened to a Parseval frame."""
    for attempt in range(MAX_RETRIES):
        frame = _gfusion_attempt(spec, attempt)
        if frame.lower_bound <= PDTOL:
            continue
        parseval = frame.parsevalize()
        if parseval.is_parseval:
            return parseval
    raise GenerationFailed(
        f"no Parseval frame after {MAX_RETRIES} attempts for seed {spec.seed}"
    )


def fusion_special_case(dim_h: int, subspace_dims, weights, field: Field = Field.COMPLEX, seed: int = 0) -> GFusionFrame:
    """Classical fusion frame as a weighted subspace frame.

    Every block is the identity on H, so analysis reduces to weighted
    projections and the frame operator to the weighted projection sum.  The
    subspaces are random; the result need not be a frame.
    """
    subspace_dims = [int(k) for k in subspace_dims]
    weights = [float(w) for w in weights]
    if len(subspace_dims) != len(weights):
        raise ValueError("need one weight per subspace")
    rng = _attempt_stream(seed, _FUSION, 0)
    eye = np.eye(dim_h, dtype=field.dtype)
    comps = [
        (random_subspace_basis(dim_h, k, field, rng), eye, w)
        for k, w in zip(subspace_dims, weights)
    ]
    return GFusionFrame(comps)
