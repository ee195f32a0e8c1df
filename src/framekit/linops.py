"""Dense linear-operator core for frame verification.

All operators are plain numpy matrices over float64 or complex128.  The
module provides adjoints, Hermitian spectral decompositions, operator powers
of positive-definite matrices (``psd_power`` of a matrix, ``spectral_power``
of its decomposition), orthonormal subspace bases with their
projections, Loewner-order interval tests, and two small operator lemmas the
verification checks lean on.  Every function is pure and never mutates its
arguments.

The acceptance gates (Hermitian symmetry, ``_require_hermitian``, in
``hermitian_eig``, ``hermitian_eigvalsh`` and ``loewner_check``;
orthonormality in ``projection``) keep their spectral
semantics, ``||Y||_2 <= tol * max(floor, ||X||_2, ...)``.  They are decided
first from an O(d^2) Frobenius certificate, which implies the spectral test,
and fall back to the exact spectral test only when the certificate is
inconclusive, so every verdict is the one the spectral test gives.  A
deviation that is not finite (an overflow, computed without a warning)
fails its gate with no SVD.

``hermitian_eigvalsh``, ``loewner_check``, ``operator_norm`` and
``complement_identity_residual`` also take a (k, d, d) stack of operators
and return one value (or one spectrum) per matrix.  The Hermitian gate then
runs per matrix, certificate first, with the spectral fallback on just the
matrices it leaves open.  ``hermitian_eigvalsh`` is the one gated stacked
``eigvalsh``: gate, ``symmetrize``, then one batched call.  The margins of
``loewner_check`` come from one batched ``eigvalsh`` per bound side, or,
when both bounds are multiples of the identity, from one
``hermitian_eigvalsh`` of T, whose smallest and largest eigenvalues give
both.  Each matrix of a stack gets the same arithmetic, and so the same
result, as it would on its own.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "RTOL",
    "HTOL",
    "PDTOL",
    "RKTOL",
    "PARSEVAL_TOL",
    "Field",
    "NotSquare",
    "NotHermitian",
    "NotPositiveDefinite",
    "NotOrthonormal",
    "ZeroSubspace",
    "ShapeMismatch",
    "ZeroLeadingCoefficient",
    "SpectralDecomposition",
    "LoewnerMargin",
    "as_operator",
    "as_vector",
    "adjoint",
    "inner",
    "operator_norm",
    "symmetrize",
    "hermitian_violation",
    "identity_like",
    "hermitian_eig",
    "hermitian_eigvalsh",
    "spectral_power",
    "psd_power",
    "orthonormal_basis",
    "projection",
    "loewner_check",
    "quad_bound",
    "projected_adjoint_residual",
    "complement_identity_residual",
]

# Tolerances.  Double precision at dimensions <= 64 keeps rounding error
# orders of magnitude below all of these.
RTOL = 1e-9  # relative residual tolerance
HTOL = 1e-10  # Hermitian-symmetry gate, relative to the operator norm
PDTOL = 1e-10  # eigenvalue floor for positive definiteness
RKTOL = 1e-10  # numerical-rank threshold, relative to the largest singular value
PARSEVAL_TOL = 1e-8  # ||S - I|| threshold classifying a frame as Parseval


class Field(enum.Enum):
    """Scalar field of the underlying inner-product spaces."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self is Field.REAL else np.complex128)


class NotSquare(ValueError):
    """Operation requires a square operator."""


class NotHermitian(ValueError):
    """Operator fails the Hermitian-symmetry gate."""


class NotPositiveDefinite(ValueError):
    """Hermitian operator has an eigenvalue at or below the positivity floor."""


class NotOrthonormal(ValueError):
    """Matrix columns are not orthonormal."""


class ZeroSubspace(ValueError):
    """All spanning vectors are numerically zero."""


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes."""


class ZeroLeadingCoefficient(ValueError):
    """Quadratic bound needs a nonzero leading coefficient."""


class SpectralDecomposition(NamedTuple):
    """Ascending real eigenvalues and the matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class LoewnerMargin(NamedTuple):
    """Smallest eigenvalues of T - L and U - T plus the interval verdict
    (floats for one operator, arrays for a stack)."""

    lower_margin: float
    upper_margin: float
    passed: bool


_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


def _coerce(a) -> np.ndarray:
    m = np.asarray(a)
    if m.dtype not in _DTYPES:
        m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64)
    return m


def as_operator(a) -> np.ndarray:
    """Validate ``a`` as a dense 2-D operator with finite entries."""
    m = _coerce(a)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"expected a 2-D operator, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    return m


def as_vector(f, dim: int | None = None) -> np.ndarray:
    """Validate ``f`` as a finite 1-D vector, optionally of length ``dim``."""
    v = _coerce(f)
    if v.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ShapeMismatch(f"expected a vector of length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    a = np.conjugate(np.asarray(a))
    return a.swapaxes(-1, -2) if a.ndim > 2 else a.T


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product <x, y>, linear in ``x`` and conjugate-linear in ``y``."""
    return complex(np.vdot(y, x))


def operator_norm(a: np.ndarray):
    """Spectral norm (largest singular value).

    For a (k, rows, cols) stack, the k norms as an array, from one SVD call.
    """
    a = np.asarray(a)
    if a.ndim > 2:
        return np.linalg.norm(a, 2, axis=(-2, -1))
    return float(np.linalg.norm(a, 2))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Hermitian part A/2 + A*/2.

    Halving before the sum keeps it finite for every finite ``a``.  Halving
    a float whose half is normal is exact, so for such entries this is
    (A + A*) / 2 bit for bit wherever that is finite.
    """
    return 0.5 * a + 0.5 * adjoint(a)


def hermitian_violation(a: np.ndarray) -> float:
    """Spectral norm of A - A*."""
    return operator_norm(a - adjoint(a))


def identity_like(a: np.ndarray) -> np.ndarray:
    """Identity of the size of a square operator (or of each one in a stack)."""
    return np.eye(a.shape[-1], dtype=a.dtype)


# The certificate below compares computed Frobenius norms; this slack covers
# their relative rounding and that of the spectral norms (order d * eps each)
# many times over, so a certificate never passes where the spectral test
# would fail.
_CERTIFICATE_SLACK = 1.0 + 1e-6
_TINY = float(np.finfo(np.float64).tiny)


def _frobenius_sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of a matrix, or of each matrix in a stack (a
    scalar for a stack of one, which broadcasts the same way); ``inf``
    where it overflows, which leaves the certificate inconclusive.  Neither
    ``vdot`` nor ``einsum`` raises a floating-point warning."""
    if a.ndim == 2 or len(a) == 1:
        return np.vdot(a, a).real
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a).view(np.float64)  # real, imaginary parts side by side
    return np.einsum("...ij,...ij->...", a, a)


def _norms_within(deviations, tol: float, floor: float, operands=()) -> np.ndarray:
    """Spectral gate: no ``||Y||_2`` exceeds ``tol * max(floor, ||X||_2, ...)``.

    Every argument is a matrix or a (k, rows, cols) stack; the gate runs once
    per stack index, with a plain matrix taking part in every one, and the
    verdicts come back as a boolean array over that index (0-D when no
    argument is a stack).

    ``||Y||_2 <= ||Y||_F`` and ``||X||_F / sqrt(d) <= ||X||_2``, so when every
    Frobenius bound passes the spectral test passes too and no SVD runs.
    Squares that underflow lose less than ``tiny`` each, hence the
    ``size * tiny`` term.  Where the certificate is inconclusive the spectral
    test itself decides, with one ``operator_norm`` call per argument over
    just those indices.  A deviation that is not finite fails with no SVD:
    its norm would be NaN, or its SVD would not converge.
    """
    lower = np.float64(floor)
    for x in operands:
        lower = np.maximum(lower, np.sqrt(_frobenius_sq(x) / min(x.shape[-2:])))
    bound = tol * lower
    ok = bound < math.inf
    for y in deviations:
        size = y.shape[-2] * y.shape[-1]
        ok = ok & (_CERTIFICATE_SLACK * np.sqrt(_frobenius_sq(y) + 2 * size * _TINY) <= bound)
    if ok.all():
        return ok
    finite = np.True_
    for y in deviations:
        finite = finite & np.isfinite(y).all(axis=(-2, -1))
    ok, finite = np.broadcast_arrays(ok, finite)
    shape = ok.shape
    ok, finite = ok.reshape(-1).copy(), finite.reshape(-1)
    open_ = np.flatnonzero(~ok & finite)
    if open_.size:

        def pick(x):
            return x if x.ndim == 2 else x[open_]

        scale = np.float64(floor)
        for x in operands:
            scale = np.maximum(scale, operator_norm(pick(x)))
        spectral = np.True_
        for y in deviations:
            spectral = spectral & (operator_norm(pick(y)) <= tol * scale)
        ok[open_] = spectral
    return ok.reshape(shape)


def _require_hermitian(operands, floor: float, message: str):
    """The Hermitian gate of every caller: ``NotHermitian(message)`` unless
    each operand X has ``||X - X*||_2 <= HTOL * max(floor, ||X||_2, ...)``,
    the norms taken over all the operands, at every stack index
    (``_norms_within``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        deviations = [x - adjoint(x) for x in operands]
    if not _norms_within(deviations, HTOL, floor, operands).all():
        raise NotHermitian(message)


def hermitian_eig(a) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian operator.

    The input is gated by ``||A - A*|| <= HTOL * ||A||`` and symmetrized
    before decomposition so rounding noise cannot change the code path.
    Eigenvalues come back ascending with orthonormal eigenvectors.  A
    finite operator can still have an eigenvalue above the largest float,
    which ``eigh`` returns as ``inf``: that raises ``ValueError``.
    """
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square operator, got shape {a.shape}")
    _require_hermitian([a], 0.0, "operator is not Hermitian within tolerance")
    w, u = np.linalg.eigh(symmetrize(a))
    if not np.isfinite(w).all():
        raise ValueError("the operator's spectrum is not finite")
    return SpectralDecomposition(w, u)


def hermitian_eigvalsh(a, floor: float = 0.0) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian operator, or of each matrix of a
    (k, d, d) stack, shape (..., d).

    Each matrix is gated by ``||A - A*|| <= HTOL * max(floor, ||A||)``,
    raising ``NotHermitian`` when any fails, and symmetrized before one
    batched ``eigvalsh``, so rounding noise cannot change the code path.
    """
    a = _as_operators(a)
    if a.shape[-2] != a.shape[-1]:
        raise NotSquare(f"expected a square operator, got shape {a.shape}")
    _require_hermitian([a], floor, "operator is not Hermitian within tolerance")
    return np.linalg.eigvalsh(symmetrize(a))


def spectral_power(dec: SpectralDecomposition, p: float) -> np.ndarray:
    """Real power U diag(w**p) U* of a Hermitian positive-definite operator,
    from its ``hermitian_eig`` decomposition; the result is Hermitian.
    Raises ``NotPositiveDefinite`` when the smallest eigenvalue is at or
    below ``PDTOL``."""
    w, u = dec
    if w[0] <= PDTOL:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} is not above {PDTOL:.1e}")
    return (u * w**p) @ adjoint(u)


def psd_power(a, p: float) -> np.ndarray:
    """Real power of a Hermitian positive-definite operator:
    ``spectral_power`` of its ``hermitian_eig`` decomposition."""
    return spectral_power(hermitian_eig(a), p)


def orthonormal_basis(vectors) -> np.ndarray:
    """Orthonormal columns spanning the same subspace as ``vectors``.

    ``vectors`` is either a matrix whose columns span the subspace or a
    sequence of 1-D vectors.  Rank-deficient input is compressed to its
    numerical rank (singular values above ``RKTOL`` times the largest).
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        m = as_operator(vectors)
    else:
        cols = [as_vector(v) for v in vectors]
        if not cols:
            raise ZeroSubspace("no spanning vectors given")
        m = np.column_stack(cols)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= np.finfo(np.float64).tiny:
        raise ZeroSubspace("all spanning vectors are numerically zero")
    rank = int(np.count_nonzero(s > RKTOL * s[0]))
    return u[:, :rank]


def projection(basis) -> np.ndarray:
    """Orthogonal projection onto the column span of an orthonormal basis."""
    b = as_operator(basis)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = adjoint(b) @ b
        deviation = gram - identity_like(gram)
    if not _norms_within([deviation], RTOL, 1.0):
        raise NotOrthonormal("basis columns are not orthonormal within tolerance")
    return b @ adjoint(b)


def _as_operators(a) -> np.ndarray:
    """Validate ``a`` as an operator or a (k, rows, cols) stack of them."""
    m = _coerce(a)
    if m.ndim == 2:
        return as_operator(m)
    if m.ndim != 3 or m.shape[1] < 1 or m.shape[2] < 1:
        raise ShapeMismatch(f"expected a 2-D operator or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    return m


def _as_bound(x, like: np.ndarray) -> tuple[np.ndarray, float | None]:
    """The bound as an operator, and the real scalar c when it is c*I."""
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        z = complex(x)
        if z.imag != 0.0:
            raise NotHermitian(f"scalar bound {z!r} is not real")
        if not math.isfinite(z.real):
            raise ValueError(f"scalar bound {z.real!r} is not finite")
        return z.real * identity_like(like), z.real
    return _as_operators(x), None


def loewner_check(t, lower, upper, tol: float) -> LoewnerMargin:
    """Test the operator interval L <= T <= U in the Loewner order.

    ``lower``/``upper`` may be operators or scalars (taken as multiples of
    the identity).  Margins are the smallest eigenvalues of T - L and U - T;
    the verdict passes iff both are >= -tol.  When both bounds are scalars
    a and b, one spectrum of T gives them as lambda_min(T) - a and
    b - lambda_max(T).  Hermitian symmetry of the inputs is gated relative
    to the largest operand norm so that nearly-zero operands do not trip a
    relative test against their own size.

    ``t`` may also be a (k, d, d) stack, each bound then a scalar, one
    operator or a stack of the same shape.  The margins and verdicts come
    back as length-k arrays, from one ``eigvalsh`` call per side (one
    ``hermitian_eigvalsh`` for two scalar bounds), and ``NotHermitian`` is
    raised when any matrix fails the gate.
    """
    t = _as_operators(t)
    if t.shape[-2] != t.shape[-1]:
        raise ShapeMismatch(f"expected a square operator, got shape {t.shape}")
    (lo, lo_c), (up, up_c) = _as_bound(lower, t), _as_bound(upper, t)
    if any(x.shape not in (t.shape, t.shape[-2:]) for x in (lo, up)):
        raise ShapeMismatch("interval operands must share the operator's shape")
    # a scalar bound c*I is exactly Hermitian with norm |c|, so it enters
    # the gate through the floor alone
    floor = max([1.0] + [abs(c) for c in (lo_c, up_c) if c is not None])
    if lo_c is not None and up_c is not None:
        # bounds a*I and b*I: one spectrum gives lambda_min(T) - a and b - lambda_max(T)
        w = hermitian_eigvalsh(t, floor)
        lower_margin, upper_margin = w[..., 0] - lo_c, up_c - w[..., -1]
    else:
        _require_hermitian([t] + [x for x, c in ((lo, lo_c), (up, up_c)) if c is None], floor,
                           "interval operands must be Hermitian within tolerance")
        lower_margin = np.linalg.eigvalsh(symmetrize(t - lo))[..., 0]
        upper_margin = np.linalg.eigvalsh(symmetrize(up - t))[..., 0]
    passed = (lower_margin >= -tol) & (upper_margin >= -tol)
    if t.ndim == 2:
        return LoewnerMargin(float(lower_margin), float(upper_margin), bool(passed))
    return LoewnerMargin(lower_margin, upper_margin, passed)


def quad_bound(a: float, b: float, c: float) -> float:
    """Extremal value (4ac - b^2) / (4a) of the real quadratic a t^2 + b t + c.

    For any self-adjoint ``u`` this bounds the quadratic form of
    a u^2 + b u + c over unit vectors: from below when ``a > 0`` and from
    above when ``a < 0``.
    """
    if a == 0:
        raise ZeroLeadingCoefficient("leading coefficient must be nonzero")
    return (4.0 * a * c - b * b) / (4.0 * a)


def projected_adjoint_residual(v_basis, t) -> float:
    """Residual of the absorption identity P_V T* = P_V T* P_{TV}.

    ``v_basis`` holds orthonormal columns spanning V; TV is the image of V
    under ``t``, re-orthonormalized.  A numerically zero image leaves the
    projection onto TV as the zero operator.
    """
    t = as_operator(t)
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch(f"expected a square operator, got shape {t.shape}")
    b = as_operator(v_basis)
    if b.shape[0] != t.shape[0]:
        raise ShapeMismatch("basis and operator dimensions differ")
    p_v = projection(b)
    lhs = p_v @ adjoint(t)
    try:
        p_tv = projection(orthonormal_basis(t @ b))
    except ZeroSubspace:
        return operator_norm(lhs)
    return operator_norm(lhs - lhs @ p_tv)


def complement_identity_residual(u):
    """Residual of u - v = u^2 - v^2 for the complement v = I - u.

    For a (k, d, d) stack, the k residuals as an array, from one SVD call.
    """
    u = _as_operators(u)
    if u.shape[-2] != u.shape[-1]:
        raise NotSquare(f"expected a square operator, got shape {u.shape}")
    v = identity_like(u) - u
    return operator_norm((u - v) - (u @ u - v @ v))
