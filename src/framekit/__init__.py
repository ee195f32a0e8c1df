"""framekit: construct operator-valued and weighted subspace frames and
machine-check their identities and inequalities as tolerance-controlled
properties over seeded random instances."""

import importlib

from .linops import (
    Field,
    HTOL,
    LoewnerMargin,
    NotHermitian,
    NotOrthonormal,
    NotPositiveDefinite,
    NotSquare,
    PARSEVAL_TOL,
    PDTOL,
    RKTOL,
    RTOL,
    ShapeMismatch,
    SpectralDecomposition,
    ZeroLeadingCoefficient,
    ZeroSubspace,
    adjoint,
    as_operator,
    as_vector,
    complement_identity_residual,
    hermitian_eig,
    hermitian_eigvalsh,
    inner,
    loewner_check,
    operator_norm,
    orthonormal_basis,
    projected_adjoint_residual,
    projection,
    psd_power,
    quad_bound,
    symmetrize,
)
from .gframe import GFrame, IdentityTerms, IndexOutOfRange, NotAFrame
from .gfusion import GFusionComponent, GFusionFrame
from .gen import (
    ComponentSpec,
    GenerationFailed,
    GenSpec,
    random_gframe,
    random_gfusion,
    random_parseval_gframe,
    random_parseval_gfusion,
    sample_vectors,
    substream,
)
from .verify import (
    CATALOG,
    CheckId,
    CheckResult,
    CheckSummary,
    RunReport,
    SuitePlan,
    Tolerances,
    WrongFrameKind,
    run_check,
    run_suite,
)

__version__ = "0.1.0"


def __getattr__(name):
    # ``cli`` loads on first use, so that ``python -m framekit.cli`` runs it
    # as ``__main__`` without finding it imported already by the package
    if name not in ("cli", "load_frame", "save_frame"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    cli = importlib.import_module(".cli", __name__)
    return cli if name == "cli" else getattr(cli, name)


__all__ = [
    "Field",
    "RTOL",
    "HTOL",
    "PDTOL",
    "RKTOL",
    "PARSEVAL_TOL",
    "SpectralDecomposition",
    "LoewnerMargin",
    "NotSquare",
    "NotHermitian",
    "NotPositiveDefinite",
    "NotOrthonormal",
    "ZeroSubspace",
    "ShapeMismatch",
    "ZeroLeadingCoefficient",
    "NotAFrame",
    "IndexOutOfRange",
    "GenerationFailed",
    "WrongFrameKind",
    "adjoint",
    "as_operator",
    "as_vector",
    "inner",
    "operator_norm",
    "symmetrize",
    "hermitian_eig",
    "hermitian_eigvalsh",
    "psd_power",
    "orthonormal_basis",
    "projection",
    "loewner_check",
    "quad_bound",
    "projected_adjoint_residual",
    "complement_identity_residual",
    "GFrame",
    "IdentityTerms",
    "GFusionComponent",
    "GFusionFrame",
    "ComponentSpec",
    "GenSpec",
    "substream",
    "sample_vectors",
    "random_gframe",
    "random_parseval_gframe",
    "random_gfusion",
    "random_parseval_gfusion",
    "CheckId",
    "CATALOG",
    "CheckResult",
    "CheckSummary",
    "Tolerances",
    "SuitePlan",
    "RunReport",
    "run_check",
    "run_suite",
    "save_frame",
    "load_frame",
    "__version__",
]
