"""Command-line front end and file formats.

Subcommands: ``gen`` writes a random frame to a frame file, ``verify`` runs
the check suite over generated instances or a loaded frame and can emit a
JSON or CSV report, ``demo-reconstruct`` prints a reconstruction round trip
for one vector.  Exit codes: 0 success, 1 verification/generation failure,
2 invalid configuration or unreadable input.

Frame files and reports are JSON.  Real matrices serialize as nested arrays
of numbers, complex ones as nested arrays of [re, im] pairs; floats use
Python's shortest round-trip representation, so reloading is bit-exact.
The environment variable ``FRAMEKIT_TOLERANCE`` overrides the default
residual/margin tolerance (flags still win).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .gen import (
    ComponentSpec,
    GenerationFailed,
    GenSpec,
    random_gfusion,
    random_parseval_gfusion,
    random_vector,
    substream,
)
from .gframe import GFrame
from .gfusion import GFusionFrame
from .linops import Field, adjoint
from .verify import (CATALOG, CheckId, RunReport, SuitePlan, Tolerances, frame_kind,
                     inapplicable, run_suite)

__all__ = [
    "FRAME_FORMAT_VERSION",
    "frame_to_dict",
    "frame_from_dict",
    "save_frame",
    "load_frame",
    "report_to_json",
    "report_to_csv",
    "build_parser",
    "main",
]

FRAME_FORMAT_VERSION = 1

_TOL_ENV = "FRAMEKIT_TOLERANCE"


# ---------------------------------------------------------------------------
# frame files


def _encode_matrix(m: np.ndarray, field: Field) -> list:
    """Nested lists for ``m`` in the frame's field: a real matrix in a
    complex frame is written as [re, 0.0] pairs, as the decoder expects."""
    if field is Field.COMPLEX:
        m = np.asarray(m, dtype=np.complex128)
        return np.stack([m.real, m.imag], axis=-1).tolist()
    return m.tolist()


def _decode_matrix(rows: list, field: Field) -> np.ndarray:
    m = np.array(rows, dtype=np.float64)
    if field is Field.REAL:
        return m
    if m.ndim != 3 or m.shape[2] != 2:
        raise ValueError(f"complex matrix must be rows of [re, im] pairs, got shape {m.shape}")
    z = np.empty(m.shape[:2], dtype=np.complex128)
    z.real = m[..., 0]
    z.imag = m[..., 1]
    return z


def frame_to_dict(frame) -> dict:
    kind = frame_kind(frame)
    fld = frame.field
    if kind == "gframe":
        components = [{"lambda": _encode_matrix(b, fld)} for b in frame.blocks]
    else:
        components = [
            {
                "lambda": _encode_matrix(c.block, fld),
                "basis": _encode_matrix(c.basis, fld),
                "weight": float(c.weight),
            }
            for c in frame.components
        ]
    return {
        "format_version": FRAME_FORMAT_VERSION,
        "field": fld.value,
        "dim_h": frame.dim_h,
        "kind": kind,
        "components": components,
    }


def frame_from_dict(data: dict):
    """The frame a frame-file dict describes; malformed data, a missing key
    or a number out of range included, raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"frame file must hold a JSON object, got {type(data).__name__}")
    version = data.get("format_version")
    if version != FRAME_FORMAT_VERSION:
        raise ValueError(f"unsupported frame file version: {version!r}")
    try:
        fld = Field(data["field"])
        kind = data["kind"]
        components = data["components"]
        if kind == "gframe":
            frame = GFrame([_decode_matrix(c["lambda"], fld) for c in components])
        elif kind == "gfusion":
            frame = GFusionFrame(
                [
                    (_decode_matrix(c["basis"], fld), _decode_matrix(c["lambda"], fld),
                     c["weight"])
                    for c in components
                ]
            )
        else:
            raise ValueError(f"unknown frame kind: {kind!r}")
        dim_h = int(data["dim_h"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed frame data ({type(exc).__name__}: {exc})") from exc
    if frame.dim_h != dim_h:
        raise ValueError("frame file dim_h does not match its matrices")
    return frame


def save_frame(frame, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(frame_to_dict(frame)) + "\n")


def load_frame(path: str):
    """Read a frame file.  Malformed content, also nesting too deep for the
    JSON parser, raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return frame_from_dict(json.load(fh))
        except RecursionError as exc:
            raise ValueError(f"unreadable frame data ({type(exc).__name__}: {exc})") from exc


# ---------------------------------------------------------------------------
# reports


def report_to_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def report_to_csv(report: RunReport) -> str:
    """Flat projection of the per-check summaries; same numerics as JSON."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["id", "instances", "evaluations", "max_residual", "min_margin", "pass", "witness_count"]
    )
    for s in report.checks:
        writer.writerow(
            [
                s.check.value,
                s.instances,
                s.evaluations,
                "" if s.max_residual is None else repr(s.max_residual),
                "" if s.min_margin is None else repr(s.min_margin),
                s.passed,
                s.witness_count,
            ]
        )
    return out.getvalue()


def _print_report(report: RunReport, stream):
    for s in report.checks:
        bits = [f"instances={s.instances}", f"evals={s.evaluations}"]
        if s.max_residual is not None:
            bits.append(f"max_residual={s.max_residual:.3e}")
        if s.min_margin is not None:
            bits.append(f"min_margin={s.min_margin:.3e}")
        if CATALOG[s.check].probe:
            bits.append(f"witnesses={s.witness_count}")
        status = "PASS" if s.passed else "FAIL"
        print(f"{status} {s.check.value:<18} {' '.join(bits)}", file=stream)
    verdict = "PASS" if report.overall_pass else "FAIL"
    print(f"overall: {verdict} ({report.wall_time_s:.2f}s)", file=stream)


# ---------------------------------------------------------------------------
# flag parsing helpers


class _ConfigError(Exception):
    pass


def _tolerance(value: float, message: str) -> float:
    """``value`` when ``Tolerances`` takes it (finite and nonnegative, the one
    rule for every tolerance), else a ``_ConfigError`` saying ``message``."""
    try:
        Tolerances(value, value)
    except ValueError:
        raise _ConfigError(message) from None
    return value


def _env_tolerance() -> float | None:
    raw = os.environ.get(_TOL_ENV)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise _ConfigError(f"{_TOL_ENV} must be a number, got {raw!r}")
    return _tolerance(value, f"{_TOL_ENV} must be finite and nonnegative, got {value}")


def _resolve_tolerances(args) -> Tolerances:
    """Each tolerance from its flag, else from the environment, else the
    ``Tolerances`` default."""
    base = _env_tolerance()
    default = Tolerances()
    residual = args.tol_residual if args.tol_residual is not None else base
    margin = args.tol_margin if args.tol_margin is not None else base
    try:
        return Tolerances(
            residual=default.residual if residual is None else residual,
            margin=default.margin if margin is None else margin,
        )
    except ValueError as exc:
        raise _ConfigError(str(exc))


def _parse_checks(tokens) -> tuple[CheckId, ...]:
    if not tokens or any(t.lower() == "all" for t in tokens):
        return tuple(CheckId)
    out = []
    for t in tokens:
        try:
            out.append(CheckId(t.upper()))
        except ValueError:
            known = ", ".join(c.value for c in CheckId)
            raise _ConfigError(f"unknown check {t!r}; known checks: {known}")
    return tuple(out)


def _parse_field(token: str) -> tuple[Field, ...]:
    token = token.lower()
    if token == "both":
        return (Field.REAL, Field.COMPLEX)
    try:
        return (Field(token),)
    except ValueError:
        raise _ConfigError(f"field must be real, complex, or both; got {token!r}")


def _parse_component_triples(tokens) -> tuple[ComponentSpec, ...]:
    specs = []
    for t in tokens:
        parts = t.split(":")
        if len(parts) != 3:
            raise _ConfigError(f"component {t!r} is not of the form dim:codim:weight")
        try:
            k, d, w = int(parts[0]), int(parts[1]), float(parts[2])
            specs.append(ComponentSpec(k, d, w, w))
        except ValueError as exc:
            raise _ConfigError(f"bad component {t!r}: {exc}")
    return tuple(specs)


def _complex_token(tok: str) -> complex:
    # an "i" that ends the number is the imaginary unit ("2i", "1+i", "1+infi");
    # any other "i" belongs to "inf" or "infinity"
    tok = tok.strip()
    return complex(tok[:-1] + "j" if tok.endswith("i") else tok)


def _parse_vector(text: str, fld: Field) -> np.ndarray:
    try:
        values = [_complex_token(tok) for tok in text.split(",")]
    except ValueError:
        raise _ConfigError(f"could not parse vector {text!r}")
    arr = np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise _ConfigError(f"vector {text!r} has a coordinate that is not finite")
    with np.errstate(over="ignore"):
        norm_sq = np.vdot(arr, arr).real
    if not np.isfinite(norm_sq):
        raise _ConfigError(f"vector {text!r} has a squared norm that is not finite")
    if fld is Field.REAL:
        if np.any(arr.imag != 0):
            raise _ConfigError("complex vector given for a real frame")
        return arr.real.astype(np.float64)
    return arr


# ---------------------------------------------------------------------------
# subcommands


def _generated_frame(args, command: str):
    """The weighted subspace frame ``gen`` and ``demo-reconstruct --random``
    draw from ``--dim``, ``--components``, ``--field``, ``--seed`` and
    ``--parseval``; a bad flag raises ``_ConfigError`` or ``ValueError``."""
    components = _parse_component_triples(args.components)
    fields = _parse_field(args.field)
    if len(fields) != 1:
        raise _ConfigError(f"{command} needs a single field, not 'both'")
    spec = GenSpec(args.dim, components, fields[0], args.seed)
    return random_parseval_gfusion(spec) if args.parseval else random_gfusion(spec)


def cmd_gen(args) -> int:
    try:
        frame = _generated_frame(args, "gen")
    except GenerationFailed as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    except (_ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        save_frame(frame, args.out)
    except OSError as exc:
        print(f"error: could not write frame file: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {frame_kind(frame)} frame (dim {frame.dim_h}, "
          f"{len(frame)} components) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    try:
        tol = _resolve_tolerances(args)
        checks = _parse_checks(args.checks)
        fields = _parse_field(args.field)
        if args.seeds < 1:
            raise _ConfigError("--seeds must be at least 1")
        frame = None
        if args.frame is not None:
            try:
                frame = load_frame(args.frame)
            except (OSError, ValueError) as exc:
                raise _ConfigError(f"could not load frame file {args.frame!r}: {exc}")
            if not frame.is_frame:
                raise _ConfigError(
                    f"frame file {args.frame!r} has no positive lower bound; nothing to verify"
                )
            refused = [c.value for c in checks if inapplicable(CATALOG[c], frame) is not None]
            if args.checks and not any(t.lower() == "all" for t in args.checks):
                if refused:
                    raise _ConfigError(
                        f"checks not applicable to this frame: {', '.join(refused)}"
                    )
            else:
                checks = tuple(c for c in checks if c.value not in refused)
                if not checks:
                    raise _ConfigError("no applicable checks for this frame")
        plan = SuitePlan(
            dims=tuple(args.dims),
            fields=fields,
            seeds=tuple(range(args.seeds)),
            components=args.components,
            checks=checks,
            tol=tol,
            frame_path=args.frame,
        )
    except (_ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_suite(plan, frame=frame)
    except GenerationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # for example a Loewner gate that an ill-conditioned frame misses
        print(f"error: could not evaluate the checks: {exc}", file=sys.stderr)
        return 2
    _print_report(report, sys.stdout)
    if args.report is not None:
        text = report_to_csv(report) if args.format == "csv" else report_to_json(report)
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: could not write report: {exc}", file=sys.stderr)
            return 2
    return 0 if report.overall_pass else 1


def _demo_frame(args):
    if args.frame is not None:
        return load_frame(args.frame)
    if not args.random:
        raise _ConfigError("need --frame PATH or --random")
    return _generated_frame(args, "demo")


def cmd_demo_reconstruct(args) -> int:
    try:
        if args.tol is None:
            env = _env_tolerance()
            args.tol = 1e-9 if env is None else env
        _tolerance(args.tol, f"tolerance must be finite and nonnegative, got {args.tol}")
        try:
            frame = _demo_frame(args)
        except (OSError, ValueError, GenerationFailed) as exc:
            raise _ConfigError(f"could not obtain a frame: {exc}")
        if not frame.is_frame:
            raise _ConfigError("frame has no positive lower bound; cannot reconstruct")
        fld = frame.field
        if args.vector is not None:
            f = _parse_vector(args.vector, fld)
            if f.shape[0] != frame.dim_h:
                raise _ConfigError(
                    f"vector has length {f.shape[0]}, frame dimension is {frame.dim_h}"
                )
        else:
            f = random_vector(frame.dim_h, fld, substream(args.vector_seed, 0))
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if frame_kind(frame) == "gfusion":
        routes = [
            ("frame-operator route", frame.frame_operator @ (frame.inverse @ f)),
            ("canonical-dual route", frame.partial_sum(range(len(frame))) @ f),
        ]
    else:
        s_full = frame.partial_sum(range(len(frame)))
        routes = [
            ("dual-synthesis route", adjoint(s_full) @ f),
            ("dual-analysis route", s_full @ f),
        ]

    nf = float(np.linalg.norm(f))
    print(f"f               = {np.array2string(f, precision=6)}")
    ok = True
    for name, recon in routes:
        err = float(np.linalg.norm(recon - f)) / nf if nf > 0 else 0.0
        ok = ok and err <= args.tol
        print(f"{name:<22}= {np.array2string(recon, precision=6)}  rel_error={err:.3e}")
    print(f"tolerance {args.tol:.1e}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Construct frames and machine-check their identities and inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # verify's defaults give the default SuitePlan; its seeds are range(--seeds)
    plan = SuitePlan()
    dims = " ".join(map(str, plan.dims))
    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--dims", type=int, nargs="+", default=list(plan.dims),
                          help=f"space dimensions to sweep (default: {dims})")
    p_verify.add_argument("--field", default="both",
                          help="scalar field: real, complex, or both (default: both)")
    p_verify.add_argument("--seeds", type=int, default=len(plan.seeds),
                          help=f"number of seeds per configuration (default: {len(plan.seeds)})")
    p_verify.add_argument("--components", type=int, default=plan.components,
                          help=f"components per generated frame (default: {plan.components})")
    p_verify.add_argument("--checks", nargs="+", default=["all"],
                          help="check ids to run, or 'all' (default: all)")
    p_verify.add_argument("--tol-residual", type=float, default=None,
                          help="residual tolerance (default: 1e-8)")
    p_verify.add_argument("--tol-margin", type=float, default=None,
                          help="margin tolerance (default: 1e-8)")
    p_verify.add_argument("--frame", default=None,
                          help="verify a saved frame file instead of generated instances")
    p_verify.add_argument("--report", default=None, help="write a report file here")
    p_verify.add_argument("--format", choices=["json", "csv"], default="json",
                          help="report file format (default: json)")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random frame file")
    p_gen.add_argument("--dim", type=int, required=True, help="space dimension")
    p_gen.add_argument("--components", nargs="+", required=True,
                       help="component triples subspace_dim:codomain_dim:weight")
    p_gen.add_argument("--field", default="complex",
                       help="scalar field: real or complex (default: complex)")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p_gen.add_argument("--parseval", action="store_true",
                       help="whiten the generated frame to a Parseval frame")
    p_gen.add_argument("--out", required=True, help="output frame file path")
    p_gen.set_defaults(func=cmd_gen)

    p_demo = sub.add_parser("demo-reconstruct", help="reconstruct one vector and report errors")
    p_demo.add_argument("--frame", default=None, help="frame file to load")
    p_demo.add_argument("--random", action="store_true", help="generate a random frame instead")
    p_demo.add_argument("--dim", type=int, default=4, help="dimension for --random (default: 4)")
    p_demo.add_argument("--components", nargs="+", default=["2:2:1", "2:3:1", "3:2:1"],
                        help="component triples for --random")
    p_demo.add_argument("--field", default="complex", help="field for --random (default: complex)")
    p_demo.add_argument("--seed", type=int, default=0, help="seed for --random (default: 0)")
    p_demo.add_argument("--parseval", action="store_true", help="whiten the random frame")
    p_demo.add_argument("--vector", default=None,
                        help="comma-separated coordinates, e.g. '3,4' or '1+2j,0'")
    p_demo.add_argument("--random-vector", action="store_true",
                        help="draw the vector from a seeded stream (default when no --vector)")
    p_demo.add_argument("--vector-seed", type=int, default=0,
                        help="seed for --random-vector (default: 0)")
    p_demo.add_argument("--tol", type=float, default=None,
                        help="relative reconstruction tolerance (default: 1e-9)")
    p_demo.set_defaults(func=cmd_demo_reconstruct)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
