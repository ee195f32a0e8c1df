"""Command-line front end and file formats.

Subcommands: ``gen`` writes a random frame to a frame file, ``verify`` runs
the check suite over generated instances or a loaded frame and can emit a
JSON or CSV report, ``demo-reconstruct`` prints a reconstruction round trip
for one vector through the maps that EQ4_RECON and EQ5_DUAL_RECON check.
Exit codes: 0 success, 1 verification/generation failure, 2 invalid
configuration or unreadable input, which every subcommand reports as a
``ValueError``.  A spec from which no frame can be generated
(``GenerationFailed``) exits 1 from ``gen``, with a ``generation failed:``
line, but 2 from ``verify`` and ``demo-reconstruct --random``, with an
``error:`` line.

Each input is decided in one place: a tolerance by ``_tolerance`` (its
flag, else ``FRAMEKIT_TOLERANCE``, read only when the flag is absent, else
the default), a frame file by ``_frame_file``.  Frame files and JSON reports
are JSON; a CSV report writes columns of the same per-check dicts.  Real
matrices serialize as nested arrays of numbers, complex ones as nested
arrays of [re, im] pairs; floats use Python's shortest round-trip
representation, so reloading is bit-exact.  Every matrix entry of a frame
file must be a JSON number: a string, a boolean or null is refused.

A frame file's layout is decided once, by ``_frame_layout``, and its text
once, by ``_write_json``.  ``save_frame`` writes that text one matrix at a
time, and ``frame_to_dict`` parses what ``save_frame`` writes, so a file
holds the bytes of ``json.dumps(frame_to_dict(frame)) + "\\n"``.
``load_frame`` makes each component's matrices arrays as soon as the parser
closes it, so neither ``save_frame`` nor ``load_frame`` holds the whole
frame as nested lists.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
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
from .linops import Field
from .verify import (CATALOG, CheckId, RunReport, SuitePlan, Tolerances, _dual_maps,
                     _operator_maps, inapplicable, run_suite)

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

_CSV_FIELDS = ("id", "instances", "evaluations", "max_residual", "min_margin", "pass",
               "witness_count")


# ---------------------------------------------------------------------------
# frame files


def _encode_matrix(m: np.ndarray, field: Field) -> list:
    """Nested lists for ``m`` in the frame's field: a real matrix in a
    complex frame is written as [re, 0.0] pairs, as the decoder expects."""
    if field is Field.COMPLEX:
        m = np.asarray(m, dtype=np.complex128)
        return np.stack([m.real, m.imag], axis=-1).tolist()
    return m.tolist()


# what ``json`` parses a string, true or false, and null into
_NOT_NUMBERS = {str: "a string", bool: "a boolean", type(None): "null"}


def _float_array(rows, key: str) -> np.ndarray:
    """``rows`` as a float64 array.  Nested lists are read level by level,
    one ``map(type)`` per level, and an entry that is a string, a boolean
    or null raises ``ValueError`` naming ``key``: numpy alone would parse
    "1.5" and take true as 1.0."""
    level, types = rows, set(map(type, rows)) if isinstance(rows, list) else set()
    while types == {list}:
        level = list(itertools.chain.from_iterable(level))
        types = set(map(type, level))
    for kind, name in _NOT_NUMBERS.items():
        if kind in types:
            raise ValueError(f"frame file {key!r} entries must be JSON numbers, got {name}")
    return np.array(rows, dtype=np.float64)


def _decode_matrix(component: dict, key: str, field: Field) -> np.ndarray:
    """The matrix ``component[key]`` describes: nested lists, or the float64
    array ``_decode_components`` made of them, which is taken uncopied."""
    m = component[key]
    if not isinstance(m, np.ndarray):
        m = _float_array(m, key)
    if field is Field.REAL:
        return m
    if m.ndim != 3 or m.shape[2] != 2:
        raise ValueError(f"complex matrix must be rows of [re, im] pairs, got shape {m.shape}")
    z = np.empty(m.shape[:2], dtype=np.complex128)
    z.real = m[..., 0]
    z.imag = m[..., 1]
    return z


def _frame_layout(frame) -> tuple:
    """The frame file of ``frame`` as an object: a tuple of (key, value)
    pairs in file order, whose ``components`` value is a list of such
    objects.  Matrices stay arrays, for ``_encode_matrix`` to write one at a
    time."""
    if frame.kind == "gframe":
        components = [(("lambda", b),) for b in frame.blocks]
    else:
        components = [(("lambda", c.block), ("basis", c.basis), ("weight", float(c.weight)))
                      for c in frame.components]
    return (("format_version", FRAME_FORMAT_VERSION), ("field", frame.field.value),
            ("dim_h", frame.dim_h), ("kind", frame.kind), ("components", components))


def _write_json(fh, node, field: Field):
    """Write the JSON text of a ``_frame_layout`` node to ``fh`` one leaf at
    a time, with ``json.dumps``'s separators, so no more than one matrix is
    held as lists and text."""
    if isinstance(node, tuple):
        fh.write("{")
        for i, (key, value) in enumerate(node):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(fh, value, field)
        fh.write("}")
    elif isinstance(node, list):
        fh.write("[")
        for i, item in enumerate(node):
            if i:
                fh.write(", ")
            _write_json(fh, item, field)
        fh.write("]")
    else:
        fh.write(json.dumps(_encode_matrix(node, field) if isinstance(node, np.ndarray) else node))


def frame_to_dict(frame) -> dict:
    """The frame file's JSON value: ``json.loads`` of the text ``save_frame``
    writes, so both read one encoding."""
    text = io.StringIO()
    _write_json(text, _frame_layout(frame), frame.field)
    return json.loads(text.getvalue())


def _number(value, name: str, integer: bool = False):
    """``value`` when it is a JSON number, or a JSON integer when
    ``integer``; a bool or a string of digits raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, "
                         f"got {value!r}")
    return value


def frame_from_dict(data: dict):
    """The frame a frame-file dict describes; malformed data, a missing key,
    a scalar of the wrong type (``dim_h`` is a JSON integer, a ``weight`` a
    JSON number, and neither is a bool) or a number out of range included,
    raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"frame file must hold a JSON object, got {type(data).__name__}")
    version = data.get("format_version")
    if isinstance(version, bool) or version != FRAME_FORMAT_VERSION:
        raise ValueError(f"unsupported frame file version: {version!r}")
    try:
        dim_h = _number(data["dim_h"], "frame file dim_h", integer=True)
        fld = Field(data["field"])
        kind = data["kind"]
        components = data["components"]
        if kind == "gframe":
            frame = GFrame([_decode_matrix(c, "lambda", fld) for c in components])
        elif kind == "gfusion":
            frame = GFusionFrame(
                [
                    (_decode_matrix(c, "basis", fld), _decode_matrix(c, "lambda", fld),
                     _number(c["weight"], "component weight"))
                    for c in components
                ]
            )
        else:
            raise ValueError(f"unknown frame kind: {kind!r}")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed frame data ({type(exc).__name__}: {exc})") from exc
    if frame.dim_h != dim_h:
        raise ValueError("frame file dim_h does not match its matrices")
    return frame


def save_frame(frame, path: str):
    """Write ``json.dumps(frame_to_dict(frame)) + "\\n"`` to ``path``, in
    memory bounded by one matrix rather than by the whole frame."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, _frame_layout(frame), frame.field)
        fh.write("\n")


def _decode_components(obj: dict) -> dict:
    """``json.load``'s object hook: the matrices of a component become
    float64 arrays as soon as it closes, so only one component's nested
    lists are alive at a time.  A value that does not convert, or holds an
    entry that is not a JSON number, stays as parsed, for
    ``frame_from_dict`` to refuse it with the error it raises on
    ``json.loads`` of the same text."""
    for key in ("lambda", "basis"):
        if key in obj:
            try:
                obj[key] = _float_array(obj[key], key)
            except (ValueError, TypeError, OverflowError):
                pass
    return obj


def load_frame(path: str):
    """Read a frame file, in memory bounded by the text and one component's
    lists.  Malformed content, also nesting too deep for the JSON parser,
    raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return frame_from_dict(json.load(fh, object_hook=_decode_components))
        except RecursionError as exc:
            raise ValueError(f"unreadable frame data ({type(exc).__name__}: {exc})") from exc


# ---------------------------------------------------------------------------
# reports


def report_to_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def report_to_csv(report: RunReport) -> str:
    """The columns ``_CSV_FIELDS`` of each check's JSON dict: the same
    numerics, a null as an empty cell."""
    out = io.StringIO()
    writer = csv.DictWriter(out, _CSV_FIELDS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(s.to_dict() for s in report.checks)
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


def _tolerance(flag: float | None, default: float, name: str) -> float:
    """The tolerance from ``flag`` (the option ``name``), else from
    ``FRAMEKIT_TOLERANCE``, which is read only when the flag is absent, else
    ``default``.  A value ``Tolerances`` refuses (not finite, or negative)
    raises ``ValueError`` naming its source."""
    if flag is None:
        raw = os.environ.get(_TOL_ENV)
        if raw is None:
            return default
        try:
            flag, name = float(raw), _TOL_ENV
        except ValueError:
            raise ValueError(f"{_TOL_ENV} must be a number, got {raw!r}") from None
    try:
        Tolerances(flag, flag)
    except ValueError:
        raise ValueError(f"{name} must be finite and nonnegative, got {flag}") from None
    return flag


def _parse_checks(tokens) -> tuple[CheckId, ...] | None:
    """The named checks, or ``None`` when a token is 'all'."""
    if any(t.lower() == "all" for t in tokens):
        return None
    out = []
    for t in tokens:
        try:
            out.append(CheckId(t.upper()))
        except ValueError:
            known = ", ".join(c.value for c in CheckId)
            raise ValueError(f"unknown check {t!r}; known checks: {known}")
    return tuple(out)


def _frame_file(path: str):
    """The frame in the file at ``path``; a file that does not load, or a
    frame with no positive lower bound, raises ``ValueError``."""
    try:
        frame = load_frame(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"could not load frame file {path!r}: {exc}")
    if not frame.is_frame:
        raise ValueError(f"frame file {path!r} has no positive lower bound")
    return frame


def _parse_field(token: str) -> tuple[Field, ...]:
    token = token.lower()
    if token == "both":
        return (Field.REAL, Field.COMPLEX)
    try:
        return (Field(token),)
    except ValueError:
        raise ValueError(f"field must be real, complex, or both; got {token!r}")


def _parse_component_triples(tokens) -> tuple[ComponentSpec, ...]:
    specs = []
    for t in tokens:
        parts = t.split(":")
        if len(parts) != 3:
            raise ValueError(f"component {t!r} is not of the form dim:codim:weight")
        try:
            k, d, w = int(parts[0]), int(parts[1]), float(parts[2])
            specs.append(ComponentSpec(k, d, w, w))
        except ValueError as exc:
            raise ValueError(f"bad component {t!r}: {exc}")
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
        raise ValueError(f"could not parse vector {text!r}")
    arr = np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError(f"vector {text!r} has a coordinate that is not finite")
    with np.errstate(over="ignore"):
        norm_sq = np.vdot(arr, arr).real
    if not np.isfinite(norm_sq):
        raise ValueError(f"vector {text!r} has a squared norm that is not finite")
    if fld is Field.REAL:
        if np.any(arr.imag != 0):
            raise ValueError("complex vector given for a real frame")
        return arr.real.astype(np.float64)
    return arr


# ---------------------------------------------------------------------------
# subcommands


def _generated_frame(args, command: str):
    """The weighted subspace frame ``gen`` and ``demo-reconstruct --random``
    draw from ``--dim``, ``--components``, ``--field``, ``--seed`` and
    ``--parseval``; a bad flag raises ``ValueError``."""
    components = _parse_component_triples(args.components)
    fields = _parse_field(args.field)
    if len(fields) != 1:
        raise ValueError(f"{command} needs a single field, not 'both'")
    spec = GenSpec(args.dim, components, fields[0], args.seed)
    return random_parseval_gfusion(spec) if args.parseval else random_gfusion(spec)


def cmd_gen(args) -> int:
    try:
        frame = _generated_frame(args, "gen")
    except GenerationFailed as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        save_frame(frame, args.out)
    except OSError as exc:
        print(f"error: could not write frame file: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {frame.kind} frame (dim {frame.dim_h}, "
          f"{len(frame)} components) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    try:
        default = Tolerances()
        tol = Tolerances(_tolerance(args.tol_residual, default.residual, "--tol-residual"),
                         _tolerance(args.tol_margin, default.margin, "--tol-margin"))
        checks = _parse_checks(args.checks)
        fields = _parse_field(args.field)
        if args.seeds < 1:
            raise ValueError("--seeds must be at least 1")
        frame = None if args.frame is None else _frame_file(args.frame)
        if checks is None:
            # 'all': every check the frame admits, LEMMA_L2 at least
            checks = tuple(c for c in CheckId
                           if frame is None or inapplicable(CATALOG[c], frame) is None)
        elif frame is not None:
            refused = [c.value for c in checks if inapplicable(CATALOG[c], frame) is not None]
            if refused:
                raise ValueError(f"checks not applicable to this frame: {', '.join(refused)}")
        plan = SuitePlan(
            dims=tuple(args.dims),
            fields=fields,
            seeds=tuple(range(args.seeds)),
            components=args.components,
            checks=checks,
            tol=tol,
            frame_path=args.frame,
        )
    except ValueError as exc:
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


def cmd_demo_reconstruct(args) -> int:
    try:
        tol = _tolerance(args.tol, 1e-9, "--tol")
        if args.vector is not None and args.random_vector:
            raise ValueError("give --vector or --random-vector, not both")
        if args.frame is not None and args.random:
            raise ValueError("give --frame or --random, not both")
        if not 0 <= args.vector_seed < 2**64:
            raise ValueError(
                f"--vector-seed must be a 64-bit unsigned integer, got {args.vector_seed}")
        if args.frame is not None:
            frame = _frame_file(args.frame)
        elif args.random:
            frame = _generated_frame(args, "demo-reconstruct")
        else:
            raise ValueError("need --frame PATH or --random")
        if args.vector is not None:
            f = _parse_vector(args.vector, frame.field)
            if f.shape[0] != frame.dim_h:
                raise ValueError(
                    f"vector has length {f.shape[0]}, frame dimension is {frame.dim_h}"
                )
        else:
            f = random_vector(frame.dim_h, frame.field, substream(args.vector_seed, 0))
    except (ValueError, GenerationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the maps that EQ4_RECON and EQ5_DUAL_RECON check
    if frame.kind == "gfusion":
        (operator_route, _), (dual_route, _) = _operator_maps(frame), _dual_maps(frame)
        routes = [("frame-operator route", operator_route), ("canonical-dual route", dual_route)]
    else:
        analysis, synthesis = _dual_maps(frame)
        routes = [("dual-synthesis route", synthesis), ("dual-analysis route", analysis)]

    nf = float(np.linalg.norm(f))
    print(f"f               = {np.array2string(f, precision=6)}")
    ok = True
    for name, route in routes:
        recon = route(f)
        err = float(np.linalg.norm(recon - f)) / nf if nf > 0 else 0.0
        ok = ok and err <= tol
        print(f"{name:<22}= {np.array2string(recon, precision=6)}  rel_error={err:.3e}")
    print(f"tolerance {tol:.1e}: {'PASS' if ok else 'FAIL'}")
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
