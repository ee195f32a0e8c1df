"""framekit benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload default-sweep --seed 0 --seconds 25 --trace 0

Workloads (closed loop: this process makes one call into framekit at a
time and waits for it, with one BLAS thread):

* ``default-sweep``: ``run_suite`` on the default plan with seeds
  10*seed .. 10*seed+9, each report through ``cli.report_to_json``.  At
  seed 0 this is the work of ``framekit verify``.
* ``wide-subsets``: the same path at dim 8, complex field, one seed,
  n = 10 components, so every instance sweeps all 1024 subsets.
* ``large-frames``: ``cli.main(["gen", ...])`` at dim 64 in general and
  ``--parseval`` form over both fields for seeds 10*seed .. 10*seed+9, each
  file then checked with ``cli.main(["verify", "--frame", ...])``.

A pass is cut into short units (see ``pass_units``) whose reports merge
into exactly the whole pass's report.  An operation is one ``run_suite`` or
``cli.main`` call.  It fails when it raises, exits non-zero, or its report
disagrees with ``reference.json`` (pinned per unit at seed 0 by
``pin_reference.py``): on every seed the report must pass overall with the
pinned evaluation counts; at seed 0 every verdict and witness count must
match and every residual and margin extreme must keep its decade.

``--trace 0`` runs the units round-robin for ``--seconds`` with nothing
installed, each followed by a fixed calibration kernel, and prints the
end-to-end metrics; times are reported relative to the kernel, which
cancels the shared host's speed swings.  The raw wall time of a pass is
printed on a ``perfbench raw`` line.  ``--trace 1`` runs the tracer
self-test, one untraced pass, the warm-up and one pass under the tracer,
and the n-scaling curve, and prints the per-layer metrics; spans and
aggregates go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, installed_wrappers  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("default-sweep", "wide-subsets", "large-frames")
SEEDS_PER_PASS = 10  # default-sweep and large-frames seeds per pass
LARGE_DIM = 64
LARGE_COMPONENTS = ["64:64:1", "48:40:1.5", "32:64:0.75", "16:8:2"]
SCALING_COMPONENTS = (4, 6, 8)  # n = 10 is the wide-subsets workload itself
# One BLAS thread, set before numpy loads and inherited by the set-up
# children.  On a shared 2-CPU machine two OpenBLAS threads made large-frames
# up to 25% slower and far less repeatable, and made interpreter start-up
# bimodal (about 0.11 s or 0.19 s).  framekit starts no threads of its own,
# so this is the closed-loop, single-caller configuration the workloads
# describe.
BLAS_THREADS = "1"
SETUP_WARMUPS = 3
SETUP_SAMPLES = 15
# The calibration kernel: fixed work in the mix framekit does, run every
# CALIBRATION_INTERVAL seconds of a measured run from a timer signal, also in
# the middle of a call into framekit (its time is taken out of the call's).
# A unit's time is divided by the median kernel time over the unit, padded by
# CALIBRATION_PAD on each side: this cancels the speed swings of the shared
# host (up to 2x over tens of seconds) and leaves the program's own time.
CALIBRATION_INTERVAL = 0.1
CALIBRATION_PAD = 0.5
# Residuals and margins at or below this size are rounding noise at the
# dimensions swept (<= 64): extremes are compared in signed decades above it,
# so noise of either sign matches noise, and a rise out of it shows.
DECADE_FLOOR = 1e-12
MAX_SEED = (2**64 - 1) // SEEDS_PER_PASS - 1


# ---------------------------------------------------------------------------
# the program under test


def import_framekit():
    """Import framekit from this checkout's ``src`` and nowhere else."""
    package = SRC_DIR / "framekit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: framekit sources not found at {package}")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC_DIR))
    import framekit

    if Path(framekit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported framekit from {framekit.__file__}, not {package}")
    return framekit


@dataclass
class Op:
    """One call into framekit: a stable label, its time, its report, what went wrong."""

    label: str
    seconds: float
    report: dict | None = None
    problems: list[str] = field(default_factory=list)


def _timed_call(fn, *args):
    """(result, seconds, traceback text or None); framekit's stdout is captured.

    Time the calibration kernel spends inside the call is not counted.
    """
    kernel = Calibration.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = fn(*args)
    except Exception:  # a traceback out of framekit is a failed operation, never dropped
        error = traceback.format_exc(limit=4)
    else:
        error = None
    seconds = time.perf_counter() - start - (Calibration.spent - kernel)
    return (None if error else result), seconds, error


def suite_op(fk, label: str, plan) -> Op:
    def call():
        return fk.cli.report_to_json(fk.verify.run_suite(plan))

    text, seconds, error = _timed_call(call)
    op = Op(label, seconds)
    if error:
        op.problems.append(error)
    else:
        op.report = json.loads(text)
    return op


def _cli_op(fk, label: str, argv: list[str]) -> Op:
    rc, seconds, error = _timed_call(fk.cli.main, argv)
    op = Op(label, seconds)
    if error:
        op.problems.append(error)
    elif rc != 0:
        op.problems.append(f"exit code {rc}")
    return op


def _gen_and_verify(fk, label: str, gen_argv: list[str], workdir: str) -> list[Op]:
    frame = os.path.join(workdir, "frame.json")
    report = os.path.join(workdir, "report.json")
    gen = _cli_op(fk, f"gen {label}", gen_argv + ["--out", frame])
    if gen.problems:
        return [gen]
    verify = _cli_op(fk, label, ["verify", "--frame", frame, "--report", report])
    if not verify.problems:
        with open(report, encoding="utf-8") as fh:
            verify.report = json.load(fh)
    return [gen, verify]


def pass_units(fk, workload: str, seed: int, workdir: str) -> list[tuple[str, object]]:
    """One full pass of the workload at its stated size, as short timed units.

    Each unit is ``(label, call)``; ``call()`` returns its operations.  The
    pass is cut into units of well under a second (a few seconds for the
    longest ``wide-subsets`` checks) so that every unit can be set against
    the calibration kernel timed next to it.  The cuts change no work:
    instances are generated per (dim, field, seed) and every check is
    aggregated on its own, so the units' reports merge into exactly the
    whole pass's report.
    """
    Plan, Field = fk.verify.SuitePlan, fk.linops.Field
    units = []
    if workload == "default-sweep":
        for k in range(SEEDS_PER_PASS):
            for dim in Plan().dims:
                for fld in (Field.REAL, Field.COMPLEX):
                    label = f"{k}:{dim}:{fld.value}"
                    plan = Plan(dims=(dim,), fields=(fld,), seeds=(SEEDS_PER_PASS * seed + k,))
                    units.append((label, _suite_unit(fk, label, plan)))
    elif workload == "wide-subsets":
        for cid in fk.verify.CheckId:
            plan = Plan(dims=(8,), fields=(Field.COMPLEX,), seeds=(seed,), components=10,
                        checks=(cid,))
            units.append((cid.value, _suite_unit(fk, cid.value, plan)))
    else:
        for k in range(SEEDS_PER_PASS):
            for fld in ("real", "complex"):
                for form in ("general", "parseval"):
                    argv = ["gen", "--dim", str(LARGE_DIM), "--components", *LARGE_COMPONENTS,
                            "--field", fld, "--seed", str(SEEDS_PER_PASS * seed + k)]
                    if form == "parseval":
                        argv.append("--parseval")
                    label = f"{k}:{fld}:{form}"
                    units.append((label, _gen_verify_unit(fk, label, argv, workdir)))
    return units


def _suite_unit(fk, label, plan):
    return lambda: [suite_op(fk, label, plan)]


def _gen_verify_unit(fk, label, argv, workdir):
    return lambda: _gen_and_verify(fk, label, argv, workdir)


def run_pass(fk, workload: str, seed: int, workdir: str) -> list[Op]:
    """One full pass, its units run back to back."""
    return [op for _, call in pass_units(fk, workload, seed, workdir) for op in call()]


def warm_up(fk, seed: int, workdir: str) -> list[Op]:
    """Tiny calls through every layer, so lazy set-up is not timed.

    The same on every workload.  A traced run traces it with the pass, so
    no layer's time reads exactly zero on a workload that bypasses it.
    """
    ops = [suite_op(fk, "warm-up", fk.verify.SuitePlan(dims=(2,), seeds=(seed,)))]
    argv = ["gen", "--dim", "4", "--components", "2:2:1", "3:3:1.5", "--seed", str(seed)]
    return ops + _gen_and_verify(fk, "warm-up", argv, workdir)


def scaling_plan(fk, seed: int, components: int):
    return fk.verify.SuitePlan(
        dims=(8,), fields=(fk.linops.Field.COMPLEX,), seeds=(seed,), components=components
    )


# ---------------------------------------------------------------------------
# output checks


def decades_above_floor(x: float) -> float:
    """Signed decades above the rounding floor; 0 for anything inside it."""
    if abs(x) <= DECADE_FLOOR:
        return 0.0
    return math.copysign(math.log10(abs(x) / DECADE_FLOOR), x)


def same_decade(value, ref) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return abs(decades_above_floor(value) - decades_above_floor(ref)) <= 1.0


def report_summary(report: dict) -> dict:
    """The pinned fields of every check in a report."""
    return {
        c["id"]: {key: c[key] for key in ("pass", "witness_count", "evaluations",
                                          "max_residual", "min_margin")}
        for c in report["checks"]
    }


def compare_report(report: dict, ref: dict, pinned: bool) -> list[str]:
    problems = []
    if report.get("overall_pass") is not True:
        problems.append("overall verdict is FAIL")
    got = report_summary(report)
    if sorted(got) != sorted(ref):
        problems.append(f"check ids {sorted(got)} differ from the reference {sorted(ref)}")
    for cid, want in ref.items():
        have = got.get(cid)
        if have is None:
            continue
        keys = ("pass", "witness_count", "evaluations") if pinned else ("evaluations",)
        for key in keys:
            if have[key] != want[key]:
                problems.append(f"{cid} {key} {have[key]!r} != reference {want[key]!r}")
        if pinned:
            for key in ("max_residual", "min_margin"):
                if not same_decade(have[key], want[key]):
                    problems.append(f"{cid} {key} {have[key]!r} not in the decade of {want[key]!r}")
    return problems


def check_ops(ops: list[Op], reference: dict, pinned: bool):
    """Compare every report-bearing operation with its pinned reference."""
    for op in ops:
        if op.report is None:
            continue
        if op.label == "warm-up":
            if op.report.get("overall_pass") is not True:
                op.problems.append("overall verdict is FAIL")
            continue
        ref = reference.get(op.label)
        if ref is None:
            op.problems.append("no pinned reference for this operation")
        else:
            op.problems += compare_report(op.report, ref, pinned)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def evaluations(ops: list[Op]) -> int:
    return sum(c["evaluations"] for op in ops if op.report for c in op.report["checks"])


# ---------------------------------------------------------------------------
# environment and set-up


def blas_threads():
    """OpenBLAS threads in effect, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import framekit.cli
framekit.cli.build_parser()
print(time.perf_counter() - start, framekit.__file__)
"""


def setup_seconds() -> list[float]:
    """Import-and-parser time of fresh interpreters, after discarded warm-ups."""
    times = []
    for i in range(SETUP_WARMUPS + SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-E", "-c", _SETUP_CODE, str(SRC_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, path = done.stdout.strip().split(maxsplit=1)
        if Path(path).resolve().parent != (SRC_DIR / "framekit").resolve():
            raise SystemExit(f"perfbench: set-up child imported framekit from {path}")
        if i >= SETUP_WARMUPS:
            times.append(float(seconds))
    return times


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(pass_cal, evals_per_pass, setup, attempted, failed) -> dict:
    return {
        "pass_time_cal": _metric(pass_cal, "cal"),
        "evals_per_cal": _metric(evals_per_pass / pass_cal, "1/cal"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "success_share": _metric(1.0 - failed / attempted, "share"),
    }


def layer_metrics(fk, tracer: Tracer, scaling: dict, overhead_s: float) -> dict:
    out = {}

    def put(name, value, unit):
        out[name] = _metric(value, unit)

    stat = tracer.stat
    for name in ("linops.as_vector", "linops.as_operator"):
        put(f"{name}.calls", tracer.calls(name), "count")
    for name in ("linops.operator_norm", "linops.loewner_check", "linops.hermitian_eig",
                 "linops.psd_power", "linops.orthonormal_basis", "linops.projection",
                 "verify.run_check"):
        put(f"{name}.calls", stat(name).calls, "count")
        put(f"{name}.self_s", stat(name).self_s, "s")
    for cid in fk.verify.CheckId:
        put(f"verify.check.{cid.value}.s", tracer.check_s.get(cid.value, 0.0), "s")
    put("verify.build_instances.s", stat("verify.build_instances").total_s, "s")
    put("verify.subsets_for.s", stat("verify.subsets_for").total_s, "s")
    put("verify.run_suite.self_s", stat("verify.run_suite").self_s, "s")
    for n, seconds in scaling.items():
        put(f"verify.scaling.n{n}.s", seconds, "s")
    for mod in ("gframe", "gfusion"):
        put(f"{mod}.init.calls", stat(f"{mod}.init").calls, "count")
        put(f"{mod}.init.s", stat(f"{mod}.init").total_s, "s")
    for name in ("gframe.inverse", "gfusion.inverse", "gfusion.inverse_sqrt",
                 "gframe.canonical_dual", "gfusion.canonical_dual",
                 "gframe.identities", "gfusion.identities"):
        put(f"{name}.s", stat(name).total_s, "s")
    for name in ("gframe.partial_sum", "gfusion.partial_sum",
                 "gfusion.partial_frame_operator", "gfusion.block_energies"):
        put(f"{name}.calls", stat(name).calls, "count")
    frames = stat("gen.frames")
    put("gen.frames.s", frames.total_s, "s")
    put("gen.sample_vectors.s", stat("gen.sample_vectors").total_s, "s")
    put("gen.attempts_per_frame", tracer.frames_in_generators / max(1, frames.outer_calls), "ratio")
    for name in ("cli.save_frame", "cli.load_frame", "cli.report_to_json"):
        put(f"{name}.s", stat(name).total_s, "s")
    put("trace.overhead_s", overhead_s, "s")
    return out


def check_declared(metrics: dict, section: str):
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    with open(SPEC, encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        raise SystemExit(f"perfbench: {section} mismatch; missing {missing}, undeclared {extra}")


# ---------------------------------------------------------------------------
# runs


class Calibration:
    """Fixed work independent of framekit: the yardstick for machine speed.

    It does in miniature what a sweep does, with numpy alone: subset sums of
    four 8x8 complex positive operators, their spectra and norms over all 16
    subsets, a quadratic form, a JSON summary, then one dense 64x64 SVD and
    ``eigvalsh`` (the arithmetic of ``large-frames``).  Its inputs are fixed,
    so its work is the same in every run and at every commit.  ``start``
    runs it from a SIGALRM timer until ``stop``.
    """

    spent = 0.0  # kernel seconds so far, read by _timed_call

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20180609)
        blocks = [rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
                  for k in (2, 3, 5, 8)]
        self.ops = [b @ b.conj().T for b in blocks]
        self.subsets = [c for k in range(5) for c in itertools.combinations(range(4), k)]
        self.vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        large = rng.standard_normal((64, 64))
        self.large = large + large.T
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.busy = False

    def run(self):
        np = self.np
        start = time.perf_counter()
        summary = {}
        for subset in self.subsets:
            s = sum((self.ops[j] for j in subset), np.zeros((8, 8), complex))
            w = np.linalg.eigvalsh(s)
            quad = np.vdot(self.vec, s @ self.vec).real
            summary[str(subset)] = [float(w[0]), float(w[-1]), float(np.linalg.norm(s, 2)),
                                    float(quad)]
        summary["large"] = [float(np.linalg.svd(self.large, compute_uv=False)[0]),
                            float(np.linalg.eigvalsh(self.large)[-1])]
        text = json.dumps(summary)
        end = time.perf_counter()
        if not all(math.isfinite(x) for row in json.loads(text).values() for x in row):
            raise SystemExit("perfbench: the calibration kernel lost its inputs")
        self.samples.append(((start + end) / 2, end - start))
        Calibration.spent += end - start

    def _on_alarm(self, signum, frame):
        if not self.busy:
            self.busy = True
            try:
                self.run()
            finally:
                self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL, CALIBRATION_INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def over(self, start: float, end: float) -> float:
        """Median kernel time from ``start`` to ``end``, padded on both sides."""
        lo, hi = start - CALIBRATION_PAD, end + CALIBRATION_PAD
        return statistics.median(s for t, s in self.samples if lo <= t <= hi)


def measure(fk, workload: str, seed: int, seconds: float, workdir: str, reference: dict):
    """Untraced run: set-up time, then the pass's units round-robin for ``seconds``.

    The calibration kernel runs from a timer throughout.  A unit's relative
    time is its seconds over the kernel's median time around it; the pass
    time in calibration units is the sum over units of each unit's median
    relative time.  Every unit runs at least once, so at least one whole
    pass runs however short ``seconds`` is.
    """
    setup = setup_seconds()
    ops = warm_up(fk, seed, workdir)
    calibration = Calibration()
    for _ in range(5):
        calibration.run()
    calibration.samples.clear()
    units = pass_units(fk, workload, seed, workdir)
    times: list[list[float]] = [[] for _ in units]
    spans: list[list[tuple[float, float]]] = [[] for _ in units]
    rounds = pass_evals = 0
    calibration.start()
    try:
        time.sleep(CALIBRATION_PAD)
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            for i, (_, call) in enumerate(units):
                if rounds and time.perf_counter() >= deadline:
                    break
                start = time.perf_counter()
                done = call()
                spans[i].append((start, time.perf_counter()))
                ops += done
                if not rounds:
                    pass_evals += evaluations(done)
                times[i].append(sum(op.seconds for op in done))
            rounds += 1
        time.sleep(CALIBRATION_PAD)
    finally:
        calibration.stop()
    rel = [[t / calibration.over(*span) for t, span in zip(ts, ss)]
           for ts, ss in zip(times, spans)]
    pass_cal = sum(statistics.median(r) for r in rel)
    pass_wall = sum(statistics.median(ts) for ts in times)
    check_ops(ops, reference[workload], pinned=seed == 0)
    problems = [f"tracing wrappers installed in an untraced run: {installed_wrappers(fk)}"] \
        if installed_wrappers(fk) else []
    failed = sum(1 for op in ops if op.problems)
    metrics = end_to_end_metrics(pass_cal, pass_evals, setup, len(ops), failed)
    check_declared(metrics, "end_to_end")
    kernel = [s for _, s in calibration.samples]
    raw = {"pass_wall_s": pass_wall, "calibration_median_s": statistics.median(kernel),
           "calibration_samples": len(kernel), "unit_samples": sum(map(len, times)),
           "units": len(units)}
    detail = {"raw": raw, "setup": setup, "calibration": calibration.samples,
              "units": {label: {"seconds": ts, "rel": r}
                        for (label, _), ts, r in zip(units, times, rel)}}
    return ops, problems, metrics, detail


def trace(fk, workload: str, seed: int, workdir: str, reference: dict):
    """Traced run: self-test, an untraced and a traced pass, the n-scaling curve."""
    from selftest import run_selftest

    problems = [f"selftest: {p}" for p in run_selftest(fk, workdir)]
    ops = warm_up(fk, seed, workdir)
    plain = run_pass(fk, workload, seed, workdir)
    tracer = Tracer()
    tracer.install(fk)
    try:
        ops += warm_up(fk, seed, workdir)
        traced = run_pass(fk, workload, seed, workdir)
    finally:
        tracer.uninstall()
    if installed_wrappers(fk):
        problems.append(f"wrappers left after uninstall: {installed_wrappers(fk)}")
    ops += plain + traced
    check_ops(ops, reference[workload], pinned=seed == 0)
    scaling = {}
    for n in SCALING_COMPONENTS:
        op = suite_op(fk, f"n{n}", scaling_plan(fk, seed, n))
        check_ops([op], reference["scaling"], pinned=seed == 0)
        ops.append(op)
        scaling[n] = op.seconds
    overhead = sum(op.seconds for op in traced) - sum(op.seconds for op in plain)
    metrics = layer_metrics(fk, tracer, scaling, overhead)
    check_declared(metrics, "per_layer")
    detail = {
        "stats": {name: {"calls": s.calls, "outer_calls": s.outer_calls, "total_s": s.total_s,
                         "self_s": s.self_s} for name, s in sorted(tracer.stats.items())},
        "counts": {name: cell[0] for name, cell in tracer.counts.items()},
        "spans": tracer.spans_as_dicts(),
    }
    return ops, problems, metrics, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark framekit on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of an untraced run; at least one whole pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must be in 0..{MAX_SEED}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    fk = import_framekit()
    reference = load_reference()
    env = environment()
    print("perfbench env " + json.dumps(env, sort_keys=True), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            ops, problems, metrics, detail = trace(fk, args.workload, args.seed, workdir, reference)
        else:
            ops, problems, metrics, detail = measure(
                fk, args.workload, args.seed, args.seconds, workdir, reference
            )
    failed = [op for op in ops if op.problems]
    for op in failed[:10]:
        print(f"perfbench: FAILED {op.label}: {'; '.join(op.problems)[:2000]}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if "raw" in detail:
        print("perfbench raw " + json.dumps(detail["raw"], sort_keys=True))
    name = f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "metrics": metrics, "detail": detail,
                   "failures": [[op.label, op.problems] for op in failed]}, fh)
    result = {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
