"""Cross-check the tracer's call counts against cProfile on a tiny plan.

The same small scenario (a two-dimension suite over both fields plus one
``gen``/``verify --frame`` round trip through the CLI) runs twice: once
untraced under cProfile, once with the tracer installed.  Every wrapped
target must report exactly as many calls as cProfile saw for the original
function, the number of numpy SVDs must equal ``operator_norm`` plus
``orthonormal_basis`` calls (the only two SVD call sites in framekit), and
no wrapper may remain once the tracer is uninstalled.

Run on its own with ``python3 perfbench/selftest.py``; the traced benchmark
run also calls ``run_selftest`` and fails its correctness flag on a mismatch.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import os
import pstats
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import COUNTED, TIMED, Tracer, installed_wrappers, original_function, resolve  # noqa: E402


def _scenario(fk, workdir: str):
    plan = fk.verify.SuitePlan(dims=(2, 3), seeds=(0,), components=4)
    fk.cli.report_to_json(fk.verify.run_suite(plan))
    frame = os.path.join(workdir, "tiny.frame")
    report = os.path.join(workdir, "tiny.json")
    with contextlib.redirect_stdout(io.StringIO()):
        fk.cli.main(["gen", "--dim", "3", "--components", "2:2:1", "2:3:1.5",
                     "--seed", "1", "--parseval", "--out", frame])
        fk.cli.main(["verify", "--frame", frame, "--report", report])


def _code_key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def run_selftest(fk, workdir: str) -> list[str]:
    """Return a list of mismatches; empty when the tracer is exact."""
    problems = []
    if installed_wrappers(fk):
        problems.append(f"wrappers present before tracing: {installed_wrappers(fk)}")
        return problems

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _scenario(fk, workdir)
    finally:
        profiler.disable()
    profiled = {key: value[1] for key, value in pstats.Stats(profiler).stats.items()}
    svd_calls = sum(
        n for (filename, _, name), n in profiled.items()
        if name == "svd" and filename.endswith(os.path.join("linalg", "_linalg.py"))
    )

    tracer = Tracer()
    tracer.install(fk)
    try:
        _scenario(fk, workdir)
    finally:
        tracer.uninstall()

    expected: dict[str, int] = {}
    for module, attr, name, *_ in TIMED + COUNTED:
        original = original_function(resolve(fk, module, attr)[2])
        expected[name] = expected.get(name, 0) + profiled.get(_code_key(original), 0)
    for name, count in sorted(expected.items()):
        if tracer.calls(name) != count:
            problems.append(f"{name}: tracer counted {tracer.calls(name)}, cProfile {count}")
    svd_sites = tracer.calls("linops.operator_norm") + tracer.calls("linops.orthonormal_basis")
    if svd_calls == 0 or svd_sites != svd_calls:
        problems.append(f"numpy svd calls {svd_calls} != operator_norm + orthonormal_basis {svd_sites}")
    leftover = installed_wrappers(fk)
    if leftover:
        problems.append(f"wrappers left after uninstall: {leftover}")
    return problems


def main() -> int:
    from run import import_framekit, OUT_DIR

    fk = import_framekit()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        problems = run_selftest(fk, workdir)
    for p in problems:
        print(f"MISMATCH {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
