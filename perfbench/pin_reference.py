"""Pin the seed-0 reference the benchmark checks every report against.

Runs one pass of each workload and the n-scaling plans at seed 0 and writes
``perfbench/reference.json``: for every operation (one per unit of the
pass), each check's verdict, witness count, evaluation count and
residual/margin extremes.  Re-pin only
when a change is meant to alter those outputs, and say so in the change.

    python3 perfbench/pin_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import (
    OUT_DIR,
    REFERENCE,
    SCALING_COMPONENTS,
    WORKLOADS,
    import_framekit,
    report_summary,
    run_pass,
    scaling_plan,
    suite_op,
)


def main() -> int:
    fk = import_framekit()
    OUT_DIR.mkdir(exist_ok=True)
    pinned = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        for workload in WORKLOADS:
            ops = run_pass(fk, workload, 0, workdir)
            pinned[workload] = {op.label: report_summary(op.report) for op in ops if op.report}
            bad = [op for op in ops if op.problems or (op.report and not op.report["overall_pass"])]
            if bad:
                print(f"{workload}: {len(bad)} operations failed; not pinning", file=sys.stderr)
                return 1
        pinned["scaling"] = {}
        for n in SCALING_COMPONENTS:
            op = suite_op(fk, f"n{n}", scaling_plan(fk, 0, n))
            if op.problems or not op.report["overall_pass"]:
                print(f"scaling n{n} failed; not pinning", file=sys.stderr)
                return 1
            pinned["scaling"][op.label] = report_summary(op.report)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
