"""Run the benchmark over workloads and seeds and summarise it.

    python3 perfbench/sweep.py                          # every workload, seed 0
    python3 perfbench/sweep.py --seeds 0 1 2 3 4 5 6 7 8 9
    python3 perfbench/sweep.py --workloads large-frames --seeds 1 2 3 4 5
    python3 perfbench/sweep.py --trace 1                # per-layer metrics

Each run is a fresh ``run.py`` process, exactly as BENCHMARK.json's command
gives it.  Every metric is printed by name with its unit, and every run's
outputs are checked against the pinned reference (fully at seed 0).  With
four or more seeds the sweep also prints, per workload and end-to-end
metric, the median and the spread: the distance between the first and
third quartile as a share of the median, next to the metric's bound.
All results are saved to ``.perfbench_out/sweep-trace<0|1>.json``.  Exits 1
when any run is incorrect or fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict | None:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.stderr.strip():
        print(done.stderr.rstrip(), file=sys.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ok = True
    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            result = run_once(spec, workload, seed, args.trace)
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            results.setdefault(workload, []).append(dict(result, seed=seed))
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
            sys.stdout.flush()

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"sweep-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    if args.trace == 0 and len(args.seeds) >= 4:
        print(f"\n{'workload':<14} {'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for workload, runs in results.items():
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in runs]
                s = spread(values)
                bound = metric["bound"]
                verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "UNSTEADY")
                print(f"{workload:<14} {metric['name']:<14} {statistics.median(values):>12.6g} "
                      f"{s:>8.4f} {bound:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
