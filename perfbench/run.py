"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, runs them in a separate op
process (ops.py: linremoval and the standard library only), checks every
op's report in this process against the independent oracle, and prints
one JSON object as the last line of stdout.  With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer ones.  Everything it
writes stays under perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
OPS_TIMEOUT_S = 150


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest sample, the (n - 10) / n quantile of n samples."""
    return sorted(samples)[-11]


def scaled(samples: list[float], factors: list[float]) -> list[float]:
    """CPU seconds at the nominal reference speed (see ops.SpeedMeter)."""
    return [t * f for t, f in zip(samples, factors)]


def end_to_end(timings: dict, raw: bool = False) -> dict:
    if raw:
        times, setup = timings["times"], timings["setup_samples"]
    else:
        times = {
            k: scaled(v, timings["factors"][k]) for k, v in timings["times"].items()
        }
        setup = scaled(timings["setup_samples"], timings["setup_factors"])
    per_op = [statistics.median(v) for v in times.values()]
    total_cpu = sum(sum(v) for v in times.values())
    ops_done = sum(len(v) for v in times.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_done / total_cpu, "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "peak_rss_mb": (timings["peak_rss_mb"], "MB"),
    }
    if len(per_op) >= 40:
        metrics["op_tail_s"] = (tail(per_op), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


LAYER_UNITS = {".s": "s", "_yield": "ratio", ".bytes": "bytes"}


def per_layer(timings: dict) -> dict:
    out = {}
    for name, value in sorted(timings["layers"].items()):
        unit = next((u for suf, u in LAYER_UNITS.items() if name.endswith(suf)), "count")
        out[name] = {"value": value, "unit": unit}
    return out


def verdicts(plan: dict, timings: dict, out_dir: Path) -> tuple[bool, int, list]:
    """Check every op; returns (correct, failed executions, problems)."""
    checker = check.Checker()
    problems, failed = [], 0
    for op in plan["ops"]:
        codes = timings["codes"][op["id"]]
        if any(code != 0 for code in codes):
            err = timings["errors"].get(op["id"], "").strip()
            problems.append(f"op {op['id']} {op['argv'][0]}: exit {codes[0]} {err}")
            continue
        if not timings["stable_output"][op["id"]]:
            problems.append(f"op {op['id']}: report bytes differ between rounds")
            continue
        report = json.loads((out_dir / f"{op['id']}.json").read_text())
        verdict = checker.check_op(op, report)
        if verdict == check.FAULT:
            failed += len(codes)
        elif verdict is not None:
            problems.append(f"op {op['id']} {op['argv'][0]}: {verdict}")
    return not problems, failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "linremoval" / "__init__.py").is_file():
        print(f"linremoval sources not found under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        plan = gen.generate(args.workload, args.seed, run_dir / "inputs")
        (run_dir / "plan.json").write_text(json.dumps(plan, indent=1))
        env = {k: v for k, v in os.environ.items() if k != "LINREMOVAL_BUDGET"}
        env.pop("PYTHONPATH", None)
        # Same set and dict layouts, and so the same speed, in every run.
        env["PYTHONHASHSEED"] = "0"
        try:
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "ops.py"),
                    "--src", str(SRC), "--plan", str(run_dir / "plan.json"),
                    "--out", str(run_dir / "out"), "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ],
                cwd=ROOT, env=env, timeout=OPS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"op process killed after {OPS_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"op process exited with {proc.returncode}", file=sys.stderr)
            return 1
        timings = json.loads((run_dir / "out" / "timings.json").read_text())
        correct, failed, problems = verdicts(plan, timings, run_dir / "out")
        for line in problems:
            print(line, file=sys.stderr)
        attempted = sum(len(v) for v in timings["times"].values())
        metrics = per_layer(timings) if args.trace else end_to_end(timings)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        stem = f"{args.workload}.trace{args.trace}"
        record = dict(result, seed=args.seed, rounds=timings["rounds"],
                      scaled_e2e=end_to_end(timings),
                      raw_e2e=end_to_end(timings, raw=True))
        (WORK / f"{stem}.result.json").write_text(json.dumps(record, indent=1))
        (run_dir / "out" / "timings.json").replace(WORK / f"{stem}.timings.json")
        if args.trace:
            (run_dir / "out" / "spans.json").replace(WORK / f"{args.workload}.spans.json")
        print(
            f"{args.workload} seed {args.seed}: {timings['rounds']} rounds of "
            f"{len(plan['ops'])} ops in {timings['wall_s']:.1f} s, "
            f"{attempted / sum(sum(v) for v in timings['times'].values()):.4f} ops/CPU-s",
            file=sys.stderr,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
