"""Op runner: calls linremoval.cli.main in-process, one op at a time.

A closed loop with one caller: each op is a real subcommand call, timed in
CPU seconds (this process plus any child it waits for).  The run repeats
whole rounds of the plan's ops and stops before a round would pass the
requested seconds; there is always at least one round.  This process
imports only linremoval and the standard library, so its peak resident
set size is linremoval's alone.

    python3 perfbench/ops.py --src src --plan PLAN --out DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from tracer import TARGETS, Tracer

SETUP_REPEATS = 25
# CPU seconds of one reference pass at the speed op times are reported at:
# about the fastest this pass runs on the reference host (see README).
REFERENCE_NOMINAL_S = 0.0005


def cpu_now() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _reference_pass() -> int:
    """Fixed interpreter work in linremoval's style: small modular tuples,
    set membership and integer sums."""
    acc, seen, row = 0, set(), tuple(range(1, 5))
    for i in range(500):
        t = tuple((v * i + acc) % 97 for v in row)
        if t not in seen:
            seen.add(t)
        acc = (acc + sum(t)) % 1_000_003
    return acc


def reference_cpu() -> float:
    """Median CPU seconds of five reference passes, taken right now."""
    samples = []
    for _ in range(5):
        start = cpu_now()
        _reference_pass()
        samples.append(cpu_now() - start)
    return statistics.median(samples)


class SpeedMeter:
    """Measures how fast the interpreter runs while a block runs.

    Reference passes are timed before and after the block and, with
    ``inline``, every PERIOD_S seconds inside it from a SIGALRM handler (a
    wall-clock timer: an armed CPU timer would coarsen the process CPU
    clock to scheduler ticks).  ``overhead`` is the CPU the handler took,
    to be subtracted from the block's time; ``factor()`` scales the block's
    CPU seconds to the nominal reference speed.
    """

    PERIOD_S = 0.025

    def __init__(self, inline: bool):
        self.inline = inline
        self.last = reference_cpu()
        self.samples: list[float] = []
        self.overhead = 0.0

    def _on_alarm(self, signum, frame):
        start = cpu_now()
        _reference_pass()
        self.samples.append(cpu_now() - start)
        self.overhead += cpu_now() - start

    def __enter__(self):
        self.samples, self.overhead = [self.last], 0.0
        if self.inline:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.inline:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.last = reference_cpu()
        self.samples.append(self.last)
        return False

    def factor(self) -> float:
        return REFERENCE_NOMINAL_S * statistics.fmean(1 / r for r in self.samples)


def import_linremoval(src: Path):
    """Fresh import of the package from ``src``; returns (cli, jsonio)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "linremoval"]:
        del sys.modules[name]
    cli = importlib.import_module("linremoval.cli")
    jsonio = importlib.import_module("linremoval.jsonio")
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"linremoval was imported from {where}, not from {src}")
    return cli, jsonio


def setup(src: Path, inputs: list[str]):
    """Import linremoval and decode every input once; returns the CPU
    seconds taken and the imported modules."""
    start = cpu_now()
    cli, jsonio = import_linremoval(src)
    for path in inputs:
        jsonio.decode_system(jsonio.load_file(path))
    return cpu_now() - start, cli


def run_rounds(cli, ops, out_dir: Path, seconds: float, meter, tracer=None) -> dict:
    times = {op["id"]: [] for op in ops}
    factors = {op["id"]: [] for op in ops}
    codes = {op["id"]: [] for op in ops}
    errors: dict[str, str] = {}
    digests: dict[str, set] = {op["id"]: set() for op in ops}
    rounds = 0
    began = time.perf_counter()
    while True:
        for op in ops:
            out = out_dir / f"{op['id']}.json"
            argv = [*op["argv"], "-o", str(out)]
            err = io.StringIO()
            gc.collect()
            if tracer is not None:
                tracer.op = op["id"]
            with contextlib.redirect_stderr(err), meter:
                start = cpu_now()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # recorded; the checker fails the op
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = cpu_now() - start - meter.overhead
            times[op["id"]].append(elapsed)
            factors[op["id"]].append(meter.factor())
            codes[op["id"]].append(code)
            if code != 0:
                errors.setdefault(op["id"], err.getvalue()[-2000:])
            elif out.exists():
                digests[op["id"]].add(hashlib.sha256(out.read_bytes()).hexdigest())
        rounds += 1
        spent = time.perf_counter() - began
        if spent + spent / rounds > seconds:
            break
    return {
        "rounds": rounds,
        "wall_s": time.perf_counter() - began,
        "times": times,
        "factors": factors,
        "codes": codes,
        "errors": errors,
        "stable_output": {k: len(v) <= 1 for k, v in digests.items()},
    }


def layer_metrics(tracer, rounds: int) -> dict:
    """Per-round layer totals: self CPU seconds, calls and work counts."""
    selfs, calls = tracer.self_times(), tracer.calls()
    out = {f"{name}.s": selfs.get(name, 0.0) / rounds for name in TARGETS}
    for name in (
        "intmat.determinantal_divisor",
        "system.enumerate_solutions",
        "system.RestrictedSystem",
        "pipeline.is_circular",
        "removal.min_removal_exact",
    ):
        out[f"{name}.calls"] = calls.get(name, 0) / rounds
    for name, value in tracer.counts.items():
        out[name] = value / rounds
    for key in (
        "system.enumerate_solutions.candidates",
        "system.enumerate_solutions.solutions",
        "pipeline.is_circular.windows",
        "pipeline.target_cols",
        "removal.min_removal_exact.atoms",
        "hypergraph.enumerate_copies.assignments",
        "hypergraph.enumerate_copies.copies",
        "jsonio.dump.bytes",
    ):
        out.setdefault(key, 0.0)
    out["system.solution_yield"] = _ratio(
        out["system.enumerate_solutions.solutions"],
        out["system.enumerate_solutions.candidates"],
    )
    out["hypergraph.copy_yield"] = _ratio(
        out["hypergraph.enumerate_copies.copies"],
        out["hypergraph.enumerate_copies.assignments"],
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--plan", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The budget comes from each op's --budget, never from the environment.
    os.environ.pop("LINREMOVAL_BUDGET", None)
    plan = json.loads(args.plan.read_text())
    ops = plan["ops"]
    inputs = [op["input"] for op in ops]
    sys.path.insert(0, str(args.src))
    meter = SpeedMeter(inline=not args.trace)
    setup_samples, setup_factors = [], []
    for _ in range(SETUP_REPEATS):
        with meter:
            seconds, cli = setup(args.src, inputs)
            seconds -= meter.overhead
        setup_samples.append(seconds)
        setup_factors.append(meter.factor())

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    args.out.mkdir(parents=True, exist_ok=True)
    result = run_rounds(cli, ops, args.out, args.seconds, meter, tracer)
    result["setup_samples"] = setup_samples
    result["setup_factors"] = setup_factors
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["rounds"])
        spans = args.out / "spans.json"
        spans.write_text(json.dumps(tracer.spans, separators=(",", ":")))
    (args.out / "timings.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
