"""The repository benchmark: one workload, timed end to end or by layer.

    python3 perfbench/run.py --workload paper-full --seed 1 --seconds 20 --trace 0

Runs rounds of the workload (see ``workloads.py``) until ``--seconds``
have passed, checks every output against the stored reference, and
prints a readable report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no instrumentation. With ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer ones of the traced rounds,
plus the tracing overhead. The exit code is 0 only when every output
matched and every per-round count repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Kernel-tier switches. Rounds run with them set would compare another
#: tier than the one the reference runs measure.
GUARDED_ENV = (
    "REPRO_KERNEL",
    "REPRO_TRANSIENT_BACKEND",
    "REPRO_STRUCTURE_SHARE",
    "REPRO_FUSED_GATHER",
)

#: End-to-end metrics with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "first_result_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up).
SETUP_SAMPLES = 5


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_record() -> dict:
    from repro.ctmc.kernels import numba_available, resolve_kernel
    from repro.engine import available_cpus

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": available_cpus(),
        "python": platform.python_version(),
        "numba": numba_available(),
        "kernel": resolve_kernel(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def measure_setup(workload, scratch: Path) -> list[float]:
    """Wall time of fresh interpreters that import and build the runner."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    times = []
    for sample in range(SETUP_SAMPLES + 1):
        work = tempfile.mkdtemp(dir=scratch)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", workload.setup_code, work],
            cwd=ROOT,
            env=env,
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - start
        if sample:  # the warm-up also writes the bytecode cache
            times.append(elapsed)
    return times


def traced_round(workload):
    """One round with every layer wrapped; returns it and its layer values."""
    import layers
    from workloads import POLL_DRIVEN_CALLS

    spans, fetches = layers.Spans(), layers.FetchLog()
    with layers.instrumented(spans, fetches):
        rnd = workload.run_round()
    values = layers.layer_metrics(spans, fetches, rnd.counts, rnd.reports)
    rnd.counts.update(
        (f"calls.{name}", n)
        for name, n in spans.calls.items()
        if name not in POLL_DRIVEN_CALLS
    )
    return rnd, values


def run_rounds(workload, seconds: float, trace: bool):
    """Rounds until ``seconds`` pass; traced runs alternate and end traced."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            traced.append(traced_round(workload))
        else:
            untraced.append(workload.run_round())
        if time.perf_counter() - start >= seconds and len(traced) == (
            len(untraced) if trace else 0
        ):
            return untraced, traced


def count_drift(untraced, traced) -> list[str]:
    """Every count that differs from the first round's.

    Counter deltas and the hit/miss split are compared across all
    rounds; span call counts exist only in traced rounds.
    """
    rounds = [("untraced", i, rnd) for i, rnd in enumerate(untraced)]
    rounds += [("traced", i, rnd) for i, (rnd, _) in enumerate(traced)]
    drift = []
    for kind, i, rnd in rounds:
        for key in sorted(set(untraced[0].counts) | set(rnd.counts)):
            base = traced[0][0] if key.startswith("calls.") else untraced[0]
            if base.counts.get(key) != rnd.counts.get(key):
                drift.append(
                    f"{kind} round {i}: {key} "
                    f"{base.counts.get(key)} != {rnd.counts.get(key)}"
                )
    return drift


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, statistics.quantiles(values, n=1000)[round(p * 10) - 1]
    return None


def describe_distribution(label: str, values: list[float]) -> list[str]:
    """Median and tail lines of one latency, named by percentile."""
    lines = [f"  {label + '_p50_s':<24} {statistics.median(values):.6f} s (n={len(values)})"]
    found = tail(values)
    if found is None:
        lines.append(f"  {label:<24} no tail percentile has 10 samples beyond it")
    else:
        p, value = found
        name = f"{label}_p{p:g}_s"
        lines.append(f"  {name:<24} {value:.6f} s (n={len(values)})")
    return lines


def end_to_end(untraced, setup: list[float]) -> dict:
    walls = [w for rnd in untraced for w in rnd.wall_s]
    firsts = [f for rnd in untraced for f in rnd.first_s]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "first_result_s": statistics.median(firsts),
        "points_per_s": sum(rnd.points for rnd in untraced) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced) -> dict:
    import layers

    values = {
        name: statistics.fmean(v[name] for _, v in traced)
        for name in layers.PER_LAYER
        if name != "trace.overhead_pct"
    }
    plain = statistics.median(sum(rnd.wall_s) for rnd in untraced)
    wrapped = statistics.median(sum(rnd.wall_s) for rnd, _ in traced)
    values["trace.overhead_pct"] = 100.0 * (wrapped / plain - 1.0)
    return values


def run(args, scratch: Path) -> int:
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, scratch)
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("host " + json.dumps(host_record(), sort_keys=True))
    setup = [] if args.trace else measure_setup(workload, scratch)
    untraced, traced = run_rounds(workload, args.seconds, bool(args.trace))

    rounds = untraced + [rnd for rnd, _ in traced]
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    mismatched = sorted({key for rnd in rounds for key in rnd.mismatches})
    drift = count_drift(untraced, traced)

    print(
        f"rounds: {len(untraced)} untraced, {len(traced)} traced; untraced "
        f"round walls {[round(sum(r.wall_s), 4) for r in untraced]} s"
    )
    print("counts per round: " + json.dumps(rounds[-1].counts, sort_keys=True))
    for key in mismatched[:10]:
        print(f"MISMATCH {key}")
    for line in drift[:10]:
        print(f"DRIFT {line}")
    print(f"  {'error_frac':<24} {failed / attempted:.6f} ({failed} failed of {attempted})")
    for label, attr in (("first_result", "first_s"), ("done", "wall_s")):
        values = [v for rnd in untraced for v in getattr(rnd, attr)]
        print("\n".join(describe_distribution(label, values)))

    if args.trace:
        values, units = per_layer(untraced, traced), layers.PER_LAYER
    else:
        values, units = end_to_end(untraced, setup), END_TO_END
    for name, unit in units.items():
        print(f"  {name:<58} {values[name]:>16.6f} {unit}")

    correct = failed == 0 and not drift
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    overridden = [name for name in GUARDED_ENV if name in os.environ]
    if overridden:
        print(
            f"perfbench: refusing to run with {', '.join(overridden)} set; "
            "the benchmark measures the default kernel tier",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
