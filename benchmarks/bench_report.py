"""Normalize benchmark JSON reports into one ``BENCH_<sha>.json``.

The CI ``bench`` job runs the solver benchmarks (each of which writes
its own machine-readable report), then calls this script to

* merge them into one normalized trajectory record
  ``BENCH_<sha>.fused-py<ver>.json`` — ``{"sha", "python", "benches":
  {name: metrics}}`` with only scalar metrics kept (outcome objects and
  None values dropped). The python version is part of the record *and*
  the filename so legs on different interpreters (3.11 vs 3.13t) roll
  forward separate baselines instead of clobbering each other in the
  shared ``actions/cache`` directory. The ``fused`` in the filename is
  the default of the ``kernel`` field that older records carry, so new
  records keep the same key as the baselines cached before it;
* compare it against the most recent cached baseline **with the same
  python version** and emit a markdown delta table (appended to the
  job summary);
* **hard-gate** the metrics named by ``--gate`` (repeatable): a
  regression beyond ``--gate-threshold`` percent (default 15) in any
  gated metric fails the job with exit status 1.
  ``REPRO_BENCH_ALLOW_REGRESSION=1`` (set by the workflow when the PR
  carries the ``bench-regression-ok`` label) downgrades the failure to
  a loud warning. Ungated metrics stay warn-only.

Usage::

    python benchmarks/bench_report.py --sha $GITHUB_SHA \\
        --input batch_solver=bench-artifacts/batch_solver.json \\
        --input transient_batch=bench-artifacts/transient_batch.json \\
        --out bench-artifacts \\
        --baseline-dir bench-baseline \\
        --gate phases.evaluate --gate vector_s \\
        --summary-file "$GITHUB_STEP_SUMMARY"

Exit status: 1 on a gated regression (unless overridden) or unreadable
inputs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Metrics where *larger* is better; everything else numeric is assumed
#: smaller-is-better (seconds). Used for the delta arrow and the gate.
_HIGHER_IS_BETTER = ("points_per_s", "speedup")


def _is_improvement(metric: str, delta_pct: float) -> bool:
    higher = any(tag in metric for tag in _HIGHER_IS_BETTER)
    return delta_pct >= 0 if higher else delta_pct <= 0


def _is_scalar(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _scalar_metrics(payload: dict) -> dict:
    """Scalar metrics, flattening one level of nested dicts.

    ``{"phases": {"evaluate": 1.2}}`` becomes ``{"phases.evaluate": 1.2}``
    so per-phase breakdowns ride along in the trajectory table.
    """
    metrics = {}
    for key, value in payload.items():
        if _is_scalar(value):
            metrics[key] = value
        elif isinstance(value, dict):
            for sub_key, sub_value in value.items():
                if _is_scalar(sub_value):
                    metrics[f"{key}.{sub_key}"] = sub_value
    return metrics


def python_tag() -> str:
    """``major.minor`` plus a ``t`` suffix on free-threaded builds."""
    tag = f"{sys.version_info.major}.{sys.version_info.minor}"
    if sys.version_info >= (3, 13) and not sys._is_gil_enabled():  # noqa: SLF001
        tag += "t"
    return tag


def variant(record: dict) -> str:
    """Filename-safe baseline key: ``<kernel>-py<python>``."""
    return f"{record.get('kernel', 'fused')}-py{record.get('python', '?')}"


def merge(sha: str, inputs: dict[str, Path], *, python: str) -> dict:
    benches = {}
    for name, path in inputs.items():
        payload = json.loads(Path(path).read_text())
        benches[name] = _scalar_metrics(payload)
    return {"sha": sha, "python": python, "benches": benches}


def _baseline_matches(current: dict, candidate: dict) -> bool:
    """Whether a cached record is comparable to the current one.

    A missing ``kernel`` field reads as ``fused``, so current records
    (which carry none) match the ``fused`` records cached before the
    field was dropped, and records written before the python keying
    existed match any python — the first run after either change
    still gets a trajectory row instead of a silent fresh start.
    """
    if candidate.get("kernel", "fused") != current.get("kernel", "fused"):
        return False
    return candidate.get("python") in (None, current.get("python"))


def find_baseline(baseline_dir: Path, current: dict) -> "dict | None":
    """Newest cached ``BENCH_*.json`` with a matching kernel/python key."""
    if not baseline_dir.is_dir():
        return None
    candidates = sorted(
        baseline_dir.glob("BENCH_*.json"),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for path in candidates:
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if _baseline_matches(current, record):
            return record
    return None


def gate_violations(
    current: dict, baseline: dict, gates: list[str], threshold_pct: float
) -> list[str]:
    """Gated metrics that regressed beyond the threshold, as messages."""
    violations = []
    for bench, metrics in sorted(current.get("benches", {}).items()):
        previous_metrics = baseline.get("benches", {}).get(bench, {})
        for metric in gates:
            value = metrics.get(metric)
            previous = previous_metrics.get(metric)
            if value is None or previous is None or previous == 0:
                continue
            pct = 100.0 * (value - previous) / abs(previous)
            if _is_improvement(metric, pct):
                continue
            if abs(pct) > threshold_pct:
                violations.append(
                    f"{bench}.{metric}: {previous:.4g} → {value:.4g} "
                    f"({pct:+.1f}%, threshold ±{threshold_pct:g}%)"
                )
    return violations


def delta_report(current: dict, baseline: dict, gates: list[str]) -> str:
    gated = set(gates)
    lines = [
        "## Bench trajectory",
        "",
        f"`{baseline.get('sha', '?')[:12]}` → `{current.get('sha', '?')[:12]}`"
        f" [{variant(current)}] — gated metrics (⛔ on regression): "
        + (", ".join(f"`{g}`" for g in gates) if gates else "none"),
        "",
        "| bench | metric | previous | current | delta |",
        "|---|---|---:|---:|---:|",
    ]
    for bench, metrics in sorted(current.get("benches", {}).items()):
        previous_metrics = baseline.get("benches", {}).get(bench, {})
        for metric, value in sorted(metrics.items()):
            previous = previous_metrics.get(metric)
            name = f"{metric} ⛔" if metric in gated else metric
            if previous is None:
                lines.append(f"| {bench} | {name} | — | {value:.4g} | new |")
                continue
            if previous == 0:
                delta = "n/a"
            else:
                pct = 100.0 * (value - previous) / abs(previous)
                arrow = "✅" if _is_improvement(metric, pct) else "⚠️"
                delta = f"{pct:+.1f}% {arrow}"
            lines.append(
                f"| {bench} | {name} | {previous:.4g} | {value:.4g} | {delta} |"
            )
    return "\n".join(lines) + "\n"


def fresh_report(current: dict) -> str:
    lines = [
        "## Bench trajectory",
        "",
        f"`{current.get('sha', '?')[:12]}` [{variant(current)}] — no "
        "previous baseline for this python (first run or cache miss)",
        "",
        "| bench | metric | value |",
        "|---|---|---:|",
    ]
    for bench, metrics in sorted(current.get("benches", {}).items()):
        for metric, value in sorted(metrics.items()):
            lines.append(f"| {bench} | {metric} | {value:.4g} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sha", required=True, help="commit being measured")
    parser.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="benchmark JSON report to fold in (repeatable)",
    )
    parser.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory for BENCH_<sha>.<variant>.json",
    )
    parser.add_argument(
        "--baseline-dir", default=None, metavar="DIR",
        help="directory holding the previous BENCH_*.json (actions/cache)",
    )
    parser.add_argument(
        "--gate", action="append", default=[], metavar="METRIC",
        help="hard-gated metric, e.g. phases.evaluate or vector_s "
        "(repeatable; regression beyond --gate-threshold exits 1)",
    )
    parser.add_argument(
        "--gate-threshold", type=float, default=15.0, metavar="PCT",
        help="allowed regression for gated metrics (default: 15%%)",
    )
    parser.add_argument(
        "--summary-file", default=None, metavar="PATH",
        help="append the markdown report here (e.g. $GITHUB_STEP_SUMMARY); "
        "stdout otherwise",
    )
    args = parser.parse_args(argv)

    inputs = {}
    for spec in args.input:
        name, sep, path = spec.partition("=")
        if not sep:
            parser.error(f"--input must look like NAME=PATH, got {spec!r}")
        inputs[name] = Path(path)

    current = merge(args.sha, inputs, python=python_tag())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{args.sha}.{variant(current)}.json"
    out_path.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    baseline = (
        find_baseline(Path(args.baseline_dir), current)
        if args.baseline_dir
        else None
    )
    if baseline is not None and baseline.get("sha") == current.get("sha"):
        # Workflow re-run for the same commit: the rolled-forward
        # baseline is this very record, and "current vs itself" would
        # masquerade as a flat trajectory. Report fresh values instead.
        baseline = None

    report = (
        delta_report(current, baseline, args.gate)
        if baseline is not None
        else fresh_report(current)
    )

    status = 0
    if baseline is not None and args.gate:
        violations = gate_violations(
            current, baseline, args.gate, args.gate_threshold
        )
        if violations:
            allow = os.environ.get("REPRO_BENCH_ALLOW_REGRESSION") == "1"
            verdict = (
                "overridden by REPRO_BENCH_ALLOW_REGRESSION=1"
                if allow
                else "failing the job"
            )
            report += (
                f"\n### ⛔ Gated regressions ({verdict})\n\n"
                + "\n".join(f"- {v}" for v in violations)
                + "\n"
            )
            for violation in violations:
                print(f"gated regression: {violation}", file=sys.stderr)
            if not allow:
                status = 1
            else:
                print(
                    "regressions overridden by REPRO_BENCH_ALLOW_REGRESSION=1",
                    file=sys.stderr,
                )

    if args.summary_file:
        with open(args.summary_file, "a", encoding="utf-8") as handle:
            handle.write(report)
    else:
        print(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
