"""Batched lattice solver benchmark: one point at a time vs batched.

Runs the fig2–fig5 paper campaign (quick ``N = 40`` grids by default,
``--full`` for the paper-scale ``N = 100`` campaign; 112 points, 54
unique after dedup) through the engine in up to two configurations:

* **per-point serial** — every unique point solved alone, as a
  one-point batch (`BatchRunner()` with the serial backend; skipped in
  ``--full`` mode unless ``--serial`` is passed — the batched win over
  it is already gated on the quick campaign);
* **batched** (``--jobs vector``) — one cached lattice structure,
  stacked rate fills and one level-scheduled backward sweep;

and asserts

* both configurations are **bit-identical** across the whole campaign
  (every MTTSF and Ĉtotal compared with ``==``, not a tolerance) when
  the per-point leg runs;
* with ``REPRO_BENCH_REQUIRE_SPEEDUP=<X>`` set (the CI multi-core job
  sets 3), batched is at least ``X``× faster than per-point serial —
  the batched win is algorithmic, so it must hold even on one core.

The report is also emitted as machine-readable JSON (``--json PATH`` or
``REPRO_BENCH_JSON=PATH``) with points/s, the speedup, the batched
leg's per-phase wall-clock breakdown (``phases.evaluate`` is the
solver's share) and its ``dag_level_sweeps`` (its
``solver.dag_level_sweeps`` count), which CI uploads as an artifact and
folds into the ``BENCH_<sha>.json`` trajectory
(``benchmarks/bench_report.py``). The sweep count is deterministic: it
is the level count times the number of chunks (299 for the ``--full``
campaign in one chunk), so a change that splits a campaign into more
chunks moves it on any runner, whatever the timings do.

Runs under pytest-benchmark like the other ``bench_*`` files and as a
standalone script
(``PYTHONPATH=src python benchmarks/bench_batch_solver.py [--full]``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.core.fastpath import clear_structure_cache
from repro.engine import BatchRunner, available_cpus, make_backend
from repro.engine.jobs import paper_campaign
from repro.obs import metrics
from repro.voting.majority import clear_table_cache


def _cold_caches() -> None:
    """Drop every process-wide memo a prior run could have warmed.

    All timed runs must start equally cold — the structure cache *and*
    the voting-table memo — or whichever pipeline runs second inherits
    the first one's tables and the comparison measures cache warming
    instead of the solver.
    """
    clear_structure_cache()
    clear_table_cache()


def _campaign_values(outcome):
    return [
        (
            job_outcome.job.name,
            tuple(job_outcome.values("mttsf_s")),
            tuple(job_outcome.values("ctotal_hop_bits_s")),
        )
        for job_outcome in outcome.outcomes
    ]


def _timed_vector_run(campaign):
    """One cold vector-backend campaign run and its level-sweep count."""
    _cold_caches()
    runner = BatchRunner(backend=make_backend("vector"))
    sweeps = metrics().counter("solver.dag_level_sweeps")
    sweeps_before = sweeps.value
    t0 = time.perf_counter()
    outcome = campaign.run(runner)
    elapsed = time.perf_counter() - t0
    return outcome, elapsed, int(sweeps.value - sweeps_before)


def _run_all(*, full: bool = False, include_serial: bool | None = None):
    campaign = paper_campaign(quick=not full)
    if include_serial is None:
        include_serial = not full  # the quick campaign gates the win

    serial_s = None
    outcome_serial = None
    if include_serial:
        # Cold per-point serial: drop every memo so the serial run pays
        # the structure build and the voting tables once, like a fresh
        # process.
        _cold_caches()
        serial = BatchRunner()
        t0 = time.perf_counter()
        outcome_serial = campaign.run(serial)
        serial_s = time.perf_counter() - t0

    outcome_vector, vector_s, dag_level_sweeps = _timed_vector_run(campaign)

    n_unique = outcome_vector.report.n_unique
    return {
        "campaign": campaign.name,
        "mode": "full" if full else "quick",
        "n_points": len(campaign),
        "n_unique": n_unique,
        "serial_s": serial_s,
        "vector_s": vector_s,
        "speedup": serial_s / vector_s if serial_s is not None else None,
        "points_per_s_serial": (
            n_unique / serial_s if serial_s is not None else None
        ),
        "points_per_s_vector": n_unique / vector_s,
        "phases": dict(outcome_vector.report.phase_seconds),
        "dag_level_sweeps": dag_level_sweeps,
        "cpus": available_cpus(),
        "outcome_serial": outcome_serial,
        "outcome_vector": outcome_vector,
    }


def _assert_claims(r) -> None:
    assert r["outcome_vector"].report.n_errors == 0

    # Bit-identical across the whole campaign — the solver contract.
    if r["outcome_serial"] is not None:
        assert r["outcome_serial"].report.n_errors == 0
        serial_vals = _campaign_values(r["outcome_serial"])
        vector_vals = _campaign_values(r["outcome_vector"])
        assert serial_vals == vector_vals, "batched campaign diverged from per-point"

    required = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP")
    if required:
        assert r["speedup"] is not None, (
            "REPRO_BENCH_REQUIRE_SPEEDUP is set but the per-point serial "
            "baseline was skipped (--full without --serial); pass --serial "
            "or unset the gate"
        )
        floor = float(required)
        assert r["speedup"] >= floor, (
            f"batched solver {r['speedup']:.2f}x not >= required {floor:g}x "
            f"(serial {r['serial_s']:.2f}s, vector {r['vector_s']:.2f}s, "
            f"{r['cpus']} cpus)"
        )


def _json_report(r) -> dict:
    return {
        key: r[key]
        for key in (
            "campaign",
            "mode",
            "n_points",
            "n_unique",
            "serial_s",
            "vector_s",
            "speedup",
            "points_per_s_serial",
            "points_per_s_vector",
            "phases",
            "dag_level_sweeps",
            "cpus",
        )
    }


def _write_json(r, path: "str | Path | None") -> None:
    path = path or os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_json_report(r), indent=2) + "\n")
    print(f"json report: {path}")


def bench_batch_solver(once):
    r = once(_run_all)
    _assert_claims(r)
    _write_json(r, None)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable report here "
        "(default: $REPRO_BENCH_JSON if set)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale N=100 campaign (per-point serial baseline "
        "skipped unless --serial is also passed)",
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="force the per-point serial baseline even with --full",
    )
    args = parser.parse_args(argv)

    r = _run_all(full=args.full, include_serial=True if args.serial else None)
    _assert_claims(r)
    report = r["outcome_vector"].report
    print(
        f"campaign: {r['campaign']} [{r['mode']}] ({r['n_points']} points, "
        f"{r['n_unique']} unique after dedup; {r['cpus']} cpus)"
    )
    if r["serial_s"] is not None:
        print(f"{'per-point serial':20s} {r['serial_s']:8.2f}s  "
              f"{r['points_per_s_serial']:7.1f} pts/s   1.00x")
    speedup = f"{r['speedup']:5.2f}x vs serial" if r["speedup"] else ""
    print(f"{'batched':20s} {r['vector_s']:8.2f}s  "
          f"{r['points_per_s_vector']:7.1f} pts/s  {speedup}")
    print(f"vector level sweeps: {r['dag_level_sweeps']}")
    print(f"batch report: {report.describe()}")
    if r["serial_s"] is not None:
        print("bit-identical: yes (asserted)")
    _write_json(r, args.json)


if __name__ == "__main__":
    main()
