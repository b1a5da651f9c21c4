"""Batched transient survivability benchmark: serial vs vector.

Runs one survivability campaign — a hostile "contested burst" variant
of the fig2 grid (``m × TIDS``, quick ``N = 40``) whose curves decay
visibly inside the mission window — twice through the engine:

* **serial** — the default backend (`BatchRunner()`) solves the
  ``SurvivabilityRequest``s one point at a time, each a one-point
  batched uniformization on the cached lattice structure's solve space;
* **vector** — ``--jobs vector``: rate fills stacked, one multi-point
  power sequence shared across the *whole* mission-time grid
  (:func:`repro.ctmc.transient.transient_distribution_batch`).

Both legs run the same uniformization, so the bench asserts that the two
campaigns are equal with ``==`` on every survival value, failure CDF
and time-bounded cost. Their time ratio is the gain from stacking
points into one sweep; it is reported, not gated.

The report is also emitted as machine-readable JSON (``--json PATH`` or
``REPRO_BENCH_JSON=PATH``) with points/s, speedup and the vector leg's
``uniformization_steps`` (its ``solver.uniformization_steps`` count),
which CI uploads as an artifact so the trend is diffable across
commits. The step count is deterministic: a change that deepens the
sweep moves it on any runner, whatever the timings do.

Runs under pytest-benchmark like the other ``bench_*`` files and as a
standalone script
(``PYTHONPATH=src python benchmarks/bench_transient_batch.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.core.fastpath import clear_structure_cache
from repro.engine import BatchRunner, SurvivabilitySweep, available_cpus, make_backend
from repro.obs import metrics
from repro.voting.majority import clear_table_cache

#: Mission-time grid (seconds). The lattice's full Λ is ~1e3 (fast
#: small-group rekey states); each point cuts the states its 5 s mission
#: is certified not to reach and runs at Λ′ ≈ 35, so Λ′·t_max ≈ 173 and
#: the certified Poisson window ends near step 275, shared by every
#: time point (293 steps in all with the two doomed cut attempts).
MISSION_TIMES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)


def survivability_campaign(*, quick: bool = True) -> SurvivabilitySweep:
    """Contested-burst survivability grid (fig2 axes, hostile rates)."""
    return SurvivabilitySweep(
        name="contested-burst-survivability",
        times_s=MISSION_TIMES,
        axes={
            "num_voters": (3, 5, 7, 9),
            "detection_interval_s": (60.0, 120.0, 240.0),
        },
        base={
            "num_nodes": 40 if quick else 100,
            # Hostile overrides: fast compromise + chatty workload +
            # leaky host IDS, so S(t) decays inside the window instead
            # of sitting at 1.0.
            "base_compromise_rate_hz": 0.5,
            "data_rate_hz": 2.0,
            "host_false_negative": 0.2,
        },
    )


def _cold_caches() -> None:
    """Drop every process-wide memo a prior run could have warmed."""
    clear_structure_cache()
    clear_table_cache()


def _campaign_curves(outcome):
    return [
        (
            result.survival,
            result.failure_cdf["any"],
            result.time_bounded_cost,
        )
        for _, result in outcome.points
    ]


def _run_all():
    campaign = survivability_campaign(quick=True)

    _cold_caches()
    serial = BatchRunner()
    t0 = time.perf_counter()
    outcome_serial = campaign.run(serial)
    serial_s = time.perf_counter() - t0

    _cold_caches()
    vector = BatchRunner(backend=make_backend("vector"))
    steps = metrics().counter("solver.uniformization_steps")
    steps_before = steps.value
    t1 = time.perf_counter()
    outcome_vector = campaign.run(vector)
    vector_s = time.perf_counter() - t1
    uniformization_steps = int(steps.value - steps_before)

    n_unique = outcome_vector.report.n_unique
    return {
        "campaign": campaign.name,
        "n_points": len(campaign),
        "n_times": len(campaign.times_s),
        "n_unique": n_unique,
        "serial_s": serial_s,
        "vector_s": vector_s,
        "speedup": serial_s / vector_s,
        "points_per_s_serial": n_unique / serial_s,
        "points_per_s_vector": n_unique / vector_s,
        "uniformization_steps": uniformization_steps,
        "cpus": available_cpus(),
        "outcome_serial": outcome_serial,
        "outcome_vector": outcome_vector,
    }


def _assert_claims(r) -> None:
    assert r["outcome_serial"].report.n_errors == 0
    assert r["outcome_vector"].report.n_errors == 0

    # One algorithm on both legs: every curve equal with ``==``.
    assert _campaign_curves(r["outcome_serial"]) == _campaign_curves(
        r["outcome_vector"]
    )

    # The curves must actually exercise the transient regime (guards
    # against a silently-benign grid where everything stays at 1.0).
    final_survival = [
        result.survival[-1] for _, result in r["outcome_vector"].points
    ]
    assert min(final_survival) < 0.9, final_survival


def _json_report(r) -> dict:
    return {
        key: r[key]
        for key in (
            "campaign",
            "n_points",
            "n_times",
            "n_unique",
            "serial_s",
            "vector_s",
            "speedup",
            "points_per_s_serial",
            "points_per_s_vector",
            "uniformization_steps",
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


def bench_transient_batch(once):
    r = once(_run_all)
    _assert_claims(r)
    _write_json(r, None)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the machine-readable report here "
        "(default: $REPRO_BENCH_JSON if set)",
    )
    args = parser.parse_args(argv)

    r = _run_all()
    _assert_claims(r)
    print(
        f"campaign: {r['campaign']} ({r['n_points']} points x "
        f"{r['n_times']} mission times; {r['cpus']} cpus)"
    )
    print(
        f"{'serial':18s} {r['serial_s']:8.2f}s  "
        f"{r['points_per_s_serial']:7.2f} pts/s   1.00x"
    )
    print(
        f"{'vector':18s} {r['vector_s']:8.2f}s  "
        f"{r['points_per_s_vector']:7.2f} pts/s  {r['speedup']:5.2f}x"
    )
    print(f"vector uniformization steps: {r['uniformization_steps']}")
    print(f"batch report: {r['outcome_vector'].report.describe()}")
    print("serial == vector on every curve: yes (asserted)")
    _write_json(r, args.json)


if __name__ == "__main__":
    main()
