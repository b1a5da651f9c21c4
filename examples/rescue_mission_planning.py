#!/usr/bin/env python3
"""Rescue-team mission planning: pick (m, TIDS) for a disaster deployment.

A rescue coordination centre is deploying a 40-device mobile group into
a collapsed-infrastructure area. Mission requirements:

* **survivability** — the group must (in expectation) survive insider
  compromise for the full 72-hour mission;
* **timeliness** — total protocol traffic must stay under 40% of the
  shared 1 Mbps channel (hop-bit budget 4e5/s), or medical telemetry
  starts missing its delay bound.

The planner sweeps the number of vote-participants ``m`` and the
detection interval ``TIDS``, prints the feasible region, and picks the
cheapest configuration that satisfies both requirements — exactly the
design procedure the paper's Section 5 sketches for system designers.
The whole (m × TIDS) grid is submitted through the batch engine, so
``--jobs`` parallelises it and ``--cache-dir`` persists the points.

Run:  python examples/rescue_mission_planning.py [--jobs N|auto] [--cache-dir DIR]
"""

import argparse

from repro import GCSParameters, Scenario
from repro.constants import HOUR
from repro.engine import make_runner, run_tids_sweep

MISSION_S = 72 * HOUR
COST_BUDGET = 4.0e5  # hop-bits/s
TIDS_GRID = (15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 960.0)
M_GRID = (3, 5, 7, 9)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", default=None, help="engine backend: N, 'auto' or 'vector[:N]'"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="persistent result cache directory"
    )
    args = parser.parse_args()

    base = GCSParameters.paper_defaults(num_nodes=40)
    scenario = Scenario(base)
    runner = make_runner(args.jobs, args.cache_dir)
    print(scenario.describe())
    print(
        f"requirements: MTTSF >= {MISSION_S:g}s (72 h), "
        f"Ctotal <= {COST_BUDGET:g} hop-bits/s\n"
    )

    feasible = []
    print(f"{'m':>3} {'TIDS(s)':>8} {'MTTSF(h)':>10} {'Ctotal':>10}  verdict")
    for m in M_GRID:
        points = run_tids_sweep(
            runner,
            base,
            TIDS_GRID,
            network=scenario.network,
            overrides={"num_voters": m},
        )
        for point in points:
            result = point.result
            ok_surv = result.mttsf_s >= MISSION_S
            ok_cost = result.ctotal_hop_bits_s <= COST_BUDGET
            verdict = "OK" if (ok_surv and ok_cost) else (
                "too risky" if not ok_surv else "too chatty"
            )
            print(
                f"{m:>3} {point.tids_s:>8g} {result.mttsf_s/3600:>10.1f} "
                f"{result.ctotal_hop_bits_s:>10.3g}  {verdict}"
            )
            if ok_surv and ok_cost:
                feasible.append((m, point))
        print()

    if not feasible:
        raise SystemExit("no feasible configuration — relax a requirement")

    # Cheapest feasible plan; survivability margin as tie-breaker.
    m_best, best = min(
        feasible, key=lambda mp: (mp[1].ctotal_hop_bits_s, -mp[1].mttsf_s)
    )
    margin = best.mttsf_s / MISSION_S
    print("=== selected plan ===")
    print(
        f"m = {m_best}, TIDS = {best.tids_s:g}s: "
        f"MTTSF {best.mttsf_s/3600:.1f} h ({margin:.1f}x the mission), "
        f"Ctotal {best.ctotal_hop_bits_s:.3g} hop-bits/s "
        f"({best.result.channel_utilization:.0%} of channel)"
    )
    print(f"dominant residual risk: {best.result.dominant_failure_mode}")
    print(f"\n{runner.cache.describe()}")


if __name__ == "__main__":
    main()
