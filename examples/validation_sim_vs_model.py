#!/usr/bin/env python3
"""Cross-validate the analytic SPN/CTMC pipeline against Monte Carlo.

Two independent implementations of the same system meet here:

* the **analytic** path — Figure 1 SPN -> CTMC -> exact mean time to
  absorption (this is what the paper evaluates numerically with SPNP);
* the **simulated** path — a discrete-event sampler. In ``rates`` mode
  it fires the SPN's exact rates (so its replication mean must converge
  to the analytic MTTSF); in ``protocol`` mode the IDS actually runs
  majority votes with sampled voters and colluders, validating that
  Equation 1 summarises the protocol faithfully.

The example also regenerates the paper's Figure 1 as GraphViz DOT.

The analytic grid points are submitted through the batch engine as one
deduplicated batch, and the per-``TIDS`` replication batches fan out
over the same execution backend — ``--jobs 4`` runs both sides on four
workers; ``--cache-dir`` persists the analytic half across runs.

Run:  python examples/validation_sim_vs_model.py [--jobs N|auto] [--cache-dir DIR]
"""

import argparse

from pathlib import Path

from repro import GCSParameters
from repro.core import build_gcs_spn, evaluate
from repro.core.metrics import resolve_network
from repro.engine import EvalRequest, make_runner
from repro.sim import run_replications
from repro.spn import net_to_dot

TIDS_POINTS = (15.0, 60.0, 240.0, 960.0)
REPLICATIONS = 200


def _replication_batch(task):
    """One TIDS point's replication batch (module level so process
    pools can pickle it)."""
    params, network = task
    summary = run_replications(
        params, replications=REPLICATIONS, mode="rates", network=network, seed=17
    )
    lo, hi = summary.ttsf.interval
    return summary.ttsf.mean, lo, hi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", default=None, help="engine backend: N, 'auto' or 'vector[:N]'"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="persistent result cache directory"
    )
    args = parser.parse_args()
    runner = make_runner(args.jobs, args.cache_dir)

    params = GCSParameters.small_test()  # N=12 so 200 replications fly
    network = resolve_network(params)
    grid_params = [
        params.replacing(detection_interval_s=tids) for tids in TIDS_POINTS
    ]

    # Analytic side: one batch through cache + backend.
    batch = runner.run(
        [EvalRequest(params=p, network=network) for p in grid_params]
    )
    batch.report.raise_on_error()
    analytic_values = [result.mttsf_s for result in batch.results]

    # Simulated side: replication batches over the same backend (never
    # cached — they are stochastic).
    outcomes = runner.backend.run(
        _replication_batch, [(p, network) for p in grid_params]
    )

    print(f"{'TIDS(s)':>8} {'analytic':>12} {'sim mean':>12} "
          f"{'95% CI':>26}  inside?")
    inside = 0
    for tids, analytic, outcome in zip(TIDS_POINTS, analytic_values, outcomes):
        if not outcome.ok:
            raise SystemExit(f"replication batch failed: {outcome.error}")
        mean, lo, hi = outcome.value
        ok = lo <= analytic <= hi
        inside += ok
        print(
            f"{tids:>8g} {analytic:>12.4g} {mean:>12.4g} "
            f"[{lo:>11.4g}, {hi:>11.4g}]  {'yes' if ok else 'NO'}"
        )
    print(f"\nanalytic value inside the CI at {inside}/{len(TIDS_POINTS)} points")

    # Operational-protocol fidelity (slower; fewer replications).
    summary = run_replications(params, replications=25, mode="protocol", seed=23)
    analytic = evaluate(params).mttsf_s
    print(
        f"\nprotocol-mode sim (real majority votes): "
        f"TTSF {summary.ttsf.describe()}\n"
        f"analytic {analytic:.4g}s -> ratio {summary.ttsf.mean/analytic:.2f} "
        "(batch sweeps vs per-node races; same order is the expectation)"
    )
    print(f"failure modes: {summary.failure_mode_fractions}")

    # Figure 1, regenerated from code.
    dot = net_to_dot(build_gcs_spn(params, network))
    out = Path(__file__).resolve().parent / "figure1_spn.dot"
    out.write_text(dot)
    print(f"\nFigure 1 SPN written to {out} (render with: dot -Tpng)")


if __name__ == "__main__":
    main()
