"""Engine benchmark: multi-core speedup of the batched solver and warm-cache hit rate.

Three measurements on the full paper-figure campaign (fig2–fig5 grids,
N = 100 — the quick N = 40 campaign is too small to split profitably):

* **vector cold** — the whole campaign through the structure-sharing
  batched solver in one process, no cache;
* **vector:N cold** — the same points with the batch chunks fanned over
  ``N`` pool workers (``N = max(2, min(4, cpus))``); asserts a
  wall-clock win over ``vector`` when the host exposes more than one CPU
  (on a single-core host the win is physically impossible for CPU-bound
  solves, so the benchmark only bounds the pool's overhead there and
  says so);
* **warm cache** — an immediate re-run of the ``vector:N`` runner
  against the populated cache; asserts ≥ 90% cache hits, and asserts
  all three produce identical numbers.

Both cold legs start from empty process-wide memos (structure cache and
voting tables): forked pool workers inherit the parent's, so a warm
parent would hand the second leg a head start.

Runs under pytest-benchmark like the other `bench_*` files, and also as
a standalone script (``PYTHONPATH=src python benchmarks/bench_engine_parallel.py``)
printing a small report table.

Setting ``REPRO_BENCH_REQUIRE_MULTICORE=1`` (the CI ``engine-parallel``
job does) turns "single core, can only bound overhead" from a downgrade
into a hard failure — it catches the silent regression where CI quietly
stops testing the parallel path because the runner shrank to one core.
"""

from __future__ import annotations

import os
import time

from repro.core.fastpath import clear_structure_cache
from repro.engine import BatchRunner, ResultCache, available_cpus, make_backend
from repro.engine.jobs import paper_campaign
from repro.voting.majority import clear_table_cache


def _cpus() -> int:
    return available_cpus()


def _workers() -> int:
    return max(2, min(4, _cpus()))


def _outcome_values(outcome):
    return [
        (
            job_outcome.job.name,
            tuple(job_outcome.values("mttsf_s")),
            tuple(job_outcome.values("ctotal_hop_bits_s")),
        )
        for job_outcome in outcome.outcomes
    ]


def _timed_cold(campaign, runner):
    clear_structure_cache()
    clear_table_cache()
    t0 = time.perf_counter()
    outcome = campaign.run(runner)
    return outcome, time.perf_counter() - t0


def _run_all(tmp_cache_dir=None):
    campaign = paper_campaign(quick=False)

    outcome_vector, vector_s = _timed_cold(
        campaign, BatchRunner(backend=make_backend("vector"))
    )

    cache = ResultCache(cache_dir=tmp_cache_dir)
    parallel = BatchRunner(cache=cache, backend=make_backend(f"vector:{_workers()}"))
    outcome_cold, cold_s = _timed_cold(campaign, parallel)

    t2 = time.perf_counter()
    outcome_warm = campaign.run(parallel)
    warm_s = time.perf_counter() - t2

    return {
        "campaign": campaign,
        "vector_s": vector_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "outcome_vector": outcome_vector,
        "outcome_cold": outcome_cold,
        "outcome_warm": outcome_warm,
    }


def _assert_claims(r) -> None:
    if os.environ.get("REPRO_BENCH_REQUIRE_MULTICORE"):
        assert _cpus() > 1, (
            f"REPRO_BENCH_REQUIRE_MULTICORE is set but only {_cpus()} CPU "
            "is usable — the parallel path is not actually being tested"
        )
    vector_vals = _outcome_values(r["outcome_vector"])
    assert vector_vals == _outcome_values(r["outcome_cold"])
    assert vector_vals == _outcome_values(r["outcome_warm"])

    # The fig2 m=5 column reappears in fig4's linear curve (same
    # scenario points), so one submitted batch dedups across figures.
    report_cold = r["outcome_cold"].report
    assert report_cold.n_unique < report_cold.n_requested
    assert report_cold.n_errors == 0

    # Warm re-run: >= 90% cache hits (it is 100% here — every unique
    # point was just stored).
    report_warm = r["outcome_warm"].report
    assert report_warm.cache_hit_rate >= 0.90, report_warm.describe()
    assert report_warm.n_evaluated == 0

    # Pool workers beat the one-process batched solve on the full
    # campaign. Only a real claim when there is real parallel hardware;
    # on one core the pool can at best tie, so there we just bound its
    # overhead.
    if _cpus() > 1:
        assert r["cold_s"] < r["vector_s"], (
            f"vector:{_workers()} {r['cold_s']:.2f}s not faster than vector "
            f"{r['vector_s']:.2f}s on {_cpus()} cpus"
        )
    else:
        assert r["cold_s"] < 1.6 * r["vector_s"], (
            f"pool overhead too high on a single core: vector:{_workers()} "
            f"{r['cold_s']:.2f}s vs vector {r['vector_s']:.2f}s"
        )
    # The warm-cache run beats every cold solve.
    assert r["warm_s"] < r["cold_s"]
    assert r["warm_s"] < 0.5 * r["vector_s"]


def bench_engine_parallel(once, tmp_path):
    r = once(lambda: _run_all(tmp_path / "cache"))
    _assert_claims(r)


def main() -> None:
    r = _run_all()
    _assert_claims(r)
    campaign = r["campaign"]
    report = r["outcome_cold"].report
    print(f"campaign: {campaign.name} ({len(campaign)} points, "
          f"{report.n_unique} unique after dedup)")
    print(f"workers : {_workers()} (host cpus: {_cpus()})")
    if _cpus() == 1:
        print("note    : single-core host — the vector:N-vs-vector "
              "comparison below measures pool overhead, not speedup")
    print(f"{'vector cold':16s} {r['vector_s']:8.2f}s  1.00x")
    print(f"{'vector:N cold':16s} {r['cold_s']:8.2f}s  "
          f"{r['vector_s'] / r['cold_s']:.2f}x")
    print(f"{'warm cache':16s} {r['warm_s']:8.2f}s  "
          f"{r['vector_s'] / r['warm_s']:.2f}x "
          f"({r['outcome_warm'].report.cache_hit_rate:.0%} cache hits)")


if __name__ == "__main__":
    main()
