"""The three workloads: seeded inputs, one round each, output checks.

A round is the unit that repeats inside a run: one campaign for the
batch workloads, one fixed sequence of submissions to a freshly started
server for ``service-overlap``. Every round starts cold (structure
cache, voting-table memo and batch-report ledger cleared; a fresh
result cache), so a fixed seed gives every round the same work, and
the counts a round records must repeat exactly.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro import constants as C
from repro.core.fastpath import clear_structure_cache
from repro.ctmc.transient import BATCH_EQUIVALENCE_RTOL
from repro.engine import BatchRunner, SurvivabilitySweep, make_backend, paper_campaign
from repro.engine.batch import evaluate_survivability_request
from repro.engine.cache import ResultCache
from repro.engine.jobs import SweepJob
from repro.obs import batch_reports, clear_batch_reports, metrics
from repro.params import GCSParameters
from repro.voting.majority import clear_table_cache

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
GOLDEN_PATH = ROOT / "tests" / "golden" / "paper_points.json"

#: Mission times of the contested-burst survivability sweep (seconds).
MISSION_TIMES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)

#: Counter families whose per-round deltas must repeat exactly.
COUNTED_FAMILIES = ("fastpath.", "solver.", "engine.")

#: Span call counts driven by client polling, which follows wall-clock
#: timing; they are reported but not required to repeat.
POLL_DRIVEN_CALLS = (
    "engine.cache.get",
    "service.client.fetch",
    "service.server.fetch",
)


def point_key(assignment: Mapping[str, Any], job: str = "") -> str:
    """Stable reference key of one grid point."""
    axes = " ".join(f"{k}={assignment[k]}" for k in sorted(assignment))
    return f"{job} {axes}" if job else axes


def model_record(result) -> dict:
    """The outputs of one model evaluation that the reference pins."""
    return {
        "mttsf_s": result.mttsf_s,
        "ctotal_hop_bits_s": result.ctotal_hop_bits_s,
        "failure_probabilities": dict(result.failure_probabilities),
    }


def curve_record(result) -> dict:
    """The outputs of one survivability curve that the reference pins."""
    return {
        "survival": list(result.survival),
        "failure_cdf": {k: list(v) for k, v in result.failure_cdf.items()},
        "expected_cost_rate": list(result.expected_cost_rate),
        "time_bounded_cost": list(result.time_bounded_cost),
    }


def curves_match(actual: dict, expected: dict) -> bool:
    """Curves agree within the batched-transient equivalence bound."""
    if set(actual["failure_cdf"]) != set(expected["failure_cdf"]):
        return False
    pairs = [
        (actual[name], expected[name])
        for name in ("survival", "expected_cost_rate", "time_bounded_cost")
    ]
    pairs += [(actual["failure_cdf"][k], v) for k, v in expected["failure_cdf"].items()]
    return all(
        len(a) == len(e)
        and np.allclose(a, e, rtol=BATCH_EQUIVALENCE_RTOL, atol=1e-12)
        for a, e in pairs
    )


def load_reference(name: str) -> dict:
    """Reference outputs of one workload, keyed by :func:`point_key`."""
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["points"]


@dataclass
class Round:
    """What one round delivered and how long each campaign took."""

    wall_s: list[float] = field(default_factory=list)
    first_s: list[float] = field(default_factory=list)
    points: int = 0
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    reports: list[dict] = field(default_factory=list)

    def check(self, key: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(key)


def timed_run(runner: BatchRunner, requests: Sequence[Any], **kwargs):
    """``runner.run`` with submit-to-first and submit-to-last outcome times."""
    first: list[float] = []

    def progress(index: int, key: str, source: str) -> None:
        if not first:
            first.append(time.perf_counter())

    start = time.perf_counter()
    batch = runner.run(requests, progress=progress, **kwargs)
    end = time.perf_counter()
    return batch, end - start, (first[0] if first else end) - start


def cold_state() -> None:
    """Drop every process-wide memo an earlier round could have warmed."""
    clear_structure_cache()
    clear_table_cache()
    clear_batch_reports()


def round_counts(before: Mapping[str, Mapping], rnd: Round) -> None:
    """Counter deltas and the evaluating runner's hit/miss split."""
    rnd.reports = [
        r for r in batch_reports() if not str(r["backend"]).startswith("remote:")
    ]
    rnd.counts = {
        name: entry["value"]
        for name, entry in sorted(metrics().diff(before).items())
        if entry["kind"] == "counter" and name.startswith(COUNTED_FAMILIES)
    }
    rnd.counts["split.cache_hits"] = sum(r["n_cache_hits"] for r in rnd.reports)
    rnd.counts["split.evaluated"] = sum(r["n_evaluated"] for r in rnd.reports)


class Workload:
    """One named workload; ``run_round`` runs and checks one round."""

    name = ""
    #: Code a fresh interpreter runs to measure set-up time. ``argv[1]``
    #: is an empty scratch directory it may use.
    setup_code = (
        "import repro.cli\n"
        "from repro.engine import BatchRunner, make_backend\n"
        "BatchRunner(backend=make_backend('vector'))\n"
    )

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch

    def run_round(self) -> Round:
        raise NotImplementedError


class _BatchWorkload(Workload):
    """One campaign through ``BatchRunner`` + the vector backend."""

    evaluate: Optional[Any] = None

    def __init__(
        self,
        seed: int,
        scratch: Path,
        keyed_requests: Sequence[tuple[str, Any]],
        reference: Mapping[str, Any],
    ) -> None:
        super().__init__(seed, scratch)
        # The seed orders the campaign's requests; results do not depend
        # on the order, so one reference serves every seed.
        self.keyed = list(keyed_requests)
        random.Random(seed).shuffle(self.keyed)
        self.reference = reference

    def matches(self, result, expected) -> bool:
        raise NotImplementedError

    def run_round(self) -> Round:
        cold_state()
        rnd = Round()
        runner = BatchRunner(backend=make_backend("vector"))
        kwargs = {"evaluate": self.evaluate} if self.evaluate else {}
        before = metrics().snapshot()
        batch, wall, first = timed_run(
            runner, [request for _, request in self.keyed], **kwargs
        )
        round_counts(before, rnd)
        rnd.wall_s.append(wall)
        rnd.first_s.append(first)
        rnd.points += batch.report.n_unique
        for (key, _), result in zip(self.keyed, batch.results):
            expected = self.reference.get(key)
            rnd.check(
                key,
                result is not None
                and expected is not None
                and self.matches(result, expected),
            )
        return rnd


def paper_requests(quick: bool) -> list[tuple[str, Any]]:
    """The fig2-fig5 campaign's requests, keyed by job and grid point."""
    return [
        (point_key(assignment, job.name), request)
        for job in paper_campaign(quick=quick).jobs
        for assignment, request in job.requests()
    ]


class PaperFull(_BatchWorkload):
    """The paper's fig2-fig5 campaign at N=100 (112 requests, 54 unique)."""

    name = "paper-full"

    def __init__(self, seed, scratch, *, quick=False, reference=None) -> None:
        super().__init__(
            seed,
            scratch,
            paper_requests(quick),
            reference if reference is not None else load_reference(self.name),
        )

    def matches(self, result, expected) -> bool:
        # The batched solver's contract is bit identity.
        return model_record(result) == expected


def survival_sweep(num_nodes: int) -> SurvivabilitySweep:
    """Contested-burst survivability grid: fig2 axes with hostile rates,
    so S(t) decays inside the mission window instead of sitting at 1."""
    return SurvivabilitySweep(
        name="contested-burst-survivability",
        times_s=MISSION_TIMES,
        axes={
            "num_voters": (3, 5, 7, 9),
            "detection_interval_s": (60.0, 120.0, 240.0),
        },
        base={
            "num_nodes": num_nodes,
            "base_compromise_rate_hz": 0.5,
            "data_rate_hz": 2.0,
            "host_false_negative": 0.2,
        },
    )


def survival_requests(num_nodes: int) -> list[tuple[str, Any]]:
    return [
        (point_key(assignment), request)
        for assignment, request in survival_sweep(num_nodes).requests()
    ]


class SurvivalN40(_BatchWorkload):
    """The contested-burst survivability sweep at N=40 (12 points x 8 times)."""

    name = "survival-n40"
    evaluate = staticmethod(evaluate_survivability_request)

    def __init__(self, seed, scratch, *, num_nodes=40, reference=None) -> None:
        super().__init__(
            seed,
            scratch,
            survival_requests(num_nodes),
            reference if reference is not None else load_reference(self.name),
        )

    def matches(self, result, expected) -> bool:
        return curves_match(curve_record(result), expected)


#: Axes of the service workload's point pool (9 x 4 x 3 x 3 = 324 points).
SERVICE_POOL_AXES = {
    "detection_interval_s": tuple(float(t) for t in C.PAPER_TIDS_GRID_S),
    "num_voters": C.PAPER_M_VALUES,
    "detection_function": ("logarithmic", "linear", "polynomial"),
    "attacker_function": ("logarithmic", "linear", "polynomial"),
}


def service_pool(num_nodes: int = 40) -> list[tuple[str, Any]]:
    """Every grid point a service submission may draw, keyed."""
    job = SweepJob(
        name="service-pool", base={"num_nodes": num_nodes}, axes=SERVICE_POOL_AXES
    )
    return [(point_key(assignment), request) for assignment, request in job.requests()]


#: Points per service submission that were never submitted before
#: (cache misses) and that were (cache hits). One miss keeps the
#: server's job well inside one 50 ms client poll interval.
FRESH_PER_SUBMISSION = 1
SEEN_PER_SUBMISSION = 5


def submission_plan(seed: int, pool_size: int, submissions: int) -> list[list[int]]:
    """Seeded pool indices per submission.

    The first submission draws only new points; every later one mixes
    new points with already-submitted ones. No two submissions are thus
    the same campaign (the server would answer a repeat from its job
    table).
    """
    fresh, seen = FRESH_PER_SUBMISSION, SEEN_PER_SUBMISSION
    if fresh + seen + fresh * (submissions - 1) > pool_size:
        raise ValueError("point pool too small for the submission plan")
    rng = random.Random(seed)
    order = rng.sample(range(pool_size), pool_size)
    plan: list[list[int]] = []
    submitted: list[int] = []
    cursor = 0
    for k in range(submissions):
        take = fresh + seen if k == 0 else fresh
        new = order[cursor : cursor + take]
        cursor += take
        points = new + (rng.sample(submitted, seen) if k else [])
        rng.shuffle(points)
        plan.append(points)
        submitted.extend(new)
    return plan


def golden_by_params() -> dict[str, dict]:
    """Golden operating points, keyed by their full parameter set."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    return {
        _params_key(GCSParameters.paper_defaults(**point["overrides"])): {
            "rtol": golden["rtol"],
            **point["expected"],
        }
        for point in golden["points"]
    }


def _params_key(params: GCSParameters) -> str:
    return json.dumps(params.to_dict(), sort_keys=True)


def golden_match(result, golden: Mapping[str, Any]) -> bool:
    rtol = golden["rtol"]
    pairs = [
        (result.mttsf_s, golden["mttsf_s"]),
        (result.ctotal_hop_bits_s, golden["ctotal_hop_bits_s"]),
        (result.channel_utilization, golden["channel_utilization"]),
    ]
    pairs += [
        (result.failure_probabilities[k], v)
        for k, v in golden["failure_probabilities"].items()
    ]
    return all(np.isclose(a, e, rtol=rtol, atol=0.0) for a, e in pairs)


@contextlib.contextmanager
def telemetry_counted_once() -> Iterator[None]:
    """Keep the client from absorbing the server's job telemetry.

    Client and server share this process, so the server's metric deltas
    are in the registry already; absorbing them again would count every
    solver and engine counter twice.
    """
    import repro.service.client as client

    original = client.absorb_telemetry
    client.absorb_telemetry = lambda payload: None
    try:
        yield
    finally:
        client.absorb_telemetry = original


class ServiceOverlap(Workload):
    """Closed-loop submissions of small N=40 campaigns to a local server."""

    name = "service-overlap"
    setup_code = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.engine import make_backend\n"
        "from repro.engine.cache import ResultCache\n"
        "from repro.service.server import ServiceServer, SweepService\n"
        "service = SweepService(cache=ResultCache(cache_dir=sys.argv[1]),"
        " backend=make_backend('vector'))\n"
        "server = ServiceServer(service, port=0)\n"
        "server.start_in_background()\n"
        "server.stop()\n"
    )

    def __init__(
        self, seed, scratch, *, submissions=64, num_nodes=40, reference=None
    ) -> None:
        super().__init__(seed, scratch)
        self.pool = service_pool(num_nodes)
        self.plan = submission_plan(seed, len(self.pool), submissions)
        self.reference = (
            reference if reference is not None else load_reference(self.name)
        )
        self.golden = golden_by_params()

    def run_round(self) -> Round:
        from repro.service.client import RemoteBackend
        from repro.service.server import ServiceServer, SweepService

        cold_state()
        rnd = Round()
        cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=self.scratch)
        service = SweepService(
            cache=ResultCache(cache_dir=cache_dir), backend=make_backend("vector")
        )
        server = ServiceServer(service, port=0)
        before = metrics().snapshot()
        try:
            url = server.start_in_background()
            with telemetry_counted_once():
                for points in self.plan:
                    # A fresh client runner per submission: its own
                    # in-memory cache never answers, so every point
                    # reaches the server.
                    runner = BatchRunner(
                        backend=RemoteBackend(url, poll_timeout=60.0)
                    )
                    keyed = [self.pool[i] for i in points]
                    batch, wall, first = timed_run(
                        runner, [request for _, request in keyed]
                    )
                    rnd.wall_s.append(wall)
                    rnd.first_s.append(first)
                    rnd.points += batch.report.n_unique
                    for (key, request), result in zip(keyed, batch.results):
                        self._check(rnd, key, request, result)
        finally:
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
        round_counts(before, rnd)
        return rnd

    def _check(self, rnd: Round, key: str, request, result) -> None:
        expected = self.reference.get(key)
        ok = (
            result is not None
            and expected is not None
            and model_record(result) == expected
        )
        golden = self.golden.get(_params_key(request.params))
        if ok and golden is not None:
            ok = golden_match(result, golden)
        rnd.check(key, ok)


WORKLOADS = {
    cls.name: cls for cls in (PaperFull, SurvivalN40, ServiceOverlap)
}
