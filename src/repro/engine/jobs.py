"""Declarative job specs: a whole campaign as one submitted batch.

A :class:`SweepJob` names a grid — base parameter overrides plus axes of
values — without running anything. A :class:`Campaign` bundles several
jobs and submits **all** of their points as a single
:class:`~repro.engine.batch.BatchRunner` batch, so scenario points
shared between jobs (e.g. the ``m=5``/linear curve that appears in both
the fig2 and fig4 grids) are fingerprint-deduplicated and evaluated
once. Jobs are plain data: they round-trip through JSON, which is what
the CLI's ``sweep --spec jobs.json`` loads.

:func:`paper_campaign` expresses the paper's four figure grids
(fig2–fig5) declaratively; running it against a warm cache is the
"every figure for free" demonstration in
``benchmarks/bench_engine_parallel.py``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from .. import constants as C
from ..core.results import GCSResult, SurvivabilityResult
from ..errors import ParameterError
from ..params import GCSParameters
from ..validation import require_sorted_unique
from .batch import (
    BatchRunner,
    EvalRequest,
    PointError,
    ProgressFn,
    SurvivabilityRequest,
    evaluate_survivability_request,
)

__all__ = [
    "SweepJob",
    "JobOutcome",
    "Campaign",
    "CampaignOutcome",
    "SurvivabilitySweep",
    "SurvivabilityOutcome",
    "load_campaign",
    "paper_campaign",
]


@dataclass(frozen=True)
class SweepJob:
    """One named parameter grid over :meth:`GCSParameters.replacing` keys.

    ``base`` is applied to :meth:`GCSParameters.paper_defaults` first;
    each axis assignment is layered on top. Axis order is significant:
    the cartesian product iterates the last axis fastest.
    """

    name: str
    axes: Mapping[str, tuple[Any, ...]]
    base: Mapping[str, Any] = field(default_factory=dict)
    method: str = "fast"

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("job name must be non-empty")
        if not self.axes:
            raise ParameterError(f"job {self.name!r} has no axes")
        object.__setattr__(
            self, "axes", {k: tuple(v) for k, v in self.axes.items()}
        )
        object.__setattr__(self, "base", dict(self.base))
        for axis, values in self.axes.items():
            if len(values) == 0:
                raise ParameterError(f"job {self.name!r} axis {axis!r} is empty")

    # ------------------------------------------------------------------
    def assignments(self) -> list[dict[str, Any]]:
        """Every axis combination in row-major grid order."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]

    def requests(self) -> list[tuple[dict[str, Any], EvalRequest]]:
        """One ``(assignment, EvalRequest)`` pair per grid point."""
        base_params = GCSParameters.paper_defaults(**self.base)
        return [
            (
                assignment,
                EvalRequest(
                    params=base_params.replacing(**assignment), method=self.method
                ),
            )
            for assignment in self.assignments()
        ]

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready spec (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "axes": {k: list(v) for k, v in self.axes.items()},
            "base": dict(self.base),
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepJob":
        """Rebuild a job from :meth:`to_dict` output (raises
        :class:`ParameterError` when malformed).
        """
        try:
            return cls(
                name=data["name"],
                axes={k: tuple(v) for k, v in data["axes"].items()},
                base=dict(data.get("base", {})),
                method=data.get("method", "fast"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParameterError(f"malformed job spec: {exc}") from exc


@dataclass(frozen=True)
class JobOutcome:
    """One job's points in grid order (``None`` where a point failed)."""

    job: SweepJob
    points: tuple[tuple[Mapping[str, Any], Optional[GCSResult]], ...]

    def values(self, attr: str = "mttsf_s") -> list[Optional[float]]:
        """One result attribute per grid point (``None`` where failed)."""
        return [
            getattr(result, attr) if result is not None else None
            for _, result in self.points
        ]

    @property
    def n_failed(self) -> int:
        """Number of failed grid points."""
        return sum(1 for _, result in self.points if result is None)


@dataclass(frozen=True)
class Campaign:
    """A set of jobs submitted as one deduplicated batch."""

    name: str
    jobs: tuple[SweepJob, ...]

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ParameterError(f"campaign {self.name!r} has no jobs")
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            raise ParameterError(f"campaign {self.name!r} has duplicate job names")
        object.__setattr__(self, "jobs", tuple(self.jobs))

    def __len__(self) -> int:
        return sum(len(job) for job in self.jobs)

    # ------------------------------------------------------------------
    def run(
        self,
        runner: Optional[BatchRunner] = None,
        *,
        progress: Optional[ProgressFn] = None,
    ) -> "CampaignOutcome":
        """Expand every job, submit once, scatter results per job."""
        runner = runner or BatchRunner()
        expanded = [(job, job.requests()) for job in self.jobs]
        flat = [req for _, reqs in expanded for _, req in reqs]
        batch = runner.run(flat, progress=progress)

        outcomes: list[JobOutcome] = []
        cursor = 0
        for job, reqs in expanded:
            points = tuple(
                (assignment, batch.results[cursor + offset])
                for offset, (assignment, _) in enumerate(reqs)
            )
            outcomes.append(JobOutcome(job=job, points=points))
            cursor += len(reqs)
        return CampaignOutcome(
            campaign=self,
            outcomes=tuple(outcomes),
            report=batch.report,
            errors=tuple(batch.report.errors),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready spec (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "jobs": [job.to_dict() for job in self.jobs]}

    def to_json(self, path: "str | Path") -> Path:
        """Write the campaign spec to ``path`` as indented JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Campaign":
        """Rebuild a campaign from :meth:`to_dict` output (raises
        :class:`ParameterError` when malformed).
        """
        try:
            return cls(
                name=data["name"],
                jobs=tuple(SweepJob.from_dict(j) for j in data["jobs"]),
            )
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed campaign spec: {exc}") from exc


@dataclass(frozen=True)
class CampaignOutcome:
    """All job outcomes plus the shared batch report."""

    campaign: Campaign
    outcomes: tuple[JobOutcome, ...]
    report: Any
    errors: tuple[PointError, ...]

    def outcome(self, job_name: str) -> JobOutcome:
        """The named job's outcome (raises :class:`ParameterError`
        for unknown names).
        """
        for job_outcome in self.outcomes:
            if job_outcome.job.name == job_name:
                return job_outcome
        raise ParameterError(
            f"unknown job {job_name!r}; have {[o.job.name for o in self.outcomes]}"
        )


@dataclass(frozen=True)
class SurvivabilitySweep:
    """A survivability campaign: a parameter grid × one mission-time grid.

    The transient counterpart of :class:`SweepJob`: every grid point
    becomes a :class:`~repro.engine.batch.SurvivabilityRequest` whose
    curve is evaluated over the shared, strictly increasing
    ``times_s`` grid. Unlike :class:`SweepJob`, ``axes`` may be empty —
    a single-point sweep (one curve for the base scenario) is a useful
    degenerate case. Round-trips through JSON like every other job
    spec.
    """

    name: str
    times_s: tuple[float, ...]
    axes: Mapping[str, tuple[Any, ...]] = field(default_factory=dict)
    base: Mapping[str, Any] = field(default_factory=dict)
    eps: float = 1e-12

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("sweep name must be non-empty")
        times = require_sorted_unique("times_s", self.times_s)
        if times[0] < 0.0:
            raise ParameterError(f"times_s must be non-negative, got {times[0]!r}")
        object.__setattr__(self, "times_s", times)
        object.__setattr__(
            self, "axes", {k: tuple(v) for k, v in self.axes.items()}
        )
        object.__setattr__(self, "base", dict(self.base))
        for axis, values in self.axes.items():
            if len(values) == 0:
                raise ParameterError(f"sweep {self.name!r} axis {axis!r} is empty")

    # ------------------------------------------------------------------
    def assignments(self) -> list[dict[str, Any]]:
        """Every axis combination in row-major grid order."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]

    def requests(self) -> list[tuple[dict[str, Any], SurvivabilityRequest]]:
        """One ``(assignment, SurvivabilityRequest)`` pair per grid point."""
        base_params = GCSParameters.paper_defaults(**self.base)
        return [
            (
                assignment,
                SurvivabilityRequest(
                    params=base_params.replacing(**assignment),
                    times_s=self.times_s,
                    eps=self.eps,
                ),
            )
            for assignment in self.assignments()
        ]

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    # ------------------------------------------------------------------
    def run(
        self,
        runner: Optional[BatchRunner] = None,
        *,
        progress: Optional[ProgressFn] = None,
    ) -> "SurvivabilityOutcome":
        """Submit every grid point as one deduplicated batch."""
        runner = runner or BatchRunner()
        expanded = self.requests()
        batch = runner.run(
            [req for _, req in expanded],
            evaluate=evaluate_survivability_request,
            progress=progress,
        )
        points = tuple(
            (assignment, batch.results[i])
            for i, (assignment, _) in enumerate(expanded)
        )
        return SurvivabilityOutcome(
            sweep=self,
            points=points,
            report=batch.report,
            errors=tuple(batch.report.errors),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready spec (inverse of :meth:`from_dict`)."""
        return {
            "kind": "survivability",
            "name": self.name,
            "times_s": list(self.times_s),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "base": dict(self.base),
            "eps": self.eps,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SurvivabilitySweep":
        """Rebuild a sweep from :meth:`to_dict` output (raises
        :class:`ParameterError` when malformed).
        """
        try:
            return cls(
                name=data["name"],
                times_s=tuple(data["times_s"]),
                axes={k: tuple(v) for k, v in data.get("axes", {}).items()},
                base=dict(data.get("base", {})),
                eps=float(data.get("eps", 1e-12)),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParameterError(f"malformed survivability spec: {exc}") from exc


@dataclass(frozen=True)
class SurvivabilityOutcome:
    """One survivability sweep's curves plus the shared batch report."""

    sweep: SurvivabilitySweep
    points: tuple[tuple[Mapping[str, Any], Optional[SurvivabilityResult]], ...]
    report: Any
    errors: tuple[PointError, ...]

    @property
    def n_failed(self) -> int:
        """Number of failed grid points."""
        return sum(1 for _, result in self.points if result is None)

    def curves(self) -> list[Optional[tuple[float, ...]]]:
        """The ``S(t)`` curve per grid point (``None`` where failed)."""
        return [
            result.survival if result is not None else None
            for _, result in self.points
        ]


def load_campaign(path: "str | Path") -> Campaign:
    """Load a campaign (or a single job) from a JSON spec file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read campaign spec {path}: {exc}") from exc
    if "jobs" in data:
        return Campaign.from_dict(data)
    job = SweepJob.from_dict(data)
    return Campaign(name=job.name, jobs=(job,))


def paper_campaign(*, quick: bool = True) -> Campaign:
    """The paper's four figure grids (fig2–fig5) as one campaign.

    fig2/fig3 sweep ``TIDS × m`` (linear attacker/detection); fig4/fig5
    sweep ``TIDS × detection function`` at ``m = 5``. The fig2 ``m=5``
    column and the fig4 ``linear`` column are the *same* scenario
    points, so the campaign's dedup stage evaluates them once.
    """
    n = 40 if quick else C.PAPER_NUM_NODES
    base = {"num_nodes": n}
    return Campaign(
        name="paper-figures",
        jobs=(
            SweepJob(
                name="fig2_mttsf_vs_m",
                base=base,
                axes={
                    "detection_interval_s": tuple(C.PAPER_TIDS_GRID_S),
                    "num_voters": tuple(C.PAPER_M_VALUES),
                },
            ),
            SweepJob(
                name="fig3_ctotal_vs_m",
                base=base,
                axes={
                    "detection_interval_s": tuple(C.PAPER_TIDS_GRID_COST_S),
                    "num_voters": tuple(C.PAPER_M_VALUES),
                },
            ),
            SweepJob(
                name="fig4_mttsf_vs_detection",
                base=base,
                axes={
                    "detection_interval_s": tuple(C.PAPER_TIDS_GRID_S),
                    "detection_function": ("logarithmic", "linear", "polynomial"),
                },
            ),
            SweepJob(
                name="fig5_ctotal_vs_detection",
                base=base,
                axes={
                    "detection_interval_s": tuple(C.PAPER_TIDS_GRID_COST_S),
                    "detection_function": ("logarithmic", "linear", "polynomial"),
                },
            ),
        ),
    )
