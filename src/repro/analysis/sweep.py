"""Generic parameter sweep utilities.

:func:`grid_sweep` is the analysis layer's cartesian-product primitive.
It accepts any iterable per axis (generators and other unsized
iterables are materialised up front), evaluates in deterministic
lexicographic order, and can optionally dispatch points through a
:mod:`repro.engine` execution backend — which is how a generic sweep
gains per-point error capture and, under ``N`` / ``"vector:N"``,
per-point chunks on a process pool without the caller writing any
orchestration code.

:func:`model_grid_sweep` is the model-aware variant: axes range over
:meth:`GCSParameters.replacing` keys and every point is an engine
:class:`~repro.engine.batch.EvalRequest`, which means a
``backend="vector"`` sweep is solved by the structure-sharing batched
lattice solver in one pass instead of point by point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from ..errors import ParameterError

__all__ = [
    "SweepPoint",
    "grid_sweep",
    "model_grid_sweep",
    "survivability_grid_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point.

    ``error`` is ``None`` for a successful evaluation; when the sweep
    runs with ``capture_errors=True`` a failing point carries the
    exception text here (and ``value`` is ``None``) instead of aborting
    the whole sweep.
    """

    assignment: Mapping[str, Any]
    value: Any
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _materialize_axes(
    grid: Mapping[str, Iterable[Any]]
) -> dict[str, tuple[Any, ...]]:
    """Snapshot every axis as a tuple so any iterable works (a bare
    generator would otherwise crash ``len()`` and then be consumed by
    the first product pass)."""
    if not grid:
        raise ParameterError("grid must be non-empty")
    axes: dict[str, tuple[Any, ...]] = {}
    for name, values in grid.items():
        axis = tuple(values)
        if not axis:
            raise ParameterError(f"grid axis {name!r} is empty")
        axes[name] = axis
    return axes


def _apply_assignment(
    evaluate: Callable[..., Any], assignment: Mapping[str, Any]
) -> Any:
    """Module-level kwargs adapter (process pools need to pickle it)."""
    return evaluate(**assignment)


def _expand_assignments(
    axes: Mapping[str, tuple[Any, ...]]
) -> list[dict[str, Any]]:
    """Cartesian product in deterministic lexicographic axis order."""
    names = list(axes)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[n] for n in names))
    ]


def _resolve_backend(backend: Optional[Any]) -> Optional[Any]:
    """Accept backend objects or ``--jobs``-style spec strings/ints."""
    if backend is None or hasattr(backend, "run"):
        return backend
    from ..engine.executor import make_backend

    return make_backend(backend)


def _points_from_outcomes(
    assignments: list[Mapping[str, Any]],
    outcomes: list[Any],
    *,
    capture_errors: bool,
    progress: Callable[[SweepPoint], None] | None,
) -> list[SweepPoint]:
    """Convert backend :class:`PointOutcome`s into :class:`SweepPoint`s.

    Shared by every backend-dispatched sweep so error-propagation
    semantics stay in one place: unless errors are captured, the
    original exception is re-raised when the backend carried it across
    (it pickles), with a descriptive fallback otherwise — matching the
    serial path's behaviour.
    """
    points: list[SweepPoint] = []
    for assignment, outcome in zip(assignments, outcomes):
        if not outcome.ok and not capture_errors:
            if outcome.exception is not None:
                raise outcome.exception
            raise ParameterError(
                f"sweep point {assignment!r} failed: "
                f"{outcome.error_type}: {outcome.error}"
            )
        points.append(
            SweepPoint(
                assignment=assignment,
                value=outcome.value,
                error=None if outcome.ok else outcome.error,
            )
        )
        if progress is not None:
            progress(points[-1])
    return points


def grid_sweep(
    grid: Mapping[str, Iterable[Any]],
    evaluate: Callable[..., Any],
    *,
    progress: Callable[[SweepPoint], None] | None = None,
    backend: Optional[Any] = None,
    capture_errors: bool = False,
) -> list[SweepPoint]:
    """Cartesian-product sweep.

    ``grid`` maps parameter names to value iterables; ``evaluate`` is
    called with each assignment as keyword arguments, in deterministic
    lexicographic order of the grid definition.

    ``backend`` — any :class:`repro.engine.executor.ExecutionBackend`,
    or a :func:`~repro.engine.executor.make_backend` spec (``4``,
    ``"auto"``, ``"vector"``, ``"vector:2"``); points are dispatched
    through it (with pool workers, ``evaluate`` must be picklable)
    and always come back in grid order. An arbitrary callable cannot
    be vectorised, so a vector backend here runs the points one by
    one (fanned over its pool workers, if it has any) — use
    :func:`model_grid_sweep` for sweeps that should hit the batched
    lattice solver.
    ``capture_errors`` — record per-point failures on the returned
    :class:`SweepPoint` instead of raising; implied behaviour of every
    engine backend, re-raised here unless requested.
    """
    backend = _resolve_backend(backend)
    assignments = _expand_assignments(_materialize_axes(grid))

    if backend is not None:
        outcomes = backend.run(
            functools.partial(_apply_assignment, evaluate), assignments
        )
        return _points_from_outcomes(
            assignments, outcomes, capture_errors=capture_errors, progress=progress
        )

    points = []
    for assignment in assignments:
        if capture_errors:
            try:
                point = SweepPoint(assignment=assignment, value=evaluate(**assignment))
            except Exception as exc:  # noqa: BLE001 — capture is opt-in
                point = SweepPoint(assignment=assignment, value=None, error=str(exc))
        else:
            point = SweepPoint(assignment=assignment, value=evaluate(**assignment))
        points.append(point)
        if progress is not None:
            progress(point)
    return points


def model_grid_sweep(
    grid: Mapping[str, Iterable[Any]],
    *,
    base: Optional[Mapping[str, Any]] = None,
    params: Optional[Any] = None,
    method: str = "fast",
    backend: Union[Any, str, int, None] = None,
    capture_errors: bool = False,
    progress: Callable[[SweepPoint], None] | None = None,
) -> list[SweepPoint]:
    """Model-evaluation sweep routed through the engine's backends.

    Axes range over :meth:`GCSParameters.replacing` keys applied to
    ``params`` (default: :meth:`GCSParameters.paper_defaults` with the
    ``base`` overrides — that path delegates to
    :class:`repro.engine.jobs.SweepJob`, so grid-to-request semantics
    have one definition). Each point becomes an
    :class:`~repro.engine.batch.EvalRequest`, so every backend works
    and ``backend="vector"`` solves the whole grid with one
    structure-sharing batched sweep. Returned ``SweepPoint.value``s
    are :class:`~repro.core.results.GCSResult` objects.
    """
    from ..engine.batch import EvalRequest, evaluate_request
    from ..engine.executor import SerialBackend
    from ..engine.jobs import SweepJob

    if params is None:
        job = SweepJob(
            name="model-grid-sweep",
            axes=_materialize_axes(grid),
            base=dict(base or {}),
            method=method,
        )
        assignments, requests = map(list, zip(*job.requests()))
    else:
        if base:
            raise ParameterError("pass either params or base overrides, not both")
        assignments = _expand_assignments(_materialize_axes(grid))
        requests = [
            EvalRequest(params=params.replacing(**assignment), method=method)
            for assignment in assignments
        ]
    resolved = _resolve_backend(backend) or SerialBackend()
    outcomes = resolved.run(evaluate_request, requests)
    return _points_from_outcomes(
        assignments, outcomes, capture_errors=capture_errors, progress=progress
    )


def survivability_grid_sweep(
    grid: Mapping[str, Iterable[Any]],
    times: Iterable[float],
    *,
    base: Optional[Mapping[str, Any]] = None,
    params: Optional[Any] = None,
    eps: float = 1e-12,
    backend: Union[Any, str, int, None] = None,
    capture_errors: bool = False,
    progress: Callable[[SweepPoint], None] | None = None,
) -> list[SweepPoint]:
    """Survivability-curve sweep routed through the engine's backends.

    The transient counterpart of :func:`model_grid_sweep`: every grid
    point becomes a :class:`~repro.engine.batch.SurvivabilityRequest`
    over the shared mission-time grid ``times``, so
    ``backend="vector"`` solves the whole sweep with one multi-point
    uniformization pass (and ``backend="vector:N"`` fans chunks over
    ``N`` pool workers). Returned ``SweepPoint.value``s are
    :class:`~repro.core.results.SurvivabilityResult` objects.
    """
    from ..engine.batch import SurvivabilityRequest, evaluate_survivability_request
    from ..engine.executor import SerialBackend
    from ..engine.jobs import SurvivabilitySweep

    times = tuple(float(t) for t in times)
    if params is None:
        sweep = SurvivabilitySweep(
            name="survivability-grid-sweep",
            times_s=times,
            axes=_materialize_axes(grid),
            base=dict(base or {}),
            eps=eps,
        )
        assignments, requests = map(list, zip(*sweep.requests()))
    else:
        if base:
            raise ParameterError("pass either params or base overrides, not both")
        assignments = _expand_assignments(_materialize_axes(grid))
        requests = [
            SurvivabilityRequest(
                params=params.replacing(**assignment), times_s=times, eps=eps
            )
            for assignment in assignments
        ]
    resolved = _resolve_backend(backend) or SerialBackend()
    outcomes = resolved.run(evaluate_survivability_request, requests)
    return _points_from_outcomes(
        assignments, outcomes, capture_errors=capture_errors, progress=progress
    )
