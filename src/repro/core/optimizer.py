"""Optimal-``TIDS`` identification and the security↔performance tradeoff.

The paper's design question: given the attacker strength observed at
runtime, pick the base detection interval ``TIDS`` (and the detection
function) that maximises MTTSF while keeping the total communication
cost within the system's performance requirement. This module provides:

* :func:`optimize_tids` — sweep a ``TIDS`` grid, return the best point
  by a chosen objective (max MTTSF, min Ĉtotal, or max MTTSF subject to
  a Ĉtotal ceiling);
* :func:`tradeoff_curve` — the full (TIDS, MTTSF, Ĉtotal) frontier a
  system designer reads the tradeoff from (Figures 2–5 are exactly
  these curves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..errors import ParameterError
from ..manet.network import NetworkModel
from ..params import GCSParameters
from ..validation import require_sorted_unique
from .metrics import evaluate_batch, resolve_network
from .results import GCSResult

__all__ = [
    "TradeoffPoint",
    "OptimizationResult",
    "tradeoff_curve",
    "select_optimum",
    "optimize_tids",
]


@dataclass(frozen=True)
class TradeoffPoint:
    """One sweep point of the tradeoff frontier."""

    tids_s: float
    result: GCSResult

    @property
    def mttsf_s(self) -> float:
        return self.result.mttsf_s

    @property
    def ctotal_hop_bits_s(self) -> float:
        return self.result.ctotal_hop_bits_s


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of an optimal-``TIDS`` search."""

    objective: str
    best: Optional[TradeoffPoint]
    curve: tuple[TradeoffPoint, ...]
    cost_ceiling_hop_bits_s: Optional[float] = None

    @property
    def feasible(self) -> bool:
        """False when a cost ceiling excluded every grid point."""
        return self.best is not None

    @property
    def optimal_tids_s(self) -> float:
        if self.best is None:
            raise ParameterError("no feasible point; inspect .curve")
        return self.best.tids_s

    @property
    def best_index(self) -> Optional[int]:
        """Curve index of the optimum (identity, not float equality —
        distinct curve points can share a ``tids_s`` value when callers
        stitch curves together)."""
        if self.best is None:
            return None
        for i, point in enumerate(self.curve):
            if point is self.best:
                return i
        return None  # pragma: no cover — best always comes from curve

    def summary(self) -> str:
        lines = [f"objective: {self.objective}"]
        if self.cost_ceiling_hop_bits_s is not None:
            lines[0] += f" (Ctotal <= {self.cost_ceiling_hop_bits_s:g} hop-bits/s)"
        best_index = self.best_index
        for i, point in enumerate(self.curve):
            marker = " <== optimal" if i == best_index else ""
            lines.append(
                f"  TIDS={point.tids_s:7.4g}s  MTTSF={point.mttsf_s:10.4g}s  "
                f"Ctotal={point.ctotal_hop_bits_s:10.4g}{marker}"
            )
        if self.best is None:
            lines.append("  NO FEASIBLE POINT under the cost ceiling")
        return "\n".join(lines)


def tradeoff_curve(
    params: GCSParameters,
    tids_grid_s: Sequence[float],
    *,
    network: Optional[NetworkModel] = None,
    method: str = "fast",
    progress: Optional[Callable[[TradeoffPoint], None]] = None,
) -> list[TradeoffPoint]:
    """Evaluate the scenario at every ``TIDS`` in the grid.

    The network/mobility stage is resolved once and shared across the
    sweep (the detection interval does not affect mobility), and the
    whole grid is solved in one structure-sharing batched sweep
    (:func:`repro.core.metrics.evaluate_batch`). Results come back in
    grid order, and ``progress`` sees each point in that order. For a
    parallel, cached sweep use the engine instead:
    ``run_tids_sweep(make_runner("vector:N"), params, grid)``
    (:func:`repro.engine.batch.run_tids_sweep`).
    """
    grid = require_sorted_unique("tids_grid_s", tids_grid_s)
    net = resolve_network(params, network)
    results = evaluate_batch(
        [(params.replacing(detection_interval_s=float(t)), net) for t in grid],
        method=method,
    )
    points: list[TradeoffPoint] = []
    for tids, result in zip(grid, results):
        point = TradeoffPoint(tids_s=float(tids), result=result)
        points.append(point)
        if progress is not None:
            progress(point)
    return points


def _validate_objective(
    objective: str, cost_ceiling_hop_bits_s: Optional[float]
) -> None:
    if objective not in ("max-mttsf", "min-ctotal"):
        raise ParameterError(
            f"objective must be max-mttsf|min-ctotal, got {objective!r}"
        )
    if cost_ceiling_hop_bits_s is not None and cost_ceiling_hop_bits_s <= 0:
        raise ParameterError("cost_ceiling_hop_bits_s must be > 0")
    if objective == "min-ctotal" and cost_ceiling_hop_bits_s is not None:
        raise ParameterError("a cost ceiling only applies to max-mttsf")


def select_optimum(
    curve: Sequence[TradeoffPoint],
    *,
    objective: str = "max-mttsf",
    cost_ceiling_hop_bits_s: Optional[float] = None,
) -> OptimizationResult:
    """Pick the best point of an already-evaluated tradeoff curve.

    This is the selection half of :func:`optimize_tids`, split out so
    curves produced elsewhere — in particular by the batch engine's
    :func:`repro.engine.batch.run_tids_sweep` — share the exact same
    objective and feasibility semantics as the serial path.
    """
    _validate_objective(objective, cost_ceiling_hop_bits_s)

    candidates = list(curve)
    if cost_ceiling_hop_bits_s is not None:
        candidates = [
            p for p in curve if p.ctotal_hop_bits_s <= cost_ceiling_hop_bits_s
        ]

    best: Optional[TradeoffPoint] = None
    if candidates:
        if objective == "max-mttsf":
            best = max(candidates, key=lambda p: p.mttsf_s)
        else:
            best = min(candidates, key=lambda p: p.ctotal_hop_bits_s)

    return OptimizationResult(
        objective=objective,
        best=best,
        curve=tuple(curve),
        cost_ceiling_hop_bits_s=cost_ceiling_hop_bits_s,
    )


def optimize_tids(
    params: GCSParameters,
    tids_grid_s: Sequence[float],
    *,
    objective: str = "max-mttsf",
    cost_ceiling_hop_bits_s: Optional[float] = None,
    network: Optional[NetworkModel] = None,
    method: str = "fast",
) -> OptimizationResult:
    """Pick the best ``TIDS`` on a grid.

    Objectives:

    * ``"max-mttsf"`` — maximise MTTSF (optionally subject to
      ``cost_ceiling_hop_bits_s``, the paper's "maximise MTTSF while
      satisfying imposed performance requirements");
    * ``"min-ctotal"`` — minimise Ĉtotal (Figure 3/5 reading).

    The grid is solved by :func:`tradeoff_curve`.
    """
    # Validate before evaluating so bad objectives fail fast.
    _validate_objective(objective, cost_ceiling_hop_bits_s)

    curve = tradeoff_curve(params, tids_grid_s, network=network, method=method)
    return select_optimum(
        curve,
        objective=objective,
        cost_ceiling_hop_bits_s=cost_ceiling_hop_bits_s,
    )
