"""Statistics collection for simulation runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from ..errors import ParameterError

__all__ = ["MissionRecord", "ReplicationStats"]


@dataclass(frozen=True)
class MissionRecord:
    """Outcome of one simulated mission (one replication)."""

    ttsf_s: float
    failure_mode: str  # "c1_data_leak" | "c2_byzantine" | "depletion" | "censored"
    accumulated_cost_hop_bits: float
    num_compromises: int
    num_detections: int
    num_false_evictions: int
    num_leak_attempts: int

    @property
    def mean_cost_rate(self) -> float:
        """Lifetime-average cost rate of this mission (hop-bits/s)."""
        return self.accumulated_cost_hop_bits / self.ttsf_s if self.ttsf_s > 0 else 0.0


@dataclass(frozen=True)
class ReplicationStats:
    """Sample statistics with a normal-approximation confidence interval."""

    mean: float
    std: float
    count: int
    confidence: float = 0.95

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], confidence: float = 0.95
    ) -> "ReplicationStats":
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ParameterError("no samples")
        if not 0.0 < confidence < 1.0:
            raise ParameterError(f"confidence must be in (0,1), got {confidence}")
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return cls(mean=float(arr.mean()), std=std, count=arr.size, confidence=confidence)

    @property
    def half_width(self) -> float:
        """CI half-width (normal approximation; exact enough for the
        30+ replications the validation benches run)."""
        if self.count < 2:
            return float("inf")
        z = ndtri(0.5 + self.confidence / 2.0)  # the normal quantile
        return float(z * self.std / math.sqrt(self.count))

    @property
    def interval(self) -> tuple[float, float]:
        hw = self.half_width
        return (self.mean - hw, self.mean + hw)

    def contains(self, value: float) -> bool:
        lo, hi = self.interval
        return lo <= value <= hi

    def relative_half_width(self) -> float:
        return self.half_width / abs(self.mean) if self.mean else float("inf")

    def describe(self) -> str:
        lo, hi = self.interval
        return (
            f"{self.mean:.4g} ± {self.half_width:.3g} "
            f"[{lo:.4g}, {hi:.4g}] (n={self.count}, {self.confidence:.0%})"
        )
