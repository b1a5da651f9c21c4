"""Intrusion-detection scheduling and host IDS abstraction.

* :mod:`repro.detection.functions` — the paper's three periodic
  detection rate functions ``D(md)`` driven by the base interval
  ``TIDS``;
* :mod:`repro.detection.hostids` — per-node host-based IDS characterised
  by its false negative/positive probabilities (``p1``, ``p2``), with
  misuse- and anomaly-detection presets;
* :mod:`repro.detection.adaptive` — the adaptive controller that matches
  the detection function to the attacker strength observed at runtime
  (the paper's closing recommendation).

:mod:`repro.detection.audit` (the audit-feature detectors that derive
``(p1, p2)``) is imported on its own, as ``from repro.detection.audit
import AnomalyDetector``: it needs ``scipy.stats``, which nothing on
the model path uses, and this package is loaded by every model solve.
"""

from .adaptive import AdaptiveIDSController, recommend_detection_function
from .functions import DetectionFunction, detection_ratio, vector_shape_factor
from .hostids import HostIDS

__all__ = [
    "DetectionFunction",
    "detection_ratio",
    "vector_shape_factor",
    "HostIDS",
    "AdaptiveIDSController",
    "recommend_detection_function",
]
