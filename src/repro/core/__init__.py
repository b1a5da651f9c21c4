"""The paper's core contribution: the GCS security/performance model.

* :mod:`repro.core.failure` — the C1/C2 security failure conditions;
* :mod:`repro.core.rates` — the marking-dependent transition rates of
  Figure 1 (attacker, detection, voting, rekey) in one shared object;
* :mod:`repro.core.model` — the faithful Figure 1 SPN (with optional
  coupled group dynamics);
* :mod:`repro.core.fastpath` — vectorised direct construction of the
  same CTMC for large ``N`` (verified equal to the SPN path by test);
* :mod:`repro.core.metrics` — the ``evaluate()`` pipeline producing
  MTTSF, Ĉtotal, failure-mode probabilities and cost breakdowns;
* :mod:`repro.core.optimizer` — optimal-``TIDS`` search and the
  security↔performance tradeoff API;
* :mod:`repro.core.scenario` — a scenario facade that caches the
  network/mobility stage across parameter sweeps.
"""

from .failure import FailureClass, is_absorbed, security_failure_condition
from .fastpath import (
    LatticeStructure,
    build_lattice_chain,
    fill_transition_rates,
    lattice_structure,
)
from .metrics import (
    evaluate,
    evaluate_batch,
    evaluate_batch_outcomes,
    evaluate_survivability,
    evaluate_survivability_batch,
    evaluate_survivability_batch_outcomes,
)
from .model import build_gcs_spn
from .optimizer import (
    OptimizationResult,
    TradeoffPoint,
    optimize_tids,
    select_optimum,
    tradeoff_curve,
)
from .rates import GCSRates
from .results import GCSResult, SurvivabilityResult
from .scenario import Scenario

__all__ = [
    "FailureClass",
    "security_failure_condition",
    "is_absorbed",
    "GCSRates",
    "build_gcs_spn",
    "build_lattice_chain",
    "LatticeStructure",
    "lattice_structure",
    "fill_transition_rates",
    "evaluate",
    "evaluate_batch",
    "evaluate_batch_outcomes",
    "evaluate_survivability",
    "evaluate_survivability_batch",
    "evaluate_survivability_batch_outcomes",
    "GCSResult",
    "SurvivabilityResult",
    "OptimizationResult",
    "TradeoffPoint",
    "optimize_tids",
    "select_optimum",
    "tradeoff_curve",
    "Scenario",
]
