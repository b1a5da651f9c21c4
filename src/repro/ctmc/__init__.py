"""Continuous-time Markov chain (CTMC) solvers.

This subpackage is the numerical backbone of the reproduction. It
provides:

* :class:`~repro.ctmc.chain.CTMC` — a sparse finite-state CTMC container;
* :func:`~repro.ctmc.absorbing.analyze_absorbing` — mean time to
  absorption (the paper's MTTSF), absorption probabilities per failure
  class, and expected accumulated rewards (the numerator of Ĉtotal),
  solved either by an exact topological sweep when the chain is acyclic
  (:mod:`repro.ctmc.acyclic`) or by a sparse linear solve
  (:mod:`repro.ctmc.linear`);
* :func:`~repro.ctmc.acyclic.solve_dag_batch` and
  :func:`~repro.ctmc.transient.transient_distribution_batch` — the
  batched solvers for ``P`` rate fills of one sparsity pattern: one
  level-scheduled backward sweep (bit-identical to per-point
  :func:`~repro.ctmc.acyclic.solve_dag`) and one stacked-matrix
  uniformization with stable Poisson weights
  (:mod:`repro.ctmc.poisson`);
* :func:`~repro.ctmc.transient.transient_distribution` /
  :func:`~repro.ctmc.transient.absorption_cdf` — that uniformization
  for one :class:`CTMC`: the batched call at ``P = 1``, so a chain's
  result is the same alone or in a batch;
* :func:`~repro.ctmc.stationary.stationary_distribution` — GTH
  elimination / power iteration;
* :class:`~repro.ctmc.birth_death.BirthDeathProcess` — closed-form
  birth–death chains (the group partition/merge ``NG`` model).
"""

from .absorbing import AbsorbingSolution, analyze_absorbing
from .acyclic import (
    BatchDagStructure,
    DagStructure,
    batch_dag_structure,
    solve_dag,
    solve_dag_batch,
    topological_levels,
)
from .birth_death import BirthDeathProcess
from .chain import CTMC
from .linear import solve_linear_system
from .poisson import poisson_weights
from .stationary import stationary_distribution
from .transient import (
    BATCH_EQUIVALENCE_RTOL,
    absorption_cdf,
    absorption_cdf_batch,
    transient_distribution,
    transient_distribution_batch,
)

__all__ = [
    "CTMC",
    "AbsorbingSolution",
    "analyze_absorbing",
    "DagStructure",
    "BatchDagStructure",
    "topological_levels",
    "batch_dag_structure",
    "solve_dag",
    "solve_dag_batch",
    "solve_linear_system",
    "poisson_weights",
    "transient_distribution",
    "absorption_cdf",
    "transient_distribution_batch",
    "absorption_cdf_batch",
    "BATCH_EQUIVALENCE_RTOL",
    "stationary_distribution",
    "BirthDeathProcess",
]
