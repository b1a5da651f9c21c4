"""Experiment harness: the paper's figures and the extension ablations.

The registry in :mod:`repro.analysis.experiments` maps experiment ids
(``fig2`` … ``fig5``, ``abl-*``, ``val-sim``, ``scale``) to runnable
definitions; each produces :class:`~repro.analysis.figures.DataSeries`
tables that are rendered as aligned text and written as CSV/JSON
artifacts. Every model evaluation goes through the experiment config's
:class:`~repro.engine.batch.BatchRunner`; ad-hoc grids are
:class:`~repro.engine.jobs.SweepJob` and
:class:`~repro.engine.jobs.SurvivabilitySweep` specs run on one. Three
ways to run an experiment:

* ``python -m repro.cli run fig2``
* ``pytest benchmarks/bench_fig2_mttsf_vs_m.py --benchmark-only``
* ``repro.analysis.experiments.run("fig2")``
"""

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    get_experiment,
    list_experiments,
    run,
)
from .figures import DataSeries
from .io import write_experiment_artifacts
from .tables import render_table

__all__ = [
    "DataSeries",
    "render_table",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "run",
    "write_experiment_artifacts",
]
