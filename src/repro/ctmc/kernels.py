"""Host probes for the benchmark's host record.

The batched solvers have one code path each (the fused level sweep in
:mod:`.acyclic` and the fused-assembly uniformization in
:mod:`.transient`). This module exists only because
``perfbench/run.py`` imports both functions and records their values
in every run's ``host`` line.
"""

from __future__ import annotations

import importlib.util

__all__ = ["numba_available", "resolve_kernel"]


def numba_available() -> bool:
    """Whether ``numba`` is installed (probed without importing it)."""
    return importlib.util.find_spec("numba") is not None


def resolve_kernel() -> str:
    """The batched solvers' kernel: always ``"fused"``."""
    return "fused"
