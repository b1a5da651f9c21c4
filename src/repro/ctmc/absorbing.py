"""Absorbing-chain analysis: MTTA, absorption classes, accumulated rewards.

This module hosts :func:`analyze_absorbing`, the single entry point used
by the GCS model to obtain

* **MTTSF** — mean time to absorption from the initial marking,
* **failure-mode split** — probability of absorbing into each failure
  class (paper conditions C1 / C2, plus the depletion corner case),
* **Ĉtotal numerator** — expected accumulated reward until absorption
  for any number of per-state reward-rate vectors,

all from one factorisation/sweep. The solver is chosen automatically:
an exact O(nnz) topological sweep when the chain is acyclic (the default
GCS security model — see DESIGN.md §3.1), sparse LU otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import NotAbsorbingError, ParameterError, SolverError
from .acyclic import solve_dag, topological_levels
from .chain import CTMC
from .linear import solve_linear_system

__all__ = ["AbsorbingSolution", "analyze_absorbing"]


@dataclass(frozen=True)
class AbsorbingSolution:
    """Result bundle of :func:`analyze_absorbing`.

    All per-state arrays are indexed by the *original* chain's state
    numbering (states that were unreachable from the initial
    distribution hold ``NaN``).
    """

    #: Solver actually used: ``"acyclic"`` or ``"linear"``.
    method: str
    #: Initial distribution the scalar summaries integrate over.
    initial_distribution: np.ndarray
    #: Per-state expected time to absorption ``τ_s``.
    tau: np.ndarray
    #: Per-state expected accumulated reward until absorption, by name.
    accumulated: Mapping[str, np.ndarray] = field(default_factory=dict)
    #: Per-state absorption probability into each named class.
    absorption: Mapping[str, np.ndarray] = field(default_factory=dict)
    #: Per-state second moment E[T²] of the absorption time (only when
    #: requested via ``second_moment=True``).
    tau_second_moment: Optional[np.ndarray] = None

    @property
    def mtta(self) -> float:
        """Mean time to absorption from the initial distribution."""
        return float(np.nansum(self.initial_distribution * self.tau))

    @property
    def mtta_variance(self) -> float:
        """Exact variance of the absorption time from the initial
        distribution (requires ``second_moment=True``).

        For a mixture over initial states, ``Var[T] = E[E[T²|s]] -
        (E[E[T|s]])²`` — the mixture's variance, not the mean of the
        per-state variances.
        """
        if self.tau_second_moment is None:
            raise ParameterError(
                "second moment not computed; pass second_moment=True to analyze_absorbing"
            )
        m2 = float(np.nansum(self.initial_distribution * self.tau_second_moment))
        return max(m2 - self.mtta**2, 0.0)

    @property
    def mtta_std(self) -> float:
        """Standard deviation of the absorption time."""
        return float(np.sqrt(self.mtta_variance))

    def expected_reward(self, name: str) -> float:
        """Expected accumulated reward ``name`` from the initial
        distribution."""
        if name not in self.accumulated:
            raise ParameterError(
                f"unknown reward {name!r}; have {sorted(self.accumulated)}"
            )
        return float(np.nansum(self.initial_distribution * self.accumulated[name]))

    def absorption_probability(self, name: str) -> float:
        """Probability of absorbing into class ``name`` from the initial
        distribution."""
        if name not in self.absorption:
            raise ParameterError(
                f"unknown absorption class {name!r}; "
                f"have {sorted(self.absorption)}"
            )
        return float(np.nansum(self.initial_distribution * self.absorption[name]))

    def lifetime_average(self, name: str) -> float:
        """Lifetime-averaged reward rate: accumulated / MTTA.

        This is exactly the paper's Ĉtotal construction (accumulated
        communication cost over the system lifetime divided by MTTSF).
        """
        mtta = self.mtta
        if mtta <= 0.0:
            raise SolverError("lifetime average undefined: MTTA is zero")
        return self.expected_reward(name) / mtta


def analyze_absorbing(
    chain: CTMC,
    *,
    initial: Union[int, np.ndarray] = 0,
    rewards: Optional[Mapping[str, np.ndarray]] = None,
    absorbing_classes: Optional[Mapping[str, Sequence[int]]] = None,
    method: str = "auto",
    second_moment: bool = False,
) -> AbsorbingSolution:
    """Analyze an absorbing CTMC.

    Parameters
    ----------
    chain:
        The chain. Absorption must be almost-sure from every state
        reachable from ``initial`` (checked; raises
        :class:`~repro.errors.NotAbsorbingError` otherwise).
    initial:
        Initial state index or probability vector.
    rewards:
        Named per-state reward *rates* (length ``n``). For each, the
        expected accumulated reward until absorption is computed.
    absorbing_classes:
        Named groups of absorbing state indices. Defaults to one class
        ``"absorbed"`` covering every absorbing state. Classes may
        overlap; they need not cover all absorbing states.
    method:
        ``"auto"`` (topological sweep when acyclic, else LU),
        ``"acyclic"`` (error when cyclic) or ``"linear"``.
    second_moment:
        Also compute the exact second moment of the absorption time via
        the recurrence ``M2_s = (2 τ_s + Σ_j R_sj M2_j) / q_s`` (one
        extra solve, since the numerator depends on the hitting times).
    """
    if method not in ("auto", "acyclic", "linear"):
        raise ParameterError(f"method must be auto|acyclic|linear, got {method!r}")
    init = chain.validate_initial_distribution(initial)
    rewards = dict(rewards or {})
    for name, vec in rewards.items():
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (chain.num_states,):
            raise ParameterError(
                f"reward {name!r} has shape {arr.shape}, expected ({chain.num_states},)"
            )
        rewards[name] = arr

    n = chain.num_states
    absorbing_idx = chain.absorbing_states
    if absorbing_idx.size == 0:
        raise NotAbsorbingError("chain has no absorbing states")

    if absorbing_classes is None:
        absorbing_classes = {"absorbed": absorbing_idx.tolist()}
    class_members: dict[str, np.ndarray] = {}
    for name, members in absorbing_classes.items():
        arr = np.unique(np.asarray(list(members), dtype=int))
        ok = (arr >= 0) & (arr < n) & chain.absorbing_mask[np.clip(arr, 0, n - 1)]
        if not ok.all():
            raise ParameterError(
                f"absorbing class {name!r} contains non-absorbing state "
                f"{int(arr[~ok][0])}"
            )
        class_members[name] = arr

    # --- restrict to the reachable set; verify almost-sure absorption ---
    reach = chain.reachable_from(np.flatnonzero(init > 0.0))
    sub, idx_map = chain.subchain(reach)
    can_absorb = (
        sub.can_reach(sub.absorbing_states) if sub.absorbing_states.size else None
    )
    if can_absorb is None or not np.all(can_absorb):
        raise NotAbsorbingError(
            "absorption is not almost-sure from the initial distribution"
        )

    # --- assemble the multi-column boundary-value problem ---
    # column 0: hitting time; then rewards; then absorption classes.
    reward_names = list(rewards)
    class_names = list(class_members)
    k = 1 + len(reward_names) + len(class_names)
    nn = sub.num_states
    numer = np.zeros((nn, k))
    bound = np.zeros((nn, k))

    transient_mask = ~sub.absorbing_mask
    numer[transient_mask, 0] = 1.0
    # Map original-index data onto the subchain.
    for c, name in enumerate(reward_names, start=1):
        numer[:, c] = rewards[name][idx_map]
        numer[~transient_mask, c] = 0.0
    sub_of = np.full(n, -1, dtype=np.int64)
    sub_of[idx_map] = np.arange(nn)
    for c, name in enumerate(class_names, start=1 + len(reward_names)):
        rows = sub_of[class_members[name]]
        bound[rows[rows >= 0], c] = 1.0

    # --- choose solver ---
    structure = None
    if method in ("auto", "acyclic"):
        structure = topological_levels(sub)
        if structure is None and method == "acyclic":
            raise SolverError("chain is cyclic; acyclic method not applicable")
    if structure is not None and method != "linear":
        x = solve_dag(sub, structure, numer, bound)
        used = "acyclic"
    else:
        x = solve_linear_system(sub, numer, bound)
        used = "linear"

    # --- optional second moment of the absorption time ---
    m2_sub: Optional[np.ndarray] = None
    if second_moment:
        m2_numer = np.where(transient_mask, 2.0 * x[:, 0], 0.0)
        m2_bound = np.zeros(nn)
        if used == "acyclic":
            m2_sub = solve_dag(sub, structure, m2_numer, m2_bound)
        else:
            m2_sub = solve_linear_system(sub, m2_numer, m2_bound)

    # --- scatter back to original indexing ---
    def expand(col: np.ndarray) -> np.ndarray:
        out = np.full(n, np.nan)
        out[idx_map] = col
        return out

    tau = expand(x[:, 0])
    accumulated = {
        name: expand(x[:, 1 + i]) for i, name in enumerate(reward_names)
    }
    absorption = {
        name: expand(x[:, 1 + len(reward_names) + i])
        for i, name in enumerate(class_names)
    }

    return AbsorbingSolution(
        method=used,
        initial_distribution=init,
        tau=tau,
        accumulated=accumulated,
        absorption=absorption,
        tau_second_moment=expand(m2_sub) if m2_sub is not None else None,
    )
