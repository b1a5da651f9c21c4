"""Sparse finite-state CTMC container.

A :class:`CTMC` stores the off-diagonal transition *rate* matrix ``R``
(CSR, ``R[i, j]`` = rate of jumping from state ``i`` to state ``j``).
The generator is ``Q = R - diag(R @ 1)``. States with zero total exit
rate are *absorbing*.

States are integers ``0..n-1``; an optional ``labels`` sequence attaches
arbitrary hashable labels (e.g. SPN markings) to states for reporting.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from ..errors import ModelError, ParameterError, SolverError

__all__ = ["CTMC"]

TransitionTriple = Tuple[int, int, float]


class CTMC:
    """A finite-state continuous-time Markov chain.

    Parameters
    ----------
    rates:
        ``(n, n)`` scipy sparse matrix (any format) of non-negative
        off-diagonal transition rates. Diagonal entries are ignored
        (self-loops have no meaning in a CTMC and are dropped).
    labels:
        Optional sequence of ``n`` hashable state labels.

    Notes
    -----
    The matrix is canonicalised to CSR with duplicate entries summed and
    explicit zeros pruned, so ``nnz`` equals the number of distinct
    positive-rate transitions.
    """

    def __init__(
        self,
        rates: sp.spmatrix,
        labels: Optional[Sequence[Hashable]] = None,
    ) -> None:
        if not sp.issparse(rates):
            rates = sp.csr_matrix(np.asarray(rates, dtype=float))
        if rates.shape[0] != rates.shape[1]:
            raise ModelError(f"rate matrix must be square, got shape {rates.shape}")
        n = rates.shape[0]
        if n == 0:
            raise ModelError("CTMC must have at least one state")

        R = rates.tocsr().astype(float, copy=True)
        R.sum_duplicates()
        # Drop self-loops: they do not affect CTMC dynamics.
        R.setdiag(0.0)
        R.eliminate_zeros()
        if R.nnz and R.data.min() < 0.0:
            raise ModelError("transition rates must be non-negative")
        if R.nnz and not np.all(np.isfinite(R.data)):
            raise ModelError("transition rates must be finite")

        self._R: sp.csr_matrix = R
        self._out: np.ndarray = np.asarray(R.sum(axis=1)).ravel()
        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise ModelError(f"labels has length {len(labels)}, expected {n}")
        self._labels: Optional[list[Hashable]] = labels

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_transitions(
        cls,
        num_states: int,
        transitions: Iterable[TransitionTriple],
        labels: Optional[Sequence[Hashable]] = None,
    ) -> "CTMC":
        """Build a chain from ``(src, dst, rate)`` triples.

        Zero-rate triples are accepted and dropped; duplicate ``(src,
        dst)`` pairs are summed.
        """
        if num_states < 1:
            raise ModelError(f"num_states must be >= 1, got {num_states}")
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for src, dst, rate in transitions:
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise ModelError(
                    f"transition ({src} -> {dst}) out of range for {num_states} states"
                )
            rate = float(rate)
            if not np.isfinite(rate):
                raise ModelError(
                    f"non-finite rate {rate} on transition ({src} -> {dst})"
                )
            if rate < 0.0:
                raise ModelError(
                    f"negative rate {rate} on transition ({src} -> {dst})"
                )
            if rate > 0.0 and src != dst:
                rows.append(src)
                cols.append(dst)
                vals.append(rate)
        R = sp.csr_matrix(
            (np.asarray(vals, dtype=float), (np.asarray(rows), np.asarray(cols))),
            shape=(num_states, num_states),
        )
        return cls(R, labels=labels)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states ``n``."""
        return self._R.shape[0]

    @property
    def rates(self) -> sp.csr_matrix:
        """Off-diagonal rate matrix ``R`` (CSR; do not mutate)."""
        return self._R

    @property
    def out_rates(self) -> np.ndarray:
        """Total exit rate per state, ``q_i = Σ_j R[i, j]``."""
        return self._out

    @property
    def labels(self) -> Optional[list[Hashable]]:
        """State labels, if attached."""
        return self._labels

    @property
    def absorbing_mask(self) -> np.ndarray:
        """Boolean mask of absorbing states (zero exit rate)."""
        return self._out == 0.0

    @property
    def absorbing_states(self) -> np.ndarray:
        """Indices of absorbing states."""
        return np.flatnonzero(self.absorbing_mask)

    @property
    def transient_states(self) -> np.ndarray:
        """Indices of non-absorbing states."""
        return np.flatnonzero(~self.absorbing_mask)

    @property
    def num_transitions(self) -> int:
        """Number of distinct positive-rate transitions."""
        return self._R.nnz

    def generator(self) -> sp.csr_matrix:
        """Infinitesimal generator ``Q = R - diag(q)`` (new matrix)."""
        Q = self._R.tolil(copy=True)
        Q.setdiag(-self._out)
        return Q.tocsr()

    def uniformization_rate(self) -> float:
        """A valid uniformization constant ``Λ ≥ max_i q_i`` (strictly
        positive even for an all-absorbing chain, so ``P`` is defined)."""
        qmax = float(self._out.max()) if self.num_states else 0.0
        return qmax if qmax > 0.0 else 1.0

    def uniformized_dtmc(self, rate: Optional[float] = None) -> sp.csr_matrix:
        """Uniformized jump matrix ``P = I + Q/Λ`` (row-stochastic)."""
        lam = self.uniformization_rate() if rate is None else float(rate)
        if lam < self._out.max() or lam <= 0.0:
            raise ParameterError(
                f"uniformization rate {lam} must be positive and >= max exit rate {self._out.max()}"
            )
        P = (self._R / lam).tolil()
        P.setdiag(1.0 - self._out / lam)
        return P.tocsr()

    # ------------------------------------------------------------------
    # Reachability helpers
    # ------------------------------------------------------------------
    def reachable_from(self, initial: Union[int, Sequence[int]]) -> np.ndarray:
        """Indices of states reachable from ``initial`` (inclusive)."""
        return np.flatnonzero(_reached(self._R.indptr, self._R.indices, initial))

    def can_reach(self, targets: Sequence[int]) -> np.ndarray:
        """Boolean mask of states from which some state in ``targets``
        is reachable (following transition direction)."""
        # Walk the reversed graph: the CSC arrays are the transpose's CSR.
        reverse = self._R.tocsc()
        return _reached(reverse.indptr, reverse.indices, targets)

    def subchain(self, states: Sequence[int]) -> Tuple["CTMC", np.ndarray]:
        """Restrict the chain to ``states``.

        Returns the restricted chain and the array of original indices
        (so ``original_index = mapping[new_index]``). Transitions leaving
        the retained set are dropped, which turns their sources into
        states with reduced exit rate — callers must ensure the retained
        set is closed under reachability when that matters (e.g.
        :func:`repro.ctmc.absorbing.analyze_absorbing` restricts to the
        reachable set, which is closed by construction).
        """
        idx = np.unique(np.asarray(states, dtype=int))
        if idx.size == 0:
            raise ParameterError("subchain requires at least one state")
        if idx.min() < 0 or idx.max() >= self.num_states:
            raise ParameterError("subchain state indices out of range")
        sub = self._R[idx][:, idx]
        labels = [self._labels[i] for i in idx] if self._labels is not None else None
        return CTMC(sub, labels=labels), idx

    def validate_initial_distribution(
        self, initial: Union[int, np.ndarray]
    ) -> np.ndarray:
        """Coerce ``initial`` (state index or probability vector) into a
        validated probability vector of length ``n``."""
        if isinstance(initial, (int, np.integer)) and not isinstance(initial, bool):
            if not 0 <= int(initial) < self.num_states:
                raise ParameterError(f"initial state {initial} out of range")
            dist = np.zeros(self.num_states)
            dist[int(initial)] = 1.0
            return dist
        dist = np.asarray(initial, dtype=float)
        if dist.shape != (self.num_states,):
            raise ParameterError(
                f"initial distribution has shape {dist.shape}, expected ({self.num_states},)"
            )
        if np.any(dist < -1e-12) or not np.isclose(dist.sum(), 1.0, atol=1e-9):
            raise ParameterError(
                "initial distribution must be non-negative and sum to 1"
            )
        return np.clip(dist, 0.0, None) / dist.sum()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CTMC(n={self.num_states}, transitions={self.num_transitions}, "
            f"absorbing={int(self.absorbing_mask.sum())})"
        )


def _reached(
    indptr: np.ndarray, indices: np.ndarray, seeds: Union[int, Sequence[int]]
) -> np.ndarray:
    """Mask of the states a walk along a CSR pattern reaches from ``seeds``.

    ``indptr``/``indices`` list each state's neighbours (a CSR pattern
    for successors, a CSC one for predecessors). One breadth-first
    search runs from a virtual source ``n`` joined to every seed.
    """
    n = indptr.size - 1
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    bad = seeds[(seeds < 0) | (seeds >= n)]
    if bad.size:
        raise ParameterError(f"state {int(bad[0])} out of range for {n} states")
    indices = np.concatenate([indices, seeds])
    indptr = np.append(indptr, indices.size)
    graph = sp.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n + 1, n + 1)
    )
    order = breadth_first_order(graph, n, directed=True, return_predecessors=False)
    reached = np.zeros(n + 1, dtype=bool)
    reached[order] = True
    return reached[:n]


# ---------------------------------------------------------------------------
# Shared-pattern input checks of the batched solvers
# ---------------------------------------------------------------------------

def _validate_pattern(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Coerce a shared CSR pattern to ``int64`` and return ``(indptr, indices, n)``.

    Raises :class:`~repro.errors.SolverError` for an empty or
    inconsistent ``indptr`` and for column indices outside ``[0, n)``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = indptr.size - 1
    if n < 1 or indptr[0] != 0 or indptr[-1] != indices.size:
        raise SolverError("malformed CSR pattern")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise SolverError("CSR column indices out of range")
    return indptr, indices, n


def _validate_rates(
    values: np.ndarray, shape: tuple[Optional[int], Optional[int]]
) -> np.ndarray:
    """Coerce a 2-D rate array to float and check it.

    ``shape`` is the expected shape with ``None`` for the free point
    count ``P``: ``(None, nnz)`` for point-major fills, ``(nnz + 1,
    None)`` for the DAG sweep's slot-major rates. A shape mismatch is a
    :class:`~repro.errors.SolverError`; NaN, infinite or negative rates
    are a :class:`~repro.errors.ParameterError`.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or any(
        want is not None and got != want for got, want in zip(values.shape, shape)
    ):
        expected = tuple("P" if want is None else want for want in shape)
        raise SolverError(
            f"values must have shape ({expected[0]}, {expected[1]}), "
            f"got {values.shape}"
        )
    # NaN and every negative fail the min test, +inf the max test.
    if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
        raise ParameterError("transition rates must be finite and non-negative")
    return values
