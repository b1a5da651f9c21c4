"""Exact absorbing-chain analysis for acyclic (DAG) CTMCs.

The security chain of the GCS model is a DAG: every transition strictly
decreases the marking in a lexicographic order (DESIGN.md §3.1), so the
linear system

.. math:: (\\operatorname{diag}(q) - R)\\,x = b

is — after a topological permutation — upper triangular and solvable by a
single backward sweep. We implement the sweep with *level scheduling*:
states are grouped by longest-path distance to an absorbing state, and
each level is processed with one vectorised sparse row-slice matvec, so
the whole solve is ``O(nnz)`` with only ``O(depth)`` Python-level
iterations (a few hundred for the N=100 model).

The boundary-value formulation used throughout: for absorbing states the
solution value is *prescribed* (0 for hitting times, 1/0 for absorption
indicator probabilities), and for transient states

.. math:: x_s = \\frac{b_s + \\sum_j R_{sj}\\,x_j}{q_s}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SolverError
from ..obs import metrics, span
from .chain import CTMC, _validate_pattern, _validate_rates

__all__ = [
    "DagStructure",
    "topological_levels",
    "solve_dag",
    "BatchDagStructure",
    "batch_dag_structure",
    "solve_dag_batch",
]


@dataclass(frozen=True)
class DagStructure:
    """Topological level assignment of a DAG chain.

    ``levels[i]`` is the longest-path distance (in transitions) from
    state ``i`` to an absorbing state; absorbing states have level 0.
    ``level_states[L]`` lists the states at level ``L``.
    """

    levels: np.ndarray
    level_states: list[np.ndarray]

    @property
    def depth(self) -> int:
        """Number of levels (1 for an all-absorbing chain)."""
        return len(self.level_states)


def topological_levels(chain: CTMC) -> Optional[DagStructure]:
    """Compute topological levels of ``chain``, or ``None`` if cyclic.

    Kahn's algorithm on out-degrees: states whose successors are all
    finalised are peeled off level by level. If a cycle exists some
    states are never peeled and ``None`` is returned (callers fall back
    to the general linear solver).
    """
    R = chain.rates
    n = chain.num_states
    remaining = np.diff(R.indptr).astype(np.int64)  # out-degree per state
    levels = np.zeros(n, dtype=np.int64)
    Rcsc = R.tocsc()
    pred_indptr, pred_indices = Rcsc.indptr, Rcsc.indices

    ready = [int(s) for s in np.flatnonzero(remaining == 0)]
    processed = 0
    # Longest-path levels: a predecessor's level is 1 + max over successors.
    while ready:
        v = ready.pop()
        processed += 1
        lv = levels[v] + 1
        for u in pred_indices[pred_indptr[v] : pred_indptr[v + 1]]:
            if levels[u] < lv:
                levels[u] = lv
            remaining[u] -= 1
            if remaining[u] == 0:
                ready.append(int(u))
    if processed != n:
        return None

    depth = int(levels.max()) + 1 if n else 0
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    boundaries = np.searchsorted(sorted_levels, np.arange(depth + 1))
    level_states = [order[boundaries[L] : boundaries[L + 1]] for L in range(depth)]
    return DagStructure(levels=levels, level_states=level_states)


def solve_dag(
    chain: CTMC,
    structure: DagStructure,
    numerators: np.ndarray,
    boundary: np.ndarray,
) -> np.ndarray:
    """Solve the boundary-value recurrence on a DAG chain.

    Parameters
    ----------
    chain:
        The chain (must be the one ``structure`` was computed from).
    structure:
        Output of :func:`topological_levels`.
    numerators:
        ``(n,)`` or ``(n, k)`` array ``b`` of per-state numerators
        (reward rates); values at absorbing states are ignored.
    boundary:
        ``(n,)`` or ``(n, k)`` array of prescribed values at absorbing
        states; values at transient states are ignored.

    Returns
    -------
    ``(n,)`` or ``(n, k)`` array ``x`` with ``x = boundary`` on absorbing
    states and ``x_s = (b_s + Σ_j R_sj x_j) / q_s`` on transient states.
    """
    R = chain.rates
    q = chain.out_rates
    n = chain.num_states

    b = np.asarray(numerators, dtype=float)
    g = np.asarray(boundary, dtype=float)
    squeeze = b.ndim == 1
    if b.ndim == 1:
        b = b[:, None]
    if g.ndim == 1:
        g = g[:, None]
    if b.shape[0] != n or g.shape[0] != n:
        raise SolverError(
            f"numerators/boundary first dimension must be {n}, got {b.shape[0]}/{g.shape[0]}"
        )
    if g.shape[1] != b.shape[1]:
        raise SolverError("numerators and boundary must have matching column counts")

    x = np.zeros_like(b)
    absorbing = chain.absorbing_mask
    x[absorbing] = g[absorbing]

    # Level 0 is exactly the absorbing set (out-degree zero ⇒ q == 0).
    for rows in structure.level_states[1:]:
        contrib = R[rows, :] @ x  # successors are all in lower levels: final
        x[rows] = (b[rows] + contrib) / q[rows, None]

    return x[:, 0] if squeeze else x


# ---------------------------------------------------------------------------
# Structure-sharing multi-point solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchDagStructure:
    """Shared sparsity pattern + level schedule for many rate fills.

    A whole parameter sweep shares one transition *pattern* — only the
    rate values differ per grid point — so the topological schedule and
    the gather plan are computed once and reused by every
    :func:`solve_dag_batch` call. The pattern is stored twice:

    * canonical CSR (``indptr``/``indices``, columns sorted within each
      row) — the shape rate fills scatter into;
    * padded ELL in level order (``lvl_ell_slots``/``lvl_ell_cols``,
      one fixed-width row per state, real slots first in CSR order,
      pads after) — the plan the backward sweep gathers by. The rows
      are permuted into level order, so level ``L``'s rows are the
      contiguous slice ``lvl_row_bounds[L]:lvl_row_bounds[L + 1]``,
      and pad entries point at the sentinel slot ``nnz``: the sweep
      gathers each level's values from a slot-major value copy with a
      zero row appended, so pads read exact ``0.0``. Keeping the real
      slots in CSR order makes the batched per-row accumulation run in
      exactly the sequence scipy's CSR matvec uses, which is what makes
      the batched solve *bit-identical* to the per-point one (trailing
      ``+ 0.0`` pads cannot perturb an IEEE sum of finite non-negative
      terms).

    The level schedule is computed on the pattern alone. Any per-point
    pattern is a subset (rates may evaluate to zero), and removing
    edges only ever relaxes scheduling constraints, so the shared
    schedule stays valid for every point; per-point *rate-absorbing*
    states (all-zero rows) are handled by the boundary short-circuit in
    :func:`solve_dag_batch`.
    """

    indptr: np.ndarray
    indices: np.ndarray
    #: Row index of every CSR slot (``nnz``-long, non-decreasing).
    slot_rows: np.ndarray
    structure: DagStructure
    width: int
    lvl_row_bounds: np.ndarray
    lvl_ell_slots: np.ndarray
    lvl_ell_cols: np.ndarray

    @property
    def num_states(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.indices.size


def batch_dag_structure(
    indptr: np.ndarray, indices: np.ndarray
) -> BatchDagStructure:
    """Build the shared schedule for a CSR sparsity pattern.

    ``indptr``/``indices`` must be canonical CSR (columns ascending
    within each row, no duplicates). Raises
    :class:`~repro.errors.SolverError` when the pattern is malformed
    (inconsistent ``indptr``, column indices outside ``[0, n)``) or has
    a cycle.
    """
    indptr, indices, n = _validate_pattern(indptr, indices)
    nnz = indices.size

    deg = np.diff(indptr)
    width = int(deg.max()) if n else 0
    rows_of_slot = np.repeat(np.arange(n, dtype=np.int64), deg)
    pos_in_row = np.arange(nnz, dtype=np.int64) - np.repeat(indptr[:-1], deg)

    # Padded ELL in state order; pads point at the sentinel slot nnz.
    ell_slots = np.full((n, max(width, 1)), nnz, dtype=np.int64)
    ell_cols = np.zeros((n, max(width, 1)), dtype=np.int64)
    ell_slots[rows_of_slot, pos_in_row] = np.arange(nnz, dtype=np.int64)
    ell_cols[rows_of_slot, pos_in_row] = indices

    # Predecessor lists (CSC view of the pattern) for the level sweep.
    order = np.argsort(indices, kind="stable")
    pred_rows = rows_of_slot[order]
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=pred_indptr[1:])

    # Level-synchronous Kahn: wave L processes exactly the states whose
    # longest path to an out-degree-zero state is L, so levels fall out
    # of the wave index; everything per wave is array arithmetic.
    remaining = deg.copy()
    levels = np.zeros(n, dtype=np.int64)
    current = np.flatnonzero(remaining == 0)
    processed = current.size
    level = 0
    while True:
        starts = pred_indptr[current]
        lens = pred_indptr[current + 1] - starts
        total = int(lens.sum())
        if total == 0:
            break
        # Ragged gather of every predecessor slot of the current wave.
        offsets = np.repeat(np.cumsum(lens) - lens, lens)
        flat = np.repeat(starts, lens) + (np.arange(total) - offsets)
        preds = pred_rows[flat]
        level += 1
        levels[preds] = level
        remaining -= np.bincount(preds, minlength=n)
        candidates = np.unique(preds)
        current = candidates[remaining[candidates] == 0]
        processed += current.size
    if processed != n:
        raise SolverError("pattern is cyclic; batched DAG solve not applicable")

    depth = int(levels.max()) + 1 if n else 0
    order_l = np.argsort(levels, kind="stable")
    sorted_levels = levels[order_l]
    boundaries = np.searchsorted(sorted_levels, np.arange(depth + 1))
    level_states = [order_l[boundaries[L] : boundaries[L + 1]] for L in range(depth)]

    return BatchDagStructure(
        indptr=indptr,
        indices=indices,
        slot_rows=rows_of_slot,
        structure=DagStructure(levels=levels, level_states=level_states),
        width=width,
        lvl_row_bounds=boundaries,
        lvl_ell_slots=ell_slots[order_l],
        lvl_ell_cols=ell_cols[order_l],
    )


def _row_sums(shared: BatchDagStructure, values: np.ndarray) -> np.ndarray:
    """Per-point out-rates, bit-identical to scipy's on the pruned chain.

    scipy's CSR ``sum(axis=1)`` reduces each row's data with
    ``np.add.reduceat`` — *pairwise* grouping over exactly the stored
    (nonzero) entries — while its matvec accumulates sequentially. The
    backward sweep must therefore compute ``q`` with the same reduceat
    over the same element multiset: one reduceat over the shared
    pattern for every point, then, for each point, a reduceat over the
    nonzero slots of just the rows where that point stores an explicit
    zero (an inserted ``0.0`` changes the pairwise grouping, unlike in a
    sequential sum). All affected ``(point, row)`` pairs are re-summed
    in one ragged gather and one reduceat.
    """
    P, n = values.shape[0], shared.num_states
    q = np.zeros((P, n))
    if shared.nnz == 0:
        return q
    deg = np.diff(shared.indptr)
    nonempty = deg > 0
    q[:, nonempty] = np.add.reduceat(values, shared.indptr[:-1][nonempty], axis=1)
    zeros = np.flatnonzero(values == 0.0)  # p * nnz + slot
    if zeros.size == 0:
        return q
    zero_points, zero_slots = np.divmod(zeros, shared.nnz)
    pairs = np.unique(zero_points * n + shared.slot_rows[zero_slots])
    points, rows = np.divmod(pairs, n)
    # Ragged gather of every slot of the affected rows, point by point.
    lens = deg[rows]
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    slots = np.repeat(shared.indptr[rows], lens) + (np.arange(lens.sum()) - offsets)
    gathered = values[np.repeat(points, lens), slots]
    keep = gathered != 0.0
    kept_lens = np.bincount(
        np.repeat(np.arange(pairs.size), lens)[keep], minlength=pairs.size
    )
    sums = np.zeros(pairs.size)
    stored = kept_lens > 0  # an all-zero row sums to exactly 0.0
    if stored.any():
        starts = (np.cumsum(kept_lens) - kept_lens)[stored]
        sums[stored] = np.add.reduceat(gathered[keep], starts)
    q[points, rows] = sums
    return q


def solve_dag_batch(
    shared: BatchDagStructure,
    values: np.ndarray,
    numerators: np.ndarray,
    boundary: np.ndarray,
) -> np.ndarray:
    """Solve the boundary-value recurrence for ``P`` rate fills at once.

    Parameters
    ----------
    shared:
        Output of :func:`batch_dag_structure` for the common pattern.
    values:
        ``(P, nnz)`` finite, non-negative transition rates, one row per
        grid point, aligned with the pattern's CSR slots. Explicit zeros
        are allowed (they contribute exact ``+0.0`` terms).
    numerators:
        ``(n, P, k)`` per-state numerators ``b``; ignored wherever a
        point's state is absorbing (zero out-rate *for that point*).
    boundary:
        ``(n, k)`` (shared) or ``(n, P, k)`` prescribed values at
        absorbing states; ignored at transient states.

    Returns
    -------
    ``(n, P, k)`` array ``x`` with, per point ``p``, ``x[:, p] =
    boundary`` on that point's absorbing states and ``x_s = (b_s +
    Σ_j R_sj x_j) / q_s`` on its transient states — bit-identical to
    running :func:`solve_dag` per point on the per-point (zero-pruned)
    chain.

    The sweep is state-major: row ``x[s]`` holds every point's ``k``
    columns contiguously, so gathering a successor's values for all
    points is one ``P·k`` block. It makes one slot-major copy of the
    rates with a zero sentinel row (pads read exact ``0.0``), and each
    level gathers only its own ``(rows, width, P)`` values from it.
    ``contrib`` accumulates strictly in CSR slot order starting from
    the first term — the sequential order of scipy's CSR matvec in
    per-point :func:`solve_dag` (``0.0 + t₀ == t₀`` for the
    non-negative products of a rate fill). When every point's absorbing
    set is exactly the structural one (no explicit all-zero rows — the
    common case for real rate fills), the boundary is scattered once
    and the per-level absorbing re-masking is skipped, since levels
    ≥ 1 are then non-absorbing for every point.

    Raises :class:`~repro.errors.SolverError` on shape mismatches and
    :class:`~repro.errors.ParameterError` on NaN, infinite or negative
    rates.
    """
    values = _validate_rates(values, shared.nnz)
    numerators = np.asarray(numerators, dtype=float)
    boundary = np.asarray(boundary, dtype=float)
    P = values.shape[0]
    n = shared.num_states
    if numerators.ndim != 3 or numerators.shape[:2] != (n, P):
        raise SolverError(
            f"numerators must have shape ({n}, {P}, k), got {numerators.shape}"
        )
    k = numerators.shape[2]
    if boundary.shape == (n, k):
        boundary = np.broadcast_to(boundary[:, None, :], (n, P, k))
    elif boundary.shape != (n, P, k):
        raise SolverError(
            f"boundary must have shape ({n}, {k}) or ({n}, {P}, {k}), "
            f"got {boundary.shape}"
        )
    levels = len(shared.structure.level_states)
    with span("solve_dag_batch", points=P, states=n, levels=levels):
        q = np.ascontiguousarray(_row_sums(shared, values).T)  # (n, P)
        absorbing = q == 0.0
        struct_abs = shared.structure.levels == 0
        uniform = bool(
            np.array_equal(absorbing, np.broadcast_to(struct_abs[:, None], (n, P)))
        )
        if uniform:
            x = np.zeros((n, P, k))
            idx = np.flatnonzero(struct_abs)
            x[idx] = boundary[idx]
            safe_q = q  # levels >= 1 are non-absorbing for every point
        else:
            x = np.where(absorbing[:, :, None], boundary, 0.0)
            safe_q = np.where(absorbing, 1.0, q)

        # Slot-major values; the sentinel row nnz holds the 0.0 pads.
        vals_t = np.zeros((shared.nnz + 1, P))
        vals_t[:-1] = values.T

        bounds = shared.lvl_row_bounds
        for L, rows in enumerate(shared.structure.level_states[1:], start=1):
            a, b = bounds[L], bounds[L + 1]
            ev = vals_t[shared.lvl_ell_slots[a:b]][..., None]  # (rows, width, P, 1)
            cols = shared.lvl_ell_cols[a:b]
            contrib = ev[:, 0] * x[cols[:, 0]]
            for j in range(1, shared.width):
                term = x[cols[:, j]]
                term *= ev[:, j]
                contrib += term
            # In place: IEEE + and × commute, so this is (b + Σ) / q.
            contrib += numerators[rows]
            contrib /= safe_q[rows, :, None]
            if uniform:
                x[rows] = contrib
            else:
                x[rows] = np.where(absorbing[rows, :, None], x[rows], contrib)
    registry = metrics()
    registry.counter("solver.dag_batch_solves").add()
    registry.counter("solver.dag_points_solved").add(P)
    registry.counter("solver.dag_level_sweeps").add(levels)
    return x
