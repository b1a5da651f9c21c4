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


def _level_schedule(
    indptr: np.ndarray, indices: np.ndarray
) -> Optional[tuple[DagStructure, np.ndarray, np.ndarray]]:
    """Longest-path levels of a CSR pattern, or ``None`` if it has a cycle.

    Level-synchronous Kahn on out-degrees: wave ``L`` processes exactly
    the states whose longest path to an out-degree-zero state is ``L``,
    so levels fall out of the wave index; everything per wave is array
    arithmetic on the wave's predecessors, never on all ``n`` states. A
    cycle leaves some states unprocessed. Returns ``(structure, order,
    bounds)``: the states sorted stably by level, level ``L`` being
    ``order[bounds[L]:bounds[L + 1]]``.
    """
    n = indptr.size - 1
    deg = np.diff(indptr)
    rows_of_slot = np.repeat(np.arange(n, dtype=np.int64), deg)
    # Predecessor lists: the CSC view of the pattern.
    pred_rows = rows_of_slot[np.argsort(indices, kind="stable")]
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=pred_indptr[1:])

    remaining = deg.astype(np.int64)
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
        preds = pred_rows[np.repeat(starts, lens) + (np.arange(total) - offsets)]
        level += 1
        levels[preds] = level
        candidates, counts = np.unique(preds, return_counts=True)
        remaining[candidates] -= counts
        current = candidates[remaining[candidates] == 0]
        processed += current.size
    if processed != n:
        return None

    depth = int(levels.max()) + 1 if n else 0
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order], np.arange(depth + 1))
    level_states = [order[bounds[L] : bounds[L + 1]] for L in range(depth)]
    return DagStructure(levels=levels, level_states=level_states), order, bounds


def topological_levels(chain: CTMC) -> Optional[DagStructure]:
    """Compute topological levels of ``chain``, or ``None`` if cyclic.

    States whose successors are all finalised are peeled off level by
    level. If a cycle exists some states are never peeled and ``None``
    is returned (callers fall back to the general linear solver).
    """
    R = chain.rates
    schedule = _level_schedule(R.indptr, R.indices)
    return None if schedule is None else schedule[0]


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
      row) — the slot order rate fills are laid out in;
    * padded ELL in level order (``lvl_ell_slots``/``lvl_ell_cols``,
      one fixed-width row per state, real slots first in CSR order,
      pads after) — the plan the backward sweep gathers by. The rows
      are permuted into level order, so level ``L``'s rows are the
      contiguous slice ``lvl_row_bounds[L]:lvl_row_bounds[L + 1]``,
      and pad entries point at the sentinel slot ``nnz``: the sweep's
      slot-major rates carry a zero row there, so pads read exact
      ``0.0``. Keeping the real slots in CSR order makes the batched
      per-row accumulation run in exactly the sequence scipy's CSR
      matvec uses, which is what makes the batched solve
      *bit-identical* to the per-point one (trailing ``+ 0.0`` pads
      cannot perturb an IEEE sum of finite non-negative terms).

    The level schedule is computed on the pattern alone. Any per-point
    pattern is a subset (rates may evaluate to zero), and removing
    edges only ever relaxes scheduling constraints, so the shared
    schedule stays valid for every point; per-point *rate-absorbing*
    states (all-zero rows) take their boundary values in
    :func:`solve_dag_batch`.
    """

    indptr: np.ndarray
    indices: np.ndarray
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

    schedule = _level_schedule(indptr, indices)
    if schedule is None:
        raise SolverError("pattern is cyclic; batched DAG solve not applicable")
    structure, order, bounds = schedule

    return BatchDagStructure(
        indptr=indptr,
        indices=indices,
        structure=structure,
        width=width,
        lvl_row_bounds=bounds,
        lvl_ell_slots=ell_slots[order],
        lvl_ell_cols=ell_cols[order],
    )


#: Rows with at most this many slots sum sequentially: numpy's pairwise
#: sum adds up to 7 terms one by one, and a row's first entry goes on top.
_SEQUENTIAL_SLOTS = 8

#: Rates one gather fetches for a block of consecutive levels. Small
#: chunks gather many levels at once (all of N = 40 at P = 1), so a
#: level costs only the sweep's own arithmetic; at N = 100 and P = 54
#: a level alone exceeds it.
_GATHER_BLOCK_BYTES = 256 << 10


def _out_rates(ev: np.ndarray, slots: np.ndarray, nnz: int) -> np.ndarray:
    """Out-rates ``(rows, P)`` of ELL rows ``ev = values[slots]``.

    Bit-identical to scipy's on each point's zero-pruned chain: CSR
    ``sum(axis=1)`` is ``np.add.reduceat`` over a row's stored
    (nonzero) entries, i.e. the first entry plus numpy's pairwise sum
    of the rest, and that pairwise sum runs sequentially from ``0.0``
    below 8 terms. An explicit zero or a pad after the first entry
    then adds an exact ``+0.0``, so a row of at most 8 slots whose
    first slot is nonzero sums as ``e₀ + ((e₁ + e₂) + …)`` over the
    ELL row as stored. The other ``(row, point)`` pairs — a zero first
    slot (all-zero rows included), or a row of 9 or more slots (its
    ninth ELL entry is not the sentinel ``nnz``), where the pairwise
    grouping depends on which entries are stored — are re-summed over
    their nonzero entries with one ragged ``reduceat``.
    """
    rows, width, P = ev.shape
    rest = ev[:, 1].copy() if width > 1 else np.zeros((rows, P))
    for j in range(2, width):
        rest += ev[:, j]
    q = ev[:, 0] + rest
    exact = ev[:, 0] == 0.0
    if width > _SEQUENTIAL_SLOTS:
        exact |= (slots[:, _SEQUENTIAL_SLOTS] < nnz)[:, None]
    if exact.any():
        r, p = np.nonzero(exact)
        entries = ev[r, :, p]  # (pairs, width): slot order, then pads
        keep = entries != 0.0
        counts = keep.sum(axis=1)
        sums = np.zeros(r.size)
        stored = counts > 0  # an all-zero row sums to exactly 0.0
        if stored.any():
            starts = (np.cumsum(counts) - counts)[stored]
            sums[stored] = np.add.reduceat(entries[keep], starts)
        q[r, p] = sums
    return q


def _numerator_terms(
    numerators, n: int, P: int
) -> tuple[int, list[tuple[int, "float | np.ndarray"]]]:
    """Column count and the ``(column, term)`` pairs the sweep adds.

    ``numerators`` holds ``k`` columns, each an ``(n, P)`` array or a
    constant. Constant ``0.0`` columns are left out: they add nothing
    to a sum of non-negative terms.
    """
    terms: list[tuple[int, "float | np.ndarray"]] = []
    for c, entry in enumerate(numerators):
        if np.ndim(entry) == 0:
            if float(entry) != 0.0:
                terms.append((c, float(entry)))
            continue
        entry = np.asarray(entry, dtype=float)
        if entry.shape != (n, P):
            raise SolverError(
                f"numerators must be columns of shape ({n}, {P}) or "
                f"constants, got a column of shape {entry.shape}"
            )
        terms.append((c, entry))
    return len(numerators), terms


def solve_dag_batch(
    shared: BatchDagStructure,
    values: np.ndarray,
    numerators,
    boundary: np.ndarray,
) -> np.ndarray:
    """Solve the boundary-value recurrence for ``P`` rate fills at once.

    Parameters
    ----------
    shared:
        Output of :func:`batch_dag_structure` for the common pattern.
    values:
        ``(nnz + 1, P)`` slot-major rates: row ``s`` holds every
        point's rate of CSR slot ``s``, and the last row is the zero
        sentinel the ELL pads read. Rates must be finite and
        non-negative; explicit zeros are allowed (they contribute exact
        ``+0.0`` terms).
    numerators:
        Per-state numerators ``b`` as ``k`` columns (a sequence, or a
        ``(k, n, P)`` array), each an ``(n, P)`` array or a constant for
        every state and point (``0.0`` adds nothing). Ignored wherever
        a point's state is absorbing (zero out-rate *for that point*).
    boundary:
        ``(n, k)`` (shared) or ``(n, k, P)`` prescribed values at
        absorbing states; ignored at transient states.

    Returns
    -------
    ``(n, k, P)`` array ``x`` with, per point ``p``, ``x[:, :, p] =
    boundary`` on that point's absorbing states and ``x_s = (b_s +
    Σ_j R_sj x_j) / q_s`` on its transient states — bit-identical to
    running :func:`solve_dag` per point on the per-point (zero-pruned)
    chain.

    The sweep is point-innermost: row ``x[s]`` holds every column of
    every point contiguously, so gathering a successor's values for all
    points is one ``k·P`` block. Blocks of consecutive levels gather
    their own ``(rows, width, P)`` rates from ``values`` (about
    :data:`_GATHER_BLOCK_BYTES` at a time) and take the rows' out-rates
    from that same gather with scipy's pruned-row-sum semantics
    (:func:`_out_rates`). ``contrib`` accumulates strictly in CSR slot
    order starting from the first term — the sequential order of
    scipy's CSR matvec in per-point :func:`solve_dag` (``0.0 + t₀ ==
    t₀`` for the non-negative products of a rate fill). Where some
    point has an all-zero row, that point's boundary is written there.

    Raises :class:`~repro.errors.SolverError` on shape mismatches and a
    nonzero sentinel row, and :class:`~repro.errors.ParameterError` on
    NaN, infinite or negative rates.
    """
    nnz, n = shared.nnz, shared.num_states
    values = _validate_rates(values, (nnz + 1, None))
    if values[-1].any():
        raise SolverError(f"values' sentinel row {nnz} must be zero")
    P = values.shape[1]
    k, terms = _numerator_terms(numerators, n, P)
    boundary = np.asarray(boundary, dtype=float)
    if boundary.shape == (n, k):
        boundary = boundary[:, :, None]
    elif boundary.shape != (n, k, P):
        raise SolverError(
            f"boundary must have shape ({n}, {k}) or ({n}, {k}, {P}), "
            f"got {boundary.shape}"
        )
    level_states = shared.structure.level_states
    with span("solve_dag_batch", points=P, states=n, levels=len(level_states)):
        x = np.zeros((n, k, P))
        # Level 0 is exactly the structurally absorbing set.
        x[level_states[0]] = boundary[level_states[0]]

        bounds = shared.lvl_row_bounds
        row_bytes = 8 * shared.lvl_ell_slots.shape[1] * max(P, 1)
        block_rows = max(1, _GATHER_BLOCK_BYTES // row_bytes)
        first, depth = 1, len(level_states)
        while first < depth:
            # Levels first..end - 1: those within block_rows rows, at least one.
            start = bounds[first]
            end = max(
                first + 1,
                int(np.searchsorted(bounds, start + block_rows, side="right")) - 1,
            )
            slots = shared.lvl_ell_slots[start : bounds[end]]
            block = values[slots]  # (rows, width, P)
            block_q = _out_rates(block, slots, nnz)
            block_absorbing = block_q == 0.0
            some_absorbing = bool(block_absorbing.any())
            if some_absorbing:
                block_q[block_absorbing] = 1.0
            for L in range(first, end):
                a, b = bounds[L] - start, bounds[L + 1] - start
                rows = level_states[L]
                ev = block[a:b]
                cols = shared.lvl_ell_cols[bounds[L] : bounds[L + 1]]
                contrib = x[cols[:, 0]]
                contrib *= ev[:, None, 0]
                for j in range(1, shared.width):
                    term = x[cols[:, j]]
                    term *= ev[:, None, j]
                    contrib += term
                # In place: IEEE + and × commute, so this is (b + Σ) / q.
                for c, numer in terms:
                    contrib[:, c] += numer if isinstance(numer, float) else numer[rows]
                contrib /= block_q[a:b, None, :]
                if some_absorbing:
                    x[rows] = np.where(
                        block_absorbing[a:b, None, :], boundary[rows], contrib
                    )
                else:
                    x[rows] = contrib
            first = end
    registry = metrics()
    registry.counter("solver.dag_batch_solves").add()
    registry.counter("solver.dag_points_solved").add(P)
    registry.counter("solver.dag_level_sweeps").add(len(level_states))
    return x
