"""Transient CTMC analysis by uniformization.

``π(t) = Σ_k  Pois(k; Λt) · π(0) Pᵏ`` with ``P = I + Q/Λ`` the
uniformized jump chain. Used to obtain the *distribution* of the time to
security failure (not just its mean).

One algorithm, two entry layers:

* :func:`transient_distribution_batch` / :func:`absorption_cdf_batch` —
  ``P`` chains sharing one CSR sparsity pattern (the
  :class:`~repro.core.fastpath.LatticeStructure` sweep shape), solved
  with one power sequence ``π(0)Pᵏ`` shared by every requested time
  point. Per point the batch uses its *own* uniformization rate and
  truncated Poisson weights, and no step mixes points, so a point's
  result does not depend on its batch mates. A point whose fastest
  states are out of reach within the mission runs at the lowest rate of
  a ladder of cuts that a finite-state-projection certificate accepts;
* :func:`transient_distribution` / :func:`absorption_cdf` — one
  :class:`~repro.ctmc.chain.CTMC`: the ``P = 1`` call of the batched
  functions on the chain's own CSR pattern.

The algorithm is checked against independent references (closed forms,
a dense ``expm`` oracle, the full-lattice chain) within
:data:`BATCH_EQUIVALENCE_RTOL`.
"""

from __future__ import annotations

import logging
from typing import Mapping, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from ..errors import ParameterError, SolverError
from ..obs import metrics, span
from .chain import CTMC, _reached, _validate_pattern, _validate_rates
from .poisson import poisson_weights

log = logging.getLogger(__name__)

__all__ = [
    "BATCH_EQUIVALENCE_RTOL",
    "transient_distribution",
    "absorption_cdf",
    "transient_distribution_batch",
    "absorption_cdf_batch",
    "csr_row_sums",
]

#: Agreement bound between this module's uniformization and the
#: independent references it is checked against: the dense ``expm``
#: oracle, the full-lattice chain and stored reference curves. Tests
#: assert agreement to this relative tolerance (probabilities
#: additionally to ``atol=1e-12``). Every backend runs the same
#: uniformization, so backends agree with ``==``, not to this bound.
BATCH_EQUIVALENCE_RTOL = 1e-9

#: The shallowest cut: states whose out-rate exceeds a point's
#: uniformization rate over this factor (see
#: :func:`transient_distribution_batch`).
_STIFF_CUT = 10.0

#: Rung ``j`` of the cut ladder cuts above ``Λ_p / (_STIFF_CUT ·
#: _RUNG_RATIO**j)``, for ``j = _DEEPEST_RUNG … 0`` (deepest, Λ/160,
#: first).
_RUNG_RATIO = 2.0**0.5
_DEEPEST_RUNG = 8

#: Steps between the checks that abandon a doomed truncated sweep.
_DOOM_CHECK_STEPS = 8


def transient_distribution(
    chain: CTMC,
    times: Union[float, Sequence[float]],
    initial: Union[int, np.ndarray] = 0,
    *,
    eps: float = 1e-12,
) -> np.ndarray:
    """State probability vectors at the requested ``times``.

    Returns an array of shape ``(len(times), n)`` (or ``(n,)`` for a
    scalar ``times``). Exact to ``eps`` of Poisson tail plus a certified
    stiff-state sink mass of at most ``eps``. The one-point call of
    :func:`transient_distribution_batch` on the chain's own CSR pattern.
    """
    R = chain.rates
    return transient_distribution_batch(
        R.indptr, R.indices, R.data[None, :], times, initial, eps=eps
    )[0]


def absorption_cdf(
    chain: CTMC,
    times: Sequence[float],
    initial: Union[int, np.ndarray] = 0,
    *,
    classes: Optional[Mapping[str, Sequence[int]]] = None,
    eps: float = 1e-12,
) -> dict[str, np.ndarray]:
    """CDF of the absorption time, optionally split by absorbing class.

    ``result["any"][i]`` is the probability that the chain has been
    absorbed (into any absorbing state) by ``times[i]``; each named class
    gets the probability of sitting in *that* class by ``times[i]``
    (a defective CDF whose limit is the class absorption probability).
    The one-point call of :func:`absorption_cdf_batch`.
    """
    R = chain.rates
    cdf = absorption_cdf_batch(
        R.indptr, R.indices, R.data[None, :], times, initial, classes=classes, eps=eps
    )
    return {name: curve[0] for name, curve in cdf.items()}


# ---------------------------------------------------------------------------
# Structure-sharing batched uniformization
# ---------------------------------------------------------------------------

def _stacked_jump_matrix(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    q: np.ndarray,
    lam: np.ndarray,
):
    """Block-diagonal transposed uniformized jump matrix ``diag(P_pᵀ)``.

    One scipy CSR over all ``P`` points: block ``p`` holds
    ``P_p = I + Q_p/Λ_p`` transposed, so the whole power-sequence step
    ``v_p ← v_p P_p`` for every point is a *single* ``(P·n, P·n)``
    matrix–vector product on the stacked state vector — the CSR matvec
    kernel, not a Python-level gather/reduce chain, which is what makes
    the batched sweep fast at full lattice sizes.

    The canonical CSR layout of one transposed ``n × n`` block
    (off-diagonal slots + full diagonal) depends only on the shared
    pattern, so it is computed once — a lexsort of ``nnz + n`` entries —
    and every point's data row is one permuted gather of its
    ``[values/Λ_p, 1 − q/Λ_p]`` concatenation. The stacked index arrays
    are the block's, offset per point.
    """
    num_points, n = q.shape
    slot_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    diag = np.arange(n, dtype=np.int64)
    # Transposed block: off-diagonal entry (col j, row i) per slot.
    rows_all = np.concatenate([indices, diag])
    cols_all = np.concatenate([slot_rows, diag])
    perm = np.lexsort((cols_all, rows_all))
    block_indices = cols_all[perm]
    block_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_all, minlength=n), out=block_indptr[1:])
    data = np.concatenate([values / lam[:, None], 1.0 - q / lam[:, None]], axis=1)
    data = data[:, perm]

    block_nnz = block_indices.size
    size = num_points * n
    total_nnz = num_points * block_nnz
    idx_dtype = (
        np.int32 if max(size, total_nnz) <= np.iinfo(np.int32).max else np.int64
    )
    row_off = (np.arange(num_points, dtype=np.int64) * block_nnz)[:, None]
    stacked_indptr = np.empty(size + 1, dtype=idx_dtype)
    stacked_indptr[:-1] = (block_indptr[:-1][None, :] + row_off).ravel()
    stacked_indptr[-1] = total_nnz
    col_off = (np.arange(num_points, dtype=np.int64) * n)[:, None]
    stacked_indices = (block_indices[None, :] + col_off).ravel().astype(
        idx_dtype, copy=False
    )
    return sp.csr_matrix(
        (data.ravel(), stacked_indices, stacked_indptr), shape=(size, size)
    )


def csr_row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-point row sums of stacked CSR value arrays.

    ``values`` is ``(P, nnz)`` over the pattern described by ``indptr``;
    returns the ``(P, n)`` out-rates. Explicit zeros contribute nothing,
    so an all-zero row marks a state that is absorbing *for that point*.
    (The batched DAG solver keeps its own bit-identity-preserving
    variant in :mod:`repro.ctmc.acyclic`; this is the plain reduction
    shared by every eps-equivalence path.)
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    n = indptr.size - 1
    sums = np.zeros((values.shape[0], n))
    deg = np.diff(indptr)
    nonempty = deg > 0
    starts = indptr[:-1][nonempty]
    if values.shape[1] and starts.size:
        sums[:, nonempty] = np.add.reduceat(values, starts, axis=1)
    return sums


def _batch_initial(
    initial: Union[int, np.ndarray], num_points: int, n: int
) -> np.ndarray:
    """Coerce ``initial`` (index, ``(n,)`` or ``(P, n)``) to ``(P, n)``."""
    if isinstance(initial, (int, np.integer)) and not isinstance(initial, bool):
        if not 0 <= int(initial) < n:
            raise ParameterError(f"initial state {initial} out of range")
        pi0 = np.zeros((num_points, n))
        pi0[:, int(initial)] = 1.0
        return pi0
    dist = np.asarray(initial, dtype=float)
    if dist.shape == (n,):
        dist = np.broadcast_to(dist, (num_points, n))
    if dist.shape != (num_points, n):
        raise ParameterError(
            f"initial must be a state index, ({n},) or ({num_points}, {n}) "
            f"distribution(s), got shape {np.shape(initial)}"
        )
    sums = dist.sum(axis=1)
    if np.any(dist < -1e-12) or not np.allclose(sums, 1.0, atol=1e-9):
        raise ParameterError("initial distributions must be non-negative and sum to 1")
    return np.clip(dist, 0.0, None) / sums[:, None]


def _poisson_windows(
    lam: np.ndarray, ts: np.ndarray, eps: float
) -> tuple[list[tuple[int, int, np.ndarray]], np.ndarray]:
    """Per-time truncated Poisson windows ``(lo, hi, (P, window) block)``.

    Each point's weights are padded into one ``(P, hi − lo + 1)`` block
    per time, so a step accumulates with a single vectorised multiply
    per active time. Each distinct ``Λ_p·t`` is computed once. Also
    returns each point's last step with a weight, ``(P,)``.
    """
    num_points = lam.size
    poisson: dict[float, tuple[int, int, np.ndarray]] = {}
    windows: list[tuple[int, int, np.ndarray]] = []
    ends = np.zeros(num_points, dtype=np.int64)
    for t in ts:
        if t == 0.0:
            windows.append((0, 0, np.ones((num_points, 1))))
            continue
        lefts = np.empty(num_points, dtype=np.int64)
        rights = np.empty(num_points, dtype=np.int64)
        weights: list[np.ndarray] = []
        for p in range(num_points):
            mean = float(lam[p] * t)
            if mean not in poisson:
                poisson[mean] = poisson_weights(mean, eps)
            left, right, w = poisson[mean]
            lefts[p], rights[p] = left, right
            weights.append(w)
        lo, hi = int(lefts.min()), int(rights.max())
        block = np.zeros((num_points, hi - lo + 1))
        for p, w in enumerate(weights):
            block[p, lefts[p] - lo : rights[p] + 1 - lo] = w
        windows.append((lo, hi, block))
        np.maximum(ends, rights, out=ends)
    return windows, ends


def _sink_mass(
    v: np.ndarray, sinks_c: np.ndarray, states: np.ndarray, full: np.ndarray
) -> np.ndarray:
    """Each point's mass on its sinks, ``(P,)``.

    ``v`` holds the ``(P, m)`` masses of the full-space ``states`` and
    ``sinks_c`` their ``(P, m)`` sink mask; ``full`` is a ``(P, n)``
    full-space buffer that is zero outside ``states``. The sum runs
    over the full state space, so its rounding does not depend on which
    states a sweep carried (and thus not on a point's batch mates).
    """
    full[:, states] = v * sinks_c
    return full.sum(axis=1)


def _uniformize(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    q: np.ndarray,
    lam: np.ndarray,
    pi0: np.ndarray,
    ts: np.ndarray,
    eps: float,
    sinks: Optional[np.ndarray] = None,
    states: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One shared power sequence ``v_k = π(0)P_pᵏ`` for every point.

    Returns ``(dist_t, steps, live)``: the unnormalised Poisson mixtures
    ``Σ_k w_k(Λ_p t) v_k`` in time-major ``(T, len(live), n)`` layout
    (each per-time slice is contiguous, so the per-step weight
    accumulation writes unit-stride memory), the number of steps run
    and the points still in the sweep at its end. ``sinks`` is the
    ``(P, N)`` full-space mask of each point's cut states (sinks of the
    filled chain) and ``states`` the full-space index of each of the
    ``n`` states the pattern carries. The sink mass ``s_k`` never
    decreases with ``k``, so ``s_k · P(Pois(Λ_p t_max) ≥ k)`` is a
    lower bound on the final sink mass; a point whose bound exceeds
    ``eps`` is doomed and leaves the sweep, which stops once every point
    has left. Without ``sinks`` every point stays.
    """
    num_points, n = pi0.shape
    num_times = ts.size
    windows, ends = _poisson_windows(lam, ts, eps)
    los = np.array([lo for lo, _, _ in windows], dtype=np.int64)
    his = np.array([hi for _, hi, _ in windows], dtype=np.int64)
    k_max = int(ends.max())
    live = np.arange(num_points)

    # Every point advances by one stacked CSR matvec per step.
    jump_t = _stacked_jump_matrix(indptr, indices, values, q, lam)
    blocks_t = [np.ascontiguousarray(block.T) for _, _, block in windows]
    out_t = np.zeros((num_times, num_points, n))
    if sinks is not None:
        lo_last, hi_last, block_last = windows[int(np.argmax(ts))]
        # tails[p, k − lo_last] = Σ_{j ≥ k} w_j(Λ_p t_max)
        tails = np.cumsum(block_last[:, ::-1], axis=1)[:, ::-1]
        # The doom checks' buffers, made after the jump matrix: its
        # assembly's temporaries set the sweep's peak memory.
        sinks_c, full = sinks[:, states], np.zeros(sinks.shape)
    v = pi0
    k = 0
    while True:
        active = np.flatnonzero((los <= k) & (k <= his))
        for ti in active:
            out_t[ti] += blocks_t[ti][k - los[ti]][:, None] * v
        if sinks is not None and k % _DOOM_CHECK_STEPS == 0 and k <= hi_last:
            tail = tails[:, max(k - lo_last, 0)]
            stay = _sink_mass(v, sinks_c, states, full) * tail <= eps
            if not stay.all():
                live, v, tails = live[stay], v[stay], tails[stay]
                sinks_c, full = sinks_c[stay], full[stay]
                out_t = out_t[:, stay]
                if not live.size:
                    break
                blocks_t = [np.ascontiguousarray(b[:, stay]) for b in blocks_t]
                jump_t = _stacked_jump_matrix(
                    indptr, indices, values[live], q[live], lam[live]
                )
                k_max = int(ends[live].max())
        if k >= k_max:
            break
        v = (jump_t @ v.reshape(-1)).reshape(live.size, n)
        k += 1
    return out_t, k + 1, live


def _cut_ladders(
    q: np.ndarray, lam: np.ndarray, held: np.ndarray
) -> list[dict[int, float]]:
    """Each point's distinct cuts, as ``{j: Λ′}``.

    Rung ``j`` cuts the states with out-rate above ``Λ_p / (_STIFF_CUT
    · _RUNG_RATIO**j)`` that hold no initial mass (``held``); ``Λ′`` is
    the largest out-rate left, and the cut set is exactly the unheld
    states faster than ``Λ′``. Rungs with the same ``Λ′`` cut the same
    set and are one attempt, kept under the shallowest ``j``. A rung is
    left out unless it lowers the point's rate. Every rung keeps the
    initial support, so none cuts below its largest out-rate: that is
    the ladder's floor.
    """
    divisors = _STIFF_CUT * _RUNG_RATIO ** np.arange(_DEEPEST_RUNG + 1)
    lam_cut = np.stack(
        [
            np.where((q <= limit[:, None]) | held, q, 0.0).max(axis=1)
            for limit in (lam[:, None] / divisors).T
        ],
        axis=1,
    )
    ladders = []
    for p in range(q.shape[0]):
        rungs: dict[int, float] = {}
        ceiling = lam[p]
        for j, rate in enumerate(lam_cut[p].tolist()):
            if rate < ceiling:
                rungs[j] = ceiling = rate
        ladders.append(rungs)
    return ladders


def _reachable_pattern(
    indptr: np.ndarray, indices: np.ndarray, kept: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The states reachable from ``start`` through ``kept`` states.

    One breadth-first search from a virtual source linked to ``start``
    follows the out-edges of kept states only, so a state that no point
    keeps ends its path. Returns ``(states, sub_indptr, sub_indices,
    slots)``: the reached states in ascending order, the CSR pattern of
    their kept rows relabelled to positions in ``states`` (a state no
    point keeps has an empty row) and the full-pattern slot of each
    entry. Relabelling is monotone, so every row keeps its slot order.
    """
    n = indptr.size - 1
    deg = np.diff(indptr)
    slot_rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    follow = kept[slot_rows]
    kept_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(kept, deg, 0), out=kept_indptr[1:])
    states = np.flatnonzero(_reached(kept_indptr, indices[follow], start))
    position = np.full(n, -1, dtype=np.int64)
    position[states] = np.arange(states.size)
    slots = np.flatnonzero(follow & (position[slot_rows] >= 0))
    sub_indptr = np.zeros(states.size + 1, dtype=np.int64)
    np.cumsum(np.where(kept[states], deg[states], 0), out=sub_indptr[1:])
    return states, sub_indptr, position[indices[slots]], slots


def _cut_sweep(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    q: np.ndarray,
    cuts: np.ndarray,
    lam: np.ndarray,
    pi0: np.ndarray,
    ts: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """One attempt: each point's chain with its ``cuts`` made sinks.

    The sweep carries only the states reachable from the initial
    support through states some point keeps (:func:`_reachable_pattern`);
    no point has mass anywhere else, and the terms it drops are exact
    zeros, so each point's rows equal the same cut swept over the full
    pattern with ``==``. Returns ``(dist_t, steps, live, states)`` as
    :func:`_uniformize`, with ``states`` the full-space index of each
    carried state.
    """
    kept = ~cuts.all(axis=0)
    start = np.flatnonzero((pi0 > 0.0).any(axis=0))
    states, sub_indptr, sub_indices, slots = _reachable_pattern(
        indptr, indices, kept, start
    )
    sub_cuts = cuts[:, states]
    sub_values = values[:, slots]
    slot_rows = np.repeat(np.arange(states.size), np.diff(sub_indptr))
    sub_values[sub_cuts[:, slot_rows]] = 0.0
    dist_t, steps, live = _uniformize(
        sub_indptr,
        sub_indices,
        sub_values,
        np.where(sub_cuts, 0.0, q[:, states]),
        lam,
        pi0[:, states],
        ts,
        eps,
        cuts,
        states,
    )
    return dist_t, steps, live, states


def transient_distribution_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    times: Union[float, Sequence[float]],
    initial: Union[int, np.ndarray] = 0,
    *,
    eps: float = 1e-12,
) -> np.ndarray:
    """State probability vectors for ``P`` rate fills of one pattern.

    Parameters
    ----------
    indptr, indices:
        Shared CSR sparsity pattern (e.g.
        :attr:`repro.core.fastpath.LatticeStructure.indptr` /
        ``.indices``). Explicit zeros in ``values`` are allowed — a
        state whose row sums to zero is absorbing *for that point*,
        exactly as if the slot were absent.
    values:
        ``(P, nnz)`` non-negative transition rates, one row per point.
    times:
        Scalar or sequence of non-negative times (shared by all points).
    initial:
        State index, one ``(n,)`` distribution shared by all points, or
        ``(P, n)`` per-point distributions.

    Returns
    -------
    ``(P, len(times), n)`` array (``(P, n)`` for scalar ``times``) of
    state distributions. Each point keeps its own uniformization rate
    and its own truncated Poisson weights, so row ``p`` equals
    :func:`transient_distribution` on point ``p`` alone with ``==``.
    One shared power sequence serves every requested time point: each
    step is one matvec with the stacked jump matrix
    (:func:`_stacked_jump_matrix`), and the Poisson windows accumulate
    into a time-major layout whose per-time ``(P, n)`` slices are
    contiguous.

    Stiff-state truncation: each point cuts, from its own rates only,
    states that hold no initial mass and whose out-rate exceeds a rung
    of the ladder ``Λ_p / (10·√2^j)``, ``j = 8 … 0`` (``Λ_p = max_i
    q_i``). A cut state's out-rates are zeroed, which makes it a sink,
    and the point is uniformized at the largest remaining out-rate
    ``Λ′_p``. Until the chain first enters a cut state the truncated
    chain and the original move alike, so the sink mass at the largest
    time bounds the total-variation error of every distribution the
    point reports (the finite state projection bound). Each point tries
    its distinct cuts deepest first and keeps the first whose sink mass
    is at most ``eps``; points at the same rung share one sweep, which
    carries only the states they can reach (:func:`_cut_sweep`). A
    point that fails every rung is re-solved at its full ``Λ_p``, with
    no cut. The error of a reported distribution is thus bounded by the
    ``eps`` of the Poisson tails plus a certified sink mass of at most
    ``eps``.
    """
    indptr, indices, n = _validate_pattern(indptr, indices)
    values = _validate_rates(values, (None, indices.size))
    num_points = values.shape[0]
    if indices.size and np.any(
        indices == np.repeat(np.arange(n), np.diff(indptr))
    ):
        raise SolverError(
            "pattern must not contain diagonal entries (self-loops have "
            "no meaning in a CTMC; the per-point path drops them)"
        )

    scalar = np.isscalar(times)
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(ts < 0.0):
        raise ParameterError("times must be non-negative")
    num_times = ts.size

    pi0 = _batch_initial(initial, num_points, n)
    if num_points == 0 or num_times == 0:
        empty = np.zeros((num_points, num_times, n))
        return empty[:, 0, :] if scalar else empty

    q = csr_row_sums(indptr, values)
    lam = q.max(axis=1)
    held = pi0 > 0.0
    ladders = _cut_ladders(q, lam, held)
    # Uniformization constants (Λ_p ≥ max q_i, strictly positive even
    # for an all-absorbing fill — matching ``CTMC.uniformization_rate``).
    lam[lam <= 0.0] = 1.0

    out = np.empty((num_points, num_times, n))
    solved = np.zeros(num_points, dtype=bool)
    rung: list[Optional[int]] = [None] * num_points
    cut_states = np.zeros(num_points, dtype=np.int64)
    sink_bound = np.zeros(num_points)
    t_last = int(np.argmax(ts))
    steps = attempts = 0
    with span("transient_batch", points=num_points, times=num_times) as batch_span:
        # Deepest rung first; points at the same rung share one sweep.
        for j in range(_DEEPEST_RUNG, -1, -1):
            trying = np.array(
                [p for p in range(num_points) if not solved[p] and j in ladders[p]],
                dtype=np.int64,
            )
            if not trying.size:
                continue
            lam_cut = np.array([ladders[p][j] for p in trying])
            cuts = (q[trying] > lam_cut[:, None]) & ~held[trying]
            lam_cut[lam_cut <= 0.0] = 1.0
            dist_t, ran, live, states = _cut_sweep(
                indptr,
                indices,
                values[trying],
                q[trying],
                cuts,
                lam_cut,
                pi0[trying],
                ts,
                eps,
            )
            steps += ran
            attempts += 1
            live_cuts = cuts[live]
            sink = _sink_mass(
                dist_t[t_last], live_cuts[:, states], states, np.zeros(live_cuts.shape)
            )
            for i in np.flatnonzero(sink <= eps):
                p = trying[live[i]]
                out[p] = 0.0
                out[p][:, states] = dist_t[:, i]
                solved[p] = True
                rung[p] = j
                cut_states[p] = live_cuts[i].sum()
                sink_bound[p] = sink[i]
            del dist_t  # before the next sweep allocates its own
        rest = np.flatnonzero(~solved)
        if rest.size:
            dist_t, ran, _ = _uniformize(
                indptr, indices, values[rest], q[rest], lam[rest], pi0[rest], ts, eps
            )
            out[rest] = dist_t.transpose(1, 0, 2)
            steps += ran
        fallbacks = sum(1 for p in rest if ladders[p])
        batch_span.set(
            steps=steps,
            attempts=attempts,
            rung=rung,
            cut_states=cut_states.tolist(),
            sink_bound=sink_bound.tolist(),
            fallbacks=fallbacks,
        )
    registry = metrics()
    registry.counter("solver.transient_batch_solves").add()
    registry.counter("solver.transient_points_solved").add(num_points)
    registry.counter("solver.uniformization_steps").add(steps)
    registry.counter("solver.truncation_fallbacks").add(fallbacks)
    log.info(
        "transient batch: %d points, %d truncated (max sink %.3g), "
        "%d re-solved at full rate, %d steps (%d cut attempts)",
        num_points,
        int(solved.sum()),
        float(sink_bound.max()),
        fallbacks,
        steps,
        attempts,
    )

    # Guard against tiny negative round-off and renormalise.
    np.clip(out, 0.0, None, out=out)
    out /= out.sum(axis=2, keepdims=True)
    return out[:, 0, :] if scalar else out


def absorption_cdf_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    times: Sequence[float],
    initial: Union[int, np.ndarray] = 0,
    *,
    classes: Optional[Mapping[str, Sequence[int]]] = None,
    eps: float = 1e-12,
) -> dict[str, np.ndarray]:
    """Absorption-time CDFs for ``P`` rate fills of one pattern.

    The batched counterpart of :func:`absorption_cdf`:
    ``result["any"][p, i]`` is point ``p``'s probability of having been
    absorbed by ``times[i]`` (absorbing = zero out-rate *for that
    point*, read from ``values`` — a state that the stiff-state
    truncation cut is never counted), and each named class gets its
    defective CDF. All arrays have shape ``(P, len(times))``, with the
    error bound of :func:`transient_distribution_batch`.
    """
    dist = transient_distribution_batch(
        indptr,
        indices,
        values,
        np.asarray(times, dtype=float),
        initial,
        eps=eps,
    )
    indptr = np.asarray(indptr, dtype=np.int64)
    n = indptr.size - 1
    absorbing = csr_row_sums(indptr, values) == 0.0

    result: dict[str, np.ndarray] = {
        "any": (dist * absorbing[:, None, :]).sum(axis=2)
    }
    if classes:
        for name, members in classes.items():
            idx = np.asarray(list(members), dtype=int)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ParameterError(
                    f"absorbing class {name!r} has out-of-range states"
                )
            result[name] = (
                dist[:, :, idx].sum(axis=2)
                if idx.size
                else np.zeros(dist.shape[:2])
            )
    return result
