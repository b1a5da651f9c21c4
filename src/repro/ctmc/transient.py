"""Transient CTMC analysis by uniformization.

``π(t) = Σ_k  Pois(k; Λt) · π(0) Pᵏ`` with ``P = I + Q/Λ`` the
uniformized jump chain. Used to obtain the *distribution* of the time to
security failure (not just its mean) and for cross-validating the
absorbing-chain sweeps against an independent numerical method.

Two entry layers:

* :func:`transient_distribution` / :func:`absorption_cdf` — one
  :class:`~repro.ctmc.chain.CTMC` at a time (the historical API);
* :func:`transient_distribution_batch` / :func:`absorption_cdf_batch` —
  ``P`` chains sharing one CSR sparsity pattern (the
  :class:`~repro.core.fastpath.LatticeStructure` sweep shape), solved
  with one shared power sequence. Per point the batch uses its *own*
  uniformization rate and truncated Poisson weights, so the result is
  numerically equivalent to the per-point function; only the floating-
  point summation order differs (batched gather/reduceat vs scipy's
  matvec), which keeps the two within :data:`BATCH_EQUIVALENCE_RTOL`
  relative error on the reproduction's chains (asserted by the
  differential test layer). The batched sweep additionally reuses one
  power sequence ``π(0)Pᵏ`` for *every* requested time point, instead
  of restarting per time like the per-point loop — the dominant saving
  on time-grid survivability campaigns.
"""

from __future__ import annotations

import logging
import os
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import ParameterError, SolverError
from ..obs import metrics, span
from .chain import CTMC
from .kernels import resolve_kernel
from .poisson import poisson_weights

__all__ = [
    "BATCH_EQUIVALENCE_RTOL",
    "EXPM_EQUIVALENCE_RTOL",
    "TRANSIENT_BACKEND_CHOICES",
    "transient_distribution",
    "absorption_cdf",
    "transient_distribution_batch",
    "absorption_cdf_batch",
    "csr_row_sums",
    "resolve_transient_backend",
]

log = logging.getLogger(__name__)

#: Documented equivalence bound between the batched and per-point
#: uniformization paths: same weights, same truncation, different IEEE
#: summation order. Differential tests assert agreement to this
#: relative tolerance (probabilities additionally to ``atol=1e-12``).
BATCH_EQUIVALENCE_RTOL = 1e-9

#: Documented equivalence bound between the ``expm`` transient backend
#: (:func:`scipy.sparse.linalg.expm_multiply`, scaling-and-squaring
#: Taylor with its own internal error control) and uniformization.
#: These are *different algorithms*, not reorderings of one algorithm,
#: so the contract is a pinned tolerance, not bit-identity; the
#: differential tests assert it on the reproduction's mission grids
#: (probabilities additionally to ``atol=1e-10``).
EXPM_EQUIVALENCE_RTOL = 1e-6

#: Recognised transient solver backends. ``uniformization`` (default)
#: costs ``O(Λ·t_max)`` matvecs — exact to truncation mass ``eps`` but
#: ruinous on multi-hour grids where ``Λ ≈ 1e3/s``; ``expm`` steps the
#: stacked generator with :func:`scipy.sparse.linalg.expm_multiply`,
#: whose cost scales with the grid's *step count*, not ``Λ·t_max``.
TRANSIENT_BACKEND_CHOICES = ("uniformization", "expm")

_WARNED_BACKEND_ENV = False


def resolve_transient_backend(backend: Optional[str] = None) -> str:
    """Resolve the transient backend: explicit argument, else env.

    An explicit unknown ``backend`` raises
    :class:`~repro.errors.SolverError`; an unrecognised
    ``REPRO_TRANSIENT_BACKEND`` value is ignored with a one-shot
    warning (an env typo must not kill a campaign mid-run).
    """
    global _WARNED_BACKEND_ENV
    if backend is not None:
        name = backend.strip().lower()
        if name not in TRANSIENT_BACKEND_CHOICES:
            raise SolverError(
                f"unknown transient backend {backend!r} "
                f"(choices: {'/'.join(TRANSIENT_BACKEND_CHOICES)})"
            )
        return name
    raw = os.environ.get("REPRO_TRANSIENT_BACKEND")
    if raw is None:
        return "uniformization"
    name = raw.strip().lower()
    if name in TRANSIENT_BACKEND_CHOICES:
        return name
    if not _WARNED_BACKEND_ENV:
        log.warning(
            "ignoring unrecognised REPRO_TRANSIENT_BACKEND=%r (choices: %s)",
            raw,
            "/".join(TRANSIENT_BACKEND_CHOICES),
        )
        _WARNED_BACKEND_ENV = True
    return "uniformization"


def transient_distribution(
    chain: CTMC,
    times: Union[float, Sequence[float]],
    initial: Union[int, np.ndarray] = 0,
    *,
    eps: float = 1e-12,
) -> np.ndarray:
    """State probability vectors at the requested ``times``.

    Returns an array of shape ``(len(times), n)`` (or ``(n,)`` for a
    scalar ``times``). Exact to truncation mass ``eps`` per time point.
    """
    scalar = np.isscalar(times)
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(ts < 0.0):
        raise ParameterError("times must be non-negative")
    pi0 = chain.validate_initial_distribution(initial)

    lam = chain.uniformization_rate()
    P = chain.uniformized_dtmc(lam)

    out = np.empty((ts.size, chain.num_states))
    order = np.argsort(ts)
    # Incremental evolution: reuse the power sequence across sorted times
    # by restarting from scratch per time point (simple and robust; the
    # figure pipelines only use a handful of time points).
    for row, ti in zip(order, ts[order]):
        if ti == 0.0:
            out[row] = pi0
            continue
        left, right, w = poisson_weights(lam * ti, eps)
        v = pi0.copy()
        acc = np.zeros_like(pi0)
        for k in range(0, right + 1):
            if k >= left:
                acc += w[k - left] * v
            if k < right:
                v = v @ P
        out[row] = acc
    # Guard against tiny negative round-off and renormalise.
    np.clip(out, 0.0, None, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out[0] if scalar else out


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
    """
    dist = transient_distribution(chain, times, initial, eps=eps)
    dist = np.atleast_2d(dist)
    absorbing = chain.absorbing_mask
    result: dict[str, np.ndarray] = {"any": dist[:, absorbing].sum(axis=1)}
    if classes:
        for name, members in classes.items():
            idx = np.asarray(list(members), dtype=int)
            if idx.size and (idx.min() < 0 or idx.max() >= chain.num_states):
                raise ParameterError(
                    f"absorbing class {name!r} has out-of-range states"
                )
            result[name] = (
                dist[:, idx].sum(axis=1) if idx.size else np.zeros(dist.shape[0])
            )
    return result


# ---------------------------------------------------------------------------
# Structure-sharing batched uniformization
# ---------------------------------------------------------------------------

def _validate_pattern(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = indptr.size - 1
    if n < 1 or indptr[0] != 0 or indptr[-1] != indices.size:
        raise SolverError("malformed CSR pattern")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise SolverError("CSR column indices out of range")
    return indptr, indices, n


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
    """
    import scipy.sparse as sp

    num_points, n = q.shape
    deg = np.diff(indptr)
    slot_rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    if indices.size and np.any(indices == slot_rows):
        raise SolverError(
            "pattern must not contain diagonal entries (self-loops have "
            "no meaning in a CTMC; the per-point path drops them)"
        )
    offsets = (np.arange(num_points, dtype=np.int64) * n)[:, None]
    diag_cols = np.arange(n, dtype=np.int64)[None, :] + offsets
    rows = np.concatenate(
        [(indices[None, :] + offsets).ravel(), diag_cols.ravel()]
    )
    cols = np.concatenate(
        [(slot_rows[None, :] + offsets).ravel(), diag_cols.ravel()]
    )
    data = np.concatenate(
        [(values / lam[:, None]).ravel(), (1.0 - q / lam[:, None]).ravel()]
    )
    size = num_points * n
    return sp.csr_matrix((data, (rows, cols)), shape=(size, size))


def _block_csr_pattern(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical CSR layout of one transposed ``n × n`` block.

    The block pattern (off-diagonal transposed slots + full diagonal)
    is a pure function of the shared sparsity pattern, so it is
    computed once per call — a lexsort of ``nnz + n`` entries — and
    reused by every point: returns ``(block_indptr, block_indices,
    perm)`` where ``perm`` maps a point's ``[values·…, diagonal·…]``
    concatenation into canonical slot order.
    """
    deg = np.diff(indptr)
    slot_rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    if indices.size and np.any(indices == slot_rows):
        raise SolverError(
            "pattern must not contain diagonal entries (self-loops have "
            "no meaning in a CTMC; the per-point path drops them)"
        )
    diag = np.arange(n, dtype=np.int64)
    # Transposed block: off-diagonal entry (col j, row i) per slot.
    rows_all = np.concatenate([indices, diag])
    cols_all = np.concatenate([slot_rows, diag])
    perm = np.lexsort((cols_all, rows_all))
    block_indices = cols_all[perm]
    block_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_all, minlength=n), out=block_indptr[1:])
    return block_indptr, block_indices, perm


def _stack_block_csr(
    block_indptr: np.ndarray,
    block_indices: np.ndarray,
    data: np.ndarray,
    n: int,
):
    """One ``(P·n, P·n)`` block-diagonal scipy CSR from per-point data.

    ``data`` is ``(P, block_nnz)`` in canonical block slot order (the
    :func:`_block_csr_pattern` permutation already applied).
    """
    import scipy.sparse as sp

    num_points, block_nnz = data.shape
    size = num_points * n
    total_nnz = num_points * block_nnz
    idx_dtype = (
        np.int32
        if max(size, total_nnz) <= np.iinfo(np.int32).max
        else np.int64
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


def _block_jump_data(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    q: np.ndarray,
    lam: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point jump-chain data rows in canonical block slot order.

    Returns ``(block_indptr, block_indices, data)`` with ``data`` of
    shape ``(P, block_nnz)`` holding ``P_p = I + Q_p/Λ_p`` transposed —
    the exact value multiset :func:`_stacked_jump_matrix` stores, in
    the canonical order scipy's COO→CSR conversion produces.
    """
    num_points, n = q.shape
    block_indptr, block_indices, perm = _block_csr_pattern(indptr, indices, n)
    data = np.ascontiguousarray(
        np.concatenate(
            [values / lam[:, None], 1.0 - q / lam[:, None]], axis=1
        )[:, perm]
    )
    return block_indptr, block_indices, data


def _stacked_jump_matrix_fused(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    q: np.ndarray,
    lam: np.ndarray,
):
    """The same matrix as :func:`_stacked_jump_matrix`, assembled fused.

    The canonical CSR layout of one ``n × n`` block is computed once
    (:func:`_block_csr_pattern`) — a lexsort of ``nnz + n`` entries
    instead of the COO conversion's sort over the ``P``-times-larger
    stacked coordinate list — and every point's data row is one
    permuted gather. The result is the identical canonical matrix
    (same values in the same slots), so the power sequence it advances
    is bit-for-bit the legacy one.
    """
    n = q.shape[1]
    block_indptr, block_indices, data = _block_jump_data(
        indptr, indices, values, q, lam
    )
    return _stack_block_csr(block_indptr, block_indices, data, n)


def _stacked_generator_matrix(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    q: np.ndarray,
):
    """Block-diagonal transposed generator ``diag(Q_pᵀ)`` as one CSR.

    The ``expm`` backend's operator: off-diagonal rates transposed,
    ``-q`` on the diagonal, one block per point — so
    ``exp(Qᵀ·dt) @ flat`` advances every point's distribution by
    ``dt`` in a single :func:`~scipy.sparse.linalg.expm_multiply`.
    """
    num_points, n = q.shape
    block_indptr, block_indices, perm = _block_csr_pattern(indptr, indices, n)
    data = np.ascontiguousarray(
        np.concatenate([values, -q], axis=1)[:, perm]
    )
    return _stack_block_csr(block_indptr, block_indices, data, n)


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


def _transient_batch_expm(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    q: np.ndarray,
    ts: np.ndarray,
    pi0: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Advance every point's distribution with ``expm_multiply`` steps.

    The time grid is visited in sorted order and each step evolves the
    stacked state vector by the *increment* ``exp(Qᵀ·dt)``, so the
    whole grid costs one Krylov-free ``expm_multiply`` per distinct
    positive step — independent of ``Λ·t_max``, which is what makes
    multi-hour mission grids affordable (uniformization pays
    ``Λ·t_max`` matvecs regardless of how few grid points there are).
    Returns ``(out, steps)`` with ``out`` of shape ``(P, T, n)``.
    """
    from scipy.sparse.linalg import expm_multiply

    num_points, n = pi0.shape
    gen_t = _stacked_generator_matrix(indptr, indices, values, q)
    out = np.empty((num_points, ts.size, n))
    flat = pi0.reshape(-1).copy()
    prev = 0.0
    steps = 0
    for ti in np.argsort(ts, kind="stable"):
        dt = float(ts[ti] - prev)
        if dt > 0.0:
            flat = expm_multiply(gen_t * dt, flat)
            prev = float(ts[ti])
            steps += 1
        out[:, ti, :] = flat.reshape(num_points, n)
    return out, steps


def transient_distribution_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    times: Union[float, Sequence[float]],
    initial: Union[int, np.ndarray] = 0,
    *,
    eps: float = 1e-12,
    fused: Optional[bool] = None,
    kernel: Optional[str] = None,
    backend: Optional[str] = None,
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
    state distributions, numerically equivalent to calling
    :func:`transient_distribution` per point (each point keeps its own
    uniformization rate ``Λ_p = max_i q_i^p`` and its own truncated
    Poisson weights; see :data:`BATCH_EQUIVALENCE_RTOL`). One shared
    power sequence serves every requested time point.

    ``kernel`` (``"numba"``/``"fused"``/``"numpy"``; ``None`` follows
    ``REPRO_KERNEL`` then the legacy ``fused``/``REPRO_FUSED_GATHER``
    switches — see :func:`repro.ctmc.kernels.resolve_kernel`) selects
    the power-sequence matvec tier. ``fused`` assembles the stacked
    jump matrix from a once-per-call pattern permutation instead of a
    ``P``-times-larger COO sort and accumulates Poisson windows over a
    time-major layout whose per-time slices are contiguous; ``numba``
    replaces the scipy matvec with a jitted per-block CSR matvec
    (parallel over points) whose sequential slot-order accumulation is
    the exact scipy sequence. All three tiers produce the identical
    matrix values and the identical addition sequence, so results are
    equal bit-for-bit across tiers (and all stay within
    :data:`BATCH_EQUIVALENCE_RTOL` of the per-point path).

    ``backend`` (``"uniformization"``/``"expm"``; ``None`` follows
    ``REPRO_TRANSIENT_BACKEND``, default uniformization) swaps the
    algorithm itself: ``expm`` advances the stacked generator with
    :func:`scipy.sparse.linalg.expm_multiply` increments over the
    sorted time grid — ``O(steps)`` instead of ``O(Λ·t_max)``, the
    multi-hour-grid escape hatch — and agrees with uniformization to
    :data:`EXPM_EQUIVALENCE_RTOL` (a pinned tolerance, not
    bit-identity: it is a different algorithm). ``eps`` and ``kernel``
    only affect the uniformization backend.
    """
    indptr, indices, n = _validate_pattern(indptr, indices)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != indices.size:
        raise SolverError(
            f"values must have shape (P, {indices.size}), got {values.shape}"
        )
    if values.size and (not np.all(np.isfinite(values)) or values.min() < 0.0):
        raise ParameterError("transition rates must be finite and non-negative")
    num_points = values.shape[0]

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

    backend_name = resolve_transient_backend(backend)
    if backend_name == "expm":
        kernel_name = resolve_kernel(kernel, fused=fused)
        with span(
            "transient_batch",
            points=num_points,
            times=num_times,
            kernel=kernel_name,
            backend="expm",
        ):
            out, steps = _transient_batch_expm(
                indptr, indices, values, q, ts, pi0
            )
        registry = metrics()
        registry.counter("solver.transient_batch_solves").add()
        registry.counter("solver.transient_points_solved").add(num_points)
        registry.counter("solver.expm_steps").add(steps)
        np.clip(out, 0.0, None, out=out)
        out /= out.sum(axis=2, keepdims=True)
        return out[:, 0, :] if scalar else out

    # Uniformization constants (Λ_p ≥ max q_i, strictly positive even
    # for an all-absorbing fill — matching ``CTMC.uniformization_rate``).
    lam = q.max(axis=1)
    lam[lam <= 0.0] = 1.0

    # Per-(point, time) truncated Poisson windows, padded per time point
    # into one (P, window) weight block so step k accumulates with a
    # single vectorised multiply per active time. Points of a sweep
    # often share Λ, so each distinct Λ_p·t is computed once.
    poisson: dict[float, tuple[int, int, np.ndarray]] = {}
    windows: list[tuple[int, int, np.ndarray]] = []
    for ti in range(num_times):
        if ts[ti] == 0.0:
            windows.append((0, 0, np.ones((num_points, 1))))
            continue
        lefts = np.empty(num_points, dtype=np.int64)
        rights = np.empty(num_points, dtype=np.int64)
        weights: list[np.ndarray] = []
        for p in range(num_points):
            mean = float(lam[p] * ts[ti])
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
    k_max = max(hi for _, hi, _ in windows)

    # Shared power sequence: v_k = π(0) P_pᵏ per point. All points
    # advance with one stacked CSR matvec per step (block-diagonal
    # transposed jump matrices — see :func:`_stacked_jump_matrix`),
    # or with the jitted per-block matvec on the ``numba`` tier.
    kernel_name = resolve_kernel(kernel, fused=fused)
    matvec = None
    if kernel_name == "numba":
        try:
            from ._numba_kernels import ensure_compiled, stacked_matvec

            ensure_compiled()
            matvec = stacked_matvec
        except Exception:  # noqa: BLE001 — jit failure must not kill a solve
            metrics().counter("solver.kernel_jit_failures").add()
            kernel_name = "fused"
    if matvec is not None:
        block_indptr, block_indices, block_data = _block_jump_data(
            indptr, indices, values, q, lam
        )
        jump_t = None
    else:
        build = (
            _stacked_jump_matrix_fused
            if kernel_name == "fused"
            else _stacked_jump_matrix
        )
        jump_t = build(indptr, indices, values, q, lam)

    flat = pi0.ravel().copy()
    with span(
        "transient_batch",
        points=num_points,
        times=num_times,
        steps=k_max + 1,
        kernel=kernel_name,
        backend="uniformization",
    ):
        if kernel_name == "numpy":
            out = np.zeros((num_points, num_times, n))
            for k in range(k_max + 1):
                v = flat.reshape(num_points, n)
                for ti, (lo, hi, block) in enumerate(windows):
                    if lo <= k <= hi:
                        out[:, ti, :] += block[:, k - lo, None] * v
                if k == k_max:
                    break
                flat = jump_t @ flat
        else:
            # Time-major accumulator: out_t[ti] is a contiguous (P, n)
            # block, so the per-step weight accumulation writes
            # unit-stride memory instead of the (P, T, n) layout's
            # strided slices. Same additions in the same order —
            # transposed back at the end. Shared by the fused and numba
            # tiers, whose matvecs produce bit-equal sequences.
            los = np.array([lo for lo, _, _ in windows], dtype=np.int64)
            his = np.array([hi for _, hi, _ in windows], dtype=np.int64)
            blocks_t = [
                np.ascontiguousarray(block.T) for _, _, block in windows
            ]
            out_t = np.zeros((num_times, num_points, n))
            v = flat.reshape(num_points, n)
            for k in range(k_max + 1):
                active = np.flatnonzero((los <= k) & (k <= his))
                for ti in active:
                    out_t[ti] += blocks_t[ti][k - los[ti]][:, None] * v
                if k == k_max:
                    break
                if matvec is not None:
                    nxt = np.empty_like(v)
                    matvec(block_indptr, block_indices, block_data, v, nxt)
                    v = nxt
                else:
                    v = (jump_t @ v.reshape(-1)).reshape(num_points, n)
            out = np.ascontiguousarray(out_t.transpose(1, 0, 2))
    registry = metrics()
    registry.counter("solver.transient_batch_solves").add()
    registry.counter("solver.transient_points_solved").add(num_points)
    registry.counter("solver.uniformization_steps").add(k_max + 1)

    # Guard against tiny negative round-off and renormalise (mirror of
    # the per-point epilogue).
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
    kernel: Optional[str] = None,
    backend: Optional[str] = None,
) -> dict[str, np.ndarray]:
    """Absorption-time CDFs for ``P`` rate fills of one pattern.

    The batched counterpart of :func:`absorption_cdf`:
    ``result["any"][p, i]`` is point ``p``'s probability of having been
    absorbed by ``times[i]`` (absorbing = zero out-rate *for that
    point*), and each named class gets its defective CDF. All arrays
    have shape ``(P, len(times))``.
    """
    dist = transient_distribution_batch(
        indptr,
        indices,
        values,
        np.asarray(times, dtype=float),
        initial,
        eps=eps,
        kernel=kernel,
        backend=backend,
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
