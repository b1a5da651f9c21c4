"""Vectorised direct construction of the GCS security CTMC.

The Figure 1 SPN's reachable markings form the lattice
``{(t, u, d) : t + u + d ≤ N}`` plus one shared C1 (data-leak) absorbing
state — the marking details beyond C1 are irrelevant because every
transition is guard-disabled after failure. This module enumerates that
lattice with NumPy and emits the identical CTMC the generic SPN
reachability produces (equality is a test), ~50× faster for ``N = 100``
(pure array arithmetic instead of per-marking Python closures; the HPC
guide's vectorise-the-bottleneck idiom).

The construction is split structure-from-rates so that *sweeps* — many
scenarios differing only in rates, never in topology — amortise every
rate-free quantity:

* :class:`LatticeStructure` — the rate-free skeleton keyed by ``N``
  alone: state enumeration, ``state_id`` lookup, per-transition-kind
  guard masks and destination index arrays, the canonical CSR sparsity
  pattern, and the topological level schedule
  (:class:`repro.ctmc.acyclic.BatchDagStructure`). Cached per process
  via :func:`lattice_structure`.
* :func:`fill_transition_rates` — the cheap per-point stage. No rate
  formula needs the full ``(t, u, d)`` state: ``cp``/``drq``/``ids``/
  ``fa`` depend on ``(t, u)`` alone and ``rk`` on ``t + u + d`` alone.
  The fill evaluates the five formulas on those small index spaces
  (5,151 pairs and 101 member counts at ``N = 100``, against 176,851
  states), concatenates them into one source vector and fills the CSR
  values with a single gather through the structure's ``rate_gather``.
* :func:`lattice_state_costs` — the cost reward ``c(t, u, d)`` the
  same way: :meth:`~repro.costs.aggregate.GCSCostModel.cost_vector` on
  the distinct pairs, gathered back to states by ``pair_of_state``.

Both collapses are bit-identical to evaluating every state, because
each state's value comes from the same element-wise IEEE operations.
:func:`build_lattice_chain` composes structure and fill back into the
historical one-call API (and is itself faster on repeated calls, since
the skeleton is cached), while the batched sweep path in
:func:`repro.core.metrics.evaluate_batch` feeds many fills to one
:func:`repro.ctmc.acyclic.solve_dag_batch` call.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..ctmc.acyclic import BatchDagStructure, batch_dag_structure
from ..ctmc.chain import CTMC
from ..detection.functions import vector_shape_factor
from ..errors import ModelError, ParameterError
from ..manet.network import NetworkModel
from ..obs import metrics, span
from ..params import GCSParameters
from .rates import GCSRates

# Annotation only: importing the cost model while this module loads
# moves scipy's first import and slows `import repro.cli` by ~0.1 s.
if TYPE_CHECKING:  # pragma: no cover
    from ..costs.aggregate import GCSCostModel

log = logging.getLogger(__name__)

__all__ = [
    "LatticeChain",
    "LatticeStructure",
    "TransitionRateFill",
    "lattice_structure",
    "peek_structure_cache",
    "seed_structure_cache",
    "clear_structure_cache",
    "fill_transition_rates",
    "lattice_state_costs",
    "build_lattice_chain",
]

#: Transition kinds in the order the historical builder emitted them.
_KINDS = ("cp", "drq", "ids", "fa", "rk")


@dataclass(frozen=True)
class LatticeChain:
    """The lattice CTMC plus state metadata for rewards/classes."""

    chain: CTMC
    #: Per-lattice-state token counts (C1 state excluded; it is last).
    t: np.ndarray
    u: np.ndarray
    d: np.ndarray
    initial_state: int
    c1_state: int
    c2_states: np.ndarray
    depletion_states: np.ndarray
    #: 3-D lookup ``state_id[t, u, d]`` (−1 where t+u+d > N).
    state_id: np.ndarray

    @property
    def num_states(self) -> int:
        return self.chain.num_states

    def state_of(self, t: int, u: int, d: int) -> int:
        """Lattice state index of marking ``(t, u, d)``."""
        n = self.state_id.shape[0] - 1
        if not (0 <= t <= n and 0 <= u <= n and 0 <= d <= n) or t + u + d > n:
            raise ParameterError(f"({t}, {u}, {d}) outside the lattice")
        return int(self.state_id[t, u, d])

    def absorbing_classes(self) -> dict[str, list[int]]:
        """Failure classes keyed as the metrics pipeline expects."""
        return _absorbing_class_map(
            self.c1_state, self.c2_states, self.depletion_states
        )


@dataclass(frozen=True)
class LatticeStructure:
    """Rate-free skeleton of the ``N``-node security lattice.

    Everything here is a pure function of ``num_nodes``: which markings
    exist, which transitions are guard-enabled between them, where each
    transition lands in the canonical (column-sorted CSR) sparsity
    pattern, and the topological level schedule of the structural DAG.
    One instance is shared by every scenario of the same ``N`` — the
    whole point of the split.
    """

    num_nodes: int
    #: Per-lattice-state token counts (C1 excluded; it is state ``n_lattice``).
    t: np.ndarray
    u: np.ndarray
    d: np.ndarray
    state_id: np.ndarray
    initial_state: int
    c1_state: int
    c2_states: np.ndarray
    depletion_states: np.ndarray
    #: Guard masks over lattice states, keyed by transition kind.
    masks: dict[str, np.ndarray]
    #: Source / destination state indices per kind (one entry per
    #: guard-enabled transition, aligned with ``masks[kind]``'s support).
    src: dict[str, np.ndarray]
    dst: dict[str, np.ndarray]
    #: Position of each kind's transitions in the canonical CSR value
    #: array (``values[slots[kind]] = rate_of_kind``).
    slots: dict[str, np.ndarray]
    #: Shared CSR sparsity pattern (column-sorted within rows).
    indptr: np.ndarray
    indices: np.ndarray
    #: Level schedule + padded gather plan of the structural DAG.
    dag: BatchDagStructure
    #: The distinct ``(t, u)`` pairs, and each lattice state's pair
    #: (``pair_t[pair_of_state] == t``, likewise for ``u``).
    pair_t: np.ndarray
    pair_u: np.ndarray
    pair_of_state: np.ndarray
    #: Per CSR slot, its position in the concatenated per-kind source
    #: vector of :func:`fill_transition_rates`: one block of pairs for
    #: each of ``cp``/``drq``/``ids``/``fa``, then ``rk`` indexed by
    #: ``t + u + d`` in ``0..N``.
    rate_gather: np.ndarray

    @property
    def n_lattice(self) -> int:
        return self.t.size

    @property
    def num_states(self) -> int:
        return self.t.size + 1  # + shared C1 state

    @property
    def nnz(self) -> int:
        return self.indices.size

    def absorbing_classes(self) -> dict[str, list[int]]:
        """Failure classes keyed as the metrics pipeline expects."""
        return _absorbing_class_map(
            self.c1_state, self.c2_states, self.depletion_states
        )


def _absorbing_class_map(
    c1_state: int, c2_states: np.ndarray, depletion_states: np.ndarray
) -> dict[str, list[int]]:
    """The one definition of the failure-class → state mapping.

    Shared by :class:`LatticeChain` and :class:`LatticeStructure` so
    the per-point and batched pipelines can never disagree on class
    names or membership.
    """
    return {
        "c1_data_leak": [c1_state],
        "c2_byzantine": c2_states.tolist(),
        "depletion": depletion_states.tolist(),
    }


@dataclass(frozen=True)
class TransitionRateFill:
    """One scenario's transition rates scattered into the shared pattern.

    ``values[k]`` is the rate of the ``k``-th slot of the structure's
    CSR pattern; guard-enabled transitions whose formula evaluates to
    zero keep an explicit ``0.0`` (the batched solver tolerates them
    exactly; the per-point :class:`~repro.ctmc.chain.CTMC` prunes them).
    """

    structure: LatticeStructure
    values: np.ndarray


def _build_structure(n: int) -> LatticeStructure:
    # ---- lattice enumeration ------------------------------------------
    grid = np.indices((n + 1, n + 1, n + 1), dtype=np.int32)
    mask = grid.sum(axis=0) <= n
    t_all, u_all, d_all = (g[mask].astype(np.int64) for g in grid)
    n_lattice = t_all.size
    state_id = np.full((n + 1, n + 1, n + 1), -1, dtype=np.int64)
    state_id[t_all, u_all, d_all] = np.arange(n_lattice)
    c1_state = n_lattice  # shared absorbing data-leak state
    num_states = n_lattice + 1

    failed_c2 = (u_all > 0) & (2 * u_all > t_all)
    active = ~failed_c2
    src_ids = state_id[t_all, u_all, d_all]

    # ---- guard-enabled transitions per kind ---------------------------
    masks = {
        "cp": active & (t_all > 0),
        "drq": active & (u_all > 0),
        "ids": active & (u_all > 0),
        "fa": active & (t_all > 0),
        "rk": active & (d_all > 0),
    }
    dst_full = {
        "cp": state_id[t_all - 1, np.minimum(u_all + 1, n), d_all],
        "drq": np.full(n_lattice, c1_state, dtype=np.int64),
        "ids": state_id[
            t_all, np.maximum(u_all - 1, 0), np.minimum(d_all + 1, n)
        ],
        "fa": state_id[
            np.maximum(t_all - 1, 0), u_all, np.minimum(d_all + 1, n)
        ],
        "rk": state_id[t_all, u_all, np.maximum(d_all - 1, 0)],
    }
    src = {kind: src_ids[masks[kind]] for kind in _KINDS}
    dst = {kind: dst_full[kind][masks[kind]] for kind in _KINDS}

    # ---- canonical CSR pattern over all guard-enabled edges -----------
    # Distinct (src, dst) per kind by construction (each kind moves the
    # marking by a different delta), so no duplicate coordinates exist
    # and the lexsort below is exactly scipy's canonical CSR ordering.
    rows_all = np.concatenate([src[kind] for kind in _KINDS])
    cols_all = np.concatenate([dst[kind] for kind in _KINDS])
    order = np.lexsort((cols_all, rows_all))
    indices = cols_all[order]
    counts = np.bincount(rows_all, minlength=num_states)
    indptr = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    slot_for = np.empty(order.size, dtype=np.int64)
    slot_for[order] = np.arange(order.size)
    slots: dict[str, np.ndarray] = {}
    offset = 0
    for kind in _KINDS:
        size = src[kind].size
        slots[kind] = slot_for[offset : offset + size]
        offset += size

    # ---- small index spaces of the per-point fill and costs -----------
    # Costs and the cp/drq/ids/fa rates depend on (t, u) alone, rk on
    # t + u + d alone.
    pair_grid = np.indices((n + 1, n + 1))
    pair_mask = pair_grid.sum(axis=0) <= n
    pair_t, pair_u = (g[pair_mask].astype(np.int64) for g in pair_grid)
    pair_id = np.full((n + 1, n + 1), -1, dtype=np.int64)
    pair_id[pair_t, pair_u] = np.arange(pair_t.size)
    pair_of_state = pair_id[t_all, u_all]
    members = t_all + u_all + d_all
    rate_gather = np.empty(order.size, dtype=np.int64)
    for k, kind in enumerate(_KINDS):
        space = members if kind == "rk" else pair_of_state
        rate_gather[slots[kind]] = k * pair_t.size + space[src[kind]]

    dag = batch_dag_structure(indptr, indices)

    depletion = np.flatnonzero((t_all == 0) & (u_all == 0) & (d_all == 0))
    c2_states = np.flatnonzero(failed_c2)

    # The structure is shared process-wide (and its arrays are handed
    # out on every LatticeChain); freeze them so a mutating caller
    # fails loudly instead of silently poisoning every later
    # evaluation of this N — same hazard/fix as the voting-table memo.
    for arr in (
        t_all,
        u_all,
        d_all,
        state_id,
        c2_states,
        depletion,
        indptr,
        indices,
        pair_t,
        pair_u,
        pair_of_state,
        rate_gather,
        *masks.values(),
        *src.values(),
        *dst.values(),
        *slots.values(),
        dag.slot_rows,
        dag.ell_cols,
        dag.ell_slots,
        dag.ell_pad,
        dag.lvl_rows,
        dag.lvl_row_bounds,
        dag.lvl_ell_slots,
        dag.lvl_ell_cols,
        dag.structure.levels,
        *dag.structure.level_states,
    ):
        arr.setflags(write=False)

    return LatticeStructure(
        num_nodes=n,
        t=t_all,
        u=u_all,
        d=d_all,
        state_id=state_id,
        initial_state=int(state_id[n, 0, 0]),
        c1_state=c1_state,
        c2_states=c2_states,
        depletion_states=depletion,
        masks=masks,
        src=src,
        dst=dst,
        slots=slots,
        indptr=indptr,
        indices=indices,
        dag=dag,
        pair_t=pair_t,
        pair_u=pair_u,
        pair_of_state=pair_of_state,
        rate_gather=rate_gather,
    )


#: Process-wide structure cache: small (a handful of ``N`` values per
#: run) but each entry holds O(N³) arrays, so keep an LRU cap.
_STRUCTURE_CACHE: OrderedDict[int, LatticeStructure] = OrderedDict()
_STRUCTURE_CACHE_CAP = 4
_STRUCTURE_LOCK = threading.Lock()


def lattice_structure(num_nodes: int) -> LatticeStructure:
    """The cached rate-free lattice skeleton for ``num_nodes``."""
    n = int(num_nodes)
    if n < 1:
        raise ParameterError(f"num_nodes must be >= 1, got {num_nodes}")
    with _STRUCTURE_LOCK:
        cached = _STRUCTURE_CACHE.get(n)
        if cached is not None:
            _STRUCTURE_CACHE.move_to_end(n)
            metrics().counter("fastpath.structure_cache_hits").add()
            return cached
    t_build = time.perf_counter()
    with span("fastpath.build_structure", n=n):
        structure = _build_structure(n)
    metrics().counter("fastpath.structure_builds").add()
    metrics().histogram("fastpath.structure_build_s").observe(
        time.perf_counter() - t_build
    )
    log.debug(
        "built lattice structure n=%d (%d states) in %.3fs",
        n,
        structure.num_states,
        time.perf_counter() - t_build,
    )
    with _STRUCTURE_LOCK:
        _STRUCTURE_CACHE[n] = structure
        _STRUCTURE_CACHE.move_to_end(n)
        while len(_STRUCTURE_CACHE) > _STRUCTURE_CACHE_CAP:
            _STRUCTURE_CACHE.popitem(last=False)
    return structure


def peek_structure_cache(num_nodes: int) -> Optional[LatticeStructure]:
    """The cached structure for ``num_nodes``, or ``None`` (no build)."""
    with _STRUCTURE_LOCK:
        cached = _STRUCTURE_CACHE.get(int(num_nodes))
        if cached is not None:
            _STRUCTURE_CACHE.move_to_end(int(num_nodes))
        return cached


def seed_structure_cache(structure: LatticeStructure) -> None:
    """Insert a pre-built structure into the process-wide cache.

    Used by :mod:`repro.core.structshare` to hand pool workers a
    structure attached from shared memory (or loaded from the on-disk
    cache) instead of re-enumerating the lattice per process. A
    structure already cached for the same ``N`` is left in place — the
    arrays are immutable and equal, and the incumbent may already be
    referenced by in-flight fills.
    """
    with _STRUCTURE_LOCK:
        if structure.num_nodes in _STRUCTURE_CACHE:
            _STRUCTURE_CACHE.move_to_end(structure.num_nodes)
            return
        _STRUCTURE_CACHE[structure.num_nodes] = structure
        _STRUCTURE_CACHE.move_to_end(structure.num_nodes)
        while len(_STRUCTURE_CACHE) > _STRUCTURE_CACHE_CAP:
            _STRUCTURE_CACHE.popitem(last=False)


def clear_structure_cache() -> None:
    """Drop every cached :class:`LatticeStructure` (tests, memory)."""
    with _STRUCTURE_LOCK:
        _STRUCTURE_CACHE.clear()


def fill_transition_rates(
    structure: LatticeStructure, rates: GCSRates
) -> TransitionRateFill:
    """Evaluate one scenario's rates on the shared lattice skeleton.

    The formulas are the historical ``build_lattice_chain`` arithmetic
    verbatim (bit-identical values; the per-point/batched equality tests
    depend on that), evaluated once per ``(t, u)`` pair (``rk`` once per
    member count ``t + u + d``) and gathered into the CSR slots.
    """
    t_fill = time.perf_counter()
    n = structure.num_nodes
    t, u = structure.pair_t, structure.pair_u
    scale = rates.group_scale

    att = rates.attacker
    det = rates.detection
    live = t + u
    with np.errstate(divide="ignore", invalid="ignore"):
        mc = np.where(t > 0, live / np.maximum(t, 1), 1.0)
        md = np.where(live > 0, n / np.maximum(live, 1), 1.0)
    a_rate = att.base_rate_hz * vector_shape_factor(
        att.form, mc, att.base_index_p, att.shifted_log
    )
    d_rate = (
        vector_shape_factor(det.form, md, det.base_index_p, det.shifted_log)
        / det.base_interval_s
    )

    # Voting probabilities at per-group counts (matching GCSRates). The
    # table spans 2n so the boundary max(·, 1) adjustments below never
    # leave its simplex (g + b <= 2n always holds for g, b <= n).
    pfp_table, pfn_table = rates.voting.table(2 * n)
    tg = np.clip(np.rint(t * scale).astype(np.int64), 0, n)
    ug = np.clip(np.rint(u * scale).astype(np.int64), 0, n)
    tg_fa = np.maximum(tg, 1)
    ug_ids = np.maximum(ug, 1)
    pfn = pfn_table[tg, ug_ids]
    pfp = pfp_table[tg_fa, ug]

    # Rekey rate via a precomputed Tcm lookup, per member count t+u+d.
    tcm = np.array([rates.rekey.tcm_s(max(k, 2)) for k in range(n + 2)])
    members = np.clip(np.rint(np.arange(n + 1) * scale).astype(np.int64), 0, n + 1)
    rk_rate = 1.0 / tcm[members]

    leak_rate = (
        rates.params.detection.host_false_negative
        * rates.params.workload.data_rate_hz
        * u
    )

    # Source blocks in _KINDS order, as rate_gather indexes them.
    source = np.concatenate(
        [
            a_rate,
            leak_rate,
            u * d_rate * (1.0 - pfn),
            t * d_rate * pfp,
            rk_rate,
        ]
    )
    values = source[structure.rate_gather]

    if not np.all(np.isfinite(values)):
        raise ModelError("transition rates must be finite")
    if values.size and float(values.min()) < 0.0:
        raise ModelError("transition rates must be non-negative")
    metrics().counter("fastpath.rate_fills").add()
    metrics().histogram("fastpath.rate_fill_s").observe(
        time.perf_counter() - t_fill
    )
    return TransitionRateFill(structure=structure, values=values)


def lattice_state_costs(
    structure: LatticeStructure,
    cost_model: GCSCostModel,
    *,
    per_component: bool = False,
) -> "np.ndarray | dict[str, np.ndarray]":
    """``cost_model.cost_vector`` over every lattice state (C1 excluded).

    Every cost term depends on ``(t, u)`` alone, so the cost model runs
    on the structure's distinct pairs and the result is gathered back to
    states by ``pair_of_state`` — bit-identical to
    ``cost_vector(structure.t, structure.u, structure.d)``. With
    ``per_component=True`` returns one array per component.
    """
    t, u = structure.pair_t, structure.pair_u
    costs = cost_model.cost_vector(t, u, np.zeros_like(t), per_component=per_component)
    if per_component:
        return {name: vec[structure.pair_of_state] for name, vec in costs.items()}
    return costs[structure.pair_of_state]


def build_lattice_chain(
    params: GCSParameters,
    network: NetworkModel,
    *,
    rates: Optional[GCSRates] = None,
    expected_groups: float = 1.0,
) -> LatticeChain:
    """Build the (decoupled-``NG``) security CTMC for the scenario.

    Semantics identical to ``build_gcs_spn(...)`` + reachability + CTMC
    compilation, restricted to the default decoupled-group variant.
    """
    rates = rates or GCSRates.from_scenario(
        params, network, expected_groups=expected_groups
    )
    structure = lattice_structure(params.num_nodes)
    fill = fill_transition_rates(structure, rates)

    import scipy.sparse as sp

    R = sp.csr_matrix(
        (fill.values, structure.indices.copy(), structure.indptr.copy()),
        shape=(structure.num_states, structure.num_states),
    )
    chain = CTMC(R)

    return LatticeChain(
        chain=chain,
        t=structure.t,
        u=structure.u,
        d=structure.d,
        initial_state=structure.initial_state,
        c1_state=structure.c1_state,
        c2_states=structure.c2_states,
        depletion_states=structure.depletion_states,
        state_id=structure.state_id,
    )
