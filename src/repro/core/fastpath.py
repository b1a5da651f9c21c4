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
  alone: state enumeration, ``state_id`` lookup, the canonical CSR
  sparsity pattern of every guard-enabled transition, the small index
  spaces the per-point stages run on, and the *solve space* the batched
  solvers run in: the states reachable from the initial marking
  (``solve_states``) with the topological level schedule of the pattern
  restricted to them (:class:`repro.ctmc.acyclic.BatchDagStructure`).
  Every metric is read from the initial marking, and the states outside
  the solve space — Byzantine-failure markings no live marking enters,
  58–63% of the lattice — hold probability 0 at all times and feed no
  reachable state, so leaving them out changes no solved value. Cached
  per process via :func:`lattice_structure`.
* :func:`fill_transition_rates` — the cheap per-point stage. No rate
  formula needs the full ``(t, u, d)`` state: ``cp``/``drq``/``ids``/
  ``fa`` depend on ``(t, u)`` alone and ``rk`` on ``t + u + d`` alone.
  The fill evaluates the five formulas on those small index spaces
  (5,151 pairs and 101 member counts at ``N = 100``, against 176,851
  states) into one source vector; a single gather through the
  structure's ``rate_gather`` turns it into CSR values. The batched
  sweep gathers a whole chunk's sources at once (``slot_source``).
* :func:`lattice_pair_costs` — the cost reward ``c(t, u, d)`` the
  same way: :meth:`~repro.costs.aggregate.GCSCostModel.cost_vector` on
  the distinct pairs; :func:`lattice_state_costs` gathers it back to
  states by ``pair_of_state``, the batched sweep by ``solve_pair``.

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
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from ..costs.aggregate import GCSCostModel
from ..ctmc.acyclic import BatchDagStructure, batch_dag_structure
from ..ctmc.chain import CTMC
from ..detection.functions import vector_shape_factor
from ..errors import ModelError, ParameterError
from ..manet.network import NetworkModel
from ..obs import metrics, span
from ..params import GCSParameters
from .rates import GCSRates

log = logging.getLogger(__name__)

__all__ = [
    "LatticeChain",
    "LatticeStructure",
    "TransitionRateFill",
    "lattice_structure",
    "clear_structure_cache",
    "fill_transition_rates",
    "lattice_pair_costs",
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
            np.array([self.c1_state]), self.c2_states, self.depletion_states
        )


@dataclass(frozen=True)
class LatticeStructure:
    """Rate-free skeleton of the ``N``-node security lattice.

    Everything here is a pure function of ``num_nodes``: which markings
    exist, which transitions are guard-enabled between them, where each
    transition lands in the canonical (column-sorted CSR) sparsity
    pattern, which states the initial marking can reach, and the
    topological level schedule of the structural DAG on those states.
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
    #: Shared CSR sparsity pattern (column-sorted within rows).
    indptr: np.ndarray
    indices: np.ndarray
    #: The solve space: sorted ids of the states reachable from
    #: ``initial_state``. Every CSR edge starts and ends inside it, so
    #: every state outside has out-degree 0.
    solve_states: np.ndarray
    #: Level schedule + padded gather plan of the pattern restricted to
    #: the solve space, states renumbered by position in
    #: ``solve_states``. The renumbering keeps every CSR slot and its
    #: column order, so a fill's ``values`` feed it unchanged.
    dag: BatchDagStructure
    #: The distinct ``(t, u)`` pairs, and each lattice state's pair
    #: (``pair_t[pair_of_state] == t``, likewise for ``u``).
    pair_t: np.ndarray
    pair_u: np.ndarray
    pair_of_state: np.ndarray
    #: Per CSR slot, its position in the concatenated per-kind source
    #: vector of :func:`fill_transition_rates`: one block of pairs for
    #: each of ``cp``/``drq``/``ids``/``fa``, then ``rk`` indexed by
    #: ``t + u + d`` in ``0..N``, then one ``0.0``.
    rate_gather: np.ndarray
    #: ``rate_gather`` (a view of its first ``nnz`` entries) followed by
    #: the index of the source's trailing ``0.0``: gathering a chunk's
    #: ``(S + 1, P)`` source matrix by it gives the batched sweep's
    #: slot-major ``(nnz + 1, P)`` rates, zero sentinel row included.
    slot_source: np.ndarray
    #: The source entries ``rate_gather`` reads (sorted): the ones a
    #: fill checks.
    rate_sources: np.ndarray
    #: Pair of each solve-space state; the C1 state reads the ``0.0``
    #: a pair-level reward carries at index ``pair_t.size``.
    solve_pair: np.ndarray

    @property
    def n_lattice(self) -> int:
        return self.t.size

    @property
    def num_states(self) -> int:
        return self.t.size + 1  # + shared C1 state

    @property
    def nnz(self) -> int:
        return self.indices.size

    @property
    def solve_initial(self) -> int:
        """Position of ``initial_state`` in the solve space."""
        return int(np.searchsorted(self.solve_states, self.initial_state))

    def solve_classes(self) -> dict[str, list[int]]:
        """Failure classes on the solve space, keyed like the chain's.

        Each class keeps the members inside the solve space, numbered by
        position in ``solve_states``. C1 is empty for ``N <= 2``, where
        no trajectory reaches it.
        """
        return _absorbing_class_map(
            self._solve_positions(np.array([self.c1_state])),
            self._solve_positions(self.c2_states),
            self._solve_positions(self.depletion_states),
        )

    def _solve_positions(self, states: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.solve_states, states)
        pos = np.minimum(pos, self.solve_states.size - 1)
        return pos[self.solve_states[pos] == states]


def _absorbing_class_map(
    c1_states: np.ndarray, c2_states: np.ndarray, depletion_states: np.ndarray
) -> dict[str, list[int]]:
    """The one definition of the failure-class → state mapping.

    Shared by :class:`LatticeChain` and :class:`LatticeStructure` so
    the per-point and batched pipelines can never disagree on class
    names or membership.
    """
    return {
        "c1_data_leak": c1_states.tolist(),
        "c2_byzantine": c2_states.tolist(),
        "depletion": depletion_states.tolist(),
    }


@dataclass(frozen=True)
class TransitionRateFill:
    """One scenario's transition rates scattered into the shared pattern.

    ``source`` is the per-kind source vector the structure's gather
    plans index (``rate_gather``, ``slot_source``). ``values[k]`` is
    the rate of the ``k``-th slot of the structure's CSR pattern;
    guard-enabled transitions whose formula evaluates to zero keep an
    explicit ``0.0`` (the batched solver tolerates them exactly; the
    per-point :class:`~repro.ctmc.chain.CTMC` prunes them).
    """

    structure: LatticeStructure
    source: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.source[self.structure.rate_gather]


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
    # Each edge's source-vector index, permuted into CSR slot order
    # exactly like ``indices``.
    edge_source = [
        k * pair_t.size + (members if kind == "rk" else pair_of_state)[src[kind]]
        for k, kind in enumerate(_KINDS)
    ]
    source_size = 4 * pair_t.size + n + 2  # the last entry is the 0.0
    slot_source = np.append(np.concatenate(edge_source)[order], source_size - 1)
    rate_gather = slot_source[:-1]
    read = np.zeros(source_size, dtype=bool)
    read[rate_gather] = True
    rate_sources = np.flatnonzero(read)

    # ---- solve space: the states reachable from the initial marking ---
    initial_state = int(state_id[n, 0, 0])
    pattern = sp.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(num_states, num_states)
    )
    reached = breadth_first_order(pattern, initial_state, return_predecessors=False)
    solve_states = np.sort(reached).astype(np.int64)
    inside = np.zeros(num_states, dtype=bool)
    inside[solve_states] = True
    if not (inside[rows_all].all() and inside[indices].all()):
        raise ModelError("a lattice edge touches a state outside the solve space")
    # Rows outside are empty, so the restricted pattern keeps every slot;
    # the order-preserving renumbering keeps each row's column order.
    solve_of_state = np.cumsum(inside) - 1
    dag = batch_dag_structure(
        np.concatenate([[0], indptr[solve_states + 1]]), solve_of_state[indices]
    )

    solve_pair = np.append(pair_of_state, pair_t.size)[solve_states]
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
        slot_source,
        rate_sources,
        solve_pair,
        solve_states,
        dag.indptr,
        dag.indices,
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
        initial_state=initial_state,
        c1_state=c1_state,
        c2_states=c2_states,
        depletion_states=depletion,
        indptr=indptr,
        indices=indices,
        solve_states=solve_states,
        dag=dag,
        pair_t=pair_t,
        pair_u=pair_u,
        pair_of_state=pair_of_state,
        rate_gather=rate_gather,
        slot_source=slot_source,
        rate_sources=rate_sources,
        solve_pair=solve_pair,
    )


#: Process-wide structure cache: small (a handful of ``N`` values per
#: run) but each entry holds O(N³) arrays, so keep an LRU cap.
_STRUCTURE_CACHE: OrderedDict[int, LatticeStructure] = OrderedDict()
_STRUCTURE_CACHE_CAP = 4
_STRUCTURE_LOCK = threading.Lock()
#: LRU memo of the rekey ``Tcm`` lookup, keyed by what
#: :meth:`~repro.groupkey.rekey.RekeyCostModel.tcm_s` reads: the channel
#: bandwidth, the element size and ``N``. Every point of a sweep that
#: varies neither shares one read-only table.
_TCM_TABLES: OrderedDict[tuple[float, int, int], np.ndarray] = OrderedDict()
_TCM_TABLES_CAP = 64


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


def clear_structure_cache() -> None:
    """Drop every cached :class:`LatticeStructure` and ``Tcm`` table."""
    with _STRUCTURE_LOCK:
        _STRUCTURE_CACHE.clear()
        _TCM_TABLES.clear()


def _tcm_table(rekey, n: int) -> np.ndarray:
    """``rekey.tcm_s(max(k, 2))`` for ``k`` in ``0..n + 1``, memoised."""
    key = (rekey.network.params.bandwidth_bps, rekey.element_bits, n)
    with _STRUCTURE_LOCK:
        table = _TCM_TABLES.get(key)
        if table is not None:
            _TCM_TABLES.move_to_end(key)
            return table
    table = np.array([rekey.tcm_s(max(k, 2)) for k in range(n + 2)])
    table.setflags(write=False)
    with _STRUCTURE_LOCK:
        _TCM_TABLES[key] = table
        while len(_TCM_TABLES) > _TCM_TABLES_CAP:
            _TCM_TABLES.popitem(last=False)
    return table


def fill_transition_rates(
    structure: LatticeStructure, rates: GCSRates
) -> TransitionRateFill:
    """Evaluate one scenario's rates on the shared lattice skeleton.

    The formulas are the historical ``build_lattice_chain`` arithmetic
    verbatim (bit-identical values; the per-point/batched equality tests
    depend on that), evaluated once per ``(t, u)`` pair (``rk`` once per
    member count ``t + u + d``) into the fill's source vector. Only the
    entries some CSR slot reads are checked, so a fill is rejected
    exactly when its CSR values would hold a NaN, infinite or negative
    rate.
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

    # Voting probabilities at per-group counts (matching GCSRates). Every
    # index below, max(·, 1) adjustments included, lies in 0..n, so
    # table(n) holds every cell read, and it is the memo entry the cost
    # model fills for the same (m, p1, p2).
    pfp_table, pfn_table = rates.voting.table(n)
    tg = np.clip(np.rint(t * scale).astype(np.int64), 0, n)
    ug = np.clip(np.rint(u * scale).astype(np.int64), 0, n)
    tg_fa = np.maximum(tg, 1)
    ug_ids = np.maximum(ug, 1)
    pfn = pfn_table[tg, ug_ids]
    pfp = pfp_table[tg_fa, ug]

    # Rekey rate via a precomputed Tcm lookup, per member count t+u+d.
    tcm = _tcm_table(rates.rekey, n)
    members = np.clip(np.rint(np.arange(n + 1) * scale).astype(np.int64), 0, n + 1)
    rk_rate = 1.0 / tcm[members]

    leak_rate = (
        rates.params.detection.host_false_negative
        * rates.params.workload.data_rate_hz
        * u
    )

    # Source blocks in _KINDS order, as rate_gather indexes them, and
    # the 0.0 that slot_source reads for the sweep's pads.
    source = np.concatenate(
        [
            a_rate,
            leak_rate,
            u * d_rate * (1.0 - pfn),
            t * d_rate * pfp,
            rk_rate,
            [0.0],
        ]
    )

    used = source[structure.rate_sources]
    if not np.all(np.isfinite(used)):
        raise ModelError("transition rates must be finite")
    if used.size and float(used.min()) < 0.0:
        raise ModelError("transition rates must be non-negative")
    metrics().counter("fastpath.rate_fills").add()
    metrics().histogram("fastpath.rate_fill_s").observe(
        time.perf_counter() - t_fill
    )
    return TransitionRateFill(structure=structure, source=source)


def lattice_pair_costs(
    structure: LatticeStructure,
    cost_model: GCSCostModel,
    *,
    per_component: bool = False,
) -> "np.ndarray | dict[str, np.ndarray]":
    """``cost_model.cost_vector`` on the structure's distinct ``(t, u)`` pairs.

    Every cost term depends on ``(t, u)`` alone. With
    ``per_component=True`` returns one array per component.
    """
    t, u = structure.pair_t, structure.pair_u
    return cost_model.cost_vector(t, u, np.zeros_like(t), per_component=per_component)


def lattice_state_costs(
    structure: LatticeStructure,
    cost_model: GCSCostModel,
    *,
    per_component: bool = False,
) -> "np.ndarray | dict[str, np.ndarray]":
    """``cost_model.cost_vector`` over every lattice state (C1 excluded).

    :func:`lattice_pair_costs` gathered back to states by
    ``pair_of_state`` — bit-identical to ``cost_vector(structure.t,
    structure.u, structure.d)``. With ``per_component=True`` returns one
    array per component.
    """
    costs = lattice_pair_costs(structure, cost_model, per_component=per_component)
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
