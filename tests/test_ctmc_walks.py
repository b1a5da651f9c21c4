"""The generic CTMC API's graph walks against per-state reference loops.

``topological_levels``, ``CTMC.reachable_from`` and ``CTMC.can_reach``
run array code (a level-synchronous Kahn loop and ``csgraph``
breadth-first searches). The references here are the plain per-state
loops: a stack-driven Kahn peel and two stack walks. Results must be
``==``.
"""

import numpy as np
import pytest

from repro.core.fastpath import build_lattice_chain
from repro.core.metrics import resolve_network
from repro.ctmc import CTMC, topological_levels
from repro.errors import ParameterError
from repro.params import GCSParameters


def _reference_levels(chain):
    """Longest-path levels by Kahn's peel, one state at a time."""
    R = chain.rates
    n = chain.num_states
    remaining = np.diff(R.indptr).astype(np.int64)
    levels = np.zeros(n, dtype=np.int64)
    pred = R.tocsc()
    ready = [int(s) for s in np.flatnonzero(remaining == 0)]
    processed = 0
    while ready:
        v = ready.pop()
        processed += 1
        for u in pred.indices[pred.indptr[v] : pred.indptr[v + 1]]:
            levels[u] = max(levels[u], levels[v] + 1)
            remaining[u] -= 1
            if remaining[u] == 0:
                ready.append(int(u))
    if processed != n:
        return None
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order], np.arange(levels.max() + 2))
    return levels, [order[bounds[L] : bounds[L + 1]] for L in range(levels.max() + 1)]


def _reference_walk(indptr, indices, seeds, n):
    """Mask of the states a stack walk reaches from ``seeds``."""
    seen = np.zeros(n, dtype=bool)
    seen[seeds] = True
    stack = list(seeds)
    while stack:
        s = stack.pop()
        for j in indices[indptr[s] : indptr[s + 1]]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return seen


def _assert_levels_match(chain):
    got = topological_levels(chain)
    want = _reference_levels(chain)
    assert got is not None and want is not None
    levels, level_states = want
    assert np.array_equal(got.levels, levels)
    assert len(got.level_states) == len(level_states)
    for mine, theirs in zip(got.level_states, level_states):
        assert np.array_equal(mine, theirs)


def _random_chain(rng, n, density, acyclic):
    transitions = [
        (src, dst, float(rng.uniform(0.1, 5.0)))
        for src in range(n)
        for dst in range(src if acyclic else n)
        if src != dst and rng.random() < density
    ]
    return CTMC.from_transitions(n, transitions)


@pytest.mark.parametrize("num_nodes", [*range(1, 13), 40])
def test_levels_match_reference_on_lattice_chains(num_nodes):
    params = GCSParameters.paper_defaults(num_nodes=num_nodes)
    lattice = build_lattice_chain(params, resolve_network(params))
    _assert_levels_match(lattice.chain)


@pytest.mark.parametrize("seed", range(8))
def test_levels_match_reference_on_random_dags(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    _assert_levels_match(_random_chain(rng, n, rng.uniform(0.02, 0.4), True))


@pytest.mark.parametrize("seed", range(8))
def test_cycle_gives_none(seed):
    rng = np.random.default_rng(seed)
    chain = _random_chain(rng, int(rng.integers(2, 40)), 0.2, acyclic=True)
    # Close one cycle through two states on a DAG.
    R = chain.rates.tolil()
    src, dst = sorted(rng.choice(chain.num_states, size=2, replace=False))
    R[src, dst] = R[dst, src] = 1.0
    cyclic = CTMC(R)
    assert _reference_levels(cyclic) is None
    assert topological_levels(cyclic) is None


@pytest.mark.parametrize("seed", range(12))
def test_walks_match_reference_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    chain = _random_chain(rng, n, rng.uniform(0.0, 0.1), acyclic=bool(seed % 2))
    R, Rt = chain.rates, chain.rates.tocsc()
    for size in (0, 1, 3):
        seeds = rng.integers(0, n, size=size)
        reached = _reference_walk(R.indptr, R.indices, seeds, n)
        assert np.array_equal(chain.reachable_from(seeds), np.flatnonzero(reached))
        reaching = _reference_walk(Rt.indptr, Rt.indices, seeds, n)
        assert np.array_equal(chain.can_reach(seeds), reaching)


def test_walks_match_reference_on_a_lattice_chain():
    params = GCSParameters.paper_defaults(num_nodes=12)
    lattice = build_lattice_chain(params, resolve_network(params))
    chain, n = lattice.chain, lattice.num_states
    R, Rt = chain.rates, chain.rates.tocsc()
    start = [lattice.initial_state]
    assert np.array_equal(
        chain.reachable_from(lattice.initial_state),
        np.flatnonzero(_reference_walk(R.indptr, R.indices, start, n)),
    )
    targets = chain.absorbing_states
    assert np.array_equal(
        chain.can_reach(targets), _reference_walk(Rt.indptr, Rt.indices, targets, n)
    )


@pytest.mark.parametrize("bad", [-1, 3, [0, 3]])
def test_walks_reject_out_of_range_states(bad):
    chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ParameterError, match="out of range"):
        chain.reachable_from(bad)
    with pytest.raises(ParameterError, match="out of range"):
        chain.can_reach(bad)
