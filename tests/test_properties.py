"""Property-based solver invariants (hypothesis).

Where the differential tests pin *equivalence* between solver paths,
these pin the *invariants* every path must satisfy on randomly
generated chains and parameters:

* transient distributions are probability vectors at every time point
  (non-negative, sum to one, finite) — per-point and batched;
* absorption CDFs are monotone non-decreasing in ``t`` and confined to
  ``[0, 1]``;
* :func:`repro.ctmc.acyclic.solve_dag_batch` is permutation-invariant
  over point order (bit-identical, not approximately);
* voting-combinatorics probabilities always land in ``[0, 1]``.

The CI coverage job runs these under the fixed-seed ``ci`` hypothesis
profile (see ``tests/conftest.py``), so a red run reproduces locally
with ``HYPOTHESIS_PROFILE=ci``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import (
    CTMC,
    absorption_cdf,
    absorption_cdf_batch,
    batch_dag_structure,
    solve_dag_batch,
    transient_distribution,
    transient_distribution_batch,
)
from repro.voting.combinatorics import (
    binomial_pmf,
    binomial_tail,
    hypergeometric_pmf,
)
from repro.voting.majority import VotingErrorModel

TOL = 1e-9


def _random_chain(seed: int, *, cyclic: bool, n_min=2, n_max=12) -> CTMC:
    """Deterministic random chain from one integer seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n if cyclic else i):
            if i != j and rng.random() < 0.35:
                rows.append(i)
                cols.append(j)
                vals.append(float(rng.uniform(1e-3, 5.0)))
    return CTMC(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def _stacked_values(chain: CTMC, seed: int, num_points: int) -> np.ndarray:
    """Per-point rate fills over the chain's pattern, some rates zeroed."""
    rng = np.random.default_rng(seed + 1)
    scales = rng.uniform(0.2, 4.0, size=(num_points, 1))
    values = chain.rates.data[None, :] * scales
    zero_mask = rng.random(values.shape) < 0.15
    values[zero_mask] = 0.0
    return values


times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    min_size=1,
    max_size=4,
    unique=True,
).map(sorted)


class TestTransientIsProbabilityVector:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), times=times_strategy)
    def test_per_point(self, seed, times):
        chain = _random_chain(seed, cyclic=True)
        dist = np.atleast_2d(transient_distribution(chain, times, 0))
        assert np.all(np.isfinite(dist))
        assert np.all(dist >= 0.0)
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=TOL)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_points=st.integers(1, 4),
        times=times_strategy,
    )
    def test_batched(self, seed, num_points, times):
        chain = _random_chain(seed, cyclic=True)
        R = chain.rates
        values = _stacked_values(chain, seed, num_points)
        dist = transient_distribution_batch(R.indptr, R.indices, values, times, 0)
        assert dist.shape == (num_points, len(times), chain.num_states)
        assert np.all(np.isfinite(dist))
        assert np.all(dist >= 0.0)
        np.testing.assert_allclose(dist.sum(axis=2), 1.0, atol=TOL)


class TestAbsorptionCdfMonotone:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), times=times_strategy)
    def test_per_point(self, seed, times):
        chain = _random_chain(seed, cyclic=False, n_min=3)
        cdf = absorption_cdf(chain, times, chain.num_states - 1)
        for curve in cdf.values():
            assert np.all(curve >= -TOL)
            assert np.all(curve <= 1.0 + TOL)
        assert np.all(np.diff(cdf["any"]) >= -TOL)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_points=st.integers(1, 4),
        times=times_strategy,
    )
    def test_batched(self, seed, num_points, times):
        chain = _random_chain(seed, cyclic=False, n_min=3)
        R = chain.rates
        values = _stacked_values(chain, seed, num_points)
        cdf = absorption_cdf_batch(
            R.indptr, R.indices, values, times, chain.num_states - 1
        )
        assert np.all(cdf["any"] >= -TOL)
        assert np.all(cdf["any"] <= 1.0 + TOL)
        assert np.all(np.diff(cdf["any"], axis=1) >= -TOL)


class TestSolveDagBatchPermutationInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_points=st.integers(2, 6),
        num_cols=st.integers(1, 3),
    )
    def test_point_order_is_irrelevant(self, seed, num_points, num_cols):
        chain = _random_chain(seed, cyclic=False, n_min=3)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        n = chain.num_states
        values = _stacked_values(chain, seed, num_points)
        rng = np.random.default_rng(seed + 2)
        numer = rng.uniform(0.0, 1.0, size=(n, num_points, num_cols))
        boundary = np.zeros((n, num_cols))
        boundary[chain.absorbing_states, 0] = 1.0

        def slot_major(fills):
            return np.concatenate([fills.T, np.zeros((1, fills.shape[0]))])

        x = solve_dag_batch(
            shared, slot_major(values), numer.transpose(2, 0, 1), boundary
        )
        perm = rng.permutation(num_points)
        x_perm = solve_dag_batch(
            shared,
            slot_major(values[perm]),
            numer[:, perm].transpose(2, 0, 1),
            boundary,
        )
        # Bit-identical, not merely close: per-point arithmetic never
        # mixes points, which is exactly what makes the vector+procs
        # chunk fan-out byte-identical to sequential solving.
        assert np.array_equal(x_perm, x[:, :, perm])


class TestVotingProbabilitiesInUnitInterval:
    @settings(max_examples=50, deadline=None)
    @given(
        k=st.integers(-2, 20),
        n=st.integers(0, 18),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_binomial(self, k, n, p):
        assert 0.0 <= binomial_pmf(k, n, p) <= 1.0
        assert 0.0 <= binomial_tail(k, n, p) <= 1.0 + TOL

    @settings(max_examples=50, deadline=None)
    @given(
        k=st.integers(0, 12),
        good=st.integers(0, 12),
        bad=st.integers(0, 12),
        draws=st.integers(0, 12),
    )
    def test_hypergeometric(self, k, good, bad, draws):
        if draws > good + bad:
            return  # outside the support contract
        assert 0.0 <= hypergeometric_pmf(k, good, bad, draws) <= 1.0 + TOL

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.sampled_from((1, 3, 5, 7, 9)),
        p1=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        p2=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_nodes=st.integers(1, 16),
    )
    def test_error_model_table(self, m, p1, p2, max_nodes):
        model = VotingErrorModel(
            num_voters=m, host_false_negative=p1, host_false_positive=p2
        )
        pfp, pfn = model.table(max_nodes)
        for table in (pfp, pfn):
            assert np.all(np.isfinite(table))
            assert np.all(table >= -TOL)
            assert np.all(table <= 1.0 + TOL)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
