"""Equation 1 (VotingErrorModel): exhaustive oracle, properties, edges."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from repro.errors import ParameterError
from repro.voting import VotingErrorModel
from repro.voting.combinatorics import binomial_tail


def brute_force_eviction_probability(
    pool_good: int,
    pool_bad: int,
    m: int,
    p_err: float,
    bad_votes_against: bool,
) -> float:
    """Independent oracle: enumerate voter subsets and good-voter error
    patterns exhaustively (exponential; keep pools tiny)."""
    pool = [("bad",)] * pool_bad + [("good",)] * pool_good
    m_eff = min(m, len(pool))
    if m_eff == 0:
        return 0.0
    majority = math.ceil(m_eff / 2)
    total = 0.0
    n_subsets = 0
    for subset in itertools.combinations(range(len(pool)), m_eff):
        n_subsets += 1
        n_bad_voters = sum(1 for i in subset if i < pool_bad)
        n_good_voters = m_eff - n_bad_voters
        base_against = n_bad_voters if bad_votes_against else 0
        # Sum over error patterns of the good voters.
        for errs in range(n_good_voters + 1):
            against = base_against + errs
            if against >= majority:
                weight = (
                    math.comb(n_good_voters, errs)
                    * p_err**errs
                    * (1 - p_err) ** (n_good_voters - errs)
                )
                total += weight
    return total / n_subsets


class TestAgainstBruteForce:
    @pytest.mark.parametrize("good,bad", [(4, 0), (3, 2), (2, 3), (5, 1), (1, 4), (6, 2)])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_pfp_matches(self, good, bad, m):
        model = VotingErrorModel(m, host_false_negative=0.05, host_false_positive=0.08)
        ours = model.false_positive_probability(good, bad)
        oracle = brute_force_eviction_probability(good - 1, bad, m, 0.08, True)
        assert ours == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("good,bad", [(4, 1), (3, 2), (2, 3), (0, 4), (5, 2)])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_pfn_matches(self, good, bad, m):
        model = VotingErrorModel(m, host_false_negative=0.05, host_false_positive=0.08)
        ours = model.false_negative_probability(good, bad)
        oracle = 1.0 - brute_force_eviction_probability(good, bad - 1, m, 0.95, False)
        assert ours == pytest.approx(oracle, rel=1e-10, abs=1e-12)


class TestClosedFormSpotChecks:
    def test_all_good_voters_pfp_is_binomial_tail(self):
        # No compromised nodes: Pfp = P(Binom(m, p2) >= ceil(m/2)).
        model = VotingErrorModel(5, 0.01, 0.01)
        pfp = model.false_positive_probability(50, 0)
        ref = sum(
            math.comb(5, k) * 0.01**k * 0.99 ** (5 - k) for k in range(3, 6)
        )
        assert pfp == pytest.approx(ref, rel=1e-12)

    def test_all_good_voters_pfn_is_binomial(self):
        # Single bad target, no other bad nodes: eviction needs >= 3 of 5
        # correct detections (each w.p. 1 - p1).
        model = VotingErrorModel(5, 0.02, 0.01)
        pfn = model.false_negative_probability(50, 1)
        p_detect = 0.98
        ref_evict = sum(
            math.comb(5, k) * p_detect**k * (1 - p_detect) ** (5 - k)
            for k in range(3, 6)
        )
        assert pfn == pytest.approx(1.0 - ref_evict, rel=1e-12)

    def test_colluder_majority_forces_outcomes(self):
        # With overwhelmingly bad pools the colluders control every vote.
        model = VotingErrorModel(3, 0.0, 0.0)
        assert model.false_positive_probability(1, 50) == pytest.approx(1.0, abs=1e-9)
        assert model.false_negative_probability(0, 50) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_host_ids_no_colluders(self):
        model = VotingErrorModel(5, 0.0, 0.0)
        assert model.false_positive_probability(10, 0) == 0.0
        assert model.false_negative_probability(10, 1) == 0.0

    def test_empty_pool_conventions(self):
        model = VotingErrorModel(5, 0.01, 0.01)
        # Lone good target: nobody can vote, never evicted.
        assert model.false_positive_probability(1, 0) == 0.0
        # Lone bad target: nobody can vote, always kept.
        assert model.false_negative_probability(0, 1) == 1.0

    def test_probabilities_tuple(self):
        model = VotingErrorModel(5, 0.01, 0.02)
        pfp, pfn = model.probabilities(10, 2)
        assert pfp == model.false_positive_probability(10, 2)
        assert pfn == model.false_negative_probability(10, 2)
        assert model.probabilities(0, 2)[0] == 0.0
        assert model.probabilities(5, 0)[1] == 0.0
        assert model.false_alarm_probability(10, 2) == pytest.approx(pfp + pfn)


class TestValidation:
    def test_even_voters_rejected(self):
        with pytest.raises(ParameterError):
            VotingErrorModel(4, 0.01, 0.01)

    def test_probability_domains(self):
        with pytest.raises(ParameterError):
            VotingErrorModel(5, 1.2, 0.01)
        with pytest.raises(ParameterError):
            VotingErrorModel(5, 0.01, -0.2)

    def test_target_requirements(self):
        model = VotingErrorModel(3, 0.01, 0.01)
        with pytest.raises(ParameterError):
            model.false_positive_probability(0, 5)
        with pytest.raises(ParameterError):
            model.false_negative_probability(5, 0)
        with pytest.raises(ParameterError):
            model.false_positive_probability(-1, 5)


class TestStructuralProperties:
    def test_more_voters_reduce_false_alarms_without_collusion(self):
        # Paper, Figure 2 discussion: larger m ⇒ smaller Pfp + Pfn
        # (few colluders). Use a healthy group with one bad node.
        alarms = []
        for m in (3, 5, 7, 9):
            model = VotingErrorModel(m, 0.01, 0.01)
            alarms.append(model.false_alarm_probability(80, 1))
        assert alarms == sorted(alarms, reverse=True)

    def test_pfp_increases_with_colluders(self):
        model = VotingErrorModel(5, 0.01, 0.01)
        values = [model.false_positive_probability(50, b) for b in (0, 5, 15, 30)]
        assert values == sorted(values)

    def test_pfn_increases_with_colluders(self):
        model = VotingErrorModel(5, 0.01, 0.01)
        values = [model.false_negative_probability(50, b) for b in (1, 5, 15, 30)]
        assert values == sorted(values)

    def test_table_consistent_with_scalars(self):
        model = VotingErrorModel(3, 0.02, 0.03)
        pfp, pfn = model.table(6)
        assert pfp.shape == (7, 7)
        assert pfp[3, 2] == pytest.approx(model.false_positive_probability(3, 2))
        assert pfn[3, 2] == pytest.approx(model.false_negative_probability(3, 2))
        assert pfp[0, 2] == 0.0  # no good target
        assert pfn[3, 0] == 0.0  # no bad target


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([1, 3, 5, 7, 9]),
    p1=st.floats(min_value=0.0, max_value=1.0),
    p2=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(1, 40),
)
def test_property_table_is_the_corner_of_a_larger_table(m, p1, p2, n):
    # Every cell depends on its own (g, b) alone, so table(N), which the
    # rate fill reads, is the top-left corner of table(2N) byte for byte.
    model = VotingErrorModel(m, p1, p2)
    for small, large in zip(model.table(n), model.table(2 * n)):
        assert small.shape == (n + 1, n + 1)
        assert small.tobytes() == large[: n + 1, : n + 1].tobytes()


def _per_term_eviction_grid(m, pool_good, pool_bad, p_err, bad_votes_against):
    """The eviction grid with one ``gammaln`` call per term of ``log_w``."""
    pool = pool_good + pool_bad
    m_eff = np.minimum(m, pool)
    majority = np.ceil(m_eff / 2.0).astype(np.int64)
    tail = np.zeros((m + 1, m + 2))
    for nn in range(m + 1):
        for kk in range(m + 2):
            tail[nn, kk] = binomial_tail(kk, nn, p_err)
    log_pool_choose = gammaln(pool + 1)
    total = np.zeros(pool.shape, dtype=float)
    for k in range(0, m + 1):
        draws_left = m_eff - k
        valid = (k <= pool_bad) & (draws_left >= 0) & (draws_left <= pool_good)
        with np.errstate(invalid="ignore"):
            log_w = (
                gammaln(pool_bad + 1)
                - gammaln(k + 1)
                - gammaln(np.maximum(pool_bad - k, 0) + 1)
                + gammaln(pool_good + 1)
                - gammaln(np.maximum(draws_left, 0) + 1)
                - gammaln(np.maximum(pool_good - draws_left, 0) + 1)
                - (
                    log_pool_choose
                    - gammaln(np.maximum(m_eff, 0) + 1)
                    - gammaln(np.maximum(pool - m_eff, 0) + 1)
                )
            )
        weight = np.where(valid, np.exp(np.where(valid, log_w, 0.0)), 0.0)
        if bad_votes_against:
            needed = np.clip(majority - k, 0, m + 1)
        else:
            needed = np.clip(majority, 0, m + 1)
        total += weight * tail[np.clip(draws_left, 0, m), needed]
    total[m_eff == 0] = 0.0
    return np.minimum(total, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([1, 3, 5, 7, 9]),
    p1=st.floats(min_value=0.0, max_value=1.0),
    p2=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(1, 40),
)
def test_property_table_matches_per_term_gammaln(m, p1, p2, n):
    # The log-factorial lookup and the hoisted k-invariant terms keep
    # every cell's bytes.
    g, b = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    pfp = _per_term_eviction_grid(m, np.maximum(g - 1, 0), b, p2, True)
    pfp[g < 1] = 0.0
    pfn = 1.0 - _per_term_eviction_grid(m, g, np.maximum(b - 1, 0), 1.0 - p1, False)
    pfn[b < 1] = 0.0
    table_pfp, table_pfn = VotingErrorModel(m, p1, p2)._table_uncached(n)
    assert table_pfp.tobytes() == pfp.tobytes()
    assert table_pfn.tobytes() == pfn.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([1, 3, 5, 7]),
    good=st.integers(1, 30),
    bad=st.integers(0, 30),
    p1=st.floats(min_value=0.0, max_value=0.5),
    p2=st.floats(min_value=0.0, max_value=0.5),
)
def test_property_probabilities_in_unit_interval(m, good, bad, p1, p2):
    model = VotingErrorModel(m, p1, p2)
    pfp, pfn = model.probabilities(good, bad)
    assert 0.0 <= pfp <= 1.0
    assert 0.0 <= pfn <= 1.0


@settings(max_examples=25, deadline=None)
@given(
    good=st.integers(2, 12),
    bad=st.integers(0, 6),
    p2=st.floats(min_value=0.0, max_value=0.3),
)
def test_property_pfp_monotone_in_host_error(good, bad, p2):
    lo = VotingErrorModel(5, 0.01, p2)
    hi = VotingErrorModel(5, 0.01, min(p2 + 0.2, 1.0))
    assert lo.false_positive_probability(good, bad) <= hi.false_positive_probability(
        good, bad
    ) + 1e-12
