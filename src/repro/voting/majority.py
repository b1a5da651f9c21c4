"""The paper's Equation 1: voting-level ``Pfp`` / ``Pfn``.

Model (Section 4.1 of the paper):

* A target node is evaluated by ``m`` vote-participants drawn uniformly
  without replacement from the other live members of the group.
* A *compromised* voter colludes deterministically: it votes **against**
  a good target (to evict healthy nodes) and **for** a bad target (to
  keep compromised peers).
* A *good* voter applies its host IDS: against a good target it votes
  against with the per-node false-positive probability ``p2``; against a
  bad target it votes against with probability ``1 - p1`` (``p1`` is the
  per-node false-negative probability).
* The target is evicted iff at least ``N_majority = ⌈m/2⌉`` of the
  voters vote against it.

``Pfp`` is the eviction probability of a good target; ``Pfn`` is the
*retention* probability of a bad target. Conditioning on the number of
compromised voters ``K`` (hypergeometric in the current group mix) and
summing binomial tails for the good voters' errors yields the closed
form — an explicit, numerically stable restatement of the paper's
garbled-in-PDF Equation 1.

When fewer than ``m`` candidate voters exist (tiny or shrunken groups)
all available members vote; the majority threshold scales as
``⌈m_eff/2⌉``. With *no* candidate voters, no vote can be held:
``Pfp = 0`` and ``Pfn = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np
from scipy.special import gammaln

from ..errors import ParameterError
from ..validation import require_non_negative_int, require_odd, require_probability
from .combinatorics import binomial_tail, hypergeometric_pmf

__all__ = ["VotingErrorModel", "clear_table_cache"]


@dataclass(frozen=True)
class VotingErrorModel:
    """Closed-form voting error probabilities (Equation 1).

    Parameters
    ----------
    num_voters:
        ``m``, the number of vote-participants (odd).
    host_false_negative:
        ``p1`` — a good voter misses a bad target with this probability.
    host_false_positive:
        ``p2`` — a good voter flags a good target with this probability.
    """

    num_voters: int
    host_false_negative: float
    host_false_positive: float

    def __post_init__(self) -> None:
        require_odd("num_voters", self.num_voters)
        require_probability("host_false_negative", self.host_false_negative)
        require_probability("host_false_positive", self.host_false_positive)

    # ------------------------------------------------------------------
    # Scalar probabilities
    # ------------------------------------------------------------------
    def false_positive_probability(self, n_good: int, n_bad: int) -> float:
        """``Pfp``: probability a *good* target is evicted.

        ``n_good`` / ``n_bad`` are the current counts of trusted and
        compromised-undetected members (the paper's ``mark(Tm)`` and
        ``mark(UCm)``); the target is one of the good members, so the
        candidate-voter pool holds ``n_good - 1`` good and ``n_bad`` bad
        nodes.
        """
        require_non_negative_int("n_good", n_good)
        require_non_negative_int("n_bad", n_bad)
        if n_good < 1:
            raise ParameterError("false_positive_probability needs a good target (n_good >= 1)")
        return self._cached(n_good - 1, n_bad, self.host_false_positive, True)

    def false_negative_probability(self, n_good: int, n_bad: int) -> float:
        """``Pfn``: probability a *bad* target survives the vote.

        The target is one of the bad members, so the candidate pool
        holds ``n_good`` good and ``n_bad - 1`` bad nodes.
        """
        require_non_negative_int("n_good", n_good)
        require_non_negative_int("n_bad", n_bad)
        if n_bad < 1:
            raise ParameterError("false_negative_probability needs a bad target (n_bad >= 1)")
        return 1.0 - self._cached(n_good, n_bad - 1, 1.0 - self.host_false_negative, False)

    def probabilities(self, n_good: int, n_bad: int) -> Tuple[float, float]:
        """``(Pfp, Pfn)`` for the current group mix.

        Degenerate mixes are handled conservatively: with no good member
        there is no good target (``Pfp = 0``); with no bad member there
        is no bad target (``Pfn = 0``).
        """
        pfp = self.false_positive_probability(n_good, n_bad) if n_good >= 1 else 0.0
        pfn = self.false_negative_probability(n_good, n_bad) if n_bad >= 1 else 0.0
        return pfp, pfn

    # ------------------------------------------------------------------
    # Core computation
    # ------------------------------------------------------------------
    @lru_cache(maxsize=65536)
    def _cached(
        self, pool_good: int, pool_bad: int, p_err: float, bad_votes_against: bool
    ) -> float:
        """``P(#against >= ⌈m_eff/2⌉)`` for a voter pool of the given mix.

        ``p_err`` is the probability a *good* voter votes against the
        target; ``bad_votes_against`` states which way colluders vote
        (True for a good target, False for a bad target).
        """
        pool = pool_good + pool_bad
        m_eff = min(self.num_voters, pool)
        if m_eff == 0:
            return 0.0
        majority = math.ceil(m_eff / 2)
        total = 0.0
        for k in range(0, min(m_eff, pool_bad) + 1):
            weight = hypergeometric_pmf(k, pool_good, pool_bad, m_eff)
            if weight == 0.0:
                continue
            good_voters = m_eff - k
            if bad_votes_against:
                needed = majority - k  # k colluders already voted against
            else:
                needed = majority  # colluders vote "keep"; good voters must carry it
            total += weight * binomial_tail(needed, good_voters, p_err)
        return min(total, 1.0)

    # ------------------------------------------------------------------
    # Vectorised table for model evaluation
    # ------------------------------------------------------------------
    def table(self, max_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(Pfp, Pfn)`` lookup tables over all group mixes.

        Entry ``[g, b]`` covers ``n_good = g``, ``n_bad = b`` for all
        ``g, b <= max_nodes``; cells outside the support (no valid
        target) hold 0. Computed fully vectorised (``gammaln``-based
        hypergeometric weights × a tiny binomial-tail lookup), because
        the fast model pipeline evaluates ~(2N)² cells per scenario;
        element-wise equality with the scalar methods is a test.

        Memoised process-wide on ``(m, p1, p2, max_nodes)``: the table
        is rate-free apart from these four scalars, and a batched sweep
        re-requests the same handful of tables for every grid point —
        recomputation used to dominate the whole batched solve. The
        cached arrays are read-only; callers index, never mutate.
        """
        return _table_cached(
            self.num_voters,
            self.host_false_negative,
            self.host_false_positive,
            max_nodes,
        )

    def _table_uncached(self, max_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
        require_non_negative_int("max_nodes", max_nodes)
        n = max_nodes
        g_grid, b_grid = np.meshgrid(
            np.arange(n + 1), np.arange(n + 1), indexing="ij"
        )
        # Pfp: good target -> pool (g-1 good, b bad), colluders against.
        pfp = self._eviction_probability_grid(
            np.maximum(g_grid - 1, 0), b_grid, self.host_false_positive, True
        )
        pfp[g_grid < 1] = 0.0
        # Pfn: bad target -> pool (g good, b-1 bad), colluders for;
        # eviction needs good voters correct w.p. 1 - p1.
        evict = self._eviction_probability_grid(
            g_grid, np.maximum(b_grid - 1, 0), 1.0 - self.host_false_negative, False
        )
        pfn = 1.0 - evict
        pfn[b_grid < 1] = 0.0
        return pfp, pfn

    def _eviction_probability_grid(
        self,
        pool_good: np.ndarray,
        pool_bad: np.ndarray,
        p_err: float,
        bad_votes_against: bool,
    ) -> np.ndarray:
        """Vectorised counterpart of :meth:`_cached` over count grids."""
        m = self.num_voters
        pool = pool_good + pool_bad
        m_eff = np.minimum(m, pool)
        majority = np.ceil(m_eff / 2.0).astype(np.int64)

        # Tiny binomial upper-tail lookup: tail[nn, kk] = P(Bin(nn,p)>=kk).
        tail = np.zeros((m + 1, m + 2))
        for nn in range(m + 1):
            for kk in range(m + 2):
                tail[nn, kk] = binomial_tail(kk, nn, p_err)

        # Every log-factorial from one lookup, lgamma[i] = gammaln(i):
        # it reaches pool + m + 1, the largest index a masked-out cell
        # reads. The k-invariant terms of log_w are taken once, and its
        # left-to-right order is kept.
        lgamma = gammaln(np.arange(int(pool.max(initial=0)) + m + 2))
        lgamma_bad = lgamma[pool_bad + 1]
        lgamma_good = lgamma[pool_good + 1]
        log_pool_choose = (
            lgamma[pool + 1]
            - lgamma[np.maximum(m_eff, 0) + 1]
            - lgamma[np.maximum(pool - m_eff, 0) + 1]
        )
        total = np.zeros(pool.shape, dtype=float)
        for k in range(0, m + 1):
            draws_left = m_eff - k
            valid = (k <= pool_bad) & (draws_left >= 0) & (draws_left <= pool_good)
            with np.errstate(invalid="ignore"):
                log_w = (
                    lgamma_bad
                    - lgamma[k + 1]
                    - lgamma[np.maximum(pool_bad - k, 0) + 1]
                    + lgamma_good
                    - lgamma[np.maximum(draws_left, 0) + 1]
                    - lgamma[np.maximum(pool_good - draws_left, 0) + 1]
                    - log_pool_choose
                )
            weight = np.where(valid, np.exp(np.where(valid, log_w, 0.0)), 0.0)
            if bad_votes_against:
                needed = np.clip(majority - k, 0, m + 1)
            else:
                needed = np.clip(majority, 0, m + 1)
            good_voters = np.clip(draws_left, 0, m)
            total += weight * tail[good_voters, needed]
        total[m_eff == 0] = 0.0
        return np.minimum(total, 1.0)

    def false_alarm_probability(self, n_good: int, n_bad: int) -> float:
        """Combined false-alarm measure ``Pfp + Pfn`` the paper uses to
        explain the effect of ``m`` (Figure 2 discussion)."""
        pfp, pfn = self.probabilities(n_good, n_bad)
        return pfp + pfn


@lru_cache(maxsize=64)
def _table_cached(
    num_voters: int,
    host_false_negative: float,
    host_false_positive: float,
    max_nodes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Process-wide memo behind :meth:`VotingErrorModel.table`.

    Keyed by exactly the scalars the table depends on; the arrays are
    frozen (``writeable = False``) so a mutating caller fails loudly
    instead of corrupting every future lookup.
    """
    model = VotingErrorModel(
        num_voters=num_voters,
        host_false_negative=host_false_negative,
        host_false_positive=host_false_positive,
    )
    pfp, pfn = model._table_uncached(max_nodes)
    pfp.setflags(write=False)
    pfn.setflags(write=False)
    return pfp, pfn


def clear_table_cache() -> None:
    """Drop the process-wide table memo (benchmarks, tests).

    Benchmarks that compare two pipelines in one process must clear
    this between timed runs — otherwise the first run warms the memo
    and the second gets its tables for free, biasing the comparison.
    """
    _table_cached.cache_clear()
