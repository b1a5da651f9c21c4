"""Stable truncated Poisson weights (Fox–Glynn style).

Uniformization expresses the transient distribution of a CTMC as a
Poisson mixture of DTMC powers. The weights ``e^{-λ} λ^k / k!`` underflow
for large ``λ`` when computed naively; following Fox & Glynn (1988) we
compute them in log space around the mode and truncate both tails at a
configurable mass ``ε``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.special import gammaln

from ..errors import ParameterError

__all__ = ["poisson_weights", "poisson_truncation_point"]


def poisson_truncation_point(lam: float, eps: float = 1e-12) -> int:
    """Smallest ``K`` with ``P(Poisson(λ) > K) <= ε`` (conservative).

    Uses the normal approximation with a continuity cushion, then
    verifies/extends by the exact tail recurrence — cheap and safe for
    the λ ranges used here (≲ 1e7).
    """
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    if lam == 0.0:
        return 0
    # Start from mean + z·σ with a generous z for tiny eps.
    z = math.sqrt(max(2.0 * math.log(1.0 / eps), 1.0))
    k = int(lam + z * math.sqrt(lam) + z * z + 10.0)
    # Verify with the exact ratio bound: tail(K) <= pmf(K+1)/(1 - λ/(K+2)).
    while True:
        log_pmf = (k + 1) * math.log(lam) - lam - math.lgamma(k + 2)
        if k + 2 > lam:
            geometric_bound = log_pmf - math.log(1.0 - lam / (k + 2))
            if geometric_bound <= math.log(eps):
                return k
        k = int(k * 1.2) + 10


def poisson_weights(lam: float, eps: float = 1e-12) -> Tuple[int, int, np.ndarray]:
    """Two-sided truncated, renormalised Poisson(λ) pmf.

    Returns ``(left, right, w)`` where ``w[i]`` approximates
    ``P(Poisson(λ) = left + i)``, ``Σ w = 1`` and the discarded tail mass
    is below ``eps`` on each side.
    """
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    if lam == 0.0:
        return 0, 0, np.array([1.0])

    right = poisson_truncation_point(lam, eps / 2.0)
    mode = int(lam)
    # Log-pmf over 0..right, all k in one vectorised log-gamma call.
    ks = np.arange(0, right + 1)
    log_pmf = ks * math.log(lam) - lam - gammaln(ks + 1)
    # Left truncation: drop leading mass below eps/2.
    pmf = np.exp(log_pmf - log_pmf.max())
    pmf_sum = pmf.sum()
    cumulative = np.cumsum(pmf) / pmf_sum
    left_candidates = np.flatnonzero(cumulative >= eps / 2.0)
    left = int(left_candidates[0]) if left_candidates.size else 0
    # Keep the mode even for extreme eps.
    left = min(left, mode)
    w = pmf[left:]
    w = w / w.sum()
    return left, right, w
