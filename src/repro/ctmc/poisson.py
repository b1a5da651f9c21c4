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


def _check_args(lam: float, eps: float) -> None:
    if lam < 0:
        raise ParameterError(f"lam must be >= 0, got {lam}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")


def _conservative_point(lam: float, eps: float) -> Tuple[int, float]:
    """A conservative ``K`` and its bound on ``P(Poisson(λ) > K) <= ε``.

    Starts from the normal approximation with a continuity cushion and
    returns the first ``K`` whose geometric tail bound
    ``pmf(K+1)/(1 − λ/(K+2))`` holds, together with that bound. The
    start already holds for most λ, so ``K`` sits well beyond the point
    where the exact tail falls below ``ε``.
    """
    # Start from mean + z·σ with a generous z for tiny eps.
    z = math.sqrt(max(2.0 * math.log(1.0 / eps), 1.0))
    k = int(lam + z * math.sqrt(lam) + z * z + 10.0)
    while True:
        log_pmf = (k + 1) * math.log(lam) - lam - math.lgamma(k + 2)
        if k + 2 > lam:
            geometric_bound = log_pmf - math.log(1.0 - lam / (k + 2))
            if geometric_bound <= math.log(eps):
                return k, math.exp(geometric_bound)
        k = int(k * 1.2) + 10


def poisson_truncation_point(lam: float, eps: float = 1e-12) -> int:
    """A ``K`` with ``P(Poisson(λ) > K) <= ε``, conservative, not the smallest.

    Uses the normal approximation with a continuity cushion, then
    verifies/extends it by the exact tail's geometric bound — cheap and
    safe for the λ ranges used here (≲ 1e7). :func:`poisson_weights`
    scans up to this point and then cuts its window at the smallest
    certified one.
    """
    _check_args(lam, eps)
    if lam == 0.0:
        return 0
    return _conservative_point(lam, eps)[0]


def poisson_weights(lam: float, eps: float = 1e-12) -> Tuple[int, int, np.ndarray]:
    """Two-sided truncated, renormalised Poisson(λ) pmf.

    Returns ``(left, right, w)`` where ``w[i]`` approximates
    ``P(Poisson(λ) = left + i)``, ``Σ w = 1`` and the discarded tail mass
    is below ``eps / 2`` on each side. The pmf is scanned up to the
    conservative point ``K_c`` of :func:`poisson_truncation_point`;
    ``right`` is then the smallest ``K ≥`` the mode whose dropped mass,
    the scanned suffix above ``K`` plus the geometric bound on
    ``P(X > K_c)``, is at most ``eps / 2``.
    """
    _check_args(lam, eps)
    if lam == 0.0:
        return 0, 0, np.array([1.0])

    scan_end, beyond = _conservative_point(lam, eps / 2.0)
    mode = int(lam)
    # Log-pmf over 0..scan_end, all k in one vectorised log-gamma call.
    ks = np.arange(0, scan_end + 1)
    log_pmf = ks * math.log(lam) - lam - gammaln(ks + 1)
    pmf = np.exp(log_pmf - log_pmf.max())
    pmf_sum = pmf.sum()
    # Left truncation: drop leading mass below eps/2.
    cumulative = np.cumsum(pmf) / pmf_sum
    left_candidates = np.flatnonzero(cumulative >= eps / 2.0)
    left = int(left_candidates[0]) if left_candidates.size else 0
    # Keep the mode even for extreme eps.
    left = min(left, mode)
    # Right truncation: the mass K drops, P(K < X <= K_c) + the bound on
    # P(X > K_c), for K = K_c − 1 down to the mode. It never decreases
    # as K falls, so the K dropping more than eps/2 are the lowest ones.
    dropped = np.cumsum(pmf[:mode:-1]) / pmf_sum + beyond
    right = mode + int(np.count_nonzero(dropped > eps / 2.0))
    w = pmf[left : right + 1]
    w = w / w.sum()
    return left, right, w
