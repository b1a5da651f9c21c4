"""Per-campaign run manifests.

A :class:`RunManifest` is a small JSON document written next to the
artifacts of a campaign that answers "what exactly produced this file?":
the params digest, git revision, backend, kernel feature flags, phase
timings, cache statistics, errors (with worker-side tracebacks), and a
metrics summary.  The schema is versioned and covered by a stability
test — downstream tooling may rely on the top-level keys.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .metrics import metrics

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "git_revision",
    "kernel_flags",
    "params_digest",
]

MANIFEST_SCHEMA_VERSION = 1

# Environment switches that change which kernels/paths run.  Recorded
# raw (as set) and resolved (what the code will actually do).
_KERNEL_ENV_VARS = (
    "REPRO_KERNEL",
    "REPRO_FUSED_GATHER",
    "REPRO_TRANSIENT_BACKEND",
)


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Best-effort commit sha: $GITHUB_SHA, then ``git rev-parse HEAD``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _env_flag_default_on(name: str) -> bool:
    # Mirrors ``kernels.fused_gather_enabled`` exactly (obs stays
    # import-light, so the resolution is duplicated here).
    return os.environ.get(name, "1").strip().lower() not in ("0", "off", "false")


def _resolved_kernel() -> str:
    # Mirrors ``repro.ctmc.kernels.resolve_kernel`` without importing
    # the solver stack: REPRO_KERNEL beats the legacy fused switch, and
    # a numba request degrades to fused when numba isn't installed
    # (checked via find_spec so obs never actually imports numba).
    # Best-effort: a jit *failure* at solve time isn't visible here.
    requested = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if requested not in ("numba", "fused", "numpy"):
        requested = (
            "fused" if _env_flag_default_on("REPRO_FUSED_GATHER") else "numpy"
        )
    if requested == "numba":
        import importlib.util

        if importlib.util.find_spec("numba") is None:
            return "fused"
    return requested


def _resolved_transient_backend() -> str:
    # Mirrors ``repro.ctmc.transient.resolve_transient_backend``:
    # unrecognised values fall back to the default, never raise.
    raw = os.environ.get("REPRO_TRANSIENT_BACKEND", "").strip().lower()
    return raw if raw in ("uniformization", "expm") else "uniformization"


def kernel_flags() -> Dict[str, object]:
    """Raw and resolved kernel/backend switches, plus the raw env."""
    return {
        "kernel": _resolved_kernel(),
        "fused_gather": _env_flag_default_on("REPRO_FUSED_GATHER"),
        "transient_backend": _resolved_transient_backend(),
        "env": {name: os.environ.get(name) for name in _KERNEL_ENV_VARS},
    }


def params_digest(fingerprints: Iterable[str]) -> str:
    """Order-independent SHA-256 over a campaign's request fingerprints."""
    digest = hashlib.sha256()
    for fp in sorted(fingerprints):
        digest.update(fp.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Everything needed to identify and audit one campaign run."""

    command: str
    backend: Optional[str] = None
    params_digest: Optional[str] = None
    git_sha: Optional[str] = None
    kernel_flags: Dict[str, object] = field(default_factory=kernel_flags)
    reports: List[dict] = field(default_factory=list)
    cache_stats: Optional[dict] = None
    errors: List[dict] = field(default_factory=list)
    metrics: Optional[Dict[str, dict]] = None
    created_at: Optional[str] = None
    python: str = field(
        default_factory=lambda: ".".join(str(v) for v in sys.version_info[:3])
    )
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def finalize(self) -> "RunManifest":
        """Fill derived fields (timestamps, git sha, metrics) lazily."""
        if self.created_at is None:
            self.created_at = time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime()
            )
        if self.git_sha is None:
            self.git_sha = git_revision()
        if self.metrics is None:
            self.metrics = metrics().snapshot()
        return self

    def to_dict(self) -> dict:
        """JSON-ready manifest payload."""
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "python": self.python,
            "backend": self.backend,
            "params_digest": self.params_digest,
            "kernel_flags": self.kernel_flags,
            "reports": self.reports,
            "cache_stats": self.cache_stats,
            "errors": self.errors,
            "metrics": self.metrics,
        }

    def write(self, path) -> None:
        """Finalize and write the manifest to ``path`` as indented JSON."""
        self.finalize()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")
