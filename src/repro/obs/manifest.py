"""Per-campaign run manifests.

A :class:`RunManifest` is a small JSON document written next to the
artifacts of a campaign that answers "what exactly produced this file?":
the params digest, git revision, backend, phase timings, cache
statistics, errors (with worker-side tracebacks), and a metrics
summary.  The schema is versioned and covered by a stability test —
downstream tooling may rely on the top-level keys.  Version 2 dropped
the kernel-selection key, since the batched solvers have one code path.
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
    "params_digest",
]

MANIFEST_SCHEMA_VERSION = 2


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
