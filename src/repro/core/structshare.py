"""Cross-worker sharing of :class:`~repro.core.fastpath.LatticeStructure`.

A ``LatticeStructure`` is a pure function of ``N`` but costs an O(N³)
enumeration to build, and PR 3/PR 4 left it rebuilt from scratch in
every pool worker (``--jobs N`` and the ``--jobs vector:N`` hybrid
spawn fresh processes whose structure caches start empty). This module
closes that follow-up: the structure's immutable arrays are packed once
into a :mod:`multiprocessing.shared_memory` segment by the parent, and
every worker *attaches* read-only views instead of re-enumerating — one
physical copy of the lattice skeleton per machine, near-zero worker
cold-start.

Two layers, used in order:

* **Shared memory** — the parent packs each structure's arrays into one
  segment (:func:`export_structures`); pool initializers call
  :func:`attach_structures` and seed the process-local cache with
  zero-copy views (:func:`repro.core.fastpath.seed_structure_cache`).
  The parent closes *and unlinks* the segment once the pool is done.
* **On-disk ``.npz`` cache** — the cross-platform / fork-unsafe
  fallback (and a cold-start cache in its own right): structures are
  saved under ``<dir>/N<nodes>.v<schema>.npz`` (atomic tmp + rename)
  and loaded instead of rebuilt (:func:`cached_structure`). Workers
  fall back to it when the shared-memory attach fails; the engine
  defaults the directory to ``<cache_dir>/structures`` and the CLI
  exposes it as ``--structure-cache``.

Rebuilding locally is always the last resort, so sharing can never make
a run fail — every failure path degrades to PR 4 behaviour.

``REPRO_STRUCTURE_SHARE=0`` disables both layers (A/B benchmarking).
"""

from __future__ import annotations

import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..ctmc.acyclic import BatchDagStructure, DagStructure
from ..errors import ParameterError
from ..obs import metrics, span
from .fastpath import (
    _KINDS,
    LatticeStructure,
    lattice_structure,
    peek_structure_cache,
    seed_structure_cache,
)

log = logging.getLogger(__name__)

__all__ = [
    "STRUCT_SCHEMA_VERSION",
    "structure_share_enabled",
    "structure_to_arrays",
    "structure_from_arrays",
    "save_structure",
    "load_structure",
    "structure_cache_path",
    "cached_structure",
    "StructureShareSpec",
    "StructureShareHandle",
    "export_structures",
    "attach_structures",
    "pool_initializer",
]

#: Bump whenever the array layout of :class:`LatticeStructure` /
#: :class:`BatchDagStructure` changes; stale cache files and foreign
#: segments then simply miss instead of deserialising garbage.
STRUCT_SCHEMA_VERSION = 2

_SHM_ALIGN = 16


def structure_share_enabled() -> bool:
    """Whether cross-worker structure sharing is enabled (default: yes).

    ``REPRO_STRUCTURE_SHARE=0`` turns both the shared-memory and the
    disk layer off — every worker rebuilds, the PR 4 baseline — for
    A/B benchmarking.
    """
    return os.environ.get("REPRO_STRUCTURE_SHARE", "1").strip().lower() not in (
        "0",
        "off",
        "false",
    )


# ---------------------------------------------------------------------------
# Array (de)serialisation
# ---------------------------------------------------------------------------

def structure_to_arrays(structure: LatticeStructure) -> dict[str, np.ndarray]:
    """Flatten a structure into named arrays (one canonical layout).

    The inverse is :func:`structure_from_arrays`; both the shared-memory
    pack and the ``.npz`` cache serialise exactly this mapping plus the
    scalar header (``meta``). ``level_states`` is not stored — it is
    reconstructed as views of ``dag_lvl_rows`` sliced at
    ``dag_lvl_row_bounds`` (the arrays are equal by construction).
    """
    dag = structure.dag
    arrays: dict[str, np.ndarray] = {
        "meta": np.array(
            [
                STRUCT_SCHEMA_VERSION,
                structure.num_nodes,
                structure.initial_state,
                structure.c1_state,
                dag.width,
            ],
            dtype=np.int64,
        ),
        "t": structure.t,
        "u": structure.u,
        "d": structure.d,
        "state_id": structure.state_id,
        "c2_states": structure.c2_states,
        "depletion_states": structure.depletion_states,
        "indptr": structure.indptr,
        "indices": structure.indices,
        "pair_t": structure.pair_t,
        "pair_u": structure.pair_u,
        "pair_of_state": structure.pair_of_state,
        "rate_gather": structure.rate_gather,
        "dag_slot_rows": dag.slot_rows,
        "dag_levels": dag.structure.levels,
        "dag_ell_cols": dag.ell_cols,
        "dag_ell_slots": dag.ell_slots,
        "dag_ell_pad": dag.ell_pad,
        "dag_lvl_rows": dag.lvl_rows,
        "dag_lvl_row_bounds": dag.lvl_row_bounds,
        "dag_lvl_ell_slots": dag.lvl_ell_slots,
        "dag_lvl_ell_cols": dag.lvl_ell_cols,
    }
    for kind in _KINDS:
        arrays[f"mask_{kind}"] = structure.masks[kind]
        arrays[f"src_{kind}"] = structure.src[kind]
        arrays[f"dst_{kind}"] = structure.dst[kind]
        arrays[f"slot_{kind}"] = structure.slots[kind]
    return arrays


def structure_from_arrays(
    arrays: Mapping[str, np.ndarray]
) -> LatticeStructure:
    """Rebuild a (frozen) structure from :func:`structure_to_arrays` output.

    Every array is frozen (``writeable=False``) — shared-memory views
    and cache loads alike must be immutable, exactly like the arrays a
    locally built structure hands out.
    """
    meta = np.asarray(arrays["meta"], dtype=np.int64)
    if meta.shape != (5,) or int(meta[0]) != STRUCT_SCHEMA_VERSION:
        raise ParameterError(
            f"structure payload has schema {meta[0] if meta.size else '?'}, "
            f"expected {STRUCT_SCHEMA_VERSION}"
        )
    _, num_nodes, initial_state, c1_state, width = (int(v) for v in meta)

    def arr(name: str) -> np.ndarray:
        a = arrays[name]
        a.setflags(write=False)
        return a

    lvl_rows = arr("dag_lvl_rows")
    bounds = arr("dag_lvl_row_bounds")
    level_states = [
        lvl_rows[bounds[L] : bounds[L + 1]] for L in range(bounds.size - 1)
    ]
    dag = BatchDagStructure(
        indptr=arr("indptr"),
        indices=arr("indices"),
        slot_rows=arr("dag_slot_rows"),
        structure=DagStructure(levels=arr("dag_levels"), level_states=level_states),
        ell_cols=arr("dag_ell_cols"),
        ell_slots=arr("dag_ell_slots"),
        ell_pad=arr("dag_ell_pad"),
        width=width,
        lvl_rows=lvl_rows,
        lvl_row_bounds=bounds,
        lvl_ell_slots=arr("dag_lvl_ell_slots"),
        lvl_ell_cols=arr("dag_lvl_ell_cols"),
    )
    return LatticeStructure(
        num_nodes=num_nodes,
        t=arr("t"),
        u=arr("u"),
        d=arr("d"),
        state_id=arr("state_id"),
        initial_state=initial_state,
        c1_state=c1_state,
        c2_states=arr("c2_states"),
        depletion_states=arr("depletion_states"),
        masks={kind: arr(f"mask_{kind}") for kind in _KINDS},
        src={kind: arr(f"src_{kind}") for kind in _KINDS},
        dst={kind: arr(f"dst_{kind}") for kind in _KINDS},
        slots={kind: arr(f"slot_{kind}") for kind in _KINDS},
        indptr=arr("indptr"),
        indices=arr("indices"),
        dag=dag,
        pair_t=arr("pair_t"),
        pair_u=arr("pair_u"),
        pair_of_state=arr("pair_of_state"),
        rate_gather=arr("rate_gather"),
    )


# ---------------------------------------------------------------------------
# On-disk .npz cache (fork-unsafe / cross-platform fallback)
# ---------------------------------------------------------------------------

def structure_cache_path(num_nodes: int, cache_dir: "str | Path") -> Path:
    """Cache file for ``num_nodes`` under ``cache_dir`` (schema-versioned)."""
    return Path(cache_dir) / f"N{int(num_nodes)}.v{STRUCT_SCHEMA_VERSION}.npz"


def save_structure(path: "str | Path", structure: LatticeStructure) -> Path:
    """Write a structure to ``path`` atomically (tmp + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **structure_to_arrays(structure))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_structure(path: "str | Path") -> LatticeStructure:
    """Load a structure saved by :func:`save_structure`."""
    with span("structshare.npz_load", path=str(path)):
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        structure = structure_from_arrays(arrays)
    metrics().counter("structshare.npz_loads").add()
    return structure


def cached_structure(
    num_nodes: int, cache_dir: "str | Path | None"
) -> LatticeStructure:
    """Load-or-build-and-save through the on-disk cache.

    A corrupt or stale-schema file is treated as a miss and rewritten;
    with ``cache_dir=None`` this is just :func:`lattice_structure`.
    The result is also seeded into the process-wide cache, so repeated
    lookups stay O(1).
    """
    if cache_dir is None:
        return lattice_structure(num_nodes)
    path = structure_cache_path(num_nodes, cache_dir)
    cached = peek_structure_cache(num_nodes)
    if cached is not None:
        if not path.exists():
            # Built before the cache dir was configured: persist it so
            # pool workers (and later cold processes) can load it.
            try:
                save_structure(path, cached)
            except OSError:
                pass
        return cached
    if path.exists():
        try:
            structure = load_structure(path)
        except Exception:  # noqa: BLE001 — any corrupt payload is a miss
            structure = None
        if structure is not None and structure.num_nodes == int(num_nodes):
            seed_structure_cache(structure)
            return structure
    structure = lattice_structure(num_nodes)
    try:
        save_structure(path, structure)
    except OSError:
        pass  # read-only cache dir: the build still served the caller
    return structure


# ---------------------------------------------------------------------------
# Shared-memory export / attach
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureShareSpec:
    """Picklable recipe a pool worker uses to acquire shared structures.

    ``manifest`` holds, per structure, the entries
    ``(name, dtype_str, shape, offset)`` describing where each array
    lives in the segment; ``shm_name=None`` means shared memory was
    unavailable and workers should go straight to the ``.npz`` layer
    (or rebuild).
    """

    num_nodes: tuple[int, ...]
    shm_name: Optional[str] = None
    manifest: tuple[tuple[tuple[str, str, tuple[int, ...], int], ...], ...] = ()
    npz_dir: Optional[str] = None


class StructureShareHandle:
    """Parent-side owner of an exported segment (close + unlink once)."""

    def __init__(self, spec: StructureShareSpec, shm=None) -> None:
        self.spec = spec
        self._shm = shm

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def __enter__(self) -> "StructureShareHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _pack_into_shm(structures: Sequence[LatticeStructure]):
    """Create one segment holding every structure; return (shm, manifest)."""
    from multiprocessing import shared_memory

    plans = []
    offset = 0
    for structure in structures:
        entries = []
        for name, array in structure_to_arrays(structure).items():
            array = np.ascontiguousarray(array)
            entries.append((name, array.dtype.str, array.shape, offset, array))
            offset += array.nbytes
            offset += (-offset) % _SHM_ALIGN
        plans.append(entries)

    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        manifest = []
        for entries in plans:
            described = []
            for name, dtype, shape, off, array in entries:
                view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
                view[...] = array
                described.append((name, dtype, tuple(shape), off))
            manifest.append(tuple(described))
        del view  # release the exported buffer before any close()
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return shm, tuple(manifest)


def _attach_shm(name: str):
    """Attach to a named segment without disturbing its tracking.

    On 3.13+ ``track=False`` skips the resource tracker entirely. On
    earlier Pythons the attach re-registers the name — harmless here,
    because pool workers share the exporting parent's tracker process
    (its name cache is a set, so the duplicate registration is a
    no-op and the parent's explicit ``unlink()`` still unregisters the
    one entry). Do *not* "fix" this with ``resource_tracker.unregister``
    after attaching: with a shared tracker that cancels the parent's
    registration and corrupts unlink-time accounting.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name, create=False)


#: Segments this process has attached: the buffers back live structure
#: arrays, so the SharedMemory objects must stay referenced for the
#: worker's lifetime (the OS reclaims the mapping when it exits).
_ATTACHED_SEGMENTS: list = []


def export_structures(
    num_nodes: Iterable[int],
    *,
    npz_dir: "str | Path | None" = None,
    use_shm: bool = True,
) -> Optional[StructureShareHandle]:
    """Build (or disk-load) structures and export them for pool workers.

    Returns ``None`` when there is nothing to share (no sizes, sharing
    disabled via ``REPRO_STRUCTURE_SHARE=0``, or neither layer is
    available) — callers then simply run workers without an
    initializer, i.e. the PR 4 rebuild-per-worker behaviour.
    """
    sizes = tuple(sorted({int(n) for n in num_nodes}))
    if not sizes or not structure_share_enabled():
        return None
    with span("structshare.export", sizes=list(sizes), shm=use_shm):
        structures = [cached_structure(n, npz_dir) for n in sizes]
        shm = None
        manifest: tuple = ()
        if use_shm:
            try:
                shm, manifest = _pack_into_shm(structures)
            except Exception:  # noqa: BLE001 — no shm on this platform/sandbox
                shm, manifest = None, ()
                log.debug("shared-memory export unavailable; npz layer only")
        if shm is None and npz_dir is None:
            return None
        spec = StructureShareSpec(
            num_nodes=sizes,
            shm_name=shm.name if shm is not None else None,
            manifest=manifest,
            npz_dir=str(npz_dir) if npz_dir is not None else None,
        )
    metrics().counter("structshare.exports").add()
    return StructureShareHandle(spec, shm)


def attach_structures(spec: StructureShareSpec) -> int:
    """Acquire the shared structures in this process; returns how many.

    Tries the shared-memory segment first (zero-copy views), then the
    ``.npz`` cache, and silently gives up per structure otherwise — the
    worker will rebuild lazily, which is always correct.
    """
    attached = 0
    views_by_index: dict[int, dict[str, np.ndarray]] = {}
    with span("structshare.attach", sizes=list(spec.num_nodes)) as sp:
        if spec.shm_name is not None:
            try:
                shm = _attach_shm(spec.shm_name)
            except Exception:  # noqa: BLE001 — segment gone / platform quirk
                shm = None
            if shm is not None:
                _ATTACHED_SEGMENTS.append(shm)
                for i, entries in enumerate(spec.manifest):
                    views_by_index[i] = {
                        name: np.ndarray(
                            shape, dtype=dtype, buffer=shm.buf, offset=offset
                        )
                        for name, dtype, shape, offset in entries
                    }
        for i, n in enumerate(spec.num_nodes):
            structure = None
            if i in views_by_index:
                try:
                    structure = structure_from_arrays(views_by_index[i])
                except Exception:  # noqa: BLE001 — foreign/corrupt payload
                    structure = None
            if structure is None and spec.npz_dir is not None:
                try:
                    structure = load_structure(
                        structure_cache_path(n, spec.npz_dir)
                    )
                except Exception:  # noqa: BLE001 — missing/corrupt cache file
                    structure = None
            if structure is not None and structure.num_nodes == n:
                seed_structure_cache(structure)
                attached += 1
        sp.set(attached=attached)
    metrics().counter("structshare.attaches").add(attached)
    if attached < len(spec.num_nodes):
        log.debug(
            "attached %d of %d shared structures (rest rebuild lazily)",
            attached,
            len(spec.num_nodes),
        )
    return attached


def pool_initializer(spec: StructureShareSpec) -> None:
    """Worker initializer: best-effort attach, never fails the worker."""
    try:
        attach_structures(spec)
    except Exception:  # noqa: BLE001 — sharing must never break evaluation
        pass
