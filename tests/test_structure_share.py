"""Cross-worker lattice-structure sharing: shm lifecycle + .npz fallback.

The contract under test (ISSUE 5 tentpole, second half):

* the ``.npz`` round-trip reproduces a freshly built
  :class:`~repro.core.fastpath.LatticeStructure` **array for array**
  (same names, dtypes, values);
* the shared-memory attach/detach lifecycle leaks nothing: workers
  attach read-only views, the parent unlinks after the pool, and no
  segment survives a ``vector:2`` / ``--jobs 2`` run;
* every failure path (corrupt cache file, stale schema, missing
  segment, sharing disabled) degrades to a local rebuild, never an
  error;
* the engine plumbing (``make_runner`` / ``--structure-cache``) maps
  the CLI grammar onto :class:`~repro.engine.StructureShareConfig`.
"""

import glob
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import structshare as ss
from repro.core.fastpath import (
    clear_structure_cache,
    lattice_structure,
    peek_structure_cache,
    seed_structure_cache,
)
from repro.engine import (
    BatchRunner,
    EvalRequest,
    ProcessPoolBackend,
    StructureShareConfig,
    VectorBackend,
    make_backend,
)
from repro.engine.batch import make_runner
from repro.engine.executor import _shareable_sizes
from repro.params import GCSParameters

N_TEST = 14

#: The per-point prepare's index spaces (schema 2).
INDEX_SPACES = ("pair_t", "pair_u", "pair_of_state", "rate_gather")


def _fresh_structure(n):
    """A structure built from scratch, bypassing the process cache."""
    clear_structure_cache()
    structure = lattice_structure(n)
    clear_structure_cache()
    return structure


def _assert_structures_equal(a, b):
    arrays_a = ss.structure_to_arrays(a)
    arrays_b = ss.structure_to_arrays(b)
    assert arrays_a.keys() == arrays_b.keys()
    for name in arrays_a:
        assert arrays_a[name].dtype == arrays_b[name].dtype, name
        assert np.array_equal(arrays_a[name], arrays_b[name]), name
    # level_states is reconstructed from the fused plan — check it too.
    assert len(a.dag.structure.level_states) == len(b.dag.structure.level_states)
    for la, lb in zip(a.dag.structure.level_states, b.dag.structure.level_states):
        assert np.array_equal(la, lb)


# ---------------------------------------------------------------------------
# .npz fallback round-trip
# ---------------------------------------------------------------------------

class TestNpzRoundTrip:
    def test_round_trip_equals_fresh_build(self, tmp_path):
        structure = _fresh_structure(N_TEST)
        path = ss.save_structure(
            ss.structure_cache_path(N_TEST, tmp_path), structure
        )
        loaded = ss.load_structure(path)
        _assert_structures_equal(structure, loaded)
        assert set(INDEX_SPACES) <= set(ss.structure_to_arrays(loaded))
        # Loaded arrays are frozen like locally built ones.
        assert not loaded.t.flags.writeable
        assert not loaded.dag.lvl_ell_slots.flags.writeable
        for name in INDEX_SPACES:
            assert not getattr(loaded, name).flags.writeable, name

    def test_cached_structure_builds_then_loads(self, tmp_path):
        clear_structure_cache()
        built = ss.cached_structure(N_TEST, tmp_path)
        assert ss.structure_cache_path(N_TEST, tmp_path).exists()
        clear_structure_cache()
        loaded = ss.cached_structure(N_TEST, tmp_path)
        _assert_structures_equal(built, loaded)
        # Warm process cache short-circuits the disk read.
        assert ss.cached_structure(N_TEST, tmp_path) is loaded
        clear_structure_cache()

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        path = ss.structure_cache_path(N_TEST, tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz payload")
        clear_structure_cache()
        structure = ss.cached_structure(N_TEST, tmp_path)
        assert structure.num_nodes == N_TEST
        # The miss was repaired: the file now loads.
        clear_structure_cache()
        _assert_structures_equal(structure, ss.load_structure(path))
        clear_structure_cache()

    def test_stale_schema_rejected(self, tmp_path):
        structure = _fresh_structure(N_TEST)
        arrays = dict(ss.structure_to_arrays(structure))
        meta = arrays["meta"].copy()
        meta[0] = ss.STRUCT_SCHEMA_VERSION + 1
        arrays["meta"] = meta
        with pytest.raises(Exception, match="schema"):
            ss.structure_from_arrays(arrays)

    def test_schema_1_cache_file_is_ignored(self, tmp_path):
        # A file written before the prepare index spaces existed: schema
        # 1 and no pair / rate-gather arrays.
        structure = _fresh_structure(N_TEST)
        arrays = {
            name: array
            for name, array in ss.structure_to_arrays(structure).items()
            if name not in INDEX_SPACES
        }
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = 1
        old_path = tmp_path / f"N{N_TEST}.v1.npz"
        np.savez(old_path, **arrays)

        clear_structure_cache()
        built = ss.cached_structure(N_TEST, tmp_path)
        _assert_structures_equal(structure, built)
        assert ss.structure_cache_path(N_TEST, tmp_path).exists()
        assert old_path.exists()  # left alone, never read

        # The same payload under the current name is a miss, rebuilt and
        # rewritten, never loaded into the new layout.
        np.savez(ss.structure_cache_path(N_TEST, tmp_path), **arrays)
        clear_structure_cache()
        rebuilt = ss.cached_structure(N_TEST, tmp_path)
        _assert_structures_equal(structure, rebuilt)
        clear_structure_cache()
        reloaded = ss.load_structure(ss.structure_cache_path(N_TEST, tmp_path))
        _assert_structures_equal(structure, reloaded)
        with pytest.raises(Exception, match="schema"):
            ss.structure_from_arrays(arrays)
        clear_structure_cache()

    def test_cache_path_is_schema_versioned(self, tmp_path):
        path = ss.structure_cache_path(40, tmp_path)
        assert f".v{ss.STRUCT_SCHEMA_VERSION}.npz" in path.name
        assert "N40" in path.name


# ---------------------------------------------------------------------------
# Shared-memory export / attach lifecycle
# ---------------------------------------------------------------------------

def _dev_shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _worker_probe(n: int) -> bool:
    """True iff the worker got the structure without building it."""
    return peek_structure_cache(n) is not None


class TestShmLifecycle:
    def test_export_attach_close(self):
        reference = _fresh_structure(N_TEST)
        handle = ss.export_structures([N_TEST])
        assert handle is not None
        spec = handle.spec
        assert spec.num_nodes == (N_TEST,)
        try:
            if spec.shm_name is None:
                pytest.skip("no shared memory on this platform")
            clear_structure_cache()
            assert ss.attach_structures(spec) == 1
            attached = peek_structure_cache(N_TEST)
            assert attached is not None
            assert not attached.t.flags.writeable
            _assert_structures_equal(reference, attached)
        finally:
            handle.close()
        # close() unlinked the segment: nobody can attach any more.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.shm_name, create=False)
        handle.close()  # idempotent
        clear_structure_cache()

    def test_pool_workers_attach_instead_of_building(self):
        handle = ss.export_structures([N_TEST])
        assert handle is not None
        try:
            with ProcessPoolExecutor(
                max_workers=2,
                initializer=ss.pool_initializer,
                initargs=(handle.spec,),
            ) as pool:
                probes = list(pool.map(_worker_probe, [N_TEST] * 4))
            assert all(probes), probes
        finally:
            handle.close()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
    )
    def test_no_leaked_segments_after_pool_runs(self):
        before = _dev_shm_segments()
        requests = [
            EvalRequest(
                params=GCSParameters.small_test(detection_interval_s=t)
            )
            for t in (15.0, 60.0, 240.0, 960.0)
        ]
        for jobs in ("vector:2", 2):
            batch = BatchRunner(backend=make_backend(jobs)).run(requests)
            batch.report.raise_on_error()
        assert _dev_shm_segments() == before

    def test_export_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRUCTURE_SHARE", "0")
        assert ss.export_structures([N_TEST]) is None

    def test_export_nothing_to_share(self):
        assert ss.export_structures([]) is None

    def test_attach_missing_segment_falls_back(self, tmp_path):
        # A spec whose segment is gone and whose npz dir has the file:
        # the worker still gets the structure (disk layer).
        structure = _fresh_structure(N_TEST)
        ss.save_structure(
            ss.structure_cache_path(N_TEST, tmp_path), structure
        )
        spec = ss.StructureShareSpec(
            num_nodes=(N_TEST,),
            shm_name="psm_repro_gone_segment",
            manifest=((),),
            npz_dir=str(tmp_path),
        )
        clear_structure_cache()
        assert ss.attach_structures(spec) == 1
        _assert_structures_equal(structure, peek_structure_cache(N_TEST))
        clear_structure_cache()

    def test_attach_nothing_available_is_harmless(self):
        spec = ss.StructureShareSpec(
            num_nodes=(N_TEST,), shm_name=None, manifest=(), npz_dir=None
        )
        clear_structure_cache()
        assert ss.attach_structures(spec) == 0
        assert peek_structure_cache(N_TEST) is None


# ---------------------------------------------------------------------------
# Results through shared structures stay identical
# ---------------------------------------------------------------------------

class TestSharedStructureResults:
    GRID = [
        EvalRequest(
            params=GCSParameters.small_test(
                num_voters=m, detection_interval_s=t
            )
        )
        for m in (3, 5)
        for t in (15.0, 60.0)
    ]

    def test_shared_vs_disabled_bit_identical(self, monkeypatch):
        serial = BatchRunner().run(self.GRID)
        serial.report.raise_on_error()
        shared = BatchRunner(backend=make_backend("vector:2")).run(self.GRID)
        shared.report.raise_on_error()
        monkeypatch.setenv("REPRO_STRUCTURE_SHARE", "0")
        rebuilt = BatchRunner(backend=make_backend("vector:2")).run(self.GRID)
        rebuilt.report.raise_on_error()
        for a, b, c in zip(serial.results, shared.results, rebuilt.results):
            assert a.mttsf_s == b.mttsf_s == c.mttsf_s
            assert (
                a.ctotal_hop_bits_s == b.ctotal_hop_bits_s == c.ctotal_hop_bits_s
            )

    def test_npz_layer_through_process_pool(self, tmp_path):
        config = StructureShareConfig(use_shm=False, npz_dir=str(tmp_path))
        backend = ProcessPoolBackend(max_workers=2, structure_share=config)
        batch = BatchRunner(backend=backend).run(self.GRID)
        batch.report.raise_on_error()
        assert ss.structure_cache_path(
            self.GRID[0].params.num_nodes, tmp_path
        ).exists()
        serial = BatchRunner().run(self.GRID)
        for a, b in zip(serial.results, batch.results):
            assert a.mttsf_s == b.mttsf_s


# ---------------------------------------------------------------------------
# Engine / CLI plumbing
# ---------------------------------------------------------------------------

class TestPlumbing:
    def test_shareable_sizes(self):
        fast = EvalRequest(params=GCSParameters.small_test())
        spn = EvalRequest(params=GCSParameters.small_test(), method="spn")
        assert _shareable_sizes([fast]) == (fast.params.num_nodes,)
        assert _shareable_sizes([spn]) == ()
        assert _shareable_sizes([fast, "not-a-request"]) == ()
        assert _shareable_sizes([]) == ()

    def test_make_runner_structure_cache_grammar(self, tmp_path):
        off = make_runner(2, structure_cache="off")
        assert not off.backend.structure_share.enabled

        explicit = make_runner(2, structure_cache=tmp_path / "structs")
        assert explicit.backend.structure_share.npz_dir == str(
            tmp_path / "structs"
        )

        defaulted = make_runner(2, cache_dir=tmp_path / "cache")
        assert defaulted.backend.structure_share.npz_dir == str(
            tmp_path / "cache" / "structures"
        )

        bare = make_runner(2)
        assert bare.backend.structure_share.use_shm
        assert bare.backend.structure_share.npz_dir is None

    def test_serial_backend_uses_disk_layer(self, tmp_path):
        # --structure-cache must not be silently dropped for in-process
        # backends: a serial run persists (and later loads) the skeleton.
        from repro.engine import SerialBackend

        config = StructureShareConfig(use_shm=False, npz_dir=str(tmp_path))
        backend = SerialBackend(structure_share=config)
        batch = BatchRunner(backend=backend).run(
            [EvalRequest(params=GCSParameters.small_test())]
        )
        batch.report.raise_on_error()
        assert ss.structure_cache_path(
            GCSParameters.small_test().num_nodes, tmp_path
        ).exists()

    def test_vector_backend_config_default(self):
        assert VectorBackend().structure_share.enabled
        disabled = VectorBackend(
            structure_share=StructureShareConfig.disabled()
        )
        assert not disabled.structure_share.enabled

    def test_cli_structure_cache_flag(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "sweep",
                "--axis",
                "detection_interval_s=15,60",
                "--n",
                "12",
                "--jobs",
                "vector:2",
                "--structure-cache",
                str(tmp_path / "structs"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "structs").is_dir()
        files = list(Path(tmp_path / "structs").glob("*.npz"))
        assert files, "structure cache dir should hold the N=12 skeleton"

    def test_cli_structure_cache_off(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "sweep",
                "--axis",
                "detection_interval_s=15,60",
                "--n",
                "12",
                "--structure-cache",
                "off",
            ]
        )
        assert rc == 0


# ---------------------------------------------------------------------------
# seed/peek cache surface
# ---------------------------------------------------------------------------

class TestSeedPeek:
    def test_seed_keeps_incumbent(self):
        clear_structure_cache()
        incumbent = lattice_structure(N_TEST)
        other = _fresh_structure(N_TEST)
        seed_structure_cache(incumbent)
        assert other is not incumbent
        seed_structure_cache(other)
        assert peek_structure_cache(N_TEST) is incumbent
        clear_structure_cache()

    def test_peek_without_build(self):
        clear_structure_cache()
        assert peek_structure_cache(N_TEST) is None
