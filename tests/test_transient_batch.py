"""Batched transient survivability: oracle, identity and routing tests.

Uniformization has one implementation, the batched
``transient_distribution_batch`` / ``absorption_cdf_batch``; the
per-chain ``transient_distribution`` / ``absorption_cdf`` and
``evaluate_survivability`` are its one-point calls. These tests check
it against the dense oracle ``π₀ · scipy.linalg.expm(Q·t)`` within
:data:`repro.ctmc.transient.BATCH_EQUIVALENCE_RTOL`, pin with ``==``
that a point's bytes do not depend on its batch mates (so serial,
``vector``, ``vector:N`` and single-point survivability agree exactly
on the paper's fig2/fig4 grids at reduced ``N``), and cover the engine
routing: ``SurvivabilityRequest`` fingerprints, cache hit/miss parity
across backends, the ``SurvivabilitySweep`` job spec, and the
``survivability`` CLI subcommand.
"""

import json
import logging

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cli import main as cli_main
from repro.core.metrics import (
    evaluate_survivability,
    evaluate_survivability_batch,
    evaluate_survivability_batch_outcomes,
)
from repro.ctmc import (
    BATCH_EQUIVALENCE_RTOL,
    CTMC,
    absorption_cdf,
    absorption_cdf_batch,
    transient_distribution,
    transient_distribution_batch,
)
from repro.ctmc.poisson import poisson_weights
from repro.ctmc.transient import csr_row_sums
from repro.engine import (
    BatchRunner,
    EvalRequest,
    ResultCache,
    SerialBackend,
    SurvivabilityRequest,
    SurvivabilitySweep,
    VectorBackend,
    evaluate_request,
    evaluate_survivability_request,
    make_backend,
    result_from_dict,
)
from repro.errors import ParameterError, SolverError
from repro.obs import (
    disable_tracing,
    enable_tracing,
    metrics,
    tracer,
    tracing_enabled,
)
from repro.params import GCSParameters

N_TEST = 12  # lattice size that solves in ms
#: Mission grid sized so Λ·t stays in the low thousands (the lattice's
#: uniformization rate is ~1e3 from the fast small-group rekey states).
TIMES = (0.0, 0.5, 2.0, 5.0)
RTOL = BATCH_EQUIVALENCE_RTOL
ATOL = 1e-12


def _fig2_scenarios(tids=(15.0, 60.0, 240.0)) -> list[GCSParameters]:
    base = GCSParameters.paper_defaults(num_nodes=N_TEST)
    return [
        base.replacing(num_voters=m, detection_interval_s=float(t))
        for m in (3, 5, 7, 9)
        for t in tids
    ]


def _fig4_scenarios(tids=(15.0, 60.0, 240.0)) -> list[GCSParameters]:
    base = GCSParameters.paper_defaults(num_nodes=N_TEST)
    return [
        base.replacing(detection_function=fn, detection_interval_s=float(t))
        for fn in ("logarithmic", "linear", "polynomial")
        for t in tids
    ]


def _assert_curves_equal(result, reference):
    """Every value field equal with ``==``: one algorithm on every path."""
    for field in (
        "times_s",
        "survival",
        "failure_cdf",
        "expected_cost_rate",
        "time_bounded_cost",
        "num_states",
        "solver",
    ):
        assert getattr(result, field) == getattr(reference, field), field


# ---------------------------------------------------------------------------
# transient_distribution_batch / absorption_cdf_batch unit level
# ---------------------------------------------------------------------------

def _random_chain(rng, n=24, density=0.15, cyclic=True):
    """Random rate matrix; strictly lower-triangular when not cyclic."""
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n if cyclic else i):
            if i != j and rng.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(float(rng.uniform(0.1, 2.0)))
    return CTMC(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def _per_point_chain(shared_csr, values_row):
    return CTMC(
        sp.csr_matrix(
            (values_row, shared_csr.indices.copy(), shared_csr.indptr.copy()),
            shape=shared_csr.shape,
        )
    )


def _expm_oracle(chain, times, initial):
    """``π₀ · scipy.linalg.expm(Q·t)`` per time: the dense oracle.

    A different algorithm from uniformization (the idiom of
    ``test_ctmc_transient.expm_oracle``). Returns ``(len(times), n)``.
    """
    import scipy.linalg

    Q = chain.generator().toarray()
    if np.ndim(initial) == 0:
        pi0 = np.zeros(chain.num_states)
        pi0[initial] = 1.0
    else:
        pi0 = np.asarray(initial, dtype=float)
    return np.array([pi0 @ scipy.linalg.expm(Q * t) for t in np.atleast_1d(times)])


class TestTransientBatchUnit:
    def test_cyclic_chain_matches_dense_expm(self):
        rng = np.random.default_rng(7)
        chain = _random_chain(rng, cyclic=True)
        R = chain.rates
        P = 5
        values = np.stack([R.data * s for s in rng.uniform(0.3, 3.0, size=P)])
        times = [0.0, 0.3, 1.0, 4.0]
        batch = transient_distribution_batch(R.indptr, R.indices, values, times, 0)
        for p in range(P):
            chain_p = _per_point_chain(R, values[p])
            oracle = _expm_oracle(chain_p, times, 0)
            np.testing.assert_allclose(batch[p], oracle, rtol=RTOL, atol=ATOL)
            assert np.array_equal(transient_distribution(chain_p, times, 0), batch[p])

    def test_explicit_zeros_match_pruned_chain(self):
        rng = np.random.default_rng(11)
        chain = _random_chain(rng, n=18, density=0.3, cyclic=False)
        R = chain.rates
        values = np.stack([R.data.copy(), R.data * 0.5])
        values[1, rng.random(R.nnz) < 0.3] = 0.0
        times = [0.5, 2.0, 8.0]
        batch = transient_distribution_batch(
            R.indptr, R.indices, values, times, chain.num_states - 1
        )
        for p in range(2):
            ref = transient_distribution(
                _per_point_chain(R, values[p]), times, chain.num_states - 1
            )
            assert np.array_equal(batch[p], ref)

    def test_absorption_cdf_matches_dense_expm(self):
        rng = np.random.default_rng(3)
        chain = _random_chain(rng, n=16, density=0.3, cyclic=False)
        R = chain.rates
        values = np.stack([R.data * s for s in (1.0, 0.4, 2.5)])
        times = [0.5, 2.0, 8.0]
        initial = chain.num_states - 1
        classes = {"zero": [0], "empty": []}
        batch = absorption_cdf_batch(
            R.indptr, R.indices, values, times, initial, classes=classes
        )
        for p in range(3):
            chain_p = _per_point_chain(R, values[p])
            oracle = _expm_oracle(chain_p, times, initial)
            expected = {
                "any": oracle[:, chain_p.absorbing_mask].sum(axis=1),
                "zero": oracle[:, 0],
                "empty": np.zeros(len(times)),
            }
            single = absorption_cdf(chain_p, times, initial, classes=classes)
            for name in ("any", "zero", "empty"):
                np.testing.assert_allclose(
                    batch[name][p], expected[name], rtol=RTOL, atol=ATOL
                )
                assert np.array_equal(single[name], batch[name][p])
            assert np.all(np.diff(batch["any"][p]) >= -ATOL)

    def test_poisson_windows_once_per_distinct_mean(self, monkeypatch):
        # 12 points that differ in every rate but the fastest share one
        # uniformization rate, so 8 mission times need 8 windows, not 96.
        # The fastest state is the initial one, so no stiff state is cut
        # and the call runs one sweep.
        import repro.ctmc.transient as transient_module

        means = []
        real = transient_module.poisson_weights

        def counting(lam, eps):
            means.append(lam)
            return real(lam, eps)

        monkeypatch.setattr(transient_module, "poisson_weights", counting)
        chain = CTMC.from_transitions(
            4, [(3, 2, 40.0), (2, 1, 1.0), (2, 0, 0.25), (1, 0, 0.5)]
        )
        R = chain.rates
        values = np.tile(R.data, (12, 1))
        slow = R.data < 40.0
        values[:, slow] *= np.linspace(0.5, 1.0, 12)[:, None]
        times = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]
        batch = transient_distribution_batch(R.indptr, R.indices, values, times, 3)
        assert len(means) == len(set(means)) == 8
        for p in (0, 11):
            chain_p = _per_point_chain(R, values[p])
            oracle = _expm_oracle(chain_p, times, 3)
            np.testing.assert_allclose(batch[p], oracle, rtol=RTOL, atol=ATOL)
            assert np.array_equal(transient_distribution(chain_p, times, 3), batch[p])

    def test_scalar_times_shape(self):
        chain = CTMC.from_transitions(3, [(2, 1, 1.0), (1, 0, 0.5)])
        R = chain.rates
        values = R.data[None, :]
        dist = transient_distribution_batch(R.indptr, R.indices, values, 0.7, 2)
        assert dist.shape == (1, 3)
        oracle = _expm_oracle(chain, 0.7, 2)[0]
        np.testing.assert_allclose(dist[0], oracle, rtol=RTOL, atol=ATOL)
        single = transient_distribution(chain, 0.7, 2)
        assert single.shape == (3,)
        assert np.array_equal(single, dist[0])

    def test_empty_batch_shapes(self):
        # The scalar-squeeze epilogue must apply to empty batches too,
        # so chunked callers can concatenate without rank mismatches.
        chain = CTMC.from_transitions(3, [(2, 1, 1.0)])
        R = chain.rates
        empty = np.empty((0, R.nnz))
        scalar = transient_distribution_batch(R.indptr, R.indices, empty, 2.0)
        assert scalar.shape == (0, 3)
        grid = transient_distribution_batch(R.indptr, R.indices, empty, [1.0, 2.0])
        assert grid.shape == (0, 2, 3)

    def test_time_zero_is_initial(self):
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)])
        R = chain.rates
        dist = transient_distribution_batch(
            R.indptr, R.indices, R.data[None, :], [0.0], 0
        )
        np.testing.assert_allclose(dist[0, 0], [1.0, 0.0, 0.0])

    def test_shared_initial_distribution_broadcasts(self):
        chain = CTMC.from_transitions(3, [(2, 1, 1.0), (1, 0, 0.5)])
        R = chain.rates
        values = np.stack([R.data, R.data * 2.0])
        pi0 = np.array([0.2, 0.3, 0.5])
        batch = transient_distribution_batch(
            R.indptr, R.indices, values, [1.0], pi0
        )
        for p in range(2):
            chain_p = _per_point_chain(R, values[p])
            oracle = _expm_oracle(chain_p, [1.0], pi0)
            np.testing.assert_allclose(batch[p], oracle, rtol=RTOL, atol=ATOL)
            assert np.array_equal(
                transient_distribution(chain_p, [1.0], pi0), batch[p]
            )

    def test_validation_errors(self):
        chain = CTMC.from_transitions(3, [(2, 1, 1.0)])
        R = chain.rates
        good = R.data[None, :]
        with pytest.raises(SolverError, match="values"):
            transient_distribution_batch(R.indptr, R.indices, good[:, :-1], [1.0])
        with pytest.raises(ParameterError, match="non-negative"):
            transient_distribution_batch(R.indptr, R.indices, -good, [1.0])
        with pytest.raises(ParameterError, match="times"):
            transient_distribution_batch(R.indptr, R.indices, good, [-1.0])
        with pytest.raises(ParameterError, match="initial"):
            transient_distribution_batch(R.indptr, R.indices, good, [1.0], 99)


# ---------------------------------------------------------------------------
# evaluate_survivability_batch differential on the paper grids
# ---------------------------------------------------------------------------

class TestSurvivabilityDifferential:
    def test_fig2_grid(self):
        scenarios = _fig2_scenarios()
        batch = evaluate_survivability_batch(scenarios, times=TIMES)
        for scenario, result in zip(scenarios, batch):
            assert result.solver == "uniformization-batch"
            _assert_curves_equal(result, evaluate_survivability(scenario, times=TIMES))

    def test_fig4_grid(self):
        scenarios = _fig4_scenarios()
        batch = evaluate_survivability_batch(scenarios, times=TIMES)
        for scenario, result in zip(scenarios, batch):
            _assert_curves_equal(result, evaluate_survivability(scenario, times=TIMES))

    def test_degenerate_single_point_batch(self):
        scenario = GCSParameters.small_test()
        (result,) = evaluate_survivability_batch([scenario], times=TIMES)
        _assert_curves_equal(result, evaluate_survivability(scenario, times=TIMES))

    def test_empty_batch(self):
        assert evaluate_survivability_batch([], times=TIMES) == []

    def test_chunking_keeps_bytes(self):
        # A 1-byte budget solves one point per chunk.
        scenarios = _fig2_scenarios()[:3]
        whole = evaluate_survivability_batch(scenarios, times=TIMES)
        chunked = evaluate_survivability_batch(
            scenarios, times=TIMES, max_batch_bytes=1
        )
        for result, reference in zip(chunked, whole):
            _assert_curves_equal(result, reference)

    def test_mixed_group_sizes_keep_input_order(self):
        small = GCSParameters.small_test()
        bigger = GCSParameters.paper_defaults(num_nodes=N_TEST)
        scenarios = [bigger, small, bigger.replacing(num_voters=3), small]
        batch = evaluate_survivability_batch(scenarios, times=TIMES)
        for scenario, result in zip(scenarios, batch):
            assert result.params == scenario
            _assert_curves_equal(result, evaluate_survivability(scenario, times=TIMES))

    def test_survival_is_one_minus_any(self):
        (result,) = evaluate_survivability_batch(
            [GCSParameters.small_test()], times=TIMES
        )
        np.testing.assert_allclose(
            np.asarray(result.survival) + np.asarray(result.failure_cdf["any"]),
            1.0,
            atol=1e-12,
        )
        assert result.survival[0] == 1.0  # grid starts at t = 0

    def test_per_point_error_capture(self):
        good = GCSParameters.small_test()
        outcomes = evaluate_survivability_batch_outcomes(
            [good, "not-a-scenario"], times=TIMES
        )
        assert outcomes[0][1] is None
        assert outcomes[1][0] is None
        assert isinstance(outcomes[1][1], ParameterError)
        with pytest.raises(ParameterError, match="batch scenario"):
            evaluate_survivability_batch([good, "not-a-scenario"], times=TIMES)

    def test_times_must_be_sorted_and_non_negative(self):
        scenario = GCSParameters.small_test()
        with pytest.raises(ParameterError, match="strictly increasing"):
            evaluate_survivability(scenario, times=(2.0, 1.0))
        with pytest.raises(ParameterError, match="non-negative"):
            evaluate_survivability(scenario, times=(-1.0, 1.0))
        with pytest.raises(ParameterError, match="non-empty"):
            evaluate_survivability_batch([scenario], times=())

    def test_survival_at_interpolates(self):
        result = evaluate_survivability(GCSParameters.small_test(), times=TIMES)
        assert result.survival_at(0.0) == result.survival[0]
        assert result.survival_at(TIMES[-1]) == result.survival[-1]
        mid = 0.5 * (TIMES[1] + TIMES[2])
        lo, hi = sorted((result.survival[1], result.survival[2]))
        assert lo <= result.survival_at(mid) <= hi


# ---------------------------------------------------------------------------
# Engine routing: VectorBackend, hybrid, cache parity
# ---------------------------------------------------------------------------

def _surv_requests(n_points=6) -> list[SurvivabilityRequest]:
    return [
        SurvivabilityRequest(params=params, times_s=TIMES)
        for params in _fig2_scenarios(tids=(60.0, 240.0))[:n_points]
    ]


class TestVectorBackendSurvivability:
    def test_vector_matches_serial_backend(self):
        requests = _surv_requests()
        serial = SerialBackend().run(evaluate_survivability_request, requests)
        vector = VectorBackend().run(evaluate_survivability_request, requests)
        assert [o.index for o in vector] == [o.index for o in serial]
        for vec, ser in zip(vector, serial):
            assert vec.ok and ser.ok
            _assert_curves_equal(vec.value, ser.value)

    def test_error_capture_in_batch(self):
        good = _surv_requests(1)[0]
        bad = SurvivabilityRequest(
            params=GCSParameters.small_test(), times_s=(1.0,), eps=-1.0
        )
        outcomes = VectorBackend().run(
            evaluate_survivability_request, [good, bad]
        )
        assert outcomes[0].ok
        assert not outcomes[1].ok
        serial = SerialBackend().run(evaluate_survivability_request, [good, bad])
        assert not serial[1].ok
        assert serial[1].error_type == outcomes[1].error_type


class TestVectorProcsHybrid:
    """--jobs vector:N must be byte-identical to --jobs vector."""

    def test_model_chunks_identical_to_sequential(self):
        requests = [EvalRequest(params=p) for p in _fig2_scenarios()]
        vector = VectorBackend().run(evaluate_request, requests)
        hybrid = VectorBackend(chunk_workers=2).run(evaluate_request, requests)
        assert [o.index for o in hybrid] == [o.index for o in vector]
        for h, v in zip(hybrid, vector):
            assert h.ok and v.ok
            assert h.value.mttsf_s == v.value.mttsf_s
            assert h.value.ctotal_hop_bits_s == v.value.ctotal_hop_bits_s
            assert dict(h.value.failure_probabilities) == dict(
                v.value.failure_probabilities
            )

    def test_survivability_chunks_identical_to_sequential(self):
        requests = _surv_requests()
        vector = VectorBackend().run(evaluate_survivability_request, requests)
        hybrid = VectorBackend(chunk_workers=2).run(
            evaluate_survivability_request, requests
        )
        for h, v in zip(hybrid, vector):
            assert h.ok and v.ok
            assert h.value.survival == v.value.survival
            assert h.value.failure_cdf == v.value.failure_cdf
            assert h.value.time_bounded_cost == v.value.time_bounded_cost

    def test_error_capture_across_pool(self):
        requests = _surv_requests(3) + [
            SurvivabilityRequest(
                params=GCSParameters.small_test(), times_s=(1.0,), eps=-1.0
            )
        ]
        hybrid = VectorBackend(chunk_workers=2).run(
            evaluate_survivability_request, requests
        )
        assert [o.ok for o in hybrid] == [True, True, True, False]
        assert hybrid[3].error_type == "ParameterError"

    def test_small_groups_solve_inline(self):
        # A single chunk never pays pool spin-up; results still correct.
        requests = _surv_requests(2)
        hybrid = VectorBackend(chunk_workers=8).run(
            evaluate_survivability_request, requests
        )
        assert all(o.ok for o in hybrid)

    def test_make_backend_specs(self):
        assert isinstance(make_backend("vector"), VectorBackend)
        assert make_backend("vector").chunk_workers is None
        hybrid = make_backend("vector:3")
        assert isinstance(hybrid, VectorBackend)
        assert hybrid.chunk_workers == 3
        assert hybrid.describe() == "vector+procs(workers=3)"
        auto = make_backend("vector:auto")
        assert isinstance(auto, VectorBackend)
        with pytest.raises(ParameterError, match="vector"):
            make_backend("vector:warp")
        with pytest.raises(ParameterError, match="chunk_workers"):
            VectorBackend(chunk_workers=0)


class TestCacheParityAcrossBackends:
    """serial, vector and vector:N must be cache-indistinguishable."""

    GRID = [
        SurvivabilityRequest(
            params=GCSParameters.small_test(
                num_voters=m, detection_interval_s=float(tids)
            ),
            times_s=TIMES,
        )
        for m in (3, 5)
        for tids in (15.0, 60.0, 240.0)
    ]

    def _cold_then_warm(self, tmp_path, cold_jobs, warm_jobs):
        cache_dir = tmp_path / f"{cold_jobs}-then-{warm_jobs}"
        stats = []
        results = []
        for jobs in (cold_jobs, warm_jobs):
            runner = BatchRunner(
                cache=ResultCache(cache_dir=cache_dir),
                backend=make_backend(jobs),
            )
            batch = runner.run(
                self.GRID, evaluate=evaluate_survivability_request
            )
            batch.report.raise_on_error()
            stats.append((batch.report.n_cache_hits, batch.report.n_evaluated))
            results.append([r.survival for r in batch.results])
        return stats, results

    @pytest.mark.parametrize(
        "cold,warm",
        [("vector", "serial"), ("serial", "vector"), ("vector", "vector:2")],
    )
    def test_hit_miss_parity(self, tmp_path, cold, warm):
        stats, results = self._cold_then_warm(tmp_path, cold, warm)
        # Cold run all misses; warm run served entirely by the other
        # backend's records (same content-addressed keys, times grid
        # included).
        assert stats == [(0, len(self.GRID)), (len(self.GRID), 0)]
        # The warm run returns the cold run's stored curves verbatim.
        assert results[0] == results[1]

    def test_time_grid_is_part_of_the_key(self, tmp_path):
        runner = BatchRunner(cache=ResultCache(cache_dir=tmp_path / "grid"))
        params = GCSParameters.small_test()
        a = SurvivabilityRequest(params=params, times_s=(0.5, 1.0))
        b = SurvivabilityRequest(params=params, times_s=(0.5, 2.0))
        c = SurvivabilityRequest(params=params, times_s=(0.5, 1.0), eps=1e-10)
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
        # And none collide with the steady-state evaluation of the
        # same parameters.
        assert EvalRequest(params=params).fingerprint() != a.fingerprint()
        batch = runner.run([a, b], evaluate=evaluate_survivability_request)
        batch.report.raise_on_error()
        assert batch.report.n_unique == 2

    def test_survivability_record_roundtrip(self):
        result = evaluate_survivability(GCSParameters.small_test(), times=TIMES)
        rebuilt = result_from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result


# ---------------------------------------------------------------------------
# SurvivabilitySweep + CLI
# ---------------------------------------------------------------------------

class TestSurvivabilitySweep:
    def _sweep(self) -> SurvivabilitySweep:
        return SurvivabilitySweep(
            name="t",
            times_s=TIMES,
            axes={"detection_interval_s": (60.0, 240.0)},
            base={"num_nodes": N_TEST},
        )

    def test_json_roundtrip(self, tmp_path):
        sweep = self._sweep()
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep.to_dict()))
        rebuilt = SurvivabilitySweep.from_dict(json.loads(path.read_text()))
        assert rebuilt == sweep

    def test_empty_axes_is_single_point(self):
        sweep = SurvivabilitySweep(
            name="single", times_s=TIMES, base={"num_nodes": N_TEST}
        )
        assert len(sweep) == 1
        outcome = sweep.run(BatchRunner(backend=VectorBackend()))
        assert outcome.n_failed == 0
        assert len(outcome.points) == 1
        assert outcome.points[0][0] == {}

    def test_run_and_warm_cache(self, tmp_path):
        sweep = self._sweep()
        cache = ResultCache(cache_dir=tmp_path / "c")
        outcome = sweep.run(
            BatchRunner(cache=cache, backend=make_backend("vector"))
        )
        assert outcome.n_failed == 0
        assert outcome.report.n_evaluated == len(sweep)
        assert all(curve is not None for curve in outcome.curves())
        warm = sweep.run(
            BatchRunner(
                cache=ResultCache(cache_dir=tmp_path / "c"),
                backend=make_backend("vector"),
            )
        )
        assert warm.report.n_cache_hits == len(sweep)

    def test_vector_parity_with_serial(self):
        sweep = self._sweep()
        serial = sweep.run(BatchRunner(backend=SerialBackend()))
        vector = sweep.run(BatchRunner(backend=VectorBackend()))
        assert [a for a, _ in serial.points] == [a for a, _ in vector.points]
        for (_, s), (_, v) in zip(serial.points, vector.points):
            _assert_curves_equal(v, s)

    def test_validation(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            SurvivabilitySweep(name="x", times_s=(2.0, 1.0))
        with pytest.raises(ParameterError, match="name"):
            SurvivabilitySweep(name="", times_s=TIMES)
        with pytest.raises(ParameterError, match="axis"):
            SurvivabilitySweep(name="x", times_s=TIMES, axes={"num_voters": ()})


class TestSurvivabilityCli:
    def test_smoke_with_artifact(self, tmp_path, capsys):
        out = tmp_path / "surv.json"
        code = cli_main(
            [
                "survivability",
                "--axis",
                "detection_interval_s=60,240",
                "--n",
                str(N_TEST),
                "--times",
                "0,0.5,2,5",
                "--jobs",
                "vector",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "S@5s" in captured.out
        artifact = json.loads(out.read_text())
        assert artifact["report"]["n_errors"] == 0
        assert len(artifact["points"]) == 2
        curves = [p["result"]["survival"] for p in artifact["points"]]
        assert all(len(c) == 4 for c in curves)

    def test_until_grid(self, capsys):
        code = cli_main(
            [
                "survivability",
                "--n",
                str(N_TEST),
                "--until",
                "4",
                "--points",
                "4",
                "--jobs",
                "vector",
            ]
        )
        assert code == 0
        assert "S@4s" in capsys.readouterr().out

    def test_times_and_until_conflict(self, capsys):
        code = cli_main(
            ["survivability", "--times", "1,2", "--until", "5", "--n", "8"]
        )
        assert code == 2
        assert "either --times or --until" in capsys.readouterr().err

    def test_missing_grid_errors(self, capsys):
        assert cli_main(["survivability", "--n", "8"]) == 2
        assert "--times" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Stacked jump-matrix assembly and an independent dense oracle
# ---------------------------------------------------------------------------

def _paper_fills(scenarios):
    """The rate fills ``evaluate_survivability`` solves for ``scenarios``,
    built by the model's own point preparation."""
    from repro.core.fastpath import lattice_structure
    from repro.core.metrics import _prepare_point

    structure = lattice_structure(scenarios[0].num_nodes)
    values = np.stack(
        [
            _prepare_point(
                structure, i, p, None, include_breakdown=False, sizes=None
            ).fill.values
            for i, p in enumerate(scenarios)
        ]
    )
    return structure, values


def _coo_jump_matrix(indptr, indices, values, q, lam):
    """Reference assembly of ``diag(P_pᵀ)`` through scipy's COO sort."""
    num_points, n = q.shape
    slot_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    offsets = (np.arange(num_points, dtype=np.int64) * n)[:, None]
    diag_cols = np.arange(n, dtype=np.int64)[None, :] + offsets
    rows = np.concatenate([(indices[None, :] + offsets).ravel(), diag_cols.ravel()])
    cols = np.concatenate([(slot_rows[None, :] + offsets).ravel(), diag_cols.ravel()])
    data = np.concatenate(
        [(values / lam[:, None]).ravel(), (1.0 - q / lam[:, None]).ravel()]
    )
    size = num_points * n
    return sp.csr_matrix((data, (rows, cols)), shape=(size, size))


class TestFusedTransientKernel:
    """The pattern-permuted assembly must build the COO reference matrix."""

    def test_stacked_matrix_assembly_identical(self):
        from repro.ctmc.transient import _stacked_jump_matrix, csr_row_sums

        structure, values = _paper_fills(
            [
                GCSParameters.paper_defaults(
                    num_nodes=N_TEST, detection_interval_s=t
                )
                for t in (15.0, 60.0, 240.0)
            ]
        )
        q = csr_row_sums(structure.indptr, values)
        lam = q.max(axis=1)
        lam[lam <= 0.0] = 1.0
        reference = _coo_jump_matrix(
            structure.indptr, structure.indices, values, q, lam
        )
        fused = _stacked_jump_matrix(
            structure.indptr, structure.indices, values, q, lam
        )
        reference.sort_indices()
        assert reference.shape == fused.shape
        assert np.array_equal(
            reference.indptr.astype(np.int64), fused.indptr.astype(np.int64)
        )
        assert np.array_equal(
            reference.indices.astype(np.int64), fused.indices.astype(np.int64)
        )
        assert np.array_equal(reference.data, fused.data)


class TestDenseExpmOracle:
    """Batched uniformization on the solve space against :func:`_expm_oracle`."""

    def test_solve_space_matches_dense_expm(self, caplog):
        # At N = 12 the stiff cut reaches the initial state's neighbours:
        # every point fails its certificate and is re-solved at full Λ.
        structure, values = _paper_fills(_fig2_scenarios()[::4])
        dag = structure.dag
        n = dag.num_states
        times = (0.5, 2.0, 5.0)
        with caplog.at_level(logging.INFO, logger="repro.ctmc.transient"):
            dist, counts, spans = _traced(
                lambda: transient_distribution_batch(
                    dag.indptr, dag.indices, values, times, structure.solve_initial
                )
            )
        assert counts["solver.truncation_fallbacks"] == values.shape[0] == 3
        assert spans == [
            {
                "points": 3,
                "times": 3,
                "steps": counts["solver.uniformization_steps"],
                "attempts": 2,
                "rung": [None, None, None],
                "cut_states": [0, 0, 0],
                "sink_bound": [0.0, 0.0, 0.0],
                "fallbacks": 3,
            }
        ]
        (record,) = [r for r in caplog.records if r.name == "repro.ctmc.transient"]
        assert record.levelno == logging.INFO
        assert "3 re-solved at full rate" in record.getMessage()
        for p in range(values.shape[0]):
            chain = CTMC(
                sp.csr_matrix(
                    (values[p], dag.indices.copy(), dag.indptr.copy()), shape=(n, n)
                )
            )
            oracle = _expm_oracle(chain, times, structure.solve_initial)
            np.testing.assert_allclose(dist[p], oracle, rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------------
# Certified stiff-state truncation
# ---------------------------------------------------------------------------

def _traced(solve):
    """``solve()`` with spans on: its result, ``solver.*`` counter deltas
    and the attributes of the ``transient_batch`` spans it opened."""
    was_enabled = tracing_enabled()
    enable_tracing()
    before, mark = metrics().snapshot(), tracer().mark()
    try:
        result = solve()
    finally:
        if not was_enabled:
            disable_tracing()
    counts = {
        name: entry["value"]
        for name, entry in metrics().diff(before).items()
        if name.startswith("solver.")
    }
    spans = [r.attrs for r in tracer().since(mark) if r.name == "transient_batch"]
    return result, counts, spans


#: Fast states of :func:`_stiff_chain`, 34 forward jumps from state 0.
STIFF_STATES = tuple(range(34, 39))


def _stiff_chain(absorbing=True, start_rate=1.0, extra=()):
    """A 40-state path with five 400 Hz states far from the start.

    State ``i`` steps forward at 1.0 (state 0 at ``start_rate``) and
    back at 0.5; the states in :data:`STIFF_STATES` also step back at
    400. The last state is absorbing unless ``absorbing`` is false.
    ``extra`` transitions are added as given.
    """
    n = 40
    transitions = [(0, 1, start_rate)]
    transitions += [(i, i + 1, 1.0) for i in range(1, n - 1)]
    transitions += [(i, i - 1, 0.5) for i in range(1, n - 1)]
    transitions += [(i, i - 1, 400.0) for i in STIFF_STATES]
    if not absorbing:
        transitions.append((n - 1, n - 2, 0.5))
    transitions += list(extra)
    return CTMC.from_transitions(n, transitions)


def _scaled_slow_rates(R, scales):
    """One fill per scale: every rate but the 400 Hz ones times the scale."""
    values = np.tile(R.data, (len(scales), 1))
    slow = R.data < 400.0
    values[:, slow] *= np.asarray(scales)[:, None]
    return values


class TestStiffTruncation:
    TIMES = (0.5, 2.0, 5.0)

    def test_certified_cut_matches_dense_expm(self):
        # The 400 Hz states set Λ ≈ 400 but hold < 1e-13 by t = 5, so
        # each point cuts them and runs at Λ′ = its slow rate. At every
        # scale the t = 5 window (Λ′·5 = 8.25 … 11.25) reaches past the
        # 34 jumps to the stiff states, so every sink holds mass.
        R = _stiff_chain().rates
        values = _scaled_slow_rates(R, [1.1, 1.3, 1.5])
        batch, counts, spans = _traced(
            lambda: transient_distribution_batch(
                R.indptr, R.indices, values, self.TIMES, 0
            )
        )
        assert "solver.truncation_fallbacks" not in counts
        (attrs,) = spans
        assert attrs["cut_states"] == [len(STIFF_STATES)] * 3
        assert attrs["fallbacks"] == 0
        assert all(0.0 < s <= 1e-12 for s in attrs["sink_bound"])
        # Full-Λ windows alone would need > 400 · 5 steps.
        assert counts["solver.uniformization_steps"] == attrs["steps"] < 200
        for p in range(3):
            chain_p = _per_point_chain(R, values[p])
            oracle = _expm_oracle(chain_p, self.TIMES, 0)
            np.testing.assert_allclose(batch[p], oracle, rtol=RTOL, atol=ATOL)
            assert np.array_equal(transient_distribution(chain_p, self.TIMES, 0), batch[p])

    def test_mixed_batch_rows_equal_each_point_alone(self):
        # Scale 20 moves fast enough to reach the stiff states by t = 5:
        # that point fails its certificate, its batch mate certifies.
        R = _stiff_chain().rates
        values = _scaled_slow_rates(R, [1.0, 20.0])
        batch, counts, spans = _traced(
            lambda: transient_distribution_batch(
                R.indptr, R.indices, values, self.TIMES, 0
            )
        )
        assert counts["solver.truncation_fallbacks"] == 1
        assert spans[0]["cut_states"] == [len(STIFF_STATES), 0]
        for p in range(2):
            alone = transient_distribution_batch(
                R.indptr, R.indices, values[p : p + 1], self.TIMES, 0
            )[0]
            assert np.array_equal(batch[p], alone)
            oracle = _expm_oracle(_per_point_chain(R, values[p]), self.TIMES, 0)
            np.testing.assert_allclose(batch[p], oracle, rtol=RTOL, atol=ATOL)

    def test_doomed_attempt_stops_early(self):
        # Scale 20 reaches the stiff states within ~2 s. The attempt is
        # abandoned once its lower bound on the sink mass exceeds eps,
        # long before its own Poisson window ends.
        R = _stiff_chain().rates
        values = _scaled_slow_rates(R, [20.0])
        _, counts, spans = _traced(
            lambda: transient_distribution_batch(
                R.indptr, R.indices, values, self.TIMES, 0
            )
        )
        assert counts["solver.truncation_fallbacks"] == spans[0]["fallbacks"] == 1
        q = csr_row_sums(R.indptr, values)[0]
        kept = np.ones(q.size, dtype=bool)
        kept[list(STIFF_STATES)] = False
        t_max = self.TIMES[-1]
        full_steps = poisson_weights(q.max() * t_max, 1e-12)[1] + 1
        attempt_window = poisson_weights(q[kept].max() * t_max, 1e-12)[1] + 1
        attempt_steps = counts["solver.uniformization_steps"] - full_steps
        assert 0 < attempt_steps < attempt_window / 2

    def test_certificate_catches_an_undoomed_sink(self):
        # A slow leak into a stiff state: the lower bound never exceeds
        # eps during the sweep, but the sink holds ~2e-3 > eps at t = 5,
        # so the final certificate sends the point to the full-Λ solve.
        chain = CTMC.from_transitions(2, [(0, 1, 4e-4), (1, 0, 1000.0)])
        R = chain.rates
        _, counts, spans = _traced(
            lambda: transient_distribution_batch(
                R.indptr, R.indices, R.data[None, :], self.TIMES, 0, eps=1e-3
            )
        )
        assert counts["solver.truncation_fallbacks"] == 1
        assert spans[0]["cut_states"] == [0]

    def test_initial_state_is_never_cut(self):
        # The start state runs at 100 Hz, above Λ/10, but holds the
        # initial mass: it is kept and sets Λ′. Cutting it would sink
        # all mass at t = 0 and fail the certificate.
        R = _stiff_chain(start_rate=100.0).rates
        batch, counts, spans = _traced(
            lambda: transient_distribution_batch(
                R.indptr, R.indices, R.data[None, :], self.TIMES, 0
            )
        )
        assert "solver.truncation_fallbacks" not in counts
        assert spans[0]["cut_states"] == [len(STIFF_STATES)]
        chain = _per_point_chain(R, R.data)
        np.testing.assert_allclose(
            batch[0], _expm_oracle(chain, self.TIMES, 0), rtol=RTOL, atol=ATOL
        )

    def test_cut_states_are_never_absorbing(self):
        # Without an absorbing state "any" is exactly 0, although the
        # certified cut states hold mass.
        R = _stiff_chain(absorbing=False).rates
        values = _scaled_slow_rates(R, [1.2])
        dist = transient_distribution_batch(R.indptr, R.indices, values, self.TIMES, 0)
        cdf = absorption_cdf_batch(R.indptr, R.indices, values, self.TIMES, 0)
        assert dist[0, -1, list(STIFF_STATES)].sum() > 0.0
        assert np.all(cdf["any"] == 0.0)

    def test_survival_counts_only_originally_absorbing_states(self):
        # At eps = 1e-3 small_test certifies a cut whose sink holds
        # ~1e-5 by t = 5, so counting it as absorbed would move 1 − S(t).
        from repro.core.fastpath import lattice_structure
        from repro.core.metrics import _prepare_point
        from repro.ctmc.transient import _STIFF_CUT

        params = GCSParameters.small_test()
        structure = lattice_structure(params.num_nodes)
        values = _prepare_point(
            structure, 0, params, None, include_breakdown=False, sizes=None
        ).fill.values[None, :]
        dag = structure.dag
        eps = 1e-3
        dist, counts, _ = _traced(
            lambda: transient_distribution_batch(
                dag.indptr, dag.indices, values, TIMES, structure.solve_initial, eps=eps
            )
        )
        assert "solver.truncation_fallbacks" not in counts
        q = csr_row_sums(dag.indptr, values)[0]
        absorbing = q == 0.0
        cut = q > q.max() / _STIFF_CUT
        cut[structure.solve_initial] = False
        assert dist[0, -1, cut].sum() > 1e-9
        counted = (dist[0] * absorbing).sum(axis=1)
        with_cut = (dist[0] * (absorbing | cut)).sum(axis=1)
        assert not np.array_equal(counted, with_cut)

        cdf = absorption_cdf_batch(
            dag.indptr, dag.indices, values, TIMES, structure.solve_initial, eps=eps
        )
        assert np.array_equal(cdf["any"][0], counted)
        result = evaluate_survivability(params, times=TIMES, eps=eps)
        assert result.failure_cdf["any"] == tuple(float(x) for x in counted)
        assert result.survival == tuple(float(1.0 - x) for x in counted)


# ---------------------------------------------------------------------------
# The cut ladder
# ---------------------------------------------------------------------------

#: States of :func:`_tiered_fills` with a 20 Hz jump back to the start:
#: five forward jumps from it, and thirty.
NEAR_STATES, FAR_STATES = (5, 6, 7), (30, 31, 32)


def _tiered_fills():
    """Fills of :func:`_stiff_chain` plus 20 Hz resets to state 0.

    Each tier's out-rate of 21.5 Hz sits between ``Λ/10`` and
    ``Λ/(10·√2²)`` (``Λ`` = 401.5 Hz), so the ladder has two distinct
    cuts: rung 2 (the tier and the stiff states, ``Λ′`` = 1.5 Hz) and
    rung 0 (the stiff states, ``Λ′`` = 21.5 Hz). Returns the pattern
    and three fills: ``"far"`` (only the far tier resets; certifies at
    rung 2), ``"near"`` (only the near tier; rung 2 is doomed, rung 0
    certifies) and ``"fast"`` (no resets, slow rates × 20, so its rungs
    are 1 and 0; both fail).
    """
    R = _stiff_chain(extra=[(i, 0, 20.0) for i in NEAR_STATES + FAR_STATES]).rates
    rows = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
    resets = (R.indices == 0) & (rows > 1)
    near = resets & np.isin(rows, NEAR_STATES)
    far = resets & np.isin(rows, FAR_STATES)
    fills = {"far": R.data.copy(), "near": R.data.copy()}
    fills["far"][near] = 0.0
    fills["near"][far] = 0.0
    fills["fast"] = _scaled_slow_rates(R, [20.0])[0]
    fills["fast"][resets] = 0.0
    return R, fills


class TestCutLadder:
    TIMES = (0.5, 2.0, 5.0)

    def _solve(self, R, values):
        return _traced(
            lambda: transient_distribution_batch(
                R.indptr, R.indices, values, self.TIMES, 0
            )
        )

    def test_certifies_below_a_tenth_and_matches_dense_expm(self):
        # Rung 2 cuts the far tier too and runs at 1.5 Hz instead of the
        # 21.5 Hz that the Λ/10 cut leaves.
        R, fills = _tiered_fills()
        values = np.stack([fills["far"], fills["far"] * 0.8])
        batch, counts, (attrs,) = self._solve(R, values)
        assert attrs["rung"] == [2, 2]
        assert attrs["attempts"] == 1 and attrs["fallbacks"] == 0
        assert attrs["cut_states"] == [len(FAR_STATES) + len(STIFF_STATES)] * 2
        assert all(0.0 < s <= 1e-12 for s in attrs["sink_bound"])
        tenth_window = poisson_weights(21.5 * self.TIMES[-1], 1e-12)[1] + 1
        assert counts["solver.uniformization_steps"] < tenth_window / 2
        for p in range(2):
            chain_p = _per_point_chain(R, values[p])
            oracle = _expm_oracle(chain_p, self.TIMES, 0)
            np.testing.assert_allclose(batch[p], oracle, rtol=RTOL, atol=ATOL)
            assert np.array_equal(transient_distribution(chain_p, self.TIMES, 0), batch[p])

    def test_reachable_sweep_equals_the_full_pattern(self):
        from repro.ctmc.transient import _cut_sweep, _uniformize

        ts = np.array(self.TIMES)

        def both(R, values, cuts, pi0, eps=1e-12):
            """One attempt over the reachable states and over all of them."""
            n = R.shape[0]
            q = csr_row_sums(R.indptr, values)
            lam = np.where(cuts, 0.0, q).max(axis=1)
            sub, steps, live, states = _cut_sweep(
                R.indptr, R.indices, values, q, cuts, lam, pi0, ts, eps
            )
            cut_values = values.copy()
            cut_values[cuts[:, np.repeat(np.arange(n), np.diff(R.indptr))]] = 0.0
            ref, ref_steps, ref_live = _uniformize(
                R.indptr, R.indices, cut_values, np.where(cuts, 0.0, q), lam,
                pi0, ts, eps, cuts, np.arange(n),
            )
            assert (steps, live.tolist()) == (ref_steps, ref_live.tolist())
            full = np.zeros_like(ref)
            full[:, :, states] = sub
            assert np.array_equal(full, ref)
            return states, live

        # The three tiered fills, each with its own cut: a tier cut for
        # one point is kept by another, and the first stiff state, cut
        # for all, ends the search as a sink. "near" is doomed at step
        # 8, "fast" later, and "far" runs to the end.
        R, fills = _tiered_fills()
        values = np.stack([fills["far"], fills["near"], fills["fast"]])
        q = csr_row_sums(R.indptr, values)
        cuts = (q > np.array([[1.5], [1.5], [30.0]])) & (np.arange(40) > 0)
        pi0 = np.zeros((3, 40))
        pi0[:, 0] = 1.0
        states, live = both(R, values, cuts, pi0)
        assert states.tolist() == list(range(STIFF_STATES[0] + 1))
        assert live.tolist() == [0]
        # A random chain cut above each point's median out-rate, from a
        # spread initial distribution.
        random = _random_chain(np.random.default_rng(17), n=30, density=0.12).rates
        values = np.stack([random.data * s for s in (0.01, 0.3, 3.0)])
        q = csr_row_sums(random.indptr, values)
        pi0 = np.zeros((3, 30))
        pi0[:, [0, 3]] = 0.5
        cuts = (q > np.median(q, axis=1, keepdims=True)) & (pi0 == 0.0)
        states, live = both(random, values, cuts, pi0, eps=1e-3)
        assert states.size < 30 and live.tolist() == [0]

    def test_mixed_rungs_and_a_fallback_equal_each_point_alone(self):
        R, fills = _tiered_fills()
        values = np.stack([fills["far"], fills["near"], fills["fast"]])
        batch, counts, (attrs,) = self._solve(R, values)
        assert attrs["rung"] == [2, 0, None]
        assert attrs["fallbacks"] == counts["solver.truncation_fallbacks"] == 1
        # Points at the same rung share a sweep: rung 2 of "far" and
        # "near", rung 1 of "fast", then rung 0 of "near" and "fast".
        assert attrs["attempts"] == 3
        for p in range(3):
            alone = transient_distribution_batch(
                R.indptr, R.indices, values[p : p + 1], self.TIMES, 0
            )[0]
            assert np.array_equal(batch[p], alone)
            oracle = _expm_oracle(_per_point_chain(R, values[p]), self.TIMES, 0)
            np.testing.assert_allclose(batch[p], oracle, rtol=RTOL, atol=ATOL)

    def test_one_attempt_per_distinct_cut(self):
        from repro.ctmc.transient import _cut_ladders

        R, fills = _tiered_fills()
        values = fills["near"][None, :]
        q = csr_row_sums(R.indptr, values)
        held = np.zeros_like(q, dtype=bool)
        held[:, 0] = True
        # Rungs 2–8 cut one set, rungs 0–1 another.
        assert _cut_ladders(q, q.max(axis=1), held) == [{2: 1.5, 0: 21.5}]
        _, counts, (attrs,) = self._solve(R, values)
        assert attrs["rung"] == [0] and attrs["attempts"] == 2
        # The stiff chain cuts the same five states at every rung.
        stiff = _stiff_chain().rates
        _, _, (attrs,) = self._solve(stiff, stiff.data[None, :])
        assert attrs["rung"] == [0] and attrs["attempts"] == 1
