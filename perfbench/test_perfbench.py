"""Tests of the benchmark itself: miniature runs and a failing oracle.

    python3 -m pytest perfbench -q

Each workload runs in miniature (N=40 paper grid, N=12 survivability
sweep, four service submissions) against a reference made in the test,
through the same ``run.main`` the benchmark command uses.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def references():
    return {
        "paper-full": make_reference.paper_reference(quick=True),
        "survival-n40": make_reference.survival_reference(num_nodes=12),
        "service-overlap": make_reference.service_reference(),
    }


def miniature(name, reference):
    if name == "paper-full":
        return functools.partial(workloads.PaperFull, quick=True, reference=reference)
    if name == "survival-n40":
        return functools.partial(
            workloads.SurvivalN40, num_nodes=12, reference=reference
        )
    return functools.partial(
        workloads.ServiceOverlap, submissions=4, reference=reference
    )


def run_miniature(monkeypatch, capsys, name, reference, trace):
    monkeypatch.setitem(workloads.WORKLOADS, name, miniature(name, reference))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    code = run.main(
        ["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["paper-full", "survival-n40", "service-overlap"])
def test_miniature_run_emits_every_metric(monkeypatch, capsys, references, name, trace):
    code, result, _ = run_miniature(monkeypatch, capsys, name, references[name], trace)
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_split_layers_by_workload(monkeypatch, capsys, references):
    _, paper, _ = run_miniature(
        monkeypatch, capsys, "paper-full", references["paper-full"], 1
    )
    _, survival, _ = run_miniature(
        monkeypatch, capsys, "survival-n40", references["survival-n40"], 1
    )
    paper, survival = paper["metrics"], survival["metrics"]
    assert paper["fastpath.rate_fills"]["value"] == 54
    assert paper["solver.dag_level_sweeps"]["value"] > 0
    assert paper["solver.uniformization_steps"]["value"] == 0
    assert survival["solver.uniformization_steps"]["value"] > 0
    assert survival["ctmc.acyclic.solve_dag_batch_calls"]["value"] == 0


def _perturb_model(reference):
    key = sorted(reference)[0]
    bad = json.loads(json.dumps(reference))
    bad[key]["mttsf_s"] = float(np.nextafter(bad[key]["mttsf_s"], np.inf))
    return bad


def _perturb_curve(reference):
    key = sorted(reference)[0]
    bad = json.loads(json.dumps(reference))
    bad[key]["survival"][-1] *= 1.0 + 100 * workloads.BATCH_EQUIVALENCE_RTOL
    return bad


@pytest.mark.parametrize(
    "name, perturb",
    [
        ("paper-full", _perturb_model),
        ("survival-n40", _perturb_curve),
        ("service-overlap", _perturb_model),
    ],
)
def test_perturbed_reference_fails(monkeypatch, capsys, references, name, perturb):
    reference = references[name]
    if name == "service-overlap":
        # Perturb every point, so whichever ones the plan draws fail.
        reference = {key: perturb({key: value})[key] for key, value in reference.items()}
    else:
        reference = perturb(reference)
    code, result, out = run_miniature(monkeypatch, capsys, name, reference, 0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "MISMATCH" in out


def test_every_golden_point_is_in_the_service_pool():
    golden = workloads.golden_by_params()
    coinciding = [
        request
        for _, request in workloads.service_pool()
        if workloads._params_key(request.params) in golden
    ]
    assert len(coinciding) == len(golden)


def test_submission_plan_mixes_hits_and_misses():
    plan = workloads.submission_plan(seed=3, pool_size=324, submissions=64)
    assert plan == workloads.submission_plan(seed=3, pool_size=324, submissions=64)
    assert plan != workloads.submission_plan(seed=4, pool_size=324, submissions=64)
    submitted: set[int] = set()
    for k, points in enumerate(plan):
        assert len(set(points)) == 6
        hits = len(submitted & set(points))
        assert hits == (0 if k == 0 else 5)
        submitted |= set(points)


def test_kernel_switches_refuse_to_run(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_KERNEL", "fused")
    assert run.main(["--workload", "paper-full", "--seed", "1", "--seconds", "1"]) == 2
    assert "REPRO_KERNEL" in capsys.readouterr().err
