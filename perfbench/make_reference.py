"""Write the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py

Regenerate only for a deliberate, understood change of model semantics:
the files pin today's outputs, and a run whose outputs differ counts
those points as failed. Requests run in campaign order through the
vector backend; the benchmark's seeds only reorder them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.engine import BatchRunner, make_backend  # noqa: E402
from repro.engine.batch import evaluate_survivability_request  # noqa: E402

import workloads  # noqa: E402


def reference_points(
    keyed: Sequence[tuple[str, Any]],
    record: Callable[[Any], dict],
    evaluate: Optional[Callable] = None,
) -> dict[str, dict]:
    """Evaluate ``keyed`` requests once; map each key to its record."""
    workloads.cold_state()
    runner = BatchRunner(backend=make_backend("vector"))
    kwargs = {"evaluate": evaluate} if evaluate else {}
    batch = runner.run([request for _, request in keyed], **kwargs)
    batch.report.raise_on_error()
    return {key: record(result) for (key, _), result in zip(keyed, batch.results)}


def paper_reference(quick: bool = False) -> dict[str, dict]:
    return reference_points(workloads.paper_requests(quick), workloads.model_record)


def survival_reference(num_nodes: int = 40) -> dict[str, dict]:
    return reference_points(
        workloads.survival_requests(num_nodes),
        workloads.curve_record,
        evaluate_survivability_request,
    )


def service_reference(num_nodes: int = 40) -> dict[str, dict]:
    return reference_points(workloads.service_pool(num_nodes), workloads.model_record)


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, make in (
        ("paper-full", paper_reference),
        ("survival-n40", survival_reference),
        ("service-overlap", service_reference),
    ):
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(
            json.dumps({"workload": name, "points": make()}, indent=1, sort_keys=True)
            + "\n"
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
