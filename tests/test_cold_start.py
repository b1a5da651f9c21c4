"""Cold start: what a fresh process loads before its first solve.

Each paper figure comes from one fresh ``repro`` process, so the import
cost is paid once per campaign and is comparable to the solve itself.
These tests pin two properties of that cost, each in a fresh
interpreter:

* setting up a CLI run or a sweep server leaves out the subpackages the
  lattice path never runs — ``scipy.stats`` (used only by the
  audit-feature detectors) and, for the CLI, the sweep service — and a
  simulation confidence interval after CLI set-up still needs no
  ``scipy.stats``;
* the first solve imports nothing more: every module the lattice path
  runs is loaded at import time, so the set-up time is the whole cold
  cost and none of it hides inside round one.

The set-up snippets are the ones ``perfbench/workloads.py`` times as
``setup_s``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CLI_SETUP = (
    "import repro.cli\n"
    "from repro.engine import BatchRunner, make_backend\n"
    "BatchRunner(backend=make_backend('vector'))\n"
)

SERVICE_SETUP = (
    "import sys\n"
    "import repro.cli\n"
    "from repro.engine import make_backend\n"
    "from repro.engine.cache import ResultCache\n"
    "from repro.service.server import ServiceServer, SweepService\n"
    "service = SweepService(cache=ResultCache(cache_dir=sys.argv[1]),"
    " backend=make_backend('vector'))\n"
    "server = ServiceServer(service, port=0)\n"
    "server.start_in_background()\n"
    "server.stop()\n"
)

#: Prepended to every snippet; the tests look only at scipy and repro.
PRELUDE = "import json\nimport sys\n"

REPORT_LOADED = "print(json.dumps(sorted(sys.modules)))\n"

FIRST_SOLVE = """
from repro.engine.batch import (
    EvalRequest,
    SurvivabilityRequest,
    evaluate_survivability_request,
)
from repro.params import GCSParameters

before = set(sys.modules)
runner = BatchRunner(backend=make_backend("vector"))
runner.run(
    [EvalRequest(GCSParameters.small_test(num_voters=m)) for m in (3, 5)]
).report.raise_on_error()
runner.run(
    [SurvivabilityRequest(GCSParameters.small_test(), times_s=(0.5, 2.0))],
    evaluate=evaluate_survivability_request,
).report.raise_on_error()
new = sorted(set(sys.modules) - before)
print(json.dumps([m for m in new if m.split(".")[0] in ("scipy", "repro")]))
"""


def run_fresh(code: str, *args: str) -> list:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestSetupLoadsOnlyTheLatticePath:
    def test_cli_setup(self):
        loaded = set(run_fresh(PRELUDE + CLI_SETUP + REPORT_LOADED))
        assert "repro.core.fastpath" in loaded  # the snippet did run
        assert not loaded & {"scipy.stats", "repro.detection.audit", "repro.service"}

    def test_confidence_interval_after_cli_setup(self):
        loaded = set(
            run_fresh(
                PRELUDE
                + CLI_SETUP
                + "from repro.sim import ReplicationStats\n"
                + "ReplicationStats.from_samples([1.0, 2.0, 4.0]).half_width\n"
                + REPORT_LOADED
            )
        )
        assert "repro.sim.collectors" in loaded
        assert "scipy.stats" not in loaded

    def test_service_setup(self, tmp_path):
        loaded = set(run_fresh(PRELUDE + SERVICE_SETUP + REPORT_LOADED, str(tmp_path)))
        assert "repro.service.server" in loaded
        assert not loaded & {"scipy.stats", "repro.detection.audit"}


def test_first_solve_imports_nothing():
    new = run_fresh(PRELUDE + CLI_SETUP + FIRST_SOLVE)
    assert new == []
