"""The CI workflow runs the console script, the Tier-1 command of ROADMAP.md
and a short run of every benchmark workload on pinned versions."""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from wptsim import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    return re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", roadmap).group(1)


def test_workflow_runs_the_tier1_command():
    assert f"run: {tier1_command()}\n" in WORKFLOW.read_text(encoding="utf-8")


def test_workflow_parses_with_the_recording_versions():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    assert set(workflow["on"]) == {"push", "pull_request"}
    steps = workflow["jobs"]["tier1"]["steps"]
    assert steps[1]["with"]["python-version"] == "3.11"
    assert 'pip install -e ".[test]" numpy==2.4.6' in steps[2]["run"]
    assert steps[-1]["run"] == tier1_command()


def test_tier1_job_runs_the_console_script_before_the_tests():
    # CLI behaviour is tested by test_cli.py; this one run of the installed
    # script proves that it reaches cli.main.
    job = WORKFLOW.read_text(encoding="utf-8").split("\n  bench-smoke:\n")[0]
    steps = re.findall(r"\n      - (?:name|uses): (.*)", job)
    assert steps == [
        "actions/checkout@v4", "actions/setup-python@v5",
        "Install", "Console script", "Tier-1 tests",
    ]
    step = "      - name: Console script\n        run: wptsim paper-check\n"
    assert step in job


def test_console_script_resolves_to_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["wptsim"]
    assert target == "wptsim.cli:main"
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def bench_smoke_job():
    text = WORKFLOW.read_text(encoding="utf-8")
    return text[text.index("\n  bench-smoke:\n"):]


def test_bench_smoke_runs_every_workload():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    matrix = re.search(r"\n +workload: \[([^]]*)\]\n", bench_smoke_job()).group(1)
    assert [name.strip() for name in matrix.split(",")] == names
    for trace in (0, 1):
        command = (
            "python3 bench/run.py --workload ${{ matrix.workload }} "
            f"--seed 1 --seconds 1 --trace {trace} | tee smoke.out\n"
        )
        assert command in bench_smoke_job()


@pytest.mark.parametrize(
    "last_line, passes",
    [
        ({"correct": True, "attempted": 9, "failed": 0, "metrics": {}}, True),
        ({"correct": False, "attempted": 9, "failed": 0, "metrics": {}}, False),
        ({"correct": True, "attempted": 9, "failed": 1, "metrics": {}}, False),
        ({"correct": "true", "attempted": 9, "failed": 0, "metrics": {}}, False),
    ],
)
def test_bench_smoke_gate_reads_the_last_line(last_line, passes):
    # The untraced and the traced run end with the same gate.
    gate = r"tail -n 1 smoke.out \| python3 -c '([^']*)'"
    gates = re.findall(gate, bench_smoke_job())
    assert len(gates) == 2 and gates[0] == gates[1]
    proc = subprocess.run(
        [sys.executable, "-c", gates[0]], input=json.dumps(last_line), text=True
    )
    assert (proc.returncode == 0) == passes


def test_bench_smoke_parses_with_the_recording_versions():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    tier1, smoke = workflow["jobs"]["tier1"], workflow["jobs"]["bench-smoke"]
    assert smoke["steps"][:3] == tier1["steps"][:3]
    runs = [step for step in smoke["steps"] if "bench/run.py" in step.get("run", "")]
    assert [step["shell"] for step in runs] == ["bash", "bash"]


def test_every_job_has_a_timeout_and_superseded_runs_cancel():
    # A hang then fails within minutes, not after the hosted runner's
    # six-hour default.
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    timeouts = {
        name: job.get("timeout-minutes") for name, job in workflow["jobs"].items()
    }
    assert timeouts == {"tier1": 20, "bench-smoke": 10}
    assert workflow["concurrency"]["cancel-in-progress"] is True
    assert "github.ref" in workflow["concurrency"]["group"]


def test_every_job_caches_pip_keyed_on_pyproject():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    for name, job in workflow["jobs"].items():
        setup = job["steps"][1]
        assert setup["uses"] == "actions/setup-python@v5", name
        assert setup["with"]["cache"] == "pip", name
        assert setup["with"]["cache-dependency-path"] == "pyproject.toml", name
