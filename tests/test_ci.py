"""The CI workflow runs the Tier-1 command of ROADMAP.md on pinned versions."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    return re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", roadmap).group(1)


def test_workflow_runs_the_tier1_command():
    assert f"run: {tier1_command()}\n" in WORKFLOW.read_text(encoding="utf-8")


def test_workflow_parses_with_the_recording_versions():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    assert set(workflow["on"]) == {"push", "pull_request"}
    steps = workflow["jobs"]["tier1"]["steps"]
    assert steps[1]["with"]["python-version"] == "3.11"
    assert 'pip install -e ".[test]" numpy==2.4.6' in steps[2]["run"]
    assert steps[-1]["run"] == tier1_command()
