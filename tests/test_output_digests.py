"""Byte identity of the benchmark workloads' output.

One round of each workload in `bench/workloads.py`, at master seed 0 with
its lists in order-seed-0 order, runs in process and must reproduce the
digest recorded for seed 0 in `bench/digests.json`.  The bench files are
only read.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from wptsim import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_round_reproduces_recorded_digest(workloads, tmp_path, monkeypatch, name):
    workload = workloads.WORKLOADS[name]
    for file_name, text in workloads.config_files(workload, 0, 0).items():
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    workloads.run_round(workload, cli)
    digest = workloads.output_digest(str(tmp_path), workloads.output_names(workload))
    assert digest == DIGESTS[name]["0"]
