"""Tests of the benchmark itself: `python3 -m pytest bench`."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads


def _span(name, start, end, parent, realization=-1):
    return [name, start, end, parent, realization]


def test_self_time_subtracts_merged_clipped_child_coverage():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] covered once
        _span("c", 8.0, 12.0, 0),  # clipped to the parent's end: [8, 10]
        _span("a.child", 1.5, 2.5, 1),  # grandchild: counts against a only
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    stats = spans.layer_stats(tree + [_span("a", 20.0, 21.0, -1)])
    assert stats["a"] == pytest.approx({"calls": 2, "total_s": 3.0, "self_s": 2.0})
    assert stats["root"]["self_s"] == pytest.approx(4.0)


def test_recorder_nests_spans_and_numbers_realizations():
    recorder = spans.SpanRecorder()
    seed = recorder.wrap("channel.derive_seed", lambda master, *path: 0)
    leaf = recorder.wrap("leaf", lambda: None)
    body = recorder.wrap("harness.run", lambda: [seed(7, 0, 1), seed(7, 1, 1), leaf(),
                                                 seed(7, 0, 2), leaf()])
    body()
    leaf()
    names = [s[0] for s in recorder.spans]
    parents = [s[3] for s in recorder.spans]
    realizations = [s[4] for s in recorder.spans]
    assert names == ["harness.run", "channel.derive_seed", "channel.derive_seed",
                     "leaf", "channel.derive_seed", "leaf", "leaf"]
    assert parents == [-1, 0, 0, 0, 0, 0, -1]
    assert realizations == [-1, 0, 0, 0, 1, 1, -1]
    assert all(s[2] >= s[1] for s in recorder.spans)


def _tiny_round(tmp_path, workload, master=3, order_seed=0, trace=False):
    directory = tmp_path / f"{workload.name}-{order_seed}-{int(trace)}"
    run._write_configs(str(directory),
                       workloads.config_files(workload, master, order_seed, realizations=2))
    spec = {"mode": "round", "workload": workload.name, "dir": str(directory),
            "trace": trace}
    if trace:
        spec["spans_out"] = str(directory / "spans.csv")
    result = run._worker(spec)
    assert "error" not in result, result.get("error")
    return directory, result


def test_digest_gate_flags_one_byte_change(tmp_path):
    workload = workloads.WORKLOADS["cdf_c9"]
    directory, result = _tiny_round(tmp_path, workload)
    names = workloads.output_names(workload)
    assert workloads.output_digest(str(directory), names) == result["digest"]
    path = directory / names[-1]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    tally = run.Tally()
    perturbed = workloads.output_digest(str(directory), names)
    assert not tally.check(perturbed == result["digest"], "digest mismatch")
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_agree(tmp_path, name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], realizations=2)
    _, plain = _tiny_round(tmp_path, workload)
    directory, traced = _tiny_round(tmp_path, workload, trace=True)
    assert traced["digest"] == plain["digest"]
    assert traced["missing_layers"] == []

    layers = traced["layers"]
    per_round = workload.realizations_per_round
    assert layers["channel.sample_channel"]["calls"] == per_round
    csi = name == "csi_flat"
    assert layers["channel.derive_seed"]["calls"] == per_round * (2 if csi else 1)
    assert ("csi.csi_loop_zdc" in layers) == csi
    with open(directory / "spans.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    samples = [r["realization"] for r in rows if r["name"] == "channel.sample_channel"]
    assert sorted(samples, key=int) == [str(i) for i in range(per_round)]


def test_list_order_in_configs_does_not_change_output(tmp_path):
    workload = workloads.WORKLOADS["csi_flat"]
    first = workloads.config_files(workload, 5, order_seed=1, realizations=2)
    second = workloads.config_files(workload, 5, order_seed=2, realizations=2)
    assert first != second
    _, a = _tiny_round(tmp_path, workload, master=5, order_seed=1)
    _, b = _tiny_round(tmp_path, workload, master=5, order_seed=2)
    assert a["digest"] == b["digest"]


def test_inputs_follow_the_seed():
    def take(seed):
        return list(itertools.islice(workloads.round_inputs(seed), 5))

    assert take(4) == take(4)
    assert take(4) != take(5)
    assert all(0 <= master < workloads.POOL_SIZE for master, _ in take(4))


def test_layer_metric_names_resolve():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layers = {"rectifier.moment4": {"calls": 4, "total_s": 2.0, "self_s": 1.0}}
    for metric in spec["per_layer"]:
        if metric["name"] != "trace.overhead_frac":
            run._layer_value(metric["name"], layers, 4.0)
    assert run._layer_value("rectifier.moment4.us_per_call", layers, 4.0) == 5e5
    assert run._layer_value("rectifier.moment4.self_share", layers, 4.0) == 0.25
    assert run._layer_value("rectifier.moment4_s", layers, 4.0) == 2.0
    assert run._layer_value("csi.ls_estimate.us_per_call", layers, 4.0) == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cdf_c9", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
