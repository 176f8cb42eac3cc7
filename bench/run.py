"""wptsim benchmark: Monte-Carlo workloads through the real CLI.

Usage (from the repository root):

    python3 bench/run.py --workload cdf_c9 --seed 1 --seconds 25 --trace 0

A run repeats *rounds* of the workload (see `workloads.py`) for `--seconds`
seconds, each round in a fresh interpreter so that every round pays what a
user's `wptsim` invocation pays, the rectifier's per-N caches included.
Correctness is checked outside the timed region: every round's output
digest must equal the one recorded in `digests.json` for its master seed,
and the closed-form rectifier output must match the time-sampling oracle.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json: median realizations/s, median round wall time and peak RSS
over the rounds, and the median time from a fresh interpreter to an
imported package with parsed, validated configs.  With ``--trace 1`` it
alternates untraced and traced rounds of the same inputs, requires their
outputs to be identical, and reports the per-layer metrics from the traced
rounds' spans.  A per-layer metric is named ``<span>.<stat>`` with stat one
of calls, us_per_call, self_s or self_share (of the round's wall time), or
``<span>_s`` for the span's total seconds.

The last line of stdout is the JSON result; the line before it records the
run environment.  Details, and the spans of the last traced round, go to
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 120

# Per-layer spans that only the oracle spot check produces.
ORACLE_SPANS = {"rectifier.z_dc_time_oracle"}


def _worker(spec: dict) -> dict:
    """Run one worker step and return its JSON result, or {"error": ...}."""
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(spec)],
        capture_output=True,
        text=True,
        env={**os.environ, **BLAS_ENV},
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def _setup_seconds(directory: str) -> float | None:
    """Fresh interpreter to `ready`: import wptsim, parse and validate configs."""
    spec = json.dumps({"mode": "setup", "dir": directory})
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, WORKER, spec],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, **BLAS_ENV},
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return elapsed if line.strip() == "ready" and proc.returncode == 0 else None


def _write_configs(directory: str, files: dict[str, str]) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


class Tally:
    """Attempted and failed operations: realizations plus correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(note)
        return ok


def _round(workload, run_dir: str, index: int, master: int, order_seed: int,
           trace: bool, tally: Tally, digests: dict) -> dict:
    """One round in its own directory; tallies its realizations and digest."""
    directory = os.path.join(run_dir, f"round{index:03d}-{'traced' if trace else 'plain'}")
    _write_configs(directory, workloads.config_files(workload, master, order_seed))
    spec = {"mode": "round", "workload": workload.name, "dir": directory, "trace": trace}
    if trace:
        spec["spans_out"] = os.path.join(run_dir, "spans.csv")
    result = _worker(spec)
    result["master_seed"] = master
    ran = tally.check("error" not in result, f"round {index}: {result.get('error')}",
                      workload.realizations_per_round)
    if ran:
        expected = digests.get(workload.name, {}).get(str(master))
        tally.check(result["digest"] == expected,
                    f"round {index}: digest {result['digest']} != recorded {expected}")
    shutil.rmtree(directory)
    return result


def _oracle(workload, run_dir: str, master: int, trace: bool, tally: Tally) -> dict:
    directory = os.path.join(run_dir, "oracle")
    _write_configs(directory, workloads.config_files(workload, master, master))
    result = _worker({"mode": "oracle", "workload": workload.name, "dir": directory,
                      "trace": trace, "pick": master})
    shutil.rmtree(directory)
    if "error" in result:
        tally.check(False, f"oracle: {result['error']}")
        return result
    tally.attempted += result["checks"]
    tally.failed += len(result["failures"])
    tally.notes += [f"oracle mismatch {f}" for f in result["failures"]]
    return result


def _layer_value(metric: str, layers: dict, wall_s: float) -> float:
    """Value of one per-layer metric from a round's span statistics."""
    if metric.endswith("_s") and not metric.endswith(".self_s"):
        return layers.get(metric[:-2], {}).get("total_s", 0.0)
    span, _, stat = metric.rpartition(".")
    entry = layers.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    if stat == "calls":
        return entry["calls"]
    if stat == "us_per_call":
        return entry["total_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0
    if stat == "self_s":
        return entry["self_s"]
    if stat == "self_share":
        return entry["self_s"] / wall_s
    raise ValueError(f"unknown per-layer metric {metric!r}")


def _environment(seed: int, numpy_version: str | None) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_dir = os.path.join(ROOT, "src", "wptsim")
    sources = sorted(name for name in os.listdir(src_dir) if name.endswith(".py"))
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": workloads.output_digest(src_dir, sources),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_ENV,
        "seed": seed,
    }


def run(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details)."""
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    run_name = f"{workload.name}-seed{seed}-trace{int(trace)}"
    run_dir = os.path.join(ROOT, ".bench_out", run_name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tally = Tally()
    inputs = workloads.round_inputs(seed)

    setup_s = []
    if not trace:
        setup_dir = os.path.join(run_dir, "setup")
        _write_configs(setup_dir, workloads.config_files(workload, 0, seed))
        for _ in range(SETUP_REPEATS):
            elapsed = _setup_seconds(setup_dir)
            if tally.check(elapsed is not None, "setup failed"):
                setup_s.append(elapsed)

    plain, traced_rounds = [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() - start < seconds:
        master, order = next(inputs)
        if not trace:
            plain.append(_round(workload, run_dir, i, master, order, False, tally, digests))
        else:
            # Alternate which side goes first so drift hits both equally.
            pair = {}
            for side in ((False, True) if i % 2 == 0 else (True, False)):
                pair[side] = _round(workload, run_dir, i, master, order, side,
                                    tally, digests)
            plain.append(pair[False])
            traced_rounds.append(pair[True])
            if "digest" in pair[False] and "digest" in pair[True]:
                tally.check(pair[False]["digest"] == pair[True]["digest"],
                            f"round {i}: traced output differs from untraced")
        i += 1
    oracle = _oracle(workload, run_dir, plain[0]["master_seed"], trace, tally)

    ok_plain = [r for r in plain if "wall_s" in r]
    ok_traced = [r for r in traced_rounds if "wall_s" in r]
    if not ok_plain or (trace and not ok_traced):
        raise RuntimeError("no round completed: " + "; ".join(tally.notes[:3]))

    metrics = {}
    if not trace:
        per_round = {
            "realizations_per_s": [workload.realizations_per_round / r["wall_s"]
                                   for r in ok_plain],
            "wall_s": [r["wall_s"] for r in ok_plain],
            "peak_rss_mb": [r["rss_mb"] for r in ok_plain],
            "setup_s": setup_s,
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(per_round[m["name"]]),
                                  "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in ok_traced)
                         / statistics.median(r["wall_s"] for r in ok_plain) - 1.0)
            elif name.rpartition(".")[0] in ORACLE_SPANS:
                value = _layer_value(name, oracle.get("layers", {}), 1.0)
            else:
                value = statistics.median(
                    _layer_value(name, r["layers"], r["wall_s"]) for r in ok_traced)
            metrics[name] = {"value": value, "unit": m["unit"]}

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    details = {
        "workload": workload.name,
        "env": _environment(seed, ok_plain[0].get("numpy")),
        "rounds": plain + traced_rounds,
        "setup_s": setup_s,
        "oracle": {k: v for k, v in oracle.items() if k != "layers"},
        "failures": tally.notes,
        "result": result,
    }
    with open(os.path.join(run_dir, "details.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wptsim", "cli.py")):
        print(f"error: no wptsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result, details = run(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in details["failures"]:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({"env": details["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
