"""One benchmark step in a fresh interpreter; `run.py` starts it.

Usage: ``python3 bench/worker.py '<json spec>'`` where the spec's "mode" is

- "setup":  import wptsim, parse and validate every config in "dir", then
  print ``ready``.  The caller times interpreter start to that line.
- "round":  run one round of "workload" in "dir" and print a JSON result:
  wall time, peak RSS, output digest and, with "trace", per-layer stats.
- "oracle": spot-check the closed-form rectifier output against the
  time-sampling oracle on designed receptions of every cell in "dir".

The package is imported from the checkout's own ``src`` directory.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

# Criterion-1 tolerance of the acceptance suite.
ORACLE_RTOL = 1e-8


def import_cli():
    """Import wptsim.cli from the checkout, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC_DIR, "wptsim", "cli.py")):
        raise SystemExit(f"no wptsim sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    from wptsim import cli

    if not os.path.abspath(cli.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(f"wptsim imported from {cli.__file__}, not {SRC_DIR}")
    return cli


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(spec: dict) -> None:
    import_cli()
    from wptsim import harness

    for name in sorted(os.listdir(spec["dir"])):
        if name.endswith(".cfg"):
            path = os.path.join(spec["dir"], name)
            harness.config_from_mapping(harness.load_config_file(path)).validate()
    print("ready", flush=True)


def round_(spec: dict) -> dict:
    import spans
    import workloads

    cli = import_cli()
    workload = workloads.WORKLOADS[spec["workload"]]
    os.chdir(spec["dir"])
    result = {"numpy": sys.modules["numpy"].__version__}
    recorder = spans.SpanRecorder()
    tracing = spans.traced(recorder) if spec["trace"] else contextlib.nullcontext([])
    try:
        with tracing as missing:
            start, cpu_start = time.perf_counter(), time.process_time()
            workloads.run_round(workload, cli)
            result["wall_s"] = time.perf_counter() - start
            result["cpu_s"] = time.process_time() - cpu_start
    except Exception:
        result["error"] = traceback.format_exc(limit=4)
        return result
    result["rss_mb"] = _peak_rss_mb()
    result["digest"] = workloads.output_digest(".", workloads.output_names(workload))
    if spec["trace"]:
        result["missing_layers"] = missing
        result["layers"] = spans.layer_stats(recorder.spans)
        recorder.write_csv(spec["spans_out"])
    return result


def oracle(spec: dict) -> dict:
    """z_dc against z_dc_time_oracle on designed receptions, cell by cell.

    Three receptions per cell for N <= 8.  Above that one reception per
    (scheme, N, M) group at the distance "pick" selects, because the
    oracle costs ~1.4 s per reception at N = 128.
    """
    import spans
    import workloads

    import_cli()
    from wptsim import channel, design, harness, rectifier

    workload = workloads.WORKLOADS[spec["workload"]]
    recorder = spans.SpanRecorder()
    checks, failures, worst = 0, [], 0.0
    with spans.traced(recorder) if spec["trace"] else contextlib.nullcontext():
        for call in workload.calls:
            path = os.path.join(spec["dir"], call.stem + ".cfg")
            cfg = harness.config_from_mapping(harness.load_config_file(path))
            distances = sorted(set(cfg.distances))
            cells = itertools.product(
                sorted(set(cfg.schemes)),
                sorted(set(cfg.tone_counts)),
                sorted(set(cfg.antenna_counts)),
                enumerate(distances),
            )
            for scheme_name, n, m, (d_index, distance) in cells:
                if n > 8 and d_index != spec["pick"] % len(distances):
                    continue
                scheme = cfg.scheme_obj(scheme_name)
                grid = cfg.grid_for(n)
                for r in range(3 if n <= 8 else 1):
                    seed = channel.derive_seed(
                        cfg.seed, spans.CHANNEL_STREAM, n, m, d_index, r
                    )
                    chan = channel.sample_channel(
                        cfg.channel_model, grid, m, seed, distance=distance
                    )
                    weights = design.apply_design(scheme, chan, grid)
                    tones = rectifier.received_tones(
                        weights, design.effective_channel(scheme, chan)
                    )
                    closed = rectifier.z_dc(tones, cfg.rectifier)
                    exact = rectifier.z_dc_time_oracle(tones, cfg.rectifier)
                    err = abs(closed - exact) / abs(exact)
                    checks += 1
                    worst = max(worst, err)
                    if not err <= ORACLE_RTOL:
                        failures.append([scheme_name, n, m, distance, r, err])
    return {
        "checks": checks,
        "failures": failures,
        "max_rel_err": worst,
        "layers": spans.layer_stats(recorder.spans),
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "setup":
        setup(spec)
        return
    result = round_(spec) if spec["mode"] == "round" else oracle(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
