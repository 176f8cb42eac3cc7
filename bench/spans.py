"""Span recorder for the traced benchmark run.

Tracing wraps the program's layer functions at the module attributes their
callers resolve them by, so nothing in the package changes.  Each call
becomes a span ``[name, start, end, parent, realization]``: `parent` is the
index of the enclosing span (-1 at top level) and `realization` numbers the
Monte-Carlo realization in progress (-1 outside one).  Spans stay in memory
until `write_csv` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time

# Channel seeds use stream tag 0 (the harness draws one first in every
# realization); CSI noise seeds use tag 1.
CHANNEL_STREAM = 0

# (module, attribute, span name).  A dotted attribute patches a class member.
LAYER_PATCHES = (
    ("wptsim.cli", "main", "cli.main"),
    ("wptsim.cli", "load_config_file", "harness.config"),
    ("wptsim.cli", "config_from_mapping", "harness.config"),
    ("wptsim.harness", "ExperimentConfig.validate", "harness.config"),
    ("wptsim.cli", "run_sweep", "harness.run"),
    ("wptsim.cli", "run_cdf", "harness.run"),
    ("wptsim.cli", "sweep_to_csv", "harness.to_csv"),
    ("wptsim.cli", "cdf_to_csv", "harness.to_csv"),
    ("wptsim.cli", "fit_report", "fitlab.fit_report"),
    ("wptsim.cli", "invert_range", "fitlab.invert_range"),
    ("wptsim.harness", "derive_seed", "channel.derive_seed"),
    ("wptsim.harness", "sample_channel", "channel.sample_channel"),
    ("wptsim.harness", "apply_design", "design.apply_design"),
    ("wptsim.harness", "effective_channel", "design.effective_channel"),
    ("wptsim.harness", "received_tones", "rectifier.received_tones"),
    ("wptsim.harness", "z_dc", "rectifier.z_dc"),
    ("wptsim.harness", "csi_loop_zdc", "csi.csi_loop_zdc"),
    ("wptsim.csi", "ls_estimate", "csi.ls_estimate"),
    ("wptsim.csi", "quantize_csi", "csi.quantize_csi"),
    ("wptsim.csi", "apply_design", "design.apply_design"),
    ("wptsim.csi", "effective_channel", "design.effective_channel"),
    ("wptsim.csi", "received_tones", "rectifier.received_tones"),
    ("wptsim.csi", "z_dc", "rectifier.z_dc"),
    ("wptsim.design", "PrecoderWeights", "signals.PrecoderWeights"),
    ("wptsim.rectifier", "moment2", "rectifier.moment2"),
    ("wptsim.rectifier", "moment4", "rectifier.moment4"),
    ("wptsim.rectifier", "z_dc_time_oracle", "rectifier.z_dc_time_oracle"),
)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._realization = -1
        self._realizations = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_realization = name == "channel.derive_seed"
        ends_realizations = name == "harness.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_realization and len(args) > 1 and args[1] == CHANNEL_STREAM:
                self._realization = self._realizations
                self._realizations += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self._realization]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if ends_realizations:
                    self._realization = -1

        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "realization"])
            for i, (name, start, end, parent, realization) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, realization])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Overlapping children are merged and children are clipped to the parent
    interval, so a span's self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    stats: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = stats.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += self_s
    return stats


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Patch every layer in `LAYER_PATCHES` for the duration of the block.

    Yields the patch targets that no longer exist; their layers then show
    zero calls instead of failing the run.
    """
    restore, missing = [], []
    try:
        for module_name, attr, span_name in LAYER_PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, recorder.wrap(span_name, original))
            restore.append((owner, leaf, original))
        yield missing
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)
