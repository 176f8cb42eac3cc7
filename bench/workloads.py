"""The benchmark's workloads: generated configs and the CLI calls they drive.

A workload is a fixed grid of `wptsim` CLI calls.  One *round* runs every
call of the workload once, in a fresh interpreter, with `key = value` config
files generated here.  A round's master seed is drawn from a pool of
`POOL_SIZE` seeds whose output digests are recorded in `digests.json`, so
every round's CSVs can be checked byte for byte against this commit.  The
benchmark's own `--seed` picks the master seeds and shuffles the order of
every list in the configs; the harness must sort them, so the shuffle must
not change a byte of output.

This module needs only the standard library; `run_round` drives the CLI
module it is handed, inside the worker interpreter.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import statistics
from dataclasses import dataclass

POOL_SIZE = 16

_LIST_KEYS = ("schemes", "tones", "antennas", "distances")

# Every workload: default rectifier, 10 mW transmit budget.
_COMMON = {"power_budget": "0.01"}


@dataclass(frozen=True)
class Call:
    """One `wptsim sweep` or `wptsim cdf` call; writes `<stem>.csv`."""

    command: str
    stem: str
    settings: dict

    @property
    def cells(self) -> int:
        """(scheme, tones, antennas, distance) cells the call sweeps."""
        return math.prod(len(self.settings[key].split(",")) for key in _LIST_KEYS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]
    realizations: int
    fit_range: bool = False

    @property
    def realizations_per_round(self) -> int:
        return self.realizations * sum(call.cells for call in self.calls)


_CSI = {
    "csi_enabled": "true",
    "noise_variance": "1e-3",
    "quant_bits": "8",
    "channel_kind": "frequency_flat",
    "distances": "1,2,4",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cdf_c9",
            why=(
                "acceptance criterion-9 CDF grid at d = 2 m on the tapped-delay "
                "channel; cost is the per-realization Python loop, moment4 "
                "stays small at N <= 8"
            ),
            calls=(
                Call("cdf", "c9_smf_n1", {"schemes": "smf", "tones": "1",
                                          "antennas": "1", "distances": "2"}),
                Call("cdf", "c9_smf_n8", {"schemes": "smf", "tones": "8",
                                          "antennas": "1,2,4", "distances": "2"}),
                Call("cdf", "c9_mrt", {"schemes": "mrt", "tones": "1",
                                       "antennas": "1,2,4,8", "distances": "2"}),
            ),
            realizations=1200,
        ),
        Workload(
            name="wideband_range",
            why=(
                "large-N sweep (N up to 128) then fit and range: the "
                "fourth-moment quadruple sum and its per-N cache dominate "
                "time and peak memory"
            ),
            calls=(
                Call("sweep", "wide", {"schemes": "smf,up", "tones": "16,32,64,128",
                                       "antennas": "4", "distances": "1,2,4,8"}),
            ),
            realizations=3,
            fit_range=True,
        ),
        Workload(
            name="csi_flat",
            why=(
                "noisy quantized CSI on the frequency-flat channel, CW and MRT "
                "special cases: puts csi and a second seed derivation on the "
                "per-realization path"
            ),
            calls=(
                Call("sweep", "csi_single_tone", {"schemes": "cw,mrt", "tones": "1",
                                                  "antennas": "1,2,4,8", **_CSI}),
                Call("sweep", "csi_multisine", {"schemes": "up,smf", "tones": "8",
                                                "antennas": "2,4", **_CSI}),
            ),
            realizations=250,
        ),
    )
}


def round_inputs(seed: int):
    """Endless (master seed, list-order seed) pairs for a run's rounds."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(POOL_SIZE), rng.getrandbits(32)


def config_files(
    workload: Workload, master_seed: int, order_seed: int, realizations: int | None = None
) -> dict[str, str]:
    """`key = value` config text for each call, keyed by file name.

    `order_seed` shuffles the items of every list key; the output of the
    program must not depend on it.
    """
    rng = random.Random(order_seed)
    files = {}
    for call in workload.calls:
        settings = {**_COMMON, **call.settings}
        for key in _LIST_KEYS:
            items = settings[key].split(",")
            rng.shuffle(items)
            settings[key] = ",".join(items)
        settings["realizations"] = str(realizations or workload.realizations)
        settings["seed"] = str(master_seed)
        settings["out"] = call.stem + ".csv"
        lines = [f"# wptsim {call.command}"]
        lines += [f"{key} = {value}" for key, value in settings.items()]
        files[call.stem + ".cfg"] = "\n".join(lines) + "\n"
    return files


def output_digest(directory: str, names: list[str]) -> str:
    """SHA-256 over the named files: name, NUL, bytes, in the given order."""
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def output_names(workload: Workload) -> list[str]:
    names = [call.stem + ".csv" for call in workload.calls]
    if workload.fit_range:
        names += ["measurements.csv", "fits.json", "ranges.csv"]
    return names


def _cli(cli, argv: list[str]) -> str:
    """Run `wptsim <argv>` in-process and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"wptsim {' '.join(argv)} exited with {code}")
    return out.getvalue()


def run_round(workload: Workload, cli) -> None:
    """Run every CLI call of one round in the current directory."""
    for call in workload.calls:
        _cli(cli, [call.command, "--config", call.stem + ".cfg"])
    if workload.fit_range:
        _fit_and_range(workload.calls[0].stem + ".csv", cli)


def _fit_and_range(sweep_csv: str, cli) -> None:
    """Fit p(d) = a d^b to the per-cell means and invert each fit into a range.

    The target power is the median cell mean, so the ranges fall near the
    swept distances.
    """
    with open(sweep_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open("measurements.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scheme", "n_tones", "m_antennas", "distance_m", "p_dc"])
        for row in rows:
            writer.writerow([row["scheme"], row["n_tones"], row["m_antennas"],
                             row["distance_m"], row["zdc_mean"]])
    _cli(cli, ["fit", "measurements.csv", "--out", "fits.json"])
    target = format(statistics.median(float(r["zdc_mean"]) for r in rows), ".9g")
    with open("fits.json", encoding="utf-8") as fh:
        fits = json.load(fh)["fits"]
    with open("ranges.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scheme", "n_tones", "m_antennas", "target", "range_m"])
        for fit in fits:
            argv = ["range", "--target", target,
                    "--a", repr(fit["a"]), "--b", repr(fit["b"])]
            writer.writerow([fit["scheme"], fit["n_tones"], fit["m_antennas"], target,
                             _cli(cli, argv).strip()])
