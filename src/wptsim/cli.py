"""Command-line front end.

Subcommands mirror the library workflows: design weights for a stored
channel, evaluate one DC output, run sweeps and CDFs, fit measurement
files, invert fitted curves into ranges, and check the reference claims.
Exit codes: 0 on success (and for ``--help``), 1 on usage and validation
errors, 2 when a reference claim check fails.  `main` returns the exit code
and never raises SystemExit, so it may be called repeatedly in one process;
it builds its argument parser once, on the first call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .channel import load_channel
from .design import DEFAULT_BETA, DesignScheme
from .design import apply_design, effective_channel
from .fitlab import (
    PowerLawFit,
    fit_report,
    format_fit_report,
    invert_range,
    paper_check,
    paper_fit,
    read_measurements_csv,
)
from .harness import (
    ExperimentConfig,
    cdf_to_csv,
    config_from_mapping,
    load_config_file,
    parse_config_value,
    run_cdf,
    run_sweep,
    sweep_to_csv,
)
from .rectifier import RectifierParams, received_tones, z_dc
from .signals import ToneGrid, save_weights

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_CLAIMS_FAILED = 2


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# (flag, config key) of each experiment flag that overrides a config file key
_FLAG_KEYS = (
    ("scheme", "schemes"), ("tones", "tones"), ("antennas", "antennas"),
    ("beta", "beta"), ("realizations", "realizations"), ("seed", "seed"),
    ("out", "out"),
)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config file first, then flag overrides (flags win); a flag's text is
    parsed exactly as the config key's value is."""
    mapping = load_config_file(args.config) if args.config else {}
    for flag, key in _FLAG_KEYS:
        value = getattr(args, flag)
        if value is not None:
            mapping[key] = value
    return config_from_mapping(mapping)


def _design_for_channel(args: argparse.Namespace):
    # --power and --beta parse as their config keys; an absent one keeps
    # DesignScheme's default.
    flags = {"power_budget": args.power, "beta": args.beta}
    values = {k: parse_config_value(k, v) for k, v in flags.items() if v is not None}
    scheme = DesignScheme(args.scheme, **values)
    channel = load_channel(args.channel)
    # A channel file holds no tone grid: it is designed on the default band.
    grid = ToneGrid.for_band(channel.n_tones)
    return scheme, channel, apply_design(scheme, channel, grid)


def _cmd_design(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValueError("design requires --out for the weight file")
    _check_out(args.out)
    _, _, weights = _design_for_channel(args)
    save_weights(weights, args.out)
    return _EXIT_OK


def _cmd_zdc(args: argparse.Namespace) -> int:
    scheme, channel, weights = _design_for_channel(args)
    tones = received_tones(weights, effective_channel(scheme, channel))
    value = z_dc(tones, RectifierParams())
    print(format(value, ".9g"))
    return _EXIT_OK


def _check_out(out_path: str | None) -> None:
    """Reject an `out` that cannot be written before any work runs; the file
    itself is neither created nor truncated here."""
    if out_path is None:
        return
    if not out_path:
        raise ValueError("out: must not be empty")
    parent = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        raise ValueError(f"out: {out_path!r} is a directory")
    if not os.path.isdir(parent):
        raise ValueError(f"out: directory {parent!r} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ValueError(f"out: directory {parent!r} is not writable")


def _run_experiment(args: argparse.Namespace, run, to_csv) -> int:
    """Run a sweep or CDF and write its CSV; running out of memory is an
    invalid config naming the keys that size the arrays."""
    cfg = _experiment_config(args)
    _check_out(cfg.out_path)
    try:
        text = to_csv(run(cfg))
    except MemoryError:
        raise ValueError(
            f"out of memory: realizations = {cfg.realizations}, tones up to "
            f"{max(cfg.tone_counts)}, antennas up to {max(cfg.antenna_counts)} "
            f"and n_taps = {cfg.channel_model.n_taps} size the arrays of a "
            "run; lower them"
        ) from None
    _write_output(text, cfg.out_path)
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_experiment(args, run_sweep, sweep_to_csv)


def _cmd_cdf(args: argparse.Namespace) -> int:
    return _run_experiment(args, run_cdf, cdf_to_csv)


def _cmd_fit(args: argparse.Namespace) -> int:
    _check_out(args.out)
    records = read_measurements_csv(args.measurements)
    text = format_fit_report(fit_report(records))
    _write_output(text, args.out)
    return _EXIT_OK


def _cmd_range(args: argparse.Namespace) -> int:
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ValueError("--a and --b must be given together")
        fit = PowerLawFit(a=args.a, b=args.b)
    else:
        fit = paper_fit(args.scheme, args.tones, args.antennas)
    print(format(invert_range(fit, args.target), ".9g"))
    return _EXIT_OK


def _cmd_paper_check(args: argparse.Namespace) -> int:
    _check_out(args.out)
    report = paper_check()
    text = "\n".join(report.lines())
    _write_output(text, args.out)
    return _EXIT_OK if report.all_passed else _EXIT_CLAIMS_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `wptsim` parser, built on the first call and shared after it;
    callers parse with it and must not add to it.

    Sharing is safe: each parse makes a fresh Namespace, no argument has a
    mutable default, and `set_defaults(func=_cmd_*)` binds the command
    functions once, which look up the library functions they call (for
    example `run_sweep` or `paper_check`) at call time, so patching those
    names still takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="wptsim",
        description="Multisine wireless power transfer simulator and analysis tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", help="master seed (non-negative)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--scheme", help="comma-separated schemes (cw,mrt,up,smf)")
        p.add_argument("--tones", help="comma-separated tone counts")
        p.add_argument("--antennas", help="comma-separated antenna counts")
        p.add_argument("--beta", help="matched-filter emphasis exponent")
        p.add_argument("--realizations", help="realizations per cell")

    def add_channel_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--channel", required=True, help="channel file (JSON)")
        p.add_argument("--scheme", required=True, help="one of cw, mrt, up, smf")
        p.add_argument("--power", help="power budget in W (default 1)")
        p.add_argument("--beta", help=f"smf exponent (default {DEFAULT_BETA:g})")

    p_design = sub.add_parser("design", help="design weights for a stored channel")
    add_channel_flags(p_design)
    p_design.add_argument("--out", help="weight file to write (required)")
    p_design.set_defaults(func=_cmd_design)

    p_zdc = sub.add_parser("zdc", help="DC output for one stored channel")
    add_channel_flags(p_zdc)
    p_zdc.set_defaults(func=_cmd_zdc)

    p_sweep = sub.add_parser("sweep", help="mean DC output over a parameter grid")
    add_experiment_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cdf = sub.add_parser("cdf", help="empirical DC output distributions")
    add_experiment_flags(p_cdf)
    p_cdf.set_defaults(func=_cmd_cdf)

    p_fit = sub.add_parser("fit", help="fit power-law curves to measurements")
    p_fit.add_argument("measurements", help="measurement CSV file")
    p_fit.add_argument("--out", help="output file (default: stdout)")
    p_fit.set_defaults(func=_cmd_fit)

    p_range = sub.add_parser("range", help="distance delivering a target power")
    # argparse reads a negative number in exponent form (-2e-05) as a flag,
    # so such a value must be attached with '='.
    p_range.add_argument(
        "--target", type=float, required=True,
        help="target DC power; attach a negative exponent-form value: --target=-2e-05",
    )
    p_range.add_argument(
        "--a", type=float,
        help="fitted amplitude; attach a negative exponent-form value: --a=-2e-05",
    )
    p_range.add_argument(
        "--b", type=float,
        help="fitted exponent; attach a negative exponent-form value: --b=-2e-05",
    )
    p_range.add_argument("--scheme", default="smf", help="reference curve scheme")
    p_range.add_argument("--tones", type=int, default=1)
    p_range.add_argument("--antennas", type=int, default=1)
    p_range.set_defaults(func=_cmd_range)

    p_check = sub.add_parser("paper-check", help="verify the reference claims")
    p_check.add_argument("--out", help="output file (default: stdout)")
    p_check.set_defaults(func=_cmd_paper_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (status 0) or the usage and its
        # error line (status 2, which is reserved for failed claims here).
        return _EXIT_OK if exc.code == 0 else _EXIT_INVALID
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
