"""Command-line front end.

Subcommands mirror the library workflows: design weights for a stored
channel, evaluate one DC output, run sweeps and CDFs, fit measurement
files, invert fitted curves into ranges, and check the reference claims.
Exit codes: 0 on success, 1 on validation errors, 2 when a reference claim
check fails.
"""

from __future__ import annotations

import argparse
import sys

from .channel import load_channel
from .design import DesignScheme, apply_design, effective_channel
from .fitlab import (
    PowerLawFit,
    fit_report,
    format_fit_report,
    invert_range,
    paper_fit,
    read_measurements_csv,
)
from .harness import (
    ExperimentConfig,
    cdf_to_csv,
    config_from_mapping,
    load_config_file,
    paper_check,
    run_cdf,
    run_sweep,
    sweep_to_csv,
)
from .rectifier import received_tones, z_dc
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
    """Config file first, then flag overrides (flags win)."""
    mapping = load_config_file(args.config) if args.config else {}
    for flag, key in _FLAG_KEYS:
        value = getattr(args, flag)
        if value is not None:
            mapping[key] = str(value)
    return config_from_mapping(mapping)


def _scheme_from_args(args: argparse.Namespace) -> DesignScheme:
    kwargs = {"kind": args.scheme}
    if args.power is not None:
        kwargs["power_budget"] = args.power
    if args.beta is not None:
        kwargs["beta"] = args.beta
    return DesignScheme(**kwargs)


def _design_for_channel(args: argparse.Namespace):
    channel = load_channel(args.channel)
    scheme = _scheme_from_args(args)
    grid = ToneGrid.for_band(channel.n_tones)
    return scheme, channel, apply_design(scheme, channel, grid)


def _cmd_design(args: argparse.Namespace) -> int:
    _, _, weights = _design_for_channel(args)
    if args.out is None:
        raise ValueError("design requires --out for the weight file")
    save_weights(weights, args.out)
    return _EXIT_OK


def _cmd_zdc(args: argparse.Namespace) -> int:
    scheme, channel, weights = _design_for_channel(args)
    tones = received_tones(weights, effective_channel(scheme, channel))
    value = z_dc(tones, ExperimentConfig().rectifier)
    print(format(value, ".9g"))
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    text = sweep_to_csv(run_sweep(cfg))
    _write_output(text, cfg.out_path)
    return _EXIT_OK


def _cmd_cdf(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    text = cdf_to_csv(run_cdf(cfg))
    _write_output(text, cfg.out_path)
    return _EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
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
    report = paper_check()
    text = "\n".join(report.lines())
    _write_output(text, args.out)
    return _EXIT_OK if report.all_passed else _EXIT_CLAIMS_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptsim",
        description="Multisine wireless power transfer simulator and analysis tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="master seed (non-negative)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--scheme", help="comma-separated schemes (cw,mrt,up,smf)")
        p.add_argument("--tones", help="comma-separated tone counts")
        p.add_argument("--antennas", help="comma-separated antenna counts")
        p.add_argument("--beta", type=float, help="matched-filter emphasis exponent")
        p.add_argument("--realizations", type=int, help="realizations per cell")

    def add_channel_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--channel", required=True, help="channel file (.csv or .json)")
        p.add_argument("--scheme", required=True, choices=["cw", "mrt", "up", "smf"])
        p.add_argument("--power", type=float, help="power budget (default 1.0)")
        p.add_argument("--beta", type=float, help="smf emphasis exponent")
        p.add_argument("--out", help="output file")

    p_design = sub.add_parser("design", help="design weights for a stored channel")
    add_channel_flags(p_design)
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
    p_range.add_argument("--target", type=float, required=True)
    p_range.add_argument("--a", type=float, help="fitted amplitude")
    p_range.add_argument("--b", type=float, help="fitted exponent")
    p_range.add_argument("--scheme", default="smf", help="reference curve scheme")
    p_range.add_argument("--tones", type=int, default=1)
    p_range.add_argument("--antennas", type=int, default=1)
    p_range.set_defaults(func=_cmd_range)

    p_check = sub.add_parser("paper-check", help="verify the reference claims")
    p_check.add_argument("--out", help="output file (default: stdout)")
    p_check.set_defaults(func=_cmd_paper_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
