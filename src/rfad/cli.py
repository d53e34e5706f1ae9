"""Command-line entry point.

Subcommands: simulate, calibrate, fingerprint, classify, coupling,
stats, export. Every subcommand is a pure pipeline over files: the same
inputs, config and seed produce byte-identical outputs.

Each rfad call is a short process, and loading code is most of its
start-up time, so a command loads only the modules it runs: this module
imports at its top what ``main`` and ``build_parser`` need, and each
command imports the rest. So ``simulate``, ``calibrate``, ``fingerprint``,
``classify``, ``export`` and ``stats --records`` load no numpy (the reader
logs live in the numpy-free ``readlog``, and ``simulate`` draws numpy's
normal stream in the pure-Python ``fluctuation``), only ``export`` loads
``kiviat``, ``classify``, ``export`` and ``stats --records`` load no
``readlog``, and ``simulate`` no ``fingerprint``, the air baseline's home.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import DEFAULT_POPULATION_SEED, check_seed, load_config
from .errors import DataError, NumericalError, RfadError, UncalibratedChannelError
from .files import check_outputs, json_text, write_json
from .hand import FINGERS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cmd_simulate(args, config):
    check_outputs([("-o", args.output)], [args.config])
    from .fluctuation import FluctuationModel, material_fluctuation_model, synthesize_rows
    from .materials import PERMITTIVITY, REFERENCE_LIQUIDS
    from .readlog import CodeSeries, write_series
    # channel k's seed is --seed + k: refuse a negative --seed whatever --channels
    check_seed(args.seed)
    if args.material is not None and args.material not in REFERENCE_LIQUIDS:
        raise DataError(f"unknown reference material {args.material!r}; "
                        f"known: {sorted(REFERENCE_LIQUIDS)}")
    acquisition = dict(sample_period=config.sample_period,
                       sawtooth_frequency=config.sawtooth_frequency)
    channels = [channel for channel in FINGERS if channel in (args.channels or FINGERS)]
    if args.material is not None:
        eps = PERMITTIVITY[args.material]
        fluct = material_fluctuation_model(args.material, baseline=0, **acquisition)
        baselines = [config.channel_code(channel, eps) for channel in channels]
    else:
        fluct = FluctuationModel(baseline=args.baseline, **acquisition)
        baselines = [args.baseline] * len(channels)
    times, rows = synthesize_rows(
        fluct, args.duration, [args.seed + FINGERS.index(channel) for channel in channels],
        baselines=baselines)
    series = {channel: CodeSeries(times, row) for channel, row in zip(channels, rows)}
    write_series(series, args.output)
    print(f"wrote {sum(len(s) for s in series.values())} samples to {args.output}")


def _log_codes(path, config):
    """The session's code of each channel of the log at ``path``; errors name it."""
    from .readlog import channel_codes, load_code_series
    series = load_code_series(path)
    try:
        return channel_codes(series, config.window, config.estimator)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _cmd_calibrate(args, config):
    check_outputs([("-o", args.output)], [args.log, args.config])
    from .fingerprint import CalibrationBaseline, save_baseline
    baseline = CalibrationBaseline(_log_codes(args.log, config))
    save_baseline(baseline, args.output)
    gaps = f", gaps: {', '.join(baseline.gaps)}" if baseline.gaps else ""
    print(f"baseline for {len(baseline.codes)} channels -> {args.output}{gaps}")


def _cmd_fingerprint(args, config):
    check_outputs([("-o", args.output)], [args.log, args.baseline, args.config])
    from .fingerprint import (build_fingerprint, check_material_label, fingerprint_record,
                              load_baseline, readings, save_fingerprints)
    check_material_label(args.label, "--label: ")
    baseline = load_baseline(args.baseline)
    codes = _log_codes(args.log, config)
    try:
        fp = build_fingerprint(readings(codes), baseline, material_label=args.label)
    except UncalibratedChannelError as exc:
        raise DataError(f"{args.baseline}: {exc}") from None
    save_fingerprints([fp], args.output)
    print(json_text(fingerprint_record(fp)), end="")


def _cmd_classify(args, config):
    from .classify import classify
    from .fingerprint import averaged_fingerprint, fingerprint_label, load_fingerprints
    classes = config.classes()
    if args.value is not None:
        print(f"value: F={args.value:.2f} -> {classify(args.value, classes)}")
        return
    # every fingerprint is classified before any line is printed, so a failure prints none
    lines = []
    for i, fp in enumerate(load_fingerprints(args.fingerprints)):
        label, value = fingerprint_label(fp, i), averaged_fingerprint(fp)
        try:
            lines.append(f"{label}: F={value:.2f} -> {classify(value, classes)}")
        except DataError as exc:
            raise DataError(f"{args.fingerprints}: {label}: {exc}") from None
    print("\n".join(lines))


def _cmd_coupling(args, config):
    # the output place and the turn-on levels are checked before the summary is printed
    check_outputs([("-o", args.output)], [args.matrix, args.config])
    from . import coupling as _coupling
    from .units import dbm_from_watts
    turn_on = [(channel, _coupling.turn_on_power(args.tau, config.transducer_gains[channel],
                                                 config.ic_sensitivity))
               for channel in FINGERS] if args.turn_on else []
    if args.matrix is not None:
        z = _coupling.load_impedance_matrix(args.matrix)
        k = _coupling.power_wave_scattering(
            z, _coupling.PortLoad(config.ic_load))
        labels = z.port_labels
        report = _coupling.normalize_coupling(k)
    else:
        labels = FINGERS
        report = _coupling.normalize_coupling(
            _coupling.REFERENCE_COUPLING_MAGNITUDES)
    print(_coupling.coupling_summary(report, labels))
    if args.output is not None:
        _coupling.export_coupling_csv(report, labels, args.output)
        print(f"wrote {args.output}")
    if turn_on:
        print("Turn-on power per channel:")
        for channel, p in turn_on:
            print(f"  {channel}: {1e3 * p:.3g} mW ({dbm_from_watts(p):.1f} dBm)")


def _cmd_stats(args, config):
    from .classify import (PopulationSpec, campaign_trials, check_series, load_records,
                           log_name, reliability_report)
    if args.generate:
        # every output place, then the seed, then the series the config gives,
        # is checked before the campaign runs, or numpy loads
        if args.log_dir is not None and not os.path.isdir(args.log_dir):
            raise DataError(f"--log-dir {args.log_dir}: not an existing directory")
        spec = PopulationSpec()
        # the run's reader logs come first, so an output that names one is refused as that log
        logs = [] if args.log_dir is None else [
            ("a reader log of --log-dir", os.path.join(args.log_dir, log_name(*trial)))
            for trial in campaign_trials(spec)]
        check_outputs(logs + [("--records-out", args.records_out), ("-o", args.output)],
                      [args.config])
        check_seed(args.seed)
        check_series(config.sample_period, config.window)
        from . import population as _population
        records = _population.generate_population(
            spec, seed=args.seed, config=config, out_dir=args.log_dir)
        if args.records_out is not None:
            _population.save_records(records, args.records_out)
    else:
        check_outputs([("-o", args.output)], [args.records, args.config])
        records = load_records(args.records)
    report = reliability_report(records)
    payload = {
        "trials": len(records),
        "ccd_percent": list(report.ccd),
        "per_finger_rates": report.per_finger_rates,
        "joint_rates": report.joint_rates,
    }
    if args.output is not None:
        write_json(args.output, payload)
        print(f"wrote {args.output}")
    else:
        print(json_text(payload), end="")


class _OneModeOnly(argparse.Action):
    """Stores an option that its command reads in one mode only, and notes
    that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.one_mode_only += (self.option_strings[0],)


def _check_mode(parser, ignored, why, args):
    """The options of one mode are a usage error where ``ignored(args)``
    says the command would not read them, not silently ignored."""
    if args.one_mode_only and ignored(args):
        parser.error(f"{', '.join(dict.fromkeys(args.one_mode_only))}: {why}")


def _cmd_export(args, config):
    from . import kiviat as _kiviat
    from .fingerprint import load_fingerprints
    # the chart and its twin are checked before the fingerprints are read
    check_outputs(_kiviat.chart_targets(args.output), [args.fingerprints, args.config])
    fps = load_fingerprints(args.fingerprints)
    try:
        svg_path = _kiviat.export_kiviat(fps, args.output)
    except DataError as exc:
        raise DataError(f"{args.fingerprints}: {exc}") from None
    print(f"wrote {svg_path} (+ CSV twin)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rfad",
                     description="Multi-channel auto-tuning RFID dielectric "
                                 "sensing toolkit")
    parser.add_argument("--config", help="session config file (layered on defaults)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize sensor-code series")
    p.add_argument("--baseline", type=int, default=200, action=_OneModeOnly)
    p.add_argument("--duration", type=float, default=70.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--material", default=None)
    p.add_argument("--channels", nargs="+", choices=FINGERS, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_simulate, one_mode_only=(), check=functools.partial(
        _check_mode, p, lambda args: args.material is not None,
        "not allowed with --material (its material sets the baseline)"))

    p = sub.add_parser("calibrate", help="air baseline from a reader log")
    p.add_argument("log")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("fingerprint", help="hand fingerprint from log + baseline")
    p.add_argument("log")
    p.add_argument("--baseline", required=True)
    p.add_argument("--label", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("classify", help="threshold classification")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fingerprints")
    group.add_argument("--value", type=float, default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("coupling", help="multiport coupling report")
    p.add_argument("--matrix", help="impedance matrix file (default: shipped fixture)")
    p.add_argument("--turn-on", action="store_true")
    p.add_argument("--tau", type=float, default=0.85, action=_OneModeOnly)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_coupling, one_mode_only=(), check=functools.partial(
        _check_mode, p, lambda args: not args.turn_on,
        "not allowed without --turn-on (only --turn-on reads it)"))

    p = sub.add_parser("stats", help="population reliability statistics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--records", help="trial records JSON")
    group.add_argument("--generate", action="store_true",
                       help="generate the default synthetic campaign")
    p.add_argument("--seed", type=int, default=DEFAULT_POPULATION_SEED, action=_OneModeOnly)
    p.add_argument("--log-dir", default=None, action=_OneModeOnly)
    p.add_argument("--records-out", default=None, action=_OneModeOnly)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_stats, one_mode_only=(), check=functools.partial(
        _check_mode, p, lambda args: args.records is not None,
        "not allowed with --records (only --generate reads them)"))

    p = sub.add_parser("export", help="Kiviat radar chart (SVG + CSV)")
    p.add_argument("fingerprints")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "check"):
            args.check(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args, load_config(args.config))
    except NumericalError as exc:
        print(f"rfad: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RfadError, OSError) as exc:
        print(f"rfad: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
