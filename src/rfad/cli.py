"""Command-line entry point.

Subcommands: simulate, calibrate, fingerprint, classify, coupling,
stats, export. Every subcommand is a pure pipeline over files: the same
inputs, config and seed produce byte-identical outputs.

Importing this module loads no numpy. The array modules (``signal``,
``coupling``, ``population``) are imported inside the commands that
use them, so ``calibrate``, ``fingerprint``, ``classify``, ``export``
and ``stats --records`` run without numpy: reader logs, code series and
their windowed estimate live in the numpy-free ``readlog``. Each rfad
call is a short process, and the numpy import is most of its start-up
time.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import kiviat as _kiviat
from . import readlog as _readlog
from .classify import (DEFAULT_POPULATION_SEED, load_records, reliability_report,
                       save_records)
from .classify import classify as _classify_value
from .config import load_config
from .errors import DataError, NumericalError, RfadError
from .files import check_output_dir, json_text, write_json
from .fingerprint import (averaged_fingerprint, build_fingerprint, fingerprint_label,
                          fingerprint_record, load_fingerprints, readings,
                          save_fingerprints)
from .hand import FINGERS
from .materials import REFERENCE_LIQUIDS, load_materials
from .units import dbm_from_watts

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
    from . import signal as _signal
    if args.material and args.material not in REFERENCE_LIQUIDS:
        raise DataError(f"unknown reference material {args.material!r}; "
                        f"known: {sorted(REFERENCE_LIQUIDS)}")
    acquisition = dict(sample_period=config.sample_period,
                       sawtooth_frequency=config.sawtooth_frequency)
    channels = [channel for channel in FINGERS if channel in (args.channels or FINGERS)]
    if args.material:
        eps = load_materials()[args.material].epsilon
        fluct = _signal.material_fluctuation_model(args.material, baseline=0, **acquisition)
        baselines = [config.channel_code(channel, eps) for channel in channels]
    else:
        fluct = _signal.FluctuationModel(baseline=args.baseline, **acquisition)
        baselines = [args.baseline] * len(channels)
    times, codes = _signal.synthesize_block(
        fluct, args.duration, [args.seed + FINGERS.index(channel) for channel in channels],
        baselines=baselines)
    times = times.tolist()
    series = {channel: _readlog.CodeSeries(times, row)
              for channel, row in zip(channels, codes.tolist())}
    _readlog.write_series(series, args.output)
    print(f"wrote {sum(len(s) for s in series.values())} samples to {args.output}")


def _log_estimate(path, estimate, config):
    """``estimate(series, window, estimator)`` of the log at ``path``; errors name it."""
    series = _readlog.load_code_series(path)
    try:
        return estimate(series, config.window, config.estimator)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _cmd_calibrate(args, config):
    baseline = _log_estimate(args.log, _readlog.calibrate, config)
    _readlog.save_baseline(baseline, args.output)
    gaps = f", gaps: {', '.join(baseline.gaps)}" if baseline.gaps else ""
    print(f"baseline for {len(baseline.codes)} channels -> {args.output}{gaps}")


def _cmd_fingerprint(args, config):
    baseline = _readlog.load_baseline(args.baseline)
    codes = _log_estimate(args.log, _readlog.channel_codes, config)
    fp = build_fingerprint(readings(codes), baseline, material_label=args.label)
    save_fingerprints([fp], args.output)
    print(json_text(fingerprint_record(fp)), end="")


def _cmd_classify(args, config):
    classes = config.classes()
    if args.value is not None:
        values = [("value", args.value)]
    else:
        fps = load_fingerprints(args.fingerprints)
        values = [(fingerprint_label(fp, i), averaged_fingerprint(fp))
                  for i, fp in enumerate(fps)]
    for label, value in values:
        print(f"{label}: F={value:.2f} -> {_classify_value(value, classes)}")


def _cmd_coupling(args, config):
    from . import coupling as _coupling
    # the output place and the turn-on levels are checked before the summary is printed
    if args.output:
        check_output_dir(args.output)
    turn_on = [(channel, _coupling.turn_on_power(args.tau, config.transducer_gains[channel],
                                                 config.ic_sensitivity))
               for channel in FINGERS] if args.turn_on else []
    if args.matrix:
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
    if args.output:
        _coupling.export_coupling_csv(report, labels, args.output)
        print(f"wrote {args.output}")
    if turn_on:
        print("Turn-on power per channel:")
        for channel, p in turn_on:
            print(f"  {channel}: {1e3 * p:.3g} mW ({dbm_from_watts(p):.1f} dBm)")


def _cmd_stats(args, config):
    if args.generate:
        # every output place is checked before the campaign runs
        if args.log_dir is not None and not os.path.isdir(args.log_dir):
            raise DataError(f"--log-dir {args.log_dir}: not an existing directory")
        for target in (args.records_out, args.output):
            if target is not None:
                check_output_dir(target)
        from . import population as _population
        records = _population.generate_population(
            _population.PopulationSpec(), seed=args.seed, config=config,
            out_dir=args.log_dir)
        if args.records_out:
            save_records(records, args.records_out)
    else:
        records = load_records(args.records)
    report = reliability_report(records)
    payload = {
        "trials": len(records),
        "ccd_percent": list(report.ccd),
        "per_finger_rates": report.per_finger_rates,
        "joint_rates": report.joint_rates,
    }
    if args.output:
        write_json(args.output, payload)
        print(f"wrote {args.output}")
    else:
        print(json_text(payload), end="")


class _GenerateOnly(argparse.Action):
    """Stores an option that only ``stats --generate`` reads, and notes
    that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.generate_only += (self.option_strings[0],)


def _check_stats(parser, args):
    """``--records`` reads a campaign: the options that shape a generated
    one are a usage error with it, not silently ignored."""
    if args.records is not None and args.generate_only:
        parser.error(f"{', '.join(dict.fromkeys(args.generate_only))}: not allowed with "
                     f"--records (only --generate reads them)")


def _cmd_export(args, config):
    fps = load_fingerprints(args.fingerprints)
    _kiviat.export_kiviat(fps, args.output)
    print(f"wrote {args.output} (+ CSV twin)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rfad",
                     description="Multi-channel auto-tuning RFID dielectric "
                                 "sensing toolkit")
    parser.add_argument("--config", help="session config file (layered on defaults)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize sensor-code series")
    p.add_argument("--baseline", type=int, default=200)
    p.add_argument("--duration", type=float, default=70.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--material", default=None)
    p.add_argument("--channels", nargs="*", choices=FINGERS, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_simulate)

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
    p.add_argument("--tau", type=float, default=0.85)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_coupling)

    p = sub.add_parser("stats", help="population reliability statistics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--records", help="trial records JSON")
    group.add_argument("--generate", action="store_true",
                       help="generate the default synthetic campaign")
    p.add_argument("--seed", type=int, default=DEFAULT_POPULATION_SEED, action=_GenerateOnly)
    p.add_argument("--log-dir", default=None, action=_GenerateOnly)
    p.add_argument("--records-out", default=None, action=_GenerateOnly)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_stats, generate_only=(),
                   check=functools.partial(_check_stats, p))

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
    except (DataError, RfadError, OSError) as exc:
        print(f"rfad: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
