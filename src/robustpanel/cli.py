"""Command-line surface: `fit` one panel CSV, or `simulate` a study config.

Exit codes: 0 success, 1 usage problem, 2 malformed data or config,
3 estimation failure on valid input.  Every error path prints exactly
one `error: ...` line to stderr so scripts can parse failures.
"""

import argparse
import contextlib
import csv
import math
import os
import sys

from .errors import ConfigError, DataError, EstimationError
from .estimators import fit_estimator
from .io import (
    fit_report_json,
    parse_config,
    read_panel_csv,
    write_weights_csv,
)
from .panel import ESTIMATOR_NAMES
from .simulation import run_experiment


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError("%s (see `%s --help`)" % (message, self.prog))


def _build_parser():
    parser = _Parser(prog="robustpanel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="{fit,simulate}")

    fit = sub.add_parser("fit", help="fit one estimator to a panel CSV")
    fit.add_argument("--input", required=True, help="panel CSV (unit,time,y,x1..xK)")
    fit.add_argument("--estimator", required=True, choices=ESTIMATOR_NAMES)
    fit.add_argument("--c", default="auto",
                     help="tuning constant, a positive number or 'auto' (default)")
    fit.add_argument("--seed", type=int, default=0,
                     help="seed for the high-breakdown start of every robust estimator")
    fit.add_argument("--out", default="fit_report.json",
                     help="JSON report path; weights CSV goes next to it")

    sim = sub.add_parser("simulate", help="run the configured replication studies")
    sim.add_argument("--config", required=True, help="JSON experiment config")
    sim.add_argument("--out-dir", required=True, help="directory for the CSV tables")
    return parser


@contextlib.contextmanager
def _writing():
    """Report a failed output write as a usage error: the caller named an
    output path that cannot be written."""
    try:
        yield
    except OSError as err:
        raise UsageError("cannot write output: %s" % (err,)) from None


def _fmt(value):
    return repr(float(value))


def _run_fit(args):
    c = args.c
    if c != "auto":
        try:
            c = float(c)
        except ValueError:
            c = math.nan
        if not 0 < c < math.inf:
            raise UsageError("--c must be a positive number or 'auto', got %r" % (args.c,))
    if args.seed < 0:
        raise UsageError("--seed must be a non-negative integer, got %d" % args.seed)
    panel = read_panel_csv(args.input)
    fit = fit_estimator(panel, args.estimator, c=c, seed=args.seed)
    stem, _ = os.path.splitext(args.out)
    with _writing():
        with open(args.out, "w") as fh:
            fh.write(fit_report_json(fit))
        write_weights_csv(panel, fit, stem + "_weights.csv")
    return 0


def _run_simulate(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise DataError("cannot read config %s: %s" % (args.config, err)) from None
    except UnicodeDecodeError as err:
        raise ConfigError("config %s is not UTF-8 text: cannot decode byte 0x%02x"
                          % (args.config, err.object[err.start])) from None
    config = parse_config(text)
    names = config.estimators
    tables = {}  # file name -> header and rows, in writing order
    if config.outlier_study is not None:
        tables["mse_table.csv"] = [["estimator"]] + [[name] for name in names]
        tables["rmse_table.csv"] = [["estimator"]] + [[name] for name in names]
    if config.consistency_study is not None:
        tables["consistency_curves.csv"] = [["axis", "n", "t", "estimator", "mse"]]
    if config.error_dist_study is not None:
        tables["se_samples.csv"] = [["error_dist", "n", "t", "estimator", "rep", "se"]]
    with _writing():
        os.makedirs(args.out_dir, exist_ok=True)
    for section, key, report in run_experiment(config):
        if section == "outlier_study":
            for table, values in ((tables["mse_table.csv"], report.mse),
                                  (tables["rmse_table.csv"], report.rmse)):
                table[0].append("%s_m%d" % key)
                for row, name in zip(table[1:], names):
                    row.append(_fmt(values[name]))
        elif section == "consistency_study":
            tables["consistency_curves.csv"] += [
                [*key, name, _fmt(report.mse[name])] for name in names]
        else:
            tables["se_samples.csv"] += [
                [*key, name, rep, _fmt(se)]
                for name in names for rep, se in enumerate(report.se_samples[name])]
    for file_name, rows in tables.items():
        path = os.path.join(args.out_dir, file_name)
        with _writing(), open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fit":
            return _run_fit(args)
        if args.command == "simulate":
            return _run_simulate(args)
        raise UsageError("a subcommand is required: fit or simulate")
    except UsageError as err:
        print("error: %s" % (err,), file=sys.stderr)
        return 1
    except DataError as err:
        print("error: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 2
    except EstimationError as err:
        print("error: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
