"""Command-line surface: `fit` one panel CSV, or `simulate` a study config.

Exit codes: 0 success, 1 usage problem, 2 malformed data or config,
3 estimation failure on valid input.  Every error path prints exactly
one `error: ...` line to stderr so scripts can parse failures.
"""

import argparse
import csv
import math
import os
import sys

from .errors import DataError, EstimationError
from .estimators import fit_estimator
from .io import (
    fit_report_json,
    parse_config,
    read_panel_csv,
    write_weights_csv,
)
from .panel import ESTIMATOR_NAMES
from .simulation import (
    ContaminationScheme,
    DgpConfig,
    _seeds,
    rmse_prediction_study,
    run_mc,
)


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


def _write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    panel = read_panel_csv(args.input)
    fit = fit_estimator(panel, args.estimator, c=c, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(fit_report_json(fit))
    stem, _ = os.path.splitext(args.out)
    write_weights_csv(panel, fit, stem + "_weights.csv")
    return 0


def _dgp(config, n, t, error_dist=None):
    return DgpConfig(n_units=n, n_periods=t, beta=config.beta, gamma=config.gamma,
                     error_dist=error_dist or config.error_dist)


def _outlier_tables(config, out_dir):
    study = config.outlier_study
    dgp = _dgp(config, study.n_units, study.n_periods)
    columns = []
    mse_rows = {name: [] for name in config.estimators}
    rmse_rows = {name: [] for name in config.estimators}
    for ki, kind in enumerate(study.kinds):
        for mi, m in enumerate(study.m_levels):
            columns.append("%s_m%d" % (kind, m))
            report = rmse_prediction_study(
                dgp,
                ContaminationScheme(kind=kind, m=m),
                config.estimators,
                config.s,
                study.n_test,
                _seeds(config.master_seed, (1, ki, mi))[0],
            )
            for name in config.estimators:
                mse_rows[name].append(report.mse[name])
                rmse_rows[name].append(report.rmse[name])
    header = ["estimator"] + columns
    _write_table(
        os.path.join(out_dir, "mse_table.csv"), header,
        [[name] + [_fmt(v) for v in mse_rows[name]] for name in config.estimators],
    )
    _write_table(
        os.path.join(out_dir, "rmse_table.csv"), header,
        [[name] + [_fmt(v) for v in rmse_rows[name]] for name in config.estimators],
    )


def _consistency_table(config, out_dir):
    study = config.consistency_study
    rows = []
    for axis, points in (("n", [(n, study.t_fixed) for n in study.n_values]),
                         ("t", [(study.n_fixed, t) for t in study.t_values])):
        for pi, (n, t) in enumerate(points):
            report = run_mc(_dgp(config, n, t), None, config.estimators, config.s,
                            _seeds(config.master_seed, (2, 0 if axis == "n" else 1, pi))[0])
            for name in config.estimators:
                rows.append([axis, n, t, name, _fmt(report.mse[name])])
    _write_table(os.path.join(out_dir, "consistency_curves.csv"),
                 ["axis", "n", "t", "estimator", "mse"], rows)


def _se_samples_table(config, out_dir):
    study = config.error_dist_study
    base_seed = _seeds(config.master_seed, (3,))[0]
    rows = []
    for di, dist in enumerate(("normal", "t5", "chisq4", "cauchy")):
        for pi, (n, t) in enumerate(study.pairs):
            report = run_mc(_dgp(config, n, t, dist), None, config.estimators, config.s,
                            _seeds(base_seed, (di, pi))[0])
            for name in config.estimators:
                for rep, se in enumerate(report.se_samples[name]):
                    rows.append([dist, n, t, name, rep, _fmt(se)])
    _write_table(os.path.join(out_dir, "se_samples.csv"),
                 ["error_dist", "n", "t", "estimator", "rep", "se"], rows)


def _run_simulate(args):
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as err:
        raise DataError("cannot read config %s: %s" % (args.config, err)) from None
    config = parse_config(text)
    os.makedirs(args.out_dir, exist_ok=True)
    if config.outlier_study is not None:
        _outlier_tables(config, args.out_dir)
    if config.consistency_study is not None:
        _consistency_table(config, args.out_dir)
    if config.error_dist_study is not None:
        _se_samples_table(config, args.out_dir)
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
