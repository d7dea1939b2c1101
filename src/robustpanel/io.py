"""CSV panel ingestion, experiment configuration, and serialization.

The on-disk panel schema is a flat CSV with header ``unit,time,y,x1..xK``
(K detected from the header).  Units and periods keep their order of
first appearance; nothing is sorted behind the caller's back.  One row
writer serves the panel and weights files, floats written with ``repr``
so a write/read round trip is exact.

Experiment configurations are JSON documents mirroring the simulation
module's dataclasses; ``parse_config(serialize_config(cfg))`` returns an
equal config, and unknown keys fail loudly with the offending name.
"""

import csv
import dataclasses
import itertools
import json
import operator
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DuplicateCell,
    MissingColumn,
    NonNumericCell,
    UnbalancedPanel,
)
from .panel import ESTIMATOR_NAMES, PanelData
from .simulation import CONTAMINATION_KINDS, ERROR_DISTS, _is_whole, check_contamination


def read_panel_csv(path):
    """Read a balanced panel from ``unit,time,y,x1..xK`` CSV.

    Rows are parsed as they are read into flat arrays of label indices and
    values, so memory grows with the numbers, not with the text.  Reading
    stops at the first short row or non-numeric cell; a repeated
    (unit, time) pair among the rows read is reported before that fault,
    and a missing pair after it.  The file is UTF-8, with or without a
    byte-order mark.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _parse_panel(csv.reader(fh), path)
    except OSError as err:
        raise DataError("cannot read %s: %s" % (path, err)) from None
    except UnicodeDecodeError as err:
        raise DataError("%s is not UTF-8 text: cannot decode byte 0x%02x"
                        % (path, err.object[err.start])) from None


def _parse_panel(reader, path):
    header = next(reader, None)
    if header is None:
        raise MissingColumn("%s is empty; expected header unit,time,y,x1..xK" % (path,))
    header = [name.strip() for name in header]
    for required in ("unit", "time", "y"):
        if required not in header:
            raise MissingColumn("missing required column %r" % (required,))
    k = 0  # regressors x1..xK, K the first gap
    while "x%d" % (k + 1) in header:
        k += 1
    if k == 0:
        raise MissingColumn("missing required column 'x1' (need at least one regressor)")
    names = ["unit", "time", "y"] + ["x%d" % (j + 1) for j in range(k)]
    for name in names:
        if header.count(name) > 1:
            raise DataError("column %r appears %d times in the header"
                            % (name, header.count(name)))
    unit_col, time_col = header.index("unit"), header.index("time")
    value_cols = [header.index(name) for name in names[2:]]

    units, periods = {}, {}  # label -> index, in first-appearance order
    unit_idx, period_idx, row_nos = array("q"), array("q"), array("q")
    values = array("d")  # y, x1..xK of each row in turn
    fault = None  # the first short row or non-numeric cell
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            fault = MissingColumn("row %d has %d fields but the header has %d"
                                  % (row_no, len(row), len(header)))
            break
        # the pair goes in first: a bad cell on a repeating row reports the repeat
        unit_idx.append(units.setdefault(row[unit_col].strip(), len(units)))
        period_idx.append(periods.setdefault(row[time_col].strip(), len(periods)))
        row_nos.append(row_no)
        for name, j in zip(names[2:], value_cols):
            cell = row[j].strip()
            try:
                values.append(float(cell))
            except ValueError:
                fault = NonNumericCell("row %d, column %s: %r is not numeric"
                                       % (row_no, name, cell))
                break
        if fault is not None:
            break

    n, t = len(units), len(periods)
    cells = np.frombuffer(unit_idx, dtype=np.int64) * t + np.frombuffer(period_idx, dtype=np.int64)
    del unit_idx, period_idx  # each buffer goes once used: together they set the peak
    order = np.argsort(cells, kind="stable")  # equal keys stay in file order
    ranked = cells[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:  # report the earliest repeat in file order
        repeat = int(repeats.min())
        first = int(order[np.searchsorted(ranked, cells[repeat])])
        i, s = divmod(int(cells[repeat]), t)
        raise DuplicateCell("duplicate row for unit %r, time %r (rows %d and %d)"
                            % (list(units)[i], list(periods)[s],
                               row_nos[first], row_nos[repeat]))
    del order, ranked, repeats, row_nos
    if fault is not None:
        raise fault
    if cells.size < n * t:
        present = np.zeros(n * t, dtype=bool)
        present[cells] = True
        i, s = divmod(int(np.argmin(present)), t)
        raise UnbalancedPanel("missing row for unit %r, time %r"
                              % (list(units)[i], list(periods)[s]))
    flat = np.empty((n * t, k + 1))
    flat[cells] = np.frombuffer(values).reshape(-1, k + 1)
    del cells, values
    return PanelData(flat[:, 0].reshape(n, t), flat[:, 1:].reshape(n, t, k),
                     unit_labels=tuple(units), period_labels=tuple(periods))


def _write_cells(path, panel, names, table):
    """Write the header ``unit,time,*names``, then one row per cell in
    unit-major order: its unit and period labels, then its row of the
    (NT, C) float ``table``, each float as ``repr``."""
    flat = table.reshape(-1)  # to Python floats 1,024 at a time, not all NT at once
    reprs = map(repr, itertools.chain.from_iterable(
        block.tolist() for block in np.split(flat, range(1024, flat.size, 1024))))
    values = zip(*[reprs] * table.shape[1])  # each cell's C reprs, as a tuple
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["unit", "time", *names])
        writer.writerows(map(operator.add,
                             itertools.product(panel.unit_labels, panel.period_labels), values))


def write_panel_csv(panel, path):
    """Write a panel in the same schema ``read_panel_csv`` accepts."""
    k = panel.x.shape[2]
    _write_cells(path, panel, ["y"] + ["x%d" % (j + 1) for j in range(k)],
                 np.column_stack((panel.y.reshape(-1), panel.x.reshape(-1, k))))


def _is_finite_real(value):
    """True for an int or float (not a bool) inside the finite float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_sizes(section, **sizes):
    """Reject panel dimensions that cannot form a panel (N, T >= 2)."""
    for key, values in sizes.items():
        for v in values if isinstance(values, (tuple, list)) else (values,):
            if not _is_whole(v, 2):
                raise ConfigError("%s.%s: sizes must be whole numbers of at least 2, got %r"
                                  % (section, key, v))


@dataclass(frozen=True)
class OutlierStudyConfig:
    """One Table-style grid: every contamination kind at every m level."""

    n_units: int = 120
    n_periods: int = 2
    kinds: tuple = CONTAMINATION_KINDS
    m_levels: tuple = (12, 24)
    n_test: int = 50

    def __post_init__(self):
        _check_sizes("outlier_study", n_units=self.n_units, n_periods=self.n_periods,
                     n_test=self.n_test)
        for kind in self.kinds:
            if kind not in CONTAMINATION_KINDS:
                raise ConfigError("unknown contamination kind %r" % (kind,))
        for m in self.m_levels:
            if not _is_whole(m, 0):
                raise ConfigError("outlier_study.m_levels: contaminated cell counts must be "
                                  "whole numbers of at least 0, got %r" % (m,))
            for kind in self.kinds:
                try:
                    check_contamination(kind, m, self.n_units, self.n_periods)
                except (ValueError, DataError) as err:
                    raise ConfigError("outlier_study.m_levels: %s" % (err,)) from None


@dataclass(frozen=True)
class ConsistencyStudyConfig:
    n_values: tuple = (50, 100, 150, 200, 250)
    t_fixed: int = 3
    t_values: tuple = (4, 6, 9, 12, 24)
    n_fixed: int = 50

    def __post_init__(self):
        _check_sizes("consistency_study", n_values=self.n_values, t_fixed=self.t_fixed,
                     t_values=self.t_values, n_fixed=self.n_fixed)


@dataclass(frozen=True)
class ErrorDistStudyConfig:
    pairs: tuple = ((30, 20), (75, 8), (200, 3))

    def __post_init__(self):
        for pair in self.pairs:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ConfigError("error_dist_study.pairs must hold [n, t] pairs, got %r"
                                  % (pair,))
            _check_sizes("error_dist_study", pairs=pair)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything `simulate` needs: estimators, replication count, seeds,
    the data-generating parameters, and which studies to run."""

    estimators: tuple = ESTIMATOR_NAMES
    s: int = 50
    master_seed: int = 0
    beta: tuple = (2.4, -1.2)
    gamma: tuple = (2.0, 4.0)
    error_dist: str = "normal"
    outlier_study: OutlierStudyConfig = None
    consistency_study: ConsistencyStudyConfig = None
    error_dist_study: ErrorDistStudyConfig = None

    def __post_init__(self):
        if not self.estimators or any(name not in ESTIMATOR_NAMES for name in self.estimators):
            raise ConfigError("estimators must be a nonempty list drawn from %s, got %r"
                              % (ESTIMATOR_NAMES, self.estimators))
        if not _is_whole(self.s, 1):
            raise ConfigError("s must be a positive replication count, got %r" % (self.s,))
        if not _is_whole(self.master_seed, 0):
            raise ConfigError("master_seed must be a nonnegative whole number, got %r"
                              % (self.master_seed,))
        if self.error_dist not in ERROR_DISTS:
            raise ConfigError("unknown error_dist %r" % (self.error_dist,))
        for key in ("beta", "gamma"):
            if not getattr(self, key):
                raise ConfigError("%s must hold at least one coefficient" % (key,))
            for v in getattr(self, key):
                if not _is_finite_real(v):
                    raise ConfigError("%s entries must be finite numbers, got %r" % (key, v))
        if len(self.beta) != len(self.gamma):
            raise ConfigError("beta and gamma must have equal length")
        o, cs, e = self.outlier_study, self.consistency_study, self.error_dist_study
        panels = [] if o is None else [("outlier_study.n_units", o.n_units, o.n_periods),
                                       ("outlier_study.n_test", o.n_test, o.n_periods)]
        if cs is not None:
            panels += [("consistency_study.n_values", n, cs.t_fixed) for n in cs.n_values]
            panels += [("consistency_study.t_values", cs.n_fixed, t) for t in cs.t_values]
        panels += [] if e is None else [("error_dist_study.pairs", n, t) for n, t in e.pairs]
        for key, n, t in panels:  # every training and holdout panel of the studies
            if 8 * int(n) * int(t) * len(self.beta) > np.iinfo(np.intp).max:
                raise ConfigError("%s: an N x T = %d x %d panel of %d regressors is too large "
                                  "for one array" % (key, n, t, len(self.beta)))


_SECTION_TYPES = {
    "outlier_study": OutlierStudyConfig,
    "consistency_study": ConsistencyStudyConfig,
    "error_dist_study": ErrorDistStudyConfig,
}


def _build(cls, data, where):
    """`cls` from the decoded JSON object at `where` ("config" or a section
    name).  Unknown keys, and a scalar where a list belongs, fail with the
    key's name."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    for key in data:
        if key not in fields:
            raise ConfigError("unknown key %r in %s" % (key, where))
    kwargs = {}
    for key, value in data.items():
        if key in _SECTION_TYPES and value is not None:
            if not isinstance(value, dict):
                raise ConfigError("%s must be an object, got %r" % (key, type(value).__name__))
            value = _build(_SECTION_TYPES[key], value, key)
        elif isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        elif isinstance(fields[key], tuple):
            raise ConfigError("%s must be a list, got %r"
                              % (key if where == "config" else where + "." + key, value))
        kwargs[key] = value
    return cls(**kwargs)


def parse_config(text):
    """Parse an ExperimentConfig from its JSON form."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("config is not valid JSON: %s" % (err,)) from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return _build(ExperimentConfig, data, "config")


def serialize_config(config):
    """JSON form of an ExperimentConfig; parse_config inverts this."""
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n"


def fit_report_json(fit):
    """JSON document for one fitted model."""
    report = {
        "estimator": fit.estimator,
        "beta": [float(b) for b in fit.beta],
        "std_errors": None
        if fit.std_errors is None
        else [float(s) for s in fit.std_errors],
        "sigma_hat": float(fit.sigma_hat),
        "c_selected": None if fit.c_selected is None else float(fit.c_selected),
        "iterations": int(fit.iterations),
        "converged": bool(fit.converged),
    }
    return json.dumps(report, indent=2) + "\n"


def write_weights_csv(panel, fit, path):
    """Per-observation weights of a fit; LS is unweighted, so all ones."""
    w = fit.weights if fit.weights is not None else np.ones(panel.y.shape)
    _write_cells(path, panel, ["weight"], w.reshape(-1, 1))
