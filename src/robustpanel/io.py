"""CSV panel ingestion, experiment configuration, and serialization.

The on-disk panel schema is a flat CSV with header ``unit,time,y,x1..xK``
(K detected from the header).  Units and periods keep their order of
first appearance; nothing is sorted behind the caller's back.  Floats
are written with ``repr`` so a write/read round trip is exact.

Experiment configurations are JSON documents mirroring the simulation
module's dataclasses; ``parse_config(serialize_config(cfg))`` returns an
equal config, and unknown keys fail loudly with the offending name.
"""

import csv
import dataclasses
import json
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
from .simulation import CONTAMINATION_KINDS, ERROR_DISTS, block_length


def read_panel_csv(path):
    """Read a balanced panel from ``unit,time,y,x1..xK`` CSV.

    Rows are parsed as they are read into flat arrays of label indices and
    values, so memory grows with the numbers, not with the text.  Faults
    are reported in file order: the first short row, repeated
    (unit, time) pair or non-numeric cell, then a missing pair.  The file
    is UTF-8, with or without a byte-order mark.
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

    def cell_keys():
        return np.frombuffer(unit_idx, dtype=np.int64) * len(periods) + np.frombuffer(
            period_idx, dtype=np.int64)

    def duplicate_error():
        """DuplicateCell for the earliest repeat of a (unit, time) pair read
        so far, in file order, or None."""
        keys = cell_keys()
        order = np.argsort(keys, kind="stable")  # equal keys stay in file order
        ranked = keys[order]
        repeats = order[1:][ranked[1:] == ranked[:-1]]
        if repeats.size == 0:
            return None
        repeat = int(repeats.min())
        first = int(order[np.searchsorted(ranked, keys[repeat])])
        return DuplicateCell("duplicate row for unit %r, time %r (rows %d and %d)"
                             % (list(units)[unit_idx[repeat]],
                                list(periods)[period_idx[repeat]],
                                row_nos[first], row_nos[repeat]))

    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise duplicate_error() or MissingColumn(
                "row %d has %d fields but the header has %d" % (row_no, len(row), len(header))
            )
        unit_idx.append(units.setdefault(row[unit_col].strip(), len(units)))
        period_idx.append(periods.setdefault(row[time_col].strip(), len(periods)))
        row_nos.append(row_no)
        for name, j in zip(names[2:], value_cols):
            cell = row[j].strip()
            try:
                values.append(float(cell))
            except ValueError:
                raise duplicate_error() or NonNumericCell(
                    "row %d, column %s: %r is not numeric" % (row_no, name, cell)
                ) from None

    n, t = len(units), len(periods)
    error = duplicate_error()
    if error is not None:
        raise error
    cells = cell_keys()
    if cells.size < n * t:
        present = np.zeros(n * t, dtype=bool)
        present[cells] = True
        i, s = divmod(int(np.argmin(present)), t)
        raise UnbalancedPanel("missing row for unit %r, time %r"
                              % (list(units)[i], list(periods)[s]))
    flat = np.empty((n * t, k + 1))
    flat[cells] = np.frombuffer(values).reshape(-1, k + 1)
    return PanelData(flat[:, 0].reshape(n, t), flat[:, 1:].reshape(n, t, k),
                     unit_labels=tuple(units), period_labels=tuple(periods))


def write_panel_csv(panel, path):
    """Write a panel in the same schema ``read_panel_csv`` accepts."""
    k = panel.x.shape[2]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["unit", "time", "y"] + ["x%d" % (j + 1) for j in range(k)])
        for i, unit in enumerate(panel.unit_labels):
            for s, time in enumerate(panel.period_labels):
                writer.writerow(
                    [unit, time, repr(float(panel.y[i, s]))]
                    + [repr(float(v)) for v in panel.x[i, s]]
                )


def _is_whole(value, minimum):
    """True for an int (not a bool) of at least `minimum`."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


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
        cells = self.n_units * self.n_periods
        block = block_length(self.n_periods)
        concentrated = any(kind.startswith("concentrated") for kind in self.kinds)
        for m in self.m_levels:
            if not _is_whole(m, 0):
                raise ConfigError("outlier_study.m_levels: contaminated cell counts must be "
                                  "whole numbers of at least 0, got %r" % (m,))
            if m > cells:
                raise ConfigError("outlier_study.m_levels: m = %d exceeds the %d panel cells"
                                  % (m, cells))
            if concentrated and m % block:
                raise ConfigError("outlier_study.m_levels: m = %d does not split into the "
                                  "%d-period blocks of a concentrated kind" % (m, block))
            if concentrated and m // block > self.n_units:
                raise ConfigError("outlier_study.m_levels: m = %d needs %d contaminated units "
                                  "in a concentrated kind but the panel has %d"
                                  % (m, m // block, self.n_units))


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["unit", "time", "weight"])
        for i, unit in enumerate(panel.unit_labels):
            for s, time in enumerate(panel.period_labels):
                writer.writerow([unit, time, repr(float(w[i, s]))])
