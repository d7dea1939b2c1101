"""CSV panel ingestion, experiment configuration, and serialization.

The on-disk panel schema is a flat CSV with header ``unit,time,y,x1..xK``
(K detected from the header).  Units and periods keep their order of
first appearance; nothing is sorted behind the caller's back.

The reader takes CHUNK_ROWS rows at a time and parses each column of a
chunk in one pass of C-level loops (``map``, ``float``, ``np.fromiter``).
A chunk that fails that pass is tidied in one row loop (blank rows and
blank trailing fields dropped, the chunk cut at its first short or long
row) and parsed column-wise again; only a non-numeric cell sends it row
by row, to find that cell.  Reading stops at the first row with fewer
fields than the header, with a non-blank field past the header's last
column, or with a non-numeric value cell; a repeated (unit, time) pair
among the rows read is reported before that fault, and a missing pair
after it.

One row writer serves the panel and weights files.  It formats each unit
and period label once, through ``csv`` so that a label holding a
delimiter, a quote or a line end is quoted, and writes floats with
``repr``, so a write/read round trip is exact.

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
import types
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


# rows per column-wise step: 4,096 read no faster, and a 25,000-cell fit peaked 3.5 MB higher
CHUNK_ROWS = 256


def read_panel_csv(path):
    """Read a balanced panel from ``unit,time,y,x1..xK`` CSV.

    Rows are read CHUNK_ROWS at a time and parsed column by column into
    flat arrays of label indices and values, so memory grows with the
    numbers, not with the text.  Labels and values are stripped of
    surrounding whitespace, and each value is parsed by Python's
    ``float``.  A blank row is skipped, and so are blank fields past the
    header's last column.  Reading stops at the first fault: a row with
    fewer fields than the header, a row with a non-blank field past the
    header's last column, or a non-numeric value cell.  A repeated
    (unit, time) pair among the rows read, the faulty row's own pair
    included when its fault is a non-numeric cell, is reported before
    that fault, and a missing pair after it.  The file is UTF-8, with or
    without a byte-order mark; bytes that are not, or a line csv cannot
    parse, stop the reading there with a DataError naming the file,
    unless a fault came before them.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            return _parse_panel(reader, path)
    except csv.Error as err:
        raise DataError("%s is not readable CSV at line %d: %s"
                        % (path, reader.line_num, err)) from None
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
    width = len(header)
    unit_col, time_col = header.index("unit"), header.index("time")
    value_cols = [header.index(name) for name in names[2:]]

    units, periods = {}, {}  # label -> index, in first-appearance order
    unit_idx, period_idx, row_nos = array("q"), array("q"), array("q")
    # y, x1..xK of each row in turn, in one buffer: one buffer per column left a
    # 1M-cell read peaking 8 MB higher, glibc keeping freed heap resident
    values = array("d")

    fault = None  # the first short, long or non-numeric row
    row_no = 2  # of the chunk's first row
    for rows, error in _chunks(reader):
        nos = range(row_no, row_no + len(rows))
        row_no += len(rows)
        parsed = _parse_columns(rows, width, value_cols)
        if parsed is None:  # a blank, short, long or non-numeric row
            rows, nos, fault = _tidy(rows, nos, width)
            parsed = _parse_columns(rows, width, value_cols)
        if parsed is None:  # a non-numeric cell comes before any fault _tidy found
            i, j = _first_bad_cell(rows, value_cols)
            fault = NonNumericCell("row %d, column %s: %r is not numeric"
                                   % (nos[i], names[2 + j], rows[i][value_cols[j]].strip()))
            # its row's pair goes in too: a bad cell on a repeating row reports the repeat
            parsed = _parse_columns(rows[:i], width, value_cols)
            rows, nos = rows[:i + 1], nos[:i + 1]
        unit_idx.frombytes(_indices(units, map(operator.itemgetter(unit_col), rows)).tobytes())
        period_idx.frombytes(_indices(periods, map(operator.itemgetter(time_col), rows)).tobytes())
        row_nos.extend(nos)
        values.frombytes(np.column_stack(parsed).tobytes())
        if fault is not None:
            break
        if error is not None:  # the rows before it held no fault
            raise error

    n, t = len(units), len(periods)
    cells = np.frombuffer(unit_idx, dtype=np.int64) * t + np.frombuffer(period_idx, dtype=np.int64)
    del unit_idx, period_idx  # each buffer goes once used: together they set the peak
    # n * t pairs read are all present exactly when none repeats: at 1M cells
    # 1 MB of flags tells that, where a sort takes 16 MB
    balanced = cells.size == n * t
    if balanced:
        present = np.zeros(n * t, dtype=bool)
        present[cells] = True
        balanced = bool(present.all())
        del present
    if not balanced:  # sorted, the pairs read give the first repeat and the first gap
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
        gaps = np.flatnonzero(ranked != np.arange(ranked.size))  # no repeat: ranked[m] >= m
        missing = int(gaps[0]) if gaps.size else ranked.size
        del order, ranked, repeats, gaps
    del row_nos
    if fault is not None:
        raise fault
    if not balanced:
        i, s = divmod(missing, t)
        raise UnbalancedPanel("missing row for unit %r, time %r"
                              % (list(units)[i], list(periods)[s]))
    flat = np.empty((n * t, k + 1))
    flat[cells] = np.frombuffer(values).reshape(-1, k + 1)
    del cells, values
    return PanelData(flat[:, 0].reshape(n, t), flat[:, 1:].reshape(n, t, k),
                     unit_labels=tuple(units), period_labels=tuple(periods))


def _indices(labels, cells):
    """The indices in ``labels`` (label -> index) of the stripped ``cells``,
    as an int64 array; labels not seen before join at the end, in order of
    first appearance."""
    stripped = list(map(str.strip, cells))
    labels.update(zip(itertools.filterfalse(labels.__contains__, dict.fromkeys(stripped)),
                      itertools.count(len(labels))))
    return np.fromiter(map(labels.__getitem__, stripped), np.int64, len(stripped))


def _chunks(reader):
    """The reader's rows, CHUNK_ROWS to a list, each list paired with None;
    the last is paired with the csv or decoding error that stopped the
    reading, if one did, and holds the rows read before it."""
    while True:
        rows = []
        try:
            rows.extend(itertools.islice(reader, CHUNK_ROWS))
        except (csv.Error, UnicodeDecodeError) as err:
            yield rows, err
            return
        if not rows:
            return
        yield rows, None


def _tidy(rows, nos, width):
    """The ``rows`` before the first short or long one, less blank rows and
    less blank fields past ``width``, with their row numbers from ``nos``;
    then that row's fault, or None."""
    kept, kept_nos = [], []
    for row, no in zip(rows, nos):
        if not any(map(str.strip, row)):
            continue
        if len(row) != width:
            if len(row) < width or any(map(str.strip, row[width:])):
                return kept, kept_nos, (MissingColumn if len(row) < width else DataError)(
                    "row %d has %d fields but the header has %d" % (no, len(row), width))
            row = row[:width]
        kept.append(row)
        kept_nos.append(no)
    return kept, kept_nos, None


def _parse_columns(rows, width, value_cols):
    """Each value column of ``rows`` as a float64 array parsed by ``float``,
    or None when a row is not ``width`` fields long or a value cell is not
    numeric."""
    if not all(map(width.__eq__, map(len, rows))):
        return None
    try:
        return [np.fromiter(map(float, map(str.strip, map(operator.itemgetter(j), rows))),
                            float, len(rows)) for j in value_cols]
    except ValueError:
        return None


def _first_bad_cell(rows, value_cols):
    """The row and the position in ``value_cols`` of the first non-numeric
    value cell of ``rows``, which holds one."""
    for i, row in enumerate(rows):
        for j, col in enumerate(value_cols):
            try:
                float(row[col].strip())
            except ValueError:
                return i, j


def _csv_fields(labels):
    """Each label as csv writes it in a row: quoted where it holds a
    delimiter, a quote or a line end.  A label goes out beside an empty
    field, since csv writes a lone empty field as ``""``, and under a
    ``"\\r\\n"`` line end, since csv quotes a carriage return or a line
    feed only when the line terminator holds it."""
    fields = []  # the writer's line of each label, less the empty field and the line end
    csv.writer(types.SimpleNamespace(write=lambda line: fields.append(line[:-3])),
               lineterminator="\r\n").writerows(zip(labels, itertools.repeat("")))
    return fields


def _write_cells(path, panel, names, table):
    """Write the header ``unit,time,*names``, then one row per cell in
    unit-major order: its unit and period labels, then its row of the
    (NT, C) float ``table``, each float as ``repr``.  Each label is
    formatted once, and the rows go out 1,024 to a string."""
    pairs = itertools.product(_csv_fields(panel.unit_labels), _csv_fields(panel.period_labels))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["unit", "time", *names]) + "\n")
        for block in np.split(table, range(1024, len(table), 1024)):
            reprs = map(repr, block.reshape(-1).tolist())  # floats never need quoting
            values = zip(*[reprs] * table.shape[1])  # each cell's C reprs, as a tuple
            lines = map(",".join, map(operator.add, itertools.islice(pairs, len(block)), values))
            fh.write("\n".join(lines) + "\n")


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
    """Per-observation weights of a fit; LS is unweighted, so all ones,
    written from one broadcast 1.0 rather than an (N, T) array."""
    w = fit.weights if fit.weights is not None else np.broadcast_to(1.0, panel.y.shape)
    _write_cells(path, panel, ["weight"], w.reshape(-1, 1))
