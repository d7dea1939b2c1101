"""Independent oracles used by the test suite.

These deliberately avoid the library's own linear algebra: the within-group
LS oracle centers, builds the normal equations, and solves them with exact
rational arithmetic (every float is exactly representable as a Fraction, so
the oracle result is the mathematically exact solution for the given bits).
The panel CSV oracle reads one row at a time into dicts, with no chunks
and no index arrays.
"""

import csv
from fractions import Fraction

import numpy as np

from robustpanel.errors import (
    DataError,
    DuplicateCell,
    MissingColumn,
    NonNumericCell,
    UnbalancedPanel,
)
from robustpanel.panel import PanelData


def _solve_fraction_system(a, b):
    """Gaussian elimination with partial pivoting over Fractions.

    a is a K x K list-of-lists, b a length-K list; both are modified.
    """
    k = len(b)
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise ZeroDivisionError("singular system in oracle")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for row in range(col + 1, k):
            factor = a[row][col] / a[col][col]
            for j in range(col, k):
                a[row][j] -= factor * a[col][j]
            b[row] -= factor * b[col]
    sol = [Fraction(0)] * k
    for row in range(k - 1, -1, -1):
        acc = b[row]
        for j in range(row + 1, k):
            acc -= a[row][j] * sol[j]
        sol[row] = acc / a[row][row]
    return sol


def exact_within_ls(y, x):
    """Exact-rational within-group LS for y (N, T) and x (N, T, K).

    Returns the normal-equation solution (sum xdd xdd')^-1 (sum xdd ydd) as a
    float vector, computed entirely in Fractions.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n, t, k = x.shape
    yf = [[Fraction(v) for v in row] for row in y]
    xf = [[[Fraction(v) for v in cell] for cell in row] for row in x]

    a = [[Fraction(0)] * k for _ in range(k)]
    b = [Fraction(0)] * k
    for i in range(n):
        ymean = sum(yf[i]) / t
        xmean = [sum(xf[i][s][j] for s in range(t)) / t for j in range(k)]
        for s in range(t):
            yc = yf[i][s] - ymean
            xc = [xf[i][s][j] - xmean[j] for j in range(k)]
            for p in range(k):
                b[p] += xc[p] * yc
                for q in range(k):
                    a[p][q] += xc[p] * xc[q]
    sol = _solve_fraction_system(a, b)
    return np.array([float(v) for v in sol])


def direct_rmse(y, yhat):
    """Plain-loop recomputation of sqrt(sum of squared errors / (N*T))."""
    n, t = np.asarray(y).shape
    acc = 0.0
    for i in range(n):
        for s in range(t):
            acc += (y[i][s] - yhat[i][s]) ** 2
    return (acc / (n * t)) ** 0.5


def read_panel_rows(path):
    """Row-by-row reading of a panel CSV with a valid header, by the rules
    ``io.read_panel_csv`` documents.

    Blank rows are skipped.  Each other row, in file order, is either a
    fault (fewer fields than the header, or a non-blank field past its
    last column), a repeat of a pair already read, or a new pair whose
    value cells are then parsed; the first of these faults or repeats is
    raised at once.  After the last row, the first missing pair in label
    order is raised.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [name.strip() for name in next(reader)]
        k = 0
        while "x%d" % (k + 1) in header:
            k += 1
        names = ["y"] + ["x%d" % (j + 1) for j in range(k)]
        unit_col, time_col = header.index("unit"), header.index("time")
        units, periods, first_row, values = {}, {}, {}, {}
        for row_no, row in enumerate(reader, start=2):
            if all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header) or any(cell.strip() for cell in row[len(header):]):
                error = MissingColumn if len(row) < len(header) else DataError
                raise error("row %d has %d fields but the header has %d"
                            % (row_no, len(row), len(header)))
            unit, period = row[unit_col].strip(), row[time_col].strip()
            units.setdefault(unit, len(units))
            periods.setdefault(period, len(periods))
            if (unit, period) in first_row:
                raise DuplicateCell("duplicate row for unit %r, time %r (rows %d and %d)"
                                    % (unit, period, first_row[unit, period], row_no))
            first_row[unit, period] = row_no
            values[unit, period] = []
            for name in names:
                cell = row[header.index(name)].strip()
                try:
                    values[unit, period].append(float(cell))
                except ValueError:
                    raise NonNumericCell("row %d, column %s: %r is not numeric"
                                         % (row_no, name, cell)) from None
    for unit in units:
        for period in periods:
            if (unit, period) not in values:
                raise UnbalancedPanel("missing row for unit %r, time %r" % (unit, period))
    cells = np.array([values[unit, period] for unit in units for period in periods],
                     dtype=float).reshape(-1, k + 1)
    n, t = len(units), len(periods)
    return PanelData(cells[:, 0].reshape(n, t), cells[:, 1:].reshape(n, t, k),
                     unit_labels=tuple(units), period_labels=tuple(periods))
