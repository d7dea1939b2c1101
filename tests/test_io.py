import csv
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustpanel import io
from robustpanel.errors import (
    ConfigError,
    DataError,
    DuplicateCell,
    MissingColumn,
    NonNumericCell,
    UnbalancedPanel,
)
from robustpanel.io import (
    ConsistencyStudyConfig,
    ErrorDistStudyConfig,
    ExperimentConfig,
    OutlierStudyConfig,
    parse_config,
    read_panel_csv,
    serialize_config,
    write_panel_csv,
    write_weights_csv,
)
from robustpanel.estimators import fit_estimator
from robustpanel.panel import PanelData

from conftest import synth_panel
from oracles import read_panel_rows


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReadPanelCsv:
    def test_happy_path_two_by_two(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "unit,time,y,x1",
            "a,1,1.5,0.25",
            "a,2,2.5,0.5",
            "b,1,3.0,1.0",
            "b,2,4.0,2.0",
        ])
        panel = read_panel_csv(path)
        assert panel.y.shape == (2, 2)
        assert panel.x.shape == (2, 2, 1)
        assert panel.y[1, 0] == 3.0
        assert panel.x[0, 1, 0] == 0.5

    def test_first_appearance_ordering(self, tmp_path):
        # deliberately un-sorted unit and period labels
        path = write_lines(tmp_path / "p.csv", [
            "unit,time,y,x1",
            "zeta,q4,1,1",
            "zeta,q1,2,2",
            "alpha,q4,3,3",
            "alpha,q1,4,4",
        ])
        panel = read_panel_csv(path)
        assert panel.unit_labels == ("zeta", "alpha")
        assert panel.period_labels == ("q4", "q1")
        assert panel.y[0, 0] == 1.0  # (zeta, q4) stays first

    def test_detects_k_from_header(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "unit,time,y,x1,x2,x3",
            "a,1,0,1,2,3",
            "a,2,0,4,5,6",
            "b,1,0,7,8,9",
            "b,2,0,1,3,5",
        ])
        assert read_panel_csv(path).x.shape == (2, 2, 3)

    def test_missing_column_named(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["unit,time,x1", "a,1,2"])
        with pytest.raises(MissingColumn, match="'y'"):
            read_panel_csv(path)

    def test_missing_regressor_column(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["unit,time,y", "a,1,2"])
        with pytest.raises(MissingColumn, match="'x1'"):
            read_panel_csv(path)

    def test_short_row_named(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["unit,time,y,x1", "a,1,1,1", "a,2,2.0"])
        with pytest.raises(MissingColumn, match="row 3 has 3 fields"):
            read_panel_csv(path)

    def test_duplicate_cell_named(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "unit,time,y,x1",
            "a,1,1,1",
            "a,1,2,2",
        ])
        with pytest.raises(DuplicateCell, match="unit 'a', time '1'"):
            read_panel_csv(path)

    def test_unbalanced_names_missing_pair(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "unit,time,y,x1",
            "a,1,1,1",
            "a,2,2,2",
            "b,1,3,3",
        ])
        with pytest.raises(UnbalancedPanel, match="unit 'b', time '2'"):
            read_panel_csv(path)

    def test_non_numeric_names_row_and_column(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "unit,time,y,x1",
            "a,1,1.0,1.0",
            "a,2,oops,2.0",
            "b,1,3.0,3.0",
            "b,2,4.0,4.0",
        ])
        with pytest.raises(NonNumericCell, match="row 3, column y"):
            read_panel_csv(path)

    def test_empty_file_names_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MissingColumn, match="empty.csv is empty; expected header"):
            read_panel_csv(str(path))

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_panel_csv(str(tmp_path / "nope.csv"))

    def test_blank_lines_ignored(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "unit,time,y,x1",
            "a,1,1,1",
            "",
            "a,2,2,2",
            "b,1,3,3",
            "b,2,4,4",
        ])
        assert read_panel_csv(path).y.shape == (2, 2)

    def test_sparse_file_is_checked_in_memory_of_its_rows(self, tmp_path):
        # each row its own unit and period: 2,000 rows name N x T = 4M pairs
        path = write_lines(tmp_path / "p.csv", ["unit,time,y,x1"]
                           + ["u%d,t%d,1,1" % (i, i) for i in range(2000)])
        tracemalloc.start()
        try:
            with pytest.raises(UnbalancedPanel, match="missing row for unit 'u0', time 't1'"):
                read_panel_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21  # one flag per pair would take 4 MB

    # A repeated (unit, time) pair among the rows read comes before the
    # first short row, long row or non-numeric cell; reading stops at that
    # fault.  Blank fields past the header's last column are no fault.
    @pytest.mark.parametrize("rows, error, message", [
        pytest.param(["a,1,1,1", "a,1,2,2", "b,1,3"], DuplicateCell,
                     "duplicate row for unit 'a', time '1' (rows 2 and 3)",
                     id="repeat-then-short-row"),
        pytest.param(["a,1,1,1", "a,1,2,2", "b,1,oops,3"], DuplicateCell,
                     "duplicate row for unit 'a', time '1' (rows 2 and 3)",
                     id="repeat-then-non-numeric"),
        pytest.param(["a,1,1,1", "a,2,2,2", "a,1,3,oops"], DuplicateCell,
                     "duplicate row for unit 'a', time '1' (rows 2 and 4)",
                     id="non-numeric-on-repeating-row"),
        pytest.param(["a,1,1,1", "a,2,oops,2", "a,1,3,3"], NonNumericCell,
                     "row 3, column y: 'oops' is not numeric",
                     id="non-numeric-before-repeat"),
        pytest.param(["a,1,1,1", "a,2", "a,1,3,3"], MissingColumn,
                     "row 3 has 2 fields but the header has 4",
                     id="short-row-before-repeat"),
        pytest.param(["b,2,1,1", "", " ,  , , ", "b,2,2,2", "a,1,oops,1"], DuplicateCell,
                     "duplicate row for unit 'b', time '2' (rows 2 and 5)",
                     id="blank-rows-between-repeats"),
        pytest.param(["a,1,1,1", "a,2,2,2,9", "a,1,3,3"], DataError,
                     "row 3 has 5 fields but the header has 4",
                     id="long-row-before-repeat"),
        pytest.param(["a,1,1,1,", "a,2,2,2, ,", "a,1,3,3"], DuplicateCell,
                     "duplicate row for unit 'a', time '1' (rows 2 and 4)",
                     id="blank-trailing-fields-read"),
    ])
    def test_fault_order(self, tmp_path, rows, error, message):
        path = write_lines(tmp_path / "p.csv", ["unit,time,y,x1"] + rows)
        with pytest.raises(DataError) as caught:
            read_panel_csv(path)
        assert type(caught.value) is error
        assert str(caught.value) == message

    # A line csv cannot parse (here a field past csv's 131,072-character
    # limit) and bytes that are not UTF-8 stop the reading where they lie,
    # in the same chunk as a fault before them or not: the earlier fault
    # wins, and a repeat before them does not.
    @pytest.mark.parametrize("lines, error, message", [
        pytest.param(["a,1,1,1", "b,1,%s,1" % ("z" * 131_073)], DataError,
                     "{path} is not readable CSV at line 3: "
                     "field larger than field limit (131072)",
                     id="oversized-field"),
        pytest.param(["a,1,oops,1", "b,1,%s,1" % ("z" * 131_073)], NonNumericCell,
                     "row 2, column y: 'oops' is not numeric",
                     id="non-numeric-then-oversized-field"),
        pytest.param(["a,1,1,1", "a,1,2,2", "b,1,%s,1" % ("z" * 131_073)], DataError,
                     "{path} is not readable CSV at line 4: "
                     "field larger than field limit (131072)",
                     id="repeat-then-oversized-field"),
        pytest.param(["a,1,oops,1"] + ["u%d,1,%r,%r" % (i, 1 / 3, 2 / 3) for i in range(230)]
                     + ["\udcff,1,1,1"], NonNumericCell,
                     "row 2, column y: 'oops' is not numeric",
                     id="non-numeric-then-bad-byte-past-8-KiB"),
    ])
    def test_reading_stops_at_unreadable_text(self, tmp_path, lines, error, message):
        path = tmp_path / "p.csv"
        path.write_bytes("\n".join(["unit,time,y,x1"] + lines + [""])
                         .encode("utf-8", "surrogateescape"))
        assert len(lines) < io.CHUNK_ROWS  # the fault and the bad text share a chunk
        with pytest.raises(DataError) as caught:
            read_panel_csv(str(path))
        assert type(caught.value) is error
        assert str(caught.value) == message.format(path=path)


# Cells beside plain repr output: padding, an underscore, a subnormal,
# an Arabic-Indic digit, and U+001F/U+001C, which str.strip removes but
# float() alone rejects.
SPELLINGS = [" 2.5 ", "1_0", "-0.0", "5e-324", "\x1f1.5\x1c", "\u0661"]
BAD_CELLS = ["oops", "", " ", "1.5.2", "0x1p3"]


@st.composite
def panel_files(draw):
    """A panel CSV of up to three reader chunks, as (header, records), with
    blank, short, long, non-numeric, repeated and missing rows placed at
    random or at the rows around a chunk edge."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))  # the cells; draws place the faults
    chunk = io.CHUNK_ROWS
    k = draw(st.integers(1, 2))
    header = draw(st.permutations(["unit", "time", "y"] + ["x%d" % (j + 1) for j in range(k)]
                                  + draw(st.sampled_from([[], ["note"]]))))
    width = len(header)
    t = draw(st.integers(2, 4))
    n = rnd.randint(2, 3 * chunk // t)  # up to three chunks of rows, uniformly
    records = []
    for i in range(n):
        for s in range(t):
            row = {"unit": "u%d" % i, "time": "t%d" % s, "note": "n"}
            if rnd.random() < 0.05:
                row["unit"] = " %s " % row["unit"]
            row.update(("x%d" % j if j else "y", rnd.choice(SPELLINGS) if rnd.random() < 0.02
                        else repr(rnd.uniform(-1e3, 1e3))) for j in range(k + 1))
            records.append([row[name] for name in header])
    if draw(st.booleans()):
        rnd.shuffle(records)
    for _ in range(draw(st.integers(0, 6))):
        edge = chunk * rnd.randint(1, (len(records) - 1) // chunk or 1)
        at = min(len(records) - 1, edge + rnd.randint(-2, 1) if draw(st.booleans())
                 else rnd.randrange(len(records)))
        kind = draw(st.sampled_from(["blank", "blank_full_width", "short", "long", "long_blank",
                                     "non_numeric", "repeat", "missing"]))
        row = records[at] + [""] * (width - len(records[at]))  # an earlier fault may be short
        if kind == "blank":
            records.insert(at, [])
        elif kind == "blank_full_width":
            records.insert(at, [" "] * width)
        elif kind == "short":
            records[at] = row[:rnd.randrange(1, width)]
        elif kind == "long":
            records[at] = row + rnd.choice([["9"], ["", "x"]])
        elif kind == "long_blank":
            records[at] = row + rnd.choice([[""], [" ", ""]])
        elif kind == "non_numeric":
            row[header.index(rnd.choice(["y"] + ["x%d" % (j + 1) for j in range(k)]))] = \
                rnd.choice(BAD_CELLS)
            records[at] = row
        elif kind == "repeat":  # the earlier row of the pair near it, or in the chunk before
            other = rnd.choice([max(0, at - rnd.randint(1, 3)), rnd.randrange(len(records)),
                                at - at % chunk - 1 - rnd.randint(0, 1) if at >= chunk else 0])
            for name in ("unit", "time"):
                row[header.index(name)] = (records[other] + [""] * width)[header.index(name)]
            records[at] = row
        else:
            del records[at]
    return header, records


def _outcome(read, path):
    """Everything a read returns, bit for bit, or its error's type and message."""
    try:
        panel = read(path)
    except DataError as err:
        return type(err), str(err)
    return (panel.y.shape, panel.y.tobytes(), panel.x.shape, panel.x.tobytes(),
            panel.unit_labels, panel.period_labels)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(panel_files(), st.sampled_from(["\n", "\r\r\n"]))
def test_chunked_read_matches_row_by_row_oracle(tmp_path_factory, file, line_end):
    # "\r\r\n", csv's default line end put through Windows text mode, puts
    # a blank row after every row, so every chunk takes the tidying loop
    header, records = file
    path = str(tmp_path_factory.mktemp("chunks") / "panel.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows(records)
    assert _outcome(read_panel_csv, path) == _outcome(read_panel_rows, path)


class TestWritePanelCsv:
    def test_pinned_text(self, tmp_path):
        y = np.array([[1e-300, 1.0 + 2**-50], [-0.0, -1e300]])
        x = np.stack([[[0.1, 2.0], [-3.5, 1e300]], [[5e-324, -0.0], [1 / 3, 7.0]]], axis=-1)
        panel = PanelData(y, x, unit_labels=("north, east", "south"),
                          period_labels=("2001", "2002"))
        path = tmp_path / "pinned.csv"
        write_panel_csv(panel, str(path))
        assert path.read_text() == (
            "unit,time,y,x1,x2\n"
            '"north, east",2001,1e-300,0.1,5e-324\n'
            '"north, east",2002,1.0000000000000009,2.0,-0.0\n'
            "south,2001,-0.0,-3.5,0.3333333333333333\n"
            "south,2002,-1e+300,1e+300,7.0\n"
        )

    def test_round_trip_exact(self, tmp_path):
        panel = synth_panel(n=5, t=3, k=2, seed=3)
        path = str(tmp_path / "out.csv")
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        # repr-format floats parse back to the identical binary values
        assert np.array_equal(back.y, panel.y)
        assert np.array_equal(back.x, panel.x)
        assert back.unit_labels == panel.unit_labels
        assert back.period_labels == panel.period_labels

    def test_round_trip_awkward_values(self, tmp_path):
        y = np.array([[1e-300, 1.0 + 2**-50], [3.0, -1e300]])
        x = np.array([[0.1, 0.2], [0.3, 0.4]])[:, :, None]
        from robustpanel.panel import PanelData

        panel = PanelData(y, x)
        path = str(tmp_path / "awk.csv")
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert np.array_equal(back.y, panel.y)
        assert np.array_equal(back.x, panel.x)

    def test_round_trip_awkward_labels(self, tmp_path):
        labels = ("", "a\nb", "c\rd", 'say "hi"', "north, east", "\u00e9")
        panel = PanelData(np.arange(36.0).reshape(6, 6), np.ones((6, 6, 1)),
                          unit_labels=labels, period_labels=labels)
        path = tmp_path / "labels.csv"
        write_panel_csv(panel, str(path))
        assert b'"c\rd",' in path.read_bytes()
        back = read_panel_csv(str(path))
        assert back.unit_labels == labels
        assert back.period_labels == labels
        assert np.array_equal(back.y, panel.y)

    def test_unquoted_label_fields_are_the_labels(self):
        # a label that csv leaves as it is goes out as the label object
        # itself, so a million-cell write holds no copy of its labels
        labels = tuple("%s%d" % (text, i) for i, text in enumerate(["u", "a,", 'q"', "eé"]))
        fields = io._csv_fields(labels)
        assert fields == ["u0", '"a,1"', '"q""2"', "eé3"]
        reused = [field is label for field, label in zip(fields, labels)]
        assert reused == [True, False, False, True]

    def test_round_trip_large(self, tmp_path):
        panel = synth_panel(n=700, t=3, k=2, seed=4)  # 6,300 floats
        path = str(tmp_path / "large.csv")
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert np.array_equal(back.y, panel.y)
        assert np.array_equal(back.x, panel.x)
        assert back.unit_labels == panel.unit_labels


class TestWriteWeightsCsv:
    def test_rows_carry_each_cell_weight(self, tmp_path):
        base = synth_panel(n=400, t=3, seed=2)  # 1,200 cells
        y = base.y.copy()
        y[1, 2] += 500.0
        panel = PanelData(y, base.x, unit_labels=["firm %d" % i for i in range(400)],
                          period_labels=("q1", "q2", "q3"))
        fit = fit_estimator(panel, "tukey", seed=0)
        assert (fit.weights == 0).any()
        path = tmp_path / "weights.csv"
        write_weights_csv(panel, fit, str(path))
        expected = ["unit,time,weight"] + [
            "%s,%s,%r" % (unit, period, float(fit.weights[i, s]))
            for i, unit in enumerate(panel.unit_labels)
            for s, period in enumerate(panel.period_labels)]
        assert path.read_text() == "\n".join(expected) + "\n"


class TestExperimentConfig:
    def test_round_trip_full(self):
        cfg = ExperimentConfig(
            estimators=("ls", "tukey"),
            s=7,
            master_seed=99,
            outlier_study=OutlierStudyConfig(
                n_units=30, n_periods=2, kinds=("random_vertical",),
                m_levels=(2, 4), n_test=5,
            ),
            consistency_study=ConsistencyStudyConfig(
                n_values=(20, 40), t_fixed=3, t_values=(4,), n_fixed=10,
            ),
            error_dist_study=ErrorDistStudyConfig(pairs=((10, 4),)),
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="'bogus'"):
            parse_config('{"bogus": 1}')

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="'m_lvls'"):
            parse_config('{"outlier_study": {"m_lvls": [12]}}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")

    def test_bad_error_dist(self):
        with pytest.raises(ConfigError, match="error_dist"):
            parse_config('{"error_dist": "laplace"}')

    def test_bad_contamination_kind(self):
        with pytest.raises(ConfigError, match="sideways"):
            parse_config('{"outlier_study": {"kinds": ["sideways"]}}')

    def test_nonpositive_s(self):
        with pytest.raises(ConfigError, match="s must be"):
            parse_config('{"s": 0}')

    @pytest.mark.parametrize("text, match", [
        ('{"s": "10"}', "s must be"),
        ('{"estimators": ["ls", "lasso"]}', "estimators"),
        ('{"estimators": []}', "estimators"),
        ('{"outlier_study": {"n_units": 1}}', "outlier_study.n_units"),
        ('{"outlier_study": {"n_periods": 1}}', "outlier_study.n_periods"),
        ('{"consistency_study": {"n_values": [50, 1]}}', "consistency_study.n_values"),
        ('{"consistency_study": {"t_fixed": 1}}', "consistency_study.t_fixed"),
        ('{"error_dist_study": {"pairs": [[30, 1]]}}', "error_dist_study.pairs"),
        ('{"error_dist_study": {"pairs": [[30, 20, 4]]}}', "error_dist_study.pairs"),
        ('{"s": true}', "s must be"),
        ('{"master_seed": -1}', "master_seed"),
        ('{"master_seed": 1.5}', "master_seed"),
        ('{"master_seed": true}', "master_seed"),
        ('{"outlier_study": {"n_test": 0}}', "outlier_study.n_test"),
        ('{"outlier_study": {"n_test": 1}}', "outlier_study.n_test"),
        ('{"outlier_study": {"n_test": 2.5}}', "outlier_study.n_test"),
        ('{"outlier_study": {"m_levels": [2, -2]}}', "outlier_study.m_levels"),
        ('{"outlier_study": {"m_levels": [2.5]}}', "outlier_study.m_levels"),
        ('{"outlier_study": {"m_levels": 2}}', "outlier_study.m_levels"),
        ('{"consistency_study": {"n_values": 50}}', "consistency_study.n_values"),
        ('{"beta": 3}', "beta"),
        ('{"beta": [1, "a"]}', "beta"),
        ('{"gamma": [2.0, null]}', "gamma"),
        ('{"beta": [true, -1.2]}', "beta"),
        ('{"gamma": [2.0, NaN]}', "gamma"),
        ('{"beta": [1e400, -1.2]}', "beta"),
        pytest.param('{"beta": [1%s, -1.2]}' % ("0" * 400), "beta", id="int-beyond-float"),
        ('{"beta": [[1], -1.2]}', "beta"),
        ('{"outlier_study": {"n_units": 10, "n_periods": 2, "m_levels": [100], "n_test": 2}}',
         "outlier_study.m_levels: m = 100 exceeds the 20 panel cells"),
        ('{"outlier_study": {"n_units": 10, "n_periods": 4, "m_levels": [40]}}',
         "outlier_study.m_levels: m = 40 needs 20 contaminated units"),
        ('{"outlier_study": {"n_units": 20, "n_periods": 4, "m_levels": [3], '
         '"kinds": ["random_vertical", "concentrated_vertical"]}}',
         "outlier_study.m_levels: m = 3 does not split into blocks of 2 periods; "
         "nearest valid m is 2"),
        ('{"beta": [], "gamma": []}', "beta must hold at least one coefficient"),
        ('{"beta": [2.4], "gamma": []}', "gamma must hold at least one coefficient"),
        ('[{"s": 1}]', "config must be a JSON object"),
        ('{"consistency_study": [50, 100]}', "consistency_study must be an object"),
        ('{"beta": [2.4, -1.2], "gamma": [2.0]}', "beta and gamma must have equal length"),
        # N x T x K float64 cells past np.intp's byte range, training and holdout
        pytest.param('{"consistency_study": {"n_values": [1%s], "t_values": [4]}}' % ("0" * 30),
                     "consistency_study.n_values: an N x T = 1%s x 3 panel" % ("0" * 30),
                     id="training-panel-past-intp"),
        pytest.param('{"outlier_study": {"n_test": 1%s}}' % ("0" * 18),
                     "outlier_study.n_test: an N x T = 1%s x 2 panel" % ("0" * 18),
                     id="holdout-panel-past-intp"),
    ])
    def test_invalid_value_rejected(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_largest_study_panel_is_one_array(self):
        # n at t_fixed = 3 and K = 2 whose regressors fill np.intp's byte range;
        # only a config is built, nothing is allocated
        n = np.iinfo(np.intp).max // (8 * 3 * 2)
        parse_config('{"consistency_study": {"n_values": [%d]}}' % n)
        with pytest.raises(ConfigError, match="consistency_study.n_values"):
            parse_config('{"consistency_study": {"n_values": [%d]}}' % (n + 1))
