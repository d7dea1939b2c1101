import numpy as np
import pytest

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
)

from conftest import synth_panel


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


class TestWritePanelCsv:
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
         "outlier_study.m_levels: m = 3 does not split into the 2-period blocks"),
        ('{"beta": [], "gamma": []}', "beta must hold at least one coefficient"),
        ('{"beta": [2.4], "gamma": []}', "gamma must hold at least one coefficient"),
    ])
    def test_invalid_value_rejected(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)
