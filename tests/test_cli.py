import csv
import json
import os

import pytest

from robustpanel import cli
from robustpanel.io import write_panel_csv
from robustpanel.panel import PanelData
from robustpanel.simulation import ContaminationScheme, DgpConfig, contaminate, gen_panel

from conftest import synth_panel


@pytest.fixture
def panel_csv(tmp_path):
    path = str(tmp_path / "panel.csv")
    write_panel_csv(synth_panel(n=30, t=4, seed=5), path)
    return path


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommand:
    def test_ls_fit_writes_report_and_weights(self, panel_csv, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code, _, err = run(
            ["fit", "--input", panel_csv, "--estimator", "ls", "--out", out],
            capsys,
        )
        assert code == 0
        assert err == ""
        report = json.loads(open(out).read())
        assert report["estimator"] == "ls"
        assert len(report["beta"]) == 2
        assert len(report["std_errors"]) == 2
        assert report["converged"] is True
        assert report["c_selected"] is None
        weights_path = str(tmp_path / "report_weights.csv")
        with open(weights_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["unit", "time", "weight"]
        assert len(rows) == 1 + 30 * 4
        assert all(float(r[2]) == 1.0 for r in rows[1:])

    def test_tukey_fit_reports_tuning(self, panel_csv, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code, _, _ = run(
            ["fit", "--input", panel_csv, "--estimator", "tukey", "--out", out],
            capsys,
        )
        assert code == 0
        report = json.loads(open(out).read())
        assert report["c_selected"] is not None
        assert report["iterations"] >= 1
        weights_path = str(tmp_path / "report_weights.csv")
        with open(weights_path) as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(r[2]) for r in rows]
        assert all(0.0 <= w <= 1.0 for w in values)

    def test_fixed_c_accepted(self, panel_csv, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code, _, _ = run(
            ["fit", "--input", panel_csv, "--estimator", "huber",
             "--c", "1.345", "--out", out],
            capsys,
        )
        assert code == 0
        assert json.loads(open(out).read())["c_selected"] == 1.345

    def test_bad_estimator_is_usage_error(self, panel_csv, capsys):
        code, _, err = run(
            ["fit", "--input", panel_csv, "--estimator", "frob"], capsys,
        )
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_tukey_recovers_slopes_under_concentrated_leverage(self, tmp_path, capsys):
        # The fit command starts tukey from the high-breakdown fit, as the
        # study harness does; the LS start lands in the contaminated minimum.
        panel = contaminate(gen_panel(DgpConfig(120, 2, seed=11)),
                            ContaminationScheme("concentrated_leverage", 24, seed=12))
        path = str(tmp_path / "lev.csv")
        write_panel_csv(panel, path)
        out = str(tmp_path / "report.json")
        code, _, err = run(
            ["fit", "--input", path, "--estimator", "tukey", "--out", out], capsys,
        )
        assert code == 0, err
        beta = json.loads(open(out).read())["beta"]
        assert abs(beta[0] - 2.4) < 0.5 and abs(beta[1] + 1.2) < 0.5

    @pytest.mark.parametrize("estimator", ["huber", "esl"])
    @pytest.mark.parametrize("c", ["nan", "inf", "-1", "0"])
    def test_non_positive_or_non_finite_c_is_usage_error(
            self, panel_csv, tmp_path, capsys, estimator, c):
        code, _, err = run(
            ["fit", "--input", panel_csv, "--estimator", estimator,
             "--c", c, "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_non_numeric_c_is_usage_error(self, panel_csv, tmp_path, capsys):
        code, _, err = run(
            ["fit", "--input", panel_csv, "--estimator", "huber",
             "--c", "lots", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            ["fit", "--input", str(tmp_path / "absent.csv"),
             "--estimator", "ls", "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit,time,y,x1\na,1,1,1\na,1,2,2\n")
        code, _, err = run(
            ["fit", "--input", str(bad), "--estimator", "ls",
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_short_row_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("unit,time,y,x1\na,1,1.0,1.0\na,2,2.0\n")
        code, _, err = run(
            ["fit", "--input", str(bad), "--estimator", "ls",
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: MissingColumn:")
        assert err.count("\n") == 1

    def test_degenerate_design_is_estimation_error(self, tmp_path, capsys):
        # regressor constant within every unit: the within transform
        # removes it entirely and the normal equations are singular
        flat = tmp_path / "flat.csv"
        flat.write_text(
            "unit,time,y,x1\n"
            "a,1,1.0,5.0\na,2,2.0,5.0\n"
            "b,1,3.0,7.0\nb,2,5.0,7.0\n"
        )
        code, _, err = run(
            ["fit", "--input", str(flat), "--estimator", "ls",
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("case,estimator,code", [
        ("overflow", "ls", 2),
        ("overflow", "huber", 2),
        ("overflow", "tukey", 2),
        ("overflow", "esl", 2),
        ("bom_header", "tukey", 0),
        ("duplicated_header", "ls", 2),
    ])
    def test_input_faults_exit_with_one_error_line(self, tmp_path, capsys, case, estimator,
                                                   code):
        path = tmp_path / "panel.csv"
        if case == "overflow":  # centered x1 squares past the float range
            p = synth_panel(n=30, t=4, k=1, seed=5)
            write_panel_csv(PanelData(p.y, 1e200 * p.x), str(path))
        else:
            write_panel_csv(synth_panel(n=30, t=4, seed=5), str(path))
            text = path.read_text(encoding="utf-8")
            if case == "bom_header":  # Excel's "CSV UTF-8" export
                text = "\ufeff" + text
            else:
                text = "\n".join(line + "," + line.split(",")[3] for line in text.splitlines())
            path.write_text(text, encoding="utf-8")
        code_seen, _, err = run(
            ["fit", "--input", str(path), "--estimator", estimator,
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code_seen == code
        if code:
            assert err.startswith("error:") and err.count("\n") == 1
            assert "x1" in err  # the column at fault is named
        else:
            assert err == ""

    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1
        assert err.startswith("error:")


TINY_CONFIG = {
    "estimators": ["ls"],
    "s": 3,
    "master_seed": 7,
    "outlier_study": {
        "n_units": 20,
        "n_periods": 2,
        "kinds": ["random_vertical"],
        "m_levels": [2],
        "n_test": 4,
    },
    "consistency_study": {
        "n_values": [20],
        "t_fixed": 3,
        "t_values": [4],
        "n_fixed": 10,
    },
    "error_dist_study": {"pairs": [[10, 4]]},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSimulateCommand:
    def test_tiny_study_writes_all_tables(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out_dir = str(tmp_path / "out")
        code, _, err = run(["simulate", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0
        assert err == ""

        with open(os.path.join(out_dir, "mse_table.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimator", "random_vertical_m2"]
        assert rows[1][0] == "ls"
        assert float(rows[1][1]) > 0

        with open(os.path.join(out_dir, "rmse_table.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimator", "random_vertical_m2"]
        assert float(rows[1][1]) > 0

        with open(os.path.join(out_dir, "consistency_curves.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis", "n", "t", "estimator", "mse"]
        axes = [r[0] for r in rows[1:]]
        assert axes == ["n", "t"]

        with open(os.path.join(out_dir, "se_samples.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["error_dist", "n", "t", "estimator", "rep", "se"]
        dists = {r[0] for r in rows[1:]}
        assert dists == {"normal", "t5", "chisq4", "cauchy"}
        # s replications per (dist, pair, estimator)
        assert len(rows) - 1 == 4 * 1 * 1 * TINY_CONFIG["s"]

    def test_sections_optional(self, tmp_path, capsys):
        payload = {k: v for k, v in TINY_CONFIG.items() if k != "consistency_study"}
        payload.pop("error_dist_study")
        cfg = write_config(tmp_path, payload)
        out_dir = str(tmp_path / "out")
        code, _, _ = run(["simulate", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["mse_table.csv", "rmse_table.csv"]

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG)
        dirs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
        for d in dirs:
            assert run(["simulate", "--config", cfg, "--out-dir", d], capsys)[0] == 0
        for name in ("mse_table.csv", "rmse_table.csv",
                     "consistency_curves.csv", "se_samples.csv"):
            first = open(os.path.join(dirs[0], name), "rb").read()
            second = open(os.path.join(dirs[1], name), "rb").read()
            assert first == second, name

    def test_se_samples_follow_config_beta_and_gamma(self, tmp_path, capsys):
        base = dict(TINY_CONFIG, error_dist_study={"pairs": [[10, 4], [20, 2]]})
        tables = {}
        for label, extra in (("k2", {}), ("k3", {"beta": [1.0, -2.0, 0.5],
                                                 "gamma": [1.0, 2.0, 3.0]})):
            cfg = write_config(tmp_path, dict(base, **extra), name=label + ".json")
            out_dir = str(tmp_path / label)
            assert run(["simulate", "--config", cfg, "--out-dir", out_dir], capsys)[0] == 0
            with open(os.path.join(out_dir, "se_samples.csv")) as fh:
                tables[label] = list(csv.reader(fh))
        assert tables["k2"] != tables["k3"]
        for rows in tables.values():
            cells = [tuple(r[:3]) for r in rows[1:]]
            want = [(d, n, t) for d in ("normal", "t5", "chisq4", "cauchy")
                    for n, t in (("10", "4"), ("20", "2"))]
            # s replications per (law, pair), each law and pair in config order
            assert cells == [c for c in want for _ in range(TINY_CONFIG["s"])]

    @pytest.mark.parametrize("change", [
        {"s": "10"},
        {"estimators": ["ls", "lasso"]},
        {"outlier_study": dict(TINY_CONFIG["outlier_study"], n_units=1)},
        {"consistency_study": dict(TINY_CONFIG["consistency_study"], t_values=[4, 1])},
        {"master_seed": -1},
        {"master_seed": 1.5},
        {"outlier_study": dict(TINY_CONFIG["outlier_study"], n_test=0)},
        {"outlier_study": dict(TINY_CONFIG["outlier_study"], m_levels=[2, -2])},
        {"outlier_study": dict(TINY_CONFIG["outlier_study"], m_levels=[2.5])},
        {"s": True},
        {"beta": [1, "a"]},
        {"gamma": [2.0, True]},
        {"outlier_study": {"n_units": 10, "n_periods": 2, "m_levels": [100], "n_test": 2}},
        {"outlier_study": {"n_units": 10, "n_periods": 4, "m_levels": [40], "n_test": 2,
                           "kinds": ["concentrated_leverage"]}},
        {"outlier_study": {"n_units": 20, "n_periods": 4, "m_levels": [3], "n_test": 2,
                           "kinds": ["random_vertical", "concentrated_vertical"]}},
        {"beta": [], "gamma": []},
    ])
    def test_invalid_config_value_fails_before_any_study(self, tmp_path, capsys, change):
        cfg = write_config(tmp_path, dict(TINY_CONFIG, **change))
        out_dir = tmp_path / "o"
        code, _, err = run(["simulate", "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith("error: ConfigError:")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bogus": 1})
        code, _, err = run(
            ["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys,
        )
        assert code == 2
        assert err.startswith("error:")
        assert "bogus" in err

    def test_invalid_json_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        code, _, err = run(
            ["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--config", str(tmp_path / "absent.json"),
             "--out-dir", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")
