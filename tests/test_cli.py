import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from robustpanel import cli, simulation
from robustpanel.errors import NoValidTuning
from robustpanel.io import write_panel_csv
from robustpanel.panel import ESTIMATOR_NAMES, PanelData
from robustpanel.simulation import (
    CONTAMINATION_KINDS,
    ContaminationScheme,
    DgpConfig,
    contaminate,
    gen_panel,
)

from conftest import far_leverage_panel, huge_scale_panel, nearly_collinear_panel, synth_panel

OK_CSV = "unit,time,y,x1\na,1,1,1\na,2,2,3\nb,1,3,2\nb,2,5,7\n"
# MAD scale about 5e-301: its square underflows to 0
TINY_CSV = ("unit,time,y,x1\na,1,1e-300,1\na,2,-1e-300,3\nb,1,3e-300,2\nb,2,5e-300,7\n"
            "c,1,1e-300,0\nc,2,2e-300,1\n")
# residuals near 1e150: tukey's psi' multiplied two factors near 1e300
HUGE_Y_CSV = ("unit,time,y,x1\na,1,1e150,1\na,2,-1e150,3\nb,1,3,2\nb,2,5,7\n"
              "c,1,1,0\nc,2,2,1\n")


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
        report = json.loads(pathlib.Path(out).read_text())
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
        report = json.loads(pathlib.Path(out).read_text())
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
        assert json.loads(pathlib.Path(out).read_text())["c_selected"] == 1.345

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
        beta = json.loads(pathlib.Path(out).read_text())["beta"]
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

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ok.csv"
        path.write_text(OK_CSV)
        code, _, err = run(
            ["fit", "--input", str(path), "--estimator", "tukey", "--seed", "-1",
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: --seed") and err.count("\n") == 1

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
        ("latin1_label", "ls", 2),
        ("tiny_scale", "esl", 3),
    ])
    def test_input_faults_exit_with_one_error_line(self, tmp_path, capsys, case, estimator,
                                                   code):
        path = tmp_path / "panel.csv"
        if case == "overflow":  # centered x1 squares past the float range
            p = synth_panel(n=30, t=4, k=1, seed=5)
            write_panel_csv(PanelData(p.y, 1e200 * p.x), str(path))
        elif case == "tiny_scale":
            path.write_text(TINY_CSV)
        else:
            write_panel_csv(synth_panel(n=30, t=4, seed=5), str(path))
            text = path.read_text(encoding="utf-8")
            if case == "bom_header":  # Excel's "CSV UTF-8" export
                text = "\ufeff" + text
            elif case == "latin1_label":  # a Latin-1 export: byte 0xE9 in a unit label
                label = text.splitlines()[1].split(",")[0]
                text = text.replace("\n%s," % label, "\n%s\xe9," % label)
            else:
                text = "\n".join(line + "," + line.split(",")[3] for line in text.splitlines())
            path.write_bytes(text.encode("latin-1" if case == "latin1_label" else "utf-8"))
        code_seen, _, err = run(
            ["fit", "--input", str(path), "--estimator", estimator,
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code_seen == code
        if code:
            assert err.startswith("error:") and err.count("\n") == 1
            # the column at fault is named, the file that is not UTF-8, or the scale
            assert {"latin1_label": "panel.csv is not UTF-8",
                    "tiny_scale": "ZeroScale"}.get(case, "x1") in err
        else:
            assert err == ""

    @pytest.mark.parametrize("estimator", ["huber", "tukey", "esl"])
    def test_elemental_fits_past_the_float_range_are_no_fault(self, tmp_path, capsys,
                                                               estimator):
        # some elemental fits leave residuals at +-inf with a finite MAD
        path = str(tmp_path / "panel.csv")
        write_panel_csv(far_leverage_panel(), path)
        code, _, err = run(["fit", "--input", path, "--estimator", estimator,
                            "--out", str(tmp_path / "r.json")], capsys)
        assert (code, err) == (0, "")

    def test_a_scale_too_large_for_the_esl_grid_is_one_error_line(self, tmp_path, capsys):
        path = str(tmp_path / "panel.csv")
        write_panel_csv(huge_scale_panel(), path)
        code, _, err = run(["fit", "--input", path, "--estimator", "esl",
                            "--out", str(tmp_path / "r.json")], capsys)
        assert code == 3
        assert err == ("error: NoValidTuning: MAD scale 2.72334e+153 of the residuals is too "
                       "large to square; rescale y\n")

    @pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
    def test_a_singular_design_is_the_same_error_for_every_estimator(self, tmp_path, capsys,
                                                                     estimator):
        # the one design rule: without it huber and tukey exit 0 with slopes
        # of about -+5e5 on this design, and esl blames its tuning
        path = str(tmp_path / "panel.csv")
        write_panel_csv(nearly_collinear_panel(), path)
        code, _, err = run(["fit", "--input", path, "--estimator", estimator,
                            "--out", str(tmp_path / "r.json")], capsys)
        assert code == 3
        assert err.startswith("error: SingularDesign: centered design is singular")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text,estimator,code,error", [
        # N = T = K = 2: no residual degrees of freedom for LS
        ("unit,time,y,x1,x2\na,1,1,1,0\na,2,2,3,1\nb,1,3,2,5\nb,2,5,7,2\n", "ls", 2,
         "DegeneratePanel"),
        # N = T = 2, K = 4: fewer than K + 1 cells for the start's elemental fits
        ("unit,time,y,x1,x2,x3,x4\na,1,1,1,0,4,2\na,2,2,3,1,0,5\nb,1,3,2,5,1,1\n"
         "b,2,5,7,2,3,0\n", "tukey", 3, "DegenerateDesign"),
        ("", "ls", 2, "MissingColumn"),
    ])
    def test_documented_fit_errors_exit_with_one_error_line(self, tmp_path, capsys, text,
                                                             estimator, code, error):
        path = tmp_path / "panel.csv"
        path.write_text(text)
        code_seen, _, err = run(
            ["fit", "--input", str(path), "--estimator", estimator,
             "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert code_seen == code
        assert err.startswith("error: %s:" % error) and err.count("\n") == 1

    def test_unwritable_report_is_usage_error(self, panel_csv, tmp_path, capsys):
        code, _, err = run(
            ["fit", "--input", panel_csv, "--estimator", "ls",
             "--out", str(tmp_path / "missing_dir" / "r.json")],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert "missing_dir" in err

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

    def test_tables_match_pinned_digests(self, tmp_path, capsys):
        # SHA-256 of the tables as first written on x86_64 with numpy 2.4;
        # any change to cell order, seeds or number formatting fails here.
        # A change that moves study numbers on purpose re-pins them.
        cfg = write_config(tmp_path, TINY_CONFIG)
        out_dir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out-dir", str(out_dir)], capsys)[0] == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out_dir.iterdir()}
        assert digests == {
            "mse_table.csv":
                "5bf190e2a6f03a815e3a512a43f266a84a7f0a62887eb48c38f3cd6b1c1b2b3a",
            "rmse_table.csv":
                "8b2af2f1792b5122587224ea2db00c925c4424a41e9487984d5638ec50ac2086",
            "consistency_curves.csv":
                "aeab37e57bacde3a6ae7559f301359e4a1c8b654247c7bb7282853bdbb946b78",
            "se_samples.csv":
                "758f8a2f28e3400269ed6c006d88c25ac5bb096100afb6432d2d73b1b4fa25d8",
        }

    def test_out_dir_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run(["simulate", "--config", cfg, "--out-dir", str(taken)], capsys)
        assert code == 1
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert "taken" in err

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_CONFIG)
        dirs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
        for d in dirs:
            assert run(["simulate", "--config", cfg, "--out-dir", d], capsys)[0] == 0
        for name in ("mse_table.csv", "rmse_table.csv",
                     "consistency_curves.csv", "se_samples.csv"):
            first = pathlib.Path(dirs[0], name).read_bytes()
            second = pathlib.Path(dirs[1], name).read_bytes()
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
        {"consistency_study": {"n_values": [10**30], "t_values": [4]}},
        pytest.param(b'{"estimators": ["ls"], "error_dist": "caf\xe9"}', id="latin1_file"),
    ])
    def test_invalid_config_value_fails_before_any_study(self, tmp_path, capsys, change):
        if isinstance(change, bytes):  # the config file's raw bytes
            (tmp_path / "config.json").write_bytes(change)
            cfg = str(tmp_path / "config.json")
        else:
            cfg = write_config(tmp_path, dict(TINY_CONFIG, **change))
        out_dir = tmp_path / "o"
        code, _, err = run(["simulate", "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith("error: ConfigError:")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_study_too_large_for_memory_is_data_error(self, tmp_path, capsys, monkeypatch):
        # a panel that passes the config's size check but not the allocator;
        # the study's chunk draw raises as numpy would, without trying it
        def too_large(config, seeds, n_test):
            raise MemoryError("Unable to allocate 43.7 TiB for an array with shape "
                              "(1000000000000, 3, 2) and data type float64")

        monkeypatch.setattr(simulation, "_panels", too_large)
        cfg = write_config(tmp_path, {"s": 1, "estimators": ["ls"], "consistency_study": {
            "n_values": [10**12], "t_values": [4]}})
        code, _, err = run(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")],
                           capsys)
        assert code == 2
        assert err.startswith("error: MemoryError: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_study_leaves_no_empty_out_dir_of_its_own(self, tmp_path, capsys,
                                                             monkeypatch, existed):
        # the run that made --out-dir removes it when a study fails before
        # any table is written; a directory that was there before stays
        def too_large(config, seeds, n_test):
            raise MemoryError("Unable to allocate 43.7 TiB")

        monkeypatch.setattr(simulation, "_panels", too_large)
        cfg = write_config(tmp_path, {"s": 1, "estimators": ["ls"], "consistency_study": {
            "n_values": [10**12], "t_values": [4]}})
        out = tmp_path / "o"
        if existed:
            out.mkdir()
        code, _, err = run(["simulate", "--config", cfg, "--out-dir", str(out)], capsys)
        assert code == 2 and err.startswith("error: MemoryError")
        assert out.is_dir() == existed
        if existed:
            assert not any(out.iterdir())

    def test_estimation_failure_leaves_no_empty_out_dir(self, tmp_path, capsys, monkeypatch):
        def failing(config):
            raise NoValidTuning("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", failing)
        cfg = write_config(tmp_path, {"s": 1, "estimators": ["ls"], "consistency_study": {
            "n_values": [10], "t_values": [4]}})
        out = tmp_path / "o"
        code, _, err = run(["simulate", "--config", cfg, "--out-dir", str(out)], capsys)
        assert code == 3 and err == "error: NoValidTuning: synthetic failure\n"
        assert not out.exists()

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


# The CLI contract over arbitrary input: exit code 0, 1, 2 or 3, and stderr
# empty or exactly one `error:` line.  "{csv}", "{config}", "{out}" and
# "{dir}" in an argument list stand for paths in a fresh directory.

NUMBERS = st.one_of(
    st.just(0.0),
    st.builds(lambda magnitude, negative: -magnitude if negative else magnitude,
              st.floats(1e-300, 1e300), st.booleans()),
)
# one power of ten per CSV column, so that a column can sit anywhere in
# 1e-300..1e300 and still pass the within transform
SCALES = st.one_of(st.just(1.0), st.integers(-300, 300).map(lambda e: float("1e%d" % e)))
# mostly valid, so that most configs reach a study
SIZES = st.sampled_from([2, 3, 4] * 8 + [0, 1, -2, 2.5, "3", True, None])


@st.composite
def csv_texts(draw):
    n, t, k = draw(st.integers(2, 4)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
    rows = [["unit", "time", "y"] + ["x%d" % (j + 1) for j in range(k)]]
    scales = [draw(SCALES) for _ in range(k + 1)]
    rows += [["u%d" % i, str(s)] + [repr(draw(st.integers(-9, 9)) * v) for v in scales]
             for i in range(n) for s in range(t)]
    fault = draw(st.sampled_from([None] * 4 + ["outlier", "outlier", "cell", "drop", "repeat"]))
    j = draw(st.integers(1, len(rows) - 1))
    if fault == "outlier":
        rows[j][draw(st.integers(2, k + 2))] = repr(draw(NUMBERS))
    elif fault == "cell":
        rows[j][draw(st.integers(2, k + 2))] = draw(st.sampled_from(["", "nan", "inf", "x"]))
    elif fault == "drop":
        del rows[j]
    elif fault == "repeat":
        rows.append(rows[j])
    return "".join(",".join(row) + "\n" for row in rows)


@st.composite
def configs(draw):
    k = draw(st.integers(1, 2))
    coefficients = st.lists(st.one_of(st.integers(-3, 3), NUMBERS), min_size=k, max_size=k)
    config = {
        "estimators": draw(st.lists(st.sampled_from(ESTIMATOR_NAMES), min_size=1, max_size=2,
                                    unique=True)),
        "s": draw(st.sampled_from([1, 2] * 4 + [0, 1.5, "1"])),
        "master_seed": draw(st.one_of(st.integers(0, 2**70), st.integers(0, 2**70),
                                      st.just(-1), NUMBERS)),
        "beta": draw(coefficients),
        "gamma": draw(coefficients),
    }
    section = draw(st.sampled_from(["outlier_study", "consistency_study", "error_dist_study"]))
    if section == "outlier_study":
        config[section] = {
            "n_units": draw(SIZES), "n_periods": draw(SIZES), "n_test": draw(SIZES),
            "kinds": draw(st.lists(st.sampled_from(CONTAMINATION_KINDS), min_size=1,
                                   max_size=2, unique=True)),
            "m_levels": draw(st.lists(st.integers(-1, 6), min_size=1, max_size=2)),
        }
    elif section == "consistency_study":
        config[section] = {"n_values": [draw(SIZES)], "t_fixed": draw(SIZES),
                           "t_values": [draw(SIZES)], "n_fixed": draw(SIZES)}
    else:
        config[section] = {"pairs": [[draw(SIZES), draw(SIZES)]]}
    return json.dumps(config)


@st.composite
def fit_argvs(draw):
    argv = ["fit", "--input", "{csv}", "--out", "{out}",
            "--estimator", draw(st.sampled_from(ESTIMATOR_NAMES * 3 + ("lasso",)))]
    if draw(st.sampled_from([False, False, True])):
        argv += ["--c", draw(st.one_of(st.just("auto"), NUMBERS.map(repr), st.just("lots")))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-3, 2**70)))]
    return argv


SIMULATE = ["simulate", "--config", "{config}", "--out-dir", "{dir}"]
ARGVS = st.one_of(
    fit_argvs(),
    st.just(SIMULATE),
    st.lists(st.sampled_from(["fit", "simulate", "--input", "{csv}", "--config", "{config}",
                              "--out", "{out}", "--out-dir", "{dir}", "--estimator", "esl",
                              "--c", "--seed", "-1", "--help", "--bogus"]), max_size=8),
)


# every cell 0 but y of (u0, 2) and x1 of (u1, 2)
ONE_CELL_CSV = ("unit,time,y,x1\nu0,0,0,0\nu0,1,0,0\nu0,2,%r,0\n"
                "u1,0,0,0\nu1,1,0,0\nu1,2,0,%r\n")


def fit_case(csv_text, *options):
    return {"argv": ["fit", "--input", "{csv}", "--out", "{out}", *options],
            "csv_text": csv_text, "config_text": "{}"}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGVS, csv_text=csv_texts(), config_text=configs())
@example(**fit_case(OK_CSV, "--estimator", "tukey", "--seed", "-1"))
@example(**fit_case(TINY_CSV, "--estimator", "esl"))
@example(**fit_case(HUGE_Y_CSV, "--estimator", "tukey"))
@example(**fit_case(OK_CSV, "--estimator", "tukey", "--c", "1e-300"))
@example(**fit_case(OK_CSV, "--estimator", "esl", "--c", "1e-320"))
# found by this test: a regressor whose squares underflow, and one so small
# next to y that the covariance overflows
@example(**fit_case(ONE_CELL_CSV % (0.0, 1e-162), "--estimator", "ls"))
@example(**fit_case(ONE_CELL_CSV % (0.0, 1e-155), "--estimator", "ls"))
@example(**fit_case(ONE_CELL_CSV % (1000.0, 1e-153), "--estimator", "huber"))
# one outlier about 1e310 MAD scales away: its standardized residual overflows
@example(**fit_case(TINY_CSV.replace("2e-300", "2e10") + "d,1,1e-300,5\nd,2,3e-300,1\n",
                    "--estimator", "tukey"))
# elemental fits of about 1e308 whose residuals overflow
@example(**fit_case("unit,time,y,x1\nu0,0,0,0\nu0,1,0,0\nu0,2,0,1\nu1,0,0,6.2e-265\n"
                    "u1,1,0,0\nu1,2,1e44,0\n", "--estimator", "huber"))
# psi^2 x x' overflows in the esl covariance although x x' does not
@example(**fit_case("unit,time,y,x1\nu0,0,0,0\nu0,1,0,0\nu0,2,0,-1e153\n"
                    "u1,0,20,0\nu1,1,0,0\nu1,2,-10,2e153\n", "--estimator", "esl"))
# found by this test: squared errors, and the generated y, past the float range
@example(argv=SIMULATE, csv_text=OK_CSV, config_text=json.dumps(dict(
    TINY_CONFIG, beta=[1.3407807929942597e154], gamma=[0.0])))
@example(argv=SIMULATE, csv_text=OK_CSV, config_text=json.dumps(dict(
    TINY_CONFIG, beta=[0.0], gamma=[9.950460369874228e153])))
@example(argv=SIMULATE, csv_text=OK_CSV, config_text=json.dumps(dict(
    TINY_CONFIG, beta=[1e308], gamma=[1e308])))
# a study panel with more regressor cells than one array can hold
@example(argv=SIMULATE, csv_text=OK_CSV, config_text=json.dumps({
    "s": 1, "estimators": ["ls"], "consistency_study": {"n_values": [10**30], "t_values": [4]}}))
def test_any_input_keeps_the_exit_contract(argv, csv_text, config_text):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name.strip("{}"))
                 for name in ("{csv}", "{config}", "{out}", "{dir}")}
        with open(paths["{csv}"], "w") as fh:
            fh.write(csv_text)
        with open(paths["{config}"], "w") as fh:
            fh.write(config_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main([paths.get(a, a) for a in argv])
            except SystemExit as done:  # --help prints usage and exits 0
                code = done.code
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
