import json
import subprocess
import sys

import pytest

from groverdfs.experiments import cli_run

FAST_FIG7 = ["--trials", "5", "--sigma-grid", "0:0.4:0.2", "--seed", "11",
             "--grid-points", "120"]


def run_cli(args):
    return cli_run(["run", *args])


def test_fig5_csv_header_and_rows(tmp_path):
    out = tmp_path / "fig5.csv"
    assert run_cli(["fig5", "--m-max", "20", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,exact_l,floor_l,hamming_l"
    assert len(lines) == 11  # header + even m in [2, 20]
    m8 = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert m8["m"] == "8" and m8["floor_l"] == "6"
    assert float(m8["exact_l"]) == pytest.approx(6.129283016944966)
    assert float(m8["hamming_l"]) == pytest.approx(3.3561438102252753)


def test_fig7_same_seed_byte_identical(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["fig7", *FAST_FIG7, "--out", str(first)]) == 0
    assert run_cli(["fig7", *FAST_FIG7, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_fig7_seed_changes_output(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["fig7", "--trials", "3", "--sigma-grid", "0.5:0.5:0.5",
                    "--seed", "1", "--grid-points", "100", "--out", str(first)]) == 0
    assert run_cli(["fig7", "--trials", "3", "--sigma-grid", "0.5:0.5:0.5",
                    "--seed", "2", "--grid-points", "100", "--out", str(second)]) == 0
    assert first.read_bytes() != second.read_bytes()


def test_fig7_summary_records_seed(tmp_path):
    out = tmp_path / "fig7.csv"
    assert run_cli(["fig7", *FAST_FIG7, "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "fig7.summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["seed"] == 11
    assert summary["summary"]["seed"] == 11


def test_fig6_three_series_with_default_detunings(tmp_path):
    out = tmp_path / "fig6.csv"
    assert run_cli(["fig6", "--grid-points", "150", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,p_ideal_logical,p_detuned_unencoded,p_encoded"
    assert len(lines) == 151
    summary = json.loads((tmp_path / "fig6.summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["detunings"][0] == pytest.approx(0.92065)


def test_fig2_and_fig4_smoke(tmp_path):
    assert run_cli(["fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
    assert run_cli(["fig4", "--grid-points", "50", "--out", str(tmp_path / "fig4.csv")]) == 0
    fig2 = (tmp_path / "fig2.csv").read_text(encoding="utf-8").splitlines()
    assert fig2[0] == "index,a,b,c,d,e,f"
    assert len(fig2) == 9


def test_json_format_mirrors_run_result(tmp_path):
    out = tmp_path / "fig4.json"
    assert run_cli(["fig4", "--grid-points", "40", "--format", "json",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"config", "columns", "rows", "summary"}
    assert payload["columns"] == ["t", "p_ideal", "p_detuned"]
    assert len(payload["rows"]) == 40


def test_custom_detunings_flag(tmp_path):
    out = tmp_path / "fig4.csv"
    assert run_cli(["fig4", "--detunings", "0.1,0.2,0.3", "--grid-points", "40",
                    "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "fig4.summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["detunings"] == [0.1, 0.2, 0.3]


def test_unknown_scenario_exits_2(tmp_path):
    assert cli_run(["run", "fig9", "--out", str(tmp_path / "x.csv")]) == 2


def test_bad_detunings_exit_2(tmp_path):
    assert run_cli(["fig4", "--detunings", "0.1,oops",
                    "--out", str(tmp_path / "x.csv")]) == 2


def test_wrong_detuning_count_exits_2(tmp_path):
    assert run_cli(["fig6", "--detunings", "1.0,2.0",
                    "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("args", [
    ["fig6", "--detunings", "inf,0,0,0,0,0,0,0"],
    ["fig7", "--trials", "2", "--omega-mean", "nan", "--sigma-grid", "0:0:1"],
    ["fig4", "--detunings", "nan,0,0"],
])
def test_non_finite_detunings_exit_2(tmp_path, capsys, args):
    assert run_cli([*args, "--out", str(tmp_path / "x.csv")]) == 2
    assert "detunings must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("spec", ["0:inf:0.1", "0:nan:0.1"])
def test_non_finite_sigma_grid_exits_2(tmp_path, capsys, spec):
    assert run_cli(["fig7", "--sigma-grid", spec, "--out", str(tmp_path / "x.csv")]) == 2
    assert "sigma grid" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["fig4", "--grid-points", "0"],
    ["fig7", "--trials", "2", "--grid-points", "0"],
    ["fig6", "--grid-points", "-3"],
])
def test_empty_time_grid_exits_2(tmp_path, capsys, args):
    assert run_cli([*args, "--out", str(tmp_path / "x.csv")]) == 2
    assert "grid points must be >= 1" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli(["fig2", "--out", str(missing_dir)]) == 3


def test_missing_out_flag_exits_2(capsys):
    assert cli_run(["run", "fig2"]) == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    out = tmp_path / "fig2.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "groverdfs", "run", "fig2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
