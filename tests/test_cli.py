import json
import subprocess
import sys

import pytest

from groverdfs import hamiltonian
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


@pytest.mark.parametrize("args", [
    ["fig4", "--t-max", "nan", "--grid-points", "5"],
    ["fig6", "--t-max", "inf"],
    ["fig4", "--t-max", "-2"],
], ids=["fig4-nan", "fig6-inf", "fig4-negative"])
def test_bad_t_max_exits_2(tmp_path, capsys, args):
    assert run_cli([*args, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "--t-max" in err and "must be finite and >= 0" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args,named", [
    (["fig4", "--trials", "5", "--seed", "9", "--m-max", "3"], "--trials, --seed, --m-max"),
    (["fig2", "--m", "3"], "--m"),
    (["fig5", "--grid-points", "10"], "--grid-points"),
    (["fig6", "--omega-mean", "1", "--sigma-grid", "0:1:1"], "--sigma-grid, --omega-mean"),
    (["fig7", "--x0", "1", "--t-max", "3", "--detunings", "1,1,1,1,1,1,1,1"],
     "--x0, --detunings, --t-max"),
], ids=["fig4", "fig2", "fig5", "fig6", "fig7"])
def test_unused_flags_exit_2(tmp_path, capsys, args, named):
    assert run_cli([*args, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{args[0]} does not use {named}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args", [
    ["fig4", "--m", "3", "--x0", "5", "--detunings", "0.1,0.2,0.3", "--t-max", "10",
     "--grid-points", "20"],
    ["fig5", "--m-max", "6"],
    ["fig6", "--m", "4", "--x0", "1", "--detunings", "0.1,0.2,0.3,0.4", "--t-max", "5",
     "--grid-points", "20"],
    ["fig7", "--m", "4", "--trials", "2", "--sigma-grid", "0:0.5:0.5", "--omega-mean", "0.3",
     "--seed", "5", "--grid-points", "20"],
], ids=["fig4", "fig5", "fig6", "fig7"])
def test_every_scenario_accepts_its_own_flags(tmp_path, args):
    assert run_cli([*args, "--format", "json", "--out", str(tmp_path / "x.json")]) == 0


def test_oversized_problem_exits_2(tmp_path, capsys, monkeypatch):
    # a memory probe reading 1 MB makes the default 8-qubit fig6 too large
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**20)
    assert run_cli(["fig6", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "on 8 qubits needs" in err and "physical memory" in err
    assert not (tmp_path / "x.csv").exists()


def test_oversized_time_grid_exits_2(tmp_path, capsys, monkeypatch):
    # a memory probe reading 1 MB refuses a 1.6 MB grid before building it
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**20)
    assert run_cli(["fig4", "--grid-points", "200000", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "--grid-points" in err and "physical memory" in err
    assert not (tmp_path / "x.csv").exists()


def test_sixteen_qubit_fig6_runs(tmp_path):
    # zero detunings deflate every series to two levels, and the encoded
    # target is scattered onto the code words without a dense isometry
    out = tmp_path / "fig6.csv"
    assert run_cli(["fig6", "--m", "16", "--grid-points", "20", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "fig6.summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["m_logical"] == 13
    assert summary["summary"]["encoded"] == summary["summary"]["ideal_logical"]


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
