import functools
import inspect
import json
import subprocess
import sys
import tracemalloc

import pytest

from groverdfs import dfs, experiments, hamiltonian
from groverdfs.experiments import RunResult, cli_run

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


@pytest.mark.parametrize("scenario", ["fig4", "fig6"])
def test_empty_detunings_exit_2(tmp_path, capsys, scenario):
    # an empty value is parsed like any other, not taken for the default profile
    assert run_cli([scenario, "--detunings", "", "--out", str(tmp_path / "x.csv")]) == 2
    assert "detunings must be a comma-separated list of numbers" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# The flags each scenario reads besides --out and --format, and a value of each.
SCENARIO_FLAGS = {
    "fig2": set(),
    "fig4": {"m", "x0", "detunings", "t_max", "grid_points"},
    "fig5": {"m_max"},
    "fig6": {"m", "x0", "detunings", "t_max", "grid_points"},
    "fig7": {"m", "trials", "sigma_grid", "omega_mean", "seed", "grid_points"},
}
FLAG_VALUES = {
    "m": ("4", 4), "x0": ("1", 1), "detunings": ("0.1,0.2", (0.1, 0.2)), "trials": ("2", 2),
    "sigma_grid": ("0:0.5:0.5", [0.0, 0.5]), "omega_mean": ("0.3", 0.3), "seed": ("5", 5),
    "t_max": ("2.5", 2.5), "grid_points": ("20", 20), "m_max": ("6", 6),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIO_FLAGS))
@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_a_flag_is_accepted_exactly_when_the_runner_takes_it(tmp_path, capsys, monkeypatch,
                                                             scenario, flag):
    runner = experiments.SCENARIOS[scenario]
    assert set(inspect.signature(runner).parameters) == SCENARIO_FLAGS[scenario]
    calls = []

    @functools.wraps(runner)
    def spy(**kwargs):
        calls.append(kwargs)
        return RunResult({"scenario": scenario}, {"x": [0]})

    monkeypatch.setitem(experiments.SCENARIOS, scenario, spy)
    text, value = FLAG_VALUES[flag]
    option = "--" + flag.replace("_", "-")
    code = run_cli([scenario, option, text, "--out", str(tmp_path / "x.csv")])
    if flag in SCENARIO_FLAGS[scenario]:
        assert code == 0 and calls == [{flag: value}]
    else:
        assert code == 2 and not calls
        err = capsys.readouterr().err
        assert err == f"groverdfs: configuration error: {scenario} does not use {option}\n"


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
    # a memory probe reading 256 KB makes the default 8-qubit fig6 too large:
    # its unencoded series needs about 0.45 MB
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**18)
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


@pytest.mark.parametrize("args,need,states", [
    (["fig4", "--m", "10"], 18 * 2**10, 2**10),
    # the encoded sweep's 128 code words; the 5-point window fits
    (["fig7", "--m", "10", "--trials", "1", "--sigma-grid", "0:0:1", "--grid-points", "5"],
     18 * 128, 128),
], ids=["fig4", "fig7"])
def test_oversized_sign_table_exits_2(tmp_path, capsys, monkeypatch, args, need, states):
    # the 10-qubit code, whose 252 words alone outweigh the probe, is built first
    dfs.balanced_code(10)
    # ten int8 rows and one int64 row of states, a byte short
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: need - 1)
    assert run_cli([*args, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert (f"on 10 qubits needs {need} bytes for its sign table of {states} states (--m), "
            f"more than the {need - 1} bytes of physical memory") in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["fig4", "--m", "34"], "the detuned series on 34 qubits needs 721554505728 bytes for its "
                            "sign table of 17179869184 states (--m)"),
    # the unencoded series runs first, before the code's C(30, 15) words are built
    (["fig6", "--m", "30"], "the detuned series on 30 qubits needs 40802189312 bytes for its "
                            "sign table of 1073741824 states (--m)"),
    (["fig7", "--m", "40", "--trials", "1", "--sigma-grid", "0:0:1"],
     "the balanced code on 40 qubits needs 5513861152800 bytes for its 137846528820 words (--m)"),
], ids=["fig4", "fig6", "fig7"])
def test_oversized_qubit_count_exits_2_before_allocating(tmp_path, capsys, monkeypatch, args,
                                                          message):
    # an 8 GiB probe refuses each problem before its 2^m states or code words exist
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**33)
    tracemalloc.start()
    try:
        code = run_cli([*args, "--out", str(tmp_path / "x.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"{message}, more than the 8589934592 bytes of physical memory" in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args,named", [
    (["--trials", "1000000000000"], "1000000000000 trials (--trials) at 11 spreads"),
    (["--sigma-grid", "0:1:1e-12"], "sigma grid of 1000000000001 spreads (--sigma-grid"),
], ids=["trials", "sigma-grid"])
def test_oversized_fig7_exits_2(tmp_path, capsys, monkeypatch, args, named):
    # a memory probe reading 1 GB refuses 536 TB of per-trial maxima and
    # draws and 32 TB of spreads before either is allocated
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**30)
    assert run_cli(["fig7", *args, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert named in err and "physical memory" in err
    assert not (tmp_path / "x.csv").exists()


def test_fig7_counts_each_spreads_draws_in_its_memory_check(tmp_path, capsys, monkeypatch):
    # 2000 trials' 11 maxima take 176 KB and fit in 1 MB; a spread's row of
    # 2000 x 8 normals takes up to 7 doubles a normal while it is drawn, and
    # the two together, 1072 KB, do not
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**20)
    assert run_cli(["fig7", "--trials", "2000", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert ("2000 trials (--trials) at 11 spreads needs 1072000 bytes for their maxima and "
            "draws on 8 qubits, more than the 1048576 bytes of physical memory") in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["--omega-mean", "inf"], "got a mean (--omega-mean) of inf"),
    (["--omega-mean=-inf"], "got a mean (--omega-mean) of -inf"),
    (["--seed", "-1"], "the seed (--seed) must be >= 0, got -1"),
], ids=["inf-mean", "negative-inf-mean", "negative-seed"])
def test_bad_fig7_inputs_exit_2(tmp_path, capsys, args, message):
    assert run_cli(["fig7", "--trials", "2", *args, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
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


@pytest.mark.parametrize("args,message", [
    (["fig4", "--m", "0"], "the qubit count (--m) must be >= 1, got 0"),
    (["fig6", "--m", "0"], "even physical qubit count (--m) >= 2, got 0"),
    (["fig6", "--m", "3"], "even physical qubit count (--m) >= 2, got 3"),
    (["fig7", "--m", "3", "--trials", "2"], "even physical qubit count (--m) >= 2, got 3"),
    (["fig5", "--m-max", "1"], "(--m-max) must lie in 2..4000, got 1"),
    (["fig5", "--m-max", "4001"], "(--m-max) must lie in 2..4000, got 4001"),
], ids=["fig4-m0", "fig6-m0", "fig6-m3", "fig7-m3", "fig5-m-max-1", "fig5-m-max-4001"])
def test_qubit_counts_out_of_range_exit_2_naming_the_flag(tmp_path, capsys, args, message):
    assert run_cli([*args, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_fig5_runs_at_its_largest_m_max(tmp_path):
    out = tmp_path / "fig5.csv"
    assert run_cli(["fig5", "--m-max", "4000", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2000 and lines[-1].startswith("4000,")


@pytest.mark.parametrize("args,message", [
    (["fig4", "--x0", "8"], "the marked item (--x0) must lie in 0..7, got 8"),
    (["fig4", "--x0", "-1"], "the marked item (--x0) must lie in 0..7, got -1"),
    (["fig4", "--m", "5", "--x0", "32"], "the marked item (--x0) must lie in 0..31, got 32"),
    (["fig6", "--x0", "64"], "the logical marked item (--x0) must lie in 0..63, got 64"),
    (["fig6", "--m", "4", "--x0", "-3"], "the logical marked item (--x0) must lie in 0..3, got -3"),
], ids=["fig4-8", "fig4-negative", "fig4-m5", "fig6-64", "fig6-m4-negative"])
def test_marked_item_out_of_range_exits_2_naming_the_flag(tmp_path, capsys, args, message):
    assert run_cli([*args, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("scenario", ["fig4", "fig6"])
def test_detuned_csvs_do_not_depend_on_the_marked_item(tmp_path, scenario):
    csvs, configs = [], []
    for x0 in ("0", "5"):
        out = tmp_path / f"{x0}.csv"
        assert run_cli([scenario, "--x0", x0, "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
        configs.append(json.loads(out.with_suffix(".summary.json").read_text())["config"])
    assert csvs[0] == csvs[1]
    assert configs[0] != configs[1]


@pytest.mark.parametrize("args", [
    ["fig4", "--t-max", "1e308", "--grid-points", "5"],
    ["fig4", "--t-max", "1e15"],
    ["fig6", "--t-max", "1e300", "--grid-points", "5"],
], ids=["fig4-1e308", "fig4-1e15", "fig6-1e300"])
def test_window_beyond_phase_precision_exits_2(tmp_path, capsys, args):
    # the phases' rounding error eps rho t_max would leave P(t) no digit
    assert run_cli([*args, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "--t-max" in err and "no significant digit" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("scenario", ["fig4", "fig6"])
def test_tested_windows_keep_their_phase_precision(tmp_path, scenario):
    assert run_cli([scenario, "--t-max", "1e4", "--grid-points", "5",
                    "--out", str(tmp_path / "x.csv")]) == 0
