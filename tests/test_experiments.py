import json
import math
import re

import numpy as np
import pytest

from groverdfs import experiments as xp
from groverdfs import dfs, gates, hamiltonian
from groverdfs.hamiltonian import DetuningProfile, evolve_with_errors
from groverdfs.grover import GroverInstance


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("omega", [0.1, 1.0, 10.0])
def test_encoded_run_ignores_equal_detunings(m, omega):
    equal = xp.encoded_grover_evolution(m, DetuningProfile.equal(m, omega))
    clean = xp.encoded_grover_evolution(m, DetuningProfile.zeros(m))
    dev = np.max(np.abs(equal.column("probability") - clean.column("probability")))
    assert dev <= 1e-10


def test_encoded_run_matches_logical_dynamics_without_detunings():
    # with no detunings the encoded physical run reproduces the plain
    # logical-system run on the same grid
    m = 6
    result = xp.encoded_grover_evolution(m, DetuningProfile.zeros(m))
    l = result.config["m_logical"]
    ts = result.column("t")
    logical = evolve_with_errors(GroverInstance(l, 2**l - 1), DetuningProfile.zeros(l), ts)
    assert np.max(np.abs(result.column("probability") - logical[:, 1])) <= 1e-10


def test_encoded_run_peak_for_six_logical_qubits():
    result = xp.encoded_grover_evolution(8, DetuningProfile.zeros(8))
    eps = 2.0 ** -3
    t_peak = (math.pi / 2 - math.asin(eps)) / (2 * eps * math.sqrt(1 - eps**2))
    assert result.summary["max_probability"] >= 0.99
    assert result.summary["argmax_time"] == pytest.approx(t_peak, abs=0.1)


def test_encoded_run_matches_lifted_complex_matrix():
    # independent route: build V H_L V^dag + H_d literally and evolve it
    from groverdfs import dfs, gates
    from groverdfs.hamiltonian import detuning_hamiltonian
    from groverdfs.statevec import DenseOperator, StateVector, evolve_grid

    m = 4
    profile = DetuningProfile((0.3, -0.6, 1.2, 0.5))
    result = xp.encoded_grover_evolution(m, profile)
    code = dfs.balanced_code(m)
    l = code.logical_qubits
    eps = 2.0 ** (-l / 2)
    v_l = gates.hadamard(l).matrix[:, 2**l - 1].real
    s_l = np.zeros(2**l)
    s_l[0] = 1.0
    h_logical = 2j * eps * (np.outer(v_l, s_l) - np.outer(s_l, v_l))
    v_iso = code.isometry
    h_phys = v_iso @ h_logical @ v_iso.conj().T + detuning_hamiltonian(profile, m).matrix
    combined = DenseOperator(h_phys, frozenset({"hermitian"}))
    psi0 = StateVector(m, v_iso @ s_l)
    ts = result.column("t")
    states = evolve_grid(combined, ts, psi0)
    target = v_iso @ v_l
    probs = np.abs(states @ target.conj()) ** 2
    assert np.max(np.abs(result.column("probability") - probs)) <= 1e-12


def test_encoded_run_validation():
    with pytest.raises(ValueError):
        xp.encoded_grover_evolution(3, DetuningProfile.zeros(3))
    with pytest.raises(ValueError):
        xp.encoded_grover_evolution(4, DetuningProfile.zeros(3))
    with pytest.raises(ValueError):
        xp.encoded_grover_evolution(4, DetuningProfile.zeros(4), x0_logical=4)


def test_unencoded_wrapper_matches_module_series():
    profile = DetuningProfile((0.5, 0.3, 0.2))
    result = xp.unencoded_detuned_evolution(3, profile, x0=7)
    series = evolve_with_errors(GroverInstance(3, 7), profile)
    assert np.allclose(result.column("t"), series[:, 0])
    assert np.allclose(result.column("probability"), series[:, 1])


def test_benchmark_detunings_crush_unencoded_search():
    profile = DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q)
    ts = xp.search_window(6)
    unencoded = xp.unencoded_detuned_evolution(8, profile, t_grid=ts)
    encoded = xp.encoded_grover_evolution(8, profile, t_grid=ts)
    assert encoded.summary["max_probability"] >= 0.8
    assert unencoded.summary["max_probability"] <= 0.5 * encoded.summary["max_probability"]


def test_ideal_argmax_strictly_inside_window():
    ts = xp.search_window(6)
    ideal = xp.encoded_grover_evolution(8, DetuningProfile.zeros(8), t_grid=ts)
    assert 0.0 < ideal.summary["argmax_time"] < ts[-1]
    unencoded_ideal = xp.unencoded_detuned_evolution(8, DetuningProfile.zeros(8), t_grid=ts)
    assert 0.0 < unencoded_ideal.summary["argmax_time"] < ts[-1]


def test_monte_carlo_zero_spread_is_deterministic():
    result = xp.monte_carlo_sweep(4, trials=5, omega_mean=0.5, sigma_grid=[0.0],
                                  seed=9, with_encoding=True)
    maxima = np.array(result.summary["per_trial_max"][0])
    assert np.all(maxima == maxima[0])
    assert result.rows[0][2] == 0.0          # zero standard error
    assert result.rows[0][1] >= 0.99         # equal detunings leave the code ideal
    plain = xp.monte_carlo_sweep(4, trials=5, omega_mean=0.5, sigma_grid=[0.0],
                                 seed=9, with_encoding=False)
    assert plain.rows[0][2] == 0.0
    # identical trials give their own value and no spread, exactly: summing
    # 200 equal doubles need not
    for with_encoding in (True, False):
        result = xp.monte_carlo_sweep(8, trials=200, omega_mean=0.5, sigma_grid=[0.0],
                                      seed=42, with_encoding=with_encoding)
        maxima = result.summary["per_trial_max"][0]
        assert len(set(maxima)) == 1
        assert result.rows[0][1:] == (maxima[0], 0.0)


def test_monte_carlo_encoding_dominates():
    sigmas = [0.0, 0.5, 1.0]
    enc = xp.monte_carlo_sweep(6, trials=12, omega_mean=0.5, sigma_grid=sigmas,
                               seed=77, with_encoding=True)
    une = xp.monte_carlo_sweep(6, trials=12, omega_mean=0.5, sigma_grid=sigmas,
                               seed=77, with_encoding=False)
    for (s1, enc_mean, _), (s2, une_mean, _) in zip(enc.rows, une.rows):
        assert s1 == s2
        assert enc_mean > une_mean


def test_monte_carlo_seed_reproducibility():
    kwargs = dict(trials=4, omega_mean=0.5, sigma_grid=[0.3, 0.8], with_encoding=True)
    a = xp.monte_carlo_sweep(4, seed=123, **kwargs)
    b = xp.monte_carlo_sweep(4, seed=123, **kwargs)
    c = xp.monte_carlo_sweep(4, seed=124, **kwargs)
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_monte_carlo_probability_bounds():
    result = xp.monte_carlo_sweep(4, trials=6, omega_mean=0.5, sigma_grid=[0.0, 1.0],
                                  seed=5, with_encoding=False)
    for maxima in result.summary["per_trial_max"]:
        assert all(0.0 <= p <= 1.0 + 1e-9 for p in maxima)


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        xp.monte_carlo_sweep(4, trials=0, omega_mean=0.5, sigma_grid=[0.1],
                             seed=1, with_encoding=True)
    # a NaN spread passes s < 0 and used to fail later, in DetuningProfile
    for spread in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"the spreads (--sigma-grid) must be finite and >= 0, got {spread}")):
            xp.monte_carlo_sweep(4, trials=2, omega_mean=0.5, sigma_grid=[0.0, spread],
                                 seed=1, with_encoding=True)
    with pytest.raises(ValueError, match="--seed"):
        xp.monte_carlo_sweep(4, trials=2, omega_mean=0.5, sigma_grid=[0.1],
                             seed=-1, with_encoding=True)
    for mean in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"got a mean \(--omega-mean\) of"):
            xp.monte_carlo_sweep(4, trials=2, omega_mean=mean, sigma_grid=[0.1],
                                 seed=1, with_encoding=False)


def test_monte_carlo_refuses_trials_beyond_memory(monkeypatch):
    # a trial's 2 maxima of 8 bytes and up to 7 doubles for each of its 2
    # normals while a row is drawn: 65537 trials are 128 bytes more than 8 MB
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**23)
    with pytest.raises(ValueError, match=r"65537 trials \(--trials\) at 2 spreads needs 8388736 "
                                         r"bytes for their maxima and draws on 2 qubits"):
        xp.monte_carlo_sweep(2, trials=65537, omega_mean=0.5, sigma_grid=[0.0, 0.1],
                             seed=1, with_encoding=True)


@pytest.mark.parametrize("with_encoding", [False, True])
def test_monte_carlo_sweep_matches_per_trial_series(with_encoding):
    # the sweep builds the search problem once; trial by trial, the series
    # behind encoded_grover_evolution and evolve_with_errors give the same maxima
    m, trials, sigmas, seed = 6, 3, [0.0, 0.4, 1.5], 17
    result = xp.monte_carlo_sweep(m, trials, 0.5, sigmas, seed, with_encoding)
    ts = xp.search_window(4)
    rng = np.random.default_rng(seed)
    maxima = np.empty((len(sigmas), trials))
    for i, sigma in enumerate(sigmas):
        for k in range(trials):
            profile = DetuningProfile(tuple(0.5 + sigma * 0.5 * xp.standard_normals(rng, m)))
            if with_encoding:
                p = xp.encoded_grover_evolution(m, profile, 15, ts).column("probability")
            else:
                p = evolve_with_errors(GroverInstance(m, 63), profile, ts)[:, 1]
            maxima[i, k] = p.max()
    per_trial = result.summary["per_trial_max"]
    assert isinstance(per_trial, np.ndarray) and per_trial.shape == (3, 3)
    assert np.array_equal(per_trial, maxima)
    assert json.loads(json.dumps(result.to_json_dict()))["summary"]["per_trial_max"] == \
        maxima.tolist()


def test_standard_normals_moments_and_determinism():
    rng = np.random.default_rng(2024)
    sample = xp.standard_normals(rng, 200_000)
    assert abs(sample.mean()) < 0.01
    assert abs(sample.std() - 1.0) < 0.01
    again = xp.standard_normals(np.random.default_rng(2024), 200_000)
    assert np.array_equal(sample, again)


def spy_series(monkeypatch):
    """Record the (detunings, window) of every series the sweep asks for, and
    answer each with a ramp whose maximum is the call's index."""
    calls = []

    def spy(coupling, v, anchor, d, ts, *, qubits=None):
        calls.append((d, ts))
        return np.linspace(0.0, len(calls) - 1, ts.size)

    monkeypatch.setattr(xp, "coupled_success_series", spy)
    return calls


@pytest.mark.parametrize("m", [4, 8, 10])
@pytest.mark.parametrize("trials", [1, 2, 7, 200])
def test_row_draws_match_per_trial_draws_bit_for_bit(monkeypatch, m, trials):
    # numpy's SIMD log and cos may round an array's body and tail apart, so
    # the row form is compared with the per-trial form at several lengths
    row = xp.standard_normals(np.random.default_rng(trials), (trials, m))
    rng = np.random.default_rng(trials)
    per_trial = np.array([xp.standard_normals(rng, m) for _ in range(trials)])
    assert row.tobytes() == per_trial.tobytes()
    # and the generator has advanced as far
    after_row = np.random.default_rng(trials)
    xp.standard_normals(after_row, (trials, m))
    assert after_row.random() == rng.random()
    # the sweep's detunings, spread by spread and trial by trial, are the
    # ones DetuningProfile and signed_detunings give each trial's draws
    sigmas, seed = [0.0, 0.3, 1.0], 40 + m
    calls = spy_series(monkeypatch)
    xp.monte_carlo_sweep(m, trials, 0.5, sigmas, seed, with_encoding=False, grid_points=5)
    rng, signs = np.random.default_rng(seed), hamiltonian.sign_columns(m, np.arange(2**m))
    expected = []
    for sigma in sigmas:
        profiles = [DetuningProfile(tuple(0.5 + sigma * 0.5 * xp.standard_normals(rng, m)))
                    for _ in range(trials)]
        expected += profiles[:1] if sigma == 0 else profiles
    assert len(calls) == len(expected)
    for (d, _), profile in zip(calls, expected):
        assert d.tobytes() == hamiltonian.signed_detunings(profile.absolute(), signs).tobytes()


def test_zero_spread_row_runs_one_series(monkeypatch):
    calls = spy_series(monkeypatch)
    result = xp.monte_carlo_sweep(4, 5, 0.5, [0.0, 0.5, 0.0], 3, with_encoding=True,
                                  grid_points=7)
    # one series for each zero-spread row, one a trial for the other
    assert len(calls) == 1 + 5 + 1
    per_trial = result.summary["per_trial_max"]
    assert per_trial.tolist() == [[0.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0], [6.0] * 5]
    assert result.column("mean_max_probability").tolist() == [0.0, 3.0, 6.0]
    assert result.column("stderr")[[0, 2]].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("trials", [1, 2, 3, 7, 200])
def test_sweep_statistics_match_the_per_spread_formulas(monkeypatch, trials):
    rng = np.random.default_rng(trials)
    monkeypatch.setattr(xp, "coupled_success_series",
                        lambda *args, **kwargs: rng.random(3))
    result = xp.monte_carlo_sweep(4, trials, 0.5, [0.1, 0.2, 0.4], 1, with_encoding=False,
                                  grid_points=3)
    for maxima, mean, stderr in zip(result.summary["per_trial_max"],
                                    result.column("mean_max_probability"),
                                    result.column("stderr")):
        dev = maxima - maxima[0]
        assert mean == maxima[0] + dev.mean()
        assert stderr == (dev.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0)


@pytest.mark.parametrize("trial,qubit,bad", [(0, 0, math.inf), (3, 2, math.nan),
                                             (5, 3, -math.inf)])
def test_non_finite_draw_anywhere_in_a_row_is_refused(monkeypatch, trial, qubit, bad):
    # the second spread's row carries one non-finite normal; the refusal is
    # DetuningProfile's, for that trial's detunings
    normals, rows = xp.standard_normals, []

    def poisoned(rng, shape):
        rows.append(normals(rng, shape))
        if len(rows) == 2:
            rows[-1][trial, qubit] = bad
        return rows[-1]

    monkeypatch.setattr(xp, "standard_normals", poisoned)
    with pytest.raises(ValueError) as refused:
        xp.monte_carlo_sweep(4, 6, 0.5, [0.2, 0.5], 8, with_encoding=True, grid_points=5)
    with pytest.raises(ValueError) as expected:
        DetuningProfile(tuple(0.5 + 0.5 * 0.5 * rows[1][trial]))
    assert len(rows) == 2 and str(refused.value) == str(expected.value)


@pytest.mark.parametrize("m", [4, 8, 12])
def test_encoded_maxima_depend_on_the_draws_only_through_sigma_times_mean(m):
    # a balanced word's signs sum to 0, so a common detuning drops out of
    # every code word's d_x: (mean, sigma) and (2 mean, sigma / 2) agree
    sigmas = [0.0, 0.2, 1.0, 3.0]
    base = xp.monte_carlo_sweep(m, 3, 0.5, sigmas, 11, with_encoding=True)
    doubled = xp.monte_carlo_sweep(m, 3, 1.0, [s / 2 for s in sigmas], 11, with_encoding=True)
    gap = np.abs(base.summary["per_trial_max"] - doubled.summary["per_trial_max"])
    assert gap.max() <= 1e-12


def test_code_size_table_rows():
    table = xp.code_size_table([4, 8])
    assert table.columns == ["m", "exact_l", "floor_l", "hamming_l"]
    row4, row8 = table.rows
    assert row4[0] == 4 and row4[2] == 2
    assert row4[1] == pytest.approx(math.log2(6), abs=1e-12)
    assert row8[0] == 8 and row8[2] == 6
    assert row8[1] == pytest.approx(6.129283016944966, abs=1e-9)
    assert row8[3] == pytest.approx(3.356, abs=1e-3)


def test_code_size_table_exceeds_hamming_column():
    table = xp.code_size_table(range(4, 21, 2))
    for _, exact_l, _, hamming_l in table.rows:
        assert exact_l > hamming_l


def test_fig2_amplitude_stages():
    a, b, c, d, e, f = xp.fig2_amplitudes()
    r8 = 1 / math.sqrt(8)
    assert np.allclose(a, np.eye(8)[0])
    assert np.allclose(b, np.full(8, r8), atol=1e-14)
    expected_c = np.full(8, r8)
    expected_c[7] *= -1
    assert np.allclose(c, expected_c, atol=1e-14)
    # frozen from the sign-flip/inversion-about-mean recursion for 8 items
    assert np.allclose(d, [0.75, 0.25, 0.25, -0.25, 0.25, -0.25, -0.25, 0.25], atol=1e-13)
    assert np.allclose(e, [0.75, -0.25, -0.25, 0.25, -0.25, 0.25, 0.25, -0.25], atol=1e-13)
    expected_f = np.full(8, 1 / (4 * math.sqrt(2)))
    expected_f[7] = 5 / (4 * math.sqrt(2))
    assert np.allclose(f, expected_f, atol=1e-13)


def test_fig2_scenario_summary():
    result = xp.scenario_fig2()
    assert result.summary["marked_amplitude"] == pytest.approx(0.8838834764831844, abs=1e-12)
    assert result.summary["marked_probability"] == pytest.approx(25 / 32, abs=1e-12)


def test_scenario_fig4_series():
    result = xp.scenario_fig4()
    assert result.columns == ["t", "p_ideal", "p_detuned"]
    assert len(result.rows) == 400
    assert result.summary["ideal"]["max_probability"] > result.summary["detuned"]["max_probability"]
    for row in result.rows:
        assert 0.0 <= row[1] <= 1.0 + 1e-9
        assert 0.0 <= row[2] <= 1.0 + 1e-9


def test_scenario_fig5_range():
    result = xp.scenario_fig5(m_max=12)
    assert [row[0] for row in result.rows] == [2, 4, 6, 8, 10, 12]


def test_scenario_fig6_summary():
    result = xp.scenario_fig6(grid_points=200)
    assert result.columns == ["t", "p_ideal_logical", "p_detuned_unencoded", "p_encoded"]
    enc = result.summary["encoded"]
    det = result.summary["detuned_unencoded"]
    t_ideal = result.summary["ideal_peak_time"]
    assert enc["max_probability"] >= 0.8
    assert det["max_probability"] <= 0.5 * enc["max_probability"]
    assert abs(enc["argmax_time"] - t_ideal) / t_ideal <= 0.25


def test_scenario_fig7_structure():
    sigmas = [0.0, 0.4]
    result = xp.scenario_fig7(trials=4, sigma_grid=sigmas, seed=31, grid_points=150)
    assert result.columns == ["sigma", "encoded_mean_max_p", "encoded_stderr",
                              "unencoded_mean_max_p", "unencoded_stderr"]
    assert [row[0] for row in result.rows] == sigmas
    assert result.config["seed"] == 31
    assert len(result.summary["encoded_per_trial_max"][0]) == 4
    for row in result.rows:
        assert row[1] > row[3]


def test_parse_sigma_grid():
    assert xp.parse_sigma_grid("0:1:0.5") == [0.0, 0.5, 1.0]
    grid = xp.parse_sigma_grid("0:1:0.1")
    assert len(grid) == 11
    assert grid[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        xp.parse_sigma_grid("0:1")
    with pytest.raises(ValueError):
        xp.parse_sigma_grid("1:0:0.1")
    for spec in ("0:inf:0.1", "0:nan:0.1", "-inf:1:0.1", "0:1:inf", "0:1:nan"):
        with pytest.raises(ValueError, match="finite"):
            xp.parse_sigma_grid(spec)


def test_sigma_grid_beyond_memory_is_refused_before_allocating(monkeypatch):
    # 32 bytes a spread: 1 MB holds 32768 spreads
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**20)
    assert len(xp.parse_sigma_grid("0:32767:1")) == 32768
    for spec, count in (("0:32768:1", 32769), ("0:1:1e-6", 1_000_001),
                        ("0:1:1e-300", 2**62 + 1)):
        with pytest.raises(ValueError, match=f"of {count} spreads \\(--sigma-grid"):
            xp.parse_sigma_grid(spec)


def test_run_result_round_trip(tmp_path):
    result = xp.scenario_fig5(m_max=8)
    csv_path = tmp_path / "table.csv"
    result.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "m,exact_l,floor_l,hamming_l"
    assert len(lines) == 1 + len(result.rows)
    json_path = tmp_path / "table.json"
    result.write_json(json_path)
    import json
    payload = json.loads(json_path.read_text())
    assert payload["columns"] == result.columns
    assert payload["config"]["scenario"] == "fig5"


@pytest.mark.parametrize("m", [4, 8])
def test_encoded_series_does_not_depend_on_the_logical_marked_item(m):
    # the encoded counterpart of the unencoded gauge test in test_hamiltonian
    profile = DetuningProfile(tuple(np.random.default_rng(m).normal(size=m)))
    l = dfs.balanced_code(m).logical_qubits
    ts = xp.search_window(l)
    first = xp.encoded_grover_evolution(m, profile, 0, ts).column("probability")
    for x0 in range(1, 2**l):
        p = xp.encoded_grover_evolution(m, profile, x0, ts).column("probability")
        assert np.array_equal(p, first)


def _cell(x) -> str:
    """One CSV cell as the writer formatted it cell by cell: the reference."""
    return str(int(x)) if isinstance(x, int) else format(float(x), ".17g")


_SIGMAS = [0.0, 0.5]
RESULTS = {
    "fig2": xp.scenario_fig2,
    "fig4": lambda: xp.scenario_fig4(grid_points=30),
    "fig5": lambda: xp.scenario_fig5(m_max=24),
    "fig6": lambda: xp.scenario_fig6(grid_points=30),
    "fig7": lambda: xp.scenario_fig7(trials=3, sigma_grid=_SIGMAS, seed=3, grid_points=40),
    "encoded": lambda: xp.encoded_grover_evolution(4, DetuningProfile((0.1, 0.2, 0.3, 0.4))),
    "unencoded": lambda: xp.unencoded_detuned_evolution(3, DetuningProfile((0.5, 0.3, 0.2))),
    "sweep": lambda: xp.monte_carlo_sweep(4, 3, 0.5, _SIGMAS, 1, with_encoding=False),
    "table": lambda: xp.code_size_table([2, 6, 40]),
}


def test_printf_and_format_agree_on_every_kind_of_double():
    rng = np.random.default_rng(7)
    values = (rng.choice([-1.0, 1.0], 2000) * rng.random(2000)
              * 10.0 ** rng.uniform(-300, 300, 2000)).tolist()
    tiny = np.finfo(float).smallest_subnormal
    values += [0.0, -0.0, tiny, -tiny, 12345 * tiny, np.finfo(float).tiny * 0.5,
               np.finfo(float).max, math.inf, -math.inf, math.nan, 1 / 3, 0.1, 1e16, 2.0**53 + 2]
    for x in values:
        assert "%.17g" % x == format(x, ".17g")


def test_integer_columns_are_written_as_integers(tmp_path):
    for result, names in ((xp.scenario_fig5(m_max=12), ("m", "floor_l")),
                          (xp.scenario_fig2(), ("index",))):
        result.write_csv(tmp_path / "x.csv")
        lines = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()
        for name in names:
            assert result.column(name).dtype.kind == "i"
            j = result.columns.index(name)
            cells = [line.split(",")[j] for line in lines[1:]]
            assert cells == [str(int(x)) for x in result.column(name)]


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_rows_columns_and_column_agree(tmp_path, name):
    result = RESULTS[name]()
    assert result.columns == list(result.data)
    rows = result.rows
    assert all(type(row) is tuple and len(row) == len(result.columns) for row in rows)
    for j, col_name in enumerate(result.columns):
        col = result.column(col_name)
        assert col.ndim == 1 and col.tolist() == [row[j] for row in rows]
        assert all(type(row[j]) in (int, float) for row in rows)
        with pytest.raises(ValueError):
            col[0] = 0
    # the writer is byte-identical to formatting one cell at a time
    result.write_csv(tmp_path / "x.csv")
    expected = [",".join(result.columns), *(",".join(map(_cell, row)) for row in rows)]
    assert (tmp_path / "x.csv").read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert payload["columns"] == result.columns
    assert payload["rows"] == [list(row) for row in rows]


def test_column_is_read_only_and_leaves_the_builders_array_writable():
    # fig7 stacks the sweeps' columns, so a column is a read-only view, and
    # the array a builder passed in is not frozen
    ts = np.linspace(0.0, 1.0, 3)
    result = xp.RunResult({}, {"t": ts})
    ts[0] = 0.5
    with pytest.raises(ValueError):
        result.column("t")[0] = 1.0


def test_one_column_result(tmp_path):
    tiny = np.finfo(float).smallest_subnormal
    result = xp.RunResult({"scenario": "one"}, {"x": np.array([1.5, -0.0, tiny, math.inf])})
    result.write_csv(tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_text(encoding="utf-8") == \
        "x\n1.5\n-0\n4.9406564584124654e-324\ninf\n"
    assert result.rows == [(1.5,), (-0.0,), (tiny,), (math.inf,)]
    assert result.to_json_dict() == {"config": {"scenario": "one"}, "columns": ["x"],
                                     "rows": [[1.5], [-0.0], [tiny], [math.inf]],
                                     "summary": {}}
    # %d keeps integers beyond 17 significant digits exact
    counts = xp.RunResult({}, {"n": np.array([0, -1, 2**62 + 1])})
    counts.write_csv(tmp_path / "n.csv")
    assert (tmp_path / "n.csv").read_text(encoding="utf-8") == \
        "n\n0\n-1\n4611686018427387905\n"


def test_no_series_path_calls_the_gate_layer(monkeypatch):
    # the series read the target state only as the constant 2^(-n/2) on the
    # search's support, so no series path builds H|x0>
    calls = []
    target_state, walsh_hadamard = GroverInstance.target_state, gates.walsh_hadamard
    monkeypatch.setattr(GroverInstance, "target_state",
                        lambda inst: calls.append("target_state") or target_state(inst))
    monkeypatch.setattr(gates, "walsh_hadamard",
                        lambda amps: calls.append("walsh_hadamard") or walsh_hadamard(amps))
    profile = DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q)
    ts = xp.search_window(6, points=50)
    evolve_with_errors(GroverInstance(8, 37), profile, ts)
    xp.unencoded_detuned_evolution(8, profile, 37, ts)
    xp.encoded_grover_evolution(8, profile, 11, ts)
    for with_encoding in (False, True):
        xp.monte_carlo_sweep(8, 2, 0.5, [0.0, 0.5], 3, with_encoding, grid_points=50)
    xp.scenario_fig4(x0=5)
    xp.scenario_fig6(x0=9)
    xp.scenario_fig7(m=4, trials=2, sigma_grid=[0.0, 0.5])
    assert calls == []
    # the spies see the dense reference's calls
    hamiltonian.grover_hamiltonian(GroverInstance(3, 5))
    assert calls == ["target_state", "walsh_hadamard"]


def test_encoded_path_holds_no_array_of_the_physical_dimension(monkeypatch):
    # at m = 12 the encoded series runs on the 2^l = 512 code words, never on
    # all 4096 basis states
    sizes = []
    series = xp.coupled_success_series

    def spy(coupling, v, anchor, diag, times, **kwargs):
        sizes.extend((np.size(v), np.size(diag), kwargs["qubits"]))
        return series(coupling, v, anchor, diag, times, **kwargs)

    monkeypatch.setattr(xp, "coupled_success_series", spy)
    profile = DetuningProfile(tuple(np.random.default_rng(12).normal(size=12)))
    xp.encoded_grover_evolution(12, profile, 100, xp.search_window(9, points=50))
    xp.monte_carlo_sweep(12, 2, 0.5, [0.5], 1, with_encoding=True, grid_points=50)
    # v is the one amplitude 2^(-9/2) of every code word
    assert sizes == [1, 512, 12] * 3


@pytest.mark.parametrize("m", [10, 12])
def test_unencoded_fig7_window_reaches_its_own_peak(m):
    # the logical window [0, 2 peak(l)] ends before the unencoded peak for
    # m >= 10 (0.8267 at m = 10 and 0.8150 at m = 12 on it)
    result = xp.scenario_fig7(m, trials=1, omega_mean=0.0, sigma_grid=[0.0])
    l = dfs.balanced_code(m).logical_qubits
    assert result.config["t_max"] == 2.0 * xp.ideal_peak_time(l)
    assert result.config["t_max_unencoded"] == xp.ideal_peak_time(m)
    assert result.column("unencoded_mean_max_p")[0] >= 0.99


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_fig7_windows_agree_up_to_eight_qubits(m):
    config = xp.scenario_fig7(m, trials=1, sigma_grid=[0.0]).config
    assert config["t_max_unencoded"] == config["t_max"]


def test_encoded_refusal_names_the_physical_qubits(monkeypatch):
    # the encoded series runs on the 64 code words of m = 8 but names m; the
    # 5-point grid and the one maximum fit in 512 bytes, the series does not
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 2**9)
    with pytest.raises(ValueError, match="the detuned series on 8 qubits needs"):
        xp.encoded_grover_evolution(8, DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q),
                                    t_grid=np.linspace(0.0, 12.0, 5))
    with pytest.raises(ValueError, match="the detuned series on 8 qubits needs"):
        xp.monte_carlo_sweep(8, 1, 0.5, [0.5], 1, with_encoding=True, grid_points=5)
