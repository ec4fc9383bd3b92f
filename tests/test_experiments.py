import math

import numpy as np
import pytest

from groverdfs import experiments as xp
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
    with pytest.raises(ValueError):
        xp.monte_carlo_sweep(4, trials=2, omega_mean=0.5, sigma_grid=[-0.1],
                             seed=1, with_encoding=True)


def test_standard_normals_moments_and_determinism():
    rng = np.random.default_rng(2024)
    sample = xp.standard_normals(rng, 200_000)
    assert abs(sample.mean()) < 0.01
    assert abs(sample.std() - 1.0) < 0.01
    again = xp.standard_normals(np.random.default_rng(2024), 200_000)
    assert np.array_equal(sample, again)


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
