"""Scenario runners and CLI: ideal, detuned, and encoded search dynamics,
code-size tables, amplitude snapshots, and Monte Carlo robustness sweeps.

Every scenario produces a RunResult (config echo, tabular series, summary)
that can be written as CSV plus a JSON summary, or as a single JSON file.
Scenarios are named fig2/fig4/fig5/fig6/fig7 on the command line:

    fig2  amplitude snapshots of a single three-qubit search iteration
    fig4  ideal vs detuned three-qubit success probability over time
    fig5  logical-qubit counts vs the quantum Hamming bound
    fig6  ideal / detuned / encoded evolution for 8 physical qubits
    fig7  average maximum success vs detuning spread (Monte Carlo)
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dfs, gates
from .grover import GroverInstance
from .hamiltonian import (DEFAULT_GRID_POINTS, DetuningProfile,
                          coupled_success_series, detuning_diagonal,
                          evolve_with_errors, time_grid)
from .statevec import DenseOperator, apply, basis_state

# Detunings of the 8-qubit benchmark, in units of <s|v>/tau = 2^-4.
BENCHMARK_DETUNINGS_8Q = (0.92065, 1.1436, 0.71449, 1.39566, 1.29707, 0.70149, 1.19195, 1.00343)

DEFAULT_TRIALS = 200
DEFAULT_OMEGA_MEAN = 0.5          # units of <s|v>/tau
DEFAULT_SIGMA_GRID = "0:1:0.1"    # relative spread, units of the mean
DEFAULT_SEED = 42


@dataclass
class RunResult:
    """Config echo, tabular series, and summary statistics of one scenario run."""

    config: dict
    columns: list
    rows: list
    summary: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows])

    def write_csv(self, path) -> None:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(x) for x in row))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def to_json_dict(self) -> dict:
        return _jsonable({
            "config": self.config,
            "columns": self.columns,
            "rows": self.rows,
            "summary": self.summary,
        })

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    def write_summary_json(self, path) -> None:
        payload = _jsonable({"config": self.config, "summary": self.summary})
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _format_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


def ideal_peak_time(num_qubits: int) -> float:
    """(pi/4) sqrt(2^m): the asymptotic time of the first success maximum."""
    return (math.pi / 4.0) * 2.0 ** (num_qubits / 2.0)


def search_window(logical_qubits: int, t_max: float | None = None,
                  points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Default max-probability window [0, 2 * ideal peak time] of the logical system."""
    if t_max is None:
        t_max = 2.0 * ideal_peak_time(logical_qubits)
    return time_grid(t_max, points)


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard normal variates via the Box-Muller transform of uniform draws.

    Using an explicit transform of rng.random() keeps the draw sequence a
    deterministic function of the seed, independent of any library-internal
    normal sampler.
    """
    u1 = 1.0 - rng.random(n)   # in (0, 1], keeps the log finite
    u2 = rng.random(n)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _encoded_series(m_phys: int, profile: DetuningProfile, x0_logical: int,
                    ts: np.ndarray) -> np.ndarray:
    """Success probabilities of the encoded search under physical detunings.

    The logical generator (overlap 2^(-l/2)) is lifted through the code
    isometry V into the full 2^m physical space, the physical detuning
    diagonal is added, and the encoded start state V|0...0> is evolved
    under the combined matrix.  Reported is |<V v_L | psi(t)>|^2.  The code
    words are basis states, so V v_L scatters v_L onto the code indices.
    """
    code = dfs.balanced_code(m_phys)
    l = code.logical_qubits
    if not 0 <= x0_logical < 2**l:
        raise ValueError(f"logical marked item {x0_logical} out of range for {l} qubits")
    if profile.num_qubits != m_phys:
        raise ValueError(f"profile has {profile.num_qubits} detunings, expected {m_phys}")
    logical = GroverInstance(l, x0_logical)
    v_phys = np.zeros(2**m_phys)
    v_phys[np.array(code.code_indices)] = logical.target_state().amplitudes.real
    anchor = code.basis_states[0]   # V|0...0> is this physical basis state
    d = detuning_diagonal(profile, m_phys)
    return coupled_success_series(2.0 * logical.epsilon, v_phys, anchor, d, ts)


def encoded_grover_evolution(m_phys: int, profile: DetuningProfile,
                             x0_logical: int | None = None,
                             t_grid=None) -> RunResult:
    """Encoded search on m_phys qubits with per-qubit detunings."""
    code = dfs.balanced_code(m_phys)
    l = code.logical_qubits
    if x0_logical is None:
        x0_logical = 2**l - 1
    ts = np.asarray(t_grid, dtype=float) if t_grid is not None else search_window(l)
    p = _encoded_series(m_phys, profile, x0_logical, ts)
    config = {
        "scenario": "encoded_evolution", "m_physical": m_phys, "m_logical": l,
        "x0_logical": x0_logical, "detunings": list(profile.omegas),
        "detuning_scale": profile.scale, "grid_points": len(ts), "t_max": float(ts[-1]),
    }
    return RunResult(config, ["t", "probability"], list(zip(ts.tolist(), p.tolist())),
                     _series_summary(ts, p))


def unencoded_detuned_evolution(m: int, profile: DetuningProfile,
                                x0: int | None = None, t_grid=None) -> RunResult:
    """Plain (unencoded) search on m qubits with per-qubit detunings."""
    if x0 is None:
        x0 = 2**m - 1
    inst = GroverInstance(m, x0)
    series = evolve_with_errors(inst, profile, t_grid)
    ts, p = series[:, 0], series[:, 1]
    config = {
        "scenario": "unencoded_evolution", "m": m, "x0": x0,
        "detunings": list(profile.omegas), "detuning_scale": profile.scale,
        "grid_points": len(ts), "t_max": float(ts[-1]),
    }
    return RunResult(config, ["t", "probability"], list(zip(ts.tolist(), p.tolist())),
                     _series_summary(ts, p))


def _series_summary(ts: np.ndarray, p: np.ndarray) -> dict:
    k = int(np.argmax(p))
    return {"max_probability": float(p[k]), "argmax_time": float(ts[k])}


def monte_carlo_sweep(m_phys: int, trials: int, omega_mean: float, sigma_grid,
                      seed: int, with_encoding: bool,
                      x0: int | None = None,
                      grid_points: int = DEFAULT_GRID_POINTS) -> RunResult:
    """Average maximum success probability over random detuning profiles.

    For each relative spread sigma in sigma_grid, `trials` profiles are
    drawn with omega_i ~ Normal(omega_mean, (sigma * omega_mean)^2) (units
    of <s|v>/tau of the physical system; negative draws are kept) and the
    maximum of P(t) over the search window is averaged across trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sigma_grid = [float(s) for s in sigma_grid]
    if any(s < 0 for s in sigma_grid):
        raise ValueError("sigma grid must be non-negative")
    l = dfs.balanced_code(m_phys).logical_qubits
    ts = search_window(l, points=grid_points)
    if x0 is None:
        x0 = (2**l - 1) if with_encoding else (2**m_phys - 1)
    rng = np.random.default_rng(seed)
    rows = []
    per_trial = []
    for sigma in sigma_grid:
        maxima = np.empty(trials)
        for k in range(trials):
            omegas = omega_mean + sigma * omega_mean * standard_normals(rng, m_phys)
            profile = DetuningProfile(tuple(omegas))
            if with_encoding:
                p = _encoded_series(m_phys, profile, x0, ts)
            else:
                series = evolve_with_errors(GroverInstance(m_phys, x0), profile, ts)
                p = series[:, 1]
            maxima[k] = p.max()
        # centred on the first trial, so identical maxima give their own
        # value and a spread of exactly zero
        dev = maxima - maxima[0]
        stderr = float(dev.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        rows.append((sigma, float(maxima[0] + dev.mean()), stderr))
        per_trial.append(maxima.tolist())
    config = {
        "scenario": "monte_carlo_sweep", "m_physical": m_phys, "with_encoding": with_encoding,
        "x0": x0, "trials": trials, "omega_mean": omega_mean, "sigma_grid": sigma_grid,
        "seed": seed, "grid_points": grid_points, "t_max": float(ts[-1]),
    }
    summary = {"seed": seed, "per_trial_max": per_trial, "sigmas": sigma_grid}
    return RunResult(config, ["sigma", "mean_max_probability", "stderr"], rows, summary)


def code_size_table(m_values) -> RunResult:
    """Exact and usable logical-qubit counts vs the t=1 Hamming-bound limit."""
    rows = []
    for m in m_values:
        lq = dfs.logical_qubit_count(m)
        rows.append((int(m), lq.exact, lq.floor, dfs.hamming_bound_logical(m, 1)))
    config = {"scenario": "code_size_table", "m_values": [int(m) for m in m_values]}
    return RunResult(config, ["m", "exact_l", "floor_l", "hamming_l"], rows,
                     {"rows": len(rows)})


def fig2_amplitudes() -> list:
    """Amplitude vectors of one three-qubit search iteration for marked item |111>.

    Returns six real 8-component vectors: (a) the start state |000>,
    (b) after the spreading Hadamard, (c) after the marked-state phase
    flip, (d) after the second Hadamard, (e) after the completed step
    (global sign included), (f) after the closing Hadamard.
    """
    m, x0 = 3, 7
    h = gates.hadamard(m)
    i_x0 = gates.phase_inversion(m, x0)
    i_s = gates.phase_inversion(m, 0)
    minus = DenseOperator(-np.eye(2**m), frozenset({"unitary"}))
    states = [basis_state(m, 0)]
    for op in (h, i_x0, h, i_s, h):
        states.append(apply(op, states[-1]))
    # stages (e) and (f) carry the step's global minus sign
    states[4] = apply(minus, states[4])
    states[5] = apply(minus, states[5])
    vectors = []
    for st in states:
        amps = st.amplitudes
        if np.max(np.abs(amps.imag)) > 1e-14:
            raise AssertionError("search stages should have real amplitudes")
        vectors.append(amps.real.copy())
    return vectors


# ---------------------------------------------------------------------------
# scenario builders


def scenario_fig2() -> RunResult:
    vectors = fig2_amplitudes()
    columns = ["index", "a", "b", "c", "d", "e", "f"]
    rows = [(i, *(vec[i] for vec in vectors)) for i in range(8)]
    final = vectors[-1]
    config = {"scenario": "fig2", "m": 3, "x0": 7}
    summary = {
        "marked_amplitude": float(final[7]),
        "marked_probability": float(final[7] ** 2),
        "note": "the marked-state amplitude (0.884) is sometimes quoted as a success "
                "probability; the probability is its square, 25/32 = 0.78125",
    }
    return RunResult(config, columns, rows, summary)


def scenario_fig4(m: int = 3, x0: int | None = None, detunings=None,
                  t_max: float | None = None, grid_points: int = DEFAULT_GRID_POINTS) -> RunResult:
    if x0 is None:
        x0 = 2**m - 1
    if detunings is None:
        detunings = (0.5, 0.3, 0.2) if m == 3 else (0.0,) * m
    profile = DetuningProfile(tuple(detunings))
    inst = GroverInstance(m, x0)
    if t_max is None:
        t_max = 4.0 * inst.n_optimal * inst.tau
    ts = time_grid(t_max, grid_points)
    ideal = evolve_with_errors(inst, DetuningProfile.zeros(m), ts)[:, 1]
    detuned = evolve_with_errors(inst, profile, ts)[:, 1]
    config = {"scenario": "fig4", "m": m, "x0": x0, "detunings": list(profile.omegas),
              "detuning_scale": profile.scale, "t_max": t_max, "grid_points": grid_points}
    rows = list(zip(ts.tolist(), ideal.tolist(), detuned.tolist()))
    summary = {
        "ideal": _series_summary(ts, ideal),
        "detuned": _series_summary(ts, detuned),
    }
    return RunResult(config, ["t", "p_ideal", "p_detuned"], rows, summary)


def scenario_fig5(m_max: int = 20) -> RunResult:
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    result = code_size_table(range(2, m_max + 1, 2))
    result.config = {"scenario": "fig5", "m_max": m_max}
    return result


def scenario_fig6(m: int = 8, x0: int | None = None, detunings=None,
                  t_max: float | None = None, grid_points: int = DEFAULT_GRID_POINTS) -> RunResult:
    if detunings is None:
        detunings = BENCHMARK_DETUNINGS_8Q if m == 8 else (0.0,) * m
    profile = DetuningProfile(tuple(detunings))
    code = dfs.balanced_code(m)
    l = code.logical_qubits
    x0_logical = (2**l - 1) if x0 is None else x0
    ts = search_window(l, t_max, grid_points)
    ideal = evolve_with_errors(GroverInstance(l, x0_logical), DetuningProfile.zeros(l), ts)[:, 1]
    detuned = evolve_with_errors(GroverInstance(m, 2**m - 1), profile, ts)[:, 1]
    encoded = _encoded_series(m, profile, x0_logical, ts)
    config = {"scenario": "fig6", "m_physical": m, "m_logical": l,
              "x0_logical": x0_logical, "x0_unencoded": 2**m - 1,
              "detunings": list(profile.omegas), "detuning_scale": profile.scale,
              "t_max": float(ts[-1]), "grid_points": grid_points}
    rows = list(zip(ts.tolist(), ideal.tolist(), detuned.tolist(), encoded.tolist()))
    summary = {
        "ideal_logical": _series_summary(ts, ideal),
        "detuned_unencoded": _series_summary(ts, detuned),
        "encoded": _series_summary(ts, encoded),
        "ideal_peak_time": ideal_peak_time(l),
    }
    return RunResult(config, ["t", "p_ideal_logical", "p_detuned_unencoded", "p_encoded"],
                     rows, summary)


def scenario_fig7(m: int = 8, trials: int = DEFAULT_TRIALS,
                  omega_mean: float = DEFAULT_OMEGA_MEAN, sigma_grid=None,
                  seed: int = DEFAULT_SEED, grid_points: int = DEFAULT_GRID_POINTS) -> RunResult:
    if sigma_grid is None:
        sigma_grid = parse_sigma_grid(DEFAULT_SIGMA_GRID)
    encoded = monte_carlo_sweep(m, trials, omega_mean, sigma_grid, seed,
                                with_encoding=True, grid_points=grid_points)
    unencoded = monte_carlo_sweep(m, trials, omega_mean, sigma_grid, seed,
                                  with_encoding=False, grid_points=grid_points)
    rows = [
        (s, enc[1], enc[2], une[1], une[2])
        for s, enc, une in zip(sigma_grid, encoded.rows, unencoded.rows)
    ]
    config = {"scenario": "fig7", "m_physical": m, "trials": trials,
              "omega_mean": omega_mean, "sigma_grid": [float(s) for s in sigma_grid],
              "seed": seed, "grid_points": grid_points,
              "x0_logical": encoded.config["x0"], "x0_unencoded": unencoded.config["x0"],
              "t_max": encoded.config["t_max"]}
    summary = {
        "seed": seed,
        "encoded_per_trial_max": encoded.summary["per_trial_max"],
        "unencoded_per_trial_max": unencoded.summary["per_trial_max"],
        "sigmas": [float(s) for s in sigma_grid],
    }
    columns = ["sigma", "encoded_mean_max_p", "encoded_stderr",
               "unencoded_mean_max_p", "unencoded_stderr"]
    return RunResult(config, columns, rows, summary)


# ---------------------------------------------------------------------------
# CLI


def parse_sigma_grid(spec: str) -> list:
    """Parse 'a:b:step' into the inclusive grid [a, a+step, ..., <= b]."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"sigma grid must look like a:b:step, got {spec!r}")
    a, b, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"sigma grid bounds and step must be finite, got {spec!r}")
    if step <= 0 or b < a:
        raise ValueError(f"invalid sigma grid bounds {spec!r}")
    count = int(math.floor((b - a) / step + 0.5)) + 1
    return [a + k * step for k in range(count)]


def parse_detunings(spec: str) -> tuple:
    try:
        return tuple(float(p) for p in spec.split(","))
    except ValueError as exc:
        raise ValueError(f"detunings must be a comma-separated list of numbers: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverdfs",
        description="Search-algorithm simulations with coherent detuning errors "
                    "and balanced-code stabilization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named scenario and write its results")
    run.add_argument("scenario", choices=tuple(_SCENARIO_FLAGS))
    run.add_argument("--m", type=int, default=None, help="qubit count (physical for fig6/fig7)")
    run.add_argument("--x0", type=int, default=None, help="marked item (logical for fig6)")
    run.add_argument("--detunings", type=str, default=None,
                     help="comma-separated per-qubit detunings in units of <s|v>/tau")
    run.add_argument("--trials", type=int, default=None, help="Monte Carlo sample count")
    run.add_argument("--sigma-grid", type=str, default=None,
                     help="relative detuning spreads as a:b:step (units of the mean)")
    run.add_argument("--omega-mean", type=float, default=None,
                     help="mean detuning in units of <s|v>/tau")
    run.add_argument("--seed", type=int, default=None, help="RNG seed (recorded in output)")
    run.add_argument("--t-max", type=float, default=None, help="time window end in units of tau")
    run.add_argument("--grid-points", type=int, default=None, help="number of time samples")
    run.add_argument("--m-max", type=int, default=None, help="largest qubit count (fig5)")
    run.add_argument("--out", type=str, required=True, help="output path")
    run.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


# The flags each scenario reads, besides --out and --format.
_SCENARIO_FLAGS = {
    "fig2": (),
    "fig4": ("m", "x0", "detunings", "t_max", "grid_points"),
    "fig5": ("m_max",),
    "fig6": ("m", "x0", "detunings", "t_max", "grid_points"),
    "fig7": ("m", "trials", "sigma_grid", "omega_mean", "seed", "grid_points"),
}


def _dispatch(args: argparse.Namespace) -> RunResult:
    unused = [name for name, value in vars(args).items()
              if value is not None and name not in ("command", "scenario", "out", "format")
              and name not in _SCENARIO_FLAGS[args.scenario]]
    if unused:
        flags = ", ".join("--" + name.replace("_", "-") for name in unused)
        raise ValueError(f"{args.scenario} does not use {flags}")
    pick = lambda value, default: default if value is None else value
    if args.scenario == "fig2":
        return scenario_fig2()
    if args.scenario == "fig4":
        m = pick(args.m, 3)
        detunings = parse_detunings(args.detunings) if args.detunings else None
        return scenario_fig4(m, args.x0, detunings, args.t_max,
                             pick(args.grid_points, DEFAULT_GRID_POINTS))
    if args.scenario == "fig5":
        return scenario_fig5(pick(args.m_max, 20))
    if args.scenario == "fig6":
        m = pick(args.m, 8)
        detunings = parse_detunings(args.detunings) if args.detunings else None
        return scenario_fig6(m, args.x0, detunings, args.t_max,
                             pick(args.grid_points, DEFAULT_GRID_POINTS))
    if args.scenario == "fig7":
        sigma_grid = parse_sigma_grid(pick(args.sigma_grid, DEFAULT_SIGMA_GRID))
        return scenario_fig7(pick(args.m, 8), pick(args.trials, DEFAULT_TRIALS),
                             pick(args.omega_mean, DEFAULT_OMEGA_MEAN), sigma_grid,
                             pick(args.seed, DEFAULT_SEED),
                             pick(args.grid_points, DEFAULT_GRID_POINTS))
    raise ValueError(f"unknown scenario {args.scenario!r}")


def cli_run(argv=None) -> int:
    """Entry point: returns 0 on success, 2 on config errors, 3 on I/O errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        result = _dispatch(args)
    except ValueError as exc:
        print(f"groverdfs: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        out = Path(args.out)
        if args.format == "json":
            result.write_json(out)
        else:
            result.write_csv(out)
            result.write_summary_json(out.with_suffix(".summary.json"))
    except OSError as exc:
        print(f"groverdfs: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(cli_run())
