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
from .hamiltonian import (DEFAULT_GRID_POINTS, DetuningProfile, _refuse_beyond_memory,
                          coupled_success_series, evolve_with_errors,
                          require_finite_detunings, sign_columns, signed_detunings,
                          time_grid)

# Detunings of the 8-qubit benchmark, in units of <s|v>/tau = 2^-4.
BENCHMARK_DETUNINGS_8Q = (0.92065, 1.1436, 0.71449, 1.39566, 1.29707, 0.70149, 1.19195, 1.00343)

DEFAULT_TRIALS = 200
DEFAULT_OMEGA_MEAN = 0.5          # units of <s|v>/tau
DEFAULT_SIGMA_GRID = "0:1:0.1"    # relative spread, units of the mean
DEFAULT_SEED = 42
# fig5 takes an exact binomial for every even m, so its cost grows as m_max^3:
# 0.07 s at 2000, 0.5 s at 4000 and 6 s at 10000 on a 2-vCPU x86 box.
FIG5_M_MAX = 4000


@dataclass
class RunResult:
    """Config echo, tabular series, and summary statistics of one scenario run.

    `data` maps each column name, in column order, to a read-only 1-D array.
    The CSV writes integer columns with %d and float columns with %.17g.
    """

    config: dict
    data: dict
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = {name: np.asarray(col).view() for name, col in self.data.items()}
        for col in self.data.values():
            col.flags.writeable = False

    @property
    def columns(self) -> list:
        return list(self.data)

    @property
    def rows(self) -> list:
        """The table as tuples of Python scalars, one per row."""
        return list(zip(*(col.tolist() for col in self.data.values())))

    def column(self, name: str) -> np.ndarray:
        return self.data[name]

    def write_csv(self, path) -> None:
        row = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in self.data.values())
        lines = [",".join(self.data), *(row % cells for cells in self.rows)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def to_json_dict(self) -> dict:
        return _jsonable({"config": self.config, "columns": self.columns,
                          "rows": self.rows, "summary": self.summary})

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    def write_summary_json(self, path) -> None:
        payload = _jsonable({"config": self.config, "summary": self.summary})
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, np.generic):
        return x.item()
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


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal variates via the Box-Muller transform of uniform draws.

    Using an explicit transform of rng.random() keeps the draw sequence a
    deterministic function of the seed, independent of any library-internal
    normal sampler.  `shape` is n, or (rows, n) for rows of n: each row
    transforms n uniform draws for u1 and then n for u2, all from one
    rng.random call, so a (rows, n) array holds the doubles of `rows`
    successive calls with n.
    """
    *rows, n = np.atleast_1d(shape)
    u = rng.random((*rows, 2, n))
    u1 = 1.0 - u[..., 0, :]   # in (0, 1], keeps the log finite
    u2 = u[..., 1, :]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _search_problem(m_phys: int, x0: int, with_encoding: bool) -> tuple:
    """(coupling, support, anchor) of the search on m_phys physical qubits.
    Unencoded, the generator couples |v> = H|x0> on all 2^m basis states to
    |0...0> (anchor 0) with strength 2 eps, eps = 2^(-m/2).  Encoded, the
    logical one (eps = 2^(-l/2)) is lifted through the code isometry V onto
    the code words, basis states whose first is V|0...0>.  The series takes
    v = eps on the support (see evolve_with_errors); x0 is only range-checked."""
    if with_encoding:
        code = dfs.balanced_code(m_phys)
        n, support = code.logical_qubits, np.array(code.code_indices)
    else:
        n, support = m_phys, np.arange(2**m_phys)
    return 2.0 * GroverInstance(n, x0).epsilon, support, 0


def encoded_grover_evolution(m_phys: int, profile: DetuningProfile,
                             x0_logical: int | None = None,
                             t_grid=None) -> RunResult:
    """Encoded search on m_phys qubits with per-qubit detunings."""
    l = dfs.balanced_code(m_phys).logical_qubits
    if x0_logical is None:
        x0_logical = 2**l - 1
    ts = np.asarray(t_grid, dtype=float) if t_grid is not None else search_window(l)
    coupling, support, anchor = _search_problem(m_phys, x0_logical, True)
    d = signed_detunings(profile.absolute(), sign_columns(m_phys, support))
    p = coupled_success_series(coupling, coupling / 2.0, anchor, d, ts, qubits=m_phys)
    config = {
        "scenario": "encoded_evolution", "m_physical": m_phys, "m_logical": l,
        "x0_logical": x0_logical, "detunings": list(profile.omegas),
        "detuning_scale": profile.scale, "grid_points": len(ts), "t_max": float(ts[-1]),
    }
    return RunResult(config, {"t": ts, "probability": p}, _series_summary(ts, p))


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
    return RunResult(config, {"t": ts, "probability": p}, _series_summary(ts, p))


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
    maximum of P(t) over the search window is averaged across trials.  The
    window is [0, 2 * ideal peak time] of the logical system, extended
    unencoded to the m-qubit search's own ideal peak time, which lies beyond
    it for m >= 10.  The summary keeps every trial's maximum as one
    (spreads x trials) array.

    Each spread draws its (trials x m) standard normals at once, the same
    doubles as drawing them trial by trial, refuses a non-finite detuning
    anywhere in that row with DetuningProfile's check, and sums each trial's
    detunings over the support with `signed_detunings`.  At sigma = 0
    every trial's profile is (omega_mean, ..., omega_mean), so one series
    serves the row; its normals are still drawn, and the generator advances
    as for any other spread.
    """
    if trials < 1:
        raise ValueError(f"the trial count (--trials) must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"the seed (--seed) must be >= 0, got {seed}")
    if not math.isfinite(omega_mean):
        raise ValueError(f"detunings must be finite numbers, got a mean (--omega-mean) "
                         f"of {omega_mean}")
    sigma_grid = [float(s) for s in sigma_grid]
    if bad := [s for s in sigma_grid if not (math.isfinite(s) and s >= 0)]:
        raise ValueError(f"the spreads (--sigma-grid) must be finite and >= 0, got {bad[0]}")
    # the per-trial maxima, and while a spread's row is drawn up to seven
    # doubles a normal: the last row, two uniforms and four Box-Muller arrays
    _refuse_beyond_memory(8 * trials * (len(sigma_grid) + 7 * m_phys),
                          "{0} trials (--trials) at {1} spreads", trials, len(sigma_grid),
                          m_phys, detail=" for their maxima and draws on {2} qubits")
    l = dfs.balanced_code(m_phys).logical_qubits
    t_max = 2.0 * ideal_peak_time(l)
    if not with_encoding:
        t_max = max(t_max, ideal_peak_time(m_phys))
    ts = time_grid(t_max, grid_points)
    if x0 is None:
        x0 = (2**l - 1) if with_encoding else (2**m_phys - 1)
    coupling, support, anchor = _search_problem(m_phys, x0, with_encoding)
    signs, v = sign_columns(m_phys, support), coupling / 2.0
    rng = np.random.default_rng(seed)
    scale = 2.0 ** (-m_phys / 2.0)
    per_trial = np.empty((len(sigma_grid), trials))
    for sigma, maxima in zip(sigma_grid, per_trial):
        rows = omega_mean + sigma * omega_mean * standard_normals(rng, (trials, m_phys))
        require_finite_detunings(rows)
        # at sigma = 0 every row is (omega_mean, ..., omega_mean) exactly
        for k, omegas in enumerate(rows[:1] if sigma == 0 else rows):
            d = signed_detunings(omegas * scale, signs)
            maxima[k] = coupled_success_series(coupling, v, anchor, d, ts, qubits=m_phys).max()
        if sigma == 0:
            maxima[1:] = maxima[0]
    # centred on each spread's first trial, so identical maxima give their
    # own value and a spread of exactly zero
    dev = per_trial - per_trial[:, :1]
    means = per_trial[:, 0] + dev.mean(axis=1)
    stderrs = (dev.std(axis=1, ddof=1) / math.sqrt(trials) if trials > 1
               else np.zeros(len(sigma_grid)))
    config = {
        "scenario": "monte_carlo_sweep", "m_physical": m_phys, "with_encoding": with_encoding,
        "x0": x0, "trials": trials, "omega_mean": omega_mean, "sigma_grid": sigma_grid,
        "seed": seed, "grid_points": grid_points, "t_max": float(ts[-1]),
    }
    summary = {"seed": seed, "per_trial_max": per_trial, "sigmas": sigma_grid}
    data = {"sigma": np.array(sigma_grid), "mean_max_probability": means, "stderr": stderrs}
    return RunResult(config, data, summary)


def code_size_table(m_values) -> RunResult:
    """Exact and usable logical-qubit counts vs the t=1 Hamming-bound limit."""
    ms = [int(m) for m in m_values]
    counts = [dfs.logical_qubit_count(m) for m in ms]
    data = {"m": np.array(ms), "exact_l": np.array([lq.exact for lq in counts]),
            "floor_l": np.array([lq.floor for lq in counts]),
            "hamming_l": np.array([dfs.hamming_bound_logical(m, 1) for m in ms])}
    return RunResult({"scenario": "code_size_table", "m_values": ms}, data, {"rows": len(ms)})


def fig2_amplitudes() -> list:
    """Amplitude vectors of one three-qubit search iteration for marked item |111>.

    Returns six real 8-component vectors: (a) the start state |000>,
    (b) after the spreading Hadamard, (c) after the marked-state phase
    flip, (d) after the second Hadamard, (e) after the completed step
    (global sign included), (f) after the closing Hadamard.
    """
    h = gates.hadamard(3).matrix
    start = np.zeros(8, dtype=np.complex128)
    start[0] = 1.0
    spread = h @ start
    marked = spread.copy()
    marked[7] = -marked[7]            # phase flip of the marked item |111>
    mixed = h @ marked
    inverted = mixed.copy()
    inverted[0] = -inverted[0]        # phase flip of the start state |000>
    # stages (e) and (f) carry the step's global minus sign
    states = [start, spread, marked, mixed, -inverted, -(h @ inverted)]
    if max(np.max(np.abs(amps.imag)) for amps in states) > 1e-14:
        raise AssertionError("search stages should have real amplitudes")
    return [amps.real.copy() for amps in states]


# ---------------------------------------------------------------------------
# scenario builders


def scenario_fig2() -> RunResult:
    vectors = fig2_amplitudes()
    data = {"index": np.arange(8), **dict(zip("abcdef", vectors))}
    final = vectors[-1]
    config = {"scenario": "fig2", "m": 3, "x0": 7}
    summary = {
        "marked_amplitude": float(final[7]),
        "marked_probability": float(final[7] ** 2),
        "note": "the marked-state amplitude (0.884) is sometimes quoted as a success "
                "probability; the probability is its square, 25/32 = 0.78125",
    }
    return RunResult(config, data, summary)


def scenario_fig4(m: int = 3, x0: int | None = None, detunings=None,
                  t_max: float | None = None, grid_points: int = DEFAULT_GRID_POINTS) -> RunResult:
    if m < 1:
        raise ValueError(f"the qubit count (--m) must be >= 1, got {m}")
    if x0 is None:
        x0 = 2**m - 1
    _require_marked_item(x0, m, "marked item")
    if detunings is None:
        detunings = (0.5, 0.3, 0.2) if m == 3 else (0.0,) * m
    profile = DetuningProfile(tuple(detunings))
    inst = GroverInstance(m, x0)
    if t_max is None:
        t_max = 4.0 * inst.n_optimal * inst.tau
    ts = time_grid(t_max, grid_points)
    _require_phase_precision(ts, 2.0 * inst.epsilon, profile)
    ideal = evolve_with_errors(inst, DetuningProfile.zeros(m), ts)[:, 1]
    detuned = evolve_with_errors(inst, profile, ts)[:, 1]
    config = {"scenario": "fig4", "m": m, "x0": x0, "detunings": list(profile.omegas),
              "detuning_scale": profile.scale, "t_max": t_max, "grid_points": grid_points}
    summary = {
        "ideal": _series_summary(ts, ideal),
        "detuned": _series_summary(ts, detuned),
    }
    return RunResult(config, {"t": ts, "p_ideal": ideal, "p_detuned": detuned}, summary)


def scenario_fig5(m_max: int = 20) -> RunResult:
    if not 2 <= m_max <= FIG5_M_MAX:
        raise ValueError(f"the largest qubit count (--m-max) must lie in 2..{FIG5_M_MAX}, "
                         f"got {m_max}")
    result = code_size_table(range(2, m_max + 1, 2))
    result.config = {"scenario": "fig5", "m_max": m_max}
    return result


def scenario_fig6(m: int = 8, x0: int | None = None, detunings=None,
                  t_max: float | None = None, grid_points: int = DEFAULT_GRID_POINTS) -> RunResult:
    _require_even_qubits(m)
    if detunings is None:
        detunings = BENCHMARK_DETUNINGS_8Q if m == 8 else (0.0,) * m
    profile = DetuningProfile(tuple(detunings))
    code = dfs.balanced_code(m)
    l = code.logical_qubits
    x0_logical = (2**l - 1) if x0 is None else x0
    _require_marked_item(x0_logical, l, "logical marked item")
    ts = search_window(l, t_max, grid_points)
    _require_phase_precision(ts, 2.0 * 2.0 ** (-l / 2.0), profile)
    ideal = evolve_with_errors(GroverInstance(l, x0_logical), DetuningProfile.zeros(l), ts)[:, 1]
    detuned = evolve_with_errors(GroverInstance(m, 2**m - 1), profile, ts)[:, 1]
    encoded = encoded_grover_evolution(m, profile, x0_logical, ts).column("probability")
    config = {"scenario": "fig6", "m_physical": m, "m_logical": l,
              "x0_logical": x0_logical, "x0_unencoded": 2**m - 1,
              "detunings": list(profile.omegas), "detuning_scale": profile.scale,
              "t_max": float(ts[-1]), "grid_points": grid_points}
    summary = {
        "ideal_logical": _series_summary(ts, ideal),
        "detuned_unencoded": _series_summary(ts, detuned),
        "encoded": _series_summary(ts, encoded),
        "ideal_peak_time": ideal_peak_time(l),
    }
    data = {"t": ts, "p_ideal_logical": ideal, "p_detuned_unencoded": detuned,
            "p_encoded": encoded}
    return RunResult(config, data, summary)


def _require_even_qubits(m: int) -> None:
    if m < 2 or m % 2:
        raise ValueError(f"balanced codes need an even physical qubit count (--m) >= 2, got {m}")


def _require_marked_item(x0: int, qubits: int, what: str) -> None:
    if not 0 <= x0 < 2**qubits:
        raise ValueError(f"the {what} (--x0) must lie in 0..{2**qubits - 1}, got {x0}")


# P(t) sums terms exp(-i lam t) over the generator's spectrum, where
# |lam| <= rho <= coupling + sum_i |omega_i| (Weyl's bound).  The double
# phase lam t carries a rounding error of about eps rho t (eps = 2.2e-16),
# and P moves by up to about twice the phase error.  Beyond eps rho t_max =
# 0.05 that reaches 0.1, the place of P's first significant digit (P <= 1),
# so the series keeps no digit.  fig4's tested windows, up to t = 1e4, stay
# near 2e-12, ten orders of magnitude below.
PHASE_ERROR_LIMIT = 0.05


def _require_phase_precision(ts: np.ndarray, coupling: float, profile: DetuningProfile) -> None:
    rho = coupling + float(np.abs(profile.absolute()).sum())
    eps = np.finfo(float).eps
    if eps * rho * ts[-1] > PHASE_ERROR_LIMIT:
        raise ValueError(
            f"the time window end t_max (--t-max) must be at most "
            f"{PHASE_ERROR_LIMIT / (eps * rho):.3g} for these detunings, got {ts[-1]:g}: "
            f"phases up to {rho:.3g} t would carry rounding errors of "
            f"{eps * rho * ts[-1]:.2g} and leave P(t) no significant digit")


def scenario_fig7(m: int = 8, trials: int = DEFAULT_TRIALS,
                  omega_mean: float = DEFAULT_OMEGA_MEAN, sigma_grid=None,
                  seed: int = DEFAULT_SEED, grid_points: int = DEFAULT_GRID_POINTS) -> RunResult:
    _require_even_qubits(m)
    if sigma_grid is None:
        sigma_grid = parse_sigma_grid(DEFAULT_SIGMA_GRID)
    encoded = monte_carlo_sweep(m, trials, omega_mean, sigma_grid, seed,
                                with_encoding=True, grid_points=grid_points)
    unencoded = monte_carlo_sweep(m, trials, omega_mean, sigma_grid, seed,
                                  with_encoding=False, grid_points=grid_points)
    config = {"scenario": "fig7", "m_physical": m, "trials": trials,
              "omega_mean": omega_mean, "sigma_grid": [float(s) for s in sigma_grid],
              "seed": seed, "grid_points": grid_points,
              "x0_logical": encoded.config["x0"], "x0_unencoded": unencoded.config["x0"],
              "t_max": encoded.config["t_max"], "t_max_unencoded": unencoded.config["t_max"]}
    summary = {"seed": seed, "encoded_per_trial_max": encoded.summary["per_trial_max"],
               "unencoded_per_trial_max": unencoded.summary["per_trial_max"],
               "sigmas": [float(s) for s in sigma_grid]}
    data = {"sigma": encoded.data["sigma"],
            "encoded_mean_max_p": encoded.data["mean_max_probability"],
            "encoded_stderr": encoded.data["stderr"],
            "unencoded_mean_max_p": unencoded.data["mean_max_probability"],
            "unencoded_stderr": unencoded.data["stderr"]}
    return RunResult(config, data, summary)


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
    # capped so that a step too small for any memory cannot overflow the count
    count = int(min((b - a) / step, 2.0**62) + 0.5) + 1
    # a list of 8-byte pointers to 24-byte floats
    _refuse_beyond_memory(32 * count, "a sigma grid of {0} spreads (--sigma-grid {1})", count, spec)
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
    run.add_argument("--x0", type=int, default=None,
                     help="marked item (logical for fig6); the detuned series do not depend on "
                          "it, so the CSVs are byte-identical across --x0 and only the config "
                          "echo changes")
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
    if args.scenario in ("fig4", "fig6"):
        run, m = (scenario_fig4, 3) if args.scenario == "fig4" else (scenario_fig6, 8)
        detunings = parse_detunings(args.detunings) if args.detunings else None
        return run(pick(args.m, m), args.x0, detunings, args.t_max,
                   pick(args.grid_points, DEFAULT_GRID_POINTS))
    if args.scenario == "fig5":
        return scenario_fig5(pick(args.m_max, 20))
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
