"""The three workloads, each a unit of work against groverdfs's public API,
the generated inputs it gets, and the correctness check of its output.

Why these three:

* gate_closed_form runs the dense gate-level step (grover, gates,
  statevec.DenseOperator) and never a detuned eigensolve or dfs code; it
  is the workload a Walsh-Hadamard gate path would speed up.
* fig7_monte_carlo runs the per-trial detuned eigensolve
  (hamiltonian.coupled_success_series) in the trials x sigma loop of
  experiments.monte_carlo_sweep and never the dense gate step; it is the
  workload a batched or arrowhead eigensolver would speed up.
* cli_cold runs the CLI one scenario at a time with empty caches, as a
  fresh process would: cache fills, argparse and dispatch, output
  writing and single eigensolves, which the loops of the other two hide.

Inputs come only from the workload seed; the program gets the generated
marked items and Monte Carlo seeds, nothing else.
"""
from __future__ import annotations

import inspect
import math
import shutil
from pathlib import Path

import numpy as np

import groverdfs
from groverdfs import dfs, experiments, gates, grover, hamiltonian, statevec

M = 8
POOL = 4096          # generated inputs; unit k uses entry k mod POOL
TOLERANCE = 1e-10    # agreement required with the closed form / dense reference
# The lru-cached constructors, taken before tracing replaces the module attributes.
CACHED = (gates.hadamard, dfs.balanced_code)


class GateClosedForm:
    """One unit: a seeded m=8 search, its 4 n_opt gate series and its Trotter error."""

    name = "gate_closed_form"
    item = "searches"
    items_per_unit = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.x0s = [int(x) for x in rng.integers(0, 2**M, size=POOL)]

    def inputs(self, k: int) -> int:
        return self.x0s[k % POOL]

    def unit(self, x0: int):
        inst = grover.GroverInstance(M, x0)
        n = inst.n_optimal
        return n, grover.success_probabilities(inst, 4 * n), hamiltonian.trotter_error(inst, n)

    def check(self, x0: int, output) -> bool:
        n, series, trotter = output
        eps = 2.0 ** (-M / 2)
        theta = math.asin(eps)
        closed = np.sin((2 * np.arange(4 * n + 1) + 1) * theta) ** 2
        trotter_closed = 2 * abs(math.sin(n * (theta - eps * math.sqrt(1 - eps * eps))))
        return (series.shape == closed.shape
                and float(np.max(np.abs(series - closed))) <= TOLERANCE
                and abs(trotter - trotter_closed) <= TOLERANCE)


class Fig7MonteCarlo:
    """One unit: scenario_fig7 at m=8 with TRIALS trials over sigma = 0:1:0.1."""

    name = "fig7_monte_carlo"
    item = "series"
    TRIALS = 2
    CHECKED = 1      # (sigma, trial) pairs per unit replayed through the dense path

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.sigmas = experiments.parse_sigma_grid("0:1:0.1")
        self.items_per_unit = 2 * len(self.sigmas) * self.TRIALS   # encoded and unencoded
        self.mc_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=POOL)]
        self.checked = [
            [(int(rng.integers(len(self.sigmas))), int(rng.integers(self.TRIALS)))
             for _ in range(self.CHECKED)]
            for _ in range(POOL)
        ]

    def inputs(self, k: int):
        return self.mc_seeds[k % POOL], self.checked[k % POOL]

    def unit(self, args):
        mc_seed, _ = args
        return experiments.scenario_fig7(m=M, trials=self.TRIALS, sigma_grid=self.sigmas,
                                         seed=mc_seed)

    def check(self, args, result) -> bool:
        """Replay the seeded draws and recompute the checked trials' maxima densely."""
        mc_seed, pairs = args
        cfg = result.config
        ts = np.linspace(0.0, cfg["t_max"], cfg["grid_points"])
        rng = np.random.default_rng(mc_seed)
        wanted = set(pairs)
        ok = True
        for i, sigma in enumerate(cfg["sigma_grid"]):
            for k in range(cfg["trials"]):
                omegas = (cfg["omega_mean"]
                          + sigma * cfg["omega_mean"] * experiments.standard_normals(rng, M))
                if (i, k) not in wanted:
                    continue
                for encoded, key, x0 in ((True, "encoded_per_trial_max", cfg["x0_logical"]),
                                         (False, "unencoded_per_trial_max", cfg["x0_unencoded"])):
                    ref = dense_reference_max(omegas, encoded, x0, ts)
                    ok &= abs(result.summary[key][i][k] - ref) <= TOLERANCE
        return ok


def dense_reference_max(omegas, encoded: bool, x0: int, ts) -> float:
    """max_t |<v|exp(-i H t)|s>|^2 by statevec.evolve_grid on the explicit complex H.

    H = H_G + diag(detunings); for encoded trials H_G is the logical
    generator lifted through the balanced code's isometry V, and |s>,
    |v> are the lifted logical start and target states.
    """
    d = hamiltonian.detuning_diagonal(hamiltonian.DetuningProfile(tuple(omegas)), M)
    if encoded:
        code = dfs.balanced_code(M)
        inst = grover.GroverInstance(code.logical_qubits, x0)
        iso = code.isometry
        gen = iso @ hamiltonian.grover_hamiltonian(inst).operator.matrix @ iso.conj().T
        start = iso @ inst.start_state().amplitudes
        target = iso @ inst.target_state().amplitudes
    else:
        inst = grover.GroverInstance(M, x0)
        gen = hamiltonian.grover_hamiltonian(inst).operator.matrix
        start = inst.start_state().amplitudes
        target = inst.target_state().amplitudes
    op = statevec.DenseOperator(gen + np.diag(d), frozenset({"hermitian"}))
    states = statevec.evolve_grid(op, ts, statevec.StateVector(M, start))
    return float(np.max(np.abs(states @ target.conj()) ** 2))


class CliCold:
    """One unit: a round of in-process CLI calls, each starting with empty caches."""

    name = "cli_cold"
    item = "rounds"
    items_per_unit = 1
    SCENARIOS = ("fig2", "fig4", "fig5", "fig6")

    def __init__(self, seed: int, workdir: Path):
        # The scenarios run at their defaults, so the seed changes no input.
        self.workdir = workdir
        self.reference = None

    def inputs(self, k: int) -> Path:
        out = self.workdir / f"round{k}"
        out.mkdir(parents=True, exist_ok=True)
        return out

    def unit(self, out: Path):
        codes = []
        for scenario in self.SCENARIOS:
            for cached in CACHED:
                cached.cache_clear()
            codes.append(experiments.cli_run(["run", scenario, "--out", str(out / f"{scenario}.csv")]))
        return codes

    def check(self, out: Path, codes) -> bool:
        """Every call exits 0 and every CSV is byte-identical to the first round's."""
        csvs = [(out / f"{s}.csv").read_bytes() for s in self.SCENARIOS]
        shutil.rmtree(out)
        if self.reference is None:
            self.reference = csvs
        return codes == [0] * len(self.SCENARIOS) and csvs == self.reference


WORKLOADS = {w.name: w for w in (GateClosedForm, Fig7MonteCarlo, CliCold)}

# ---------------------------------------------------------------------------
# tracing

MODULES = (statevec, gates, grover, hamiltonian, dfs, experiments)
FUNCTIONS = (
    (statevec, "hermitian_evolve"),
    (gates, "oracle"), (gates, "phase_inversion_via_oracle"),
    (grover, "grover_step"), (grover, "success_probabilities"),
    (hamiltonian, "trotter_error"), (hamiltonian, "coupled_success_series"),
    (hamiltonian, "detuning_diagonal"), (hamiltonian, "evolve_with_errors"),
    (experiments, "cli_run"),
)


def install_tracing(tracer) -> None:
    """Record spans at the layer boundaries the per-layer metrics need."""
    holders = (groverdfs, *MODULES)
    for owner, attr in FUNCTIONS:
        tracer.install_function(holders, owner, attr)
    for owner, attr in ((gates, "hadamard"), (dfs, "balanced_code")):
        tracer.install_function(holders, owner, attr, cached=True)

    def count_bytes(_, op):
        tracer.counts["statevec.DenseOperator.bytes"] += 16 * op.dim ** 2

    op_cls = statevec.DenseOperator
    tracer.patch(op_cls, "__post_init__",
                 tracer.wrap("statevec.DenseOperator", op_cls.__post_init__, after=count_bytes))
    bind = inspect.signature(experiments.monte_carlo_sweep).bind

    def sweep_name(*args, **kwargs):
        encoded = bind(*args, **kwargs).arguments["with_encoding"]
        return "experiments.monte_carlo_sweep." + ("encoded" if encoded else "unencoded")

    tracer.install_function(holders, experiments, "monte_carlo_sweep", sweep_name)
    for method in ("write_csv", "write_summary_json", "write_json"):
        tracer.patch(experiments.RunResult, method,
                     tracer.wrap("experiments.RunResult.write",
                                 getattr(experiments.RunResult, method)))
