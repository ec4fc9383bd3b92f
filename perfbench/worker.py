"""One workload process: set up, report READY, run timed units, check them.

Started by run.py, which times the launch until READY as set-up time.
With --setup-only the process stops after READY. Otherwise it prints one
JSON line with its measurements as the last line of its output.

With --trace 1 the first half of the time runs untraced and the second
half traced; the spans go to perfbench/out/trace-<workload>-seed<seed>.json.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path

import measure
from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SELF_TIMED = (
    "statevec.DenseOperator", "statevec.hermitian_evolve",
    "grover.grover_step", "grover.success_probabilities",
    "gates.phase_inversion_via_oracle", "gates.oracle", "gates.hadamard",
    "hamiltonian.trotter_error", "hamiltonian.coupled_success_series",
    "hamiltonian.detuning_diagonal", "hamiltonian.evolve_with_errors",
    "dfs.balanced_code", "experiments.monte_carlo_sweep", "experiments.cli_run",
)
COUNTED = ("statevec.DenseOperator", "grover.grover_step", "hamiltonian.coupled_success_series")
LAYERS = ("statevec", "gates", "grover", "hamiltonian", "dfs", "experiments")
# The reference kernel's median time on a 2-vCPU x86-64 VM (2.1 GHz, OpenBLAS
# 0.3.31 on one thread). Normalized times are what units would take there.
REFERENCE_NOMINAL_S = 0.014


def import_program():
    """Import groverdfs from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "groverdfs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no groverdfs sources under {src}")
    sys.path.insert(0, str(src))
    import groverdfs
    if not Path(groverdfs.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: groverdfs imported from {groverdfs.__file__}, not {src}")


def blas_metadata() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": openblas_threads(), "numpy": np.__version__}


def openblas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return int(getattr(lib, symbol)())
    return None


def reference_kernel():
    """Fixed work unrelated to groverdfs that tracks the host's speed: LAPACK
    eigh, complex BLAS product, complex exp and interpreted Python, about
    equal parts, like the mix of the three workloads."""
    import numpy as np
    x = np.linspace(-1.0, 1.0, 160)
    sym = np.cos(np.outer(x, 7.0 * x)) + np.diag(x)
    z = np.exp(3j * np.outer(x[:128], x[:128]))
    phase = np.outer(np.linspace(0.0, 50.0, 100), x[:128])

    def run():
        # Small arrays, so that the kernel never sets the process's peak memory.
        np.linalg.eigh(sym)
        for _ in range(8):
            z @ z
            np.exp(1j * phase)
        sum(i * i for i in range(40000))
    return run


def normalized(unit) -> float:
    return measure.normalized(unit, REFERENCE_NOMINAL_S)


def throughput(wl, units, duration=lambda u: u.seconds) -> float:
    """Work items of the units that returned, per second of summed unit time."""
    done = sum(1 for u in units if u.error is None)
    return wl.items_per_unit * done / sum(duration(u) for u in units)


def end_to_end(wl, units) -> tuple[dict, dict]:
    """The end-to-end metrics of BENCHMARK.json, and the ones only printed."""
    lat_ms = [1e3 * u.seconds for u in units]
    metrics = {
        "throughput_norm_per_s": (throughput(wl, units, normalized), "1/s"),
        "latency_p50_norm_ms": (measure.median([1e3 * normalized(u) for u in units]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p90 = measure.percentile(lat_ms, 90)
    printed = {"raw": {
        "throughput_per_s": (throughput(wl, units), "1/s"),
        "latency_p50_ms": (measure.median(lat_ms), "ms"),
        "reference_ms": (1e3 * measure.median([u.reference for u in units]), "ms"),
    }, "latency_p90_ms": None if p90 is None else (p90, "ms")}
    return metrics, printed


def layer_metrics(spans, counts, n_units, overhead) -> tuple:
    """Per-unit layer metrics from the spans, and each layer's share of unit time."""
    own = self_times(spans)
    calls, self_s, total = Counter(), Counter(), Counter()
    series_ms = []
    for (name, start, end, _, _), s in zip(spans, own):
        base = name.removesuffix(".encoded").removesuffix(".unencoded")
        calls[base] += 1
        self_s[base] += s
        total[name] += end - start
        if name == "hamiltonian.coupled_success_series":
            series_ms.append(1e3 * (end - start))
    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (calls[name] / n_units, "count/unit")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (self_s[name] / n_units, "s/unit")
    metrics["statevec.DenseOperator.bytes"] = (
        counts["statevec.DenseOperator.bytes"] / n_units, "B/unit")
    metrics["hamiltonian.coupled_success_series.p50_ms"] = (
        measure.median(series_ms) if series_ms else 0.0, "ms")
    for kind in ("encoded", "unencoded"):
        metrics[f"experiments.monte_carlo_sweep.{kind}_s"] = (
            total[f"experiments.monte_carlo_sweep.{kind}"] / n_units, "s/unit")
    for name in ("gates.hadamard", "dfs.balanced_code"):
        hits = counts[f"{name}.hits"]
        metrics[f"{name}.hit_ratio"] = (hits / calls[name] if calls[name] else 0.0, "ratio")
    metrics["experiments.RunResult.write_s"] = (
        total["experiments.RunResult.write"] / n_units, "s/unit")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    unit_s = total["unit"]
    shares = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / unit_s
              for layer in LAYERS}
    shares["benchmark"] = self_s["unit"] / unit_s
    return metrics, shares


def run_traced(wl, workloads, seconds, meta, reference) -> dict:
    plain = measure.run_units(wl, seconds / 2, reference=reference)
    tracer = Tracer()
    workloads.install_tracing(tracer)
    unit = tracer.wrap("unit", wl.unit)
    ids = itertools.count(len(plain))

    def unit_fn(args):
        tracer.unit = next(ids)
        return unit(args)

    tracer.active = True
    try:
        traced = measure.run_units(wl, seconds / 2, first=len(plain), unit_fn=unit_fn,
                                   reference=reference)
    finally:
        tracer.active = False
        tracer.uninstall()
    failed = measure.count_failures(plain + traced, wl.check)
    overhead = throughput(wl, traced, normalized) / throughput(wl, plain, normalized)
    metrics, shares = layer_metrics(tracer.spans, tracer.counts, len(traced), overhead)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{meta['seed']}.json"
    path.write_text(json.dumps({
        "meta": meta, "span_fields": ["name", "start", "end", "parent", "unit"],
        "spans": tracer.spans, "counts": dict(tracer.counts),
        "metrics": metrics, "self_time_share": shares,
    }) + "\n", encoding="utf-8")
    return {"attempted": len(plain) + len(traced), "failed": failed, "metrics": metrics,
            "printed": {"self_time_share": shares, "trace_file": str(path.relative_to(ROOT)),
                        "traced_units": len(traced)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import workloads
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.unit(wl.inputs(-1))   # warm-up, part of set-up
        print("READY", flush=True)
        if args.setup_only:
            return 0
        reference = reference_kernel()
        reference()
        meta = {"workload": wl.name, "work_item": wl.item, "seed": args.seed,
                "python": platform.python_version(), **blas_metadata()}
        if args.trace:
            result = run_traced(wl, workloads, args.seconds, meta, reference)
        else:
            units = measure.run_units(wl, args.seconds, reference=reference)
            metrics, printed = end_to_end(wl, units)
            failed = measure.count_failures(units, wl.check)
            result = {"attempted": len(units), "failed": failed, "metrics": metrics,
                      "printed": printed}
        result["meta"] = meta
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
