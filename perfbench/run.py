"""groverdfs benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload gate_closed_form --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository: the program is imported from its
src/ directory. Each run starts the workload in fresh interpreters
(perfbench/worker.py), one at a time, with BLAS_THREADS BLAS threads:

* SETUP_LAUNCHES - 1 launches that only set up, then the measured one.
  setup_s is the median, over all of them, of the time from launch until
  the workload is ready to start its first timed unit (interpreter start,
  import of groverdfs, input generation, one warm-up unit).
* The measured launch runs units for --seconds of summed unit time, then
  checks every unit's output. With --trace 0 it reports the end-to-end
  metrics, unit times rescaled to a nominal machine speed by a reference
  kernel timed alongside (see measure.py and perfbench/README.md); with
  --trace 1 it reports the per-layer metrics of a traced run.

Human-readable lines come first; the last line of output is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("gate_closed_form", "fig7_monte_carlo", "cli_cold")
BLAS_THREADS = 1       # the same for every run compared; never more than nproc
SETUP_LAUNCHES = 7
DEADLINE_S = 170       # the whole run, under the 180 s limit


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)
    return env


def launch(argv, env, deadline):
    """Start a worker; return (seconds until it printed READY, its remaining output)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(argv)} failed (exit code {code})")
    return ready, rest


def git_commit():
    """HEAD's commit id, read from the checkout's .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    env = worker_env(threads)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run_argv = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES - 1):
                setups.append(launch([*common, "--seconds", "0", "--setup-only"], env, deadline)[0])
        ready, output = launch(run_argv, env, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)
    result = json.loads(output.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}

    meta = {**result["meta"], "git_commit": git_commit(), "source_sha256": source_digest(),
            "nproc": nproc, "blas_threads_setting": threads, "seconds": args.seconds,
            "trace": args.trace}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta))
    printed = result["printed"]

    def show(values):
        for name, (value, unit) in values.items():
            note = f" ({meta['work_item']} per second)" if "throughput" in name else ""
            print(f"  {name:48s} {value:14.6g} {unit}{note}")

    show(metrics)
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_ratio':48s} {failed / attempted:14.6g} ({failed} of {attempted} units)")
    if not args.trace:
        print("  measured, not normalized:")
        show(printed["raw"])
        print(f"  {'setup samples (s)':48s} " + " ".join(f"{x:.4f}" for x in setups))
        p90 = printed["latency_p90_ms"]
        print(f"  {'latency_p90_ms':48s} " + (f"{p90[0]:14.6g} ms (n={attempted})" if p90 else
              f"{'-':>14s} (n={attempted}: fewer than 10 samples beyond p90)"))
    else:
        for layer, share in printed["self_time_share"].items():
            print(f"  {'self-time share ' + layer:48s} {share:14.3f}")
        print(f"  spans written to {printed['trace_file']} ({printed['traced_units']} traced units)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
