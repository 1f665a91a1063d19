"""Benchmark of the tradeoff CLI, end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload kansa --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--workload all`` runs every workload in turn and prints each metric by
name with its unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Every run starts fresh worker processes (worker.py) and no threads.  Set-up
is timed from spawn to ready in several workers and reported as the median;
the last of them runs the workload.  With ``--trace 1`` one more worker,
with BLAS at one thread, times ``kansa`` at ``--parallel`` 1 and 2.  The
full result, with the machine record and per-job times, is written to
``.bench_work/results``; traced spans go to ``.bench_work/traces``.
Correctness failures are counted, not fatal; a worker that crashes or
overruns the time limit ends the run with a nonzero exit code and no result.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
# a single workload run must end within 180 s
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def spawn(args, env, deadline):
    """Start a worker; returns the process and the seconds from spawn until
    it reported READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
    line = proc.stdout.readline() if ready else b""
    elapsed = time.perf_counter() - t0
    if line.strip() != b"READY":
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, elapsed


def finish(proc, deadline):
    try:
        proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker overran the time limit") from None
    if proc.returncode:
        raise WorkerError(f"worker exited with code {proc.returncode}")


def run_workload(name: str, seed: int, seconds: int, trace: int, nproc: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work", str(work)]
    # the program's threads never exceed the cores: BLAS gets nproc threads
    # and the jobs run with --parallel 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(nproc))
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, elapsed = spawn(base + ["--role", "probe"], env, deadline)
            finish(proc, deadline)
            setups.append(elapsed)
        proc, elapsed = spawn(base + ["--role", "main", "--result", str(work / "main.json")],
                              env, deadline)
        setups.append(elapsed)
        finish(proc, deadline)
        result = json.loads((work / "main.json").read_text())
        result["detail"]["setup_samples_s"] = setups
        if trace:
            proc, _ = spawn(base + ["--role", "parallel", "--result", str(work / "par.json")],
                            dict(env, OPENBLAS_NUM_THREADS="1"), deadline)
            finish(proc, deadline)
            par = json.loads((work / "par.json").read_text())
            result["values"]["cli.parallel2_speedup"] = par["parallel1_s"] / par["parallel2_s"]
            result["detail"]["parallel"] = par
        else:
            result["values"]["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tradeoff" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    nproc = len(os.sched_getaffinity(0))
    machine = {"nproc": nproc, "load_1min_at_start": os.getloadavg()[0],
               "OPENBLAS_NUM_THREADS": nproc}
    workloads = names if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, nproc)
        except WorkerError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        values = result["values"]
        if set(values) != set(units):
            print(f"bench: {name}: metrics {sorted(set(values) ^ set(units))} "
                  "do not match BENCHMARK.json", file=sys.stderr)
            return 1
        result["detail"]["machine"].update(machine)
        WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1))

        print(f"{name}: machine {json.dumps(result['detail']['machine'])}")
        for metric in units:
            print(f"{name}: {metric} {values[metric]!r} {units[metric]}")
        print(f"{name}: failed_frac {result['failed'] / result['attempted']!r} 1 "
              f"({result['failed']} of {result['attempted']} operations)")
        for problem in result["problems"]:
            print(f"{name}: INCORRECT {problem}")
        print(f"{name}: full result in {out.relative_to(ROOT)}")
        prefix = f"{name}." if args.workload == "all" else ""
        final["correct"] &= result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({prefix + m: {"value": values[m], "unit": units[m]}
                                 for m in units})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
