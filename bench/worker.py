"""Benchmark worker: one fresh interpreter per workload run, started by run.py.

Set-up imports ``tradeoff``, generates the seeded inputs and writes them as
``--config`` files, then prints READY.  A ``probe`` worker stops there
(run.py times set-up several times).  A ``main`` worker then runs the
workload's jobs one at a time in-process, a closed loop with one client:

* untraced: the jobs round-robin until ``--seconds`` is used (each job at
  least twice), reporting the sum over jobs of each job's median time;
* traced: one untraced pass, then one pass with every module wrapped in
  spans; the outputs of the two passes must be byte-identical.

A ``parallel`` worker times the kansa ``n_side`` 17 job at ``--parallel`` 1
and 2; run.py starts it with BLAS at one thread.

Outputs are checked after the timed passes.  The result is written as JSON
to ``--result``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import itertools
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 2
# start no job expected to end past this, so a slowed program ends in time
MAX_MEASURE_S = 100.0
PARALLEL_REPS = 3
PARALLEL_JOB_SIDE = 17


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "parallel"), default="main")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


# ---------------------------------------------------------------------------
# jobs

class Runner:
    """Runs jobs in-process, each job writing into its own output directory."""

    def __init__(self, cli, config_dir: Path):
        self.cli = cli
        self.config_dir = config_dir

    def config_path(self, job) -> Path:
        return self.config_dir / f"{job.name}.json"

    def run(self, job, out_root: Path, extra_args=(), tracer=None):
        """Run one job; returns (seconds, error text or None)."""
        out = out_root / job.name
        out.mkdir(parents=True, exist_ok=True)
        root_span = contextlib.nullcontext()
        if tracer is not None and job.command != "p_greedy":
            root_span = tracer.span(f"cli.{job.command}")
        error = None
        with open(out / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
            t0 = time.perf_counter()
            try:
                with root_span:
                    if job.command == "p_greedy":
                        self._p_greedy(self.config_path(job), out)
                    else:
                        self.cli.main(job.argv(self.config_path(job), out) + list(extra_args))
            except Exception as exc:  # a failing job counts its operations as failed
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return elapsed, error

    @staticmethod
    def _p_greedy(config_path: Path, out: Path):
        """The CLI has no candidate input, so this job calls the library the
        way ``cli.run_greedy`` does, on the generated candidates."""
        from tradeoff import functionals, greedy, kernels

        config = json.loads(config_path.read_text())
        kernel = kernels.MaternSobolevKernel(config["m"], config["d"], config["c"])
        cands = functionals.FunctionalSet(
            [functionals.PointEval(p) for p in config["candidates"]])
        trace = greedy.p_greedy(kernel, cands, max_steps=config["max_steps"])
        (out / "greedy_trace.csv").write_text(trace.to_csv())


def digest(out_root: Path) -> dict[str, str]:
    return {str(p.relative_to(out_root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_root.rglob("*")) if p.is_file()}


def bytes_in(out_root: Path) -> int:
    return sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# correctness

def check_outputs(jobs, out_root: Path, errors: dict, problems: list):
    """Count attempted and failed operations; a job that raised fails all of
    its operations."""
    import checks

    attempted = failed = 0
    per_job = {}
    for job in jobs:
        attempted += job.ops
        if job.name in errors:
            bad = job.ops
        else:
            try:
                bad = checks.count_failures(job, checks.read_outputs(out_root / job.name))
            except checks.CheckError as exc:
                problems.append(f"{job.name}: {exc}")
                bad = job.ops
        per_job[job.name] = bad
        failed += bad
    return attempted, failed, per_job


def negative_controls(jobs, out_root: Path, errors: dict, runner, seed: int,
                      problems: list) -> int:
    """Corrupt one operation of a real output per checker and require the
    checker to count it; ``identities --perturb`` must count as failed."""
    import checks
    import workloads

    ran = 0
    seen = set()
    for job in jobs:
        kind = checks.CHECKERS[job.command]
        if kind in seen or job.name in errors:
            continue
        seen.add(kind)
        files = checks.read_outputs(out_root / job.name)
        try:
            base = checks.count_failures(job, files)
        except checks.CheckError:
            continue
        for variant in checks.corrupt(job, files):
            ran += 1
            if checks.count_failures(job, variant) <= base:
                problems.append(f"negative control not detected for {job.command}")
    if any(job.command == "identities" for job in jobs):
        ran += 1
        control = workloads.Job("identities_perturbed", "identities", None,
                                args=("--seed", str(seed), "--perturb", "--suite", "kernel"),
                                ops=1)
        _, error = runner.run(control, out_root / "controls")
        try:
            counted = checks.identities_failures(
                control, checks.read_outputs(out_root / "controls" / control.name))
        except checks.CheckError:
            counted = 0
        if error or counted != 1:
            problems.append("identities --perturb was not counted as failed")
    return ran


# ---------------------------------------------------------------------------
# machine record

def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


# ---------------------------------------------------------------------------
# runs

def measure(jobs, runner, out_root: Path, seconds: float):
    """Run the jobs round-robin, each at least MIN_PASSES times, while the
    next job is expected to end within ``seconds``; per-job times, and
    whether every rerun of a job wrote the same bytes."""
    samples = {job.name: [] for job in jobs}
    first = {}
    errors = {}
    deterministic = True
    t0 = time.perf_counter()
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        elapsed, error = runner.run(job, out_root)
        samples[job.name].append(elapsed)
        if error:
            errors[job.name] = error
        d = digest(out_root / job.name)
        deterministic &= first.setdefault(job.name, d) == d
        upcoming = samples[jobs[(i + 1) % len(jobs)].name]
        if not upcoming:
            continue
        projected = time.perf_counter() - t0 + statistics.median(upcoming)
        if projected > MAX_MEASURE_S:
            break
        if i + 1 >= MIN_PASSES * len(jobs) and projected > seconds:
            break
    return samples, errors, deterministic


def run_main(args, jobs, runner, setup: dict) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_root = args.work / "out"
    problems: list[str] = []
    detail: dict = {"setup": setup}
    evals = sum(job.evals for job in jobs)
    if not args.trace:
        samples, errors, deterministic = measure(jobs, runner, out_root, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not deterministic:
            problems.append("outputs differ between passes")
        medians = {name: statistics.median(s) for name, s in samples.items()}
        run_s = sum(medians.values())
        values = {"run_s": run_s, "evals_per_s": evals / run_s,
                  "peak_rss_mib": peak_kib / 1024.0}
        detail.update(job_median_s=medians, job_samples_s=samples)
    else:
        values, errors = run_traced(args, jobs, runner, out_root, workload, problems,
                                    detail, evals, setup)
    attempted, failed, per_job = check_outputs(jobs, out_root, errors, problems)
    if not args.trace:
        values["ok_frac"] = 1.0 - failed / attempted
    detail["controls_run"] = negative_controls(jobs, out_root, errors, runner,
                                               args.seed, problems)
    detail.update(failed_by_job=per_job, job_errors=errors, machine=machine_record())
    return {"correct": not problems, "problems": problems, "attempted": attempted,
            "failed": failed, "values": values, "detail": detail}


def run_traced(args, jobs, runner, out_root, workload, problems, detail, evals, setup):
    import spans

    plain_times = {}
    errors = {}
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for job in jobs:
        plain_times[job.name], error = runner.run(job, out_root)
        if error:
            errors[job.name] = error
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0

    tracer = spans.Tracer()
    traced_root = args.work / "traced"
    traced_times = {}
    with spans.installed(tracer) as patches:
        missed = spans.unpatched_references(patches)
        for i, job in enumerate(jobs):
            tracer.job_id = i
            traced_times[job.name], _ = runner.run(job, traced_root, tracer=tracer)
    if missed:
        problems.append(f"unwrapped references: {missed}")
    if digest(out_root) != digest(traced_root):
        problems.append("traced outputs differ from untraced outputs")

    plain_run_s = sum(plain_times.values())
    traced_run_s = sum(traced_times.values())
    values = spans.layer_metrics(
        tracer, evals=evals, plain_run_s=plain_run_s, traced_run_s=traced_run_s,
        cpu_s=cpu, wall_s=wall, setup=setup, bytes_written=bytes_in(out_root))
    for layer in workload.layers:
        if not any(tracer.calls[n] for n in tracer.names if n.startswith(layer + ".")):
            problems.append(f"layer {layer} recorded no calls")
    trace_dir = args.work.parent / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{args.workload}.npz")
    detail.update(job_plain_s=plain_times, job_traced_s=traced_times,
                  span_calls=dict(tracer.calls))
    return values, errors


def run_parallel(runner, work: Path) -> dict:
    """Median time of the kansa n_side 17 job at --parallel 1 and 2.  If the
    CLI no longer has the flag, both sides run its one serial path."""
    import workloads

    job = workloads.kansa_job(f"kansa_{PARALLEL_JOB_SIDE}", PARALLEL_JOB_SIDE)
    runner.config_path(job).write_text(json.dumps(job.config))
    flag = True
    times = {1: [], 2: []}
    for rep in range(PARALLEL_REPS):
        for par in ((1, 2) if rep % 2 == 0 else (2, 1)):
            extra = ("--parallel", str(par)) if flag else ()
            try:
                elapsed, error = runner.run(job, work / f"parallel{par}", extra)
            except SystemExit:  # argparse rejected --parallel
                flag = False
                elapsed, error = runner.run(job, work / f"parallel{par}")
            if error:
                raise RuntimeError(f"parallel probe failed: {error}")
            times[par].append(elapsed)
    return {"parallel1_s": statistics.median(times[1]),
            "parallel2_s": statistics.median(times[2]), "parallel_flag": flag}


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import tradeoff.cli as cli
    t1 = time.perf_counter()
    import workloads

    config_dir = args.work / "config"
    config_dir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[args.workload].make_jobs(args.seed)
    runner = Runner(cli, config_dir)
    for job in jobs:
        if job.config is not None:
            runner.config_path(job).write_text(json.dumps(job.config))
    setup = {"import_s": t1 - t0, "inputs_s": time.perf_counter() - t1}
    print("READY", flush=True)
    if args.role == "probe":
        return 0
    if args.role == "parallel":
        result = run_parallel(runner, args.work)
    else:
        result = run_main(args, jobs, runner, setup)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
