"""Self-tests of the benchmark; run with

    python3 -m pytest -q bench/check_bench.py

The name keeps the file out of the repository's own test collection: the
last test runs every workload traced, which takes a few minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tradeoff import cli, expansion, functionals, greedy, kernels, report, unsymmetric  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# spans each workload must call, per function, from the layer table of the
# benchmark's design: a layer that a workload loads records calls there
EXPECTED_SPANS = {
    "kansa": ("kernels.cross", "kernels.diag", "kernels.apply", "linalg.factor_spd",
              "linalg.solve", "linalg.svd", "linalg.inverse_diagonal",
              "unsymmetric.build_kansa", "unsymmetric.kansa_power_squared_batch",
              "unsymmetric.pseudo_lagrangian_norms", "cli.kansa"),
    "greedy": ("kernels.cross", "kernels.diag", "kernels.apply", "linalg.factor_spd",
               "linalg.solve", "kernel_recovery.PowerContext",
               "kernel_recovery.power_batch", "greedy.p_greedy", "cli.greedy"),
    "audit": ("kernels.cross", "kernels.diag", "kernels.apply", "linalg.factor_spd",
              "linalg.solve", "kernel_recovery.PowerContext",
              "kernel_recovery.power_squared", "kernel_recovery.lagrangian_norm_squared",
              "kernel_recovery.tradeoff_report", "functionals.vandermonde",
              "functionals.from_json", "report.reports_to_csv", "cli.audit"),
    "identities": ("expansion.cheb", "expansion.closed_form", "functionals.vandermonde",
                   "cli.identities", "cli.fig1"),
}


def test_spec_matches_workload_definitions():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    values = spans.layer_metrics(spans.Tracer(), evals=1, plain_run_s=1.0, traced_run_s=1.0,
                                 cpu_s=1.0, wall_s=1.0, setup={"import_s": 0.0, "inputs_s": 0.0},
                                 bytes_written=0)
    assert {m["name"] for m in SPEC["per_layer"]} == set(values) | {"cli.parallel2_speedup"}


def test_wrappers_patch_every_name_callers_look_up():
    originals = (cli.build_kansa, cli.p_greedy, cli.reports_to_csv,
                 kernels.vandermonde, expansion.vandermonde)
    with spans.installed(spans.Tracer()) as patches:
        assert spans.unpatched_references(patches) == []
        for name, fn in [("cli.build_kansa", cli.build_kansa), ("cli.p_greedy", cli.p_greedy),
                         ("cli.reports_to_csv", cli.reports_to_csv),
                         ("kernels.vandermonde", kernels.vandermonde),
                         ("expansion.vandermonde", expansion.vandermonde),
                         ("greedy.p_greedy", greedy.p_greedy),
                         ("unsymmetric.build_kansa", unsymmetric.build_kansa),
                         ("report.reports_to_csv", report.reports_to_csv),
                         ("functionals.vandermonde", functionals.vandermonde)]:
            assert hasattr(fn, "__wrapped__"), name
    assert (cli.build_kansa, cli.p_greedy, cli.reports_to_csv,
            kernels.vandermonde, expansion.vandermonde) == originals
    assert not hasattr(kernels.MaternSobolevKernel.cross, "__wrapped__")


def test_spans_nest_and_telescope():
    t = spans.Tracer()
    with t.span("a"):
        with t.span("b"):
            with t.span("a"):
                pass
    assert t.calls == {"a": 2, "b": 1}
    assert t.busy["a"] == pytest.approx(t.end[0] - t.start[0])
    assert sum(t.self_time.values()) == pytest.approx(t.end[0] - t.start[0])
    assert list(t.parent) == [-1, 0, 1]


def _small_outputs(tmp_path, command, config, args=()):
    job = workloads.Job(command, command, config, args=tuple(args))
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config or {}))
    out = tmp_path / command
    assert cli.main(job.argv(cfg, out)) in (0, 1)
    return checks.read_outputs(out)


@pytest.mark.parametrize("command,config,ops", [
    ("kansa", {"n_side": 5, "eval_interior_side": 5, "eval_boundary": 8}, 33),
    ("greedy", {"grid_side": 6, "max_steps": 10, "m": 5, "d": 2, "c": 1.0}, 10),
    ("audit", workloads.audit_problems(0)["audit_hermite"], workloads.AUDIT_ROWS),
    ("fig1", None, 3),
])
def test_every_checker_counts_a_corrupted_operation(tmp_path, command, config, ops):
    job = workloads.Job(command, command, config, ops=ops)
    files = _small_outputs(tmp_path, command, config)
    base = checks.count_failures(job, files)
    variants = checks.corrupt(job, files)
    assert variants
    for variant in variants:
        assert checks.count_failures(job, variant) > base


def test_identities_perturb_counts_as_failed(tmp_path):
    args = ("--perturb", "--suite", "kernel")
    files = _small_outputs(tmp_path, "identities", None, args)
    job = workloads.Job("identities", "identities", None, args=args, ops=1)
    assert checks.identities_failures(job, files) == 1


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kansa", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", list(EXPECTED_SPANS))
def test_traced_run_covers_its_layers(workload):
    """Nonzero calls on every span the workload loads, traced outputs
    byte-identical to untraced ones (else ``correct`` is false), counts as
    integers, and the self times accounting for the traced run."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"], proc.stdout
    metrics = final["metrics"]
    result = json.loads((ROOT / ".bench_work" / "results" /
                         f"{workload}-seed3-trace1.json").read_text())
    calls = result["detail"]["span_calls"]
    assert [s for s in EXPECTED_SPANS[workload] if not calls.get(s)] == []
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "flop", "B"):
            assert isinstance(metrics[m["name"]]["value"], int), m["name"]
    assert metrics["trace.self_coverage"]["value"] > 0.95
