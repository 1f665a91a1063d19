import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracle
import tradeoff
from tradeoff import cli, identities, kernel_recovery, linalg
from tradeoff.cli import ExperimentConfig, main, run_fig1, run_greedy, run_identities, run_kansa
from tradeoff.errors import NotPositiveDefinite
from tradeoff.functionals import FunctionalSet, LaplacianEval
from tradeoff.kernels import MaternSobolevKernel, gram
from tradeoff.weights import parse_weight_rule


def test_fig1_summary_and_curves(tmp_path):
    cfg = ExperimentConfig("fig1", out_dir=tmp_path)
    summary = run_fig1(cfg)
    assert set(summary) == {"equidistant", "chebyshev_extrema", "chebyshev_zeros"}
    for fam, vals in summary.items():
        assert vals["lagr_norm"] > vals["bump_norm"] > 0
        assert vals["product"] >= 1.0 - 1e-8  # trade-off inequality
        dat = (tmp_path / f"fig1_{fam}.dat").read_text().splitlines()
        assert len(dat) == 402  # header + 401 samples
    assert (tmp_path / "fig1_summary.json").exists()


def test_fig1_curve_endpoint_values(tmp_path):
    # the Lagrangian curve is 1 at the extra point and 0 at every node
    cfg = ExperimentConfig("fig1", params={"families": ["equidistant"]},
                           out_dir=tmp_path)
    run_fig1(cfg)
    rows = np.loadtxt(tmp_path / "fig1_equidistant.dat")
    xs, lagr = rows[:, 0], rows[:, 2]
    nodes = np.linspace(-1, 1, 11)
    for nd in nodes:
        assert abs(lagr[np.argmin(np.abs(xs - nd))]) < 0.05


def test_kansa_smoke_reduced(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        "kansa",
        params={"n_side": 5, "eval_interior_side": 9, "eval_boundary": 16},
        out_dir=tmp_path)
    summary = run_kansa(cfg)
    assert time.time() - t0 < 5.0
    assert summary["M"] == 41 and summary["N"] == 25
    assert summary["pointwise_violations"] == 0
    header = (tmp_path / "kansa_interior.csv").read_text().splitlines()[0]
    assert header == "x,y,p2_unsym,p2_sym,recip_pseudo_norm2"
    sites = np.genfromtxt(tmp_path / "kansa_data_sites.csv", delimiter=",",
                          skip_header=1)
    assert sites.shape == (41, 5)
    assert np.all(np.isfinite(sites[:, 4]))


def test_kansa_ratio_is_null_when_the_data_reproduce_every_interior_mu(tmp_path):
    # the evaluation grid is the 5x5 data grid: every interior symmetric
    # power is roundoff (1.1e-16), and the quotient would read 6.5e11
    params = {"n_side": 5, "eval_interior_side": 5, "eval_boundary": 8}
    summary = run_kansa(ExperimentConfig("kansa", params=params, out_dir=tmp_path))
    k_mu_mu = MaternSobolevKernel(5, 2, 1.0).diag([LaplacianEval((0.5, 0.5))])[0]
    assert summary["max_p2_sym_interior"] <= kernel_recovery.EXCLUDED_RTOL * k_mu_mu
    assert summary["ratio_max_interior"] is None
    assert '"ratio_max_interior": null' in (tmp_path / "kansa_summary.json").read_text()
    # a 9x9 grid shares only its centre with the data: a ratio again
    params["eval_interior_side"] = 9
    summary = run_kansa(ExperimentConfig("kansa", params=params, out_dir=tmp_path))
    assert summary["ratio_max_interior"] == (summary["max_p2_unsym_interior"]
                                             / summary["max_p2_sym_interior"]) > 1.0


def test_bench_cli_jobs_pass_the_config_table(monkeypatch):
    # every CLI job the benchmark runs is a config the table accepts, and the
    # CLI defaults the bench spells out are the table's
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for seed in (0, 62):
        jobs = [job for w in workloads.WORKLOADS.values() for job in w.make_jobs(seed)
                if job.command in cli.CONFIG_KEYS]
        assert {job.command for job in jobs} == set(cli.CONFIG_KEYS)
        for job in jobs:
            ExperimentConfig(job.command, params=job.config or {})
    default = {(command, key): entry[1] for command, table in cli.CONFIG_KEYS.items()
               for key, entry in table.items()}
    assert (workloads.KANSA_EVAL_SIDE, workloads.KANSA_EVAL_BOUNDARY, workloads.KANSA_BOUNDARY) \
        == (default["kansa", "eval_interior_side"], default["kansa", "eval_boundary"],
            default["kansa", "n_boundary"])
    assert workloads.IDENTITY_SUITES == default["identities", "suites"]
    assert workloads.FIG1_FAMILIES == default["fig1", "families"]


def test_kansa_evaluates_each_row_once(monkeypatch, tmp_path):
    calls = Counter()

    class CountingMatern(MaternSobolevKernel):
        def diag(self, fset):
            calls["diag"] += 1
            return super().diag(fset)

        def cross(self, set_a, set_b):
            calls["cross"] += 1
            return super().cross(set_a, set_b)

    monkeypatch.setattr(cli, "MaternSobolevKernel", CountingMatern)
    run_kansa(ExperimentConfig("kansa", params={"n_side": 3}, out_dir=tmp_path))
    # A, the data Gram, the trial Gram, and per surface (interior, boundary)
    # one diag plus the rows against the data and the trial functionals;
    # the data-site powers reuse the data Gram
    assert calls == {"cross": 7, "diag": 2}


# imports tradeoff.cli, runs the command line it is given (none: import
# only) and prints the exit code and every scipy module then loaded
_SCIPY_PROBE = """
import json, sys
from tradeoff import cli
rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _scipy_modules_after(argv, tmp_path):
    """Exit code and loaded scipy modules of a fresh interpreter that runs
    argv through cli.main, with --out under tmp_path."""
    argv = argv + ["--out", str(tmp_path / "out")] if argv else []
    env = dict(os.environ, PYTHONPATH=str(Path(tradeoff.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["fig1"],
    ["identities", "--suite", "poly", "--suite", "ctd", "--suite", "taylor",
     "--suite", "ortho", "--suite", "svd"],
], ids=["import", "fig1", "numpy_suites"])
def test_numpy_only_commands_never_load_scipy(argv, tmp_path):
    # scipy is imported on first use by kernels and linalg; the package,
    # fig1 and the closed-form suites compute with numpy alone
    assert _scipy_modules_after(argv, tmp_path) == [0, []]


def test_a_matern_kernel_command_loads_scipy(tmp_path):
    # the control of the probe above: the kernel suite builds a Matern
    # kernel and factors its Grams, which loads scipy.special and
    # scipy.linalg
    rc, loaded = _scipy_modules_after(["identities", "--suite", "kernel"], tmp_path)
    assert rc == 0 and {"scipy.special", "scipy.linalg"} <= set(loaded)


def test_identities_deterministic(tmp_path):
    cfg1 = ExperimentConfig("identities", out_dir=tmp_path / "a", seed=123)
    text1, ok1 = run_identities(cfg1)
    cfg2 = ExperimentConfig("identities", out_dir=tmp_path / "b", seed=123)
    text2, ok2 = run_identities(cfg2)
    assert ok1 and ok2
    assert (tmp_path / "a/identities_report.txt").read_bytes() \
        == (tmp_path / "b/identities_report.txt").read_bytes()


def test_identities_perturbation_fails(tmp_path):
    cfg = ExperimentConfig("identities", params={"perturb": True},
                           out_dir=tmp_path)
    text, ok = run_identities(cfg)
    assert not ok
    # the control fails on the product check, not by raising
    assert "FAIL kernel: max |P^2*norm^2 - 1|" in text


def test_identities_suite_filter(tmp_path):
    cfg = ExperimentConfig("identities", params={"suites": ["poly"]},
                           out_dir=tmp_path)
    text, ok = run_identities(cfg)
    assert ok
    assert "poly" in text and "svd" not in text


# each closed form the suites call, with the suite that calls it
_CLOSED_FORMS = [("poly", identities.expansion, "poly_power"),
                 ("poly", identities.expansion, "poly_lagrangian_seminorm"),
                 ("ctd", identities.expansion, "ctd_power"),
                 ("ctd", identities.expansion, "ctd_lagrangian_norm"),
                 ("taylor", identities.expansion, "taylor_power"),
                 ("taylor", identities.expansion, "taylor_lagrangian_norm"),
                 ("ortho", identities.expansion, "ortho_power_and_bump"),
                 ("svd", identities.unsymmetric, "svd_power_squared"),
                 ("svd", identities.unsymmetric, "svd_bump_min")]


def test_identities_suite_error_is_a_failure_not_a_crash(tmp_path, monkeypatch):
    # a closed form that raises fails its own suite, and only that one
    suites = [name for name in identities.IDENTITY_SUITES if name != "kernel"]
    for suite, module, name in _CLOSED_FORMS:
        def broken(*args, name=name):
            raise ArithmeticError(f"broken {name}")

        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken)
            cfg = ExperimentConfig("identities", params={"suites": suites},
                                   out_dir=tmp_path / name)
            text, ok = run_identities(cfg)
        assert not ok
        assert f"FAIL {suite}: raised ArithmeticError: broken {name}\n" in text
        verdicts = [line.split()[0] for line in text.splitlines()[1:-1]]
        assert verdicts.count("FAIL") == 1, text
        assert verdicts.count("PASS") == len(suites) - 1, text


# The suites as they were written first, one evaluation point at a time:
# the oracles that the vectorized suites and the block kernel suite must
# equal bit for bit.  The ctd loop spells out the closed forms in Python
# floats; the poly, taylor, ortho and svd loops spell out the scalar closed
# forms as they were, one numpy reduction over one case each.  None of them
# shares code with the array paths.

def _scalar_ctd_suite(rng):
    def product(xk, xk1, x):
        assert xk < x < xk1
        return 2.0 * (xk1 - x) * (x - xk) / (xk1 - xk) * (1.0 / min(xk1 - x, x - xk))

    lo, hi, mid_dev = float("inf"), float("-inf"), 0.0
    for _ in range(10_000):
        xk = float(rng.uniform(-1.0, 1.0))
        width = float(rng.uniform(1e-3, 2.0))
        xk1 = xk + width
        t = float(rng.uniform(1e-6, 1.0 - 1e-6))
        prod = product(xk, xk1, xk + t * width)
        lo, hi = min(lo, prod), max(hi, prod)
        mid_dev = max(mid_dev, abs(product(xk, xk1, xk + 0.5 * width) - 1.0))
    return lo, hi, mid_dev


def _scalar_poly_suite(rng):
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        while True:
            nodes = np.sort(rng.uniform(-1.0, 1.0, n + 1))
            if np.all(np.diff(nodes) > 1e-12):
                break
        while True:
            x = float(rng.uniform(-1.0, 1.0))
            if np.min(np.abs(x - nodes)) > 1e-9:
                break
        diffs = np.abs(x - nodes)
        power = float(np.prod(diffs) / math.factorial(n + 1))
        seminorm = float(math.factorial(n + 1) / np.prod(diffs))
        worst = max(worst, abs(power * seminorm - 1.0))
    return worst


def _scalar_taylor_suite(rng):
    worst = 0.0
    for _ in range(100):
        rule = parse_weight_rule(identities._TAYLOR_RULES[int(rng.integers(0, len(identities._TAYLOR_RULES)))])
        k = int(rng.integers(0, 40))
        rk = float(rule(k))
        prod = math.sqrt(rk) / math.factorial(k) * (math.factorial(k) / math.sqrt(rk))
        worst = max(worst, abs(prod - 1.0))
    return worst


def _scalar_ortho_suite(rng):
    worst = 0.0
    for _ in range(100):
        tail = rng.normal(size=int(rng.integers(1, 50)))
        p2 = float(np.sum(tail ** 2))
        bump_norm = math.sqrt(float(np.sum((tail / p2) ** 2)))
        worst = max(worst, abs(math.sqrt(p2) * bump_norm - 1.0))
    return worst


def _scalar_svd_suite(rng):
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 12))
        n_pos = int(rng.integers(0, m))
        sigma = np.concatenate([np.sort(rng.uniform(0.1, 5.0, size=n_pos))[::-1],
                                np.zeros(m - n_pos)])
        mu = rng.normal(size=m)
        zero = sigma <= 1e-12 * sigma[0]
        if not np.any(mu[zero] != 0.0):
            mu[-1] = 1.0
        p2 = float(np.sum(mu[zero] ** 2))
        f = np.zeros(m)
        f[zero] = mu[zero] / p2
        norm = math.sqrt(float(np.sum(f ** 2)))
        worst = max(worst, abs(p2 * norm ** 2 - 1.0))
    return worst


def _per_mu_kernel_suite(rng, perturb):
    """Largest |product - 1| over the resolved instances, and the count of
    unresolved ones: below the row-by-row floor of tests/oracle.py
    (F > UNRESOLVED_RTOL P^2), with routes that disagree, or with a data or
    extended Gram that fails its Cholesky factorization."""
    devs, unresolved = [], 0
    for m, d in identities._KERNEL_SWEEP:
        kernel, lam_set, mus = identities._kernel_instance(rng, m, d)
        try:
            ctx = kernel_recovery.PowerContext(kernel, lam_set)
        except NotPositiveDefinite:
            unresolved += len(mus)
            continue
        for mu in mus:
            ev = ctx.power_squared(mu, cross_check=False)
            if ev.excluded:
                continue
            floor = oracle.roundoff_floor(ev.k_mu_mu, ev.k_mu_lambda,
                                          ev.lagrange_values, ctx.gram)
            if not ev.agree or floor > kernel_recovery.UNRESOLVED_RTOL * ev.power_squared:
                unresolved += 1
                continue
            ext = FunctionalSet([mu] + list(lam_set))
            g = gram(kernel, ext)
            if perturb:
                g[0, 0] *= 1.01
            e0 = np.zeros(len(ext))
            e0[0] = 1.0
            try:
                norm2 = float(linalg.factor_spd(g).solve(e0)[0])
            except NotPositiveDefinite:
                unresolved += 1
                continue
            devs.append(abs(ev.power_squared * norm2 - 1.0))
    return max(devs, default=0.0), unresolved


def _outcome(suite, *args):
    """The suite's result as float.hex strings, or its exception's type and
    message."""
    try:
        result = suite(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return tuple(float(v).hex() for v in np.atleast_1d(result))


@pytest.mark.parametrize("seed", range(20))
def test_ctd_suite_equals_the_scalar_loop_bit_for_bit(seed):
    assert _outcome(identities._identity_ctd, np.random.default_rng(seed)) \
        == _outcome(_scalar_ctd_suite, np.random.default_rng(seed))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("suite,scalar_loop", [
    ("poly", _scalar_poly_suite), ("taylor", _scalar_taylor_suite),
    ("ortho", _scalar_ortho_suite), ("svd", _scalar_svd_suite)],
    ids=["poly", "taylor", "ortho", "svd"])
def test_batched_suite_equals_the_scalar_loop_bit_for_bit(suite, scalar_loop, seed):
    batched = getattr(identities, f"_identity_{suite}")
    assert _outcome(batched, np.random.default_rng(seed)) \
        == _outcome(scalar_loop, np.random.default_rng(seed))


@pytest.mark.parametrize("perturb", [False, True], ids=["plain", "perturb"])
@pytest.mark.parametrize("seed", range(20))
def test_kernel_suite_equals_the_per_mu_loop_bit_for_bit(seed, perturb):
    assert _outcome(identities._identity_kernel, np.random.default_rng(seed), perturb) \
        == _outcome(_per_mu_kernel_suite, np.random.default_rng(seed), perturb)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_suite_passes_on_every_resolved_instance(tmp_path, seed):
    # every resolved instance meets 1e-5, and the report's unresolved count
    # is the per-mu loop's: the instances below their floor or with a
    # failed Cholesky
    cfg = ExperimentConfig("identities", params={"suites": ["kernel"]},
                           out_dir=tmp_path, seed=seed)
    text, ok = run_identities(cfg)
    rng = np.random.default_rng(seed + identities.IDENTITY_SUITES.index("kernel"))
    worst, unresolved = _per_mu_kernel_suite(rng, False)
    assert ok and worst <= 1e-5
    assert text.splitlines()[1] == (f"PASS kernel: max |P^2*norm^2 - 1| = {worst:.3e} "
                                    f"(tol 1e-5), {unresolved} unresolved")


def test_kernel_suite_fails_on_a_nan_product(tmp_path, monkeypatch):
    # a NaN product on a resolved instance fails the suite; it does not
    # vanish in a running max
    monkeypatch.setattr(linalg.SpdFactor, "solve",
                        lambda self, b: np.full(np.shape(b), np.nan))
    cfg = ExperimentConfig("identities", params={"suites": ["kernel"]}, out_dir=tmp_path)
    text, ok = run_identities(cfg)
    assert not ok
    assert "FAIL kernel: max |P^2*norm^2 - 1| = nan (tol 1e-5)" in text


def test_kernel_suite_evaluates_a_gram_a_cross_and_a_diag_per_instance(monkeypatch):
    calls = Counter()

    class CountingMatern(MaternSobolevKernel):
        def diag(self, fset):
            calls["diag"] += 1
            return super().diag(fset)

        def cross(self, set_a, set_b):
            calls["cross"] += 1
            return super().cross(set_a, set_b)

    monkeypatch.setattr(identities, "MaternSobolevKernel", CountingMatern)
    identities._identity_kernel(np.random.default_rng(0))
    # per (m, d) instance, the audit's route: the context's data Gram, then
    # one block power_squared call, one cross against the data and one
    # diag; each extended Gram borders the data Gram with those values
    n = len(identities._KERNEL_SWEEP)
    assert calls == {"cross": 2 * n, "diag": n}


def test_greedy_runner(tmp_path):
    cfg = ExperimentConfig("greedy", params={"grid_side": 5, "max_steps": 8},
                           out_dir=tmp_path)
    summary = run_greedy(cfg)
    assert summary["steps"] == 8
    rows = (tmp_path / "greedy_trace.csv").read_text().splitlines()
    assert rows[0] == "step,candidate_id,x,y,max_power"
    powers = [float(r.split(",")[4]) for r in rows[1:]]
    assert all(a >= b - 1e-9 for a, b in zip(powers, powers[1:]))
    assert (tmp_path / "greedy_selected.csv").exists()


def test_greedy_single_step(tmp_path):
    cfg = ExperimentConfig("greedy", params={"grid_side": 4, "max_steps": 1},
                           out_dir=tmp_path)
    run_greedy(cfg)
    assert len((tmp_path / "greedy_trace.csv").read_text().splitlines()) == 2


def test_greedy_tolerance_immediate_stop(tmp_path):
    cfg = ExperimentConfig("greedy",
                           params={"grid_side": 4, "max_steps": 9, "tolerance": 1.0},
                           out_dir=tmp_path)
    summary = run_greedy(cfg)
    assert summary["steps"] == 1 and summary["stop_reason"] == "tolerance"


def test_cli_main_audit(tmp_path):
    spec = {
        "kernel": {"family": "matern", "m": 5, "d": 1, "c": 1.0},
        "data": [{"kind": "point", "x": [0.0]}, {"kind": "point", "x": [0.5]}],
        "eval": [{"kind": "point", "x": [0.25]}, {"kind": "point", "x": [0.0]}],
    }
    cfg_file = tmp_path / "audit.json"
    cfg_file.write_text(json.dumps(spec))
    rc = main(["audit", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out/audit_report.csv").read_text().splitlines()
    assert lines[0] == "mu_kind,mu_x,mu_y,power,stability_norm,product,flag"
    assert lines[1].endswith("ok") and lines[2].endswith("excluded")
    prod = float(lines[1].split(",")[5])
    assert prod == pytest.approx(1.0, rel=1e-6)


def test_cli_main_audit_counts_unresolved_rows(tmp_path, capsys):
    # a row 3e-5 from a site has F > UNRESOLVED_RTOL * P^2: it keeps its
    # numbers and is flagged, and the summary counts it
    spec = {
        "kernel": {"family": "matern", "m": 5, "d": 1, "c": 1.0},
        "data": [{"kind": "point", "x": [0.0]}, {"kind": "point", "x": [0.5]}],
        "eval": [{"kind": "point", "x": [0.25]}, {"kind": "point", "x": [0.0]},
                 {"kind": "point", "x": [0.5 - 3e-5]}],
    }
    cfg_file = tmp_path / "audit.json"
    cfg_file.write_text(json.dumps(spec))
    rc = main(["audit", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "evaluations": 3, "excluded": 1, "unresolved": 1}
    rows = (tmp_path / "out/audit_report.csv").read_text().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["ok", "excluded", "unresolved"]
    power, norm, product = map(float, rows[2].split(",")[3:6])
    assert 0.0 < power and math.isfinite(norm) and product == pytest.approx(1.0, rel=1e-3)


def test_cli_main_audit_counts_a_route_disagreement_as_unresolved(tmp_path, capsys,
                                                                 monkeypatch):
    # the routes of the first row disagree: the audit still exits 0 with
    # every row, and that row alone is counted and flagged unresolved
    power_squared = kernel_recovery.PowerContext.power_squared

    def disagreeing(self, *args, **kwargs):
        ev = power_squared(self, *args, **kwargs)
        return dataclasses.replace(
            ev, agree=ev.agree & np.array([mu.x != (0.25,) for mu in ev.mu]))

    monkeypatch.setattr(kernel_recovery.PowerContext, "power_squared", disagreeing)
    spec = {
        "kernel": {"family": "matern", "m": 5, "d": 1, "c": 1.0},
        "data": [{"kind": "point", "x": [0.0]}, {"kind": "point", "x": [0.5]}],
        "eval": [{"kind": "point", "x": [0.25]}, {"kind": "point", "x": [0.0]},
                 {"kind": "point", "x": [0.75]}],
    }
    cfg_file = tmp_path / "audit.json"
    cfg_file.write_text(json.dumps(spec))
    rc = main(["audit", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "evaluations": 3, "excluded": 1, "unresolved": 1}
    rows = (tmp_path / "out/audit_report.csv").read_text().splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["unresolved", "excluded", "ok"]


def test_cli_main_audit_exits_1_when_the_data_gram_fails_cholesky(tmp_path, capsys):
    # two sites 1e-9 apart: a numerical outcome, not bad input, so exit 1
    # with one error line naming the Gram's size
    spec = {
        "kernel": {"family": "matern", "m": 5, "d": 2, "c": 1.0},
        "data": [{"kind": "point", "x": [0.0, 0.0]}, {"kind": "point", "x": [0.5, 0.1]},
                 {"kind": "point", "x": [0.5, 0.1 + 1e-9]}],
        "eval": [{"kind": "point", "x": [0.2, 0.3]}],
    }
    cfg_file = tmp_path / "audit.json"
    cfg_file.write_text(json.dumps(spec))
    rc = main(["audit", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tradeoff: error: ") and captured.err.count("\n") == 1
    assert "3x3" in captured.err


def test_cli_main_identities_exit_codes(tmp_path):
    rc = main(["identities", "--out", str(tmp_path / "ok"), "--suite", "poly"])
    assert rc == 0
    rc = main(["identities", "--out", str(tmp_path / "bad"), "--perturb"])
    assert rc == 1


def _rejected(tmp_path, capsys, command: str, params) -> tuple[str, Path]:
    """Run main on a bad config and require exit code 2, nothing on stdout
    and one "tradeoff: error: " line on stderr; returns that line and the
    output directory."""
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(params))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tradeoff: error: ")
    assert captured.err.count("\n") == 1
    return captured.err, out


def test_cli_main_identities_rejects_unknown_suites(tmp_path, capsys):
    err, out = _rejected(tmp_path, capsys, "identities", {"suites": ["poly", "kernal"]})
    assert "['kernal']" in err
    assert all(name in err for name in identities.IDENTITY_SUITES)
    assert not (out / "identities_report.txt").exists()


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_cli_main_rejects_a_bad_seed_with_exit_2(tmp_path, capsys, seed):
    # bad input, not an identity failure: argparse's usage error, naming
    # --seed, before any suite runs
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be a non-negative integer" in captured.err
    assert not (out / "identities_report.txt").exists()


@pytest.mark.parametrize("command", ["fig1", "kansa", "greedy", "audit"])
def test_cli_main_rejects_a_seed_outside_identities(tmp_path, capsys, command):
    # the suites alone read the seed; elsewhere --seed is a usage error, not
    # a flag that is silently ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("rtol", [2.0, 0, -1])
def test_cli_main_kansa_rejects_rtol_outside_unit_interval(tmp_path, capsys, rtol):
    err, out = _rejected(tmp_path, capsys, "kansa", {
        "n_side": 3, "eval_interior_side": 3, "eval_boundary": 8, "rtol": rtol})
    assert "rtol must lie in" in err
    assert not (out / "kansa_summary.json").exists()


@pytest.mark.parametrize("weights", [[1, 4, 9], True], ids=["list", "true"])
def test_cli_main_fig1_rejects_unparseable_weights(tmp_path, capsys, weights):
    err, out = _rejected(tmp_path, capsys, "fig1", {"weights": weights})
    assert "weight rule" in err
    assert not (out / "fig1_summary.json").exists()


@pytest.mark.parametrize("command,params,key", [
    ("kansa", {"n_side": 3, "eval_interior_side": 3, "eval_boundary": 0}, "eval_boundary"),
    ("kansa", {"n_side": 3, "eval_interior_side": 0, "eval_boundary": 8},
     "eval_interior_side"),
    ("fig1", {"n_points": 1}, "n_points"),
    ("kansa", {"n_side": 0}, "n_side"),
    ("greedy", {"grid_side": 0}, "grid_side"),
], ids=["eval_boundary", "eval_interior_side", "n_points", "n_side", "grid_side"])
def test_cli_main_rejects_empty_grids(tmp_path, capsys, command, params, key):
    err, out = _rejected(tmp_path, capsys, command, params)
    assert f"{key} must be >= " in err
    assert not out.exists()


_MATERN_1D = {"family": "matern", "m": 5, "d": 1}
_POINT = [{"kind": "point", "x": [0.1]}]
_CHEBWEIGHT = {"family": "chebweight", "weights": "(j+1)^2", "K": 40}


def _audit(**parts) -> dict:
    """A 1-d Matern audit spec of one data and one eval row, with parts
    replaced or added."""
    return {"kernel": _MATERN_1D, "data": _POINT,
            "eval": [{"kind": "point", "x": [0.3]}], **parts}


_MATERN_5_5 = {"kernel": {"family": "matern", "m": 5.5, "d": 2},
               "data": [{"kind": "point", "x": [0.1, 0.2]}],
               "eval": [{"kind": "point", "x": [0.3, 0.4]}]}


@pytest.mark.parametrize("command,params,named", [
    ("kansa", [1, 2], "kansa.json"),
    ("fig1", "abc", "fig1.json"),
    ("kansa", {"n_side": 3.5}, "n_side"),
    ("kansa", {"eval_interior_side": 3.0}, "eval_interior_side"),
    ("fig1", {"n_points": "11"}, "n_points"),
    ("fig1", {"n_points": 3.0}, "n_points"),
    ("greedy", {"max_steps": 2.5}, "max_steps"),
    ("greedy", {"max_steps": 0}, "max_steps"),
    ("greedy", {"grid_side": True}, "grid_side"),
    ("greedy", {"grid_side": 3, "max_steps": 2, "m": 5.5}, "whole number"),
    ("audit", _MATERN_5_5, "whole number"),
    ("greedy", {"m": "5"}, "m must be a finite number"),
    ("greedy", {"c": "1"}, "c must be a finite number"),
    ("greedy", {"tolerance": "x"}, "tolerance must be a finite number"),
    ("greedy", {"tolerance": float("nan")}, "tolerance must be a finite number"),
    ("greedy", {"d": "2"}, "d must be an integer"),
    ("greedy", {"d": 2.0}, "d must be an integer"),
    ("kansa", {"c": True}, "c must be a finite number"),
    ("kansa", {"rtol": "1e-10"}, "rtol must be a finite number"),
    ("kansa", {"m": float("inf")}, "m must be a finite number"),
    ("identities", {"perturb": "no"}, "perturb must be true or false"),
    ("identities", {"perturb": 0}, "perturb must be true or false"),
    ("kansa", {"n_boundary": "16"}, "n_boundary must be an integer"),
    ("kansa", {"n_boundary": -1}, "n_boundary must be >= 0"),
    ("kansa", {"include_corners": "no"}, "include_corners must be true or false"),
    ("fig1", {"tail_order": "121"}, "tail_order must be an integer"),
    ("fig1", {"n_points": 5, "tail_order": 4}, "tail_order must be >= 5"),
    ("fig1", {"curve_points": "401"}, "curve_points must be an integer"),
    ("fig1", {"extra_point": "x"}, "extra_point must be a finite number"),
    ("fig1", {"n_point": 11}, "unknown fig1 config key 'n_point'"),
    ("kansa", {"n_sid": 3}, "unknown kansa config key 'n_sid'"),
    ("identities", {"suite": ["poly"]}, "unknown identities config key 'suite'"),
    ("greedy", {"grid": 4}, "unknown greedy config key 'grid'"),
    ("audit", _audit(scale=0.1), "unknown audit config key 'scale'"),
    ("audit", {"kernel": _MATERN_1D, "data": _POINT}, "audit config lacks key(s) 'eval'"),
    ("audit", _audit(kernel="matern"), "kernel must be a JSON object"),
    ("audit", _audit(data={"kind": "point", "x": [0.1]}), "data must be a JSON array"),
    ("kansa", {"trial_points": {"x": 0.5}}, "trial_points must be a JSON array"),
    ("identities", {"suites": []}, "suites must be a non-empty JSON array"),
    ("identities", {"suites": "poly"}, "suites must be a non-empty JSON array"),
    ("fig1", {"families": []}, "families must be a non-empty JSON array"),
    ("fig1", {"families": ["equidistant", "chebychev"]}, "unknown families ['chebychev']"),
    ("audit", _audit(data=[3]), "a functional must be a JSON object, got 3"),
    ("audit", _audit(data=[{"kind": ["point"], "x": [0.5]}]), "unknown functional kind"),
    ("audit", _audit(data=[{"kind": "point", "x": [0.5], "order": 1}]),
     "point functional {'kind': 'point', 'x': [0.5], 'order': 1} has unknown key(s) 'order'"),
    ("audit", _audit(kernel=_CHEBWEIGHT, data=[{"kind": "coeff", "j": 2.5}]),
     "needs a JSON integer at 'j'"),
    ("audit", _audit(data=[{"kind": "deriv", "x": [0.5], "order": 1.0}]),
     "needs a JSON integer at 'order'"),
    ("audit", _audit(kernel={"family": "matern", "m": 5, "d": 2, "scale": 0.1}),
     "matern kernel spec has unknown key(s) 'scale'"),
    ("audit", _audit(kernel={**_MATERN_1D, "c": "1"}), "needs a JSON number at 'c'"),
    ("audit", _audit(kernel={**_MATERN_1D, "c": float("nan")}), "scale must be positive"),
    ("audit", _audit(kernel={**_CHEBWEIGHT, "K": "121"}), "needs a JSON integer at 'K'"),
    ("greedy", {"d": 3}, "d must be <= 2, got 3"),
    ("greedy", {"d": 0}, "d must be >= 1, got 0"),
    ("greedy", {"m": 2}, "m must be a finite number that is a whole number >= 3, got 2"),
    ("kansa", {"m": 4.5}, "m must be a finite number that is a whole number >= 3, got 4.5"),
    ("greedy", {"c": -1}, "c must be a finite number > 0, got -1"),
    ("kansa", {"c": -1}, "c must be a finite number > 0, got -1"),
    ("kansa", {"c": 0.0}, "c must be a finite number > 0, got 0.0"),
    ("fig1", {"weights": "(j+1)^x"},
     "weights must be a weight rule that parses: cannot parse weight rule '(j+1)^x'"),
    ("fig1", {"weights": "0"}, "weights must be a weight rule that parses: constant weight"),
    ("kansa", {"trial_points": [["0.1", "0.2"]]}, "trial_points must be a JSON array of "
     "[x, y] points of finite numbers, got [['0.1', '0.2']]"),
    ("kansa", {"trial_points": [[0.1, 0.2], [0.3, True]]}, "got [[0.1, 0.2], [0.3, True]]"),
    ("kansa", {"trial_points": [[0.1, 0.2, 0.3]]}, "got [[0.1, 0.2, 0.3]]"),
    ("kansa", {"trial_points": [[0.1, float("nan")]]}, "got [[0.1, nan]]"),
    ("audit", _audit(eval=[{"kind": "point", "x": ["0.5", True]}]),
     "point functional {'kind': 'point', 'x': ['0.5', True]} needs JSON numbers at 'x'"),
    ("audit", _audit(data=[{"kind": "point", "x": "0.1"}]), "needs JSON numbers at 'x'"),
    ("audit", _audit(data=[{"kind": "deriv", "x": [False], "order": 0}]),
     "needs JSON numbers at 'x'"),
    ("audit", {**_MATERN_5_5, "kernel": {"family": "matern", "m": 5, "d": 2},
               "eval": [{"kind": "laplacian", "x": [0.3, "0.4"]}]},
     "needs JSON numbers at 'x'"),
    ("fig1", {"weights": "(j+1)^400"}, "weights overflow a double: w_5 of"),
    ("fig1", {"weights": "(j+1)^200"}, "weights overflow a double: w_34 of"),
    ("fig1", {"weights": "factorial_sq_over:1^j"}, "weights overflow a double: w_99 of"),
    ("audit", _audit(kernel={**_CHEBWEIGHT, "weights": "(j+1)^400"}),
     "weights overflow a double: w_5 of"),
], ids=["list", "string", "n_side_fraction", "eval_side_float", "n_points_string",
        "n_points_float", "max_steps_fraction", "max_steps_zero", "grid_side_bool",
        "greedy_m_fraction", "audit_m_fraction", "greedy_m_string", "greedy_c_string",
        "greedy_tolerance_string", "greedy_tolerance_nan", "greedy_d_string",
        "greedy_d_float", "kansa_c_bool", "kansa_rtol_string", "kansa_m_inf",
        "perturb_string", "perturb_int", "n_boundary_string", "n_boundary_negative",
        "include_corners_string", "tail_order_string", "tail_order_short",
        "curve_points_string", "extra_point_string", "fig1_unknown_key",
        "kansa_unknown_key", "identities_unknown_key", "greedy_unknown_key",
        "audit_unknown_key", "audit_without_eval", "audit_kernel_string",
        "audit_data_object", "trial_points_object", "suites_empty", "suites_string",
        "families_empty", "families_unknown", "functional_int", "functional_kind_list",
        "point_with_order", "coeff_j_fraction", "deriv_order_float", "matern_scale_key",
        "matern_c_string", "matern_c_nan", "chebweight_K_string", "greedy_d_3",
        "greedy_d_0", "greedy_m_2", "kansa_m_fraction", "greedy_c_negative",
        "kansa_c_negative", "kansa_c_zero", "fig1_weights_unparseable", "fig1_weights_zero",
        "trial_points_strings", "trial_points_bool", "trial_points_3d", "trial_points_nan",
        "point_x_string_and_bool", "point_x_string", "deriv_x_bool", "laplacian_x_string",
        "fig1_weights_overflow_400", "fig1_weights_overflow_200",
        "fig1_weights_factorial_overflow", "chebweight_weights_overflow"])
def test_cli_main_rejects_a_bad_config_with_exit_2(tmp_path, capsys, command, params, named):
    err, out = _rejected(tmp_path, capsys, command, params)
    assert named in err
    assert not out.exists()


def test_cli_main_audit_rejects_chebweight_list_that_mismatches_K(tmp_path, capsys):
    err, out = _rejected(tmp_path, capsys, "audit", {
        "kernel": {"family": "chebweight", "weights": [1, 2], "K": 5},
        "data": [{"kind": "point", "x": [-0.5]}],
        "eval": [{"kind": "point", "x": [0.1]}],
    })
    assert "K + 1 = 6" in err
    assert not (out / "audit_report.csv").exists()


@pytest.mark.parametrize("spec,named", [
    ({"kernel": {"family": "chebweight", "weights": "(j+1)^2"},
      "data": _POINT, "eval": _POINT}, "'K'"),
    ({"kernel": {"family": "matern", "m": 5, "d": 1},
      "data": [{"kind": "point"}], "eval": _POINT}, "'x'"),
], ids=["chebweight_rule_without_K", "functional_without_x"])
def test_cli_main_audit_names_a_missing_key(tmp_path, capsys, spec, named):
    err, out = _rejected(tmp_path, capsys, "audit", spec)
    assert "lacks key(s) " + named in err
    assert not (out / "audit_report.csv").exists()


def test_cli_main_names_a_missing_config_file(tmp_path, capsys):
    cfg, out = tmp_path / "no_such.json", tmp_path / "out"
    assert main(["kansa", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tradeoff: error: ")
    assert captured.err.count("\n") == 1 and str(cfg) in captured.err
    assert not out.exists()


def test_cli_chebweight_audit(tmp_path):
    spec = {
        "kernel": {"family": "chebweight", "weights": "(j+1)^2", "K": 40},
        "data": [{"kind": "point", "x": [-0.5]}, {"kind": "point", "x": [0.5]}],
        "eval": [{"kind": "point", "x": [0.1]}],
    }
    cfg_file = tmp_path / "audit.json"
    cfg_file.write_text(json.dumps(spec))
    rc = main(["audit", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    line = (tmp_path / "out/audit_report.csv").read_text().splitlines()[1]
    assert float(line.split(",")[5]) == pytest.approx(1.0, rel=1e-5)


def test_every_subcommand_reruns_byte_identical(tmp_path):
    configs = {
        "fig1": {},
        "kansa": {"n_side": 3, "eval_interior_side": 5, "eval_boundary": 8},
        "greedy": {"grid_side": 4, "max_steps": 6},
        "audit": {
            "kernel": {"family": "matern", "m": 5, "d": 2, "c": 1.0},
            "data": [{"kind": "point", "x": [0.0, 0.0]}, {"kind": "point", "x": [0.5, 0.2]},
                     {"kind": "laplacian", "x": [0.3, 0.7]}],
            "eval": [{"kind": "point", "x": [0.25, 0.4]}, {"kind": "point", "x": [0.0, 0.0]},
                     {"kind": "laplacian", "x": [0.6, 0.6]}],
        },
    }
    for name, params in configs.items():
        cfg_file = tmp_path / f"{name}.json"
        cfg_file.write_text(json.dumps(params))
        runs = []
        for rep in ("a", "b"):
            out = tmp_path / name / rep
            assert main([name, "--config", str(cfg_file), "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] and runs[0] == runs[1], name
