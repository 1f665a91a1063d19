import json
import time
from collections import Counter

import numpy as np
import pytest

from tradeoff import cli
from tradeoff.cli import ExperimentConfig, main, run_fig1, run_greedy, run_identities, run_kansa
from tradeoff.errors import BadWeights
from tradeoff.kernels import MaternSobolevKernel


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
    assert "FAIL kernel" in text


def test_identities_suite_filter(tmp_path):
    cfg = ExperimentConfig("identities", params={"suites": ["poly"]},
                           out_dir=tmp_path)
    text, ok = run_identities(cfg)
    assert ok
    assert "poly" in text and "svd" not in text


def test_identities_suite_error_is_a_failure_not_a_crash(tmp_path, monkeypatch):
    def broken(*args):
        raise ArithmeticError("broken ctd")

    monkeypatch.setattr(cli.expansion, "ctd_power", broken)
    cfg = ExperimentConfig("identities", params={"suites": ["ctd", "svd"]},
                           out_dir=tmp_path)
    text, ok = run_identities(cfg)
    assert not ok
    assert "FAIL ctd: raised ArithmeticError: broken ctd" in text
    assert "PASS svd:" in text


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


def test_cli_main_identities_exit_codes(tmp_path):
    rc = main(["identities", "--out", str(tmp_path / "ok"), "--suite", "poly"])
    assert rc == 0
    rc = main(["identities", "--out", str(tmp_path / "bad"), "--perturb"])
    assert rc == 1


def test_cli_main_identities_rejects_unknown_suites(tmp_path):
    cfg = tmp_path / "identities.json"
    cfg.write_text(json.dumps({"suites": ["poly", "kernal"]}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"\['kernal'\]") as err:
        main(["identities", "--config", str(cfg), "--out", str(out)])
    assert all(name in str(err.value) for name in cli.IDENTITY_SUITES)
    assert not (out / "identities_report.txt").exists()


@pytest.mark.parametrize("rtol", [2.0, 0, -1])
def test_cli_main_kansa_rejects_rtol_outside_unit_interval(tmp_path, rtol):
    cfg = tmp_path / "kansa.json"
    cfg.write_text(json.dumps({"n_side": 3, "eval_interior_side": 3,
                               "eval_boundary": 8, "rtol": rtol}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="rtol must lie in"):
        main(["kansa", "--config", str(cfg), "--out", str(out)])
    assert not (out / "kansa_summary.json").exists()


@pytest.mark.parametrize("weights", [[1, 4, 9], True], ids=["list", "true"])
def test_cli_main_fig1_rejects_unparseable_weights(tmp_path, weights):
    cfg = tmp_path / "fig1.json"
    cfg.write_text(json.dumps({"weights": weights}))
    out = tmp_path / "out"
    with pytest.raises(BadWeights, match="weight rule"):
        main(["fig1", "--config", str(cfg), "--out", str(out)])
    assert not (out / "fig1_summary.json").exists()


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
