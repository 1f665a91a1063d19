"""The console checks: each case runs ``python -m tradeoff.cli`` in a fresh
interpreter, as the installed ``tradeoff`` script does, and reads the JSON
summary it prints."""
import json
import os
import subprocess
import sys
from pathlib import Path

import tradeoff


def _cli_summary(command, config, tmp_path):
    """The JSON summary that ``python -m tradeoff.cli command`` prints in a
    fresh interpreter for config, and its --out directory."""
    path, out = tmp_path / f"{command}.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(Path(tradeoff.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "tradeoff.cli", command, "--config", str(path),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout), out


def test_the_60x60_greedy_grid_stops_singular_after_182_picks(tmp_path):
    # its kernel columns come from one radial table
    summary, _ = _cli_summary("greedy", {"grid_side": 60, "max_steps": 300, "m": 5, "d": 2,
                                         "c": 1.0}, tmp_path)
    assert summary["steps"] == 182 and summary["stop_reason"] == "singular", summary
    assert summary["unresolved_from"] == 40 and summary["route_gap"] <= 1.0, summary


def test_a_1d_greedy_grid_is_unresolved_from_step_20(tmp_path):
    # its kernel columns take one cross call each
    summary, out = _cli_summary("greedy", {"grid_side": 40, "max_steps": 30, "m": 4, "d": 1,
                                           "c": 0.5}, tmp_path)
    assert len((out / "greedy_trace.csv").read_text().splitlines()) == 1 + 30
    assert summary["unresolved_from"] == 20 and summary["route_gap"] <= 1.0, summary


_KANSA_SMALL = {"n_side": 5, "eval_interior_side": 5, "eval_boundary": 8}


def test_a_small_kansa_run_has_no_pointwise_violation(tmp_path):
    # the Kansa power, the bordered form at the pseudo-Lagrange values,
    # never lies below the symmetric one; the evaluation grid is the data
    # grid, so there is no ratio of roundoff
    summary, _ = _cli_summary("kansa", _KANSA_SMALL, tmp_path)
    assert summary["pointwise_violations"] == 0, summary
    assert summary["ratio_max_interior"] is None, summary


def test_a_small_kansa_run_off_the_data_grid_has_no_pointwise_violation(tmp_path):
    # the trial points are the 5 x 5 grid shifted by half a step, so the
    # factored coefficient map C = W U_r^T runs where trial sites are not
    # data sites
    h = [(2 * i + 3) / 12 for i in range(5)]
    config = dict(_KANSA_SMALL, trial_points=[[x, y] for x in h for y in h])
    summary, _ = _cli_summary("kansa", config, tmp_path)
    assert summary["pointwise_violations"] == 0, summary
    assert summary["rank"] <= min(summary["M"], summary["N"]), summary
