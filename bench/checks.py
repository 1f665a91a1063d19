"""Per-operation correctness checks on the files a job wrote.

Each checker takes the job and a mapping of output file name to text and
returns how many of the job's ``ops`` operations failed.  A structural
problem (a missing file, a wrong row count) raises ``CheckError``.  The
checks run outside the timed region.  ``corrupt`` makes one operation of a
real output wrong, so a run can prove that each checker counts it.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads

# the library's own identity tolerance for the audit product
AUDIT_PRODUCT_TOL = 1e-5
# unsymmetric collocation may not beat optimal recovery by more than this
KANSA_POWER_SLACK = 1e-8
# greedy powers are compared at this relative precision, ties included
GREEDY_RTOL = 1e-9
# fig1 invariants: product >= 1 and a norm-minimal bump no larger than the
# Lagrangian, both up to roundoff
FIG1_RTOL = 1e-8


class CheckError(Exception):
    """Output missing or malformed: the job's operations cannot be checked."""


def read_outputs(out_dir: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _need(files: dict, name: str) -> str:
    if name not in files:
        raise CheckError(f"missing output {name}")
    return files[name]


def _table(text: str, columns) -> tuple[dict, list[list[str]]]:
    """Column positions by name, and the data rows; extra columns are fine."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in columns if c not in header]
    if missing:
        raise CheckError(f"CSV lacks columns {missing}")
    return {c: header.index(c) for c in header}, [line.split(",") for line in lines[1:]]


KANSA_COLUMNS = ("p2_unsym", "p2_sym")
GREEDY_COLUMNS = ("candidate_id", "x", "y", "max_power")
AUDIT_COLUMNS = ("product", "flag")


def kansa_failures(job, files) -> int:
    """One operation per surface row: p2_unsym >= p2_sym - slack."""
    failed = n_rows = 0
    for name in ("kansa_interior.csv", "kansa_boundary.csv"):
        col, rows = _table(_need(files, name), KANSA_COLUMNS)
        n_rows += len(rows)
        failed += sum(not float(r[col["p2_unsym"]]) >= float(r[col["p2_sym"]]) - KANSA_POWER_SLACK
                      for r in rows)
    if n_rows != job.ops:
        raise CheckError(f"{n_rows} surface rows, expected {job.ops}")
    return failed


def greedy_failures(job, files) -> int:
    """One operation per step: the max-power sequence is nonincreasing, the
    row names the candidate it claims, and at checkpoint steps a from-scratch
    PowerContext on the job's own selected prefix confirms that the chosen
    candidate attains the maximum (a tie counts as correct)."""
    from tradeoff.functionals import FunctionalSet, PointEval
    from tradeoff.kernel_recovery import PowerContext
    from tradeoff.kernels import MaternSobolevKernel

    col, rows = _table(_need(files, "greedy_trace.csv"), GREEDY_COLUMNS)
    config = job.config
    points = workloads.greedy_candidates(config)
    kernel = MaternSobolevKernel(config["m"], config["d"], config["c"])
    cands = [PointEval(p) for p in points]
    ids = [int(r[col["candidate_id"]]) for r in rows]
    powers = [float(r[col["max_power"]]) for r in rows]
    failed = max(job.ops - len(rows), 0)
    n = min(len(rows), job.ops)
    checkpoints = {0, n // 4, n // 2, n - 1}
    for k in range(n):
        ok = 0 <= ids[k] < len(points) and ids[k] not in ids[:k]
        xy = (float(rows[k][col["x"]]), float(rows[k][col["y"]]))
        ok = ok and xy == points[ids[k]]
        ok = ok and (k == 0 or powers[k] <= powers[k - 1] * (1.0 + GREEDY_RTOL))
        if ok and k in checkpoints:
            prefix = FunctionalSet([cands[i] for i in ids[:k]]) if k else None
            remaining = [i for i in range(len(points)) if i not in ids[:k]]
            p2, _, _ = PowerContext(kernel, prefix).power_batch([cands[i] for i in remaining])
            best = math.sqrt(float(np.max(p2)))
            chosen = math.sqrt(float(p2[remaining.index(ids[k])]))
            ok = chosen >= best * (1.0 - GREEDY_RTOL)
        failed += not ok
    return failed


def audit_failures(job, files) -> int:
    """One operation per row: a row flagged ok must have |product - 1| within
    the identity tolerance."""
    col, rows = _table(_need(files, "audit_report.csv"), AUDIT_COLUMNS)
    if len(rows) != job.ops:
        raise CheckError(f"{len(rows)} audit rows, expected {job.ops}")
    return sum(_audit_row_fails(r, col) for r in rows)


def _audit_row_fails(row, col) -> bool:
    return (row[col["flag"]] == "ok"
            and not abs(float(row[col["product"]]) - 1.0) <= AUDIT_PRODUCT_TOL)


def identities_failures(job, files) -> int:
    """One operation per suite the job ran; a suite fails unless its line
    reads PASS."""
    lines = set(_need(files, "identities_report.txt").splitlines())
    suites = [a for a in job.args if a in workloads.IDENTITY_SUITES] or workloads.IDENTITY_SUITES
    if len(suites) != job.ops:
        raise CheckError(f"{len(suites)} suites for {job.ops} operations")
    return sum(not any(line.startswith(f"PASS {name}:") for line in lines)
               for name in suites)


def fig1_failures(job, files) -> int:
    """One operation per node family: power times Lagrangian norm is at least
    one, the minimal bump is no larger than the Lagrangian, the one-term power
    bounds the power from below, and the curves are finite."""
    summary = json.loads(_need(files, "fig1_summary.json"))
    if sorted(summary) != sorted(workloads.FIG1_FAMILIES):
        raise CheckError(f"fig1 families {sorted(summary)}")
    failed = 0
    for fam, s in summary.items():
        curve = np.loadtxt(_need(files, f"fig1_{fam}.dat").splitlines(), ndmin=2)
        ok = (s["product"] >= 1.0 - FIG1_RTOL
              and s["power"] * s["bump_norm"] >= 1.0 - FIG1_RTOL
              and s["bump_norm"] <= s["lagr_norm"] * (1.0 + FIG1_RTOL)
              and s["power_one_term"] <= s["power"] * (1.0 + FIG1_RTOL)
              and curve.shape[1] == 3 and bool(np.all(np.isfinite(curve))))
        failed += not ok
    return failed


CHECKERS = {
    "kansa": kansa_failures,
    "greedy": greedy_failures,
    "p_greedy": greedy_failures,
    "audit": audit_failures,
    "identities": identities_failures,
    "fig1": fig1_failures,
}


def count_failures(job, files) -> int:
    return CHECKERS[job.command](job, files)


# ---------------------------------------------------------------------------
# negative controls: each corrupts one operation of a real output

def _replace_field(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[col] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def corrupt(job, files) -> list[dict]:
    """Copies of ``files``, each with one operation made wrong."""
    if job.command == "kansa":
        text = files["kansa_interior.csv"]
        col, rows = _table(text, KANSA_COLUMNS)
        low = repr(float(rows[0][col["p2_sym"]]) - 1.0)
        return [{**files, "kansa_interior.csv": _replace_field(text, 0, "p2_unsym", low)}]
    if job.command in ("greedy", "p_greedy"):
        text = files["greedy_trace.csv"]
        col, rows = _table(text, GREEDY_COLUMNS)
        last = len(rows) - 1
        rising = _replace_field(text, last, "max_power",
                                repr(2.0 * float(rows[0][col["max_power"]])))
        # swap the checkpoint pick at n // 2 with the last pick: a candidate
        # chosen later has a smaller power at this step unless it is tied
        k = len(rows) // 2
        swapped = text
        for c in ("candidate_id", "x", "y"):
            swapped = _replace_field(swapped, k, c, rows[last][col[c]])
            swapped = _replace_field(swapped, last, c, rows[k][col[c]])
        return [{**files, "greedy_trace.csv": rising},
                {**files, "greedy_trace.csv": swapped}]
    if job.command == "audit":
        text = files["audit_report.csv"]
        col, rows = _table(text, AUDIT_COLUMNS)
        ok_rows = [i for i, r in enumerate(rows)
                   if r[col["flag"]] == "ok" and not _audit_row_fails(r, col)]
        return [{**files, "audit_report.csv": _replace_field(text, i, "product", "1.001")}
                for i in ok_rows[:1]]
    if job.command == "fig1":
        summary = json.loads(files["fig1_summary.json"])
        summary[workloads.FIG1_FAMILIES[0]]["product"] = 0.5
        return [{**files, "fig1_summary.json": json.dumps(summary)}]
    return []
