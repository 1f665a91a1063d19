"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured value at its stated tolerance."""
import math
import time

import numpy as np

from tradeoff import expansion as ex
from tradeoff.cli import ExperimentConfig, run_fig1, run_identities, run_kansa
from tradeoff.functionals import FunctionalSet, LaplacianEval, PointEval
from tradeoff.greedy import p_greedy
from tradeoff.kernel_recovery import PowerContext
from tradeoff.kernels import MaternSobolevKernel
from tradeoff.unsymmetric import SvdRecovery, svd_bump_min, svd_power_squared


def _report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


# 1. polynomial identity -----------------------------------------------------

def test_criterion_1_polynomial_identity():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        nodes = np.sort(rng.uniform(-1.0, 1.0, n + 1))
        while np.min(np.diff(nodes)) < 1e-9:
            nodes = np.sort(rng.uniform(-1.0, 1.0, n + 1))
        x = float(rng.uniform(-1.0, 1.0))
        while np.min(np.abs(x - nodes)) < 1e-9:
            x = float(rng.uniform(-1.0, 1.0))
        prod = ex.poly_power(nodes, x) * ex.poly_lagrangian_seminorm(nodes, x)
        worst = max(worst, abs(prod - 1.0))
    elapsed = time.time() - t0
    _report("criterion 1 (polynomial identity)",
            worst <= 1e-11 and elapsed < 1.0,
            f"max dev {worst:.3e} (tol 1e-11), {elapsed:.2f}s (< 1s)")


# 2. connect-the-dots band ---------------------------------------------------

def test_criterion_2_ctd_band():
    rng = np.random.default_rng(2)
    lo, hi, mid_dev = math.inf, -math.inf, 0.0
    for _ in range(10_000):
        xk = float(rng.uniform(-1.0, 1.0))
        width = float(rng.uniform(1e-3, 2.0))
        xk1 = xk + width
        x = xk + float(rng.uniform(1e-6, 1 - 1e-6)) * width
        prod = ex.ctd_power(xk, xk1, x) * ex.ctd_lagrangian_norm(xk, xk1, x)
        lo, hi = min(lo, prod), max(hi, prod)
        xm = xk + 0.5 * width
        pm = ex.ctd_power(xk, xk1, xm) * ex.ctd_lagrangian_norm(xk, xk1, xm)
        mid_dev = max(mid_dev, abs(pm - 1.0))
    passed = lo >= 1.0 - 1e-12 and hi <= 2.0 + 1e-12 and mid_dev <= 1e-12
    _report("criterion 2 (connect-the-dots band)", passed,
            f"products in [{lo:.12f}, {hi:.12f}] (band [1,2] +/- 1e-12), "
            f"midpoint dev {mid_dev:.3e}")


# 3. Taylor / orthogonal equalities -----------------------------------------

def test_criterion_3_taylor_ortho():
    rng = np.random.default_rng(3)
    rules = ["1", "0.37", "(j+1)^2", "(j+2)^3",
             "factorial_sq_over:2^j", "factorial_sq_over:3^j"]
    worst = 0.0
    for _ in range(100):
        rule = rules[int(rng.integers(0, len(rules)))]
        k = int(rng.integers(0, 40))
        prod = ex.taylor_power(rule, k) * ex.taylor_lagrangian_norm(rule, k)
        worst = max(worst, abs(prod - 1.0))
    for _ in range(100):
        tail = rng.normal(size=int(rng.integers(1, 60)))
        power, _, bump_norm = ex.ortho_power_and_bump(tail)
        worst = max(worst, abs(power * bump_norm - 1.0))
    _report("criterion 3 (Taylor/orthogonal equalities)", worst <= 1e-12,
            f"max |product - 1| = {worst:.3e} (tol 1e-12)")


# 4 + 5. kernel trade-off equality and Schur-vs-bordered agreement -----------

def _acceptance_sweep():
    """Seeded random Matern configurations shared by criteria 4 and 5."""
    rng = np.random.default_rng(2026)
    for m in (3, 4, 5):
        for d in (1, 2):
            kernel = MaternSobolevKernel(m, d, 0.5)
            if d == 1:
                n = int(rng.integers(8, 13))
                pts = (np.linspace(-1, 1, n)
                       + rng.uniform(-0.35, 0.35, n) / n)[:, None]
            else:
                n = int(rng.integers(20, 31))
                pts = rng.uniform(-1.0, 1.0, size=(n, 2))
            lam_set = FunctionalSet([PointEval(tuple(p)) for p in pts])
            mus = []
            while len(mus) < 50:
                q = rng.uniform(-1.5, 1.5, size=d)
                if np.min(np.linalg.norm(pts - q, axis=1)) >= 0.2:
                    mus.append(PointEval(tuple(q)))
            yield kernel, lam_set, mus


def test_criteria_4_and_5_kernel_tradeoff_and_route_agreement():
    t0 = time.time()
    worst_prod, worst_agree = 0.0, 0.0
    n_mu = 0
    for kernel, lam_set, mus in _acceptance_sweep():
        ctx = PowerContext(kernel, lam_set)
        for mu in mus:
            ev = ctx.power_squared(mu, cross_check=False)
            if ev.excluded:
                continue
            n_mu += 1
            s = ev.power_squared
            b = ev.bordered
            worst_agree = max(worst_agree, abs(b - s) / s)
            n2 = ctx.lagrangian_norm_squared(ev)
            worst_prod = max(worst_prod, abs(s * n2 - 1.0))
    elapsed = time.time() - t0
    _report("criterion 4 (kernel trade-off equality)",
            worst_prod <= 1e-5 and elapsed < 10.0,
            f"max |P^2*norm^2 - 1| = {worst_prod:.3e} over {n_mu} evaluations "
            f"(tol 1e-5), {elapsed:.2f}s (< 10s)")
    _report("criterion 5 (Schur vs bordered agreement)", worst_agree <= 1e-7,
            f"max relative gap {worst_agree:.3e} (tol 1e-7)")


# 6. Fig. 1 reproduction ------------------------------------------------------

def test_criterion_6_fig1(tmp_path):
    t0 = time.time()
    summary = run_fig1(ExperimentConfig("fig1", out_dir=tmp_path))
    elapsed = time.time() - t0
    published = {"equidistant": (4.43, 2.43), "chebyshev": (19.47, 3.3)}
    products_published = (2.62, 1.30)

    eq = summary["equidistant"]
    matches = {}
    for conv in ("chebyshev_extrema", "chebyshev_zeros"):
        ch = summary[conv]
        devs = [
            abs(eq["lagr_norm"] - published["equidistant"][0]) / published["equidistant"][0],
            abs(eq["bump_norm"] - published["equidistant"][1]) / published["equidistant"][1],
            abs(ch["lagr_norm"] - published["chebyshev"][0]) / published["chebyshev"][0],
            abs(ch["bump_norm"] - published["chebyshev"][1]) / published["chebyshev"][1],
        ]
        prods = sorted([eq["product"], ch["product"]], reverse=True)
        prod_devs = [abs(prods[0] - 2.62) / 2.62, abs(prods[1] - 1.30) / 1.30]
        matches[conv] = (max(devs), max(prod_devs))

    best = min(matches, key=lambda c: matches[c][0])
    norm_dev, prod_dev = matches[best]
    passed = norm_dev <= 0.05 and prod_dev <= 0.10 and elapsed < 10.0
    if not passed:
        # escape hatch: report both conventions for manual adjudication
        print("criterion 6 escape hatch, per-convention values:")
        for conv, vals in summary.items():
            print(f"  {conv}: {vals}")
    _report("criterion 6 (Fig. 1 reproduction)", passed,
            f"convention {best}: norm dev {norm_dev:.3%} (tol 5%), "
            f"product dev {prod_dev:.3%} (tol 10%), {elapsed:.2f}s (< 10s)")


# 7. Kansa experiment bands ---------------------------------------------------

def test_criterion_7_kansa_bands(tmp_path):
    t0 = time.time()
    summary = run_kansa(ExperimentConfig("kansa", out_dir=tmp_path))
    elapsed = time.time() - t0
    ratio = summary["ratio_max_interior"]
    factor = summary["median_pseudo_factor"]
    passed = (1.2 <= ratio <= 4.0 and 8.0 <= factor <= 35.0
              and summary["pointwise_violations"] == 0 and elapsed < 60.0)
    _report("criterion 7 (Kansa bands)", passed,
            f"max-ratio {ratio:.2f} (band [1.2, 4.0]), median pseudo factor "
            f"{factor:.1f} (band [8, 35]), {summary['pointwise_violations']} "
            f"pointwise violations, {elapsed:.1f}s (< 60s)")


# 8. SVD / Tikhonov ------------------------------------------------------------

def test_criterion_8_svd_tikhonov():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 12))
        n_pos = int(rng.integers(0, m))
        sigma = np.sort(rng.uniform(0.1, 5.0, size=n_pos))[::-1]
        rec = SvdRecovery(sigma, m=m)
        mu = rng.normal(size=m)
        if not np.any(mu[rec.zero_mask()] != 0.0):
            mu[-1] = 1.0
        p2 = svd_power_squared(rec, mu)
        _, norm = svd_bump_min(rec, mu)
        worst = max(worst, abs(p2 * norm ** 2 - 1.0))
    mono_ok = True
    for _ in range(10):
        m = int(rng.integers(2, 8))
        sigma = np.sort(rng.uniform(0.0, 3.0, size=m))[::-1]
        mu = rng.normal(size=m)
        taus = np.linspace(1e-4, 4.0, 20)
        vals = [svd_power_squared(SvdRecovery(sigma, tau=t), mu) for t in taus]
        mono_ok &= bool(np.all(np.diff(vals) >= -1e-12))
    _report("criterion 8 (SVD/Tikhonov)", worst <= 1e-12 and mono_ok,
            f"max |P^2*norm^2 - 1| = {worst:.3e} (tol 1e-12), "
            f"Tikhonov monotone: {mono_ok}")


# 9. greedy --------------------------------------------------------------------

def test_criterion_9_greedy():
    kernel = MaternSobolevKernel(5, 2, 1.0)
    h = (np.arange(10) + 0.5) / 10.0
    cands = FunctionalSet([PointEval((x, y)) for x in h for y in h])
    trace = p_greedy(kernel, cands, max_steps=25)
    powers = np.array(trace.max_powers)
    nonincreasing = bool(np.all(np.diff(powers) <= 1e-9))
    distinct = len(set(trace.selected)) == len(trace.selected) == 25
    _report("criterion 9 (greedy)", nonincreasing and distinct,
            f"25 steps, nonincreasing: {nonincreasing}, "
            f"distinct selections: {distinct}")


# 10. kernel-derivative correctness ---------------------------------------------

def test_criterion_10_laplacian_fd():
    kernel = MaternSobolevKernel(5, 2, 1.0)
    rng = np.random.default_rng(0)
    h = 1e-3
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    worst = 0.0
    for _ in range(50):
        r = float(rng.uniform(0.05, 2.0))
        th = float(rng.uniform(0.0, 2.0 * np.pi))
        p = rng.uniform(-1.0, 1.0, 2)
        q = p + r * np.array([np.cos(th), np.sin(th)])

        def kval(y):
            return kernel.apply(PointEval(tuple(p)), PointEval(tuple(y)))

        fd = (kval(q + e1) + kval(q - e1) + kval(q + e2) + kval(q - e2)
              - 4.0 * kval(q)) / h ** 2
        exact = kernel.apply(PointEval(tuple(p)), LaplacianEval(tuple(q)))
        worst = max(worst, abs(fd - exact) / abs(exact))
    _report("criterion 10 (Laplacian vs 5-point FD)", worst <= 1e-5,
            f"max relative dev {worst:.3e} over 50 pairs (tol 1e-5)")


# 11. determinism ----------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    text1, ok1 = run_identities(
        ExperimentConfig("identities", out_dir=tmp_path / "a", seed=0))
    text2, ok2 = run_identities(
        ExperimentConfig("identities", out_dir=tmp_path / "b", seed=0))
    same = (tmp_path / "a/identities_report.txt").read_bytes() \
        == (tmp_path / "b/identities_report.txt").read_bytes()
    _report("criterion 11 (determinism)", ok1 and ok2 and same,
            f"identity suite passes: {ok1 and ok2}, byte-identical reports: {same}")
