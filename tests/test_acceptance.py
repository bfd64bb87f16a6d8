"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints `criterion k: PASS/FAIL (detail)` before asserting, so a
plain pytest run yields one line per criterion. The canonical run (n=300,
m=50, J=K=100, alpha=beta=0.01, seed 42) is computed once per session and
shared by criteria 1, 2, 8 and 9.
"""

import numpy as np
import pytest

from oracles import jacobi_sigma1
from sparsecp.linalg import rank1_svd
from sparsecp.metrics import Alignment, normalized_column_errors, rel_frobenius
from sparsecp.runner import SolverConfig, run_online
from sparsecp.synth import gen_sparse_factor
from sparsecp.tensor_core import cp_compose, cp_fibers, khatri_rao_transpose, mode1_unfold
from sparsecp.tensorio import write_metrics_csv
from sparsecp.untangle import untangle_krp

CANONICAL = dict(
    n=300, J=100, K=100, m=50, alpha=0.01, beta=0.01, seed=42,
    T_max=150, eps_T=1e-13, log_every=1, workers=1,
)


def report(k, ok: bool, detail: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {k}: {detail}"


@pytest.fixture(scope="module")
def run1():
    cfg = SolverConfig(**CANONICAL)
    return cfg, run_online(cfg)


def test_criterion_1_exact_recovery(run1):
    cfg, res = run1
    recs = res.records
    hit = next((r.t for r in recs if r.err_A_relF <= 1e-8), None)
    support = all(r.signed_support_ok for r in recs)
    final_x = recs[-1].err_X_relF
    wall_s = sum(r.wall_ms for r in recs) / 1000.0
    ok = hit is not None and support and final_x <= 1e-8
    report(
        1,
        ok,
        f"err_A_relF<=1e-8 at t={hit}, support ok at all {len(recs)} iterations: "
        f"{support}, final err_X_relF={final_x:.2e}, wall={wall_s:.1f}s",
    )


def test_criterion_2_linear_rate(run1):
    _, res = run1
    pts = [(r.t, r.err_A_max) for r in res.records if 10 <= r.t <= 60]
    slope = float(np.polyfit([t for t, _ in pts], [np.log(e) for _, e in pts], 1)[0])
    report(2, slope <= -0.05, f"log err_A_max slope over t=10..60 is {slope:.3f}")


def test_criterion_3_sparsity_trend():
    means = []
    for alpha in (0.005, 0.01, 0.05):
        hits = []
        for seed in (42, 26, 91):
            cfg = SolverConfig(
                n=300, J=100, K=100, m=50, alpha=alpha, beta=alpha, seed=seed,
                T_max=400, eps_T=1e-8, log_every=1,
            )
            res = run_online(cfg)
            hit = next((r.t for r in res.records if r.err_A_relF <= 1e-8), None)
            assert hit is not None, f"alpha={alpha} seed={seed} never reached 1e-8"
            hits.append(hit)
        means.append(sum(hits) / len(hits))
    diffs = [means[i] - means[i + 1] for i in range(2)]
    ok = all(d >= 0.0 for d in diffs) and sum(1 for d in diffs if d == 0.0) <= 1
    report(
        3,
        ok,
        "mean iterations to 1e-8: "
        + " -> ".join(f"{m:.1f}" for m in means)
        + " over alpha=beta in {0.005, 0.01, 0.05}",
    )


def grid_instance(seed, J=50, K=50, m=10, prob=0.1):
    B = gen_sparse_factor(J, m, prob, rng_seed=2 * seed)
    C = gen_sparse_factor(K, m, prob, rng_seed=2 * seed + 1)
    return B, C, khatri_rao_transpose(B, C)


IDENT10 = Alignment(np.arange(10), np.ones(10), np.ones(10))


def test_criterion_4_untangling_exact():
    worst = 0.0
    degenerate = 0
    support_ok = True
    for seed in range(20):
        B, C, S = grid_instance(seed)
        out = untangle_krp(S, 50, 50)
        live = np.array([S[i].any() for i in range(10)])
        for i in np.flatnonzero(~live):
            degenerate += 1
            assert i in out.degenerate_rows
            assert not out.B[:, i].any() and not out.C[:, i].any()
        eb = normalized_column_errors(out.B, B, IDENT10)
        ec = normalized_column_errors(out.C, C, IDENT10)
        worst = max(worst, float(eb[live].max()), float(ec[live].max()))
        support_ok &= np.array_equal(out.B[:, live] != 0, B[:, live] != 0)
        support_ok &= np.array_equal(out.C[:, live] != 0, C[:, live] != 0)
    ok = worst <= 1e-10 and support_ok
    report(
        4,
        ok,
        f"worst column error {worst:.2e} over 20 instances, exact supports: "
        f"{support_ok}, degenerate atoms skipped: {degenerate}",
    )


def test_criterion_5_perturbation_scaling():
    sums = {1e-2: 0.0, 1e-3: 0.0}
    count = 0
    for seed in range(20):
        B, C, S = grid_instance(seed)
        live = np.array([S[i].any() for i in range(10)])
        rng = np.random.default_rng(1000 + seed)
        U = np.where(S != 0.0, rng.uniform(-1.0, 1.0, size=S.shape), 0.0)
        count += 2 * int(live.sum())
        for zeta in sums:
            out = untangle_krp(S + zeta * U, 50, 50)
            eb = normalized_column_errors(out.B, B, IDENT10)
            ec = normalized_column_errors(out.C, C, IDENT10)
            sums[zeta] += float(eb[live].sum() + ec[live].sum())
    ratio = (sums[1e-3] / count) / (sums[1e-2] / count)
    ok = 1e-3 <= ratio <= 1e-1
    report(5, ok, f"mean error ratio (zeta 1e-3 over 1e-2) = {ratio:.8f}")


def test_criterion_6_column_sparsity():
    # Asks every retained column to be a near-singleton: with per-entry
    # retention 0.0025 over 200 atoms the bound 2*alpha*beta*m equals 1,
    # and a non-empty Binomial(200, 0.0025) column has two or more
    # entries ~23% of the time, so no draw count reaches 99%. Reported
    # red rather than loosened.
    m, alpha = 200, 0.05
    bound = 2.0 * alpha * alpha * m
    within = total = 0
    for i in range(200):
        b = gen_sparse_factor(1, m, alpha, rng_seed=5000 + 2 * i)
        c = gen_sparse_factor(1, m, alpha, rng_seed=5000 + 2 * i + 1)
        col = khatri_rao_transpose(b, c)[:, 0]
        nnz = int(np.count_nonzero(col))
        if nnz == 0:
            continue
        total += 1
        within += int(nnz <= bound)
    frac = within / total
    report(
        "6a",
        frac >= 0.99,
        f"{within}/{total} non-empty columns within sparsity bound {bound:.0f} "
        f"({frac:.1%}, needs 99%)",
    )


def test_criterion_6_column_retention():
    # p is counted as the loop counts it: cp_fibers keeps the union of the
    # atoms' support pairs (j, k), and the count does not depend on A
    J = K = 500
    details = []
    ok = True
    for m, gamma in ((300, 1e-4), (50, 2.5e-3)):
        prob = float(np.sqrt(gamma))
        expected = 1.0 - (1.0 - gamma) ** m
        ratios = []
        for seed in range(20):
            B = gen_sparse_factor(J, m, prob, rng_seed=3000 + 2 * seed)
            C = gen_sparse_factor(K, m, prob, rng_seed=3000 + 2 * seed + 1)
            ratios.append(cp_fibers(np.ones((1, m)), B, C).cmap.p / (J * K))
        rel = abs(float(np.mean(ratios)) - expected) / expected
        ok &= rel <= 0.10
        details.append(f"m={m} gamma={gamma}: rel err {rel:.4f}")
    report("6b", ok, "; ".join(details) + " (tolerance 10%)")


def test_criterion_7_structural_identities():
    rng = np.random.default_rng(2024)
    worst_unfold = 0.0
    for _ in range(1000):
        n, J, K, m = rng.integers(1, 9, size=4)
        A = rng.standard_normal((n, m))
        B = rng.standard_normal((J, m))
        C = rng.standard_normal((K, m))
        lhs = mode1_unfold(cp_compose(A, B, C))
        rhs = A @ khatri_rao_transpose(B, C)
        worst_unfold = max(worst_unfold, rel_frobenius(lhs, rhs))
    worst_svd = 0.0
    for _ in range(200):
        M = rng.standard_normal((6, 6))
        ours = rank1_svd(M).sigma1
        ref = jacobi_sigma1(M)
        worst_svd = max(worst_svd, abs(ours - ref) / ref)
    ok = worst_unfold <= 1e-12 and worst_svd <= 1e-8
    report(
        7,
        ok,
        f"unfold identity worst rel {worst_unfold:.2e} over 1000 instances; "
        f"sigma1 vs Jacobi worst rel {worst_svd:.2e} over 200 matrices",
    )


def test_criterion_8_descent_direction(run1):
    _, res = run1
    recs = res.records
    nonneg = sum(1 for r in recs if r.min_descent_corr >= 0.0)
    frac = nonneg / len(recs)
    report(
        8,
        frac >= 0.99,
        f"min_descent_corr >= 0 at {nonneg}/{len(recs)} iterations ({frac:.2%})",
    )


def test_criterion_9_determinism(run1, tmp_path):
    cfg, res = run1
    first = tmp_path / "metrics_1.csv"
    write_metrics_csv(first, res.records)
    again = tmp_path / "metrics_1_again.csv"
    write_metrics_csv(again, run_online(cfg).records)
    threaded = tmp_path / "metrics_8.csv"
    cfg8 = SolverConfig(**{**CANONICAL, "workers": 8})
    write_metrics_csv(threaded, run_online(cfg8).records)
    same_rerun = first.read_bytes() == again.read_bytes()
    same_workers = first.read_bytes() == threaded.read_bytes()
    report(
        9,
        same_rerun and same_workers,
        f"rerun byte-identical: {same_rerun}, workers=8 byte-identical: {same_workers}",
    )
