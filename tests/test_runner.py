import dataclasses
import importlib
import math
import pkgutil
import re
import time
import weakref

import numpy as np
import pytest

import sparsecp
from sparsecp import linalg, runner, untangle
from sparsecp.linalg import CollapsedColumnError
from sparsecp.dict_update import SampleMode
from sparsecp.metrics import Alignment
from sparsecp.runner import (
    ETA_A_PRESETS,
    FileSource,
    RunMode,
    RunResult,
    SolverConfig,
    SyntheticSource,
    run_online,
)
from sparsecp.sparse_coding import IhtDivergenceError
from sparsecp.synth import (
    Distribution,
    GroundTruth,
    SparsityParams,
    child_seed,
    gen_dictionary,
    gen_factor_pair,
    gen_tensor_instance,
    perturb_init,
)
from sparsecp.tensor_core import (
    ColumnIndexMap,
    FiberSample,
    cp_fibers,
    extract_nonzero_columns,
    mode1_unfold,
)

from oracles import descent_correlation, independent_column_indices, nonzero_fibers, traced_peak

TINY = 1e-300  # effectively "never stop on eps_T"


def cfg_small(**kw):
    base = dict(
        n=40, J=15, K=15, m=6, alpha=0.1, beta=0.1, eta_A=5.0,
        T_max=10, eps_T=TINY, log_every=1, seed=1,
    )
    base.update(kw)
    return SolverConfig(**base)


def test_single_iteration_run():
    res = run_online(cfg_small(T_max=1))
    assert len(res.records) == 1
    assert res.records[0].t == 0
    assert res.iterations == 1
    assert res.stop_reason == "max_iterations"
    assert not res.converged
    assert res.A.shape == (40, 6)
    assert res.B.shape == (15, 6)
    assert res.C.shape == (15, 6)


def test_planted_dictionary_is_fixed_point():
    # start exactly at the target; with enough inner iterations the code
    # estimate hits its fixed point and the dictionary stays put to the
    # gradient noise floor
    cfg = SolverConfig(
        n=80, J=30, K=30, m=10, alpha=0.05, beta=0.05, eps0=0.0, eta_A=20.0,
        T_max=15, eps_T=TINY, log_every=1, seed=3, R=260,
    )
    res = run_online(cfg)
    assert max(r.err_A_max for r in res.records) <= 1e-11
    assert all(r.signed_support_ok for r in res.records)
    assert max(r.err_X_relF for r in res.records) <= 1e-12


def test_empty_iterations_are_skipped_not_fatal():
    # factors this sparse produce an all-zero tensor most iterations
    cfg = SolverConfig(
        n=12, J=3, K=3, m=2, alpha=0.05, beta=0.05, eta_A=1.0,
        T_max=40, eps_T=TINY, log_every=1, seed=0,
    )
    res = run_online(cfg)
    assert len(res.records) == 40
    empties = [r for r in res.records if r.p == 0]
    assert empties
    assert len(empties) <= res.idle_iterations < 40  # an empty sample teaches nothing
    for r in empties:
        assert r.p_indep == 0
        assert r.data_fit == 0.0
        assert r.min_descent_corr == 0.0
        assert r.signed_support_ok
        assert r.err_X_relF == 0.0


def test_batch_mode_reuses_one_instance():
    res = run_online(cfg_small(mode=RunMode.BATCH, T_max=6))
    ps = {r.p for r in res.records}
    assert len(ps) == 1
    # online draws differ across iterations with probability one
    res_on = run_online(cfg_small(T_max=6))
    assert len({r.p for r in res_on.records}) > 1


@pytest.mark.parametrize("kind", ["synthetic", "files"])
def test_batch_mode_takes_one_instance(kind):
    cfg = cfg_small(mode=RunMode.BATCH, T_max=5)
    source = SyntheticSource(cfg) if kind == "synthetic" else FileSource(
        cfg, planted_tensors(cfg, 3)
    )
    asked = []
    draw = source.instance
    source.instance = lambda t: asked.append(t) or draw(t)
    res = run_online(cfg, source)
    assert res.iterations == 5
    assert asked == [0]


def test_data_fit_bounded_and_decreasing_tail():
    res = run_online(cfg_small(T_max=25, eta_A=8.0))
    assert all(r.data_fit <= 1.0 + 1e-12 for r in res.records)
    assert res.records[-1].err_A_max < res.records[0].err_A_max


def test_log_every_keeps_schedule_and_final():
    res = run_online(cfg_small(T_max=12, log_every=5))
    assert [r.t for r in res.records] == [0, 5, 10, 11]


def cfg_canonical(**kw):
    # the paper's regime: every seed tried (0-9 and 42) converges in 78-109 iterations
    return SolverConfig(
        n=300, J=100, K=100, m=50, alpha=0.01, beta=0.01, T_max=300, eps_T=1e-10, **kw
    )


def test_convergence_stop():
    res = run_online(cfg_canonical())
    assert res.converged
    assert res.stop_reason == "converged"
    last = res.records[-1]
    assert last.err_A_max <= 1e-10
    assert res.iterations < 300
    # B and C are scored on the atoms the sample shows, so they are recovered too
    assert max(last.err_B_max, last.err_C_max) <= 1e-8


class NoisySource:
    """SyntheticSource with sigma * N(0, 1/n) added to every stored fiber
    entry; iteration t's noise is drawn from default_rng([7, t])."""

    def __init__(self, cfg, sigma):
        self._planted = SyntheticSource(cfg)
        self._sigma = sigma

    def initial_dictionary(self):
        return self._planted.initial_dictionary()

    def instance(self, t):
        sample, gt = self._planted.instance(t)
        noise = np.random.default_rng([7, t]).standard_normal(sample.Y.shape)
        Y = sample.Y + self._sigma / np.sqrt(sample.Y.shape[0]) * noise
        return FiberSample(sample.shape, sample.cmap, Y), gt


def test_noise_floor_is_linear_in_sigma():
    # with noise the run stops at T_max, its dictionary error level with the
    # noise: the same multiple of sigma over two decades, supports intact
    ratios = []
    for sigma in (1e-4, 1e-3, 1e-2):
        cfg = SolverConfig(n=300, J=100, K=100, m=50, alpha=0.01, beta=0.01,
                           T_max=150, eps_T=1e-13, seed=42)
        last = run_online(cfg, NoisySource(cfg, sigma)).records[-1]
        assert last.signed_support_ok
        ratios.append(last.err_A_relF / sigma)
    assert all(0.5 <= r <= 2.0 for r in ratios)
    assert max(ratios) <= 1.1 * min(ratios)


@pytest.mark.parametrize("stop_reason", ["converged", "max_iterations", "source_exhausted"])
def test_converged_follows_stop_reason(stop_reason):
    # converged is derived, not stored, so it cannot disagree with stop_reason
    Z = np.zeros((2, 1))
    res = RunResult((), Z, Z, Z, Z, stop_reason=stop_reason, iterations=1,
                    idle_iterations=0, wall_ms=0.0)
    assert res.converged == (stop_reason == "converged")
    assert "converged" not in {f.name for f in dataclasses.fields(RunResult)}


def test_convergence_on_an_unlogged_iteration_is_logged_once():
    every = run_online(cfg_canonical())
    t_stop = every.records[-1].t
    assert every.converged and t_stop > 2
    for log_every in (t_stop - 1, t_stop, t_stop + 1):
        res = run_online(cfg_canonical(log_every=log_every))
        assert res.converged and res.iterations == t_stop + 1
        want = sorted({0, t_stop} | ({log_every} if log_every <= t_stop else set()))
        assert [r.t for r in res.records] == want
        last, ref = res.records[-1], every.records[-1]
        assert (last.err_A_max, last.data_fit) == (ref.err_A_max, ref.data_fit)


def test_determinism_modulo_wall_time():
    a = run_online(cfg_small(T_max=8))
    b = run_online(cfg_small(T_max=8))
    for ra, rb in zip(a.records, b.records):
        assert ra.t == rb.t and ra.p == rb.p
        assert ra.err_A_max == rb.err_A_max
        assert ra.err_X_relF == rb.err_X_relF
        assert ra.min_descent_corr == rb.min_descent_corr
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.C, b.C)
    assert np.array_equal(a.X, b.X)


def test_p_indep_counts_diagonal_blocks():
    cfg = cfg_small(T_max=1, alpha=0.3, beta=0.3)
    src = SyntheticSource(cfg)
    res = run_online(cfg, source=SyntheticSource(cfg))
    # the dense reference of the same draw
    Z, _ = gen_tensor_instance(
        cfg.n, cfg.J, cfg.K, cfg.m, cfg.sparsity(), cfg.dist, cfg.C_lb, src.A_star,
        child_seed(cfg.seed, 2, 0),
    )
    _, cmap = extract_nonzero_columns(mode1_unfold(Z), cfg.zero_tol)
    assert np.array_equal(src.instance(0)[0].cmap.kept, cmap.kept)
    indep = set(independent_column_indices(cfg.J, cfg.K).tolist())
    manual = sum(1 for c in cmap.kept.tolist() if c in indep)
    assert res.records[0].p_indep == manual
    assert res.records[0].p == cmap.p


def test_independent_only_sampling_runs():
    res = run_online(cfg_small(T_max=20, sample_mode=SampleMode.INDEPENDENT_ONLY, alpha=0.2, beta=0.2))
    assert all(r.p_indep <= r.p for r in res.records)
    assert res.records[-1].err_A_max < res.records[0].err_A_max


def test_run_allocates_no_dense_sample_or_code_matrix():
    # n*J*K would be 36 MB and m*J*K 7.2 MB; a sample holds n*p values
    cfg = SolverConfig(
        n=50, J=300, K=300, m=10, alpha=0.01, beta=0.01, eta_A=20.0, T_max=2, seed=3,
    )
    res, peak = traced_peak(lambda: run_online(cfg))
    assert res.iterations == 2 and min(r.p for r in res.records) > 0
    assert peak < cfg.m * cfg.J * cfg.K * 8


def test_loop_validates_each_sample_once(monkeypatch):
    # as_matrix copies and scans its whole array; in the loop only a new
    # sample (FiberSample construction) and the initial dictionary take it
    cfg = SolverConfig(
        n=100, J=60, K=60, m=50, alpha=0.05, beta=0.05, T_max=3, eps_T=TINY, seed=1,
    )
    source = SyntheticSource(cfg)
    A0 = source.initial_dictionary()  # set-up: perturb_init validates A_star
    source.initial_dictionary = lambda: A0
    as_matrix = linalg.as_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return as_matrix(*args, **kwargs)

    for info in pkgutil.iter_modules(sparsecp.__path__):
        module = importlib.import_module(f"sparsecp.{info.name}")
        if getattr(module, "as_matrix", None) is as_matrix:
            monkeypatch.setattr(module, "as_matrix", counted)
    res = run_online(cfg, source)
    assert res.iterations == 3 and min(r.p for r in res.records) > 0
    assert len(calls) <= res.iterations + 1, calls


def test_iteration_peak_stays_within_three_samples():
    # J = K = 1000 gives p of about 5k fibers; one n x p float64 array is
    # about 80 MB, and the sample plus one residual fit under 3 of them.
    # Three iterations of the dense_codes shape check the steady state: a
    # sample is drawn only once the last one, its residual and its scoring
    # arrays are gone.
    cases = [
        SolverConfig(n=2000, J=1000, K=1000, m=50, alpha=0.01, beta=0.01, T_max=1, seed=1),
        SolverConfig(n=300, J=100, K=100, m=50, alpha=0.05, beta=0.05, T_max=3, eps_T=TINY,
                     seed=1),
    ]

    def traced_run(cfg):
        source = SyntheticSource(cfg)
        A0 = source.initial_dictionary()  # set-up: perturb_init is not the loop's
        source.initial_dictionary = lambda: A0
        return traced_peak(lambda: run_online(cfg, source))

    for cfg in cases:
        res, peak = traced_run(cfg)
        p_max = max(r.p for r in res.records)
        assert res.iterations == cfg.T_max and p_max > 1000
        assert peak <= 3 * cfg.n * p_max * 8, (cfg.J, peak / (cfg.n * p_max * 8))


def test_all_nonzero_mode_passes_codes_and_residual_uncopied(monkeypatch):
    cfg = cfg_small(T_max=3)
    calls = []

    def spy(name):
        fn = getattr(runner, name)

        def wrapped(*args):
            calls.append((name, args))
            return fn(*args)

        return wrapped

    for name in ("untangle_codes", "gradient", "data_fit"):
        monkeypatch.setattr(runner, name, spy(name))
    res = run_online(cfg)
    assert min(r.p for r in res.records) > 0

    def args_of(name):
        return [args for nm, args in calls if nm == name]

    untangled, grads, fits = args_of("untangle_codes"), args_of("gradient"), args_of("data_fit")
    assert len(grads) == len(fits) == cfg.T_max
    assert len(untangled) == cfg.T_max + 1  # each iteration's B/C errors, then the final codes
    assert untangled[-1][0] is res.X
    for u, g, f in zip(untangled, grads, fits):
        X, R, Xsel, Y, R_fit = u[0], g[0], g[1], f[0], f[1]
        assert np.shares_memory(Xsel, X)
        assert R_fit.shape == Y.shape and np.shares_memory(R_fit, R)


# file sources ------------------------------------------------------------


def sample_of(Z):
    kept, Y = nonzero_fibers(Z)
    return FiberSample(Z.shape, ColumnIndexMap(Z.shape[1] * Z.shape[2], kept), Y)


def planted_tensors(cfg, count, seed=11, A=None):
    if A is None:
        A = gen_dictionary(cfg.n, cfg.m, seed)
    sp = SparsityParams(cfg.alpha, cfg.beta)
    return [
        cp_fibers(A, *gen_factor_pair(cfg.J, cfg.K, cfg.m, sp, Distribution.RADEMACHER,
                                      cfg.C_lb, 1000 + t))
        for t in range(count)
    ]


def near_start_tensors(cfg, count):
    """Files planted near the dictionary a file source starts from, so
    their codes are non-zero."""
    start = FileSource(cfg, [sample_of(np.zeros((cfg.n, cfg.J, cfg.K)))]).initial_dictionary()
    return planted_tensors(cfg, count, A=perturb_init(start, 0.1, 11))


def test_file_source_exhaustion():
    cfg = cfg_small(T_max=10)
    res = run_online(cfg, source=FileSource(cfg, planted_tensors(cfg, 4)))
    assert res.stop_reason == "source_exhausted"
    assert res.iterations == 4
    assert [r.t for r in res.records] == [0, 1, 2, 3]


@pytest.mark.parametrize("mode, pulls", [(RunMode.ONLINE, 3), (RunMode.BATCH, 1)])
def test_file_source_pulls_each_sample_at_its_iteration(mode, pulls):
    # a 5-sample stream under T_max=3: the source takes sample t only when
    # iteration t asks for it, and nothing holds sample t-1 (or its Y) by then
    cfg = cfg_small(T_max=3, mode=mode)
    A = perturb_init(FileSource(cfg, []).initial_dictionary(), 0.1, 11)  # so no step is idle
    sp = SparsityParams(cfg.alpha, cfg.beta)
    refs, alive = [], []

    def pull(t):
        alive.append([r() is not None for pair in refs for r in pair])
        sample = cp_fibers(A, *gen_factor_pair(cfg.J, cfg.K, cfg.m, sp, Distribution.RADEMACHER,
                                               cfg.C_lb, 1000 + t))
        refs.append((weakref.ref(sample), weakref.ref(sample.Y)))
        return sample

    res = run_online(cfg, FileSource(cfg, (pull(t) for t in range(5))))
    assert res.iterations == 3 and res.idle_iterations == 0 and len(refs) == pulls
    assert alive == [[False] * 2 * t for t in range(pulls)]


def spy_on_iht(monkeypatch):
    """Record the Y of every runner.iht call."""
    coded = []
    iht = runner.iht

    def spy(A, Y, X0, params):
        coded.append(Y)
        return iht(A, Y, X0, params)

    monkeypatch.setattr(runner, "iht", spy)
    return coded


class EmptySource:
    def __init__(self, cfg):
        self._cfg = cfg

    def initial_dictionary(self):
        return gen_dictionary(self._cfg.n, self._cfg.m, 0)

    def instance(self, t):
        return None


class BareSampleSource(FileSource):
    """Gives the bare sample where a (sample, truth) pair belongs."""

    def instance(self, t):
        inst = super().instance(t)
        return None if inst is None else inst[0]


def test_run_checks_each_sample_where_it_enters(monkeypatch):
    cfg = cfg_small(J=15, K=12)
    good = sample_of(np.ones((cfg.n, 15, 12)))
    coded = spy_on_iht(monkeypatch)
    assert run_online(cfg, FileSource(cfg, [good])).iterations == 1
    for shape in [(cfg.n, 15, 13), (cfg.n, 12, 15), (cfg.n + 1, 15, 12)]:
        # (n, 12, 15) has the same J*K: only the shape check tells them apart
        coded.clear()
        expect = f"Sample at iteration 1 has shape {shape}, config says {(cfg.n, 15, 12)}"
        with pytest.raises(ValueError, match=re.escape(expect)):
            run_online(cfg, FileSource(cfg, [good, sample_of(np.ones(shape))]))
        assert len(coded) == 1 and coded[0] is good.Y  # only iteration 0 was coded
    for bad in (np.ones((cfg.n, 15, 12)), None):  # a None sample is not the end of the input
        coded.clear()
        kind = type(bad).__name__
        with pytest.raises(TypeError, match=f"Sample at iteration 1 is a {kind}, not a FiberSample"):
            run_online(cfg, FileSource(cfg, [good, bad]))
        assert len(coded) == 1
    for source in (FileSource(cfg, []), EmptySource(cfg)):
        with pytest.raises(ValueError, match="The source gave no sample at iteration 0"):
            run_online(cfg, source)
    coded.clear()
    with pytest.raises(TypeError, match=re.escape(
            "Source gave a FiberSample at iteration 0, not a (sample, truth) pair")):
        run_online(cfg, BareSampleSource(cfg, [good]))
    assert not coded


class WideSampleSource(SyntheticSource):
    """From iteration 1 on, the sample and its ground truth have J + 2 for J."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self._wide = SyntheticSource(dataclasses.replace(cfg, J=cfg.J + 2))

    def instance(self, t):
        return super().instance(t) if t == 0 else self._wide.instance(t)


def test_mis_shaped_truth_sample_fails_at_entry(monkeypatch):
    cfg = cfg_small(T_max=3)
    coded = spy_on_iht(monkeypatch)
    expect = f"Sample at iteration 1 has shape {(cfg.n, cfg.J + 2, cfg.K)}"
    with pytest.raises(ValueError, match=re.escape(expect)):  # not "Metrics failed"
        run_online(cfg, WideSampleSource(cfg))
    assert len(coded) == 1


class StartSource(FileSource):
    """A file source whose initial dictionary is the given array."""

    def __init__(self, cfg, start):
        super().__init__(cfg, [])
        self._start = start

    def initial_dictionary(self):
        return self._start


def test_bad_initial_dictionary_is_named(monkeypatch):
    cfg = cfg_small()
    A0 = gen_dictionary(cfg.n, cfg.m, 0)
    with_nan = A0.copy()
    with_nan[3, 2] = np.nan
    coded = spy_on_iht(monkeypatch)
    for start, expect in [(A0[1:], f"Expected {cfg.n} rows, got {cfg.n - 1}"),
                          (with_nan, "Matrix contains non-finite values"),
                          (A0[:, 0], "Expected a 2-D matrix, got ndim=1")]:
        with pytest.raises(ValueError) as exc:
            run_online(cfg, StartSource(cfg, start))
        assert str(exc.value) == f"Initial dictionary: {expect}"
    assert not coded


def test_file_mode_reports_movement():
    cfg = cfg_small(T_max=3)
    res = run_online(cfg, source=FileSource(cfg, planted_tensors(cfg, 3)))
    for r in res.records:
        # without ground truth the error columns carry step movement
        assert r.err_A_relF == pytest.approx(r.err_A_max / math.sqrt(cfg.m), rel=1e-12)
        assert r.err_B_max == 0.0 and r.err_C_max == 0.0
        assert r.signed_support_ok


def test_file_batch_converges_on_movement():
    cfg = cfg_small(T_max=400, eps_T=1e-10, eta_A=4.0, mode=RunMode.BATCH)
    # codes are non-zero, so the movement stop has to be earned
    res = run_online(cfg, source=FileSource(cfg, near_start_tensors(cfg, 1)))
    assert res.converged
    assert res.stop_reason == "converged"
    assert res.iterations > 1
    assert res.records[-1].err_A_max <= 1e-10
    assert res.records[-1].data_fit <= 1e-8


def test_file_zero_codes_do_not_converge():
    # every fiber is far below the code threshold, so every code is zero,
    # the gradient is zero and the dictionary does not move
    cfg = cfg_small(m=5, eta_A=1.0)
    flat = sample_of(np.full((cfg.n, cfg.J, cfg.K), 0.001))
    res = run_online(cfg, source=FileSource(cfg, [flat] * 3))
    assert not res.converged
    assert res.stop_reason == "source_exhausted"
    assert res.iterations == 3
    assert all(r.err_A_max <= 1e-12 for r in res.records)


class SlowSource(SyntheticSource):
    def instance(self, t):
        time.sleep(0.002)
        return super().instance(t)


def test_run_wall_time_counts_unlogged_iterations():
    cfg = cfg_small(T_max=12, log_every=5)
    res = run_online(cfg, source=SlowSource(cfg))
    assert len(res.records) == 4
    # the 8 unlogged iterations each slept 2 ms on top of the logged time
    assert res.wall_ms >= sum(r.wall_ms for r in res.records) + 8 * 2.0


class DuplicateAtomSource:
    """Three near-duplicate unit atoms, so G = A^T A has an eigenvalue near
    3 and eta_x = 1 scales the code by about -2 per IHT step."""

    def __init__(self, cfg):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((cfg.n, 1)) + 1e-3 * rng.standard_normal((cfg.n, cfg.m))
        self._A = A / np.linalg.norm(A, axis=0)
        self._shape = (cfg.n, cfg.J, cfg.K)

    def initial_dictionary(self):
        return self._A

    def instance(self, t):
        cmap = ColumnIndexMap(self._shape[1] * self._shape[2], [0])
        return FiberSample(self._shape, cmap, self._A[:, :1].copy()), None


def test_coding_failure_names_iteration():
    cfg = cfg_small(m=3, J=2, K=2, eta_x=1.0, R=2000, eta_A=1.0)
    with pytest.raises(RuntimeError, match="Sparse coding failed at iteration 0") as err:
        run_online(cfg, source=DuplicateAtomSource(cfg))
    assert isinstance(err.value.__cause__, IhtDivergenceError)


class CollapsingAtomSource:
    """Two copies of e_1 as the dictionary. With R = 0 both codes of a
    sample e_1 are 1, the residual is e_1, and a step of eta_A = 1 takes
    both atoms to zero. Iteration 0's sample codes to zero and leaves
    the dictionary as it is."""

    def __init__(self, cfg):
        self._n = cfg.n

    def initial_dictionary(self):
        A = np.zeros((self._n, 2))
        A[0] = 1.0
        return A

    def instance(self, t):
        Y = np.zeros((self._n, 1))
        Y[0] = 1.0 if t == 1 else 1e-3
        return FiberSample((self._n, 2, 2), ColumnIndexMap(4, [0]), Y), None


def test_update_failure_names_iteration():
    cfg = cfg_small(m=2, J=2, K=2, R=0, eta_A=1.0, T_max=3)
    expect = "Dictionary update failed at iteration 1: Column 0"
    with pytest.raises(RuntimeError, match=expect) as err:
        run_online(cfg, source=CollapsingAtomSource(cfg))
    assert isinstance(err.value.__cause__, CollapsedColumnError)


class WrongTruthSource(SyntheticSource):
    """From iteration 1 on, the ground truth's dictionary has a row too few."""

    def instance(self, t):
        sample, gt = super().instance(t)
        if t >= 1:
            gt = GroundTruth(gt.A[1:], gt.B, gt.C)
        return sample, gt


def test_metrics_failure_names_iteration():
    cfg = cfg_small(T_max=3)
    with pytest.raises(RuntimeError, match="Metrics failed at iteration 1: Shape mismatch") as err:
        run_online(cfg, source=WrongTruthSource(cfg))
    assert isinstance(err.value.__cause__, ValueError)


class NearDuplicateAtomsSource:
    """m unit atoms, each e_0 + 0.01*N(0, 1) normalized, and every sample the
    one fiber 2*a_0. The atoms' Gram is near rank 1, so the IHT steps grow
    without bound but stay finite: no IhtDivergenceError fires."""

    def __init__(self, cfg):
        A = 0.01 * np.random.default_rng(0).standard_normal((cfg.n, cfg.m))
        A[0] += 1.0
        self._A = A / np.linalg.norm(A, axis=0)

    def initial_dictionary(self):
        return self._A

    def instance(self, t):
        sample = FiberSample((self._A.shape[0], 1, 1), ColumnIndexMap(1, [0]), 2.0 * self._A[:, :1])
        return sample, None


def test_codes_that_fit_worse_than_zero_codes_stop_the_run():
    cfg = SolverConfig(n=20, J=1, K=1, m=11, alpha=0.5, beta=0.5, eta_A=1.0, T_max=3)
    expect = "Metrics failed at iteration 0: data_fit "
    with pytest.raises(RuntimeError, match=expect) as err:
        run_online(cfg, source=NearDuplicateAtomsSource(cfg))
    assert isinstance(err.value.__cause__, ValueError)
    fit = float(re.search(r"data_fit (\S+) > 1: the codes fit the sample worse than zero codes$",
                          str(err.value)).group(1))
    assert fit > 1e6, str(err.value)


def test_untangle_failure_names_iteration(monkeypatch):
    cfg = cfg_small(T_max=4)
    source = SyntheticSource(cfg)
    seen = []
    draw = source.instance
    source.instance = lambda t: seen.append(t) or draw(t)
    rank1_blocks = untangle.rank1_blocks  # the split of every code row's block

    def failing(*blocks):
        if seen[-1] == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return rank1_blocks(*blocks)

    monkeypatch.setattr(untangle, "rank1_blocks", failing)
    with pytest.raises(RuntimeError, match="Untangle failed at iteration 2: SVD did not") as err:
        run_online(cfg, source=source)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_loop_takes_sample_uncopied_when_nothing_is_dropped(monkeypatch):
    cfg = cfg_small(T_max=2)
    samples = planted_tensors(cfg, 2)
    coded, split = spy_on_iht(monkeypatch), []
    untangle_codes = runner.untangle_codes

    def untangle_spy(X, cmap, J, K):
        split.append(cmap)
        return untangle_codes(X, cmap, J, K)

    monkeypatch.setattr(runner, "untangle_codes", untangle_spy)
    run_online(cfg, FileSource(cfg, samples))
    assert [Y is s.Y for Y, s in zip(coded, samples)] == [True, True]
    assert len(split) == 1 and split[0] is samples[-1].cmap

    # a zero_tol that drops fibers gives a map of the kept ones
    Y = samples[0].Y
    peak = np.abs(Y).max(axis=0)
    tol = float(np.median(peak))
    cfg = cfg_small(T_max=1, zero_tol=tol)
    coded.clear()
    split.clear()
    res = run_online(cfg, FileSource(cfg, samples[:1]))
    assert len(coded) == 1 and np.array_equal(coded[0], Y[:, peak > tol])
    assert len(split) == 1 and split[0] is not samples[0].cmap
    assert np.array_equal(split[0].kept, samples[0].cmap.kept[peak > tol])
    assert res.records[0].p == int((peak > tol).sum())


def test_file_run_untangles_only_its_last_codes(monkeypatch):
    cfg = cfg_small(T_max=10)
    samples = near_start_tensors(cfg, 4)
    calls = []
    untangle_codes = runner.untangle_codes

    def spy(X, cmap, J, K):
        calls.append((X, cmap))
        return untangle_codes(X, cmap, J, K)

    monkeypatch.setattr(runner, "untangle_codes", spy)
    res = run_online(cfg, FileSource(cfg, samples))
    assert res.stop_reason == "source_exhausted" and res.idle_iterations == 0
    assert len(calls) == 1
    X, cmap = calls[0]
    assert X is res.X and cmap is samples[-1].cmap
    want = untangle_codes(res.X, samples[-1].cmap, cfg.J, cfg.K)
    assert res.B.any() and res.C.any()
    assert np.array_equal(res.B, want.B) and np.array_equal(res.C, want.C)


def test_file_run_untangle_failure_names_last_iteration(monkeypatch):
    cfg = cfg_small(T_max=10)
    samples = near_start_tensors(cfg, 3)

    def failing(*blocks):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(untangle, "rank1_blocks", failing)
    with pytest.raises(RuntimeError, match="Untangle failed at iteration 2: SVD did not") as err:
        run_online(cfg, FileSource(cfg, samples))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


# config resolution -------------------------------------------------------


def test_eta_A_presets():
    def resolved(m, alpha=0.01, beta=0.01, n=None):
        return SolverConfig(
            n=n or max(2 * m, 20), J=50, K=50, m=m, alpha=alpha, beta=beta
        ).resolved_eta_A()

    assert resolved(50) == 20.0
    assert resolved(50, alpha=0.005, beta=0.005) == 5.0
    assert resolved(150) == 40.0
    assert resolved(300) == 40.0
    assert resolved(450) == 50.0
    assert resolved(600) == 50.0
    assert set(ETA_A_PRESETS) == {50, 150, 300, 450, 600}
    with pytest.raises(ValueError, match="No eta_A preset for m = 37"):
        resolved(37)
    # explicit value bypasses the table
    cfg = SolverConfig(n=74, J=50, K=50, m=37, alpha=0.01, beta=0.01, eta_A=2.5)
    assert cfg.resolved_eta_A() == 2.5


def test_eps0_default_tracks_log_n():
    cfg = cfg_small()
    assert cfg.resolved_eps0() == pytest.approx(2.0 / math.log(40.0))
    assert cfg_small(eps0=0.3).resolved_eps0() == 0.3


def test_eps0_has_no_default_below_three_rows():
    with pytest.raises(ValueError, match="No default eps0 for n = 2 .*set eps0"):
        cfg_small(n=2).resolved_eps0()
    assert cfg_small(n=2, eps0=0.5).resolved_eps0() == 0.5


def test_config_validation():
    for n in (1, 0):  # a unit column in R^1 is +-1: no run with n = 1 can learn
        with pytest.raises(ValueError, match=f"^n must be >= 2, got {n}$"):
            cfg_small(n=n, eps0=0.5)
    with pytest.raises(ValueError, match="alpha"):
        cfg_small(alpha=1.5)
    with pytest.raises(ValueError, match="T_max"):
        cfg_small(T_max=0)
    with pytest.raises(ValueError, match="workers"):
        cfg_small(workers=0)
    with pytest.raises(ValueError, match="log_every"):
        cfg_small(log_every=0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        cfg_small(seed=-1)
    assert cfg_small(seed=0).seed == 0
    with pytest.raises(ValueError, match="^R must be >= 0, got -1$"):
        cfg_small(R=-1)
    # eta_x = 1 is a valid step, but the default R rule needs eta_x < 1
    with pytest.raises(ValueError, match=re.escape(
            "The default step-count rule needs 0 < eta_x < 1, got 1.0; pass R explicitly")):
        cfg_small(eta_x=1.0)
    assert cfg_small(eta_x=1.0, R=5).R == 5


def test_bounded_subgaussian_code_entries_below_tau_are_rejected():
    # a code entry is a B entry times a C entry, so this law puts some at C_lb**2
    canonical = dict(n=300, J=100, K=100, m=50, alpha=0.01, beta=0.01,
                     dist=Distribution.BOUNDED_SUBGAUSSIAN)
    expect = "C_lb**2 = 0.09 is below tau = 0.1: "
    with pytest.raises(ValueError, match="^" + re.escape(expect)):
        SolverConfig(**canonical, C_lb=0.3)
    assert SolverConfig(**canonical, C_lb=0.5).C_lb == 0.5
    assert SolverConfig(**canonical, C_lb=0.3, tau=0.09).tau == 0.09
    # Rademacher entries are +-1 whatever C_lb says
    assert SolverConfig(**(canonical | {"dist": Distribution.RADEMACHER}), C_lb=0.3).C_lb == 0.3


def test_min_descent_correlation_matches_the_per_atom_oracle():
    # estimate atom perm[j] aims at signs[j] * A_star[:, j], signs flipped on three;
    # j = 0 is outside used and j = 1 within eps_T of its target, and either would
    # give the smallest correlation if it were read
    rng = np.random.default_rng(11)
    n, m, eps_T = 12, 6, 1e-12
    A_star = gen_dictionary(n, m, 4)
    signs = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
    align = Alignment(rng.permutation(m), signs)
    perm = align.perm
    target = A_star * signs
    A_prev = np.empty((n, m))
    A_prev[:, perm] = target + 0.05 * rng.standard_normal((n, m))
    A_prev[:, perm[1]] = target[:, 1] + 1e-15
    g = rng.standard_normal((n, m))
    g[:, perm[0]] = -1e3 * (A_prev[:, perm[0]] - target[:, 0])
    g[:, perm[1]] = -1e30 * (A_prev[:, perm[1]] - target[:, 1])
    want = [descent_correlation(g[:, perm[j]], A_prev[:, perm[j]], target[:, j]) for j in range(m)]
    live = range(2, m)
    assert max(want[:2]) < min(want[j] for j in live)

    def corr(atoms):
        used = np.zeros(m, dtype=bool)
        used[perm[list(atoms)]] = True
        return runner._min_descent_correlation(g, A_prev, A_star, align, used, eps_T)

    assert corr(range(1, m)) == pytest.approx(min(want[j] for j in live), rel=1e-12)
    for j in live:
        assert corr([j]) == pytest.approx(want[j], rel=1e-12), j
    assert corr([]) == 0.0
    assert corr([1]) == 0.0  # the one used atom is at its target
