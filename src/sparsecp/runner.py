"""Online decomposition driver: config, per-iteration pipeline, stop rules.

Each sample is a FiberSample; each iteration drops its fibers at or
below zero_tol, codes the p fibers left (no n x J x K or m x JK array
is built), steps the dictionary only when a selected code is non-zero
(else A stays as it is, bit for bit), then logs an IterationRecord
every log_every iterations, and the last one always.
Every run splits its final codes into (B, C) once, after the loop; an
iteration with ground truth also splits its own codes for its B/C
errors. A sample is checked once, as source.instance(t) gives it: a
FiberSample of shape (n, J, K), with one at t = 0. Batch mode reuses
instance(0), so a source only maps t to a sample. An error in a stage
is raised once, as RuntimeError("<Stage> failed at iteration t: ...")
with the original error as its cause.
With ground truth (synthetic sources) the record carries aligned errors
and the run stops once the max aligned column error reaches eps_T; file
sources have no ground truth, so the error fields hold the dictionary
movement surrogates described in the README and the run stops once a
step that learned moves the dictionary by at most eps_T.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Protocol, get_args, get_type_hints

import numpy as np

from .dict_update import SampleMode, gradient, step_and_normalize
from .linalg import as_matrix
from .metrics import (
    align_columns,
    align_rows,
    column_errors,
    data_fit,
    match_columns,
    normalized_column_errors,
    rel_frobenius,
    signed_support_equal,
)
from .sparse_coding import IhtDivergenceError, IhtParams, iht
from .synth import (
    Distribution,
    GroundTruth,
    SparsityParams,
    child_seed,
    gen_dictionary,
    gen_factor_pair,
    perturb_init,
)
from .tensor_core import (
    ColumnIndexMap,
    FiberSample,
    cp_fibers,
    extract_nonzero_columns,
    khatri_rao_columns,
)
from .untangle import untangle_codes

# Not called here: the benchmark's tracer wraps these runner attributes by name.
from .sparse_coding import init_code  # noqa: F401
from .synth import gen_tensor_instance  # noqa: F401
from .tensor_core import khatri_rao_transpose, mode1_unfold, scatter_columns  # noqa: F401
from .untangle import untangle_krp  # noqa: F401

__all__ = [
    "RunMode",
    "SolverConfig",
    "IterationRecord",
    "RunResult",
    "TensorSource",
    "SyntheticSource",
    "FileSource",
    "run_online",
    "ETA_A_PRESETS",
]

# Step-size presets keyed by rank, measured once per rank on the synthetic
# grid; the m = 50 preset drops to 5 in the sparsest regime alpha = beta = 0.005.
ETA_A_PRESETS = {50: 20.0, 150: 40.0, 300: 40.0, 450: 50.0, 600: 50.0}

# The value that asks for a derived R, eta_A or eps0; config.txt echoes it.
_AUTO = "auto"


class RunMode(enum.Enum):
    ONLINE = "online"
    BATCH = "batch"


def _parse_field(name: str, hint, text: str):
    """Read a config value for the SolverConfig field name of annotation hint:
    "auto" is unset for X | None, an enum member is named by its value
    (ignoring case, surrounding spaces and underscores), else int or float."""
    if get_args(hint):  # X | None
        if text.strip().lower() == _AUTO:
            return None
        hint = get_args(hint)[0]
    if isinstance(hint, enum.EnumMeta):
        key = text.strip().lower().replace("_", "")
        for member in hint:
            if member.value.replace("_", "") == key:
                return member
        expected = " or ".join(v.value for v in hint)
        raise ValueError(f"Unknown {name} {text!r}; expected {expected}")
    return hint(text)


@dataclass(frozen=True)
class SolverConfig:
    """Full run configuration. The fields are the config-file keys and CLI
    flags: each annotation says how _parse_field reads the key, no default
    makes it required."""

    n: int
    J: int
    K: int
    m: int
    alpha: float
    beta: float
    dist: Distribution = Distribution.RADEMACHER
    C_lb: float = 1.0
    eta_x: float = 0.2
    tau: float = 0.1
    R: int | None = None
    eta_A: float | None = None
    T_max: int = 500
    eps_T: float = 1e-8
    zero_tol: float = 0.0
    sample_mode: SampleMode = SampleMode.ALL_NONZERO
    seed: int = 42
    mode: RunMode = RunMode.ONLINE
    log_every: int = 1
    eps0: float | None = None
    workers: int = 1

    def __post_init__(self):
        if self.n < 2:  # a unit column in R^1 is +-1 and cannot move
            raise ValueError(f"n must be >= 2, got {self.n}")
        for name in ("J", "K", "m", "T_max", "log_every", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:  # a SeedSequence entropy is non-negative
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        SparsityParams(self.alpha, self.beta)  # validates the probabilities
        if not 0.0 < self.eps_T < math.inf:
            raise ValueError(f"eps_T must be finite and > 0, got {self.eps_T}")
        if not 0.0 <= self.zero_tol < math.inf:
            raise ValueError(f"zero_tol must be finite and >= 0, got {self.zero_tol}")
        if self.eta_A is not None and not 0.0 < self.eta_A < math.inf:
            raise ValueError(f"eta_A must be finite and > 0, got {self.eta_A}")
        if self.eps0 is not None and not 0.0 <= self.eps0 < 2.0:
            raise ValueError(f"eps0 must lie in [0, 2), got {self.eps0}")
        self.iht_params()  # validates eta_x, tau, R, C_lb
        if self.dist is Distribution.BOUNDED_SUBGAUSSIAN and self.C_lb**2 < self.tau:
            raise ValueError(
                f"C_lb**2 = {self.C_lb**2!r} is below tau = {self.tau!r}: a code entry, a B "
                "entry times a C entry, can be as small as C_lb**2, and IHT would drop it"
            )

    def iht_params(self) -> IhtParams:
        return IhtParams(eta_x=self.eta_x, tau=self.tau, R=self.R, C_lb=self.C_lb)

    def sparsity(self) -> SparsityParams:
        return SparsityParams(self.alpha, self.beta)

    def resolved_eps0(self) -> float:
        if self.eps0 is not None:
            return self.eps0
        if self.n == 2:  # 2/ln 2 is over 2, the longest chord
            raise ValueError("No default eps0 for n = 2 (needs n >= 3); set eps0")
        return 2.0 / math.log(self.n)

    def resolved_eta_A(self) -> float:
        if self.eta_A is not None:
            return self.eta_A
        if self.m not in ETA_A_PRESETS:
            known = ", ".join(str(k) for k in sorted(ETA_A_PRESETS))
            raise ValueError(
                f"No eta_A preset for m = {self.m} (presets cover m in {{{known}}}); "
                "set eta_A explicitly"
            )
        if self.m == 50 and self.alpha == 0.005 and self.beta == 0.005:
            return 5.0
        return ETA_A_PRESETS[self.m]

    # Config-file parsing ------------------------------------------------

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "SolverConfig":
        """Build a config from string key=value pairs; unknown keys error."""
        hints = get_type_hints(cls)
        unknown = sorted(set(raw) - set(hints))
        if unknown:
            raise ValueError(f"Unknown config keys: {', '.join(unknown)}")
        required = [f.name for f in fields(cls) if f.default is MISSING]
        missing = sorted(set(required) - set(raw))
        if missing:
            raise ValueError(f"Missing required config keys: {', '.join(missing)}")
        kwargs = {}
        for key, text in raw.items():
            try:
                kwargs[key] = _parse_field(key, hints[key], text)
            except ValueError as exc:
                raise ValueError(f"Bad value for config key {key}: {text!r} ({exc})")
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, str]:
        """Return the config as key=value strings, field order preserved."""
        out: dict[str, str] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                out[f.name] = _AUTO
            elif isinstance(v, enum.Enum):
                out[f.name] = v.value
            elif isinstance(v, float):
                out[f.name] = repr(float(v))  # np.float64's repr is not a float literal
            else:
                out[f.name] = str(v)
        return out


@dataclass(frozen=True)
class IterationRecord:
    """One logged iteration; wall_ms is measured and excluded from the
    deterministic CSV output (written there as 0)."""

    t: int
    p: int
    p_indep: int
    err_A_max: float
    err_A_relF: float
    err_X_relF: float
    signed_support_ok: bool
    data_fit: float
    err_B_max: float
    err_C_max: float
    min_descent_corr: float
    wall_ms: float


@dataclass(frozen=True, eq=False)
class RunResult:
    """Run outcome; wall_ms is the whole run's time, logged iterations or not.
    idle_iterations counts the iterations whose codes were all zero (or empty)."""

    records: tuple[IterationRecord, ...]
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    X: np.ndarray
    stop_reason: str
    iterations: int
    idle_iterations: int
    wall_ms: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


class TensorSource(Protocol):
    """instance(t) gives iteration t's sample and its ground truth (None without
    one), or None once the input is exhausted (an error at t = 0). run_online asks
    for t = 0, 1, 2, ... in order (batch mode: 0 only) and checks each sample."""

    def initial_dictionary(self) -> np.ndarray: ...

    def instance(self, t: int) -> tuple[FiberSample, GroundTruth | None] | None: ...


class SyntheticSource:
    """Draws a fresh planted instance per iteration.

    Child seeds of the run seed, one Philox stream each: (0,) the
    dictionary, (1,) the perturbed init, (2, t, 0) and (2, t, 1) the
    factors B and C of iteration t.
    """

    def __init__(self, cfg: SolverConfig):
        self._cfg = cfg
        self.A_star = gen_dictionary(cfg.n, cfg.m, child_seed(cfg.seed, 0))

    def initial_dictionary(self) -> np.ndarray:
        return perturb_init(self.A_star, self._cfg.resolved_eps0(), child_seed(self._cfg.seed, 1))

    def instance(self, t: int):
        cfg = self._cfg
        B, C = gen_factor_pair(
            cfg.J, cfg.K, cfg.m, cfg.sparsity(), cfg.dist, cfg.C_lb, child_seed(cfg.seed, 2, t)
        )
        return cp_fibers(self.A_star, B, C), GroundTruth(self.A_star, B, C)


class FileSource:
    """Hands out the next FiberSample of an iterable at each instance(t), unchecked,
    and holds none of them itself; exhaustion ends the run. instance is asked for
    in order, so the iterable may read each file at its own iteration. The initial
    dictionary is random unit columns under the run seed."""

    def __init__(self, cfg: SolverConfig, tensors: Iterable[FiberSample]):
        self._cfg = cfg
        self._tensors = iter(tensors)

    def initial_dictionary(self) -> np.ndarray:
        return gen_dictionary(self._cfg.n, self._cfg.m, child_seed(self._cfg.seed, 0))

    def instance(self, t: int):
        for sample in self._tensors:  # the next one, whatever it is: run_online checks it
            return sample, None
        return None


def _min_descent_correlation(g, A_prev, A_star, align, used, eps_T) -> float:
    """Smallest <g_i, A_i - sign*A*_i> over atoms the step is still moving.

    Atoms outside every selected support have a zero gradient column, and
    atoms already within eps_T of their target produce sign noise at the
    scale of float rounding, so both are excluded; with no qualifying
    atom the diagnostic is 0.
    """
    diffs = align_columns(A_prev, align) - A_star
    corr = np.einsum("ij,ij->j", align_columns(g, align), diffs)
    gap2 = np.einsum("ij,ij->j", diffs, diffs)
    live = used[align.perm] & (gap2 > eps_T * eps_T)
    if not live.any():
        return 0.0
    return float(corr[live].min())


@dataclass(frozen=True, eq=False)
class _Step:
    """One sample's outcome: the dictionary, the codes X of the fibers
    cmap.kept, whether the step learned (a selected code is non-zero, the
    only case in which A moves), and the iteration's record."""

    A: np.ndarray
    X: np.ndarray
    cmap: ColumnIndexMap
    learned: bool
    record: IterationRecord


def _step(cfg: SolverConfig, ihtp: IhtParams, eta_A: float, A: np.ndarray,
          sample: FiberSample, gt: GroundTruth | None, t: int, tick: float) -> _Step:
    """Code sample t against A, step A and score the step; the record's
    wall_ms counts from tick, when iteration t began.

    Every per-sample array (the kept values, the residual, the scoring
    arrays) is local here and dies when the step returns; the residual
    goes as soon as gradient and data_fit have read it. An error in a
    stage is raised as RuntimeError("<Stage> failed at iteration t: ...").
    """
    J, K = cfg.J, cfg.K
    Y, live = extract_nonzero_columns(sample.Y, cfg.zero_tol)
    if live.p == sample.cmap.p:
        cmap = sample.cmap  # nothing dropped: Y is sample.Y, uncopied
    else:
        cmap = ColumnIndexMap(J * K, sample.cmap.kept[live.kept])
    p = cmap.p
    j, k = cmap.block_coords(J)
    indep_pos = np.flatnonzero(j == k)  # kept fibers (k, k), which touch distinct B and C rows
    p_indep = int(indep_pos.size)

    stage = "Sparse coding"
    try:
        Xh = iht(A, Y, None, ihtp)
        if gt is not None:  # only the B/C errors read this sample's split
            stage = "Untangle"
            unf = untangle_codes(Xh, cmap, J, K)

        stage = "Dictionary update"
        # one residual of the pre-step dictionary feeds gradient and data_fit
        R = A @ Xh
        R -= Y
        sel = indep_pos if cfg.sample_mode is SampleMode.INDEPENDENT_ONLY else slice(None)
        used = Xh[:, sel].any(axis=1)  # the atoms the selected codes use
        learned = bool(used.any())
        A_new = A  # all-zero (or no) selected codes: a zero gradient, A stays as it is
        if learned:
            g = gradient(R[:, sel], Xh[:, sel])
            A_new = step_and_normalize(A, g, eta_A)

        stage = "Metrics"
        fit = data_fit(Y, R) if p > 0 else 0.0
        del R, Y
        if fit > 1.0 + 1e-9:  # an idle iteration's residual is -Y, a fit of 1 up to rounding
            raise ValueError(
                f"data_fit {fit:.3e} > 1: the codes fit the sample worse than zero codes"
            )
        err_X_relF, ss_ok, err_B_max, err_C_max, min_corr = 0.0, True, 0.0, 0.0, 0.0
        if gt is not None:
            align = match_columns(A_new, gt.A)
            colerrs = column_errors(A_new, gt.A, align)
            err_A_max = colerrs.max_err
            err_A_relF = rel_frobenius(align_columns(A_new, align), gt.A)
            X_star = khatri_rao_columns(gt.B, gt.C, cmap)
            if p > 0:
                X_al = align_rows(Xh, align)
                err_X_relF = rel_frobenius(X_al, X_star)
                ss_ok = signed_support_equal(X_al, X_star)
            shown = X_star.any(axis=1)  # an atom no kept fiber shows is scored against zeros
            err_B_max = float(normalized_column_errors(unf.B, gt.B * shown, align).max())
            err_C_max = float(normalized_column_errors(unf.C, gt.C * shown, align).max())
            if learned:
                min_corr = _min_descent_correlation(g, A, gt.A, align, used, cfg.eps_T)
        else:  # the dictionary's movement stands in for its error
            err_A_max = float(np.linalg.norm(A_new - A))
            err_A_relF = err_A_max / float(np.linalg.norm(A))
    except (IhtDivergenceError, ValueError) as exc:
        raise RuntimeError(f"{stage} failed at iteration {t}: {exc}") from exc

    record = IterationRecord(
        t=t,
        p=p,
        p_indep=p_indep,
        err_A_max=err_A_max,
        err_A_relF=err_A_relF,
        err_X_relF=err_X_relF,
        signed_support_ok=ss_ok,
        data_fit=fit,
        err_B_max=err_B_max,
        err_C_max=err_C_max,
        min_descent_corr=min_corr,
        wall_ms=(time.perf_counter() - tick) * 1000.0,
    )
    return _Step(A_new, Xh, cmap, learned, record)


def run_online(cfg: SolverConfig, source: TensorSource | None = None) -> RunResult:
    """Run the online decomposition and return factors, records, stop reason.

    Each iteration checks the source's sample and hands it to _step, so
    one sample's arrays are alive at a time: the loop keeps the dictionary
    and the last step's codes, and in online mode it drops the last
    sample before the source builds the next. The run converges once
    err_A_max reaches eps_T: the aligned error with ground truth, else the
    movement of a step that learned. B and C split the last step's codes.
    """
    start = time.perf_counter()
    if source is None:
        source = SyntheticSource(cfg)
    A = source.initial_dictionary()  # a config error (no default eps0) is raised as it is
    try:
        A = as_matrix(A, rows=cfg.n, cols=cfg.m)
    except ValueError as exc:
        raise ValueError(f"Initial dictionary: {exc}") from exc
    ihtp = cfg.iht_params()
    eta_A = cfg.resolved_eta_A()
    want = (cfg.n, cfg.J, cfg.K)

    records: list[IterationRecord] = []
    stop_reason = "max_iterations"
    idle = 0

    for t in range(cfg.T_max):
        tick = time.perf_counter()
        if t == 0 or cfg.mode is RunMode.ONLINE:
            sample = gt = None  # the last sample goes before the source builds the next
            inst = source.instance(t)  # batch mode keeps the first one
            if inst is None:
                if t == 0:
                    raise ValueError("The source gave no sample at iteration 0")
                stop_reason = "source_exhausted"
                break
            if not (isinstance(inst, tuple) and len(inst) == 2):
                kind = type(inst).__name__
                raise TypeError(
                    f"Source gave a {kind} at iteration {t}, not a (sample, truth) pair"
                )
            sample, gt = inst
            del inst  # the pair would keep this sample alive through the next draw
            if not isinstance(sample, FiberSample):
                kind = type(sample).__name__
                raise TypeError(f"Sample at iteration {t} is a {kind}, not a FiberSample")
            if tuple(sample.shape) != want:
                raise ValueError(
                    f"Sample at iteration {t} has shape {sample.shape}, config says {want}"
                )

        step = _step(cfg, ihtp, eta_A, A, sample, gt, t, tick)
        idle += not step.learned
        if t % cfg.log_every == 0:
            records.append(step.record)

        A = step.A
        if step.record.err_A_max <= cfg.eps_T and (gt is not None or step.learned):
            stop_reason = "converged"
            break

    record = step.record  # the last finished iteration's (a source runs dry at t > 0)
    if records[-1] is not record:
        records.append(record)  # the last iteration is logged whatever log_every says
    try:
        unf = untangle_codes(step.X, step.cmap, cfg.J, cfg.K)
    except ValueError as exc:
        raise RuntimeError(f"Untangle failed at iteration {record.t}: {exc}") from exc

    return RunResult(
        records=tuple(records),
        A=A,
        B=unf.B,
        C=unf.C,
        X=step.X,
        stop_reason=stop_reason,
        iterations=record.t + 1,
        idle_iterations=idle,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )
