"""Command-line front end.

Subcommands:
  synth-run   online run against the synthetic generator
  decompose   online/batch run against TNSR3 tensor files
  eval        compare two factor CSVs after sign/permutation alignment

Every SolverConfig field is exposed as a --flag of the same name; --config
loads a key=value file first and flags override it. synth-run and decompose
print one summary line, built from the run's RunResult. Exit codes: 0 when
the run converged, 2 when it stopped at T_max (or ran out of input tensors)
without converging, 1 on any error, usage errors included.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .metrics import align_columns, column_errors, match_columns, rel_frobenius
from .runner import FileSource, RunMode, RunResult, SolverConfig, run_online
from .tensorio import (
    center_nonzero_fibers,
    emit_outputs,
    ingest_tensor,
    parse_config_file,
    preprocess_dynamic_range,
    read_matrix_csv,
    scale_to_unit_fibers,
)

__all__ = ["main"]

# decompose's optional preprocessing steps as (flag, step, help), in the order they apply.
_PREPROCESS = (
    ("log2-range", preprocess_dynamic_range, "compress counts: non-zeros become log2(value)+1"),
    ("center-fibers", center_nonzero_fibers, "subtract the mean from each non-zero mode-1 fiber"),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a run did not converge."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key=value config file")
    for f in fields(SolverConfig):
        sub.add_argument(f"--{f.name}", metavar="V", dest=f"cfg_{f.name}")


def _collect_config(args, defaults: dict[str, str] | None = None) -> SolverConfig:
    merged: dict[str, str] = dict(defaults or {})
    if args.config:
        merged.update(parse_config_file(args.config))
    for f in fields(SolverConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            merged[f.name] = value
    return SolverConfig.from_mapping(merged)


def _finish(result: RunResult, cfg: SolverConfig, out) -> int:
    """Write the run's files, print its summary line and return the exit code."""
    emit_outputs(result.records, (result.A, result.B, result.C), cfg, out)
    last = result.records[-1]  # t=0 is always logged
    state = "converged" if result.converged else "stopped"
    print(
        f"{state} t={last.t} p={last.p} err_A_max={last.err_A_max:.3e} "
        f"data_fit={last.data_fit:.3e} wall_ms={result.wall_ms:.1f} "
        f"stop_reason={result.stop_reason} idle={result.idle_iterations} -> {out}"
    )
    return 0 if result.converged else 2


def _cmd_synth_run(args) -> int:
    cfg = _collect_config(args)
    return _finish(run_online(cfg), cfg, args.out)


def _load_tensor(path, steps):
    """Ingest one TNSR3 file, apply the preprocessing steps in order, then unit-scale it."""
    sample = ingest_tensor(path)
    try:
        for step in steps:
            sample = step(sample)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return scale_to_unit_fibers(sample)  # the codes' unit magnitude, whatever the file's units


def _checked(path, sample, want):
    if tuple(sample.shape) != want:
        raise ValueError(f"{path}: tensor has shape {sample.shape}, config says {want}")
    return sample


def _cmd_decompose(args) -> int:
    steps = [step for flag, step, _ in _PREPROCESS if getattr(args, flag.replace("-", "_"))]
    head = [_load_tensor(args.tensor[0], steps)]  # popped as sample 0: no name keeps it after
    n, J, K = head[0].shape
    # file sources have no generative sparsity; alpha/beta are inert here
    defaults = {
        "n": str(n), "J": str(J), "K": str(K), "alpha": "0.5", "beta": "0.5",
    }
    cfg = _collect_config(args, defaults)
    if cfg.mode is RunMode.BATCH and len(args.tensor) > 1:  # batch mode learns from one sample
        raise ValueError(f"batch mode takes one tensor file, got {len(args.tensor)}")
    want = (cfg.n, cfg.J, cfg.K)
    samples = (_checked(path, head.pop() if head else _load_tensor(path, steps), want)
               for path in args.tensor)  # file t is read when iteration t asks for it
    return _finish(run_online(cfg, FileSource(cfg, samples)), cfg, args.out)


def _cmd_eval(args) -> int:
    est = read_matrix_csv(args.estimate)
    ref = read_matrix_csv(args.reference)
    if est.shape != ref.shape:
        raise ValueError(
            f"Shape mismatch: estimate {est.shape} vs reference {ref.shape}"
        )
    align = match_columns(est, ref)
    errs = column_errors(est, ref, align)
    relF = rel_frobenius(align_columns(est, align), ref)
    print(f"err_col_max={errs.max_err:.6e} err_col_mean={errs.mean_err:.6e} err_relF={relF:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsecp",
        description="Online sparse CP decomposition with paired-factor untangling",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="sparsecp_out", help="output directory")

    p = subs.add_parser("synth-run", parents=[out], help="run against the synthetic generator")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_synth_run)

    p = subs.add_parser("decompose", parents=[out], help="run against TNSR3 tensor files")
    p.add_argument("tensor", nargs="+", help="TNSR3 files, one per iteration (one in batch mode)")
    _add_config_flags(p)
    for flag, _step, text in _PREPROCESS:
        p.add_argument(f"--{flag}", action="store_true", help=text)
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("eval", help="aligned error report between two factor CSVs")
    p.add_argument("estimate")
    p.add_argument("reference")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
