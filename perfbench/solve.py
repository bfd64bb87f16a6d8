"""Benchmark child: one set-up, one prepared input set, or one timed solve.

run.py starts a fresh interpreter per task, with the
checkout's `src` first on PYTHONPATH, and reads the JSON this writes to
--result. Modes:

  warmup  import the package once (fills the bytecode cache), report provenance
  setup   time `import sparsecp` + config + source, then exit
  prep    write the tnsr3_files inputs (untimed): TNSR3 files, planted dictionary
  solve   set up, then time the solve and write the run's output files
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

from workloads import TOL, WORKLOADS, instance_seed


def _config(sp, w: dict, seed: int, shape=None):
    kw = dict(w["cfg"], seed=seed)
    if shape is not None:
        kw.update(n=shape[0], J=shape[1], K=shape[2])
    return sp.runner.SolverConfig(**kw)


def setup(name: str, seed: int):
    """Return (package, config, source or None, seconds) for one set-up."""
    w = WORKLOADS[name]
    t0 = time.perf_counter()
    import sparsecp as sp

    if w["kind"] == "files":
        g = w["gen"]
        cfg = _config(sp, w, seed, (g["n"], g["J"], g["K"]))
        source = None  # built from the ingested files inside the solve
    else:
        cfg = _config(sp, w, seed)
        source = sp.runner.SyntheticSource(cfg)
    return sp, cfg, source, time.perf_counter() - t0


def provenance() -> dict:
    import numpy as np
    import sparsecp as sp

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no machine-readable config
        blas = {}
    threads = {k: os.environ.get(k, "default") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": threads, "package": os.path.dirname(sp.__file__)}


def prep(name: str, seed: int, work: str) -> dict:
    """Write the TNSR3 files and the dictionary they were planted with.

    FileSource starts from gen_dictionary under the run seed; the planted
    dictionary lies eps0 = 2/ln n from that start, column by column (the
    paper's initialization assumption).
    """
    import numpy as np
    import sparsecp as sp

    w = WORKLOADS[name]
    g = w["gen"]
    cfg = _config(sp, w, seed, (g["n"], g["J"], g["K"]))
    root = np.random.SeedSequence(seed)
    start = sp.gen_dictionary(g["n"], g["m"], sp.child_seed(root, 0))
    planted = sp.perturb_init(start, cfg.resolved_eps0(), sp.child_seed(root, 1))
    sp.write_matrix_csv(os.path.join(work, "planted.csv"), planted)
    sparsity = sp.SparsityParams(g["alpha"], g["beta"])
    files, fibers, lines = [], [], 0
    for t in range(w["files"]):
        Z, _ = sp.gen_tensor_instance(g["n"], g["J"], g["K"], g["m"], sparsity,
                                      sp.Distribution.RADEMACHER, 1.0, planted,
                                      sp.child_seed(root, 2, t))
        idx = np.argwhere(Z != 0.0)
        body = "".join(f"{i + 1} {j + 1} {k + 1} {float(Z[i, j, k])!r}\n" for i, j, k in idx)
        path = os.path.join(work, f"t{t:03d}.tnsr3")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"TNSR3 {g['n']} {g['J']} {g['K']}\n{body}")
        files.append(path)
        fibers.append(int((Z != 0.0).any(axis=0).sum()))
        lines += 1 + len(idx)
    return {"files": files, "fibers": fibers, "lines": lines,
            "bytes": sum(os.path.getsize(f) for f in files),
            "planted": os.path.join(work, "planted.csv"), "eps0": cfg.resolved_eps0()}


def solve(name: str, seed: int, out: str, traced: bool, inputs: dict | None) -> dict:
    sp, cfg, source, setup_s = setup(name, seed)
    tracer = None
    if traced:
        import spans

        tracer = spans.install(sp)
    tio, runner = sp.tensorio, sp.runner

    def body():
        src = source
        if src is None:
            src = runner.FileSource(cfg, [tio.ingest_tensor(f) for f in inputs["files"]])
        if tracer is not None:
            tracer.wrap_source(src)
        res = runner.run_online(cfg, src)
        with open(os.devnull, "w") as quiet:  # emit_outputs prints a summary
            stdout, sys.stdout = sys.stdout, quiet
            try:
                tio.emit_outputs(res.records, (res.A, res.B, res.C), cfg, out)
            finally:
                sys.stdout = stdout
        return res

    t0 = time.perf_counter()
    res = tracer.call("solve", body) if tracer is not None else body()
    solve_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:  # before the checks below add spans of their own
        traced_stats = {"spans": len(tracer.spans), "self_times": tracer.self_times(),
                        "counts": dict(tracer.counts)}
        tracer.write(os.path.join(out, "spans.csv"))

    recs = res.records
    if inputs is None:
        final_err = recs[-1].err_A_max if recs else math.inf
        final_relF = recs[-1].err_A_relF if recs else math.inf
    else:  # no ground truth in the run: compare with the planted dictionary
        ref = sp.read_matrix_csv(inputs["planted"])
        align = sp.match_columns(res.A, ref)
        final_err = sp.column_errors(res.A, ref, align).max_err
        final_relF = sp.rel_frobenius(sp.align_columns(res.A, align), ref)
    hit = next((r.t for r in recs if r.err_A_relF <= TOL), None) if inputs is None else None
    result = {
        "setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": rss_mb,
        "stop_reason": res.stop_reason, "iterations": res.iterations,
        "p": [r.p for r in recs],
        "wall_ms": [r.wall_ms for r in recs],
        "signed_support_ok": all(r.signed_support_ok for r in recs),
        "final_err_X_relF": recs[-1].err_X_relF if recs else math.inf,
        "final_err_A_max": final_err, "final_err_A_relF": final_relF, "iters_to_tol": hit,
        "eps0": cfg.resolved_eps0(), "workers": cfg.workers,
        "written_mb": sum(os.path.getsize(os.path.join(out, f))
                          for f in os.listdir(out) if f != "spans.csv") / 1e6,
    }
    if tracer is not None:
        result.update(traced_stats)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("warmup", "setup", "prep", "solve"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--instance", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True, help="directory for inputs and outputs")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    seed = instance_seed(args.seed, args.instance)
    if args.mode == "warmup":
        result = provenance()
    elif args.mode == "setup":
        result = {"setup_s": setup(args.workload, seed)[3]}
    elif args.mode == "prep":
        result = prep(args.workload, seed, args.work)
    else:
        inputs = None
        if WORKLOADS[args.workload]["kind"] == "files":
            with open(os.path.join(args.work, "inputs.json"), encoding="utf-8") as fh:
                inputs = json.load(fh)
        out = os.path.join(args.work, f"out-{os.getpid()}")
        result = solve(args.workload, seed, out, bool(args.trace), inputs)
        result["out"] = out
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
