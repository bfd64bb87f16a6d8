"""sparsecp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload canonical --seed 42 --seconds 25 --trace 0

Run from the root of a checkout. Every task runs in a fresh child
interpreter (perfbench/solve.py) with the checkout's `src` on PYTHONPATH,
one at a time, so each solve pays its own imports and its peak RSS is its
own. With --trace 0 run.py reports the end-to-end metrics of untraced
solves; with --trace 1 it adds one traced solve and reports the per-layer
metrics from it. Every solve is checked: stop reason, the workload's
correctness gates, and a digest of metrics.csv and the factor CSVs, which
must match across repeats of an instance and between traced and untraced
solves. The last stdout line is one JSON object; the full result, with
provenance, is kept under .perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import TOL, WORKLOADS, instance_seed, nproc, stop_rule

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # the whole run, children included
DIGESTED = ("metrics.csv", "A.csv", "B.csv", "C.csv")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"solve_s": "s", "setup_s": "s", "iter_ms_p50": "ms", "iter_ms_p90": "ms",
             "cols_per_s": "1/s", "iters_to_tol": "count", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    pass


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, q1={percentile(values, 0.25):.4g}, q3={percentile(values, 0.75):.4g}"


def digest(out: str) -> str:
    h = hashlib.sha256()
    for name in DIGESTED:
        with open(os.path.join(out, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.name, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.w = WORKLOADS[workload]
        self.t_begin = time.perf_counter()
        base = os.path.join(ROOT, ".perfbench-work")
        self.keep = os.path.join(base, "results")
        self.work = os.path.join(base, f"{workload}-seed{seed}-{os.getpid()}")
        os.makedirs(self.keep, exist_ok=True)
        os.makedirs(self.work)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # One BLAS thread per process. At the library default OpenBLAS runs a
        # second thread that spins on the other core, so a solve's time
        # depends on what else that core is doing.
        self.env.update({k: "1" for k in BLAS_THREAD_VARS})
        self.tasks = 0

    def child(self, mode: str, instance: int = 0, trace: bool = False) -> dict:
        self.tasks += 1
        result = os.path.join(self.work, f"task{self.tasks}.json")
        cmd = [sys.executable, os.path.join(HERE, "solve.py"), mode,
               "--workload", self.name, "--seed", str(self.seed),
               "--instance", str(instance), "--trace", str(int(trace)),
               "--work", self.work, "--result", result]
        left = RUN_LIMIT_S - (time.perf_counter() - self.t_begin)
        if left <= 1.0:
            raise ChildError("run time limit reached")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise ChildError(f"{mode} exceeded the run time limit")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise ChildError(f"{mode} exited {proc.returncode}: {' | '.join(tail)}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    # Checks ---------------------------------------------------------------

    def gates(self, r: dict, inputs: dict | None) -> list[str]:
        """Return the failed correctness conditions of one solve."""
        bad = []
        if r["stop_reason"] != self.w["stop"]:
            bad.append(f"stop_reason {r['stop_reason']} != {self.w['stop']}")
        if self.name == "canonical":
            if not r["signed_support_ok"]:
                bad.append("signed support lost at some iteration")
            if not r["final_err_X_relF"] <= TOL:
                bad.append(f"final err_X_relF {r['final_err_X_relF']:.3e} > {TOL:g}")
        if self.w.get("reach_tol") and r["iters_to_tol"] is None:
            bad.append(f"err_A_relF never reached {TOL:g}")
        if not r["final_err_A_max"] < r["eps0"]:
            bad.append(f"final err_A_max {r['final_err_A_max']:.3e} >= eps0 {r['eps0']:.3f}")
        if inputs is not None:
            if r["iterations"] != len(inputs["files"]):
                bad.append(f"{r['iterations']} iterations for {len(inputs['files'])} files")
            if r["p"] != inputs["fibers"][: len(r["p"])]:
                bad.append("per-iteration p differs from the files' non-zero fiber counts")
        return bad

    # Run ------------------------------------------------------------------

    def run(self) -> dict:
        prov = self.child("warmup")
        inputs = None
        if self.w["kind"] == "files":
            inputs = self.child("prep")
            with open(os.path.join(self.work, "inputs.json"), "w", encoding="utf-8") as fh:
                json.dump(inputs, fh)
        setups = [] if self.trace else [self.child("setup")["setup_s"] for _ in range(SETUP_REPEATS)]

        k = self.w["instances"]
        solves, failures, digests = [], [], {}
        t0 = time.perf_counter()
        # Untraced solves: every instance once plus one repeat of instance 0
        # (the determinism check), then more rounds while time is left. A
        # traced run solves instance 0 untraced while time is left (the
        # baseline for the tracing overhead), then once traced.
        plan_min = 1 if self.trace else k + 1
        traced = None
        for i in itertools.count():
            elapsed = time.perf_counter() - t0
            est = statistics.median([s["wall_s"] for s in solves]) if solves else 0.0
            if i >= plan_min and elapsed + est > self.seconds:
                break
            instance = 0 if self.trace else i % k
            solves.append(self.solve(instance, False, inputs, failures, digests))
            if "out" not in solves[-1]:  # the child raised or timed out: stop here
                break
        if self.trace:
            traced = self.solve(0, True, inputs, failures, digests)
        ok = [s for s in solves if s["ok"]]
        attempted = len(solves) + (traced is not None)
        result = {
            "workload": self.name, "seed": self.seed, "trace": int(self.trace),
            "seconds": self.seconds, "commit": git_commit(), "nproc": nproc(),
            "stop_rule": stop_rule(self.name), "instances": k, **prov,
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "fail_ratio": len(failures) / attempted,
            "solves": [{key: s[key] for key in ("instance", "seed", "solve_s", "iterations",
                                                 "stop_reason", "iters_to_tol",
                                                 "final_err_A_max", "final_err_A_relF",
                                                 "peak_rss_mb", "ok")}
                       for s in solves],
        }
        if ok:
            result["workers"] = ok[0]["workers"]
        result["setup_samples_s"] = setups
        if not self.trace and ok and len(ok) == len(solves):
            result["metrics"] = self.end_to_end(ok, setups)
        if traced is not None and traced["ok"] and ok:
            result["metrics"] = self.per_layer(traced, ok, inputs)
            # Derived from shapes and counts, not measured.
            result["computed"] = ["tensor_core.dense_mb", "tensor_core.cols_kept",
                                  "sparse_coding.iht_gflop"]
        return result

    def solve(self, instance, traced, inputs, failures, digests) -> dict:
        seed = instance_seed(self.seed, instance)
        label = f"{'traced ' if traced else ''}solve instance {instance} (seed {seed})"
        tick = time.perf_counter()
        try:
            r = self.child("solve", instance, traced)
        except ChildError as exc:
            failures.append(f"{label}: {exc}")
            print(f"{label}: FAILED {exc}", flush=True)
            return {"ok": False, "instance": instance, "seed": seed, "wall_s": 0.0,
                    "solve_s": None, "iterations": None, "stop_reason": None,
                    "iters_to_tol": None, "final_err_A_max": None,
                    "final_err_A_relF": None, "peak_rss_mb": None}
        r.update(instance=instance, seed=seed, wall_s=time.perf_counter() - tick)
        bad = self.gates(r, inputs)
        d = digest(r["out"])
        first = digests.setdefault(instance, d)
        if d != first:
            bad.append("output digest differs from the first solve of this instance")
        if traced:
            shutil.copy(os.path.join(r["out"], "spans.csv"), os.path.join(
                self.keep, f"{self.name}-seed{self.seed}.spans.csv"))
        shutil.rmtree(r["out"])
        r["ok"] = not bad
        failures.extend(f"{label}: {b}" for b in bad)
        print(f"{label}: {r['solve_s']:.3f} s, {r['iterations']} iterations, "
              f"{r['stop_reason']}, digest {d[:12]}, {'ok' if not bad else 'FAILED ' + '; '.join(bad)}",
              flush=True)
        return r

    # Metrics --------------------------------------------------------------

    def end_to_end(self, ok: list[dict], setups: list[float]) -> dict:
        solve_s = [s["solve_s"] for s in ok]
        iter_ms = [ms for s in ok for ms in s["wall_ms"]]
        setups = setups + [s["setup_s"] for s in ok]
        per_instance = list({s["instance"]: s for s in ok}.values())
        # Each instance is timed as the mean of its repeats, so that every
        # solve counts against the host's drift; the instances of a run are
        # averaged.
        inst_s = [statistics.fmean(s["solve_s"] for s in ok if s["instance"] == i["instance"])
                  for i in per_instance]
        cols = [sum(i["p"]) / t for i, t in zip(per_instance, inst_s)]
        # Censored at the run length where the run is too short to reach TOL.
        to_tol = [s["iters_to_tol"] if s["iters_to_tol"] is not None else s["iterations"]
                  for s in per_instance]
        values = {
            "solve_s": statistics.fmean(inst_s),
            "setup_s": statistics.median(setups),
            "iter_ms_p50": percentile(iter_ms, 0.5),
            "iter_ms_p90": percentile(iter_ms, 0.9),
            "cols_per_s": statistics.fmean(cols),
            "iters_to_tol": statistics.fmean(to_tol),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in ok),
        }
        beyond = sum(ms > values["iter_ms_p90"] for ms in iter_ms)
        notes = {
            "solve_s": f"mean over {len(inst_s)} instances; all solves {spread(solve_s)}",
            "setup_s": spread(setups),
            "iter_ms_p50": f"pooled n={len(iter_ms)}",
            "iter_ms_p90": f"pooled n={len(iter_ms)}, {beyond} beyond",
            "cols_per_s": f"mean over {len(cols)} instances",
            "iters_to_tol": "mean over instances of " + ", ".join(map(str, to_tol)),
            "peak_rss_mb": "max ru_maxrss over solves (MiB)",
        }
        return {k: {"value": v, "unit": E2E_UNITS[k], "note": notes[k]} for k, v in values.items()}

    def per_layer(self, tr: dict, ok: list[dict], inputs: dict | None) -> dict:
        st, c, iters = tr["self_times"], tr["counts"], tr["iterations"]

        def self_ms(*names):
            return sum(st.get(n, (0.0, 0.0, 0))[0] for n in names)

        def incl_ms(name):
            return st.get(name, (0.0, 0.0, 0))[1]

        def calls(name):
            return st.get(name, (0.0, 0.0, 0))[2]

        ms = {
            "synth.draw_ms": self_ms("synth.draw"),
            "synth.gen_sparse_factor_ms": self_ms("synth.gen_sparse_factor"),
            "tensor_core.cp_compose_ms": self_ms("tensor_core.cp_compose"),
            "tensor_core.mode1_unfold_ms": self_ms("tensor_core.mode1_unfold"),
            "tensor_core.extract_ms": self_ms("tensor_core.extract"),
            "tensor_core.scatter_ms": self_ms("tensor_core.scatter"),
            "tensor_core.khatri_rao_ms": self_ms("tensor_core.khatri_rao"),
            "sparse_coding.init_code_ms": self_ms("sparse_coding.init_code"),
            "sparse_coding.iht_ms": self_ms("sparse_coding.iht"),
            "untangle.untangle_ms": self_ms("untangle.untangle"),
            "linalg.rank1_svd_ms": self_ms("linalg.rank1_svd"),
            "linalg.as_matrix_ms": self_ms("linalg.as_matrix"),
            "dict_update.gradient_ms": self_ms("dict_update.gradient"),
            "dict_update.step_ms": self_ms("dict_update.step"),
            # Ground-truth evaluation, including the Khatri-Rao columns.
            "metrics.eval_ms": self_ms("metrics.eval", "tensor_core.khatri_rao"),
            "metrics.data_fit_ms": self_ms("metrics.data_fit"),
            "tensorio.ingest_ms": self_ms("tensorio.ingest"),
            "tensorio.emit_ms": self_ms("tensorio.emit"),
            "runner.source_ms": incl_ms("runner.source"),
            "runner.self_ms": self_ms("runner.run_online"),
        }
        total_cols = c.get("tensor_core.cols_total", 0.0)
        gflop = c.get("sparse_coding.iht_gflop", 0.0)
        ingest_s = incl_ms("tensorio.ingest") / 1e3
        counts = {
            "tensor_core.cols_kept": c.get("tensor_core.cols_kept", 0.0),
            "tensor_core.dense_mb": c.get("tensor_core.dense_mb", 0.0),
            "sparse_coding.iht_gflop": gflop,
            "untangle.rank1_svd_calls": calls("linalg.rank1_svd"),
            "untangle.degenerate_rows": c.get("untangle.degenerate_rows", 0.0),
            "linalg.as_matrix_calls": calls("linalg.as_matrix"),
            "tensorio.ingest_lines": inputs["lines"] if inputs else 0,
            "tensorio.written_mb": tr["written_mb"],
        }
        baseline = [s["solve_s"] for s in ok if s["instance"] == 0]
        solve_ms = incl_ms("solve")
        single = {
            "tensor_core.keep_ratio": (counts["tensor_core.cols_kept"] / total_cols
                                       if total_cols else 0.0),
            "sparse_coding.iht_gflops_per_s": (gflop / (incl_ms("sparse_coding.iht") / 1e3)
                                               if gflop else 0.0),
            "tensorio.ingest_mb_per_s": inputs["bytes"] / 1e6 / ingest_s if inputs else 0.0,
            "runner.iterations": iters,
            "quality.final_err_A_max": tr["final_err_A_max"],
            "trace.solve_ms": solve_ms,
            "trace.attributed_ms": sum(v[0] for k, v in st.items() if k != "solve"),
            "trace.unattributed_ms": self_ms("solve"),
            "trace.overhead_ms": solve_ms - 1e3 * statistics.median(baseline),
            "trace.spans": tr["spans"],
            "trace.offthread_calls": c.get("trace.offthread_calls", 0.0),
        }
        out = {}
        for key, v in {**ms, **counts}.items():
            out[key] = v
            out[f"{key}_per_iter"] = v / iters if iters else 0.0
        out.update(single)
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in out.items()}


def layer_unit(name: str) -> str:
    base = name.removesuffix("_per_iter")
    if base.endswith("_ms"):
        return "ms"
    return {"tensor_core.cols_kept": "count", "tensor_core.dense_mb": "MB",
            "tensor_core.keep_ratio": "ratio", "sparse_coding.iht_gflop": "GFLOP",
            "sparse_coding.iht_gflops_per_s": "GFLOP/s", "untangle.rank1_svd_calls": "count",
            "untangle.degenerate_rows": "count", "linalg.as_matrix_calls": "count",
            "tensorio.ingest_lines": "count", "tensorio.ingest_mb_per_s": "MB/s",
            "tensorio.written_mb": "MB", "runner.iterations": "count",
            "trace.spans": "count", "trace.offthread_calls": "count",
            "quality.final_err_A_max": "1"}[base]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one sparsecp benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=42, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sparsecp", "__init__.py")):
        print(f"error: no src/sparsecp under {ROOT}; run from a sparsecp checkout",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    except ChildError as exc:  # warm-up, input preparation or set-up failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    path = os.path.join(bench.keep, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"{result['workload']} seed={result['seed']} trace={result['trace']} "
          f"commit={result['commit']} python={result['python']} numpy={result['numpy']} "
          f"blas={result['blas']} blas_threads={result['blas_threads']} "
          f"nproc={result['nproc']} workers={result.get('workers')}")
    print(f"stop rule: {result['stop_rule']}; instances per run: {result['instances']}")
    metrics = result.get("metrics", {})
    for key, m in metrics.items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"  {key:36s} {m['value']:>14.6g} {m['unit']}{note}")
    if args.trace and metrics:
        print(f"  self times {metrics['trace.attributed_ms']['value']:.1f} ms + unattributed "
              f"{metrics['trace.unattributed_ms']['value']:.1f} ms = traced solve "
              f"{metrics['trace.solve_ms']['value']:.1f} ms; tracing overhead "
              f"{metrics['trace.overhead_ms']['value']:.1f} ms")
    firsts = {s["instance"]: s for s in reversed(result["solves"]) if s["ok"]}
    for s in sorted(firsts.values(), key=lambda s: s["instance"]):
        print(f"  instance {s['instance']} (seed {s['seed']}): final err_A_max "
              f"{s['final_err_A_max']:.3e}, err_A_relF {s['final_err_A_relF']:.3e}")
    for f in result["failures"]:
        print(f"  FAILED {f}")
    correct = result["failed"] == 0 and bool(metrics)
    print(f"correct={correct} attempted={result['attempted']} failed={result['failed']} "
          f"fail_ratio={result['fail_ratio']:.3g}; full result in {path}")
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
