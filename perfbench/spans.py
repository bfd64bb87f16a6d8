"""Span tracing from outside the package: wrap module attributes.

`install` replaces the functions that `run_online`, the sources and the
file I/O call with timed wrappers. Spans (name, start, end, parent,
iteration) stay in memory until `write`. Nothing in the package changes;
a wrapped call returns exactly what the original returns.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

# (module, attribute, span name). Modules that import as_matrix by name
# each get their own wrapper, so every validation/copy call is counted.
_METRICS = ("match_columns", "column_errors", "rel_frobenius", "align_columns",
            "align_rows", "signed_support_equal", "normalized_column_errors",
            "_min_descent_correlation")
_AS_MATRIX_MODULES = ("runner", "synth", "tensor_core", "sparse_coding",
                      "dict_update", "untangle", "metrics", "tensorio", "linalg")
WRAPS = [
    ("runner", "run_online", "runner.run_online"),
    ("runner", "gen_tensor_instance", "synth.draw"),
    ("synth", "gen_sparse_factor", "synth.gen_sparse_factor"),
    ("synth", "cp_compose", "tensor_core.cp_compose"),
    ("runner", "mode1_unfold", "tensor_core.mode1_unfold"),
    ("runner", "extract_nonzero_columns", "tensor_core.extract"),
    ("runner", "scatter_columns", "tensor_core.scatter"),
    ("runner", "khatri_rao_transpose", "tensor_core.khatri_rao"),
    ("runner", "init_code", "sparse_coding.init_code"),
    ("runner", "iht", "sparse_coding.iht"),
    ("runner", "untangle_krp", "untangle.untangle"),
    ("untangle", "rank1_svd", "linalg.rank1_svd"),
    ("runner", "gradient", "dict_update.gradient"),
    ("runner", "step_and_normalize", "dict_update.step"),
    ("runner", "data_fit", "metrics.data_fit"),
    *[("runner", f, "metrics.eval") for f in _METRICS],
    ("tensorio", "ingest_tensor", "tensorio.ingest"),
    ("tensorio", "emit_outputs", "tensorio.emit"),
    *[(mod, "as_matrix", "linalg.as_matrix") for mod in _AS_MATRIX_MODULES],
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, iteration]
        self.counts: dict[str, float] = defaultdict(float)
        self.iteration = -1
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def call(self, name, fn, *args, **kwargs):
        if threading.get_ident() != self._main:
            # Worker threads of the package's pools: not traced, but counted.
            self.counts["trace.offthread_calls"] += 1
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.iteration]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out

        setattr(owner, attr, traced)

    def wrap_source(self, source) -> None:
        """Trace source.instance and tag later spans with its iteration."""
        fn = source.instance

        def instance(t):
            self.iteration = t
            return self.call("runner.source", fn, t)

        source.instance = instance

    # Results ------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """Return name -> (self ms, inclusive ms, calls)."""
        child = [0.0] * len(self.spans)
        for name, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, s, e, _, _), c in zip(self.spans, child):
            acc = out[name]
            acc[0] += (e - s - c) * 1e3
            acc[1] += (e - s) * 1e3
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_us,end_us,parent,iteration\n")
            for i, (name, s, e, parent, it) in enumerate(self.spans):
                fh.write(f"{i},{name},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f},{parent},{it}\n")


def install(sp) -> Tracer:
    """Wrap the package's module attributes; sp is the imported package."""
    tr = Tracer()
    c = tr.counts

    def on_extract(args, out):
        Y, cmap = out
        n = Y.shape[0]
        c["tensor_core.cols_kept"] += cmap.p
        c["tensor_core.cols_total"] += cmap.total_cols
        c["tensor_core.dense_mb"] += n * cmap.total_cols * 8 / 1e6

    def on_iht(args, out):
        A, Y = args[0], args[1]
        n, m = A.shape
        c["sparse_coding.iht_gflop"] += 4 * n * m * Y.shape[1] * args[3].R / 1e9

    def on_untangle(args, out):
        c["untangle.degenerate_rows"] += len(out.degenerate_rows)

    hooks = {"tensor_core.extract": on_extract, "sparse_coding.iht": on_iht,
             "untangle.untangle": on_untangle}
    for mod, attr, name in WRAPS:
        tr.wrap(getattr(sp, mod), attr, name, hooks.get(name))
    return tr
