import tracemalloc

import numpy as np
import pytest

from sparsecp.runner import (
    FileSource,
    IterationRecord,
    RunMode,
    RunResult,
    SolverConfig,
    run_online,
)
from sparsecp.synth import Distribution, gen_dictionary, gen_sparse_factor
from sparsecp.tensor_core import ColumnIndexMap, FiberSample, cp_fibers
from sparsecp.tensorio import (
    METRICS_HEADER,
    center_nonzero_fibers,
    emit_outputs,
    ingest_tensor,
    parse_config_file,
    preprocess_dynamic_range,
    read_matrix_csv,
    scale_by_max,
    write_matrix_csv,
    write_metrics_csv,
)

from oracles import nonzero_fibers


def tensor_file(tmp_path, body, name="t.tnsr"):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return p


def sample_of(Z):
    kept, Y = nonzero_fibers(Z)
    return FiberSample(Z.shape, ColumnIndexMap(Z.shape[1] * Z.shape[2], kept), Y)


def entries_file(tmp_path, shape, entries, name="t.tnsr"):
    """Write 0-based (i, j, k, value) entries as a TNSR3 file, in the given order."""
    lines = [f"TNSR3 {shape[0]} {shape[1]} {shape[2]}"]
    lines += [f"{i + 1} {j + 1} {k + 1} {float(v)!r}" for i, j, k, v in entries]
    return tensor_file(tmp_path, "\n".join(lines) + "\n", name)


# ingest_tensor -----------------------------------------------------------


def test_ingest_basic(tmp_path):
    p = tensor_file(
        tmp_path,
        "# comment line\nTNSR3 2 3 4   # trailing comment\n\n1 1 1 5.0\n2 3 4 -1.5\n",
    )
    s = ingest_tensor(p)
    assert s.shape == (2, 3, 4)
    # fiber (j, k) = (0, 0) is flat index 0, (2, 3) is 3*3 + 2 = 11
    assert np.array_equal(s.cmap.kept, [0, 11])
    assert s.cmap.total_cols == 12
    assert np.array_equal(s.Y, [[5.0, 0.0], [0.0, -1.5]])


def test_ingest_header_only_is_zero_tensor(tmp_path):
    s = ingest_tensor(tensor_file(tmp_path, "TNSR3 3 2 2\n"))
    assert s.shape == (3, 2, 2)
    assert s.cmap.p == 0 and s.Y.shape == (3, 0)


def test_ingest_matches_dense_reference(tmp_path):
    # J != K, entries in shuffled order, some listed with value 0
    rng = np.random.default_rng(5)
    shape = (6, 7, 4)
    Z = np.zeros(shape)
    picks = rng.choice(Z.size, size=40, replace=False)
    entries = []
    for flat in picks:
        i, j, k = np.unravel_index(flat, shape)
        v = 0.0 if flat % 5 == 0 else float(rng.standard_normal())
        Z[i, j, k] = v
        entries.append((i, j, k, v))
    s = ingest_tensor(entries_file(tmp_path, shape, entries))
    kept, Y = nonzero_fibers(Z)
    assert s.shape == shape
    assert np.array_equal(s.cmap.kept, kept)
    assert np.array_equal(s.Y, Y)


def test_ingest_zero_valued_fiber_is_not_a_sample_column(tmp_path):
    # fiber (j, k) = (1, 0) is listed, but only with zeros
    entries = [(0, 0, 0, 2.0), (1, 1, 0, 0.0), (2, 1, 0, 0.0), (0, 0, 1, -1.0)]
    s = ingest_tensor(entries_file(tmp_path, (3, 2, 2), entries))
    assert np.array_equal(s.cmap.kept, [0, 2])
    cfg = SolverConfig(n=3, J=2, K=2, m=2, alpha=0.5, beta=0.5, eta_A=1.0, T_max=1)
    res = run_online(cfg, FileSource(cfg, [s]))
    assert res.records[0].p == 2


def test_ingest_memory_follows_entries(tmp_path):
    n, J, K, m = 50, 300, 300, 10
    B = gen_sparse_factor(J, m, 0.01, rng_seed=1)
    C = gen_sparse_factor(K, m, 0.01, rng_seed=2)
    s = cp_fibers(gen_dictionary(n, m, 0), B, C)
    j, k = s.cmap.block_coords(J)
    entries = [(i, j[q], k[q], s.Y[i, q]) for q in range(s.cmap.p) for i in range(n)]
    path = entries_file(tmp_path, (n, J, K), entries)
    tracemalloc.start()
    try:
        back = ingest_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.cmap.p == s.cmap.p > 0
    assert np.array_equal(back.Y, s.Y)
    assert peak < n * J * K * 8


def test_ingest_errors_carry_line_numbers(tmp_path):
    cases = [
        ("TNSR 2 2 2\n", ":1: expected header"),
        ("TNSR3 2 2\n", ":1: expected header"),
        ("TNSR3 2 2 x\n", ":1: non-integer dimension"),
        ("TNSR3 2 0 2\n", ":1: dimensions must be >= 1"),
        ("TNSR3 1 4000000000 4000000000\n", ":1: shape .* is too large to index"),
        ("TNSR3 2 2 2\n1 1 1\n", ":2: expected '<i> <j> <k> <value>'"),
        ("TNSR3 2 2 2\n1 one 1 3.0\n", ":2: malformed entry"),
        ("TNSR3 2 2 2\n1 1 1 nan\n", ":2: non-finite value"),
        ("TNSR3 2 2 2\n0 1 1 3.0\n", ":2: index \\(0, 1, 1\\) outside"),
        ("TNSR3 2 2 2\n1 1 3 3.0\n", ":2: index \\(1, 1, 3\\) outside"),
        ("TNSR3 2 2 2\n1 1 1 1.0\n# gap\n1 1 1 2.0\n", ":4: duplicate coordinate"),
    ]
    for body, pattern in cases:
        with pytest.raises(ValueError, match=pattern):
            ingest_tensor(tensor_file(tmp_path, body))
    with pytest.raises(ValueError, match="empty file"):
        ingest_tensor(tensor_file(tmp_path, "# only comments\n\n"))


# preprocessing -----------------------------------------------------------


def test_preprocess_dynamic_range():
    Z = np.zeros((2, 2, 1))
    Z[0, 0, 0] = 1.0
    Z[1, 0, 0] = 8.0
    Z[0, 1, 0] = 2.0
    out = preprocess_dynamic_range(sample_of(Z))
    assert np.array_equal(out.cmap.kept, [0, 1])
    assert out.Y[0, 0] == 1.0  # log2(1) + 1
    assert out.Y[1, 0] == 4.0  # log2(8) + 1
    assert out.Y[0, 1] == 2.0  # log2(2) + 1
    assert out.Y[1, 1] == 0.0
    with pytest.raises(ValueError, match=r"\(0, 1, 0\)"):
        Z[0, 1, 0] = 0.5
        preprocess_dynamic_range(sample_of(Z))


def test_scale_by_max():
    Z = np.zeros((2, 1, 2))
    Z[0, 0, 1] = -4.0
    Z[1, 0, 0] = 2.0
    out = scale_by_max(sample_of(Z))
    assert np.array_equal(out.Y, [[0.0, -1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="all-zero"):
        scale_by_max(sample_of(np.zeros((2, 2, 2))))


def test_center_nonzero_fibers():
    Y = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    s = FiberSample((3, 2, 1), ColumnIndexMap(2, np.array([0, 1])), Y)
    out = center_nonzero_fibers(s)
    assert np.allclose(out.Y[:, 0], [-1.0, 0.0, 1.0])
    # the all-zero fiber is left alone, not filled with -mean
    assert not out.Y[:, 1].any()


# matrix csv --------------------------------------------------------------


def test_matrix_csv_round_trip_is_bit_exact(tmp_path):
    M = np.array([[0.1, 1.0 / 3.0], [1e-300, -0.0], [2.0**-53, 1e308]])
    p = tmp_path / "m.csv"
    write_matrix_csv(p, M)
    back = read_matrix_csv(p)
    assert back.shape == M.shape
    assert np.array_equal(back, M)
    assert np.signbit(back[1, 1])
    first = p.read_text(encoding="utf-8")
    write_matrix_csv(p, back)
    assert p.read_text(encoding="utf-8") == first


def test_matrix_csv_header(tmp_path):
    p = tmp_path / "m.csv"
    write_matrix_csv(p, np.zeros((2, 3)))
    assert p.read_text(encoding="utf-8").splitlines()[0] == "2,3"


def test_matrix_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty file"):
        read_matrix_csv(p)
    p.write_text("2;3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: expected 'rows,cols'"):
        read_matrix_csv(p)
    p.write_text("2,2\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="says 2 rows, found 1"):
        read_matrix_csv(p)
    p.write_text("1,3\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        read_matrix_csv(p)
    p.write_text("1,2\n1.0,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2: malformed value"):
        read_matrix_csv(p)
    # blank lines count: errors name the line of the file, not the row
    for token in ("nan", "inf", "-inf", "NaN"):
        p.write_text(f"2,3\n1.0,2.0,3.0\n\n4.0,{token},6.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.csv:4: non-finite value {token}$"):
            read_matrix_csv(p)


# config ------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# run setup\nn = 300\nJ=100  # inline\n\nK =100\nm=50\n",
        encoding="utf-8",
    )
    assert parse_config_file(p) == {"n": "300", "J": "100", "K": "100", "m": "50"}
    p.write_text("n 300\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: expected key=value"):
        parse_config_file(p)
    p.write_text("n=1\nn=2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2: duplicate key n"):
        parse_config_file(p)
    p.write_text("=3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: empty key"):
        parse_config_file(p)


def test_config_from_mapping():
    base = {"n": "300", "J": "100", "K": "100", "m": "50", "alpha": "0.01", "beta": "0.01"}
    cfg = SolverConfig.from_mapping(base)
    assert cfg.n == 300 and cfg.m == 50
    assert cfg.eta_A is None and cfg.resolved_eta_A() == 20.0
    assert cfg.eps0 is None and cfg.resolved_eps0() == pytest.approx(2.0 / np.log(300.0))
    cfg = SolverConfig.from_mapping(
        base | {"eta_A": "auto", "eps0": "0.5", "dist": "bounded_subgaussian", "mode": "batch"}
    )
    assert cfg.eta_A is None and cfg.eps0 == 0.5
    assert cfg.dist is Distribution.BOUNDED_SUBGAUSSIAN
    assert cfg.mode is RunMode.BATCH
    with pytest.raises(ValueError, match="Unknown config key"):
        SolverConfig.from_mapping(base | {"bogus": "1"})
    with pytest.raises(ValueError, match="Missing required config key"):
        SolverConfig.from_mapping({"n": "300"})
    with pytest.raises(ValueError, match="Bad value for config key alpha"):
        SolverConfig.from_mapping(base | {"alpha": "lots"})


def test_config_mapping_round_trip():
    cfg = SolverConfig(
        n=40, J=12, K=11, m=8, alpha=0.1, beta=0.1, eta_A=3.0, eps0=0.25, seed=7
    )
    back = SolverConfig.from_mapping(cfg.to_mapping())
    assert back == cfg
    cfg = SolverConfig(n=40, J=12, K=11, m=8, alpha=0.1, beta=0.1)
    assert SolverConfig.from_mapping(cfg.to_mapping()) == cfg


# metrics / outputs -------------------------------------------------------


def record(t, **kw):
    base = dict(
        t=t,
        p=900,
        p_indep=30,
        err_A_max=0.5,
        err_A_relF=0.25,
        err_X_relF=0.1,
        signed_support_ok=True,
        data_fit=0.01,
        err_B_max=0.2,
        err_C_max=0.3,
        min_descent_corr=1e-4,
        wall_ms=17.25,
    )
    base.update(kw)
    return IterationRecord(**base)


def test_write_metrics_csv(tmp_path):
    p = tmp_path / "metrics.csv"
    recs = [record(0), record(1, signed_support_ok=False, err_A_max=0.1)]
    write_metrics_csv(p, recs)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0,900,30,0.5,0.25,0.1,true,0.01,")
    assert ",false," in lines[2]
    # wall time is masked so byte comparison across runs means something
    assert lines[1].endswith(",0")
    assert lines[2].endswith(",0")
    write_metrics_csv(tmp_path / "again.csv", recs)
    assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()


def test_emit_outputs(tmp_path, capsys):
    cfg = SolverConfig(n=20, J=6, K=5, m=4, alpha=0.2, beta=0.2, eps_T=1e-8)
    rng = np.random.default_rng(0)
    A, B, C = rng.standard_normal((20, 4)), rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
    out = tmp_path / "out"
    emit_outputs([record(0), record(40, err_A_max=1e-9)], (A, B, C), cfg, out)
    for name in ("metrics.csv", "A.csv", "B.csv", "C.csv", "config.txt"):
        assert (out / name).is_file()
    assert np.array_equal(read_matrix_csv(out / "A.csv"), A)
    assert np.array_equal(read_matrix_csv(out / "C.csv"), C)
    echoed = parse_config_file(out / "config.txt")
    assert SolverConfig.from_mapping(echoed) == cfg
    msg = capsys.readouterr().out
    assert msg.startswith("converged t=40 ")
    assert "err_A_max=1.000e-09" in msg
    assert str(out) in msg


def test_emit_outputs_not_converged(tmp_path, capsys):
    cfg = SolverConfig(n=20, J=6, K=5, m=4, alpha=0.2, beta=0.2, eps_T=1e-12)
    Ms = (np.zeros((20, 4)), np.zeros((6, 4)), np.zeros((5, 4)))
    emit_outputs([record(0)], Ms, cfg, tmp_path / "o2")
    assert capsys.readouterr().out.startswith("stopped t=0 ")


def test_emit_outputs_summary_follows_run_result(tmp_path, capsys):
    # the last logged movement is within eps_T, but the run ran out of files
    cfg = SolverConfig(n=20, J=6, K=5, m=4, alpha=0.2, beta=0.2, eps_T=1e-8)
    Ms = (np.zeros((20, 4)), np.zeros((6, 4)), np.zeros((5, 4)))
    records = (record(0), record(5, err_A_max=0.0))
    result = RunResult(records, *Ms, X=np.zeros((4, 0)), stop_reason="source_exhausted",
                       converged=False, iterations=7, wall_ms=1234.5)
    emit_outputs(records, Ms, cfg, tmp_path / "o3", result)
    msg = capsys.readouterr().out
    assert msg.startswith("stopped t=5 ")
    assert "wall_ms=1234.5 stop_reason=source_exhausted" in msg
