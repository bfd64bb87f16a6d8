import json
import re
from dataclasses import fields

import numpy as np
import pytest

from sparsecp.cli import main
from sparsecp.runner import IterationRecord, RunResult, SolverConfig
from sparsecp.metrics import column_errors, match_columns
from sparsecp.synth import (
    Distribution,
    SparsityParams,
    child_seed,
    gen_dictionary,
    gen_tensor_instance,
    perturb_init,
)
from sparsecp.tensorio import (
    center_nonzero_fibers,
    ingest_tensor,
    preprocess_dynamic_range,
    read_matrix_csv,
    write_matrix_csv,
)
from child import run_python
from oracles import traced_peak

FAST = [
    "--n", "40", "--J", "15", "--K", "15", "--m", "6",
    "--alpha", "0.1", "--beta", "0.1", "--eta_A", "8.0",
]


def test_synth_run_converges_and_writes(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["synth-run", *FAST, "--T_max", "300", "--eps_T", "1e-6", "--out", str(out)]
    )
    assert code == 0
    for name in ("metrics.csv", "A.csv", "B.csv", "C.csv", "config.txt"):
        assert (out / name).is_file()
    msg = capsys.readouterr().out
    assert msg.startswith("converged t=")


def test_synth_run_not_converged_exit_code(tmp_path, capsys):
    code = main(
        ["synth-run", *FAST, "--T_max", "2", "--eps_T", "1e-300",
         "--out", str(tmp_path / "r")]
    )
    assert code == 2
    assert capsys.readouterr().out.startswith("stopped t=1 ")


def _record(t, err_A_max):
    return IterationRecord(
        t=t, p=12, p_indep=3, err_A_max=err_A_max, err_A_relF=0.0, err_X_relF=0.0,
        signed_support_ok=True, data_fit=0.25, err_B_max=0.0, err_C_max=0.0,
        min_descent_corr=0.0, wall_ms=17.25,
    )


@pytest.mark.parametrize(
    "stop_reason, state, code",
    [("source_exhausted", "stopped", 2), ("max_iterations", "stopped", 2),
     ("converged", "converged", 0)],
    ids=["source_exhausted", "max_iterations", "converged"],
)
def test_summary_follows_run_result(tmp_path, capsys, monkeypatch, stop_reason, state, code):
    # the last logged err_A_max is 0, within any eps_T: only the run knows why it stopped
    Ms = (np.zeros((40, 6)), np.zeros((15, 6)), np.zeros((15, 6)))
    result = RunResult((_record(0, 0.5), _record(5, 0.0)), *Ms, X=np.zeros((6, 0)),
                       stop_reason=stop_reason, iterations=7, idle_iterations=3,
                       wall_ms=1234.5)
    monkeypatch.setattr("sparsecp.cli.run_online", lambda cfg: result)
    out = tmp_path / "o"
    assert main(["synth-run", *FAST, "--out", str(out)]) == code
    assert capsys.readouterr().out == (
        f"{state} t=5 p=12 err_A_max=0.000e+00 data_fit=2.500e-01 wall_ms=1234.5 "
        f"stop_reason={stop_reason} idle=3 -> {out}\n"
    )
    assert (out / "metrics.csv").read_text().splitlines()[-1].startswith("5,12,3,0.0,")


def test_synth_run_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "n=40\nJ=15\nK=15\nm=6\nalpha=0.1\nbeta=0.1\neta_A=8.0\nT_max=1\nseed=5\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    code = main(
        ["synth-run", "--config", str(cfgfile), "--T_max", "3",
         "--eps_T", "1e-300", "--out", str(out)]
    )
    assert code == 2
    capsys.readouterr()
    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    # flag override beat the file's T_max=1
    assert lines[-1].startswith("2,")
    echoed = dict(
        kv.split("=", 1) for kv in (out / "config.txt").read_text().splitlines() if "=" in kv
    )
    assert echoed["T_max"] == "3"
    assert echoed["seed"] == "5"


def test_synth_run_bad_value_is_reported(tmp_path, capsys):
    code = main(["synth-run", *FAST, "--alpha", "lots", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "alpha" in err


def test_synth_run_rejects_code_entries_below_tau(tmp_path, capsys):
    code = main(["synth-run", *FAST, "--dist", "bounded_subgaussian", "--C_lb", "0.3",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: C_lb**2 = 0.09 is below tau = 0.1: ")
    assert not (tmp_path / "x").exists()


def test_negative_seed_is_rejected_by_name(tmp_path, capsys):
    code = main(["synth-run", *FAST, "--seed", "-1", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value", [("tau", "0.1,0.05"), ("eta_x", "0.5,0.25")])
def test_step_schedule_is_a_usage_error(tmp_path, capsys, key, value):
    # eta_x and tau take one value for every IHT step, by flag or config file
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"n=40\nJ=15\nK=15\nm=6\nalpha=0.1\nbeta=0.1\n{key}={value}\n")
    for args in ([*FAST, f"--{key}", value], ["--config", str(cfgfile)]):
        assert main(["synth-run", *args, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: Bad value for config key {key}: {value!r}")
    assert not (tmp_path / "x").exists()


FLOAT_KEYS = [f.name for f in fields(SolverConfig) if "float" in str(f.type)]
BASE = {"n": "40", "J": "15", "K": "15", "m": "6", "alpha": "0.1", "beta": "0.1"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_rejected_naming_its_key(tmp_path, capsys, key, value):
    assert len(FLOAT_KEYS) == 9
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        SolverConfig.from_mapping(BASE | {key: value})
    code = main(["synth-run", *FAST, f"--{key}={value}", "--out", str(tmp_path / "x")])
    assert code == 1
    assert re.fullmatch(rf"error: {key}\b[^\n]*\n", capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("n", ["2"])
def test_synth_run_with_too_few_rows_asks_for_eps0(tmp_path, capsys, n):
    code = main(["synth-run", *FAST, "--n", n, "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: No default eps0 for n = {n} (needs n >= 3); set eps0\n"


def tiny_tnsr(path, n):
    Z = np.zeros((n, 2, 2))
    Z[0, 0, 0], Z[-1, 1, 0], Z[0, 1, 1] = 1.0, -0.5, 2.0
    write_tnsr(path, Z)
    return str(path)


@pytest.mark.parametrize("n", [2])
def test_decompose_with_too_few_rows_runs(tmp_path, capsys, n):
    # file runs start from random unit columns and never resolve eps0
    p = tiny_tnsr(tmp_path / "z.tnsr", n)
    code = main(["decompose", p, "--m", "2", "--eta_A", "1.0", "--out", str(tmp_path / "d")])
    assert code in (0, 2)
    assert "stop_reason=" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["synth-run", "decompose"])
def test_one_row_is_rejected(tmp_path, capsys, command):
    # a unit column in R^1 is +-1 and cannot move, so no run with n = 1 means anything
    args = (
        ["synth-run", *FAST, "--n", "1", "--eps0", "0.5"] if command == "synth-run"
        else ["decompose", tiny_tnsr(tmp_path / "z.tnsr", 1), "--m", "2", "--eta_A", "1.0"]
    )
    assert main([*args, "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == "error: n must be >= 2, got 1\n"
    assert not (tmp_path / "d").exists()


def tnsr_lines(Z):
    n, J, K = Z.shape
    yield f"TNSR3 {n} {J} {K}"
    for i in range(n):
        for j in range(J):
            for k in range(K):
                if Z[i, j, k] != 0.0:
                    yield f"{i + 1} {j + 1} {k + 1} {float(Z[i, j, k])!r}"


def write_tnsr(path, Z):
    path.write_text("\n".join(tnsr_lines(Z)) + "\n", encoding="utf-8")


def write_planted_files(tmp_path, count, seed):
    n, J, K, m = 30, 12, 12, 4
    A = gen_dictionary(n, m, 2)
    paths = []
    for t in range(count):
        Z, _ = gen_tensor_instance(
            n, J, K, m, SparsityParams(0.15, 0.15), Distribution.RADEMACHER, 1.0, A, seed + t
        )
        p = tmp_path / f"z{t}.tnsr"
        write_tnsr(p, Z)
        paths.append(str(p))
    return paths


def test_decompose_runs_on_files(tmp_path, capsys):
    n, m = 30, 4
    paths = write_planted_files(tmp_path, 3, 50)
    out = tmp_path / "dec"
    code = main(
        ["decompose", *paths, "--m", "4", "--eta_A", "4.0", "--eps_T", "1e-300",
         "--out", str(out)]
    )
    msg = capsys.readouterr().out
    # a cold random start may sit at a fixed point immediately (all codes
    # thresholded away, zero gradient); either way the state line and the
    # exit code must agree
    assert (code, msg.startswith("converged")) in {(0, True), (2, False)}
    assert (out / "metrics.csv").is_file()
    assert read_matrix_csv(out / "A.csv").shape == (n, m)


def test_decompose_runs_in_the_files_units_alike(tmp_path, capsys):
    # files planted 0.2 from decompose's seed-5 start, written at five scales: each
    # sample is divided by its median non-zero fiber norm, so the run cannot tell them apart
    n, J, K, m = 30, 12, 12, 4
    root = np.random.SeedSequence(5)
    planted = perturb_init(gen_dictionary(n, m, child_seed(root, 0)), 0.2, child_seed(root, 1))
    Zs = [
        gen_tensor_instance(n, J, K, m, SparsityParams(0.15, 0.15), Distribution.RADEMACHER,
                            1.0, planted, child_seed(root, 2, t))[0]
        for t in range(6)
    ]
    runs = {}
    for c in (0.01, 0.25, 1.0, 4.0, 100.0):
        paths = []
        for t, Z in enumerate(Zs):
            paths.append(tmp_path / f"x{c}-{t}.tnsr3")
            write_tnsr(paths[-1], Z * c)
        out = tmp_path / f"d{c}"
        code = main(["decompose", *map(str, paths), "--m", "4", "--seed", "5", "--eta_A", "4",
                     "--eps_T", "1e-300", "--out", str(out)])
        msg = capsys.readouterr().out
        assert code == 2 and msg.startswith("stopped t=5 ") and " idle=0 -> " in msg, (c, msg)
        runs[c] = _outputs(out)
    A = read_matrix_csv(tmp_path / "d1.0" / "A.csv")
    assert column_errors(A, planted, match_columns(A, planted)).max_err < 0.05  # 0.2 at the start
    assert runs[0.25] == runs[1.0] == runs[4.0]  # a power of two moves no bit
    for c in (0.01, 100.0):
        assert np.abs(read_matrix_csv(tmp_path / f"d{c}" / "A.csv") - A).max() <= 1e-12


def test_decompose_dims_from_tensor_header(tmp_path, capsys):
    Z = np.zeros((5, 3, 2))
    Z[0, 0, 0] = 0.4
    p = tmp_path / "z.tnsr"
    write_tnsr(p, Z)
    out = tmp_path / "d"
    code = main(
        ["decompose", str(p), "--m", "2", "--eta_A", "1.0", "--T_max", "5",
         "--eps_T", "1e-300", "--out", str(out)]
    )
    # the lone spike scales to 1, and the seed-42 start has |A[0, 0]| = 0.533 >=
    # C_lb / 2, so its code is non-zero and the one iteration learns
    assert code == 2
    assert "stop_reason=source_exhausted idle=0 -> " in capsys.readouterr().out
    echoed = dict(
        kv.split("=", 1) for kv in (out / "config.txt").read_text().splitlines() if "=" in kv
    )
    assert (echoed["n"], echoed["J"], echoed["K"]) == ("5", "3", "2")


def test_decompose_all_zero_files_stop(tmp_path, capsys):
    paths = []
    for t in range(2):
        p = tmp_path / f"zero{t}.tnsr"
        write_tnsr(p, np.zeros((5, 3, 2)))
        paths.append(str(p))
    code = main(["decompose", *paths, "--m", "2", "--eta_A", "1", "--out", str(tmp_path / "z")])
    assert code == 2
    msg = capsys.readouterr().out
    assert msg.startswith("stopped t=1 ")
    assert "stop_reason=source_exhausted idle=2 -> " in msg


def test_decompose_logs_last_iteration_when_files_run_out(tmp_path, capsys):
    paths = write_planted_files(tmp_path, 4, 70)
    out = tmp_path / "dec"
    code = main(
        ["decompose", *paths, "--m", "4", "--eta_A", "4.0", "--eps_T", "1e-300",
         "--log_every", "5", "--out", str(out)]
    )
    assert code == 2
    msg = capsys.readouterr().out
    assert msg.startswith("stopped t=3 ")
    assert "stop_reason=source_exhausted" in msg
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "3"]


@pytest.mark.parametrize(
    "flag, peak", [("--log2-range", 8.0), ("--center-fibers", -8.0)],
    ids=["log2-range", "center-fibers"],
)
def test_decompose_runs_each_preprocessing_flag(tmp_path, capsys, flag, peak):
    # log2-range takes counts-style data, every non-zero >= 1
    Z = np.zeros((4, 2, 2))
    Z[0, 0, 0] = peak
    Z[1, 1, 1] = 2.0
    p = tmp_path / "z.tnsr"
    write_tnsr(p, Z)
    code = main(
        ["decompose", str(p), "--m", "2", "--eta_A", "1.0", flag,
         "--eps_T", "1e-300", "--out", str(tmp_path / "s")]
    )
    assert code == 2
    assert capsys.readouterr().out.startswith("stopped t=0 ")


@pytest.mark.parametrize(
    "flag, body, message",
    [("--log2-range", "1 1 1 2.0\n2 2 1 0.5\n",
      "Non-zero entry 0.5 at (2, 2, 1) is < 1; dynamic-range compression needs "
      "counts-style data")],
    ids=["log2-range"],
)
def test_decompose_preprocessing_error_names_file(tmp_path, capsys, flag, body, message):
    # each file is read at its own iteration: the run needs a step size for
    # m=2, and must not converge on the one-entry good file, to reach the bad one
    good, bad = tmp_path / "good.tnsr3", tmp_path / "bad.tnsr3"
    good.write_text("TNSR3 2 2 2\n1 1 1 4.0\n", encoding="utf-8")
    bad.write_text(f"TNSR3 2 2 2\n{body}", encoding="utf-8")
    code = main(["decompose", str(good), str(bad), "--m", "2", "--eta_A", "1",
                 "--eps_T", "1e-300", flag, "--out", str(tmp_path / "d")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "d").exists()


def _outputs(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_decompose_preprocessing_applies_in_table_order(tmp_path, capsys):
    # counts-style files; the chain is log2 first, then centering, whatever
    # the order of the flags on the command line
    rng = np.random.default_rng(11)
    raw, hand = [], []
    for t in range(3):
        Z = np.where(rng.random((6, 3, 3)) < 0.4, rng.integers(1, 9, (6, 3, 3)), 0).astype(float)
        raw.append(tmp_path / f"raw{t}.tnsr3")
        write_tnsr(raw[-1], Z)
        sample = center_nonzero_fibers(preprocess_dynamic_range(ingest_tensor(raw[-1])))
        Zh = np.zeros(sample.shape)
        j, k = sample.cmap.block_coords(sample.shape[1])
        Zh[:, j, k] = sample.Y
        hand.append(tmp_path / f"hand{t}.tnsr3")
        write_tnsr(hand[-1], Zh)
    runs = {
        "cl": [*raw, "--center-fibers", "--log2-range"],
        "lc": [*raw, "--log2-range", "--center-fibers"],
        "hand": hand,
    }
    codes = [
        main(["decompose", *map(str, args), "--m", "2", "--eta_A", "1.0",
              "--out", str(tmp_path / name)])
        for name, args in runs.items()
    ]
    assert codes[0] in (0, 2) and codes == [codes[0]] * 3
    capsys.readouterr()
    want = _outputs(tmp_path / "hand")
    assert set(want) == {"A.csv", "B.csv", "C.csv", "config.txt", "metrics.csv"}
    assert _outputs(tmp_path / "cl") == want
    assert _outputs(tmp_path / "lc") == want


def test_decompose_help_lists_the_preprocessing_flags(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    with pytest.raises(SystemExit):
        main(["decompose", "--help"])
    text = capsys.readouterr().out
    helps = [
        ("--log2-range", "compress counts: non-zeros become log2(value)+1"),
        ("--center-fibers", "subtract the mean from each non-zero mode-1 fiber"),
    ]
    at = [re.search(rf"^  {flag} +{re.escape(help)}$", text, re.M) for flag, help in helps]
    assert all(at), text
    assert [m.start() for m in at] == sorted(m.start() for m in at)


@pytest.mark.parametrize("command", ["synth-run", "decompose"])
def test_each_subcommand_help_lists_out_once(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert len(re.findall(r"^  --out OUT +output directory$", text, re.M)) == 1


@pytest.mark.parametrize("key, value", [("eta_A", "preset"), ("eps0", "default")])
def test_auto_has_no_synonyms(tmp_path, capsys, key, value):
    keys = {"n": 40, "J": 15, "K": 15, "m": 6, "alpha": 0.1, "beta": 0.1, "eta_A": 8.0}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in (keys | {key: value}).items()),
                   encoding="utf-8")
    code = main(["synth-run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: Bad value for config key {key}: {value!r} ("), err
    assert not (tmp_path / "x").exists()


def test_decompose_holds_one_file_at_a_time(tmp_path, capsys):
    # each file is read at its own iteration and dropped after it, so 20 files
    # peak within one sample of 2 (reading them all first grows by one per file)
    n, J, K, m = 100, 30, 30, 4
    Z, _ = gen_tensor_instance(n, J, K, m, SparsityParams(0.15, 0.15),
                               Distribution.RADEMACHER, 1.0, gen_dictionary(n, m, 2), 3)
    path = tmp_path / "z.tnsr"
    write_tnsr(path, Z)

    def peak(count):
        args = ["decompose", *[str(path)] * count, "--m", str(m), "--eta_A", "4.0",
                "--eps_T", "1e-300", "--out", str(tmp_path / f"d{count}")]
        code, peak = traced_peak(lambda: main(args))
        assert code == 2 and capsys.readouterr().out.startswith(f"stopped t={count - 1} ")
        return peak

    peak(2)  # first-call imports and caches stay out of the comparison
    sample_bytes = n * int(Z.any(axis=0).sum()) * 8
    assert peak(20) - peak(2) < sample_bytes


def test_output_bytes_match_across_processes(tmp_path):
    # the determinism contract is per build and BLAS thread count: two fresh
    # interpreters at one thread, with different hash seeds, write the same
    # bytes for a synth-run and a two-file decompose
    files = write_planted_files(tmp_path, 2, 50)
    runs = {
        "synth": ["synth-run", *FAST, "--T_max", "5"],
        "files": ["decompose", *files, "--m", "4", "--eta_A", "4.0", "--eps_T", "1e-300"],
    }
    script = "import json, sys; from sparsecp.cli import main; " \
             "print([main(argv) for argv in json.loads(sys.argv[1])])"
    outputs = []
    for hash_seed in ("1", "2"):
        argvs = [[*argv, "--out", str(tmp_path / f"{name}{hash_seed}")]
                 for name, argv in runs.items()]
        proc = run_python(["-c", script, json.dumps(argvs)], cwd=tmp_path,
                          env={"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0 and proc.stdout.endswith("[2, 2]\n"), proc.stderr
        outputs.append([_outputs(tmp_path / f"{name}{hash_seed}") for name in runs])
    assert [sorted(out) for out in outputs[0]] == [
        ["A.csv", "B.csv", "C.csv", "config.txt", "metrics.csv"]] * 2
    assert outputs[0] == outputs[1]


def test_decompose_shape_mismatch_names_file(tmp_path, capsys):
    a, b = tmp_path / "a.tnsr", tmp_path / "b.tnsr"
    write_tnsr(a, np.ones((3, 2, 2)))
    write_tnsr(b, np.ones((3, 2, 3)))
    code = main(["decompose", str(a), str(b), "--m", "2", "--eta_A", "1", "--out", str(tmp_path / "d")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {b}: tensor has shape (3, 2, 3), config says (3, 2, 2)\n"
    )
    assert not (tmp_path / "d").exists()


def test_decompose_batch_mode_takes_one_file(tmp_path, capsys):
    # batch mode learns from the first sample alone, so further files are an
    # error before any is read: a malformed second file fails on the count
    paths = write_planted_files(tmp_path, 3, 50)
    bad = tmp_path / "bad.tnsr"
    bad.write_text("TNSR3 30 12 12\n1 1 1 abc\n", encoding="utf-8")
    base = ["decompose", "--m", "4", "--eta_A", "4.0", "--mode", "batch", "--T_max", "3"]
    for files, count in ((paths, 3), ([paths[0], str(bad)], 2)):
        out = tmp_path / f"batch{count}"
        assert main([*base, *files, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: batch mode takes one tensor file, got {count}\n"
        )
        assert not out.exists()
    out = tmp_path / "batch1"
    assert main([*base, paths[0], "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("stopped t=2 ")
    assert (out / "metrics.csv").is_file()


def test_decompose_missing_file(tmp_path, capsys):
    code = main(["decompose", str(tmp_path / "nope.tnsr"), "--m", "2"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    # 2 is reserved for runs that stop without converging
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(tmp_path / "x.csv"), str(tmp_path / "y.csv"), "--svd_tol", "1e-12"])
    assert exc.value.code == 1
    assert "error: unrecognized arguments: --svd_tol 1e-12" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # no command reads an m x JK code matrix
        main(["untangle", str(tmp_path / "x.csv"), "--J", "2", "--K", "2"])
    assert exc.value.code == 1
    assert "error: argument command: invalid choice: 'untangle'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # every decompose run is scaled; no flag selects it
        main(["decompose", str(tmp_path / "z.tnsr"), "--m", "2", "--scale-max"])
    assert exc.value.code == 1
    assert "error: unrecognized arguments: --scale-max" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["synth-run", "--help"])
    assert exc.value.code == 0
    assert "--out" in capsys.readouterr().out
    # run as a module, the exit status is main's
    proc = run_python(["-m", "sparsecp.cli", "--help"], cwd=tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: "), proc.stderr
    assert "{synth-run,decompose,eval}" in proc.stdout
    proc = run_python(["-m", "sparsecp.cli", "eval", "x.csv", "y.csv"], cwd=tmp_path)
    assert proc.returncode == 1 and proc.stderr.startswith("error: "), proc.stderr


def test_eval_names_non_finite_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("2,4\n1.0,0.0,0.0,1.0\n0.0,nan,0.0,0.0\n", encoding="utf-8")
    good = tmp_path / "good.csv"
    write_matrix_csv(good, np.eye(2, 4))
    for argv in (["eval", str(bad), str(good)], ["eval", str(good), str(bad)]):
        assert main(argv) == 1
        assert f"error: {bad}:3: non-finite value nan" in capsys.readouterr().err


def test_eval_command(tmp_path, capsys):
    A_ref = gen_dictionary(20, 5, 9)
    est = tmp_path / "est.csv"
    ref = tmp_path / "ref.csv"
    # column shuffle and sign flips are alignment's job; report near zero
    write_matrix_csv(est, -A_ref[:, ::-1])
    write_matrix_csv(ref, A_ref)
    code = main(["eval", str(est), str(ref)])
    assert code == 0
    msg = capsys.readouterr().out
    assert "err_col_max=" in msg and "err_relF=" in msg
    val = float(msg.split("err_col_max=")[1].split()[0])
    assert val <= 1e-12


def test_eval_rejects_mismatched_shapes(tmp_path, capsys):
    est, ref = tmp_path / "est.csv", tmp_path / "ref.csv"
    write_matrix_csv(est, np.eye(3))
    write_matrix_csv(ref, np.eye(3, 2))
    assert main(["eval", str(est), str(ref)]) == 1
    assert capsys.readouterr().err == (
        "error: Shape mismatch: estimate (3, 3) vs reference (3, 2)\n"
    )


def test_eval_rejects_matrix_without_columns(tmp_path, capsys):
    empty = tmp_path / "E.csv"
    empty.write_text("0,0\n", encoding="utf-8")
    assert main(["eval", str(empty), str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: matrix has no columns\n"


def test_eval_rejects_matrix_without_rows(tmp_path, capsys):
    # named before matching, not as a zero-norm reference
    empty = tmp_path / "E.csv"
    empty.write_text("0,3\n", encoding="utf-8")
    assert main(["eval", str(empty), str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: matrix has no rows\n"
