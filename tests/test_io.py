import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecp.dict_update import SampleMode
from sparsecp.runner import (
    FileSource,
    IterationRecord,
    RunMode,
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


# Every body holds the entries 5.0 at (1, 1, 1) and -1.5 at (2, 3, 4), shape (2, 3, 4).
LAYOUT_VARIANTS = {
    "plain": "TNSR3 2 3 4\n1 1 1 5.0\n2 3 4 -1.5\n",
    "trailing comments": "TNSR3 2 3 4 # shape\n1 1 1 5.0 # first\n2 3 4 -1.5#last\n",
    "crlf": "TNSR3 2 3 4\r\n1 1 1 5.0\r\n# note\r\n2 3 4 -1.5\r\n",
    "tabs": "TNSR3\t2\t3\t4\n1\t1\t1\t5.0\n 2 \t3\t\t4   -1.5\t\n",
    "blank last line": "TNSR3 2 3 4\n1 1 1 5.0\n2 3 4 -1.5\n\n",
    "whitespace last line": "TNSR3 2 3 4\n1 1 1 5.0\n2 3 4 -1.5\n  \t",
    "no final newline": "TNSR3 2 3 4\n1 1 1 5.0\n2 3 4 -1.5",
    "comments between": "# head\n\nTNSR3 2 3 4\n# a\n\n1 1 1 5.0\n   # b\n2 3 4 -1.5\n# c\n",
    "number syntax": "TNSR3 2 3 4\n+1 001 1 5\n2 3 +4 -15e-1\n",
}

EMPTY_VARIANTS = {
    "header only": "TNSR3 2 3 4\n",
    "header, no newline": "TNSR3 2 3 4",
    "header and comments": "TNSR3 2 3 4\n# only comments\n\n   \n# more\n",
    "crlf header and comment": "# c\r\nTNSR3 2 3 4\r\n# c\r\n\r\n",
}


@pytest.mark.parametrize("name", sorted(LAYOUT_VARIANTS))
def test_ingest_layout_variants(tmp_path, name):
    path = tmp_path / "t.tnsr"
    path.write_bytes(LAYOUT_VARIANTS[name].encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = ingest_tensor(path)
    assert s.shape == (2, 3, 4)
    assert np.array_equal(s.cmap.kept, [0, 11])
    assert s.Y.flags.f_contiguous
    assert np.array_equal(s.Y, [[5.0, 0.0], [0.0, -1.5]])


@pytest.mark.parametrize("name", sorted(EMPTY_VARIANTS))
def test_ingest_entry_free_files_are_zero_tensors(tmp_path, name):
    path = tmp_path / "t.tnsr"
    path.write_bytes(EMPTY_VARIANTS[name].encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = ingest_tensor(path)
    assert s.shape == (2, 3, 4)
    assert s.cmap.p == 0 and s.cmap.total_cols == 12 and s.Y.shape == (2, 0)


@st.composite
def tnsr3_texts(draw, min_entries=0):
    """A valid TNSR3 file in a random layout: (lines, newline, shape, Z, entry_lines).

    Z is the dense tensor the file describes; entry_lines maps each entry
    to its 0-based position in lines.
    """
    shape = (draw(st.integers(max(min_entries, 1), 4)), draw(st.integers(1, 4)),
             draw(st.integers(1, 4)))
    n, J, K = shape
    flats = draw(st.lists(st.integers(0, n * J * K - 1), min_size=min_entries,
                          max_size=12, unique=True))
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    index = lambda v: draw(st.sampled_from([str(v), f"+{v}", f"00{v}"]))
    value = st.one_of(
        st.just(0.0), st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False)
    )
    filler = st.sampled_from(["", "   ", "# comment", "\t# 1 1 1 x"])
    Z = np.zeros(shape)
    lines = draw(st.lists(filler, max_size=2)) + [f"TNSR3{draw(sep)}{n} {J} {K}"]
    entry_lines = []
    for flat in flats:
        i, j, k = np.unravel_index(flat, shape, order="F")
        v = draw(value)
        text = draw(st.sampled_from([repr(v), f"{v:.17e}", f"{v:.17g}"]))
        Z[i, j, k] = float(text)
        tokens = [index(i + 1), index(j + 1), index(k + 1), text]
        line = draw(sep).join(tokens) + draw(st.sampled_from(["", " ", " # note", "#x"]))
        lines += draw(st.lists(filler, max_size=1))
        entry_lines.append(len(lines))
        lines.append(line)
    lines += draw(st.lists(filler, max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return lines, newline, shape, Z, entry_lines


def write_lines(tmp_path, lines, newline, end=True):
    path = tmp_path / "fuzz.tnsr"
    path.write_bytes((newline.join(lines) + (newline if end else "")).encode("utf-8"))
    return path


@settings(max_examples=80, deadline=None)
@given(tnsr3_texts(), st.booleans())
def test_ingest_random_valid_file_matches_dense_reference(tmp_path_factory, text, end):
    lines, newline, shape, Z, _ = text
    path = write_lines(tmp_path_factory.mktemp("ok"), lines, newline, end)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = ingest_tensor(path)
    kept, Y = nonzero_fibers(Z)
    assert s.shape == shape
    assert np.array_equal(s.cmap.kept, kept)
    assert np.array_equal(s.Y, Y)


BAD_INDEX = ["x", "1.0", "1e0", "0x1", "--1", "1-", "\uff11", "\u0661"]
BAD_VALUE = ["x", "1..0", "0x1p3", "--1", "1,5", "1.0.0", "\uff11.0", "1e"]
NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e400"]
INT64_OVERFLOW = ["9223372036854775808", "-9223372036854775809", "1" + "0" * 30]


def test_ingest_rejects_each_bad_token_on_its_line(tmp_path):
    # every listed token, in every slot it is bad in, on the last of three entries
    cases = [(slot, tok, "malformed entry") for tok in BAD_INDEX + ["1_0"] for slot in range(3)]
    cases += [(3, tok, "malformed entry") for tok in BAD_VALUE + ["1_0", "1_0.5", "1e1_0"]]
    cases += [(3, tok, "non-finite value") for tok in NON_FINITE]
    cases += [(slot, tok, "outside 1-based shape") for tok in INT64_OVERFLOW for slot in range(3)]
    for slot, tok, expect in cases:
        tokens = ["2", "2", "2", "1.5"]
        tokens[slot] = tok
        body = "TNSR3 2 2 2\n1 1 1 1.0\n# note\n2 1 1 -1.0\n" + " ".join(tokens) + "\n"
        with pytest.raises(ValueError, match=f":5: .*{re.escape(expect)}"):
            ingest_tensor(tensor_file(tmp_path, body))


@settings(max_examples=150, deadline=None)
@given(tnsr3_texts(min_entries=2), st.data())
def test_ingest_random_corruption_names_its_line(tmp_path_factory, text, data):
    lines, newline, shape, _, entry_lines = text
    pos = data.draw(st.integers(1, len(entry_lines) - 1))
    row = entry_lines[pos]
    tokens = lines[row].split("#")[0].split()
    kind = data.draw(st.sampled_from(
        ["arity", "bad token", "underscore", "non-finite", "range", "overflow", "duplicate"]
    ))
    slot = data.draw(st.integers(0, 2))
    if kind == "arity":
        tokens = data.draw(st.sampled_from([tokens[:3], tokens[:2], tokens + ["1"]]))
        expect = "expected '<i> <j> <k> <value>'"
    elif kind == "bad token":
        if data.draw(st.booleans()):
            tokens[slot] = data.draw(st.sampled_from(BAD_INDEX))
        else:
            tokens[3] = data.draw(st.sampled_from(BAD_VALUE))
        expect = "malformed entry"
    elif kind == "underscore":
        if data.draw(st.booleans()):
            tokens[slot] = "1_0"
        else:
            tokens[3] = data.draw(st.sampled_from(["1_0", "1_0.5", "1.0_5", "1e1_0"]))
        expect = "malformed entry"
    elif kind == "non-finite":
        tokens[3] = data.draw(st.sampled_from(NON_FINITE))
        expect = "non-finite value"
    elif kind == "range":
        tokens[slot] = data.draw(st.sampled_from(["0", "-1", str(shape[slot] + 1)]))
        expect = "outside 1-based shape"
    elif kind == "overflow":
        tokens[slot] = data.draw(st.sampled_from(INT64_OVERFLOW))
        expect = "outside 1-based shape"
    else:
        earlier = lines[entry_lines[data.draw(st.integers(0, pos - 1))]]
        tokens = earlier.split("#")[0].split()[:3] + [tokens[3]]
        expect = "duplicate coordinate"
    lines = lines.copy()
    lines[row] = " ".join(tokens)
    path = write_lines(tmp_path_factory.mktemp("bad"), lines, newline)
    # a RuntimeError here would be a bulk rejection the line checker cannot name
    with pytest.raises(ValueError, match=f":{row + 1}: .*{re.escape(expect)}"):
        ingest_tensor(path)



def read_through_pipe(body, read=ingest_tensor):
    """Read body (text or bytes) with read, from an OS pipe by its /dev/fd name.

    A thread feeds the pipe.
    """
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd on this platform")
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(body if isinstance(body, bytes) else body.encode("utf-8"))

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        writer.join()
        os.close(r)


def big_body(shape, count):
    """A TNSR3 file of count distinct entries, larger than any pipe or read buffer."""
    rng = np.random.default_rng(0)
    flats = rng.choice(np.prod(shape), size=count, replace=False)
    lines = [f"TNSR3 {shape[0]} {shape[1]} {shape[2]}"]
    for flat in flats:
        i, j, k = np.unravel_index(flat, shape, order="F")
        lines.append(f"{i + 1} {j + 1} {k + 1} {rng.standard_normal()!r}")
    return "\n".join(lines) + "\n"


def test_ingest_from_a_pipe_reads_every_entry(tmp_path):
    body = big_body((40, 50, 60), 6000)
    assert len(body) > 2**17
    by_file = ingest_tensor(tensor_file(tmp_path, body))
    by_pipe = read_through_pipe(body)
    assert np.array_equal(by_pipe.cmap.kept, by_file.cmap.kept)
    assert np.array_equal(by_pipe.Y, by_file.Y)
    small = read_through_pipe(LAYOUT_VARIANTS["comments between"])
    assert np.array_equal(small.Y, [[5.0, 0.0], [0.0, -1.5]])
    assert read_through_pipe("TNSR3 2 3 4\n").Y.shape == (2, 0)
    with pytest.raises(ValueError, match=":3: duplicate coordinate"):
        read_through_pipe("TNSR3 2 2 2\n1 1 1 1.0\n1 1 1 2.0\n")


def test_ingest_names_the_line_of_invalid_utf8(tmp_path):
    big = big_body((40, 50, 60), 6000).encode("utf-8")
    cases = [
        (b"\xffTNSR3 2 2 2\n1 1 1 1.0\n", 1, 0xFF),  # the header line
        (b"TNSR3 2 2 2\r\n1 1 1 1.0\r# c\r2 2 2 \xe93\n", 4, 0xE9),  # CRLF and lone CR
        (b"TNSR3 2 2 2\n1 1 1 1.0\n# caf\xe9\n", 3, 0xE9),  # in a comment
        (big + b"1 1 1 \xc3\n", 6002, 0xC3),  # past the first read buffer
    ]
    for body, line, byte in cases:
        path = tmp_path / "t.tnsr3"
        path.write_bytes(body)
        expect = rf"t\.tnsr3:{line}: invalid UTF-8 byte 0x{byte:02x}$"
        with pytest.raises(ValueError, match=expect):
            ingest_tensor(path)
        with pytest.raises(ValueError, match=rf"/dev/fd/\d+:{line}: invalid UTF-8 byte"):
            read_through_pipe(body)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_ingest_plain_text_under_a_compression_suffix(tmp_path, suffix):
    body = LAYOUT_VARIANTS["comments between"]
    s = ingest_tensor(tensor_file(tmp_path, body, name="t.tnsr3" + suffix))
    assert np.array_equal(s.cmap.kept, [0, 11])
    assert np.array_equal(s.Y, [[5.0, 0.0], [0.0, -1.5]])
    with pytest.raises(ValueError, match=":3: malformed entry"):
        ingest_tensor(tensor_file(tmp_path, "TNSR3 2 2 2\n1 1 1 1.0\n1 x 1 2.0\n",
                                  name="t.tnsr3" + suffix))


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
    with pytest.raises(ValueError, match=r"entry 0\.5 at \(1, 2, 1\) is < 1"):  # 1-based
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
    M = np.array([[0.1, 1.0 / 3.0], [1e-300, -0.0], [2.0**-53, 1e308], [5e-324, 1e16],
                  [1e-05, -2.5]])
    # each value is written as the repr of its Python float
    text = (b"5,2\n0.1,0.3333333333333333\n1e-300,-0.0\n1.1102230246251565e-16,1e+308\n"
            b"5e-324,1e+16\n1e-05,-2.5\n")
    p = tmp_path / "m.csv"
    write_matrix_csv(p, M)
    assert p.read_bytes() == text
    back = read_matrix_csv(p)
    assert back.shape == M.shape
    assert np.array_equal(back, M)
    assert np.signbit(back[1, 1])
    write_matrix_csv(p, back)
    assert p.read_bytes() == text


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def write_text_lines(path, lines, newline):
    # a lone surrogate in a line stands for one byte that is not UTF-8
    path.write_bytes(newline.join(lines).encode("utf-8", "surrogateescape") + newline.encode())
    return path


@st.composite
def matrix_csv_texts(draw):
    """A valid matrix CSV in a random layout: (lines, newline, M, row_lines)."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    M = np.array(
        draw(st.lists(st.lists(FINITE, min_size=cols, max_size=cols), min_size=rows,
                      max_size=rows)),
        dtype=float,
    ).reshape(rows, cols)
    lines, row_lines = [f"{rows},{cols}"], []
    for r in range(rows):
        lines += draw(st.lists(st.sampled_from(["", "  "]), max_size=1))
        row_lines.append(len(lines))
        cells = [draw(st.sampled_from([repr(v), f"{v:.17e}", f" {v!r} "])) for v in M[r].tolist()]
        lines.append(",".join(cells))
    return lines, draw(st.sampled_from(["\n", "\r\n"])), M, row_lines


@settings(max_examples=80, deadline=None)
@given(matrix_csv_texts())
def test_matrix_csv_random_valid_file_round_trips(tmp_path_factory, text):
    lines, newline, M, _ = text
    path = write_text_lines(tmp_path_factory.mktemp("ok") / "m.csv", lines, newline)
    back = read_matrix_csv(path)
    assert back.shape == M.shape
    assert np.array_equal(back, M) and np.array_equal(np.signbit(back), np.signbit(M))
    write_matrix_csv(path, back)
    again = read_matrix_csv(path)
    assert np.array_equal(again, M) and np.array_equal(np.signbit(again), np.signbit(M))


@settings(max_examples=120, deadline=None)
@given(matrix_csv_texts().filter(lambda text: text[2].size > 0), st.data())
def test_matrix_csv_random_corruption_names_its_line(tmp_path_factory, text, data):
    lines, newline, M, row_lines = text
    row = row_lines[data.draw(st.integers(0, len(row_lines) - 1))]
    cells = lines[row].split(",")
    slot = data.draw(st.integers(0, len(cells) - 1))
    kind = data.draw(st.sampled_from(["arity", "bad token", "non-finite", "utf-8"]))
    if kind == "arity":
        cells.append("1.0")
        expect = f"expected {M.shape[1]} values, found {M.shape[1] + 1}"
    elif kind == "bad token":
        cells[slot] = data.draw(st.sampled_from(["x", "1..0", "--1", "1e", "0x1p3", "1 2"]))
        expect = "malformed value"
    elif kind == "non-finite":
        cells[slot] = data.draw(st.sampled_from(NON_FINITE))
        expect = "non-finite value"
    else:
        cells[slot] = "\udcff" + cells[slot]
        expect = "invalid UTF-8 byte 0xff"
    lines = lines.copy()
    lines[row] = ",".join(cells)
    path = write_text_lines(tmp_path_factory.mktemp("bad") / "m.csv", lines, newline)
    with pytest.raises(ValueError, match=f"m\\.csv:{row + 1}: {re.escape(expect)}"):
        read_matrix_csv(path)


def test_matrix_csv_names_the_line_of_invalid_utf8(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"2,2\n1.0,2.0\n\n3.0,\xe94.0\n")
    with pytest.raises(ValueError, match=r"m\.csv:4: invalid UTF-8 byte 0xe9$"):
        read_matrix_csv(p)
    with pytest.raises(ValueError, match=r"/dev/fd/\d+:4: invalid UTF-8 byte 0xe9$"):
        read_through_pipe(p.read_bytes(), read_matrix_csv)


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


def test_config_file_names_the_line_of_invalid_utf8(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_bytes(b"n=3\r\n# caf\xe9 au lait\r\nJ=4\r\n")
    with pytest.raises(ValueError, match=r"run\.cfg:2: invalid UTF-8 byte 0xe9$"):
        parse_config_file(p)
    with pytest.raises(ValueError, match=r"/dev/fd/\d+:2: invalid UTF-8 byte 0xe9$"):
        read_through_pipe(p.read_bytes(), parse_config_file)


KEY = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789", min_size=1,
              max_size=8)
WORD = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z"), blacklist_characters="#"),
               max_size=6)


@st.composite
def config_texts(draw):
    """A valid config file in a random layout: (lines, newline, mapping, key_lines)."""
    keys = draw(st.lists(KEY, unique=True, max_size=6))
    mapping, lines, key_lines = {}, [], []
    for key in keys:
        value = draw(st.one_of(WORD, st.builds(lambda a, b: f"{a} {b}", WORD, WORD))).strip()
        mapping[key] = value
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", " # k=v"]), max_size=1))
        key_lines.append(len(lines))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        tail = draw(st.sampled_from(["", " ", "  # why", "#"]))
        lines.append(f"{pad}{key}{pad}={draw(st.sampled_from(['', ' ']))}{value}{tail}")
    return lines, draw(st.sampled_from(["\n", "\r\n"])), mapping, key_lines


@settings(max_examples=80, deadline=None)
@given(config_texts())
def test_config_file_random_valid_file_round_trips(tmp_path_factory, text):
    lines, newline, mapping, _ = text
    path = write_text_lines(tmp_path_factory.mktemp("ok") / "run.cfg", lines, newline)
    got = parse_config_file(path)
    assert got == mapping and list(got) == list(mapping)


@settings(max_examples=120, deadline=None)
@given(config_texts().filter(lambda text: len(text[2]) >= 2), st.data())
def test_config_file_random_corruption_names_its_line(tmp_path_factory, text, data):
    lines, newline, mapping, key_lines = text
    pos = data.draw(st.integers(1, len(key_lines) - 1))
    row = key_lines[pos]
    kind = data.draw(st.sampled_from(["no =", "empty key", "duplicate", "utf-8"]))
    if kind == "no =":
        lines[row] = lines[row].split("=", 1)[0]
        expect = "expected key=value"
    elif kind == "empty key":
        lines[row] = "=" + lines[row].split("=", 1)[1]
        expect = "empty key"
    elif kind == "duplicate":
        earlier = list(mapping)[data.draw(st.integers(0, pos - 1))]
        lines[row] = f"{earlier}=1"
        expect = f"duplicate key {earlier}"
    else:
        at = data.draw(st.integers(0, len(lines[row])))
        lines[row] = lines[row][:at] + "\udcff" + lines[row][at:]
        expect = "invalid UTF-8 byte 0xff"
    path = write_text_lines(tmp_path_factory.mktemp("bad") / "run.cfg", lines, newline)
    with pytest.raises(ValueError, match=f"run\\.cfg:{row + 1}: {re.escape(expect)}"):
        parse_config_file(path)


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
    cfg = SolverConfig(
        n=40, J=12, K=11, m=8, alpha=0.1, beta=0.1, eta_x=0.5, tau=0.05,
        R=4, dist=Distribution.BOUNDED_SUBGAUSSIAN, sample_mode=SampleMode.INDEPENDENT_ONLY,
        mode=RunMode.BATCH,
    )
    mapping = cfg.to_mapping()
    assert (mapping["eta_x"], mapping["tau"], mapping["R"]) == ("0.5", "0.05", "4")
    assert SolverConfig.from_mapping(mapping) == cfg
    # numpy scalars echo as plain literals that read back
    cfg = SolverConfig(
        n=40, J=12, K=11, m=8, alpha=np.float64(0.3), beta=0.1, eta_A=np.float64(2.5),
        T_max=np.int64(7),
    )
    mapping = cfg.to_mapping()
    assert (mapping["alpha"], mapping["eta_A"], mapping["T_max"]) == ("0.3", "2.5", "7")
    assert SolverConfig.from_mapping(mapping) == cfg


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
    assert lines[0] == METRICS_HEADER == (
        "t,p,p_indep,err_A_max,err_A_relF,err_X_relF,signed_support_ok,"
        "data_fit,err_B_max,err_C_max,min_descent_corr,wall_ms"
    )
    assert len(lines) == 3
    assert lines[1] == "0,900,30,0.5,0.25,0.1,true,0.01,0.2,0.3,0.0001,0"
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
    assert np.array_equal(read_matrix_csv(out / "B.csv"), B)
    assert np.array_equal(read_matrix_csv(out / "C.csv"), C)
    echoed = parse_config_file(out / "config.txt")
    assert SolverConfig.from_mapping(echoed) == cfg
    # the summary line is the CLI's, built from the RunResult
    assert capsys.readouterr() == ("", "")
