"""File formats: TNSR3 tensors, matrix CSV, config files, run outputs.

A TNSR3 file is read straight into a FiberSample (its non-zero mode-1
fibers), and the decompose preprocessing acts on those fibers only.

All text I/O is UTF-8. Floats are written with repr, which is the
shortest string that round-trips to the same double, so factor files
re-read bit-exactly and repeated runs diff clean. metrics.csv is part of
the determinism contract: every byte is a function of (config, seed), so
the wall_ms column is written as 0 there; measured timings stay on the
in-memory records. emit_outputs prints nothing: the summary is the CLI's.
"""

from __future__ import annotations

import io
import math
import os
import stat
import warnings
from dataclasses import fields, replace
from typing import Iterator, Sequence, get_type_hints

import numpy as np

from .linalg import as_matrix, column_norms
from .runner import IterationRecord, SolverConfig
from .tensor_core import ColumnIndexMap, FiberSample

__all__ = [
    "ingest_tensor",
    "preprocess_dynamic_range",
    "center_nonzero_fibers",
    "scale_to_unit_fibers",
    "read_matrix_csv",
    "write_matrix_csv",
    "parse_config_file",
    "write_config_echo",
    "write_metrics_csv",
    "emit_outputs",
    "METRICS_HEADER",
]

# metrics.csv has one column per IterationRecord field, in field order, each
# cell written by the field's type; the measured wall_ms is written as 0.
_CELL = {bool: lambda v: "true" if v else "false", int: str, float: lambda v: repr(float(v))}
_HINTS = get_type_hints(IterationRecord)
_COLUMNS = {f.name: _CELL[_HINTS[f.name]] for f in fields(IterationRecord)}
_COLUMNS["wall_ms"] = lambda v: "0"
METRICS_HEADER = ",".join(_COLUMNS)


def _significant(lines, start: int = 1) -> Iterator[tuple[int, str]]:
    """Yield (lineno, text) for each line with text left once its `#` comment is cut."""
    for lineno, rawline in enumerate(lines, start=start):
        text = rawline.split("#", 1)[0].strip()
        if text:
            yield lineno, text


_ENTRY = np.dtype([("i", "i8"), ("j", "i8"), ("k", "i8"), ("v", "f8")])


def _read_header(fh, path) -> tuple[tuple[int, int, int], int]:
    """Read fh up to its first significant line; return the shape and that line's number."""
    for lineno, text in _significant(fh):
        tokens = text.split()
        if tokens[0] != "TNSR3" or len(tokens) != 4:
            raise ValueError(
                f"{path}:{lineno}: expected header 'TNSR3 <n> <J> <K>', got {text!r}"
            )
        try:
            shape = tuple(int(tok) for tok in tokens[1:])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer dimension in header {text!r}")
        if any(d < 1 for d in shape):
            raise ValueError(f"{path}:{lineno}: dimensions must be >= 1, got {shape}")
        if math.prod(shape) >= 2**63:
            raise ValueError(f"{path}:{lineno}: shape {shape} is too large to index")
        return shape, lineno
    raise ValueError(f"{path}: empty file, expected a TNSR3 header")


def _check_entry(path, lineno: int, text: str, shape, seen: set[int]) -> tuple:
    """Apply the entry-line rules to one significant line; return its (i, j, k, value).

    Raises on the first broken rule; seen holds the flat indices of the entries before it.
    """
    n, J, K = shape
    tokens = text.split()
    if len(tokens) != 4:
        raise ValueError(f"{path}:{lineno}: expected '<i> <j> <k> <value>', got {text!r}")
    try:
        if not all(tok.isascii() and "_" not in tok for tok in tokens):
            raise ValueError
        i, j, k = (int(tok) for tok in tokens[:3])
        value = float(tokens[3])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed entry {text!r}")
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite value {tokens[3]}")
    if not (1 <= i <= n and 1 <= j <= J and 1 <= k <= K):
        raise ValueError(
            f"{path}:{lineno}: index ({i}, {j}, {k}) outside 1-based shape {shape}"
        )
    flat = ((k - 1) * J + j - 1) * n + i - 1
    if flat in seen:
        raise ValueError(f"{path}:{lineno}: duplicate coordinate ({i}, {j}, {k})")
    seen.add(flat)
    return i, j, k, value


def _decode(path, raw: bytes) -> str:
    """Return raw as UTF-8 text; invalid UTF-8 raises ValueError naming its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(raw[: exc.start].decode("utf-8"), newline=None).read()
        lineno = before.count("\n") + 1
        raise ValueError(f"{path}:{lineno}: invalid UTF-8 byte 0x{raw[exc.start]:02x}") from None


def _read_lines(path) -> list[str]:
    """Return the file's lines, split by universal newlines as open() would.

    The bytes are read once, so invalid UTF-8 names its line through a pipe too.
    """
    with open(path, "rb") as fh:
        return io.StringIO(_decode(path, fh.read()), newline=None).readlines()


def _read_entries(path) -> tuple[tuple[int, int, int], np.ndarray]:
    """The reference reader: return (shape, _ENTRY entries) or raise the first bad line's error."""
    lines = iter(_read_lines(path))
    shape, head = _read_header(lines, path)
    seen: set[int] = set()
    entries = [_check_entry(path, lineno, text, shape, seen)
               for lineno, text in _significant(lines, start=head + 1)]
    return shape, np.array(entries, dtype=_ENTRY)


def _obeys_entry_rules(rec, shape) -> bool:
    """True when every entry is finite, inside the 1-based shape and at a coordinate of its own."""
    n, J, K = shape
    i, j, k = rec["i"], rec["j"], rec["k"]
    in_shape = ((i >= 1) & (i <= n) & (j >= 1) & (j <= J) & (k >= 1) & (k <= K)).all()
    ordered = np.sort(((k - 1) * J + j - 1) * n + i - 1)
    return bool(in_shape and np.isfinite(rec["v"]).all() and (ordered[1:] != ordered[:-1]).all())


# the suffixes np.loadtxt's file opener reads as compressed, whatever the bytes
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _reopenable(path) -> bool:
    """True when np.loadtxt, given the name, reads the same text as open() does.

    loadtxt opens a name again itself, picking a decompressor by suffix
    and a download for a URL; a pipe or FIFO yields its bytes to one
    reader only. Whatever is not reopenable goes to the reference reader.
    """
    name = os.fspath(path)
    return (
        isinstance(name, str)
        and "://" not in name
        and not name.endswith(_COMPRESSED_SUFFIXES)
        and stat.S_ISREG(os.stat(name).st_mode)
    )


def ingest_tensor(path) -> FiberSample:
    """Parse a TNSR3 file into a FiberSample of its non-zero mode-1 fibers.

    Format: first significant line `TNSR3 <n> <J> <K>`, then
    `<i> <j> <k> <value>` lines with 1-based indices, separated by
    whitespace. `#` starts a comment, unlisted entries are zero,
    repeating a coordinate is an error. An index is an ASCII decimal
    integer with an optional sign (`7`, `+7`, `007`); a value is an
    ASCII decimal float as Python's float() reads it (`2`, `-0.5`,
    `.5`, `1e-3`), and must be finite. Underscores, non-ASCII digits,
    hexadecimal and `1.0` as an index are malformed. All parse errors
    carry the 1-based line number, invalid UTF-8 included. Entries are
    grouped by fiber (j, k); a fiber whose listed values are all zero is
    not kept. Memory follows the listed entries, not n*J*K.

    A regular file's entry lines are parsed by name in one np.loadtxt
    call, so numpy reads it in chunks in C, and checked as a whole. A file
    that loadtxt rejects (by an exception, or a warning as for no entries)
    or whose entries break a rule, and any pipe or name with a compression
    suffix, goes to the line-by-line reference reader, which returns its
    entries or names its first bad line.
    """
    rec = None
    if _reopenable(path):
        try:
            with open(path, encoding="utf-8") as fh:
                shape, head = _read_header(fh, path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rec = np.loadtxt(path, dtype=_ENTRY, comments="#", skiprows=head, ndmin=1,
                                 encoding="utf-8")
        except (ValueError, Warning):  # UnicodeDecodeError included
            pass  # the reference reader reads it or names its first bad line
    if rec is None or not _obeys_entry_rules(rec, shape):
        shape, rec = _read_entries(path)
    n, J, K = shape
    i, j, k, vals = rec["i"], rec["j"], rec["k"], rec["v"]
    key = ((k - 1) * J + j - 1) * n + i - 1
    key, vals = key[vals != 0.0], vals[vals != 0.0]
    fiber = key // n
    kept, col = np.unique(fiber, return_inverse=True)
    Y = np.zeros((n, kept.size), order="F")
    Y[key - fiber * n, col] = vals
    return FiberSample(shape, ColumnIndexMap(J * K, kept), Y)


def preprocess_dynamic_range(sample: FiberSample) -> FiberSample:
    """Compress counts data: non-zeros map to log2(value) + 1, zeros stay.

    Requires every non-zero entry >= 1 so the transform keeps them
    positive (entry 1 -> 1, entry 8 -> 4); the error names the first
    entry that is not by its 1-based (i, j, k), as the TNSR3 file does.
    """
    Y = sample.Y
    mask = Y != 0.0
    bad = mask & (Y < 1.0)
    if bad.any():
        i, q = (int(v) for v in np.argwhere(bad)[0])
        j, k = (int(v[q]) + 1 for v in sample.cmap.block_coords(sample.shape[1]))
        raise ValueError(
            f"Non-zero entry {Y[i, q]} at {(i + 1, j, k)} is < 1; dynamic-range compression "
            "needs counts-style data"
        )
    safe = np.where(mask, Y, 1.0)
    return replace(sample, Y=np.where(mask, np.log2(safe) + 1.0, 0.0))


def center_nonzero_fibers(sample: FiberSample) -> FiberSample:
    """Subtract the mean from each mode-1 fiber that has any non-zero.

    All-zero fibers stay zero, so the extract step still drops them.
    """
    Y = sample.Y
    live = Y.any(axis=0)
    return replace(sample, Y=Y - np.where(live, Y.mean(axis=0), 0.0))


def scale_to_unit_fibers(sample: FiberSample) -> FiberSample:
    """Divide the sample by the median l2 norm of its non-zero fibers.

    A 1-sparse fiber is its code entry times a unit atom, so this puts the
    codes at the unit magnitude the loop's thresholds and steps assume. A
    sample with no non-zero fiber comes back unchanged.
    """
    peak = float(np.abs(sample.Y).max(initial=0.0))
    if peak == 0.0:
        return sample
    Y = sample.Y / peak  # |Y / peak| <= 1: no square overflows, none near 1 vanishes
    norms = column_norms(Y)
    Y /= np.median(norms[norms > 0.0])  # by the peak first: median * peak can overflow
    return replace(sample, Y=Y)


# Matrix CSV ---------------------------------------------------------------


def write_matrix_csv(path, M) -> None:
    """First line `rows,cols`, then one comma-separated line per row."""
    M = as_matrix(M)
    rows, cols = M.shape
    if rows < 1 or cols < 1:  # read_matrix_csv rejects such a file
        raise ValueError(f"{path}: dimensions must be >= 1, got {(rows, cols)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{rows},{cols}\n")
        for row in M:  # row by row: M.tolist() would hold every value as a float object
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read write_matrix_csv's format; errors name the file and, where known, the line."""
    lines = _read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty file, expected a 'rows,cols' header")
    head = lines[0].strip().split(",")
    try:
        rows, cols = (int(tok) for tok in head)
    except ValueError:
        raise ValueError(f"{path}:1: expected 'rows,cols' header, got {lines[0].strip()!r}")
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}:1: dimensions must be >= 1, got {(rows, cols)}")
    body = [(no, ln.strip()) for no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != rows:
        raise ValueError(f"{path}: header says {rows} rows, found {len(body)}")
    M = np.zeros((rows, cols), order="F")
    for r, (lineno, text) in enumerate(body):
        parts = text.split(",")
        if len(parts) != cols:
            raise ValueError(
                f"{path}:{lineno}: expected {cols} values, found {len(parts)}"
            )
        try:
            M[r, :] = [float(tok) for tok in parts]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed value in {text!r}")
        bad = np.flatnonzero(~np.isfinite(M[r]))
        if bad.size:
            raise ValueError(f"{path}:{lineno}: non-finite value {parts[bad[0]].strip()}")
    return M


# Config files -------------------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """Read flat key=value lines into an ordered dict of raw strings.

    `#` comments and blank lines are skipped; duplicate keys and lines
    without `=` are errors with line numbers. Parsing the values is
    SolverConfig's job.
    """
    out: dict[str, str] = {}
    for lineno, text in _significant(_read_lines(path)):
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, value = text.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key}")
        out[key] = value
    return out


def write_config_echo(cfg: SolverConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in cfg.to_mapping().items():
            fh.write(f"{key}={value}\n")


# Run outputs --------------------------------------------------------------


def _metrics_row(r: IterationRecord) -> str:
    return ",".join(cell(getattr(r, name)) for name, cell in _COLUMNS.items())


def write_metrics_csv(path, records: Sequence[IterationRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in records:
            fh.write(_metrics_row(r) + "\n")


def emit_outputs(records, factors, cfg: SolverConfig, out_dir) -> None:
    """Write metrics.csv, the A/B/C factor CSVs and a config echo to out_dir.

    factors is the (A, B, C) triple from the run. Nothing is printed.
    """
    os.makedirs(out_dir, exist_ok=True)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), records)
    for name, M in zip("ABC", factors, strict=True):
        write_matrix_csv(os.path.join(out_dir, f"{name}.csv"), M)
    write_config_echo(cfg, os.path.join(out_dir, "config.txt"))
