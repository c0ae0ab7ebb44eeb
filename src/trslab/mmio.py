"""Minimal Matrix Market input for symmetric problems.

Supports the coordinate format (real, symmetric or general) and the dense
array format.  Parse failures, a nan or inf entry among them, carry the
offending line number so the CLI can report it before any solver work.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import SYM_TOL


class ParseError(Exception):
    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _data_lines(path):
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            yield line_no, raw.rstrip("\n")


def _real(path, line_no, tok):
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(path, line_no, f"malformed value {tok!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"nonfinite value {tok!r}")
    return value


def _read_size(path, size_line, fields):
    """The integers of a size line with the given fields ('rows cols' or
    'rows cols nnz'), checked: a square order >= 1 and an nnz >= 0."""
    line_no, text = size_line
    parts = text.split()
    if len(parts) != len(fields.split()):
        raise ParseError(path, line_no, f"size line needs '{fields}'")
    try:
        sizes = [int(p) for p in parts]
    except ValueError:
        raise ParseError(path, line_no, "size entries must be integers") from None
    if sizes[0] != sizes[1]:
        raise ParseError(path, line_no, f"matrix must be square, got {sizes[0]}x{sizes[1]}")
    if sizes[0] < 1:
        raise ParseError(path, line_no, f"matrix order must be >= 1, got {sizes[0]}")
    if len(sizes) == 3 and sizes[2] < 0:
        raise ParseError(path, line_no, f"entry count must be >= 0, got {sizes[2]}")
    return sizes


def read_matrix_market(path):
    """Read a Matrix Market file into triplets of a symmetric matrix.

    Returns (n, rows, cols, values) with both triangles present.  A
    'general' matrix must be symmetric to within SYM_TOL.
    """
    lines = _data_lines(path)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise ParseError(path, 0, "empty file") from None
    fields = header.lower().split()
    if len(fields) != 5 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise ParseError(path, line_no, "expected '%%MatrixMarket matrix <format> real <symmetry>'")
    fmt, scalar, symmetry = fields[2], fields[3], fields[4]
    if fmt not in ("coordinate", "array"):
        raise ParseError(path, line_no, f"unsupported format {fmt!r}")
    if scalar != "real":
        raise ParseError(path, line_no, f"unsupported field type {scalar!r}")
    if symmetry not in ("symmetric", "general"):
        raise ParseError(path, line_no, f"unsupported symmetry {symmetry!r}")

    size_line = None
    for line_no, line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = (line_no, stripped)
        break
    if size_line is None:
        raise ParseError(path, line_no, "missing size line")

    if fmt == "coordinate":
        nrows, ncols, nnz = _read_size(path, size_line, "rows cols nnz")
        ii, jj, vv = [], [], []
        count = 0
        for line_no, line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ParseError(path, line_no, "entry line needs 'row col value'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(path, line_no, f"malformed entry {stripped!r}") from None
            v = _real(path, line_no, parts[2])
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ParseError(path, line_no, f"index ({i}, {j}) out of range")
            ii.append(i - 1)
            jj.append(j - 1)
            vv.append(v)
            count += 1
        if count != nnz:
            raise ParseError(path, line_no if count else size_line[0],
                             f"expected {nnz} entries, found {count}")
        r0 = np.array(ii, dtype=np.intp)
        c0 = np.array(jj, dtype=np.intp)
        v0 = np.array(vv, dtype=float)
        if symmetry == "symmetric":
            off = r0 != c0
            rows = np.concatenate([r0, c0[off]])
            cols = np.concatenate([c0, r0[off]])
            vals = np.concatenate([v0, v0[off]])
        else:
            rows, cols, vals = r0, c0, v0
            _check_triplet_symmetry(path, rows, cols, vals)
        return nrows, rows, cols, vals

    # dense array, column-major per the format definition
    nrows, ncols = _read_size(path, size_line, "rows cols")
    expected = nrows * (nrows + 1) // 2 if symmetry == "symmetric" else nrows * ncols
    values = []
    for line_no, line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        values.extend(_real(path, line_no, tok) for tok in stripped.split())
    if len(values) != expected:
        raise ParseError(path, line_no, f"expected {expected} values, found {len(values)}")
    a = np.zeros((nrows, ncols))
    if symmetry == "symmetric":
        idx = 0
        for j in range(ncols):
            for i in range(j, nrows):
                a[i, j] = values[idx]
                a[j, i] = values[idx]
                idx += 1
    else:
        a = np.array(values).reshape((ncols, nrows)).T
        scale = max(1.0, float(np.abs(a).max()))
        if float(np.abs(a - a.T).max()) > SYM_TOL * scale:
            raise ParseError(path, size_line[0], "general array matrix is not symmetric")
    rows, cols = np.nonzero(a)
    return nrows, rows, cols, a[rows, cols]


def _check_triplet_symmetry(path, rows, cols, vals):
    a = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        a[(i, j)] = a.get((i, j), 0.0) + v
    scale = max(1.0, max(abs(v) for v in a.values()) if a else 1.0)
    for (i, j), v in a.items():
        if abs(v - a.get((j, i), 0.0)) > SYM_TOL * scale:
            raise ParseError(path, 0, f"general matrix is not symmetric at ({i + 1}, {j + 1})")


def read_vector(path):
    """Whitespace-separated reals, any line layout."""
    values = []
    for line_no, line in _data_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        values.extend(_real(path, line_no, tok) for tok in stripped.split())
    if not values:
        raise ParseError(path, 0, "no values found")
    return np.array(values)
