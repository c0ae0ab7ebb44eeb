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
    """(line_no, stripped text) of the file's lines that are neither blank nor
    % comments; a Matrix Market header is a % line too."""
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text and not text.startswith("%"):
                yield line_no, text


def _last_line_no(path):
    """The number of the file's last line, where a count found short or long
    at the end of the file is reported."""
    with open(path, "r", encoding="ascii") as fh:
        return sum(1 for _ in fh)


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
    'general' matrix must be symmetric to within SYM_TOL.  A 'symmetric'
    coordinate file gives each off-diagonal position in one triangle only:
    an entry whose mirror image came earlier would be mirrored onto it and
    summed twice, so it is a ParseError at its own line.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
    if not header:
        raise ParseError(path, 0, "empty file")
    fields = header.lower().split()
    if len(fields) != 5 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise ParseError(path, 1, "expected '%%MatrixMarket matrix <format> real <symmetry>'")
    fmt, scalar, symmetry = fields[2], fields[3], fields[4]
    if fmt not in ("coordinate", "array"):
        raise ParseError(path, 1, f"unsupported format {fmt!r}")
    if scalar != "real":
        raise ParseError(path, 1, f"unsupported field type {scalar!r}")
    if symmetry not in ("symmetric", "general"):
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    lines = _data_lines(path)
    size_line = next(lines, None)
    if size_line is None:
        raise ParseError(path, _last_line_no(path), "missing size line")

    if fmt == "coordinate":
        nrows, ncols, nnz = _read_size(path, size_line, "rows cols nnz")
        ii, jj, vv, line_nos = [], [], [], []
        upper = {}  # symmetric: off-diagonal position -> whether it came as (i < j)
        for line_no, text in lines:
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(path, line_no, "entry line needs 'row col value'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(path, line_no, f"malformed entry {text!r}") from None
            v = _real(path, line_no, parts[2])
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ParseError(path, line_no, f"index ({i}, {j}) out of range")
            if symmetry == "symmetric" and i != j:
                if upper.setdefault((min(i, j), max(i, j)), i < j) != (i < j):
                    message = f"entry ({i}, {j}) mirrors an earlier ({j}, {i})"
                    raise ParseError(path, line_no, message)
            ii.append(i - 1)
            jj.append(j - 1)
            vv.append(v)
            line_nos.append(line_no)
        if len(vv) != nnz:
            raise ParseError(path, _last_line_no(path) if vv else size_line[0],
                             f"expected {nnz} entries, found {len(vv)}")
        rows = np.array(ii, dtype=np.intp)
        cols = np.array(jj, dtype=np.intp)
        vals = np.array(vv, dtype=float)
        if symmetry == "symmetric":
            off = rows != cols
            rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
            vals = np.concatenate([vals, vals[off]])
        else:
            _check_triplet_symmetry(path, zip(line_nos, ii, jj, vv))
        return nrows, rows, cols, vals

    # dense array, column-major per the format definition
    nrows, ncols = _read_size(path, size_line, "rows cols")
    expected = nrows * (nrows + 1) // 2 if symmetry == "symmetric" else nrows * ncols
    tokens = [(line_no, tok) for line_no, text in lines for tok in text.split()]
    values = [_real(path, line_no, tok) for line_no, tok in tokens]
    if len(values) != expected:
        message = f"expected {expected} values, found {len(values)}"
        raise ParseError(path, _last_line_no(path), message)
    if symmetry == "symmetric":
        # the lower triangle column by column: (i, j) for j = 0.., i = j..n-1
        j, i = np.triu_indices(nrows)
        a = np.zeros((nrows, ncols))
        a[i, j] = values
        a[j, i] = values
    else:
        a = np.array(values).reshape((ncols, nrows)).T
        scale = max(1.0, float(np.abs(a).max()))
        asymmetric = np.flatnonzero((np.abs(a - a.T) > SYM_TOL * scale).T)
        if asymmetric.size:
            # the first value, in the file's column-major order, of an offending pair
            message = "general array matrix is not symmetric"
            raise ParseError(path, tokens[asymmetric[0]][0], message)
    rows, cols = np.nonzero(a)
    return nrows, rows, cols, a[rows, cols]


def _check_triplet_symmetry(path, entries):
    """Raise ParseError, at the line of the first entry of the offending
    position, unless the (line_no, i, j, v) entries sum to a symmetric matrix."""
    a, first_line = {}, {}
    for line_no, i, j, v in entries:
        a[(i, j)] = a.get((i, j), 0.0) + v
        first_line.setdefault((i, j), line_no)
    scale = max(1.0, max(abs(v) for v in a.values()) if a else 1.0)
    for (i, j), v in a.items():
        if abs(v - a.get((j, i), 0.0)) > SYM_TOL * scale:
            message = f"general matrix is not symmetric at ({i + 1}, {j + 1})"
            raise ParseError(path, first_line[(i, j)], message)


def read_vector(path):
    """Whitespace-separated reals, any line layout."""
    values = [
        _real(path, line_no, tok)
        for line_no, text in _data_lines(path)
        for tok in text.split()
    ]
    if not values:
        raise ParseError(path, 0, "no values found")
    return np.array(values)
