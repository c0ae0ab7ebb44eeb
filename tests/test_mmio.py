import numpy as np
import pytest

from trslab import mmio
from trslab.linalg import SymmetricLinearOperator


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_coordinate_symmetric(tmp_path):
    path = _write(
        tmp_path,
        "a.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% comment line\n"
        "2 2 3\n"
        "1 1 2.0\n"
        "2 2 2.0\n"
        "2 1 1.0\n",
    )
    n, rows, cols, vals = mmio.read_matrix_market(path)
    assert n == 2
    dense = np.zeros((2, 2))
    np.add.at(dense, (rows, cols), vals)
    np.testing.assert_array_equal(dense, [[2.0, 1.0], [1.0, 2.0]])


def test_coordinate_general_requires_symmetry(tmp_path):
    path = _write(
        tmp_path,
        "g.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 2 1.0\n"
        "2 1 3.0\n",
    )
    with pytest.raises(mmio.ParseError, match=r"g.mtx:3: .* at \(1, 2\)") as info:
        mmio.read_matrix_market(path)
    assert info.value.line_no == 3
    # an entry without its mirror is reported at its own line
    path = _write(
        tmp_path,
        "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 2 5.0\n",
    )
    with pytest.raises(mmio.ParseError, match=r"m.mtx:4: .* at \(1, 2\)") as info:
        mmio.read_matrix_market(path)
    assert info.value.line_no == 4


def test_symmetric_coordinate_rejects_an_entry_given_in_both_triangles(tmp_path):
    header = "%%MatrixMarket matrix coordinate real symmetric\n"
    # both triangles of (2, 1) would be mirrored and summed into 1.0
    path = _write(tmp_path, "both.mtx", header + "2 2 3\n2 1 0.5\n1 1 1.0\n1 2 0.5\n")
    with pytest.raises(mmio.ParseError, match=r"both.mtx:5: entry \(1, 2\) mirrors") as info:
        mmio.read_matrix_market(path)
    assert info.value.line_no == 5
    # an entry repeated in its own triangle is summed, as in a general file
    path = _write(tmp_path, "twice.mtx", header + "2 2 3\n1 2 0.25\n2 2 1.0\n1 2 0.25\n")
    n, rows, cols, vals = mmio.read_matrix_market(path)
    dense = np.zeros((2, 2))
    np.add.at(dense, (rows, cols), vals)
    np.testing.assert_array_equal(dense, [[0.0, 0.5], [0.5, 1.0]])
    # the upper triangle alone is accepted and mirrored
    path = _write(tmp_path, "upper.mtx", header + "3 3 3\n1 2 0.5\n2 3 -1.0\n3 3 2.0\n")
    n, rows, cols, vals = mmio.read_matrix_market(path)
    dense = np.zeros((3, 3))
    np.add.at(dense, (rows, cols), vals)
    np.testing.assert_array_equal(dense, [[0.0, 0.5, 0.0], [0.5, 0.0, -1.0], [0.0, -1.0, 2.0]])


COORDINATE = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize(
    "read, text, line_no, message",
    [
        ("matrix", COORDINATE + "% c\n2 2\n", 3, "size line needs 'rows cols nnz'"),
        ("matrix", COORDINATE + "2 2 x\n", 2, "size entries must be integers"),
        ("matrix", "", 0, "empty file"),
        ("matrix", COORDINATE + "% only a comment\n\n", 3, "missing size line"),
        ("matrix", COORDINATE + "2 2 1\n1 1\n", 3, "entry line needs 'row col value'"),
        ("matrix", COORDINATE + "2 2 1\n1 1.5 2.0\n", 3, "malformed entry"),
        ("matrix", COORDINATE + "2 2 1\n3 1 2.0\n", 3, r"index \(3, 1\) out of range"),
        # a short or long count is reported at the file's last line, or at the
        # size line when no entry follows it
        ("matrix", COORDINATE + "2 2 3\n1 1 1.0\n2 2 1.0\n% end\n", 5, "expected 3 entries, found 2"),
        ("matrix", COORDINATE + "2 2 1\n1 1 1.0\n2 2 1.0\n", 4, "expected 1 entries, found 2"),
        ("matrix", COORDINATE + "2 2 2\n% none\n", 2, "expected 2 entries, found 0"),
        (
            "matrix",
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n1.0\n",
            5,
            "expected 4 values, found 3",
        ),
        ("vector", "% no values\n\n", 0, "no values found"),
    ],
)
def test_parse_errors_carry_their_line_numbers(tmp_path, read, text, line_no, message):
    path = _write(tmp_path, "e.txt", text)
    reader = mmio.read_matrix_market if read == "matrix" else mmio.read_vector
    with pytest.raises(mmio.ParseError, match=message) as info:
        reader(path)
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"{path}:{line_no}: ")


def test_array_format(tmp_path):
    path = _write(
        tmp_path,
        "d.mtx",
        "%%MatrixMarket matrix array real symmetric\n"
        "2 2\n"
        "2.0\n1.0\n3.0\n",
    )
    n, rows, cols, vals = mmio.read_matrix_market(path)
    dense = np.zeros((2, 2))
    dense[rows, cols] = vals
    np.testing.assert_array_equal(dense, [[2.0, 1.0], [1.0, 3.0]])


def test_general_array_matches_coordinate(tmp_path):
    # column-major values, two to a line, of a 3 x 3 symmetric matrix
    array = _write(
        tmp_path,
        "ga.mtx",
        "%%MatrixMarket matrix array real general\n3 3\n2.0 -1.0\n0.0 -1.0\n4.0 0.5\n0.0 0.5\n1.0\n",
    )
    coordinate = _write(
        tmp_path,
        "gc.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n"
        "1 1 2.0\n2 1 -1.0\n2 2 4.0\n3 2 0.5\n3 3 1.0\n",
    )
    dense = []
    for path in (array, coordinate):
        n, rows, cols, vals = mmio.read_matrix_market(path)
        A = SymmetricLinearOperator.from_triplets(n, rows, cols, vals)
        dense.append(np.column_stack([A.apply(e) for e in np.eye(n)]))
    assert dense[0].tobytes() == dense[1].tobytes()
    np.testing.assert_array_equal(dense[0], [[2.0, -1.0, 0.0], [-1.0, 4.0, 0.5], [0.0, 0.5, 1.0]])


def test_general_array_requires_symmetry(tmp_path):
    # a[1, 0] = 5.0 on line 4 has no mirror: its value comes first in the file
    path = _write(
        tmp_path, "ga.mtx", "%%MatrixMarket matrix array real general\n2 2\n1.0\n5.0\n0.0\n1.0\n"
    )
    with pytest.raises(mmio.ParseError, match=r"ga.mtx:4: .*not symmetric") as info:
        mmio.read_matrix_market(path)
    assert info.value.line_no == 4


def test_symmetric_array_lists_the_lower_triangle_by_columns(tmp_path):
    n = 6
    values = np.random.default_rng(2).standard_normal(n * (n + 1) // 2)
    values[[1, 7]] = 0.0
    text = "\n".join(repr(float(v)) for v in values)
    header = "%%MatrixMarket matrix array real symmetric\n% c\n"
    path = _write(tmp_path, "d6.mtx", f"{header}{n} {n}\n{text}\n")
    # the format's order, as a loop: column j from the diagonal down
    expected = np.zeros((n, n))
    idx = 0
    for j in range(n):
        for i in range(j, n):
            expected[i, j] = expected[j, i] = values[idx]
            idx += 1
    order, rows, cols, vals = mmio.read_matrix_market(path)
    assert order == n
    exp_rows, exp_cols = np.nonzero(expected)
    assert np.array_equal(rows, exp_rows) and np.array_equal(cols, exp_cols)
    assert vals.tobytes() == expected[exp_rows, exp_cols].tobytes()


def test_error_carries_line_number(tmp_path):
    path = _write(
        tmp_path,
        "bad.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n"
        "1 1 2.0\n"
        "1 2 what\n",
    )
    with pytest.raises(mmio.ParseError) as info:
        mmio.read_matrix_market(path)
    assert info.value.line_no == 4


@pytest.mark.parametrize(
    "header",
    [
        "%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket vector coordinate real symmetric\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix sparse real symmetric\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
        "not a header\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n-2 -2 0\n",
        "%%MatrixMarket matrix array real general\n0 0\n",
    ],
)
def test_rejected_headers(tmp_path, header):
    path = _write(tmp_path, "h.mtx", header)
    with pytest.raises(mmio.ParseError):
        mmio.read_matrix_market(path)


@pytest.mark.parametrize(
    "kind, size",
    [("coordinate", "0 0 0"), ("coordinate", "-2 -2 0"), ("coordinate", "2 2 -1"), ("array", "0 0")],
)
def test_degenerate_size_line_carries_its_line_number(tmp_path, kind, size):
    path = _write(tmp_path, "s.mtx", f"%%MatrixMarket matrix {kind} real general\n% note\n{size}\n")
    with pytest.raises(mmio.ParseError, match="must be >= ") as info:
        mmio.read_matrix_market(path)
    assert info.value.line_no == 3


def test_read_vector(tmp_path):
    path = _write(tmp_path, "v.txt", "1.0 2.5\n-3e-2\n")
    np.testing.assert_allclose(mmio.read_vector(path), [1.0, 2.5, -0.03])
    bad = _write(tmp_path, "vb.txt", "1.0 oops\n")
    with pytest.raises(mmio.ParseError):
        mmio.read_vector(bad)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_nonfinite_entries_are_parse_errors(tmp_path, token):
    coordinate = _write(
        tmp_path,
        "c.mtx",
        f"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 2 {token}\n",
    )
    array = _write(
        tmp_path, "a.mtx", f"%%MatrixMarket matrix array real symmetric\n2 2\n2.0\n{token}\n3.0\n"
    )
    vector = _write(tmp_path, "v.txt", f"1.0\n2.0 {token}\n")
    for read, path, line_no in (
        (mmio.read_matrix_market, coordinate, 4),
        (mmio.read_matrix_market, array, 4),
        (mmio.read_vector, vector, 2),
    ):
        with pytest.raises(mmio.ParseError, match="nonfinite") as info:
            read(path)
        assert info.value.line_no == line_no
