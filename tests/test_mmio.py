import numpy as np
import pytest

from trslab import mmio


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
    with pytest.raises(mmio.ParseError):
        mmio.read_matrix_market(path)


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
