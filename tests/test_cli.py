import json
import os

import numpy as np
import pytest

from trslab.cli import main
from trslab.linalg import NoConvergence
from trslab.trs import NearHardCase


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def one_by_one(tmp_path):
    mtx = _write(
        tmp_path, "m.mtx", "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 2.0\n"
    )
    grad = _write(tmp_path, "g.txt", "4.0\n")
    return mtx, grad


def test_solve_scalar_instance(one_by_one, capsys):
    mtx, grad = one_by_one
    code = main(["solve", mtx, "--gradient", grad, "--delta", "1.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["lambda"] == pytest.approx(2.0, abs=1e-10)
    assert out["q"] == pytest.approx(-3.0, abs=1e-10)
    assert out["kkt"]["passed"] is True


def test_solve_identity_seed_gradient(tmp_path, capsys):
    mtx = _write(
        tmp_path,
        "eye.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n",
    )
    grad = _write(tmp_path, "g3.txt", "2.0 0.0 0.0\n")
    code = main(["solve", mtx, "--gradient", grad])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["lambda"] == pytest.approx(1.0, abs=1e-10)


def test_solve_parse_error_exit_code(tmp_path, capsys):
    bad = _write(
        tmp_path,
        "bad.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 nope\n",
    )
    grad = _write(tmp_path, "g.txt", "1.0\n")
    code = main(["solve", bad, "--gradient", grad])
    err = capsys.readouterr().err
    assert code == 2
    assert ":3:" in err  # line number surfaces in the message
    # a size line of order 0 is a parse error too, not a traceback from the solver
    empty = _write(tmp_path, "empty.mtx", "%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n")
    code = main(["solve", empty, "--gradient", grad])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and ":2:" in err


def test_solve_rejects_an_entry_given_in_both_triangles(tmp_path, capsys):
    # symmetric storage lists each off-diagonal entry once; reading both
    # (2, 1) and (1, 2) would double it
    mtx = _write(
        tmp_path,
        "both.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 4\n"
        "1 1 1.0\n2 1 0.5\n2 2 1.0\n1 2 0.5\n",
    )
    code = main(["solve", mtx, "--seed-gradient", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "both.mtx:6:" in captured.err


def test_solve_near_hard_exit_code(tmp_path, capsys):
    mtx = _write(
        tmp_path,
        "nh.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 -1.0\n2 2 1.0\n",
    )
    grad = _write(tmp_path, "gnh.txt", "0.0\n1.0\n")
    code = main(["solve", mtx, "--gradient", grad])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["warning"] == "near_hard_case"
    assert out["kkt"]["curvature_margin"] < 0


@pytest.mark.parametrize("delta", ["inf", "nan", "0"])
def test_solve_invalid_radius_exit_code(one_by_one, capsys, delta):
    mtx, grad = one_by_one
    code = main(["solve", mtx, "--gradient", grad, "--delta", delta])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def _random_symmetric(tmp_path, n=12, seed=3):
    a = np.random.default_rng(seed).standard_normal((n, n))
    a = a + a.T
    lines = [f"{i + 1} {j + 1} {float(a[i, j])!r}" for i in range(n) for j in range(i + 1)]
    header = f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {len(lines)}\n"
    return _write(tmp_path, "random.mtx", header + "\n".join(lines) + "\n")


@pytest.mark.parametrize("delta", ["1e-151", "1e-160"])
@pytest.mark.parametrize("matrix", ["one_by_one", "random"])
def test_solve_radius_below_min_delta_exit_code(one_by_one, tmp_path, capsys, matrix, delta):
    # ||h||^2, about delta^2, would leave the normal floats in the secular solve
    mtx = one_by_one[0] if matrix == "one_by_one" else _random_symmetric(tmp_path)
    code = main(["solve", mtx, "--seed-gradient", "1", "--delta", delta])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and delta in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("delta", ["1e-100", "1e-120", "1e-150"])
@pytest.mark.parametrize("matrix", ["one_by_one", "random"])
def test_solve_tiny_radius(one_by_one, tmp_path, capsys, matrix, delta):
    # on the random matrix the Newton derivative h'(T + lam I)^-1 h, about
    # delta^3, underflows to zero below 1e-108
    mtx = one_by_one[0] if matrix == "one_by_one" else _random_symmetric(tmp_path)
    code = main(["solve", mtx, "--seed-gradient", "1", "--delta", delta])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["s_norm"] == pytest.approx(float(delta), rel=1e-12)
    assert out["lambda"] == pytest.approx(1.0 / float(delta), rel=1e-12)


@pytest.mark.parametrize("name, delta", [("1b", "1e-78"), ("1b", "1e-76"), ("4", "1e-40")])
def test_experiment_tiny_radius_exit_code(tmp_path, capsys, name, delta):
    # ||M|| >= beta0^2 / delta^2, and both of its routes form ||M||^4
    out_dir = tmp_path / "out"
    code = main(["experiment", name, "--n", "20", "--delta", delta, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: radius delta=" + delta)
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["1b", "4"])
def test_experiment_small_radius_within_range(tmp_path, capsys, name):
    code = main(["experiment", name, "--n", "20", "--delta", "1e-38", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / f"{name}.summary.json", encoding="ascii") as fh:
        # ||M|| is beta0^2 / delta^2 = 1e76 up to the O(1) blocks of M
        assert json.load(fh)["m_norm"] == pytest.approx(1e76, rel=1e-12)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve", "--kmax", "-1"),
        ("solve", "--tol", "nan"),
        ("experiment", "--kmax", "-1"),
        ("experiment", "--resid-tol", "nan"),
        ("experiment", "--delta", "nan"),
        ("experiment", "--delta", "inf"),
        ("experiment", "--delta", "0"),
    ],
)
def test_invalid_budget_or_tolerance_exit_code(one_by_one, tmp_path, capsys, command, flag, value):
    out_dir = tmp_path / "out"
    if command == "solve":
        mtx, grad = one_by_one
        argv = ["solve", mtx, "--gradient", grad]
    else:
        argv = ["experiment", "1a", "--n", "50", "--out", str(out_dir)]
    code = main(argv + [flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out_dir.exists()


def test_solve_budget_exhausted_exit_code(tmp_path, capsys):
    entries = "".join(f"{i} {i} {float(i)}\n" for i in range(1, 21))
    mtx = _write(
        tmp_path,
        "d20.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n20 20 20\n" + entries,
    )
    code = main(["solve", mtx, "--seed-gradient", "3", "--kmax", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 4
    assert out["termination"] == "k_max"
    assert out["iterations"] == 4


def test_solve_failed_kkt_check_exit_code(tmp_path, capsys):
    # a loose --tol stops the solve before stationarity meets the KKT check
    d = np.linspace(-1.0, 3.0, 200)
    entries = "".join(f"{i} {i} {float(v)!r}\n" for i, v in enumerate(d, start=1))
    mtx = _write(
        tmp_path,
        "d200.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n200 200 200\n" + entries,
    )
    code = main(["solve", mtx, "--seed-gradient", "1", "--tol", "1e-4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["termination"] == "residual_tol"
    assert out["kkt"]["passed"] is False
    assert out["kkt"]["stationarity"] > 1e-10
    assert main(["solve", mtx, "--seed-gradient", "1"]) == 0


@pytest.mark.parametrize("where", ["matrix", "gradient"])
def test_solve_rejects_nonfinite_input_before_solving(
    one_by_one, tmp_path, capsys, monkeypatch, where
):
    def fail(*args, **kwargs):
        raise AssertionError("the solver ran on nonfinite input")

    monkeypatch.setattr("trslab.cli.gltr_solve", fail)
    mtx, grad = one_by_one
    if where == "matrix":
        header = "%%MatrixMarket matrix coordinate real symmetric\n"
        mtx = _write(tmp_path, "inf.mtx", header + "1 1 1\n1 1 inf\n")
    else:
        grad = _write(tmp_path, "nan.txt", "nan\n")
    code = main(["solve", mtx, "--gradient", grad])
    captured = capsys.readouterr()
    assert code == 2
    assert "nonfinite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_zero_gradient_exit_code(tmp_path, capsys, command):
    mtx = _write(
        tmp_path,
        "m3.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1.0\n2 2 2.0\n3 3 -1.0\n",
    )
    zeros = _write(tmp_path, "zeros.txt", "0.0\n0.0\n0.0\n")
    out_dir = tmp_path / "out"
    if command == "solve":
        argv = ["solve", mtx, "--gradient", zeros, "--solution-out", str(out_dir / "s.txt")]
    else:
        params = {"path": mtx, "gradient_path": zeros}
        spec = {"family": "file", "n": 3, "delta": 1.0, "seed": 0, "params": params}
        argv = ["experiment", "--spec", _write(tmp_path, "spec.json", json.dumps(spec))]
        argv += ["--out", str(out_dir)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: gradient must be nonzero\n"
    assert captured.out == ""
    assert not out_dir.exists()


def _spec_argv(tmp_path, family="2", params=None, **fields):
    spec = {"family": family, "n": 50, "delta": 1.0, "seed": 0, "params": params or {}, **fields}
    return ["--spec", _write(tmp_path, "spec.json", json.dumps(spec))]


@pytest.mark.parametrize(
    "which",
    [
        lambda tmp: ["4", "--orthogonal-similarity"],
        lambda tmp: ["1a", "--orthogonal-similarity", "--n", "4000"],
        lambda tmp: _spec_argv(tmp, "2", {"nonsense": 1}),
        lambda tmp: _spec_argv(tmp, "3", {"rho": 1.5}),
        lambda tmp: _spec_argv(tmp, "file", {"path": str(tmp / "missing.mtx")}),
        lambda tmp: _spec_argv(tmp, "file", {"path": _write(tmp, "g.txt", "1.0\n")}),
        lambda tmp: ["--spec", _write(tmp, "spec.json", "5")],
        lambda tmp: ["--spec", _write(tmp, "spec.json", "null")],
        lambda tmp: _spec_argv(tmp, n=None),
        lambda tmp: _spec_argv(tmp, n="50"),
        lambda tmp: _spec_argv(tmp, n=50.9),
        lambda tmp: _spec_argv(tmp, seed=None),
        lambda tmp: _spec_argv(tmp, delta=None),
        lambda tmp: _spec_argv(tmp, params=[1]),
        lambda tmp: _spec_argv(
            tmp,
            "file",
            {"path": _write(tmp, "m2.mtx", "%%MatrixMarket matrix array real general\n2 2\n1 0 0 1\n")},
            n=7,
        ),
        # open() would take an integer path as a file descriptor
        lambda tmp: _spec_argv(tmp, "file", {"path": 0}),
        lambda tmp: _spec_argv(tmp, "file", {"path": True}),
        lambda tmp: _spec_argv(tmp, "file", {"path": 1.5}),
        lambda tmp: _spec_argv(
            tmp,
            "file",
            {
                "path": _write(tmp, "m1.mtx", "%%MatrixMarket matrix array real general\n1 1\n2\n"),
                "gradient_path": 0,
            },
        ),
    ],
    ids=[
        "family-4-similarity",
        "similarity-too-large",
        "unknown-param",
        "rho",
        "missing-file",
        "not-matrix-market",
        "top-level-number",
        "top-level-null",
        "n-null",
        "n-string",
        "n-fraction",
        "seed-null",
        "delta-null",
        "params-list",
        "file-order",
        "path-0",
        "path-true",
        "path-1.5",
        "gradient-path-0",
    ],
)
def test_experiment_invalid_instance_exit_code(tmp_path, capsys, which):
    # errors in the spec's fields, and those that only generate finds once
    # the spec itself has parsed; stdin, a file here, stays open and unread,
    # and stdout stays open
    out_dir = tmp_path / "out"
    stdin = tmp_path / "stdin.txt"
    stdin.write_text("1 1\n2\n")
    saved = os.dup(0)
    fd = os.open(stdin, os.O_RDONLY)
    try:
        os.dup2(fd, 0)
        code = main(["experiment"] + which(tmp_path) + ["--out", str(out_dir)])
        assert os.lseek(0, 0, os.SEEK_CUR) == 0
        os.fstat(1)
    finally:
        os.dup2(saved, 0)
        os.close(saved)
        os.close(fd)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.fixture
def hard_case_files(tmp_path):
    # A = diag(linspace(-1, 1, 50)) and g orthogonal to its lowest eigenvector
    d = np.linspace(-1.0, 1.0, 50)
    entries = "".join(f"{i} {i} {float(v)!r}\n" for i, v in enumerate(d, start=1))
    header = "%%MatrixMarket matrix coordinate real symmetric\n50 50 50\n"
    mtx = _write(tmp_path, "hard.mtx", header + entries)
    g = np.ones(50)
    g[0] = 0.0
    g /= np.linalg.norm(g)
    return mtx, _write(tmp_path, "ghard.txt", "\n".join(repr(float(v)) for v in g) + "\n")


@pytest.mark.parametrize("delta", [2.0, 5.0, 10.0, 100.0])
def test_experiment_hard_case_file_spec_exit_code(hard_case_files, tmp_path, capsys, delta):
    # past delta = 2 the Krylov reference multiplier leaves A + lam I
    # indefinite: exit 3 with a JSON diagnostic and no artifact
    mtx, grad = hard_case_files
    out_dir = tmp_path / "out"
    argv = _spec_argv(tmp_path, "file", {"path": mtx, "gradient_path": grad}, delta=delta)
    code = main(["experiment"] + argv + ["--out", str(out_dir)])
    captured = capsys.readouterr()
    assert captured.err == ""
    if delta == 2.0:
        assert code == 0 and (out_dir / "file.csv").exists()
        return
    assert code == 3
    out = json.loads(captured.out)
    assert out["error"] == "near_hard_case" and "must be positive" in out["detail"]
    assert not out_dir.exists()


def test_experiment_unconverged_reference_exit_code(tmp_path, capsys):
    # an interior case on a graded spectrum: the Krylov reference solve uses
    # all its steps with a residual near 0.14, and its s_opt is about 7% off
    d = np.logspace(-8.0, 0.0, 1000)
    entries = "".join(f"{i} {i} {float(v)!r}\n" for i, v in enumerate(d, start=1))
    header = "%%MatrixMarket matrix coordinate real symmetric\n1000 1000 1000\n"
    mtx = _write(tmp_path, "graded.mtx", header + entries)
    out_dir = tmp_path / "out"
    argv = _spec_argv(tmp_path, "file", {"path": mtx}, n=1000, delta=1e10)
    code = main(["experiment"] + argv + ["--out", str(out_dir)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == 4
    out = json.loads(captured.out)
    assert out["error"] == "no_convergence" and "k_max=600" in out["detail"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_memory_error_exit_code(one_by_one, tmp_path, capsys, monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 22.4 GiB")

    out_dir = tmp_path / "out"
    if command == "solve":
        monkeypatch.setattr("trslab.cli.gltr_solve", exhausted)
        argv = ["solve", one_by_one[0], "--gradient", one_by_one[1]]
    else:
        monkeypatch.setattr("trslab.cli.ex.run_experiment", exhausted)
        argv = ["experiment", "1a", "--n", "50", "--out", str(out_dir)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: Unable to allocate 22.4 GiB\n"
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "experiment"])
@pytest.mark.parametrize(
    "exc, code, error",
    [
        (NearHardCase(1.5e-3, theta_min=-1.0), 3, "near_hard_case"),
        (NoConvergence("secular iteration budget (50) exhausted"), 4, "no_convergence"),
    ],
    ids=["near-hard", "no-convergence"],
)
def test_solver_exception_exit_code(
    one_by_one, tmp_path, capsys, monkeypatch, command, exc, code, error
):
    def raise_(*args, **kwargs):
        raise exc

    out_dir = tmp_path / "out"
    if command == "solve":
        monkeypatch.setattr("trslab.cli.gltr_solve", raise_)
        argv = ["solve", one_by_one[0], "--gradient", one_by_one[1]]
        argv += ["--solution-out", str(out_dir / "s.txt")]
    else:
        monkeypatch.setattr("trslab.cli.ex.run_experiment", raise_)
        argv = ["experiment", "1a", "--n", "50", "--out", str(out_dir)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": error, "detail": str(exc)}
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_unwritable_output_path_exit_code(one_by_one, tmp_path, capsys, command):
    taken = _write(tmp_path, "taken", "a file, not a directory\n")
    if command == "solve":
        argv = ["solve", one_by_one[0], "--gradient", one_by_one[1]]
        argv += ["--solution-out", str(tmp_path / "missing" / "s.txt")]
    else:
        argv = ["experiment", "1a", "--n", "50", "--out", taken]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_solve_writes_solution_and_verifies(one_by_one, tmp_path, capsys):
    mtx, grad = one_by_one
    out_path = tmp_path / "s.txt"
    code = main(
        ["solve", mtx, "--gradient", grad, "--solution-out", str(out_path), "--verify-residuals"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["residual_identity_gap"] <= 1e-12
    s = np.array([float(v) for v in out_path.read_text().split()])
    np.testing.assert_allclose(s, [-1.0], atol=1e-10)


def test_experiment_writes_artifacts(tmp_path, capsys):
    code = main(
        ["experiment", "3", "--n", "400", "--seed", "7", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    base = tmp_path / "out"
    assert (base / "3.csv").exists()
    assert (base / "3.plt").exists()
    summary = json.loads((base / "3.summary.json").read_text())
    assert summary["rounded"]["alpha1"] == 8.0
    assert summary["rounded"]["alpha_n"] == -2.0


def test_experiment_bytes_deterministic(tmp_path, capsys):
    for sub in ("r1", "r2"):
        code = main(
            ["experiment", "2", "--n", "400", "--seed", "3", "--out", str(tmp_path / sub)]
        )
        assert code == 0
    for name in ("2.csv", "2.plt", "2.summary.json"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2


def test_experiment_from_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"family": "1a", "n": 300, "delta": 1.0, "seed": 4, "params": {}})
    )
    code = main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "1a.csv").exists()


def test_unknown_flag_is_hard_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["experiment", "1a", "--bogus"])
    assert info.value.code == 2


def test_help_mentions_every_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for word in ("solve", "experiment", "verify"):
        assert word in out


def test_verify_quick_passes(capsys):
    code = main(["verify", "quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS oracle_equivalence" in out
    assert "FAIL" not in out
