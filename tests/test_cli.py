"""CLI contract: formats, determinism, exit codes, output plumbing.

Most checks drive relhur.cli.run in process for speed; one test runs the
installed console script end to end through a real subprocess.
"""

import argparse
import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from relhur import cli
from relhur import hydrogen as _hydrogen
from relhur.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_bound_json_record(capsys):
    code, out = _capture(capsys, ["bound", "--d", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"d", "gamma", "err_est", "tol"}
    assert doc["d"] == 1.0
    assert doc["tol"] == 1e-7
    assert doc["gamma"] == pytest.approx(1.672106402775, abs=1e-6)
    assert doc["err_est"] <= 1e-7


@pytest.mark.parametrize("d_text", ["1e200", "1.7e308"])
def test_bound_huge_scale(capsys, d_text):
    # V(q; d) must not overflow for any finite d; gamma is then at its limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _capture(capsys, ["bound", "--d", d_text])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == float(d_text)
    assert abs(doc["gamma"] - (1.0 + 0.5 * math.sqrt(5.0))) <= 1e-6


@pytest.mark.parametrize("d_text", ["5e-324", "1e-310"])
def test_bound_subnormal_scale(capsys, d_text):
    code, out = _capture(capsys, ["bound", "--d", d_text])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == float(d_text)
    assert abs(doc["gamma"] - 1.5) <= 1e-6


def test_bound_infinite_scale(capsys):
    code, out = _capture(capsys, ["bound", "--d-inf"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == "inf"
    assert doc["gamma"] == pytest.approx(1.0 + 0.5 * math.sqrt(5.0), abs=1e-6)


def test_twelve_significant_digits(capsys):
    _, out = _capture(capsys, ["bound", "--d", "1.0"])
    gamma_text = out.split('"gamma":')[1].split(",")[0]
    mantissa = gamma_text.replace("-", "").replace(".", "").split("e")[0]
    assert len(mantissa.lstrip("0")) <= 12


def test_sweep_csv_schema(capsys):
    code, out = _capture(capsys,
                         ["sweep", "--d-min", "0.5", "--d-max", "2",
                          "--points", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,gamma,err_est"
    assert len(lines) == 4
    params = [float(l.split(",")[0]) for l in lines[1:]]
    assert params == [0.5, 1.25, 2.0]
    gammas = [float(l.split(",")[1]) for l in lines[1:]]
    assert gammas[0] < gammas[1] < gammas[2]


def test_sweep_log_spacing(capsys):
    code, out = _capture(capsys,
                         ["sweep", "--d-min", "0.5", "--d-max", "8",
                          "--points", "5", "--log"])
    assert code == 0
    params = [float(l.split(",")[0]) for l in out.splitlines()[1:]]
    assert params == pytest.approx([0.5, 1.0, 2.0, 4.0, 8.0], rel=1e-12)


def test_sweep_json_rows(capsys):
    code, out = _capture(capsys,
                         ["sweep", "--d-min", "1", "--d-max", "2",
                          "--points", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["param"] for r in rows] == [1.0, 2.0]
    assert all(set(r) == {"param", "gamma", "err_est"} for r in rows)


def test_byte_identical_reruns(capsys):
    _, out1 = _capture(capsys, ["sweep", "--d-min", "0.5", "--d-max", "4",
                                "--points", "4"])
    _, out2 = _capture(capsys, ["sweep", "--d-min", "0.5", "--d-max", "4",
                                "--points", "4"])
    assert out1 == out2


# gamma as the CLI prints it (12 significant digits), frozen so that a
# change meant to leave the numbers alone shows any digit it moves; err_est
# sits at the eigensolver's rounding (about 1e-13) and is only bounded
_GOLDEN_BOUND = {
    ("--d", "1.0"): 1.6721064027,
    ("--d-inf",): 2.11803398875,
    ("--d", "1e6"): 2.11803330242,
}
_GOLDEN_SWEEP_32 = (
    1.5688265535, 1.57876482539, 1.58972200931, 1.60171218437,
    1.61473192526, 1.6287587302, 1.64375009796, 1.65964335392,
    1.67635628649, 1.6937886097, 1.71182421859, 1.73033415224,
    1.74918012987, 1.76821848275, 1.78730427265, 1.80629537221,
    1.82505628549, 1.84346151054, 1.86139828609, 1.87876861885,
    1.89549054736, 1.91149865747, 1.92674391499, 1.9411929192,
    1.95482670356, 1.96763921811, 1.97963562274, 1.99083050625,
    2.00124612578, 2.01091073859, 2.01985707595, 2.02812098914,
)


@pytest.mark.parametrize("flags", list(_GOLDEN_BOUND), ids=" ".join)
def test_bound_gamma_golden(capsys, flags):
    code, out = _capture(capsys, ["bound", *flags])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == _GOLDEN_BOUND[flags]
    assert doc["err_est"] <= doc["tol"]


def test_sweep_gamma_golden(capsys):
    code, out = _capture(capsys, ["sweep", "--d-min", "0.5", "--d-max", "8",
                                  "--points", "32", "--log"])
    assert code == 0
    rows = [tuple(float(v) for v in line.split(","))
            for line in out.splitlines()[1:]]
    assert tuple(r[1] for r in rows) == _GOLDEN_SWEEP_32
    assert all(r[2] <= 1e-7 for r in rows)


@pytest.mark.parametrize("flags", [
    ["--d-min", "0", "--d-max", "2e5", "--points", "3"],
    ["--d-min", "1e-3", "--d-max", "1e9", "--points", "13", "--log"],
    ["--d-min", "0", "--d-max", "8", "--points", "70"],
], ids=["zero-switch-above", "log-across-switch", "longer-than-batch"])
def test_sweep_rows_match_single_points(capsys, monkeypatch, flags):
    # the sweep solves its grid in one batched call; each row must equal
    # gamma_estimate at its d, to the last bit
    from relhur import rel_uncertainty

    rows, doc = [], cli._doc

    def recorded(records, fmt, grid):
        rows.extend(tuple(r.values()) for r in records)
        return doc(records, fmt, grid)

    monkeypatch.setattr(cli, "_doc", recorded)
    code, _ = _capture(capsys, ["sweep", *flags])
    assert code == 0
    expected = [(d, *rel_uncertainty.gamma_estimate(d, tol=cli.BOUND_TOL))
                for d, _, _ in rows]
    assert [[float(x).hex() for x in row] for row in rows] == [
        [float(x).hex() for x in row] for row in expected]


def test_gamma_commands_form_no_eigenvector(capsys, monkeypatch):
    # bound, sweep and verify print eigenvalues only, so they must not
    # need np.linalg.eig
    def no_eig(*_args, **_kwargs):
        raise AssertionError("np.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    for argv in (["bound", "--d", "1.0"], ["bound", "--d", "1e6"],
                 ["bound", "--d-inf"],
                 ["sweep", "--d-min", "0.5", "--d-max", "8", "--points", "4",
                  "--log"],
                 ["verify", "--strict"]):
        code, out = _capture(capsys, argv)
        assert code == 0, argv
    assert out.splitlines()[-1] == "overall: PASS"


def test_hydrogen_record(capsys):
    code, out = _capture(capsys, ["hydrogen", "--Z", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["Z"] == 1
    assert doc["alpha"] == pytest.approx(7.2973525693e-3, rel=1e-12)
    assert doc["gamma_c"] == pytest.approx(0.99997337396827, rel=1e-10)
    assert doc["gamma"] == pytest.approx(1.73211614314, rel=1e-10)
    assert "gamma_oracle" not in doc


def test_hydrogen_oracle_flag(capsys):
    code, out = _capture(capsys, ["hydrogen", "--Z", "80", "--oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma_oracle"] == pytest.approx(doc["gamma"], rel=1e-6)
    assert doc["rel_diff"] <= 1e-6


def test_hopfion_single_record(capsys):
    code, out = _capture(capsys, ["hopfion", "--a", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == pytest.approx(1.9649111869950, abs=1e-6)
    assert doc["delta_r_sq"] == pytest.approx(1.0794334081891, rel=1e-6)
    assert doc["delta_p_sq"] == pytest.approx(3.5767616079766, rel=1e-6)


def test_hopfion_curve_csv(capsys):
    code, out = _capture(capsys, ["hopfion", "--a-min", "1", "--a-max", "5",
                                  "--points", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,gamma,err_est"
    gammas = [float(l.split(",")[1]) for l in lines[1:]]
    assert gammas[0] > gammas[1] > gammas[2]


def test_verify_passes(capsys):
    code, out = _capture(capsys, ["verify"])
    assert code == 0
    assert "overall: PASS" in out
    assert out.count("PASS") >= 4


def test_verify_strict_passes(capsys):
    code, out = _capture(capsys, ["verify", "--strict"])
    assert code == 0
    assert "overall: PASS" in out


def test_verify_strict_residuals_test_the_solver(capsys, monkeypatch):
    # gamma 1e-9 off passes the 1e-7 and 1e-6 limit rows, but the exact
    # limiting eigenfunctions turn it into a residual far above 1e-10
    from relhur import rel_uncertainty

    exact = rel_uncertainty.gamma_estimates
    monkeypatch.setattr(rel_uncertainty, "gamma_estimates",
                        lambda ds, tol=1e-7: [(gamma + 1e-9, err) for
                                              gamma, err in exact(ds, tol)])
    code, out = _capture(capsys, ["verify", "--strict"])
    assert code == 1
    status = {line.split()[0]: line.split()[-1] for line in out.splitlines()}
    assert [name for name, s in status.items() if s == "FAIL"] == [
        "nonrel_limit_residual", "ultra_limit_residual", "overall:"]


# every document the writer produces, from library calls stubbed to fixed
# numbers, so that the bytes do not depend on the platform
_STUB_DOCS = {
    ("bound", "--d", "1.0"):
        '{"d":1.0,"gamma":1.57079632679,"err_est":3.33333333333e-14,'
        '"tol":1e-07}\n',
    ("bound", "--d", "1.0", "--format", "csv"):
        "param,gamma,err_est\n1.0,1.57079632679,3.33333333333e-14\n",
    ("bound", "--d-inf"):
        '{"d":"inf","gamma":1.57079632679,"err_est":3.33333333333e-14,'
        '"tol":1e-07}\n',
    ("bound", "--d-inf", "--format", "csv"):
        "param,gamma,err_est\ninf,1.57079632679,3.33333333333e-14\n",
    ("sweep", "--d-min", "0.5", "--d-max", "8", "--points", "3", "--log"):
        "param,gamma,err_est\n0.5,1.07142857143,1.66666666667e-16\n"
        "2.0,1.28571428571,6.66666666667e-16\n"
        "8.0,2.14285714286,2.66666666667e-15\n",
    ("sweep", "--d-min", "0.5", "--d-max", "8", "--points", "3", "--log",
     "--format", "json"):
        '[\n{"param":0.5,"gamma":1.07142857143,"err_est":1.66666666667e-16},'
        '\n{"param":2.0,"gamma":1.28571428571,"err_est":6.66666666667e-16},'
        '\n{"param":8.0,"gamma":2.14285714286,"err_est":2.66666666667e-15}'
        '\n]\n',
    ("hydrogen", "--Z", "80"):
        '{"Z":80,"alpha":0.0072973525693,"gamma_c":0.811905986594,'
        '"gamma":1.73205080757,"d":0.0333333333333}\n',
    ("hydrogen", "--Z", "80", "--format", "csv"):
        "param,gamma,err_est\n80,1.73205080757,0.0\n",
    ("hydrogen", "--Z", "80", "--oracle"):
        '{"Z":80,"alpha":0.0072973525693,"gamma_c":0.811905986594,'
        '"gamma":1.73205080757,"d":0.0333333333333,'
        '"gamma_oracle":1.7320508119,"rel_diff":2.49999994502e-09}\n',
    ("hydrogen", "--Z", "80", "--oracle", "--format", "csv"):
        "param,gamma,err_est\n80,1.73205080757,2.49999994502e-09\n",
    ("hopfion", "--a", "1"):
        '{"a":1.0,"gamma":1.88888888889,"delta_r_sq":0.333333333333,'
        '"delta_p_sq":4.0,"err_est":1.42857142857e-17}\n',
    ("hopfion", "--a", "1", "--format", "csv"):
        "param,gamma,err_est\n1.0,1.88888888889,1.42857142857e-17\n",
    ("hopfion", "--a-min", "1", "--a-max", "3", "--points", "3"):
        "param,gamma,err_est\n1.0,1.88888888889,1.42857142857e-17\n"
        "2.0,1.77777777778,2.85714285714e-17\n"
        "3.0,1.66666666667,4.28571428571e-17\n",
    ("hopfion", "--a-min", "1", "--a-max", "3", "--points", "3",
     "--format", "json"):
        '[\n{"param":1.0,"gamma":1.88888888889,"err_est":1.42857142857e-17},'
        '\n{"param":2.0,"gamma":1.77777777778,"err_est":2.85714285714e-17},'
        '\n{"param":3.0,"gamma":1.66666666667,"err_est":4.28571428571e-17}'
        '\n]\n',
}


@pytest.mark.parametrize("argv", sorted(_STUB_DOCS), ids=" ".join)
def test_documents_byte_exact(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli._bound, "gamma_estimate",
                        lambda d, tol: (math.pi / 2.0, 1e-13 / 3.0))
    monkeypatch.setattr(cli._bound, "gamma_estimates", lambda ds, tol: [
        (1.0 + d / 7.0, d * 1e-15 / 3.0) for d in ds])
    monkeypatch.setattr(cli._hydrogen, "uncertainty_product_closed",
                        lambda state: math.sqrt(3.0))
    monkeypatch.setattr(cli._hydrogen, "d_parameter", lambda state: 0.1 / 3.0)
    monkeypatch.setattr(cli._hydrogen, "quadrature_oracle", lambda state:
                        SimpleNamespace(gamma=math.sqrt(3.0) * (1.0 + 2.5e-9)))
    monkeypatch.setattr(cli._hopfion, "gamma_h", lambda state: SimpleNamespace(
        gamma=2.0 - state.a / 9.0, delta_r_sq=state.a / 3.0,
        delta_p_sq=4.0 / state.a, err_est=state.a * 1e-16 / 7.0))
    expected = _STUB_DOCS[argv]
    assert _capture(capsys, list(argv)) == (0, expected)
    if "--format" not in argv:  # the default, named: JSON for one record
        fmt = "json" if expected.startswith("{") else "csv"
        assert _capture(capsys, [*argv, "--format", fmt]) == (0, expected)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "bound.json"
    code, _ = _capture(capsys, ["bound", "--d", "1.0",
                                "--output", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["d"] == 1.0


def test_unwritable_output(capsys):
    code = run(["bound", "--d", "1.0",
                "--output", "/nonexistent-dir/x.json"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["bound"],                                   # missing required flag
    ["bound", "--d", "1.0", "--d-inf"],          # mutually exclusive
    ["bound", "--d", "-1.0"],                    # negative scale
    ["nonsense"],                                # unknown subcommand
    ["sweep", "--d-min", "2", "--d-max", "1", "--points", "3"],
    ["sweep", "--d-min", "0", "--d-max", "1", "--points", "1"],
    ["sweep", "--d-min", "0", "--d-max", "1", "--points", "3", "--log"],
    ["sweep", "--d-min", "-1", "--d-max", "1", "--points", "2"],
    ["hydrogen", "--Z", "138"],                  # alpha Z >= 1
    ["hydrogen", "--Z", "137"],                  # exponent below 1/2
    ["hydrogen", "--Z", "0"],
    ["hopfion", "--a", "1.0", "--a-min", "0.5"],
    ["hopfion", "--a-min", "0.5", "--a-max", "2"],   # missing --points
    ["hopfion", "--a", "0.001"],                 # outside width range
])
def test_usage_errors_exit_2(capsys, argv):
    code = run(argv)
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["hydrogen", "--Z", "80", "--oracle"],
    ["verify"],
])
def test_oracle_arithmetic_error_exits_1(capsys, monkeypatch, argv):
    import relhur.hydrogen

    def broken(*args, **kwargs):
        raise ArithmeticError("normalization integral 0.999 is not 1")

    monkeypatch.setattr(relhur.hydrogen, "oracle_gamma", broken)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"relhur {argv[0]}: numerical failure: "
                            "normalization integral 0.999 is not 1\n")
    assert "Traceback" not in captured.err + captured.out


def test_quadrature_error_exits_1(capsys, monkeypatch):
    from relhur import QuadratureError, hopfion

    def broken(*args, **kwargs):
        raise QuadratureError("trapezoid sums unconverged")

    monkeypatch.setattr(hopfion, "gamma_h", broken)
    code = run(["hopfion", "--a", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("relhur hopfion: numerical failure in "
                            "quadrature: trapezoid sums unconverged\n")


def test_hydrogen_oracle_mismatch_exits_1(capsys, monkeypatch):
    # an oracle 1e-5 away from the closed form misses the 1e-6 it is held
    # to, so no document is printed
    import relhur.hydrogen

    oracle = relhur.hydrogen.oracle_gamma

    def off(*args, **kwargs):
        rep = oracle(*args, **kwargs)
        return rep._replace(gamma=rep.gamma * (1.0 + 1e-5))

    monkeypatch.setattr(relhur.hydrogen, "oracle_gamma", off)
    code = run(["hydrogen", "--Z", "80", "--oracle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("relhur hydrogen: numerical failure: ")
    assert captured.err.count("\n") == 1


def test_hydrogen_oracle_next_to_half_exits_0(capsys):
    # gamma_c = 0.50004, where the Coulomb state's r^(g-1) singularity is
    # strongest: the oracle meets the closed form to rounding
    code, out = _capture(capsys, ["hydrogen", "--Z", "1", "--alpha", "0.866",
                                  "--oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma_c"] == pytest.approx(0.500044, abs=1e-6)
    assert doc["rel_diff"] <= 1e-12


@pytest.mark.parametrize("argv", [
    ["hydrogen", "--Z", "118", "--oracle"],
    ["hydrogen", "--Z", "1", "--alpha", "0.85", "--oracle"],
])
def test_hydrogen_oracle_near_divergence_exits_0(capsys, argv):
    code, out = _capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["rel_diff"] <= 1e-6


def test_hydrogen_z_beyond_float_range_exits_2(capsys):
    code = run(["hydrogen", "--Z", str(10 ** 400)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "relhur hydrogen: Z exceeds the float range\n"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_console_script_end_to_end(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "relhur.cli", "bound", "--d", "0.5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["gamma"] == pytest.approx(1.568826553429, abs=1e-6)
    assert proc.stdout.endswith("\n")
    # argv=None: the parser reads sys.argv[1:]
    proc = subprocess.run([sys.executable, "-m", "relhur.cli", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert all(f"  {name} " in proc.stdout for name in _SUBCOMMANDS)
    proc = subprocess.run([sys.executable, "-m", "relhur.cli", "bound"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "relhur bound: missing --d or --d-inf\n"


def test_import_skips_scipy_integrate():
    # relhur runs on NumPy alone: no scipy module at all after import, and
    # no numpy.polynomial (its import costs every process about 1.7 ms)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, relhur.cli; print('scipy.integrate' in sys.modules); "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.'))); "
         "print('numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "False\n[]\nFalse\n"


def test_cli_imports_no_argparse():
    # argparse's import (with gettext and locale) and parser set-up cost
    # every CLI process about 3 ms; the flag table costs nothing
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, relhur.cli; relhur.cli.run(['hopfion', '--a', '1']); "
         "print(sorted(m for m in ('argparse', 'gettext', 'locale') "
         "if m in sys.modules))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "[]"


def test_library_source_draws_no_random_numbers():
    # results must not depend on hidden random state: no RNG in src/relhur
    import relhur

    src = pathlib.Path(relhur.__file__).parent
    hits = [f"{path.name}: {pattern}"
            for path in sorted(src.glob("*.py"))
            for pattern in ("import random", "np.random", "default_rng")
            if pattern in path.read_text()]
    assert hits == []


def test_library_imports_no_private_names_from_siblings():
    # a module's underscore names are its own; siblings use its public API
    import ast

    import relhur

    src = pathlib.Path(relhur.__file__).parent
    hits = [f"{path.name}: {alias.name}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("relhur"))
            for alias in node.names if alias.name.startswith("_")]
    assert hits == []


def test_each_public_name_recorded_once():
    # a public name is listed once, in its module's __all__; relhur.__all__
    # joins the library modules' lists, and siblings import only from them
    import ast
    import importlib

    import relhur

    modules = [importlib.import_module(f"relhur.{name}") for name in (
        "specfun", "quadrature", "radial_eigensolver", "rel_uncertainty",
        "dirac_states", "hydrogen", "hopfion")]
    names = [name for module in modules for name in module.__all__]
    assert relhur.__all__ == names + ["__version__"]
    assert len(set(relhur.__all__)) == len(relhur.__all__)
    assert all(getattr(relhur, name) is getattr(module, name)
               for module in modules for name in module.__all__)
    src = pathlib.Path(relhur.__file__).parent
    hits = [f"{path.name}: {node.module}.{alias.name}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            and node.module
            for alias in node.names if alias.name != "*"
            and alias.name not in importlib.import_module(
                f"relhur.{node.module}").__all__]
    assert hits == []


def test_library_imports_no_dataclasses():
    # the records are named tuples: @dataclass generates and execs six
    # methods per frozen class, 6-6.5 ms of every CLI process's import
    # for 15 records (2-vCPU VM, Python 3.11, no .pyc)
    import ast

    import relhur

    src = pathlib.Path(relhur.__file__).parent
    hits = [path.name
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Import)
                and "dataclasses" in (a.name for a in node.names))
            or (isinstance(node, ast.ImportFrom)
                and node.module == "dataclasses")]
    assert hits == []


_EDGE_FLOATS = [5e-324, -5e-324, 1e-310, 1.7e308, -1.7e308, math.inf,
                -math.inf, math.nan, 0.0, -0.0, -1.0, 1e5, 1.0000001e5]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# hopfion widths: the accepted range [0.05, 100] and anything else
_WIDTHS = st.one_of(st.floats(0.05, 100.0), _FLOATS)
# small counts run; the rest must be refused before any work is done
_INTS = st.one_of(st.integers(-3, 6),
                  st.sampled_from([10 ** 5, 2 ** 63, -2 ** 63, 10 ** 400]))
_FORMATS = st.sampled_from(["--format=csv", "--format=json"])


def _flag(name, value):
    return f"--{name}={value!r}"


_WELL_FORMED = st.one_of(
    st.tuples(st.just("bound"), _FLOATS.map(lambda d: _flag("d", d))),
    st.just(("bound", "--d-inf")),
    st.tuples(st.just("sweep"), _FLOATS.map(lambda d: _flag("d-min", d)),
              _FLOATS.map(lambda d: _flag("d-max", d)),
              _INTS.map(lambda n: _flag("points", n)),
              st.one_of(st.just("--log"), _FORMATS)),
    st.tuples(st.just("hydrogen"), _INTS.map(lambda z: _flag("Z", z)),
              _FLOATS.map(lambda a: _flag("alpha", a)),
              st.one_of(st.just("--oracle"), _FORMATS)),
    st.tuples(st.just("hopfion"), _WIDTHS.map(lambda a: _flag("a", a)),
              _FORMATS),
    st.tuples(st.just("hopfion"), _WIDTHS.map(lambda a: _flag("a-min", a)),
              _WIDTHS.map(lambda a: _flag("a-max", a)),
              _INTS.map(lambda n: _flag("points", n))),
    st.tuples(st.just("verify"),
              st.sampled_from(["--strict", "--format=csv"])),
)
# each of these spoils any well-formed argv: an unknown flag, a stray word,
# a bad choice, a switch given a value, a value flag without its value, a
# separator with nothing after it, or no (or an unknown) subcommand
_MALFORMED = st.one_of(
    st.tuples(_WELL_FORMED, st.sampled_from(
        ["--bogus", "stray", "--format=xml", "--d-inf=1", "--points", "--"]))
    .map(lambda t: (*t[0], t[1])),
    _WELL_FORMED.map(lambda argv: argv[1:]),
    _WELL_FORMED.map(lambda argv: ("nonsense", *argv[1:])),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(_WELL_FORMED.map(lambda argv: (argv, False)),
                      _MALFORMED.map(lambda argv: (argv, True))))
def test_cli_property_no_traceback(capsys, case):
    # every input gives a document or a one-line error, with exit 0, 1 or 2;
    # a malformed argv exits 2, and a usage error names the subcommand when
    # argv has a valid one
    argv, malformed = case
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err + captured.out
    assert (captured.out != "") == (code == 0)
    assert code == 2 or not malformed
    if code == 2:
        cmd = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        prog = "relhur" if cmd is None else f"relhur {cmd}"
        assert captured.err.startswith(prog + ": ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# --- the flag table against argparse ---------------------------------------
#
# _build_parser is the argparse parser the CLI used before its flag table,
# kept here, unchanged, as an independent route to the same namespaces.

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: json for single "
                             "records, csv for sweeps; verify is text)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write the document to PATH instead of stdout")

    p = argparse.ArgumentParser(
        prog="relhur",
        description="Relativistic position-momentum uncertainty bounds "
                    "for Dirac electrons.")
    sub = p.add_subparsers(dest="subcommand", required=True,
                           metavar="{bound,sweep,hydrogen,hopfion,verify}")

    b = sub.add_parser("bound", parents=[common],
                       help="uncertainty bound gamma(d) at a single scale")
    scale = b.add_mutually_exclusive_group(required=True)
    scale.add_argument("--d", type=float, help="relativistic scale d >= 0")
    scale.add_argument("--d-inf", action="store_true", dest="d_inf",
                       help="the ultrarelativistic limit d = infinity")

    s = sub.add_parser("sweep", parents=[common],
                       help="bound curve gamma(d) over a d grid")
    s.add_argument("--d-min", type=float, required=True, dest="d_min")
    s.add_argument("--d-max", type=float, required=True, dest="d_max")
    s.add_argument("--points", type=int, required=True)
    s.add_argument("--log", action="store_true",
                   help="geometric instead of linear spacing")

    h = sub.add_parser("hydrogen", parents=[common],
                       help="closed-form uncertainty product for charge Z")
    h.add_argument("--Z", type=int, required=True, help="nuclear charge")
    h.add_argument("--alpha", type=float, default=_hydrogen.ALPHA_FS,
                   help="fine-structure constant (default CODATA 2018)")
    h.add_argument("--oracle", action="store_true",
                   help="also run the quadrature oracle and report the "
                        "relative difference")

    o = sub.add_parser("hopfion", parents=[common],
                       help="uncertainty product of the localized packet")
    o.add_argument("--a", type=float, help="width parameter (single point)")
    o.add_argument("--a-min", type=float, dest="a_min")
    o.add_argument("--a-max", type=float, dest="a_max")
    o.add_argument("--points", type=int)

    v = sub.add_parser("verify", parents=[common],
                       help="run the built-in anchor suite")
    v.add_argument("--strict", action="store_true",
                   help="add the limit-residual and norm-ratio anchors")
    return p


_SUBCOMMANDS = ("bound", "sweep", "hydrogen", "hopfion", "verify")


def _outcome_argparse(argv):
    """("ok", reprs), ("help", subcommand or None) or ("exit", 2)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 0:
            return "exit", exc.code
        word = out.getvalue().split()[2]  # "usage: relhur bound [-h] ..."
        return "help", word if word in _SUBCOMMANDS else None
    return "ok", {k: repr(v) for k, v in vars(ns).items()}


def _outcome_table(argv):
    """The same outcome from the CLI's flag table."""
    args = SimpleNamespace(subcommand=None)
    try:
        text = cli._parse(argv, args)
    except cli._UsageError:
        return "exit", 2
    if text is not None:
        word = text.split()[2]  # "usage: relhur bound [--d X] ..."
        return "help", word if word in _SUBCOMMANDS else None
    return "ok", {k: repr(v) for k, v in vars(args).items()}


# Intended divergences from argparse, each with its reason:
#
# 1. The token after a value flag is its value, whatever it looks like.
#    argparse took a token that starts with '-' for a flag, unless it read
#    as a plain negative number like -2 or -1.5, and so refused
#    `--output -x`, `--d -1e5` and `--alpha -inf` as a missing value.  Now
#    `--output -x` writes a file named -x, and the float flags reach their
#    domain checks, which refuse such values with exit 2 as before.  The
#    corpus checks this against argparse reading `--flag=value`.
# 2. Tokens are read in order, so -h prints the help even when a later
#    token is an ambiguous prefix: argparse looked up every flag before it
#    acted on any, and `sweep -h --d 1` exited 2.  The corpus checks this
#    against argparse reading argv up to the first -h.
# 3. The only short flag is -h.  argparse split `-hh` and `-hx` into short
#    flags (-hh printed the help, -hx failed at once); both are unknown
#    flags here.  Not in the corpus.
# 4. Before the subcommand, argparse took a token that starts with '-' but
#    reads as a negative number, or holds a space, for the (invalid)
#    subcommand, so a later -h did not print the help.  Here it is an
#    unknown flag.  Not in the corpus.
# 5. Messages and help text are worded anew; each error is one line.
_DIVERGENT = [
    (["bound", "--d", "1", "--output", "-x"], ("exit", 2),
     ("ok", {"subcommand": "'bound'", "format": "None", "output": "'-x'",
             "d": "1.0", "d_inf": "False"})),
    (["sweep", "-h", "--d", "1"], ("exit", 2), ("help", "sweep")),
    (["-hh"], ("help", None), ("exit", 2)),
    (["-5", "-h"], ("exit", 2), ("help", None)),
]


@pytest.mark.parametrize("argv, by_argparse, by_table", _DIVERGENT)
def test_named_divergences_from_argparse(argv, by_argparse, by_table):
    assert _outcome_argparse(argv) == by_argparse
    assert _outcome_table(argv) == by_table


_KINDS = {"--d": "float", "--d-inf": "switch", "--d-min": "float",
          "--d-max": "float", "--points": "int", "--log": "switch",
          "--Z": "int", "--alpha": "float", "--oracle": "switch",
          "--a": "float", "--a-min": "float", "--a-max": "float",
          "--strict": "switch", "--format": "choice", "--output": "path"}
_FLAGS_OF = {"bound": ("--d", "--d-inf"),
             "sweep": ("--d-min", "--d-max", "--points", "--log"),
             "hydrogen": ("--Z", "--alpha", "--oracle"),
             "hopfion": ("--a", "--a-min", "--a-max", "--points"),
             "verify": ("--strict",)}
# values that argparse reads as values after a space
_VALUES = {"float": ["1.0", "0", "-1.5", "-2", "2e-3", "1e400", "nan",
                     "inf", "abc", "", " 3 ", "1_0", "-.5"],
           "int": ["3", "-2", "0", "2.5", "x", "10", "", "1" * 5000],
           "choice": ["csv", "json", "xml", ""],
           "path": ["out.txt", "", "a b", "-1"]}
# values that argparse reads as flags after a space (divergence 1)
_DASH_VALUES = ["-x", "-1e5", "-inf", "--bogus", "-h", "--d-inf"]
_HELP = ["-h", "--help", "--he", "--h"]


@st.composite
def _spelling(draw, flag):
    """flag in full or as a prefix of it (perhaps an ambiguous one)."""
    if draw(st.booleans()):
        return flag
    return flag[:draw(st.integers(3, len(flag)))]


@st.composite
def _piece(draw, cmd):
    """(tokens, tag): one flag with its value, a help flag, or a stray."""
    flag = draw(st.sampled_from(_FLAGS_OF[cmd] + ("--format", "--output")))
    kind, name = _KINDS[flag], draw(_spelling(flag))
    choice = draw(st.integers(0, 19))
    if choice == 0:
        return [draw(st.sampled_from(_HELP))], "help"
    if choice == 1:
        return [draw(st.sampled_from(["--bogus", "--bogus=1", "-q", "extra",
                                      "7", "-", "", "--", "--=x", "-=x",
                                      "--help=1", "-h=1"]))], None
    if kind == "switch":
        return [name + {2: "=", 3: "=1"}.get(choice, "")], None
    if choice == 2:
        return [name, draw(st.sampled_from(_DASH_VALUES))], "dash"
    if choice == 3:
        return [f"{name}={draw(st.sampled_from(_DASH_VALUES))}"], None
    value = draw(st.sampled_from(_VALUES[kind]))
    return ([f"{name}={value}"] if choice < 10 else [name, value]), None


# well-formed values for the required flags
_REQUIRED = {"bound": [["--d", "0.5"], ["--d-inf"]],
             "sweep": [["--d-min", "1", "--d-max", "2", "--points", "3"]],
             "hydrogen": [["--Z", "5"]]}


@st.composite
def _argv_case(draw):
    """Pieces of one argv: top-level flags, a subcommand, its flags."""
    pieces = draw(st.sampled_from(
        [[]] * 8 + [[(["-h"], "help")], [(["--he"], "help")],
                    [(["--bogus"], None)], [(["--help=1"], None)],
                    [(["--"], None)]]))
    cmd = draw(st.sampled_from(_SUBCOMMANDS * 4 + ("nonsense", None)))
    if cmd is not None:
        pieces.append(([cmd], None))
        if cmd in _REQUIRED and draw(st.integers(0, 3)):
            pieces.append((draw(st.sampled_from(_REQUIRED[cmd])), None))
        flags_of = cmd if cmd in _FLAGS_OF else "verify"
        pieces += draw(st.lists(_piece(flags_of), max_size=5))
        if draw(st.integers(0, 3)) == 0:  # a value flag without its value
            flag = draw(st.sampled_from(
                [f for f in _FLAGS_OF[flags_of] + ("--format", "--output")
                 if _KINDS[f] != "switch"]))
            pieces.append(([draw(_spelling(flag))], None))
    return pieces


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(pieces=_argv_case())
@example(pieces=[(["-"], None), (["-h"], "help")])
@example(pieces=[(["bound"], None), (["-=x"], None), (["-h"], "help")])
@example(pieces=[(["--"], None), (["bound"], None), (["--d-inf"], None)])
@example(pieces=[(["hydrogen"], None), (["--Z=2", "--Z=3"], None),
                 (["--alpha", "0.1"], None), (["--al=0.2"], None)])
def test_flag_table_matches_argparse(pieces):
    # the same namespace wherever argparse parses, help wherever argparse
    # prints help, exit 2 wherever argparse exits 2, up to divergences 1
    # and 2, which the oracle's argv accounts for
    argv = [tok for toks, _ in pieces for tok in toks]
    oracle_argv = []
    for toks, tag in pieces:
        oracle_argv += ["=".join(toks)] if tag == "dash" else toks
        if tag == "help":
            break
    assert _outcome_table(argv) == _outcome_argparse(oracle_argv), argv
