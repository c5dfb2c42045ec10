"""Radial ground-state solver: analytic anchors, moments, and invariants.

Closed-form anchors used here:

  V = q^2          -> gamma = 3/2,   f ~ e^{-q^2/2},         <q^2> = 3/2
  V = 1/q^2 + q^2  -> gamma = 1+sqrt(5)/2, f ~ q^s e^{-q^2/2} with
                      s = (sqrt(5)-1)/2 and <q^2> = s + 3/2
  V = 2/q^2 + q^2  -> gamma = 5/2 (centrifugal l = 1, gamma = l + 3/2)
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import BarycentricInterpolator

from relhur import radial_eigensolver
from relhur import (
    EigenResult,
    RadialPotential,
    SolverError,
    gamma_estimates,
    ground_state,
    lowest_eigenvalue,
    make_potential,
    moment,
)
from relhur.cli import run

S_ULTRA = 0.5 * (math.sqrt(5.0) - 1.0)
TOL = 1e-7


def _oscillator():
    return RadialPotential(evaluate=lambda q: q * q)


def _singular(c):
    return RadialPotential(evaluate=lambda q: c / (q * q) + q * q,
                           singular_strength=c)


def test_oscillator_anchor():
    res = ground_state(_oscillator(), tol=TOL)
    assert res.gamma == pytest.approx(1.5, abs=TOL)


def test_singular_anchor():
    res = ground_state(_singular(1.0), tol=TOL)
    assert res.gamma == pytest.approx(1.0 + 0.5 * math.sqrt(5.0), abs=TOL)


def test_centrifugal_anchor():
    res = ground_state(_singular(2.0), tol=TOL)
    assert res.gamma == pytest.approx(2.5, abs=TOL)


def test_normalization_and_unit_moment():
    res = ground_state(_oscillator(), tol=TOL)
    assert moment(res, np.ones_like) == pytest.approx(1.0, abs=1e-8)


def test_moment_rejects_scalar_weight():
    # weights are evaluated on the grid array and must return its shape
    res = ground_state(_oscillator(), tol=TOL)
    with pytest.raises(ValueError, match="shape"):
        moment(res, lambda q: 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        moment(res, lambda q: np.full_like(q, math.nan))


def test_oscillator_second_moment():
    res = ground_state(_oscillator(), tol=TOL)
    assert moment(res, lambda q: q * q) == pytest.approx(1.5, rel=1e-6)


def test_singular_second_moment():
    # <q^2> of q^s e^{-q^2/2} with weight q^2 dq is (s + 3/2)
    res = ground_state(_singular(1.0), tol=TOL)
    expected = S_ULTRA + 1.5  # = (sqrt(5) + 2) / 2
    assert moment(res, lambda q: q * q) == pytest.approx(expected, rel=1e-6)


def test_moment_accepts_inverse_square_weight():
    res = ground_state(_singular(1.0), tol=TOL)
    # <q^-2> of q^s e^{-q^2/2}: Gamma(s + 1/2) / Gamma(s + 3/2) = 1/(s + 1/2)
    expected = 1.0 / (S_ULTRA + 0.5)
    assert moment(res, lambda q: 1.0 / (q * q)) == pytest.approx(
        expected, rel=1e-5)


def test_moment_rejects_stronger_singularity():
    res = ground_state(_oscillator(), tol=TOL)
    with pytest.raises(ValueError):
        moment(res, lambda q: q ** -2.5)


def test_rayleigh_quotient_consistency():
    res = ground_state(_oscillator(), tol=TOL)
    q_max = res.diagnostics.q_max
    # u = q f is odd and vanishes at +-q_max; on the mirrored nodes its
    # polynomial interpolant is spectrally accurate, so sample it on a
    # uniform grid and take the same trapezoid + gradient proxy there
    nodes = np.concatenate([[-q_max], -res.grid[::-1], res.grid, [q_max]])
    u_nodes = res.grid * res.f_values
    u_fn = BarycentricInterpolator(
        nodes, np.concatenate([[0.0], -u_nodes[::-1], u_nodes, [0.0]]))
    q = np.linspace(0.0, q_max, 8001)
    h = float(q[1] - q[0])
    u = u_fn(q)
    du = np.gradient(u, h)
    # (1/2)[ int (u')^2 + int V u^2 ] with int u^2 = 1
    kinetic = np.trapezoid(du * du, q)
    potential = np.trapezoid((q * q) * u * u, q)
    norm = np.trapezoid(u * u, q)
    rayleigh = 0.5 * (kinetic + potential) / norm
    # 2e-6 allowance: this trapezoid + gradient() proxy is itself O(h^2)
    assert abs(rayleigh - res.gamma) <= 10.0 * TOL + 2e-6


def test_variational_upper_bound():
    # any trial function's Rayleigh quotient sits above the ground gamma
    res = ground_state(_oscillator(), tol=TOL)
    q = np.linspace(1e-4, 10.0, 20001)
    h = q[1] - q[0]
    u = q * np.exp(-0.6 * q * q)  # deliberately detuned width
    du = np.gradient(u, h)
    rayleigh = 0.5 * (np.trapezoid(du * du, q)
                      + np.trapezoid(q * q * u * u, q)) / np.trapezoid(u * u, q)
    assert rayleigh >= res.gamma - TOL


def test_grid_convergence():
    # d = 1e5, the largest d solved by collocation, needs the most nodes:
    # the error against a degree-191 solve falls as the degree grows
    pot = make_potential(1e5)
    ref = ground_state(pot, n=191, tol=1e-6).gamma
    errs = [abs(ground_state(pot, n=n, tol=1.0).gamma - ref)
            for n in (63, 95, 127)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-10


def test_ground_state_nodeless():
    for pot in (_oscillator(), _singular(1.0)):
        res = ground_state(pot, tol=TOL)
        signs = np.sign(res.f_values[np.abs(res.f_values) > 1e-12])
        assert np.all(signs == signs[0])


def test_eigenfunction_matches_gaussian():
    res = ground_state(_oscillator(), tol=TOL)
    # normalized ground state: f = 2 pi^{-1/4} e^{-q^2/2} wrt q^2 dq measure
    ref = 2.0 * math.pi ** -0.25 * np.exp(-0.5 * res.grid ** 2)
    mask = res.grid < 6.0
    assert np.max(np.abs(res.f_values[mask] - ref[mask])) < 1e-5


def test_rejects_unbounded_below():
    with pytest.raises(ValueError):
        ground_state(_singular(-0.3), tol=TOL)


def test_rejects_tiny_grid():
    # under-resolved (below degree 63, whose coarse solve has degree 31)
    # or even, which would put a node on the origin
    for n in (31, 61, 64, 128):
        with pytest.raises(ValueError):
            ground_state(_oscillator(), n=n, tol=TOL)


def test_rejects_bad_origin_scale_and_tol():
    with pytest.raises(ValueError, match="origin_scale"):
        ground_state(_oscillator()._replace(origin_scale=-1.0), tol=TOL)
    with pytest.raises(ValueError, match="tol"):
        ground_state(_oscillator(), tol=0.0)


def test_diagnostics_fields():
    res = ground_state(_oscillator(), tol=TOL)
    assert isinstance(res, EigenResult)
    diag = res.diagnostics
    assert diag.grid_size == res.grid.size == res.f_values.size == 63
    assert diag.q_max == pytest.approx(10.0)
    assert diag.resolutions == (95, 127)
    assert diag.gammas[1] == res.gamma
    assert abs(diag.gammas[1] - diag.gammas[0]) <= diag.est_error <= TOL
    # est_error splits into the gap and the measured rounding
    gap = abs(diag.gammas[1] - diag.gammas[0])
    assert diag.est_error == gap + diag.rounding
    assert 0.0 < diag.rounding < 1e-12
    assert np.all(np.diff(res.grid) > 0.0) and res.grid[-1] < 10.0


def _quad_cases():
    return [("regular", _oscillator()), ("singular", _singular(1.0))] + [
        (f"d={d:g}", make_potential(d)) for d in (1e-4, 1.0, 45.0, 100.0, 1e5)]


@pytest.mark.parametrize("label,pot", _quad_cases(),
                         ids=[c[0] for c in _quad_cases()])
def test_quadrature_weights_match_scipy(label, pot):
    # the normalization and moment rule on the solver's own mapped nodes
    # must agree with scipy's adaptive quad on integrands that are smooth,
    # even in q and vary on the unit scale, as f^2 q^2 weight(q) does for
    # weights in q^2
    res = ground_state(pot, tol=TOL)
    q = res.grid
    for fn in (lambda x: np.exp(-x * x) * x ** 2,
               lambda x: np.cos(x) * np.exp(-0.5 * x * x) * x ** 4):
        ref = quad(fn, 0.0, 10.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert float(np.sum(res.weights * fn(q))) == pytest.approx(
            ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("pot", [_oscillator(), _singular(1.0), _singular(2.0),
                                 make_potential(45.0)],
                         ids=["regular", "singular", "centrifugal", "d=45"])
def test_lowest_eigenvalue_matches_ground_state(pot):
    res = ground_state(pot, tol=TOL)
    gamma, est_error = lowest_eigenvalue(pot, tol=TOL)
    assert gamma.hex() == res.gamma.hex()
    assert est_error.hex() == res.diagnostics.est_error.hex()


def test_lowest_eigenvalue_raises_like_ground_state():
    with pytest.raises(ValueError):
        lowest_eigenvalue(_oscillator(), n=64)
    with pytest.raises(SolverError, match="differ by"):
        lowest_eigenvalue(make_potential(45.0), n=63, tol=1e-14)


def _small_d_series(d):
    # first-order perturbation of the oscillator by the d^2, d^4 and d^6
    # terms of V; the first neglected term is O(d^8)
    return (1.5 + 3.0 / 8.0 * d ** 2 - 21.0 / 32.0 * d ** 4
            + 255.0 / 128.0 * d ** 6)


_EXACT = [(0.0, 1.5), (math.inf, 1.0 + 0.5 * math.sqrt(5.0))] + [
    (d, _small_d_series(d)) for d in (1e-4, 1e-3, 3e-3, 1e-2)]


@pytest.mark.parametrize("n", [95, 127, 159])
@pytest.mark.parametrize("d,exact", _EXACT,
                         ids=[f"d={d:g}" for d, _ in _EXACT])
def test_error_bar_covers_exact_values(d, exact, n):
    # the error bar covers the error against exact values down to the
    # rounding; LAPACK's unrefined eigenvalue is 1.7e-13 off 3/2 at d = 0
    gamma, est_error = lowest_eigenvalue(make_potential(d), n=n, tol=TOL)
    assert abs(gamma - exact) <= est_error


def _singular_shift(monkeypatch, only_scale=None):
    """Make the block of each potential (or of those whose origin_scale is
    only_scale) diagonal with v on its diagonal, so that block - min(v) I,
    where the coarse iteration starts, is exactly singular."""
    collocate = radial_eigensolver._collocate

    def diagonal(pots, q_max, n):
        blocks, q, dq, v = collocate(pots, q_max, n)
        for i, pot in enumerate(pots):
            if only_scale in (None, pot.origin_scale):
                blocks[i] = np.diag(v[i])
        return blocks, q, dq, v

    monkeypatch.setattr(radial_eigensolver, "_collocate", diagonal)


def test_singular_shift_raises_solver_error(monkeypatch):
    # a singular shift is a SolverError, not a LinAlgError
    _singular_shift(monkeypatch)
    for solve in (ground_state, lowest_eigenvalue):
        with pytest.raises(SolverError, match="eigensolve failed"):
            solve(_oscillator(), tol=TOL)


def test_singular_shift_in_a_batch_names_its_d(monkeypatch):
    # a stacked inverse fails for the whole stack; the failing d is named
    # all the same, alone or in a batch
    _singular_shift(monkeypatch, only_scale=1.0)
    for ds in ([1.0], [0.5, 1.0, 2.0]):
        with pytest.raises(SolverError,
                           match=r"^d = 1\.0: .*eigensolve failed"):
            gamma_estimates(ds)


def test_cheb_arrays_cached_and_read_only():
    arrays = radial_eigensolver._cheb(127)
    assert radial_eigensolver._cheb(127) is arrays
    weights = radial_eigensolver._cc_weights(127)
    assert radial_eigensolver._cc_weights(127) is weights
    # the 63 positive nodes' rows, folded onto their 63 columns, and the
    # nodes' Clenshaw-Curtis weights
    assert [a.shape for a in (*arrays, weights)] == [
        (63,), (63, 63), (63, 63), (63,)]
    for a in (*arrays, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0


def _eigvals_oracle(pot, n=127, q_max=10.0):
    """gamma from the lowest eigenvalue that QR (np.linalg.eigvals) finds
    on the coarse block, refined on the coarse and then on the fine block
    as the solver refines its own: a second route to the lowest eigenvalue
    that lives only in the tests."""
    coarse = radial_eigensolver._collocate([pot], q_max, n - 32)[0]
    fine = radial_eigensolver._collocate([pot], q_max, n)[0]
    lam = np.min(np.linalg.eigvals(coarse[0]).real, keepdims=True)
    for block in (coarse, fine):
        ones = np.ones(block.shape[:2])
        lam = radial_eigensolver._refine(block, lam, ones, ones, 2)[0]
    return 0.5 * float(lam[0])


_ORACLE_D = [0.0, math.inf] + [float(d) for d in np.geomspace(1e-4, 1e5, 60)]


@pytest.mark.parametrize("d", _ORACLE_D, ids=[f"d={d:.3g}" for d in _ORACLE_D])
def test_lowest_eigenvalue_matches_eigvals_oracle(d):
    # the iteration from min v settles on the eigenvalue QR finds lowest
    pot = make_potential(d)
    gamma, est_error = lowest_eigenvalue(pot, tol=TOL)
    assert abs(gamma - _eigvals_oracle(pot)) <= est_error


_S_WEAK = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * -0.2))
_ORACLE_ANCHORS = [
    # c = l(l+1): the centrifugal oscillator, gamma = l + 3/2
    *[(f"c={l * (l + 1)}", _singular(l * (l + 1.0)), l + 1.5)
      for l in range(4)],
    # attractive cores down to Hardy's -1/4, gamma = s + 3/2
    ("c=-0.25", _singular(-0.25), 1.0),
    ("c=-0.2", _singular(-0.2), _S_WEAK + 1.5),
    # a negative and a zero ground state, and a double well whose minimum
    # is off q = 0
    ("shifted", RadialPotential(evaluate=lambda q: q * q - 5.0), -1.0),
    ("zero", RadialPotential(evaluate=lambda q: q * q - 3.0), 0.0),
    ("double-well",
     RadialPotential(evaluate=lambda q: (q * q - 4.0) ** 2 / 4.0), None),
]


@pytest.mark.parametrize("pot,exact", [a[1:] for a in _ORACLE_ANCHORS],
                         ids=[a[0] for a in _ORACLE_ANCHORS])
def test_anchors_match_eigvals_oracle(pot, exact):
    gamma, est_error = lowest_eigenvalue(pot, tol=TOL)
    assert abs(gamma - _eigvals_oracle(pot)) <= est_error
    if exact is not None:
        assert abs(gamma - exact) <= est_error


def _start_at_excited_state(monkeypatch, only_scale=None):
    """Start the coarse iteration just below the second eigenvalue of each
    potential (or of those whose origin_scale is only_scale), so that it
    settles on the first excited state."""
    collocate = radial_eigensolver._collocate

    def excited(pots, q_max, n):
        blocks, q, dq, v = collocate(pots, q_max, n)
        for i, pot in enumerate(pots):
            if only_scale in (None, pot.origin_scale):
                second = np.sort(np.linalg.eigvals(blocks[i]).real)[1]
                v[i] += second - 1e-3 - np.min(v[i])
        return blocks, q, dq, v

    monkeypatch.setattr(radial_eigensolver, "_collocate", excited)


def test_excited_state_raises_solver_error(monkeypatch):
    # the ground state is the only eigenfunction without a node
    _start_at_excited_state(monkeypatch)
    for solve in (ground_state, lowest_eigenvalue):
        with pytest.raises(SolverError, match="changes sign"):
            solve(_oscillator(), tol=TOL)


def test_excited_state_in_a_batch_names_its_d(monkeypatch):
    _start_at_excited_state(monkeypatch, only_scale=1.0)
    with pytest.raises(SolverError, match=r"^d = 1\.0: the eigenvector "
                       "changes sign"):
        gamma_estimates([0.5, 1.0, 2.0])


def test_excited_state_exits_1_in_cli(monkeypatch, capsys):
    _start_at_excited_state(monkeypatch)
    code = run(["bound", "--d", "1.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("relhur bound: numerical failure in "
                                   "radial_eigensolver")
    assert "d = 1.0: the eigenvector changes sign" in captured.err
    assert captured.err.count("\n") == 1


def test_node_threshold_between_noise_and_lobe():
    # a valid solve's sign noise stays far below the threshold: 1.3e-6 of
    # the peak at degree 63 and d = 1e5, where it is largest; the first
    # excited state's negative lobe is of the order of its peak
    noise = radial_eigensolver._NODE_NOISE
    pot = make_potential(1e5)
    g = next(radial_eigensolver._solve([pot], 63, 1.0))[2]
    assert -np.min(g) / np.max(g) < 1e-2 * noise
    block = radial_eigensolver._collocate([pot], 10.0, 63)[0]
    second = np.sort(np.linalg.eigvals(block[0]).real)[1:2]
    ones = np.ones(block.shape[:2])
    x = radial_eigensolver._refine(block, second, ones, ones, 2)[1][0]
    x *= np.sign(x[np.argmax(np.abs(x))])
    assert -np.min(x) / np.max(x) > 1e2 * noise
