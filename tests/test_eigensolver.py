"""Radial ground-state solver: analytic anchors and invariants.

The closed-form anchors are in _ORACLE_ANCHORS, each also held against the
QR oracle _eigvals_oracle: the centrifugal oscillators c/q^2 + q^2 with
c = l(l + 1) and gamma = l + 3/2, attractive cores down to Hardy's -1/4,
and two shifted oscillators.  _EXACT holds make_potential's two ends,
gamma(0) = 3/2 and gamma(inf) = 1 + sqrt(5)/2, and the small-d series.
"""

import math
import re

import numpy as np
import pytest

from relhur import radial_eigensolver
from relhur import (
    RadialPotential,
    SolverError,
    gamma_estimates,
    lowest_eigenvalues,
    make_potential,
)
from relhur.cli import run

TOL = 1e-7


def _oscillator():
    return RadialPotential(evaluate=lambda q: q * q)


def _singular(c):
    return RadialPotential(evaluate=lambda q: c / (q * q) + q * q,
                           singular_strength=c)


def _gamma(pot, n=127, tol=TOL):
    [(gamma, _)] = lowest_eigenvalues([pot], n=n, tol=tol)
    return gamma


def test_grid_convergence():
    # d = 1e5, the largest d solved by collocation, needs the most nodes:
    # the error against a degree-191 solve falls as the degree grows
    pot = make_potential(1e5)
    ref = _gamma(pot, n=191, tol=1e-6)
    errs = [abs(_gamma(pot, n=n, tol=1.0) - ref) for n in (63, 95, 127)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-10


def test_rejects_unbounded_below():
    # below Hardy's -1/4, and a strength that is not a number at all
    for c in (-0.3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="singular_strength"):
            lowest_eigenvalues([_singular(c)], tol=TOL)


def test_rejects_tiny_grid():
    # under-resolved (below degree 63, whose coarse solve has degree 31),
    # even, which would put a node on the origin, or not an integer
    for n in (31, 61, 64, 128, 127.0, np.float64(127.0)):
        with pytest.raises(ValueError, match="^n must be"):
            lowest_eigenvalues([_oscillator()], n=n, tol=TOL)
    assert lowest_eigenvalues([_oscillator()], n=np.int64(127), tol=TOL) == (
        lowest_eigenvalues([_oscillator()], tol=TOL))


def test_rejects_bad_origin_scale_and_tol():
    with pytest.raises(ValueError, match="origin_scale"):
        lowest_eigenvalues([_oscillator()._replace(origin_scale=-1.0)],
                           tol=TOL)
    with pytest.raises(ValueError, match="tol"):
        lowest_eigenvalues([_oscillator()], tol=0.0)


def test_rejects_potential_of_wrong_shape():
    # potentials are evaluated on the node array and must return its shape;
    # in a batch each potential's values are checked before they are
    # stacked, so the error is the one the potential raises alone
    for evaluate, shape in ((lambda q: 1.0, "()"),
                            (lambda q: (q * q)[None, :], "(1, 47)"),
                            (lambda q: np.ones(3), "(3,)")):
        message = re.escape(f"potential returned shape {shape} on 47 nodes")
        for pots in ([RadialPotential(evaluate)],
                     [_oscillator(), RadialPotential(evaluate)]):
            with pytest.raises(ValueError, match=f"^{message}$"):
                lowest_eigenvalues(pots)


_FOUR = [_oscillator(), _singular(1.0), _singular(2.0), make_potential(45.0)]


@pytest.mark.parametrize("k", range(4),
                         ids=["regular", "singular", "centrifugal", "d=45"])
def test_lowest_eigenvalue_matches_ground_state(k):
    # each potential alone is its row in a batch of the four, to the last
    # bit, whatever its neighbours' singular strengths and maps
    [alone] = lowest_eigenvalues([_FOUR[k]], tol=TOL)
    row = lowest_eigenvalues(_FOUR, tol=TOL)[k]
    assert [x.hex() for x in alone] == [x.hex() for x in row]


def test_lowest_eigenvalue_raises_like_ground_state():
    with pytest.raises(ValueError):
        lowest_eigenvalues([_oscillator()], n=64)
    with pytest.raises(SolverError, match="differ by"):
        lowest_eigenvalues([make_potential(45.0)], n=63, tol=1e-14)


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
    [(gamma, est_error)] = lowest_eigenvalues([make_potential(d)], n=n,
                                              tol=TOL)
    assert abs(gamma - exact) <= est_error


def _singular_shift(monkeypatch, only_scale=None):
    """Make the block of each potential (or of those whose origin_scale is
    only_scale) diagonal with v on its diagonal, so that block - min(v) I,
    where the coarse iteration starts, is exactly singular."""
    collocate = radial_eigensolver._collocate

    def diagonal(pots, n):
        blocks, v = collocate(pots, n)
        for i, pot in enumerate(pots):
            if only_scale in (None, pot.origin_scale):
                blocks[i] = np.diag(v[i])
        return blocks, v

    monkeypatch.setattr(radial_eigensolver, "_collocate", diagonal)


def test_singular_shift_raises_solver_error(monkeypatch):
    # a singular shift is a SolverError, not a LinAlgError
    _singular_shift(monkeypatch)
    with pytest.raises(SolverError, match="eigensolve failed"):
        lowest_eigenvalues([_oscillator()], tol=TOL)


def test_singular_shift_in_a_batch_names_its_d(monkeypatch):
    # a stacked inverse fails for the whole stack; the failing d is named
    # all the same, alone or in a batch
    _singular_shift(monkeypatch, only_scale=1.0)
    for ds in ([1.0], [0.5, 1.0, 2.0]):
        with pytest.raises(SolverError,
                           match=r"^d = 1\.0: .*eigensolve failed"):
            gamma_estimates(ds)


def test_failed_stacked_inverse_falls_back_bit_for_bit(monkeypatch):
    # a stacked inverse that raises for the whole stack sends the batch to
    # one solve per potential, which returns the plain batch's values
    ds = [0.3, 1.0, 7.0]
    plain = lowest_eigenvalues([make_potential(d) for d in ds])
    inv, failed = np.linalg.inv, []

    def fail_once_on_a_stack(a):
        if len(a) > 1 and not failed:
            failed.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", fail_once_on_a_stack)
    fallback = lowest_eigenvalues([make_potential(d) for d in ds])
    assert failed == [len(ds)]
    assert ([[x.hex() for x in row] for row in fallback]
            == [[x.hex() for x in row] for row in plain])


def test_cheb_arrays_cached_and_read_only():
    arrays = radial_eigensolver._cheb(127)
    assert radial_eigensolver._cheb(127) is arrays
    # the 63 positive nodes and their rows, folded onto their 63 columns
    assert [a.shape for a in arrays] == [(63,), (63, 63), (63, 63)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0


def _eigvals_oracle(pot, n=127):
    """gamma from the lowest eigenvalue that QR (np.linalg.eigvals) finds
    on the coarse block, refined on the coarse and then on the fine block
    as the solver refines its own: a second route to the lowest eigenvalue
    that lives only in the tests."""
    coarse = radial_eigensolver._collocate([pot], n - 32)[0]
    fine = radial_eigensolver._collocate([pot], n)[0]
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
    [(gamma, est_error)] = lowest_eigenvalues([pot], tol=TOL)
    assert abs(gamma - _eigvals_oracle(pot)) <= est_error


def _s(c):
    """The exponent s of f = q^s g, where s(s + 1) = c."""
    return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * c))


_ORACLE_ANCHORS = [
    # c = l(l+1): the centrifugal oscillator, gamma = l + 3/2
    *[(f"c={l * (l + 1)}", _singular(l * (l + 1.0)), l + 1.5)
      for l in range(4)],
    # attractive cores down to Hardy's -1/4, gamma = s + 3/2
    ("c=-0.25", _singular(-0.25), 1.0),
    ("c=-0.2", _singular(-0.2), _s(-0.2) + 1.5),
    # float16 and float32 cores: the solver reads c as a Python float
    *[(f"c=0.2-{t.__name__}", _singular(t(0.2)), _s(float(t(0.2))) + 1.5)
      for t in (np.float16, np.float32)],
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
    [(gamma, est_error)] = lowest_eigenvalues([pot], tol=TOL)
    assert abs(gamma - _eigvals_oracle(pot)) <= est_error
    if exact is not None:
        assert abs(gamma - exact) <= est_error


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_narrow_origin_scale_sets_the_grid_of_its_float(dtype):
    # the solver reads origin_scale as a Python float, bit for bit
    narrow = RadialPotential(evaluate=lambda q: q * q, origin_scale=dtype(0.1))
    wide = narrow._replace(origin_scale=float(narrow.origin_scale))
    assert lowest_eigenvalues([narrow]) == lowest_eigenvalues([wide])


def _start_at_excited_state(monkeypatch, only_scale=None):
    """Start the coarse iteration just below the second eigenvalue of each
    potential (or of those whose origin_scale is only_scale), so that it
    settles on the first excited state."""
    collocate = radial_eigensolver._collocate

    def excited(pots, n):
        blocks, v = collocate(pots, n)
        for i, pot in enumerate(pots):
            if only_scale in (None, pot.origin_scale):
                second = np.sort(np.linalg.eigvals(blocks[i]).real)[1]
                v[i] += second - 1e-3 - np.min(v[i])
        return blocks, v

    monkeypatch.setattr(radial_eigensolver, "_collocate", excited)


def test_excited_state_raises_solver_error(monkeypatch):
    # the ground state is the only eigenfunction without a node
    _start_at_excited_state(monkeypatch)
    with pytest.raises(SolverError, match="changes sign"):
        lowest_eigenvalues([_oscillator()], tol=TOL)


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
    assert captured.err.startswith("relhur bound: numerical failure: "
                                   "d = 1.0: the eigenvector changes sign")
    assert captured.err.count("\n") == 1


def test_node_threshold_between_noise_and_lobe():
    # a valid solve's sign noise stays far below the threshold: 1.3e-6 of
    # the peak at degree 63 and d = 1e5, where it is largest; the first
    # excited state's negative lobe is of the order of its peak.  Each
    # vector is refined on the degree-63 block as lowest_eigenvalues
    # refines its own: at the settled degree-31 value, or at the second
    # eigenvalue
    solver, noise = radial_eigensolver, radial_eigensolver._NODE_NOISE
    pot = make_potential(1e5)
    coarse, v = solver._collocate([pot], 31)
    block = solver._collocate([pot], 63)[0]
    ones = np.ones(block.shape[:2])

    def lobe(shift):
        x = solver._refine(block, shift, ones, ones, 2)[1][0]
        x *= np.sign(x[np.argmax(np.abs(x))])
        return -np.min(x) / np.max(x)

    assert lobe(solver._settle(coarse, np.min(v, axis=1))) < 1e-2 * noise
    assert lobe(np.sort(np.linalg.eigvals(block[0]).real)[1:2]) > 1e2 * noise


def test_unsettled_quotient_names_its_d(monkeypatch):
    # no Rayleigh-quotient step allowed: the coarse solve cannot settle
    monkeypatch.setattr(radial_eigensolver, "_MAX_STEPS", 0)
    with pytest.raises(SolverError, match=r"^d = 2\.0: Rayleigh quotient "
                       "still moving after 0 steps"):
        gamma_estimates([2.0, 1.0])
