"""The uncertainty bound gamma(d): anchors, monotonicity, regression values.

The d = 1 regression is pinned two ways: a frozen number from a dense
tridiagonal eigensolve (20000 interior points, q_max = 12) and a live rerun
of that oracle, so the test catches drift in either the solver or the
frozen constant.  The live oracle is a NumPy Sturm-sequence multisection
that lives only here, independent of the production Chebyshev collocation.
"""

import math
import sys

import numpy as np
import pytest

from relhur import hopfion, radial_eigensolver, rel_uncertainty
from relhur import (
    D_SMALL,
    D_SWITCH,
    GAMMA_AT_0,
    GAMMA_AT_INF,
    INFINITY,
    CoulombState,
    HopfionState,
    SolverError,
    gamma_bound,
    gamma_estimates,
    gamma_h,
    gaussian_limit_residual,
    ground_state,
    lowest_eigenvalues,
    make_potential,
    max_z_finite,
    potential_v,
    quadrature_oracle,
    ultrarelativistic_limit_residual,
)

# dense-oracle freeze, d = 1
DENSE_GAMMA_D1 = 1.672106352635

# solver regression freeze on the reference grid (tol 1e-7 run)
REFERENCE_CURVE = {
    0.5: 1.568826553429,
    1.0: 1.672106402775,
    2.0: 1.815712716133,
    4.0: 1.944678236930,
    8.0: 2.028120988572,
}


def test_potential_point_values():
    # by hand: 2 - 1/sqrt(2) + 1/16
    assert potential_v(1.0, 1.0) == pytest.approx(
        2.0 - 1.0 / math.sqrt(2.0) + 1.0 / 16.0, rel=1e-14)
    assert potential_v(2.0, 0.0) == 4.0
    assert potential_v(1.0, INFINITY) == 2.0


def test_potential_small_q_limit():
    # V(0+) = 3 d^2 / 4 for finite d
    d = 2.0
    assert potential_v(1e-5, d) == pytest.approx(0.75 * d * d, abs=1e-6)


def test_potential_domain_error():
    with pytest.raises(ValueError):
        potential_v(0.0, 1.0)
    with pytest.raises(ValueError):
        potential_v(-1.0, 1.0)
    with pytest.raises(ValueError):
        potential_v(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        potential_v(np.array([1.0, math.inf]), 1.0)
    with pytest.raises(ValueError):
        potential_v(math.nan, 1.0)


@pytest.mark.parametrize("d", [5e-324, 1e-310, 1e-3, 1.0, 45.0, 1e200, 1.7e308])
def test_potential_array_overflow_free(d):
    q = np.geomspace(1e-4, 10.0, 500)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        v = potential_v(q, d)
        scalars = [potential_v(float(x), d) for x in q]
    assert isinstance(scalars[0], float)
    assert v.shape == q.shape
    assert v.tolist() == scalars
    assert np.all(np.isfinite(v))


def test_singular_strength():
    assert make_potential(0.0).singular_strength == 0.0
    assert make_potential(3.7).singular_strength == 0.0
    assert make_potential(INFINITY).singular_strength == 1.0


def test_make_potential_declares_strength():
    assert make_potential(2.0).singular_strength == 0.0
    assert make_potential(INFINITY).singular_strength == 1.0


def test_nonrelativistic_anchor():
    assert gamma_bound(0.0) == pytest.approx(GAMMA_AT_0, abs=1e-7)


def test_ultrarelativistic_anchor():
    assert gamma_bound(INFINITY) == pytest.approx(GAMMA_AT_INF, abs=1e-6)


def test_dense_matrix_regression_frozen():
    assert gamma_bound(1.0) == pytest.approx(DENSE_GAMMA_D1, abs=1e-6)


def _sturm_counts(diag, off2, xs):
    """Eigenvalues below each shift in xs: one LDL^T pivot sweep for all.

    off2 holds the squared off-diagonal; pivots smaller than pivmin are
    replaced by -pivmin, as in LAPACK's dstebz.
    """
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(off2.max()))
    t = diag[0] - xs
    np.copyto(t, -pivmin, where=np.abs(t) < pivmin)
    cnt = (t < 0.0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        t = diag[i] - xs - off2[i - 1] / t
        np.copyto(t, -pivmin, where=np.abs(t) < pivmin)
        cnt += t < 0.0
    return cnt


def _sturm_lowest(diag, off2, lo, hi, tol, batch=63):
    """Smallest eigenvalue in [lo, hi], multisected to width tol.

    Each round probes batch interior shifts in one sweep, so the bracket
    shrinks by batch + 1 per sweep.
    """
    while hi - lo > tol:
        xs = np.linspace(lo, hi, batch + 2)[1:-1]
        if xs[0] <= lo or xs[-1] >= hi:
            break  # bracket at float resolution
        hits = np.nonzero(_sturm_counts(diag, off2, xs) >= 1)[0]
        if hits.size == 0:
            lo = float(xs[-1])
        else:
            j = int(hits[0])
            hi = float(xs[j])
            if j > 0:
                lo = float(xs[j - 1])
    return 0.5 * (lo + hi)


def test_dense_matrix_regression_live():
    # independent route: assemble -u'' + V u = 2 gamma u and multisect
    n, q_max = 20000, 12.0
    h = q_max / (n + 1)
    q = np.arange(1, n + 1) * h
    diag = 2.0 / h ** 2 + np.array([potential_v(float(x), 1.0) for x in q])
    off2 = np.full(n - 1, 1.0 / h ** 4)
    # Gershgorin: every eigenvalue lies within 2/h^2 of the diagonal range
    lo = float(diag.min()) - 2.0 / h ** 2
    hi = float(diag.max()) + 2.0 / h ** 2
    assert _sturm_counts(diag, off2, np.array([lo, hi])).tolist() == [0, n]
    lam = _sturm_lowest(diag, off2, lo, hi, tol=1e-10)
    assert lam / 2.0 == pytest.approx(DENSE_GAMMA_D1, abs=1e-8)
    assert gamma_bound(1.0) == pytest.approx(lam / 2.0, abs=1e-6)


def test_reference_curve_regression():
    for d, frozen in REFERENCE_CURVE.items():
        assert gamma_bound(d) == pytest.approx(frozen, abs=1e-6), f"d={d}"


def test_strictness_and_approach():
    grid = [1e-2, 1e-1, 1.0, 10.0, 100.0]
    gammas = [gamma_bound(d) for d in grid]
    assert all(g > 1.5 for g in gammas)
    assert gammas[0] - 1.5 < 1e-2
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


@pytest.mark.parametrize("d", [0.01, 0.025, 0.05])
def test_small_d_expansion(d):
    # first-order perturbation of the Gaussian ground state:
    # gamma(d) = 3/2 + 3 d^2 / 8 + O(d^4), against the solver, as
    # gamma_estimates takes d < D_SMALL from the series itself
    [(g, _)] = lowest_eigenvalues([make_potential(d)], tol=1e-8)
    assert abs((g - 1.5) / d ** 2 - 3.0 / 8.0) <= d * d


# gamma(d) = 3/2 + (3/8)d^2 - (21/32)d^4 + (255/128)d^6 - (17409/2048)d^8
# + O(d^10), derived beside rel_uncertainty.SMALL_D_SERIES and pinned here
SMALL_D_SERIES = (1.5, 3.0 / 8.0, -21.0 / 32.0, 255.0 / 128.0,
                  -17409.0 / 2048.0)


def _through_d6(d):
    return sum(c * d ** (2 * k) for k, c in enumerate(SMALL_D_SERIES[:4]))


def test_small_d_series_through_d8():
    # the library's coefficients against the solver, not against the
    # branch of gamma_estimates that sums them
    assert rel_uncertainty.SMALL_D_SERIES == SMALL_D_SERIES
    ds = (0.01, 0.02, 0.05, 0.1)
    (g1, e1), *rest = lowest_eigenvalues([make_potential(d) for d in ds],
                                         tol=1e-8)
    c8 = SMALL_D_SERIES[4]
    # the d^4 and d^6 terms at d = 0.01; the d^8 term (8.5e-16) lies below
    # est_error (6.5e-15) there, so it is not checked at this d
    assert abs(g1 - _through_d6(0.01)) <= e1 + abs(c8) * 0.01 ** 8
    # the remainder after d^6, over d^8, is c8 + E10 d^2 + E12 d^4 + ...,
    # with E10 about 46 and E12 about -270 (measured, not derived)
    r8 = [(g - _through_d6(d)) / d ** 8 for d, (g, _) in zip(ds[1:], rest)]
    for d, (_, err), r in zip(ds[1:], rest, r8):
        assert abs(r - c8) <= err / d ** 8 + 60.0 * d * d, f"d={d}"
    # Richardson on d = 0.05 and 0.1 cancels E10 and leaves 2.5e-5 E12,
    # about 7e-3; the first-order part -17115/2048 alone is 0.14 off
    errs = 4.0 * rest[1][1] / 0.05 ** 8 + rest[2][1] / 0.1 ** 8
    assert abs((4.0 * r8[1] - r8[2]) / 3.0 - c8) <= errs / 3.0 + 0.02


def test_limits_take_no_solve(monkeypatch):
    # d = 0 and d = INFINITY end the two expansion branches, where the
    # remainder scales by exactly 0: the limits come exact, with the
    # rounding floor 4 eps gamma as est_error, and nothing is collocated
    def no_solve(*_args):
        raise AssertionError("_collocate called")

    monkeypatch.setattr(radial_eigensolver, "_collocate", no_solve)
    floor = 4.0 * sys.float_info.epsilon
    limits = [(1.5, floor * 1.5), (GAMMA_AT_INF, floor * GAMMA_AT_INF)]
    assert gamma_estimates([0.0, INFINITY]) == limits
    assert gamma_estimates([0.0]) + gamma_estimates([INFINITY]) == limits


_SMALL_GRID = [float(d) for d in np.geomspace(1e-4, 0.019, 12)]


def test_small_d_points_share_one_solve(monkeypatch):
    # below D_SMALL gamma is the series, with its remainder measured at
    # D_SMALL: the points share one coarse and one fine collocation there
    calls = []
    collocate = radial_eigensolver._collocate

    def counted(pots, q_max, n):
        calls.extend(pot.origin_scale for pot in pots)
        return collocate(pots, q_max, n)

    monkeypatch.setattr(radial_eigensolver, "_collocate", counted)
    gamma_estimates(_SMALL_GRID)
    assert calls == [D_SMALL] * 2


def test_small_d_series_against_the_solver():
    # the series covers the solver at each d within its err_est plus the
    # solver's own est_error, and both print the same 12 digits
    rows = gamma_estimates(_SMALL_GRID)
    solved = lowest_eigenvalues([make_potential(d) for d in _SMALL_GRID])
    for d, (gamma, err), (ref, ref_err) in zip(_SMALL_GRID, rows, solved):
        assert abs(gamma - ref) <= err + ref_err, f"d={d}"
        assert f"{gamma:.12g}" == f"{ref:.12g}", f"d={d}"


def test_families_above_the_curve():
    # every hydrogen-like ion with a finite product and the packet on its
    # whole a range sit above the curve at their own d = (dp^2/dr^2)^(1/4),
    # in Compton units (the oracle works in decay lengths 1/(alpha Z)), by
    # more than every error that could close the margin.  err_est carries
    # (rel_p + rel_r)/2 into gamma, so d is off by at most
    # d err_est/(2 gamma); the slope term is below 1e-10 throughout, so a
    # secant of the curve serves as gamma'(d).
    states = [(f"Z={ion.Z}", quadrature_oracle(ion), ion.alpha * ion.Z)
              for ion in map(CoulombState, range(1, max_z_finite() + 1))]
    states += [(f"a={a:g}", gamma_h(HopfionState(a)), 1.0)
               for a in np.geomspace(hopfion.A_MIN, hopfion.A_MAX, 25)]
    ds = [scale * (rep.delta_p_sq / rep.delta_r_sq) ** 0.25
          for _, rep, scale in states]
    bound = gamma_estimates([x for d in ds for x in (d, 0.99 * d, 1.01 * d)])
    for k, ((name, rep, _), d) in enumerate(zip(states, ds)):
        (gamma, err), (lo, _), (hi, _) = bound[3 * k:3 * k + 3]
        d_err = d * rep.err_est / (2.0 * rep.gamma)
        slope = abs(hi - lo) / (0.02 * d)
        assert rep.gamma - gamma > rep.err_est + err + slope * d_err, name


def _c1():
    # C1 = Gamma(s) / (2 Gamma(s + 3/2)), s = (sqrt(5) - 1) / 2
    s = 0.5 * (math.sqrt(5.0) - 1.0)
    return math.gamma(s) / (2.0 * math.gamma(s + 1.5))


@pytest.mark.parametrize("d", [1e3, 1e4, 1e5])
def test_large_d_expansion(d):
    # gamma(d) = GAMMA_AT_INF - C1 / d + O(d^-2)
    c1 = _c1()
    g = gamma_bound(d, tol=1e-8)
    assert abs(d * (GAMMA_AT_INF - g) / c1 - 1.0) <= 3.0 / d


# 1 + sqrt(5)/2 and C1 to 30 digits (mpmath 1.3.0 at 40 digits)
GAMMA_AT_INF_30 = "2.11803398874989484820458683437"
ULTRA_C1_30 = "0.686325215248239321493427112471"


@pytest.mark.parametrize("d", [1e9, 1e12, 1e300])
def test_large_d_err_est_covers_rounding(d):
    # far above D_SWITCH the expansion's remainder falls below the rounding
    # of gamma itself; err_est must still cover |gamma - (GAMMA_AT_INF -
    # C1/d)|, here taken exactly in 40-digit decimal arithmetic
    from decimal import Decimal, localcontext

    [(gamma, err)] = gamma_estimates([d])
    with localcontext() as ctx:
        ctx.prec = 40
        exact = Decimal(GAMMA_AT_INF_30) - Decimal(ULTRA_C1_30) / Decimal(d)
        assert Decimal(err) >= abs(Decimal(gamma) - exact)


def _one_sided_oracle(d, n, q_max=10.0):
    """gamma(d) from -u'' + V u = 2 gamma u with u = q f = 0 at q = 0 and
    at q_max, by Chebyshev collocation on the half line itself.

    Independent of the production solver's f = q^s g substitution and its
    even folding: the unknown is u, the grid has a node at the origin, and
    the second derivative is the square of the first-derivative matrix.
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    d1 = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d1 -= np.diag(d1.sum(axis=1))
    # q = q_max sinh(b t) / sinh(b) on t = (x + 1) / 2 in [0, 1]
    b = math.asinh(d * q_max)
    t = 0.5 * (x + 1.0)
    q = q_max * np.sinh(b * t) / math.sinh(b)
    dq = 0.5 * q_max * b * np.cosh(b * t) / math.sinh(b)
    d2q = 0.25 * b * b * q
    op = -(d1 @ d1) / dq[:, None] ** 2 + (d2q / dq ** 3)[:, None] * d1
    inner = slice(1, n)
    op = op[inner, inner] + np.diag(potential_v(q[inner], d))
    return 0.5 * float(np.min(np.linalg.eigvals(op).real))


@pytest.mark.parametrize("d", [40.0, 100.0, 1e5])
def test_error_bars_hold_at_large_d(d):
    # |gamma - gamma_ref| <= est_error against independent references: the
    # one-sided oracle at d = 40 and 100 (widened by its own spread between
    # two resolutions), the expansion GAMMA_AT_INF - C1/d at d = 1e5
    [(gamma, est_error)] = gamma_estimates([d], tol=1e-8)
    if d < 1e3:
        ref = _one_sided_oracle(d, 128)
        spread = abs(ref - _one_sided_oracle(d, 96))
        assert spread < 1e-10
    else:
        ref, spread = GAMMA_AT_INF - _c1() / d, 0.0
    assert abs(gamma - ref) <= est_error + spread


def test_expansion_branch_error_bar():
    # above D_SWITCH gamma is the expansion; its est_error, measured at
    # D_SWITCH, must cover the gap to a finer collocation at this d
    d = 2.0 * D_SWITCH
    [(gamma, est_error)] = gamma_estimates([d], tol=1e-8)
    fine = ground_state(make_potential(d), n=191, tol=1e-6)
    assert gamma == GAMMA_AT_INF - _c1() / d
    assert 0.0 < est_error <= 1e-8
    assert abs(gamma - fine.gamma) <= est_error


_ESTIMATE_GRID = [float(d) for d in np.geomspace(1e-4, 1e5, 40)] + [
    0.0, D_SWITCH, 2.0 * D_SWITCH, INFINITY]


@pytest.mark.parametrize("d", _ESTIMATE_GRID)
def test_estimate_matches_report_bitwise(d):
    # gamma_bound is gamma_estimates' gamma; where gamma(d) is solved, the
    # eigenvalue-only path and the eigenvector path (the EigenResult report
    # of ground_state) share their arithmetic, so gamma and est_error agree
    # to the last bit
    [(gamma, est_error)] = gamma_estimates([d])
    assert gamma_bound(d).hex() == gamma.hex()
    if not D_SMALL <= d <= D_SWITCH:
        return
    pot = make_potential(d)
    [(eig_gamma, eig_error)] = lowest_eigenvalues([pot])
    res = ground_state(pot)
    for g, e in [(eig_gamma, eig_error),
                 (res.gamma, res.diagnostics.est_error)]:
        assert g.hex() == gamma.hex()
        assert e.hex() == est_error.hex()


def test_no_eig_or_eigvals_and_potentials_collocated(monkeypatch):
    # no path takes a QR step: the eigenvalue comes from Rayleigh-quotient
    # iteration and the eigenvector from the refinement, so np.linalg.eig
    # and eigvals are never called.  Each solve collocates its potential
    # twice (coarse and fine), and a call collocates each batch once per
    # degree: a batch solves once per point on [D_SMALL, D_SWITCH], once at
    # each switch for all the points beyond it, and not at all at d = 0 and
    # d = INFINITY
    def no_qr(*_args, **_kwargs):
        raise AssertionError("np.linalg.eig or eigvals called")

    collocate = radial_eigensolver._collocate
    calls = {"collocate": 0, "potentials": 0}

    def counted_collocate(pots, *args):
        calls["collocate"] += 1
        calls["potentials"] += len(pots)
        return collocate(pots, *args)

    monkeypatch.setattr(np.linalg, "eig", no_qr)
    monkeypatch.setattr(np.linalg, "eigvals", no_qr)
    monkeypatch.setattr(radial_eigensolver, "_collocate", counted_collocate)
    for run, solves, collocations in [
            (lambda: gamma_bound(1.0), 1, 2),
            (lambda: gamma_estimates(
                [0.0, 1.0, D_SWITCH, 2.0 * D_SWITCH, INFINITY]), 2, 2),
            (lambda: gamma_estimates([2.0 * D_SWITCH, 3.0 * D_SWITCH]), 1, 2),
            (lambda: gamma_estimates([1e-3, 0.01, 1.0]), 2, 2),
            # the eigenvector path, also at both limits
            (lambda: ground_state(make_potential(1.0)), 1, 2),
            (lambda: ground_state(make_potential(0.0)), 1, 2),
            (lambda: ground_state(make_potential(INFINITY)), 1, 2)]:
        calls.update(collocate=0, potentials=0)
        run()
        assert calls == {"collocate": collocations, "potentials": 2 * solves}


def test_sweep_above_switch_solves_only_at_switch(monkeypatch):
    # above D_SWITCH gamma is the expansion with its remainder measured at
    # D_SWITCH: the points share one coarse and one fine collocation there,
    # and none is made at d = INFINITY
    calls = []
    collocate = radial_eigensolver._collocate

    def counted(pots, q_max, n):
        calls.extend(pot.origin_scale for pot in pots)
        return collocate(pots, q_max, n)

    monkeypatch.setattr(radial_eigensolver, "_collocate", counted)
    rows = gamma_estimates([2e5, 1e6, 1e9])
    assert calls == [D_SWITCH] * 2
    # gamma, frozen as float.hex before the solve at INFINITY was dropped
    assert [g.hex() for g, _ in rows] == [
        "0x1.0f1ba01363425p+1", "0x1.0f1bb71ae05e4p+1",
        "0x1.0f1bbcdb46559p+1"]


_MIXED_GRID = [0.0, 1e-3, 0.5, 1.0, 45.0, D_SWITCH, 2.0 * D_SWITCH, 1e9,
               INFINITY]
# longer than a batch, so the solve runs as two stacks
_LONG_GRID = [float(d) for d in np.linspace(0.0, 8.0, 70)]


@pytest.mark.parametrize("ds", [_MIXED_GRID, _LONG_GRID],
                         ids=["mixed", "long"])
def test_batched_rows_match_single_points(ds):
    # a batch takes each potential's arithmetic alone, so the rows of one
    # batched call equal the points solved one at a time, to the last bit
    assert len(_LONG_GRID) > radial_eigensolver._BATCH
    single = [gamma_estimates([d])[0] for d in ds]
    batched = gamma_estimates(ds)
    assert [(g.hex(), e.hex()) for g, e in batched] == [
        (g.hex(), e.hex()) for g, e in single]


def test_batch_failure_names_its_d(monkeypatch):
    # a failure inside a batch names the d whose solve failed
    def failing(d):
        pot = make_potential(d)
        if d != 1.0:
            return pot
        return pot._replace(evaluate=lambda q: np.full_like(q, np.nan))

    monkeypatch.setattr(rel_uncertainty, "make_potential", failing)
    with pytest.raises(SolverError, match=r"^d = 1\.0: potential evaluated "
                       "to a non-finite value"):
        gamma_estimates([0.5, 1.0, 2.0])


def test_monotone_log_grid():
    ds = np.geomspace(1e-2, 1e2, 9)
    gs = [gamma_bound(float(d)) for d in ds]
    assert all(a < b for a, b in zip(gs, gs[1:]))


def test_sandwich():
    for d in (0.3, 1.0, 5.0, 30.0):
        g = gamma_bound(d)
        assert GAMMA_AT_0 < g < GAMMA_AT_INF + 1e-6


def test_sweep_rows_and_limits():
    (gamma0, _), (gamma_inf, _) = gamma_estimates([0.0, INFINITY])
    assert gamma0 == pytest.approx(1.5, abs=1e-7)
    assert gamma_inf == pytest.approx(GAMMA_AT_INF, abs=1e-6)


def test_sweep_monotone_reference_grid():
    gs = [g for g, _ in gamma_estimates([0.5, 1.0, 2.0, 4.0, 8.0])]
    assert all(a < b for a, b in zip(gs, gs[1:]))


def test_exact_solution_residuals():
    assert gaussian_limit_residual(1.5) <= 1e-10
    assert gaussian_limit_residual(1.4) > 0.01
    assert ultrarelativistic_limit_residual(GAMMA_AT_INF) <= 1e-10
    assert ultrarelativistic_limit_residual(2.0) > 0.01


def test_tolerance_floor():
    with pytest.raises(ValueError):
        gamma_bound(1.0, tol=1e-9)
    # tol is checked once per call, not once per d
    with pytest.raises(ValueError):
        gamma_estimates([], tol=1e-9)


def test_rejects_bad_d():
    with pytest.raises(ValueError):
        gamma_bound(-0.5)
    with pytest.raises(ValueError):
        gamma_bound(math.nan)
