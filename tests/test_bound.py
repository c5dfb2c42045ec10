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

from relhur import radial_eigensolver, rel_uncertainty
from relhur import (
    D_SWITCH,
    GAMMA_AT_0,
    GAMMA_AT_INF,
    INFINITY,
    CoulombState,
    HopfionState,
    RadialPotential,
    SolverError,
    d_parameter,
    gamma_estimates,
    gamma_h,
    gaussian_limit_residual,
    lowest_eigenvalues,
    make_potential,
    max_z_finite,
    oracle_gamma,
    potential_v,
    product_closed_gamma,
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


def _end_grid():
    # a log grid, and the positive degree-95 and -127 collocation nodes at
    # the stretches the solver takes at d = 0 (b = 1e-8) and at d =
    # INFINITY (b = 8)
    grids = [np.geomspace(1e-8, 1e3, 20001)]
    for n in (95, 127):
        x = radial_eigensolver._cheb(n)[0]
        for b in (1e-8, 8.0):
            grids.append(radial_eigensolver._Q_MAX * np.sinh(b * x)
                         / math.sinh(b))
    return np.concatenate(grids)


def test_potential_ends_are_limits_of_one_form():
    # V(q; 0) and V(q; INFINITY) are the general form at its two ends, bit
    # for bit: q*q at d = 0, and the value at the largest float d at d =
    # INFINITY
    q = _end_grid()
    at_zero = potential_v(q, 0.0)
    assert at_zero.tolist() == (q * q).tolist()
    assert potential_v(q, 5e-324).tolist() == at_zero.tolist()
    assert (potential_v(q, 1.7e308).tolist()
            == potential_v(q, INFINITY).tolist())


def test_singular_strength():
    assert make_potential(0.0).singular_strength == 0.0
    assert make_potential(3.7).singular_strength == 0.0
    assert make_potential(2.0).singular_strength == 0.0
    assert make_potential(INFINITY).singular_strength == 1.0


def test_nonrelativistic_anchor():
    [(gamma, _)] = gamma_estimates([0.0])
    assert gamma == pytest.approx(GAMMA_AT_0, abs=1e-7)


def test_ultrarelativistic_anchor():
    [(gamma, _)] = gamma_estimates([INFINITY])
    assert gamma == pytest.approx(GAMMA_AT_INF, abs=1e-6)


def test_dense_matrix_regression_frozen():
    [(gamma, _)] = gamma_estimates([1.0])
    assert gamma == pytest.approx(DENSE_GAMMA_D1, abs=1e-6)


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
    [(gamma, _)] = gamma_estimates([1.0])
    assert gamma == pytest.approx(lam / 2.0, abs=1e-6)


def test_reference_curve_regression():
    rows = gamma_estimates(list(REFERENCE_CURVE))
    for (d, frozen), (gamma, _) in zip(REFERENCE_CURVE.items(), rows):
        assert gamma == pytest.approx(frozen, abs=1e-6), f"d={d}"


def test_strictness_and_approach():
    grid = [1e-2, 1e-1, 1.0, 10.0, 100.0]
    gammas = [g for g, _ in gamma_estimates(grid)]
    assert all(g > 1.5 for g in gammas)
    assert gammas[0] - 1.5 < 1e-2
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


@pytest.mark.parametrize("mu", [0.25, 4.0])
def test_potential_scaling_law(mu):
    # q = mu^(-1/4) x turns V(q; d) + (mu - 1) q^2 into sqrt(mu) V(x; d'),
    # d' = d mu^(-1/4), because V - q^2 is a function of d q over q^2: the
    # lowest eigenvalue is sqrt(mu) gamma(d').  A V whose d^2/(4 w^4) term
    # read d/(4 w^4) breaks that at most of these d
    ds = [0.3, 1.0, 10.0, 300.0, 3e4]
    scaled = [RadialPotential(
        evaluate=lambda q, d=d: potential_v(q, d) + (mu - 1.0) * q * q,
        origin_scale=d) for d in ds]
    rows = lowest_eigenvalues(
        scaled + [make_potential(d * mu ** -0.25) for d in ds])
    for d, (e_mu, err_mu), (gamma, err) in zip(ds, rows, rows[len(ds):]):
        assert abs(e_mu - math.sqrt(mu) * gamma) <= err_mu + err, f"d={d}"


@pytest.mark.parametrize("d", [0.01, 0.025, 0.05])
def test_small_d_expansion(d):
    # first-order perturbation of the Gaussian ground state:
    # gamma(d) = 3/2 + 3 d^2 / 8 + O(d^4), against the solver
    [(g, _)] = lowest_eigenvalues([make_potential(d)], tol=1e-8)
    assert abs((g - 1.5) / d ** 2 - 3.0 / 8.0) <= d * d


# gamma(d) = 3/2 + (3/8)d^2 - (21/32)d^4 + (255/128)d^6 - (17409/2048)d^8
# + O(d^10), the coefficients of d^0, d^2, ..., d^8.  For small d, V(q; d)
# = q^2 + (3/4)d^2 - (7/8)d^4 q^2 + (17/16)d^6 q^4 - (163/128)d^8 q^6
# + O(d^10) (sympy series of the closed form), and the operator is half of
# -Laplacian + V.  First-order perturbation of the 3D oscillator ground
# state, with <q^(2k)> = Gamma(k + 3/2)/Gamma(3/2) = 3/2, 15/4, 105/8,
# gives 3/8, -21/32, 255/128 and -(163/256)(105/8) = -17115/2048.  The
# d^4 q^2 term only rescales the frequency, so (3/2) sqrt(1 - (7/8)d^4)
# gives its second-order part, -147/1024 d^8, exactly; the constant
# (3/4)d^2 has no off-diagonal part.  The coefficients are dyadic, so the
# floats are exact.
SMALL_D_SERIES = (1.5, 3.0 / 8.0, -21.0 / 32.0, 255.0 / 128.0,
                  -17409.0 / 2048.0)


def _through_d6(d):
    return sum(c * d ** (2 * k) for k, c in enumerate(SMALL_D_SERIES[:4]))


def test_small_d_series_through_d8():
    # the coefficients against the solver
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


# the coefficients of d^10, ..., d^18, from Rayleigh-Schroedinger theory in
# exact fractions on the s-wave oscillator basis L_n^(1/2)(q^2) exp(-q^2/2),
# which reproduces SMALL_D_SERIES through d^8
SMALL_D_NEXT = ((376215, 8192), (-19472391, 65536), (583913715, 262144),
                (-158862184845, 8388608), (6035028731835, 33554432))


@pytest.mark.parametrize("d", [0.1, 0.12])
def test_small_d_series_next_terms(d):
    # each added term brings the series at least 5x closer to the solver;
    # at d = 0.1 the gap falls from 4.3e-9 (through d^8) to 1.6e-14
    for num, den in SMALL_D_NEXT:
        # dyadic, so the float is exact
        assert den & (den - 1) == 0 and abs(num) < 2 ** 53
    [(g, _)] = lowest_eigenvalues([make_potential(d)], n=127, tol=1e-8)
    series = _through_d6(d) + SMALL_D_SERIES[4] * d ** 8
    gap = abs(g - series)
    for k, (num, den) in enumerate(SMALL_D_NEXT):
        series += num / den * d ** (10 + 2 * k)
        next_gap = abs(g - series)
        assert 5.0 * next_gap <= gap, f"d^{10 + 2 * k}"
        gap = next_gap


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
    # below 0.02 each d is a row of the one batched solve: every point is
    # collocated once coarse and once fine, each degree in one call
    calls = []
    collocate = radial_eigensolver._collocate

    def counted(pots, n):
        calls.extend(pot.origin_scale for pot in pots)
        return collocate(pots, n)

    monkeypatch.setattr(radial_eigensolver, "_collocate", counted)
    gamma_estimates(_SMALL_GRID)
    assert calls == _SMALL_GRID * 2


def test_small_d_series_against_the_solver():
    # the series through d^8 lies within each solved row's est_error, and
    # both print the same 12 digits; the d^10 term, 46 d^10, is at most
    # 2.9e-16 on this grid
    rows = gamma_estimates(_SMALL_GRID)
    for d, (gamma, err) in zip(_SMALL_GRID, rows):
        series = _through_d6(d) + SMALL_D_SERIES[4] * d ** 8
        assert abs(gamma - series) <= err, f"d={d}"
        assert f"{gamma:.12g}" == f"{series:.12g}", f"d={d}"


def _reading(name, rep, p_sq, scale=1.0):
    """(name, product, its error, d) of a family state with p_sq in the
    place of dp^2, in the product and in d = (p_sq/dr^2)^(1/4).  p_sq is
    dp^2 or dp^2 plus an exact term, which leaves err_est's relative error
    of the product an upper bound."""
    product = math.sqrt(rep.delta_r_sq * p_sq)
    return (name, product, rep.err_est * product / rep.gamma,
            scale * (p_sq / rep.delta_r_sq) ** 0.25)


def _family_states(charges, widths):
    """_reading of each ion, and of each packet under dp^2 and <p^2>."""
    states = []
    for ion in map(CoulombState, charges):
        rep = oracle_gamma(ion.gamma_c)
        states.append(_reading(f"Z={ion.Z}", rep, rep.delta_p_sq,
                               ion.alpha * ion.Z))
    for a in widths:
        rep = gamma_h(HopfionState(a))
        states.append(_reading(f"a={a:g}", rep, rep.delta_p_sq))
        states.append(_reading(f"a={a:g}, <p^2>", rep,
                               rep.delta_p_sq + 0.25 / (a * a)))
    return states


def test_families_above_the_curve():
    # every hydrogen-like ion with a finite product and the packet on its
    # whole a range sit above the curve at their own d = (dp^2/dr^2)^(1/4),
    # in Compton units (the oracle works in decay lengths 1/(alpha Z)), by
    # more than every error that could close the margin.  The packet moves,
    # <p_z> = -1/(2a) exactly, so it is also read with <p^2> = dp^2 +
    # 1/(4a^2) in place of dp^2, the form the bound takes for <p> != 0
    # (tests/test_dirac.py::test_bound_needs_zero_mean_momentum).  err_est
    # carries (rel_p + rel_r)/2 into gamma, so d is off by at most
    # d err_est/(2 gamma); the slope term is below 1e-10 throughout, so a
    # secant of the curve serves as gamma'(d).
    states = _family_states(range(1, max_z_finite() + 1),
                            np.geomspace(0.05, 100.0, 25))
    bound = gamma_estimates([x for *_, d in states
                             for x in (d, 0.99 * d, 1.01 * d)])
    for k, (name, product, product_err, d) in enumerate(states):
        (gamma, err), (lo, _), (hi, _) = bound[3 * k:3 * k + 3]
        d_err = d * product_err / (2.0 * product)
        slope = abs(hi - lo) / (0.02 * d)
        assert product - gamma > product_err + err + slope * d_err, name


def test_packet_small_d_coefficient():
    # the packet approaches 3/2 like c d^2 at large a, d its own
    # (dp^2/dr^2)^(1/4).  Measured: c reads 0.612940 at a = 50 and 0.618938
    # at a = 100, and their two-point Richardson extrapolation in 1/a,
    # 0.624937, lies near 5/8 (a = 200 reads 0.624984).  With the curve's
    # 3/2 + (3/8) d^2 the packet's margin at small d is then
    # (5/8 - 3/8) d^2 = d^2 / 4.
    #
    # Derived: with m = 1 and p = x / sqrt(a), expand the packet's
    # integrands in a^(-1/2) about the Gaussian e^(-x^2) and integrate term
    # by term over x and cos theta (sympy): the norm, <p_z>, <p^2> and the
    # gradient integral sum_k |grad_p psi_k|^2, with <r> = 0 as in gamma_h.
    # <p_z> = -1/(2a) + ... is not 0 and enters dp^2 at order 1/a^2.  Then
    #   dp^2    = (1/a) (3/2 + 13/(8a) + 45/(64a^2) + ...)
    #   dr^2    = (3a/2) (1 - 1/(4a) - 9/(32a^2) + ...)
    #   gamma_H = 3/2 + 5/(8a) - 37/(192a^2) + 133/(1152a^3) + ...
    #   d^2     = (dp^2/dr^2)^(1/2) = 1/a + 2/(3a^2) + 23/(72a^3) + ...
    # so (gamma_H - 3/2)/d^2 = 5/8 - 39/(64a) + 371/(1152a^2) + O(a^-3).
    # The remainder times a^3 reads -0.176, -0.193, -0.200, -0.204 and
    # -0.207 at a = 20, 50, 100, 200 and 1000; from a = 5000 on, the
    # rounding of gamma - 3/2 over d^2 exceeds 0.25/a^3.
    def coefficient(a):
        rep = gamma_h(HopfionState(a))
        return (rep.gamma - 1.5) / math.sqrt(rep.delta_p_sq / rep.delta_r_sq)

    assert abs(2.0 * coefficient(100.0) - coefficient(50.0) - 0.625) <= 2e-4
    for a in (20.0, 50.0, 100.0, 200.0, 1e3):
        derived = 5.0 / 8.0 - 39.0 / (64.0 * a) + 371.0 / (1152.0 * a * a)
        assert abs(coefficient(a) - derived) <= 0.25 / a ** 3, f"a={a:g}"


def test_packet_small_width_slope():
    # gamma_H = (sqrt(33)/2)(1 - pi a/4) + c2 a^2 + ..., from K_1 ~ 1/z,
    # K_2 ~ 2/z^2 and Ki_1(0) = pi/2 at z = 2a; c2 reads 2.7697
    for a in (1e-6, 1e-5, 1e-4):
        slope = (gamma_h(HopfionState(a)).gamma - math.sqrt(33.0) / 2.0) / a
        assert abs(slope + math.pi * math.sqrt(33.0) / 8.0) <= 3.0 * a, a


def test_packet_large_width_margins():
    # past a = 1e3 the packet's margin above the curve falls like 1/a: by
    # d^2/4 = 1/(4a) under the dp^2 reading, and under the <p^2> reading
    # by 3/(8a), the gap between its 3/2 + 3/(4a) and the curve's
    # 3/2 + 3/(8a).  a times the margin reads 0.2500213 and 0.3750094 at
    # a = 1e4, and 0.2500021 and 0.3750009 at a = 1e5
    for a in (1e4, 1e5):
        (_, dp, _, d_dp), (_, pp, _, d_pp) = _family_states([], [a])
        (floor_dp, _), (floor_pp, _) = gamma_estimates([d_dp, d_pp])
        assert abs(a * (dp - floor_dp) - 0.25) <= 0.3 / a, a
        assert abs(a * (pp - floor_pp) - 0.375) <= 0.1 / a, a


def test_packet_above_the_curve_on_its_whole_range_to_30():
    # a finite check that the packet clears the curve at every a <= 30,
    # under both readings of _family_states.
    #
    # Below a = 0.64629 no solve is needed: gamma_H(0.64629) = 2.1180366 is
    # 2.6e-6 above 1 + sqrt(5)/2, which gamma(d) stays below at every finite
    # d, and gamma_H falls on a log grid down to the domain's end (to within
    # err_est: below a ~ 4e-17 it sits at sqrt(33)/2 and its rounding
    # wobbles by up to 3 ulp).  The <p^2> product is larger still.
    #
    # On [0.64629, 30], cells a_{i+1} = a_i (1 + 0.1/max(a_i, 1)).  dr^2
    # rises and P (dp^2, or <p^2> = dp^2 + 1/(4a^2)) falls at the cell edges;
    # taking them monotone inside each cell too (checked at the edges, not
    # proved), the product is at least sqrt(dr^2(a_i) P(a_{i+1})) and d at
    # most (P(a_i)/dr^2(a_i))^(1/4) on the cell, and gamma rises with d.  So
    # the cell clears the curve if that product bound exceeds gamma + its
    # est_error at that d, which stands in for an upper bound of gamma.
    # Measured: 295 cells per reading; the smallest margins are 5.9e-3
    # (dp^2) and 1.0e-2 (<p^2>), both in the last cell.  With 0.3 in place
    # of 0.1 the cell [0.84, 1.09] fails by 0.13.  Beyond a = 30 the margins
    # rest on test_packet_large_width_margins' measurement.
    a_floor = 0.64629
    low = [gamma_h(HopfionState(float(a)))
           for a in np.geomspace(1.2369e-154, a_floor, 400)]
    assert low[-1].gamma - low[-1].err_est > GAMMA_AT_INF
    for left, right in zip(low, low[1:]):
        assert right.gamma <= left.gamma + left.err_est + right.err_est

    edges = [a_floor]
    while edges[-1] < 30.0:
        edges.append(edges[-1] * (1.0 + 0.1 / max(edges[-1], 1.0)))
    reps = [gamma_h(HopfionState(a)) for a in edges]
    a = np.array(edges)
    r_sq = np.array([rep.delta_r_sq for rep in reps])
    p_sq = np.array([rep.delta_p_sq for rep in reps])
    # err_est / gamma bounds the relative error of dr^2 and of P
    rel = max(rep.err_est / rep.gamma for rep in reps)
    assert np.all(np.diff(r_sq) > 0.0)
    cells = []
    for name, p in (("dp^2", p_sq), ("<p^2>", p_sq + 0.25 / (a * a))):
        assert np.all(np.diff(p) < 0.0), name
        cells.append((name, np.sqrt(r_sq[:-1] * p[1:]),
                      (p[:-1] / r_sq[:-1]) ** 0.25))
    bound = iter(gamma_estimates([d for *_, ds in cells for d in ds],
                                 tol=1e-8))
    for name, products, ds in cells:
        for lo, hi, product, (gamma, err) in zip(edges, edges[1:], products,
                                                 bound):
            assert product * (1.0 - 2.0 * rel) > gamma + err, (name, lo, hi)


def _c1():
    # C1 = Gamma(s) / (2 Gamma(s + 3/2)), s = (sqrt(5) - 1) / 2
    s = 0.5 * (math.sqrt(5.0) - 1.0)
    return math.gamma(s) / (2.0 * math.gamma(s + 1.5))


@pytest.mark.parametrize("d", [1e3, 1e4, 1e5])
def test_large_d_expansion(d):
    # gamma(d) = GAMMA_AT_INF - C1 / d + O(d^-2)
    c1 = _c1()
    [(g, _)] = gamma_estimates([d], tol=1e-8)
    assert abs(d * (GAMMA_AT_INF - g) / c1 - 1.0) <= 3.0 / d


# r = gamma - GAMMA_AT_INF + C1/d = A/d^2 + B/d^sqrt(5) + O(1/d^3): A from
# outer perturbation theory at order 1/d^2, B from matching to the
# zero-energy inner problem in u = d q
ULTRA_A = -1.7978760288
ULTRA_B = 2.4993244209


def test_large_d_next_terms():
    # the two terms after -C1/d against degree-191 solves; A alone misses
    # r d^2 by 12-47% on these d
    ds = (1e2, 1e3, 1e4, 3.2e4)
    rows = lowest_eigenvalues([make_potential(d) for d in ds], n=191,
                              tol=1e-8)
    for d, (g, err) in zip(ds, rows):
        rd2 = (g - GAMMA_AT_INF + _c1() / d) * d * d
        pred = ULTRA_A + ULTRA_B * d ** (2.0 - math.sqrt(5.0))
        assert abs(rd2 - pred) <= abs(pred) / d + err * d * d, f"d={d}"
        assert abs(rd2 - ULTRA_A) > 0.1 * abs(ULTRA_A), f"d={d}"


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


def _one_sided_grid(d, n, q_max=10.0):
    """The n + 1 Chebyshev points x = cos(pi k/n), the first-derivative
    matrix in x, and q = q_max sinh(b t) / sinh(b) on t = (x + 1) / 2 in
    [0, 1] with its first two derivatives in x."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    d1 = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d1 -= np.diag(d1.sum(axis=1))
    b = math.asinh(d * q_max)
    t = 0.5 * (x + 1.0)
    q = q_max * np.sinh(b * t) / math.sinh(b)
    dq = 0.5 * q_max * b * np.cosh(b * t) / math.sinh(b)
    d2q = 0.25 * b * b * q
    return x, d1, q, dq, d2q


def _one_sided_system(d, n, q_max=10.0):
    """The nodes q, dq/dx and the operator -u'' + V u on the n - 1 inner
    nodes of -u'' + V u = 2 gamma u with u = q f = 0 at q = 0 and at q_max,
    by Chebyshev collocation in x on the half line itself.

    Independent of the production solver's f = q^s g substitution and its
    even folding: the unknown is u, the grid has a node at the origin, and
    the second derivative is the square of the first-derivative matrix.
    """
    _, d1, q, dq, d2q = _one_sided_grid(d, n, q_max)
    op = -(d1 @ d1) / dq[:, None] ** 2 + (d2q / dq ** 3)[:, None] * d1
    inner = slice(1, n)
    return q, dq, op[inner, inner] + np.diag(potential_v(q[inner], d))


def _one_sided_oracle(d, n, q_max=10.0):
    """gamma(d) from the operator of _one_sided_system."""
    _, _, op = _one_sided_system(d, n, q_max)
    return 0.5 * float(np.min(np.linalg.eigvals(op).real))


def _one_sided_ground_state(d, n, q_max=10.0):
    """The nodes q, dq/dx and the lowest eigenvector u of the operator of
    _one_sided_system, zero at both ends."""
    q, dq, op = _one_sided_system(d, n, q_max)
    lam, vec = np.linalg.eig(op)
    u = np.zeros(n + 1)
    u[1:-1] = vec[:, np.argmin(lam.real)].real
    return q, dq, u


def _clencurt(n):
    """Clenshaw-Curtis weights on the n + 1 Chebyshev points cos(pi k/n)
    of [-1, 1], n even (Trefethen, Spectral Methods in MATLAB, clencurt.m)."""
    theta = np.pi * np.arange(1, n) / n
    v = 1.0 - np.cos(n * theta) / (n * n - 1)
    for k in range(1, n // 2):
        v -= 2.0 * np.cos(2 * k * theta) / (4 * k * k - 1)
    w = np.full(n + 1, 1.0 / (n * n - 1))
    w[1:-1] = 2.0 * v / n
    return w


def _second_moment(d, n=128):
    """<q^2> in the ground state at d: the one-sided oracle's eigenvector
    under Clenshaw-Curtis weights.  Its spread between n = 96 and 128 is
    1.3e-10 at d = 1000."""
    q, dq, u = _one_sided_ground_state(d, n)
    w = _clencurt(n) * dq * u * u
    return float(w @ (q * q)) / float(w.sum())


@pytest.mark.parametrize("d, bound", [
    (0.1, 1e-10), (1.0, 1e-10), (3.0, 1e-10), (30.0, 1e-10), (1000.0, 2e-9)])
def test_hellmann_feynman_second_moment(d, bound):
    # <q^2> = gamma - (d/2) gamma' in the ground state: gamma and gamma'
    # (4-point central difference) from the production solver
    h = 1e-3 * d
    g = [gamma for gamma, _ in lowest_eigenvalues(
        [make_potential(d + k * h) for k in (-2, -1, 0, 1, 2)], n=159)]
    slope = (g[0] - 8.0 * g[1] + 8.0 * g[3] - g[4]) / (12.0 * h)
    assert abs(g[2] - 0.5 * d * slope - _second_moment(d)) <= bound


def _temple_enclosure(d, n=128, m=512):
    """(lower, upper) on gamma(d) from the trial u of
    _one_sided_ground_state(d, n): its barycentric interpolant on the
    m + 1 Chebyshev points, -u'' + V u applied there with the degree-m
    first-derivative matrix, twice, and rho and eps^2 = |A u - rho u|^2 /
    |u|^2 under Clenshaw-Curtis weights on the inner points.  Then
    rho >= 2 gamma >= rho - eps^2 / (7 - rho) (Temple), since V >= q^2
    puts the second s-wave level of -u'' + V u at 7 or above."""
    _, _, u = _one_sided_ground_state(d, n)
    x, d1, q, dq, d2q = _one_sided_grid(d, m)
    nodes = np.cos(np.pi * np.arange(n + 1) / n)
    diff = x[:, None] - nodes[None, :]
    hit = diff == 0.0
    r = np.r_[0.5, np.ones(n - 1), 0.5] * (-1.0) ** np.arange(n + 1) / (
        np.where(hit, 1.0, diff))
    v = np.where(hit.any(axis=1), hit.astype(float) @ u, (r @ u) / r.sum(1))
    v1 = d1 @ v
    inner = slice(1, m)
    av = ((d2q / dq ** 3 * v1 - (d1 @ v1) / dq ** 2)[inner]
          + potential_v(q[inner], d) * v[inner])
    v, w = v[inner], (_clencurt(m) * dq)[inner]
    norm = w @ (v * v)
    rho = w @ (v * av) / norm
    eps_sq = w @ (av - rho * v) ** 2 / norm
    return 0.5 * (rho - eps_sq / (7.0 - rho)), 0.5 * rho


@pytest.mark.parametrize("d, width", [
    (0.1, 1e-15), (1.0, 1e-15), (30.0, 1e-15), (1000.0, 3e-11)])
def test_temple_enclosure(d, width):
    # a two-sided enclosure of gamma(d) from a trial function the
    # production solver never sees.  Measured: eps = 8.5e-12, 2.6e-11 and
    # 4.3e-9 at d = 0.1, 1 and 30 leave a width below float resolution,
    # and the width is 1.8e-11 at d = 1000 (1.9e-6 at 1e4, too wide for a
    # degree-128 trial).  Not yet a proof: the trial's kink at q_max, the
    # quadrature error of rho and eps, and the rounding of rho are not
    # bounded, so the solver's gamma is held with 1e-13 of slack
    lower, upper = _temple_enclosure(d)
    [(gamma, _)] = lowest_eigenvalues([make_potential(d)])
    assert lower - 1e-13 <= gamma <= upper + 1e-13
    assert upper - lower <= width


def _dual_maximum(delta):
    """max over t > 0 of 2 t^2/(1 + t^4) gamma(delta t) and its t: a scan
    of 31 points in log t on [e^-1.5, e^1.5], then golden-section search
    in log t on the bracket of the best point, down to a width of 3e-8."""
    def value(us):
        ts = np.exp(us)
        gammas = [g for g, _ in gamma_estimates(list(delta * ts))]
        return list(2.0 * ts * ts / (1.0 + ts ** 4) * gammas)

    us = np.linspace(-1.5, 1.5, 31)
    vals = value(us)
    k = int(np.argmax(vals))
    assert 0 < k < us.size - 1, "the maximum is not inside the scan"
    best, best_u = vals[k], us[k]
    lo, hi = us[k - 1], us[k + 1]
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = hi - r * (hi - lo), lo + r * (hi - lo)
    fa, fb = value(np.array([a, b]))
    while hi - lo > 3e-8:
        if fa > fb:
            hi, b, fb = b, a, fa
            a = hi - r * (hi - lo)
            [fa] = value(np.array([a]))
        else:
            lo, a, fa = a, b, fb
            b = lo + r * (hi - lo)
            [fb] = value(np.array([b]))
        best, best_u = max((best, best_u), (fa, a), (fb, b))
    return best, math.exp(best_u)


@pytest.mark.parametrize("d", [0.1, 0.3, 1.0, 3.0, 30.0, 1000.0])
def test_duality_maximum_is_the_ground_state_product(d):
    # the sharp floor at delta, G(delta) = max over t of 2 t^2/(1 + t^4)
    # gamma(delta t), is attained by the ground state at d: with
    # x = d gamma'/2 = gamma - <q^2> (Hellmann-Feynman), delta = d ((gamma -
    # x)/(gamma + x))^(1/4) and G = sqrt(gamma^2 - x^2), the maximum sits
    # at delta t = d.  G and delta move with x only at second order, so
    # <q^2>'s 1e-10 error leaves 1e-20; the maximum agrees to 1.2e-14 or
    # better, and G lies below gamma by 2.8e-8 (d = 1000) to 2.7e-3 (d = 1)
    [(gamma, _)] = gamma_estimates([d])
    x = gamma - _second_moment(d)
    delta = d * ((gamma - x) / (gamma + x)) ** 0.25
    sharp = math.sqrt(gamma * gamma - x * x)
    best, t = _dual_maximum(delta)
    assert abs(best - sharp) <= 1e-13
    assert delta * t == pytest.approx(d, rel=1e-6)
    assert sharp < gamma


def test_families_above_the_sharp_floor():
    # the states of test_families_above_the_curve, a few of each kind, also
    # lie above the sharp floor G(d) = max over t of 2 t^2/(1 + t^4)
    # gamma(d t) at their own d, by more than every error.  G's error is at
    # most gamma's err_est at d t, as 2 t^2/(1 + t^4) <= 1, and its slope is
    # 2 t^3/(1 + t^4) gamma'(d t) at the maximizer t (envelope theorem),
    # taken as a secant.  Measured: G - gamma(d) runs from 4.4e-11 (Z = 1)
    # to 3.2e-3 (a = 1), and the smallest margin is 2.5e-3, at a = 100 with
    # dp^2, where G - gamma(d) = 4.4e-6
    for name, product, product_err, d in _family_states(
            (1, 40, 80, 118), (0.05, 1.0, 10.0, 100.0)):
        sharp, t = _dual_maximum(d)
        (gamma, err), (lo, _), (hi, _) = gamma_estimates(
            [d * t, 0.99 * d * t, 1.01 * d * t])
        slope = 2.0 * t ** 3 / (1.0 + t ** 4) * abs(hi - lo) / (0.02 * d * t)
        d_err = d * product_err / (2.0 * product)
        assert product - sharp > product_err + err + slope * d_err, name


def test_hydrogen_above_the_curve_with_one_solve():
    # gamma(d) rises with d (min-max principle: dV/dd > 0 at every q) and
    # stays below its limit 1 + sqrt(5)/2; the closed product and d both
    # fall as gamma_c rises.  So at gamma_c <= g* the product, 2.118035294949
    # at g*, is above gamma at every d.  At gamma_c > g*, d < d(g*) =
    # 0.4470264742, where gamma = 1.557772656994 is below sqrt(3), the
    # smallest product (gamma_c = 1).  One solve puts every Z at every
    # alpha above the curve.
    g_star = 0.870679
    assert product_closed_gamma(g_star) > GAMMA_AT_INF
    [(gamma, err)] = gamma_estimates([d_parameter(g_star)])
    assert gamma + err < product_closed_gamma(1.0) == math.sqrt(3.0)
    gamma_cs = np.linspace(0.5, 1.0, 100_001)[1:]
    for closed in (product_closed_gamma, d_parameter):
        values = [closed(g) for g in gamma_cs]
        assert all(a > b for a, b in zip(values, values[1:])), closed.__name__


def test_sharp_floor_small_delta_coefficients():
    # G(delta) - gamma(delta) = (3/64) delta^4 - (21/64) delta^6
    # + (8217/4096) delta^8 + O(delta^10).  Measured: the remainder over
    # delta^10 reads -13.9, -12.6, -12.4 and -12.0 from delta = 0.03 on;
    # at 0.02 the remainder (2e-17) is rounding.  Without the delta^8 term
    # the residual at 0.05 is 7.7e-11, against 1.2e-12 with it
    for delta in (0.02, 0.03, 0.05, 0.07, 0.1):
        sharp, _ = _dual_maximum(delta)
        [(gamma, _)] = gamma_estimates([delta])
        without_d8 = sharp - gamma - (3.0 / 64.0 * delta ** 4
                                      - 21.0 / 64.0 * delta ** 6)
        rest = without_d8 - 8217.0 / 4096.0 * delta ** 8
        assert abs(rest) <= 20.0 * delta ** 10, delta
        if delta == 0.05:
            assert abs(without_d8) > 10.0 * abs(rest)


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
    [(fine, _)] = lowest_eigenvalues([make_potential(d)], n=191, tol=1e-6)
    assert gamma == GAMMA_AT_INF - _c1() / d
    assert 0.0 < est_error <= 1e-8
    assert abs(gamma - fine) <= est_error


_ESTIMATE_GRID = [float(d) for d in np.geomspace(1e-4, 1e5, 40)] + [
    0.0, D_SWITCH, 2.0 * D_SWITCH, INFINITY]


@pytest.mark.parametrize("d", _ESTIMATE_GRID)
def test_estimate_matches_report_bitwise(d):
    # where gamma(d) is solved, gamma_estimates' row is the solver's own
    # report, lowest_eigenvalues' gamma and est_error, to the last bit
    [(gamma, est_error)] = gamma_estimates([d])
    if not 0.0 < d <= D_SWITCH:
        return
    [(eig_gamma, eig_error)] = lowest_eigenvalues([make_potential(d)])
    assert eig_gamma.hex() == gamma.hex()
    assert eig_error.hex() == est_error.hex()


def test_no_eig_or_eigvals_and_potentials_collocated(monkeypatch):
    # no path takes a QR step: the eigenvalue comes from Rayleigh-quotient
    # iteration and its refinement, so np.linalg.eig and eigvals are never
    # called.  Each solve collocates its potential twice (coarse and fine),
    # and a call collocates each batch once per degree: a batch solves once
    # per point on (0, D_SWITCH], once at D_SWITCH for all the points
    # beyond it, and not at all at d = 0 and d = INFINITY
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
            (lambda: gamma_estimates([1.0]), 1, 2),
            (lambda: gamma_estimates(
                [0.0, 1.0, D_SWITCH, 2.0 * D_SWITCH, INFINITY]), 2, 2),
            (lambda: gamma_estimates([2.0 * D_SWITCH, 3.0 * D_SWITCH]), 1, 2),
            (lambda: gamma_estimates([1e-3, 0.01, 1.0]), 3, 2),
            # the solver itself, also at both limits
            (lambda: lowest_eigenvalues([make_potential(1.0)]), 1, 2),
            (lambda: lowest_eigenvalues([make_potential(0.0)]), 1, 2),
            (lambda: lowest_eigenvalues([make_potential(INFINITY)]), 1, 2)]:
        calls.update(collocate=0, potentials=0)
        run()
        assert calls == {"collocate": collocations, "potentials": 2 * solves}


def test_sweep_above_switch_solves_only_at_switch(monkeypatch):
    # above D_SWITCH gamma is the expansion with its remainder measured at
    # D_SWITCH: the points share one coarse and one fine collocation there,
    # and none is made at d = INFINITY
    calls = []
    collocate = radial_eigensolver._collocate

    def counted(pots, n):
        calls.extend(pot.origin_scale for pot in pots)
        return collocate(pots, n)

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


_LOG_GRID = [1e-2, *(float(d) for d in np.geomspace(0.02, D_SWITCH, 513))]


@pytest.fixture(scope="module")
def log_grid_rows():
    return gamma_estimates(_LOG_GRID)


def test_monotone_log_grid(log_grid_rows):
    # the monotonicity that test_hydrogen_above_the_curve_with_one_solve
    # relies on, at 514 solved points
    gs = [g for g, _ in log_grid_rows]
    assert all(a < b for a, b in zip(gs, gs[1:]))


def _upper(d):
    # U(d) = min(3/2 + 3d^2/8, 1 + sqrt(5)/2) >= gamma(d) at every d: with
    # w = sqrt(1 + d^2 q^2) >= 1, V(q; d) - q^2 = d^2/(w (1 + w))
    # + d^2/(4 w^4) <= 3d^2/4, and the min-max principle carries the
    # operator inequality to the ground state
    return min(GAMMA_AT_0 + 0.375 * d * d, GAMMA_AT_INF)


def test_upper_bound_on_log_grid(log_grid_rows):
    for d, (gamma, err) in zip(_LOG_GRID, log_grid_rows):
        assert _upper(d) >= gamma - err, f"d={d}"


def test_upper_bound_sharp_to_d4():
    # U - gamma = (21/32)d^4 - (255/128)d^6 + ... below the cap, so the
    # bound is sharp to first order.  Over d^4, the terms after d^4 are at
    # most 2 d^2 for d <= 0.01, and gamma's error and U's rounding (below
    # one ulp of 3/2, eps) enter divided by d^4
    ds = [float(d) for d in np.geomspace(1e-3, 1e-2, 5)]
    rows = lowest_eigenvalues([make_potential(d) for d in ds], tol=1e-8)
    for d, (gamma, err) in zip(ds, rows):
        ratio = (_upper(d) - gamma) / d ** 4
        slack = 2.0 * d * d + (err + sys.float_info.epsilon) / d ** 4
        assert abs(ratio - 21.0 / 32.0) <= slack, f"d={d}"


def test_hydrogen_above_the_upper_bound_without_solve():
    # the closed product against 3/2 + 3d^2/8, which U never exceeds: no
    # eigenvalue is needed.  The smallest margin is sqrt(3) - 3/2 at
    # gamma_c = 1, where d = 0
    gamma_cs = [math.nextafter(0.5, 1.0),
                *(float(g) for g in np.linspace(0.5, 1.0, 100_001)[1:])]
    margin = min(product_closed_gamma(g) - (1.5 + 0.375 * d_parameter(g) ** 2)
                 for g in gamma_cs)
    assert margin >= math.sqrt(3.0) - 1.5 - 1e-12


def test_sandwich():
    for g, _ in gamma_estimates([0.3, 1.0, 5.0, 30.0]):
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


def test_limit_residuals_apply_the_library_potential(monkeypatch):
    # the residuals check potential_v itself: a V off by 0.1% at INFINITY
    # must show up in the ultrarelativistic residual
    exact = rel_uncertainty.potential_v

    def scaled(q, d):
        return exact(q, d) * (1.001 if math.isinf(d) else 1.0)

    monkeypatch.setattr(rel_uncertainty, "potential_v", scaled)
    assert ultrarelativistic_limit_residual(GAMMA_AT_INF) > 1e-10
    assert gaussian_limit_residual(1.5) <= 1e-10


def test_tolerance_floor():
    with pytest.raises(ValueError):
        gamma_estimates([1.0], tol=1e-9)
    # tol is checked once per call, not once per d
    with pytest.raises(ValueError):
        gamma_estimates([], tol=1e-9)


def test_rejects_bad_d():
    with pytest.raises(ValueError):
        gamma_estimates([-0.5])
    with pytest.raises(ValueError):
        gamma_estimates([math.nan])
