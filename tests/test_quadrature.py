"""The exp-sinh x Gauss-Legendre rule on [0, inf) x [0, pi], against
closed forms and cross-checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from relhur import (
    QuadConfig,
    QuadratureError,
    bessel_k,
    integrate_exp_sinh,
)
from relhur import quadrature
from relhur.quadrature import _THETA_LEVELS, _theta_rule

CFG = QuadConfig()


def _tolerance(cfg, value):
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


def _radial(g):
    """A (p, theta) integrand whose theta integral is g(p)."""
    return lambda p, th: g(p) * np.ones_like(th) / math.pi


def test_exponential_unit_integral():
    res = integrate_exp_sinh(_radial(lambda x: np.exp(-x)), CFG)
    assert abs(res.value - 1.0) <= _tolerance(CFG, 1.0)
    assert res.est_abs_error >= 0.0
    assert res.evaluations > 0


def test_gaussian_second_moment():
    res = integrate_exp_sinh(_radial(lambda x: x * x * np.exp(-x * x)), CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-10)


@pytest.mark.parametrize("width", [1e-4, 1.0, 1e4])
def test_any_width_without_a_scale(width):
    # p spans 2e-19 to 4e18, so no decay scale is needed
    res = integrate_exp_sinh(
        _radial(lambda x: x * x * np.exp(-(x / width) ** 2)),
        QuadConfig(abs_tol=1e-300))
    exact = math.sqrt(math.pi) / 4.0 * width ** 3
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert abs(res.value - exact) <= res.est_abs_error <= 1e-9 * exact


def test_relativistic_moment_matches_bessel():
    # integral_0^inf p^2 e^{-beta E_p} dp = (m^2/beta) K2(m beta), m=1.
    # Verify the identity itself with an unrelated integrator first.
    beta = 2.0
    ref, err = quad(lambda p: p * p * math.exp(-beta * math.hypot(1.0, p)),
                    0.0, 60.0, limit=200, epsabs=1e-13, epsrel=1e-12)
    k_form = bessel_k(2, beta) / beta
    assert abs(ref - k_form) <= 1e-9 * k_form + err

    res = integrate_exp_sinh(
        _radial(lambda p: p * p * np.exp(-beta * np.hypot(1.0, p))), CFG)
    assert res.value == pytest.approx(0.5 * bessel_k(2, 2.0), rel=1e-9)


def test_2d_separable_gaussian():
    res = integrate_exp_sinh(
        lambda p, th: p * p * np.sin(th) * np.exp(-p * p), CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)


def test_2d_theta_measure():
    res = integrate_exp_sinh(lambda p, th: np.exp(-p) * np.ones_like(th), CFG)
    assert res.value == pytest.approx(math.pi, rel=1e-9)


def test_linearity():
    f = lambda x: np.exp(-x)
    g = lambda x: x * np.exp(-x * x)
    a, b = 3.0, -2.0
    lhs = integrate_exp_sinh(_radial(lambda x: a * f(x) + b * g(x)), CFG)
    fa = integrate_exp_sinh(_radial(f), CFG)
    gb = integrate_exp_sinh(_radial(g), CFG)
    combined_err = lhs.est_abs_error + abs(a) * fa.est_abs_error \
        + abs(b) * gb.est_abs_error
    assert abs(lhs.value - (a * fa.value + b * gb.value)) \
        <= combined_err + 1e-12


def test_positivity():
    res = integrate_exp_sinh(_radial(lambda x: x * np.exp(-3.0 * x)), CFG)
    assert res.value > 0.0


def test_refinement_never_hurts():
    # tighter tolerances must not move the result away from the oracle
    oracle = math.sqrt(math.pi) / 4.0
    f = _radial(lambda x: x * x * np.exp(-x * x))
    loose = integrate_exp_sinh(f, QuadConfig(abs_tol=1e-6, rel_tol=1e-5))
    tight = integrate_exp_sinh(f, QuadConfig(abs_tol=5e-7, rel_tol=5e-6))
    assert abs(tight.value - oracle) <= abs(loose.value - oracle) + 1e-15


def test_integrable_endpoint_singularity():
    # q^{-1/2} e^{-q}: Gamma(1/2) = sqrt(pi); dq/dt = (pi/2) cosh(t) q
    # leaves q^{1/2}, which decays doubly exponentially as t -> -inf but
    # still weighs 5e-10 at t = -4; the error estimate holds that tail
    res = integrate_exp_sinh(_radial(lambda q: np.exp(-q) / np.sqrt(q)), CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-8)
    assert abs(res.value - math.sqrt(math.pi)) <= res.est_abs_error


# the t range is [-4, 2]: 13, 25, 49 and 97 nodes at steps 0.5 to 0.0625.
# The rule gives up at n nodes when the next step's 2 n - 1 pass the budget,
# and p^{-1/2} e^{-p} converges at 97 nodes
_T_BUDGETS = pytest.mark.parametrize(
    "budget, nodes", [(15, 25), (48, 25), (49, 49), (96, 49), (97, None)],
    ids=["15", "48", "49", "96", "97"])


def _at_t_budget(monkeypatch, budget, nodes, f):
    monkeypatch.setattr(quadrature, "_MAX_T_NODES", budget)
    if nodes is None:
        assert integrate_exp_sinh(f, CFG).evaluations == 1300
        return
    with pytest.raises(QuadratureError,
                       match=rf"unconverged at {nodes} nodes on \[-4, 2\]"):
        integrate_exp_sinh(f, CFG)


@_T_BUDGETS
def test_nonconvergence_raises_at_the_t_budget(monkeypatch, budget, nodes):
    _at_t_budget(monkeypatch, budget, nodes,
                 _radial(lambda q: np.exp(-q) / np.sqrt(q)))


def test_config_validation():
    assert QuadConfig._fields == ("abs_tol", "rel_tol")
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=math.nan)
    # rel_tol = inf makes a zero row's bound inf * 0 = NaN, which no gap meets
    for bad in ((math.inf, 1e-9), (1e-10, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            QuadConfig(*bad)
    with pytest.raises(ValueError, match="finite"):
        CFG._replace(abs_tol=math.inf)


def test_determinism():
    f = _radial(lambda x: x * x * np.exp(-x * x))
    r1 = integrate_exp_sinh(f, CFG)
    r2 = integrate_exp_sinh(f, CFG)
    assert r1.value == r2.value
    assert r1.est_abs_error == r2.est_abs_error
    assert r1.evaluations == r2.evaluations


def test_theta_rule_degree_of_exactness():
    # n-node Gauss-Legendre integrates x^k, x = 2 theta / pi - 1, exactly on
    # [-1, 1] up to degree 2n - 1
    for n in _THETA_LEVELS:
        thetas, weights = _theta_rule(n)
        x = 2.0 * thetas / math.pi - 1.0
        for k in range(2 * n):
            exact = (1.0 + (-1.0) ** k) / (k + 1.0)
            assert abs((2.0 / math.pi) * weights @ x ** k - exact) <= 1e-14
    thetas, weights = _theta_rule(8)
    x = 2.0 * thetas / math.pi - 1.0
    assert abs((2.0 / math.pi) * weights @ x ** 16 - 2.0 / 17.0) > 1e-6


def test_theta_rule_matches_leggauss():
    # the library's Newton iteration against NumPy's leggauss (companion
    # matrix eigenvalues), which the library does not import
    for n in _THETA_LEVELS:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        thetas, w = _theta_rule(n)
        assert np.max(np.abs(thetas - 0.5 * math.pi * (1.0 + nodes))) <= 1e-14
        assert np.max(np.abs(w - 0.5 * math.pi * weights)) <= 1e-14
        assert not (thetas.flags.writeable or w.flags.writeable)


def test_one_integrand_call_per_panel():
    # one call per t level and theta rule, on all the nodes the level adds:
    # the 17-node first t level at 8 theta nodes, the trimmed first level
    # once per theta rule the ladder tries, then each later level at the
    # kept count, with twice the new nodes of the level before
    calls = []

    def counted(p, th):
        calls.append((p.size, th.size))
        return p * p * np.sin(th) * np.exp(-p * p)

    res = integrate_exp_sinh(counted, CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
    assert calls[0] == (17, 8)
    assert res.evaluations == sum(n_p * n_th for n_p, n_th in calls)
    n_theta = calls[-1][1]
    assert n_theta > 8
    ladder = [n_th for _, n_th in calls]
    assert ladder == sorted(ladder)
    trimmed, *later = [n_p for n_p, n_th in calls if n_th == n_theta]
    assert len(later) >= 2
    assert later == [(trimmed - 1) << k for k in range(len(later))]


def test_2d_theta_rule_climbs_until_two_levels_agree():
    # k e^{-k theta} / (1 - e^{-k pi}) integrates to 1 over theta; with
    # k = 40 the 8- and 12-node sums miss it, and the kept count is the
    # finer of the first two that agree
    widths = []

    def f(p, th):
        widths.append(th.size)
        k = 40.0
        return np.exp(-p) * k * np.exp(-k * th) / -np.expm1(-k * math.pi)

    res = integrate_exp_sinh(f, CFG)
    assert res.value == pytest.approx(1.0, rel=1e-9)
    assert abs(res.value - 1.0) <= res.est_abs_error
    kept = widths[-1]
    below = _THETA_LEVELS[_THETA_LEVELS.index(kept) - 1]
    assert below > 12
    assert set(widths) == {n for n in _THETA_LEVELS if n <= kept}


_MISSHAPEN = {  # an integrand's values y on the (n_p, n_theta) grid, reshaped
    "reducing": np.sum,
    "column": lambda y: y[..., None],
    "rows_of_columns": lambda y: np.stack([y] * 2)[..., None],
}


@pytest.mark.parametrize("name", sorted(_MISSHAPEN))
def test_semi_infinite_rejects_misshapen_integrand(name):
    # every call is checked, not only the first: here the second call, on
    # the trimmed first t level at 12 theta nodes, returns the wrong shape
    calls = []

    def f(p, th):
        calls.append(p.size)
        y = np.exp(-p) * np.ones_like(th)
        return y if len(calls) == 1 else _MISSHAPEN[name](y)

    with pytest.raises(ValueError, match="shape"):
        integrate_exp_sinh(f, CFG)
    assert len(calls) == 2 and calls[0] == 17


_MISSHAPEN_2D = {  # on the (n_p, n_theta) grid of p and theta nodes
    "reducing": lambda p, th: np.sum(np.exp(-p - th)),
    "column": lambda p, th: np.exp(-p - th)[..., None],
    "rows_of_columns": lambda p, th: np.stack([np.exp(-p - th)] * 2)[..., None],
    "p_only": lambda p, th: np.exp(-p),
    "theta_only": lambda p, th: np.exp(-th),
}


@pytest.mark.parametrize("name", sorted(_MISSHAPEN_2D))
def test_2d_rejects_misshapen_integrand(name):
    with pytest.raises(ValueError, match="shape"):
        integrate_exp_sinh(_MISSHAPEN_2D[name], CFG)


def test_one_row_and_rows_give_arrays():
    # one entry per row, also for an integrand of shape (n, m)
    res = integrate_exp_sinh(_radial(lambda x: np.exp(-x)), CFG)
    assert res.value.shape == res.est_abs_error.shape == (1,)

    res = integrate_exp_sinh(
        lambda p, th: np.stack([np.exp(-p), p * np.exp(-p)])
        * np.ones_like(th) / math.pi, CFG)
    assert res.value.shape == res.est_abs_error.shape == (2,)
    assert res.value == pytest.approx([1.0, 1.0], rel=1e-9)


def test_2d_rows_and_control_rows():
    def two(p, th):
        return np.stack([np.exp(-p) * np.ones_like(th),
                         p * p * np.sin(th) * np.exp(-p * p)])

    res = integrate_exp_sinh(two, CFG)
    assert res.value.shape == res.est_abs_error.shape == (2,)
    assert res.value == pytest.approx([math.pi, math.sqrt(math.pi) / 2.0],
                                      rel=1e-9)
    # a row left out of control_rows rides along on the other row's nodes
    alone = integrate_exp_sinh(lambda p, th: two(p, th)[0], CFG)
    led = integrate_exp_sinh(two, CFG, control_rows=[0])
    assert led.evaluations == alone.evaluations
    assert led.value[0] == pytest.approx(alone.value, rel=1e-14)


def test_2d_row_error_holds_only_its_own_theta_error():
    # a ride-along row with a kink in theta has a large theta gap; it must
    # not enter the error of the smooth row that picks the rule
    def smooth(p, th):
        return np.exp(-p) * np.sin(th)

    def both(p, th):
        return np.stack([smooth(p, th), np.exp(-p) * np.abs(th - 1.0)])

    alone = integrate_exp_sinh(smooth, CFG)
    led = integrate_exp_sinh(both, CFG, control_rows=[0])
    assert led.evaluations == alone.evaluations
    assert led.value[0] == pytest.approx(alone.value, rel=1e-14)
    assert led.est_abs_error[0] == pytest.approx(alone.est_abs_error, rel=1e-12)
    assert led.est_abs_error[1] > 1e3 * led.est_abs_error[0]


@_T_BUDGETS
def test_2d_outer_budget_raises_at_the_t_budget(monkeypatch, budget, nodes):
    _at_t_budget(monkeypatch, budget, nodes,
                 lambda p, th: np.exp(-p) / np.sqrt(p) * np.sin(th))


def test_2d_inner_budget_raises():
    # theta^{-1/2} is not analytic at 0: the theta sums still disagree at
    # 64 nodes
    with pytest.raises(QuadratureError, match="theta"):
        integrate_exp_sinh(lambda p, th: np.exp(-p) / np.sqrt(th), CFG)


def test_exp_sinh_rejects_non_finite_sums():
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_exp_sinh(
            lambda p, th: np.where(p > 1.0, np.inf, 1.0) * np.ones_like(th))


def _read_only(f):
    def g(p, th):
        y = np.asarray(f(p, th), dtype=float)
        y.flags.writeable = False
        return y
    return g


@pytest.mark.parametrize("f", [
    _radial(lambda q: q * q * np.exp(-q)),
    lambda p, th: np.stack([np.exp(-p) * np.sin(th),
                            p * np.exp(-p) * np.cos(th) ** 2]),
], ids=["1d", "2d_rows"])
def test_read_only_integrand_returns_give_the_same_bits(f):
    # the rule only reads what an integrand returns, so dispersion_functional
    # may keep its rows for the re-check without a copy
    writable, read_only = (integrate_exp_sinh(g, CFG)
                           for g in (f, _read_only(f)))
    assert writable.value.tobytes() == read_only.value.tobytes()
    assert (writable.est_abs_error.tobytes()
            == read_only.est_abs_error.tobytes())
    assert writable.evaluations == read_only.evaluations
