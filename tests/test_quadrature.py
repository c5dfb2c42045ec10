"""Semi-infinite and 2D quadrature against closed forms and cross-checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from relhur import (
    QuadConfig,
    QuadratureError,
    QuadResult,
    bessel_k,
    integrate_2d,
    integrate_semi_infinite,
)
from relhur.quadrature import _G7_WEIGHTS, _K15_WEIGHTS, _NODES, integrate_trapezoid

CFG = QuadConfig()


def _tolerance(cfg, value):
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


def test_exponential_unit_integral():
    res = integrate_semi_infinite(lambda x: np.exp(-x), CFG)
    assert abs(res.value - 1.0) <= _tolerance(CFG, 1.0)
    assert res.est_abs_error >= 0.0
    assert res.evaluations > 0


def test_gaussian_second_moment():
    res = integrate_semi_infinite(lambda x: x * x * np.exp(-x * x), CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-10)


def test_relativistic_moment_matches_bessel():
    # integral_0^inf p^2 e^{-beta E_p} dp = (m^2/beta) K2(m beta), m=1.
    # Verify the identity itself with an unrelated integrator first.
    beta = 2.0
    ref, err = quad(lambda p: p * p * math.exp(-beta * math.hypot(1.0, p)),
                    0.0, 60.0, limit=200, epsabs=1e-13, epsrel=1e-12)
    k_form = bessel_k(2, beta) / beta
    assert abs(ref - k_form) <= 1e-9 * k_form + err

    res = integrate_semi_infinite(
        lambda p: p * p * np.exp(-beta * np.hypot(1.0, p)),
        QuadConfig(decay_scale=1.0))
    assert res.value == pytest.approx(0.5 * bessel_k(2, 2.0), rel=1e-9)


def test_2d_separable_gaussian():
    res = integrate_2d(lambda p, th: p * p * np.sin(th) * np.exp(-p * p),
                       CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)


def test_2d_theta_measure():
    res = integrate_2d(lambda p, th: np.exp(-p) * np.ones_like(th), CFG)
    assert res.value == pytest.approx(math.pi, rel=1e-9)


def test_linearity():
    f = lambda x: np.exp(-x)
    g = lambda x: x * np.exp(-x * x)
    a, b = 3.0, -2.0
    lhs = integrate_semi_infinite(lambda x: a * f(x) + b * g(x), CFG)
    fa = integrate_semi_infinite(f, CFG)
    gb = integrate_semi_infinite(g, CFG)
    combined_err = lhs.est_abs_error + abs(a) * fa.est_abs_error \
        + abs(b) * gb.est_abs_error
    assert abs(lhs.value - (a * fa.value + b * gb.value)) \
        <= combined_err + 1e-12


def test_positivity():
    res = integrate_semi_infinite(lambda x: x * np.exp(-3.0 * x), CFG)
    assert res.value > 0.0


def test_refinement_never_hurts():
    # halving tolerances must not move the result away from the oracle
    oracle = math.sqrt(math.pi) / 4.0
    f = lambda x: x * x * np.exp(-x * x)
    loose = integrate_semi_infinite(f, QuadConfig(abs_tol=1e-6, rel_tol=1e-5))
    tight = integrate_semi_infinite(f, QuadConfig(abs_tol=5e-7, rel_tol=5e-6))
    assert abs(tight.value - oracle) <= abs(loose.value - oracle) + 1e-15


def test_integrable_endpoint_singularity():
    # q^{-1/2} e^{-q}: Gamma(1/2) = sqrt(pi)
    res = integrate_semi_infinite(lambda q: np.exp(-q) / np.sqrt(q), CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-8)


def test_nonconvergence_carries_best_estimate():
    cfg = QuadConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=1)
    with pytest.raises(QuadratureError) as exc_info:
        integrate_semi_infinite(lambda q: np.exp(-q) / np.sqrt(q), cfg)
    best = exc_info.value.best
    assert best is not None
    assert best.value == pytest.approx(math.sqrt(math.pi), rel=0.2)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0).validated()
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=-1e-9).validated()
    with pytest.raises(ValueError):
        QuadConfig(max_subdivisions=0).validated()
    with pytest.raises(ValueError):
        QuadConfig(decay_scale=0.0).validated()


def test_determinism():
    f = lambda x: x * x * np.exp(-x * x)
    r1 = integrate_semi_infinite(f, CFG)
    r2 = integrate_semi_infinite(f, CFG)
    assert r1.value == r2.value
    assert r1.est_abs_error == r2.est_abs_error
    assert r1.evaluations == r2.evaluations


def test_kronrod_rule_degree_of_exactness():
    # K15 integrates x^k exactly on [-1, 1] up to degree 3 * 7 + 1 = 22
    for k in range(23):
        exact = (1.0 + (-1.0) ** k) / (k + 1.0)
        assert abs(_K15_WEIGHTS @ _NODES ** k - exact) <= 1e-15
    assert abs(_K15_WEIGHTS @ _NODES ** 24 - 2.0 / 25.0) > 1e-10


def test_gauss_rule_nested_on_odd_kronrod_nodes():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.all(_G7_WEIGHTS[::2] == 0.0)
    assert np.max(np.abs(_NODES[1::2] - nodes)) <= 1e-15
    assert np.max(np.abs(_G7_WEIGHTS[1::2] - weights)) <= 1e-15


def test_one_integrand_call_per_panel():
    # each panel evaluates its 15 Kronrod nodes, the Gauss nodes among
    # them, in a single call
    calls = []

    def counted(xs):
        calls.append(xs.size)
        return np.exp(-xs) / np.sqrt(xs)

    res = integrate_semi_infinite(counted, CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-8)
    assert set(calls) == {15}
    assert len(calls) > 1
    assert len(calls) == res.evaluations // 15
    assert res.evaluations % 15 == 0

    # 2D: one call per radial panel, on its 15 p nodes x 15 theta nodes,
    # as many calls as the radial integral alone has panels
    def counted_2d(p, ths):
        calls.append(np.broadcast_shapes(p.shape, ths.shape))
        return np.exp(-p) * np.ones_like(ths)

    calls.clear()
    res = integrate_2d(counted_2d, CFG)
    assert res.value == pytest.approx(math.pi, rel=1e-9)
    assert set(calls) == {(15, 15)}
    assert len(calls) == res.evaluations // 225
    assert res.evaluations % 225 == 0
    radial = integrate_semi_infinite(lambda p: math.pi * np.exp(-p), CFG)
    assert len(calls) == radial.evaluations // 15


def test_2d_refines_theta_only_where_the_first_panel_misses():
    # k e^{-k theta} / (1 - e^{-k pi}) integrates to 1 over theta for every
    # k; with k = 40 / (1 + p^2) the first theta panel resolves it at large
    # p and misses it at small p, so only some p nodes of a panel refine
    batched, refined = set(), set()

    def f(p, th):
        (batched if p.size > 1 else refined).update(p.ravel().tolist())
        k = 40.0 / (1.0 + p * p)
        return np.exp(-p) * k * np.exp(-k * th) / -np.expm1(-k * math.pi)

    res = integrate_2d(f, CFG)
    assert res.value == pytest.approx(1.0, rel=1e-9)
    assert abs(res.value - 1.0) <= res.est_abs_error
    assert refined and refined < batched
    assert max(refined) < max(batched)


_MISSHAPEN = {  # on the nodes of one panel
    "reducing": lambda xs: np.sum(np.exp(-xs)),
    "column": lambda xs: np.exp(-xs)[:, None],
    "rows_of_columns": lambda xs: np.stack([np.exp(-xs)] * 2)[:, :, None],
}


@pytest.mark.parametrize("name", sorted(_MISSHAPEN))
def test_semi_infinite_rejects_misshapen_integrand(name):
    with pytest.raises(ValueError, match="shape"):
        integrate_semi_infinite(_MISSHAPEN[name], CFG)


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
        integrate_2d(_MISSHAPEN_2D[name], CFG)


def test_one_row_gives_a_float_and_rows_give_arrays():
    res = integrate_semi_infinite(lambda x: np.exp(-x), CFG)
    assert isinstance(res.value, np.floating)
    assert isinstance(res.est_abs_error, np.floating)

    res = integrate_semi_infinite(
        lambda x: np.stack([np.exp(-x), x * np.exp(-x)]), CFG)
    assert res.value.shape == res.est_abs_error.shape == (2,)
    assert res.value == pytest.approx([1.0, 1.0], rel=1e-9)


def test_2d_rows_and_control_rows():
    def two(p, th):
        return np.stack([np.exp(-p) * np.ones_like(th),
                         p * p * np.sin(th) * np.exp(-p * p)])

    res = integrate_2d(two, CFG)
    assert res.value.shape == res.est_abs_error.shape == (2,)
    assert res.value == pytest.approx([math.pi, math.sqrt(math.pi) / 2.0],
                                      rel=1e-9)
    # a row left out of control_rows rides along on the other row's panels
    alone = integrate_2d(lambda p, th: two(p, th)[0], CFG)
    led = integrate_2d(two, CFG, control_rows=[0])
    assert led.evaluations == alone.evaluations
    assert led.value[0] == pytest.approx(alone.value, rel=1e-14)


def test_2d_row_error_holds_only_its_own_theta_error():
    # a ride-along row with a kink in theta has large inner errors; they
    # must not enter the error of the smooth row that drives refinement
    def smooth(p, th):
        return np.exp(-p) * np.sin(th)

    def both(p, th):
        return np.stack([smooth(p, th), np.exp(-p) * np.abs(th - 1.0)])

    alone = integrate_2d(smooth, CFG)
    led = integrate_2d(both, CFG, control_rows=[0])
    assert led.evaluations == alone.evaluations
    assert led.value[0] == pytest.approx(alone.value, rel=1e-14)
    assert led.est_abs_error[0] == pytest.approx(alone.est_abs_error, rel=1e-12)
    assert led.est_abs_error[1] > 1e3 * led.est_abs_error[0]


def test_2d_outer_budget_carries_whole_domain_best():
    calls = []

    def f(p, th):
        calls.append(p.size * th.size)
        return np.exp(-p) / np.sqrt(p) * np.ones_like(th)

    cfg = QuadConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=1)
    with pytest.raises(QuadratureError) as exc_info:
        integrate_2d(f, cfg)
    best = exc_info.value.best
    assert isinstance(best, QuadResult)
    assert best.value == pytest.approx(math.pi ** 1.5, rel=0.2)
    assert best.est_abs_error > 0.0
    assert best.evaluations == sum(calls)


def test_2d_inner_budget_carries_no_best():
    cfg = QuadConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=1)
    with pytest.raises(QuadratureError) as exc_info:
        integrate_2d(lambda p, th: np.exp(-p) / np.sqrt(th), cfg)
    assert exc_info.value.best is None


def test_trapezoid_gaussian_times_cos_polynomial():
    # e^{-t^2} is entire and negligible beyond |t| = 8; c^2 integrates to 2/3
    calls = []

    def f(t, c):
        calls.append(t.size * c.size)
        return np.exp(-t * t) * c * c

    res = integrate_trapezoid(f, -8.0, 8.0, 0.5, CFG)
    exact = math.sqrt(math.pi) * 2.0 / 3.0
    assert res.value == pytest.approx(exact, rel=1e-15)
    assert abs(res.value - exact) <= res.est_abs_error <= 1e-9 * exact
    assert res.evaluations == sum(calls)
    assert len(calls) >= 2  # one halving at least: the gap is measured


def test_trapezoid_half_weight_on_an_endpoint_node():
    # [0, 8] starts at the node t = 0, which carries half weight
    res = integrate_trapezoid(lambda t, c: np.exp(-t * t) + 0.0 * c,
                              0.0, 8.0, 0.25, CFG)
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_trapezoid_cos_rule_exact_to_degree_15():
    def f(t, c):
        return np.stack([np.exp(-t * t) * c ** k for k in range(17)])

    res = integrate_trapezoid(f, -8.0, 8.0, 0.5, CFG)
    ratio = res.value / math.sqrt(math.pi)
    for k in range(16):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert ratio[k] == pytest.approx(exact, abs=1e-15)
    assert abs(ratio[16] - 2.0 / 17) > 1e-6  # degree 16 is not exact


def test_trapezoid_budget_carries_best():
    # sqrt(t) is not analytic at t = 0, so the sums converge like h^1.5
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=2)
    with pytest.raises(QuadratureError, match="unconverged") as exc_info:
        integrate_trapezoid(lambda t, c: np.sqrt(t) + 0.0 * c,
                            0.0, 1.0, 0.25, cfg)
    best = exc_info.value.best
    assert isinstance(best, QuadResult)
    assert best.value == pytest.approx(4.0 / 3.0, rel=1e-2)
    assert abs(best.value - 4.0 / 3.0) <= best.est_abs_error
    assert best.evaluations == 8 * 17  # 17 nodes on the 1/16 step


def test_trapezoid_rejects_non_finite_sums():
    with pytest.raises(QuadratureError, match="not finite") as exc_info:
        integrate_trapezoid(lambda t, c: np.where(t > 0.5, np.inf, 1.0) + 0.0 * c,
                            0.0, 1.0, 0.25)
    assert exc_info.value.best is None
