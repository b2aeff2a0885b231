import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dampedwave import quadrature, solution
from dampedwave.initial_data import InitialDatum, SmoothBump, make_datum
from dampedwave.kernels import kernel_deriv_at_zero
from dampedwave.oracles import spectral_solve
from dampedwave.quadrature import QuadratureConvergenceError
from dampedwave.solution import (FieldSample, _sums, dimension_constants,
                                 error_decay_diagnostic, eval_dir2_u, eval_grad_u,
                                 eval_principal_general_n, eval_u, heat_eval,
                                 wave_factor)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_dimension_constants():
    c1 = dimension_constants(1)
    c2 = dimension_constants(2)
    c3 = dimension_constants(3)
    assert (c1.parity, c1.ell) == ("odd", 0)
    assert (c2.parity, c2.ell) == ("even", 1)
    assert (c3.parity, c3.ell) == ("odd", 1)
    assert c1.gamma == pytest.approx(0.5, rel=1e-15)
    assert c2.gamma == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
    assert c3.gamma == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-15)


def test_wave_factor_underflow_guard():
    assert wave_factor(10.0) == pytest.approx(math.exp(-5.0), rel=1e-15)
    assert wave_factor(2000.0) == 0.0


def test_sample_decomposition_identity(two_2d):
    # value = principal + wave_remainder holds exactly, not to tolerance.
    for x, t in (([0.2, 0.1], 3.0), ([1.0, -1.0], 12.0), ([6.0, 2.0], 7.5)):
        sample = eval_u(two_2d, np.array(x), t)
        assert isinstance(sample, FieldSample)
        assert sample.value == sample.principal + sample.wave_remainder


def test_small_time_recovers_datum(single_1d, two_2d):
    for datum, x in ((single_1d, np.array([0.2])),
                     (two_2d, np.array([0.3, 0.1]))):
        t = 0.01
        u = eval_u(datum, x, t).value
        f = datum.value(x)
        assert u == pytest.approx(f, abs=0.02 * max(1.0, abs(f)))


def test_pde_residual_under_fd(single_1d, two_2d):
    # u_tt - Lap u + u_t = 0 via central differences in t and x.
    h = 1e-3
    cases = ((single_1d, np.array([0.4]), 2.5),
             (two_2d, np.array([0.5, 0.2]), 3.0))
    for datum, x, t in cases:
        n = datum.dimension
        u0 = eval_u(datum, x, t).value
        utp = eval_u(datum, x, t + h).value
        utm = eval_u(datum, x, t - h).value
        u_tt = (utp - 2.0 * u0 + utm) / (h * h)
        u_t = (utp - utm) / (2.0 * h)
        lap = 0.0
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            lap += (eval_u(datum, x + e, t).value - 2.0 * u0
                    + eval_u(datum, x - e, t).value) / (h * h)
        residual = u_tt - lap + u_t
        scale = abs(u_tt) + abs(lap) + abs(u_t) + 1e-12
        assert abs(residual) / scale < 1e-3, (datum.dimension, residual)


def test_linearity_over_bumps():
    b1 = SmoothBump((-0.5,), 0.7, 1.0)
    b2 = SmoothBump((0.9,), 0.4, 0.6)
    both = make_datum([b1, b2], 1)
    first = make_datum([b1], 1)
    second = make_datum([b2], 1)
    for x, t in ((np.array([0.3]), 4.0), (np.array([-2.0]), 9.0)):
        s_both = eval_u(both, x, t)
        s1 = eval_u(first, x, t)
        s2 = eval_u(second, x, t)
        assert s_both.value == pytest.approx(s1.value + s2.value,
                                             rel=1e-13, abs=1e-16)


def test_translation_invariance():
    base = make_datum([SmoothBump((0.0, 0.0), 1.0, 1.0)], 2)
    moved = make_datum([SmoothBump((3.0, -2.0), 1.0, 1.0)], 2)
    shift = np.array([3.0, -2.0])
    for x, t in ((np.array([0.5, 0.2]), 6.0), (np.array([2.0, 1.0]), 11.0)):
        a = eval_u(base, x, t).value
        b = eval_u(moved, x + shift, t).value
        assert b == pytest.approx(a, rel=1e-12, abs=1e-18)


def test_gradient_matches_fd(two_2d, two_3d):
    h = 1e-4
    # In 3D both bumps meet the sphere of radius t around x.
    cases = ((two_2d, np.array([0.5, 0.1]), 3.0),
             (two_2d, np.array([2.5, 1.0]), 8.0),
             (two_3d, np.array([0.6, -0.3, 0.2]), 1.5))
    for datum, x, t in cases:
        n = datum.dimension
        grad = eval_grad_u(datum, x, t)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (eval_u(datum, x + e, t).value
                  - eval_u(datum, x - e, t).value) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=5e-6, abs=1e-9)


def test_dir2_matches_fd(two_2d, two_3d):
    rng = np.random.default_rng(6)

    def second_diff(datum, x, t, w, h):
        return (eval_u(datum, x + h * w, t).value
                - 2.0 * eval_u(datum, x, t).value
                + eval_u(datum, x - h * w, t).value) / (h * h)

    cases = ((two_2d, np.array([0.5, 0.1]), 3.0),
             (two_2d, np.array([1.5, -0.5]), 7.0),
             (two_3d, np.array([0.6, -0.3, 0.2]), 1.5))
    for datum, x, t in cases:
        w = rng.normal(size=datum.dimension)
        w /= np.linalg.norm(w)
        # Second derivatives at short times need more nodes than the default.
        d2 = eval_dir2_u(datum, x, t, w, order=128)
        coarse = second_diff(datum, x, t, w, 1e-3)
        fine = second_diff(datum, x, t, w, 5e-4)
        fd = (4.0 * fine - coarse) / 3.0
        assert d2 == pytest.approx(fd, rel=5e-6, abs=1e-10)


# Principal part of the unit 2D bump at x = (dist, 0), keyed by (dist, t),
# from the clipped-ball rule at order 512 (within 2e-13 of order 1024). The
# 2D evaluator's principal part now runs on the radial rule too, so these
# literals are the independent reference for it.
CLIPPED_BALL_PRINCIPAL_2D = {
    (0.0, 6.0): -0.0029602842226777895,
    (0.5, 6.0): -0.002930901685956131,
    (1.7, 6.0): -0.002631508582769802,
    (4.0, 9.0): -0.0007624420046577923,
}


def test_radial_path_matches_direct(single_3d):
    single_2d = make_datum([SmoothBump((0.0, 0.0), 1.0, 1.0)], 2)
    for (dist, t), direct in CLIPPED_BALL_PRINCIPAL_2D.items():
        x = np.array([dist, 0.0])
        radial = eval_principal_general_n(single_2d, x, t)
        assert radial == pytest.approx(direct, rel=1e-9, abs=1e-16)
        assert eval_u(single_2d, x, t).principal == radial
    # The same geometry in 3D.
    for dist, t in CLIPPED_BALL_PRINCIPAL_2D:
        x = np.array([dist, 0.0, 0.0])
        direct = eval_u(single_3d, x, t).principal
        radial = eval_principal_general_n(single_3d, x, t)
        assert radial == pytest.approx(direct, rel=1e-9, abs=1e-16)


def test_radial_path_rejects_unsupported(monkeypatch):
    # The principal part alone reaches any dimension. The full field, its
    # gradient and dir2, the heat smoothing, the radial field and the decay
    # diagnostic stop at three, at every t and before any rule is built:
    # where exp(-t/2) is 0 no wave term is computed, and the principal part
    # alone would pass for u.
    def no_rule(*args, **kwargs):
        raise AssertionError("a rule was built")

    for n in (4, 5):
        datum = make_datum([SmoothBump((0.0,) * n, 1.0, 1.0)], n)
        x = np.full(n, 0.2)
        for t in (5.0, 10.0, 1600.0):
            assert eval_principal_general_n(datum, x, t) != 0.0
            calls = [lambda: eval_u(datum, x, t), lambda: eval_grad_u(datum, x, t),
                     lambda: eval_dir2_u(datum, x, t, np.eye(n)[0]),
                     lambda: heat_eval(datum, x, t), lambda: solution.RadialField(datum, t, 8),
                     lambda: error_decay_diagnostic(datum, [t])]
            with monkeypatch.context() as patch:
                patch.setattr(solution, "_radial_rule", no_rule)
                patch.setattr(solution, "interval_nodes", no_rule)
                for call in calls:
                    with pytest.raises(ValueError, match="full field evaluation supports"):
                        call()


def test_general_n_principal_adds_bumps():
    first = SmoothBump((0.0,) * 4, 1.0, 1.0)
    second = SmoothBump((3.0, 0.0, 0.0, 0.0), 0.5, 1.0)
    x = np.array([1.5, 0.3, 0.0, 0.0])
    for t in (2.0, 5.0):
        parts = [eval_principal_general_n(make_datum([b], 4), x, t)
                 for b in (first, second)]
        assert all(p != 0.0 for p in parts)
        both = eval_principal_general_n(make_datum([first, second], 4), x, t)
        assert both == pytest.approx(sum(parts), rel=1e-14)


def test_general_n_principal_is_eval_u_principal(two_1d, two_2d, two_3d):
    # In every dimension both run the same per-bump rule in the same order.
    cases = ((two_1d, (0.6,), 1.5), (two_1d, (2.5,), 10.0),
             (two_2d, (0.6, -0.3), 1.5), (two_2d, (3.8, -3.2), 6.0),
             (two_2d, (1.2, 0.4), 3200.0),
             (two_3d, (0.6, -0.3, 0.2), 2.5), (two_3d, (3.8, -3.2, 2.0), 6.0))
    for datum, x, t in cases:
        x = np.array(x)
        assert eval_principal_general_n(datum, x, t) == eval_u(datum, x, t).principal


def test_matches_spectral_oracle_3d(single_3d):
    t = 5.0
    run = spectral_solve(single_3d, t, 8.0, 64)
    rng = np.random.default_rng(7)
    # Grid nodes only: interpolation is exact there, so the comparison sees
    # pure solver disagreement.
    checked = 0
    worst = 0.0
    while checked < 40:
        x = np.array([ax[rng.integers(ax.size)] for ax in run.axes])
        if np.linalg.norm(x) > 6.5:
            continue
        exact = eval_u(single_3d, x, t).value
        oracle = float(run.interpolate(x[None, :])[0])
        worst = max(worst, abs(exact - oracle))
        checked += 1
    assert worst < 3e-4


def test_refinement_check_flags_underresolution(two_2d, two_3d):
    x = np.array([0.5, 0.1])
    with pytest.raises(QuadratureConvergenceError):
        eval_grad_u(two_2d, x, 3.0, order=24, check=True)
    grad = eval_grad_u(two_2d, x, 3.0, order=96, check=True)
    assert np.all(np.isfinite(grad))
    x3 = np.zeros(3)
    omega = np.array([0.48, -0.6, 0.64])
    evaluators = (lambda o: eval_u(two_3d, x3, 2.5, order=o, check=True).value,
                  lambda o: eval_grad_u(two_3d, x3, 2.5, order=o, check=True),
                  lambda o: eval_dir2_u(two_3d, x3, 2.5, omega, order=o, check=True))
    for evaluate in evaluators:
        with pytest.raises(QuadratureConvergenceError):
            evaluate(8)
        assert np.all(np.isfinite(evaluate(64)))


# Two-bump 3D datum (the two_3d fixture): u, grad u and the second derivative
# along FROZEN_OMEGA, recorded at quadrature order 128 with the earlier 3D
# rule (a direction cone times a clipped chord per bump, and sphere caps in
# direction cosine and azimuth). Rows: the centre of a ball (d = 0), a point
# inside a ball, a point outside both; t = 1.5, 2.5 and 6 put a bump on the
# sphere of radius t around x, t = 200 is the late-time regime. At x = 0,
# t = 1.5 only the ball centred at x is reached, so the gradient is zero by
# symmetry.
FROZEN_OMEGA = np.array([0.48, -0.6, 0.64])
FROZEN_3D = (
    ((0.0, 0.0, 0.0), 1.5, -0.002439325166782045,
     [0.0, 0.0, 0.0],
     0.00015974838920283365),
    ((0.0, 0.0, 0.0), 2.5, -0.010784484429064194,
     [-0.024667913371348864, -0.012333956685674372, 0.006166978342837231],
     0.012499757520622694),
    ((0.0, 0.0, 0.0), 6.0, -0.00037242605641465715,
     [-5.0418540122437375e-06, -2.5209270061218976e-06, 1.2604635030585805e-06],
     2.3481322317345907e-05),
    ((0.0, 0.0, 0.0), 200.0, -8.021168765599191e-08,
     [-7.638980076290198e-11, -3.8194900381451106e-11, 1.909745019071189e-11],
     3.2753746591823264e-10),
    ((0.6, -0.3, 0.2), 1.5, -0.048736606343890126,
     [-0.3891109820986534, 0.19455738084138158, -0.12970476307824996],
     0.7699997704606739),
    ((0.6, -0.3, 0.2), 2.5, -0.003706770224127117,
     [0.05182774370210452, 0.048044569256713215, -0.025866509412161773],
     -0.08957915445614535),
    ((0.6, -0.3, 0.2), 6.0, -0.00036873211174451927,
     [8.837448725580387e-06, -9.579853769208223e-06, 5.956475062270236e-06],
     2.299389320697556e-05),
    ((0.6, -0.3, 0.2), 200.0, -8.016204632182802e-08,
     [1.1988752147868407e-10, -1.364777600913081e-10, 8.460734011487468e-11],
     3.269803440926924e-10),
    ((3.8, -3.2, 2.0), 6.0, -0.0015459407922512338,
     [-0.001814825665346689, 0.001524145825378191, -0.0009527833956735264],
     0.027498231803031424),
    ((3.8, -3.2, 2.0), 200.0, -7.575186338794856e-08,
     [1.1133811617348481e-09, -1.0363594739210754e-09, 6.431248392969073e-10],
     2.8552692015333093e-10),
)


def test_frozen_3d_values(two_3d):
    for x, t, u, grad, d2 in FROZEN_3D:
        x = np.array(x)
        assert eval_u(two_3d, x, t).value == pytest.approx(u, rel=1e-10, abs=0.0)
        gap = np.linalg.norm(eval_grad_u(two_3d, x, t) - np.array(grad))
        # A gradient that vanishes by symmetry is measured against |u|.
        scale = np.linalg.norm(grad) or abs(u)
        assert gap <= 1e-10 * scale, (x, t, gap)
        assert eval_dir2_u(two_3d, x, t, FROZEN_OMEGA) == pytest.approx(d2, rel=1e-10,
                                                                        abs=0.0)


# Two-bump 1D datum (the two_1d fixture): u, its wave remainder, grad u and
# the second derivative, recorded at quadrature order 256 with the earlier 1D
# rule (the clipped-ball rule on the chord of each of the two rays, and
# d'Alembert values from the datum). Rows: the centre of a bump, a point
# inside the other, a point outside both; x - t or x + t lies in a bump at
# t = 1.5 and, in the last row, at t = 10.
FROZEN_1D = (
    ((-0.5,), 1.5, 0.043161962530376005, 0.13257066287535757,
     -0.2332452716347106, -2.0582334160175733),
    ((-0.5,), 10.0, -0.005370344829743794, 0.0,
     -0.00022104409193999757, 0.0006244106333355431),
    ((-0.5,), 400.0, -2.001863624050241e-05, 0.0,
     -2.667121527538329e-08, 7.464231650868571e-08),
    ((0.6,), 1.5, 0.057978555082425276, 0.14543941578971492,
     0.5779934714990216, -1.7975287730694802),
    ((0.6,), 10.0, -0.0052340648651186435, 0.0,
     0.0004648833732612389, 0.0006029852124476225),
    ((0.6,), 400.0, -2.0002807561867224e-05, 0.0,
     5.54326759026407e-08, 7.454439676692572e-08),
    ((2.5,), 1.5, 0.12607967761036845, 0.13257066287535757,
     -0.14564936779251392, -2.1881987017756814),
    ((2.5,), 10.0, -0.003392762267357822, 0.0,
     0.0013823854463203664, 0.00031891335868801515),
    ((2.5,), 400.0, -1.9763573982161863e-05, 0.0,
     1.9592408848277705e-07, 7.306708937884358e-08),
    ((9.6,), 10.0, 0.004994435806144779, 0.003299512614829304,
     -0.004050086946118565, -0.013255641519030277),
)


def test_frozen_1d_values(two_1d):
    omega = np.array([1.0])
    for x, t, u, wave, grad, d2 in FROZEN_1D:
        x = np.array(x)
        sample = eval_u(two_1d, x, t, order=64)
        assert sample.value == pytest.approx(u, rel=1e-10, abs=0.0)
        assert sample.wave_remainder == pytest.approx(wave, rel=1e-10, abs=0.0)
        assert eval_grad_u(two_1d, x, t, order=64)[0] == pytest.approx(grad, rel=1e-10,
                                                                       abs=0.0)
        assert eval_dir2_u(two_1d, x, t, omega, order=64) == pytest.approx(d2, rel=1e-10,
                                                                           abs=0.0)


@pytest.mark.parametrize("t", [1.5, 10.0])
def test_1d_remainder_is_dalembert(two_1d, t):
    # The raw remainder, its gradient and dir2 are the d'Alembert means of f,
    # f' and f'' at x +- t. Points are placed so that x + t or x - t lies in
    # a bump. Gaps are measured against the largest value over the points:
    # near a support edge a pointwise ratio means nothing.
    omega = np.array([1.0])
    inside = np.concatenate([np.linspace(-1.15, 0.15, 9), np.linspace(0.55, 1.25, 7)])
    xs = np.concatenate([inside - t, inside + t])
    got = []
    want = []
    for x in xs:
        pt = np.array([x])
        block = pt[None, :]
        got.append((_sums(0, two_1d, t, block, 64, True)[1][0],
                    _sums(1, two_1d, t, block, 64, True)[1][0, 0],
                    _sums(2, two_1d, t, block, 64, True, omega[None, :])[1][0]))
        want.append((0.5 * (two_1d.value(pt + t) + two_1d.value(pt - t)),
                     0.5 * (two_1d.gradient(pt + t)[0] + two_1d.gradient(pt - t)[0]),
                     0.5 * (two_1d.dir2(pt + t, omega) + two_1d.dir2(pt - t, omega))))
    got, want = np.array(got), np.array(want)
    scale = np.abs(want).max(axis=0)
    assert np.all(scale > 0.0)
    gap = np.abs(got - want).max(axis=0)
    assert np.all(gap <= 1e-12 * scale), gap / scale


def test_1d_runs_on_radial_rule(two_1d, two_2d, monkeypatch):
    # 1D reaches neither the clipped-ball rule nor point values of the datum.
    def refuse(*args, **kwargs):
        raise AssertionError("left the radial rule")

    monkeypatch.setattr(solution, "clipped_ball_nodes", refuse)
    monkeypatch.setattr(quadrature, "clipped_ball_nodes", refuse)
    for name in ("value", "gradient", "dir2"):
        monkeypatch.setattr(InitialDatum, name, refuse)
    x = np.array([0.6])
    for t in (1.5, 10.0):
        assert math.isfinite(eval_u(two_1d, x, t).value)
        assert np.all(np.isfinite(eval_grad_u(two_1d, x, t)))
        assert math.isfinite(eval_dir2_u(two_1d, x, t, np.array([1.0])))
    # The patch is live: the 2D wave terms still run on the clipped-ball rule.
    with pytest.raises(AssertionError):
        eval_u(two_2d, np.array([0.2, 0.1]), 1.5)


def test_2d_principal_runs_on_radial_rule(two_2d, monkeypatch):
    # Where exp(-t/2) is 0, the 2D field is its principal part alone, and
    # that runs on the radial rule: no clipped-ball node is built.
    def refuse(*args, **kwargs):
        raise AssertionError("built clipped-ball nodes")

    monkeypatch.setattr(solution, "clipped_ball_nodes", refuse)
    x = np.array([1.2, 0.4])
    sample = eval_u(two_2d, x, 3200.0)
    assert sample.wave_remainder == 0.0
    assert sample.value == pytest.approx(-1.223661744821999e-08, rel=1e-12)
    # The gradient's and dir2's wave and damped terms run on the radial
    # rule too, where exp(-t/2) > 0.
    assert np.all(np.isfinite(eval_grad_u(two_2d, x, 1.5)))
    assert math.isfinite(eval_dir2_u(two_2d, x, 1.5, FROZEN_2D_OMEGA))
    # The patch is live: u's two wave-weighted integrals still use it.
    with pytest.raises(AssertionError):
        eval_u(two_2d, x, 1.5)


# Each public evaluator, called with a point, a time and an order; dir2
# along the first axis.
EVALUATORS = {
    "eval_u": eval_u,
    "eval_grad_u": eval_grad_u,
    "eval_dir2_u": lambda d, x, t, **kw: eval_dir2_u(d, x, t, np.eye(d.dimension)[0], **kw),
    "eval_principal_general_n": eval_principal_general_n,
    "heat_eval": heat_eval,
}
BAD_INPUTS = {
    "t_negative": ("two_1d", [0.3], -1.0, 64),
    "t_zero": ("two_2d", [0.2, 0.1], 0.0, 64),
    "t_nan": ("two_1d", [0.3], math.nan, 64),
    "t_inf": ("two_2d", [0.2, 0.1], math.inf, 64),
    "x_nan": ("two_2d", [0.2, math.nan], 2.0, 64),
    "x_inf": ("two_1d", [-math.inf], 2.0, 64),
    "order_zero": ("two_2d", [0.2, 0.1], 2.0, 0),
    "order_negative": ("two_1d", [0.3], 2.0, -3),
    # Past t = 2e6, s = t/2 leaves the kernels' checked range; at t = 3e9
    # ive, and with it 1D and 3D u, is NaN.
    "t_past_range_1d": ("two_1d", [0.3], 3e9, 64),
    "t_past_range_3d": ("two_3d", [0.2, 0.2, 0.2], 3e9, 64),
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
def test_evaluators_reject_bad_inputs(evaluator, bad, request):
    name, x, t, order = BAD_INPUTS[bad]
    datum = request.getfixturevalue(name)
    with pytest.raises(ValueError):
        EVALUATORS[evaluator](datum, np.array(x), t, order=order)


def test_time_range_ends_at_2e6(two_1d, two_3d):
    # The last t whose kernel arguments s <= t/2 stay in the checked range.
    for datum in (two_1d, two_3d):
        x = np.full(datum.dimension, 0.2)
        assert math.isfinite(eval_u(datum, x, 2e6).value)
        assert np.all(np.isfinite(eval_grad_u(datum, x, 2e6)))
        with pytest.raises(ValueError, match="at most 2e"):
            eval_u(datum, x, math.nextafter(2e6, math.inf))


@pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
def test_empty_block_with_check(evaluator, two_1d, two_2d, two_3d):
    # An empty (0, n) block has nothing to check: with the check each
    # evaluator gives the empty results it gives without.
    for datum in (two_1d, two_2d, two_3d):
        x = np.empty((0, datum.dimension))
        outs = [EVALUATORS[evaluator](datum, x, 10.0, order=8, check=check)
                for check in (False, True)]
        plain, checked = ([out.value, out.principal, out.wave_remainder]
                          if isinstance(out, FieldSample) else [out] for out in outs)
        for want, got in zip(plain, checked):
            assert got.shape == want.shape
            assert want.shape in ((0,), (0, datum.dimension))


@pytest.mark.parametrize("omega", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 0.0]])
def test_dir2_rejects_bad_direction(two_2d, omega):
    with pytest.raises(ValueError):
        eval_dir2_u(two_2d, np.array([0.2, 0.1]), 2.0, np.array(omega))


# Two-bump 2D datum (the two_2d fixture): u, its wave remainder, grad u and
# the second derivative along FROZEN_2D_OMEGA at quadrature order 64. Rows:
# the centre of a ball, a point inside a ball, a point outside both; t = 1.5
# reaches part of the data, t = 400 leaves exp(-t/2) tiny but nonzero, and
# at t = 3200 it underflows to zero, so the remainder is exactly 0. The grad
# and dir2 entries at t = 1.5 and 10 were recorded once their wave and damped
# terms ran on the radial rule; each is within 3.3e-11 relative of order 512.
FROZEN_2D_OMEGA = np.array([0.6, -0.8])
FROZEN_2D = (
    ((0.0, 0.0), 1.5, -0.03575913907143463, -0.028613679365122734,
     [0.1727576830362565, 0.09717619670789428],
     -0.2604736279074086),
    ((0.0, 0.0), 10.0, -0.0012164319820247614, 0.00011012365789868138,
     [-2.5328003052072174e-05, -1.4247001716790595e-05],
     8.560774540521155e-05),
    ((0.0, 0.0), 400.0, -7.824819524473235e-07, 4.292669816927686e-89,
     [-6.039694302278665e-10, -3.397328045031754e-10],
     1.941625962033437e-09),
    ((0.0, 0.0), 3200.0, -1.2237976757335062e-08, 0.0,
     [-1.1908213006293133e-12, -6.698369816039868e-13],
     3.820803224241593e-12),
    ((1.2, 0.4), 1.5, -0.02465373239630285, -0.020012293301147968,
     [0.2626716486546337, 0.10013402068124848],
     0.1141833557940294),
    ((1.2, 0.4), 10.0, -0.0011857264653938812, 0.00011039569955778682,
     [7.419229801158032e-05, 1.8541638738828354e-05],
     8.384735565153315e-05),
    ((1.2, 0.4), 400.0, -7.817909685071751e-07, 4.29267936045402e-89,
     [1.7228374712525038e-09, 4.354896192153013e-10],
     1.939906454234901e-09),
    ((1.2, 0.4), 3200.0, -1.223661744821999e-08, 0.0,
     [3.3933604111903694e-12, 8.581290577521545e-13],
     3.820375547455158e-12),
    ((2.6, -0.4), 1.5, 0.054788516710001865, 0.054937828727506015,
     [0.03914624263403878, -0.05089011542425042],
     -0.9554341459284709),
    ((2.6, -0.4), 10.0, -0.0009975628830349423, 0.00011226028266585558,
     [0.00017209384967111153, -4.489094113756958e-05],
     6.47187504619143e-05),
    ((2.6, -0.4), 400.0, -7.772155562105906e-07, 4.292742776247579e-89,
     [4.418623416827288e-09, -1.1127119336295226e-09],
     1.9198541123102295e-09),
    ((2.6, -0.4), 3200.0, -1.2227589262422541e-08, 0.0,
     [8.73687826568108e-12, -2.1972432518562857e-12],
     3.815371272246868e-12),
)


def test_frozen_2d_values(two_2d):
    for x, t, u, wave, grad, d2 in FROZEN_2D:
        x = np.array(x)
        sample = eval_u(two_2d, x, t, order=64)
        assert sample.value == pytest.approx(u, rel=1e-12, abs=0.0)
        assert sample.wave_remainder == pytest.approx(wave, rel=1e-12, abs=0.0)
        if t == 3200.0:
            assert sample.wave_remainder == 0.0
        np.testing.assert_allclose(eval_grad_u(two_2d, x, t, order=64), grad,
                                   rtol=1e-12, atol=0.0)
        assert eval_dir2_u(two_2d, x, t, FROZEN_2D_OMEGA, order=64) == pytest.approx(
            d2, rel=1e-12, abs=0.0)


def test_one_profile_pass_per_bump_2d(two_2d, monkeypatch):
    # Each bump reached from a chunk of rows gets one radial rule and, where
    # the wave or damped terms are computed, u's clipped-ball nodes per chord
    # pass or grad's and dir2's ball rule at twice the order. Each rule's
    # nodes go through in slices of at most _SLICE_NODES angular nodes, with
    # one pass of the profile table a slice. Every term at one node set
    # (value, gradient, Hessian and third derivative of f) comes from that
    # one pass. Every row below reaches both bumps at t = 10; the block runs
    # in two chunks of three rows, in chord passes of one row, and in slices
    # of 12 radial nodes at order 16 and 6 at order 32, which cut every
    # row's radial nodes.
    order = 16
    monkeypatch.setattr(solution, "_SLICE_NODES", 4 * order * 3)
    passes = []
    node_sets = []
    g_table = SmoothBump._g_table
    radial_rule = solution._radial_rule
    angular_rule = solution._angular_rule
    clipped = solution.clipped_ball_nodes

    def counted_table(self, gap, top, out=None):
        passes.append(gap.size)
        return g_table(self, gap, top, out)

    def counted_radial(bump, dist, t, rule_order, **kwargs):
        out = radial_rule(bump, dist, t, rule_order, **kwargs)
        if out is not None:
            node_sets.append(("radial" if rule_order == order else "wave", out.r.size))
        return out

    def counted_angular(n, radius, nodes, rule_order):
        angular_rule(n, radius, nodes, rule_order)
        node_sets.append(("slice", nodes.gap.size))

    def counted_clipped(*args, **kwargs):
        out = clipped(*args, **kwargs)
        if out[0].shape[0]:
            node_sets.append(("chords", out[0].shape[0]))
        return out

    monkeypatch.setattr(SmoothBump, "_g_table", counted_table)
    monkeypatch.setattr(solution, "_radial_rule", counted_radial)
    monkeypatch.setattr(solution, "_angular_rule", counted_angular)
    monkeypatch.setattr(solution, "clipped_ball_nodes", counted_clipped)
    pts = np.array([[0.9, 0.5], [0.2, -0.3], [1.4, 1.2], [-0.6, 0.4], [2.0, 0.1],
                    [0.5, 1.5]])
    evaluators = {"u": lambda t: eval_u(two_2d, pts, t, order=order),
                  "grad": lambda t: eval_grad_u(two_2d, pts, t, order=order),
                  "dir2": lambda t: eval_dir2_u(two_2d, pts, t, FROZEN_2D_OMEGA,
                                                order=order)}
    # Node sets per bump: (radial, chord, wave ball). At t = 3200, where
    # exp(-t/2) is 0, only the radial sets are built.
    per_bump = {(10.0, "u"): (2, 6, 0), (10.0, "grad"): (2, 0, 2),
                (10.0, "dir2"): (2, 0, 2)}
    bumps = len(two_2d.bumps)
    for t in (10.0, 3200.0):
        for kind, evaluate in evaluators.items():
            passes.clear()
            node_sets.clear()
            evaluate(t)
            built = [name for name, _ in node_sets]
            counts = tuple(built.count(name) for name in ("radial", "chords", "wave"))
            assert counts == tuple(bumps * c for c in per_bump.get((t, kind), (2, 0, 0))), (
                t, kind, node_sets)
            # One table pass a slice and a chord pass, in the order they are
            # built; the slices of a rule cover its nodes, and none holds
            # more than _SLICE_NODES angular nodes.
            assert passes == [size for name, size in node_sets if name in ("slice", "chords")]
            rule_nodes, slice_nodes = [], []
            for name, size in node_sets:
                if name in ("radial", "wave"):
                    width = order if name == "radial" else 2 * order
                    rule_nodes.append(size * width)
                    slice_nodes.append(0)
                elif name == "slice":
                    assert size <= solution._SLICE_NODES
                    slice_nodes[-1] += size
            assert slice_nodes == rule_nodes, (t, kind, node_sets)
            assert built.count("slice") > len(rule_nodes)
    # A wave ball rule holds twice the radial nodes of the radial one of the
    # same rows, each with twice the angular nodes (width above).
    node_sets.clear()
    eval_grad_u(two_2d, pts[:1], 10.0, order=order)
    rules = [node_set for node_set in node_sets if node_set[0] != "slice"]
    assert rules[1] == ("wave", 2 * rules[0][1])


def _point_terms(bump, x, t, order):
    """u's 2D wave terms of one bump at each row of x, from the bump's own
    derivatives at the node points y = x + r*theta of the clipped-ball rule,
    and the sum of their absolute node values: {name: (terms, scale)} with
    one entry per row."""
    r, w, theta, _, owner = quadrature.clipped_ball_nodes(x, t, bump.center_array,
                                                          bump.radius, order)
    row = np.repeat(owner, order)
    y = x[row] + r[:, None] * np.repeat(theta, order, axis=0)
    nodes = {"u M": w * bump.value(y),
             "u dM": w * ((y - x[row]) * bump.gradient(y)).sum(axis=1)}
    return _per_row_sums(nodes, row, len(x))


def _per_row_sums(nodes, row, count, parts=None):
    """{name: (sum per row, scale per row)} of per-node values (one column
    or a vector per node) owned by `row`. The scale sums the absolute
    values, or the nonnegative sizes parts[name] given in their place."""
    out = {}
    for name, values in nodes.items():
        cols = values.reshape(len(row), -1)
        sizes = np.abs(cols) if parts is None or name not in parts else np.broadcast_to(
            np.reshape(parts[name], (len(row), -1)), cols.shape)
        total = np.stack([np.bincount(row, c, count) for c in cols.T], axis=1)
        scale = np.stack([np.bincount(row, c, count) for c in sizes.T], axis=1)
        out[name] = (total, scale.max(axis=1))
    return out


def _rows_beside_bumps(two_2d, t):
    """Rows inside each bump, on the first bump's rim, grazing the radius-t
    circle around the first bump, beyond reach (row 4), and two seeded."""
    first, second = (b.center_array for b in two_2d.bumps)
    down = np.array([0.0, -1.0])
    return np.array([first + [0.3, -0.2], second + [0.1, 0.2], first + [1.0, 0.0],
                     first + (t + 0.95) * down, first + (t + 1.5) * down,
                     *np.random.default_rng(7).uniform(-2.0, 3.0, size=(2, 2))])


def _assert_terms_match(want, got, rows, count):
    """Each term of got (one entry per row of `rows`) within 1e-13 of the
    scale of want's; rows outside `rows` have no node at all."""
    missing = np.setdiff1d(np.arange(count), rows)
    for name, (total, scale) in want.items():
        assert np.all(scale[missing] == 0.0), name
        assert np.all(scale[rows] > 0.0), name
        value = np.reshape(got[name], (len(rows), -1))
        gap = np.abs(value - total[rows]).max(axis=1)
        assert np.all(gap <= 1e-13 * scale[rows]), (name, gap / scale[rows])


@pytest.mark.parametrize("t", [1.5, 10.0, 50.0])
def test_chord_form_matches_point_formulas(two_2d, t):
    # u's chord-form wave terms (per-node scalars in r, s = theta . (c - x)
    # and theta, summed per chord and then per row) against the bump's
    # derivatives at the rebuilt node points. Rows: inside each bump, on the
    # first bump's rim (chords that start at x), grazing the radius-t circle
    # (short chords that end at r = t), beyond reach, and two seeded points.
    order = 32
    rows = _rows_beside_bumps(two_2d, t)
    for bump in two_2d.bumps:
        want = _point_terms(bump, rows, t, order)
        ch = solution._chords(bump, rows, rows - bump.center_array, t, order)
        assert 4 not in ch.rows
        got = {}
        (), got["u M"], got["u dM"] = solution._disc_u(bump, ch, t)
        _assert_terms_match(want, got, ch.rows, len(rows))


def _shell_point_terms(bump, x, t, rule, nodes, e, omega):
    """grad's and dir2's 2D wave terms of one bump at each row of x, from the
    bump's derivatives at the points y = x + r*theta of a radial rule and
    the angular rule at all its nodes:
    each node (r, mu) stands for the two directions theta = mu e +- sqrt(1 -
    mu**2) e_perp, with half its angular weight each, and its weight is
    t r dphi dtheta; e = (x - c)/|x - c| holds a row per point of the set.
    Every term is a sum over both mirror points.

    The derivatives are formed from y - c and y - x at the rebuilt points and
    from the profile table at the node's own gap R**2 - |y - c|**2, the one
    every radial pass uses. The shell form, like the odd-sphere terms it
    shares, expands |y - c|**2 and ((y - c) . omega)**2 from the parts
    d e and r theta of y - c, which rounds by up to eps (d + r)**2. At the
    bump's edge g varies as exp(-R**2/gap), which amplifies that by
    R**2/gap**2: at the row grazing the radius-t circle, rebuilding the gap
    from y alone moves the terms by 4e-13 (t = 10) and 8e-12 (t = 50) of the
    sum of their absolute node values. So the scale of each term is the sum
    of the sizes of the parts it adds, with (y - c) . omega counted as
    d |e . omega| + r |theta . omega| and (y - c) . (y - x) as d r |mu| + r**2;
    where no part cancels, that is the sum of its absolute node values."""
    dc = dimension_constants(2)
    damp = wave_factor(t)
    rows = np.arange(len(x))[rule.rows]
    counts = np.diff(rule.start)
    perp = np.stack([-e[:, 1], e[:, 0]], axis=1)
    point = np.repeat(rows, counts)
    e_node = np.repeat(e, counts, axis=0)[:, None, :]
    p_node = np.repeat(perp, counts, axis=0)[:, None, :]
    mu = nodes.mu[:, :, None]
    pieces = []
    for side in (1.0, -1.0):
        theta = mu * e_node + side * np.sqrt(1.0 - mu * mu) * p_node
        pieces.append(x[point][:, None, :] + rule.r[:, None, None] * theta)
    y = np.stack(pieces, axis=2).reshape(-1, 2)
    row = np.repeat(point, 2 * nodes.mu.shape[1])
    weight = (rule.wphi * t * rule.r)[:, None] * nodes.wmu / 2.0
    w = np.repeat(weight, 2, axis=1).ravel()
    g0, g1, g2, g3 = bump._g_table(np.repeat(nodes.gap, 2, axis=1).ravel(), 3)
    offset = y - bump.center_array
    step = y - x[row]
    om = omega[row]
    a_om = (offset * om).sum(axis=1)
    s_om = (step * om).sum(axis=1)
    a_st = (offset * step).sum(axis=1)
    grad = 2.0 * g1[:, None] * offset
    hvp = 2.0 * g1[:, None] * step + 4.0 * (g2 * a_st)[:, None] * offset
    beta = [t * kernel_deriv_at_zero("even", dc.ell + k + 1)
            - 2.0 * kernel_deriv_at_zero("even", dc.ell + k) for k in (0, 1)]
    # Sizes of the parts d e = x - c and r theta = y - x of y - c: along
    # omega, along y - x, and of the vector itself.
    cen = x[row] - bump.center_array
    r2 = (step * step).sum(axis=1)
    size_om = np.abs((cen * om).sum(axis=1)) + np.abs(s_om)
    size_st = np.abs((cen * step).sum(axis=1)) + r2
    size_c = np.linalg.norm(cen, axis=1) + np.sqrt(r2)
    aw, a1, a2, a3 = np.abs(w), np.abs(g1), np.abs(g2), np.abs(g3)
    parts = {
        "grad M": 2.0 * aw * a1 * size_c,
        "grad dM": aw * (2.0 * a1 * np.sqrt(r2) + 4.0 * a2 * size_st * size_c),
        "dir2 damped 2": ((dc.gamma / 8.0) * damp * abs(beta[0]) / t) * aw * np.abs(s_om)
        * 2.0 * a1 * size_om,
        "dir2 M": aw * (2.0 * a1 + 4.0 * a2 * size_om * size_om),
        "dir2 dM": aw * (4.0 * a2 * size_st + 8.0 * a3 * size_st * size_om * size_om
                         + 8.0 * a2 * np.abs(s_om) * size_om),
    }
    nodes_terms = {
        "grad damped": ((dc.gamma / 8.0) * damp * beta[0] / t) * (w * g0)[:, None] * step,
        "grad M": w[:, None] * grad,
        "grad dM": w[:, None] * hvp,
        "dir2 damped 1": ((dc.gamma / 32.0) * damp * beta[1] / t) * w * g0 * s_om * s_om,
        "dir2 damped 2": ((dc.gamma / 8.0) * damp * beta[0] / t) * w * s_om
        * (grad * om).sum(axis=1),
        "dir2 M": w * (2.0 * g1 + 4.0 * g2 * a_om * a_om),
        "dir2 dM": w * (4.0 * g2 * a_st + 8.0 * g3 * a_st * a_om * a_om
                        + 8.0 * g2 * s_om * a_om),
    }
    return _per_row_sums(nodes_terms, row, len(x), parts)


@pytest.mark.parametrize("t", [1.5, 10.0, 50.0])
def test_shell_form_matches_point_formulas(two_2d, t):
    # grad's and dir2's 2D wave terms (the odd-sphere integrands at the node
    # radius r, integrated over the ball's radial and angular nodes) against
    # the bump's derivatives at the rebuilt node points x + r*theta and their
    # mirrors, on the rows of the chord-form test. grad's terms are their
    # components along e over d, times x - c; dir2's are pairs, omega across
    # e (the h'/d component) and along e (the h'' one).
    order = 24
    rows = _rows_beside_bumps(two_2d, t)
    for bump in two_2d.bumps:
        offset = rows - bump.center_array
        dist = np.linalg.norm(offset, axis=1)
        rule = solution._radial_rule(bump, dist, t, order)
        nodes = solution._Nodes(rule.d, rule.r, *np.empty((3, rule.r.size, order)))
        solution._angular_rule(2, bump.radius, nodes, order)
        reached = np.arange(len(rows))[rule.rows]
        assert 4 not in reached
        xc = offset[reached]
        e = xc / dist[reached, None]
        omegas = {"across": np.zeros_like(rows), "along": np.zeros_like(rows)}
        omegas["across"][reached] = np.stack([-e[:, 1], e[:, 0]], axis=1)
        omegas["along"][reached] = e
        (damped,), m, dm = solution._wave_terms(1, bump, rule, t, order)
        (first, second), m2, dm2 = solution._wave_terms(2, bump, rule, t, order)
        for k, side in enumerate(omegas):
            want = _shell_point_terms(bump, rows, t, rule, nodes, e, omegas[side])
            got = {"grad damped": damped[:, None] * xc,
                   "grad M": m[:, None] * xc, "grad dM": dm[:, None] * xc,
                   "dir2 damped 1": first[:, k], "dir2 damped 2": second[:, k],
                   "dir2 M": m2[:, k], "dir2 dM": dm2[:, k]}
            _assert_terms_match(want, got, reached, len(rows))


# Where the radius-t circle cuts a bump (x = (1.2, 0.4)), inside a bump and
# on its rim, order 64 agrees with order 512 to 7.6e-13 relative or better.
# The clipped-ball chords, which ran the wave and damped terms before, were
# off at the first point by 2.9e-8 (grad, t = 1.5) and 6.9e-8 (t = 10), and
# dir2 by 1.4e-3 and 8.8e-6.
@pytest.mark.parametrize("x", [(1.2, 0.4), (0.3, -0.2), (1.0, 0.0)],
                         ids=["cut", "inside", "rim"])
@pytest.mark.parametrize("t", [1.5, 10.0])
@pytest.mark.parametrize("kind", ["grad", "dir2"])
def test_2d_order_64_converged_where_circle_cuts_bump(two_2d, kind, t, x):
    x = np.array(x)
    if kind == "grad":
        coarse, fine = (eval_grad_u(two_2d, x, t, order=o) for o in (64, 512))
    else:
        coarse, fine = (eval_dir2_u(two_2d, x, t, FROZEN_2D_OMEGA, order=o)
                        for o in (64, 512))
    gap = np.max(np.abs(np.subtract(coarse, fine)))
    assert gap <= 1e-8 * np.max(np.abs(fine))


# error_decay_diagnostic at t = 1600, where exp(-t/2) is zero in double
# precision and eval_u skips the 2D wave integrals: the diagnostic must still
# compute the raw remainder. Values of the (value, gradient) diagnostics from
# the evaluators that computed every term at every t; the 2D gradient's since
# its wave terms run on the radial rule (order 512 at the same point:
# 3.3676478684234236e-10).
DIAGNOSTIC_T1600 = {"two_2d": (4.997479708263065e-07, 3.367647869047113e-10),
                    "unit_1d": (0.0003123048094940662, 3.026749966293563e-07)}


@pytest.mark.parametrize("name", sorted(DIAGNOSTIC_T1600))
def test_diagnostic_reads_raw_remainder_when_damped_to_zero(name, request):
    datum = request.getfixturevalue(name)
    assert wave_factor(1600.0) == 0.0
    for gradient, expected in zip((False, True), DIAGNOSTIC_T1600[name]):
        [(t, value)] = error_decay_diagnostic(datum, [1600.0], gradient=gradient)
        assert value > 0.0
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_heat_eval_matches_trapezoid(unit_1d):
    t = 2.0
    x = np.array([0.3])
    y = np.linspace(-1.0, 1.0, 40001)
    f = unit_1d.value(y[:, None])
    kern = np.exp(-((x[0] - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    vals = f * kern
    ref = float((y[1] - y[0]) * (vals.sum() - 0.5 * (vals[0] + vals[-1])))
    assert heat_eval(unit_1d, x, t) == pytest.approx(ref, rel=1e-8)


# heat_eval at t = 0.05, 2 and 4000, recorded from the product rule over each
# bump's ball that it used before the radial rule, at order 256 in 1D and 2D
# and 96 in 3D (orders 192 and 80 agreed with them to 1.4e-14).
HEAT_PINNED = {
    ("two_1d", (0.3,)): (0.2150596772322393, 0.20938512727513706,
                         0.005059960851261162),
    ("two_2d", (0.4, 0.2)): (0.5573003985343815, 0.05720177766091496,
                             3.133204208020847e-05),
    ("two_3d", (0.5, 0.2, 0.1)): (0.37681281541396117, 0.009637282325667611,
                                  1.205474857019948e-07),
}


@pytest.mark.parametrize("name, x", sorted(HEAT_PINNED))
def test_heat_eval_pinned_values(name, x, request):
    datum = request.getfixturevalue(name)
    for t, expected in zip((0.05, 2.0, 4000.0), HEAT_PINNED[name, x]):
        assert heat_eval(datum, np.array(x), t, order=64) == pytest.approx(
            expected, rel=1e-11)
    # The check returns the doubled order's value, and refuses a rule too
    # coarse for the narrow kernel of a small t.
    x = np.array(x)
    assert heat_eval(datum, x, 0.05, check=True) == heat_eval(datum, x, 0.05, order=128)
    with pytest.raises(QuadratureConvergenceError, match="heat value"):
        heat_eval(datum, x, 0.05, order=2, check=True)


def test_heat_eval_needs_dimension_three_or_less():
    datum = make_datum([SmoothBump((0.0,) * 4, 1.0, 1.0)], 4)
    with pytest.raises(ValueError, match="dimensions 1-3"):
        heat_eval(datum, np.zeros(4), 1.0)


def test_heat_profile_limit(two_2d):
    # At large times the smeared field flattens toward a centered Gaussian
    # carrying the total mass; the spread of the datum enters at O(1/t).
    t = 4000.0
    x = np.array([0.4, 0.2])
    gauss = heat_eval(two_2d, x, t)
    closed = two_2d.mass / (4.0 * math.pi * t) * math.exp(
        -float((x - two_2d.centroid) @ (x - two_2d.centroid)) / (4.0 * t))
    assert gauss == pytest.approx(closed, rel=2e-3)


def test_wave_remainder_normalized_decay(unit_1d, two_2d):
    for datum in (unit_1d, two_2d):
        rows = error_decay_diagnostic(datum, [10.0, 20.0, 40.0, 80.0])
        values = [v for _, v in rows]
        assert all(v > 0.0 for v in values)
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * 1.2
    with pytest.raises(ValueError, match="order must be at least 1"):
        error_decay_diagnostic(unit_1d, [10.0], order=0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite and positive"):
            error_decay_diagnostic(unit_1d, [10.0, bad])


def test_outside_light_cone_zero(single_1d):
    assert eval_u(single_1d, np.array([12.0]), 10.0).value == 0.0
    sample = eval_u(single_1d, np.array([12.0]), 10.0)
    assert sample.principal == 0.0 and sample.wave_remainder == 0.0


def _mixed_block(datum, t):
    """Rows that exercise every branch of the radial rule at time t: a bump
    centre and a point 1e-15 from it, off every axis (the two-point rule),
    points inside each bump (two radial panels), points on and near the
    radius-t sphere around the first bump (the odd sphere terms), a point
    out of reach of every bump, and a few seeded points."""
    n = datum.dimension
    first, second = (b.center_array for b in datum.bumps[:2])
    e = np.eye(n)[0]
    away = -e if n == 1 else -np.ones(n) / math.sqrt(n)
    rows = [first, first - 1e-15 * away, first + 0.3 * e, second + 0.1 * e, first + t * e,
            first + (t + 0.4) * e, first + (t + 30.0) * away]
    rng = np.random.default_rng(11)
    rows += list(first + rng.uniform(-2.5, 3.0, size=(4, n)))
    return np.array(rows)


@pytest.mark.parametrize("t", [1.5, 10.0, 1600.0])
@pytest.mark.parametrize("name", ["two_1d", "two_2d", "two_3d"])
@pytest.mark.parametrize("slice_nodes", [
    pytest.param(None, id="None"),
    # Chunks of three rows, at most 4 * 24 radial nodes a row.
    pytest.param(4 * 24 * 3, id="3"),
    # Slices of 31 radial nodes of 24 angular ones, which straddle rows.
    pytest.param(24 * 31, id="cut")])
def test_block_rows_equal_single_points(name, t, slice_nodes, request, monkeypatch):
    # Every row of a block is bit for bit the single-point value, whether the
    # block runs in one chunk or in chunks of three rows, and whether a
    # slice of the angular passes ends on a row's last radial node or
    # inside a row.
    datum = request.getfixturevalue(name)
    order = 24
    if slice_nodes is not None:
        monkeypatch.setattr(solution, "_SLICE_NODES", slice_nodes)
    pts = _mixed_block(datum, t)
    rng = np.random.default_rng(3)
    omegas = rng.normal(size=pts.shape)
    shared = rng.normal(size=datum.dimension)
    block = eval_u(datum, pts, t, order=order)
    grads = eval_grad_u(datum, pts, t, order=order)
    per_row = eval_dir2_u(datum, pts, t, omegas, order=order)
    one_omega = eval_dir2_u(datum, pts, t, shared, order=order)
    heat = heat_eval(datum, pts, t, order=order)
    assert block.value.shape == (len(pts),) and grads.shape == pts.shape
    assert heat.shape == (len(pts),)
    assert np.array_equal(block.x, pts)
    for i, x in enumerate(pts):
        sample = eval_u(datum, x, t, order=order)
        assert isinstance(sample.value, float)
        assert (sample.value, sample.principal, sample.wave_remainder) == (
            block.value[i], block.principal[i], block.wave_remainder[i])
        assert np.array_equal(eval_grad_u(datum, x, t, order=order), grads[i])
        assert eval_dir2_u(datum, x, t, omegas[i], order=order) == per_row[i]
        assert eval_dir2_u(datum, x, t, shared, order=order) == one_omega[i]
        assert heat_eval(datum, x, t, order=order) == heat[i]
    # The row 1e-15 from the bump centre has the centre row's grad and dir2,
    # to 1e-14 of their scale.
    for values in (grads, one_omega):
        gap = np.abs(values[1] - values[0]).max()
        assert gap <= 1e-14 * np.abs(values).max(), gap


@pytest.mark.parametrize("name", ["two_1d", "two_2d", "two_3d"])
def test_wave_skip_is_exact(name, request):
    # Where exp(-t/2) is 0 the evaluators compute neither the wave terms nor
    # the damped principal terms. Computing every term and damping the wave
    # by zero gives the same bits, near the radius-t sphere too, where the
    # skipped terms are nonzero.
    datum = request.getfixturevalue(name)
    t = 1600.0
    damp = wave_factor(t)
    assert damp == 0.0
    pts = _mixed_block(datum, t)
    omegas = np.random.default_rng(5).normal(size=pts.shape)
    omegas /= np.linalg.norm(omegas, axis=1)[:, None]
    sample = eval_u(datum, pts, t, order=24)
    for top, got, omega in ((0, sample.value, None),
                            (1, eval_grad_u(datum, pts, t, order=24), None),
                            (2, eval_dir2_u(datum, pts, t, omegas, order=24), omegas)):
        principal, raw, _ = _sums(top, datum, t, pts, 24, True, omega)
        assert np.any(raw != 0.0)
        assert got.tobytes() == (principal + raw * damp).tobytes()
    assert sample.principal.tobytes() == _sums(0, datum, t, pts, 24, True)[0].tobytes()


def test_block_of_principal_parts_equals_single_points(two_2d, two_3d):
    for datum in (two_2d, two_3d):
        pts = _mixed_block(datum, 2.5)
        block = eval_principal_general_n(datum, pts, 2.5, order=24)
        assert np.array_equal(block, [eval_principal_general_n(datum, x, 2.5, order=24)
                                      for x in pts])


def test_block_rejects_bad_rows(two_2d):
    pts = np.array([[0.2, 0.1], [1.0, 0.5], [0.3, math.nan], [2.0, 1.0]])
    for evaluate in (lambda p: eval_u(two_2d, p, 2.0),
                     lambda p: eval_grad_u(two_2d, p, 2.0),
                     lambda p: eval_dir2_u(two_2d, p, 2.0, np.array([1.0, 0.0]))):
        with pytest.raises(ValueError, match="row 2"):
            evaluate(pts)
        with pytest.raises(ValueError, match="shape"):
            evaluate(np.zeros((3, 3)))
    good = pts[[0, 1, 3]]
    omegas = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="omega row 1"):
        eval_dir2_u(two_2d, good, 2.0, omegas)
    with pytest.raises(ValueError, match="omega"):
        eval_dir2_u(two_2d, good, 2.0, omegas[:2])


def test_block_check_holds_each_row_to_its_own_test(two_2d):
    # At order 24 the gradient at (0.5, 0.1), t = 3, is not converged; a
    # point out of reach is (it is zero at both orders). Each row is judged
    # alone, and the error names the row that fails.
    bad, fine = [0.5, 0.1], [20.0, 20.0]
    with pytest.raises(QuadratureConvergenceError, match=r"\(row 1\)"):
        eval_grad_u(two_2d, np.array([fine, bad]), 3.0, order=24, check=True)
    with pytest.raises(QuadratureConvergenceError, match=r"\(row 0\)"):
        eval_grad_u(two_2d, np.array([bad, fine]), 3.0, order=24, check=True)
    assert np.array_equal(eval_grad_u(two_2d, np.array([fine]), 3.0, order=24, check=True),
                          np.zeros((1, 2)))
    # A converged block returns the finer order's values, row for row.
    pts = np.array([[0.5, 0.1], [-1.5, 0.5]])
    omega = np.array([0.6, -0.8])
    block = eval_dir2_u(two_2d, pts, 3.0, omega, order=96, check=True)
    rows = [eval_dir2_u(two_2d, x, 3.0, omega, order=96, check=True) for x in pts]
    assert np.array_equal(block, rows)
    assert np.array_equal(block, eval_dir2_u(two_2d, pts, 3.0, omega, order=192))


def test_one_kernel_call_per_bump_order_and_chunk(two_3d, monkeypatch):
    # Every row below reaches both bumps, and the block runs in two chunks
    # of three rows, whose angular passes run in slices of 12 radial nodes:
    # each bump then costs one kernel call per chunk, on all the chunk's
    # radial nodes, and dir2 asks for both of its kernel orders in that one
    # call.
    order = 16
    monkeypatch.setattr(solution, "_SLICE_NODES", 4 * order * 3)
    calls, rules, slices = [], [], []
    kernel = solution.kernel_ktilde_scaled
    radial_rule = solution._radial_rule
    angular_rule = solution._angular_rule

    def counted(parity, ell, r, t):
        calls.append((np.size(ell), r.size))
        return kernel(parity, ell, r, t)

    def counted_radial(bump, dist, t, rule_order, **kwargs):
        out = radial_rule(bump, dist, t, rule_order, **kwargs)
        if rule_order == order:
            rules.append(out.r.size)
        return out

    def counted_angular(n, radius, nodes, rule_order):
        angular_rule(n, radius, nodes, rule_order)
        if rule_order == order:
            slices.append(nodes.r.size)

    monkeypatch.setattr(solution, "kernel_ktilde_scaled", counted)
    monkeypatch.setattr(solution, "_radial_rule", counted_radial)
    monkeypatch.setattr(solution, "_angular_rule", counted_angular)
    pts = np.array([[0.5, 0.2, 0.1], [1.0, 0.5, 0.0], [1.5, 0.8, -0.3],
                    [0.2, 0.4, 0.6], [2.2, 1.1, -0.2], [-0.5, 0.0, 0.3]])
    chunks, bumps = 2, len(two_3d.bumps)
    for evaluate, orders in ((lambda: eval_u(two_3d, pts, 200.0, order=order), 1),
                             (lambda: eval_grad_u(two_3d, pts, 200.0, order=order), 1),
                             (lambda: eval_dir2_u(two_3d, pts, 200.0, np.ones(3),
                                                  order=order), 2)):
        calls.clear()
        rules.clear()
        slices.clear()
        evaluate()
        assert len(calls) == bumps * chunks
        assert all(count == orders for count, _ in calls)
        # Each call takes all the radial nodes of its chunk's rule: three
        # rows, each with one or two radial panels.
        assert [nodes for _, nodes in calls] == rules
        assert all(3 * order <= nodes <= 6 * order for nodes in rules)
        # The angular passes of a rule take it 12 radial nodes at a time.
        assert sum(slices) == sum(rules)
        assert len(slices) == sum(-(-nodes // 12) for nodes in rules)


# float.hex of the direct evaluators on small blocks, recorded before their
# node passes were rewritten to work in place (the 2D grad and dir2 at t = 10
# once their wave and damped terms ran on the radial rule; the grad and dir2
# entries that moved, by 9.3e-13 relative at most, once each bump gave its
# radial scalars to one assembly). The frozen values above allow 1e-12
# relative; these hold every bit. The 2D blocks run the
# radial rule and, for u at t = 10, the clipped-ball chords; the 3D block
# includes a bump centre (the two-point rule); the 4D principal part takes
# the sin(theta) factor of the even-n angular rule.
PIN_BLOCKS = {
    "2d-t10": ("two_2d", [[0.3, -0.2], [1.7, 0.8], [-4.0, 6.5]], 10.0, 64),
    "2d-t3200": ("two_2d", [[0.3, -0.2], [1.7, 0.8], [-4.0, 6.5]], 3200.0, 64),
    "1d": ("two_1d", [[-0.5], [0.2], [2.1]], 2.5, 32),
    "3d": ("two_3d", [[0.0, 0.0, 0.0], [0.4, -0.3, 0.2], [2.5, 1.0, 1.0]], 2.5, 32),
}
BIT_PINS = {
    "2d-t10": {
        "value": [
            "-0x1.3eac2d6fd1ec4p-10", "-0x1.26fc8ba3f1d96p-10", "0x1.c5f25f1fbb9a4p-14",
        ],
        "principal": [
            "-0x1.5b8abbc4e2ecap-10", "-0x1.4413c9fc592bap-10", "-0x1.992b163ea92dep-16",
        ],
        "wave": [
            "0x1.cde8e55110067p-14", "0x1.d173e5867523cp-14", "0x1.161e9257b2f2ep-13",
        ],
        "grad": [
            "0x1.9ab0bc1da9bd6p-24", "-0x1.08630300574a3p-15", "0x1.d45423ac4afdep-14",
            "0x1.a3c830aa52ee5p-15", "-0x1.0f25df766d4afp-14", "0x1.950169ab3abd6p-14",
        ],
        "dir2": [
            "0x1.64eac1bf44ea6p-14", "0x1.560cd8751b62ap-14", "-0x1.4537e6177eac5p-14",
        ],
    },
    "2d-t3200": {
        "value": [
            "-0x1.a47e2955c0c60p-27", "-0x1.a4599885607bcp-27", "-0x1.a0ab4b95a2e42p-27",
        ],
        "principal": [
            "-0x1.a47e2955c0c60p-27", "-0x1.a4599885607bcp-27", "-0x1.a0ab4b95a2e42p-27",
        ],
        "wave": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        ],
        "grad": [
            "-0x1.921f602d4dd40p-45", "-0x1.93a52223721fcp-40", "0x1.7520196730c44p-38",
            "0x1.4fc45abfb23ffp-39", "-0x1.1fd61a9608087p-36", "0x1.a6399d0355500p-36",
        ],
        "dir2": [
            "0x1.0cdb3dce63b8dp-38", "0x1.0ccb5660093d6p-38", "0x1.07a3e583072f7p-38",
        ],
    },
    "1d": {
        "value": [
            "-0x1.ae083d10e986ap-5", "-0x1.ae0a2934e8356p-5", "0x1.e473d825499c4p-4",
        ],
        "principal": [
            "-0x1.ae083d10e986ap-5", "-0x1.ae0a2934e8356p-5", "-0x1.68d8a2b72ad96p-6",
        ],
        "wave": [
            "0x0.0p+0", "0x0.0p+0", "0x1.1f5500698a295p-3",
        ],
        "grad": [
            "-0x1.7b2ffd68effb8p-9", "0x1.7ad6414af2515p-9", "-0x1.abbe6971abe5ep-6",
        ],
        "dir2": [
            "0x1.0c87de5ec0cc3p-7", "0x1.0c83f80e2b627p-7", "-0x1.49d38032ff983p-1",
        ],
    },
    "3d": {
        "value": [
            "-0x1.6162cff812ed9p-7", "-0x1.834c11a68321fp-7", "0x1.d12e5a0630ab0p-7",
        ],
        "principal": [
            "-0x1.9dafd3212cdf8p-10", "-0x1.9facb9bbb4406p-10", "-0x1.5505da869123bp-12",
        ],
        "wave": [
            "-0x1.2dacd593ed51ap-7", "-0x1.4f567a6f0c99ep-7", "0x1.dbd688da65342p-7",
        ],
        "grad": [
            "-0x1.9428ba4c2fe04p-6", "-0x1.9428ba4c2fe04p-7", "0x1.9428ba4c2fe04p-8",
            "0x1.7eecaa205355dp-7", "0x1.352d85f0dc84ap-7", "-0x1.4cb88fb766b01p-8",
            "0x1.684d6f6451290p-6", "0x1.20298633439c0p-7", "0x1.20c2b40caf7fcp-7",
        ],
        "dir2": [
            "0x1.31ae3738aebb4p-5", "0x1.c0454c589a031p-5", "0x1.3979445c78cb5p-8",
        ],
    },
    "4d-principal": [
        "-0x1.1e2aeadabb833p-14", "-0x1.11fe85ed5a512p-14", "-0x1.0f1123837f6a1p-15",
    ],
}


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("case", sorted(PIN_BLOCKS))
def test_direct_evaluators_keep_every_bit(case, request):
    name, pts, t, order = PIN_BLOCKS[case]
    datum = request.getfixturevalue(name)
    pts = np.array(pts)
    omega = np.linspace(0.3, -0.9, datum.dimension)
    sample = eval_u(datum, pts, t, order=order)
    got = {"value": _hexes(sample.value), "principal": _hexes(sample.principal),
           "wave": _hexes(sample.wave_remainder),
           "grad": _hexes(eval_grad_u(datum, pts, t, order=order)),
           "dir2": _hexes(eval_dir2_u(datum, pts, t, omega, order=order))}
    assert got == BIT_PINS[case]


def test_principal_4d_keeps_every_bit():
    datum = InitialDatum((SmoothBump((0.0,) * 4, 1.0, 1.0),
                          SmoothBump((0.8, -0.3, 0.5, 0.2), 0.6, 0.7)), 4, None)
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.2, -0.1, 0.4], [1.5, -0.5, 0.5, 0.0]])
    assert _hexes(eval_principal_general_n(datum, pts, 2.0, order=32)) == BIT_PINS["4d-principal"]


# tracemalloc high-water of eval_u at order 64 on the 17 x 17 lattice of
# half-width 12 around the centroid that the grid-2d benchmark workload
# evaluates (without its seeded shift), in MiB, rounded up: 0.87 at t = 10
# and 0.89 at t = 3200 with the angular passes in fixed-size slices. With
# the passes of 16 rows whole, in place, they were 3.08 and 2.71.
@pytest.mark.parametrize("t, ceiling", [(10.0, 0.87), (3200.0, 0.89)])
def test_eval_u_working_set_on_grid_2d(two_2d, t, ceiling):
    axis = np.linspace(-12.0, 12.0, 17)
    mesh = np.meshgrid(two_2d.centroid[0] + axis, two_2d.centroid[1] + axis, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    # Warm the cached Gauss rules outside the measurement.
    eval_u(two_2d, pts[:3], 10.0, order=64)
    tracemalloc.start()
    try:
        eval_u(two_2d, pts, t, order=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling * 2 ** 20


def test_eval_u_minor_faults_on_grid_2d():
    # In a fresh process, eval_u on the same lattice at t = 10 and 3200 took
    # about 420 minor page faults on a 2-core x86 Linux host: the angular
    # passes reuse their arrays of 128 KiB on the heap. In slices of 32,768
    # nodes, whose live set outgrows glibc's heap trim threshold, the same
    # calls took about 23,000, each pass faulting its pages in afresh.
    import dampedwave
    src = str(Path(dampedwave.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"""
import json, resource
import numpy as np
from dampedwave import load_datum
from dampedwave.solution import eval_u
datum = load_datum(json.load(open({str(CONFIG_DIR / "two_bump_2d.json")!r}))["datum"])
axis = np.linspace(-12.0, 12.0, 17)
mesh = np.meshgrid(datum.centroid[0] + axis, datum.centroid[1] + axis, indexing="ij")
pts = np.stack([m.ravel() for m in mesh], axis=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
eval_u(datum, pts, 10.0, order=64)
eval_u(datum, pts, 3200.0, order=64)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert int(done.stdout) <= 5000
