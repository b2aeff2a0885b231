"""The Hankel form of the field as an oracle at the feature times, the mode
response it shares with the spectral oracle, and its radial means.

Each bump's share of u is h(d) = (2 pi)^(-n) S int f^(k) m(k, t)
Lambda_nu(k d) k^(n-1) dk (`dampedwave.hankel`). Its derivatives follow from
Lambda_mu'(z) = -z Lambda_(mu+1)(z) / (2 mu + 2): h'/d and h'' take
Lambda_(nu+1) and Lambda_(nu+2). The oracle here takes every Lambda_mu from
SciPy's jv, and its own Gauss rules, so it shares with the package only the
mode response, which is held to mpmath below.
"""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import gamma, jv

from dampedwave.hankel import hankel_profile, mode_response, radial_mean, tail_bound
from dampedwave.initial_data import SmoothBump, load_datum
from dampedwave.oracles import spectral_solve
from dampedwave.solution import (eval_dir2_u, eval_grad_u, eval_u, profile_reach,
                                 radial_field)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHAPES = ("two_bump_1d", "two_bump_2d", "single_bump_3d")


def _bundled(name):
    return load_datum(json.loads((CONFIG_DIR / f"{name}.json").read_text())["datum"])


def _lam(mu, z):
    """Gamma(mu + 1) (2/z)^mu J_mu(z), 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    safe = np.where(z > 0.0, z, 1.0)
    return np.where(z > 0.0, gamma(mu + 1.0) * (2.0 / safe) ** mu * jv(mu, safe), 1.0)


def _rule(a, b, count, panels=1):
    """Gauss-Legendre with count nodes on each of panels equal panels of
    [a, b]."""
    x, w = np.polynomial.legendre.leggauss(count)
    ends = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(ends)[:, None]
    return (ends[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def _hankel_jet(bump, n, t, d, count=160, band=None, panels=1):
    """(h, h'/d, h'') of one bump at the distances d from its centre, from
    the modes k in band, [0, min(1/2, sqrt(45/t))] by default, on panels of
    count nodes."""
    nu = 0.5 * n - 1.0
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    rho, wrho = _rule(0.0, bump.radius, 160)
    f = bump.value(bump.center_array + rho[:, None] * np.eye(n)[0])
    k, wk = _rule(*(band or (0.0, min(0.5, math.sqrt(45.0 / t)))), count, panels)
    fhat = area * _lam(nu, np.outer(k, rho)) @ (wrho * f * rho ** (n - 1))
    weight = (2.0 * math.pi) ** (-n) * area * wk * fhat * mode_response(k * k, t) * k ** (n - 1)
    z = np.outer(d, k)
    h = _lam(nu, z) @ weight
    slope = -(_lam(nu + 1.0, z) @ (weight * k * k)) / n
    curv = slope + d * d * (_lam(nu + 2.0, z) @ (weight * k ** 4)) / (n * (n + 2.0))
    return h, slope, curv


def _hankel_field(datum, t, x, omega):
    """u, grad u and dir2 u along omega (one unit direction per row) at the
    rows of x, as sums of the bumps' Hankel jets."""
    n = datum.dimension
    u, grad, dir2 = np.zeros(len(x)), np.zeros(x.shape), np.zeros(len(x))
    for bump in datum.bumps:
        offset = x - bump.center_array
        d = np.linalg.norm(offset, axis=1)
        h, slope, curv = _hankel_jet(bump, n, t, d)
        along = np.einsum("ij,ij->i", offset, omega)
        cos2 = np.divide(along * along, d * d, out=np.zeros_like(d), where=d > 0.0)
        u += h
        grad += slope[:, None] * offset
        dir2 += slope + (curv - slope) * cos2
    return u, grad, dir2


def _probes(datum, reach, count=12, seed=5):
    """The bump centres and seeded points within reach of every centre,
    with d = 0 and d at the limit from the first centre among them."""
    n = datum.dimension
    rng = np.random.default_rng(seed)
    c0 = datum.bumps[0].center_array
    span = reach - max(np.linalg.norm(b.center_array - c0) for b in datum.bumps)
    d = np.concatenate([[0.0, span * (1.0 - 1e-12)], rng.uniform(0.0, span, count - 2)])
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    centres = np.array([b.center for b in datum.bumps])
    pts = np.concatenate([centres, c0 + d[:, None] * dirs])
    omega = rng.normal(size=pts.shape)
    return pts, omega / np.linalg.norm(omega, axis=1)[:, None]


def _direct(datum, t, pts, omega, order):
    return (eval_u(datum, pts, t, order=order).value, eval_grad_u(datum, pts, t, order=order),
            eval_dir2_u(datum, pts, t, omega, order=order))


@pytest.mark.parametrize("t", [100.0, 200.0, 800.0, 3200.0, 12800.0])
@pytest.mark.parametrize("name", SHAPES)
def test_direct_evaluators_match_the_hankel_form(name, t):
    # At order 128 the direct u, grad u and dir2 u lie within 4 times their
    # own gap to order 64 of the Hankel form, in the sup over the probes,
    # the gap floored at 1e-12 of the quantity's sup. Up to t = 800 they lie
    # within the gap itself; at t = 12800 rounding in the kernel integral
    # sets both orders' errors, and 3D grad u sits 2.4 gaps off.
    datum = _bundled(name)
    pts, omega = _probes(datum, profile_reach(datum.dimension, t))
    oracle = _hankel_field(datum, t, pts, omega)
    coarse, fine = _direct(datum, t, pts, omega, 64), _direct(datum, t, pts, omega, 128)
    for label, want, low, high in zip(("u", "grad", "dir2"), oracle, coarse, fine):
        gap = max(np.abs(high - low).max(), 1e-12 * np.abs(want).max())
        assert np.abs(high - want).max() <= 4.0 * gap, (label, np.abs(high - want).max(), gap)


def _reference_response(k2, t):
    """mpmath's exp(-t/2) (cosh(delta t/2) - sinh(delta t/2)/delta), at a
    precision that outlasts the cancellation of cosh against sinh/delta."""
    with mpmath.workdps(int(t) + 40):
        k2 = mpmath.mpf(k2)
        half = mpmath.mpf(t) / 2
        if 4 * k2 == 1:
            value = (1 - half) * mpmath.exp(-half)
        else:
            delta = mpmath.sqrt(mpmath.mpc(1 - 4 * k2))
            value = mpmath.re(mpmath.exp(-half) * (mpmath.cosh(delta * half)
                                                   - mpmath.sinh(delta * half) / delta))
        return float(value)


K2 = [0.0, 1e-8, 1e-4, 0.01, 0.1, 0.2, 0.2499, 0.25 - 1e-9, 0.25, 0.25 + 1e-9, 0.2501, 0.3,
      1.0, 25.0]


@pytest.mark.parametrize("t", [0.5, 3.0, 10.0, 100.0, 1500.0, 3000.0])
def test_mode_response_matches_mpmath(t):
    # Finite everywhere; within 1e-13 of mpmath where the response is a
    # normal double, added to 1e-13 of exp(-t/2)(1 + t/2), the size of the
    # oscillating modes above k = 1/2. At t = 1500 and 3000 the plain form
    # overflowed cosh and read nan for k^2 in {0, 1e-4, 0.01}.
    got = mode_response(np.array(K2), t)
    assert np.isfinite(got).all()
    for k2, value in zip(K2, got):
        want = _reference_response(k2, t)
        tol = 1e-13 * (abs(want) + math.exp(-0.5 * t) * (1.0 + 0.5 * t)) + 1e-300
        assert abs(value - want) <= tol, (k2, value, want)


@pytest.mark.parametrize("t", [1500.0, 3000.0])
def test_mode_response_closed_forms_at_large_t(t):
    # k = 0 decays as exp(-t), which is 0 in doubles here; the slow mode of
    # small k is -(k^2/(1 - 2k^2)) exp(-k^2 t) to leading order.
    zero, small = mode_response(np.array([0.0, 1e-6]), t)
    assert zero == 0.0
    assert small == pytest.approx(-1e-6 * math.exp(-1e-6 * t), rel=1e-5)


def test_spectral_solve_is_finite_at_large_t(unit_1d):
    # The torus run at T = 1500 was nan throughout; it now matches the
    # closed-form principal part at the grid nodes near the bump.
    T = 1500.0
    # Its error is the aliasing of the sampled bump, about 1e-11 on this
    # grid of spacing 0.0115.
    run = spectral_solve(unit_1d, T, 1504.0, 1 << 18)
    assert np.isfinite(run.snapshot).all()
    axis = run.axes[0]
    near = np.flatnonzero(np.abs(axis) < 60.0)[::400]
    want = eval_u(unit_1d, axis[near][:, None], T).value
    assert np.abs(run.snapshot[near] - want).max() <= 1e-9 * np.abs(want).max()


def test_radial_means_match_scipy():
    # J_0 as the Gauss-Chebyshev angular mean, and sin(z)/z with its series
    # below z = 0.01, against SciPy on [0, 40], each as one array and at
    # each point alone (the 2D node count follows the largest argument).
    z = np.concatenate([np.linspace(0.0, 40.0, 4001), [1e-300, 1e-12, 1e-4, 0.0099999, 0.01]])
    assert np.abs(radial_mean(2, z) - jv(0, z)).max() <= 2e-15
    sinc = [float(mpmath.sin(x) / x) if x else 1.0 for x in z]
    assert np.abs(radial_mean(3, z) - sinc).max() <= 3e-16
    assert np.array_equal(radial_mean(1, z), np.cos(z))
    for x in z[::97]:
        assert abs(radial_mean(2, np.array([x]))[0] - jv(0, x)) <= 2e-15



@pytest.mark.parametrize("name, t", [(name, t) for name in SHAPES
                                     for t in (200.0, 800.0, 3200.0, 12800.0)]
                         + [("two_bump_1d", 100.0), ("two_bump_2d", 100.0)])
def test_profile_bars_are_true_and_tight(name, t):
    # Each of RadialField.errors at the default order bounds the field's
    # distance to the Hankel form, and the measured distance to the direct
    # evaluators at order 128 lies between 1/200 of it (0.011 at the least,
    # two_bump_1d's u at t = 100) and 4 times it (2.8 at the most, at
    # t = 12800, where the direct rounding dominates). single_bump_3d falls
    # back at t = 100. A floor of 1e-9 instead of 1e-12 puts every bar
    # 1,000 times too high.
    datum = _bundled(name)
    field = radial_field(datum, t)
    pts, omega = _probes(datum, field.reach)
    got = (field.u(pts), field.grad(pts), field.dir2(pts, omega))
    oracle = _hankel_field(datum, t, pts, omega)
    direct = _direct(datum, t, pts, omega, 128)
    for label, bar, value, want, ref in zip(("u", "grad", "dir2"), field.errors, got,
                                            oracle, direct):
        err = np.abs(value - ref).max()
        assert np.abs(value - want).max() <= bar, label
        assert bar / 200.0 <= err <= 4.0 * bar, (label, err / bar)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_bound_covers_the_modes_above_one_half(n):
    # The modes in [1/2, 40], where f^ has fallen to about 1e-4 of f^(0),
    # give h(0) less than the bound on every mode above 1/2, which itself
    # is far below |h(0)| from t = 100 on.
    bump = SmoothBump((0.3,) * n, 0.8, 1.7)
    for t in (20.0, 50.0):
        part = _hankel_jet(bump, n, t, np.zeros(1), 64, (0.5, 40.0), 40)[0][0]
        assert 0.0 < abs(part) <= tail_bound(bump, n, t)
    h0 = abs(_hankel_jet(bump, n, 100.0, np.zeros(1))[0][0])
    assert tail_bound(bump, n, 100.0) < 1e-9 * h0


def test_hankel_refuses_dimensions_it_cannot_serve():
    # The radial means are written out for n = 1, 2 and 3 only: another n
    # once read as J_0, the 2D mean, or gave a tail bound below zero (n = 5)
    # or a division by zero (n = 4). A bump is read in its own dimension.
    z = np.linspace(0.0, 5.0, 6)
    bump_4d = SmoothBump((0.0,) * 4, 1.0, 1.0)
    bump_2d = SmoothBump((0.0, 0.5), 1.0, 1.0)
    calls = [lambda: radial_mean(4, z), lambda: radial_mean(0, z),
             lambda: hankel_profile(bump_4d, 4, 200.0, z, 16),
             lambda: tail_bound(bump_4d, 4, 200.0),
             lambda: tail_bound(SmoothBump((0.0,) * 5, 1.0, 1.0), 5, 200.0)]
    for call in calls:
        with pytest.raises(ValueError, match="dimensions 1-3"):
            call()
    for call in (lambda: tail_bound(bump_2d, 3, 200.0),
                 lambda: hankel_profile(bump_2d, 1, 200.0, z, 16)):
        with pytest.raises(ValueError, match="does not have"):
            call()
