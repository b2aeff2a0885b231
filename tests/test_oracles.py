import math

import numpy as np
import pytest

from dampedwave.initial_data import SmoothBump, make_datum
from dampedwave.hankel import mode_response
from dampedwave.oracles import fd_solve_1d, spectral_solve
from dampedwave.solution import eval_u


def test_mode_response_confluent_root():
    # At |k|^2 = 1/4 the characteristic roots coincide; the response must be
    # the exact double-root formula, not a 0/0 artifact.
    for T in (0.5, 2.0, 10.0):
        got = mode_response(np.array([0.25]), T)[0]
        want = (1.0 - 0.5 * T) * math.exp(-0.5 * T)
        assert abs(got - want) < 1e-14


def test_mode_response_continuous_near_confluence():
    T = 3.0
    center = mode_response(np.array([0.25]), T)[0]
    for eps in (1e-9, -1e-9, 1e-7, -1e-7):
        near = mode_response(np.array([0.25 + eps]), T)[0]
        assert abs(near - center) < 1e-7


def test_mode_response_zero_mode_mass_decay():
    # k = 0 evolves by u'' + u' = 0 with data (1, -1): constant 0 plus e^{-T}.
    for T in (0.1, 1.0, 7.0):
        got = mode_response(np.array([0.0]), T)[0]
        assert got == pytest.approx(math.exp(-T), rel=1e-12)


def test_spectral_time_zero_is_identity(unit_1d):
    run = spectral_solve(unit_1d, 0.0, 8.0, 256)
    sampled = unit_1d.value(run.axes[0][:, None])
    assert np.max(np.abs(run.snapshot - sampled)) < 1e-12


def test_fd_second_order_convergence(unit_1d):
    T = 2.0
    reference = fd_solve_1d(unit_1d, T, dx=1.0 / 2048.0)
    probe = reference.axes[0][np.abs(reference.axes[0]) <= 3.0][::16]
    errors = []
    for dx in (1.0 / 128.0, 1.0 / 256.0, 1.0 / 512.0):
        run = fd_solve_1d(unit_1d, T, dx=dx)
        diff = run.interpolate(probe[:, None]) - reference.interpolate(probe[:, None])
        errors.append(float(np.max(np.abs(diff))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.2 < coarse / fine < 4.8, errors


def test_fd_finite_propagation(unit_1d):
    run = fd_solve_1d(unit_1d, 2.0, dx=1.0 / 256.0, margin=3.0)
    x = run.axes[0]
    outside = np.abs(x) > 1.0 + run.time + 0.1
    assert np.max(np.abs(run.snapshot[outside])) < 1e-10


def test_spectral_finite_propagation(unit_1d):
    run = spectral_solve(unit_1d, 2.0, 8.0, 4096)
    x = run.axes[0]
    outside = np.abs(x) > 1.0 + run.time + 0.2
    assert np.max(np.abs(run.snapshot[outside])) < 1e-12


def test_oracles_agree_with_each_other_and_exact(two_1d):
    T = 1.0
    fd = fd_solve_1d(two_1d, T, dx=1.0 / 512.0)
    sp = spectral_solve(two_1d, T, 8.0, 1024)
    probe = np.linspace(-3.0, 3.0, 41)[:, None]
    fd_vals = fd.interpolate(probe)
    sp_vals = sp.interpolate(probe)
    assert np.max(np.abs(fd_vals - sp_vals)) < 5e-4
    exact = np.array([eval_u(two_1d, p, T).value for p in probe])
    assert np.max(np.abs(exact - sp_vals)) < 5e-4


def test_fd_rejects_bad_setups(unit_1d, two_2d):
    with pytest.raises(ValueError):
        fd_solve_1d(two_2d, 1.0)
    with pytest.raises(ValueError):
        fd_solve_1d(unit_1d, 1.0, cfl=0.9)
    with pytest.raises(ValueError):
        fd_solve_1d(unit_1d, -1.0)
    with pytest.raises(ValueError):
        fd_solve_1d(unit_1d, 1.0, dx=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            fd_solve_1d(unit_1d, bad)


def test_spectral_rejects_bad_setups(unit_1d):
    with pytest.raises(ValueError, match="wraparound"):
        spectral_solve(unit_1d, 7.5, 8.0, 256)
    with pytest.raises(ValueError):
        spectral_solve(unit_1d, 1.0, 8.0, 4)
    with pytest.raises(ValueError):
        spectral_solve(unit_1d, -0.5, 8.0, 256)
    # A NaN time gave an all-NaN snapshot.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="T must be finite and non-negative"):
            spectral_solve(unit_1d, bad, 8.0, 256)
    d4 = make_datum([SmoothBump((0.0,) * 4, 1.0, 1.0)], 4)
    with pytest.raises(ValueError):
        spectral_solve(d4, 1.0, 8.0, 16)


def test_interpolate_is_exact_on_nodes(unit_1d):
    run = fd_solve_1d(unit_1d, 1.0, dx=1.0 / 64.0)
    idx = np.array([5, 31, 100])
    got = run.interpolate(run.axes[0][idx][:, None])
    assert np.array_equal(got, run.snapshot[idx])


def test_interpolate_outside_interval_is_zero(unit_1d):
    run = fd_solve_1d(unit_1d, 1.0, dx=1.0 / 64.0)
    far = run.half_width + 5.0
    assert run.interpolate(np.array([[far], [-far]])).tolist() == [0.0, 0.0]


def test_interpolate_periodic_wraps(unit_1d):
    run = spectral_solve(unit_1d, 1.0, 8.0, 256)
    x0 = run.axes[0][3]
    period = 16.0
    base = run.interpolate(np.array([[x0]]))[0]
    wrapped = run.interpolate(np.array([[x0 + period], [x0 - period]]))
    assert wrapped[0] == pytest.approx(base, abs=1e-15)
    assert wrapped[1] == pytest.approx(base, abs=1e-15)


def test_interpolate_dimension_mismatch(unit_1d):
    run = fd_solve_1d(unit_1d, 1.0)
    with pytest.raises(ValueError):
        run.interpolate(np.zeros((3, 2)))
