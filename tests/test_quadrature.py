import math

import numpy as np
import pytest

from dampedwave import quadrature
from dampedwave.quadrature import (QuadratureConvergenceError,
                                   clipped_ball_nodes, gauss_legendre,
                                   interval_nodes, with_refinement)


def test_gauss_legendre_polynomial_exactness():
    nodes, weights = gauss_legendre(8)
    # Exact through degree 15 on [-1, 1].
    for degree in range(16):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert float(weights @ nodes ** degree) == pytest.approx(
            exact, abs=1e-14)


def test_interval_nodes_affine():
    nodes, weights = interval_nodes(2.0, 5.0, 16)
    assert float(weights.sum()) == pytest.approx(3.0, rel=1e-14)
    assert float(weights @ nodes) == pytest.approx((25.0 - 4.0) / 2.0,
                                                   rel=1e-14)


def test_clipped_ball_full_overlap():
    # With t much larger than the offset the clipped region is the whole ball.
    x = np.full(2, 0.3)
    pts, rad, w, rim = clipped_ball_nodes(x, 50.0, np.zeros(2), 1.0, 24)
    assert float(w.sum()) == pytest.approx(math.pi, rel=1e-8)
    assert np.all(rad <= 50.0 + 1e-12)
    assert np.all(rim > 0.0)


def test_clipped_ball_partial_overlap_mass():
    # B_t(x) cuts the unit disc at the origin to a lens of known area. The
    # chord of each ray has a kink where it meets the rim r = t, so the rule
    # converges slowly on this indicator integrand.
    x, t = np.array([2.0, 0.0]), 1.5
    dist = float(np.linalg.norm(x))
    lens = (math.acos((dist ** 2 + 1.0 - t * t) / (2.0 * dist))
            + t * t * math.acos((dist ** 2 + t * t - 1.0) / (2.0 * dist * t))
            - 0.5 * math.sqrt((t + 1.0 - dist) * (dist + 1.0 - t)
                              * (dist - 1.0 + t) * (dist + 1.0 + t)))
    pts, rad, w, rim = clipped_ball_nodes(x, t, np.zeros(2), 1.0, 32)
    assert float(w.sum()) == pytest.approx(lens, rel=1e-4)
    assert float(np.linalg.norm(pts, axis=1).max()) <= 1.0 + 1e-12
    assert float(rad.max()) <= t + 1e-12


def test_with_refinement_accepts_smooth():
    def evaluate(order):
        nodes, weights = interval_nodes(0.0, 1.0, order)
        val = float(weights @ np.exp(nodes))
        return val, abs(val)

    assert with_refinement(evaluate, 16) == pytest.approx(math.e - 1.0,
                                                          rel=1e-12)


def test_with_refinement_rejects_rough():
    # A discontinuous integrand cannot pass the doubling check at rtol 1e-6.
    def evaluate(order):
        nodes, weights = interval_nodes(0.0, 1.0, order)
        val = float(weights @ np.sign(np.sin(37.0 * nodes)))
        return val, max(abs(val), 1.0)

    with pytest.raises(QuadratureConvergenceError):
        with_refinement(evaluate, 8, rtol=1e-10)


def test_clipped_ball_beyond_reach_builds_nothing(monkeypatch):
    # A ball that lies beyond the radius-t circle gives empty arrays before
    # any cone direction is built; one that the circle reaches still gets
    # its nodes.
    def refuse(*args, **kwargs):
        raise AssertionError("built cone directions")

    x = np.array([3.0, 4.0])
    empty = clipped_ball_nodes(x, 4.0, np.zeros(2), 1.0, 16)
    assert all(arr.shape[0] == 0 for arr in empty) and empty[0].shape == (0, 2)
    reached = clipped_ball_nodes(x, 4.5, np.zeros(2), 1.0, 16)
    assert reached[0].shape[0] > 0
    monkeypatch.setattr(quadrature, "_cone_directions", refuse)
    assert clipped_ball_nodes(x, 4.0, np.zeros(2), 1.0, 16)[0].shape == (0, 2)


def test_with_refinement_judges_each_row():
    # A scale per row holds each row to its own test: the second row moves
    # by 1e-3 of its own size, far below the first row's size.
    def evaluate(order):
        step = 1e-3 if order == 8 else 0.0
        value = np.array([[1.0, 2.0], [1e-6 * (1.0 + step), 0.0]])
        return value, np.array([2.0, 1e-6])

    with pytest.raises(QuadratureConvergenceError, match=r"\(row 1\)"):
        with_refinement(evaluate, 8)
    value = with_refinement(lambda o: (np.ones((3, 2)), np.ones(3)), 8)
    assert value.shape == (3, 2)
