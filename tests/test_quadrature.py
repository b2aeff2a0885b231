import math

import numpy as np
import pytest

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


def test_gauss_legendre_refuses_an_order_past_the_bound(monkeypatch):
    # The bound holds before leggauss builds its dense order x order
    # companion matrix, which at 10**6 would take 7.3 TiB.
    def leggauss(order):
        raise AssertionError(f"leggauss({order}) was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
    with pytest.raises(ValueError, match="at most 4096, got 1000000"):
        gauss_legendre(10**6)


def test_interval_nodes_affine():
    nodes, weights = interval_nodes(2.0, 5.0, 16)
    assert float(weights.sum()) == pytest.approx(3.0, rel=1e-14)
    assert float(weights @ nodes) == pytest.approx((25.0 - 4.0) / 2.0,
                                                   rel=1e-14)


def _area(r, w, t):
    """The area of the clipped region: the weights carry the area element
    over the rim cosine sqrt(1 - (r / t)**2), which the sum puts back."""
    return float(w @ np.sqrt((1.0 - r / t) * (1.0 + r / t)))


def test_clipped_ball_full_overlap():
    # With t much larger than the offset the clipped region is the whole disc.
    x = np.full(2, 0.3)
    r, w, theta, s, rows = clipped_ball_nodes(x, 50.0, np.zeros(2), 1.0, 24)
    assert _area(r, w, 50.0) == pytest.approx(math.pi, rel=1e-8)
    assert np.all(r <= 50.0 + 1e-12)
    assert np.all(w > 0.0)
    assert np.all(rows == 0)
    # Inside the disc the directions are the 48-point trapezoid on the circle.
    assert len(theta) == 48
    np.testing.assert_allclose(s, theta @ -x, rtol=0.0, atol=1e-15)


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
    order = 32
    r, w, theta, _, _ = clipped_ball_nodes(x, t, np.zeros(2), 1.0, order)
    assert _area(r, w, t) == pytest.approx(lens, rel=1e-4)
    # The node points x + r*theta, rebuilt from the chords.
    pts = x + r[:, None] * np.repeat(theta, order, axis=0)
    assert float(np.linalg.norm(pts, axis=1).max()) <= 1.0 + 1e-12
    assert float(r.max()) <= t + 1e-12


def test_clipped_ball_block_rows_are_single_rows():
    # A block gives each row's chords and nodes as that row alone does, bit
    # for bit, with the rows in order; a row out of reach owns none.
    block = np.array([[0.3, -0.2], [2.0, 0.0], [9.0, 9.0], [1.0, 0.0], [-1.9, 1.1]])
    out = clipped_ball_nodes(block, 1.5, np.zeros(2), 1.0, 16)
    rows = out[4]
    assert np.all(np.diff(rows) >= 0) and 2 not in rows
    for i, x in enumerate(block):
        one = clipped_ball_nodes(x, 1.5, np.zeros(2), 1.0, 16)
        chords = rows == i
        nodes = np.repeat(chords, 16)
        for got, want in zip((out[0][nodes], out[1][nodes], out[2][chords],
                              out[3][chords]), one[:4]):
            assert got.tobytes() == want.tobytes()
        assert np.all(one[4] == 0)
    with pytest.raises(ValueError, match="2D only"):
        clipped_ball_nodes(np.zeros(3), 1.5, np.zeros(3), 1.0, 16)


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


def test_clipped_ball_beyond_reach_builds_nothing():
    # A disc that lies beyond the radius-t circle gives no chords and empty
    # arrays of the returned shapes; one that the circle reaches gets them.
    x = np.array([3.0, 4.0])
    empty = clipped_ball_nodes(x, 4.0, np.zeros(2), 1.0, 16)
    assert all(arr.shape[0] == 0 for arr in empty) and empty[2].shape == (0, 2)
    reached = clipped_ball_nodes(x, 4.5, np.zeros(2), 1.0, 16)
    assert reached[0].shape[0] == 16 * reached[2].shape[0] > 0
    assert clipped_ball_nodes(np.array([x, x]), 0.0, np.zeros(2), 1.0, 16)[0].size == 0


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
