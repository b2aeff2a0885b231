import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dampedwave.initial_data import (SmoothBump, _unit_profile_derivative_sups,
                                     load_datum, make_datum, unit_ball_mass)

# Frozen against an mpmath dps=40 quadrature of e * exp(-1/(1-r^2)).
UNIT_MASS_1D = 1.2069003224378762


def fd_gradient(datum, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (datum.value(x + e) - datum.value(x - e)) / (2.0 * h)
    return out


def test_unit_mass_frozen():
    assert unit_ball_mass(1) == pytest.approx(UNIT_MASS_1D, rel=1e-12)


def test_mass_scaling(single_1d, two_2d):
    assert single_1d.mass == pytest.approx(0.7 * UNIT_MASS_1D, rel=1e-12)
    expected = (1.0 * 1.0 ** 2 + 0.8 * 0.55 ** 2) * unit_ball_mass(2)
    assert two_2d.mass == pytest.approx(expected, rel=1e-12)


def test_peak_equals_amplitude(single_1d):
    assert single_1d.value(np.array([0.0])) == pytest.approx(1.0, rel=1e-14)


def test_support_and_positivity(two_1d):
    assert two_1d.value(np.array([-1.2])) == 0.0
    assert two_1d.value(np.array([1.3])) == 0.0
    assert two_1d.value(np.array([5.0])) == 0.0
    assert two_1d.value(np.array([-0.5])) > 0.0
    assert two_1d.value(np.array([0.9])) > 0.0
    # Between the bumps both profiles vanish.
    assert two_1d.value(np.array([0.35])) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", [1e-3, 1e-2, 1.0, 1e2, 1e3])
def test_g_table_zero_off_support_and_finite(radius):
    # The gap R^2 - |y - c|^2 is clamped rather than masked: off the support
    # (gap <= 1e-12 R^2, down to far outside the ball) g and its first three
    # derivatives are exactly 0, and nothing overflows anywhere.
    bump = SmoothBump((0.0, 0.0), radius, 0.8)
    r2 = radius * radius
    gap = r2 * np.concatenate([-np.geomspace(1e-14, 1e6, 40),
                               [0.0, 5e-13, 1e-12],
                               np.geomspace(1.01e-12, 1.0, 85)])
    given = gap.reshape(8, 16).copy()
    table = bump._g_table(given, 3).reshape(4, -1)
    # The clamp and 1/gap are formed in arrays of _g_table's own: the
    # caller's gap is unchanged, and g alone is row 0 of the full table.
    assert bump._g_table(given, 0).tobytes() == table[0].tobytes()
    assert given.tobytes() == gap.tobytes()
    off = gap <= 1e-12 * r2
    assert np.all(np.isfinite(table))
    assert np.all(table[:, off] == 0.0)
    # Peak at the centre, gap = R^2.
    assert table[0, -1] == pytest.approx(0.8, rel=1e-15)
    assert np.all(table[0, ~off] >= 0.0)


def test_geometry_metadata(two_1d):
    assert two_1d.diameter == pytest.approx(1.4 + 0.7 + 0.4, rel=1e-14)
    assert two_1d.inradius == 0.7
    m1 = 1.0 * 0.7 * UNIT_MASS_1D
    m2 = 0.6 * 0.4 * UNIT_MASS_1D
    expected = (m1 * -0.5 + m2 * 0.9) / (m1 + m2)
    assert two_1d.centroid[0] == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_fd(two_2d):
    rng = np.random.default_rng(1)
    for _ in range(12):
        x = rng.uniform(-1.5, 2.5, size=2)
        g = two_2d.gradient(x)
        assert g == pytest.approx(fd_gradient(two_2d, x), abs=5e-9)


def test_dir2_matches_fd(two_2d):
    rng = np.random.default_rng(2)
    h = 1e-4
    for _ in range(12):
        x = rng.uniform(-1.5, 2.5, size=2)
        w = rng.normal(size=2)
        w /= np.linalg.norm(w)
        fd = (two_2d.value(x + h * w) - 2.0 * two_2d.value(x)
              + two_2d.value(x - h * w)) / (h * h)
        assert two_2d.dir2(x, w) == pytest.approx(fd, abs=5e-6)


def test_dir3_matches_fd(two_2d):
    # D^3 f[w, w, z] of each bump against a central difference of its
    # (w . grad)^2 along z.
    rng = np.random.default_rng(3)
    h = 1e-3
    for bump in two_2d.bumps:
        for _ in range(8):
            x = rng.uniform(-1.2, 2.2, size=(1, 2))
            w = rng.normal(size=2)
            w /= np.linalg.norm(w)
            z = rng.normal(size=2)
            z /= np.linalg.norm(z)
            fd = (bump.dir2(x + h * z, w) - bump.dir2(x - h * z, w)) / (2.0 * h)
            assert bump.dir3(x, w, z) == pytest.approx(fd, rel=5e-4, abs=1e-6)


def test_hvp_consistent_with_hessian(two_2d):
    # H v of each bump against a central difference of its gradient along v,
    # for one v and for one v per point.
    rng = np.random.default_rng(4)
    h = 1e-6
    for bump in two_2d.bumps:
        x = rng.uniform(-1.2, 2.2, size=(8, 2))
        vecs = rng.normal(size=(8, 2))
        fd = np.array([(bump.gradient(p + h * v) - bump.gradient(p - h * v))[0] / (2.0 * h)
                       for p, v in zip(x[:, None, :], vecs)])
        assert bump.hvp(x, vecs) == pytest.approx(fd, abs=1e-6)
        fd_one = (bump.gradient(x + h * vecs[0]) - bump.gradient(x - h * vecs[0])) / (2.0 * h)
        assert bump.hvp(x, vecs[0]) == pytest.approx(fd_one, abs=1e-6)


def test_load_datum_roundtrip(two_2d):
    doc = two_2d.to_dict()
    again = load_datum(doc)
    assert again.dimension == 2
    assert again.mass == pytest.approx(two_2d.mass, rel=1e-15)
    assert json.dumps(doc, sort_keys=True)  # serializable


def test_load_datum_rejects_malformed():
    with pytest.raises(ValueError):
        load_datum({"dimension": 2})
    with pytest.raises(ValueError):
        load_datum({"dimension": 5, "bumps": [
            {"center": [0, 0, 0, 0, 0], "radius": 1, "amplitude": 1}]})
    with pytest.raises(ValueError):
        load_datum({"dimension": 2, "bumps": []})
    with pytest.raises(ValueError):
        load_datum({"dimension": 2, "bumps": [
            {"center": [0.0], "radius": 1, "amplitude": 1}]})
    with pytest.raises(ValueError):
        load_datum({"dimension": 1, "bumps": [
            {"center": [0.0], "radius": -1, "amplitude": 1}]})
    # A bool, a string or a fraction is refused, not converted.
    for dimension in (2.7, True, "3"):
        with pytest.raises(ValueError, match=f"^dimension must be 1, 2, or 3, got {dimension!r}$"):
            load_datum({"dimension": dimension, "bumps": [
                {"center": [0.0], "radius": 1, "amplitude": 1}]})
    # A centre is a list of numbers or one number; null or an object is
    # refused by name, not iterated.
    for field, value in (("radius", "0.7"), ("amplitude", True), ("center", True),
                         ("center", "0"), ("center", None), ("center", {})):
        bump = {"center": [0.0], "radius": 1, "amplitude": 1, field: value}
        with pytest.raises(ValueError, match=(f"^bump 0 is malformed: bump {field} "
                                              f"must be a number, got {value!r}$")):
            load_datum({"dimension": 1, "bumps": [bump]})


def test_bump_validation():
    with pytest.raises(ValueError):
        SmoothBump((0.0,), 0.0, 1.0)
    with pytest.raises(ValueError):
        SmoothBump((0.0,), 1.0, -2.0)
    with pytest.raises(ValueError):
        make_datum([], 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["center", "radius", "amplitude"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_non_finite_bump_is_rejected(dimension, field, bad):
    # NaN passes both `radius <= 0` and `amplitude < 0`: the bump itself
    # must refuse it, naming the field, before a hull or field is built.
    bump = {"center": [0.0] * dimension, "radius": 1.0, "amplitude": 1.0}
    bump[field] = [bad] + [0.0] * (dimension - 1) if field == "center" else bad
    with pytest.raises(ValueError, match=f"^bump 0 is malformed: bump {field} must be finite"):
        load_datum({"dimension": dimension, "bumps": [bump]})


def test_hull_construction(two_2d, single_3d):
    hull = two_2d.hull
    assert hull is not None
    assert hull.contains(np.array([0.0, 0.0]))
    assert hull.contains(np.array([1.6, 0.9]))
    assert not hull.contains(np.array([4.0, 4.0]), tol=1e-3)
    assert hull.hull_tol < 1e-3
    assert single_3d.hull.contains(np.array([0.0, 0.0, 0.9]), tol=1e-2)


def _mpmath_profile_sup(k):
    """Sup over [0, 1) of |d^k/dr^k e*exp(-1/(1 - r^2))| by mpmath: the
    largest of 200 grid values, refined on a grid 400 times finer between
    the neighbours of the grid maximum."""
    prof = lambda r: mpmath.e * mpmath.exp(-1 / (1 - r * r))  # noqa: E731
    with mpmath.workdps(30):
        grid = [mpmath.mpf(i) / 200 for i in range(200)]
        vals = [abs(mpmath.diff(prof, r, k)) for r in grid]
        i = max(range(len(vals)), key=vals.__getitem__)
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, 199)]
        return float(max(abs(mpmath.diff(prof, lo + (hi - lo) * j / 400, k))
                         for j in range(401)))


def test_profile_derivative_sups_match_mpmath():
    # Orders up to three are closed forms sampled on a 4001-point grid, so
    # they sit within its sampling error (3.9e-6 at order two); the finite
    # difference third derivative read 506.672 against 506.6875, 3e-5 off.
    # The fourth is a central difference of the third, 1.3e-4 off.
    sups = _unit_profile_derivative_sups()
    ref = [_mpmath_profile_sup(k) for k in range(5)]
    for k, rel in ((0, 1e-14), (1, 1e-5), (2, 1e-5), (3, 1e-5), (4, 2e-4)):
        assert sups[k] == pytest.approx(ref[k], rel=rel), k


@settings(max_examples=40, deadline=None)
@given(center=st.floats(-3.0, 3.0), radius=st.floats(0.05, 2.0),
       amplitude=st.floats(0.01, 5.0), probe=st.floats(-8.0, 8.0))
def test_bump_nonnegative_and_compact(center, radius, amplitude, probe):
    datum = make_datum([SmoothBump((center,), radius, amplitude)], 1)
    val = datum.value(np.array([probe]))
    assert val >= 0.0
    if abs(probe - center) >= radius:
        assert val == 0.0
    assert datum.mass == pytest.approx(amplitude * radius * UNIT_MASS_1D,
                                       rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-2.0, 2.0))
def test_translation_moves_centroid(shift, single_1d):
    moved = make_datum([SmoothBump((shift,), 0.7, 1.0)], 1)
    assert moved.centroid[0] == pytest.approx(
        single_1d.centroid[0] + shift, abs=1e-12)
    assert moved.mass == pytest.approx(single_1d.mass, rel=1e-14)
