"""The radial field the feature stages evaluate through: per-bump profiles
at one t against the direct evaluators, its fallbacks, and its memo."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from dampedwave import features, solution
from dampedwave.features import (BISECTION_XTOL, build_spot_report,
                                 certify_signs, find_cold_spot,
                                 find_critical_radius, find_hot_spots,
                                 trace_null_radius)
from dampedwave.geometry import sample_normal_bundle
from dampedwave.initial_data import SmoothBump, make_datum
from dampedwave.solution import (RadialField, eval_dir2_u, eval_grad_u, eval_u,
                                 profile_reach, radial_field)


def _direct_stages(monkeypatch):
    """Route the stages' evaluations to the public direct evaluators: the
    field each stage looks up evaluates u, grad u and dir2 u directly."""
    monkeypatch.setattr(features, "radial_field", lambda datum, t, order: SimpleNamespace(
        datum=datum, t=t,
        u=lambda x: eval_u(datum, x, t, order=order).value,
        grad=lambda x: eval_grad_u(datum, x, t, order=order),
        dir2=lambda x, omega: eval_dir2_u(datum, x, t, omega, order=order)))


def _probes(datum, reach, count, seed):
    """count seeded points within reach of every bump: distances in [0, D']
    from the first centre along random directions, D' = D less the largest
    centre gap, with d = 0, d = 1e-7, d at D' and every other centre."""
    n = datum.dimension
    rng = np.random.default_rng(seed)
    c0 = datum.bumps[0].center_array
    span = reach - max(np.linalg.norm(b.center_array - c0) for b in datum.bumps)
    d = np.concatenate([[0.0, 1e-7, span * (1.0 - 1e-12)],
                        rng.uniform(0.0, span, count - 3)])
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    centres = np.array([b.center for b in datum.bumps[1:]]).reshape(-1, n)
    return np.concatenate([c0 + d[:, None] * dirs, centres])


@pytest.mark.parametrize("name, t, order", [("two_1d", 200.0, 64),
                                            ("two_2d", 400.0, 64),
                                            ("single_3d", 200.0, 32)])
def test_profile_field_matches_direct_at_twice_the_order(name, t, order, request):
    datum = request.getfixturevalue(name)
    field = radial_field(datum, t, order)
    assert field.fallback is None
    pts = _probes(datum, field.reach, 52, seed=7)
    omega = np.random.default_rng(8).normal(size=pts.shape)
    u_bar, grad_bar, dir2_bar = field.errors
    assert np.all(np.abs(field.u(pts) - eval_u(datum, pts, t, order=2 * order).value)
                  <= u_bar)
    assert np.all(np.abs(field.grad(pts) - eval_grad_u(datum, pts, t, order=2 * order))
                  <= grad_bar)
    assert np.all(np.abs(field.dir2(pts, omega)
                         - eval_dir2_u(datum, pts, t, omega, order=2 * order))
                  <= dir2_bar)
    # The bars are error bars, not bounds on the field: each is far below
    # the scale of its quantity.
    scale = np.abs(eval_u(datum, pts, t, order=order).value).max()
    assert u_bar < 1e-8 * scale
    # A point and a one-row block agree.
    assert field.u(pts[5]) == pytest.approx(field.u(pts[5:6])[0], rel=1e-15)


def test_unresolved_profile_falls_back(two_1d, two_2d, monkeypatch):
    # On 5 nodes the node gap of h is far above the order gap at order 32.
    # The field then gives what the direct evaluators give, bit for bit:
    # u, grad and dir2, the last with one omega for every row and one per
    # row, on a block and at one of its points.
    monkeypatch.setattr(solution, "_PROFILE_DEGREE", 8)
    t, order = 400.0, 32
    for datum in (two_1d, two_2d):
        field = RadialField(datum, t, order)
        assert field.profiles is None
        assert "not converged" in field.fallback
        x = np.linspace(-30.0, 30.0, 9)[:, None] * np.array([1.0, 0.6])[:datum.dimension]
        rows = np.random.default_rng(4).normal(size=x.shape)
        shared = rows[0]
        for got, want in ((field.u(x), eval_u(datum, x, t, order=order).value),
                          (field.grad(x), eval_grad_u(datum, x, t, order=order)),
                          (field.dir2(x, shared), eval_dir2_u(datum, x, t, shared, order=order)),
                          (field.dir2(x, rows), eval_dir2_u(datum, x, t, rows, order=order))):
            assert got.tobytes() == want.tobytes()
        p = x[4]
        assert field.u(p) == eval_u(datum, p, t, order=order).value
        assert field.grad(p).tobytes() == eval_grad_u(datum, p, t, order=order).tobytes()
        assert field.dir2(p, shared) == eval_dir2_u(datum, p, t, shared, order=order)


def test_fields_fall_back_inside_the_light_cone(two_1d, two_2d):
    for datum in (two_1d, two_2d):
        field = radial_field(datum, 10.0, 32)
        assert field.profiles is None
        assert "light cone" in field.fallback
        assert profile_reach(datum.dimension, 10.0) + 1.0 >= 10.0


@pytest.mark.parametrize("name", ["two_1d", "two_2d"])
def test_stages_at_t10_are_the_direct_path(name, request, monkeypatch):
    datum = request.getfixturevalue(name)
    t, order = 10.0, 32
    rays = sample_normal_bundle(datum.hull, 3)

    def stages():
        return ([trace_null_radius(datum, t, p, order=order) for p in rays],
                [find_critical_radius(datum, t, p, order=order) for p in rays],
                [(s.tobytes(), v) for s, v in find_hot_spots(datum, t, rays, order=order)],
                (lambda c: (c[0].tobytes(), c[1]))(find_cold_spot(datum, t, order=order)),
                {k: r.to_dict() for k, r in certify_signs(
                    datum, t, order=order, direction_count=3).items()})

    profiled = stages()
    _direct_stages(monkeypatch)
    assert stages() == profiled


def test_points_beyond_reach_are_the_direct_path(two_2d, monkeypatch):
    t, order = 400.0, 32
    field = radial_field(two_2d, t, order)
    assert field.profiles is not None
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(6, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = field.reach + np.array([-30.0, 0.5, -10.0, 4.0, 1e-9 + 2.0, -1.0])
    pts = radii[:, None] * dirs
    far = np.array([max(np.linalg.norm(p - b.center_array) for b in two_2d.bumps)
                    > field.reach for p in pts])
    assert far.any() and not far.all()
    omega = rng.normal(size=(6, 2))
    for got, want in ((field.u(pts), eval_u(two_2d, pts, t, order=order).value),
                      (field.grad(pts), eval_grad_u(two_2d, pts, t, order=order)),
                      (field.dir2(pts, omega),
                       eval_dir2_u(two_2d, pts, t, omega, order=order))):
        assert got[far].tobytes() == want[far].tobytes()
    # One point beyond reach, and a stage whose samples all lie beyond it.
    p = pts[np.flatnonzero(far)[0]]
    assert field.u(p) == eval_u(two_2d, p, t, order=order).value
    assert field.grad(p).tobytes() == eval_grad_u(two_2d, p, t, order=order).tobytes()
    far_only = dict(propositions=("ub_E",), psi_coefficient=60.0, order=order,
                    direction_count=3)
    assert math.sqrt(60.0 * t) > field.reach
    profiled = certify_signs(two_2d, t, **far_only)
    _direct_stages(monkeypatch)
    assert certify_signs(two_2d, t, **far_only) == profiled


def test_field_memo_is_keyed_and_bounded(two_1d):
    t = 300.0
    other = make_datum([SmoothBump((-0.5,), 0.7, 2.0), SmoothBump((0.9,), 0.4, 0.6)], 1)
    first = radial_field(two_1d, t, 32)
    assert radial_field(two_1d, t, 32) is first
    for field in (radial_field(other, t, 32), radial_field(two_1d, t, 48)):
        assert field is not first
        assert field.profiles[0] is not first.profiles[0]
        assert not np.array_equal(field.profiles[0].series.even,
                                  first.profiles[0].series.even)
    for k in range(6):
        radial_field(two_1d, t + k, 16)
    info = radial_field.cache_info()
    assert info.currsize <= info.maxsize == 4
    # A field built afresh is the memoised one, value for value.
    x = np.linspace(-5.0, 5.0, 7)[:, None]
    assert np.array_equal(RadialField(two_1d, t + 5, 16).u(x),
                          radial_field(two_1d, t + 5, 16).u(x))


@pytest.mark.parametrize("name, t, order, count", [("single_3d", 200.0, 32, 2),
                                                   ("two_1d", 200.0, 64, None)])
def test_spot_report_profile_against_direct(name, t, order, count, request, monkeypatch):
    datum = request.getfixturevalue(name)
    bar = radial_field(datum, t, order).errors[0]
    profiled = build_spot_report(datum, t, order=order, direction_count=count)
    _direct_stages(monkeypatch)
    direct = build_spot_report(datum, t, order=order, direction_count=count)
    assert ({k: r.passed for k, r in profiled.certificates.items()}
            == {k: r.passed for k, r in direct.certificates.items()})
    for a, b in zip(profiled.rays, direct.rays):
        for key in ("rho_null", "rho_crit"):
            assert abs(a[key] - b[key]) <= 2.0 * BISECTION_XTOL
    assert len(profiled.hot_spots) == len(direct.hot_spots)
    for (_, a), (_, b) in zip(profiled.hot_spots, direct.hot_spots):
        assert abs(a - b) <= bar
    assert abs(profiled.cold_spot[1] - direct.cold_spot[1]) <= bar


def test_zero_amplitude_bump_adds_nothing(two_2d):
    t = 400.0
    extra = make_datum(list(two_2d.bumps) + [SmoothBump((-2.0, 1.0), 0.8, 0.0)], 2)
    field, base = radial_field(extra, t, 32), radial_field(two_2d, t, 32)
    assert field.fallback is None
    pts = _probes(two_2d, field.reach - 4.0, 12, seed=5)
    assert np.array_equal(field.u(pts), base.u(pts))
    assert np.array_equal(field.errors, base.errors)


# RadialField of single_bump_3d at t = 200 and order 32, recorded as hex
# bits: a block of 14 rows, two directions at seven radii across
# [r_crit, psi] (as in the negativity_crit grid of certify_signs, with dir2
# along each row's direction), and two single points, the bump centre,
# where sin((2m+1) phi)/s takes its limit 2m + 1, and the block's fourth
# row. The block's grad and dir2 bits move if the odd-series product reads
# its matrix in C order.
FIELD_DIRS = [[0.6, 0.0, 0.8], [-0.48, 0.6, 0.64]]
FIELD_PINS = {
    "block": {
        "u": [
            "0x1.1313ed96cb691p-28", "0x1.12f91eea4fdabp-28", "0x1.1271581861306p-28",
            "0x1.1182b417168b2p-28", "0x1.10332cfc7c7aep-28", "0x1.0e889aabe8059p-28",
            "0x1.0c88b1a3a3994p-28", "0x1.1313ed96cb691p-28", "0x1.12f91eea4fdabp-28",
            "0x1.1271581861306p-28", "0x1.1182b417168b2p-28", "0x1.10332cfc7c7aep-28",
            "0x1.0e889aabe8057p-28", "0x1.0c88b1a3a3994p-28",
        ],
        "grad": [
            "0x1.8e6c76adc37b3p-39", "0x0.0p+0", "0x1.099da473d7a78p-38",
            "-0x1.13ad17be71d1ep-37", "0x0.0p+0", "-0x1.6f9174fded17dp-37",
            "-0x1.3b26de291b2e1p-36", "0x0.0p+0", "-0x1.a433d2e17992cp-36",
            "-0x1.e2594630a5912p-36", "0x0.0p+0", "-0x1.4190d975c3b62p-35",
            "-0x1.3fd2fa4a74fabp-35", "0x0.0p+0", "-0x1.aa6ea30df14e5p-35",
            "-0x1.89a39ae72c231p-35", "0x0.0p+0", "-0x1.066d11ef72c21p-34",
            "-0x1.cebc9e3ccfd09p-35", "0x0.0p+0", "-0x1.347dbed33535cp-34",
            "-0x1.3ebd2bbe35fc3p-39", "0x1.8e6c76adc37b3p-39", "0x1.a8fc3a52f2a59p-39",
            "0x1.b914f2ca4fb64p-38", "-0x1.13ad17be71d1ep-37", "-0x1.260df7318a798p-37",
            "0x1.f83e3041c5168p-37", "-0x1.3b26de291b2e1p-36", "-0x1.502975812e0f0p-36",
            "0x1.81e104f3b7a75p-36", "-0x1.e2594630a5912p-36", "-0x1.0140adf7cfc4ep-35",
            "0x1.ffb7f6dd87f79p-36", "-0x1.3fd2fa4a74fabp-35", "-0x1.55254f3e5aa51p-35",
            "0x1.3ae948b8f01aep-35", "-0x1.89a39ae72c21ap-35", "-0x1.a3e1b64beace9p-35",
            "0x1.72307e970ca73p-35", "-0x1.cebc9e3ccfd10p-35", "-0x1.ed95fe1ebb89ap-35",
        ],
        "dir2": [
            "-0x1.c08a58197d19ep-35", "-0x1.a8494ceae2a05p-35", "-0x1.9082a9d410e20p-35",
            "-0x1.793c15712c7b4p-35", "-0x1.627ab6656da7fp-35", "-0x1.4c4335549b4b5p-35",
            "-0x1.3699bf1f504f8p-35", "-0x1.c08a58197d19ap-35", "-0x1.a8494ceae2a05p-35",
            "-0x1.9082a9d410e20p-35", "-0x1.793c15712c7b4p-35", "-0x1.627ab6656da7fp-35",
            "-0x1.4c4335549b4bbp-35", "-0x1.3699bf1f504f4p-35",
        ],
    },
    "origin": {
        "u": [
            "-0x1.30675603a0878p-24",
        ],
        "grad": [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        ],
        "dir2": [
            "0x1.3e22c01706fd2p-32",
        ],
    },
    "row-3": {
        "u": [
            "0x1.1182b417168b1p-28",
        ],
        "grad": [
            "-0x1.e2594630a5903p-36", "0x0.0p+0", "-0x1.4190d975c3b57p-35",
        ],
        "dir2": [
            "-0x1.793c15712c7b7p-35",
        ],
    },
}


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_profile_field_keeps_every_bit(single_3d):
    field = radial_field(single_3d, 200.0, 32)
    assert field.fallback is None
    dirs = np.array(FIELD_DIRS)
    pts = (np.linspace(44.75, 46.9, 7)[None, :, None] * dirs[:, None, :]).reshape(-1, 3)
    got = {"block": {"u": _hexes(field.u(pts)), "grad": _hexes(field.grad(pts)),
                     "dir2": _hexes(field.dir2(pts, np.repeat(dirs, 7, axis=0)))}}
    for name, x in (("origin", np.zeros(3)), ("row-3", pts[3])):
        got[name] = {"u": _hexes(field.u(x)), "grad": _hexes(field.grad(x)),
                     "dir2": _hexes(field.dir2(x, dirs[0]))}
    assert got == FIELD_PINS


@pytest.mark.parametrize("t", [200.0, 400.0, 800.0, 1600.0, 3200.0, 12800.0])
@pytest.mark.parametrize("name", ["two_1d", "two_2d", "single_3d"])
def test_bundled_shapes_hold_profiles_at_feature_times(name, t, request):
    # The Hankel data resolve every bundled shape on 65 nodes at the default
    # order; the direct data were refused as unconverged in 2D at t = 800,
    # 3200 and 12800, and in 3D from t = 1600 on.
    assert radial_field(request.getfixturevalue(name), t).fallback is None


@pytest.mark.parametrize("name", ["two_1d", "two_2d"])
def test_tail_bound_holds_profiles_at_t100(name, request):
    # The tail bound takes |f^(k)| <= min(||f||_1, ||Delta^2 f||_1 k^-4):
    # 3,496 times tighter for two_1d and 231 times for two_2d than the
    # second bound alone, which made both fall back at t = 100.
    assert radial_field(request.getfixturevalue(name), 100.0).fallback is None


@pytest.mark.parametrize("name", ["two_1d", "two_2d", "single_3d"])
def test_tail_bound_falls_back_at_t50(name, request):
    # At t = 50 the light cone is still outside [0, D + R], but the bound on
    # the modes above k = 1/2 is far above the error bar of h: the field
    # evaluates directly, bit for bit.
    datum = request.getfixturevalue(name)
    t, order = 50.0, 16
    assert profile_reach(datum.dimension, t) + 1.0 < t
    field = RadialField(datum, t, order)
    assert field.profiles is None
    assert "tail bound" in field.fallback
    x = datum.bumps[0].center_array + 3.0
    assert field.u(x) == eval_u(datum, x, t, order=order).value
