import json
import math

import numpy as np
import pytest
from scipy.stats import qmc

from dampedwave.features import (INTERIOR_SAMPLES, PROPOSITIONS,
                                 CertificateResult, _halton_block,
                                 _halton_permutations, _interior_points,
                                 build_spot_report, certify_signs,
                                 default_psi, empirical_threshold,
                                 find_cold_spot, find_critical_radius,
                                 find_hot_spots, rate_fit, trace_null_radius)
from dampedwave import features
from dampedwave.geometry import sample_normal_bundle
from dampedwave.initial_data import SmoothBump, make_datum
from dampedwave.solution import eval_u


def _rays(datum, count):
    return sample_normal_bundle(datum.hull, count)


def test_default_psi():
    assert default_psi(1, 4.0) == pytest.approx(math.sqrt(28.0), rel=1e-15)
    assert default_psi(2, 9.0) == pytest.approx(9.0, rel=1e-15)
    assert default_psi(1, 4.0, coefficient=9.0) == pytest.approx(6.0, rel=1e-15)


def test_proposition_names_stable():
    assert PROPOSITIONS == (
        "negativity_null", "positivity_null", "monotonicity_null",
        "positivity_crit", "negativity_crit", "concavity_crit",
        "lb_CS", "ub_A", "lb_A", "ub_E", "convex")


def test_null_radius_frozen_values(two_1d):
    by_sign = {int(p.nu[0]): trace_null_radius(two_1d, 200.0, p)
               for p in _rays(two_1d, 2)}
    assert by_sign[+1] == pytest.approx(18.618556, abs=5e-6)
    assert by_sign[-1] == pytest.approx(19.004199, abs=5e-6)


def test_critical_radius_frozen_values(two_1d):
    by_sign = {int(p.nu[0]): find_critical_radius(two_1d, 200.0, p)
               for p in _rays(two_1d, 2)}
    assert by_sign[+1] == pytest.approx(33.305480, abs=5e-6)
    assert by_sign[-1] == pytest.approx(33.690967, abs=5e-6)


def test_radii_approach_dimensional_references(two_1d):
    t = 3200.0
    for point in _rays(two_1d, 2):
        rho0 = trace_null_radius(two_1d, t, point)
        rhoc = find_critical_radius(two_1d, t, point)
        assert abs(rho0 / math.sqrt(2.0 * t) - 1.0) < 0.05
        assert abs(rhoc / math.sqrt(6.0 * t) - 1.0) < 0.05


def test_no_crossing_returns_none(two_1d):
    for point in _rays(two_1d, 2):
        assert trace_null_radius(two_1d, 0.5, point) is None


def test_cold_spot_frozen_1d(two_1d):
    point, value = find_cold_spot(two_1d, 200.0)
    assert point[0] == pytest.approx(-0.14298997789840917, abs=1e-6)
    assert value == pytest.approx(-5.669649022070581e-05, rel=1e-6)


def test_cold_spot_frozen_2d(two_2d):
    point, value = find_cold_spot(two_2d, 400.0)
    assert point[0] == pytest.approx(0.31136175, abs=1e-5)
    assert point[1] == pytest.approx(0.17514098, abs=1e-5)
    assert value == pytest.approx(-7.826057e-07, rel=1e-5)


def test_cold_spot_start_independence(two_1d):
    a, va = find_cold_spot(two_1d, 200.0)
    b, vb = find_cold_spot(two_1d, 200.0, start=np.array([0.6]))
    assert abs(a[0] - b[0]) < 1e-5
    assert va == pytest.approx(vb, rel=1e-6)


def test_cold_spot_beats_probe_cloud(two_1d):
    point, value = find_cold_spot(two_1d, 200.0)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1.2, 1.3, size=200)
    probed = min(eval_u(two_1d, np.array([x]), 200.0).value for x in xs)
    assert value <= probed + 1e-12


def test_hot_spots_land_in_search_band(two_1d):
    t = 200.0
    spots = find_hot_spots(two_1d, t, _rays(two_1d, 2))
    assert 1 <= len(spots) <= 2
    values = [v for _, v in spots]
    assert values == sorted(values, reverse=True)
    lo = math.sqrt(6.0 * t) - two_1d.diameter - 1.0
    hi = math.sqrt(6.0 * t) + 1.0
    for spot, value in spots:
        assert value > 0.0
        rho = two_1d.hull.distance(spot)[0]
        assert lo - 1.0 <= rho <= hi + 1.0


def test_cold_spot_amplitude_invariance():
    base = make_datum([SmoothBump((-0.5,), 0.7, 1.0),
                       SmoothBump((0.9,), 0.4, 0.6)], 1)
    scaled = make_datum([SmoothBump((-0.5,), 0.7, 10.0),
                         SmoothBump((0.9,), 0.4, 6.0)], 1)
    pa, va = find_cold_spot(base, 200.0)
    pb, vb = find_cold_spot(scaled, 200.0)
    assert abs(pa[0] - pb[0]) < 1e-8
    assert vb == pytest.approx(10.0 * va, rel=1e-10)


def test_certificates_all_pass_late_time_1d(two_1d):
    results = certify_signs(two_1d, 400.0)
    assert set(results) == set(PROPOSITIONS)
    for name, res in results.items():
        assert isinstance(res, CertificateResult)
        assert res.passed, (name, res.margin)
        assert res.margin > 0.0
        assert res.samples > 0


def test_certificates_flag_early_time(two_1d):
    results = certify_signs(two_1d, 1.0, order=48)
    assert set(results) == set(PROPOSITIONS)
    assert not results["negativity_null"].passed
    empty = results["positivity_crit"]
    assert (empty.passed, empty.margin, empty.samples) == (False, -math.inf, 0)


def test_certify_unknown_proposition(two_1d):
    with pytest.raises(ValueError, match="unknown proposition"):
        certify_signs(two_1d, 10.0, propositions=("negativity_null", "bogus"))
    with pytest.raises(ValueError, match="unknown proposition"):
        empirical_threshold(two_1d, "bogus")


def test_certify_evaluates_each_sample_set_once(two_2d, monkeypatch):
    # Each certificate's samples go to the evaluators as one block; the two
    # A bounds share theirs. The margins are those of per-point evaluation.
    blocks = []

    def counted(name):
        evaluator = getattr(features, name)

        def call(datum, pts, *args, **kwargs):
            blocks.append((name, len(pts)))
            return evaluator(datum, pts, *args, **kwargs)
        monkeypatch.setattr(features, name, call)

    for name in ("eval_u", "eval_grad_u", "eval_dir2_u"):
        counted(name)
    t = 400.0
    results = certify_signs(two_2d, t, order=32, direction_count=3)
    kinds = [name for name, _ in blocks]
    assert kinds.count("eval_u") == 5
    assert kinds.count("eval_grad_u") == 3
    assert kinds.count("eval_dir2_u") == 2
    monkeypatch.undo()
    worst = min(-eval_u(two_2d, x, t, order=32).value
                for x in features._interior_points(two_2d.hull, INTERIOR_SAMPLES, 0))
    assert results["negativity_null"].margin <= worst
    assert results["negativity_null"].samples == blocks[0][1]


def test_certify_subset(two_1d):
    results = certify_signs(two_1d, 400.0, propositions=("convex",), order=48)
    assert list(results) == ["convex"]
    assert results["convex"].passed


def test_empirical_threshold_dyadic_onset(two_1d):
    got = empirical_threshold(two_1d, "negativity_null", order=48)
    assert got == 4.0


def test_rate_fit_recovers_power_law():
    ts = [10.0 * 2.0 ** k for k in range(6)]
    fit = rate_fit([(t, 3.7 / t) for t in ts])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)
    assert fit.residual < 1e-12


def test_rate_fit_rejections():
    good = [(1.0, 1.0), (2.0, 0.5), (4.0, 0.25), (8.0, 0.125)]
    with pytest.raises(ValueError, match="four samples"):
        rate_fit(good[:3])
    with pytest.raises(ValueError, match="geometrically"):
        rate_fit([(1.0, 1.0), (2.0, 0.5), (3.0, 0.33), (8.0, 0.125)])
    with pytest.raises(ValueError, match="positive"):
        rate_fit([(1.0, 1.0), (2.0, 0.5), (4.0, -0.25), (8.0, 0.125)])


def test_spot_report_structure(two_1d):
    report = build_spot_report(two_1d, 200.0, order=32)
    assert report.t == 200.0
    assert report.radius_null_reference == pytest.approx(20.0, rel=1e-15)
    assert len(report.rays) == 2
    for row in report.rays:
        assert row["rho_null"] is not None
        assert row["rho_crit"] is not None
    assert report.cold_spot is not None
    assert math.isfinite(report.centroid_gap)
    assert set(report.certificates) == set(PROPOSITIONS)
    payload = json.dumps(report.to_dict())
    assert "rho_null" in payload


def test_feature_calls_require_hull():
    bare = make_datum([SmoothBump((0.0,) * 4, 1.0, 1.0)], 4)
    assert bare.hull is None
    with pytest.raises(ValueError, match="hull"):
        find_cold_spot(bare, 10.0)


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 424242])
def test_halton_matches_scipy(dimension, seed):
    # The package's scrambled Halton sequence is scipy's, bit for bit, over
    # consecutive draws (the interior sampler continues the index per block).
    sampler = qmc.Halton(d=dimension, scramble=True, seed=seed)
    perms = _halton_permutations(dimension, seed)
    start = 0
    for count in (64, 37):
        np.testing.assert_array_equal(_halton_block(perms, start, count),
                                      sampler.random(count))
        start += count


@pytest.mark.parametrize("name", ["single_1d", "two_2d", "single_3d"])
@pytest.mark.parametrize("seed", [0, 424242])
def test_interior_points_match_contains(name, seed, request):
    # The masked blocks keep exactly the Halton rows that `contains`
    # accepts one at a time, in the same order.
    hull = request.getfixturevalue(name).hull
    count = INTERIOR_SAMPLES
    lo, hi = hull.vertices.min(axis=0), hull.vertices.max(axis=0)
    sampler = qmc.Halton(d=hull.dimension, scramble=True, seed=seed)
    expected = []
    while len(expected) < count:
        block = lo + (hi - lo) * sampler.random(4 * count)
        expected.extend(row for row in block if hull.contains(row))
    np.testing.assert_array_equal(_interior_points(hull, count, seed),
                                  np.array(expected[:count]))
