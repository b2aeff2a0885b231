import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import iv, ive, modstruve

from dampedwave.kernels import (bessel_i_scaled, kernel_at_zero,
                                kernel_deriv_at_zero, kernel_ktilde_scaled,
                                kernel_scaled, ktilde_expansion_sqrt,
                                ktilde_leading_order)

S_GRID = np.geomspace(0.1, 30.0, 40)
FD_H = 1e-3


def fd5(fn, s, h=FD_H):
    """Five-point central difference, O(h^4)."""
    return (-fn(s + 2 * h) + 8 * fn(s + h) - 8 * fn(s - h) + fn(s - 2 * h)) / (12 * h)


def test_bessel_matches_mpmath_scaled():
    with mpmath.workdps(40):
        for ell in range(7):
            for s in np.concatenate([S_GRID, [100.0, 1e3, 1e4, 1e6]]):
                mine = bessel_i_scaled(ell, float(s))
                ref = float(mpmath.besseli(ell, s) * mpmath.exp(-mpmath.mpf(s)))
                assert mine == pytest.approx(ref, rel=1e-11), (ell, s)


def test_bessel_overflow_discipline():
    val = bessel_i_scaled(0, 1e6)
    assert math.isfinite(val) and val > 0.0


def test_bessel_three_term_identity():
    # I_{l-1}(s) - I_{l+1}(s) = (2 l / s) I_l(s), in scaled form.
    for ell in range(1, 6):
        for s in S_GRID:
            lhs = bessel_i_scaled(ell - 1, float(s)) - bessel_i_scaled(ell + 1, float(s))
            rhs = 2.0 * ell / s * bessel_i_scaled(ell, float(s))
            assert lhs == pytest.approx(rhs, rel=1e-10), (ell, s)


def test_bessel_two_corrections_truncation_order():
    # The remainder after the 1/s^2 term falls like 1/s^3: scaled residual
    # times s^3 must not grow as s doubles.
    # The two-correction bracket is built here in scaled form, since the
    # unscaled one overflows past s ~ 709.
    for ell in range(4):
        prev = None
        for s in (1e4, 2e4, 4e4, 8e4):
            bracket = (1.0 - (ell - 0.5) * (ell + 0.5) / (2.0 * s)
                       + (ell - 1.5) * (ell - 0.5) * (ell + 0.5) * (ell + 1.5)
                       / (8.0 * s * s))
            scaled_two = bracket / math.sqrt(2.0 * math.pi * s)
            q = abs(bessel_i_scaled(ell, s) - scaled_two) * s ** 3
            if prev is not None:
                assert q <= prev * 1.2, (ell, s)
            prev = q


def test_kernel_recursion_under_fd():
    # d/ds k_l = s k_{l+1} (+ k_l'(0) for the even family), checked on the
    # scaled functions g_l = e^(-s) k_l: g_l' = s g_{l+1} - g_l (+ e^(-s) c).
    # The residual is normalized by the identity's term scale: the derivative
    # itself crosses zero (even l=0: g' = e^(-2s)), where any FD is roundoff.
    for parity in ("odd", "even"):
        for ell in range(6):
            c = kernel_deriv_at_zero(parity, ell)
            for s in S_GRID:
                g = lambda v: kernel_scaled(parity, ell, v)
                lhs = fd5(g, float(s))
                rhs = (s * kernel_scaled(parity, ell + 1, float(s))
                       - g(float(s)) + math.exp(-s) * c)
                scale = (abs(g(float(s)))
                         + abs(s * kernel_scaled(parity, ell + 1, float(s))))
                assert abs(lhs - rhs) <= 1e-6 * scale, (parity, ell, s)


def test_kernel_closed_forms():
    # Even l=0 is e^(-s) sinh(s); even l=1 is e^(-s)(cosh(s)-1)/s;
    # odd l=0 is the scaled I_0.
    for s in (0.5, 2.0, 10.0):
        assert kernel_scaled("even", 0, s) == pytest.approx(
            math.exp(-s) * math.sinh(s), rel=1e-13)
        assert kernel_scaled("even", 1, s) == pytest.approx(
            math.exp(-s) * (math.cosh(s) - 1.0) / s, rel=1e-13)
        assert kernel_scaled("odd", 0, s) == pytest.approx(
            float(ive(0, s)), rel=1e-13)


MP_ORDERS = (0, 1, 2, 3, 4, 5, 6, 8, 13, 21, 25, 36, 48, 64)
# Geometric sweep plus points either side of the small/large switch (45), of
# s = 600 where the even series stops, and of the ell^2 cut at ell = 64.
MP_ARGS = np.concatenate([np.geomspace(1e-3, 1e6, 28),
                          [31.0, 44.0, 46.0, 610.0, 700.0, 1300.0, 2300.0,
                           4000.0, 4100.0]])


def _kernel_scaled_mpmath(parity, ell, s):
    # e^(-s) k_l(s): besseli for the odd family, the modified-Struve identity
    # of DLMF 11.2 for the even family.
    s = mpmath.mpf(s)
    if parity == "odd":
        k = mpmath.besseli(ell, s) / s**ell
    else:
        k = mpmath.sqrt(mpmath.pi / 2) * s ** (0.5 - ell) * mpmath.struvel(ell - 0.5, s)
    return mpmath.exp(-s) * k


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_scaled_matches_mpmath_whole_domain():
    # Both families over the advertised domain, ell <= 64 and s up to 1e6,
    # against a 40-digit reference, with no overflow warning. Cells whose
    # true value is below 1e-290 underflow in double and are skipped.
    worst = {}
    checked = 0
    with mpmath.workdps(40):
        for parity in ("odd", "even"):
            for ell in MP_ORDERS:
                mine = kernel_scaled(parity, ell, MP_ARGS)
                for s, got in zip(MP_ARGS, mine):
                    ref = _kernel_scaled_mpmath(parity, ell, float(s))
                    if ref < 1e-290:
                        continue
                    checked += 1
                    rel = float(abs(got - ref) / ref)
                    if rel > worst.get(parity, (0.0,))[0]:
                        worst[parity] = (rel, ell, float(s))
    assert checked > 900
    bad = {parity: cell for parity, cell in worst.items() if cell[0] > 1e-12}
    assert not bad, bad


# The even series/large-argument switch sits at 45 for orders 0-6, at ell^2
# for 7, 8 and 13, and at the plain-series cap of 600 for 25, 36 and 64.
WHOLE_ARRAY_ORDERS = tuple(range(9)) + (13, 25, 36, 64)


def _branch_crossing_arrays(ell):
    """Six arrays with s up to 2e3, each on both sides of the even switch."""
    cut = min(max(45.0, float(ell * ell)), 600.0)
    rng = np.random.default_rng(ell)
    return [np.geomspace(1e-4, 2e3, 97),
            np.linspace(0.0, 2e3, 64),
            rng.permutation(np.concatenate([rng.uniform(0.0, cut, 10),
                                            rng.uniform(cut, 2e3, 40)])),
            rng.uniform(0.0, 2.0 * cut, 50),
            cut * np.linspace(0.8, 1.2, 41),
            10.0 ** rng.uniform(-3.0, math.log10(2e3), 80)], cut


@pytest.mark.parametrize("ell", WHOLE_ARRAY_ORDERS)
def test_even_kernel_whole_array_matches_elementwise(ell):
    # The even series takes its term count from the largest argument it is
    # given, and the whole array goes to one branch when it can. Neither may
    # move a bit: each element comes out as it does from a call on it alone.
    arrays, cut = _branch_crossing_arrays(ell)
    for s in arrays:
        assert (s <= cut).any() and (s > cut).any()
        whole = kernel_scaled("even", ell, s)
        alone = np.array([kernel_scaled("even", ell, float(v)) for v in s])
        assert np.array_equal(whole.view(np.int64), alone.view(np.int64)), ell


def test_kernel_at_zero_closed_forms():
    for ell in range(6):
        ref = 1.0 / (2.0 ** ell * math.factorial(ell))
        assert kernel_at_zero("odd", ell) == ref
        assert kernel_at_zero("even", ell) == 0.0
        assert kernel_deriv_at_zero("odd", ell) == 0.0
        assert kernel_deriv_at_zero("even", ell) == ref


def _k_unscaled_scipy(parity, ell, s):
    # Independent unscaled references: I_l(s)/s^l for the odd family and the
    # modified-Struve identity sqrt(pi/2) s^(1/2-l) L_(l-1/2)(s) for the even
    # family (DLMF 11.2).
    if parity == "odd":
        return float(iv(ell, s)) / s**ell
    return (math.sqrt(math.pi / 2.0) * s ** (0.5 - ell)
            * float(modstruve(ell - 0.5, s)))


def test_ktilde_recombination():
    # The scaled combined kernel equals e^(-t/2)(t k_{l+1}(s) - 2 k_l(s)),
    # s = sqrt(t^2 - r^2)/2, where the unscaled route stays in range.
    rng = np.random.default_rng(0)
    for parity in ("odd", "even"):
        for ell in range(4):
            for _ in range(20):
                t = rng.uniform(0.5, 80.0)
                r = rng.uniform(0.0, t)
                s = math.sqrt(t * t - r * r) / 2.0
                direct = math.exp(-t / 2.0) * (
                    t * _k_unscaled_scipy(parity, ell + 1, s)
                    - 2.0 * _k_unscaled_scipy(parity, ell, s))
                via = kernel_ktilde_scaled(parity, ell, r, t)
                assert via == pytest.approx(direct, rel=2e-8, abs=1e-300), (
                    parity, ell, r, t)


def test_ktilde_light_cone_edge():
    for parity in ("odd", "even"):
        for ell in range(3):
            t = 7.0
            ref = math.exp(-t / 2.0) * (t * kernel_at_zero(parity, ell + 1)
                                        - 2.0 * kernel_at_zero(parity, ell))
            assert kernel_ktilde_scaled(parity, ell, t, t) == pytest.approx(
                ref, rel=1e-13, abs=1e-18)


def test_leading_order_regime():
    # Scaled deviation (ratio - 1) t stays small at t = 1e4 for low orders;
    # even l=0 has leading coefficient exactly 0 and is excluded (that family
    # starts at l = 1).
    t = 1e4
    for parity, ells in (("odd", range(3)), ("even", range(1, 3))):
        for ell in ells:
            for r in (0.0, 1.0, 2.0):
                exact = kernel_ktilde_scaled(parity, ell, r, t)
                lead = ktilde_leading_order(parity, ell, t)
                assert abs(exact / lead - 1.0) * t < 10.0, (parity, ell, r)


def test_sqrt_expansion_accuracy():
    t = 1e4
    for parity in ("odd", "even"):
        for ell in range(4):
            r = math.sqrt(t)
            exact = kernel_ktilde_scaled(parity, ell, r, t)
            approx = ktilde_expansion_sqrt(parity, ell, r, t)
            assert approx == pytest.approx(exact, rel=5e-7), (parity, ell)


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_ktilde_orders_share_one_call(parity):
    # Several orders in one call share s and each kernel order, and match
    # separate calls bit for bit, the stable even order 0 included.
    t = 30.0
    r = np.linspace(0.0, t, 41)
    orders = (0, 2, 1, 3)
    together = kernel_ktilde_scaled(parity, orders, r, t)
    assert isinstance(together, tuple) and len(together) == len(orders)
    for ell, val in zip(orders, together):
        assert np.array_equal(val, kernel_ktilde_scaled(parity, ell, r, t))
    pair = kernel_ktilde_scaled(parity, [2, 1], 3.0, t)
    assert pair == (kernel_ktilde_scaled(parity, 2, 3.0, t),
                    kernel_ktilde_scaled(parity, 1, 3.0, t))
    assert all(isinstance(v, float) for v in pair)
    # Every order and every radius is still checked.
    with pytest.raises(ValueError):
        kernel_ktilde_scaled(parity, (1, 64), r, t)
    with pytest.raises(TypeError):
        kernel_ktilde_scaled(parity, (1, 2.0), r, t)
    with pytest.raises(ValueError):
        kernel_ktilde_scaled(parity, (1, 2), 2.0 * t, t)


def test_input_validation():
    with pytest.raises(ValueError):
        kernel_scaled("both", 0, 1.0)
    with pytest.raises(ValueError):
        kernel_scaled("odd", -1, 1.0)
    with pytest.raises(ValueError):
        kernel_ktilde_scaled("odd", 0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ktilde_leading_order("odd", 0, -1.0)
    # Past the checked range s <= 1e6, or at a non-finite s (ive gives NaN
    # above 2^30), every kernel refuses its argument.
    for bad in (math.nan, math.inf, math.nextafter(1e6, math.inf), 2.0**31):
        for call in (lambda: bessel_i_scaled(1, bad), lambda: kernel_scaled("odd", 1, bad),
                     lambda: kernel_scaled("even", 2, np.array([1.0, bad])),
                     lambda: kernel_ktilde_scaled("odd", 1, 0.0, 2.0 * bad)):
            with pytest.raises(ValueError, match="finite and at most 1e"):
                call()
    with pytest.raises(ValueError, match="finite and at most 1e"):
        kernel_ktilde_scaled("even", 0, math.nan, 10.0)
    # A non-finite time has no expansion: they gave NaN, and the leading
    # order -0.0 at t = inf.
    for bad in (math.nan, math.inf):
        for call in (lambda: ktilde_leading_order("odd", 0, bad),
                     lambda: ktilde_leading_order("even", 1, np.array([10.0, bad])),
                     lambda: ktilde_expansion_sqrt("odd", 1, 1.0, bad),
                     lambda: ktilde_expansion_sqrt("even", 0, 0.0, bad)):
            with pytest.raises(ValueError, match="t must be finite and > 0"):
                call()


@settings(max_examples=60, deadline=None)
@given(ell=st.integers(0, 6), s=st.floats(1e-3, 200.0))
def test_scaled_bessel_bounded_and_ordered(ell, s):
    val = bessel_i_scaled(ell, s)
    assert 0.0 < val <= 1.0
    assert bessel_i_scaled(ell + 1, s) <= val + 1e-15


@settings(max_examples=60, deadline=None)
@given(parity=st.sampled_from(["odd", "even"]), ell=st.integers(0, 5),
       s=st.floats(1e-3, 100.0))
def test_scaled_kernel_positive(parity, ell, s):
    assert kernel_scaled(parity, ell, s) > 0.0


@settings(max_examples=40, deadline=None)
@given(parity=st.sampled_from(["odd", "even"]), ell=st.integers(0, 4),
       t=st.floats(1.0, 500.0), frac=st.floats(0.0, 1.0))
def test_ktilde_finite_inside_cone(parity, ell, t, frac):
    val = kernel_ktilde_scaled(parity, ell, frac * t, t)
    assert math.isfinite(val)
