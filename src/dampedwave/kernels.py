"""Modified Bessel functions and the radial kernels of the damped wave ball means.

Two kernel families, indexed by the parity of the space dimension they serve:

* odd family   k_l(s) = I_l(s) / s^l
* even family  k_l(s) = sum_j s^(2j+1) / ((2(j+l))!! (2j+1)!!)

and the combined kernel ktilde_l(r, t) = t k_(l+1)(s) - 2 k_l(s) evaluated at
s = sqrt(t^2 - r^2)/2.  All large-time consumers need e^(-t/2) ktilde_l, which
is computed here in scaled form so that nothing overflows over the checked
argument range s <= 1e6 (t up to 2e6), where the kernels are held to mpmath.

The odd family is scipy's ive over its whole domain, except below s = 1e-3,
where ive(l, s) / s^l underflows and a short power series takes over.  The
even family has no SciPy routine that is both fast and accurate on small
arrays, so it keeps its own positive series and terminating large-argument
form. scipy.special is imported at the first odd-family call, so the even
family, all that 2D data use, loads no SciPy.
"""

from __future__ import annotations

import math

import numpy as np

# Small/large argument switch of the even family (the odd family is ive
# everywhere).  Up to max(switch, ell^2) it is the positive series, above
# that the large-argument form.  That form terminates but drops the Struve
# term of DLMF 11.6.2, of relative size about
# 2 (s/2)^(ell-1) e^(-s) / (ell-1)!: 2.3e-10 at ell = 5 just above s = 30,
# so the switch sits at 45.  There, against mpmath for ell <= 64 and
# s in [1e-3, 1e5], the worst relative error is 2.2e-14 for the even family
# and 1.4e-13 for the odd one (ive itself, at small s and large ell).
SERIES_ASYMPTOTIC_SWITCH = 45.0

# Above this argument the unscaled even-family series would overflow float64.
_PLAIN_SERIES_MAX = 600.0

# Factorials are evaluated iteratively in float; orders past this are refused.
MAX_ORDER = 64

# The checked argument range: every kernel is held to mpmath for s up to
# this, and a larger or non-finite argument is refused (ive is NaN above
# 2^30).
_MAX_ARGUMENT = 1e6

_PARITIES = ("odd", "even")


def _check_order(ell: int) -> int:
    if not isinstance(ell, (int, np.integer)):
        raise TypeError(f"kernel order must be an integer, got {ell!r}")
    if ell < 0 or ell > MAX_ORDER:
        raise ValueError(f"kernel order must be in [0, {MAX_ORDER}], got {ell}")
    return int(ell)


def _check_parity(parity: str) -> str:
    if parity not in _PARITIES:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return parity


def _as_array(s):
    arr = np.asarray(s, dtype=float)
    if (arr < 0).any():
        raise ValueError("argument must be >= 0")
    if not (arr <= _MAX_ARGUMENT).all():
        raise ValueError(f"argument must be finite and at most {_MAX_ARGUMENT:g}")
    return arr


def _give_back(value: np.ndarray, template) -> float | np.ndarray:
    if np.ndim(template) == 0:
        return float(value)
    return value


# ---------------------------------------------------------------------------
# modified Bessel I_ell


def bessel_i_scaled(ell: int, s):
    """e^(-s) I_ell(s) for s in the checked range [0, 1e6]."""
    from scipy.special import ive
    ell = _check_order(ell)
    return _give_back(ive(ell, _as_array(s)), s)


# ---------------------------------------------------------------------------
# kernel families


def _odd_k_series_scaled(ell: int, s: np.ndarray) -> np.ndarray:
    # e^(-s) k_l(s) with k_l(s) = (1/2^l) sum_j (s/2)^(2j) / (j! (j+l)!);
    # used near s = 0 where I_l(s)/s^l is 0/0.  Three terms suffice below 1e-3.
    q = (0.5 * s) ** 2
    c0 = 1.0 / (2.0**ell * math.factorial(ell))
    t1 = q / (ell + 1.0)
    t2 = q * q / (2.0 * (ell + 1.0) * (ell + 2.0))
    t3 = q * q * q / (6.0 * (ell + 1.0) * (ell + 2.0) * (ell + 3.0))
    return c0 * (1.0 + t1 + t2 + t3) * np.exp(-s)


def _odd_k_large_scaled(ell: int, s: np.ndarray) -> np.ndarray:
    """ive(ell, s) / s^ell, for s >= 1e-3."""
    from scipy.special import ive
    # As in _even_k_asymptotic_scaled, an overflowing s**ell means the true
    # value is below the smallest normal double; 0 is right.
    with np.errstate(over="ignore"):
        return ive(ell, s) / s**ell


def _even_k_series_scaled(ell: int, s: np.ndarray) -> np.ndarray:
    """Double-factorial series for the even family, times e^(-s).

    The series stops after the first term j at which term <= 1e-18 * total.
    That ratio grows with s, so the largest s is the last to get there: the
    same recurrence run once on max(s), as a scalar, gives the term count
    for the whole array, and no per-term test over it is needed. A smaller
    s that would have stopped earlier takes terms that each add under half
    an ulp, so its sum does not change.
    """
    dfac = 1.0
    for m in range(1, ell + 1):
        dfac *= 2.0 * m
    peak = float(np.max(s, initial=0.0))
    term = peak / dfac
    total = term
    ss = peak * peak
    for count in range(1, 1200):
        term = term * ss / ((2.0 * count + 2.0 * ell) * (2.0 * count + 1.0))
        total += term
        if term <= 1e-18 * total:
            break
    term = s / dfac
    total = term.copy()
    ss = s * s
    for j in range(1, count + 1):
        term *= ss
        term /= (2.0 * j + 2.0 * ell) * (2.0 * j + 1.0)
        total += term
    return total * np.exp(-s)


def _even_k_asymptotic_scaled(ell: int, s: np.ndarray) -> np.ndarray:
    """e^(-s) k_ell(s), even family, large argument.

    Same expansion shape as the DLMF 10.40.1 Bessel bracket with order
    shifted to ell - 1/2; the product (ell - j)(ell + j - 1) hits zero at j = ell, so
    the bracket terminates and the only error is exponentially small.
    """
    term = np.ones_like(s)
    total = np.ones_like(s)
    for i in range(ell - 1):
        term = term * (-(ell - (i + 1.0)) * (ell + i) / (2.0 * (i + 1) * s))
        total += term
    # s**ell overflows only where the true value is below the smallest normal
    # double (ell = 64, s near 1e5), so the 0 that results is right.
    with np.errstate(over="ignore"):
        return total / (2.0 * s**ell)


def kernel_scaled(parity: str, ell: int, s):
    """e^(-s) k_ell(s) for either family, valid on all s >= 0."""
    _check_parity(parity)
    ell = _check_order(ell)
    arr = _as_array(s)
    if parity == "odd":
        # Each branch is elementwise, so where one covers the whole array its
        # result is returned as it stands.
        low = arr < 1e-3
        series, large = _odd_k_series_scaled, _odd_k_large_scaled
    else:
        # The terminating form cancels badly until ell^2 / s is small, so
        # the series runs up to ~ell^2. The series' term count follows the
        # largest s it is given (see _even_k_series_scaled), and any count at
        # or above an element's own gives that element the same sum, so the
        # whole array may go through the series as one.
        cut = max(SERIES_ASYMPTOTIC_SWITCH, float(ell * ell))
        low = arr <= min(cut, _PLAIN_SERIES_MAX)
        series, large = _even_k_series_scaled, _even_k_asymptotic_scaled
    if not low.any():
        return _give_back(large(ell, arr), s)
    if low.all():
        return _give_back(series(ell, arr), s)
    out = np.empty_like(arr)
    out[low] = series(ell, arr[low])
    high = ~low
    out[high] = large(ell, arr[high])
    return _give_back(out, s)


def kernel_at_zero(parity: str, ell: int) -> float:
    """k_ell(0): 1/(2^l l!) for the odd family, 0 for the even family."""
    _check_parity(parity)
    ell = _check_order(ell)
    if parity == "odd":
        return 1.0 / (2.0**ell * math.factorial(ell))
    return 0.0


def kernel_deriv_at_zero(parity: str, ell: int) -> float:
    """k_ell'(0): 0 for the odd family, 1/(2^l l!) for the even family."""
    _check_parity(parity)
    ell = _check_order(ell)
    if parity == "odd":
        return 0.0
    return 1.0 / (2.0**ell * math.factorial(ell))


# ---------------------------------------------------------------------------
# combined kernel and its large-time expansions


def _check_rt(r, t):
    r_arr = np.asarray(r, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if (t_arr <= 0).any():
        raise ValueError("t must be > 0")
    if (r_arr < 0).any():
        raise ValueError("r must be >= 0")
    if (r_arr > t_arr * (1.0 + 1e-13)).any():
        raise ValueError("r must not exceed t")
    return r_arr, np.broadcast_to(t_arr, np.broadcast_shapes(r_arr.shape, t_arr.shape))


def kernel_ktilde_scaled(parity: str, ell: int, r, t):
    """e^(-t/2) [t k_(ell+1)(s) - 2 k_ell(s)] at s = sqrt(t^2 - r^2)/2, for
    one integer order ell.

    Uses e^(-t/2) k(s) = e^(s - t/2) [e^(-s) k(s)] with
    s - t/2 = -r^2 / (2 (t + sqrt(t^2 - r^2))), which is exact and free of
    cancellation at r ~ t; nothing here overflows for s up to 1e6, the
    checked argument range (t up to 2e6); a larger s is refused.
    """
    _check_parity(parity)
    ell = _check_order(ell)
    r_arr, t_arr = _check_rt(r, t)
    gap = np.maximum(t_arr - r_arr, 0.0)
    s = 0.5 * np.sqrt(gap * (t_arr + r_arr))
    if parity == "even" and ell == 0:
        val = _even_ktilde0_scaled(r_arr, t_arr, s)
    else:
        expfac = np.exp(-r_arr * r_arr / (2.0 * (t_arr + 2.0 * s)))
        val = expfac * (t_arr * kernel_scaled(parity, ell + 1, s)
                        - 2.0 * kernel_scaled(parity, ell, s))
    return _give_back(val, s)


def _even_ktilde0_scaled(r_arr, t_arr, s):
    """The even order-0 combined kernel, scaled.

    t k_1 - 2 k_0 = t (cosh s - 1)/s - 2 sinh s nearly cancels: the true
    value is ~ -2 e^(-t/2) at r = 0, exponentially below both parts.
    Grouping by exponential scale gives an exact, stable form
      (g/s) e^(-g) + ((t+2s)/(2s)) e^(-(t/2+s)) - (t/s) e^(-t/2),
    g = t/2 - s = r^2/(2(t+2s)).  Near s = 0 the generic path is fine
    (result and parts are the same order there).
    """
    g = r_arr * r_arr / (2.0 * (t_arr + 2.0 * s))
    with np.errstate(divide="ignore", invalid="ignore"):
        stable = (
            (g / s) * np.exp(-g)
            + ((t_arr + 2.0 * s) / (2.0 * s)) * np.exp(-(0.5 * t_arr + s))
            - (t_arr / s) * np.exp(-0.5 * t_arr)
        )
        generic = np.exp(-g) * (
            t_arr * kernel_scaled("even", 1, np.clip(s, None, 2.0))
            - 2.0 * kernel_scaled("even", 0, np.clip(s, None, 2.0))
        )
    return np.where(s >= 1.0, stable, generic)


def _finite_time(t) -> np.ndarray:
    """t as an array of finite positive times: an expansion in 1/t has no
    value at a NaN or infinite t."""
    t_arr = np.asarray(t, dtype=float)
    if not (np.isfinite(t_arr) & (t_arr > 0)).all():
        raise ValueError("t must be finite and > 0")
    return t_arr


def ktilde_leading_order(parity: str, ell: int, t):
    """Fixed-radius leading order of e^(-t/2) ktilde_ell(r, t) as t grows."""
    _check_parity(parity)
    ell = _check_order(ell)
    t_arr = _finite_time(t)
    if parity == "odd":
        val = -(2.0 * ell + 1.0) * 2.0 ** (ell + 1) / (
            math.sqrt(math.pi) * t_arr ** (ell + 1.5)
        )
    else:
        val = -ell * 2.0 ** (ell + 1) / t_arr ** (ell + 1.0)
    return _give_back(np.asarray(val, dtype=float), t)


def _expansion_prefactor(parity: str, ell: int, r_arr, t_arr):
    gap = np.clip(t_arr - r_arr, 0.0, None)
    root = np.sqrt(gap * (t_arr + r_arr))
    expfac = np.exp(-r_arr * r_arr / (2.0 * (t_arr + root)))
    if parity == "odd":
        pref = 2.0 ** (ell + 1) / (math.sqrt(math.pi) * t_arr ** (ell + 0.5))
    else:
        pref = 2.0**ell / t_arr**ell
    return pref * expfac


def ktilde_expansion_sqrt(parity: str, ell: int, r, t):
    """Large-t expansion of e^(-t/2) ktilde_ell(r, t) for r of order sqrt(t).

    All terms through 1/t^2 relative to the prefactor; the omitted remainder
    is O(1/t^3).
    """
    _check_parity(parity)
    ell = _check_order(ell)
    r_arr, t_arr = _check_rt(r, _finite_time(t))
    q = (r_arr / t_arr) ** 2
    if parity == "odd":
        bracket = (
            -(2.0 * ell + 1.0) / t_arr
            + 0.5 * q
            + (ell + 2.0) / 4.0 * q * q
            - 3.0 * (2.0 * ell + 1.0) * (2.0 * ell + 3.0) * r_arr**2 / (8.0 * t_arr**3)
            + (2.0 * ell - 1.0) * (2.0 * ell + 1.0) * (2.0 * ell + 3.0) / (4.0 * t_arr**2)
        )
    else:
        bracket = (
            -2.0 * ell / t_arr
            + 0.5 * q
            + (2.0 * ell + 3.0) / 8.0 * q * q
            - 3.0 * ell * (ell + 1.0) * r_arr**2 / (2.0 * t_arr**3)
            + 2.0 * ell * (ell - 1.0) * (ell + 1.0) / t_arr**2
        )
    val = _expansion_prefactor(parity, ell, r_arr, t_arr) * bracket
    if np.ndim(r) == 0 and np.ndim(t) == 0:
        return float(val)
    return val
