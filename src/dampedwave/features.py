"""Geometric features of the evolved field: the null and critical sets near
their limiting radii, delayed hot spots, the cold spot, sign certificates
with explicit envelopes, empirical onset times, and log-log rate fits.

All searches run along outer-normal rays of the support hull: the annuli in
which the features live are exactly the sets hit by xi + rho nu over the
normal bundle. Region tests shrink each stated region by the hull's
discretization tolerance so a certificate never passes on points that might
lie outside the true region. Sampling is deterministic (seeded Halton plus
fixed ray grids) so repeated runs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import ConvexPolytope, NormalPoint, phi_map, sample_normal_bundle
from .initial_data import InitialDatum
from .solution import dimension_constants, eval_dir2_u, eval_grad_u, eval_u

__all__ = [
    "CertificateResult",
    "FeatureConvergenceError",
    "RateFit",
    "SpotReport",
    "PROPOSITIONS",
    "trace_null_radius",
    "find_critical_radius",
    "find_hot_spots",
    "find_cold_spot",
    "certify_signs",
    "empirical_threshold",
    "rate_fit",
    "build_spot_report",
    "default_psi",
]

Array = np.ndarray

DEFAULT_ORDER = 64
BISECTION_XTOL = 1e-6
DEDUPE_TOL = 1e-4
DIRECTION_COUNTS = {1: 2, 2: 16, 3: 32}
RAY_SAMPLES = 7
INTERIOR_SAMPLES = 64
CONVEX_PAIRS = 32

PROPOSITIONS = (
    "negativity_null",
    "positivity_null",
    "monotonicity_null",
    "positivity_crit",
    "negativity_crit",
    "concavity_crit",
    "lb_CS",
    "ub_A",
    "lb_A",
    "ub_E",
    "convex",
)


class FeatureConvergenceError(RuntimeError):
    """An iterative search hit its cap without meeting its tolerance."""


@dataclass(frozen=True)
class CertificateResult:
    passed: bool
    margin: float
    samples: int

    def to_dict(self) -> Dict[str, object]:
        return {"passed": self.passed, "margin": self.margin,
                "samples": self.samples}


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float


@dataclass
class SpotReport:
    t: float
    psi: float
    radius_null_reference: float
    radius_crit_reference: float
    diameter: float
    rays: List[Dict[str, object]] = field(default_factory=list)
    hot_spots: List[Tuple[Array, float]] = field(default_factory=list)
    cold_spot: Optional[Tuple[Array, float]] = None
    centroid_gap: float = float("nan")
    certificates: Dict[str, CertificateResult] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        cold = None
        if self.cold_spot is not None:
            cold = {"point": [float(v) for v in self.cold_spot[0]],
                    "value": self.cold_spot[1]}
        return {
            "t": self.t,
            "psi": self.psi,
            "radius_null_reference": self.radius_null_reference,
            "radius_crit_reference": self.radius_crit_reference,
            "diameter": self.diameter,
            "rays": self.rays,
            "hot_spots": [{"point": [float(v) for v in p], "value": val}
                          for p, val in self.hot_spots],
            "cold_spot": cold,
            "centroid_gap": self.centroid_gap,
            "certificates": {k: v.to_dict()
                             for k, v in self.certificates.items()},
        }


def default_psi(dimension: int, t: float, coefficient: Optional[float] = None) -> float:
    """Shell radius separating the feature annuli from the far field.

    The default coefficient 2n + 5 is the single choice satisfying the
    constraints of both the null-set and critical-set regimes.
    """
    if coefficient is None:
        coefficient = 2 * dimension + 5
    return math.sqrt(coefficient * t)


def _require_hull(datum: InitialDatum) -> ConvexPolytope:
    if datum.hull is None:
        raise ValueError("feature extraction needs the support hull "
                         "(dimensions one to three)")
    return datum.hull


def _ray_value(datum: InitialDatum, point: NormalPoint, rho: float, t: float,
               order: int) -> float:
    return eval_u(datum, phi_map(point, rho), t, order=order).value


def _ray_slope(datum: InitialDatum, point: NormalPoint, rho: float, t: float,
               order: int) -> float:
    grad = eval_grad_u(datum, phi_map(point, rho), t, order=order)
    return float(grad @ point.nu)


def _bisect(fn, lo: float, hi: float) -> Optional[float]:
    """Root of fn on [lo, hi] to BISECTION_XTOL; None without a sign change.

    Endpoint values of exactly zero also give None: the field vanishes
    identically outside the light cone, and a bracket end sitting there is
    not a sign crossing.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0.0) == (fhi > 0.0):
        return None
    while hi - lo > BISECTION_XTOL:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trace_null_radius(datum: InitialDatum, t: float, normal_point: NormalPoint,
                      order: int = DEFAULT_ORDER) -> Optional[float]:
    """Distance along the outer normal at which u crosses zero.

    Bisection on the bracket around sqrt(2nt); on certified data the field is
    monotone there, so the zero is unique. Returns None when the bracket ends
    do not change sign (a certificate failure, not an error).
    """
    _require_hull(datum)
    n = datum.dimension
    target = math.sqrt(2.0 * n * t)
    lo = max(0.0, target - datum.diameter - 1.0)
    hi = target + 1.0
    return _bisect(lambda rho: _ray_value(datum, normal_point, rho, t, order),
                   lo, hi)


def find_critical_radius(datum: InitialDatum, t: float,
                         normal_point: NormalPoint,
                         order: int = DEFAULT_ORDER) -> Optional[float]:
    """Distance along the outer normal at which nu . grad u crosses zero."""
    _require_hull(datum)
    n = datum.dimension
    target = math.sqrt((2.0 * n + 4.0) * t)
    lo = max(0.0, target - datum.diameter - 1.0)
    hi = target + 1.0
    return _bisect(lambda rho: _ray_slope(datum, normal_point, rho, t, order),
                   lo, hi)


def _golden_max(fn, lo: float, hi: float, xtol: float = 1e-7) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _extremum_search(datum: InitialDatum, t: float, x0: Array, sense: float,
                     order: int, cap: int = 1000, raise_on_cap: bool = True,
                     hull: Optional[ConvexPolytope] = None) -> Tuple[Array, float]:
    """Ascent on sense*u with Armijo backtracking.

    The directional second derivative sets the trial step (Newton along the
    gradient); a non-improving minimal step means the quadrature noise floor
    has been reached and the current point is returned. With raise_on_cap
    false the cap is a polish budget and the best point so far comes back:
    near-radial fields have an almost flat ring of maxima that no gradient
    method can traverse in finite time, and the ray seed already sits on it.
    """
    x = np.array(x0, dtype=float)
    xtol = 1e-10 * max(1.0, math.sqrt(t))
    step_cap = math.sqrt((2.0 * datum.dimension + 4.0) * t)
    fallback = 0.5 * datum.inradius
    value = sense * eval_u(datum, x, t, order=order).value
    for _ in range(cap):
        grad = sense * eval_grad_u(datum, x, t, order=order)
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            return x, sense * value
        direction = grad / gnorm
        curv = sense * eval_dir2_u(datum, x, t, direction, order=order)
        step = gnorm / abs(curv) if curv < 0.0 else fallback
        step = min(step, step_cap)
        moved = False
        for _ in range(40):
            trial = x + step * direction
            if hull is not None:
                rho, nearest, _ = hull.distance(trial)
                if rho > hull.hull_tol:
                    trial = nearest
            trial_value = sense * eval_u(datum, trial, t, order=order).value
            if trial_value > value + 1e-4 * step * gnorm:
                displacement = float(np.linalg.norm(trial - x))
                gain = trial_value - value
                x, value = trial, trial_value
                moved = True
                # A gain at the value's own precision floor is convergence,
                # not progress; without this stop a nearly flat ridge crawls
                # through the iteration cap.
                if displacement < xtol or gain < 1e-13 * abs(value):
                    return x, sense * value
                break
            step *= 0.5
        if not moved:
            return x, sense * value
    if raise_on_cap:
        raise FeatureConvergenceError(
            f"extremum search did not settle within {cap} iterations")
    return x, sense * value


def find_hot_spots(datum: InitialDatum, t: float,
                   directions: Sequence[NormalPoint],
                   order: int = DEFAULT_ORDER) -> List[Tuple[Array, float]]:
    """Local maxima of u(., t) near the critical shell, one pass per direction.

    Golden-section along each outer-normal ray seeds a full-space gradient
    ascent; results are deduplicated and sorted by value, best first.
    """
    _require_hull(datum)
    n = datum.dimension
    target = math.sqrt((2.0 * n + 4.0) * t)
    lo = max(0.0, target - datum.diameter - 1.0)
    hi = target + 1.0
    candidates: List[Tuple[Array, float]] = []
    for point in directions:
        rho = _golden_max(
            lambda r: _ray_value(datum, point, r, t, order), lo, hi)
        seed = phi_map(point, rho)
        spot, value = _extremum_search(datum, t, seed, +1.0, order,
                                       cap=25, raise_on_cap=False)
        candidates.append((spot, value))
    candidates.sort(key=lambda item: -item[1])
    kept: List[Tuple[Array, float]] = []
    for spot, value in candidates:
        if all(np.linalg.norm(spot - other) > DEDUPE_TOL for other, _ in kept):
            kept.append((spot, value))
    return kept


def find_cold_spot(datum: InitialDatum, t: float, order: int = DEFAULT_ORDER,
                   start: Optional[Array] = None) -> Tuple[Array, float]:
    """Minimum of u(., t) over the support hull, descending from the centroid."""
    hull = _require_hull(datum)
    x0 = datum.centroid if start is None else np.asarray(start, dtype=float)
    return _extremum_search(datum, t, x0, -1.0, order, hull=hull)


# Halton bases of the first three coordinates; hulls live in one to three
# dimensions.
_HALTON_BASES = (2, 3, 5)


def _halton_permutations(dimension: int, seed: int) -> List[Array]:
    """Digit permutations of the scrambled Halton sequence (A. B. Owen, "A
    randomized Halton algorithm in R", 2017), drawn as
    scipy.stats.qmc.Halton(dimension, scramble=True, seed=seed) draws them:
    one shuffled row per digit that can move a double, ceil(54/log2 b) - 1."""
    rng = np.random.default_rng(seed)
    perms = []
    for base in _HALTON_BASES[:dimension]:
        rows = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for row in rows:
            rng.shuffle(row)
        perms.append(rows)
    return perms


def _halton_block(perms: List[Array], start: int, count: int) -> Array:
    """Points start, ..., start + count - 1 of the scrambled Halton sequence."""
    out = np.zeros((count, len(perms)))
    for k, rows in enumerate(perms):
        base = rows.shape[1]
        idx = np.arange(start, start + count)
        scale = 1.0 / base
        for row in rows:
            out[:, k] += row[idx % base] * scale
            idx //= base
            scale /= base
    return out


def _interior_points(hull: ConvexPolytope, count: int, seed: int) -> Array:
    """Deterministic low-discrepancy points inside the hull."""
    verts = hull.vertices
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    perms = _halton_permutations(verts.shape[1], seed)
    blocks: List[Array] = []
    found = 0
    for k in range(64):
        if found == count:
            break
        block = lo + (hi - lo) * _halton_block(perms, 4 * count * k, 4 * count)
        rows = block[hull.inside(block)][:count - found]
        blocks.append(rows)
        found += len(rows)
    if not found:
        # Degenerate hull: fall back to its vertex average.
        return verts.mean(axis=0)[None, :]
    return np.concatenate(blocks)


def _parity_factor(n: int) -> float:
    if n % 2 == 1:
        return 2.0 ** ((n + 1) / 2.0) / math.sqrt(math.pi)
    return 2.0 ** (n / 2.0)


def _rho_grid(lo: float, hi: float) -> Array:
    if hi <= lo:
        return np.empty(0)
    return np.linspace(lo, hi, RAY_SAMPLES)


def certify_signs(datum: InitialDatum, t: float,
                  psi_coefficient: Optional[float] = None,
                  order: int = DEFAULT_ORDER, seed: int = 0,
                  propositions: Optional[Sequence[str]] = None,
                  direction_count: Optional[int] = None,
                  ) -> Dict[str, CertificateResult]:
    """Check each proposition's inequality on its (tolerance-shrunk) region.

    Every certificate reports the worst margin over its samples; a positive
    margin passes. Empty regions (t too small for the stated radii) fail with
    margin -inf: nothing was verified. Failures are data, never exceptions.
    """
    hull = _require_hull(datum)
    n = datum.dimension
    wanted = PROPOSITIONS if propositions is None else tuple(propositions)
    unknown = set(wanted) - set(PROPOSITIONS)
    if unknown:
        raise ValueError(f"unknown propositions: {sorted(unknown)}")

    delta = hull.hull_tol
    r_null = math.sqrt(2.0 * n * t)
    r_crit = math.sqrt((2.0 * n + 4.0) * t)
    psi = default_psi(n, t, psi_coefficient)
    d_f = datum.diameter
    mass = datum.mass
    dc = dimension_constants(n)
    pf = _parity_factor(n)

    count = DIRECTION_COUNTS[n] if direction_count is None else direction_count
    rays = sample_normal_bundle(hull, count)
    interior = _interior_points(hull, INTERIOR_SAMPLES, seed)

    def values(pts: Array) -> Array:
        return eval_u(datum, pts, t, order=order).value

    def grid(lo: float, hi: float) -> Tuple[Array, Array]:
        """Every ray's points at the rho grid on [lo, hi], ray after ray, and
        the outer normal at each point."""
        rhos = _rho_grid(lo, hi).tolist()
        pts = [phi_map(point, rho) for point in rays for rho in rhos]
        normals = [point.nu for point in rays for _ in rhos]
        return np.reshape(pts, (-1, n)), np.reshape(normals, (-1, n))

    def slopes(lo: float, hi: float) -> Array:
        pts, normals = grid(lo, hi)
        grads = eval_grad_u(datum, pts, t, order=order)
        return np.array([float(g @ nu) for g, nu in zip(grads, normals)])

    def result(margins: Array) -> CertificateResult:
        if margins.size == 0:
            return CertificateResult(False, -math.inf, 0)
        worst = float(np.min(margins))
        return CertificateResult(bool(worst > 0.0), worst, int(margins.size))

    out: Dict[str, CertificateResult] = {}

    if "negativity_null" in wanted:
        shell, _ = grid(0.0, r_null - d_f - delta)
        out["negativity_null"] = result(-values(np.concatenate([interior, shell])))

    if "positivity_null" in wanted:
        out["positivity_null"] = result(values(grid(r_null + delta, psi - delta)[0]))

    if "monotonicity_null" in wanted:
        out["monotonicity_null"] = result(slopes(max(0.0, r_null - d_f) + delta,
                                                 r_null - delta))

    if "positivity_crit" in wanted:
        out["positivity_crit"] = result(slopes(delta, r_crit - d_f - delta))

    if "negativity_crit" in wanted:
        out["negativity_crit"] = result(-slopes(r_crit + delta, psi - delta))

    if "concavity_crit" in wanted:
        pts, normals = grid(max(0.0, r_crit - d_f) + delta, r_crit - delta)
        out["concavity_crit"] = result(-eval_dir2_u(datum, pts, t, normals, order=order))

    if "lb_CS" in wanted:
        bound = n * dc.gamma * pf / (5.0 * t ** (n / 2.0 + 1.0)) * mass
        hull_points = np.array([point.xi for point in rays])
        out["lb_CS"] = result(-values(np.concatenate([interior, hull_points])) - bound)

    if "ub_A" in wanted or "lb_A" in wanted:
        ub = (7.0 * dc.gamma * pf / (10.0 * t ** (n / 2.0 + 1.0))
              * math.exp(-(n + 2.0) / 2.0) * mass)
        lb = (3.0 * dc.gamma * pf / (32.0 * t ** (n / 2.0 + 1.0))
              * math.exp(-(2.0 * n + 5.0) / 2.0) * mass)
        shell = values(grid(max(0.0, r_crit - d_f) + delta, r_crit - delta)[0])
        if "ub_A" in wanted:
            out["ub_A"] = result(ub - shell)
        if "lb_A" in wanted:
            out["lb_A"] = result(shell - lb)

    if "ub_E" in wanted:
        bound = (3.0 * dc.gamma * pf / (8.0 * t ** (n / 2.0))
                 * math.exp(-psi * psi / (4.0 * t)) * mass)
        far = values(grid(psi + delta, psi + delta + d_f + 2.0)[0])
        out["ub_E"] = result(bound - np.abs(far))

    if "convex" in wanted:
        rng = np.random.default_rng(seed)
        pts = _interior_points(hull, CONVEX_PAIRS, seed + 1)
        omegas = []
        for _ in pts:
            omega = rng.normal(size=n)
            omega /= np.linalg.norm(omega)
            omegas.append(omega)
        out["convex"] = result(eval_dir2_u(datum, pts, t, np.array(omegas), order=order))

    return out


def empirical_threshold(datum: InitialDatum, proposition: str,
                        psi_coefficient: Optional[float] = None,
                        order: int = DEFAULT_ORDER, seed: int = 0,
                        t_start: float = 1.0, t_cap: float = 1e5,
                        direction_count: Optional[int] = None,
                        ) -> Optional[float]:
    """Smallest dyadic t at which the certificate holds and keeps holding.

    A time passes only when the proposition certifies at t, 2t, and 4t.
    Returns None when no such t at or below the cap exists. The result is an
    empirical onset for this datum, not a proven threshold.
    """
    if proposition not in PROPOSITIONS:
        raise ValueError(f"unknown proposition: {proposition}")
    cache: Dict[float, bool] = {}

    def passes(t: float) -> bool:
        if t not in cache:
            res = certify_signs(datum, t, psi_coefficient=psi_coefficient,
                                order=order, seed=seed,
                                propositions=(proposition,),
                                direction_count=direction_count)
            cache[t] = res[proposition].passed
        return cache[t]

    t = t_start
    while t <= t_cap:
        if passes(t) and passes(2.0 * t) and passes(4.0 * t):
            return t
        t *= 2.0
    return None


def rate_fit(series: Sequence[Tuple[float, float]]) -> RateFit:
    """Least-squares slope of log(quantity) against log(t).

    Requires at least four samples at (approximately) geometric t spacing and
    strictly positive quantities; the residual is the worst absolute log-space
    deviation from the fit.
    """
    if len(series) < 4:
        raise ValueError("rate fit needs at least four samples")
    ts = np.array([t for t, _ in series], dtype=float)
    qs = np.array([q for _, q in series], dtype=float)
    if np.any(ts <= 0.0):
        raise ValueError("times must be positive")
    if np.any(qs <= 0.0):
        raise ValueError("degenerate series: quantities must be positive")
    ratios = ts[1:] / ts[:-1]
    if np.any(ratios <= 1.0) or (ratios.max() / ratios.min()) > 1.05:
        raise ValueError("times must increase geometrically")
    lt = np.log(ts)
    lq = np.log(qs)
    slope, intercept = np.polyfit(lt, lq, 1)
    residual = float(np.max(np.abs(lq - (slope * lt + intercept))))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=residual)


def build_spot_report(datum: InitialDatum, t: float,
                      psi_coefficient: Optional[float] = None,
                      order: int = DEFAULT_ORDER, seed: int = 0,
                      direction_count: Optional[int] = None) -> SpotReport:
    """Full per-time report: radii per direction, spots, certificates."""
    hull = _require_hull(datum)
    n = datum.dimension
    count = DIRECTION_COUNTS[n] if direction_count is None else direction_count
    rays = sample_normal_bundle(hull, count)
    report = SpotReport(
        t=t,
        psi=default_psi(n, t, psi_coefficient),
        radius_null_reference=math.sqrt(2.0 * n * t),
        radius_crit_reference=math.sqrt((2.0 * n + 4.0) * t),
        diameter=datum.diameter,
    )
    for point in rays:
        rho0 = trace_null_radius(datum, t, point, order=order)
        rhoc = find_critical_radius(datum, t, point, order=order)
        report.rays.append({
            "xi": [float(v) for v in point.xi],
            "nu": [float(v) for v in point.nu],
            "rho_null": rho0,
            "rho_crit": rhoc,
        })
    report.hot_spots = find_hot_spots(datum, t, rays, order=order)
    cold_point, cold_value = find_cold_spot(datum, t, order=order)
    report.cold_spot = (cold_point, cold_value)
    report.centroid_gap = float(np.linalg.norm(cold_point - datum.centroid))
    report.certificates = certify_signs(
        datum, t, psi_coefficient=psi_coefficient, order=order, seed=seed,
        direction_count=direction_count)
    return report
