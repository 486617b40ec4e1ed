"""Radius-sweep experiments: scale-zero limits with fitted extrapolation.

Each sweep produces an ExperimentReport: the radii, the measured values
with error bars, a fitted limit and empirical rate from the model
value ~ a + b * r^p over the smallest radii, and a verdict against an
optional reference.  Verdicts:

  pass          |limit - reference| <= tolerance, and the fit is trusted
  fail          the gap exceeds the tolerance and is significant (> 3x the
                fit uncertainty)
  inconclusive  error bars dominate the fit, the gap is within noise, or
                refitting on the smaller half of the radii moves the limit
                by more than the tolerance

Reports carry no wall-clock data, so identical inputs give byte-identical
files.

Every continuum r-laplacian comes from ``integrate.r_laplacians``.  threads
is decided here: amv_sweep hands the width to r_laplacians, whose one pool
maps the batches of a shared draw set or the radii of a half-space or cone;
strong_amv_scan maps its Monte Carlo (radius, point) estimates, each a pure
function of its own stream, over one pool (``_kernels.pool_map``).  Grid
estimates run in order, as ``integrate._check_grid`` budgets one node set;
so do cloud radii, as a finite space compacts a smaller ball from its last
one.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels, mmspace
from .integrate import Estimate, MCScheme, SeedSpec, _unit_rule, r_laplacians, scheme_spec
from .mmspace import FiniteMMSpace, InputError, check_memory
from .models import CloudMeta, ModelSpace, NumericError, Region, fill_by_rejection, mm_boundary_mass


@dataclass
class ExperimentReport:
    radii: list
    values: list
    std_errors: list
    fitted_limit: float
    fitted_rate: float | None
    reference: float | None
    tolerance: float
    verdict: str
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls(**json.loads(text))

    def to_csv(self) -> str:
        lines = ["radius,value,std_error"]
        for r, v, s in zip(self.radii, self.values, self.std_errors):
            lines.append(f"{r!r},{v!r},{s!r}")
        return "\n".join(lines) + "\n"


def check_radii(radii) -> list[float]:
    radii = [mmspace.check_radius(r) for r in radii]
    if not radii:
        raise InputError("need at least one radius")
    if any(radii[i] <= radii[i + 1] for i in range(len(radii) - 1)):
        raise InputError("radii must be strictly decreasing")
    return radii


def default_radii(r0: float, count: int = 8, ratio: float = 0.5) -> list[float]:
    """Geometric sweep r0 * ratio^k, k = 0 .. count-1."""
    if not (0 < ratio < 1):
        raise InputError("ratio must lie in (0, 1)")
    return [float(r0) * ratio**k for k in range(count)]


# ---------------------------------------------------------------------------
# limit extrapolation
# ---------------------------------------------------------------------------


def _weighted_affine_fit(r_p, values, sigmas):
    """LSQ for value ~ a + b * r_p; returns a, b, sigma_a.

    sigma_a combines residual scatter (model error) with propagated input
    noise, whichever dominates.
    """
    w = 1.0 / np.maximum(sigmas, 1e-300)
    # normalize so deterministic data (sigma = 0) is evenly weighted
    w = w / np.max(w)
    a_mat = np.stack([np.ones_like(r_p), r_p], axis=1) * w[:, None]
    rhs = values * w
    coef, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    resid = a_mat @ coef - rhs
    dof = max(len(values) - 2, 1)
    gram_inv = np.linalg.inv(a_mat.T @ a_mat)
    sigma_resid = math.sqrt(gram_inv[0, 0] * float(resid @ resid) / dof)
    # a = sum_i c_i w_i v_i with c = row 0 of G^-1 A^T
    c = (gram_inv @ a_mat.T)[0]
    sigma_prop = math.sqrt(float(np.sum((c * w * sigmas) ** 2)))
    return float(coef[0]), float(coef[1]), max(sigma_resid, sigma_prop)


# noise variances below this share of the largest count as exactly zero: a
# combination of shared-draw values whose noise is under 1/1000 of a value's
# is swamped by the model error of a + b r^p, which GLS weights would amplify
# (on H1 folland at (1, 0.5, 0.7), mc:200000, a cutoff of 1e-12 left weights
# of 6e3 and bars of 2.6e-3; 1e-8 to 1e-2 gave the same fits, 39 of 40 seeds
# within 2 sigma of the limit)
_VARIANCE_CUTOFF = 1e-6


def _blue_weights(design, cov):
    """Best linear unbiased weights under noise of covariance cov: row k
    minimizes w cov w^T subject to w @ design = e_k, so coef = weights @ v.

    cov may be singular (radii that share one draw set can carry the same
    noise): a weight change along which the variance moves by less than
    _VARIANCE_CUTOFF of the largest variance counts as free, and among equal
    choices the least-norm weights, ordinary least squares, are kept.
    """
    base = np.linalg.pinv(design)  # least-norm solutions of w @ design = I
    q = design.shape[1]
    null = np.linalg.svd(design.T)[2][q:].T  # directions that keep w @ design
    if null.shape[1] == 0:
        return base
    lam, vec = np.linalg.eigh(null.T @ cov @ null)
    keep = lam > _VARIANCE_CUTOFF * np.max(np.diag(cov))
    pinv = (vec[:, keep] / lam[keep]) @ vec[:, keep].T
    return base - base @ cov @ null @ pinv @ null.T


def _gls_affine_fit(r_p, values, cov, unit):
    """value ~ a + b * r_p by generalized least squares, with noise of
    covariance unit^2 cov; returns a, sigma_a.  As in _weighted_affine_fit,
    sigma_a is the propagated noise or, where it dominates, the residual
    scatter of the fit read as model error."""
    design = np.stack([np.ones_like(r_p), r_p], axis=1)
    weights = _blue_weights(design, cov)
    resid = values - design @ (weights @ values)
    dof = max(len(values) - 2, 1)
    sigma_resid = math.sqrt(np.linalg.inv(design.T @ design)[0, 0] * float(resid @ resid) / dof)
    w = weights[0]
    return float(w @ values), max(sigma_resid, unit * math.sqrt(max(float(w @ cov @ w), 0.0)))


def fit_tail(radii, values, std_errors, corr=None):
    """Fit value ~ a + b r^p over the smallest radii.

    The rate p comes from the log-log slope of consecutive differences that
    exceed 3x their noise; with fewer than two such differences the tail is
    read as constant within noise.  Where the values carry noise, p's own
    error, propagated through the fit, widens limit_err.  corr, the
    correlation matrix of the values, is given where the radii share one
    draw set: the fit is then generalized least squares on the tail
    covariance C, a difference's noise is sqrt(C_ii + C_jj - 2 C_ij), and a
    singular C (every radius with the same noise) gives limit_err the
    per-radius sigma, not sigma/sqrt(k).  Without corr, or with a diagonal
    one, the values are independent and weighted by 1/sigma.
    Returns (limit, rate_or_None, limit_err, refit_drift).
    """
    radii = np.asarray(radii, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    sig = np.asarray(std_errors, dtype=np.float64)
    m = len(radii)
    tail = min(m, max(4, (m + 1) // 2))
    r_t, v_t, s_t = radii[-tail:], values[-tail:], sig[-tail:]
    # the covariance in units of the largest sigma, so no product of sigmas underflows
    unit = float(np.max(s_t))
    cov = None
    if corr is not None and unit > 0:
        corr = np.asarray(corr, dtype=np.float64)[-tail:, -tail:]
        if np.any(corr - np.diag(np.diag(corr))):
            cov = corr * np.multiply.outer(s_t / unit, s_t / unit)
    scale = max(float(np.max(np.abs(values))), 1e-300)
    if cov is None:
        spread = s_t[:-1] + s_t[1:]
    else:
        d = np.diag(cov)
        spread = unit * np.sqrt(np.maximum(d[:-1] + d[1:] - 2.0 * np.diagonal(cov, 1), 0.0))
    noise = np.maximum(spread, 1e-13 * scale)
    diffs = v_t[:-1] - v_t[1:]
    good = np.abs(diffs) > 3.0 * noise

    if int(np.sum(good)) < 2:
        # no resolvable radius dependence: constant within noise
        if cov is not None:
            w = _blue_weights(np.ones((tail, 1)), cov)[0]
            limit = float(w @ v_t)
            err = unit * math.sqrt(max(float(w @ cov @ w), 0.0))
        elif np.any(s_t > 0):
            w = 1.0 / np.maximum(s_t, 1e-300) ** 2
            limit = float(np.sum(w * v_t) / np.sum(w))
            err = math.sqrt(1.0 / float(np.sum(w)))
        else:
            limit = float(v_t[-1])
            err = float(np.max(np.abs(v_t - limit), initial=0.0))
        half = v_t[-max(2, tail // 2) :]
        drift = abs(float(np.mean(half)) - limit)
        return limit, None, err, drift

    log_r, log_d = np.log(r_t[:-1][good]), np.log(np.abs(diffs[good]))
    p_slope, _ = np.polyfit(log_r, log_d, 1)
    p = float(np.clip(p_slope, 0.2, 6.0))

    def fit(p, keep=slice(None)):
        if cov is None:
            a, _, sigma_a = _weighted_affine_fit(r_t[keep] ** p, v_t[keep], s_t[keep])
            return a, sigma_a
        return _gls_affine_fit(r_t[keep] ** p, v_t[keep], cov[keep, keep], unit)

    a, sigma_a = fit(p)
    a2, _ = fit(p, slice(-max(3, tail // 2), None))
    if unit > 0:
        # p is read off the same noisy values, so its error moves a as well:
        # the slope's variance is g^T Cov(log |d|) g, by the delta method
        noise_cov = np.diag((s_t / unit) ** 2) if cov is None else cov
        diff_op = (np.eye(tail)[:-1] - np.eye(tail)[1:])[good]
        d_unit = diffs[good] / unit
        cov_log_d = diff_op @ noise_cov @ diff_op.T / np.multiply.outer(d_unit, d_unit)
        g = (log_r - np.mean(log_r)) / np.sum((log_r - np.mean(log_r)) ** 2)
        sigma_p = math.sqrt(max(float(g @ cov_log_d @ g), 0.0))
        h = 1e-4 * p
        sigma_a = math.hypot(sigma_a, (fit(p + h)[0] - fit(p - h)[0]) / (2.0 * h) * sigma_p)
    return a, p, sigma_a, abs(a2 - a)


def _verdict(limit, limit_err, drift, reference, tolerance):
    if reference is None:
        return "inconclusive"
    if drift > tolerance:
        return "inconclusive"
    gap = abs(limit - reference)
    if gap <= tolerance:
        return "pass" if limit_err <= tolerance else "inconclusive"
    return "fail" if gap > 3.0 * limit_err else "inconclusive"


def build_report(radii, estimates, reference, tolerance, metadata, corr=None) -> ExperimentReport:
    """The report of a sweep's estimates; corr, the correlation matrix of
    estimates that share one draw set, goes to the fit and to the report's
    metadata as "correlation", where revalidate reads it back."""
    for r, e in zip(radii, estimates):
        if not (math.isfinite(e.value) and math.isfinite(e.std_error)):
            raise NumericError(f"the estimate at radius {r!r} is not finite "
                               f"(value {e.value!r}, std error {e.std_error!r})")
    values = [e.value for e in estimates]
    sigmas = [e.std_error for e in estimates]
    meta = dict(metadata)
    if corr is not None:
        meta["correlation"] = np.asarray(corr, dtype=np.float64).tolist()
    limit, rate, limit_err, drift = fit_tail(radii, values, sigmas, meta.get("correlation"))
    verdict = _verdict(limit, limit_err, drift, reference, tolerance)
    meta["limit_err"] = limit_err
    meta["refit_drift"] = drift
    return ExperimentReport(
        radii=list(radii),
        values=values,
        std_errors=sigmas,
        fitted_limit=limit,
        fitted_rate=rate,
        reference=reference,
        tolerance=float(tolerance),
        verdict=verdict,
        metadata=meta,
    )


def revalidate(report: ExperimentReport) -> str:
    """Recompute the verdict from the stored values alone."""
    limit, rate, limit_err, drift = fit_tail(report.radii, report.values, report.std_errors,
                                             report.metadata.get("correlation"))
    return _verdict(limit, limit_err, drift, report.reference, report.tolerance)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def amv_sweep(
    space: ModelSpace,
    u,
    x,
    radii,
    scheme,
    reference: float | None = None,
    tolerance: float = 1e-3,
    threads: int = 1,
) -> ExperimentReport:
    """Scale-to-zero behaviour of the finite-scale laplacian at one point.

    Monte Carlo on a space with antithetic pairs (Euclidean, Carnot) draws
    one set of unit pairs for every radius (``integrate.r_laplacians``), and
    the fit reads their correlation; other spaces, whose balls change shape
    with r, and grid rules estimate each radius on its own."""
    radii = check_radii(radii)
    x = np.asarray(x, dtype=np.float64)
    estimates, corr = r_laplacians(space, u, x, radii, scheme, threads)
    meta = {
        "experiment": "amv_sweep",
        "space": space.spec(),
        "point": x.tolist(),
        "scheme": scheme_spec(scheme),
    }
    return build_report(radii, estimates, reference, tolerance, meta, corr)


def strong_amv_scan(
    space: ModelSpace,
    u,
    grid_points,
    radii,
    scheme,
    reference: float | None = None,
    tolerance: float = 1e-3,
    threads: int = 1,
) -> ExperimentReport:
    """Sup over a finite point grid of |finite-scale laplacian| per radius.

    The grid stands in for a compact set; refinement of the grid is the
    caller's reported convergence axis.  Each (radius, point) pair is its
    own estimate, so the radii draw independently.  Under Monte Carlo, job
    k = i * len(grid_points) + j (radius i, point j) draws from
    scheme.seed.child(-1 - k): the streams count down from 2^64 - 1, where
    gauge_annulus_grid counts up from stream 0, so a scan never reuses the
    draws that placed its points.  Monte Carlo jobs map on a pool of width
    threads; grid jobs run in order, and share one unit rule, which the
    first builds where a lone call would.
    """
    radii = check_radii(radii)
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=np.float64))
    m = len(grid_points)
    mc = isinstance(scheme, MCScheme)
    unit_rule = functools.cache(_unit_rule)

    def job(k, p, r):
        return r_laplacians(space, u, p, [r], MCScheme(scheme.n, scheme.seed.child(-1 - k)) if mc else scheme,
                            unit_rule=unit_rule)[0][0]

    jobs = [(i * m + j, p, r) for i, r in enumerate(radii) for j, p in enumerate(grid_points)]
    flat = _kernels.pool_map(job, jobs, threads if mc else 1)
    sups = [max(flat[k : k + m], key=lambda e: abs(e.value)) for k in range(0, len(flat), m)]  # first of ties
    estimates = [Estimate(abs(e.value), e.std_error, e.n, e.method) for e in sups]
    meta = {
        "experiment": "strong_amv_scan",
        "space": space.spec(),
        "grid_size": int(grid_points.shape[0]),
        "scheme": scheme_spec(scheme),
    }
    return build_report(radii, estimates, reference, tolerance, meta)


def _cloud_pairing_sweep(
    experiment: str, operator, cloud: FiniteMMSpace, pts, meta: CloudMeta, u, phi, radii,
    reference: float | None, tolerance: float,
) -> ExperimentReport:
    """Pairing of phi with operator(cloud, u, r) per radius, against the
    cloud's masses; phi's support must keep clear of the cloud's artificial
    boundary by more than the largest radius."""
    radii = check_radii(radii)
    pts = np.asarray(pts, dtype=np.float64)
    u_vals = mmspace.as_field(cloud, u(pts))
    phi_vals = mmspace.as_field(cloud, phi(pts))
    supp = np.abs(phi_vals) > 0
    margin = float(np.min(meta.boundary_distance(pts)[supp])) if np.any(supp) else math.inf
    if margin <= radii[0]:
        raise InputError(
            f"pairing function support reaches within {margin:.4g} of the cloud's "
            f"artificial boundary but the largest radius is {radii[0]:.4g}; "
            "enlarge the cloud or shrink the radii (boundary contamination would "
            "silently bias the pairing)"
        )
    estimates = [
        Estimate(float(np.sum(phi_vals * operator(cloud, u_vals, r) * cloud.mass)), 0.0, cloud.n, "cloud")
        for r in radii
    ]
    meta_d = {
        "experiment": experiment,
        "space": meta.space.spec(),
        "cloud_points": cloud.n,
        "cell_size": meta.cell_size,
    }
    return build_report(radii, estimates, reference, tolerance, meta_d)


def weak_amv_sweep(
    cloud: FiniteMMSpace,
    pts,
    meta: CloudMeta,
    u,
    phi,
    radii,
    reference: float | None = None,
    tolerance: float = 1e-3,
) -> ExperimentReport:
    """Pairing of phi with the r-laplacian of u on a point-cloud
    discretization."""
    return _cloud_pairing_sweep(
        "weak_amv_sweep", mmspace.r_laplacian, cloud, pts, meta, u, phi, radii, reference, tolerance
    )


def sym_vs_plain_sweep(
    cloud: FiniteMMSpace,
    pts,
    meta: CloudMeta,
    u,
    phi,
    radii,
    reference: float | None = None,
    tolerance: float = 1e-3,
) -> ExperimentReport:
    """Pairing of phi with (plain - symmetrized) laplacian of u: the
    mm-boundary fingerprint of the discretized space."""
    return _cloud_pairing_sweep(
        "sym_vs_plain_sweep",
        lambda c, v, r: mmspace.r_laplacian(c, v, r) - mmspace.sym_r_laplacian(c, v, r),
        cloud, pts, meta, u, phi, radii, reference, tolerance,
    )


def mm_boundary_sweep(
    space: ModelSpace,
    region: Region,
    radii,
    reference: float | None = None,
    tolerance: float = 1e-3,
) -> ExperimentReport:
    """Total variation of the scaled density-deficit measure per radius."""
    radii = check_radii(radii)
    estimates = [
        Estimate(mm_boundary_mass(space, region, r), 0.0, 0, "quadrature") for r in radii
    ]
    meta = {
        "experiment": "mm_boundary_sweep",
        "space": space.spec(),
        "region": region.spec(),
    }
    return build_report(radii, estimates, reference, tolerance, meta)


# ---------------------------------------------------------------------------
# deterministic point grids for scans
# ---------------------------------------------------------------------------


def gauge_annulus_grid(space, rho_min: float, rho_max: float, count: int, seed: int) -> np.ndarray:
    """Deterministic gauge-annulus point set: ball samples filtered to the
    annulus rho_min <= gauge < rho_max.  A count whose sampling would
    exceed the memory budget is refused before anything is drawn."""
    if not 0 <= rho_min < rho_max:
        raise InputError(f"a gauge annulus needs 0 <= rho_min < rho_max, got {rho_min!r}, {rho_max!r}")
    # peak RSS of the sampling on H1 at 50k and 200k points: 512 bytes per point
    check_memory(512 * count, f"a gauge annulus grid of {count} points", "sample batch")
    streams = itertools.count()
    origin = np.zeros(space.dim)

    def propose(need):
        pts = space.sample_ball(origin, rho_max, 4 * count, SeedSpec(seed).child(next(streams)).generator())
        return pts[space.gauge.value(space.group, pts) >= rho_min]

    return fill_by_rejection(count, space.dim, propose)
