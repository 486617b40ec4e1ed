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

threads is decided here and nowhere below: the Monte Carlo sweeps map
whole estimates, each a pure function of its child stream, over one pool
(``_kernels.pool_map``).  Grid estimates run in order, as
``integrate._check_grid`` budgets one node set; so do cloud radii, as a
finite space compacts a smaller ball from its last one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels, mmspace
from .integrate import Estimate, MCScheme, SeedSpec, continuum_r_laplacian, sample_ball, scheme_spec
from .mmspace import FiniteMMSpace, InputError, check_memory
from .models import CloudMeta, ModelSpace, NumericError, Region, _default_region, fill_by_rejection, mm_boundary_mass


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


def fit_tail(radii, values, std_errors):
    """Fit value ~ a + b r^p over the smallest radii.

    The rate p comes from the log-log slope of consecutive differences.
    Returns (limit, rate_or_None, limit_err, refit_drift).
    """
    radii = np.asarray(radii, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    sig = np.asarray(std_errors, dtype=np.float64)
    m = len(radii)
    tail = min(m, max(4, (m + 1) // 2))
    r_t, v_t, s_t = radii[-tail:], values[-tail:], sig[-tail:]
    scale = max(float(np.max(np.abs(values))), 1e-300)
    noise = np.maximum(s_t[:-1] + s_t[1:], 1e-13 * scale)
    diffs = v_t[:-1] - v_t[1:]
    good = np.abs(diffs) > 3.0 * noise

    if int(np.sum(good)) < 2:
        # no resolvable radius dependence: constant within noise
        if np.any(s_t > 0):
            w = 1.0 / np.maximum(s_t, 1e-300) ** 2
            limit = float(np.sum(w * v_t) / np.sum(w))
            err = math.sqrt(1.0 / float(np.sum(w)))
        else:
            limit = float(v_t[-1])
            err = float(np.max(np.abs(v_t - limit), initial=0.0))
        half = v_t[-max(2, tail // 2) :]
        drift = abs(float(np.mean(half)) - limit)
        return limit, None, err, drift

    p_slope, _ = np.polyfit(np.log(r_t[:-1][good]), np.log(np.abs(diffs[good])), 1)
    p = float(np.clip(p_slope, 0.2, 6.0))
    a, _, sigma_a = _weighted_affine_fit(r_t**p, v_t, s_t)
    half_n = max(3, tail // 2)
    a2, _, _ = _weighted_affine_fit(r_t[-half_n:] ** p, v_t[-half_n:], s_t[-half_n:])
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


def build_report(radii, estimates, reference, tolerance, metadata) -> ExperimentReport:
    for r, e in zip(radii, estimates):
        if not (math.isfinite(e.value) and math.isfinite(e.std_error)):
            raise NumericError(f"the estimate at radius {r!r} is not finite "
                               f"(value {e.value!r}, std error {e.std_error!r})")
    values = [e.value for e in estimates]
    sigmas = [e.std_error for e in estimates]
    limit, rate, limit_err, drift = fit_tail(radii, values, sigmas)
    verdict = _verdict(limit, limit_err, drift, reference, tolerance)
    meta = dict(metadata)
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
    limit, rate, limit_err, drift = fit_tail(report.radii, report.values, report.std_errors)
    return _verdict(limit, limit_err, drift, report.reference, report.tolerance)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _scheme_for(scheme, index: int):
    """Per-evaluation child stream so MC estimates are independent and
    reproducible regardless of evaluation order."""
    if isinstance(scheme, MCScheme):
        return MCScheme(scheme.n, scheme.seed.child(index))
    return scheme


def _laplacians(space: ModelSpace, u, jobs, scheme, threads: int) -> list[Estimate]:
    """continuum_r_laplacian at each (stream index, point, radius) job, in
    job order.  Monte Carlo jobs run on a pool of threads; grid jobs run in
    order, as integrate._check_grid budgets one node set at a time."""
    return _kernels.pool_map(
        lambda k, x, r: continuum_r_laplacian(space, u, x, r, _scheme_for(scheme, k)),
        jobs, threads if isinstance(scheme, MCScheme) else 1,
    )


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
    """Scale-to-zero behaviour of the finite-scale laplacian at one point."""
    radii = check_radii(radii)
    x = np.asarray(x, dtype=np.float64)
    estimates = _laplacians(space, u, [(i, x, r) for i, r in enumerate(radii)], scheme, threads)
    meta = {
        "experiment": "amv_sweep",
        "space": space.spec(),
        "point": x.tolist(),
        "scheme": scheme_spec(scheme),
    }
    return build_report(radii, estimates, reference, tolerance, meta)


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
    caller's reported convergence axis.
    """
    radii = check_radii(radii)
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=np.float64))
    m = len(grid_points)
    jobs = [(i * m + j, p, r) for i, r in enumerate(radii) for j, p in enumerate(grid_points)]
    flat = _laplacians(space, u, jobs, scheme, threads)
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
    if region.kind == "unit":
        region = _default_region(space)
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
        pts = sample_ball(space, origin, rho_max, 4 * count, SeedSpec(seed).child(next(streams)))
        return pts[space.gauge.value(space.group, pts) >= rho_min]

    return fill_by_rejection(count, space.dim, propose)
