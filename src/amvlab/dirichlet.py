"""Discrete Dirichlet problem for the symmetrized finite-scale laplacian.

Minimizing the quadratic r-energy over fields with prescribed boundary
values is equivalent, exactly, to the symmetrized laplacian vanishing at
every interior point: the energy is (1/2) sum_xy w_xy (u(y) - u(x))^2 with
graph weights w_xy = m(x) m(y) k_r(x,y) / r^2 >= 0, so the stationary
system is a symmetric positive semidefinite graph Laplacian, positive
definite when every interior point reaches the boundary through r-chains.

The interior system is sparse from the start.  The interior rows of the
kernel come as CSR from mmspace, the one definition of k_r, read off the
space's neighbour table (full or cut alike), so neither a k x n block nor
an n x n matrix is formed.  The weights, the interior block
A = diag(row sums of w) - w[:, interior] and the right-hand side
w @ (boundary values) stay CSR.  Library routines take it from there:
scipy.sparse.csgraph checks boundary reachability on the CSR pattern, LU
solves small systems on the densified k x k block and scipy's conjugate
gradients solve large ones on the CSR matrix itself.  The solver returns
the stationarity residual it checked together with the solution, and logs
its conjugate-gradient iterations on the ``amvlab.dirichlet`` logger.
Boundary data is a BoundaryPartition, built in code or read from a mask
file by load_mask through the text-input edge of mmspace.

bpz_demo cuts each level's cloud at that level's radius, so its memory
grows with n times the neighbours per point, not with n^2.

The barrier-field construction used in the pointwise-to-everywhere
regularity upgrade on step-2 groups ships as an analytic catalog field so
its inequality chain can be reproduced on data.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import cg

from . import mmspace
from .carnot import CarnotStep2, Gauge, horizontal_sqnorm
from .experiments import ExperimentReport, check_radii
from .fields import AnalyticField
from .integrate import Estimate
from .mmspace import FiniteMMSpace, InputError
from .models import CarnotSpace, NumericError, carnot_ball_cloud

_RESIDUAL_TOL = 1e-10  # stationarity residual allowed per unit of max |g|

logger = logging.getLogger("amvlab.dirichlet")


class DisconnectedInteriorError(InputError):
    """Interior components with no boundary contact make the minimizer
    non-unique; the offending component is attached for inspection."""

    def __init__(self, component):
        self.component = sorted(int(i) for i in component)
        super().__init__(
            f"interior component with no boundary contact: points {self.component}"
        )


@dataclass
class BoundaryPartition:
    interior: np.ndarray
    boundary: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.interior = np.asarray(self.interior, dtype=int)
        self.boundary = np.asarray(self.boundary, dtype=int)
        self.g = np.asarray(self.g, dtype=np.float64)
        if self.g.shape != (self.boundary.size,):
            raise InputError("boundary data must have one value per boundary point")

    def validate(self, space: FiniteMMSpace) -> None:
        n = space.n
        all_idx = np.concatenate([self.interior, self.boundary])
        if all_idx.size != n or np.unique(all_idx).size != n or all_idx.min() < 0 or all_idx.max() >= n:
            raise InputError("interior and boundary must disjointly cover all points")
        if self.boundary.size == 0:
            raise InputError("need at least one boundary point")


def load_mask(path_or_file, n: int) -> BoundaryPartition:
    """Partition of n points from '<index> <value>' mask lines (0-based
    boundary indices); unlisted points are interior."""
    with mmspace.opened(path_or_file) as f:
        pairs = [mmspace.line_fields(ln, (int, float), "boundary mask lines are '<index> <value>'")
                 for ln in mmspace.content_lines(f.read())]
    boundary = np.array([i for i, _ in pairs], dtype=int)
    return BoundaryPartition(np.setdiff1d(np.arange(n), boundary), boundary, [v for _, v in pairs])


def _check_connectivity(space: FiniteMMSpace, part: BoundaryPartition, points, cols) -> None:
    """Every interior point must share a component of the r-neighbour graph
    with some boundary point.  A path from the boundary never needs to pass
    through another boundary point, so the interior rows' edges suffice:
    (points[e], cols[e]), the CSR pattern of the interior kernel rows."""
    graph = sparse.coo_array((np.ones(cols.size), (points, cols)), shape=(space.n, space.n))
    _, label = connected_components(graph, directed=False)
    anchored = np.zeros(space.n, dtype=bool)
    anchored[label[part.boundary]] = True
    missing = part.interior[~anchored[label[part.interior]]]
    if missing.size:
        raise DisconnectedInteriorError(missing)


def _interior_system(space: FiniteMMSpace, part: BoundaryPartition, r: float, u_boundary):
    """Interior block A (CSR) and right-hand side of the stationarity system.

    Only the interior rows x of the graph weights w_xy are formed, as CSR on
    the pattern of the kernel rows; with a zero diagonal,
    A = diag(row sums of w) - w[:, interior], and the boundary values enter
    as rhs = w @ u_boundary, which is zero at the interior points.
    """
    kernel = mmspace._kernel_rows(space, r, part.interior)
    point = np.repeat(part.interior, np.diff(kernel.indptr))  # the row's point, per entry
    _check_connectivity(space, part, point, kernel.indices)
    data = kernel.data * (space.mass[point] * space.mass[kernel.indices]) / r**2
    data[kernel.indices == point] = 0.0
    w = sparse.csr_array((data, kernel.indices, kernel.indptr), shape=kernel.shape)
    a_mat = (sparse.diags_array(w.sum(axis=1)) - w[:, part.interior]).tocsr()
    return a_mat, w @ u_boundary


def solve(
    space: FiniteMMSpace,
    part: BoundaryPartition,
    r,
    dense_cutoff: int = 500,
) -> tuple[np.ndarray, float]:
    """Unique r-energy minimizer u with the given boundary values, and
    its stationarity residual: (u, residual).

    The interior system (see _interior_system) is CSR.  Up to dense_cutoff
    interior points LU solves its k x k block, densified; above it scipy's
    conjugate gradients solve the CSR matrix itself with a Jacobi
    preconditioner.  Their iteration count and info go to the
    ``amvlab.dirichlet`` logger at debug level, and a breakdown (info < 0)
    raises NumericError.  Interior values satisfy the symmetrized-laplacian
    stationarity system; because the graph weights are nonnegative, they
    are convex combinations of neighbor values and the maximum principle
    holds.  The residual max |sym laplacian| over the interior, computed
    independently by mmspace.sym_r_laplacian, is checked against
    _RESIDUAL_TOL * max|g|.
    """
    r = mmspace.check_radius(r)
    part.validate(space)
    u = np.zeros(space.n)
    u[part.boundary] = part.g
    a_mat, rhs = _interior_system(space, part, r, u)
    k = part.interior.size
    if k <= dense_cutoff:
        u[part.interior] = np.linalg.solve(a_mat.toarray(), rhs)
    else:
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        jacobi = sparse.diags_array(1.0 / a_mat.diagonal())
        u[part.interior], info = cg(
            a_mat, rhs, rtol=1e-14, atol=0.0, maxiter=10 * k + 50, M=jacobi, callback=count
        )
        logger.debug("conjugate gradients on %d interior points: %d iterations, info %d", k, iterations, info)
        if info < 0:
            raise NumericError(f"conjugate gradients broke down (info {info})")
    scale = float(np.max(np.abs(part.g), initial=0.0))
    resid = residual(space, part, u, r)
    if resid > _RESIDUAL_TOL * max(scale, 1e-300) and scale > 0:
        raise NumericError(
            f"stationarity residual {resid:.3e} exceeds {_RESIDUAL_TOL:.1e} * scale ({scale:.3e})"
        )
    return u, resid


def residual(space: FiniteMMSpace, part: BoundaryPartition, u, r) -> float:
    """max over interior of |symmetrized laplacian of u|."""
    sym = mmspace.sym_r_laplacian(space, u, r)
    return float(np.max(np.abs(sym[part.interior]), initial=0.0))


# ---------------------------------------------------------------------------
# barrier field and the Dirichlet-reproduction demo on gauge balls
# ---------------------------------------------------------------------------


def bpz_barrier(group: CarnotStep2, p0, R: float, phi_value_at_q: float, q) -> AnalyticField:
    """Barrier summand (phi(q)/2) * (|horizontal part of p^-1 p0|^2 - R^2)/R^2.

    Requires phi_value_at_q < 0 and q inside the gauge ball B_R(p0).  The
    parenthesized factor is <= 0 on the closed koranyi ball and vanishes
    exactly where the horizontal offset reaches R, so with the negative
    prefactor the summand is >= 0 there; its horizontal Laplacian is the
    constant (phi(q)/2) * 2 v1 / R^2.
    """
    R = float(R)
    phi_q = float(phi_value_at_q)
    if not (R > 0):
        raise InputError("R must be positive")
    if not (phi_q < 0):
        raise InputError("the barrier construction needs a negative value at q")
    p0 = np.asarray(p0, dtype=np.float64)
    gq = CarnotSpace(group, Gauge("koranyi")).distance(p0, q)
    if gq >= R:
        raise InputError(f"q lies outside the gauge ball (gauge {gq:.6g} >= R {R:.6g})")
    # |(p^-1 p0)^(1)|^2 = |p1 - p01|^2: a translated horizontal square norm
    core = horizontal_sqnorm(group, center=p0[: group.v1])
    return (phi_q / (2.0 * R * R)) * core + (-phi_q / 2.0)


def gauge_ball_partition(gauge_vals: np.ndarray, R: float, r: float, boundary_data) -> BoundaryPartition:
    """Split a gauge-ball cloud into interior and an r-thick boundary layer
    (points with gauge >= R - r), mirroring the compact-support variation
    class at scale r."""
    boundary_mask = gauge_vals >= R - r
    boundary = np.flatnonzero(boundary_mask)
    interior = np.flatnonzero(~boundary_mask)
    return BoundaryPartition(interior, boundary, boundary_data[boundary])


def bpz_demo(
    group: CarnotStep2,
    gauge: Gauge,
    u_field: AnalyticField,
    R: float,
    resolutions,
    radii,
    seed: int = 0,
    tolerance: float = 2e-3,
    threads: int = 1,
) -> ExperimentReport:
    """Reproduce a horizontally-harmonic field from its boundary values.

    Discretizes the gauge ball B_R(0) at each (resolution, r) level, as a
    cloud whose neighbour table is cut at r, solves the discrete Dirichlet
    problem with the field's values on the boundary layer, and reports the
    interior sup difference.  The verdict compares the smallest-level
    difference against the declared tolerance; a level without an interior
    point is refused.
    """
    R = mmspace.check_radius(R)
    radii = check_radii(radii)
    resolutions = [int(v) for v in resolutions]
    if len(radii) != len(resolutions):
        raise InputError("need one radius per resolution level")
    space = CarnotSpace(group, gauge)
    estimates = []
    sizes = []
    for level, (res, r) in enumerate(zip(resolutions, radii)):
        cloud, pts, meta, gauge_vals = carnot_ball_cloud(space, R, res, seed + level, threads=threads, cut=r)
        u_vals = u_field.value(pts)
        part = gauge_ball_partition(gauge_vals, R, r, u_vals)
        if not part.interior.size:
            raise InputError(f"the level of resolution {res} and radius {r!r} has no interior point "
                             f"({cloud.n} cloud points, all within {r!r} of the gauge sphere)")
        sol, _ = solve(space=cloud, part=part, r=r)
        gap = float(np.max(np.abs(sol[part.interior] - u_vals[part.interior]), initial=0.0))
        estimates.append(Estimate(gap, 0.0, cloud.n, "cloud"))
        sizes.append(cloud.n)
    gaps = [e.value for e in estimates]
    # verdict from the finest level; the fitted-limit machinery needs more
    # levels than a demo runs
    final = gaps[-1]
    rate = None
    if len(gaps) >= 2 and gaps[-2] > 0 and final > 0:
        rate = math.log(gaps[-2] / final) / math.log(radii[-2] / radii[-1])
    meta_d = {
        "experiment": "bpz_demo",
        "space": space.spec(),
        "ball_radius": R,
        "resolutions": resolutions,
        "cloud_sizes": sizes,
        "seed": seed,
        "limit_err": 0.0,
        "refit_drift": 0.0,
        "monotone_decreasing": all(a >= b for a, b in zip(gaps[:-1], gaps[1:])),
    }
    return ExperimentReport(
        radii=list(radii),
        values=gaps,
        std_errors=[0.0] * len(gaps),
        fitted_limit=final,
        fitted_rate=rate,
        reference=0.0,
        tolerance=float(tolerance),
        verdict="pass" if final <= tolerance else "fail",
        metadata=meta_d,
    )
