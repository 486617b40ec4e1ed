"""Means, moments and constants over balls: deterministic quadrature and
seeded Monte Carlo.

Every ball mean, second moment and constant goes through one estimator
core, _ball_moments, and every Monte Carlo estimate, the Haar-volume oracle
included, through one streaming accumulator, _mc_moments, which merges
centred co-moments batch by batch and so also gives the correlation of a
row-valued integrand's columns.  Monte Carlo streams are counter-based
(Philox keyed by master seed and stream id), generated in fixed-size
batches of _BATCH = 65,536 draws, so every estimate is a pure function of
(inputs, seed) no matter how evaluation is laid out, and its working set
is one batch however large mc:n is.  An estimate needs at least two
independent draws for its error bar.  A batch of points is column-major
(as the samplers of ``models`` draw it), so the elementwise steps over it (dilation,
translation, field values) loop over contiguous columns and keep every
bit.  The reductions, whose bits follow their input's layout, read the
tables they always read: _centred_batch a shared draw set's row-major
radius columns, the grid mean the values at the unit rule's row-major
nodes.
Grid rules live on unit balls: Euclidean balls take a Gauss-Jacobi radial
rule times a product sphere rule (exact for polynomials), gauge balls
slice-adapted coordinates where the slice measure is smooth.  A grid mean
over B_r dilates the unit nodes and keeps their weights, so no r^n or r^Q
underflows or overflows.  Each rule counts its nodes from res and the
dimensions and refuses a node set over the memory budget
(``mmspace.check_memory``) before it builds one.

The Monte Carlo r-laplacian draws antithetic pairs (x·z, x·z⁻¹) on the
spaces whose balls are symmetric under z -> z⁻¹ (Euclidean and Carnot
spaces): the symmetry cancels the first-order term of
u(y) - u(x) inside each pair, so the error bar no longer grows with
|grad u(x)| r / r^2.  A pair is one draw.  Those balls are also dilates
of the unit ball, so a radius sweep draws one set of unit pairs and
dilates it to every radius (``r_laplacians``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

from . import _kernels
from .carnot import CarnotStep2, Gauge
from .mmspace import InputError, check_memory, malformed
from .models import CarnotSpace, Euclidean, ModelSpace, NumericError

_MASK64 = (1 << 64) - 1
# draws per Monte Carlo batch, an estimate's working set: one mc-means pass
# timed 0.656, 0.633, 0.628 and 0.654 s in process at 2^14, 2^15, 2^16 and
# 2^17 (medians of 6 rounds, 2 cores)
_BATCH = 65_536
CONSTANT_REL_TOL = 1e-3  # grid-versus-MC agreement of carnot_constant_checked, relative
# peak bytes of a grid ball mean per node and coordinate (the weight counts as one):
# amv-sweep's peak RSS grows by 88.0 bytes per node on H1 at the origin and 95.9 off
# it (grid:40 to 70, 4 values per node), 87.9 on euclidean:3 (60 to 100) and 64.3 on
# euclidean:2 (400 to 800)
_GRID_BYTES = 25


class GridUnavailable(InputError):
    """No deterministic grid rule ships for this space or dimension."""


@dataclass(frozen=True)
class SeedSpec:
    """Counter-based RNG stream: (master seed, stream id) -> Philox key."""

    master: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.master & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, offset: int) -> "SeedSpec":
        return SeedSpec(self.master, self.stream + int(offset))


@dataclass
class Estimate:
    """A single numeric estimate with error accounting.

    std_error is zero for a deterministic method, and for a Monte Carlo
    estimate whose draws all agree (a constant field).  n counts the
    independent draws (an antithetic pair is one draw) or the grid nodes.
    """

    value: float
    std_error: float
    n: int
    method: str


@dataclass(frozen=True)
class MCScheme:
    n: int
    seed: SeedSpec


@dataclass(frozen=True)
class GridScheme:
    res: int


def parse_scheme(spec: str):
    tok = spec.strip().split(":")
    with malformed("scheme", spec):
        if tok[0] == "mc" and len(tok) in (2, 3):
            seed = SeedSpec(int(tok[2])) if len(tok) == 3 else SeedSpec(0)
            n = int(tok[1])
            if n < 1:
                raise InputError("the sample count must be >= 1")
            return MCScheme(n, seed)
        if tok[0] == "grid" and len(tok) == 2:
            res = int(tok[1])
            if res < 1:
                raise InputError("the grid resolution must be >= 1")
            return GridScheme(res)
    raise InputError(f"malformed scheme spec {spec!r}")


def scheme_spec(scheme) -> str:
    if isinstance(scheme, MCScheme):
        return f"mc:{scheme.n}:{scheme.seed.master}" + (
            f"+{scheme.seed.stream}" if scheme.seed.stream else ""
        )
    return f"grid:{scheme.res}"


# ---------------------------------------------------------------------------
# product quadrature over Euclidean balls (dims 1-3)
# ---------------------------------------------------------------------------


def _sphere_rule(k: int, res: int):
    """Nodes and weights integrating over the unit sphere S^(k-1)."""
    if k == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if k == 2:
        m = max(4, 2 * res + 1)
        ang = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return nodes, np.full(m, 2.0 * math.pi / m)
    if k == 3:
        m = max(4, 2 * res + 1)
        mu, wmu = np.polynomial.legendre.leggauss(max(2, res))
        ang = 2.0 * math.pi * np.arange(m) / m
        sin_t = np.sqrt(1.0 - mu**2)[:, None]
        nodes = np.stack(np.broadcast_arrays(sin_t * np.cos(ang), sin_t * np.sin(ang), mu[:, None]), axis=-1)
        return nodes.reshape(-1, 3), np.repeat(wmu * 2.0 * math.pi / m, m)
    raise GridUnavailable(f"no sphere rule for S^{k - 1}; use a Monte Carlo scheme")


def _sphere_size(k: int, res: int) -> int:
    """Node count of _sphere_rule(k, res) for k in 1..3, without building it."""
    m = max(4, 2 * res + 1)
    return {1: 2, 2: m, 3: max(2, res) * m}[k]


def _check_grid(nodes: int, dim: int, res: int) -> None:
    """Refuse a rule of nodes points in dim coordinates over the memory
    budget (``mmspace.check_memory``), before any node is built."""
    check_memory(_GRID_BYTES * (dim + 1) * nodes, f"grid:{res} ({nodes} nodes in {dim} coordinates)", "node set")


def euclid_ball_quadrature(n: int, res: int):
    """Nodes and weights for integrals over the unit ball of R^n, whose
    nodes times r, with the same weights, cover the r-ball."""
    n = int(n)
    if n > 3:
        raise GridUnavailable(f"no grid rule ships for {n}-dimensional balls; use mc")
    _check_grid(max(2, res) * _sphere_size(n, res), n, res)
    # Gauss-Jacobi for int_0^1 t^(n-1) g(t) dt, at t = (1 + x)/2
    x, wx = _special.roots_jacobi(max(2, res), 0.0, float(n - 1))
    omega, womega = _sphere_rule(n, res)
    nodes = (0.5 * (x + 1.0))[:, None, None] * omega
    weights = (wx / 2.0**n)[:, None] * womega
    return nodes.reshape(-1, n), weights.reshape(-1)


def carnot_ball_quadrature(group: CarnotStep2, gauge: Gauge, res: int):
    """Adapted product rule over the unit gauge ball B_1(0), whose nodes
    dilated by delta_r, with the same weights, cover B_r(0).

    Second-layer radius w = sin(psi)/sqrt(beta) makes the horizontal slice
    the unit v1-ball scaled by sqrt(cos(psi)) and the slice measure smooth
    in psi; nodes run over psi, the second-layer direction, then the
    horizontal node.  For v1 <= 3, v2 <= 3 and both gauge kinds (via beta).
    """
    v1, v2 = group.v1, group.v2
    if v2 == 0:
        return euclid_ball_quadrature(v1, res)
    if v1 > 3 or v2 > 3:
        raise GridUnavailable("grid rule ships for v1 <= 3 and v2 <= 3 only; use mc")
    _check_grid(max(4, res) * _sphere_size(v2, res) * max(2, res) * _sphere_size(v1, res), group.dim, res)
    psi, wpsi = np.polynomial.legendre.leggauss(max(4, res))
    psi = 0.25 * math.pi * (psi + 1.0)
    wpsi = 0.25 * math.pi * wpsi
    omega, womega = _sphere_rule(v2, res)
    nodes1, w1 = euclid_ball_quadrature(v1, res)
    w_max = 1.0 / math.sqrt(gauge.beta)
    w, slice_r = w_max * np.sin(psi), np.sqrt(np.cos(psi))
    nodes = np.empty((psi.size, omega.shape[0], w1.size, group.dim))
    nodes[..., :v1] = slice_r[:, None, None, None] * nodes1
    nodes[..., v1:] = w[:, None, None, None] * omega[:, None, :]
    # dw = w_max cos(psi) dpsi, the second-layer sphere's w^(v2 - 1), the slice volume slice_r^v1
    radial_w = wpsi * w ** (v2 - 1) * (w_max * np.cos(psi)) * slice_r**v1
    weights = (radial_w[:, None] * womega)[:, :, None] * w1
    return nodes.reshape(-1, group.dim), weights.reshape(-1)


# ---------------------------------------------------------------------------
# sampling and means
# ---------------------------------------------------------------------------


def _batches(n: int) -> list[tuple[int, int]]:
    """(index, size) of the batches of n draws: _BATCH each, the last one short."""
    return [(k, min(_BATCH, n - s)) for k, s in enumerate(range(0, n, _BATCH))]


def _centred_batch(vals):
    """One batch's size, mean, and co-moments of its deviations from that
    mean, taken after each column's deviations are multiplied by a power of
    two that lifts the column's largest into [1/2, 1) (never below 1), and
    that scale.  A single column gives its sum of squares."""
    vals = np.asarray(vals, dtype=np.float64)
    mean = np.mean(vals, axis=0)
    dev = vals - mean
    # a peak in [2^(e-1), 2^e) times 2^-e lies in [1/2, 1); 2^1023 is the top double power
    scale = np.ldexp(1.0, np.clip(-np.frexp(np.max(np.abs(dev), axis=0))[1], 0, 1023))
    dev *= scale
    co = np.einsum("ni,nj->ij", dev, dev) if dev.ndim == 2 else np.sum(dev * dev)
    return vals.shape[0], mean, co, scale


def _mc_moments(draw, f, scheme: MCScheme, threads: int | None = None):
    """Streaming Monte Carlo mean, standard error and, for f with a row of
    values per point, the correlation of the column means (None for one
    column).

    draw(m, rng) returns a batch of m points; f maps it to one value per
    point, or to a row of values per point.  With threads None the batches
    draw in turn from one stream, scheme.seed; with threads, batch k draws
    from scheme.seed.child(k) and the batches map on a pool of that width
    (``_kernels.pool_map``).  Either way the merge runs in batch order, so
    the result is a pure function of (inputs, seed).  Batches are merged by
    their centred co-moments (Chan, Golub and LeVeque), never by
    E[v^2] - E[v]^2, which cancels to a zero variance once the mean dwarfs
    the spread.  One draw gives no spread at all, so fewer than two are
    refused.

    Each batch scales its deviations by a power of two per column before
    they are multiplied (``_centred_batch``), and the merge holds them at the
    first batch's scale; so deviations of about r^2 at a radius of 1e-100 no
    longer square to a zero error bar.  The scales are exact: no bit moves
    where nothing underflowed, and an overflow still overflows.  A column
    without spread is uncorrelated with every other.
    """
    if scheme.n < 2:
        raise InputError("a Monte Carlo error bar needs at least 2 independent draws "
                         f"(an antithetic pair is one), got {scheme.n}")
    if threads is None:
        rng = scheme.seed.generator()
        parts = [_centred_batch(f(draw(m, rng))) for _, m in _batches(scheme.n)]
    else:
        parts = _kernels.pool_map(lambda k, m: _centred_batch(f(draw(m, scheme.seed.child(k).generator()))),
                                  _batches(scheme.n), threads)
    done, mean, co, scale = parts[0]
    for m, batch_mean, batch_co, batch_scale in parts[1:]:
        ratio = scale / batch_scale
        delta = batch_mean - mean
        scaled_delta = delta * scale
        total = done + m
        mean = mean + delta * (m / total)
        co = co + batch_co * np.multiply.outer(ratio, ratio)
        co = co + np.multiply.outer(scaled_delta, scaled_delta) * (done * m / total)
        done = total
    var = np.diagonal(co) if np.ndim(co) == 2 else co
    std_error = np.sqrt(var / scheme.n) / math.sqrt(scheme.n) / scale
    if np.ndim(co) < 2:
        return mean, std_error, None
    norm = np.sqrt(np.multiply.outer(var, var))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(norm > 0, co / norm, 0.0)
    np.fill_diagonal(corr, 1.0)
    return mean, std_error, corr


def _unit_rule(space: ModelSpace, res: int):
    """Nodes and weights of the grid:res rule over the unit ball of space."""
    if isinstance(space, Euclidean):
        return euclid_ball_quadrature(space.dim, res)
    if isinstance(space, CarnotSpace):
        return carnot_ball_quadrature(space.group, space.gauge, res)
    raise GridUnavailable(f"no grid rule for the {space.kind} kind; use mc")


def _ball_moments(space: ModelSpace, f, x, r, scheme):
    """Mean of f over B_r(x), its standard error, the correlation of its
    columns (None for one value per point or a grid rule), the node or draw
    count and the method, for f with one value or one row of values per
    point."""
    r = float(r)
    if isinstance(scheme, GridScheme):
        nodes, weights = _unit_rule(space, scheme.res)
        vals = np.asarray(f(space.translate(x, space.dilate(r, nodes, out=nodes))), dtype=np.float64)
        mean = np.sum(vals.T * weights, axis=-1) / np.sum(weights)
        return mean, np.zeros_like(mean), None, weights.size, "grid"
    if isinstance(scheme, MCScheme):
        mean, std_error, corr = _mc_moments(lambda m, rng: space.sample_ball(x, r, m, rng), f, scheme)
        return mean, std_error, corr, scheme.n, "mc"
    raise InputError(f"unknown scheme {scheme!r}")


def mean_over_ball(space: ModelSpace, u, x, r, scheme) -> Estimate:
    """Mean value of u over B_r(x) with error accounting."""
    mean, std_error, _, n, method = _ball_moments(space, u, x, r, scheme)
    return Estimate(float(mean), float(std_error), n, method)


def _squared_radius(r: float) -> float:
    """r**2, the difference quotient's divisor, refused where it overflows:
    a finite mean over an infinite r**2 would read as an exact 0."""
    r2 = float(np.float64(r) ** 2)
    if not math.isfinite(r2):
        raise NumericError(f"the radius {r!r} is too large: its square overflows")
    return r2


def _refuse_subnormal_square(r: float, r2: float) -> None:
    if r2 < np.finfo(np.float64).tiny:  # zero or subnormal
        raise NumericError(f"the radius {r!r} is too small: its square underflows")


def r_laplacians(space: ModelSpace, u, x, radii, scheme, threads: int | None = None, unit_rule=_unit_rule):
    """The r-laplacian at every radius, the mean of u(y) - u(x) over y in
    B_r(x) divided by r^2, and the correlation matrix of the estimates, None
    unless the radii share draws.  Averaging the difference keeps the
    mean's digits when |u(x)| dwarfs the spread of u over the ball.

    Monte Carlo on a space with antithetic pairs (Euclidean, Carnot)
    averages g(z) = ½[(u(x·z) - u(x)) + (u(x·z⁻¹) - u(x))] over z in B_r(0).
    The ball is symmetric under z -> z⁻¹, so g has the mean of u(y) - u(x),
    and its first-order term cancels: for a quadratic u, g is the integrand
    at the origin wherever x is.  Each evaluation is centred before the pair
    is averaged; ½(u(a) + u(b)) - u(x) would lose the digits at large
    |u(x)|.  mc:n still means n field evaluations per radius, drawn as
    ⌈n/2⌉ pairs, and Estimate.n counts the pairs.  These balls are dilates
    of the unit ball, B_r(0) = delta_r(B_1(0)), so the unit offsets are
    drawn once and each batch is dilated to every radius: the radii share
    their noise (common random numbers; Glasserman, Monte Carlo Methods in
    Financial Engineering, 2003, §4.2), which the correlation matrix
    records for the fit.  threads is _mc_moments': None draws from one
    stream; a width draws batch k from scheme.seed.child(k) on a pool, the
    same bits at any width.

    A grid rule is built once on the unit ball by unit_rule(space, res),
    which callers of many calls may share; each radius dilates its nodes
    and takes its weighted mean before the next, so a call holds the unit
    nodes and one radius's points and values.
    Monte Carlo on half-spaces and cones, whose balls change shape with r,
    takes one ``mean_over_ball`` per radius, radius i from
    scheme.seed.child(i), mapped on a pool of width threads.

    Every radius is refused, in order, before any field value where its
    square overflows, the space cannot hold its shared draws
    (``check_dilation``) or its square underflows.
    """
    x = np.asarray(x, dtype=np.float64)
    pair = space.antithetic(x) if isinstance(scheme, MCScheme) else None
    radii = [float(r) for r in radii]
    squares = []
    for r in radii:
        r2 = _squared_radius(r)
        if pair is not None:
            space.check_dilation(r)
        _refuse_subnormal_square(r, r2)
        squares.append(r2)
    ux = float(u(x[None, :])[0])
    corr = None
    if pair is not None:

        def centred_pair_means(z):
            out = np.empty((z.shape[0], len(radii)))
            for j, r in enumerate(radii):
                a, b = pair(space.dilate(r, z))
                out[:, j] = 0.5 * ((u(a) - ux) + (u(b) - ux))
            return out

        origin = np.zeros_like(x)
        pairs = MCScheme((scheme.n + 1) // 2, scheme.seed)
        mean, std_error, corr = _mc_moments(lambda m, rng: space.sample_ball(origin, 1.0, m, rng),
                                            centred_pair_means, pairs, threads)
        estimates = [Estimate(float(v), float(s), pairs.n, "mc") for v, s in zip(mean, std_error)]
    elif isinstance(scheme, MCScheme):
        estimates = _kernels.pool_map(
            lambda i, r: mean_over_ball(space, lambda pts: u(pts) - ux, x, r, MCScheme(scheme.n, scheme.seed.child(i))),
            enumerate(radii), threads or 1,
        )
    else:
        nodes, weights = unit_rule(space, scheme.res)
        total = np.sum(weights)
        estimates = [Estimate(float(np.sum((u(space.translate(x, space.dilate(r, nodes))) - ux) * weights) / total),
                              0.0, weights.size, "grid") for r in radii]
    return [Estimate(e.value / r2, e.std_error / r2, e.n, e.method) for e, r2 in zip(estimates, squares)], corr


# ---------------------------------------------------------------------------
# the group's mean value constant and isotropy of the horizontal moment
# ---------------------------------------------------------------------------


def carnot_constant(group: CarnotStep2, gauge: Gauge, scheme) -> Estimate:
    """Leading mean-value coefficient: mean of |z1|^2 over the unit gauge
    ball divided by 2*v1 (so the small-r expansion of the ball mean of u
    reads u(x) + C r^2 * (horizontal Laplacian) + o(r^2))."""

    def hsq(pts):
        return _kernels.np_square_sums(pts[..., : group.v1])

    est = mean_over_ball(CarnotSpace(group, gauge), hsq, np.zeros(group.dim), 1.0, scheme)
    c = 1.0 / (2.0 * group.v1)
    return Estimate(c * est.value, c * est.std_error, est.n, est.method)


def carnot_constant_checked(
    group: CarnotStep2, gauge: Gauge, mc_scheme: MCScheme, grid_res: int
) -> tuple[Estimate, Estimate]:
    """Grid and Monte Carlo estimates of the constant, cross-validated.

    Raises NumericError when the two schemes disagree beyond
    max(3 sigma, CONSTANT_REL_TOL * value).
    """
    grid = carnot_constant(group, gauge, GridScheme(grid_res))
    mc = carnot_constant(group, gauge, mc_scheme)
    gap = abs(grid.value - mc.value)
    allowed = max(3.0 * mc.std_error, CONSTANT_REL_TOL * abs(grid.value))
    if gap > allowed:
        raise NumericError(
            f"scheme disagreement: grid {grid.value!r} vs mc {mc.value!r} "
            f"(gap {gap:.3e} > allowed {allowed:.3e})"
        )
    return grid, mc


def isotropy_check(group: CarnotStep2, gauge: Gauge, directions, scheme) -> list[Estimate]:
    """Second moment of <a, z1> over the unit gauge ball per direction a.

    One estimate of the horizontal moment matrix M = E[z1 z1^T] and the
    covariance of its entries (the co-moments of ``_mc_moments``) serves
    every direction: a^T M a with standard error sqrt(c^T Sigma c), c the
    coefficients of a^T M a in M's entries.  All directions share one
    sample stream (or one node set), which keeps their comparison free of
    independent-noise inflation.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if directions.shape[1] != group.v1:
        raise InputError("directions must live in the horizontal layer")
    norms = np.sqrt(np.sum(directions * directions, axis=1))
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise InputError("directions must be unit vectors")

    # a^T M a with M = E[z1 z1^T] over the ball: one column per entry M_ij, i <= j
    i, j = np.triu_indices(group.v1)
    coef = directions[:, i] * directions[:, j] * np.where(i == j, 1.0, 2.0)

    def products(pts):
        return pts[:, i] * pts[:, j]

    space = CarnotSpace(group, gauge)
    mean, std_error, corr, n, method = _ball_moments(space, products, np.zeros(group.dim), 1.0, scheme)
    cov = np.multiply.outer(std_error, std_error) * (1.0 if corr is None else corr)
    sigma = np.sqrt(np.maximum(np.einsum("di,ij,dj->d", coef, cov, coef), 0.0))
    return [Estimate(float(v), float(s), n, method) for v, s in zip(np.einsum("di,i->d", coef, mean), sigma)]


def carnot_ball_volume_mc(space: CarnotSpace, x, r, n: int, seed: SeedSpec) -> Estimate:
    """Haar volume of B_r(x) by plain coordinate-box rejection.

    Candidates are Lebesgue-uniform in a coordinate box that covers the
    ball, and acceptance tests the gauge distance to x directly, so this
    estimate does not assume translation invariance (it is the oracle for
    that invariance).
    """
    g = space.group
    x = space._centre(x)
    r = float(r)
    h_bound, v_bound = space.gauge.envelope(r)
    x1 = x[: g.v1]
    lo = np.empty(g.dim)
    hi = np.empty(g.dim)
    lo[: g.v1] = x1 - h_bound
    hi[: g.v1] = x1 + h_bound
    for k in range(g.v2):
        slack = v_bound + 0.5 * float(np.sum(np.abs(g.bracket[k].T @ x1))) * h_bound
        lo[g.v1 + k] = x[g.v1 + k] - slack
        hi[g.v1 + k] = x[g.v1 + k] + slack
    box_vol = float(np.prod(hi - lo))
    p, p_err, _ = _mc_moments(lambda m, rng: np.asfortranarray(rng.uniform(lo, hi, (m, g.dim))),
                              lambda cand: space.distance(cand, x[None, :]) < r, MCScheme(n, seed))
    return Estimate(box_vol * float(p), box_vol * float(p_err), n, "monte_carlo")
