"""Means, moments and constants over balls: deterministic quadrature and
seeded Monte Carlo.

Every ball mean, second moment and constant goes through one estimator
core, _ball_moments, and every Monte Carlo estimate, the Haar-volume oracle
included, through one streaming accumulator, _mc_moments.  Monte Carlo
streams are counter-based (Philox keyed by master seed and stream id),
generated sequentially in fixed-size batches of _BATCH = 65,536 draws, so
every estimate is a pure function of (inputs, seed) no matter how
evaluation is laid out, and its working set is one batch however large
mc:n is.  An estimate needs at least two independent draws for its error
bar.
Grid quadrature over Euclidean balls is a Gauss-Jacobi radial rule times a
product sphere rule (exact for polynomials); gauge balls use slice-adapted
coordinates where the slice measure is smooth.  Each rule counts its nodes
from res and the dimensions and refuses a node set over the memory budget
(``mmspace.check_memory``) before it builds one.

The Monte Carlo r-laplacian draws antithetic pairs (x·z, x·z⁻¹) on the
spaces whose balls are symmetric under z -> z⁻¹ (Euclidean and Carnot
spaces): the symmetry cancels the first-order term of
u(y) - u(x) inside each pair, so the error bar no longer grows with
|grad u(x)| r / r^2.  A pair is one draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special as _special

from .carnot import CarnotStep2, Gauge, distance
from .mmspace import InputError, check_memory, malformed
from .models import CarnotSpace, Euclidean, ModelSpace, NumericError

_MASK64 = (1 << 64) - 1
# draws per Monte Carlo batch, an estimate's working set: one mc-means pass
# timed 0.656, 0.633, 0.628 and 0.654 s in process at 2^14, 2^15, 2^16 and
# 2^17 (medians of 6 rounds, 2 cores)
_BATCH = 65_536
CONSTANT_REL_TOL = 1e-3  # grid-versus-MC agreement of carnot_constant_checked, relative
# peak bytes of a grid ball mean per node and coordinate (the weight counts as
# one).  The growth of amv-sweep's peak RSS between two resolutions gives
# 96.1 bytes per node on H1 (grid:60 to 100, 4 values per node), 80.2 on
# euclidean:3 (60 to 120) and 64.4 on euclidean:2 (400 to 800).
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Estimate":
        return cls(**json.loads(text))


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
        sin_t = np.sqrt(1.0 - mu**2)
        nodes = np.empty((mu.size * m, 3))
        weights = np.empty(mu.size * m)
        for i in range(mu.size):
            s = slice(i * m, (i + 1) * m)
            nodes[s, 0] = sin_t[i] * np.cos(ang)
            nodes[s, 1] = sin_t[i] * np.sin(ang)
            nodes[s, 2] = mu[i]
            weights[s] = wmu[i] * 2.0 * math.pi / m
        return nodes, weights
    raise GridUnavailable(f"no sphere rule for S^{k - 1}; use a Monte Carlo scheme")


def _sphere_size(k: int, res: int) -> int:
    """Node count of _sphere_rule(k, res) for k in 1..3, without building it."""
    m = max(4, 2 * res + 1)
    return {1: 2, 2: m, 3: max(2, res) * m}[k]


def _check_grid(nodes: int, dim: int, res: int) -> None:
    """Refuse a rule of nodes points in dim coordinates over the memory
    budget (``mmspace.check_memory``), before any node is built."""
    check_memory(_GRID_BYTES * (dim + 1) * nodes, f"grid:{res} ({nodes} nodes in {dim} coordinates)", "node set")


def _radial_rule(k: int, res: int):
    """Nodes/weights for int_0^1 t^(k-1) g(t) dt (Gauss-Jacobi)."""
    x, w = _special.roots_jacobi(max(2, res), 0.0, float(k - 1))
    return 0.5 * (x + 1.0), w / 2.0**k


def euclid_ball_quadrature(n: int, r: float, res: int):
    """Nodes and weights for integrals over the centered r-ball in R^n."""
    n = int(n)
    if n > 3:
        raise GridUnavailable(f"no grid rule ships for {n}-dimensional balls; use mc")
    _check_grid(max(2, res) * _sphere_size(n, res), n, res)
    t, wt = _radial_rule(n, res)
    omega, womega = _sphere_rule(n, res)
    nodes = (r * t)[:, None, None] * omega[None, :, :]
    # float64, not float: an overflowing r**n is inf, so the mean turns
    # non-finite and is refused downstream, as in ModelSpace.theta_r
    weights = (np.float64(r) ** n * wt)[:, None] * womega[None, :]
    return nodes.reshape(-1, n), weights.reshape(-1)


def carnot_ball_quadrature(group: CarnotStep2, gauge: Gauge, r: float, res: int):
    """Adapted product rule over the gauge ball B_r(0).

    Second-layer radius w = (r^2/sqrt(beta)) sin(psi) makes the horizontal
    slice radius r*sqrt(cos(psi)) and the slice measure smooth in psi.
    Available for v1 <= 3, v2 <= 3; both gauge kinds share it through beta.
    """
    v1, v2 = group.v1, group.v2
    r = float(r)
    if v2 == 0:
        nodes1, w1 = euclid_ball_quadrature(v1, r, res)
        return nodes1, w1
    if v1 > 3 or v2 > 3:
        raise GridUnavailable("grid rule ships for v1 <= 3 and v2 <= 3 only; use mc")
    _check_grid(max(4, res) * _sphere_size(v2, res) * max(2, res) * _sphere_size(v1, res), group.dim, res)
    w_max = r * r / math.sqrt(gauge.beta)
    psi, wpsi = np.polynomial.legendre.leggauss(max(4, res))
    psi = 0.25 * math.pi * (psi + 1.0)
    wpsi = 0.25 * math.pi * wpsi
    omega, womega = _sphere_rule(v2, res)
    nodes_out = []
    weights_out = []
    for i in range(psi.size):
        s, c = math.sin(psi[i]), math.cos(psi[i])
        w = w_max * s
        slice_r = r * math.sqrt(c)
        nodes1, w1 = euclid_ball_quadrature(v1, slice_r, res)
        radial_w = wpsi[i] * (w ** (v2 - 1)) * (w_max * c)
        for j in range(omega.shape[0]):
            block = np.empty((nodes1.shape[0], group.dim))
            block[:, :v1] = nodes1
            block[:, v1:] = w * omega[j]
            nodes_out.append(block)
            weights_out.append(radial_w * womega[j] * w1)
    return np.concatenate(nodes_out, axis=0), np.concatenate(weights_out)


# ---------------------------------------------------------------------------
# sampling and means
# ---------------------------------------------------------------------------


def sample_ball(space: ModelSpace, x, r, n: int, seed: SeedSpec) -> np.ndarray:
    """n points uniform for the space's measure on B_r(x); deterministic in
    (inputs, seed)."""
    n = int(n)
    if n < 1:
        raise InputError("sample count must be >= 1")
    return space.sample_ball(x, float(r), n, seed.generator())


def _mc_moments(draw, f, scheme: MCScheme):
    """Streaming Monte Carlo mean and standard error of f over the draws.

    draw(m, rng) returns a batch of m points; f maps it to one value per
    point, or to a row of values per point.  Batches are merged by their
    centred moments (Chan, Golub and LeVeque), never by E[v^2] - E[v]^2,
    which cancels to a zero variance once the mean dwarfs the spread.  One
    draw gives no spread at all, so fewer than two are refused.

    Before they are squared, deviations are multiplied by a power of two,
    fixed by the first batch, that lifts the largest of each column into
    [1/2, 1); so deviations of about r^2 at a radius of 1e-100 no longer
    square to a zero error bar.  The scale is exact and never below 1: no
    bit moves where nothing underflowed, and an overflow still overflows.
    """
    if scheme.n < 2:
        raise InputError("a Monte Carlo error bar needs at least 2 independent draws "
                         f"(an antithetic pair is one), got {scheme.n}")
    rng = scheme.seed.generator()
    mean = 0.0
    m2 = 0.0
    scale = None
    done = 0
    while done < scheme.n:
        m = min(_BATCH, scheme.n - done)
        vals = np.asarray(f(draw(m, rng)), dtype=np.float64)
        batch_mean = np.mean(vals, axis=0)
        sq_dev = vals - batch_mean
        if scale is None:
            # a peak in [2^(e-1), 2^e) times 2^-e lies in [1/2, 1); 2^1023 is the top double power
            scale = np.ldexp(1.0, np.clip(-np.frexp(np.max(np.abs(sq_dev), axis=0))[1], 0, 1023))
        sq_dev *= scale
        sq_dev *= sq_dev
        delta = batch_mean - mean
        scaled_delta = delta * scale
        total = done + m
        mean = mean + delta * (m / total)
        m2 = m2 + np.sum(sq_dev, axis=0)
        if done:  # on the first batch an overflowing delta^2 times 0 would be NaN
            m2 = m2 + (scaled_delta * scaled_delta) * (done * m / total)
        done = total
    return mean, np.sqrt(m2 / scheme.n) / math.sqrt(scheme.n) / scale


def _ball_moments(space: ModelSpace, f, x, r, scheme):
    """Mean of f over B_r(x), its standard error, the node or draw count and
    the method, for f with one value or one row of values per point."""
    r = float(r)
    if isinstance(scheme, GridScheme):
        if isinstance(space, Euclidean):
            nodes, weights = euclid_ball_quadrature(space.dim, r, scheme.res)
        elif isinstance(space, CarnotSpace):
            nodes, weights = carnot_ball_quadrature(space.group, space.gauge, r, scheme.res)
        else:
            raise GridUnavailable(f"no grid rule for the {space.kind} kind; use mc")
        vals = np.asarray(f(space.translate(x, nodes)), dtype=np.float64)
        mean = np.sum(vals.T * weights, axis=-1) / np.sum(weights)
        return mean, np.zeros_like(mean), weights.size, "grid"
    if isinstance(scheme, MCScheme):
        mean, std_error = _mc_moments(lambda m, rng: space.sample_ball(x, r, m, rng), f, scheme)
        return mean, std_error, scheme.n, "mc"
    raise InputError(f"unknown scheme {scheme!r}")


def mean_over_ball(space: ModelSpace, u, x, r, scheme) -> Estimate:
    """Mean value of u over B_r(x) with error accounting."""
    mean, std_error, n, method = _ball_moments(space, u, x, r, scheme)
    return Estimate(float(mean), float(std_error), n, method)


def continuum_r_laplacian(space: ModelSpace, u, x, r, scheme) -> Estimate:
    """Mean of u(y) - u(x) over y in B_r(x), divided by r^2.

    Averaging the difference centres the samples on u(x), so the mean keeps
    its digits when |u(x)| dwarfs the spread of u over the ball.

    Monte Carlo on a space with antithetic pairs (Euclidean, Carnot)
    averages g(z) = ½[(u(x·z) - u(x)) + (u(x·z⁻¹) - u(x))] over z in
    B_r(0).  The ball is symmetric under z -> z⁻¹, so g has the same mean,
    and its first-order term cancels: for a quadratic u, g is the integrand
    at the origin wherever x is.  Each evaluation is centred before the pair
    is averaged; ½(u(a) + u(b)) - u(x) would lose the digits at large
    |u(x)|.  mc:n still means n field evaluations, drawn as ⌈n/2⌉ pairs,
    and Estimate.n counts the pairs.  Other spaces sample plainly.
    """
    r = float(r)
    r2 = float(np.float64(r) ** 2)
    if not math.isfinite(r2):
        # a finite mean over an infinite r**2 would read as an exact 0
        raise NumericError(f"the radius {r!r} is too large: its square overflows")
    x = np.asarray(x, dtype=np.float64)
    ux = float(u(x[None, :])[0])
    pair = space.antithetic(x) if isinstance(scheme, MCScheme) else None
    if pair is None:
        est = mean_over_ball(space, lambda pts: u(pts) - ux, x, r, scheme)
    else:

        def centred_pair_mean(z):
            a, b = pair(z)
            return 0.5 * ((u(a) - ux) + (u(b) - ux))

        pairs = MCScheme((scheme.n + 1) // 2, scheme.seed)
        est = mean_over_ball(space, centred_pair_mean, np.zeros_like(x), r, pairs)
    return Estimate(est.value / r2, est.std_error / r2, est.n, est.method)


# ---------------------------------------------------------------------------
# the group's mean value constant and isotropy of the horizontal moment
# ---------------------------------------------------------------------------


def carnot_constant(group: CarnotStep2, gauge: Gauge, scheme) -> Estimate:
    """Leading mean-value coefficient: mean of |z1|^2 over the unit gauge
    ball divided by 2*v1 (so the small-r expansion of the ball mean of u
    reads u(x) + C r^2 * (horizontal Laplacian) + o(r^2))."""

    def hsq(pts):
        z1 = pts[..., : group.v1]
        return np.sum(z1 * z1, axis=-1)

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

    All directions share one sample stream (or one node set), which keeps
    their comparison free of independent-noise inflation.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if directions.shape[1] != group.v1:
        raise InputError("directions must live in the horizontal layer")
    norms = np.sqrt(np.sum(directions * directions, axis=1))
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise InputError("directions must be unit vectors")

    def squared_projections(pts):
        proj = pts[:, : group.v1] @ directions.T
        return proj * proj

    space = CarnotSpace(group, gauge)
    mean, std_error, n, method = _ball_moments(space, squared_projections, np.zeros(group.dim), 1.0, scheme)
    return [Estimate(float(v), float(s), n, method) for v, s in zip(mean, std_error)]


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
    h_bound, v_bound = space.gauge.envelope(g, r)
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
    p, p_err = _mc_moments(lambda m, rng: rng.uniform(lo, hi, (m, g.dim)),
                           lambda cand: distance(g, space.gauge, cand, x[None, :]) < r, MCScheme(n, seed))
    return Estimate(box_vol * float(p), box_vol * float(p_err), n, "monte_carlo")
