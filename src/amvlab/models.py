"""Continuum model spaces: Euclidean space, half-space, flat cones, Carnot.

Each space knows its point representation, distance, reference measure,
ball volumes (exact where available, quadrature otherwise) and a uniform
ball sampler driven by an explicit RNG.  The half-space convention puts the
boundary at {x[0] = 0}, so the first coordinate is the distance to the
boundary.  Euclidean and Carnot spaces, whose balls are symmetric under
z -> z⁻¹, also hand out antithetic pairs (x·z, x·z⁻¹).

Samplers, antithetic pairs and grid quadrature move offsets z in B_r(0)
to B_r(x) by one method, ``translate(x, z)``.  sample_ball, ball_volume
and translate refuse a centre outside the space (a non-finite coordinate;
on a cone, an angle outside [0, theta_c)).

The three samplers that test their draws (half-space, cone, Carnot) share
one loop, ``fill_by_rejection``; each keeps only its proposal.  A Carnot
gauge is one of the two quartic kinds, whose proposal is exact (a polar
draw with chi-square parts), so its gauge check only guards the open ball
against rounding.  The Beta law of (|z1|/r)^4 (``CarnotSpace._quartic_law``)
gives the ball volume and mean value constant in closed form.

Cloud builders (euclidean_cloud, half_space_cloud, cone_cloud,
carnot_ball_cloud) return finite spaces whose points are cell points and
whose masses are exact cell measures.  The Euclidean, half-space and
Carnot clouds are one jittered box build (``_box_cloud``: jitter, masses,
``_cloud_space``, CloudMeta) with their own bounds, cell counts and
boundary distance; the Carnot cloud is the box of its gauge envelope with
the points outside the closed ball B_R(0) dropped.  The cone cloud is a
polar grid drawn in one call, ring by ring.  With cut=, a cloud keeps only
the pairs within that radius (see mmspace), from row blocks of the
distance kernel run on a band of first coordinates (``_cut_table``);
either way a table larger than the memory budget
(``mmspace.check_memory``) is refused before anything is allocated.

Volume densities theta_r = vol(B_r(x)) / (omega_N r^N) use the topological
dimension N: one formula on ModelSpace, offered for the Euclidean,
half-space and cone kinds (there is no canonical normalization on a Carnot
group, where the request raises).  The cone distance is the law of cosines
of ``_kernels.cone_distance``, which the matrix kernel shares.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import special as _special

from . import _kernels
from .carnot import CarnotStep2, Gauge, distance, distance_matrix, heisenberg
from .mmspace import FiniteMMSpace, InputError, check_memory, check_radius, malformed, packed_table


logger = logging.getLogger("amvlab.models")


class NumericError(RuntimeError):
    """A numeric procedure failed to reach its stated accuracy."""


def unit_ball_volume(n: float) -> float:
    """Lebesgue volume of the unit ball in R^n; n may be non-integer."""
    n = float(n)
    if n < 0:
        raise InputError("dimension must be nonnegative")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


class ModelSpace:
    kind = "abstract"
    dim: int  # topological dimension

    def distance(self, p, q):
        raise NotImplementedError

    def distance_matrix(self, pts_a, pts_b=None, threads: int = 1) -> np.ndarray:
        raise NotImplementedError

    def ball_volume(self, x, r):
        """Measure of B_r(x); returns (value, method_tag)."""
        raise NotImplementedError

    def theta_r(self, x, r) -> float:
        """Volume density vol(B_r(x)) / (omega_N r^N), N the topological dimension."""
        vol, _ = self.ball_volume(x, r)
        # float64, not float: an overflowing power is inf (the estimate turns
        # non-finite and is refused downstream), not an OverflowError
        return vol / (unit_ball_volume(self.dim) * np.float64(r) ** self.dim)

    def sample_ball(self, x, r, n, rng) -> np.ndarray:
        raise NotImplementedError

    def _centre(self, x) -> np.ndarray:
        """x as a ball centre: a point of the space with finite coordinates."""
        x = self._pts(x)
        if not np.all(np.isfinite(x)):
            raise InputError(f"a ball centre needs finite coordinates, got {x.tolist()!r}")
        return x

    def antithetic(self, x):
        """The map z -> (x·z, x·z⁻¹) on offsets z drawn from B_r(0), or None
        when the space's balls are not symmetric under z -> z⁻¹."""
        return None

    def spec(self) -> str:
        raise NotImplementedError


class _Flat(ModelSpace):
    """Point check and distances shared by the Euclidean and half-space kinds."""

    def __init__(self, n: int):
        n = int(n)
        if n < 1:
            raise InputError("dimension must be >= 1")
        self.dim = n

    def _pts(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if p.shape[-1] != self.dim:
            raise InputError(f"points must have last axis {self.dim}")
        return p

    def distance(self, p, q):
        p, q = self._pts(p), self._pts(q)
        return np.sqrt(np.sum((p - q) ** 2, axis=-1))

    def distance_matrix(self, pts_a, pts_b=None, threads: int = 1) -> np.ndarray:
        pts_a = np.atleast_2d(self._pts(pts_a))
        pts_b = pts_a if pts_b is None else np.atleast_2d(self._pts(pts_b))
        return _kernels.euclid_dist_matrix(pts_a, pts_b, threads)

    def translate(self, x, z) -> np.ndarray:
        return self._centre(x) + z


class Euclidean(_Flat):
    kind = "euclidean"

    def spec(self) -> str:
        return f"euclidean:{self.dim}"

    def ball_volume(self, x, r):
        r = check_radius(r)
        self._centre(x)
        return unit_ball_volume(self.dim) * r**self.dim, "exact"

    def sample_ball(self, x, r, n, rng) -> np.ndarray:
        r = check_radius(r)
        return self.translate(x, ball_point_cloud(self.dim, r, n, rng))

    def antithetic(self, x):
        x = self._centre(x)
        return lambda z: (self.translate(x, z), self.translate(x, -z))


def ball_point_cloud(dim: int, r: float, n: int, rng) -> np.ndarray:
    """n points uniform in the centered Euclidean r-ball (polar method)."""
    g = rng.standard_normal((n, dim))
    return _to_radii(g, r * rng.random(n) ** (1.0 / dim))


def _to_radii(g, radii) -> np.ndarray:
    """The rows of g, normal draws, scaled in place to the given lengths:
    points isotropic on spheres of those radii."""
    norms = np.sqrt(_kernels.square_sums(g))
    norms[norms == 0] = 1.0
    return np.multiply(g, (radii / norms)[:, None], out=g)


def fill_by_rejection(n: int, dim: int, propose) -> np.ndarray:
    """The first n accepted points, in draw order, as an (n, dim) array.

    propose(need) draws one batch while need points are still missing and
    returns that batch's accepted candidates in draw order.
    """
    out = np.empty((n, dim))
    got = 0
    while got < n:
        keep = propose(n - got)
        take = min(n - got, keep.shape[0])
        out[got : got + take] = keep[:take]
        got += take
    return out


def _halfspace_deficit(s, n: int):
    """Fraction of the unit n-ball with first coordinate above s in [0, 1]."""
    s = np.clip(s, 0.0, 1.0)
    return 0.5 * _special.betainc((n + 1) / 2.0, 0.5, 1.0 - s * s)


def half_space_unit_limit(n: int) -> float:
    """Small-r limit of the mm-boundary mass of the unit region on half:n.

    Integrating the deficit over s in [0, 1] gives the integral of x_1
    over the half unit ball {x_1 > 0}, divided by omega_n:
    omega_(n-1) / ((n + 1) omega_n).
    """
    return unit_ball_volume(n - 1) / ((n + 1) * unit_ball_volume(n))


class HalfSpace(_Flat):
    kind = "half_space"

    def spec(self) -> str:
        return f"half:{self.dim}"

    def _pts(self, p) -> np.ndarray:
        p = super()._pts(p)
        if np.any(p[..., 0] < 0):
            raise InputError("half-space points need a nonnegative first coordinate")
        return p

    def ball_volume(self, x, r):
        r = check_radius(r)
        h = float(self._centre(x)[..., 0])
        full = unit_ball_volume(self.dim) * r**self.dim
        if h >= r:
            return full, "exact"
        return full * (1.0 - float(_halfspace_deficit(h / r, self.dim))), "exact"

    def sample_ball(self, x, r, n, rng) -> np.ndarray:
        """Rejection from the full Euclidean ball (kept fraction >= 1/2)."""
        r = check_radius(r)
        x = self._centre(x)

        def propose(need):
            batch = self.translate(x, ball_point_cloud(self.dim, r, max(2 * need, 64), rng))
            return batch[batch[:, 0] >= 0.0]

        return fill_by_rejection(n, self.dim, propose)


class FlatCone(ModelSpace):
    """2-D cone of total apex angle theta_c in (0, 2*pi].

    Points are (rho, phi) with rho >= 0 and phi in [0, theta_c); rho = 0 is
    the apex regardless of phi.  theta_c = 2*pi is the flat plane in polar
    coordinates.
    """

    kind = "flat_cone"
    dim = 2

    def __init__(self, theta_c: float):
        theta_c = float(theta_c)
        if not (0 < theta_c <= 2 * math.pi):
            raise InputError("total angle must lie in (0, 2*pi]")
        self.theta_c = theta_c

    def spec(self) -> str:
        return f"cone:{self.theta_c!r}"

    def _pts(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if p.shape[-1] != 2:
            raise InputError("cone points are (rho, phi) pairs")
        if np.any(p[..., 0] < 0):
            raise InputError("cone radius must be nonnegative")
        return p

    def _centre(self, x) -> np.ndarray:
        x = super()._centre(x)
        if np.any((x[..., 1] < 0) | (x[..., 1] >= self.theta_c)):
            raise InputError(f"a cone centre needs its angle in [0, {self.theta_c!r}), got {x.tolist()!r}")
        return x

    def distance(self, p, q):
        p, q = self._pts(p), self._pts(q)
        return _kernels.cone_distance(p[..., 0], p[..., 1], q[..., 0], q[..., 1], self.theta_c)

    def distance_matrix(self, pts_a, pts_b=None, threads: int = 1) -> np.ndarray:
        pts_a = np.atleast_2d(self._pts(pts_a))
        pts_b = pts_a if pts_b is None else np.atleast_2d(self._pts(pts_b))
        return _kernels.cone_dist_matrix(
            pts_a[:, 0], pts_a[:, 1], pts_b[:, 0], pts_b[:, 1], self.theta_c, threads
        )

    def ball_volume(self, x, r):
        """Area of B_r(x) by angular quadrature over the unfolded slices.

        The area is 2 * int_0^(theta_c/2) L(delta) d(delta), where L is the
        radial measure of the slice at angular offset delta.  When the ball
        misses the apex (r < rho0) the substitution sin(delta) =
        (r/rho0) sin(psi) makes the integrand 2 r^2 cos^2(psi), which the
        rule integrates exactly; the apex-centered sector stays closed-form
        as a cross-check.
        """
        r = check_radius(r)
        rho0 = float(self._centre(x)[..., 0])
        half = 0.5 * self.theta_c
        if rho0 == 0.0:
            return 0.5 * self.theta_c * r * r, "exact"
        if r < rho0:
            kink = math.asin(r / rho0)
            if half >= kink:
                psi_max = 0.5 * math.pi  # free disk, no wrap around the apex
            else:
                psi_max = math.asin(min(1.0, (rho0 / r) * math.sin(half)))
            nodes, weights = _gl_nodes(16, 0.0, psi_max)
            area = 2.0 * float(np.sum(weights * 2.0 * r * r * np.cos(nodes) ** 2))
            return area, "quadrature"
        # apex inside the ball: smooth slice profile, split at pi/2
        pieces = [0.0, min(0.5 * math.pi, half), half]
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            if b <= a:
                continue
            nodes, weights = _gl_nodes(96, a, b)
            disc = np.maximum(r * r - (rho0 * np.sin(nodes)) ** 2, 0.0)
            hi = np.maximum(rho0 * np.cos(nodes) + np.sqrt(disc), 0.0)
            total += float(np.sum(weights * 0.5 * hi * hi))
        return 2.0 * total, "quadrature"

    def sample_ball(self, x, r, n, rng) -> np.ndarray:
        """Rejection from an annulus-sector envelope in (rho, phi)."""
        r = check_radius(r)
        x = self._centre(x)
        rho0, phi0 = float(x[..., 0]), float(x[..., 1])
        rho_lo, rho_hi = max(0.0, rho0 - r), rho0 + r
        if rho0 > r:
            c = 1.0 - r * r / (2.0 * rho0 * (rho0 - r))
            dmax = math.acos(max(-1.0, c)) if c < 1.0 else 0.0
            dmax = min(dmax, 0.5 * self.theta_c)
        else:
            dmax = 0.5 * self.theta_c

        def propose(need):
            m = max(4 * need, 256)
            rho = np.sqrt(rng.uniform(rho_lo * rho_lo, rho_hi * rho_hi, m))
            phi = np.mod(phi0 + rng.uniform(-dmax, dmax, m), self.theta_c)
            cand = np.stack([rho, phi], axis=1)
            return cand[self.distance(cand, x[None, :]) < r]

        return fill_by_rejection(n, 2, propose)


class CarnotSpace(ModelSpace):
    """A step-2 Carnot group with a gauge, as a metric measure space.

    The reference measure is the Haar = Lebesgue measure in exponential
    coordinates; the topological dimension is v1 + v2 while ball volume
    scales with the homogeneous dimension Q.
    """

    kind = "carnot"

    def __init__(self, group: CarnotStep2, gauge: Gauge, preset: str | None = None):
        self.group = group
        self.gauge = gauge
        self.dim = group.dim
        self._preset = preset

    def spec(self) -> str:
        name = self._preset if self._preset else "custom"
        return f"carnot:{name}:{self.gauge.spec()}"

    def distance(self, p, q):
        return distance(self.group, self.gauge, p, q)

    def distance_matrix(self, pts_a, pts_b=None, threads: int = 1) -> np.ndarray:
        return distance_matrix(self.group, self.gauge, pts_a, pts_b, threads)

    def _pts(self, p) -> np.ndarray:
        return self.group._check(p)

    def theta_r(self, x, r) -> float:
        raise InputError(f"theta_r is not defined for the {self.kind} kind")

    def translate(self, x, z) -> np.ndarray:
        """x·z, or z itself, without a group product, at the origin."""
        x = self._centre(x)
        return self.group.multiply(x, z) if np.any(x) else z

    def _quartic_law(self) -> tuple[float, float]:
        """(a, b) with u = (|z1|/r)^4 ~ Beta(a, b) for z uniform in a quartic
        gauge ball B_r(0): the horizontal slice at |z1| = s is a second-layer
        ball of radius sqrt((r^4 - s^4)/beta), so u has density
        u^(v1/4 - 1) (1 - u)^(v2/2) (the marginal method; Devroye,
        Non-Uniform Random Variate Generation, 1986, ch. 4-5)."""
        return self.group.v1 / 4.0, self.group.v2 / 2.0 + 1.0

    def unit_ball_volume(self) -> tuple[float, str]:
        """Volume of B_1(0) in closed form: |S^(v1-1)| omega_v2 beta^(-v2/2)
        B(a, b) / 4."""
        v1, v2 = self.group.v1, self.group.v2
        sphere_ball = v1 * unit_ball_volume(v1) * unit_ball_volume(v2)  # |S^(v1-1)| omega_v2
        vol = sphere_ball * self.gauge.beta ** (-v2 / 2.0) * _special.beta(*self._quartic_law()) / 4.0
        return float(vol), "exact"

    def mean_value_constant(self) -> float:
        """C in the ball mean u(x) + C r^2 (horizontal Laplacian of u) + o(r^2),
        in closed form: the mean of |z1|^2 over B_1(0) over 2 v1, where that
        mean is E[u^(1/2)] = B(a + 1/2, b) / B(a, b)."""
        a, b = self._quartic_law()
        return float(_special.beta(a + 0.5, b) / (2.0 * self.group.v1 * _special.beta(a, b)))

    def ball_volume(self, x, r):
        r = check_radius(r)
        self._centre(x)
        c, method = self.unit_ball_volume()
        return c * r**self.group.homogeneous_dim, method

    def sample_ball(self, x, r, n, rng) -> np.ndarray:
        """Left-translate of uniform draws from B_r(0); unbiasedness rests on
        Haar invariance of left translation.

        The draws are exact (Devroye, 1986, ch. 4-5): on B_1(0), s = |z1|^2
        and w = sqrt(beta) z2 have density s^(v1/2 - 1) on the half-ball
        s^2 + |w|^2 < 1, s >= 0, so (s, w) is U^(1/(v1/2 + v2)) times the
        direction of (A, B), with A^2 ~ chi^2(v1/2) a sum of floor(v1/2)
        squared normals (and a chi^2(1/2) draw for odd v1) and B ~ N(0, I_v2)
        (on heisenberg:n, a uniform point of the unit ball of R^(n+1)); z1 is
        a normal direction scaled to sqrt(s).  A gauge check (< 1) keeps each
        unit draw inside the open ball under rounding before the dilation by
        r, and an acceptance-rate guard bounds the loop should that check
        fail on almost every draw.
        """
        r = check_radius(r)
        g = self.group
        x = self._centre(x)
        h_bound, v_bound = self.gauge.envelope(g, r)
        if not math.isfinite(v_bound):
            raise NumericError(f"the radius {r!r} is too large: its gauge-ball envelope overflows")
        if min(h_bound, v_bound) < np.finfo(np.float64).tiny:
            # subnormal half-widths lose the digits that place a draw
            raise NumericError(f"the radius {r!r} is too small: its gauge-ball envelope underflows")
        # where the gauge at the envelope corner overflows, no candidate could be accepted
        corner = np.zeros(g.dim)
        corner[0], corner[g.v1 :] = h_bound, v_bound
        with np.errstate(over="ignore"):
            corner_gauge = self.gauge.value(g, corner)
        if not np.isfinite(corner_gauge):
            raise NumericError(f"the radius {r!r} is too large: its gauge overflows")
        half, odd = divmod(g.v1, 2)
        attempts = accepted = 0

        def propose(need):
            nonlocal attempts, accepted
            gauss = rng.standard_normal((need, half + g.dim))  # A^2's normals, z1's direction, B
            z = gauss[:, half:]
            a2 = _kernels.square_sums(gauss[:, :half])
            if odd:
                a2 += rng.chisquare(0.5, need)
            length = np.sqrt(a2 + _kernels.square_sums(z[:, g.v1 :]))  # of (A, B)
            length[length == 0] = 1.0
            t = rng.random(need) ** (1.0 / (g.v1 / 2.0 + g.v2)) / length
            _to_radii(z[:, : g.v1], np.sqrt(np.sqrt(a2) * t))
            z[:, g.v1 :] *= (t / math.sqrt(self.gauge.beta))[:, None]
            ok = self.gauge.value(g, z) < 1.0
            keep = z if ok.all() else z[ok]
            keep[:, : g.v1] *= r  # CarnotStep2.dilate(r, keep), in place
            keep[:, g.v1 :] *= r * r
            attempts += need
            accepted += keep.shape[0]
            if attempts >= 20000 and accepted < 1e-3 * attempts:
                raise NumericError(
                    f"gauge-ball acceptance rate {accepted / attempts:.2e} < 1e-3 at radius {r!r}; "
                    "the gauge check rejects exact draws"
                )
            return keep

        out = fill_by_rejection(n, g.dim, propose)
        logger.debug("gauge-ball sampling, exact proposal: kept %d of %d draws", accepted, attempts)
        return self.translate(x, out)

    def antithetic(self, x):
        """The quartic gauges are even, so z -> z⁻¹ = -z maps B_r(0) onto
        itself."""
        x = self._centre(x)
        inverse = self.group.inverse
        return lambda z: (self.translate(x, z), self.translate(x, inverse(z)))


# ---------------------------------------------------------------------------
# space selection strings
# ---------------------------------------------------------------------------


def carnot_preset(preset: str, gauge: str, beta: float | None = None) -> CarnotSpace:
    """The group preset heisenberg:n with the gauge koranyi, or with the
    gauge scaled (alias scaled_koranyi) and its second-layer weight beta."""
    kind, _, n = preset.partition(":")
    if kind.lower() != "heisenberg" or not n.isdecimal():
        raise InputError(f"unknown carnot preset {preset!r} (use heisenberg:n)")
    group, name, tag = heisenberg(int(n)), gauge.lower(), f"heisenberg:{int(n)}"
    if name == "koranyi" and beta is None:
        return CarnotSpace(group, Gauge("koranyi"), tag)
    if name in ("scaled", "scaled_koranyi"):
        if beta is None:
            raise InputError("scaled gauge needs --beta (or :beta in a space spec)")
        return CarnotSpace(group, Gauge("scaled_koranyi", beta), tag)
    raise InputError(f"unknown gauge {gauge!r}" + ("" if beta is None else f" with beta {beta!r}"))


def parse_space(spec: str) -> ModelSpace:
    """Parse CLI space strings: euclidean:n, half:n, cone:theta,
    carnot:heisenberg:n:gauge[:beta]."""
    tok = spec.strip().split(":")
    kind = tok[0].lower()
    with malformed("space", spec):
        if kind == "euclidean" and len(tok) == 2:
            return Euclidean(int(tok[1]))
        if kind == "half" and len(tok) == 2:
            return HalfSpace(int(tok[1]))
        if kind == "cone" and len(tok) == 2:
            return FlatCone(float(tok[1]))
        if kind == "carnot" and len(tok) in (4, 5):
            return carnot_preset(":".join(tok[1:3]), tok[3], float(tok[4]) if len(tok) == 5 else None)
    raise InputError(f"malformed space spec {spec!r}")


# ---------------------------------------------------------------------------
# mm-boundary measures
# ---------------------------------------------------------------------------


class Region:
    """Integration region for mm-boundary masses."""

    def __init__(self, kind: str, center=None, radius=None, lo=None, hi=None):
        self.kind = kind
        self.center = None if center is None else np.asarray(center, dtype=np.float64)
        self.radius = None if radius is None else float(radius)
        self.lo = None if lo is None else np.asarray(lo, dtype=np.float64)
        self.hi = None if hi is None else np.asarray(hi, dtype=np.float64)

    @classmethod
    def ball(cls, center, radius) -> "Region":
        return cls("ball", center=center, radius=check_radius(radius))

    @classmethod
    def box(cls, lo, hi) -> "Region":
        region = cls("box", lo=lo, hi=hi)
        lo, hi = region.lo, region.hi
        if lo.shape != hi.shape or not np.all((lo < hi) & np.isfinite(lo) & np.isfinite(hi)):
            raise InputError("a box needs finite lo < hi on every axis")
        return region

    def spec(self) -> str:
        if self.kind == "ball":
            return f"ball:{','.join(repr(v) for v in self.center)}:{self.radius!r}"
        return f"box:{','.join(repr(v) for v in self.lo)}:{','.join(repr(v) for v in self.hi)}"


def parse_region(spec: str) -> Region:
    tok = spec.strip().split(":")
    with malformed("region", spec):
        if tok[0] == "ball" and len(tok) == 3:
            return Region.ball([float(v) for v in tok[1].split(",")], float(tok[2]))
        if tok[0] == "box" and len(tok) == 3:
            return Region.box([float(v) for v in tok[1].split(",")], [float(v) for v in tok[2].split(",")])
        if tok[0] == "unit" and len(tok) == 1:
            return Region("unit")
    raise InputError(f"malformed region spec {spec!r}")


def _gl_nodes(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def _deficit_integral(n: int, r: float, top: float, width) -> float:
    """Integral over heights h in [0, min(r, top)] of the half-space deficit
    at h / r times the region's cross-section width(h) at height h.

    The substitution h = r sin(a) makes the segment-deficit integrand
    smooth in a, removing the sqrt kink at h = r.
    """
    a_top = math.asin(min(1.0, min(r, top) / r))
    nodes, weights = _gl_nodes(96, 0.0, a_top)
    f = _halfspace_deficit(np.sin(nodes), n)
    return float(np.sum(weights * f * width(r * np.sin(nodes)) * np.cos(nodes)))


def mm_boundary_mass(space: ModelSpace, region: Region, r) -> float:
    """Total variation of the scaled density deficit (1 - theta_r)/r on the
    region: integral of |1 - theta_r(x)| / r over the region."""
    r = check_radius(r)
    if region.kind == "unit":
        region = _default_region(space)
    if isinstance(space, Euclidean):
        return 0.0
    if isinstance(space, HalfSpace):
        n = space.dim
        if region.kind == "box":
            if region.lo.shape != (n,) or region.hi.shape != (n,):
                raise InputError("box bounds must match the space dimension")
            if region.lo[0] != 0.0:
                raise InputError("half-space boxes must start at the boundary (lo[0] = 0)")
            cross = float(np.prod(region.hi[1:] - region.lo[1:]))
            return cross * _deficit_integral(n, r, float(region.hi[0]), lambda h: 1.0)
        if region.kind == "ball":
            if n != 2:
                raise InputError("ball regions on the half-space are supported in dimension 2")
            c, R = region.center, region.radius
            if abs(float(c[0])) > 1e-12:
                raise InputError("half-space ball regions must be centered on the boundary")
            return _deficit_integral(n, r, R, lambda h: 2.0 * np.sqrt(np.maximum(R * R - h * h, 0.0)))
        raise InputError(f"unsupported region kind {region.kind!r}")
    if isinstance(space, FlatCone):
        if region.kind != "ball" or float(region.center[0]) != 0.0:
            raise InputError("cone mm-boundary regions must be apex-centered balls")
        R = region.radius
        # theta_r deviates from 1 only where the ball wraps the apex:
        # rho < r, and rho in [r, r/sin(theta_c/2)) when theta_c < pi
        rho_max = R if space.theta_c >= math.pi else min(R, r / math.sin(0.5 * space.theta_c))
        pieces = [0.0, min(r, rho_max), rho_max]
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            if b <= a:
                continue
            nodes, weights = _gl_nodes(64, a, b)
            dev = np.array([abs(1.0 - space.theta_r(np.array([rho, 0.0]), r)) for rho in nodes])
            total += float(np.sum(weights * dev * nodes))
        return space.theta_c * total / r
    raise InputError(f"mm-boundary masses are not defined for the {space.kind} kind")


def _default_region(space: ModelSpace) -> Region:
    if isinstance(space, (Euclidean, FlatCone)):
        return Region.ball(np.zeros(space.dim), 1.0)
    if isinstance(space, HalfSpace):
        return Region.box(np.zeros(space.dim), np.ones(space.dim))
    raise InputError(f"no default region for the {space.kind} kind")


# ---------------------------------------------------------------------------
# point-cloud discretizations (stratified jittered grids, cell masses)
# ---------------------------------------------------------------------------


class CloudMeta:
    """Provenance of a discretization: generating region and margins.

    boundary_distance gives, per point, the distance to the artificial
    outer boundary of the sampled region (the genuine geometric boundary
    of a half-space does not count).
    """

    def __init__(self, space: ModelSpace, boundary_distance, cell_size: float):
        self.space = space
        self._boundary_distance = boundary_distance
        self.cell_size = float(cell_size)

    def boundary_distance(self, pts) -> np.ndarray:
        return self._boundary_distance(np.asarray(pts, dtype=np.float64))


def _cloud_space(space: ModelSpace, pts, mass, threads: int, cut=None) -> FiniteMMSpace:
    """The cloud as a finite space: the full distance matrix, or with cut
    the table of every pair at distance <= cut (``_cut_table``), built
    without an n x n matrix.

    Before it allocates or scans anything, it refuses a table over the
    memory budget (``mmspace.check_memory``).  A cut table's width is
    estimated as the number of cells of the smallest mass that fill a ball
    of radius cut, at 12 bytes per entry (float64 distance, int32 column).
    A ball of a flat kind or of a cone (curvature >= 0) is at most
    Euclidean; a gauge ball lies in its envelope box, a horizontal v1-ball
    of radius h times a second-layer cube of half-width v, so no volume is
    computed.
    """
    n = pts.shape[0]
    if cut is None:
        size, table = 8 * n * n, "distance matrix"
    else:
        cut = check_radius(cut)
        if isinstance(space, CarnotSpace):
            h, v = space.gauge.envelope(space.group, cut)
            vol = unit_ball_volume(space.group.v1) * h**space.group.v1 * (2 * v) ** space.group.v2
        else:
            vol = unit_ball_volume(space.dim) * cut**space.dim
        size, table = 12 * n * min(n, math.ceil(vol / np.min(mass))), "neighbour table"
    check_memory(size, f"a cloud of n={n} points", table)
    if cut is None:
        return FiniteMMSpace(space.distance_matrix(pts, threads=threads), mass)
    dist, cols = _cut_table(space, pts, cut, threads)
    return FiniteMMSpace(dist, mass, cols=cols, cut=cut)


def _cut_table(space: ModelSpace, pts, cut: float, threads: int):
    """The distances <= cut and their columns, per row in ascending column
    order, in the layout of ``mmspace.packed_table``; row blocks run on
    threads.  The kernels are exactly symmetric, so the kept pairs are too.

    A band, not all n^2 pairs: the first coordinate of a point (its key)
    moves by at most reach along a distance of cut, so each row block runs
    the kernel only on the columns whose key lies within reach, widened by
    a relative 1e-9 against rounding, of the block's key range.  reach is
    cut on the flat kinds (x0) and on cones (rho, the distance to the apex,
    is 1-Lipschitz), and the gauge envelope's horizontal radius on Carnot
    groups (|x1_0 - y1_0| <= |(y^-1 x)_1|).  The kernel still decides
    d <= cut on each candidate, in ascending index order, so the table is
    the same for any point order; the builders' row-major order only keeps
    the band narrow.
    """
    n, key = pts.shape[0], pts[:, 0]
    reach = space.gauge.envelope(space.group, cut)[0] if isinstance(space, CarnotSpace) else cut
    reach += 1e-9 * (reach + np.abs(key).max(initial=0.0))
    index, counts = np.arange(n, dtype=np.int32), np.empty(n, dtype=np.intp)
    blocks, scanned = [], []  # (start, stop, kept distances, kept columns); kernel pairs per block

    def rows(s, e):
        near = index[(key >= key[s:e].min() - reach) & (key <= key[s:e].max() + reach)]
        d = space.distance_matrix(pts[s:e], pts[near])
        kept = d <= cut
        counts[s:e] = np.count_nonzero(kept, axis=1)
        blocks.append((s, e, d[kept], np.broadcast_to(near, d.shape)[kept]))
        scanned.append(d.size)

    _kernels.pool_map(rows, _kernels.row_blocks(n, n), threads)
    dist, cols = packed_table(counts, blocks)
    logger.debug("cut table of n=%d at cut %r: kernel on %.4f of the n^2 pairs, width %d, mean row %.1f",
                 n, cut, sum(scanned) / n**2, dist.shape[1], counts.mean())
    return dist, cols


def _box_cloud(space: ModelSpace, lo, hi, cells, seed: int, threads: int, cut, boundary_distance,
               keep=None):
    """Jittered grid over the box [lo, hi] with cells per axis (one count or
    one per axis); one point per cell, mass = cell volume.  With keep, only
    the points where the mask keep(pts) holds stay, each still carrying its
    full cell volume."""
    cells = np.broadcast_to(np.asarray(cells, dtype=int), lo.shape)
    widths = (hi - lo) / cells
    mesh = np.meshgrid(*[lo[d] + widths[d] * np.arange(cells[d]) for d in range(len(cells))], indexing="ij")
    corners = np.stack([m.ravel() for m in mesh], axis=1)
    pts = corners + np.random.default_rng(seed).random(corners.shape) * widths[None, :]
    if keep is not None:
        pts = pts[keep(pts)]
    fms = _cloud_space(space, pts, np.full(pts.shape[0], float(np.prod(widths))), threads, cut)
    return fms, pts, CloudMeta(space, boundary_distance, float(np.max(widths)))


def euclidean_cloud(space: Euclidean, lo, hi, cells_per_axis: int, seed: int, threads: int = 1,
                    cut=None):
    """Jittered grid over a box; one point per cell, mass = cell volume."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)

    def boundary_distance(q):
        return np.minimum((q - lo).min(axis=-1), (hi - q).min(axis=-1))

    return _box_cloud(space, lo, hi, cells_per_axis, seed, threads, cut, boundary_distance)


def half_space_cloud(space: HalfSpace, hi, cells_per_axis, seed: int, lo=None, threads: int = 1,
                     cut=None):
    """Jittered grid over a box resting on the boundary {x[0] = 0}.

    Only the lateral and top faces count as artificial boundary.
    """
    hi = np.asarray(hi, dtype=np.float64)
    lo = np.zeros(space.dim) if lo is None else np.asarray(lo, dtype=np.float64)
    if lo[0] != 0.0:
        raise InputError("half-space clouds must rest on the boundary")

    def boundary_distance(q):
        lateral = np.minimum((q[..., 1:] - lo[1:]).min(axis=-1), (hi[1:] - q[..., 1:]).min(axis=-1))
        return np.minimum(lateral, hi[0] - q[..., 0])

    return _box_cloud(space, lo, hi, cells_per_axis, seed, threads, cut, boundary_distance)


def cone_cloud(space: FlatCone, rho_max: float, n_rho: int, n_phi: int, seed: int, threads: int = 1,
               cut=None):
    """Jittered polar grid on the cone; masses are exact cell areas.

    Ring by ring, the stream gives n_phi radial then n_phi angular jitters;
    rho is uniform with respect to area inside each cell."""
    rho_max = float(rho_max)
    rho_edges = np.linspace(0.0, rho_max, n_rho + 1)[:, None]
    r0, r1 = rho_edges[:-1], rho_edges[1:]
    phi_edges = np.linspace(0.0, space.theta_c, n_phi + 1)
    dphi = phi_edges[1] - phi_edges[0]
    draws = np.random.default_rng(seed).random((n_rho, 2, n_phi))
    u, jit = draws[:, 0], draws[:, 1]
    rho = np.sqrt(r0 * r0 + u * (r1 * r1 - r0 * r0))
    pts = np.stack([rho, phi_edges[:-1] + jit * dphi], axis=-1).reshape(-1, 2)
    masses = np.repeat(0.5 * (r1 * r1 - r0 * r0) * dphi, n_phi)
    fms = _cloud_space(space, pts, masses, threads, cut)

    def boundary_distance(q):
        return rho_max - q[..., 0]

    cell = max(rho_max / n_rho, rho_max * space.theta_c / n_phi)
    return fms, pts, CloudMeta(space, boundary_distance, cell)


def carnot_ball_cloud(space: CarnotSpace, R: float, cells_per_axis: int, seed: int, threads: int = 1,
                      cut=None):
    """The box build over the envelope of the closed gauge ball B_R(0),
    without the points outside the ball, and the kept points' gauge values.

    A cell survives when its jittered point lands in the ball; the kept
    point carries the full cell volume (unbiased for the ball measure).
    """
    g = space.group
    R = float(R)
    h_bound, v_bound = space.gauge.envelope(g, R)
    lo = np.concatenate([np.full(g.v1, -h_bound), np.full(g.v2, -v_bound)])
    kept = {}

    def in_ball(pts):
        vals = space.gauge.value(g, pts)
        inside = vals <= R
        kept["gauge"] = vals[inside]
        return inside

    def boundary_distance(q):
        return R - space.gauge.value(g, q)

    fms, pts, meta = _box_cloud(space, lo, -lo, cells_per_axis, seed, threads, cut, boundary_distance, in_ball)
    return fms, pts, meta, kept["gauge"]
