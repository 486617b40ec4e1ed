"""Exact calculus on step-2 Carnot groups.

Points are float arrays whose last axis has length v1 + v2: the first v1
entries are the horizontal layer, the rest the second layer.  The group law
is the quadratic Baker-Campbell-Hausdorff truncation, which is exact in
step 2, so every algebraic identity here holds to roundoff.

Sign convention: the bracket data b[k][i][j] (antisymmetric in i, j) enters
the product as (x*y)2_k = x2_k + y2_k + (1/2) sum_ij b[k][i][j] x1_i y1_j,
and the horizontal field X_j generates the right-translation curve
t -> x * (t e_j, 0).  The left-invariance tests pin this convention.

A group (CarnotStep2) is its layer dimensions and brackets, with the
product, inverse, dilation and text form; points are plain arrays, split
into layers by slicing.  A gauge gives values and the bounding box of its
balls (``envelope``), on which the samplers and clouds of ``models`` rest.
"""

from __future__ import annotations

import io
import math

import numpy as np

from . import _kernels
from .fields import AnalyticField, GaugePower, ShiftedSquareNorm, coordinate
from .mmspace import InputError, content_lines, line_fields


class CarnotStep2:
    """Stratified step-2 algebra data: layer dimensions and brackets."""

    def __init__(self, v1: int, v2: int, bracket):
        v1 = int(v1)
        v2 = int(v2)
        if v1 < 1 or v2 < 0:
            raise InputError("need v1 >= 1 and v2 >= 0")
        bracket = np.asarray(bracket, dtype=np.float64)
        if bracket.shape != (v2, v1, v1):
            raise InputError(f"bracket must have shape ({v2}, {v1}, {v1})")
        if not np.all(np.isfinite(bracket)):
            raise InputError("bracket entries must be finite")
        if np.max(np.abs(bracket + np.swapaxes(bracket, 1, 2)), initial=0.0) != 0.0:
            raise InputError("bracket must be antisymmetric in its lower indices")
        self.v1 = v1
        self.v2 = v2
        self.bracket = bracket

    @property
    def dim(self) -> int:
        return self.v1 + self.v2

    @property
    def homogeneous_dim(self) -> int:
        return self.v1 + 2 * self.v2

    def _check(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise InputError(f"points must have last axis {self.dim}, got shape {pts.shape}")
        return pts

    def multiply(self, x, y) -> np.ndarray:
        x = self._check(x)
        y = self._check(y)
        x1, x2 = x[..., : self.v1], x[..., self.v1 :]
        y1, y2 = y[..., : self.v1], y[..., self.v1 :]
        out = np.empty(np.broadcast_shapes(x.shape, y.shape))
        out[..., : self.v1] = x1 + y1
        out[..., self.v1 :] = x2 + y2
        for k, i, j in zip(*np.nonzero(np.triu(self.bracket, 1))):
            half_c = 0.5 * self.bracket[k, i, j]
            out[..., self.v1 + k] += half_c * (x1[..., i] * y1[..., j] - x1[..., j] * y1[..., i])
        return out

    def inverse(self, x) -> np.ndarray:
        return -self._check(x)

    def dilate(self, t, x) -> np.ndarray:
        t = float(t)
        if not (t > 0):
            raise InputError("dilation parameter must be positive")
        x = self._check(x)
        out = np.empty_like(x)
        out[..., : self.v1] = t * x[..., : self.v1]
        out[..., self.v1 :] = (t * t) * x[..., self.v1 :]
        return out

    # -- serialization: "v1 v2" then one "k i j value" line per nonzero
    #    bracket entry with i < j (1-based indices) --

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"{self.v1} {self.v2}\n")
        for k, i, j in zip(*np.nonzero(np.triu(self.bracket, 1))):
            buf.write(f"{k + 1} {i + 1} {j + 1} {float(self.bracket[k, i, j])!r}\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "CarnotStep2":
        lines = content_lines(text)
        if not lines:
            raise InputError("empty group description")
        v1, v2 = line_fields(lines[0], (int, int), "first line must be 'v1 v2'")
        if v1 < 1 or v2 < 0:  # before np.zeros, which raises a bare ValueError
            raise InputError(f"need v1 >= 1 and v2 >= 0, got {lines[0]!r}")
        bracket = np.zeros((v2, v1, v1))
        for ln in lines[1:]:
            k, i, j, c = line_fields(ln, (int, int, int, float), "bracket line must be 'k i j value'")
            k, i, j = k - 1, i - 1, j - 1
            if not (0 <= k < v2 and 0 <= i < v1 and 0 <= j < v1) or i == j:
                raise InputError(f"bracket indices out of range in {ln!r}")
            bracket[k, i, j] = c
            bracket[k, j, i] = -c
        return cls(v1, v2, bracket)


def heisenberg(n: int = 1) -> CarnotStep2:
    """H^n: v1 = 2n, v2 = 1, [e_i, e_{n+i}] = e_T."""
    n = int(n)
    if n < 1:
        raise InputError("heisenberg index must be >= 1")
    bracket = np.zeros((1, 2 * n, 2 * n))
    for i in range(n):
        bracket[0, i, n + i] = 1.0
        bracket[0, n + i, i] = -1.0
    return CarnotStep2(2 * n, 1, bracket)


class Gauge:
    """Homogeneous pseudonorm of the quartic family.

    kind "koranyi" is (|z1|^4 + |z2|^2)^(1/4); "scaled_koranyi" carries a
    positive weight beta on the second layer, (|z1|^4 + beta |z2|^2)^(1/4).
    beta = 16 is the kernel normalization under which the power 2-Q of the
    gauge is annihilated by the horizontal Laplacian.

    These two kinds are every gauge the lab serves.  Both are even and have
    closed-form balls: models.CarnotSpace samples them exactly and knows
    their volume and mean value constant.
    """

    def __init__(self, kind: str = "koranyi", beta: float = 1.0):
        if kind not in ("koranyi", "scaled_koranyi"):
            raise InputError(f"unknown gauge kind {kind!r}")
        if kind == "koranyi":
            beta = 1.0
        beta = float(beta)
        if not (beta > 0):
            raise InputError("beta must be positive")
        self.kind = kind
        self.beta = beta

    def value(self, group: CarnotStep2, pts) -> np.ndarray:
        pts = group._check(pts)
        flat = pts.reshape(-1, group.dim)
        g4 = _kernels.gauge_fourth(flat[:, : group.v1], flat[:, group.v1 :], self.beta)
        return np.sqrt(np.sqrt(g4)).reshape(pts.shape[:-1])

    def envelope(self, group: CarnotStep2, r: float):
        """Bounding box of the gauge ball B_r(0): horizontal radius and
        per-coordinate second-layer half-width."""
        r = float(r)
        return r, r * r / math.sqrt(self.beta)

    def spec(self) -> str:
        if self.kind == "koranyi":
            return "koranyi"
        return f"scaled_koranyi:{self.beta!r}"


def gauge_value(group: CarnotStep2, gauge: Gauge, x) -> np.ndarray | float:
    out = gauge.value(group, x)
    return float(out) if np.ndim(out) == 0 else out


def distance(group: CarnotStep2, gauge: Gauge, x, y) -> np.ndarray | float:
    """Left-invariant pseudodistance d(x, y) = gauge(y^-1 * x)."""
    return gauge_value(group, gauge, group.multiply(group.inverse(y), x))


def distance_matrix(group: CarnotStep2, gauge: Gauge, pts_a, pts_b=None, threads: int = 1) -> np.ndarray:
    """Pairwise gauge distances through the fused kernel.

    With pts_b omitted the result is the self-distance matrix, exactly
    symmetric with a zero diagonal.
    """
    pts_a = group._check(np.atleast_2d(pts_a))
    pts_b = pts_a if pts_b is None else group._check(np.atleast_2d(pts_b))
    return _kernels.carnot_dist_matrix(
        pts_a[:, : group.v1],
        pts_a[:, group.v1 :],
        pts_b[:, : group.v1],
        pts_b[:, group.v1 :],
        group.bracket,
        gauge.beta,
        threads,
    )


def field_coefficients(group: CarnotStep2, pts) -> np.ndarray:
    """Second-layer coefficients c[..., k, j] of the horizontal field X_j:

    X_j u = d/dz1_j u + sum_k c_kj d/dz2_k u,  c_kj(x) = (1/2) sum_i b[k,i,j] x1_i.
    """
    z1 = group._check(pts)[..., : group.v1]
    return 0.5 * np.einsum("kij,...i->...kj", group.bracket, z1)


def left_field(group: CarnotStep2, j: int, u: AnalyticField, pts) -> np.ndarray:
    """X_j u evaluated pointwise (j is a zero-based horizontal index)."""
    j = int(j)
    if not (0 <= j < group.v1):
        raise InputError(f"horizontal index {j} out of range for v1={group.v1}")
    return horizontal_gradient(group, u, pts)[..., j]


def horizontal_gradient(group: CarnotStep2, u: AnalyticField, pts) -> np.ndarray:
    pts = group._check(pts)
    grad = u.gradient(pts)
    c = field_coefficients(group, pts)
    return grad[..., : group.v1] + np.einsum("...kj,...k->...j", c, grad[..., group.v1 :])


def sub_laplacian(group: CarnotStep2, u: AnalyticField, pts) -> np.ndarray:
    """Horizontal Laplacian sum_j X_j^2 u via the field's Euclidean Hessian.

    Expansion of X_j^2 for polynomial coefficient fields: the pure z1 block,
    the mixed block against c, and the second-layer block against c twice;
    first-order terms drop because d/dz1_j c_kj = b[k,j,j]/2 = 0.
    """
    pts = group._check(pts)
    hess = u.hessian(pts)
    c = field_coefficients(group, pts)
    v1 = group.v1
    h11 = np.einsum("...jj->...", hess[..., :v1, :v1])
    h12 = 2.0 * np.einsum("...kj,...jk->...", c, hess[..., :v1, v1:])
    h22 = np.einsum("...kj,...lj,...kl->...", c, c, hess[..., v1:, v1:])
    return h11 + h12 + h22


# -- catalog constructors tied to a group --


def horizontal_sqnorm(group: CarnotStep2, center=None) -> AnalyticField:
    """|z1 - a|^2; its sub-laplacian is 2*v1 everywhere."""
    return ShiftedSquareNorm(group.dim, 0, group.v1, center)


def layer2_coordinate(group: CarnotStep2, k: int) -> AnalyticField:
    k = int(k)
    if not (0 <= k < group.v2):
        raise InputError(f"second-layer index {k} out of range for v2={group.v2}")
    return coordinate(group.dim, group.v1 + k)


def gauge_power(group: CarnotStep2, gauge: Gauge, power: float) -> AnalyticField:
    return GaugePower(group.dim, group.v1, gauge.beta, power)


def fundamental_power(group: CarnotStep2) -> AnalyticField:
    """Gauge power 2 - Q of the beta = 16 gauge.

    On Heisenberg groups this is the fundamental-solution power: the
    horizontal Laplacian annihilates it away from the origin.
    """
    return GaugePower(group.dim, group.v1, 16.0, 2.0 - group.homogeneous_dim)
