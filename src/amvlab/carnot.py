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
product, inverse and dilation; points are plain arrays, split into layers
by slicing.  A gauge gives values and the bounding box of its
balls (``envelope``), on which the samplers and clouds of ``models`` rest.
This module holds the group law, the gauges and horizontal calculus; the
distance d(x, y) = gauge(y^-1 * x) belongs to the metric measure space,
``models.CarnotSpace``.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .fields import AnalyticField, GaugePower, ShiftedSquareNorm, coordinate
from .mmspace import InputError


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

    def dilate(self, t, x, out=None) -> np.ndarray:
        """delta_t(x) = (t x1, t^2 x2), into out when given (out=x dilates in place)."""
        t = float(t)
        if not (t > 0):
            raise InputError("dilation parameter must be positive")
        x = self._check(x)
        out = np.empty_like(x) if out is None else out
        np.multiply(x[..., : self.v1], t, out=out[..., : self.v1])
        np.multiply(x[..., self.v1 :], t * t, out=out[..., self.v1 :])
        return out


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
        if not (0 < beta < math.inf):
            raise InputError(f"beta must be positive and finite, got {beta!r}")
        self.kind = kind
        self.beta = beta

    def value(self, group: CarnotStep2, pts) -> np.ndarray:
        pts = group._check(pts)
        flat = pts.reshape(-1, group.dim)
        g4 = _kernels.gauge_fourth(flat[:, : group.v1], flat[:, group.v1 :], self.beta)
        return np.sqrt(np.sqrt(g4)).reshape(pts.shape[:-1])

    def envelope(self, r: float):
        """Bounding box of the gauge ball B_r(0): horizontal radius and
        per-coordinate second-layer half-width."""
        r = float(r)
        return r, r * r / math.sqrt(self.beta)

    def spec(self) -> str:
        if self.kind == "koranyi":
            return "koranyi"
        return f"scaled_koranyi:{self.beta!r}"


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
