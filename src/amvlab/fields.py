"""Closed-form scalar fields with exact Euclidean gradients and Hessians.

Every field maps coordinate arrays of shape (..., dim) to values of shape
(...).  Fields form a small linear algebra (sum, scalar multiple, constant
offset), which is enough to assemble the shipped catalog: coordinate
monomials up to degree four, translated horizontal square norms, second
layer coordinates, gauge powers and the fundamental-solution power of the
gauge.  Derivatives are closed form by construction; finite differences are
the independent oracle in the tests.  A monomial's value, gradient and
Hessian come from one derivative routine (``Monomial._term``), and a sum's
from one linear-combination loop (``FieldSum._combine``).

Lipschitz-only bumps used as compactly supported pairing functions carry
just a value; asking them for derivatives raises.  Invalid construction
arguments raise InputError.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .mmspace import InputError


class LipschitzField:
    """A scalar field with pointwise values only."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    def value(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.value(pts)

    def _check(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise InputError(f"expected points with last axis {self.dim}, got {pts.shape}")
        return pts


class AnalyticField(LipschitzField):
    """Field with exact gradient and Hessian; supports +, -, and scaling."""

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Constant(self.dim, float(other))
        return FieldSum(self.dim, [(1.0, self), (1.0, other)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Constant(self.dim, float(other))
        return FieldSum(self.dim, [(1.0, self), (-1.0, other)])

    def __mul__(self, c):
        return FieldSum(self.dim, [(float(c), self)])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


class Constant(AnalyticField):
    def __init__(self, dim, c):
        super().__init__(dim)
        self.c = float(c)

    def value(self, pts):
        pts = self._check(pts)
        return np.full(pts.shape[:-1], self.c)

    def gradient(self, pts):
        pts = self._check(pts)
        return np.zeros(pts.shape)

    def hessian(self, pts):
        pts = self._check(pts)
        return np.zeros(pts.shape[:-1] + (self.dim, self.dim))


class Monomial(AnalyticField):
    """coeff * prod_i x_i^e_i with nonnegative integer exponents."""

    def __init__(self, dim, exponents, coeff=1.0):
        super().__init__(dim)
        exps = tuple(int(e) for e in exponents)
        if len(exps) != dim or any(e < 0 for e in exps):
            raise InputError("exponents must be nonnegative, one per coordinate")
        self.exponents = exps
        self.coeff = float(coeff)

    def _term(self, pts, *wrt):
        """The monomial differentiated once along each axis in wrt (each one
        scales the coefficient by the exponent and lowers it), powers in axis order."""
        exps, c = list(self.exponents), self.coeff
        for i in wrt:
            if exps[i] == 0:
                return np.zeros(pts.shape[:-1])
            c *= exps[i]
            exps[i] -= 1
        out = np.full(pts.shape[:-1], c)
        for i, e in enumerate(exps):
            if e:
                out = out * pts[..., i] ** e
        return out

    def value(self, pts):
        return self._term(self._check(pts))

    def gradient(self, pts):
        pts = self._check(pts)
        return np.stack([self._term(pts, j) for j in range(self.dim)], axis=-1)

    def hessian(self, pts):
        pts, axes = self._check(pts), range(self.dim)
        return np.stack([np.stack([self._term(pts, j, k) for k in axes], axis=-1) for j in axes], axis=-2)


class ShiftedSquareNorm(AnalyticField):
    """|x[sel] - center|^2 over a contiguous coordinate range."""

    def __init__(self, dim, start, stop, center=None):
        super().__init__(dim)
        self.start, self.stop = int(start), int(stop)
        if not (0 <= self.start < self.stop <= dim):
            raise InputError("invalid coordinate range")
        width = self.stop - self.start
        self.center = np.zeros(width) if center is None else np.asarray(center, dtype=np.float64)
        if self.center.shape != (width,):
            raise InputError("center must match the selected range")

    def value(self, pts):
        pts = self._check(pts)
        return _kernels.square_sums(pts[..., self.start : self.stop] - self.center)

    def gradient(self, pts):
        pts = self._check(pts)
        grad = np.zeros(pts.shape)
        grad[..., self.start : self.stop] = 2.0 * (pts[..., self.start : self.stop] - self.center)
        return grad

    def hessian(self, pts):
        pts = self._check(pts)
        hess = np.zeros(pts.shape[:-1] + (self.dim, self.dim))
        for i in range(self.start, self.stop):
            hess[..., i, i] = 2.0
        return hess


class GaugePower(AnalyticField):
    """rho^power with rho = ((|z1|^2)^2 + beta*|z2|^2)^(1/4).

    z1 is the first v1 coordinates, z2 the rest.  Negative powers are the
    fundamental-solution family; undefined at the origin.
    """

    def __init__(self, dim, v1, beta, power):
        super().__init__(dim)
        self.v1 = int(v1)
        if not (1 <= self.v1 <= dim):
            raise InputError("v1 must be in [1, dim]")
        self.beta = float(beta)
        self.power = float(power)

    def _g(self, pts):
        z1 = pts[..., : self.v1]
        z2 = pts[..., self.v1 :]
        s = np.sum(z1 * z1, axis=-1)
        return s * s + self.beta * np.sum(z2 * z2, axis=-1), s

    def _g_grad(self, pts, s):
        grad = np.empty(pts.shape)
        grad[..., : self.v1] = 4.0 * s[..., None] * pts[..., : self.v1]
        grad[..., self.v1 :] = 2.0 * self.beta * pts[..., self.v1 :]
        return grad

    def value(self, pts):
        pts = self._check(pts)
        g, _ = self._g(pts)
        return g ** (self.power / 4.0)

    def gradient(self, pts):
        pts = self._check(pts)
        g, s = self._g(pts)
        c = self.power / 4.0
        return (c * g ** (c - 1.0))[..., None] * self._g_grad(pts, s)

    def hessian(self, pts):
        pts = self._check(pts)
        g, s = self._g(pts)
        c = self.power / 4.0
        gg = self._g_grad(pts, s)
        hess_g = np.zeros(pts.shape[:-1] + (self.dim, self.dim))
        z1 = pts[..., : self.v1]
        for i in range(self.v1):
            for j in range(self.v1):
                hess_g[..., i, j] = 8.0 * z1[..., i] * z1[..., j]
            hess_g[..., i, i] += 4.0 * s
        for k in range(self.v1, self.dim):
            hess_g[..., k, k] = 2.0 * self.beta
        t1 = (c * g ** (c - 1.0))[..., None, None] * hess_g
        t2 = (c * (c - 1.0) * g ** (c - 2.0))[..., None, None] * (gg[..., :, None] * gg[..., None, :])
        return t1 + t2


class FieldSum(AnalyticField):
    """Linear combination of analytic fields."""

    def __init__(self, dim, terms):
        super().__init__(dim)
        flat = []
        for c, f in terms:
            if f.dim != dim:
                raise InputError("dimension mismatch in field sum")
            if isinstance(f, FieldSum):
                flat.extend((c * ci, fi) for ci, fi in f.terms)
            else:
                flat.append((float(c), f))
        self.terms = flat

    def _combine(self, part, pts, trailing):
        """Sum of c * f.part(pts) over the terms, in order, from zeros(pts.shape[:-1] + trailing)."""
        pts = self._check(pts)
        out = np.zeros(pts.shape[:-1] + trailing)
        for c, f in self.terms:
            out = out + c * getattr(f, part)(pts)
        return out

    def value(self, pts):
        return self._combine("value", pts, ())

    def gradient(self, pts):
        return self._combine("gradient", pts, (self.dim,))

    def hessian(self, pts):
        return self._combine("hessian", pts, (self.dim, self.dim))


class Tent(LipschitzField):
    """Lipschitz bump: 1 inside r_inner, linear decay to 0 at r_outer.

    Distance is Euclidean from the given center; for cone points use
    ConeTent instead.
    """

    def __init__(self, dim, center, r_inner, r_outer):
        super().__init__(dim)
        self.center = np.asarray(center, dtype=np.float64)
        if self.center.shape != (dim,):
            raise InputError("center must have length dim")
        if not (0 <= r_inner < r_outer):
            raise InputError("need 0 <= r_inner < r_outer")
        self.r_inner = float(r_inner)
        self.r_outer = float(r_outer)

    def _ramp(self, d):
        return np.clip((self.r_outer - d) / (self.r_outer - self.r_inner), 0.0, 1.0)

    def value(self, pts):
        pts = self._check(pts)
        return self._ramp(np.sqrt(np.sum((pts - self.center) ** 2, axis=-1)))


class ConeTent(Tent):
    """Apex-centered bump on cone points (rho, phi): the ramp of rho."""

    def __init__(self, r_inner, r_outer):
        super().__init__(2, [0.0, 0.0], r_inner, r_outer)

    def value(self, pts):
        return self._ramp(self._check(pts)[..., 0])


class Callable1(LipschitzField):
    """Adapter wrapping a plain vectorized callable as a value-only field."""

    def __init__(self, dim, fn):
        super().__init__(dim)
        self.fn = fn

    def value(self, pts):
        pts = self._check(pts)
        return np.asarray(self.fn(pts), dtype=np.float64)


def coordinate(dim: int, i: int) -> Monomial:
    if not (0 <= i < dim):
        raise InputError(f"coordinate index {i} out of range for dimension {dim} (0-based)")
    exps = [0] * dim
    exps[i] = 1
    return Monomial(dim, exps)


def harmonic_cubic(dim: int = 2) -> FieldSum:
    """Re((x1 + i x2)^3) = x1^3 - 3 x1 x2^2, harmonic on the plane."""
    if dim < 2:
        raise InputError("needs at least two coordinates")
    e1 = [0] * dim
    e1[0] = 3
    e2 = [0] * dim
    e2[0], e2[1] = 1, 2
    return FieldSum(dim, [(1.0, Monomial(dim, e1)), (-3.0, Monomial(dim, e2))])
