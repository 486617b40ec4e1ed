"""Hot numeric kernels on numpy and scipy.

Every self-distance kernel is exactly symmetric by construction: swapping
the two point sets performs the same floating-point operations on each pair,
up to exact negations, so d(x, y) == d(y, x) bitwise and d(x, x) == 0.
Finite spaces require both, so no mirror pass is needed.  For the Carnot
kernel this rests on writing the bracket term of y^-1 * x over i < j as
(1/2) b[k,i,j] (y1_i x1_j - y1_j x1_i), which swapping x and y negates
exactly.

Reductions that could depend on execution layout are avoided here: kernels
are elementwise or row-parallel with disjoint output slices, which is what
makes the ``threads`` argument a no-op for the produced bits.  It is the
width of a ``pool_map`` pool over one call's own row blocks.  The package
calls every kernel at threads=1: a full cloud matrix is one call, and a
cut table maps whole row blocks, each one kernel call, over its own pool
(``models._cut_table``), so pools never nest.  The keyword serves timing one large call at several widths
(the kernel replay of benchmarks/perfbench).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Entries per row block, 1 MiB of float64, so temporaries stay in cache.  Block
# boundaries depend only on the shape, never on threads: --threads keeps every bit.
_BLOCK_ENTRIES = 1 << 17


def row_blocks(n_rows: int, row_len: int):
    """Fixed (start, stop) spans of max(1, _BLOCK_ENTRIES // row_len) rows."""
    step = max(1, _BLOCK_ENTRIES // max(1, row_len))
    return [(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]


def row_runs(offsets, depth: int = 1):
    """Fixed (start, stop) spans of whole CSR rows, one from the first row at
    or after each multiple of max(1, _BLOCK_ENTRIES // depth) entries, for
    depth values per entry."""
    step = max(1, _BLOCK_ENTRIES // depth)
    starts = np.unique(np.searchsorted(offsets[:-1], np.arange(0, offsets[-1], step))).tolist()
    return list(zip(starts, starts[1:] + [len(offsets) - 1]))


def pool_map(fn, items, threads: int) -> list:
    """[fn(*item) for item in items] on a pool of min(threads, len(items))
    threads, inline at threads <= 1 or one item.  A failure or an interrupt
    stops the queue: items not yet started never run, running ones finish,
    and the first failing item in item order re-raises, as inline (it has
    always started).  Tasks run under the caller's numpy error state, which
    numpy 2 keeps per context and a new thread does not inherit."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    err, call = np.geterr(), np.geterrcall()
    stop = threading.Event()

    def task(item):
        if stop.is_set():
            return None
        try:
            with np.errstate(call=call, **err):
                return fn(*item)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        try:
            return list(pool.map(task, items))
        finally:
            stop.set()


def _f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def square_sums(a: np.ndarray) -> np.ndarray:
    """Sums of squares over the last axis, columns added left to right: a
    few ns a row on a short axis, against tens for np.sum(a * a, axis=-1),
    whose bits it keeps on one or two columns."""
    s = a[..., 0] * a[..., 0] if a.shape[-1] else np.zeros(a.shape[:-1])
    for i in range(1, a.shape[-1]):
        s = s + a[..., i] * a[..., i]
    return s


def gauge_fourth(z1: np.ndarray, z2: np.ndarray, beta: float, threads: int = 1) -> np.ndarray:
    """Fourth power of the gauge: (|z1|^2)^2 + beta*|z2|^2, row-wise."""
    z1, z2, beta = _f64(z1), _f64(z2), float(beta)
    out = np.empty(z1.shape[0], dtype=np.float64)

    def rows(start, stop):
        b = z2[start:stop]
        s = square_sums(z1[start:stop])
        acc = s * s
        for k in range(b.shape[-1]):
            w = b[..., k]
            acc = acc + (beta * w) * w
        out[start:stop] = acc

    pool_map(rows, row_blocks(z1.shape[0], z1.shape[1] + z2.shape[1]), threads)
    return out


def euclid_dist_matrix(pts_a: np.ndarray, pts_b: np.ndarray, threads: int = 1) -> np.ndarray:
    from scipy.spatial.distance import cdist  # only Euclidean and half-space clouds need scipy.spatial

    pts_a, pts_b = _f64(pts_a), _f64(pts_b)
    out = np.empty((pts_a.shape[0], pts_b.shape[0]), dtype=np.float64)
    pool_map(lambda s, e: cdist(pts_a[s:e], pts_b, "euclidean", out=out[s:e]),
             row_blocks(pts_a.shape[0], pts_b.shape[0]), threads)
    return out


def carnot_dist_matrix(x1, x2, y1, y2, bracket, beta: float, threads: int = 1) -> np.ndarray:
    """Pairwise gauge distances d(x_n, y_m) = gauge(y_m^-1 * x_n)."""
    x1, x2, y1, y2, bracket = map(_f64, (x1, x2, y1, y2, bracket))
    beta = float(beta)
    v1 = x1.shape[-1]
    out = np.empty((x1.shape[0], y1.shape[0]), dtype=np.float64)

    # The sum accumulates in the output rows; in-place updates keep three
    # row-chunk buffers (buf, w, one temporary) without changing a bit.
    def rows(start, stop):
        a1 = x1[start:stop, None, :]
        a2 = x2[start:stop, None, :]
        acc = out[start:stop]
        buf = a1[..., 0] - y1[None, :, 0]
        np.multiply(buf, buf, out=acc)
        for i in range(1, v1):
            np.subtract(a1[..., i], y1[None, :, i], out=buf)
            buf *= buf
            acc += buf
        acc *= acc
        for k in range(a2.shape[-1]):
            w = a2[..., k] - y2[None, :, k]
            for i in range(v1):
                for j in range(i + 1, v1):
                    c = bracket[k, i, j]
                    if c != 0.0:
                        np.multiply(y1[None, :, i], a1[..., j], out=buf)
                        buf -= y1[None, :, j] * a1[..., i]
                        buf *= 0.5 * c
                        w -= buf
            np.multiply(w, beta, out=buf)
            buf *= w
            acc += buf
        np.sqrt(acc, out=acc)
        np.sqrt(acc, out=acc)

    pool_map(rows, row_blocks(x1.shape[0], y1.shape[0]), threads)
    return out


def cone_distance(rho_a, phi_a, rho_b, phi_b, theta_c: float) -> np.ndarray:
    """Cone distances of broadcast pairs (rho_a, phi_a), (rho_b, phi_b) by the
    law of cosines over the shorter angular gap delta; past delta = pi the
    geodesic runs through the apex, rho_a + rho_b."""
    dphi = np.abs(phi_a - phi_b)
    delta = np.minimum(dphi, theta_c - dphi)
    q = rho_a * rho_a + rho_b * rho_b - ((2.0 * rho_a) * rho_b) * np.cos(delta)
    return np.where(delta <= math.pi, np.sqrt(np.maximum(q, 0.0)), rho_a + rho_b)


def cone_dist_matrix(rho_a, phi_a, rho_b, phi_b, theta_c: float, threads: int = 1) -> np.ndarray:
    rho_a, phi_a, rho_b, phi_b = map(_f64, (rho_a, phi_a, rho_b, phi_b))
    theta_c = float(theta_c)
    out = np.empty((rho_a.shape[0], rho_b.shape[0]), dtype=np.float64)

    def rows(start, stop):
        out[start:stop] = cone_distance(rho_a[start:stop, None], phi_a[start:stop, None], rho_b, phi_b, theta_c)

    pool_map(rows, row_blocks(rho_a.shape[0], rho_b.shape[0]), threads)
    return out
