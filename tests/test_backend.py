"""Kernel invariants that finite spaces rely on.

Every self-distance matrix must be exactly symmetric with a zero diagonal
(FiniteMMSpace rejects anything else), and neither the ``threads`` argument
nor the row-block size (``_kernels.row_blocks``) may change an output bit.
The point counts span many row blocks, so two threads really split the work.
"""

import time

import numpy as np
import pytest

from amvlab import _kernels as k
from amvlab import carnot as ca
from amvlab import mmspace as mm
from amvlab import models as mo

N = 2500  # 52 rows per block at the default entry budget


def _rand_group(rng, v1, v2):
    b = rng.uniform(-1, 1, size=(v2, v1, v1))
    return ca.CarnotStep2(v1, v2, b - np.swapaxes(b, 1, 2))


def _model(space):
    return lambda pts, threads: space.distance_matrix(pts, threads=threads)


def _carnot(group, gauge):
    return lambda pts, threads: ca.distance_matrix(group, gauge, pts, threads=threads)


# name -> (self-distance builder, point dimension, lowest coordinate: half-space
# and cone points need a nonnegative first coordinate)
SELF_DISTANCES = {
    "euclidean": (_model(mo.Euclidean(3)), 3, -2.0),
    "half_space": (_model(mo.HalfSpace(2)), 2, 0.0),
    "cone": (_model(mo.FlatCone(1.9)), 2, 0.0),
    "carnot_koranyi": (_carnot(ca.heisenberg(1), ca.Gauge("koranyi")), 3, -2.0),
    "carnot_scaled": (_carnot(ca.heisenberg(2), ca.Gauge("scaled_koranyi", 16.0)), 5, -2.0),
    "carnot_random_bracket": (
        _carnot(_rand_group(np.random.default_rng(5), 3, 2), ca.Gauge("koranyi")), 5, -2.0,
    ),
}


@pytest.mark.parametrize("name", sorted(SELF_DISTANCES))
def test_self_distance_exactly_symmetric(name):
    build, dim, low = SELF_DISTANCES[name]
    pts = np.random.default_rng(6).uniform(low, 1.9, size=(N, dim))
    one = build(pts, 1)
    two = build(pts, 2)
    assert np.array_equal(one, one.T)
    assert not np.any(np.diag(one))
    assert np.array_equal(one, two)


@pytest.mark.parametrize("theta", [1.9, 4.5, 2 * np.pi])
def test_cone_pair_distance_is_the_matrix_entry(theta):
    # FlatCone.distance and the matrix kernel share one law of cosines, so
    # broadcast pairs reproduce the matrix bit for bit
    cone = mo.FlatCone(theta)
    rng = np.random.default_rng(10)
    pts = np.stack([rng.uniform(0.0, 1.9, 600), rng.uniform(0.0, theta, 600)], axis=1)
    pts[::40, 0] = 0.0  # apex points
    assert np.array_equal(cone.distance(pts[:, None, :], pts[None, :, :]), cone.distance_matrix(pts))


def test_threads_bitwise_wrappers():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(5000, 2))
    one = k.euclid_dist_matrix(pts, pts, threads=1)
    four = k.euclid_dist_matrix(pts, pts, threads=4)
    assert np.array_equal(one, four)


def test_block_size_never_changes_a_bit(monkeypatch):
    cloud, _, _ = mo.euclidean_cloud(mo.Euclidean(2), [-1.0, -1.0], [1.0, 1.0], 17, seed=2)
    u, v = np.random.default_rng(3).standard_normal((2, cloud.n))
    r = 0.4

    def outputs():
        # a fresh space keeps no ball masses from an earlier budget; its
        # operators then share one ball object at r
        sp = mm.FiniteMMSpace(cloud.dist, cloud.mass)
        out = [
            mm.ball_masses(sp, r), mm.average(sp, u, r), mm.adjoint_average(sp, u, r),
            mm.sym_r_laplacian(sp, u, r), mm.energy_density(sp, u, v, r),
            mm.r_laplacian(sp, u, r), mm.kernel_matrix(sp, r, rows=np.arange(0, sp.n, 3)),
            mm.r_laplacian(sp, u, r) - mm.sym_r_laplacian(sp, u, r),
        ]
        for name in ("euclidean", "cone", "carnot_koranyi", "carnot_random_bracket"):
            build, dim, low = SELF_DISTANCES[name]
            pts = np.random.default_rng(7).uniform(low, 1.9, size=(300, dim))
            out += [build(pts, 1), build(pts, 2)]
        z = np.random.default_rng(9).uniform(-1, 1, size=(300, 5))
        out += [k.gauge_fourth(z[:, :3], z[:, 3:], 16.0, threads) for threads in (1, 2)]
        return out

    default = outputs()
    for budget in (1, 1 << 40):  # one row per block; a single block
        monkeypatch.setattr(k, "_BLOCK_ENTRIES", budget)
        assert all(np.array_equal(a, b) for a, b in zip(default, outputs(), strict=True))


def test_pool_tasks_keep_the_callers_error_state():
    # numpy 2 keeps its error state per context, which a new thread does not
    # inherit; each task re-enters the caller's, so both overflows reach the
    # callback instead of warning
    spans = k.row_blocks(2, k._BLOCK_ENTRIES)
    assert len(spans) == 2
    big, seen = np.full(2, 1e300), []
    with np.errstate(over="call", call=lambda kind, flag: seen.append(kind)):
        out = k.pool_map(lambda s, e: big[s:e] * big[s:e], spans, threads=2)
    assert seen == ["overflow"] * 2 and np.all(np.isinf(out))


def test_a_failing_item_stops_the_pool_queue():
    # item 0 fails at once, while item 1 (if its thread has started) sleeps:
    # items 2.. never start, and the error is item 0's, as inline
    ran = []

    def item(i):
        ran.append(i)
        if i == 0:
            raise ValueError("item 0")
        if i == 1:
            time.sleep(0.2)

    with pytest.raises(ValueError, match="item 0"):
        k.pool_map(item, [(i,) for i in range(8)], threads=2)
    assert 0 in ran and set(ran) <= {0, 1}


@pytest.mark.parametrize("width", range(11))
def test_square_sums_match_np_sum(width):
    # left-to-right sums keep np.sum's bits on one or two columns; past that
    # np.sum may add in another order, and two orders of summing w
    # nonnegative terms differ by at most (w - 1) 2^-52 of the sum
    a = np.random.default_rng(width).standard_normal((5000, width)) * np.exp(np.arange(width))
    got, want = k.square_sums(a), np.sum(a * a, axis=-1)
    if width <= 2:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= (width - 1) * 2.0**-52 * want)
