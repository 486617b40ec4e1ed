import io
import logging

import numpy as np
import pytest

from amvlab import carnot as ca
from amvlab import dirichlet as di
from amvlab import mmspace as mm
from amvlab import models as mo
from amvlab.integrate import SeedSpec
from amvlab.mmspace import InputError
from amvlab.models import NumericError


@pytest.fixture
def line3():
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return mm.FiniteMMSpace(dist, np.ones(3))


def random_problem(rng, n_max=30):
    space = mm.FiniteMMSpace(*mm.random_table(rng, n_max))
    n = space.n
    r = float(rng.uniform(0.8, 2.0))
    while mm.is_collision_radius(space, r):  # pragma: no cover
        r = float(rng.uniform(0.8, 2.0))
    k = max(2, n // 4)
    boundary = rng.choice(n, size=k, replace=False)
    interior = np.setdiff1d(np.arange(n), boundary)
    g = rng.uniform(-2.0, 2.0, size=k)
    return space, di.BoundaryPartition(interior, boundary, g), r


def test_three_point_symmetry(line3):
    part = di.BoundaryPartition([1], [0, 2], [0.0, 6.0])
    u, _ = di.solve(line3, part, 1.5)
    assert u[1] == pytest.approx(3.0, rel=1e-12)
    assert u[0] == 0.0 and u[2] == 6.0


def test_constant_boundary_data(line3):
    part = di.BoundaryPartition([1], [0, 2], [4.25, 4.25])
    u, _ = di.solve(line3, part, 1.5)
    np.testing.assert_allclose(u, 4.25, rtol=1e-14)


def test_random_instances_minimality_and_max_principle():
    rng = np.random.default_rng(77)
    for _ in range(10):
        space, part, r = random_problem(rng)
        u, _ = di.solve(space, part, r)
        # stationarity residual
        assert di.residual(space, part, u, r) <= 1e-10 * np.max(np.abs(part.g))
        # maximum principle
        eps = 1e-12 * (part.g.max() - part.g.min() + 1.0)
        assert u[part.interior].min() >= part.g.min() - eps
        assert u[part.interior].max() <= part.g.max() + eps
        # random perturbations strictly increase the energy, and the
        # quadratic expansion is exact
        e0 = mm.total_energy(space, u, u, r)
        for _ in range(20):
            v = np.zeros(space.n)
            v[part.interior] = rng.uniform(-1.0, 1.0, part.interior.size) * 0.4
            if not np.any(v):
                continue
            e1 = mm.total_energy(space, u + v, u + v, r)
            ev = mm.total_energy(space, v, v, r)
            assert e1 > e0
            assert abs((e1 - e0) - ev) <= 1e-12 * max(e1, 1.0)


def test_interior_operator_spd():
    rng = np.random.default_rng(5)
    space, part, r = random_problem(rng, 25)
    # reference: the full graph Laplacian from the kernel matrix
    w = mm.kernel_matrix(space, r) * np.outer(space.mass, space.mass) / r**2
    np.fill_diagonal(w, 0.0)
    lap = np.diag(w.sum(axis=1)) - w
    sub = lap[np.ix_(part.interior, part.interior)]
    np.testing.assert_allclose(sub, sub.T, atol=1e-14)
    eigs = np.linalg.eigvalsh(sub)
    assert eigs.min() > 0  # positive definite under boundary connectivity
    ref = np.linalg.solve(sub, -lap[np.ix_(part.interior, part.boundary)] @ part.g)
    for cutoff in (500, 0):  # LU and conjugate-gradient branches
        u, _ = di.solve(space, part, r, dense_cutoff=cutoff)
        np.testing.assert_allclose(u[part.interior], ref, rtol=0, atol=1e-12)


def test_load_mask():
    part = di.load_mask(io.StringIO("# boundary\n0 0.0\n\n  2 6.0\n"), 4)
    assert part.interior.tolist() == [1, 3] and part.boundary.tolist() == [0, 2]
    assert part.g.tolist() == [0.0, 6.0]
    for bad in ("0 0.0\n2\n", "0 0.0\n2.5 1.0\n"):
        with pytest.raises(InputError, match=repr(bad.splitlines()[-1])):
            di.load_mask(io.StringIO(bad), 4)


def test_disconnected_interior_error():
    dist = np.array(
        [[0.0, 1.0, 9.0, 9.0], [1.0, 0.0, 9.0, 9.0], [9.0, 9.0, 0.0, 1.0], [9.0, 9.0, 1.0, 0.0]]
    )
    space = mm.FiniteMMSpace(dist, np.ones(4))
    part = di.BoundaryPartition([2, 3], [0, 1], [1.0, 2.0])
    with pytest.raises(di.DisconnectedInteriorError) as err:
        di.solve(space, part, 1.5)
    assert err.value.component == [2, 3]


def test_lonely_interior_point_error():
    dist = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 9.0], [9.0, 9.0, 0.0]])
    space = mm.FiniteMMSpace(dist, np.ones(3))
    part = di.BoundaryPartition([2], [0, 1], [1.0, 2.0])
    with pytest.raises(InputError):
        di.solve(space, part, 1.5)


def test_every_unreachable_interior_point_is_listed():
    # 0-1 boundary pair, 2-3 an interior pair cut off from it, 4 a lonely
    # interior point; 5 is interior but reaches the boundary through 1
    pos = np.array([0.0, 1.0, 10.0, 11.0, 20.0, 2.0])
    space = mm.FiniteMMSpace(np.abs(pos[:, None] - pos[None, :]), np.ones(6))
    part = di.BoundaryPartition([2, 3, 4, 5], [0, 1], [1.0, 2.0])
    with pytest.raises(di.DisconnectedInteriorError) as err:
        di.solve(space, part, 1.5)
    assert err.value.component == [2, 3, 4]


def test_partition_validation(line3):
    with pytest.raises(InputError):
        di.BoundaryPartition([0], [1], [1.0]).validate(line3)  # misses a point
    with pytest.raises(InputError):
        di.BoundaryPartition([0, 1, 2], [], []).validate(line3)  # no boundary
    with pytest.raises(InputError):
        di.BoundaryPartition([0, 1], [1, 2], [1.0, 2.0]).validate(line3)  # overlap


def test_cg_matches_dense():
    rng = np.random.default_rng(31)
    space, part, r = random_problem(rng, 40)
    dense, _ = di.solve(space, part, r, dense_cutoff=500)
    iterative, _ = di.solve(space, part, r, dense_cutoff=0)
    np.testing.assert_allclose(dense, iterative, atol=1e-10, rtol=1e-10)


def gauge_ball_problem(r, seed=4, res=12):
    """A full and a cut (at r) table of one H1 gauge-ball cloud, and the
    partition of its r-thick boundary layer carrying the field x1 - x2/2."""
    space = mo.CarnotSpace(ca.heisenberg(1), ca.Gauge("koranyi"))
    full, pts, _, gv = mo.carnot_ball_cloud(space, 1.0, res, seed)
    cut, _, _, _ = mo.carnot_ball_cloud(space, 1.0, res, seed, cut=r)
    field = ca.coordinate(3, 0) - 0.5 * ca.coordinate(3, 1)
    return full, cut, di.gauge_ball_partition(gv, 1.0, r, field.value(pts))


@pytest.mark.parametrize("cutoff", [0, 500], ids=["cg", "lu"])
def test_cut_and_full_tables_solve_alike(cutoff):
    full, cut, part = gauge_ball_problem(0.5)
    assert cut.cols is not None and full.cols is None
    u_full, _ = di.solve(full, part, 0.5, dense_cutoff=cutoff)
    u_cut, _ = di.solve(cut, part, 0.5, dense_cutoff=cutoff)
    assert np.max(np.abs(u_cut - u_full)) <= 1e-12 * np.max(np.abs(u_full))


def test_cut_and_full_tables_list_the_same_unreachable_points():
    # at r = 0.2 most points of the 12-cell cloud have no neighbour
    full, cut, part = gauge_ball_problem(0.2)
    lists = []
    for space in (full, cut):
        with pytest.raises(di.DisconnectedInteriorError) as err:
            di.solve(space, part, 0.2)
        lists.append(err.value.component)
    assert lists[0] == lists[1] and len(lists[0]) > 1


def test_bpz_demo_gaps_match_full_tables(monkeypatch):
    h1, gauge = ca.heisenberg(1), ca.Gauge("koranyi")
    field = ca.coordinate(3, 0) - 0.5 * ca.coordinate(3, 1)

    def run():
        return di.bpz_demo(h1, gauge, field, R=1.0, resolutions=[10, 12], radii=[0.6, 0.5], seed=2).values

    cut_gaps = run()
    seen = []

    def full_cloud(*args, cut=None, **kwargs):
        out = mo.carnot_ball_cloud(*args, **kwargs)
        seen.append(cut)
        return out

    monkeypatch.setattr(di, "carnot_ball_cloud", full_cloud)
    full_gaps = run()
    assert seen == [0.6, 0.5]  # bpz_demo asks for each level cut at its radius
    np.testing.assert_allclose(cut_gaps, full_gaps, rtol=1e-12, atol=0)


def test_cg_reports_iterations_and_refuses_breakdown(monkeypatch, caplog):
    full, _, part = gauge_ball_problem(0.5)
    with caplog.at_level(logging.DEBUG, logger="amvlab.dirichlet"):
        di.solve(full, part, 0.5, dense_cutoff=0)
    [msg] = [rec.getMessage() for rec in caplog.records if rec.name == "amvlab.dirichlet"]
    assert f"on {part.interior.size} interior points" in msg and msg.endswith("info 0")
    monkeypatch.setattr(di, "cg", lambda a, b, **kwargs: (np.zeros(b.size), -10))
    with pytest.raises(NumericError, match="info -10"):
        di.solve(full, part, 0.5, dense_cutoff=0)


def test_barrier_field_properties():
    h1 = ca.heisenberg(1)
    q = np.array([0.2, 0.1, 0.05])
    bar = di.bpz_barrier(h1, p0=np.zeros(3), R=1.0, phi_value_at_q=-1.0, q=q)
    # vanishes exactly where the horizontal offset reaches R
    assert bar.value(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0
    # horizontal Laplacian is (phi_q / 2) * 2 v1 / R^2 = -2
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(20, 3))
    np.testing.assert_allclose(ca.sub_laplacian(h1, bar, pts), -2.0, rtol=1e-12)
    # nonnegative on the closed gauge ball (koranyi)
    space = mo.CarnotSpace(h1, ca.Gauge("koranyi"))
    smp = space.sample_ball(np.zeros(3), 1.0, 50_000, SeedSpec(3).generator())
    assert bar.value(smp).min() >= 0.0
    # the prefactor-free factor is <= 0 there
    core = (bar.value(smp) / (-1.0 / 2.0)) * 1.0  # (|h|^2 - R^2)/R^2
    assert core.max() <= 0.0
    # full function at q is negative when phi(q) < 0: F(q) = phi(q) (|h|^2 + R^2)/(2 R^2)
    hq = float(np.sum(q[:2] ** 2))
    f_q = -1.0 + bar.value(q[None, :])[0]
    assert f_q == pytest.approx(-1.0 * (hq + 1.0) / 2.0, rel=1e-12)
    assert f_q < 0


def test_barrier_input_validation():
    h1 = ca.heisenberg(1)
    with pytest.raises(InputError):
        di.bpz_barrier(h1, np.zeros(3), 1.0, -1.0, q=np.array([2.0, 0.0, 0.0]))  # outside
    with pytest.raises(InputError):
        di.bpz_barrier(h1, np.zeros(3), 1.0, +1.0, q=np.array([0.2, 0.0, 0.0]))  # sign


def test_scaled_gauge_barrier_radius():
    """Barrier offsets use the group law: check via the demo partition that
    gauge values drive the boundary layer."""
    h1 = ca.heisenberg(1)
    space = mo.CarnotSpace(h1, ca.Gauge("koranyi"))
    cloud, pts, meta, gv = mo.carnot_ball_cloud(space, 1.0, 8, seed=1)
    part = di.gauge_ball_partition(gv, 1.0, 0.4, np.zeros(cloud.n))
    assert np.all(gv[part.boundary] >= 0.6)
    assert np.all(gv[part.interior] < 0.6)


@pytest.mark.slow
def test_bpz_demo_affine_and_controls():
    h1 = ca.heisenberg(1)
    gauge = ca.Gauge("koranyi")
    affine = ca.coordinate(3, 0) * 1.0 + ca.coordinate(3, 1) * (-0.5) + 0.3
    rep = di.bpz_demo(
        h1, gauge, affine, R=1.0, resolutions=[12, 16, 20], radii=[0.5, 0.44, 0.38],
        seed=2, tolerance=0.08,
    )
    assert rep.verdict == "pass"
    assert rep.metadata["monotone_decreasing"]
    # non-harmonic negative control stabilizes above a positive floor
    hsq = ca.horizontal_sqnorm(h1)
    control = di.bpz_demo(
        h1, gauge, hsq, R=1.0, resolutions=[12, 16], radii=[0.5, 0.44], seed=2, tolerance=0.08
    )
    assert control.verdict == "fail"
    assert min(control.values) > 0.2
    # constants are reproduced exactly
    const = ca.coordinate(3, 0) * 0.0 + 2.0
    exact = di.bpz_demo(h1, gauge, const, R=1.0, resolutions=[10], radii=[0.5], seed=2, tolerance=1e-10)
    assert exact.verdict == "pass"
