import hashlib
import logging
import math

import numpy as np
import pytest

from amvlab import _kernels
from amvlab import carnot as ca
from amvlab import integrate as it
from amvlab import mmspace as mm
from amvlab import models as mo
from amvlab.mmspace import InputError


def test_cone_distance_examples():
    plane = mo.FlatCone(2 * math.pi)
    assert plane.distance(np.array([1.0, 0.0]), np.array([1.0, math.pi])) == pytest.approx(2.0)
    cone = mo.FlatCone(math.pi / 2)
    assert cone.distance(np.array([0.0, 0.7]), np.array([0.9, 0.1])) == pytest.approx(0.9)
    d = cone.distance(np.array([1.0, 0.0]), np.array([1.0, 3 * math.pi / 8]))
    assert d == pytest.approx(math.sqrt(2 - 2 * math.cos(math.pi / 8)), rel=1e-12)


def test_cone_triangle_inequality_spot():
    cone = mo.FlatCone(2.2)
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(0, 2, 300), rng.uniform(0, 2.2, 300)], axis=1)
    a, b, c = pts[:100], pts[100:200], pts[200:]
    assert np.all(
        cone.distance(a, c) <= cone.distance(a, b) + cone.distance(b, c) + 1e-12
    )


def test_full_cone_is_plane():
    plane = mo.FlatCone(2 * math.pi)
    eu = mo.Euclidean(2)
    rng = np.random.default_rng(0)
    polar = np.stack([rng.uniform(0, 2, 2000), rng.uniform(0, 2 * math.pi, 2000)], axis=1)
    cart = np.stack([polar[:, 0] * np.cos(polar[:, 1]), polar[:, 0] * np.sin(polar[:, 1])], axis=1)
    d_cone = plane.distance(polar[:1000], polar[1000:])
    d_flat = eu.distance(cart[:1000], cart[1000:])
    assert np.max(np.abs(d_cone - d_flat)) < 1e-12
    # and theta_r is identically one (quadrature is exact off the apex)
    for rho in (0.5, 1.3):
        assert plane.theta_r(np.array([rho, 0.3]), 0.4) == pytest.approx(1.0, abs=1e-13)


def test_ball_volumes():
    eu = mo.Euclidean(2)
    assert eu.ball_volume(np.zeros(2), 1.0) == pytest.approx(math.pi)
    cone = mo.FlatCone(1.1)
    assert cone.ball_volume(np.array([0.0, 0.0]), 0.7) == pytest.approx(0.5 * 1.1 * 0.49)
    # free disk away from the apex
    v = mo.FlatCone(math.pi).ball_volume(np.array([1.0, 0.2]), 0.3)
    assert v == pytest.approx(math.pi * 0.09, rel=1e-13)


def test_cone_wrap_volume_against_mc():
    cone = mo.FlatCone(math.pi / 2)
    x = np.array([1.0, 0.3])
    r = 0.9
    v = cone.ball_volume(x, r)
    rng = np.random.default_rng(5)
    n = 200_000
    rho = np.sqrt(rng.uniform(0, 1.9**2, n))
    phi = rng.uniform(0, math.pi / 2, n)
    hits = cone.distance(np.stack([rho, phi], axis=1), x[None, :]) < r
    area = (math.pi / 2) * 0.5 * 1.9**2
    mc = area * hits.mean()
    sigma = area * math.sqrt(hits.mean() * (1 - hits.mean()) / n)
    assert abs(v - mc) < 3 * sigma


def test_cone_apex_ratio_constant():
    cone = mo.FlatCone(2.0)
    ratios = [cone.ball_volume(np.zeros(2), r) / (math.pi * r * r) for r in (0.1, 0.5, 2.0)]
    np.testing.assert_allclose(ratios, 2.0 / (2 * math.pi), rtol=1e-14)


def test_half_space():
    hs = mo.HalfSpace(2)
    assert hs.theta_r(np.array([0.0, 3.0]), 1.0) == pytest.approx(0.5)
    assert hs.theta_r(np.array([2.0, 0.0]), 1.0) == 1.0
    v = hs.ball_volume(np.array([0.5, 0.0]), 1.0)
    # area = pi - segment cut at distance 0.5
    seg = math.acos(0.5) - 0.5 * math.sqrt(0.75)
    assert v == pytest.approx(math.pi - seg, rel=1e-12)
    with pytest.raises(InputError):
        hs.theta_r(np.array([-0.1, 0.0]), 1.0)


def test_half_space_sampler_stays_inside():
    hs = mo.HalfSpace(3)
    rng = np.random.default_rng(7)
    pts = hs.sample_ball(np.array([0.2, 0.0, 0.0]), 1.0, 5000, rng)
    assert np.all(pts[:, 0] >= 0.0)
    assert np.all(np.sum((pts - np.array([0.2, 0.0, 0.0])) ** 2, axis=1) < 1.0)


def test_fill_by_rejection_keeps_first_n_in_draw_order():
    # a short batch, an empty one, then one with more than is still needed
    batches = iter([np.arange(3.0), np.arange(0.0), np.arange(10.0, 17.0)])
    needs = []

    def propose(need):
        needs.append(need)
        batch = next(batches)
        return np.stack([batch, -batch], axis=1)

    out = mo.fill_by_rejection(6, 2, propose)
    assert out[:, 0].tolist() == [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    assert out[:, 1].tolist() == [-v for v in out[:, 0]]
    assert needs == [6, 3, 3]


def test_cone_sampler_uniform():
    cone = mo.FlatCone(math.pi)
    rng = np.random.default_rng(11)
    x = np.array([0.8, 1.2])
    r = 0.5
    pts = cone.sample_ball(x, r, 40_000, rng)
    d = cone.distance(pts, x[None, :])
    assert np.all(d < r)
    # fraction inside half the radius tends to area ratio
    vol_half = cone.ball_volume(x, r / 2)
    vol_full = cone.ball_volume(x, r)
    frac = (d < r / 2).mean()
    assert abs(frac - vol_half / vol_full) < 3 * math.sqrt(0.25 / 40_000) + 0.005


@pytest.mark.parametrize("space", [mo.Euclidean(3), mo.HalfSpace(2), mo.FlatCone(1.9)], ids=lambda s: s.kind)
def test_theta_r_is_the_ball_volume_over_the_euclidean_one(space):
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.uniform(0.0, 1.8, size=space.dim)  # inside the cone's angle range too
        r = float(rng.uniform(0.05, 3.0))
        vol = space.ball_volume(x, r)
        assert space.theta_r(x, r) == vol / (mo.unit_ball_volume(space.dim) * r**space.dim)
    with pytest.raises(InputError, match="finite coordinates"):
        space.theta_r(np.full(space.dim, np.nan), 1.0)


def test_euclidean_theta_r_is_exactly_one():
    plane = mo.Euclidean(2)
    for r in (1e-3, 0.37, 1.0, 12.5):
        assert plane.theta_r(np.array([0.3, -4.0]), r) == 1.0


def test_theta_r_not_defined_on_carnot():
    cs = mo.CarnotSpace(ca.heisenberg(1), ca.Gauge("koranyi"))
    with pytest.raises(InputError):
        cs.theta_r(np.zeros(3), 1.0)


def test_carnot_sampler_translates_only_off_the_origin(monkeypatch):
    g = ca.heisenberg(1)
    cs = mo.CarnotSpace(g, ca.Gauge("koranyi"))
    multiply = ca.CarnotStep2.multiply
    calls = []
    monkeypatch.setattr(ca.CarnotStep2, "multiply", lambda self, x, y: calls.append(x) or multiply(self, x, y))
    z = cs.sample_ball(np.zeros(3), 0.5, 1000, np.random.default_rng(1))
    assert calls == []
    np.testing.assert_array_equal(z, multiply(g, np.zeros(3), z))
    x = np.array([0.3, -0.2, 0.1])
    zx = cs.sample_ball(x, 0.5, 1000, np.random.default_rng(1))
    assert len(calls) == 1
    np.testing.assert_array_equal(zx, multiply(g, x, z))
    # antithetic pairs and grid quadrature translate through the same method
    calls.clear()
    a, b = cs.antithetic(np.zeros(3))(z)
    grid = it.mean_over_ball(cs, lambda p: p[:, 0] + p[:, 2], np.zeros(3), 0.5, it.GridScheme(6))
    assert calls == []
    np.testing.assert_array_equal(a, z)
    np.testing.assert_array_equal(b, -z)
    ax, bx = cs.antithetic(x)(z)
    grid_x = it.mean_over_ball(cs, lambda p: p[:, 0] + p[:, 2], x, 0.5, it.GridScheme(6))
    assert len(calls) == 3
    np.testing.assert_array_equal(ax, multiply(g, x, z))
    np.testing.assert_array_equal(bx, multiply(g, x, -z))
    unit, weights = it.carnot_ball_quadrature(g, cs.gauge, 6)
    nodes = g.dilate(0.5, unit)
    pts = multiply(g, x, nodes)
    assert grid_x.value == float(np.sum(weights * (pts[:, 0] + pts[:, 2])) / np.sum(weights))
    pts = multiply(g, np.zeros(3), nodes)
    assert grid.value == float(np.sum(weights * (pts[:, 0] + pts[:, 2])) / np.sum(weights))


@pytest.mark.parametrize(
    "space, centre",
    [
        (mo.Euclidean(2), [math.nan, 0.0]),
        (mo.HalfSpace(2), [math.nan, 0.0]),
        (mo.HalfSpace(2), [1.0, math.inf]),
        (mo.FlatCone(4.5), [1.0, 20.0]),
        (mo.FlatCone(4.5), [1.0, 4.5]),
        (mo.FlatCone(4.5), [1.0, -0.1]),
        (mo.CarnotSpace(ca.heisenberg(1), ca.Gauge("koranyi")), [0.0, math.nan, 0.0]),
    ],
    ids=["euclid-nan", "half-nan", "half-inf", "cone-angle-high", "cone-angle-theta", "cone-angle-negative",
         "carnot-nan"],
)
def test_centre_outside_the_space_is_refused(space, centre):
    # the rejection samplers run the same centre check first; they are
    # exercised in test_cli, in a subprocess, because without the check
    # they never return
    with pytest.raises(InputError):
        space.ball_volume(centre, 0.4)
    if not isinstance(space, mo.FlatCone):
        with pytest.raises(InputError):
            space.translate(centre, np.zeros((1, space.dim)))


def test_carnot_ball_volume_exact_scaling():
    cs = mo.CarnotSpace(ca.heisenberg(1), ca.Gauge("koranyi"))
    v1 = cs.ball_volume(np.array([3.0, -1.0, 0.4]), 1.0)
    assert v1 == pytest.approx(math.pi**2 / 2, rel=1e-10)
    v2 = cs.ball_volume(np.zeros(3), 2.0)
    assert v2 == pytest.approx(v1 * 16.0, rel=1e-12)


def test_quartic_ball_volume_closed_form():
    h1 = ca.heisenberg(1)
    for gauge in (ca.Gauge("koranyi"), ca.Gauge("scaled_koranyi", 16.0)):
        vol = mo.CarnotSpace(h1, gauge).unit_ball_volume()
        _, weights = it.carnot_ball_quadrature(h1, gauge, res=48)
        assert vol == pytest.approx(np.sum(weights), rel=1e-12)
    h2 = mo.carnot_preset("heisenberg:2", "scaled", 16.0)
    vol = h2.ball_volume(np.zeros(5), 1.0)
    assert vol == pytest.approx(math.pi**2 / 6, rel=1e-14)
    est = it.carnot_ball_volume_mc(h2, np.zeros(5), 1.0, 400_000, it.SeedSpec(11))
    assert abs(est.value - vol) < 4 * est.std_error


def test_every_carnot_gauge_pairs_antithetically():
    """Both quartic gauges are even, on any bracket: each Carnot space pairs
    x·z with x·z⁻¹ = x·(-z), and z and -z lie at the same gauge."""
    b = np.random.default_rng(17).uniform(-1, 1, size=(2, 3, 3))
    spaces = [
        mo.carnot_preset("heisenberg:1", "koranyi"),
        mo.carnot_preset("heisenberg:2", "scaled", 16.0),
        mo.CarnotSpace(ca.CarnotStep2(3, 2, b - np.swapaxes(b, 1, 2)), ca.Gauge("koranyi")),
    ]
    rng = np.random.default_rng(4)
    for space in spaces:
        g = space.group
        x = rng.uniform(-1, 1, g.dim)
        z = space.sample_ball(np.zeros(g.dim), 0.6, 500, rng)
        np.testing.assert_array_equal(space.gauge.value(g, -z), space.gauge.value(g, z))
        a, b_ = space.antithetic(x)(z)
        np.testing.assert_array_equal(a, g.multiply(x, z))
        np.testing.assert_array_equal(b_, g.multiply(x, -z))


def test_gauge_power_is_the_gauge_to_that_power():
    rng = np.random.default_rng(8)
    for group, gauge in ((ca.heisenberg(1), ca.Gauge("koranyi")),
                         (ca.heisenberg(2), ca.Gauge("scaled_koranyi", 16.0))):
        pts = rng.uniform(-2, 2, (200, group.dim))
        for power in (1.0, 3.0, -2.0):
            got = ca.gauge_power(group, gauge, power)(pts)
            np.testing.assert_allclose(got, gauge.value(group, pts) ** power, rtol=1e-12)


def test_mm_boundary_masses():
    eu = mo.Euclidean(2)
    assert mo.mm_boundary_mass(eu, mo.Region.ball([0, 0], 1.0), 0.3) == 0.0
    hs = mo.HalfSpace(2)
    kappa = 2.0 / (3.0 * math.pi)
    box = mo.Region.box([0.0, 0.0], [1.0, 1.0])
    for r in (0.5, 0.1):
        assert mo.mm_boundary_mass(hs, box, r) == pytest.approx(kappa, rel=1e-10)
    ball = mo.Region.ball([0.0, 0.0], 1.0)
    val = mo.mm_boundary_mass(hs, ball, 0.05)
    assert val == pytest.approx(2 * kappa, rel=2e-2)
    cone = mo.FlatCone(math.pi)
    m1 = mo.mm_boundary_mass(cone, mo.Region.ball([0.0, 0.0], 1.0), 0.2)
    m2 = mo.mm_boundary_mass(cone, mo.Region.ball([0.0, 0.0], 1.0), 0.02)
    assert m2 == pytest.approx(0.1 * m1, rel=1e-6)


def test_parse_space():
    assert isinstance(mo.parse_space("euclidean:3"), mo.Euclidean)
    assert isinstance(mo.parse_space("half:2"), mo.HalfSpace)
    assert isinstance(mo.parse_space("cone:3.14"), mo.FlatCone)
    cs = mo.parse_space("carnot:heisenberg:2:scaled:16")
    assert isinstance(cs, mo.CarnotSpace) and cs.group.v1 == 4 and cs.gauge.beta == 16.0
    for bad in ("euclidean", "cone:7.0", "carnot:foo:1:koranyi", "nope:1", "carnot:heisenberg:x:koranyi",
                "carnot:heisenberg:1:scaled", "carnot:heisenberg:1:koranyi:3"):
        with pytest.raises(InputError):
            mo.parse_space(bad)


def test_parse_region():
    r = mo.parse_region("ball:0.5,0.5:2.0")
    assert r.kind == "ball" and r.radius == 2.0
    b = mo.parse_region("box:0,0:1,2")
    assert b.kind == "box" and b.hi.tolist() == [1.0, 2.0]
    assert mo.unit_region(mo.HalfSpace(2)).spec() == "box:0.0,0.0:1.0,1.0"
    assert mo.unit_region(mo.FlatCone(1.5)).spec() == "ball:0.0,0.0:1.0"
    with pytest.raises(InputError, match="no default region for the carnot kind"):
        mo.unit_region(mo.parse_space("carnot:heisenberg:1:koranyi"))
    for bad in ("unit", "triangle:1", "box:0,1:1,0", "box:0,0:-1,1", "box:0:1,1", "box:0,0:1,inf", "ball:0,0:-1",
                "ball:0,0:0", "ball:0,0:nan"):
        with pytest.raises(InputError):
            mo.parse_region(bad)


def test_clouds_have_exact_masses_and_margins():
    eu = mo.Euclidean(2)
    cloud, pts, meta = mo.euclidean_cloud(eu, [-1.0, -1.0], [1.0, 1.0], 16, seed=4)
    assert cloud.n == 256
    assert cloud.total_mass() == pytest.approx(4.0, rel=1e-12)
    assert np.all(meta.boundary_distance(pts) >= 0.0)
    cone = mo.FlatCone(2.0)
    ccloud, cpts, cmeta = mo.cone_cloud(cone, 1.0, 10, 20, seed=5)
    assert ccloud.total_mass() == pytest.approx(0.5 * 2.0 * 1.0**2, rel=1e-12)
    hs = mo.HalfSpace(2)
    hcloud, hpts, hmeta = mo.half_space_cloud(hs, [1.0, 1.0], [8, 8], seed=6, lo=[0.0, -1.0])
    assert np.all(hpts[:, 0] >= 0)
    # only lateral/top faces count as artificial boundary
    low_point = np.array([[0.01, 0.0]])
    assert hmeta.boundary_distance(low_point)[0] == pytest.approx(0.99)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_canned_cloud_bits_are_pinned():
    # The cone and gauge-ball clouds feed weak-cone and dirichlet-bpz, whose
    # expected results depend on every point; the hashes pin the draw order
    # of the seeded stream and the arithmetic of the builds.
    _, pts, meta = mo.cone_cloud(mo.FlatCone(4.5), 1.0, 4, 6, seed=5)
    cloud, _, _ = mo.cone_cloud(mo.FlatCone(4.5), 1.0, 4, 6, seed=5, cut=0.5)
    assert pts.shape == (24, 2) and meta.cell_size == 0.75
    assert pts[0].tolist() == [0.22430488789610953, 0.306354904064999]
    assert pts[-1].tolist() == [0.9550057734361458, 3.9271455962968975]
    assert _sha256(pts, cloud.mass) == "88cf17aa5f5d8916dd35c18237f6ead3a35c4258421f17c1cd17cdc2be175f41"
    space = mo.carnot_preset("heisenberg:1", "koranyi")
    for cut in (None, 0.6):
        cloud, pts, meta, gauge_vals = mo.carnot_ball_cloud(space, 1.0, 6, seed=3, cut=cut)
        assert pts.shape == (140, 3) and cloud.cut == (cut or math.inf) and meta.cell_size == 1 / 3
        assert pts[0].tolist() == [-0.6755132417445291, -0.5671995923277082, -0.5620046659885545]
        assert gauge_vals[0] == 0.9796856830151142 and cloud.mass[0] == 1 / 27
        assert _sha256(pts, cloud.mass, gauge_vals) == (
            "32fae13b04c9ba969aa58e8f9a40e145f85f8ac6bb947cddc232be3e7e0b3a6e"
        )


@pytest.mark.parametrize("theta", [1.9, 4.5, 2 * math.pi])
@pytest.mark.parametrize("rho_max, n_rho, n_phi", [(1.0, 5, 8), (1.4, 24, 48), (2.0, 7, 3)])
def test_cone_cloud_is_the_ring_loop(theta, rho_max, n_rho, n_phi):
    # reference: ring by ring, n_phi radial then n_phi angular jitters; the
    # one-draw build must match it bit for bit
    rng = np.random.default_rng(11)
    rho_edges = np.linspace(0.0, rho_max, n_rho + 1)
    phi_edges = np.linspace(0.0, theta, n_phi + 1)
    pts, masses = [], []
    for r0, r1 in zip(rho_edges[:-1], rho_edges[1:]):
        rho = np.sqrt(r0 * r0 + rng.random(n_phi) * (r1 * r1 - r0 * r0))
        phi = phi_edges[:-1] + rng.random(n_phi) * (phi_edges[1] - phi_edges[0])
        pts.append(np.stack([rho, phi], axis=1))
        masses.append(np.full(n_phi, 0.5 * (r1 * r1 - r0 * r0) * (phi_edges[1] - phi_edges[0])))
    cloud, got, _ = mo.cone_cloud(mo.FlatCone(theta), rho_max, n_rho, n_phi, seed=11)
    assert got.tobytes() == np.concatenate(pts).tobytes()
    assert cloud.mass.tobytes() == np.concatenate(masses).tobytes()


# small clouds of every kind, each with a cut below its diameter: (cut, build(seed, cut))
CUT_CLOUDS = {
    "euclidean": (0.5, lambda seed, cut: mo.euclidean_cloud(
        mo.Euclidean(2), [-1.0, -1.0], [1.0, 1.0], 14, seed, cut=cut)[0]),
    "half": (0.45, lambda seed, cut: mo.half_space_cloud(
        mo.HalfSpace(2), [1.0, 1.0], [7, 14], seed, lo=[0.0, -1.0], cut=cut)[0]),
    "cone": (0.4, lambda seed, cut: mo.cone_cloud(mo.FlatCone(4.5), 1.0, 7, 14, seed, cut=cut)[0]),
    "carnot": (0.6, lambda seed, cut: mo.carnot_ball_cloud(
        mo.CarnotSpace(ca.heisenberg(1), ca.Gauge("koranyi")), 1.0, 7, seed, cut=cut)[0]),
}


@pytest.mark.parametrize("kind", sorted(CUT_CLOUDS))
def test_cut_table_agrees_with_the_full_one(kind):
    cut, build = CUT_CLOUDS[kind]
    for seed in (1, 2):
        table, full = build(seed, cut), build(seed, None)
        assert full.cols is None and table.cut == cut and table.dist.size < table.n**2
        # exactly the kernel's distances <= cut, every other pair absent
        assert np.array_equal(table.as_matrix(table.dist, fill=np.inf),
                              np.where(full.dist <= cut, full.dist, np.inf))
        u, v = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, table.n))
        # every order of reuse: shrink, grow after a shrink, repeat, back to the cut
        for r in (cut, 0.5 * cut, 0.7 * cut, 0.7 * cut, cut, 0.31 * cut):
            ops = {
                "ball_masses": lambda s: mm.ball_masses(s, r),
                "average": lambda s: mm.average(s, u, r),
                "adjoint_average": lambda s: mm.adjoint_average(s, u, r),
                "sym_r_laplacian": lambda s: mm.sym_r_laplacian(s, u, r),
                "energy_density": lambda s: mm.energy_density(s, u, v, r),
                "kernel_matrix": lambda s: mm.kernel_matrix(s, r, rows=[0, 5, table.n - 1]),
            }
            for name, op in ops.items():
                got, want = op(table), op(full)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (name, r)
            for x in (0, table.n // 2):
                assert np.array_equal(mm.ball(table, x, r)[0], mm.ball(full, x, r)[0])
            # a full table is never compacted, nor a cut table at its cut
            assert full._balls(r).dist is full.dist and full._balls(r).cols is None
            balls = table._balls(r)
            assert (balls.dist is table.dist) == (r == cut)
            assert np.all(balls.dist < r) or r == cut
            assert balls.offsets[-1] == balls.dist.size == balls.cols.size


# the residuals at the cut and at 0.6 cut, to their bits: a stacked operator
# pass must sum every field as its own pass does
CUT_RESIDUALS = {
    "carnot": [
        {
            "green": 0.0,
            "symmetrization": 1.746899752201069e-16,
            "product_rule": 2.347768568380331e-16,
            "energy_pairing": 7.255791822230262e-18,
            "sym_self_adjoint": 7.25192228040301e-18,
            "deviation": 7.25192228040301e-18,
            "kernel_symmetry": 0.0,
            "kernel_support": 0.0,
            "constant_kill": 4.018906876471155e-16,
            "adjoint_constant": 9.720385049507108e-16,
        },
        {
            "green": 5.196704336681169e-18,
            "symmetrization": 9.143497324000762e-17,
            "product_rule": 2.415935653675791e-16,
            "energy_pairing": 1.3024015395007068e-18,
            "sym_self_adjoint": 1.7365042051864935e-18,
            "deviation": 2.170630256483117e-19,
            "kernel_symmetry": 0.0,
            "kernel_support": 0.0,
            "constant_kill": 1.20965681480187e-16,
            "adjoint_constant": 1.4790293368999845e-15,
        },
    ],
    "cone": [
        {
            "green": 3.637455374391202e-18,
            "symmetrization": 8.127771380445114e-17,
            "product_rule": 1.94829864294629e-16,
            "energy_pairing": 1.8297938622011615e-18,
            "sym_self_adjoint": 4.8738357782360706e-18,
            "deviation": 3.046147361397544e-18,
            "kernel_symmetry": 0.0,
            "kernel_support": 0.0,
            "constant_kill": 3.5338663913798085e-16,
            "adjoint_constant": 1.665479236757519e-15,
        },
        {
            "green": 0.0,
            "symmetrization": 6.807435595565557e-17,
            "product_rule": 1.6062305694625936e-16,
            "energy_pairing": 2.6383511250058686e-18,
            "sym_self_adjoint": 1.7567778733664555e-18,
            "deviation": 1.7567778733664555e-18,
            "kernel_symmetry": 0.0,
            "kernel_support": 0.0,
            "constant_kill": 3.8760259209536485e-16,
            "adjoint_constant": 3.244409351782085e-15,
        },
    ],
    "euclidean": [
        {
            "green": 6.0559607944523315e-18,
            "symmetrization": 1.2125479054277353e-16,
            "product_rule": 1.6400562411852771e-16,
            "energy_pairing": 3.0142859800561408e-18,
            "sym_self_adjoint": 1.0048772247037022e-18,
            "deviation": 1.0048772247037022e-18,
            "kernel_symmetry": 0.0,
            "kernel_support": 0.0,
            "constant_kill": 3.2794280112004626e-16,
            "adjoint_constant": 1.834304843229411e-15,
        },
        {
            "green": 4.361123687288536e-18,
            "symmetrization": 8.457610321790204e-17,
            "product_rule": 1.6453231791638809e-16,
            "energy_pairing": 4.343405296919422e-18,
            "sym_self_adjoint": 2.897042281818996e-18,
            "deviation": 2.1727817113642473e-18,
            "kernel_symmetry": 0.0,
            "kernel_support": 0.0,
            "constant_kill": 1.2536039798166906e-16,
            "adjoint_constant": 3.056213218303523e-15,
        },
    ],
    "half": [
        {
            "green": 0.0,
            "symmetrization": 1.0288861382853956e-16,
            "product_rule": 1.6995174259101762e-16,
            "energy_pairing": 5.190067925407956e-18,
            "sym_self_adjoint": 1.7287156607495648e-18,
            "deviation": 9.724025591716302e-18,
            "kernel_symmetry": 0.0,
            "kernel_support": 0.0,
            "constant_kill": 3.408968826611707e-16,
            "adjoint_constant": 1.4519365289697852e-15,
        },
        {
            "green": 0.0,
            "symmetrization": 1.1979267421338233e-16,
            "product_rule": 1.7018468734441563e-16,
            "energy_pairing": 1.883241668841612e-18,
            "sym_self_adjoint": 0.0,
            "deviation": 2.507290744773046e-18,
            "kernel_symmetry": 0.0,
            "kernel_support": 0.0,
            "constant_kill": 1.273584060024413e-16,
            "adjoint_constant": 1.9549424290063056e-15,
        },
    ],
}


@pytest.mark.parametrize("kind", sorted(CUT_CLOUDS))
def test_identities_hold_on_a_cut_cloud(kind):
    cut, build = CUT_CLOUDS[kind]
    table = build(4, cut)
    u, v = np.random.default_rng(4).uniform(-3.0, 3.0, size=(2, table.n))
    for r, want in zip((cut, 0.6 * cut), CUT_RESIDUALS[kind], strict=True):
        res = mm.identity_residuals(table, u, v, r)
        assert max(res.values()) < 1e-12, res
        assert res == want


def test_radius_above_the_cut_is_refused():
    cut, build = CUT_CLOUDS["euclidean"]
    table = build(3, cut)
    u = np.ones(table.n)
    above = np.nextafter(cut, np.inf)
    for call in (
        lambda: mm.average(table, u, above),
        lambda: mm.sym_r_laplacian(table, u, 2 * cut),
        lambda: mm.ball(table, 0, above),
        lambda: mm.is_collision_radius(table, above),
        lambda: mm.kernel_matrix(table, above, rows=[0]),
    ):
        with pytest.raises(InputError, match="above the cut"):
            call()
    np.testing.assert_array_equal(mm.average(table, u, cut), u)  # the cut itself is a radius
    with pytest.raises(InputError, match="no file form"):
        mm.space_to_text(table)


@pytest.mark.parametrize("spec, r, match", [
    # a small beta overflows the second-layer half-width r^2/sqrt(beta)
    # while r^2 itself is finite
    ("carnot:heisenberg:1:scaled:1e-12", 1e153, "gauge-ball envelope overflows"),
    # the envelope is finite, but |z1|^4 overflows from about 1e77
    ("carnot:heisenberg:1:koranyi", 1e100, "the radius 1e\\+100 is too large: its gauge overflows"),
    # r^2 = 1e-320 is subnormal: the second-layer half-width has lost its digits
    ("carnot:heisenberg:1:koranyi", 1e-160, "the radius 1e-160 is too small: its gauge-ball envelope underflows"),
])
def test_carnot_sampler_refuses_an_overflowing_envelope(spec, r, match):
    space = mo.parse_space(spec)
    with pytest.raises(mo.NumericError, match=match):
        space.sample_ball(np.zeros(3), r, 10, np.random.default_rng(0))
    assert space.sample_ball(np.zeros(3), 1e70, 10, np.random.default_rng(0)).shape == (10, 3)


def _cloud(space, build, cut):
    fms, pts = build(space)[:2]
    return space, pts, fms.mass, cut


# every cloud kind, the second-layer shapes of heisenberg:2 and beta = 16, and
# the widest and a thin cone: (space, points, masses, cut)
BAND_CLOUDS = {
    "euclidean": lambda: _cloud(mo.Euclidean(2), lambda s: mo.euclidean_cloud(s, [-1.0, -1.0], [1.0, 1.0], 14, 5),
                                0.5),
    "half": lambda: _cloud(mo.HalfSpace(2), lambda s: mo.half_space_cloud(s, [1.0, 1.0], [7, 14], 5,
                                                                          lo=[0.0, -1.0]), 0.45),
    "cone": lambda: _cloud(mo.FlatCone(4.5), lambda s: mo.cone_cloud(s, 1.0, 7, 14, 5), 0.4),
    "cone-plane": lambda: _cloud(mo.FlatCone(2 * math.pi), lambda s: mo.cone_cloud(s, 1.0, 7, 14, 5), 0.4),
    "cone-thin": lambda: _cloud(mo.FlatCone(0.5), lambda s: mo.cone_cloud(s, 1.0, 14, 7, 5), 0.3),
    "carnot": lambda: _cloud(mo.CarnotSpace(ca.heisenberg(1), ca.Gauge("koranyi")),
                             lambda s: mo.carnot_ball_cloud(s, 1.0, 7, 5), 0.6),
    "heisenberg2": lambda: _cloud(mo.carnot_preset("heisenberg:2", "koranyi"),
                                  lambda s: mo.carnot_ball_cloud(s, 1.0, 4, 5), 0.7),
    "scaled16": lambda: _cloud(mo.carnot_preset("heisenberg:1", "scaled", 16.0),
                               lambda s: mo.carnot_ball_cloud(s, 1.0, 7, 5), 0.6),
}


@pytest.mark.parametrize("kind", sorted(BAND_CLOUDS))
def test_band_table_is_the_filtered_full_matrix(kind, monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 1 << 10)  # many row blocks on a small cloud
    space, pts, mass, cut = BAND_CLOUDS[kind]()
    perm = np.random.default_rng(7).permutation(pts.shape[0])
    for p, m in ((pts, mass), (pts[perm], mass[perm])):  # the builder's order and a random one
        full = space.distance_matrix(p)
        assert np.any(full > cut)
        one, two = (mo._cloud_space(space, p, m, threads, cut) for threads in (1, 2))
        assert all(getattr(one, a).tobytes() == getattr(two, a).tobytes() for a in ("dist", "cols", "offsets"))
        # the full form, filled block by block, holds the kernel's matrix at any width
        assert [mo._cloud_space(space, p, m, threads).dist.tobytes() for threads in (1, 2)] == [full.tobytes()] * 2
        assert np.array_equal(one.as_matrix(one.dist, fill=np.inf), np.where(full <= cut, full, np.inf))
        assert one.dist.size == np.count_nonzero(full <= cut)  # no padding


@pytest.mark.parametrize("space, pts", [
    (mo.Euclidean(2), [[0.0, 0.0], [0.5, 0.0], [0.2, 0.3]]),
    (mo.FlatCone(4.5), [[0.3, 1.0], [0.8, 1.0], [0.5, 2.0]]),
    (mo.CarnotSpace(ca.heisenberg(1), ca.Gauge("koranyi")), [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.1, 0.2, 0.3]]),
], ids=["euclidean", "cone", "carnot"])
def test_points_exactly_cut_apart_stay_in_the_table(space, pts, monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 1)  # a block per row: each band is one point's
    pts = np.array(pts)
    cut = float(space.distance_matrix(pts)[0, 1])  # the first coordinates are about cut apart too
    table = mo._cloud_space(space, pts, np.ones(3), 1, cut)
    row0, row1 = slice(*table.offsets[:2]), slice(*table.offsets[1:3])
    assert 1 in table.cols[row0][table.dist[row0] == cut] and 0 in table.cols[row1][table.dist[row1] == cut]


def test_cut_build_and_ball_compaction_log_their_pairs(caplog):
    cut, build = CUT_CLOUDS["euclidean"]
    with caplog.at_level(logging.DEBUG, logger="amvlab"):
        table = build(1, cut)
        mm.ball_masses(table, 0.5 * cut)
    [built] = [rec.getMessage() for rec in caplog.records if rec.name == "amvlab.models"]
    [compacted] = [rec.getMessage() for rec in caplog.records if rec.name == "amvlab.mmspace"]
    rows, balls = np.diff(table.offsets), table._balls(0.5 * cut)
    assert built.startswith(f"cut table of n={table.n} at cut {cut!r}: kernel on ")
    assert built.endswith(f" of the n^2 pairs, {table.dist.size} entries, mean row {rows.mean():.1f}, "
                          f"widest {rows.max()}")
    assert 0 < float(built.split("kernel on ")[1].split()[0]) <= 1
    ball_rows = np.diff(balls.offsets)
    assert compacted == (f"ball table at radius {0.5 * cut!r}: {table.dist.size} -> {balls.dist.size} entries, "
                         f"mean row {ball_rows.mean():.1f}, widest {ball_rows.max()}")
