import json
import logging
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats

from amvlab import carnot as ca
from amvlab import experiments as ex
from amvlab import integrate as it
from amvlab import models as mo
from amvlab.fields import Monomial, ShiftedSquareNorm
from amvlab.mmspace import InputError


@pytest.fixture(scope="module")
def h1():
    return ca.heisenberg(1)


@pytest.fixture(scope="module")
def koranyi():
    return ca.Gauge("koranyi")


@pytest.mark.parametrize("res", [1, 2, 5, 8])
def test_grid_guard_counts_the_nodes_the_rule_builds(monkeypatch, h1, koranyi, res):
    # the memory guard sizes a rule from res and the layer dimensions alone;
    # its node count must be the one the rule then builds
    sizes = []
    monkeypatch.setattr(it, "check_memory", lambda size, owner, table: sizes.append(size))
    for n in (1, 2, 3):
        nodes, w = it.euclid_ball_quadrature(n, res)
        assert sizes[-1] == it._GRID_BYTES * (n + 1) * w.size and nodes.shape == (w.size, n)
    b = np.random.default_rng(1).standard_normal((2, 3, 3))
    for group in (h1, ca.CarnotStep2(3, 2, b - b.swapaxes(1, 2)), ca.CarnotStep2(1, 3, np.zeros((3, 1, 1)))):
        sizes.clear()
        nodes, w = it.carnot_ball_quadrature(group, koranyi, res)
        assert sizes[0] == it._GRID_BYTES * (group.dim + 1) * w.size and nodes.shape == (w.size, group.dim)


def test_euclid_ball_quadrature_volume_and_moments():
    for n in (1, 2, 3):
        nodes, w = it.euclid_ball_quadrature(n, res=8)
        assert np.sum(w) == pytest.approx(mo.unit_ball_volume(n), rel=1e-13)
        assert np.all(np.sum(nodes * nodes, axis=1) < 1.0)
        # second moment of the first coordinate: vol/(n+2)
        m2 = np.sum(w * nodes[:, 0] ** 2)
        assert m2 == pytest.approx(np.sum(w) / (n + 2), rel=1e-12)
    with pytest.raises(it.GridUnavailable):
        it.euclid_ball_quadrature(4, 8)


def test_carnot_ball_quadrature_volume(h1, koranyi):
    nodes, w = it.carnot_ball_quadrature(h1, koranyi, res=24)
    assert np.sum(w) == pytest.approx(math.pi**2 / 2, rel=1e-12)
    vals = koranyi.value(h1, nodes)
    assert np.all(vals < 1.0)


def _reference_euclid_rule(n, r, res):
    """The r-scaled Euclidean product rule the unit rule replaced."""
    x, wx = it._special.roots_jacobi(max(2, res), 0.0, float(n - 1))
    t, wt = 0.5 * (x + 1.0), wx / 2.0**n
    omega, womega = it._sphere_rule(n, res)
    nodes = (r * t)[:, None, None] * omega[None, :, :]
    weights = (np.float64(r) ** n * wt)[:, None] * womega[None, :]
    return nodes.reshape(-1, n), weights.reshape(-1)


def _reference_carnot_rule(group, gauge, r, res):
    """The slice-loop gauge-ball rule over B_r(0) the unit rule replaced."""
    v1, v2 = group.v1, group.v2
    w_max = r * r / math.sqrt(gauge.beta)
    psi, wpsi = np.polynomial.legendre.leggauss(max(4, res))
    psi = 0.25 * math.pi * (psi + 1.0)
    wpsi = 0.25 * math.pi * wpsi
    omega, womega = it._sphere_rule(v2, res)
    nodes_out, weights_out = [], []
    for i in range(psi.size):
        s, c = math.sin(psi[i]), math.cos(psi[i])
        w = w_max * s
        nodes1, w1 = _reference_euclid_rule(v1, r * math.sqrt(c), res)
        radial_w = wpsi[i] * (w ** (v2 - 1)) * (w_max * c)
        for j in range(omega.shape[0]):
            block = np.empty((nodes1.shape[0], group.dim))
            block[:, :v1] = nodes1
            block[:, v1:] = w * omega[j]
            nodes_out.append(block)
            weights_out.append(radial_w * womega[j] * w1)
    return np.concatenate(nodes_out, axis=0), np.concatenate(weights_out)


# (3, 3) at res 14 would hold 32M nodes, about 1.8 GB per rule
@pytest.mark.parametrize("v1, v2, res", [
    (v1, v2, res) for v1, v2 in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 3)] for res in (1, 4, 14)
    if (v1, v2, res) != (3, 3, 14)
])
@pytest.mark.parametrize("beta", [1.0, 16.0, 0.37])
def test_unit_rules_dilate_to_the_radius_rules(v1, v2, beta, res):
    # the unit rules dilated to r hold the r-ball rules' nodes, in their
    # order, and the same weights up to the r^n or r^Q the mean cancels
    b = np.random.default_rng(v1 + v2).standard_normal((v2, v1, v1))
    group = ca.CarnotStep2(v1, v2, b - b.swapaxes(1, 2))
    gauge = ca.Gauge("scaled_koranyi", beta)
    for r in (0.4, 1.0, 3.7):
        for (unit, w), (ref, ref_w) in [
            (it.euclid_ball_quadrature(v1, res), _reference_euclid_rule(v1, r, res)),
            (it.carnot_ball_quadrature(group, gauge, res), _reference_carnot_rule(group, gauge, r, res)),
        ]:
            nodes = group.dilate(r, unit) if unit.shape[1] == group.dim else r * unit
            assert nodes.shape == ref.shape and w.shape == ref_w.shape
            np.testing.assert_allclose(nodes, ref, rtol=1e-15, atol=0)
            np.testing.assert_allclose(w / np.sum(w), ref_w / np.sum(ref_w), rtol=1e-14, atol=0)


def test_carnot_quadrature_hsq_moment(h1, koranyi):
    nodes, w = it.carnot_ball_quadrature(h1, koranyi, res=24)
    m = np.sum(w * np.sum(nodes[:, :2] ** 2, axis=1)) / np.sum(w)
    assert m == pytest.approx(4 / (3 * math.pi), rel=1e-12)


def test_grid_unavailable_cases():
    big = ca.heisenberg(2)  # v1 = 4
    with pytest.raises(it.GridUnavailable):
        it.carnot_ball_quadrature(big, ca.Gauge("koranyi"), 8)


def test_sample_ball_determinism_and_uniformity():
    eu = mo.Euclidean(2)
    a = eu.sample_ball(np.zeros(2), 1.0, 50_000, it.SeedSpec(42).generator())
    b = eu.sample_ball(np.zeros(2), 1.0, 50_000, it.SeedSpec(42).generator())
    assert np.array_equal(a, b)
    c = eu.sample_ball(np.zeros(2), 1.0, 50_000, it.SeedSpec(42, stream=1).generator())
    assert not np.array_equal(a, c)
    frac = float((np.sum(a * a, axis=1) < 0.25).mean())
    assert abs(frac - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 50_000)


def test_sampler_guard_refuses_a_gauge_that_rejects_every_draw(h1, koranyi, monkeypatch):
    # the acceptance-rate guard bounds fill_by_rejection's loop: a gauge
    # check that fails on every exact draw raises instead of hanging (the
    # gauge stays finite, so the overflow refusal before the loop passes)
    space = mo.CarnotSpace(h1, koranyi)
    monkeypatch.setattr(koranyi, "value", lambda group, pts: np.full(pts.shape[:-1], 1e300))
    with pytest.raises(mo.NumericError, match="acceptance rate 0.00e\\+00 < 1e-3 at radius 1.0"):
        space.sample_ball(np.zeros(3), 1.0, 50_000, it.SeedSpec(0).generator())


def _random_3_2_space():
    b = np.random.default_rng(17).uniform(-1, 1, size=(2, 3, 3))
    return mo.CarnotSpace(ca.CarnotStep2(3, 2, b - np.swapaxes(b, 1, 2)), ca.Gauge("koranyi"))


QUARTIC_SPACES = {
    "h1": lambda: mo.carnot_preset("heisenberg:1", "koranyi"),
    "h2-scaled16": lambda: mo.carnot_preset("heisenberg:2", "scaled", 16.0),
    "random-3-2": _random_3_2_space,
    # v1 = 1: the squared length A^2 of the sampler is its chi^2(1/2) draw alone
    "v1-1-v2-3": lambda: mo.CarnotSpace(ca.CarnotStep2(1, 3, np.zeros((3, 1, 1))), ca.Gauge("koranyi")),
}


@pytest.mark.parametrize("r", [0.7, 1.3e-81, 1e-100], ids=["r0.7", "r1.3e-81", "r1e-100"])
@pytest.mark.parametrize("name", QUARTIC_SPACES)
def test_quartic_sampler_draws_the_uniform_ball(name, r):
    space = QUARTIC_SPACES[name]()
    g, n = space.group, 40_000
    z = space.sample_ball(np.zeros(g.dim), r, n, it.SeedSpec(31).generator())
    if r != 1.3e-81:
        # at r = 1.3e-81, r^4 is subnormal: the computed gauge of a draw near
        # the sphere can round up to r, so only the unit-scale check below holds
        assert np.all(space.gauge.value(g, z) < r)
    # checked at unit scale: at r = 1e-100 the gauge of a draw underflows to 0
    unit = g.dilate(1.0 / r, z)
    gauge = space.gauge.value(g, unit)
    assert np.all(gauge < 1.0)
    # vol(B_s) = s^Q vol(B_1), so gauge^Q is Uniform(0, 1)
    assert stats.kstest(gauge**g.homogeneous_dim, "uniform").pvalue > 1e-3
    z1 = unit[:, : g.v1]
    sq = np.sum(z1 * z1, axis=1)
    assert abs(sq.mean() - 2 * g.v1 * space.mean_value_constant()) < 4 * sq.std() / math.sqrt(n)
    # the horizontal direction is isotropic: E[d] = 0 and E[d d^T] = I / v1
    d = z1[sq > 0] / np.sqrt(sq[sq > 0])[:, None]
    outer = (d[:, :, None] * d[:, None, :]).reshape(d.shape[0], -1)
    for vals, want in ((d, 0.0), (outer, np.eye(g.v1).ravel() / g.v1)):
        # <=: for v1 = 1, d d^T is exactly 1 on every draw, with no spread
        assert np.all(np.abs(vals.mean(axis=0) - want) <= 4 * vals.std(axis=0) / math.sqrt(d.shape[0]))


def test_carnot_sampler_logs_its_proposal(h1, koranyi, caplog):
    with caplog.at_level(logging.DEBUG, logger="amvlab.models"):
        mo.CarnotSpace(h1, koranyi).sample_ball(np.zeros(3), 1.0, 1000, it.SeedSpec(2).generator())
    assert [rec.getMessage() for rec in caplog.records if rec.name == "amvlab.models"] == [
        "gauge-ball sampling, exact proposal: kept 1000 of 1000 draws"
    ]


def test_mc_working_set_is_one_batch(monkeypatch):
    # mc:n far above the batch size: every draw call stays within one batch,
    # and a rerun gives the same bits
    space = mo.carnot_preset("heisenberg:1", "koranyi")
    asked = []
    sample = space.sample_ball

    def recording(x, r, m, rng):
        asked.append(m)
        return sample(x, r, m, rng)

    monkeypatch.setattr(space, "sample_ball", recording)
    n = 3 * it._BATCH + 17
    hsq = ca.horizontal_sqnorm(space.group)
    runs = [it.mean_over_ball(space, hsq, np.zeros(3), 0.8, it.MCScheme(n, it.SeedSpec(4))) for _ in range(2)]
    assert max(asked) == it._BATCH and sum(asked) == 2 * n
    assert runs[0] == runs[1]
    assert abs(runs[0].value - 0.64 * 4 / (3 * math.pi)) < 4 * runs[0].std_error


def test_mean_over_ball_euclidean():
    eu = mo.Euclidean(3)
    x = np.array([0.2, -0.4, 1.0])
    shifted = ShiftedSquareNorm(3, 0, 3, center=x)
    for r in (0.5, 1.25):
        est = it.mean_over_ball(eu, shifted, x, r, it.GridScheme(8))
        assert est.value == pytest.approx(r**2 * 3 / 5, rel=1e-12)
        assert est.std_error == 0.0 and est.method == "grid"
    mc = it.mean_over_ball(eu, shifted, x, 1.0, it.MCScheme(200_000, it.SeedSpec(1)))
    assert abs(mc.value - 3 / 5) < 3 * mc.std_error


def test_mean_over_ball_constant_exact():
    eu = mo.Euclidean(2)
    const = Monomial(2, (0, 0), coeff=3.7)
    est = it.mean_over_ball(eu, const, np.zeros(2), 0.8, it.GridScheme(6))
    assert est.value == pytest.approx(3.7, rel=1e-14)
    mc = it.mean_over_ball(eu, const, np.zeros(2), 0.8, it.MCScheme(1000, it.SeedSpec(0)))
    assert mc.value == pytest.approx(3.7, rel=1e-14) and mc.std_error < 1e-12


def test_mc_std_error_survives_tiny_deviations():
    """Deviations of 2^-600 square to 2^-1200, which underflows to 0 unless
    they are scaled first; the power-of-two scale keeps every bit."""
    eu = mo.Euclidean(2)
    sq1 = Monomial(2, (2, 0))
    tiny = 2.0**-600
    scheme = it.MCScheme(3 * it._BATCH // 2, it.SeedSpec(6))
    plain = it.mean_over_ball(eu, sq1, np.zeros(2), 0.8, scheme)
    scaled = it.mean_over_ball(eu, lambda pts: tiny * sq1(pts), np.zeros(2), 0.8, scheme)
    assert plain.std_error > 0
    assert (scaled.value, scaled.std_error) == (tiny * plain.value, tiny * plain.std_error)


def test_mc_std_error_of_large_deviations_is_exact():
    """Deviations of about 2^300 need no scale (they square to about 2^600,
    well inside the double range): 2^300 f has exactly 2^300 times the value
    and std_error of f."""
    eu = mo.Euclidean(2)
    sq1 = Monomial(2, (2, 0))
    huge = 2.0**300
    scheme = it.MCScheme(3 * it._BATCH // 2, it.SeedSpec(6))
    plain = it.mean_over_ball(eu, sq1, np.zeros(2), 0.8, scheme)
    scaled = it.mean_over_ball(eu, lambda pts: huge * sq1(pts), np.zeros(2), 0.8, scheme)
    assert (scaled.value, scaled.std_error) == (huge * plain.value, huge * plain.std_error)


def test_mc_std_error_scale_is_per_column():
    """Each column of a row-valued integrand gets its own scale: a tiny
    column beside an ordinary one keeps exactly its share of the error bar,
    and the ordinary column still reads what it reads alone."""
    eu = mo.Euclidean(2)
    sq1 = Monomial(2, (2, 0))
    tiny = 2.0**-600
    scheme = it.MCScheme(3 * it._BATCH // 2, it.SeedSpec(9))

    def draw(m, rng):
        return eu.sample_ball(np.zeros(2), 0.8, m, rng)

    mean, err, none = it._mc_moments(draw, sq1, scheme)
    means, errs, corr = it._mc_moments(draw, lambda pts: np.stack([sq1(pts), tiny * sq1(pts)], axis=1), scheme)
    assert none is None and errs[0] > 0
    assert (means[1], errs[1]) == (tiny * means[0], tiny * errs[0])
    np.testing.assert_allclose(corr, 1.0, rtol=1e-15)  # one column is the other times 2^-600
    # a column mean sums in another order than a flat one, so the last bits may differ
    assert (means[0], errs[0]) == (pytest.approx(mean, rel=1e-12), pytest.approx(err, rel=1e-12))


def test_mc_std_error_of_overflowing_squares_is_inf():
    """Deviations of about 2^600 square past the double range: the error
    bar reads inf, not the NaN of an overflowing delta^2 times 0."""
    sq1 = Monomial(2, (2, 0))
    scheme = it.MCScheme(1000, it.SeedSpec(6))
    with pytest.warns(RuntimeWarning, match="overflow"):
        est = it.mean_over_ball(mo.Euclidean(2), lambda pts: 2.0**600 * sq1(pts), np.zeros(2), 0.8, scheme)
    assert math.isfinite(est.value) and est.std_error == math.inf


def test_mc_std_error_survives_large_offset():
    """Far from the origin u = x1^2 is ~1e12 while its spread over the ball
    is ~1e4: a variance taken as E[v^2] - E[v]^2 cancels to 0 there."""
    sq1 = Monomial(2, (2, 0))
    scheme = it.MCScheme(200_000, it.SeedSpec(3))
    est = it.r_laplacians(mo.Euclidean(2), sq1, np.array([1e6, 0.0]), [1e-2], scheme)[0][0]
    assert est.std_error > 0
    assert abs(est.value - 0.25) <= 3 * est.std_error


def test_paired_mc_laplacian_far_equals_origin(h1, koranyi):
    """For a quadratic field the centred pair mean is the origin's integrand,
    so far from the origin the estimate and its error bar are the origin's:
    the first-order term no longer inflates sigma like |grad u| r / r^2."""
    cases = [
        (mo.Euclidean(2), Monomial(2, (2, 0)), np.array([1e3, 0.0])),
        (mo.CarnotSpace(h1, koranyi), ca.horizontal_sqnorm(h1), np.array([10.0, 10.0, 0.0])),
    ]
    scheme = it.MCScheme(20_000, it.SeedSpec(5))
    for space, u, x in cases:
        for r in (0.4, 0.0125):
            far = it.r_laplacians(space, u, x, [r], scheme)[0][0]
            origin = it.r_laplacians(space, u, np.zeros_like(x), [r], scheme)[0][0]
            assert far.value == pytest.approx(origin.value, rel=1e-6), (space.spec(), r)
            assert far.std_error == pytest.approx(origin.std_error, rel=1e-6), (space.spec(), r)
            assert far.n == origin.n == 10_000


def test_unpaired_spaces_sample_plainly():
    """Half-space and cone balls are not symmetric under z -> z^-1, so
    their MC r-laplacian is the plain centred ball mean."""
    cases = [
        (mo.HalfSpace(2), Monomial(2, (2, 0)), np.array([0.3, 0.1]), 0.5),
        (mo.FlatCone(1.5), Monomial(2, (1, 1)), np.array([0.4, 0.2]), 0.5),
    ]
    scheme = it.MCScheme(4_000, it.SeedSpec(8))
    for space, u, x, r in cases:
        assert space.antithetic(x) is None
        ux = float(u(x[None, :])[0])
        plain = it.mean_over_ball(space, lambda pts: u(pts) - ux, x, r, scheme)
        est = it.r_laplacians(space, u, x, [r], scheme)[0][0]
        assert (est.value, est.std_error, est.n) == (plain.value / r**2, plain.std_error / r**2, 4_000)


def test_paired_mc_laplacian_unbiased_off_origin(h1, koranyi):
    """A non-polynomial field off the origin: the pairs agree with the grid."""
    space = mo.CarnotSpace(h1, koranyi)
    u = ca.fundamental_power(h1)
    x = ex.gauge_annulus_grid(space, 1.0, 2.0, 4, 7)[0]
    for r in (0.5, 0.25):
        grid = it.r_laplacians(space, u, x, [r], it.GridScheme(14))[0][0]
        mc = it.r_laplacians(space, u, x, [r], it.MCScheme(200_000, it.SeedSpec(4)))[0][0]
        assert mc.std_error > 0
        assert abs(mc.value - grid.value) <= 4 * mc.std_error


def test_mean_over_ball_carnot(h1, koranyi):
    space = mo.CarnotSpace(h1, koranyi)
    hsq = ca.horizontal_sqnorm(h1)
    est = it.mean_over_ball(space, hsq, np.zeros(3), 1.0, it.GridScheme(24))
    assert est.value == pytest.approx(4 / (3 * math.pi), rel=1e-12)
    with pytest.raises(it.GridUnavailable):
        it.mean_over_ball(mo.HalfSpace(2), hsq, np.array([1.0, 0.0]), 0.5, it.GridScheme(8))


def test_carnot_constant(h1, koranyi):
    grid = it.carnot_constant(h1, koranyi, it.GridScheme(24))
    assert grid.value == pytest.approx(1 / (3 * math.pi), rel=1e-12)
    assert grid.value > 0
    mc = it.carnot_constant(h1, koranyi, it.MCScheme(500_000, it.SeedSpec(13)))
    assert abs(mc.value - grid.value) < 3 * mc.std_error


# (v1, v2) = (3, 2): B(5/4, 2) / (6 B(3/4, 2)) = 7/90.  Its grid rule is not
# exact there (relative error 6e-8 at grid:12), where H1's grid:24 is
@pytest.mark.parametrize("name, exact, res, grid_rel", [("h1", 1 / (3 * math.pi), 24, 1e-12),
                                                        ("random-3-2", 7 / 90, 12, 1e-7)],
                         ids=["h1", "random-3-2"])
def test_closed_form_constant_matches_the_grid(name, exact, res, grid_rel):
    space = QUARTIC_SPACES[name]()
    assert space.mean_value_constant() == pytest.approx(exact, rel=1e-14)
    grid = it.carnot_constant(space.group, space.gauge, it.GridScheme(res))
    assert space.mean_value_constant() == pytest.approx(grid.value, rel=grid_rel)


def test_carnot_constant_checked_consistency(h1, koranyi):
    grid, mc = it.carnot_constant_checked(
        h1, koranyi, it.MCScheme(400_000, it.SeedSpec(5)), grid_res=24
    )
    assert abs(grid.value - mc.value) <= max(3 * mc.std_error, 1e-3 * grid.value)


def test_carnot_constant_dilation_invariance(h1, koranyi):
    """Computing the constant from balls of radius 1/2 and 2 after the r^2
    moment rescaling gives the same value."""
    base = it.carnot_constant(h1, koranyi, it.GridScheme(24)).value
    space = mo.CarnotSpace(h1, koranyi)
    hsq = ca.horizontal_sqnorm(h1)
    for r in (0.5, 2.0):
        est = it.mean_over_ball(space, hsq, np.zeros(3), r, it.GridScheme(24))
        rescaled = est.value / (r * r) / (2 * h1.v1)
        assert rescaled == pytest.approx(base, rel=1e-11)


def test_isotropy_grid_symmetry(h1, koranyi):
    ests = it.isotropy_check(
        h1, koranyi, [[1.0, 0.0], [0.0, 1.0], [math.sqrt(0.5), math.sqrt(0.5)]],
        it.GridScheme(24),
    )
    vals = [e.value for e in ests]
    np.testing.assert_allclose(vals, 2 / (3 * math.pi), rtol=1e-10)
    with pytest.raises(InputError):
        it.isotropy_check(h1, koranyi, [[2.0, 0.0]], it.GridScheme(8))


@pytest.mark.parametrize("group", [ca.heisenberg(1), ca.heisenberg(2)], ids=["H1", "H2"])
def test_isotropy_co_moments_match_the_per_direction_route(group, koranyi, monkeypatch):
    # one fixed draw array of two batches: a^T M a and sqrt(c^T Sigma c)
    # from the moment matrix's co-moments against the mean and error bar of
    # <a, z1>^2 itself, direction by direction
    space = mo.CarnotSpace(group, koranyi)
    n = it._BATCH + 12_345
    pts = space.sample_ball(np.zeros(group.dim), 1.0, n, it.SeedSpec(8).generator())
    served = iter([pts[: it._BATCH], pts[it._BATCH :]])
    monkeypatch.setattr(mo.CarnotSpace, "sample_ball", lambda self, x, r, m, rng: next(served))
    dirs = np.random.default_rng(4).standard_normal((20, group.v1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ests = it.isotropy_check(group, koranyi, dirs, it.MCScheme(n, it.SeedSpec(17)))
    batches = iter([pts[: it._BATCH], pts[it._BATCH :]])
    mean, err, _ = it._mc_moments(lambda m, rng: next(batches), lambda z: (z[:, : group.v1] @ dirs.T) ** 2,
                                  it.MCScheme(n, it.SeedSpec(17)))
    np.testing.assert_allclose([e.value for e in ests], mean, rtol=1e-13, atol=0)
    np.testing.assert_allclose([e.std_error for e in ests], err, rtol=1e-13, atol=0)


def test_mc_moments_keep_their_bits_on_a_pool():
    # batch k draws from seed.child(k), and the merge runs in batch order
    eu = mo.Euclidean(2)
    scheme = it.MCScheme(2 * it._BATCH + 7, it.SeedSpec(6))

    def draw(m, rng):
        return eu.sample_ball(np.zeros(2), 0.5, m, rng)

    def f(z):
        return np.stack([z[:, 0] ** 2, z[:, 0] * z[:, 1], 1e-300 * z[:, 1]], axis=1)

    runs = [it._mc_moments(draw, f, scheme, threads) for threads in (1, 3, 3)]
    for mean, err, corr in runs[1:]:
        assert np.array_equal(mean, runs[0][0]) and np.array_equal(err, runs[0][1])
        assert np.array_equal(corr, runs[0][2])
    mean, err, corr = runs[0]
    np.testing.assert_allclose(mean, [0.0625, 0.0, 0.0], atol=5 * err.max())
    assert err[2] > 0 and abs(corr[0, 1]) < 0.05


def test_mc_convergence_rate():
    eu = mo.Euclidean(2)
    u = Monomial(2, (2, 0))
    errs = []
    for n in (2_000, 8_000, 32_000, 128_000):
        est = it.mean_over_ball(eu, u, np.zeros(2), 1.0, it.MCScheme(n, it.SeedSpec(9)))
        errs.append(est.std_error)
    for a, b in zip(errs[:-1], errs[1:]):
        assert 1.0 < a / b < 3.0  # nominal 2x per 4x samples, within 50%


def test_estimate_json_roundtrip():
    est = it.Estimate(1.25, 0.003, 1000, "mc")
    d = json.loads(json.dumps(asdict(est), sort_keys=True))
    assert it.Estimate(**d) == est
    assert set(d) == {"value", "std_error", "n", "method"}


def test_scheme_parsing():
    mc = it.parse_scheme("mc:1000:42")
    assert mc == it.MCScheme(1000, it.SeedSpec(42))
    gr = it.parse_scheme("grid:16")
    assert gr == it.GridScheme(16)
    with pytest.raises(InputError):
        it.parse_scheme("banana:1")
    with pytest.raises(InputError):
        it.parse_scheme("mc:many")


def test_seedspec_streams_independent():
    a = it.SeedSpec(1, 0).generator().random(1000)
    b = it.SeedSpec(1, 1).generator().random(1000)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_carnot_ball_volume_mc_is_the_hit_fraction(h1, koranyi):
    # the oracle averages the box-hit indicator through the shared
    # accumulator; its value and sigma are the binomial ones of the same draws
    space = mo.CarnotSpace(h1, koranyi)
    x, r, n, seed = np.array([0.4, -0.3, 0.2]), 0.7, 30_000, it.SeedSpec(5, 2)
    est = it.carnot_ball_volume_mc(space, x, r, n, seed)
    h_bound, v_bound = koranyi.envelope(r)
    slack = v_bound + 0.5 * float(np.sum(np.abs(h1.bracket[0].T @ x[:2]))) * h_bound
    lo = np.array([x[0] - h_bound, x[1] - h_bound, x[2] - slack])
    hi = np.array([x[0] + h_bound, x[1] + h_bound, x[2] + slack])
    cand = seed.generator().uniform(lo, hi, (n, 3))
    p = np.count_nonzero(space.distance(cand, x[None, :]) < r) / n
    box = float(np.prod(hi - lo))
    assert est.value == pytest.approx(box * p, rel=1e-12)
    assert est.std_error == pytest.approx(box * math.sqrt(p * (1 - p) / n), rel=1e-12)
    assert (est.n, est.method) == (n, "monte_carlo")
    with pytest.raises(InputError):
        it.carnot_ball_volume_mc(space, x, r, 1, seed)


def test_monte_carlo_bits_are_pinned(h1, koranyi):
    # Bits recorded before Monte Carlo batches went column-major: the layout
    # of a batch may move no bit of a shared-draw sweep, an isotropy check or
    # the group constant (heisenberg:2 sums four horizontal squares).
    radii, scheme = (0.4, 0.2, 0.1), it.MCScheme(200_000, it.SeedSpec(7))
    pinned = {
        "hsq": [(0.4255636245592276, 0.0008365914304483999), (0.4255636245592274, 0.0008365914304484007),
                (0.42556362455922836, 0.0008365914304484062), 0.9999999999999997],
        "folland": [(-2.136173907887007e-07, 8.383600590061766e-08), (-1.855636583070496e-07, 8.382673014111493e-08),
                    (-1.7880908373929047e-07, 8.38255107673865e-08), 0.9994520371989017],
        "sq1": [(0.2512871622857128, 0.0007939745353909583), (0.2512871622874808, 0.0007939745353859923),
                (0.2512871622765087, 0.0007939745354283271), 1.000000000000003],
    }
    cases = [
        ("hsq", mo.CarnotSpace(h1, koranyi), ca.horizontal_sqnorm(h1), [10.0, 10.0, 0.0]),
        ("folland", mo.CarnotSpace(h1, koranyi), ca.fundamental_power(h1), [10.0, 10.0, 0.0]),
        ("sq1", mo.Euclidean(2), Monomial(2, (2, 0)), [1e3, 0.0]),
    ]
    for name, space, u, x in cases:
        est, corr = it.r_laplacians(space, u, x, radii, scheme)
        assert [(e.value, e.std_error) for e in est] + [float(corr[0, 2])] == pinned[name], name
    h2, small = ca.heisenberg(2), it.MCScheme(100_000, it.SeedSpec(3))
    dirs = [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [0.6, 0.0, -0.8, 0.0]]
    assert [(e.value, e.std_error) for e in it.isotropy_check(h2, koranyi, dirs, small)] == [
        (0.1469257178814211, 0.0005311039594803132), (0.14680948019249423, 0.0005330968584364765),
        (0.1474009012629156, 0.0005322242603203482)]
    const = it.carnot_constant(h2, koranyi, small)
    assert (const.value, const.std_error) == (0.0735176726834339, 9.129381818854893e-05)
