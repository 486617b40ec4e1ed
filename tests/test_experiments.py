import math

import numpy as np
import pytest

from amvlab import carnot as ca
from amvlab import experiments as ex
from amvlab import integrate as it
from amvlab import models as mo
from amvlab.fields import Callable1, ConeTent, Monomial, Tent, harmonic_cubic
from amvlab.mmspace import InputError


@pytest.fixture(scope="module")
def h1_space():
    return mo.CarnotSpace(ca.heisenberg(1), ca.Gauge("koranyi"))


@pytest.fixture(scope="module")
def small_euclid_cloud():
    eu = mo.Euclidean(2)
    return mo.euclidean_cloud(eu, [-1.2, -1.2], [1.2, 1.2], 40, seed=19)


def test_radii_validation():
    with pytest.raises(InputError):
        ex.check_radii([0.5, 0.5])
    with pytest.raises(InputError):
        ex.check_radii([0.1, 0.5])
    with pytest.raises(InputError):
        ex.check_radii([])
    assert ex.default_radii(1.0, 4, 0.5) == [1.0, 0.5, 0.25, 0.125]


def test_fit_tail_clean_power_law():
    radii = ex.default_radii(0.8, 8, 0.5)
    values = [0.3 + 2.0 * r**2 for r in radii]
    limit, rate, err, drift = ex.fit_tail(radii, values, [0.0] * 8)
    assert limit == pytest.approx(0.3, abs=1e-10)
    assert rate == pytest.approx(2.0, abs=1e-6)
    assert err < 1e-10 and drift < 1e-10


def test_fit_tail_constant_sequence():
    radii = ex.default_radii(0.8, 6, 0.5)
    limit, rate, err, drift = ex.fit_tail(radii, [1.234] * 6, [0.0] * 6)
    assert limit == 1.234 and rate is None and err == 0.0 and drift == 0.0


def test_fit_tail_noise_dominated():
    rng = np.random.default_rng(0)
    radii = ex.default_radii(0.8, 8, 0.5)
    values = 0.5 + rng.normal(0, 0.01, 8)
    limit, rate, err, drift = ex.fit_tail(radii, values, [0.01] * 8)
    assert rate is None  # differences are buried in the error bars
    assert limit == pytest.approx(0.5, abs=0.02)


def test_amv_sweep_euclidean_exact():
    eu = mo.Euclidean(2)
    u = Monomial(2, (2, 0))
    radii = ex.default_radii(0.8, 6, 0.5)
    rep = ex.amv_sweep(eu, u, np.zeros(2), radii, it.GridScheme(8), reference=0.25, tolerance=1e-6)
    np.testing.assert_allclose(rep.values, 0.25, rtol=1e-12)
    assert rep.verdict == "pass"
    assert rep.fitted_limit == pytest.approx(0.25, abs=1e-9)


def test_amv_sweep_constant_field():
    eu = mo.Euclidean(2)
    rep = ex.amv_sweep(
        eu, Monomial(2, (0, 0), coeff=7.7), np.zeros(2),
        ex.default_radii(0.5, 5, 0.5), it.GridScheme(6), reference=0.0, tolerance=1e-9,
    )
    # quadrature-weight roundoff only: a few ulps of c, amplified by 1/r^2
    for v, r in zip(rep.values, rep.radii):
        assert abs(v) <= 1e-14 / r**2
    assert rep.verdict == "pass"


def test_amv_sweep_carnot_dilation_identity(h1_space):
    hsq = ca.horizontal_sqnorm(h1_space.group)
    radii = ex.default_radii(1.0, 5, 0.5)
    ref = 4 / (3 * math.pi)
    rep = ex.amv_sweep(h1_space, hsq, np.zeros(3), radii, it.GridScheme(20), reference=ref, tolerance=1e-3)
    np.testing.assert_allclose(rep.values, ref, rtol=1e-10)
    assert rep.verdict == "pass"


def test_strong_scan_negative_control(h1_space):
    hsq = ca.horizontal_sqnorm(h1_space.group)
    grid = ex.gauge_annulus_grid(h1_space, 1.0, 2.0, 10, seed=31)
    radii = ex.default_radii(0.4, 5, 0.5)
    rep = ex.strong_amv_scan(h1_space, hsq, grid, radii, it.GridScheme(12), reference=0.0, tolerance=1e-3)
    assert rep.verdict == "fail"
    np.testing.assert_allclose(rep.values, 4 / (3 * math.pi), rtol=1e-9)


def test_strong_scan_harmonic_polynomial_plane():
    eu = mo.Euclidean(2)
    u = harmonic_cubic(2)
    grid = np.random.default_rng(2).uniform(-1, 1, size=(10, 2))
    radii = ex.default_radii(0.5, 5, 0.5)
    rep = ex.strong_amv_scan(eu, u, grid, radii, it.GridScheme(8), reference=0.0, tolerance=1e-9)
    assert max(rep.values) < 1e-12
    assert rep.verdict == "pass"


def test_weak_sweep_support_margin(small_euclid_cloud):
    cloud, pts, meta = small_euclid_cloud
    u = harmonic_cubic(2)
    phi_wide = Tent(2, [0.0, 0.0], 0.8, 1.15)
    with pytest.raises(InputError):
        ex.weak_amv_sweep(cloud, pts, meta, u, phi_wide, [0.5, 0.25], tolerance=0.05)


def test_weak_sweep_harmonic_small(small_euclid_cloud):
    cloud, pts, meta = small_euclid_cloud
    u = harmonic_cubic(2)
    phi = Tent(2, [0.0, 0.0], 0.3, 0.6)
    radii = ex.default_radii(0.45, 5, 0.75)
    rep = ex.weak_amv_sweep(cloud, pts, meta, u, phi, radii, reference=0.0, tolerance=0.05)
    assert rep.verdict == "pass"
    assert abs(rep.fitted_limit) < 0.05
    zero = ex.weak_amv_sweep(
        cloud, pts, meta, u, Callable1(2, lambda p: np.zeros(p.shape[:-1])), radii,
        reference=0.0, tolerance=1e-12,
    )
    assert all(v == 0.0 for v in zero.values)


def test_sym_vs_plain_constant_exact(small_euclid_cloud):
    cloud, pts, meta = small_euclid_cloud
    phi = Tent(2, [0.0, 0.0], 0.3, 0.6)
    u_const = Monomial(2, (0, 0), coeff=2.2)
    radii = ex.default_radii(0.45, 4, 0.7)
    rep = ex.sym_vs_plain_sweep(
        cloud, pts, meta, u_const, phi, radii, reference=0.0, tolerance=1e-9,
    )
    # constants are annihilated up to mass-weighted ulp noise over 1/r^2
    for v, r in zip(rep.values, radii):
        assert abs(v) <= 1e-12 * cloud.total_mass() / r**2
    assert rep.verdict == "pass"


def test_mm_boundary_sweep_references():
    radii = ex.default_radii(0.4, 6, 0.6)
    rep = ex.mm_boundary_sweep(
        mo.Euclidean(2), mo.Region.ball([0.0, 0.0], 1.0), radii, reference=0.0, tolerance=1e-6
    )
    assert all(v == 0.0 for v in rep.values) and rep.verdict == "pass"
    kappa = 2 / (3 * math.pi)
    rep = ex.mm_boundary_sweep(
        mo.HalfSpace(2), mo.Region.box([0.0, 0.0], [1.0, 1.0]), radii,
        reference=kappa, tolerance=0.02 * kappa,
    )
    assert rep.verdict == "pass"
    rep = ex.mm_boundary_sweep(
        mo.FlatCone(math.pi), mo.Region.ball([0.0, 0.0], 1.0), radii,
        reference=0.0, tolerance=1e-3,
    )
    assert rep.verdict == "pass"
    assert rep.fitted_rate == pytest.approx(1.0, abs=0.2)


def test_report_json_csv_roundtrip_and_revalidate():
    radii = ex.default_radii(0.8, 6, 0.5)
    values = [0.1 + 0.5 * r**1.5 for r in radii]
    ests = [it.Estimate(v, 0.0, 10, "grid") for v in values]
    rep = ex.build_report(radii, ests, reference=0.1, tolerance=1e-6, metadata={"experiment": "t"})
    back = ex.ExperimentReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    assert ex.revalidate(back) == rep.verdict == "pass"
    csv = rep.to_csv().splitlines()
    assert csv[0] == "radius,value,std_error" and len(csv) == 7


def test_report_determinism():
    eu = mo.Euclidean(2)
    u = Monomial(2, (2, 0))
    radii = ex.default_radii(0.8, 5, 0.5)
    reps = [
        ex.amv_sweep(eu, u, np.zeros(2), radii, it.MCScheme(20_000, it.SeedSpec(3)), reference=0.25, tolerance=0.05)
        for _ in range(2)
    ]
    assert reps[0].to_json() == reps[1].to_json()


def test_fit_sanity_downgrades_to_inconclusive():
    # drifting values whose refit moves more than the tolerance
    radii = ex.default_radii(0.8, 8, 0.5)
    values = [0.1 + 0.3 * math.sin(7.0 * k) for k in range(8)]
    ests = [it.Estimate(v, 0.0, 1, "grid") for v in values]
    rep = ex.build_report(radii, ests, reference=0.1, tolerance=1e-3, metadata={})
    assert rep.verdict == "inconclusive"


def test_gauge_annulus_grid_deterministic(h1_space):
    a = ex.gauge_annulus_grid(h1_space, 1.0, 2.0, 30, seed=31)
    b = ex.gauge_annulus_grid(h1_space, 1.0, 2.0, 30, seed=31)
    assert np.array_equal(a, b)
    vals = h1_space.gauge.value(h1_space.group, a)
    assert np.all(vals >= 1.0) and np.all(vals < 2.0) and a.shape == (30, 3)


# -- the covariance-aware fit --------------------------------------------------

CALIBRATION_RADII = np.array(ex.default_radii(0.4, 6, 0.5))  # the CLI's default sweep
CALIBRATION_SIGMA = 1e-4
_LAG = np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
CORRELATIONS = {"independent": np.eye(6), "ar0.9": 0.9**_LAG, "rank1": np.ones((6, 6))}


@pytest.mark.parametrize("p, b", [(1, 0.0), (1, 0.1), (2, 0.0), (2, 1.0)])
@pytest.mark.parametrize("name", CORRELATIONS)
def test_fit_tail_calibration(name, p, b):
    """v = a + b r^p + L eps with known C = L L^T: the limit lies within
    2 limit_err of a in at least 90% of 1000 replicates, whether the radii
    carry independent, AR(0.9) or identical noise, and whether the trend is
    zero or resolved."""
    corr = CORRELATIONS[name]
    sig = np.full(6, CALIBRATION_SIGMA)
    lam, vec = np.linalg.eigh(corr * np.multiply.outer(sig, sig))
    chol = vec * np.sqrt(np.clip(lam, 0.0, None))
    a = 0.3
    draws = a + b * CALIBRATION_RADII**p + np.random.default_rng(2027).standard_normal((1000, 6)) @ chol.T
    hits = 0
    for v in draws:
        limit, _, err, _ = ex.fit_tail(CALIBRATION_RADII, v, sig, corr)
        hits += abs(limit - a) <= 2.0 * err
        if name == "rank1":
            # every radius carries the same noise: the limit is as noisy as one value
            assert err == pytest.approx(CALIBRATION_SIGMA, rel=1e-12)
    assert hits >= 900


def test_fit_tail_diagonal_correlation_is_the_independent_fit():
    rng = np.random.default_rng(5)
    sig = CALIBRATION_SIGMA * (1.0 + rng.random(6))
    for b in (0.0, 1.0):
        v = 0.3 + b * CALIBRATION_RADII**2 + sig * rng.standard_normal(6)
        assert ex.fit_tail(CALIBRATION_RADII, v, sig, np.eye(6)) == ex.fit_tail(CALIBRATION_RADII, v, sig)


def test_shared_draws_sweep_reports_its_correlation_and_revalidates():
    # on euclidean:2 the r-laplacian of x1^2 is 1/4 at every radius, and with
    # shared draws every radius reads the same pair means: a rank-1 tail whose
    # limit is as noisy as one radius, not 1/sqrt(k) of it
    eu = mo.Euclidean(2)
    rep = ex.amv_sweep(eu, Monomial(2, (2, 0)), np.zeros(2), ex.default_radii(0.4, 6, 0.5),
                       it.MCScheme(200_000, it.SeedSpec(2)), reference=0.25, tolerance=0.01)
    corr = np.array(rep.metadata["correlation"])
    assert corr.shape == (6, 6) and np.all(corr > 1.0 - 1e-12)
    np.testing.assert_allclose(rep.values, rep.values[0], rtol=1e-13)
    assert rep.metadata["limit_err"] == pytest.approx(rep.std_errors[-1], rel=1e-12)
    back = ex.ExperimentReport.from_json(rep.to_json())
    assert ex.revalidate(back) == rep.verdict == "pass"
    # without the stored correlation the same values read as independent
    del back.metadata["correlation"]
    assert ex.fit_tail(back.radii, back.values, back.std_errors)[2] < 0.6 * rep.metadata["limit_err"]


def test_shared_draws_refuse_every_radius_before_any_field_value(h1_space):
    calls = []

    def field(pts):
        calls.append(len(pts))
        return np.sum(pts * pts, axis=-1)

    with pytest.raises(mo.NumericError, match="the radius 1e\\+100 is too large: its gauge overflows"):
        it.r_laplacians(h1_space, field, np.zeros(3), [0.5, 1e100], it.MCScheme(1000, it.SeedSpec(1)))
    with pytest.raises(mo.NumericError, match="the radius 1e-200 is too small: its square underflows"):
        it.r_laplacians(mo.Euclidean(2), field, np.zeros(2), [0.5, 1e-200], it.MCScheme(1000, it.SeedSpec(1)))
    assert calls == []


# -- golden bits: values recorded before the r-laplacian routes became one ----


def test_grid_sweep_keeps_its_bits(h1_space):
    rep = ex.amv_sweep(h1_space, ca.fundamental_power(h1_space.group), np.array([1.0, 0.5, 0.7]),
                       ex.default_radii(0.4, 4, 0.5), it.GridScheme(8))
    assert rep.values == [0.016273576062004264, 0.0040380546140879135, 0.0010090321003634994,
                          0.0002522504940099219]
    assert rep.std_errors == [0.0] * 4
    assert rep.fitted_limit == -9.116683263082697e-07


def test_shared_draws_sweep_keeps_its_bits():
    rep = ex.amv_sweep(mo.Euclidean(2), Monomial(2, (2, 0)), np.array([0.3, 0.2]), ex.default_radii(0.4, 4, 0.5),
                       it.MCScheme(20_000, it.SeedSpec(3)))
    assert rep.values == [0.25441735885012157, 0.25441735885012134, 0.2544173588501213, 0.25441735885012023]
    assert rep.std_errors == [0.002539662552966925, 0.002539662552966925, 0.0025396625529669247,
                              0.002539662552966924]
    assert rep.metadata["correlation"] == [
        [1.0, 0.9999999999999998, 1.0, 1.0],
        [0.9999999999999998, 1.0, 0.9999999999999998, 0.9999999999999998],
        [1.0, 0.9999999999999998, 1.0, 1.0000000000000002],
        [1.0, 0.9999999999999998, 1.0000000000000002, 1.0],
    ]
    assert rep.fitted_limit == 0.2544173588501211


def test_grid_strong_scan_keeps_its_bits(h1_space):
    pts = ex.gauge_annulus_grid(h1_space, 1.0, 2.0, 5, seed=4)
    rep = ex.strong_amv_scan(h1_space, ca.fundamental_power(h1_space.group), pts, ex.default_radii(0.4, 3, 0.5),
                             it.GridScheme(6))
    assert rep.values == [0.0010381330562220749, 0.0002588669723301322, 6.470636716810923e-05]
    assert rep.std_errors == [0.0] * 3
    assert rep.fitted_limit == 2.7637639325891397e-07


def test_grid_strong_scan_builds_its_unit_rule_once(h1_space, monkeypatch):
    calls = []

    def counted(space, res):
        calls.append(res)
        return it._unit_rule(space, res)

    monkeypatch.setattr(ex, "_unit_rule", counted)
    pts = ex.gauge_annulus_grid(h1_space, 1.0, 2.0, 5, seed=4)
    ex.strong_amv_scan(h1_space, ca.horizontal_sqnorm(h1_space.group), pts, [0.5, 0.25, 0.125], it.GridScheme(6))
    assert calls == [6]


def test_grid_strong_scan_refuses_in_job_order():
    # the first job checks its radius, then builds the rule: a group with no
    # rule is refused ahead of a later radius whose square underflows, but
    # after a first one whose square overflows
    h2 = mo.parse_space("carnot:heisenberg:2:koranyi")
    u, pts = ca.horizontal_sqnorm(h2.group), ex.gauge_annulus_grid(h2, 1.0, 2.0, 3, seed=4)
    with pytest.raises(it.GridUnavailable, match="grid rule ships for"):
        ex.strong_amv_scan(h2, u, pts, [0.5, 1e-200], it.GridScheme(4))
    with pytest.raises(mo.NumericError, match="too large: its square overflows"), np.errstate(over="ignore"):
        ex.strong_amv_scan(h2, u, pts, [1e200, 0.5], it.GridScheme(4))


def test_strong_scan_estimates_never_reuse_the_annulus_streams(h1_space, monkeypatch):
    """The annulus draws proposal t from stream t of its seed, and scan job k
    from stream 2^64 - 1 - k of the scheme's seed: at equal seeds no
    estimate reads the draws that placed its points, and no two jobs share
    a stream."""
    keys = []
    generator = it.SeedSpec.generator

    def recording(seed):
        keys.append((seed.master & it._MASK64, seed.stream & it._MASK64))
        return generator(seed)

    monkeypatch.setattr(it.SeedSpec, "generator", recording)
    pts = ex.gauge_annulus_grid(h1_space, 1.0, 2.0, 4, seed=0)
    annulus = set(keys)
    keys.clear()
    ex.strong_amv_scan(h1_space, ca.horizontal_sqnorm(h1_space.group), pts, [0.5, 0.25],
                       it.MCScheme(200, it.SeedSpec(0)), threads=2)
    assert annulus and len(keys) == len(set(keys)) == 8
    assert not annulus & set(keys)


@pytest.mark.slow
def test_shared_draws_fit_covers_the_folland_limit():
    """The horizontal Laplacian annihilates folland on H1 away from the
    origin, so the limit at (1, 0.5, 0.7) is 0.  With shared draws the r^2
    trend resolves, and |limit| <= 2 limit_err holds in at least 34 of 40
    seeds at mc:200000 (an independent-draw fit covered it in 0 of 60)."""
    space = mo.parse_space("carnot:heisenberg:1:koranyi")
    u = ca.fundamental_power(space.group)
    radii = ex.default_radii(0.4, 6, 0.5)
    covered = 0
    for seed in range(40):
        rep = ex.amv_sweep(space, u, np.array([1.0, 0.5, 0.7]), radii, it.MCScheme(200_000, it.SeedSpec(seed)))
        covered += abs(rep.fitted_limit) <= 2.0 * rep.metadata["limit_err"]
    assert covered >= 34
