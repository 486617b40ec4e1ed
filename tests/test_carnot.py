import numpy as np
import pytest

from amvlab import carnot as ca
from amvlab.integrate import SeedSpec, carnot_ball_volume_mc
from amvlab.mmspace import InputError
from amvlab.models import CarnotSpace


@pytest.fixture(scope="module")
def h1():
    return ca.heisenberg(1)


@pytest.fixture(scope="module")
def koranyi():
    return ca.Gauge("koranyi")


def random_group(rng, v1, v2):
    b = rng.uniform(-1, 1, size=(v2, v1, v1))
    b = b - np.swapaxes(b, 1, 2)
    return ca.CarnotStep2(v1, v2, b)


def test_multiply_examples(h1):
    out = h1.multiply(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(out, [1.0, 1.0, 0.5])
    out = h1.multiply(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])


def test_inverse_cancels(h1):
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, size=(50, 3))
    np.testing.assert_allclose(h1.multiply(x, h1.inverse(x)), 0.0, atol=1e-15)


def test_group_axioms_random_groups():
    rng = np.random.default_rng(9)
    for v1, v2 in ((2, 1), (3, 2), (4, 3)):
        g = random_group(rng, v1, v2)
        x, y, z = rng.uniform(-2, 2, size=(3, 200, g.dim))
        lhs = g.multiply(g.multiply(x, y), z)
        rhs = g.multiply(x, g.multiply(y, z))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        e = np.zeros(g.dim)
        np.testing.assert_array_equal(g.multiply(x, e), x)
        np.testing.assert_array_equal(g.multiply(e, x), x)


def test_dilation(h1, koranyi):
    np.testing.assert_array_equal(h1.dilate(2.0, np.array([1.0, 0.0, 1.0])), [2.0, 0.0, 4.0])
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(40, 3))
    for t in (0.37, 2.9):
        np.testing.assert_allclose(h1.dilate(1 / t, h1.dilate(t, x)), x, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(
            koranyi.value(h1, h1.dilate(t, x)), t * koranyi.value(h1, x), rtol=1e-12
        )
    with pytest.raises(InputError):
        h1.dilate(0.0, x)


def test_gauge_values(h1, koranyi):
    assert koranyi.value(h1, np.array([1.0, 0.0, 0.0])) == 1.0
    assert koranyi.value(h1, np.array([0.0, 0.0, 1.0])) == 1.0
    # dilation check from the closed form
    val = koranyi.value(h1, np.array([2.0, 0.0, 4.0]))
    assert val == pytest.approx(2.0 * (1 + 1) ** 0.25, rel=1e-15)


def test_pseudonorm_axioms(h1):
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, size=(500, 3))
    for gauge in (ca.Gauge("koranyi"), ca.Gauge("scaled_koranyi", 16.0)):
        vals = gauge.value(h1, x)
        assert np.all(vals > 0)
        np.testing.assert_array_equal(gauge.value(h1, h1.inverse(x)), vals)
        assert gauge.value(h1, np.zeros(3)) == 0.0


def test_distance_example_and_left_invariance(h1, koranyi):
    space = CarnotSpace(h1, koranyi)
    d = space.distance(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert d == pytest.approx((17 / 4) ** 0.25, rel=1e-14)
    rng = np.random.default_rng(11)
    g, x, y = rng.uniform(-2, 2, size=(3, 300, 3))
    d0 = space.distance(x, y)
    d1 = space.distance(h1.multiply(g, x), h1.multiply(g, y))
    assert np.max(np.abs(d0 - d1) / np.maximum(d0, 1e-12)) < 1e-12
    np.testing.assert_allclose(space.distance(y, x), d0, rtol=1e-13)


def test_left_field_examples(h1):
    t_coord = ca.layer2_coordinate(h1, 0)
    assert ca.left_field(h1, 0, t_coord, np.array([0.0, 3.0, 0.0])) == pytest.approx(-1.5)
    x_coord = ca.coordinate(3, 0)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(10, 3))
    np.testing.assert_array_equal(ca.left_field(h1, 0, x_coord, pts), np.ones(10))
    with pytest.raises(InputError):
        ca.left_field(h1, 5, x_coord, pts)


def test_left_field_matches_translation_derivative(h1):
    """X_j u as the derivative of u along right-translation curves."""
    fol = ca.fundamental_power(h1)
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.5, 1.5, size=(20, 3))
    h = 1e-6
    for j in range(h1.v1):
        e = np.zeros(3)
        e[j] = 1.0
        plus = h1.multiply(pts, h * e)
        minus = h1.multiply(pts, -h * e)
        fd = (fol.value(plus) - fol.value(minus)) / (2 * h)
        closed = ca.left_field(h1, j, fol, pts)
        assert np.max(np.abs(fd - closed) / np.maximum(np.abs(fd), 1.0)) < 1e-6


def test_left_invariance_of_fields(h1):
    """X_j commutes with left translation, via finite differences."""
    u = ca.gauge_power(h1, ca.Gauge("scaled_koranyi", 16.0), 3.0)
    rng = np.random.default_rng(8)
    g = rng.uniform(-0.5, 0.5, size=3)
    pts = rng.uniform(0.6, 1.2, size=(15, 3))
    h = 1e-6
    for j in range(h1.v1):
        e = np.zeros(3)
        e[j] = 1.0
        # d/dt u(g x exp(t e_j)) at 0 vs (X_j u)(g x)
        gx = h1.multiply(g, pts)
        fd = (u.value(h1.multiply(gx, h * e)) - u.value(h1.multiply(gx, -h * e))) / (2 * h)
        closed = ca.left_field(h1, j, u, gx)
        assert np.max(np.abs(fd - closed) / np.maximum(np.abs(closed), 1.0)) < 1e-5


def test_sub_laplacian_examples(h1):
    pts = np.random.default_rng(1).uniform(-2, 2, size=(25, 3))
    np.testing.assert_allclose(ca.sub_laplacian(h1, ca.horizontal_sqnorm(h1), pts), 4.0)
    shifted = ca.horizontal_sqnorm(h1, center=[0.3, -1.1])
    np.testing.assert_allclose(ca.sub_laplacian(h1, shifted, pts), 4.0)
    np.testing.assert_allclose(
        ca.sub_laplacian(h1, ca.layer2_coordinate(h1, 0), pts), 0.0, atol=1e-14
    )


def test_folland_kernel_harmonic(h1):
    """Closed-form horizontal Laplacian of the fundamental power vanishes;
    oracle: nested central differences along translation curves."""
    fol = ca.fundamental_power(h1)
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.5, 1.5, size=(100, 3)) * rng.choice([-1.0, 1.0], size=(100, 3))
    vals = ca.sub_laplacian(h1, fol, pts)
    assert np.max(np.abs(vals)) < 1e-6
    # finite-difference oracle at a handful of points
    h = 1e-4
    for p in pts[:5]:
        acc = 0.0
        for j in range(h1.v1):
            e = np.zeros(3)
            e[j] = 1.0
            stencil = np.stack(
                [h1.multiply(p, h * e), p, h1.multiply(p, -h * e)], axis=0
            )
            vals3 = fol.value(stencil)
            acc += (vals3[0] - 2 * vals3[1] + vals3[2]) / h**2
        assert abs(acc) < 1e-5


def test_sub_laplacian_fd_oracle_on_catalog(h1):
    """Nested second differences of u along translation curves agree with
    the closed-form horizontal Laplacian for every catalog field."""
    fields = [
        ca.horizontal_sqnorm(h1),
        ca.layer2_coordinate(h1, 0),
        ca.gauge_power(h1, ca.Gauge("koranyi"), 2.0),
        ca.fundamental_power(h1),
    ]
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.6, 1.3, size=(6, 3))
    h = 1e-4
    for u in fields:
        closed = ca.sub_laplacian(h1, u, pts)
        fd = np.zeros(len(pts))
        for j in range(h1.v1):
            e = np.zeros(3)
            e[j] = 1.0
            fd += (
                u.value(h1.multiply(pts, h * e))
                - 2 * u.value(pts)
                + u.value(h1.multiply(pts, -h * e))
            ) / h**2
        scale = np.maximum(np.abs(closed), 1.0)
        assert np.max(np.abs(fd - closed) / scale) < 1e-5


def test_heisenberg_presets():
    h2 = ca.heisenberg(2)
    assert h2.v1 == 4 and h2.v2 == 1 and h2.homogeneous_dim == 6
    assert h2.bracket[0, 0, 2] == 1.0 and h2.bracket[0, 2, 0] == -1.0
    with pytest.raises(InputError):
        ca.heisenberg(0)


def test_bracket_validation():
    with pytest.raises(InputError):
        ca.CarnotStep2(2, 1, np.ones((1, 2, 2)))  # not antisymmetric
    with pytest.raises(InputError):
        ca.CarnotStep2(2, 1, np.zeros((2, 2, 2)))  # wrong shape


def test_haar_ball_volume_scaling(h1, koranyi):
    """Monte Carlo volume is center-independent and scales like r^Q."""
    space = CarnotSpace(h1, koranyi)
    ref = np.pi**2 / 2
    centers = [np.zeros(3), np.array([0.8, -0.2, 0.3]), np.array([-1.0, 1.0, -0.5])]
    radii = [0.5, 1.0, 2.0]
    for i, x in enumerate(centers):
        for j, r in enumerate(radii):
            est = carnot_ball_volume_mc(space, x, r, 400_000, SeedSpec(700 + 10 * i + j))
            expected = ref * r**h1.homogeneous_dim
            assert abs(est.value - expected) <= 3.0 * est.std_error + 1e-9
