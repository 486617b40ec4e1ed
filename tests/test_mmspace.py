import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from amvlab import _kernels
from amvlab import mmspace as mm
from amvlab import models as mo


@pytest.fixture
def two_point():
    return mm.FiniteMMSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 2.0]))


@pytest.fixture
def line3():
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return mm.FiniteMMSpace(dist, np.ones(3))


def test_ball_members_and_mass(line3):
    members, mass = mm.ball(line3, 1, 1.5)
    assert members.tolist() == [0, 1, 2] and mass == 3.0
    members, mass = mm.ball(line3, 0, 0.5)
    assert members.tolist() == [0] and mass == 1.0


def test_ball_two_point_weighted(two_point):
    members, mass = mm.ball(two_point, 0, 2.0)
    assert members.tolist() == [0, 1] and mass == 3.0


def test_ball_unknown_point(line3):
    with pytest.raises(mm.InputError):
        mm.ball(line3, "nope", 1.0)
    with pytest.raises(mm.InputError):
        mm.ball(line3, 0, -1.0)


@pytest.mark.parametrize("bad", [-1, 3, 1.5, "nope"])
def test_points_are_indices(line3, bad):
    with pytest.raises(mm.InputError, match="indices 0 .. 2"):
        mm.ball(line3, bad, 1.5)
    with pytest.raises(mm.InputError, match="indices 0 .. 2"):
        mm.delta_r(line3, 0, bad, 1.5)


def test_numpy_integer_points(line3):
    assert line3.index_of(np.int64(2)) == 2 and type(line3.index_of(np.int64(2))) is int
    assert mm.ball(line3, np.int64(0), 1.5)[0].tolist() == [0, 1]
    assert mm.delta_r(line3, np.int32(0), np.int64(1), 1.5) == mm.delta_r(line3, 0, 1, 1.5)


def test_average(two_point, line3):
    assert mm.average(two_point, [0.0, 3.0], 2.0).tolist() == [2.0, 2.0]
    np.testing.assert_allclose(
        mm.average(line3, [1.0, 0.0, 0.0], 1.5), [0.5, 1 / 3, 0.0], rtol=1e-15
    )
    c = np.full(3, 4.2)
    np.testing.assert_array_equal(mm.average(line3, c, 0.7), c)


def test_adjoint_average(two_point, line3):
    np.testing.assert_allclose(mm.adjoint_average(two_point, [0.0, 3.0], 2.0), [2.0, 2.0])
    np.testing.assert_allclose(mm.adjoint_average(line3, np.ones(3), 1.5), [5 / 6, 4 / 3, 5 / 6], rtol=1e-15)
    # singleton balls: adjoint average reduces to the identity
    u = np.array([1.3, -0.4, 2.2])
    np.testing.assert_allclose(mm.adjoint_average(line3, u, 0.5), u, rtol=1e-15)


def test_r_laplacian(two_point, line3):
    np.testing.assert_allclose(mm.r_laplacian(two_point, [0.0, 3.0], 2.0), [0.5, -0.25])
    np.testing.assert_array_equal(mm.r_laplacian(line3, np.full(3, 7.0), 1.5), np.zeros(3))
    np.testing.assert_allclose(
        mm.r_laplacian(line3, [1.0, 0.0, 0.0], 1.5)[0], -2 / 9, rtol=1e-14
    )


def test_adjoint_r_laplacian(two_point, line3):
    np.testing.assert_allclose(mm.adjoint_r_laplacian(two_point, [0.0, 3.0], 2.0), [0.5, -0.25])
    np.testing.assert_allclose(
        mm.adjoint_r_laplacian(line3, np.ones(3), 1.5), [-2 / 27, 4 / 27, -2 / 27], rtol=1e-14
    )
    u = np.array([1.3, -0.4, 2.2])
    np.testing.assert_allclose(mm.adjoint_r_laplacian(line3, u, 0.5), np.zeros(3), atol=1e-14)


def test_sym_r_laplacian(two_point, line3):
    np.testing.assert_allclose(mm.sym_r_laplacian(two_point, [0.0, 3.0], 2.0), [0.5, -0.25])
    np.testing.assert_array_equal(mm.sym_r_laplacian(line3, np.full(3, -2.0), 1.5), np.zeros(3))
    # kernel evaluation at the left endpoint: k(l, mid) = (1/2)(1/2 + 1/3),
    # one neighbor with mass 1 and value drop -1, all over r^2
    expected = 0.5 * (1 / 2 + 1 / 3) * (-1.0) / 1.5**2
    np.testing.assert_allclose(mm.sym_r_laplacian(line3, [1.0, 0.0, 0.0], 1.5)[0], expected)


def test_delta_r(two_point, line3):
    assert mm.delta_r(line3, 0, 1, 1.5) == pytest.approx(1 / 3, rel=1e-15)
    assert mm.delta_r(line3, 1, 1, 1.5) == 0.0
    assert mm.delta_r(two_point, 0, 1, 2.0) == 0.0
    assert mm.delta_r(two_point, 1, 0, 2.0) == 0.0


def test_energy_density(two_point):
    u = np.array([0.0, 3.0])
    np.testing.assert_allclose(mm.energy_density(two_point, u, u, 2.0), [0.75, 0.375])
    np.testing.assert_array_equal(
        mm.energy_density(two_point, np.full(2, 5.0), u, 2.0), np.zeros(2)
    )
    v = np.array([0.0, -1.0])
    np.testing.assert_allclose(mm.energy_density(two_point, u, v, 2.0), [-0.25, -0.125])


def test_total_energy(two_point):
    u = np.array([0.0, 3.0])
    assert mm.total_energy(two_point, u, u, 2.0) == pytest.approx(1.5, rel=1e-15)
    assert mm.total_energy(two_point, u, np.full(2, 9.0), 2.0) == 0.0
    # pairing route: E(u,u) = -sum u * sym(u) * mass
    sym = mm.sym_r_laplacian(two_point, u, 2.0)
    assert -float(np.sum(u * sym * two_point.mass)) == pytest.approx(1.5, rel=1e-14)


def test_kernel_symmetry_and_support(line3):
    k = mm.kernel_matrix(line3, 1.5)
    np.testing.assert_array_equal(k, k.T)
    assert np.all(k[line3.dist >= 1.5] == 0.0)
    assert np.all(k[line3.dist < 1.5] > 0.0)


@pytest.mark.parametrize("rows", [[-1], [3], [0.5], [True, False, True], [[0, 1]], 1])
def test_kernel_rows_must_be_point_indices(line3, rows):
    # a negative index would wrap to the last point, a float would be
    # truncated to a row, and n would be a bare IndexError
    with pytest.raises(mm.InputError, match="point indices"):
        mm.kernel_matrix(line3, 1.5, rows=rows)
    with pytest.raises(mm.InputError, match="point indices"):
        mm._kernel_rows(line3, 1.5, rows)


def test_kernel_rows_accept_any_integer_indices(line3):
    full = mm.kernel_matrix(line3, 1.5)
    np.testing.assert_array_equal(mm.kernel_matrix(line3, 1.5, rows=np.array([2, 0], dtype=np.int8)), full[[2, 0]])
    assert mm.kernel_matrix(line3, 1.5, rows=[]).shape == (0, 3)


def test_monotone_ball_growth():
    rng = np.random.default_rng(12)
    space = mm.FiniteMMSpace(*mm.random_table(rng, 25))
    radii = np.sort(rng.uniform(0.05, 3.0, size=12))
    masses = np.stack([mm.ball_masses(space, r) for r in radii])
    assert np.all(np.diff(masses, axis=0) >= 0)


# the worst residuals of run_identity_suite(60, 40, seed=123) to their bits: a
# stacked operator pass must sum every field as its own pass does
SUITE_WORST_123 = {
    "green": 6.863518579199052e-17,
    "symmetrization": 1.7037686703534768e-16,
    "product_rule": 2.2796395043455393e-16,
    "energy_pairing": 2.9129233345738215e-17,
    "sym_self_adjoint": 3.915693009305345e-17,
    "deviation": 2.330050335020048e-17,
    "adjoint_constant": 1.3572193652341135e-15,
    "constant_kill": 2.51654951095884e-16,
}


def test_identity_suite_random_instances():
    summary = mm.run_identity_suite(60, 40, seed=123)
    assert summary["ok"], summary["worst"]
    assert max(summary["worst"].values()) < 1e-12
    assert summary["worst"] == SUITE_WORST_123


def _recorded_suite(monkeypatch, count, size_max, seed):
    """Run the suite, recording each drawn instance's masses in trial order
    and each batch handed to identity_residuals with its residuals."""
    draws, batches = [], []
    draw, residuals = mm.random_table, mm.identity_residuals

    def recorded_draw(*args):
        dist, mass = draw(*args)
        draws.append(mass.tobytes())
        return dist, mass

    def recorded_residuals(space, u, v, r):
        res = residuals(space, u, v, r)
        batches.append((space, res))
        return res

    monkeypatch.setattr(mm, "random_table", recorded_draw)
    monkeypatch.setattr(mm, "identity_residuals", recorded_residuals)
    summary = mm.run_identity_suite(count, size_max, seed)
    trial_of = {mass: trial for trial, mass in enumerate(draws)}
    per_trial = [None] * count
    for space, res in batches:
        for i, mass in enumerate(space.mass.reshape(-1, space.n)):
            assert per_trial[trial_of[mass.tobytes()]] is None
            per_trial[trial_of[mass.tobytes()]] = {name: vals[i] for name, vals in res.items()}
    return summary, batches, per_trial


# SHA-256 of the per-instance residual dicts, json.dumps of a list per seed
# 0-39 of a list in trial order, of run_identity_suite(300, 40, seed):
# recorded when every instance was evaluated alone
SUITE_RESIDUALS_SHA256 = "fb86760a46831a6791d782ac34c9838e182efe91cb0f88b42f2d7bf882bcc0ae"


def test_batched_suite_keeps_every_residual_bit(monkeypatch):
    seeds = [_recorded_suite(monkeypatch, 300, 40, seed)[2] for seed in range(40)]
    assert hashlib.sha256(json.dumps(seeds).encode()).hexdigest() == SUITE_RESIDUALS_SHA256


def test_suite_batches_each_instance_once_within_the_cap(monkeypatch):
    _, batches, per_trial = _recorded_suite(monkeypatch, 300, 40, 3)
    assert all(res is not None for res in per_trial)  # every trial once (asserted in the helper)
    shapes = [space.dist.shape for space, _ in batches]
    assert all(len(shape) == 3 and shape[0] * shape[1] ** 2 <= mm._SUITE_ENTRIES for shape in shapes)
    assert sum(shape[0] > 1 for shape in shapes) > 1
    assert len({shape[1] for shape in shapes}) == 39 and len(shapes) == 40  # one count filled a batch


def test_batched_space_rows_match_lone_spaces():
    rng = np.random.default_rng(8)
    tables = [mm.random_table(rng, 6) for _ in range(40)]
    tables = [t for t in tables if t[1].size == tables[0][1].size][:3]
    batch = mm.FiniteMMSpace(*map(np.stack, zip(*tables)))
    u = rng.uniform(-1.0, 1.0, size=(2,) + batch.mass.shape)
    for op in (mm.average, mm.adjoint_average, mm.sym_r_laplacian):
        out = op(batch, u, 0.9)
        for i, (dist, mass) in enumerate(tables):
            np.testing.assert_array_equal(out[:, i], op(mm.FiniteMMSpace(dist, mass), u[:, i], 0.9))
    energy, kernel = mm.energy_density(batch, u[0], u[1], 0.9), mm.kernel_matrix(batch, 0.9)
    for i, (dist, mass) in enumerate(tables):
        lone = mm.FiniteMMSpace(dist, mass)
        np.testing.assert_array_equal(energy[i], mm.energy_density(lone, u[0, i], u[1, i], 0.9))
        np.testing.assert_array_equal(kernel[i], mm._kernel_rows(lone, 0.9, np.arange(lone.n)).toarray())


def test_offender_replays_from_its_report(tmp_path, monkeypatch):
    from amvlab.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["identities", "--count", "10", "--fault-inject", "--out", "fault.json"]) == 1
    offender = json.loads((tmp_path / "fault.json").read_text())["offender"]
    space = mm.load_space(io.StringIO(offender["space"]))
    replayed = mm.identity_residuals(space, offender["u"], offender["v"], offender["r"])
    stored = offender["residuals"]
    assert stored.keys() == replayed.keys()
    assert {k: v for k, v in stored.items() if k != "green"} == {k: v for k, v in replayed.items() if k != "green"}
    assert stored["green"] >= replayed["green"]


def test_identity_suite_fault_injection_trips():
    summary = mm.run_identity_suite(5, 15, seed=1, fault_inject=True)
    assert not summary["ok"]
    assert "offender" in summary


def test_identity_suite_empty():
    summary = mm.run_identity_suite(0, 10, seed=0)
    assert summary["ok"] and summary["worst"] == {}


def test_collision_radius_flagging(line3):
    assert mm.is_collision_radius(line3, 1.0)
    assert not mm.is_collision_radius(line3, 1.1)


def test_validation_errors():
    with pytest.raises(mm.InputError):
        mm.FiniteMMSpace(np.array([[0.0, 1.0], [2.0, 0.0]]), np.ones(2))  # asymmetric
    with pytest.raises(mm.InputError):
        mm.FiniteMMSpace(np.zeros((2, 2)), np.array([1.0, 0.0]))  # nonpositive mass
    with pytest.raises(mm.InputError):
        mm.FiniteMMSpace(np.array([[0.1, 0.0], [0.0, 0.1]]), np.ones(2))  # diagonal
    for bad in (np.inf, -np.inf):
        with pytest.raises(mm.InputError, match="^dist and mass must be finite$"):
            mm.FiniteMMSpace(np.array([[0.0, bad], [bad, 0.0]]), np.ones(2))
    sp = mm.FiniteMMSpace(np.zeros((1, 1)), np.ones(1))
    with pytest.raises(mm.InputError):
        mm.as_field(sp, [1.0, 2.0])


def _symmetric_130():
    # 130 points: two full 64-point tiles per side and a partial third
    d = np.triu(np.random.default_rng(8).uniform(0.1, 2.0, size=(130, 130)), 1)
    return d + d.T


@pytest.mark.parametrize("ij", [(129, 3), (3, 129), (70, 10), (10, 70)])
def test_symmetry_check_sees_every_tile(ij):
    d = _symmetric_130()
    mm.FiniteMMSpace(d, np.ones(130))
    d[ij] = np.nextafter(d[ij], np.inf)  # one ulp
    with pytest.raises(mm.InputError, match="^dist must be symmetric$"):
        mm.FiniteMMSpace(d, np.ones(130))


def test_validation_order():
    # all four faults at once; each check must fire before the later ones,
    # and mending the fault it names lets the next check fire
    d = _symmetric_130()
    d[10, 70] = np.nan
    d[70, 10] = -1.0
    d[5, 5] = 0.5
    d[129, 3] += 1.0
    for message, (i, j, mended) in [
        ("dist and mass must be finite", (10, 70, 1.0)),
        ("dist must be nonnegative", (70, 10, 1.0)),
        ("dist must have a zero diagonal", (5, 5, 0.0)),
        ("dist must be symmetric", (129, 3, d[3, 129])),
    ]:
        with pytest.raises(mm.InputError, match=f"^{message}$"):
            mm.FiniteMMSpace(d, np.ones(130))
        d[i, j] = mended
    mm.FiniteMMSpace(d, np.ones(130))


def test_validation_allocates_no_n2_temporary():
    n = 1000
    d = 0.5 * np.abs(np.subtract.outer(np.arange(n), np.arange(n)))  # built before tracing
    mass = np.ones(n)
    tracemalloc.start()
    try:
        mm.FiniteMMSpace(d, mass)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n  # an n x n bool temporary alone takes n^2 bytes


def test_kept_ball_object_follows_the_radius():
    rng = np.random.default_rng(12)
    space = mm.FiniteMMSpace(*mm.random_table(rng, 30))
    u = rng.uniform(-1.0, 1.0, size=space.n)
    mm.ball_masses(space, 0.7)[:] = 1.0  # a caller's copy, not the kept masses
    for r in (0.7, 1.3, 0.7):
        fresh = mm.FiniteMMSpace(space.dist, space.mass)
        assert np.array_equal(mm.ball_masses(space, r), mm.ball_masses(fresh, r))
        assert np.array_equal(mm.sym_r_laplacian(space, u, r), mm.sym_r_laplacian(fresh, u, r))


def test_serialization_roundtrip_exact():
    rng = np.random.default_rng(5)
    space = mm.FiniteMMSpace(*mm.random_table(rng, 17))
    text = mm.space_to_text(space)
    back = mm.load_space(io.StringIO(text))
    assert np.array_equal(space.dist, back.dist)
    assert np.array_equal(space.mass, back.mass)


def test_serialization_grammar():
    text = "# comment\n3\n1.0\n2.0 1.0\n\n1.0 1.0 1.0\n"
    sp = mm.load_space(io.StringIO(text))
    assert sp.n == 3 and sp.dist[2, 0] == 2.0 and sp.dist[0, 2] == 2.0
    with pytest.raises(mm.InputError):
        mm.load_space(io.StringIO("2\n1.0\n"))  # missing mass line
    with pytest.raises(mm.InputError):
        mm.load_space(io.StringIO("2\n1.0 3.0\n1 1\n"))  # too many row entries
    with pytest.raises(mm.InputError, match="'x 1.0'"):
        mm.load_space(io.StringIO("3\n1.0\nx 1.0\n1 1 1\n"))  # a non-numeric entry
    with pytest.raises(mm.InputError, match="'three'"):
        mm.load_space(io.StringIO("  # indented comment\nthree\n"))


def test_writers_golden_bytes(tmp_path):
    """The writers' exact bytes: shortest round-trip decimals, one row per line."""
    d = np.array([[0.0, 0.1, 1e-20], [0.1, 0.0, 2.5e16], [1e-20, 2.5e16, 0.0]])
    space = mm.FiniteMMSpace(d, np.array([0.1, 1e-20, 2.5e16]))
    assert mm.space_to_text(space) == "3\n0.1\n1e-20 2.5e+16\n0.1 1e-20 2.5e+16\n"
    mm.save_space(space, tmp_path / "space.txt")
    assert (tmp_path / "space.txt").read_bytes() == b"3\n0.1\n1e-20 2.5e+16\n0.1 1e-20 2.5e+16\n"
    buf = io.StringIO()
    mm.save_field([0.1, 1e-20, 2.5e16], buf)
    assert buf.getvalue() == "0.1\n1e-20\n2.5e+16\n"
    mm.save_field([0.1, 1e-20, 2.5e16], tmp_path / "field.txt")
    assert (tmp_path / "field.txt").read_bytes() == b"0.1\n1e-20\n2.5e+16\n"


def test_field_serialization_roundtrip():
    vals = np.array([0.1, -2.5, 3.0000000001])
    buf = io.StringIO()
    mm.save_field(vals, buf)
    back = mm.load_field(io.StringIO(buf.getvalue()))
    assert np.array_equal(vals, back)
    assert mm.load_field(io.StringIO("# values\n\n 1.5 \n-2\n")).tolist() == [1.5, -2.0]
    for bad in ("1.0\nabc\n", "1.0 2.0\n"):
        with pytest.raises(mm.InputError, match=repr(bad.splitlines()[-1])):
            mm.load_field(io.StringIO(bad))


def _line3_table():
    # line3 cut at 1.5 as CSR: each row its points within 1.5, columns ascending
    dist = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    cols = np.array([0, 1, 0, 1, 2, 1, 2])
    return dist, cols, np.array([0, 2, 5, 7])


def test_cut_table_operators_match_the_matrix(line3):
    dist, cols, offsets = _line3_table()
    table = mm.FiniteMMSpace(dist, np.ones(3), cols=cols, offsets=offsets, cut=1.5)
    u = np.array([1.0, -0.5, 2.0])
    for r in (1.5, 1.0, 0.5):
        for op in (mm.average, mm.adjoint_average, mm.sym_r_laplacian, mm.r_laplacian):
            np.testing.assert_allclose(op(table, u, r), op(line3, u, r), rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(mm.kernel_matrix(table, r), mm.kernel_matrix(line3, r))
    assert mm.is_collision_radius(table, 1.0) and not mm.is_collision_radius(table, 1.1)


def _with(k, i, value):
    """A fault: copies of the table arrays (dist, cols, offsets) with entries i of the k-th set to value."""
    def fault(*arrays):
        arrays = [a.copy() for a in arrays]
        arrays[k][i] = value
        return arrays
    return fault


OFFSETS = "row offsets must be n \\+ 1 integers rising from 0 to the entry count"


@pytest.mark.parametrize(
    "fault, message",
    [
        (_with(0, 1, 1.25), "dist must be symmetric"),
        (_with(1, slice(3, 5), [2, 1]), "table columns must ascend along each row"),
        (_with(1, 3, 0), "table columns must ascend along each row"),
        (_with(0, 3, 0.5), "dist must have a zero diagonal"),
        (_with(0, 6, np.nan), "dist and mass must be finite"),
        (_with(0, [4, 5], 2.0), "holds no larger distance"),
        (_with(1, 6, 3), "cols must hold point indices"),
        (_with(2, 0, 1), OFFSETS),
        (_with(2, 1, 6), OFFSETS),
        (_with(2, 3, 6), OFFSETS),
        (lambda d, c, o: (d, c, o[:-1]), OFFSETS),
        (lambda d, c, o: (d, c, np.append(o, 7)), OFFSETS),
        (lambda d, c, o: (d, c, o.astype(float)), OFFSETS),
        (lambda d, c, o: (d, c, None), OFFSETS),
    ],
    ids=["asymmetric", "unsorted", "duplicate", "diagonal", "nan", "above-cut", "column-range",
         "offsets-first", "offsets-decreasing", "offsets-last", "offsets-short", "offsets-long", "offsets-float",
         "offsets-missing"],
)
def test_cut_table_validation(fault, message):
    dist, cols, offsets = _line3_table()
    mm.FiniteMMSpace(dist, np.ones(3), cols=cols, offsets=offsets, cut=1.5)
    dist, cols, offsets = fault(dist, cols, offsets)
    with pytest.raises(mm.InputError, match=message):
        mm.FiniteMMSpace(dist, np.ones(3), cols=cols, offsets=offsets, cut=1.5)


def test_cut_table_needs_its_cut():
    dist, cols, offsets = _line3_table()
    for cut in (None, 0.0, np.inf):
        with pytest.raises(mm.InputError, match="cut"):
            mm.FiniteMMSpace(dist, np.ones(3), cols=cols, offsets=offsets, cut=cut)


STACKED_OPS = (mm.average, mm.adjoint_average, mm.sym_r_laplacian, mm.r_laplacian, mm.adjoint_r_laplacian)


@pytest.mark.parametrize("budget", [None, 1 << 12], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("cut, r", [(None, 0.5), (0.5, 0.5), (0.5, 0.3)], ids=["full", "at-cut", "below-cut"])
def test_a_stacked_call_keeps_each_fields_bits(monkeypatch, cut, r, k, budget):
    if budget is not None:  # several row blocks or runs per pass, more for the stack
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", budget)
    space = mo.euclidean_cloud(mo.Euclidean(2), [-1.0, -1.0], [1.0, 1.0], 21, 5, cut=cut)[0]
    assert space.n == 441 and (space.cols is None) == (cut is None)
    if cut is None:  # more than one row block at the default size, even for one field
        assert k * space.n**2 > _kernels._BLOCK_ENTRIES
    stack = np.random.default_rng(k).uniform(-3.0, 3.0, size=(k, space.n))
    for op in STACKED_OPS:
        got = op(space, stack, r)
        assert got.shape == stack.shape
        assert np.array_equal(got, np.stack([op(space, u, r) for u in stack])), op.__name__


def test_a_stack_of_fields_is_checked(line3):
    np.testing.assert_array_equal(mm.as_field(line3, [[1, 2, 3]], stack=True), [[1.0, 2.0, 3.0]])
    for bad in (np.ones((2, 4)), np.ones((3, 2)), np.ones((0, 3)), np.ones((1, 2, 3)), np.ones(4)):
        with pytest.raises(mm.InputError, match="^field must have length 3 \\(a stack"):
            mm.as_field(line3, bad, stack=True)
    for bad in (np.nan, np.inf):
        with pytest.raises(mm.InputError, match="^field entries must be finite$"):
            mm.as_field(line3, [[1.0, 2.0, 3.0], [0.0, bad, 0.0]], stack=True)
        with pytest.raises(mm.InputError, match="finite"):
            mm.average(line3, [[1.0, 2.0, 3.0], [0.0, bad, 0.0]], 1.5)
    # a stack is refused where only a field is meant
    with pytest.raises(mm.InputError, match="^field must have length 3, got shape \\(2, 3\\)$"):
        mm.as_field(line3, np.ones((2, 3)))
    with pytest.raises(mm.InputError):
        mm.energy_density(line3, np.ones((2, 3)), np.ones(3), 1.5)
