"""Acceptance suite: one test per criterion, at its declared tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion with the measured numbers.  Criterion 10
(determinism) re-produces the artifacts of the other criteria and compares
bytes, and drives the CLI across thread counts.
"""

import json
import math
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from amvlab import carnot as ca
from amvlab import dirichlet as di
from amvlab import experiments as ex
from amvlab import integrate as it
from amvlab import mmspace as mm
from amvlab import models as mo
from amvlab.fields import Callable1, ConeTent, Monomial, Tent

H1 = ca.heisenberg(1)
KORANYI = ca.Gauge("koranyi")
H1_SPACE = mo.CarnotSpace(H1, KORANYI)

# fit tolerance declared for the interior-supported sym-vs-plain runs; it
# must sit below the 0.05 separation the half-space bound requires
SYM_FIT_TOL = 0.04

_artifacts: dict = {}


def _record(name: str, payload: str) -> None:
    _artifacts[name] = payload


def _estimate_json(e: it.Estimate) -> str:
    return json.dumps(asdict(e), sort_keys=True)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {name}: {detail}"


# -- criterion 1: exact identity suite ---------------------------------------


def produce_identities():
    return mm.run_identity_suite(200, 40, seed=7)


def test_criterion_1_exact_identities():
    summary = produce_identities()
    _record("identities", json.dumps(summary, sort_keys=True))
    worst = max(summary["worst"].values())
    _report("1", summary["ok"] and worst < 1e-12,
            f"200 random spaces, worst relative residual {worst:.3e} < 1e-12")


# -- criterion 2: Euclidean mean value constant -------------------------------


def produce_euclidean_constant():
    lines = []
    for n, field, lap in (
        (2, Monomial(2, (2, 0)), 2.0),
        (2, Monomial(2, (2, 0)) + Monomial(2, (1, 1), 3.0) + Monomial(2, (0, 2), -2.0), -2.0),
        (3, Monomial(3, (2, 0, 0)) + Monomial(3, (0, 1, 1)), 2.0),
    ):
        space = mo.Euclidean(n)
        x = np.full(n, 0.31)
        ref = lap / (2.0 * (n + 2))
        for r in (0.3, 0.7, 1.1):
            est = it.r_laplacians(space, field, x, [r], it.GridScheme(8))[0][0]
            rel = abs(est.value - ref) / abs(ref)
            lines.append((n, r, est.value, rel))
            assert rel < 1e-6, (n, r, rel)
    # Monte Carlo route within 3 standard errors
    mc = it.r_laplacians(
        mo.Euclidean(2), Monomial(2, (2, 0)), np.full(2, 0.31), [0.7],
        it.MCScheme(300_000, it.SeedSpec(2026)),
    )[0][0]
    assert abs(mc.value - 0.25) <= 3.0 * mc.std_error
    return lines, mc


def test_criterion_2_euclidean_constant():
    lines, mc = produce_euclidean_constant()
    _record("euclid_constant", json.dumps(lines))
    worst = max(rel for *_x, rel in lines)
    _report("2", worst < 1e-6,
            f"grid worst relative error {worst:.2e} < 1e-6 over quadratics in n=2,3; "
            f"mc within {abs(mc.value - 0.25) / mc.std_error:.2f} sigma")


# -- criterion 3: Carnot group constant ---------------------------------------


def produce_carnot_constant():
    grid, mc = it.carnot_constant_checked(
        H1, KORANYI, it.MCScheme(10_000_000, it.SeedSpec(20260809)), grid_res=32
    )
    sweep = ex.amv_sweep(
        H1_SPACE, ca.horizontal_sqnorm(H1), np.zeros(3),
        ex.default_radii(1.0, 8, 0.5), it.GridScheme(24),
        reference=4.0 / (3.0 * math.pi), tolerance=1e-3,
    )
    return grid, mc, sweep


def test_criterion_3_carnot_constant():
    target = 1.0 / (3.0 * math.pi)
    grid, mc, sweep = produce_carnot_constant()
    _record("carnot_constant", _estimate_json(grid) + _estimate_json(mc) + sweep.to_json())
    rel_grid = abs(grid.value - target) / target
    rel_mc = abs(mc.value - target) / target
    sweep_rel = max(abs(v - sweep.reference) / sweep.reference for v in sweep.values)
    ok = rel_grid < 1e-3 and rel_mc < 1e-3 and sweep_rel < 1e-3 and sweep.verdict == "pass"
    _report("3", ok,
            f"constant: grid rel {rel_grid:.2e}, mc(1e7) rel {rel_mc:.2e} (both < 1e-3, "
            f"cross-checked); amv values at origin within {sweep_rel:.2e} of 4/(3*pi)")


# -- criterion 4: strong scan of the fundamental solution ----------------------


def produce_strong_scan():
    grid_pts = ex.gauge_annulus_grid(H1_SPACE, 1.0, 2.0, 50, seed=31)
    radii = ex.default_radii(0.4, 6, 0.5)
    harmonic = ex.strong_amv_scan(
        H1_SPACE, ca.fundamental_power(H1), grid_pts, radii, it.GridScheme(14),
        reference=0.0, tolerance=1e-3,
    )
    control = ex.strong_amv_scan(
        H1_SPACE, ca.horizontal_sqnorm(H1), grid_pts, radii, it.GridScheme(14),
        reference=0.0, tolerance=1e-3,
    )
    return harmonic, control


def test_criterion_4_strong_amv_fundamental_solution():
    harmonic, control = produce_strong_scan()
    _record("strong_scan", harmonic.to_json() + control.to_json())
    sups = harmonic.values
    monotone = all(
        sups[i + 1] <= sups[i] + 3.0 * (harmonic.std_errors[i] + harmonic.std_errors[i + 1])
        for i in range(len(sups) - 1)
    )
    threshold = 5e-3 * max(sups)
    ok = monotone and abs(harmonic.fitted_limit) < threshold and control.verdict == "fail"
    _report("4", ok,
            f"sup decays {sups[0]:.2e} -> {sups[-1]:.2e} (monotone={monotone}), "
            f"limit {harmonic.fitted_limit:.2e} within 5e-3*max={threshold:.2e} of 0; "
            f"negative control verdict {control.verdict}")


# -- criterion 5: symmetrized vs plain ----------------------------------------


def produce_sym_vs_plain():
    eu = mo.Euclidean(2)
    radii = ex.default_radii(0.5, 6, 0.8)
    cloud, pts, meta = mo.euclidean_cloud(eu, [-1.5, -1.5], [1.5, 1.5], 72, seed=99, cut=radii[0])
    u_eu = Callable1(2, lambda p: np.sin(2 * p[..., 0]) + 0.5 * np.cos(3 * p[..., 1]))
    rep_eu = ex.sym_vs_plain_sweep(
        cloud, pts, meta, u_eu, Tent(2, [0.0, 0.0], 0.4, 0.8),
        radii, reference=0.0, tolerance=SYM_FIT_TOL,
    )

    cone = mo.FlatCone(math.pi)
    radii = ex.default_radii(0.35, 6, 0.8)
    ccloud, cpts, cmeta = mo.cone_cloud(cone, 1.4, 48, 96, seed=11, cut=radii[0])
    u_cone = Callable1(2, lambda p: p[..., 0] * np.cos(2.0 * p[..., 1]) + 0.3 * p[..., 0])
    rep_cone = ex.sym_vs_plain_sweep(
        ccloud, cpts, cmeta, u_cone, ConeTent(0.3, 0.6),
        radii, reference=0.0, tolerance=SYM_FIT_TOL,
    )

    hs = mo.HalfSpace(2)
    radii = ex.default_radii(0.45, 6, 0.8)
    hcloud, hpts, hmeta = mo.half_space_cloud(
        hs, hi=[2.0, 2.0], cells_per_axis=[40, 80], seed=7, lo=[0.0, -2.0], cut=radii[0]
    )
    u_half = ca.coordinate(2, 0)  # distance to the boundary
    rep_half = ex.sym_vs_plain_sweep(
        hcloud, hpts, hmeta, u_half, Tent(2, [0.0, 0.0], 1.0, 1.25),
        radii, reference=None, tolerance=SYM_FIT_TOL,
    )
    return rep_eu, rep_cone, rep_half


@pytest.mark.slow
def test_criterion_5_sym_vs_plain():
    rep_eu, rep_cone, rep_half = produce_sym_vs_plain()
    _record("sym_vs_plain", rep_eu.to_json() + rep_cone.to_json() + rep_half.to_json())
    ok = (
        abs(rep_eu.fitted_limit) < SYM_FIT_TOL
        and rep_eu.verdict == "pass"
        and abs(rep_cone.fitted_limit) < SYM_FIT_TOL
        and rep_cone.verdict == "pass"
        and abs(rep_half.fitted_limit) > 0.05
    )
    _report("5", ok,
            f"interior-supported limits: euclidean {rep_eu.fitted_limit:.4f}, "
            f"cone {rep_cone.fitted_limit:.4f} (|.| < {SYM_FIT_TOL}); "
            f"half-space boundary limit {rep_half.fitted_limit:.4f} (|.| > 0.05)")


# -- criterion 6: mm-boundary -------------------------------------------------


def produce_mm_boundary():
    radii = ex.default_radii(0.4, 7, 0.6)
    kappa = 2.0 / (3.0 * math.pi)
    rep_eu = ex.mm_boundary_sweep(
        mo.Euclidean(2), mo.Region.ball([0.0, 0.0], 1.0), radii, reference=0.0, tolerance=1e-9
    )
    rep_half = ex.mm_boundary_sweep(
        mo.HalfSpace(2), mo.Region.box([0.0, 0.0], [1.0, 1.0]), radii,
        reference=kappa, tolerance=0.02 * kappa,
    )
    rep_cone = ex.mm_boundary_sweep(
        mo.FlatCone(math.pi), mo.Region.ball([0.0, 0.0], 1.0), radii,
        reference=0.0, tolerance=1e-3,
    )
    return rep_eu, rep_half, rep_cone


def test_criterion_6_mm_boundary():
    kappa = 2.0 / (3.0 * math.pi)
    rep_eu, rep_half, rep_cone = produce_mm_boundary()
    _record("mm_boundary", rep_eu.to_json() + rep_half.to_json() + rep_cone.to_json())
    ok = (
        all(v == 0.0 for v in rep_eu.values)
        and abs(rep_half.fitted_limit - kappa) < 0.02 * kappa
        and rep_half.verdict == "pass"
        and rep_cone.verdict == "pass"
        and rep_cone.fitted_rate == pytest.approx(1.0, abs=0.2)
    )
    _report("6", ok,
            f"euclidean exactly 0 at all radii; half-space limit {rep_half.fitted_limit:.6f} "
            f"vs 2/(3*pi)={kappa:.6f} within 2%; cone decay rate "
            f"{rep_cone.fitted_rate:.3f} = 1 +- 0.2")


# -- criterion 7: Dirichlet stationarity --------------------------------------


def produce_dirichlet():
    rng = np.random.default_rng(1234)
    stats = []
    for _ in range(50):
        space = mm.random_space(rng, 40)
        while space.n < 8:  # keep a nonempty interior after the split
            space = mm.random_space(rng, 40)
        n = space.n
        r = float(rng.uniform(0.8, 2.0))
        while mm.is_collision_radius(space, r):  # pragma: no cover
            r = float(rng.uniform(0.8, 2.0))
        boundary = rng.choice(n, size=max(2, n // 4), replace=False)
        interior = np.setdiff1d(np.arange(n), boundary)
        g = rng.uniform(-2.0, 2.0, size=boundary.size)
        part = di.BoundaryPartition(interior, boundary, g)
        u, _ = di.solve(space, part, r)
        scale = float(np.max(np.abs(g)))
        resid = di.residual(space, part, u, r)
        eps = 1e-12 * (g.max() - g.min() + 1.0)
        max_principle = bool(
            u[interior].min() >= g.min() - eps and u[interior].max() <= g.max() + eps
        )
        e0 = mm.total_energy(space, u, u, r)
        strict = True
        for _ in range(100):
            v = np.zeros(n)
            v[interior] = rng.uniform(-1.0, 1.0, interior.size) * 0.4
            if not np.any(v[interior]):
                continue
            if mm.total_energy(space, u + v, u + v, r) <= e0:
                strict = False
                break
        stats.append((resid / scale, max_principle, strict))
    return stats


def test_criterion_7_dirichlet_stationarity():
    stats = produce_dirichlet()
    _record("dirichlet", json.dumps(stats))
    worst_resid = max(s[0] for s in stats)
    ok = (
        worst_resid <= 1e-10
        and all(s[1] for s in stats)
        and all(s[2] for s in stats)
    )
    _report("7", ok,
            f"50 instances: worst residual/scale {worst_resid:.2e} <= 1e-10, "
            f"maximum principle holds, 100 perturbations each strictly increase the energy")


# -- criterion 8: isotropy ----------------------------------------------------


def produce_isotropy():
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((20, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return it.isotropy_check(H1, KORANYI, dirs, it.MCScheme(10_000_000, it.SeedSpec(17)))


@pytest.mark.slow
def test_criterion_8_isotropy():
    ests = produce_isotropy()
    _record("isotropy", "".join(_estimate_json(e) for e in ests))
    vals = [e.value for e in ests]
    ratio = max(vals) / min(vals)
    target = 2.0 / (3.0 * math.pi)
    worst_rel = max(abs(v - target) / target for v in vals)
    ok = ratio <= 1.01 and worst_rel < 0.01
    _report("8", ok,
            f"20 random horizontal directions at 1e7 samples: max/min {ratio:.5f} <= 1.01, "
            f"worst deviation from 2/(3*pi) {worst_rel:.2%} < 1%")


# -- criterion 9: group and gauge axiom property suite -------------------------


def produce_axioms():
    rng = np.random.default_rng(55)
    worst = {"assoc": 0.0, "inverse": 0.0, "dilation": 0.0, "positivity": True,
             "symmetry": 0.0, "left_invariance": 0.0, "field_invariance": 0.0}
    n_instances = 0
    groups = [H1, ca.heisenberg(2)]
    for _ in range(8):
        v1 = int(rng.integers(2, 5))
        v2 = int(rng.integers(1, 4))
        b = rng.uniform(-1, 1, size=(v2, v1, v1))
        groups.append(ca.CarnotStep2(v1, v2, b - np.swapaxes(b, 1, 2)))
    per_group = 1000
    for g in groups:
        x, y, z = rng.uniform(-2, 2, size=(3, per_group, g.dim))
        n_instances += per_group
        worst["assoc"] = max(
            worst["assoc"],
            float(np.max(np.abs(g.multiply(g.multiply(x, y), z) - g.multiply(x, g.multiply(y, z))))),
        )
        worst["inverse"] = max(
            worst["inverse"], float(np.max(np.abs(g.multiply(x, g.inverse(x)))))
        )
        for gauge in (ca.Gauge("koranyi"), ca.Gauge("scaled_koranyi", 16.0)):
            vals = gauge.value(g, x)
            t = float(rng.uniform(0.3, 3.0))
            dil = gauge.value(g, g.dilate(t, x))
            worst["dilation"] = max(worst["dilation"], float(np.max(np.abs(dil - t * vals) / (t * vals))))
            worst["positivity"] = worst["positivity"] and bool(np.all(vals > 0))
            worst["symmetry"] = max(
                worst["symmetry"], float(np.max(np.abs(gauge.value(g, g.inverse(x)) - vals)))
            )
            space = mo.CarnotSpace(g, gauge)
            d0 = space.distance(x, y)
            d1 = space.distance(g.multiply(z, x), g.multiply(z, y))
            worst["left_invariance"] = max(
                worst["left_invariance"], float(np.max(np.abs(d0 - d1) / np.maximum(d0, 1e-9)))
            )
        # horizontal field left-invariance by finite differences
        u = ca.gauge_power(g, ca.Gauge("scaled_koranyi", 16.0), 3.0)
        base = rng.uniform(0.6, 1.2, size=(50, g.dim))
        shift = rng.uniform(-0.5, 0.5, size=g.dim)
        gx = g.multiply(shift, base)
        h = 1e-6
        for j in range(g.v1):
            e = np.zeros(g.dim)
            e[j] = 1.0
            fd = (u.value(g.multiply(gx, h * e)) - u.value(g.multiply(gx, -h * e))) / (2 * h)
            closed = ca.left_field(g, j, u, gx)
            worst["field_invariance"] = max(
                worst["field_invariance"],
                float(np.max(np.abs(fd - closed) / np.maximum(np.abs(closed), 1.0))),
            )
    return n_instances, worst


def test_criterion_9_group_gauge_axioms():
    n_instances, worst = produce_axioms()
    _record("axioms", json.dumps({k: (v if not isinstance(v, bool) else int(v))
                                  for k, v in worst.items()}, sort_keys=True))
    ok = (
        n_instances >= 10_000
        and worst["assoc"] < 1e-12
        and worst["inverse"] < 1e-12
        and worst["dilation"] < 1e-12
        and worst["positivity"]
        and worst["symmetry"] == 0.0
        and worst["left_invariance"] < 1e-12
        and worst["field_invariance"] < 1e-5
    )
    _report("9", ok,
            f"{n_instances} random instances: associativity {worst['assoc']:.1e}, "
            f"inverses {worst['inverse']:.1e}, dilation homogeneity {worst['dilation']:.1e}, "
            f"distance left-invariance {worst['left_invariance']:.1e} (all < 1e-12); "
            f"field left-invariance by finite differences {worst['field_invariance']:.1e} < 1e-5")


# -- criterion 10: determinism -------------------------------------------------


PRODUCERS = {
    "identities": lambda: json.dumps(produce_identities(), sort_keys=True),
    "euclid_constant": lambda: json.dumps(produce_euclidean_constant()[0]),
    "carnot_constant": lambda: (lambda g, m, s: _estimate_json(g) + _estimate_json(m) + s.to_json())(
        *produce_carnot_constant()
    ),
    "strong_scan": lambda: "".join(r.to_json() for r in produce_strong_scan()),
    "sym_vs_plain": lambda: "".join(r.to_json() for r in produce_sym_vs_plain()),
    "mm_boundary": lambda: "".join(r.to_json() for r in produce_mm_boundary()),
    "dirichlet": lambda: json.dumps(produce_dirichlet()),
    "isotropy": lambda: "".join(_estimate_json(e) for e in produce_isotropy()),
    "axioms": lambda: json.dumps(
        {k: (v if not isinstance(v, bool) else int(v)) for k, v in produce_axioms()[1].items()},
        sort_keys=True,
    ),
}


@pytest.mark.slow
def test_criterion_10_determinism(cli_env):
    mismatched = []
    for name, producer in PRODUCERS.items():
        first = _artifacts.get(name)
        again = producer()
        if first is None:
            first = producer()
        if first != again:
            mismatched.append(name)
    # and the CLI across thread counts, in subprocesses
    base = [sys.executable, "-m", "amvlab.cli", "amv-sweep", "carnot:heisenberg:1:koranyi",
            "--field", "hsq", "--point", "0.2,0.1,0.05", "--radii", "0.5:4:0.5",
            "--scheme", "mc:200000:9", "--tolerance", "0.01"]
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([*base, "--threads", "1", "--out", "one.json"], cwd=tmp, env=cli_env,
                       check=True, capture_output=True)
        subprocess.run([*base, "--threads", "4", "--out", "four.json"], cwd=tmp, env=cli_env,
                       check=True, capture_output=True)
        a = json.load(open(f"{tmp}/one.json"))
        b = json.load(open(f"{tmp}/four.json"))
        a["metadata"]["config"]["threads"] = b["metadata"]["config"]["threads"] = 0
        a["metadata"]["config"]["out"] = b["metadata"]["config"]["out"] = None
        threads_same = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    ok = not mismatched and threads_same
    _report("10", ok,
            f"rerun artifacts byte-identical for {len(PRODUCERS)} criteria "
            f"(mismatches: {mismatched or 'none'}); CLI --threads 1 vs 4 identical: {threads_same}")
