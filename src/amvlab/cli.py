"""Command-line surface: reproducible experiment runs with file reports.

Every run is a pure function of its parsed configuration: reports carry no
timestamps, so identical invocations produce byte-identical JSON/CSV, and
--threads, the width of one thread pool over a cloud build's row blocks or
a sweep's whole Monte Carlo estimates, never changes an output bit.
stdout carries a single verdict line plus the report path; everything else
goes to the declared output path.

A bad spec, size flag or input file exits 2 before anything is written,
with one "ERROR <command>: ..." line on stderr naming what was typed; a
failed allocation (MemoryError) is reported the same way.
numpy's floating-point warnings never reach stderr; they are logged at
debug level on the "amvlab.cli" logger.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, experiments, integrate, mmspace, models
from .carnot import (
    coordinate,
    fundamental_power,
    gauge_power,
    horizontal_sqnorm,
    layer2_coordinate,
    sub_laplacian,
)
from .fields import ConeTent, Monomial, ShiftedSquareNorm, Tent, harmonic_cubic
from .mmspace import InputError, malformed
from .models import CarnotSpace, Euclidean, FlatCone, HalfSpace

logger = logging.getLogger("amvlab.cli")


def _above(flag: str, bound, *values) -> None:
    """Refuse a size flag whose value (each, for a list) is not above bound."""
    for v in values:
        if not v > bound:
            raise InputError(f"{flag} must be > {bound}, got {v!r}")


def parse_radii(spec: str) -> list[float]:
    """Either a comma list '0.5,0.25' or a geometric 'r0:count:ratio'."""
    with malformed("radii", spec):
        if ":" not in spec:
            return experiments.check_radii([float(v) for v in spec.split(",")])
        tok = spec.split(":")
        if len(tok) != 3:
            raise InputError("a geometric radii spec is r0:count:ratio")
        return experiments.default_radii(float(tok[0]), int(tok[1]), float(tok[2]))


def parse_point(spec: str) -> np.ndarray:
    with malformed("point", spec):
        return np.array([float(v) for v in spec.split(",")], dtype=np.float64)


def build_field(space, name: str):
    """Field catalog by CLI name; see README for the list."""
    tok = name.split(":")
    dim = space.dim
    with malformed("field", name):
        if tok[0] in ("sq1", "sq2", "sq3"):
            i = int(tok[0][2]) - 1
            if i >= dim:
                raise InputError(f"{tok[0]} needs at least {i + 1} coordinates")
            exps = [0] * dim
            exps[i] = 2
            return Monomial(dim, exps)
        if tok[0] == "coord" and len(tok) == 2:
            return coordinate(dim, int(tok[1]) - 1)
        if tok[0] == "monomial" and len(tok) == 2:
            return Monomial(dim, [int(e) for e in tok[1].split(",")])
        if tok[0] == "harmonic3":
            return harmonic_cubic(dim)
        if tok[0] == "hsq":
            if isinstance(space, CarnotSpace):
                return horizontal_sqnorm(space.group)
            return ShiftedSquareNorm(dim, 0, dim)
        if isinstance(space, CarnotSpace):
            if tok[0] == "layer2" and len(tok) == 2:
                return layer2_coordinate(space.group, int(tok[1]) - 1)
            if tok[0] == "folland":
                return fundamental_power(space.group)
            if tok[0] == "gaugepow" and len(tok) == 2:
                return gauge_power(space.group, space.gauge, float(tok[1]))
    raise InputError(f"unknown field {name!r} for space kind {space.kind!r}")


def build_phi(space, name: str):
    tok = name.split(":")
    with malformed("pairing function", name):
        if tok[0] == "tent" and len(tok) == 4:
            return Tent(space.dim, parse_point(tok[1]), float(tok[2]), float(tok[3]))
        if tok[0] == "conetent" and len(tok) == 3:
            return ConeTent(float(tok[1]), float(tok[2]))
    raise InputError(f"unknown pairing function {name!r}")


def default_cloud(space, cells: int, seed: int, threads: int = 1, cut=None):
    """Canned discretizations per space kind (see README); with cut, the
    cloud holds only the pairs within that radius."""
    if isinstance(space, (Euclidean, HalfSpace)) and space.dim != 2:
        raise InputError("canned clouds ship for 2-d spaces")
    if isinstance(space, Euclidean):
        return models.euclidean_cloud(space, [-1.5, -1.5], [1.5, 1.5], cells, seed, threads=threads, cut=cut)
    if isinstance(space, HalfSpace):
        return models.half_space_cloud(
            space, hi=[2.0, 2.0], cells_per_axis=[cells // 2, cells], seed=seed, lo=[0.0, -2.0],
            threads=threads, cut=cut,
        )
    if isinstance(space, FlatCone):
        return models.cone_cloud(space, rho_max=1.4, n_rho=cells // 2, n_phi=cells, seed=seed,
                                 threads=threads, cut=cut)
    raise InputError(f"no canned cloud for the {space.kind} kind")


def _write_report(report, args, out: str | None = None) -> str:
    """Write a report as sorted, 2-space-indented JSON with the parsed
    command line attached as its config (every option under its argparse
    name), and return its path (default <command>.json).

    An ExperimentReport also records the package version and gets its CSV
    table written alongside; any other report is a plain dict.
    """
    out = out or args.out or f"{args.command}.json"
    config = {k: v for k, v in vars(args).items() if k != "fn"}
    if isinstance(report, experiments.ExperimentReport):
        report.metadata["config"] = config
        report.metadata["version"] = __version__
        csv_path = out[:-5] + ".csv" if out.endswith(".json") else out + ".csv"
        with open(csv_path, "w") as f:
            f.write(report.to_csv())
        text = report.to_json()
    else:
        text = json.dumps({**report, "config": config}, sort_keys=True, indent=2)
    with open(out, "w") as f:
        f.write(text + "\n")
    return out


def _finish(report, args) -> int:
    path = _write_report(report, args)
    print(f"{report.verdict.upper()} {args.command}: limit {report.fitted_limit!r} "
          f"(reference {report.reference!r}, tolerance {report.tolerance!r}) -> {path}")
    return 0 if report.verdict == "pass" else 1


def _auto_reference(space, u, x) -> float | None:
    """Known small-scale limits: trace Hessian / (2(n+2)) on flat space,
    the group's closed-form constant times the horizontal Laplacian on a
    Carnot group with a quartic gauge."""
    try:
        if isinstance(space, Euclidean):
            tr = float(np.trace(u.hessian(x[None, :])[0]))
            return tr / (2.0 * (space.dim + 2))
        if isinstance(space, CarnotSpace):
            return space.mean_value_constant() * float(sub_laplacian(space.group, u, x[None, :])[0])
    except (NotImplementedError, InputError):
        return None
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_identities(args) -> int:
    _above("--count", 0, args.count)
    _above("--size-max", 1, args.size_max)
    summary = mmspace.run_identity_suite(args.count, args.size_max, args.seed, args.fault_inject)
    out = _write_report(summary, args)
    worst = max(summary["worst"].values()) if summary["worst"] else 0.0
    status = "PASS" if summary["ok"] else "FAIL"
    print(f"{status} identities: {args.count} instances, worst residual {worst!r} -> {out}")
    return 0 if summary["ok"] else 1


def cmd_amv_sweep(args) -> int:
    space = models.parse_space(args.space)
    u = build_field(space, args.field)
    x = parse_point(args.point)
    radii = parse_radii(args.radii)
    scheme = integrate.parse_scheme(args.scheme)
    reference = args.reference if args.reference is not None else _auto_reference(space, u, x)
    report = experiments.amv_sweep(
        space, u, x, radii, scheme, reference=reference, tolerance=args.tolerance, threads=args.threads
    )
    return _finish(report, args)


def cmd_strong_scan(args) -> int:
    space = models.parse_space(args.space)
    if not isinstance(space, CarnotSpace):
        raise InputError("strong-scan grids are gauge annuli; use a carnot space")
    u = build_field(space, args.field)
    with malformed("annulus", args.annulus):
        lo, hi = (float(v) for v in args.annulus.split(","))
    _above("--grid-size", 0, args.grid_size)
    grid = experiments.gauge_annulus_grid(space, lo, hi, args.grid_size, args.seed)
    report = experiments.strong_amv_scan(
        space, u, grid, parse_radii(args.radii), integrate.parse_scheme(args.scheme),
        reference=args.reference, tolerance=args.tolerance, threads=args.threads,
    )
    return _finish(report, args)


def cmd_weak_sweep(args) -> int:
    space = models.parse_space(args.space)
    u = build_field(space, args.field)
    phi = build_phi(space, args.phi)
    radii = parse_radii(args.radii)
    _above("--cloud-cells", 1, args.cloud_cells)
    cloud, pts, meta = default_cloud(space, args.cloud_cells, args.seed, args.threads, cut=radii[0])
    fn = experiments.sym_vs_plain_sweep if args.command == "sym-vs-plain" else experiments.weak_amv_sweep
    report = fn(cloud, pts, meta, u, phi, radii, reference=args.reference, tolerance=args.tolerance)
    return _finish(report, args)


def cmd_mm_boundary(args) -> int:
    space = models.parse_space(args.space)
    region = models.parse_region(args.region)
    reference = args.reference
    if reference is None:
        if isinstance(space, (Euclidean, FlatCone)):
            reference = 0.0
        elif isinstance(space, HalfSpace) and region.kind == "unit":
            reference = models.half_space_unit_limit(space.dim)
    report = experiments.mm_boundary_sweep(
        space, region, parse_radii(args.radii), reference=reference, tolerance=args.tolerance
    )
    return _finish(report, args)


def cmd_carnot_constant(args) -> int:
    space = models.carnot_preset(args.preset, args.gauge, args.beta)
    _above("--mc-n", 0, args.mc_n)
    _above("--grid-res", 0, args.grid_res)
    grid_est, mc_est = integrate.carnot_constant_checked(
        space.group, space.gauge, integrate.MCScheme(args.mc_n, integrate.SeedSpec(args.seed)),
        grid_res=args.grid_res,
    )
    out = _write_report({"grid": asdict(grid_est), "mc": asdict(mc_est)}, args)
    print(f"PASS carnot-constant: grid {grid_est.value!r} mc {mc_est.value!r} -> {out}")
    return 0


def cmd_isotropy(args) -> int:
    space = models.carnot_preset(args.preset, args.gauge, args.beta)
    _above("--directions", 0, args.directions)
    rng = np.random.default_rng(args.seed)
    dirs = rng.standard_normal((args.directions, space.group.v1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ests = integrate.isotropy_check(space.group, space.gauge, dirs, integrate.parse_scheme(args.scheme))
    vals = [e.value for e in ests]
    ratio = max(vals) / min(vals)
    out = _write_report(
        {
            "estimates": [asdict(e) for e in ests],
            "directions": dirs.tolist(),
            "max_over_min": ratio,
        },
        args,
    )
    ok = ratio <= 1.0 + args.tolerance
    print(f"{'PASS' if ok else 'FAIL'} isotropy: max/min {ratio!r} over {args.directions} directions -> {out}")
    return 0 if ok else 1


def cmd_dirichlet(args) -> int:
    from . import dirichlet  # with scipy's sparse solvers, which only this and cmd_bpz_demo use

    space = mmspace.load_space(args.space_file)
    part = dirichlet.load_mask(args.mask_file, space.n)
    u, resid = dirichlet.solve(space, part, args.r)
    out = args.out or "dirichlet-solution.txt"
    mmspace.save_field(u, out)
    _write_report({"residual": resid, "interior": part.interior.tolist()}, args, out + ".json")
    print(f"PASS dirichlet: residual {resid!r} -> {out}")
    return 0


def cmd_bpz_demo(args) -> int:
    from . import dirichlet  # as in cmd_dirichlet

    space = models.carnot_preset(args.preset, args.gauge, args.beta)
    u = build_field(space, args.field)
    with malformed("resolutions", args.resolutions):
        resolutions = [int(v) for v in args.resolutions.split(",")]
    with malformed("level radii", args.level_radii):
        level_radii = [float(v) for v in args.level_radii.split(",")]
    _above("--R", 0, args.R)
    _above("--resolutions", 0, *resolutions)
    report = dirichlet.bpz_demo(
        space.group, space.gauge, u, args.R, resolutions, level_radii,
        seed=args.seed, tolerance=args.tolerance, threads=args.threads,
    )
    return _finish(report, args)


# ---------------------------------------------------------------------------


def _common(p, scheme_default=None, seed=True, threads=True):
    """The sweep options; --seed and --threads only where they take effect."""
    p.add_argument("--radii", default="0.4:6:0.5", help="comma list or r0:count:ratio")
    if scheme_default:
        p.add_argument("--scheme", default=scheme_default, help="mc:n:seed or grid:res")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report path (JSON; CSV written alongside)")
    p.add_argument("--tolerance", type=float, default=1e-3)
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="pool width over cloud row blocks or Monte Carlo estimates; never changes output bits")
    p.add_argument("--reference", type=float, default=None)


def _group_parser(sub, name: str, summary: str, seed: int):
    """A subcommand on preset and gauge, with --beta, --seed and --out."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("preset", help="heisenberg:n")
    p.add_argument("gauge", help="koranyi or scaled")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=None)
    return p


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args never
    changes it, and a fresh tree per main call is only cyclic garbage."""
    ap = argparse.ArgumentParser(
        prog="amvlab",
        description="Finite-scale mean value calculus: operators, constants, and sweeps.",
    )
    ap.add_argument("--version", action="version", version=f"amvlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="exact operator-identity suite on random finite spaces")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--size-max", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.add_argument("--fault-inject", action="store_true",
                   help="perturb one mass as a negative control (must exit 1)")
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("amv-sweep", help="finite-scale laplacian at a point across radii")
    p.add_argument("space")
    p.add_argument("--field", required=True)
    p.add_argument("--point", required=True)
    _common(p, scheme_default="grid:16", seed=False)  # MC seeds come from --scheme
    p.set_defaults(fn=cmd_amv_sweep)

    p = sub.add_parser("strong-scan", help="sup over a gauge annulus grid per radius")
    p.add_argument("space")
    p.add_argument("--field", required=True)
    p.add_argument("--annulus", default="1.0,2.0")
    p.add_argument("--grid-size", type=int, default=50)
    _common(p, scheme_default="grid:14")
    p.set_defaults(fn=cmd_strong_scan)

    for name, summary in (("weak-sweep", "pairing against the r-laplacian on a cloud"),
                       ("sym-vs-plain", "pairing against (plain - symmetrized) laplacian")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("space")
        p.add_argument("--field", required=True)
        p.add_argument("--phi", required=True)
        p.add_argument("--cloud-cells", type=int, default=64)
        _common(p)
        p.set_defaults(fn=cmd_weak_sweep)

    p = sub.add_parser("mm-boundary", help="scaled density-deficit mass across radii")
    p.add_argument("space")
    p.add_argument("--region", default="unit")
    _common(p, seed=False, threads=False)  # deterministic quadrature, no row blocks
    p.set_defaults(fn=cmd_mm_boundary)

    p = _group_parser(sub, "carnot-constant", "mean value constant, grid and MC cross-checked",
                      seed=20260809)
    p.add_argument("--mc-n", type=int, default=10_000_000)
    p.add_argument("--grid-res", type=int, default=32)
    p.set_defaults(fn=cmd_carnot_constant)

    p = _group_parser(sub, "isotropy", "directional second moments over the unit gauge ball", seed=3)
    p.add_argument("--directions", type=int, default=20)
    p.add_argument("--scheme", default="mc:10000000:17")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.set_defaults(fn=cmd_isotropy)

    p = sub.add_parser("dirichlet", help="solve a boundary value problem from space + mask files")
    p.add_argument("space_file")
    p.add_argument("mask_file")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_dirichlet)

    p = _group_parser(sub, "bpz-demo", "reproduce a harmonic field from gauge-ball boundary data",
                      seed=2)
    p.add_argument("--field", default="coord:1")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--resolutions", default="12,16,20")
    p.add_argument("--level-radii", default="0.5,0.44,0.38")
    p.add_argument("--tolerance", type=float, default=0.08)
    p.add_argument("--threads", type=int, default=1, help="pool width over cloud row blocks; never changes output bits")
    p.set_defaults(fn=cmd_bpz_demo)

    return ap


def _log_fp_error(kind: str, flag: int) -> None:
    logger.debug("numpy floating-point error: %s", kind)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # numpy's floating-point warnings go to the log, not stderr: a
        # non-finite result is refused where it is checked (exit 2)
        with np.errstate(divide="call", over="call", invalid="call", call=_log_fp_error):
            return args.fn(args)
    except (InputError, models.NumericError, OSError, MemoryError) as exc:
        print(f"ERROR {args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
