"""The benchmark's workloads: fixed experiment lists built from a seed.

BENCHMARK.json gates cloud-sweep, mc-means and dirichlet-bpz; small-exact
is runnable by name but not gated (see small_exact).

Every experiment is one ``amvlab.cli.main(argv)`` call, the way a user runs
the lab.  The seed reaches the program only through the generated CLI
arguments (``--seed``, ``mc:n:seed`` schemes) and through the space and
mask files the ``dirichlet-bpz`` workload writes.  ``smoke=True`` builds
the same lists at toy sizes; it warms up lazy imports before timing and
backs the benchmark's self-test.

Why each workload exists is stated in BENCHMARK.json; the layer metrics
each should move are listed in benchmarks/perfbench/README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# closed-form values the Monte Carlo estimates must reproduce within 5 sigma
SQ1_LAPLACIAN_E2 = 0.25  # disk mean of x1^2 is x1^2 + r^2/4, for every r
HSQ_LAPLACIAN_H1 = 4.0 / (3.0 * math.pi)  # mean of |z1|^2 over the unit Koranyi ball
DIRECTIONAL_MOMENT_H1 = 2.0 / (3.0 * math.pi)  # mean of <a, z1>^2, |a| = 1


@dataclass
class Experiment:
    """One CLI call and what its output must satisfy.

    kind selects the output check (see checks.py).  exit_code is the
    expected exit status, or None when it must only agree with the
    report's own verdict (Monte Carlo sweeps, whose verdict is itself a
    random variable).  seeded marks deterministic outputs that depend on
    the seed; the recorded expected values of unseeded experiments hold for
    every seed.  target_sigma is the pinned standard error used by
    time_to_accuracy_s, closed_form the value MC estimates must match.
    """

    id: str
    argv: list
    kind: str
    exit_code: int | None = 0
    seeded: bool = True
    closed_form: float | None = None
    target_sigma: float | None = None
    before: Callable[[], None] | None = None  # timed with the call
    extra: dict = field(default_factory=dict)

    @property
    def mc(self) -> bool:
        return self.target_sigma is not None


# A run's inputs come from one of INPUT_SETS input sets, the seed modulo
# INPUT_SETS.  expected.json holds the deterministic outputs of every set,
# so each seed's outputs are compared with recorded values.
INPUT_SETS = 16


def input_set(seed: int) -> int:
    return int(seed) % INPUT_SETS


def sub_seed(seed: int, index: int) -> int:
    """Independent 31-bit seed for experiment `index` of a run seeded `seed`."""
    state = np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def cloud_sweep(seed: int, smoke: bool, work: Path) -> list[Experiment]:
    big, mid, small = (16, 16, 16) if smoke else (64, 80, 64)
    radii = "0.4:4:0.5"
    return [
        # n = 4096: the ROADMAP's hand-measured cloud (dense matrix 134 MB, above L3)
        Experiment("sym-euclid", ["sym-vs-plain", "euclidean:2", "--field", "harmonic3",
                                  "--phi", "tent:0,0:0.3:0.6", "--cloud-cells", str(big),
                                  "--radii", radii, "--seed", str(sub_seed(seed, 0))],
                   "report", exit_code=1),
        # n = 3200: the README's half-plane example (dense matrix 82 MB, about L3)
        Experiment("sym-half", ["sym-vs-plain", "half:2", "--field", "coord:1",
                                "--phi", "tent:0,0:1.0:1.25", "--cloud-cells", str(mid),
                                "--radii", radii, "--seed", str(sub_seed(seed, 1))],
                   "report", exit_code=1),
        # n = 2048 on a cone (dense matrix 34 MB, inside L3)
        Experiment("weak-cone", ["weak-sweep", "cone:4.5", "--field", "coord:1",
                                 "--phi", "conetent:0.3:0.6", "--cloud-cells", str(small),
                                 "--seed", str(sub_seed(seed, 2))],
                   "report", exit_code=1),
        # the same operators on spaces of at most 40 points, so the gated
        # workloads also time the identity suite and A_r* (see small_exact)
        Experiment("identities", ["identities", "--count", "30" if smoke else "300",
                                  "--size-max", "40", "--seed", str(sub_seed(seed, 3))],
                   "identities"),
    ]


def mc_means(seed: int, smoke: bool, work: Path) -> list[Experiment]:
    n = 20_000 if smoke else 200_000
    n_iso = 50_000 if smoke else 500_000
    exps = []
    cases = [
        ("mc-sq1-origin", "euclidean:2", "sq1", "0,0", SQ1_LAPLACIAN_E2),
        ("mc-sq1-far", "euclidean:2", "sq1", "1e3,0", SQ1_LAPLACIAN_E2),
        ("mc-hsq-origin", "carnot:heisenberg:1:koranyi", "hsq", "0,0,0", HSQ_LAPLACIAN_H1),
        ("mc-hsq-far", "carnot:heisenberg:1:koranyi", "hsq", "10,10,0", HSQ_LAPLACIAN_H1),
    ]
    for i, (exp_id, space, fld, point, exact) in enumerate(cases):
        exps.append(Experiment(
            exp_id, ["amv-sweep", space, "--field", fld, "--point", point,
                     "--scheme", f"mc:{n}:{sub_seed(seed, i)}"],
            "mc-report", exit_code=None, closed_form=exact, target_sigma=1e-3,
        ))
    exps.append(Experiment(
        "mc-isotropy", ["isotropy", "heisenberg:1", "koranyi", "--directions", "8",
                        "--scheme", f"mc:{n_iso}:{sub_seed(seed, 10)}",
                        "--seed", str(sub_seed(seed, 11)), "--tolerance", "0.05"],
        "isotropy", closed_form=DIRECTIONAL_MOMENT_H1, target_sigma=2e-4,
    ))
    return exps


def dirichlet_bpz(seed: int, smoke: bool, work: Path) -> list[Experiment]:
    from amvlab import CarnotSpace, Gauge, heisenberg, mmspace, models
    from amvlab.carnot import coordinate

    # the finest level has about 740 interior points, so both solver
    # branches run (dense up to 500, CG above)
    resolutions = "10,12" if smoke else "12,20"
    level_radii = "0.7,0.6" if smoke else "0.5,0.38"
    cells, r = (8, 0.7) if smoke else (12, 0.44)
    bpz = Experiment("bpz-h1", ["bpz-demo", "heisenberg:1", "koranyi", "--field", "coord:1",
                                "--resolutions", resolutions, "--level-radii", level_radii,
                                "--seed", str(sub_seed(seed, 0)), "--threads", "2"],
                     "report", exit_code=0)

    # the dirichlet subcommand reads a space file and a boundary mask; both
    # come from a seeded gauge-ball cloud whose boundary layer carries the
    # horizontally harmonic field x1
    space = CarnotSpace(heisenberg(1), Gauge("koranyi"))
    cloud, pts, _, gauge_vals = models.carnot_ball_cloud(space, 1.0, cells, sub_seed(seed, 1))
    field_vals = coordinate(space.dim, 0).value(pts)
    boundary = np.flatnonzero(gauge_vals >= 1.0 - r)
    interior = np.setdiff1d(np.arange(cloud.n), boundary)
    space_file = work / "input-space.txt"
    mask_file = work / "input-mask.txt"
    mask_file.write_text("".join(f"{i} {float(field_vals[i])!r}\n" for i in boundary))
    solve = Experiment(
        "dirichlet-file", ["dirichlet", str(space_file), str(mask_file), "--r", repr(r)],
        "dirichlet", before=lambda: mmspace.save_space(cloud, str(space_file)),
        extra={"field": field_vals, "interior": interior, "n": cloud.n},
    )
    return [bpz, solve]


def small_exact(seed: int, smoke: bool, work: Path) -> list[Experiment]:
    """Not gated in BENCHMARK.json: its passes are bound by interpreter
    overhead, whose speed swings by up to 1.6x with the load on a shared
    2-core host, so ten runs spread wider than any allowed bound.  It stays
    runnable for per-layer study of tiny spaces and grid quadrature."""
    count = "50" if smoke else "1000"
    grid = "4" if smoke else "16"
    grid_h = "8" if smoke else "24"
    return [
        Experiment("identities-a", ["identities", "--count", count, "--size-max", "40",
                                    "--seed", str(sub_seed(seed, 0))], "identities"),
        Experiment("identities-b", ["identities", "--count", count, "--size-max", "40",
                                    "--seed", str(sub_seed(seed, 1))], "identities"),
        Experiment("grid-sq1-e2", ["amv-sweep", "euclidean:2", "--field", "sq1",
                                   "--point", "0.3,-0.2", "--scheme", f"grid:{grid}"],
                   "report", seeded=False),
        Experiment("grid-harmonic3-e3", ["amv-sweep", "euclidean:3", "--field", "harmonic3",
                                         "--point", "0.3,-0.2,0.1", "--scheme", f"grid:{grid}"],
                   "report", seeded=False),
        Experiment("grid-hsq-h1", ["amv-sweep", "carnot:heisenberg:1:koranyi", "--field", "hsq",
                                   "--point", "0.5,0.2,0.1", "--scheme", f"grid:{grid_h}"],
                   "report", seeded=False),
        Experiment("mmb-half", ["mm-boundary", "half:2", "--region", "unit"],
                   "report", seeded=False),
        Experiment("mmb-cone", ["mm-boundary", "cone:1.5", "--region", "ball:0,0:1.0"],
                   "report", seeded=False),
        # gauge-annulus grid drawn from the seed, grid quadrature per point
        Experiment("strong-folland", ["strong-scan", "carnot:heisenberg:1:koranyi",
                                      "--field", "folland", "--grid-size", "10",
                                      "--scheme", "grid:8", "--seed", str(sub_seed(seed, 2))],
                   "report", exit_code=1),
    ]


EXPERIMENT_LISTS = {
    "cloud-sweep": cloud_sweep,
    "mc-means": mc_means,
    "dirichlet-bpz": dirichlet_bpz,
    "small-exact": small_exact,
}

# per-workload code a fresh interpreter runs for setup_s: importing the CLI
# (numpy and scipy included) plus the first-call set-up the workload
# triggers; the Carnot auto-reference computes the group constant on grid:24
_IMPORT = "import amvlab.cli"
_CARNOT_REFERENCE = (
    "; from amvlab import Gauge, GridScheme, heisenberg, integrate"
    "; integrate.carnot_constant(heisenberg(1), Gauge('koranyi'), GridScheme(24))"
)
SETUP_CODE = {
    "cloud-sweep": _IMPORT,
    "mc-means": _IMPORT + _CARNOT_REFERENCE,
    "dirichlet-bpz": _IMPORT,
    "small-exact": _IMPORT + _CARNOT_REFERENCE,
}

def build(name: str, seed: int, smoke: bool, work: Path) -> list[Experiment]:
    exps = EXPERIMENT_LISTS[name](seed, smoke, work)
    for exp in exps:
        exp.argv = exp.argv + ["--out", str(work / f"{exp.id}{_suffix(exp)}")]
    return exps


def _suffix(exp: Experiment) -> str:
    return ".txt" if exp.kind == "dirichlet" else ".json"
