import argparse
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amvlab import dirichlet as di
from amvlab import experiments as ex
from amvlab import integrate as it
from amvlab import mmspace as mm
from amvlab import models as mo
from amvlab.cli import main, make_parser, parse_point, parse_radii
from amvlab.mmspace import InputError


def run_cli(args, cwd, env):
    return subprocess.run(
        [sys.executable, "-m", "amvlab.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_parse_helpers():
    assert parse_radii("0.5,0.25") == [0.5, 0.25]
    assert parse_radii("1.0:3:0.5") == [1.0, 0.5, 0.25]
    assert parse_point("1,2.5").tolist() == [1.0, 2.5]
    with pytest.raises(InputError):
        parse_radii("0.5:2")


def test_identities_command(tmp_path):
    rc = main(["identities", "--count", "20", "--size-max", "20", "--seed", "7",
               "--out", str(tmp_path / "id.json")])
    assert rc == 0
    summary = json.loads((tmp_path / "id.json").read_text())
    assert summary["ok"] and max(summary["worst"].values()) < 1e-12


def test_identities_fault_injection(tmp_path):
    rc = main(["identities", "--count", "4", "--size-max", "12", "--seed", "3",
               "--fault-inject", "--out", str(tmp_path / "fi.json")])
    assert rc == 1
    summary = json.loads((tmp_path / "fi.json").read_text())
    assert not summary["ok"] and "offender" in summary


def test_amv_sweep_writes_report_and_csv(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    rc = main(["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0",
               "--radii", "0.8:5:0.5", "--scheme", "grid:8",
               "--tolerance", "1e-6", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("PASS amv-sweep") and str(out) in line
    rep = ex.ExperimentReport.from_json(out.read_text())
    assert rep.reference == 0.25 and rep.verdict == "pass"
    csv = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv[0] == "radius,value,std_error" and len(csv) == 6
    # round-trip: re-verify the stored verdict without recomputation
    assert ex.revalidate(rep) == "pass"


def test_sym_vs_plain_negative_reference(tmp_path):
    rc = main(["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0",
               "--radii", "0.8:5:0.5", "--scheme", "grid:8",
               "--reference", "0.0", "--tolerance", "1e-6",
               "--out", str(tmp_path / "neg.json")])
    assert rc == 1
    rep = ex.ExperimentReport.from_json((tmp_path / "neg.json").read_text())
    assert rep.verdict == "fail"


@pytest.mark.parametrize("space, limit", [("half:1", 0.25), ("half:2", 2 / (3 * np.pi)), ("half:3", 3 / 16)])
def test_mm_boundary_unit_regions(tmp_path, space, limit):
    rc = main(["mm-boundary", space, "--region", "unit", "--radii", "0.4:5:0.6",
               "--tolerance", "0.005", "--out", str(tmp_path / "mm.json")])
    assert rc == 0
    rep = ex.ExperimentReport.from_json((tmp_path / "mm.json").read_text())
    assert rep.fitted_limit == pytest.approx(limit, rel=1e-9)
    assert rep.reference == pytest.approx(limit, rel=1e-15)


@pytest.mark.parametrize("space", ["euclidean:2", "euclidean:3", "half:1", "half:2", "half:3", "cone:1.5"])
def test_mm_boundary_report_region_parses_back(tmp_path, space):
    # the unit region is recorded as a spec that --region reads back
    assert main(["mm-boundary", space, "--out", str(tmp_path / "mm.json")]) == 0
    recorded = json.loads((tmp_path / "mm.json").read_text())["metadata"]["region"]
    assert recorded == mo.unit_region(mo.parse_space(space)).spec()
    assert mo.parse_region(recorded).spec() == recorded


def test_mm_boundary_unit_box_however_written(tmp_path, capsys):
    # half:2's unit region is the box [0, 1]^2: either spelling gets the
    # closed-form reference and the same report, up to the typed --region
    out, written = tmp_path / "mm.json", []
    for region in ["unit", "box:0,0:1,1", "box:0.0,0:1,1.0"]:
        assert main(["mm-boundary", "half:2", "--region", region, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metadata"]["config"].pop("region") == region
        written.append((report, out.with_suffix(".csv").read_text(), capsys.readouterr().out))
    assert written[0][0]["reference"] == pytest.approx(2 / (3 * np.pi), rel=1e-15)
    assert written[1:] == written[:1] * 2


@pytest.mark.parametrize("region, face", [("box:0,0:2,1", 1.0), ("box:0,-1:0.5,2", 3.0), ("ball:0,0:1.0", 2.0)])
def test_mm_boundary_boundary_regions_get_the_closed_form(tmp_path, capsys, region, face):
    # every boundary box [0,h] x C has the limit |C| 2/(3 pi) on half:2, and
    # a boundary-centred disc of radius R the limit 2R 2/(3 pi)
    out = tmp_path / "mm.json"
    assert main(["mm-boundary", "half:2", "--region", region, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("PASS mm-boundary")
    report = json.loads(out.read_text())
    assert report["reference"] == pytest.approx(face * 2 / (3 * np.pi), rel=1e-15)
    assert report["fitted_limit"] == pytest.approx(report["reference"], rel=1e-6)


def test_dirichlet_files(tmp_path):
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    mm.save_space(mm.FiniteMMSpace(d, np.ones(3)), tmp_path / "line.txt")
    (tmp_path / "mask.txt").write_text("0 0.0\n2 6.0\n")
    out = tmp_path / "sol.txt"
    rc = main(["dirichlet", str(tmp_path / "line.txt"), str(tmp_path / "mask.txt"),
               "--r", "1.5", "--out", str(out)])
    assert rc == 0
    sol = mm.load_field(out)
    assert sol[1] == pytest.approx(3.0, rel=1e-12)
    resid = json.loads((tmp_path / "sol.txt.json").read_text())
    assert resid["residual"] < 1e-12


def test_dirichlet_reports_the_residual_of_its_solution(tmp_path):
    cloud, pts, _ = mo.euclidean_cloud(mo.Euclidean(2), [-1.0, -1.0], [1.0, 1.0], 9, seed=3)
    mm.save_space(cloud, tmp_path / "space.txt")
    boundary = np.flatnonzero(np.max(np.abs(pts), axis=1) > 0.6)
    g = pts[boundary, 0] ** 2 - pts[boundary, 1] ** 2
    (tmp_path / "mask.txt").write_text("".join(f"{i} {float(x)!r}\n" for i, x in zip(boundary, g)))
    out = tmp_path / "sol.txt"
    rc = main(["dirichlet", str(tmp_path / "space.txt"), str(tmp_path / "mask.txt"),
               "--r", "0.5", "--out", str(out)])
    assert rc == 0
    space = mm.load_space(tmp_path / "space.txt")
    interior = np.setdiff1d(np.arange(space.n), boundary)
    part = di.BoundaryPartition(interior, boundary, g)
    rep = json.loads((tmp_path / "sol.txt.json").read_text())
    assert rep["residual"] == di.residual(space, part, mm.load_field(out), 0.5)


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--count", "2", "--size-max", "6", "--seed", "3", "--fault-inject"],
        ["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--radii", "0.5,0.25",
         "--scheme", "grid:4", "--reference", "0.25", "--threads", "2", "--tolerance", "0.5"],
        ["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--grid-size", "3",
         "--radii", "0.5,0.25", "--scheme", "grid:4", "--seed", "5", "--reference", "0.1"],
        ["weak-sweep", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0:0.3:0.6",
         "--cloud-cells", "8", "--radii", "0.4,0.2", "--reference", "0", "--threads", "2"],
        ["sym-vs-plain", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0:0.3:0.6",
         "--cloud-cells", "8", "--radii", "0.4,0.2", "--seed", "4"],
        ["mm-boundary", "half:2", "--radii", "0.4,0.2", "--reference", "0.2", "--tolerance", "0.5"],
        ["carnot-constant", "heisenberg:1", "scaled", "--beta", "16", "--mc-n", "20000",
         "--grid-res", "8"],
        ["isotropy", "heisenberg:1", "scaled", "--beta", "16", "--scheme", "grid:4", "--directions", "3",
         "--tolerance", "0.5"],
        ["dirichlet", "{tmp}/space.txt", "{tmp}/mask.txt", "--r", "1.5"],
        ["bpz-demo", "heisenberg:1", "koranyi", "--resolutions", "6", "--level-radii", "0.6",
         "--field", "coord:2", "--tolerance", "0.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_config_is_the_parsed_command_line(tmp_path, argv):
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    mm.save_space(mm.FiniteMMSpace(d, np.ones(3)), tmp_path / "space.txt")
    (tmp_path / "mask.txt").write_text("0 0.0\n2 6.0\n")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "r.json")]
    assert main(argv) in (0, 1)
    # dirichlet writes its solution to --out and the report next to it
    report = json.loads((tmp_path / ("r.json.json" if argv[0] == "dirichlet" else "r.json")).read_text())
    config = report["metadata"]["config"] if "metadata" in report else report["config"]
    parsed = vars(make_parser().parse_args(argv))
    assert config == {k: v for k, v in parsed.items() if k != "fn"}


def test_unknown_field_is_cli_error(tmp_path):
    rc = main(["amv-sweep", "euclidean:2", "--field", "nope", "--point", "0,0",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("mask.txt", "0 0.0\n2 abc\n", "'2 abc'"),
        ("space.txt", "3\n1.0\nx 1.0\n1 1 1\n", "'x 1.0'"),
        ("space.txt", None, "No such file"),
    ],
    ids=["mask-token", "space-token", "missing-file"],
)
def test_dirichlet_bad_input_exits_2(tmp_path, capsys, name, text, message):
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    mm.save_space(mm.FiniteMMSpace(d, np.ones(3)), tmp_path / "space.txt")
    (tmp_path / "mask.txt").write_text("0 0.0\n2 6.0\n")
    if text is None:
        (tmp_path / name).unlink()
    else:
        (tmp_path / name).write_text(text)
    rc = main(["dirichlet", str(tmp_path / "space.txt"), str(tmp_path / "mask.txt"),
               "--r", "1.5", "--out", str(tmp_path / "sol.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR dirichlet:") and message in err


def test_space_file_over_the_memory_budget_exits_2(tmp_path, capsys):
    # a small file that declares more points than an n x n matrix can hold
    # in twice the physical memory: refused before the matrix is allocated
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    n = math.isqrt(phys // 4) + 1
    (tmp_path / "space.txt").write_text(f"{n}\n" + "0\n" * n)
    (tmp_path / "mask.txt").write_text("0 0.0\n")
    rc = main(["dirichlet", str(tmp_path / "space.txt"), str(tmp_path / "mask.txt"),
               "--r", "1.5", "--out", str(tmp_path / "sol.txt")])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and err.startswith("ERROR dirichlet: a space file of "), err
    assert f"n={n} points needs a {8 * n * n / 1e9:.1f} GB distance matrix" in err
    assert not list(tmp_path.glob("sol.txt*"))


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 16.7 GiB for an array with shape (47000, 47000)"), "Unable to allocate 16.7 GiB"),
    (MemoryError(), "MemoryError"),
])
def test_failed_allocation_exits_2(tmp_path, capsys, monkeypatch, exc, message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(mm, "run_identity_suite", exhausted)
    rc = main(["identities", "--out", str(tmp_path / "id.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR identities: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "id.json").exists()


@pytest.mark.parametrize(
    "args, typed",
    [
        (["weak-sweep", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0,0:0.3:0.6",
          "--cloud-cells", "8"], "'tent:0,0,0:0.3:0.6'"),
        (["amv-sweep", "euclidean:2", "--field", "monomial:1,2,3", "--point", "0,0"], "'monomial:1,2,3'"),
        (["amv-sweep", "euclidean:2", "--field", "coord:5", "--point", "0,0"], "'coord:5'"),
        (["amv-sweep", "euclidean:2", "--field", "coord:0", "--point", "0,0", "--scheme", "grid:4"],
         "'coord:0'"),
        (["amv-sweep", "euclidean:2", "--field", "coord:x", "--point", "0,0"], "'coord:x'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "a,b"], "'a,b'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--radii", "a,b"], "'a,b'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--radii", "a:3:0.5"], "'a:3:0.5'"),
        (["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--annulus", "1.0"], "'1.0'"),
        (["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--annulus", "2.0,1.0"], "2.0, 1.0"),
        (["bpz-demo", "heisenberg:1", "koranyi", "--resolutions", "12,x"], "'12,x'"),
        (["bpz-demo", "heisenberg:1", "koranyi", "--level-radii", "0.5,y,0.38"], "'0.5,y,0.38'"),
        (["isotropy", "heisenberg:x", "koranyi"], "'heisenberg:x'"),
        (["isotropy", "heisenberg:1", "koranyi", "--beta", "3", "--scheme", "grid:4"], "'koranyi'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--scheme", "mc:0:1"], "'mc:0:1'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--scheme", "mc:-3:1"], "'mc:-3:1'"),
        # one draw has no spread, and a sigma of 0 would read as deterministic;
        # on euclidean:2, mc:2 is a single antithetic pair
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--scheme", "mc:1:1",
          "--radii", "0.5,0.25"], "at least 2 independent draws"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--scheme", "mc:2:1",
          "--radii", "0.5,0.25"], "at least 2 independent draws"),
        (["carnot-constant", "heisenberg:1", "koranyi", "--mc-n", "0", "--grid-res", "4"],
         "--mc-n must be > 0, got 0"),
        (["isotropy", "heisenberg:1", "koranyi", "--directions", "0", "--scheme", "grid:4"],
         "--directions must be > 0, got 0"),
        (["isotropy", "heisenberg:1", "koranyi", "--directions", "-2", "--scheme", "grid:4"],
         "--directions must be > 0, got -2"),
        (["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--scheme", "grid:4",
          "--grid-size", "0"], "--grid-size must be > 0, got 0"),
        (["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--scheme", "grid:4",
          "--grid-size", "-1"], "--grid-size must be > 0, got -1"),
        (["sym-vs-plain", "half:2", "--field", "coord:1", "--phi", "tent:0,0:1.0:1.25", "--cloud-cells", "1"],
         "--cloud-cells must be > 1, got 1"),
        (["weak-sweep", "cone:4.5", "--field", "coord:1", "--phi", "conetent:0.3:0.6", "--cloud-cells", "-4"],
         "--cloud-cells must be > 1, got -4"),
        (["identities", "--count", "0"], "--count must be > 0, got 0"),
        (["identities", "--count", "2", "--size-max", "1"], "--size-max must be > 1, got 1"),
        (["bpz-demo", "heisenberg:1", "koranyi", "--resolutions", "0,2", "--level-radii", "0.5,0.38"],
         "--resolutions must be > 0, got 0"),
        (["bpz-demo", "heisenberg:1", "koranyi", "--R", "-1"], "--R must be > 0, got -1.0"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--scheme", "grid:0"], "'grid:0'"),
        (["carnot-constant", "heisenberg:1", "koranyi", "--mc-n", "1000", "--grid-res", "0"],
         "--grid-res must be > 0, got 0"),
        (["mm-boundary", "half:2", "--region", "box:0,1:1,0"], "'box:0,1:1,0'"),
        (["mm-boundary", "half:2", "--region", "ball:0,0:-1"], "'ball:0,0:-1'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "nan,0"], "finite coordinates, got [nan, 0.0]"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--radii", "nan"], "'nan'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--radii", "inf,0.5"], "'inf,0.5'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "1e200,0"], "radius 0.4 is not finite"),
        (["bpz-demo", "heisenberg:1", "koranyi", "--R", "inf"], "got inf"),
        (["bpz-demo", "heisenberg:1", "koranyi", "--resolutions", "1", "--level-radii", "0.5"],
         "resolution 1 and radius 0.5 has no interior point"),
        *[(["bpz-demo", "heisenberg:1", "koranyi", "--resolutions", "1", "--level-radii", "0.5", "--seed", seed],
           "the cloud is empty") for seed in ("1", "3", "4")],
        (["weak-sweep", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0:0.3:0.6", "--radii", "0.4:0:0.5"],
         "'0.4:0:0.5': need at least one radius"),
        (["sym-vs-plain", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0:0.3:0.6",
          "--radii", "0.4:-2:0.5"], "'0.4:-2:0.5': need at least one radius"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--threads", "0"],
         "--threads must be > 0, got 0"),
        (["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--threads", "-1"],
         "--threads must be > 0, got -1"),
        (["weak-sweep", "cone:4.5", "--field", "coord:1", "--phi", "conetent:0.3:0.6", "--threads", "0"],
         "--threads must be > 0, got 0"),
        (["sym-vs-plain", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0:0.3:0.6", "--threads", "-2"],
         "--threads must be > 0, got -2"),
        (["bpz-demo", "heisenberg:1", "koranyi", "--threads", "0"], "--threads must be > 0, got 0"),
        (["isotropy", "heisenberg:1", "scaled", "--beta", "inf", "--scheme", "grid:4"],
         "beta must be positive and finite, got inf"),
        (["bpz-demo", "heisenberg:1", "scaled", "--beta", "inf"], "beta must be positive and finite, got inf"),
        (["amv-sweep", "carnot:heisenberg:1:scaled:inf", "--field", "hsq", "--point", "0,0,0"],
         "'carnot:heisenberg:1:scaled:inf'"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--tolerance", "nan"],
         "--tolerance must be finite and >= 0, got nan"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--reference", "inf", "--tolerance", "inf"],
         "--tolerance must be finite and >= 0, got inf"),
        (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--reference", "inf"],
         "--reference must be finite, got inf"),
        (["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--reference=-inf"],
         "--reference must be finite, got -inf"),
        (["weak-sweep", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0:0.3:0.6", "--reference", "nan"],
         "--reference must be finite, got nan"),
        (["sym-vs-plain", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0:0.3:0.6", "--tolerance", "-0.1"],
         "--tolerance must be finite and >= 0, got -0.1"),
        (["mm-boundary", "half:2", "--tolerance", "inf"], "--tolerance must be finite and >= 0, got inf"),
        (["isotropy", "heisenberg:1", "koranyi", "--scheme", "grid:4", "--tolerance", "nan"],
         "--tolerance must be finite and >= 0, got nan"),
        (["bpz-demo", "heisenberg:1", "koranyi", "--tolerance", "-1"],
         "--tolerance must be finite and >= 0, got -1.0"),
        (["mm-boundary", "half:2", "--region", "ball:0,0,0:1.0"],
         "a ball region needs points of 2 coordinates, got [0.0, 0.0, 0.0]"),
        (["mm-boundary", "cone:1.5", "--region", "ball:0:1.0"],
         "a ball region needs points of 2 coordinates, got [0.0]"),
        (["mm-boundary", "euclidean:2", "--region", "ball:0:1"],
         "a ball region needs points of 2 coordinates, got [0.0]"),
        (["mm-boundary", "euclidean:2", "--region", "box:0,0,0:1,1,1"],
         "a box region needs points of 2 coordinates, got [0.0, 0.0, 0.0]"),
        (["mm-boundary", "half:2", "--region", "box:0:1"], "a box region needs points of 2 coordinates, got [0.0]"),
        (["mm-boundary", "half:2", "--region", "box:0,0:1"],
         "'box:0,0:1': a box needs as many lo as hi bounds, got 2 and 1"),
    ],
    ids=["phi-center", "monomial-arity", "coord-high", "coord-zero", "coord-token", "point", "radii-list",
         "radii-geometric", "annulus", "annulus-inverted", "resolutions", "level-radii", "preset", "koranyi-beta",
         "mc-zero", "mc-negative", "mc-one-draw", "mc-one-pair", "mc-n-zero", "directions-zero",
         "directions-negative", "grid-size-zero", "grid-size-negative", "half-cloud-cells-one", "cone-cloud-cells-negative", "count-zero",
         "size-max-one", "resolutions-zero", "R-negative", "grid-zero", "grid-res-zero", "box-inverted",
         "ball-radius-negative", "point-nan", "radii-nan", "radii-inf", "point-overflow", "R-inf",
         "level-without-interior", "empty-cloud-seed-1", "empty-cloud-seed-3", "empty-cloud-seed-4",
         "weak-radii-count-zero", "sym-radii-count-negative", "amv-threads-zero",
         "strong-threads-negative", "weak-threads-zero", "sym-threads-negative", "bpz-threads-zero",
         "isotropy-beta-inf", "bpz-beta-inf", "space-beta-inf", "tolerance-nan", "tolerance-and-reference-inf",
         "reference-inf", "strong-reference-negative-inf", "weak-reference-nan", "sym-tolerance-negative",
         "mm-boundary-tolerance-inf", "isotropy-tolerance-nan", "bpz-tolerance-negative", "half-ball-centre-long",
         "cone-ball-centre-short", "euclid-ball-centre-short", "euclid-box-long",
         "half-box-short", "box-lo-hi-mismatch"],
)
def test_malformed_input_exits_2(tmp_path, capsys, args, typed):
    rc = main([*args, "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"ERROR {args[0]}:") and err.count("\n") == 1 and typed in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ["half:2", "--field", "sq1", "--point", "nan,0"],
        ["cone:4.5", "--field", "coord:1", "--point", "1,20", "--radii", "0.4,0.2"],
    ],
    ids=["half-nan", "cone-angle"],
)
def test_centre_outside_the_space_exits_2(tmp_path, cli_env, args):
    # the rejection sampler on such a centre accepts nothing: without the
    # centre check the run never returns
    p = subprocess.run(
        [sys.executable, "-m", "amvlab.cli", "amv-sweep", *args, "--scheme", "mc:1000:1", "--out", "r.json"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 2 and p.stderr.startswith("ERROR amv-sweep:"), p.stderr
    assert not list(tmp_path.iterdir())


def test_two_mc_draws_on_half_space_have_error_bars(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["amv-sweep", "half:2", "--field", "sq1", "--point", "1,0", "--scheme", "mc:2:1",
               "--radii", "0.5,0.25", "--out", str(out)])
    assert rc in (0, 1)
    rep = ex.ExperimentReport.from_json(out.read_text())
    assert all(s > 0 for s in rep.std_errors)


# The cut radius is the largest radius, 3.0, so every row of the 3 x 3 box
# is estimated full: n entries of 12 bytes (distance and column).
WHOLE_BOX = ["sym-vs-plain", "euclidean:2", "--field", "harmonic3", "--phi", "tent:0,0:0.3:0.6",
             "--radii", "3.0:2:0.5", "--out", "big.json"]


def test_cloud_beyond_address_space_limit_exits_2(tmp_path, cli_env):
    # n=25600 needs a 7.9 GB neighbour table, more than the subprocess's
    # 4 GiB address-space cap; with more physical memory than that, only
    # the address-space limit can refuse it
    cap = 4 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    p = subprocess.run(
        [sys.executable, "-m", "amvlab.cli", *WHOLE_BOX, "--cloud-cells", "160"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True, preexec_fn=limit, timeout=60,
    )
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("ERROR sym-vs-plain:") and "n=25600 " in p.stderr
    assert "needs a 7.9 GB neighbour table" in p.stderr
    if os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") > cap:
        assert "4.3 GB of the address-space limit" in p.stderr
    assert not (tmp_path / "big.json").exists()


def test_cloud_beyond_physical_memory_exits_2(tmp_path, cli_env):
    # 256 cells per axis is n=65536, a 51.5 GB neighbour table (more cells on
    # a host with more memory); the guard must refuse it before allocating.
    # The address-space cap only keeps a build without the guard from taking
    # the machine's memory; the guard names whichever budget is smaller.
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    cells = max(256, math.ceil((phys / 12) ** 0.25) + 1)
    cap = 6 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    p = subprocess.run(
        [sys.executable, "-m", "amvlab.cli", *WHOLE_BOX, "--cloud-cells", str(cells)],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True, preexec_fn=limit, timeout=60,
    )
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("ERROR sym-vs-plain:")
    assert f"n={cells**2} " in p.stderr and f"{12 * cells**4 / 1e9:.1f} GB neighbour table" in p.stderr
    budget = "physical memory" if phys <= cap else "the address-space limit"
    assert f"{min(phys, cap) / 1e9:.1f} GB of {budget}" in p.stderr
    assert not (tmp_path / "big.json").exists()


def test_cut_gauge_cloud_guard_computes_no_ball_volume(tmp_path, monkeypatch, capsys):
    # no grid ships for heisenberg:2, so a ball volume would fall back to a
    # 4M-draw Monte Carlo estimate; the guard bounds the ball by its
    # envelope box instead
    def no_volume(*args, **kwargs):
        raise AssertionError("the memory guard computed a ball volume")

    monkeypatch.setattr(it, "carnot_ball_volume_mc", no_volume)
    space = mo.carnot_preset("heisenberg:2", "scaled", 16.0)
    cloud, pts, _, _ = mo.carnot_ball_cloud(space, 1.0, 5, seed=1, cut=0.6)
    assert cloud.cut == 0.6 and cloud.n == pts.shape[0]
    # r = 0.95 of R = 1 makes every row full width: 12 n^2 bytes, with
    # n about 0.2 res^5 cloud points, past twice the physical memory
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    res = max(12, math.ceil((math.sqrt(phys / 6) / 0.18) ** 0.2))
    rc = main(["bpz-demo", "heisenberg:2", "scaled", "--beta", "16", "--resolutions", str(res),
               "--level-radii", "0.95", "--out", str(tmp_path / "big.json")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("ERROR bpz-demo:") and "GB neighbour table" in err, err
    assert not (tmp_path / "big.json").exists()


@pytest.mark.slow
def test_bpz_demo_runs_where_the_dense_route_is_refused(tmp_path, cli_env):
    # the finest level has n=13564 points: a 1.5 GB distance matrix, over
    # the child's 1.2 GB address-space limit; its table cut at r=0.3 fits
    cap = int(1.2e9)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))

    p = subprocess.run(
        [sys.executable, "-m", "amvlab.cli", "bpz-demo", "heisenberg:1", "koranyi", "--field", "coord:1",
         "--resolutions", "12,20,28", "--level-radii", "0.5,0.38,0.3", "--out", "r.json"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True, preexec_fn=limit, timeout=120,
    )
    assert p.returncode == 0, p.stderr
    rep = ex.ExperimentReport.from_json((tmp_path / "r.json").read_text())
    assert rep.metadata["cloud_sizes"][-1] == 13564 and rep.verdict == "pass"


@pytest.mark.parametrize(
    "base, many, code",
    [
        pytest.param(["amv-sweep", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--point", "0,0,0",
                      "--radii", "0.5:4:0.5", "--scheme", "mc:100000:9", "--tolerance", "0.01"], "4", 0,
                     id="amv-sweep"),
        # 150,000 shared pairs: three batches, each from its own child stream, on the pool
        pytest.param(["amv-sweep", "euclidean:3", "--field", "harmonic3", "--point", "0.3,-0.2,0.1",
                      "--radii", "0.4:4:0.5", "--scheme", "mc:300000:5", "--tolerance", "0.01"], "3", 0,
                     id="amv-sweep-shared-batches"),
        # the last two have no reference: the verdict is inconclusive
        pytest.param(["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--grid-size", "3",
                      "--scheme", "mc:2000:4", "--radii", "0.5,0.25"], "3", 1, id="strong-scan"),
        # 150,000 pairs per estimate: three batches, all from the estimate's own stream
        pytest.param(["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--grid-size", "2",
                      "--scheme", "mc:300000:4", "--radii", "0.5"], "2", 1, id="strong-scan-batches"),
        pytest.param(["amv-sweep", "cone:4.5", "--field", "harmonic3", "--point", "0.5,0.3",
                      "--scheme", "mc:4000:2", "--radii", "0.3,0.2,0.1"], "3", 1, id="amv-sweep-cone"),
    ],
)
def test_threads_do_not_change_bits(tmp_path, cli_env, base, many, code):
    p1, pn = (run_cli([*base, "--threads", t, "--out", f"t{t}.json"], cwd=tmp_path, env=cli_env) for t in ("1", many))
    assert p1.returncode == pn.returncode == code, p1.stderr + pn.stderr
    assert p1.stdout.replace("t1.json", f"t{many}.json") == pn.stdout and p1.stderr == pn.stderr == ""
    a = json.loads((tmp_path / "t1.json").read_text())
    b = json.loads((tmp_path / f"t{many}.json").read_text())
    for d in (a, b):
        d["metadata"]["config"]["threads"] = 0
        d["metadata"]["config"]["out"] = None
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert (tmp_path / "t1.csv").read_text() == (tmp_path / f"t{many}.csv").read_text()


@pytest.mark.slow
def test_folland_sweep_with_shared_draws_resolves_its_trend(tmp_path, capsys):
    # at 1M pairs independent draws left the r^2 trend unresolved and read a
    # biased constant, 3.2e-4 against a limit of 0: FAIL at --tolerance 3e-4
    out = tmp_path / "r.json"
    rc = main(["amv-sweep", "carnot:heisenberg:1:koranyi", "--field", "folland", "--point", "1,0.5,0.7",
               "--scheme", "mc:2000000:1", "--tolerance", "3e-4", "--out", str(out)])
    assert rc == 0 and capsys.readouterr().out.startswith("PASS amv-sweep")
    rep = ex.ExperimentReport.from_json(out.read_text())
    assert rep.fitted_rate == pytest.approx(2.0, abs=0.05)
    assert abs(rep.fitted_limit) <= 2.0 * rep.metadata["limit_err"] <= 3e-4


def test_repeat_runs_byte_identical(tmp_path, cli_env):
    args = ["sym-vs-plain", "euclidean:2", "--field", "harmonic3", "--phi",
            "tent:0,0:0.3:0.6", "--cloud-cells", "32", "--radii", "0.4:4:0.7",
            "--seed", "11", "--reference", "0", "--tolerance", "0.05"]
    p1 = run_cli([*args, "--out", "a.json"], cwd=tmp_path, env=cli_env)
    p2 = run_cli([*args, "--out", "b.json"], cwd=tmp_path, env=cli_env)
    assert p1.returncode == 0, p1.stderr
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    a["metadata"]["config"]["out"] = b["metadata"]["config"]["out"] = None
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_weak_sweep_on_a_cut_cloud_keeps_bits_across_threads(tmp_path):
    base = ["weak-sweep", "cone:4.5", "--field", "coord:1", "--phi", "conetent:0.3:0.6",
            "--cloud-cells", "32", "--seed", "5"]
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        assert main([*base, "--threads", threads, "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        rep["metadata"]["config"]["threads"] = rep["metadata"]["config"]["out"] = None
        reports.append((json.dumps(rep, sort_keys=True), (tmp_path / f"t{threads}.csv").read_text()))
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "extra, error",
    [
        ([], "the estimate at radius 0.4 is not finite (value nan, std error 0.0)"),
        # the estimates run on pool threads, which must keep the CLI's error state
        (["--scheme", "mc:1000:1", "--threads", "2"],
         "the estimate at radius 0.4 is not finite (value nan, std error nan)"),
    ],
    ids=["grid", "mc-on-2-threads"],
)
def test_numpy_warnings_stay_off_stderr(tmp_path, cli_env, extra, error):
    # the field overflows at this point: the run exits 2 with one ERROR line
    p = run_cli(["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "1e200,0", "--out", "r.json", *extra],
                cwd=tmp_path, env=cli_env)
    assert p.returncode == 2
    assert p.stderr.splitlines() == [f"ERROR amv-sweep: {error}"], p.stderr
    assert not list(tmp_path.iterdir())


def test_huge_radii_on_a_cone_exit_2(tmp_path, capsys):
    # theta_r's power overflows to inf in float64, the mass turns NaN, and
    # the report refuses it
    rc = main(["mm-boundary", "cone:1.5", "--region", "ball:0,0:1.0", "--radii", "1e200,1e199",
               "--out", str(tmp_path / "big.json")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "ERROR mm-boundary: the estimate at radius 1e+200 is not finite (value nan, std error 0.0)"
    ]
    assert not list(tmp_path.iterdir())
    assert main(["mm-boundary", "cone:1.5", "--region", "ball:0,0:1.0", "--radii", "1e150,1e149",
                 "--out", str(tmp_path / "ok.json")]) == 0


@pytest.mark.parametrize("argv, field, at_1e150", [
    (["amv-sweep", "euclidean:2", "--point", "0,0"], "sq1", 0.25),
    (["amv-sweep", "half:2", "--point", "0,1", "--scheme", "mc:1000:1"], "sq1",
     "ERROR amv-sweep: the estimate at radius 1e+150 is not finite (value 0.22652058649449705, std error inf)"),
    (["amv-sweep", "half:2", "--point", "0,1", "--scheme", "mc:1000:1"], "coord:2", None),
    (["strong-scan", "carnot:heisenberg:1:koranyi", "--grid-size", "2", "--scheme", "mc:100:1"], "hsq",
     "ERROR strong-scan: the radius 1e+150 is too large: its gauge overflows"),
    (["amv-sweep", "carnot:heisenberg:1:koranyi", "--point", "0,0,0", "--scheme", "mc:1000:1"], "coord:1",
     "ERROR amv-sweep: the radius 1e+150 is too large: its gauge overflows"),
], ids=["grid", "half-space-mc", "half-space-finite-mean", "strong-scan", "carnot-mc"])
def test_huge_radii_exit_2(tmp_path, capsys, argv, field, at_1e150):
    # r**2 overflows above about 1.3e154: the radius is refused before any
    # estimate, since a finite mean over an infinite r**2 would read as 0
    rc = main([*argv, "--field", field, "--radii", "1e200,1e199", "--out", str(tmp_path / "big.json")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"ERROR {argv[0]}: the radius 1e+200 is too large: its square overflows"
    ]
    assert not list(tmp_path.iterdir())
    # 1e150 passes the guard and runs to its estimates, which only a field
    # that overflows itself makes non-finite; a grid mean dilates its unit
    # rule, so no r^n weight overflows
    rc = main([*argv, "--field", field, "--radii", "1e150,1e149", "--out", str(tmp_path / "ok.json")])
    err = capsys.readouterr().err
    if at_1e150 is None:
        assert rc in (0, 1) and err == "" and (tmp_path / "ok.json").exists()
    elif isinstance(at_1e150, float):
        rep = ex.ExperimentReport.from_json((tmp_path / "ok.json").read_text())
        assert rc == 0 and err == "" and rep.values == pytest.approx([at_1e150] * 2, rel=1e-14)
    else:
        assert rc == 2 and err.splitlines() == [at_1e150]


def test_tiny_carnot_radii(tmp_path, capsys):
    # at r = 1e-100 the quartic gauge underflows to 0, so no gauge check
    # could keep a draw inside the ball; exact draws need none.  Below about
    # 1.5e-154 the second-layer half-width r^2 is subnormal, and the radius
    # is refused
    base = ["amv-sweep", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--point", "0,0,0",
            "--scheme", "mc:20000:1"]
    assert main([*base, "--radii", "1e-100,5e-101", "--out", str(tmp_path / "ok.json")]) in (0, 1)
    rep = ex.ExperimentReport.from_json((tmp_path / "ok.json").read_text())
    assert rep.reference == pytest.approx(4 / (3 * math.pi), rel=1e-14)
    # deviations of about r^2 are scaled before they are squared, so the
    # error bars do not underflow: 10000 pairs of |z1|^2 / r^2 (standard
    # deviation 0.26) give sigma near 0.0026, and 0.012 is 4.5 sigma
    assert all(abs(v - rep.reference) < 0.012 for v in rep.values)
    assert all(0.002 < s < 0.0035 for s in rep.std_errors)
    capsys.readouterr()
    rc = main([*base, "--radii", "1e-160,5e-161", "--out", str(tmp_path / "tiny.json")])
    assert rc == 2 and capsys.readouterr().err.splitlines() == [
        "ERROR amv-sweep: the radius 1e-160 is too small: its gauge-ball envelope underflows"
    ]
    assert not (tmp_path / "tiny.json").exists()


@pytest.mark.parametrize("argv, limit", [
    (["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0"], 0.25),
    (["amv-sweep", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--point", "0,0,0"], 4 / (3 * math.pi)),
], ids=["euclidean", "carnot"])
def test_tiny_grid_radii(tmp_path, argv, limit):
    # a grid mean dilates its unit rule: no r^n or r^Q weight underflows
    rc = main([*argv, "--scheme", "grid:8", "--radii", "1e-100,5e-101", "--out", str(tmp_path / "ok.json")])
    rep = ex.ExperimentReport.from_json((tmp_path / "ok.json").read_text())
    assert rc == 0 and rep.values == pytest.approx([limit] * 2, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0"],
    ["amv-sweep", "half:2", "--field", "sq1", "--point", "0.5,0", "--scheme", "mc:100:1"],
    ["amv-sweep", "cone:1.5", "--field", "coord:1", "--point", "0.5,0.2", "--scheme", "mc:100:1"],
    ["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--grid-size", "2", "--scheme", "grid:4"],
], ids=["euclidean-grid", "half-space-mc", "cone-mc", "strong-scan-grid"])
def test_radii_whose_square_underflows_exit_2(tmp_path, capsys, argv):
    # below about 1.5e-154 r**2 is subnormal, below about 1.5e-162 zero: the
    # difference quotient would divide by it
    rc = main([*argv, "--radii", "1e-200,1e-201", "--out", str(tmp_path / "tiny.json")])
    assert rc == 2 and capsys.readouterr().err.splitlines() == [
        f"ERROR {argv[0]}: the radius 1e-200 is too small: its square underflows"
    ]
    assert not list(tmp_path.iterdir())


def test_heisenberg_2_sweeps_get_a_closed_form_reference(tmp_path):
    # no grid rule ships for v1 = 4; hsq's horizontal Laplacian is 2 v1 = 8
    out = tmp_path / "h2.json"
    rc = main(["amv-sweep", "carnot:heisenberg:2:scaled:16", "--field", "hsq", "--point", "0,0,0,0,0",
               "--scheme", "mc:200000:1", "--tolerance", "0.02", "--out", str(out)])
    rep = ex.ExperimentReport.from_json(out.read_text())
    assert rep.reference == 8 * mo.parse_space("carnot:heisenberg:2:scaled:16").mean_value_constant()
    assert rc == 0 and rep.verdict == "pass"


_DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.spatial", "scipy.sparse.linalg",
             "scipy.sparse.csgraph", "amvlab.dirichlet")


def _deferred_loaded_after(runs, cwd, env) -> list[str]:
    """The deferred modules a fresh interpreter holds after importing the
    CLI and running each argv through cli.main."""
    code = (f"import json, sys\nfrom amvlab import cli\nfor argv in {runs!r}:\n    cli.main(argv)\n"
            f"print(json.dumps([m for m in {_DEFERRED!r} if m in sys.modules]))")
    p = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_sampling_commands_start_without_the_deferred_scipy(tmp_path, cli_env):
    # scipy.spatial and the sparse solvers are imported by the one function
    # that uses each, and no amvlab module imports scipy.integrate; none of
    # these commands calls one
    runs = [["amv-sweep", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--point", "0,0,0",
             "--scheme", "mc:2000:1"],
            ["isotropy", "heisenberg:1", "koranyi", "--scheme", "mc:2000:1"],
            ["identities", "--count", "3"]]
    assert _deferred_loaded_after(runs, tmp_path, cli_env) == []
    # positive control: the Dirichlet solver does load the sparse solvers
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    mm.save_space(mm.FiniteMMSpace(d, np.ones(3)), tmp_path / "space.txt")
    (tmp_path / "mask.txt").write_text("0 0.0\n2 6.0\n")
    loaded = _deferred_loaded_after([["dirichlet", "space.txt", "mask.txt", "--r", "1.5"]], tmp_path, cli_env)
    assert {"scipy.sparse.linalg", "scipy.sparse.csgraph", "amvlab.dirichlet"} <= set(loaded)


def test_consecutive_main_calls_write_what_separate_runs_write(tmp_path, cli_env, capsys, monkeypatch):
    # the parser is built once per process: the options of one call must not
    # reach the defaults of the next
    runs = [
        ["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0.5,0", "--radii", "0.5,0.25",
         "--scheme", "mc:1000:3", "--reference", "0.25", "--tolerance", "0.5", "--out", "a1.json"],
        ["amv-sweep", "euclidean:2", "--field", "sq1", "--point", "0,0", "--radii", "0.5,0.25", "--out", "a2.json"],
        ["identities", "--count", "3", "--size-max", "5", "--fault-inject", "--out", "i1.json"],
        ["identities", "--count", "3", "--size-max", "5", "--out", "i2.json"],
        ["mm-boundary", "half:2", "--radii", "0.5,0.25"],
    ]
    together, apart = tmp_path / "together", tmp_path / "apart"
    together.mkdir()
    apart.mkdir()
    monkeypatch.chdir(together)
    stdout_together = []
    for argv in runs:
        rc = main(argv)
        stdout_together.append((rc, capsys.readouterr().out))
    stdout_apart = []
    for argv in runs:
        p = run_cli(argv, cwd=apart, env=cli_env)
        stdout_apart.append((p.returncode, p.stdout))
    assert stdout_together == stdout_apart
    files = sorted(f.name for f in together.iterdir())
    assert files == sorted(f.name for f in apart.iterdir()) and len(files) == 8
    for name in files:
        assert (together / name).read_bytes() == (apart / name).read_bytes(), name


def _budget() -> str:
    """How mmspace.check_memory names its budget on this process."""
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY and soft < phys:
        return f"more than the {soft / 1e9:.1f} GB of the address-space limit (RLIMIT_AS)"
    return f"more than the {phys / 1e9:.1f} GB of physical memory"


def _never(*args, **kwargs):
    raise AssertionError("allocated before the memory guard")


@pytest.mark.parametrize("argv, patches, owner", [
    (["amv-sweep", "carnot:heisenberg:1:koranyi", "--field", "hsq", "--point", "0,0,0",
      "--scheme", "grid:100000", "--reference", "0"],
     [(np.polynomial.legendre, "leggauss"), (it._special, "roots_jacobi"), (it, "_sphere_rule")],
     "grid:100000 (4000020000000000 nodes in 3 coordinates) needs a 400002000.0 GB node set"),
    (["amv-sweep", "euclidean:3", "--field", "sq1", "--point", "0,0,0", "--scheme", "grid:100000"],
     [(it._special, "roots_jacobi"), (it, "_sphere_rule")],
     "grid:100000 (2000010000000000 nodes in 3 coordinates) needs a 200001000.0 GB node set"),
    (["carnot-constant", "heisenberg:1", "koranyi", "--grid-res", "100000"],
     [(np.polynomial.legendre, "leggauss"), (it._special, "roots_jacobi"), (it, "_sphere_rule")],
     "grid:100000 (4000020000000000 nodes in 3 coordinates)"),
    (["identities", "--size-max", "10000000"], [(mm, "random_table")],
     "an identity-suite instance of up to n=10000000 points needs a 4800000.0 GB working set"),
    (["strong-scan", "carnot:heisenberg:1:koranyi", "--field", "folland", "--grid-size", "10000000000000"],
     [(mo.CarnotSpace, "sample_ball")],
     "a gauge annulus grid of 10000000000000 points needs a 5120000.0 GB sample batch"),
    (["weak-sweep", "euclidean:2", "--field", "sq1", "--phi", "tent:0,0:0.3:0.6", "--cloud-cells", "100000"],
     [(np, "meshgrid"), (np.random, "default_rng")],
     "a cloud grid of 10000000000 cells needs a 700.0 GB grid build"),
    (["weak-sweep", "cone:4.5", "--field", "coord:1", "--phi", "conetent:0.3:0.6", "--cloud-cells", "100000"],
     [(np, "meshgrid"), (np.random, "default_rng")],
     "a cloud grid of 5000000000 cells needs a 350.0 GB grid build"),
    (["bpz-demo", "heisenberg:1", "koranyi", "--resolutions", "100000", "--level-radii", "0.5"],
     [(np, "meshgrid"), (np.random, "default_rng")],
     "a cloud grid of 1000000000000000 cells needs a 105000000.0 GB grid build"),
], ids=["grid-carnot", "grid-euclidean", "grid-res", "size-max", "grid-size", "cloud-euclidean", "cloud-cone",
        "cloud-carnot"])
def test_allocating_size_flags_are_refused_before_they_allocate(tmp_path, capsys, monkeypatch, argv, patches,
                                                                 owner):
    for module, name in patches:
        monkeypatch.setattr(module, name, _never)
    rc = main([*argv, "--out", str(tmp_path / "big.json")])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1, err
    assert err.startswith(f"ERROR {argv[0]}: {owner}") and _budget() in err, err
    assert not list(tmp_path.iterdir())


def test_readme_cli_lines_parse():
    # every command line of README's CLI block parses, and together they
    # cover every subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [ln.split("#", 1)[0] for ln in block.splitlines() if ln.startswith("amvlab ")]
    assert len(lines) >= 12
    parser = make_parser()
    commands = {parser.parse_args(shlex.split(ln)[1:]).command for ln in lines}
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == set(subparsers.choices)
