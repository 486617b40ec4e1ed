"""Output checks: every experiment's files are read back and judged.

A check returns a list of problems (empty when the output is correct) and
the facts the metrics need: the worst Monte Carlo standard error, the
point count of the largest dense space, and the deterministic numbers that
are compared with ``expected.json``.

Deterministic numbers must match the values recorded from the parent
commit to a relative 1e-9.  They are recorded for every input set (the
seed modulo ``workloads.INPUT_SETS``); experiments marked unseeded produce
the same numbers for every input set.  A deterministic output without a
recorded value is a failure, so no seed skips the comparison.  Monte Carlo estimates are checked on every seed against
closed forms: sigma > 0 and within 5 sigma of the exact value, so a
standard error that collapses to 0 is a failure, not infinite accuracy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
IDENTITY_TOL = 1e-12
MC_SIGMAS = 5.0

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        raise SystemExit(f"error: {EXPECTED_PATH.name} is missing; outputs cannot be checked")
    return json.loads(EXPECTED_PATH.read_text())


def expected_numbers(expected: dict, workload: str, input_set: int, exp) -> dict | None:
    """Recorded numbers for this experiment, or None when none were recorded."""
    by_seed = expected.get(workload, {})
    if str(input_set) in by_seed:
        return by_seed[str(input_set)].get(exp.id)
    if not exp.seeded and by_seed:
        return next(iter(by_seed.values())).get(exp.id)
    return None


def check(exp, rc: int, out_path: Path) -> tuple[list, dict]:
    """Judge one experiment's exit code and output files."""
    if rc == 2:
        return ["exit code 2 (input or numeric error)"], {}
    try:
        return _CHECKS[exp.kind](exp, rc, out_path)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def compare(numbers: dict, recorded: dict) -> list:
    """Problems where numbers differ from the recorded ones beyond REL_TOL."""
    problems = []
    for key, want in recorded.items():
        got = numbers.get(key)
        if isinstance(want, dict):
            if not isinstance(got, dict) or set(got) != set(want):
                problems.append(f"{key}: keys differ from the recorded ones")
            else:
                problems += [f"{key}.{p}" for p in compare(got, want)]
            continue
        a, b = np.ravel(np.asarray(got, dtype=float)), np.ravel(np.asarray(want, dtype=float))
        if a.shape != b.shape:
            problems.append(f"{key}: shape {a.shape} != recorded {b.shape}")
            continue
        floor = 1e-3 * float(np.max(np.abs(b), initial=0.0))
        bad = np.abs(a - b) > REL_TOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            problems.append(f"{key}[{i}] = {a[i]!r}, recorded {b[i]!r}")
    return problems


def _verdict_exit(exp, rc, verdict) -> list:
    problems = []
    if rc != (0 if verdict == "pass" else 1):
        problems.append(f"exit code {rc} does not match verdict {verdict!r}")
    if exp.exit_code is not None and rc != exp.exit_code:
        problems.append(f"exit code {rc}, expected {exp.exit_code}")
    return problems


def _report(exp, rc, out_path):
    rep = json.loads(out_path.read_text())
    problems = _verdict_exit(exp, rc, rep["verdict"])
    values = [float(v) for v in rep["values"]]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite value in report")
    meta = rep.get("metadata", {})
    dense_n = max([meta.get("cloud_points", 0)] + list(meta.get("cloud_sizes", [])))
    numbers = {"values": values, "fitted_limit": rep["fitted_limit"]}
    return problems, {"numbers": numbers, "dense_n": dense_n}


def _within_sigma(value, sigma, exact, label) -> list:
    if not sigma > 0:
        return [f"{label}: std_error {sigma!r} is not positive"]
    if abs(value - exact) > MC_SIGMAS * sigma:
        return [f"{label}: {value!r} is {abs(value - exact) / sigma:.1f} sigma from {exact!r}"]
    return []


def _mc_report(exp, rc, out_path):
    rep = json.loads(out_path.read_text())
    problems = _verdict_exit(exp, rc, rep["verdict"])
    for r, v, s in zip(rep["radii"], rep["values"], rep["std_errors"]):
        problems += _within_sigma(v, s, exp.closed_form, f"r={r!r}")
    return problems, {"sigma": max(rep["std_errors"])}


def _isotropy(exp, rc, out_path):
    payload = json.loads(out_path.read_text())
    problems = [] if rc == 0 else [f"exit code {rc}: max/min {payload['max_over_min']!r}"]
    sigmas = []
    for i, est in enumerate(payload["estimates"]):
        problems += _within_sigma(est["value"], est["std_error"], exp.closed_form, f"direction {i}")
        sigmas.append(est["std_error"])
    return problems, {"sigma": max(sigmas)}


def _identities(exp, rc, out_path):
    summary = json.loads(out_path.read_text())
    problems = [] if rc == 0 and summary["ok"] else [f"identity suite failed (exit {rc})"]
    worst = max(summary["worst"].values(), default=0.0)
    if not worst < IDENTITY_TOL:
        problems.append(f"worst identity residual {worst!r} >= {IDENTITY_TOL}")
    size_max = int(exp.argv[exp.argv.index("--size-max") + 1])
    return problems, {"numbers": {"worst": summary["worst"]}, "dense_n": size_max}


def _dirichlet(exp, rc, out_path):
    from amvlab import mmspace

    problems = [] if rc == 0 else [f"exit code {rc}"]
    rep = json.loads(Path(str(out_path) + ".json").read_text())
    u = mmspace.load_field(str(out_path))
    interior = exp.extra["interior"]
    if rep["interior"] != interior.tolist():
        problems.append("interior point set differs from the mask")
    fld = exp.extra["field"]
    g = np.delete(fld, interior)
    scale = float(np.max(np.abs(g)))
    if not rep["residual"] <= 1e-10 * scale:
        problems.append(f"stationarity residual {rep['residual']!r} too large")
    # nonnegative weights make interior values convex combinations of
    # neighbours: the discrete maximum principle holds exactly
    slack = 1e-12 * scale
    if np.any(u[interior] < g.min() - slack) or np.any(u[interior] > g.max() + slack):
        problems.append("solution leaves the range of the boundary data")
    gap = float(np.max(np.abs(u[interior] - fld[interior]), initial=0.0))
    return problems, {"numbers": {"gap": gap}, "dense_n": exp.extra["n"]}


_CHECKS = {
    "report": _report,
    "mc-report": _mc_report,
    "isotropy": _isotropy,
    "identities": _identities,
    "dirichlet": _dirichlet,
}
