"""The benchmark's tracer wraps amvlab names from outside the package.

``benchmarks/perfbench/tracing.py`` skips a name it cannot find, so a
renamed or folded function would silently zero its per-layer metric.  This
test fails instead when a wrapped name is gone from amvlab.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from amvlab import _kernels, dirichlet, experiments, mmspace, models

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "perfbench" / "tracing.py"

# wrapped by the tracer, but no longer in amvlab; its metric stays 0
STALE = {("models", "_symmetrized")}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner_name(owner):
    return getattr(owner, "__name__", str(owner)).rpartition(".")[2]


def test_every_traced_name_exists():
    tracing = _tracing()
    wanted = [(_kernels, attr) for attr, _ in tracing._KERNELS]
    wanted += [(models, attr) for attr in tracing._CLOUDS]
    wanted += [(mmspace, attr) for attr in tracing._MMSPACE_OPS]
    wanted += [(experiments, attr) for attr in tracing._SWEEPS]

    class Recorder(tracing.Tracer):
        """Notes what install asks to wrap and patches nothing."""

        def wrap_function(self, module, attr, name, counter=None):
            wanted.append((module, attr))

        def wrap_method(self, cls, attr, name, counter=None):
            wanted.append((cls, attr))

    tracing.install(Recorder())
    missing = sorted(
        f"{_owner_name(owner)}.{attr}"
        for owner, attr in wanted
        if not (attr in vars(owner) if inspect.isclass(owner) else hasattr(owner, attr))
        and (_owner_name(owner), attr) not in STALE
    )
    assert not missing, f"traced names missing from amvlab: {missing}"


def test_solve_keeps_the_parameters_the_tracer_reads():
    params = inspect.signature(dirichlet.solve).parameters
    assert "part" in params and "dense_cutoff" in params


def _bound(fn, *args):
    """fn's arguments by name, defaults included, as the tracer binds them."""
    bound = inspect.signature(fn).bind(*args)
    bound.apply_defaults()
    return bound.arguments


@pytest.mark.parametrize("cut", [None, 0.5], ids=["full", "cut"])
def test_counters_read_full_and_cut_spaces(cut):
    tracing, r = _tracing(), 0.4
    space, pts = models.euclidean_cloud(models.Euclidean(2), [-1.0, -1.0], [1.0, 1.0], 8, 3, cut=cut)[:2]
    u = np.linspace(-1.0, 1.0, space.n)
    calls = {
        "average": (space, u, r), "adjoint_average": (space, u, r), "ball_masses": (space, r),
        "sym_r_laplacian": (space, u, r), "kernel_matrix": (space, r),
    }
    assert set(calls) == set(tracing._MMSPACE_OPS)
    t = tracing.Tracer()
    tracing._finite_space(t, -1, _bound(mmspace.FiniteMMSpace.__init__, space, space.dist, space.mass), None)
    for name, args in calls.items():
        op = getattr(mmspace, name)
        tracing._mmspace_op(t, -1, _bound(op, *args), op(*args))
    edge = np.abs(pts).max(axis=1) > 0.6
    part = dirichlet.BoundaryPartition(np.flatnonzero(~edge), np.flatnonzero(edge), np.ones(np.count_nonzero(edge)))
    tracing._solve(t, -1, _bound(dirichlet.solve, space, part, r), dirichlet.solve(space, part, r))
    full = space.as_matrix(space.dist, fill=np.inf)
    # how the tracer sizes a space is its own business; that it can read one is this test's
    assert t.counts["mmspace.dense_bytes"] > 0 and t.counts["mmspace.pairs_scanned"] > 0
    assert t.counts["mmspace.op_calls"] == len(calls)
    assert t.counts["mmspace.ball_pairs"] == len(calls) * np.count_nonzero(full < r)
    assert t.counts["dirichlet.solve.interior_points"] == part.interior.size > 0
