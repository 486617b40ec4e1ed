"""The benchmark's tracer wraps amvlab names from outside the package.

``benchmarks/perfbench/tracing.py`` skips a name it cannot find, so a
renamed or folded function would silently zero its per-layer metric.  This
test fails instead when a wrapped name is gone from amvlab.
"""

import importlib.util
import inspect
from pathlib import Path

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
