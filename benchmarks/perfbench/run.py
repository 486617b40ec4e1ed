"""amvlab benchmark: four experiment workloads, end-to-end and per-layer metrics.

Drives the lab the way its users do: one process, closed loop, one
experiment at a time through ``amvlab.cli.main(argv)`` in-process, so
argument parsing and report writing are timed too.  Run from the root of
a checkout (the package is imported from ``src/``):

    python3 benchmarks/perfbench/run.py --workload cloud-sweep --seed 0 --seconds 25 --trace 0
    python3 benchmarks/perfbench/run.py --workload all --seed 0 --seconds 25   # table of all four
    python3 benchmarks/perfbench/run.py --smoke                                # self-test, toy sizes

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with tracing off; with ``--trace 1`` it carries the per-layer
metrics of a separate traced run (see tracing.py).  The line before it is
a ``meta`` object: run facts that are not gated metrics, quartiles, the
error rate and, for traced runs, the reconciliation with the ROADMAP's
hand-measured baseline.  Every experiment's output is checked
(checks.py); ``failed`` counts experiments that raised, exited with an
unexpected code or failed their check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread: spinning BLAS threads around tiny linear-algebra calls
# (Gauss-Legendre nodes, small solves) make timings erratic on a 2-core
# machine, and the parallelism under test is amvlab's own --threads pool.
# Set before numpy is imported; setup_s subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (these import numpy: after the BLAS setting)
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("cloud-sweep", "mc-means", "dirichlet-bpz", "small-exact")
SETUP_REPEATS = 12
MIN_PASSES = 3
MIN_PAIRS = 2  # untraced + traced passes in a traced run
REPLAY_REPEATS = 3
MAX_UNWRAPPED_SHARE = 0.10  # at toy sizes the share is 0.3-3%
# the toy Dirichlet problem stays below the CG cutoff of 500 interior points
ZERO_AT_TOY_SIZE = {"dirichlet.solve.cg_calls"}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "time_to_accuracy_s": "s",
}

# ROADMAP "Measured baseline": default_cloud(euclidean:2, 64), n = 4096
ROADMAP_BASELINE_S = {
    "euclid_dist_matrix": 0.52,
    "_symmetrized": 0.49,
    "FiniteMMSpace validation": 0.40,
    "sym_r_laplacian per call": 0.34,
}
BASELINE_EXPERIMENT = "sym-euclid"


@dataclass
class StepResult:
    id: str
    wall: float
    cpu: float
    rc: int
    problems: list
    info: dict
    report_bytes: int


@dataclass
class PassResult:
    steps: list = field(default_factory=list)
    layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.steps)

    @property
    def cpu(self) -> float:
        return sum(s.cpu for s in self.steps)


def _import_amvlab():
    """Import amvlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "amvlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'amvlab'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import amvlab

    if Path(amvlab.__file__).resolve().parent != (SRC / "amvlab").resolve():
        raise SystemExit(f"error: imported amvlab from {amvlab.__file__}, not {SRC}")
    return amvlab


class Runner:
    """Runs one workload's passes and checks every output."""

    def __init__(self, workload, seed, smoke, work, expected):
        """expected: the recorded outputs to compare with, or None when
        nothing is compared (toy sizes, recording)."""
        self.workload = workload
        self.seed = seed
        self.input_set = workloads.input_set(seed)
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.exps = workloads.build(workload, self.input_set, smoke, work)
        self.expected = expected
        self.first_hash = {}
        self.attempted = 0
        self.problems = []
        self.last_spans = []

    def step(self, exp, tracer):
        from amvlab import cli

        out_path = Path(exp.argv[exp.argv.index("--out") + 1])
        sink = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if exp.before is not None:
                    exp.before()
                if tracer is None:
                    rc = cli.main(exp.argv)
                else:
                    rc = tracer.root("cli", cli.main, exp.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed experiment, not a failed run
            rc = -1
            sink.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return self._judge(exp, rc, out_path, wall, cpu, sink.getvalue())

    def _judge(self, exp, rc, out_path, wall, cpu, text):
        self.attempted += 1
        if rc == -1:
            problems, info = [f"raised: {text.strip().splitlines()[-1]}"], {}
        else:
            problems, info = checks.check(exp, rc, out_path)
        if self.expected is not None and "numbers" in info:
            recorded = checks.expected_numbers(self.expected, self.workload, self.input_set, exp)
            if recorded is None:
                problems.append(f"no recorded output for input set {self.input_set}")
            else:
                problems += checks.compare(info["numbers"], recorded)
        outputs = sorted(self.work.glob(f"{exp.id}.*"))
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in outputs)).hexdigest()
        if self.first_hash.setdefault(exp.id, digest) != digest:
            problems.append("output differs from the first pass with the same seed")
        if problems:
            self.problems.append({"experiment": exp.id, "problems": problems[:5]})
        size = sum(p.stat().st_size for p in outputs)
        return StepResult(exp.id, wall, cpu, rc, problems, info, size)

    def run_pass(self, tracer=None):
        result = PassResult()
        for exp in self.exps:
            if tracer is not None:
                tracer.start_experiment(exp.id)
            result.steps.append(self.step(exp, tracer))
        if tracer is not None:
            spans, counts = tracer.take()
            metrics, layer_sum, count_s = tracing.layer_metrics(spans, counts)
            metrics["trace.wall_s"] = result.wall
            metrics["trace.count_s"] = count_s
            metrics["trace.coverage"] = layer_sum / max(result.wall - count_s, 1e-300)
            result.layers = metrics
            self.last_spans = spans
        return result

    def timed_passes(self, budget, min_passes):
        """Untraced passes until the next one would overrun budget seconds."""
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.run_pass())
            per_pass = time.perf_counter() - t0
            if len(passes) >= min_passes and time.perf_counter() - start + per_pass > budget:
                return passes

    @property
    def failed(self):
        return len(self.problems)


def measure_setup(workload):
    """Wall time of a fresh interpreter doing the workload's set-up."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); " + workloads.SETUP_CODE[workload]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "count": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "count": len(values)}


def time_to_accuracy(exps, passes):
    """CLT-extrapolated time to each experiment's stated accuracy.

    Monte Carlo experiments scale their median wall time by
    (worst sigma / pinned target sigma)^2; the result is the geometric mean
    over them.  A workload without Monte Carlo has every result exact after
    one evaluation, so the result is the sum of the experiments' median
    wall times.
    """
    def median_wall(exp):
        return statistics.median(s.wall for p in passes for s in p.steps if s.id == exp.id)

    mc = [e for e in exps if e.mc]
    if not mc:
        return sum(median_wall(exp) for exp in exps)
    logs = []
    for exp in mc:
        sigma = next(s for s in passes[0].steps if s.id == exp.id).info.get("sigma", 0.0)
        scale = (sigma / exp.target_sigma) ** 2 if sigma > 0 else 1.0  # 0 already failed
        logs.append(math.log(median_wall(exp) * scale))
    return math.exp(sum(logs) / len(logs))


def rel_std_error(exps, passes):
    """Median over MC experiments of worst sigma / pinned target sigma."""
    ratios = []
    for exp in exps:
        if exp.mc:
            step = next(s for s in passes[0].steps if s.id == exp.id)
            ratios.append(step.info.get("sigma", 0.0) / exp.target_sigma)
    return statistics.median(ratios) if ratios else 0.0


def l3_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * mult
        except (OSError, ValueError):
            continue
    return None


def run_meta(runner, passes, seconds, trace):
    import numpy
    import scipy

    walls = [p.wall for p in passes]
    dense_n = max((s.info.get("dense_n", 0) for p in passes for s in p.steps), default=0)
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "amvlab").glob("*.py"))
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "input_set": runner.input_set,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "experiments_per_pass": len(runner.exps),
        "wall_s": quartiles(walls),
        "cpu_s": quartiles([p.cpu for p in passes]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "l3_bytes": l3_bytes(),
        "largest_dense_n": dense_n,
        "largest_dense_bytes": 8 * dense_n * dense_n,
        "src_amvlab_lines": src_lines,
    }


def warm_up(workload, seed):
    """One toy-size pass, untimed and not counted: lazy imports and
    first-call paths run before timing.  Toy clouds are too coarse for
    the full-size accuracy checks; the smoke test checks them instead."""
    Runner(workload, seed, True, OUT / "warmup", None).run_pass()


def replay_speedup(tracer):
    """Largest kernel call of the traced run, timed at 1 and 2 threads
    (best of REPLAY_REPEATS each)."""
    if tracer.largest_kernel is None:
        return 0.0
    _, fn, args = tracer.largest_kernel
    best = []
    for threads in (1, 2):
        args["threads"] = threads
        times = []
        for _ in range(REPLAY_REPEATS):
            t0 = time.perf_counter()
            fn(**args)
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return best[0] / best[1]


def baseline_split(spans):
    """Kernel / _symmetrized / validation split of the n = 4096 cloud."""
    own, durations = tracing.experiment_self_times(spans, BASELINE_EXPERIMENT)
    if not durations:
        return None
    sym_calls = durations.get("mmspace.sym_r_laplacian", [])
    measured = {
        "euclid_dist_matrix": own.get("kernels.euclid_dist_matrix", 0.0),
        "_symmetrized": own.get("models._symmetrized", 0.0),
        "FiniteMMSpace validation": own.get("mmspace.FiniteMMSpace", 0.0),
        "sym_r_laplacian per call": statistics.median(sym_calls) if sym_calls else 0.0,
    }
    return {
        "experiment": BASELINE_EXPERIMENT,
        "measured_s": measured,
        "roadmap_s": ROADMAP_BASELINE_S,
        "ratio": {k: measured[k] / ROADMAP_BASELINE_S[k] for k in measured},
    }


def traced_pairs(runner, tracer, budget):
    """Alternate untraced and traced passes, so the tracing overhead is
    measured pair by pair and machine drift cancels."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(runner.run_pass())
        tracing.install(tracer)
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.restore()
        per_pair = time.perf_counter() - t0
        if len(traced) >= MIN_PAIRS and time.perf_counter() - start + per_pair > budget:
            return untraced, traced


def run_workload(workload, seed, seconds, trace, smoke):
    shutil.rmtree(OUT / "work", ignore_errors=True)
    shutil.rmtree(OUT / "warmup", ignore_errors=True)
    expected = None if smoke else checks.load_expected()
    # set-up is sampled while this process runs no pass: half before the
    # warm-up, half after the last pass, so the samples span the run and
    # host speed drift over it affects them as it affects the passes
    setup = [] if trace else [measure_setup(workload) for _ in range(SETUP_REPEATS // 2)]
    warm_up(workload, seed)
    runner = Runner(workload, seed, smoke, OUT / "work", expected)
    if not trace:
        passes = runner.timed_passes(seconds, MIN_PASSES)
        setup += [measure_setup(workload) for _ in range(SETUP_REPEATS - len(setup))]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "time_to_accuracy_s": time_to_accuracy(runner.exps, passes),
        }
        units = E2E_UNITS
        meta = run_meta(runner, passes, seconds, trace)
    else:
        tracer = tracing.Tracer()
        untraced, passes = traced_pairs(runner, tracer, seconds)
        metrics = {}
        for name in passes[0].layers:
            metrics[name] = statistics.median(p.layers[name] for p in passes)
        metrics["kernels.thread_speedup"] = replay_speedup(tracer)
        metrics["integrate.rel_std_error"] = rel_std_error(runner.exps, passes)
        metrics["cli.report_bytes"] = statistics.median(
            sum(s.report_bytes for s in p.steps) for p in passes
        )
        metrics["trace.overhead_s"] = statistics.median(
            t.wall - u.wall for t, u in zip(passes, untraced)
        )
        units = tracing.UNITS
        meta = run_meta(runner, passes, seconds, trace)
        meta["untraced_wall_s"] = quartiles([p.wall for p in untraced])
        meta["baseline"] = baseline_split(runner.last_spans)
        trace_path = OUT / f"trace-{workload}.tsv"
        tracing.write_spans(runner.last_spans, trace_path)
        meta["trace_file"] = str(trace_path.relative_to(ROOT))
    attempted, failed = runner.attempted, runner.failed
    meta.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                problems=runner.problems[:10])
    shutil.rmtree(OUT / "work", ignore_errors=True)
    shutil.rmtree(OUT / "warmup", ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    return meta, result


def run_child(workload, seed, seconds, trace, smoke):
    """Run one workload in a fresh process (own peak RSS); return its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {workload} run failed:\n{proc.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def run_all(seed, seconds):
    print(f"{'workload':14s} {'metric':20s} {'value':>14s} unit")
    for workload in WORKLOADS:
        meta, result = run_child(workload, seed, seconds, 0, False)
        for name, m in result["metrics"].items():
            print(f"{workload:14s} {name:20s} {m['value']:14.6g} {m['unit']}")
        print(f"{workload:14s} {'error_rate':20s} {meta['error_rate']:14.6g} "
              f"fraction ({result['failed']}/{result['attempted']})")
    return 0


def trace_errors(workload, metrics):
    """The traced layer self times must cover the traced wall time within
    5%.  That holds by construction, since work outside every wrapper falls
    to the self time of its caller; so the time left to the CLI outside
    parsing, the auto-reference, report writing and every wrapped layer must
    also stay small, or a layer the CLI calls has lost its wrapper."""
    value = {name: m["value"] for name, m in metrics.items()}
    errors = []
    if abs(value["trace.coverage"] - 1.0) > 0.05:
        errors.append(f"{workload}: layer self times cover "
                      f"{value['trace.coverage']:.3f} of traced wall")
    share = value["cli.unwrapped_s"] / value["trace.wall_s"]
    if share > MAX_UNWRAPPED_SHARE:
        errors.append(f"{workload}: {share:.3f} of traced wall is CLI time outside every "
                      f"wrapped layer (limit {MAX_UNWRAPPED_SHARE})")
    return errors


def smoke_test(seed):
    """Every workload at toy size, traced and untraced: every metric named in
    BENCHMARK.json must be emitted with its unit, every output correct, the
    traced run must pass trace_errors, and every per-layer metric must be
    nonzero on at least one workload, so a wrapper that is missing or
    misnamed fails the test."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    all_errors = []
    nonzero = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors = []
            meta, result = run_child(workload, seed, 1, trace, True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace={trace}: {meta['problems']}")
            if trace:
                errors += trace_errors(workload, result["metrics"])
                nonzero.update(k for k, v in result["metrics"].items() if v["value"] != 0)
            print(f"{workload:14s} trace={trace} ok={not errors} "
                  f"attempted={result['attempted']}", flush=True)
            all_errors += errors
    idle = sorted(set(wanted[1]) - nonzero - ZERO_AT_TOY_SIZE)
    if idle:
        all_errors.append(f"per-layer metrics that are 0 on every workload: {idle}")
    for err in all_errors:
        print("FAIL", err)
    print("smoke:", "FAIL" if all_errors else "PASS")
    return 1 if all_errors else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test at toy sizes")
    ap.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    _import_amvlab()
    if args.smoke:
        return smoke_test(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    meta, result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.toy)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
