"""Record the deterministic outputs that checks.py compares against.

Runs one full-size pass of every workload for each seed and writes
``benchmarks/perfbench/expected.json``: {workload: {seed: {experiment: numbers}}}.
Run it only on a commit whose outputs are known good; a change that is
meant to keep outputs must pass against the file as recorded.

    python3 benchmarks/perfbench/record_expected.py --seeds 0-15
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default=f"0-{workloads.INPUT_SETS - 1}",
                    help="inclusive range a-b of input sets")
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    run._import_amvlab()
    recorded = {}
    work = run.OUT / "record"
    for workload in run.WORKLOADS:
        for seed in range(lo, hi + 1):
            shutil.rmtree(work, ignore_errors=True)
            runner = run.Runner(workload, seed, False, work, None)
            result = runner.run_pass()
            if runner.problems:
                raise SystemExit(f"{workload} seed {seed}: {runner.problems}")
            recorded.setdefault(workload, {})[str(seed)] = {
                s.id: s.info["numbers"] for s in result.steps if "numbers" in s.info
            }
            print(f"{workload} seed {seed}: {len(result.steps)} experiments", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    run.checks.EXPECTED_PATH.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
