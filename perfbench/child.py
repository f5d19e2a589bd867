"""One solve of one workload, in a fresh process; writes a JSON record.

``run.py`` starts this once per solve so that set-up time and peak memory
are measured per process:

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1
        --start T --work DIR --record FILE [--spans FILE] [--size tiny]

``--start`` is the parent's ``time.perf_counter()`` read just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so ``setup_s`` spans process start, interpreter start,
imports and writing the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def solve(case, out_dir, trace=False, run_id="", golden=None):
    """Run ``treefem run``, then ``treefem codegen``, on a case's script.

    Returns the record of the solve: end-to-end figures, the checks'
    problems and, when traced, the spans and per-layer metrics.
    """
    from treefem import cli
    from probes import Patches, SolverProbe, Tracer, absent_metrics, \
        layer_metrics
    import workloads

    out_dir = Path(out_dir)
    patches = Patches()
    probe = SolverProbe()
    tracer = Tracer(run_id) if trace else None
    try:
        if tracer is not None:
            tracer.install(patches)
            window = tracer.open("run")
        probe.install(patches)
        tick = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_run(str(case.script), str(out_dir))
        seconds = time.perf_counter() - tick
        if tracer is not None:
            tracer.close(window)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_codegen(str(case.script), out_dir=str(out_dir / "codegen"))
    finally:
        patches.restore()

    problems, facts = workloads.check_outputs(
        case, out_dir, probe.solves,
        golden=workloads.GOLDEN if golden is None else golden)
    record = {"time_to_solution_s": seconds, "peak_rss_mb": peak_mb,
              "problems": problems, "facts": facts, "solves": probe.solves}
    if tracer is not None:
        spans = tracer.dump()
        record.update(spans=spans, layers=layer_metrics(spans),
                      absent=absent_metrics(spans), missing=tracer.missing)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    record = {"problems": []}
    try:
        import treefem.cli  # noqa: F401  (set-up includes the imports)
        import workloads

        work = Path(args.work)
        case = workloads.make_case(args.workload, args.seed, work / "inputs",
                                   args.size)
        setup = time.perf_counter() - args.start
        record = solve(case, work / "out", bool(args.trace),
                       f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        record["setup_s"] = setup
    except Exception as err:  # reported as a failed solve, not a crash
        traceback.print_exc()
        record["problems"].append(f"{type(err).__name__}: {err}")
    spans = record.pop("spans", None)
    if args.spans and spans is not None:
        Path(args.spans).write_text(json.dumps(spans))
    Path(args.record).write_text(json.dumps(record))
    return 0 if not record["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
