"""Benchmark of treefem solves: time to solution, memory and accuracy.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 20
    python3 perfbench/selftest.py

A run is a closed loop: one solve at a time, each in a fresh process
(``child.py``), ``Assembler`` at its default ``threads=1``. It starts
another solve while the mean solve time so far says it will end within
``--seconds``; the first always runs. The workloads are in
``workloads.py``; their inputs come from ``--seed``, and every solve's
outputs are checked there without trusting treefem.

With ``--trace 0`` a run reports, as medians over its solves:

- ``time_to_solution_s``: wall time of ``treefem.cli.cmd_run`` on the
  generated script: parse, mesh, assembler set-up, compile, assemble,
  reduce, solve, and writing the VTK files and ``diagnostics.csv``.
- ``setup_s``: from process start through the imports and writing the
  generated inputs.
- ``peak_rss_mb``: the solving process's ``ru_maxrss`` after the run.
- ``l2_error``: the L2 distance of the written solution from the closed
  form (for ``heat_bdf2``, the steady state the run has reached).

With ``--trace 1`` it alternates an untraced and a traced solve and
reports the per-layer metrics of ``probes.py`` (medians over the traced
solves) plus ``trace.overhead``, traced over untraced time to solution,
minus 1. Spans of the traced solves go to ``.perfbench_out/``.

BLAS and OpenMP run on one thread. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (solves that
raised, failed a check, or whose counts did not repeat on the seed) and
``metrics``. The line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Default OpenBLAS threading changed one process's first bicgstab call
# from 0.12 s to 1.17 s and an iteration count from 451 to 479.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
# Fixed string hashing, so set and dict orders repeat between solves.
HASH_SEED = {"PYTHONHASHSEED": "0"}

END_TO_END = (("time_to_solution_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("l2_error", "L2"))

# A run ends within 180 s even if a solve hangs.
HARD_LIMIT_S = 170.0

# Figures that are deterministic for one seed and must repeat exactly.
REPEATING_FACTS = ("l2_error", "iterations", "nodes", "elements")


def environment(seed):
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"][
                "blas"].get("version", "unknown")
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "treefem").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".tmpl"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"threads": THREADS, **HASH_SEED, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas(numpy), "openblas_scipy": blas(scipy),
            "seed": seed, "commit": commit,
            "source_sha256": digest.hexdigest()}


def spawn(workload, seed, traced, size, work, spans, timeout):
    """One solve in a fresh process; returns its record."""
    work.mkdir(parents=True)
    record_path = work / "record.json"
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--size", size,
               "--work", str(work), "--record", str(record_path)]
    if traced:
        command += ["--spans", str(spans)]
    env = dict(os.environ, **THREADS, **HASH_SEED)
    start = time.perf_counter()
    try:
        done = subprocess.run(command + ["--start", repr(start)], env=env,
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        record = {"problems": [f"solve exceeded {timeout:.0f} s"],
                  "timed_out": True}
    else:
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            record = {"problems": [f"solve exited {done.returncode} without "
                                   f"a record: {done.stderr[-2000:]}"]}
        if done.returncode and not record["problems"]:
            record["problems"].append(f"solve exited {done.returncode}")
    shutil.rmtree(work, ignore_errors=True)
    record["traced"] = traced
    return record


def measure(workload, seed, seconds, trace, size):
    """Solve until ``seconds`` are used; returns the solves' records."""
    work_root = ROOT / ".perfbench_work" / str(os.getpid())
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    kinds = (False, True) if trace else (False,)
    records = []
    start = time.perf_counter()
    try:
        while True:
            for traced in kinds:
                elapsed = time.perf_counter() - start
                spans = out_root / (f"spans_{workload}_seed{seed}_"
                                    f"{len(records)}.json")
                records.append(spawn(workload, seed, traced, size,
                                     work_root / str(len(records)), spans,
                                     max(1.0, HARD_LIMIT_S - elapsed)))
            elapsed = time.perf_counter() - start
            rounds = len(records) // len(kinds)
            if (elapsed + elapsed / rounds > seconds
                    or any(r.get("timed_out") for r in records)):
                return records
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()    # only when no other run uses it


def mark_repeats(records):
    """A solve whose deterministic counts differ from the first fails."""
    done = [r for r in records if "facts" in r]
    for r in done[1:]:
        for key in REPEATING_FACTS:
            if r["facts"].get(key) != done[0]["facts"].get(key):
                r["problems"].append(
                    f"{key} {r['facts'].get(key)!r} differs from the first "
                    f"solve's {done[0]['facts'].get(key)!r} on this seed")
    from probes import PER_LAYER

    counts = [name for name, unit, _ in PER_LAYER
              if unit in ("count", "MB") or name == "mesh.carve_keep_ratio"]
    traced = [r for r in done if "layers" in r]
    for r in traced[1:]:
        for key in counts:
            if r["layers"][key] != traced[0]["layers"][key]:
                r["problems"].append(f"{key} {r['layers'][key]!r} differs "
                                     f"from the first traced solve's on "
                                     f"this seed")


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def summarize(workload, seed, seconds, trace, size):
    """Measure one workload; returns its result line and printed notes."""
    from probes import PER_LAYER, TRANSIENT_ONLY

    records = measure(workload, seed, seconds, trace, size)
    mark_repeats(records)
    failed = sum(1 for r in records if r["problems"])
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": {}}
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"] and "layers" in r]
    notes = ["time_to_solution_s of each solve: " + ", ".join(
        f"{r['time_to_solution_s']:.3f}" + (" (traced)" if r["traced"] else "")
        for r in records if "time_to_solution_s" in r)]
    if not trace:
        for r in untraced:
            if "facts" in r:
                r["l2_error"] = r["facts"]["l2_error"]
        for name, unit in END_TO_END:
            result["metrics"][name] = {"value": median_of(untraced, name),
                                       "unit": unit}
    else:
        absent = {}
        for r in traced:
            absent.update(r["absent"])
            absent.update((name, "entry point not found")
                          for name in r["missing"])

        def layer(name):
            values = [r["layers"][name] for r in traced
                      if name in r["layers"]]
            return statistics.median(values) if values else 0.0

        for name, unit, _ in PER_LAYER:
            value = layer(name)
            if unit == "count" and float(value).is_integer():
                value = int(value)
            result["metrics"][name] = {"value": value, "unit": unit}
        notes += [f"{name} = {layer(name):.6g} {unit} (transient only)"
                  for name, unit, _ in TRANSIENT_ONLY if name not in absent]
        base = median_of(untraced, "time_to_solution_s")
        result["metrics"]["trace.overhead"]["value"] = (
            median_of(traced, "time_to_solution_s") / base - 1.0
            if base else 0.0)
        notes += [f"absent: {name}: {why}"
                  for name, why in sorted(absent.items())]
    compared = [r for r in records if "facts" in r]
    if len(compared) > 1:
        notes.append(f"{', '.join(REPEATING_FACTS)} compared over "
                     f"{len(compared)} solves of seed {seed} (traced counts "
                     f"over {len(traced)}); a difference fails the solve")
    notes += [f"FAILED CHECK: {p}"
              for p in sorted({p for r in records for p in r["problems"]})]
    return result, notes


def print_table(rows, trace):
    if trace:
        for workload, result, _ in rows:
            print(f"per-layer metrics, {workload} (traced):")
            for name, metric in result["metrics"].items():
                print(f"  {name:<28} {metric['value']:>14.6g} "
                      f"{metric['unit']}")
    else:
        names = [f"{name} [{unit}]" for name, unit in END_TO_END]
        print(f"{'workload':<18} " + " ".join(f"{n:>24}" for n in names)
              + f" {'solves':>7} {'failed':>7}")
        for workload, result, _ in rows:
            values = " ".join(f"{result['metrics'][name]['value']:>24.6g}"
                              for name, _ in END_TO_END)
            print(f"{workload:<18} {values} {result['attempted']:>7} "
                  f"{result['failed']:>7}")
    for workload, _, notes in rows:
        for note in notes:
            print(f"{workload}: {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for one row each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny levels run every path in seconds")
    args = parser.parse_args(argv)

    needed = (ROOT / "src" / "treefem" / "__init__.py",
              ROOT / "tests" / "shapes.py",
              ROOT / "tests" / "golden" / "heat_bdf2_script.prob")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a treefem checkout; missing {missing}",
              file=sys.stderr)
        return 2
    os.environ.update(THREADS)      # before numpy loads OpenBLAS
    import workloads
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.NAMES):
        print(f"error: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import treefem  # noqa: F401  (compiles bytecode before any timing)

    rows = [(name,) + summarize(name, args.seed, args.seconds,
                                bool(args.trace), args.size)
            for name in names]
    print_table(rows, bool(args.trace))
    print(json.dumps({"environment": environment(args.seed)}))
    if len(rows) > 1:
        print(json.dumps({"workloads": {name: result
                                        for name, result, _ in rows}}))
    else:
        print(json.dumps(rows[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
