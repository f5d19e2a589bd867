"""Self-test of the benchmark harness; runs in seconds.

    python3 perfbench/selftest.py

It runs every workload's code path and checks at tiny levels, traced and
untraced, and shows that the checks are live: a wrong closed form and a
tampered golden byte each fail the solve. It also checks that seed 0
reproduces the acceptance fixtures (the disk with its raised iteration
cap), that the harmonic closed form of ``heat_bdf2`` meets its boundary
values, that the benchmark's own L2 quadrature agrees with
``treefem.l2_error``, and that ``run.py`` prints its JSON line, and fails
without one outside a treefem checkout.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import child  # noqa: E402
import workloads  # noqa: E402
from probes import PER_LAYER, TRANSIENT_ONLY  # noqa: E402

FAILURES = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def seed_zero_is_the_fixture(tmp):
    from test_acceptance import DISK_POISSON, sphere_script
    from shapes import bumpy_sphere
    from treefem.geometry import write_stl

    expected = {
        "disk2d_uniform": DISK_POISSON.format(base=8, glevel=8).replace(
            "[solver]\n", "[solver]\nmax_iterations = 5000\n"),
        "sphere3d_adaptive": sphere_script(4, 6),
        "stl3d": sphere_script(5, 5, shape="mesh",
                               shape_lines="mesh_file = bumpy.stl"),
        "heat_bdf2": (workloads.GOLDEN / "heat_bdf2_script.prob").read_text(),
    }
    for name, text in expected.items():
        case = workloads.make_case(name, 0, tmp / name)
        check(case.script.read_text() == text,
              f"{name}: seed 0 script is the fixture")
    write_stl(tmp / "fixture.stl", *bumpy_sphere((0.5, 0.5, 0.5), 0.35))
    check((tmp / "stl3d" / "bumpy.stl").read_bytes()
          == (tmp / "fixture.stl").read_bytes(),
          "stl3d: seed 0 STL is the fixture's bumpy sphere")


def seeds_are_small_and_repeatable(tmp):
    for name in workloads.NAMES:
        a = workloads.make_case(name, 7, tmp / f"{name}-a", "full")
        b = workloads.make_case(name, 7, tmp / f"{name}-b", "full")
        c = workloads.make_case(name, 8, tmp / f"{name}-c", "full")
        finest = max(workloads.LEVELS["full"][name])
        moved = np.abs(np.subtract(a.center, 0.5)).max() * (1 << finest)
        check(a.script.read_text() == b.script.read_text()
              and a.center == b.center and a.center != c.center
              and 0 < moved < 1,
              f"{name}: one seed gives one input; centre moves "
              f"{moved:.3f} cell")


def harmonic_ball_meets_boundary():
    center = (0.51, 0.49, 0.503)
    ball = workloads.HarmonicBall(center, 0.35,
                                  workloads.heat_boundary_value)
    rng = np.random.default_rng(1)
    direction = rng.normal(size=(200, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    surface = np.asarray(center) + 0.35 * direction
    gap = np.abs(ball(surface)
                 - workloads.heat_boundary_value(surface[:, 2])).max()
    check(gap < 1e-12, f"heat closed form meets the wall values ({gap:.1e})")


def quadrature_matches_treefem(tmp):
    import treefem
    from treefem import expr

    case = workloads.make_case("disk2d_uniform", 3, tmp / "in", "tiny")
    spec = treefem.parse_problem(case.script.read_text())
    result = treefem.run_problem(spec)
    treefem.write_fields_vtk(tmp / "u.vtk", result.mesh, {"u": result.values})
    cx, cy = case.center
    reference = treefem.l2_error(result.mesh, result.values, expr.parse(
        f"0.01 + (0.25 - (x-{cx!r})*(x-{cx!r}) - (y-{cy!r})*(y-{cy!r}))/4"))
    ours = workloads.l2_distance(workloads.read_vtk_field(tmp / "u.vtk"), 2,
                                 case.exact)
    check(abs(ours - reference) <= 1e-9 * reference,
          f"own L2 quadrature {ours:.6e} matches treefem.l2_error "
          f"{reference:.6e}")


def workloads_run_and_checks_are_live(tmp):
    for name in workloads.NAMES:
        case = workloads.make_case(name, 5, tmp / name / "in", "tiny")
        plain = child.solve(case, tmp / name / "plain")
        traced = child.solve(case, tmp / name / "traced", trace=True)
        check(not plain["problems"] and not traced["problems"],
              f"{name}: untraced and traced solves pass their checks "
              f"{plain['problems'] + traced['problems']}")
        check(plain["facts"] == traced["facts"],
              f"{name}: L2 error, iterations and sizes repeat exactly")
        layers = traced["layers"]
        check(set(layers) | {"trace.overhead"}
              == {metric for metric, _, _ in PER_LAYER + TRANSIENT_ONLY}
              and not traced["missing"] and layers["trace.coverage"] > 0.95,
              f"{name}: every per-layer metric, coverage "
              f"{layers['trace.coverage']:.3f}")

        wrong = workloads.make_case(name, 5, tmp / name / "in", "tiny")
        exact = wrong.exact
        wrong.exact = lambda p, exact=exact: exact(p) + 1.0
        problems, _ = workloads.check_outputs(wrong, tmp / name / "plain",
                                              plain["solves"])
        check(any("L2 error" in p for p in problems),
              f"{name}: a wrong closed form fails the solve")

    case = workloads.make_case("heat_bdf2", 5, tmp / "golden" / "in", "tiny")
    golden = tmp / "golden" / "tampered"
    shutil.copytree(workloads.GOLDEN, golden)
    data = bytearray((golden / "heat_bdf2_ir.txt").read_bytes())
    data[-2] ^= 1
    (golden / "heat_bdf2_ir.txt").write_bytes(bytes(data))
    record = child.solve(case, tmp / "golden" / "out", golden=golden)
    check(any("golden" in p for p in record["problems"]),
          "heat_bdf2: a tampered golden byte fails the solve")


def run_py_end_to_end(tmp):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "stl3d",
         "--seed", "2", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    check(done.returncode == 0 and last["correct"] and set(last) == {
        "correct", "attempted", "failed", "metrics"}
        and set(last["metrics"]) == {"time_to_solution_s", "setup_s",
                                     "peak_rss_mb", "l2_error"},
        "run.py prints the result line")

    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stl3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    check(done.returncode != 0 and "{" not in done.stdout,
          "run.py fails without a result outside a treefem checkout")


def main():
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        seed_zero_is_the_fixture(tmp / "seed0")
        seeds_are_small_and_repeatable(tmp / "seeds")
        harmonic_ball_meets_boundary()
        quadrature_matches_treefem(tmp / "quadrature")
        workloads_run_and_checks_are_live(tmp / "live")
        run_py_end_to_end(tmp / "run")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
