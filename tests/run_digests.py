"""SHA-256 digests of every file that ``treefem run`` and ``treefem converge``
write for six small cases.

The golden file ``golden/run_digests.json`` pins those files byte for byte:
each ``solution*.vtk`` and ``diagnostics.csv`` of a run, and the
``convergence.csv`` of a convergence study. It also records the numpy and
scipy versions, because a library upgrade can move float bits. Regenerate it
(only when a change of output bits is intended) with

    PYTHONPATH=src:tests python tests/run_digests.py > tests/golden/run_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from treefem.cli import cmd_converge, cmd_run
from treefem.geometry import write_stl

from shapes import bumpy_sphere
from test_acceptance import DISK_EXACT, DISK_POISSON, sphere_script

GOLDEN = Path(__file__).resolve().parent / "golden"


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _heat_script():
    text = (GOLDEN / "heat_bdf2_script.prob").read_text()
    for old, new in (("base_refine_level = 4", "base_refine_level = 2"),
                     ("\nrefine_level = 5", "\nrefine_level = 3"),
                     ("steps = 100", "steps = 30")):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def _file_digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir())}


def run_digests():
    """{case: {file name: SHA-256}} for runs of the disk at L5, the disk
    refined to its boundary at 3/6 (hanging nodes, multigrid levels nearly
    all band), the sphere at 2/4, the bumpy STL sphere at L3 and the BDF2
    heat script at 2/3 with 30 steps, and for a convergence study of the
    disk at levels 4 and 5."""
    runs = {
        "disk_l5": DISK_POISSON.format(base=5, glevel=5),
        "disk_3_6": DISK_POISSON.format(base=3, glevel=6),
        "sphere_2_4": sphere_script(2, 4),
        "bumpy_stl_l3": sphere_script(base=3, glevel=3, shape="mesh",
                                      shape_lines="mesh_file = bumpy.stl"),
        "heat_bdf2_2_3": _heat_script(),
    }
    digests = {}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        write_stl(tmp / "bumpy.stl", *bumpy_sphere((0.5, 0.5, 0.5), 0.35))
        for name, text in runs.items():
            script = tmp / f"{name}.prob"
            script.write_text(text)
            cmd_run(script, output_dir=tmp / name)
            digests[name] = _file_digests(tmp / name)
        script = tmp / "disk_converge.prob"
        script.write_text(DISK_POISSON.format(base=4, glevel=5))
        (tmp / "converge").mkdir()
        cmd_converge(script, [4, 5], DISK_EXACT,
                     output_csv=tmp / "converge" / "convergence.csv")
        digests["disk_converge_4_5"] = _file_digests(tmp / "converge")
    return digests


if __name__ == "__main__":
    json.dump({"versions": versions(), "cases": run_digests()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
