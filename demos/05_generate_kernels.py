"""
From weak form to assembly kernel source
========================================

The same compiled form that drives the embedded solver can be rendered as
human-readable C++ assembly kernels, plus a line-oriented document holding
the intermediate representation itself. Nothing here is compiled or run;
the text is the product.
"""

from pathlib import Path

from treefem import compile_kernel, emit_kernels, parse_problem, serialize_ir

SCRIPT = """
[domain]
dimension = 3
min = 0, 0, 0
max = 1, 1, 1
base_refine_level = 4

[geometry]
shape = sphere
center = 0.5, 0.5, 0.5
radius = 0.35
refine_level = 5
boundary_types = sbm
bids = 1

[variables]
names = u

[coefficients]
alpha = 200
kappa = 0.8

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0

[initial_conditions]
u = 0

[time]
scheme = bdf2
dt = 0.01
steps = 100

[weak_form]
Dt(u*v) + kappa * dot(grad(u), grad(v))
 + dirichletBoundary(
    -dot(grad(u), normal()) * v
    - dot(grad(v), normal())
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
    + alpha / elementDiameter()
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      * (v + dot(grad(v), distanceToBoundary())))
"""

ir = compile_kernel(parse_problem(SCRIPT))

# render C++ kernels from the shipped template
paths = emit_kernels(ir, out_dir="generated")
print(f"wrote {paths[0]}")

# the BDF2 mass term carries 1.5; history rows carry 2 and -0.5
text = paths[0].read_text()
for line in text.splitlines():
    if "wdetj * 1.5" in line or "value_u_prev" in line:
        print("   ", line.strip())

# the kernel program itself, as a deterministic line-oriented document
document = serialize_ir(ir)
Path("generated/kernel_ir.txt").write_text(document)
print(f"wrote generated/kernel_ir.txt ({len(document.splitlines())} lines)")
