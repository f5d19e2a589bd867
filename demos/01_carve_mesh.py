"""
Carving an adaptive quadtree mesh around a circle
=================================================

Builds a tree mesh over the unit square, refines near an immersed circle,
keeps only the elements inside it, and exports the result for ParaView.
"""

import numpy as np

from treefem import build_mesh, parse_problem, write_mesh_vtk

SCRIPT = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 4

[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.4
refine_level = 7
boundary_types = sbm
bids = 1

[variables]
names = u

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0

[weak_form]
dot(grad(u), grad(v))
"""

mesh = build_mesh(parse_problem(SCRIPT))

# the kept elements approximate the disk from inside
area = float(np.prod(mesh.cell_sizes(), axis=1).sum())
print(f"elements:        {mesh.n_elements}")
print(f"nodes:           {mesh.n_nodes}")
print(f"hanging nodes:   {mesh.n_nodes - mesh.n_free}")
print(f"surrogate faces: {len(mesh.faces)}")
print(f"kept area:       {area:.6f}  (disk area {np.pi * 0.16:.6f})")

# neighbor levels differ by at most one across every face
levels, counts = np.unique(mesh.levels, return_counts=True)
for level, count in zip(levels, counts):
    print(f"  level {level}: {count} elements of size {1 / (1 << level):.5f}")

write_mesh_vtk("carved_disk.vtk", mesh)
print("wrote carved_disk.vtk")
