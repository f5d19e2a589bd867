"""Geometry file generators shared by the test suite."""

import math

import numpy as np


def gmsh_polygon_text(points, shuffle=False, reverse=False):
    """Gmsh ASCII v2.2 text for one closed polygon of line elements."""
    n = len(points)
    order = list(range(n))
    if reverse:
        order = order[::-1]
    segments = [(order[k], order[(k + 1) % n]) for k in range(n)]
    if shuffle:
        rng = np.random.default_rng(0)
        rng.shuffle(segments)
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat",
             "$Nodes", str(n)]
    for i, (x, y) in enumerate(points):
        lines.append(f"{i + 1} {x!r} {y!r} 0")
    lines += ["$EndNodes", "$Elements", str(len(segments) + 1)]
    # a stray point element exercises the type filter
    lines.append("1 15 2 0 1 1")
    for e, (i, j) in enumerate(segments):
        lines.append(f"{e + 2} 1 2 0 1 {i + 1} {j + 1}")
    lines += ["$EndElements", ""]
    return "\n".join(lines)


def regular_polygon(center, radius, n):
    cx, cy = center
    return [(cx + radius * math.cos(2 * math.pi * k / n),
             cy + radius * math.sin(2 * math.pi * k / n)) for k in range(n)]


def cube_tris(lo, hi):
    """Vertices and faces of an axis-aligned box, outward winding."""
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    v = np.array([(x0, y0, z0), (x1, y0, z0), (x0, y1, z0), (x1, y1, z0),
                  (x0, y0, z1), (x1, y0, z1), (x0, y1, z1), (x1, y1, z1)],
                 float)
    quads = [(0, 2, 3, 1), (4, 5, 7, 6), (0, 1, 5, 4),
             (2, 6, 7, 3), (0, 4, 6, 2), (1, 3, 7, 5)]
    faces = []
    for a, b, c, d in quads:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return v, np.asarray(faces, int)


def fanned_cube(lo, hi, slivers=8):
    """``cube_tris`` with its top face fanned into triangles of mixed sizes,
    down to slivers, about points packed toward one end of its diagonal."""
    v, faces = cube_tris(lo, hi)
    t = (np.arange(slivers + 1) / slivers) ** 3
    diagonal = v[4] + t[:, None] * (v[7] - v[4])
    d = np.r_[4, len(v) + np.arange(slivers - 1), 7]
    top = [(d[i], 5, d[i + 1]) for i in range(slivers)]
    top += [(d[i], d[i + 1], 6) for i in range(slivers)]
    return (np.concatenate([v, diagonal[1:-1]]),
            np.concatenate([faces[:2], faces[4:], np.asarray(top)]))


def icosphere(center, radius, subdivisions=2):
    """Geodesic sphere from a subdivided icosahedron."""
    phi = (1 + math.sqrt(5)) / 2
    raw = [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
           (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
           (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]
    verts = [np.asarray(p, float) / math.sqrt(1 + phi * phi) for p in raw]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            verts.append(m / np.linalg.norm(m))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(subdivisions):
        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            next_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = next_faces
    vertices = np.asarray(verts) * radius + np.asarray(center, float)
    return vertices, np.asarray(faces, int)


def bumpy_sphere(center, radius, amplitude=0.08, subdivisions=3):
    """Sphere with a smooth radial perturbation; watertight and star-shaped."""
    vertices, faces = icosphere((0.0, 0.0, 0.0), 1.0, subdivisions)
    x, y, z = vertices.T
    theta = np.arccos(np.clip(z, -1, 1))
    phi = np.arctan2(y, x)
    bump = 1.0 + amplitude * np.sin(3 * theta) * np.cos(2 * phi)
    vertices = vertices * (radius * bump)[:, None] + np.asarray(center, float)
    return vertices, faces
