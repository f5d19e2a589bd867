"""Former ``TriSurface`` and ``Polyline`` query implementations, kept as
references for the tests.

Each function is the code ``treefem.geometry`` ran before its query was
rewritten: the triangle side test that counted crossings once per query
point, with one lexsort over the (x, y) columns and one over crossings
plus every point; the triangle closest-point selection that sorted each
chunk's pairs by (point, distance, face) and kept the first pair per
point; and the polyline queries that tested every point against every
segment in fixed-size chunks. The closest-point oracles build their own
feature normals, one facet at a time (``scan_normal_table``,
``scan_polyline_normals``), so a wrong row of a shape's ``_normals``
table cannot pass them.
"""

import numpy as np

from treefem import geometry
from treefem.errors import GeometryError
from treefem.geometry import ClosestPoint


def scan_edge_slot_normals(faces, face_normals):
    """Each face's edge-slot normals: the two faces' normals at the edge,
    summed and normalized, or the face's own where they cancel."""
    edge_faces = {}
    slots = ((0, 1), (0, 2), (1, 2))
    for f, face in enumerate(faces):
        for i, j in slots:
            key = tuple(sorted((int(face[i]), int(face[j]))))
            edge_faces.setdefault(key, []).append(f)
    out = np.empty((len(faces), 3, 3))
    for f, face in enumerate(faces):
        for s, (i, j) in enumerate(slots):
            # a closed surface has two faces at each edge; their plain sum
            # keeps -0.0 + -0.0 = -0.0, which a sum from 0.0 turns into +0.0
            one, two = edge_faces[tuple(sorted((int(face[i]), int(face[j]))))]
            normal = face_normals[one] + face_normals[two]
            length = np.linalg.norm(normal)
            out[f, s] = normal / length if length > 0 else face_normals[f]
    return out


def scan_normal_table(surf):
    """``surf``'s (face, feature) normal table, one row at a time: corners,
    the scan's edge slots, then the face; flipped for a void, then each row
    normalized."""
    a, b, c = (surf.vertices[surf.faces[:, k]] for k in range(3))
    cross = np.cross(b - a, c - a)
    face_normals = cross / np.linalg.norm(cross, axis=1)[:, None]
    vertex = geometry._angle_weighted_normals(surf.vertices, surf.faces,
                                              face_normals)
    edge = scan_edge_slot_normals(surf.faces, face_normals)
    rows = []
    for f, face in enumerate(surf.faces):
        rows += [*vertex[face], *edge[f], face_normals[f]]
    rows = np.array(rows) * (1.0 if surf.outer_boundary else -1.0)
    return (rows / np.linalg.norm(rows, axis=1)[:, None]).reshape(-1, 7, 3)


def column_sort_kept(surf, points):
    """``TriSurface.kept``: ray parity along +z, one shared ray per (x, y)
    column, crossings counted for every point."""
    points = np.asarray(points, float)
    if len(points) == 0:
        return np.zeros(0, bool)
    order = np.lexsort((points[:, 1], points[:, 0]))
    xy = points[order, :2]
    fresh = np.ones(len(xy), bool)
    fresh[1:] = np.any(xy[1:] != xy[:-1], axis=1)
    columns = xy[fresh]
    inverse = np.empty(len(points), np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    grid, radius = surf._column_search
    scale = surf._scale
    pad = 1e-5 * scale
    corners = [surf.vertices[surf.faces[:, k]] for k in range(3)]
    hit_col, hit_z = [np.empty(0, np.intp)], [np.empty(0)]
    reach = np.full(len(columns), radius + pad)
    for col, face, d2 in grid.near(columns, reach):
        near = d2 <= reach[col] ** 2
        col, face = col[near], face[near]
        for attempt in range(8):
            delta = scale * 1e-9 * 3.0 ** (attempt - 1) if attempt else 0.0
            ambiguous, strict, z = geometry._ray_crossings(
                columns[col] + [delta, 0.7 * delta],
                *(corner[face] for corner in corners), scale)
            retry = np.zeros(len(columns), bool)
            retry[col[ambiguous]] = True
            again = retry[col]
            hit_col.append(col[strict & ~again])
            hit_z.append(z[strict & ~again])
            col, face = col[again], face[again]
            if len(col) == 0:
                break
        else:
            raise GeometryError("side classification failed: ray through "
                                "the triangle surface keeps hitting edges")
    hit_col = np.concatenate(hit_col)
    hit_z = np.concatenate(hit_z)
    kind = np.r_[np.zeros(len(hit_col), bool), np.ones(len(points), bool)]
    order = np.lexsort((kind, -np.r_[hit_z, points[:, 2]],
                        np.r_[hit_col, inverse]))
    passed = np.cumsum(~kind[order])[kind[order]]
    at = order[kind[order]] - len(hit_col)
    per_column = np.bincount(hit_col, minlength=len(columns))
    above = np.empty(len(points), np.intp)
    above[at] = passed - (np.cumsum(per_column) - per_column)[inverse[at]]
    inside = above % 2 == 1
    return inside if surf.outer_boundary else ~inside


def lexsort_closest(surf, points):
    """``TriSurface.closest``, each point's pair chosen by a lexsort."""
    points = np.asarray(points, float)
    n = len(points)
    projections = np.empty((n, 3))
    normals = np.empty((n, 3))
    distances = np.empty(n)
    if n == 0:
        return ClosestPoint(projections, normals, distances)
    table = scan_normal_table(surf)
    grid, radius = surf._face_search
    bound = grid.bound(points)
    reach = bound + radius + 1e-9 * (surf._scale + bound)
    for row, face, d2 in grid.near(points, reach):
        near = d2 <= reach[row] ** 2
        row, face = row[near], face[near]
        p = np.take(points, row, axis=0)
        cand, feature = geometry._closest_on_triangles(p, *(
            np.take(surf.vertices, surf.faces[face, k], axis=0)
            for k in range(3)))
        d2 = ((cand - p) ** 2).sum(axis=1)
        order = np.lexsort((face, d2, row))
        first = np.ones(len(order), bool)
        first[1:] = row[order[1:]] != row[order[:-1]]
        best = order[first]
        projections[row[best]] = cand[best]
        distances[row[best]] = np.sqrt(d2[best])
        normals[row[best]] = table[face[best], feature[best]]
    return ClosestPoint(projections, normals, distances)


def scan_polyline_kept(poly, points):
    """``Polyline.kept``: half-open ray parity along +x, every point against
    every segment."""
    points = np.asarray(points, float)
    a = poly.points[poly.segments[:, 0]]
    b = poly.points[poly.segments[:, 1]]
    inside = np.zeros(len(points), bool)
    chunk = max(1, int(4e6 / len(a)))
    for start in range(0, len(points), chunk):
        p = points[start:start + chunk]
        py = p[:, 1, None]
        px = p[:, 0, None]
        straddles = (a[None, :, 1] > py) != (b[None, :, 1] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            tcross = (py - a[None, :, 1]) / (b[None, :, 1] - a[None, :, 1])
            xcross = a[None, :, 0] + tcross * (b[None, :, 0] - a[None, :, 0])
        hits = straddles & (px < xcross)
        inside[start:start + chunk] = hits.sum(axis=1) % 2 == 1
    return inside if poly.outer_boundary else ~inside


def scan_polyline_normals(poly):
    """Edge normals, each segment's unit tangent turned clockwise (flipped
    for a void), and vertex normals, the normalized sum of the normals of
    a vertex's segments, one segment at a time."""
    sign = 1.0 if poly.outer_boundary else -1.0
    edge = np.empty((len(poly.segments), 2))
    vertex = np.zeros((len(poly.points), 2))
    for s, (i, j) in enumerate(poly.segments):
        tx, ty = poly.points[j] - poly.points[i]
        length = np.sqrt(tx * tx + ty * ty)
        edge[s] = sign * ty / length, sign * -tx / length
        vertex[i] += edge[s]
        vertex[j] += edge[s]
    for v, normal in enumerate(vertex):
        length = np.sqrt((normal * normal).sum())
        if length > 0:
            vertex[v] = normal / length
    return edge, vertex


def scan_polyline_closest(poly, points):
    """``Polyline.closest``: every point against every segment, the lowest
    segment index winning ties."""
    points = np.asarray(points, float)
    n = len(points)
    edge_normals, vertex_normals = scan_polyline_normals(poly)
    a = poly.points[poly.segments[:, 0]]
    b = poly.points[poly.segments[:, 1]]
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    projections = np.empty((n, 2))
    normals = np.empty((n, 2))
    distances = np.empty(n)
    chunk = max(1, int(2e6 / max(len(a), 1)))
    for start in range(0, n, chunk):
        p = points[start:start + chunk]
        t = np.einsum("pj,sj->ps", p, ab) - np.einsum("sj,sj->s", a, ab)
        t = np.clip(t / ab2, 0.0, 1.0)
        cand = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d2 = ((cand - p[:, None, :]) ** 2).sum(axis=2)
        best = np.argmin(d2, axis=1)
        rows = np.arange(len(p))
        tb = t[rows, best]
        projections[start:start + chunk] = cand[rows, best]
        distances[start:start + chunk] = np.sqrt(d2[rows, best])
        nrm = edge_normals[best]
        at_a = tb <= 1e-12
        at_b = tb >= 1.0 - 1e-12
        nrm[at_a] = vertex_normals[poly.segments[best[at_a], 0]]
        nrm[at_b] = vertex_normals[poly.segments[best[at_b], 1]]
        normals[start:start + chunk] = nrm
    return ClosestPoint(projections, normals, distances)
