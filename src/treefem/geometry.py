"""Immersed geometries: closed surfaces with a kept side.

Every geometry answers two vectorized queries used when carving the mesh
and assembling shifted boundary terms:

``kept(points)``
    Which side of the surface each point is on. With ``outer_boundary``
    (the default) the surface encloses the computational domain and the
    inside is kept; otherwise the surface bounds a void and the outside
    is kept. The answer is pointwise: a point's answer does not depend on
    the other points in the query, so duplicate points, and the same
    point in different queries, get the same answer.

``closest(points)``
    The nearest surface point, the unit normal there (pointing out of the
    kept region), and the unsigned distance.

Analytic shapes resolve both exactly, ties on the surface counting as
kept. Faceted shapes (polylines from Gmsh meshes, triangle surfaces from
STL) classify by ray parity: exact along +x for a polyline, along +z for
a triangle surface with a nudged retry of a ray that grazes an edge, a
vertex or an edge-on face. Points lying exactly on a facet may land on
either side. Each polyline loop is oriented by its nesting depth, so the
normals of a hole point into it. Both test a query only against the
facets filed near it in uniform grids of cells over the facet centroids,
which numpy builds on first use (``scipy.spatial`` is not imported). For
``closest``, the nearest centroid, itself a surface point, bounds the
distance, so the candidates are the facets whose centroid lies within
that bound plus the largest centroid-to-corner distance. For ``kept``,
a grid of the centroids projected across the rays gives the facets a
ray can meet. The results are bit for bit those of testing every facet,
the lowest facet index winning ties. A NaN or infinite coordinate in a
constructor, a file or a query fails with a ``GeometryError``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError

__all__ = [
    "ClosestPoint", "Ball", "Polyline", "TriSurface",
    "load_geometry", "read_gmsh_lines", "read_stl", "write_stl",
]


@dataclass(frozen=True)
class ClosestPoint:
    points: np.ndarray      # (n, dim) projections onto the surface
    normals: np.ndarray     # (n, dim) unit normals out of the kept region
    distances: np.ndarray   # (n,) unsigned distances


def _finite(values, where):
    """``values`` as floats; a NaN or infinite one fails, naming ``where``."""
    values = np.asarray(values, float)
    if not np.isfinite(values).all():
        raise GeometryError(f"{where} holds a NaN or infinite coordinate")
    return values


def _query_points(points):
    """The ``points`` of a ``kept`` or ``closest`` query, as floats."""
    return _finite(points, "argument 'points'")


# ---------------------------------------------------------------------------
# Analytic ball (circle in 2-D, sphere in 3-D)

class Ball:
    def __init__(self, center, radius, outer_boundary=True):
        center = tuple(float(c) for c in _finite(center, "argument 'center'"))
        if len(center) not in (2, 3):
            raise GeometryError("ball center must have 2 or 3 components")
        radius = float(_finite(radius, "argument 'radius'"))
        if radius <= 0:
            raise GeometryError("ball radius must be positive")
        self.dimension = len(center)
        self.center = np.asarray(center, float)
        self.radius = radius
        self.outer_boundary = bool(outer_boundary)

    def kept(self, points):
        points = _query_points(points)
        dist = np.linalg.norm(points - self.center, axis=-1)
        if self.outer_boundary:
            return dist <= self.radius
        return dist >= self.radius

    def closest(self, points):
        points = _query_points(points)
        offset = points - self.center
        dist = np.linalg.norm(offset, axis=-1)
        direction = np.zeros_like(offset)
        direction[:, 0] = 1.0
        ok = dist > 0
        direction[ok] = offset[ok] / dist[ok, None]
        projections = self.center + self.radius * direction
        normals = direction if self.outer_boundary else -direction
        return ClosestPoint(projections, normals, np.abs(dist - self.radius))


# ---------------------------------------------------------------------------
# Faceted shapes: segments in 2-D, triangles in 3-D

class _Faceted:
    """A closed surface of flat facets, whose (facet, corner, axis)
    coordinates a subclass sets as ``_corners``; ``_columns`` are the axes
    across its side-test rays. For ``kept`` it supplies ``_inside(points)``,
    the ray parity of each point. For ``closest`` it supplies ``_project(p,
    facet)``, the closest point of ``facet[i]`` to ``p[i]`` and its feature
    code, and ``_normals[facet, feature]``, the unit normals. Each subclass
    binds both queries in its own namespace, where perfbench wraps them."""

    @cached_property
    def _scale(self):
        return max(1.0, float(np.abs(self._corners).max()))

    @cached_property
    def _face_search(self):
        """A cell grid over the facet centroids, and the largest distance
        from a centroid to a corner of its facet."""
        return _centroid_search(self._corners)

    @cached_property
    def _column_search(self):
        """The same over the facets projected across the side-test rays."""
        return _centroid_search(self._corners[:, :, self._columns])

    def kept(self, points):
        points = _query_points(points)
        if len(points) == 0:    # no grid is built for an empty query
            return np.zeros(0, bool)
        inside = self._inside(points)
        return inside if self.outer_boundary else ~inside

    def closest(self, points):
        points = _query_points(points)
        n = len(points)
        projections = np.empty((n, self.dimension))
        normals = np.empty((n, self.dimension))
        distances = np.empty(n)
        if n == 0:      # no grid is built for an empty query
            return ClosestPoint(projections, normals, distances)
        grid, radius = self._face_search
        # A centroid is a surface point, so the nearest one bounds the
        # distance; only a facet whose centroid lies within that bound plus
        # its radius can hold the closest point (the pad absorbs rounding).
        bound = grid.bound(points)
        reach = bound + radius + 1e-9 * (self._scale + bound)
        for row, facet, d2 in grid.near(points, reach):
            near = d2 <= reach[row] ** 2
            row, facet = row[near], facet[near]
            p = np.take(points, row, axis=0)
            cand, feature = self._project(p, facet)
            d2 = ((cand - p) ** 2).sum(axis=1)
            # per point: the least distance (NaN last), then the lowest facet
            start = np.flatnonzero(np.diff(row, prepend=-1))
            size = np.diff(start, append=len(row))
            least = np.repeat(np.fmin.reduceat(d2, start), size)
            tie = (d2 == least) | np.isnan(least)
            low = np.minimum.reduceat(
                np.where(tie, facet, len(self._corners)), start)
            best = np.flatnonzero(tie & (facet == np.repeat(low, size)))
            at = row[best]
            projections[at] = cand[best]
            distances[at] = np.sqrt(d2[best])
            normals[at] = self._normals[facet[best], feature[best]]
        return ClosestPoint(projections, normals, distances)


def _centroid_search(corners):
    centroids = corners.mean(axis=1)
    offsets = corners - centroids[:, None]
    radius = float(np.sqrt((offsets ** 2).sum(axis=2).max()))
    return _CellGrid(centroids, 2.0 * radius), radius


# ---------------------------------------------------------------------------
# Polyline boundary in 2-D

class Polyline(_Faceted):
    """Closed polygonal loops, each counterclockwise when an even number of
    the others encloses it and clockwise when odd, so that the kept side
    of an outer boundary is on the left, with edge and vertex normals."""

    dimension = 2
    _columns = slice(1, 2)      # side-test rays run along +x
    kept, closest = _Faceted.kept, _Faceted.closest

    def __init__(self, points, segments, outer_boundary=True):
        points = _finite(points, "argument 'points'")
        segments = np.asarray(segments, int)
        if len(segments) == 0:
            raise GeometryError("polyline has no segments")
        self.points, self.segments = _chain_loops(points, segments)
        self.outer_boundary = bool(outer_boundary)
        self._corners = self.points[self.segments]
        tangents = self._corners[:, 1] - self._corners[:, 0]
        lengths = np.linalg.norm(tangents, axis=1)
        if np.any(lengths == 0):
            raise GeometryError("polyline has a zero-length segment")
        tangents /= lengths[:, None]
        # enclosed side on the left: the tangent turned clockwise points out
        edge = np.column_stack([tangents[:, 1], -tangents[:, 0]])
        if not self.outer_boundary:
            edge = -edge
        # Pseudo-normal at each endpoint: mean of the adjacent edge normals.
        vertex = np.zeros_like(self.points)
        np.add.at(vertex, self.segments[:, 0], edge)
        np.add.at(vertex, self.segments[:, 1], edge)
        norms = np.linalg.norm(vertex, axis=1)
        norms[norms == 0] = 1.0
        vertex /= norms[:, None]
        self._normals = np.concatenate([vertex[self.segments], edge[:, None]],
                                       axis=1)

    def _inside(self, points):
        """Ray parity along +x."""
        row, _ = _crossings(points, self._corners, self._column_search,
                            self._scale)
        return np.bincount(row, minlength=len(points)) % 2 == 1

    def _project(self, p, segment):
        """The closest point of ``segment[i]`` to ``p[i]``, and its feature:
        end 0 or 1 when within 1e-12 of it along the segment, else 2."""
        a = np.take(self._corners[:, 0], segment, axis=0)
        ab = np.take(self._corners[:, 1], segment, axis=0) - a
        t = np.einsum("ij,ij->i", p, ab) - np.einsum("ij,ij->i", a, ab)
        t = np.clip(t / np.einsum("ij,ij->i", ab, ab), 0.0, 1.0)
        feature = np.select([t >= 1.0 - 1e-12, t <= 1e-12], [1, 0], 2)
        return a + t[:, None] * ab, feature


def _crossings(points, corners, search, scale):
    """``(point, segment)`` for each ray along +x from ``points`` that
    crosses a segment with ends ``corners``: exactly one end lies above
    the ray, and the crossing lies past the point. Only the segments that
    ``search`` files near a point's y are tested."""
    grid, radius = search
    reach = np.full(len(points), radius + 1e-9 * scale)
    x, y = points[:, 0], points[:, 1]
    a, b = corners[:, 0], corners[:, 1]
    rows, segments = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for row, seg, _ in grid.near(points[:, 1:], reach):
        py, ay, by = y[row], a[seg, 1], b[seg, 1]
        cut = (ay > py) != (by > py)
        row, seg, py, ay, by = row[cut], seg[cut], py[cut], ay[cut], by[cut]
        tcross = (py - ay) / (by - ay)
        hit = x[row] < a[seg, 0] + tcross * (b[seg, 0] - a[seg, 0])
        rows.append(row[hit])
        segments.append(seg[hit])
    return np.concatenate(rows), np.concatenate(segments)


def _chain_loops(points, segments):
    """Weld coincident endpoints, chain segments into loops, and orient
    each loop by its nesting depth: counterclockwise when even,
    clockwise when odd."""
    unique, segments = _weld(points, segments,
                             "polyline has a degenerate segment")
    joins = np.bincount(segments.ravel(), minlength=len(unique))
    bad = np.flatnonzero((joins != 0) & (joins != 2))
    if len(bad):
        raise GeometryError(
            f"polyline vertex {bad[0]} joins {joins[bad[0]]} segments; loops "
            "must be closed and non-branching")
    # the two segments at each vertex that has any
    pair = (np.argsort(segments.ravel(), kind="stable") // 2).reshape(-1, 2)
    pair = pair[np.cumsum(joins > 0) - 1]
    used = np.zeros(len(segments), bool)
    loops, clockwise = [], []
    for seg in range(len(segments)):
        if used[seg]:
            continue
        loop, here = [int(segments[seg, 0])], int(segments[seg, 1])
        while not used[seg]:
            used[seg] = True
            loop.append(here)
            seg = int(pair[here].sum()) - seg      # the other one
            here = int(segments[seg].sum()) - here
        loop.pop()
        x, y = unique[loop].T
        area2 = (x * np.roll(y, -1) - y * np.roll(x, -1)).sum()
        if area2 == 0:
            raise GeometryError("polyline loop has zero area")
        loops.append(loop)
        clockwise.append(area2 < 0)

    def chained():
        return np.concatenate([np.column_stack([loop, np.roll(loop, -1)])
                               for loop in loops])

    # a loop's depth is the parity of one of its vertices against the
    # other loops
    corners = unique[chained()]
    owner = np.repeat(np.arange(len(loops)), [len(loop) for loop in loops])
    row, seg = _crossings(unique[[loop[0] for loop in loops]], corners,
                          _centroid_search(corners[:, :, 1:]),
                          max(1.0, float(np.abs(corners).max())))
    odd = np.bincount(row[owner[seg] != row], minlength=len(loops)) % 2 == 1
    for loop, turn, flip in zip(loops, clockwise, odd):
        if turn != flip:
            loop.reverse()
    return unique, chained()


def read_gmsh_lines(path):
    """2-node line elements and nodes from a Gmsh ASCII v2.2 file."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    try:
        fmt = lines.index("$MeshFormat")
        if not lines[fmt + 1].startswith("2.2"):
            raise GeometryError(f"{path}: unsupported Gmsh format {lines[fmt + 1]!r}")
        nstart = lines.index("$Nodes")
        count = int(lines[nstart + 1])
        nodes = [row.split() for row in lines[nstart + 2:nstart + 2 + count]]
        ids = {int(parts[0]): k for k, parts in enumerate(nodes)}
        coords = [(float(parts[1]), float(parts[2])) for parts in nodes]
        estart = lines.index("$Elements")
        ecount = int(lines[estart + 1])
        segments = []
        for row in lines[estart + 2:estart + 2 + ecount]:
            parts = [int(p) for p in row.split()]
            if parts[1] == 1:   # a 2-node line; its nodes follow the tags
                ntags = parts[2]
                segments.append((ids[parts[3 + ntags]], ids[parts[4 + ntags]]))
    except (ValueError, IndexError, KeyError) as err:
        raise GeometryError(f"{path}: malformed Gmsh file ({err})") from None
    if not segments:
        raise GeometryError(f"{path}: no line elements found")
    return _finite(coords, f"Gmsh file {path}"), np.asarray(segments, int)


# ---------------------------------------------------------------------------
# Triangle surface in 3-D

class TriSurface(_Faceted):
    """Closed triangle mesh, outward-oriented, with feature pseudo-normals."""

    dimension = 3
    _columns = slice(0, 2)      # side-test rays run along +z
    kept, closest = _Faceted.kept, _Faceted.closest

    def __init__(self, vertices, faces, outer_boundary=True):
        vertices = _finite(vertices, "argument 'vertices'")
        faces = np.asarray(faces, int)
        if len(faces) == 0:
            raise GeometryError("triangle surface has no faces")
        vertices, faces = _weld(vertices, faces,
                                "triangle surface has a degenerate face")
        faces = _orient_outward(vertices, faces)
        self.vertices, self.faces = vertices, faces
        self.outer_boundary = bool(outer_boundary)
        self._corners = vertices[faces]
        a, b, c = (self._corners[:, k] for k in range(3))
        cross = np.cross(b - a, c - a)
        area2 = np.linalg.norm(cross, axis=1)
        if np.any(area2 == 0):
            raise GeometryError("triangle surface has a degenerate face")
        face_normals = cross / area2[:, None]
        normals = np.concatenate([
            _angle_weighted_normals(vertices, faces, face_normals)[faces],
            _edge_slot_normals(faces, face_normals), face_normals[:, None]],
            axis=1)
        normals /= np.linalg.norm(normals, axis=2)[..., None]
        self._normals = normals if self.outer_boundary else -normals

    # -- side classification ------------------------------------------------

    def _inside(self, points):
        """Ray parity along +z, one shared ray per (x, y) column."""
        order = np.lexsort((points[:, 1], points[:, 0]))
        x, y, heights = (np.take(points[:, k], order) for k in range(3))
        # sorted, a column is one run
        fresh = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1])]
        columns = np.column_stack([x[fresh], y[fresh]])
        column_of = np.cumsum(fresh) - 1        # of each sorted point
        grid, radius = self._column_search
        scale = self._scale
        # Faces whose projection comes this close to a column are tested
        # against it: the pad is well beyond the largest nudge below
        # (1.22 * scale * 1e-9 * 3**6), the eps band and the graze margin.
        pad = 1e-5 * scale
        corners = [self.vertices[self.faces[:, k]] for k in range(3)]
        hit_col, hit_z = [np.empty(0, np.intp)], [np.empty(0)]
        reach = np.full(len(columns), radius + pad)
        for col, face, d2 in grid.near(columns, reach):
            near = d2 <= reach[col] ** 2
            col, face = col[near], face[near]
            for attempt in range(8):
                # A ray that grazes an edge, a vertex or an edge-on face is
                # shot again, nudged sideways.
                delta = scale * 1e-9 * 3.0 ** (attempt - 1) if attempt else 0.0
                ambiguous, strict, z = _ray_crossings(
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
        # Sort crossings and points together by column, then from the top
        # down, a crossing level with a point ahead of it; the crossings
        # passed so far in the column are those at or above the point.
        kind = np.r_[np.zeros(len(hit_col), bool), np.ones(len(heights), bool)]
        ranked = np.lexsort((kind, -np.r_[hit_z, heights],
                             np.r_[hit_col, column_of]))
        passed = np.cumsum(~kind[ranked])[kind[ranked]]
        at = ranked[kind[ranked]] - len(hit_col)
        per_column = np.bincount(hit_col, minlength=len(columns))
        above = passed - (np.cumsum(per_column) - per_column)[column_of[at]]
        inside = np.empty(len(points), bool)
        inside[order[at]] = above % 2 == 1
        return inside

    def _project(self, p, face):
        return _closest_on_triangles(p, *(
            np.take(self.vertices, self.faces[face, k], axis=0)
            for k in range(3)))


# Most grid rows and (query, point) pairs read at once; bounds the arrays.
_PAIR_BUDGET = 1 << 17


class _CellGrid:
    """Points filed under the cells of a uniform grid, one cell each.

    The points are sorted by flat cell key, and a table holds where each
    cell's points start. A grid row, the cells along the last axis, is
    one run of that order, so a box of cells is read a row at a time.
    """

    def __init__(self, points, cell):
        self.origin = points.min(axis=0)
        span = points.max(axis=0) - self.origin
        # At most about 4n cells in all, so that the table stays small and
        # a flat key fits in int64.
        cap = np.ceil((4 * len(points)) ** (1 / len(span)))
        self.cell = max(cell, float(span.max()) / cap)
        self.top = (span // self.cell).astype(np.int64)
        self.stride = np.cumprod(np.r_[1, self.top[:0:-1] + 1])[::-1]
        keys = self.cells(points) @ self.stride
        self.order = np.argsort(keys, kind="stable")
        self.points = points[self.order]
        # where each cell's points start in that order, then where they end
        cells = self.stride[0] * (self.top[0] + 1)
        self.first = np.searchsorted(keys[self.order], np.arange(cells + 1))

    def cells(self, points):
        # clamped to the grid before the cast, so far points cannot overflow
        return np.clip((points - self.origin) / self.cell, 0,
                       self.top).astype(np.int64)

    def near(self, queries, reach):
        """(query, point, squared distance) for every point in the cells
        that the cube of half-side ``reach[i]`` around query ``i`` meets,
        in chunks of consecutive queries that read at most
        ``_PAIR_BUDGET`` grid rows and points (or one query)."""
        lo = self.cells(queries - reach[:, None])
        span = self.cells(queries + reach[:, None]) - lo + 1
        count = span[:, :-1].prod(axis=1)
        for a, b in _runs(count):
            first = np.r_[0, np.cumsum(count[a:b])]     # each query's rows
            box = np.repeat(np.arange(a, b), count[a:b])
            local = np.arange(len(box)) - first[box - a]
            key = np.take(lo, box, axis=0) @ self.stride
            for axis in reversed(range(len(self.top) - 1)):
                local, step = np.divmod(local, span[box, axis])
                key += step * self.stride[axis]
            start, stop = self.first[key], self.first[key + span[box, -1]]
            ends = np.r_[0, np.cumsum(stop - start)]
            for c, d in _runs(np.diff(ends[first])):
                r0, r1 = first[c], first[d]
                size = stop[r0:r1] - start[r0:r1]
                pos = np.arange(ends[r0], ends[r1]) + np.repeat(
                    start[r0:r1] - ends[r0:r1], size)
                row = np.repeat(box[r0:r1], size)
                # np.take gathers rows several times faster than indexing
                gap = (np.take(self.points, pos, axis=0)
                       - np.take(queries, row, axis=0))
                yield row, self.order[pos], np.einsum("ij,ij->i", gap, gap)

    def bound(self, queries):
        """An upper bound on each query's distance to the points: the
        distance to the nearest point in the cells within ``reach`` of
        it, ``reach`` doubling from half a cell until they hold one."""
        best = np.full(len(queries), np.inf)
        todo = np.arange(len(queries))
        reach = 0.5 * self.cell
        while len(todo) and reach < np.inf:     # inf only for non-finite queries
            for row, _, d2 in self.near(queries[todo],
                                        np.full(len(todo), reach)):
                np.minimum.at(best, todo[row], d2)
            todo = todo[np.isinf(best[todo])]
            reach *= 2.0
        return np.sqrt(best)


def _runs(sizes):
    """Runs of consecutive entries whose ``sizes`` sum to at most
    ``_PAIR_BUDGET`` (or one entry), as ``(start, stop)``."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - sizes[lo] + _PAIR_BUDGET, side="right")))
        yield lo, hi
        lo = hi


def _ray_crossings(xy, a, b, c, scale):
    """Upward rays from ``xy[i]`` against triangles ``(a[i], b[i], c[i])``.

    Returns which pairs are ambiguous (the ray passes through the eps band
    around a projected edge, or grazes an edge-on triangle), which cross
    strictly inside, and the height of each crossing.
    """
    e1 = b[:, :2] - a[:, :2]
    e2 = c[:, :2] - a[:, :2]
    denom = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    rel = xy - a[:, :2]
    flat = np.abs(denom) <= 1e-14 * scale * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (rel[:, 0] * e2[:, 1] - rel[:, 1] * e2[:, 0]) / denom
        t = (e1[:, 0] * rel[:, 1] - e1[:, 1] * rel[:, 0]) / denom
    s = np.where(flat, -1.0, s)
    t = np.where(flat, -1.0, t)
    # Crossings counted strictly inside; anything in the eps band around
    # a projected edge forces a retry with a nudged ray.
    eps = 1e-10
    loose = (s >= -eps) & (t >= -eps) & (s + t <= 1 + eps)
    strict = (s > eps) & (t > eps) & (s + t < 1 - eps)
    ambiguous = loose & ~strict
    if flat.any():
        # Edge-on triangles project to slivers; only grazing them matters.
        margin = 1e-9 * scale
        point = xy[flat]
        corners = (a[flat, :2], b[flat, :2], c[flat, :2])
        graze = np.zeros(len(point), bool)
        for u, v in ((0, 1), (1, 2), (2, 0)):
            seg = corners[v] - corners[u]
            length2 = np.einsum("ij,ij->i", seg, seg)
            length2[length2 == 0] = 1.0
            frac = np.einsum("ij,ij->i", point - corners[u], seg) / length2
            foot = corners[u] + np.clip(frac, 0.0, 1.0)[:, None] * seg
            graze |= np.linalg.norm(point - foot, axis=1) <= margin
        ambiguous[flat] |= graze
    z = a[:, 2] + s * (b[:, 2] - a[:, 2]) + t * (c[:, 2] - a[:, 2])
    return ambiguous, strict, z


# Per triangle feature code: the corner (0 a, 1 b, 2 c) its closest point
# starts from, the corner it steps toward, and the step (t_ab, t_ac, t_bc, v);
# a corner takes no step, and the interior a second one, w along ac.
_FEATURE_STEPS = np.array([[0, 0, 0], [1, 1, 0], [2, 2, 0],
                           [0, 1, 0], [0, 2, 1], [1, 2, 2], [0, 1, 3]])


def _closest_on_triangles(p, a, b, c):
    """Closest point from each ``p[i]`` onto triangle ``(a[i], b[i], c[i])``,
    plus the feature it lies on.

    Feature codes: 0, 1, 2 the triangle's corners; 3, 4, 5 the edges
    (01), (02), (12); 6 the interior.
    """
    ab = b - a
    ac = c - a
    # p[i] less each corner, against each edge from a; the differences are
    # freed before the point is picked
    d1, d2, d3, d4, d5, d6 = (np.einsum("ij,ij->i", e, q)
                              for q in (p - a, p - b, p - c) for e in (ab, ac))
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    # the first region in this list that holds p[i] names its feature
    feature = np.select([
        (d1 <= 0) & (d2 <= 0),
        (d3 >= 0) & (d4 <= d3),
        (vc <= 0) & (d1 >= 0) & (d3 <= 0),
        (d6 >= 0) & (d5 <= d6),
        (vb <= 0) & (d2 >= 0) & (d6 <= 0),
        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)], [0, 1, 3, 2, 4, 5], 6)

    # the steps along the edges (t_ab, t_ac, t_bc) and inside (v, w)
    total = va + vb + vc
    fractions = ((d1, d1 - d3), (d2, d2 - d6),
                 (d4 - d3, (d4 - d3) + (d5 - d6)), (vb, total), (vc, total))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab, t_ac, t_bc, v, w = (np.where(over != 0, top / over, 0.0)
                                  for top, over in fractions)

    # row k*n + i of the corners and of the steps holds item k of pair i
    n = len(p)
    from_row, to_row, step_row = (np.take(_FEATURE_STEPS, feature, axis=0).T
                                  * n + np.arange(n))
    start, toward = np.take(np.concatenate((a, b, c)), np.r_[from_row, to_row],
                            axis=0).reshape(2, n, 3)
    step = np.take(np.concatenate((t_ab, t_ac, t_bc, v)), step_row)
    cand = np.where((feature < 3)[:, None], start,
                    start + step[:, None] * (toward - start))
    inside = np.flatnonzero(feature == 6)
    cand[inside] += w[inside, None] * ac[inside]
    return cand, feature


def _weld(vertices, facets, degenerate):
    """Merge coincident vertices; a facet with a repeated corner fails."""
    unique, inverse = np.unique(vertices, axis=0, return_inverse=True)
    facets = inverse[facets]
    ordered = np.sort(facets, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise GeometryError(degenerate)
    return unique, facets


def _orient_outward(vertices, faces):
    """Flip the whole surface if its signed volume is negative.

    Assumes the input winding is already internally consistent, as STL
    files produced by sane tools are.
    """
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    volume6 = np.einsum("ij,ij->i", a, np.cross(b, c)).sum()
    if volume6 == 0:
        raise GeometryError("triangle surface encloses no volume")
    if volume6 < 0:
        faces = faces[:, ::-1].copy()
    return faces


def _angle_weighted_normals(vertices, faces, face_normals):
    normals = np.zeros_like(vertices)
    corners = [vertices[faces[:, k]] for k in range(3)]
    for k in range(3):
        u = corners[(k + 1) % 3] - corners[k]
        v = corners[(k + 2) % 3] - corners[k]
        cosine = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles = np.arccos(np.clip(cosine, -1.0, 1.0))
        np.add.at(normals, faces[:, k], angles[:, None] * face_normals)
    lengths = np.linalg.norm(normals, axis=1)
    lengths[lengths == 0] = 1.0
    return normals / lengths[:, None]


def _edge_slot_normals(faces, face_normals):
    """Per-face, per-edge-slot pseudo-normals (mean of the two face normals).

    Slots follow the feature codes: 0 edge (01), 1 edge (02), 2 edge (12).
    """
    ends = np.sort(faces[:, [[0, 1], [0, 2], [1, 2]]], axis=2).reshape(-1, 2)
    keys = ends[:, 0].astype(np.int64) * (int(faces.max()) + 1) + ends[:, 1]
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.searchsorted(ranked, keys, side="left")
    count = np.searchsorted(ranked, keys, side="right") - first
    if np.any(count != 2):
        raise GeometryError(
            "triangle surface is not watertight: an edge borders "
            f"{count[np.argmax(count != 2)]} faces")
    slot = np.arange(len(keys))
    partner = np.where(order[first] == slot, order[first + 1], order[first])
    own = slot // 3
    normal = face_normals[own] + face_normals[partner // 3]
    # a BLAS dot per row, rounding as np.linalg.norm does for one vector
    length = np.sqrt(normal[:, None, :] @ normal[:, :, None]).ravel()
    flat = length == 0
    length[flat] = 1.0
    out = normal / length[:, None]
    out[flat] = face_normals[own[flat]]
    return out.reshape(-1, 3, 3)


def read_stl(path):
    """Vertices and faces from a binary or ASCII STL file."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) >= 84 and len(blob) == 84 + 50 * struct.unpack_from(
            "<I", blob, 80)[0]:
        records = np.frombuffer(blob, np.uint8, offset=84).reshape(-1, 50)
        tris = records[:, 12:48].copy().view("<f4").astype(float)
    else:
        try:
            text = blob.decode("ascii")
        except UnicodeDecodeError:
            raise GeometryError(f"{path}: not a valid STL file") from None
        tris = []
        for line in text.splitlines():
            parts = line.split()
            if parts[:1] == ["vertex"]:
                if len(parts) != 4:
                    raise GeometryError(f"{path}: malformed vertex line")
                tris.append([float(p) for p in parts[1:]])
        if not tris or len(tris) % 3 != 0:
            raise GeometryError(f"{path}: not a valid STL file")
    if len(tris) == 0:
        raise GeometryError(f"{path}: STL file contains no triangles")
    vertices = _finite(np.reshape(tris, (-1, 3)), f"STL file {path}")
    return vertices, np.arange(len(vertices)).reshape(-1, 3)


def write_stl(path, vertices, faces):
    """Write a binary STL file."""
    vertices = np.asarray(vertices, float)
    faces = np.asarray(faces, int)
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    normals = np.cross(b - a, c - a)
    lengths = np.linalg.norm(normals, axis=1)
    lengths[lengths == 0] = 1.0
    normals /= lengths[:, None]
    records = np.zeros(len(faces), dtype=[("n", "<f4", 3), ("v", "<f4", (3, 3)),
                                          ("attr", "<u2")])
    records["n"] = normals
    records["v"] = vertices[faces]
    with open(path, "wb") as handle:
        handle.write(b"\0" * 80)
        handle.write(struct.pack("<I", len(faces)))
        handle.write(records.tobytes())


# ---------------------------------------------------------------------------

def load_geometry(spec, dimension, base_dir="."):
    """Build the runtime geometry for one script ``[geometry]`` block."""
    offset = np.asarray(spec.position if spec.position is not None
                        else (0.0,) * dimension, float)
    if spec.kind in ("circle", "sphere"):
        return Ball(np.asarray(spec.center, float) + offset, spec.radius,
                    spec.outer_boundary)
    assert spec.kind == "mesh"
    shape, read = ((Polyline, read_gmsh_lines) if dimension == 2
                   else (TriSurface, read_stl))
    # an absolute mesh_file replaces base_dir in the join
    nodes, facets = read(os.path.join(base_dir, spec.mesh_file))
    return shape(nodes + offset, facets, spec.outer_boundary)
